"""Fuzz the CLI with arbitrary JSON written as each document kind.

A document starts from a valid one, then has fields replaced or dropped
and keys added (real field names, typos of them, or any text), with
arbitrary JSON values, huge ints and nested lists and objects among them;
or it is an arbitrary JSON value. Whatever it holds, the command that reads it exits 0
or 1 and raises nothing, and a document that fails to load is reported as
`error: <path>: ...`.

Block-keyed maps (a profile's `layer_norms`, a plan's `densities`) load
exactly as they were saved: any set of block ids round-trips with its
digest, and a key that is not the text str() writes for a block, or a
second key for one block, is the document's error naming the field.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lewis
from lewis.cli import main

ARCH = {"vocab_size": 256, "hidden_dim": 8, "num_blocks": 2, "num_heads": 2, "mlp_dim": 16, "max_seq_len": 32}

# kind: (class, a valid document, typos of its keys, argv for the command that reads it)
KINDS = {
    "arch": (
        lewis.ArchConfig, ARCH, ["hidden_dm", "depth", "num_head"],
        lambda ws, doc: ["capture", "--model", ws / "fine.safetensors", "--arch", doc,
                         "--calib", ws / "calib.jsonl", "--out", ws / "p.json"],
    ),
    "profile": (
        lewis.ActivationProfile,
        {"model_id": "m", "layer_norms": {"0": 1.0, "1": 2.5}, "num_samples": 3, "norm_convention": "frobenius"},
        ["norm_conventon", "layer_norm", "num_sample"],
        lambda ws, doc: ["plan", "--mode", "lewis-minmax", "--profile", doc, "--base-profile", doc,
                         "--out", ws / "plan.json"],
    ),
    "plan": (
        lewis.SparsityPlan,
        {"model_id": "m", "mode": "lewis-minmax", "densities": {"0": 0.9, "1": 0.6}, "default_density": 0.5,
         "bounds": [0.5, 0.9]},
        ["densites", "default", "role_override"],
        lambda ws, doc: ["merge", "--base", ws / "base.safetensors", "--model", ws / "fine.safetensors",
                         "--plan", doc, "--out", ws / "m.safetensors"],
    ),
    "recipe": (
        lewis.MergeRecipe,
        {"base_path": "base.safetensors", "model_paths": ["fine.safetensors"], "method": "dare-ties",
         "plan_refs": 0.5, "seed": 3},
        ["alpha", "sed", "plan_ref", "naming_scheme"],
        lambda ws, doc: ["merge", "--recipe", doc, "--out", ws / "m.safetensors"],
    ),
}

# The literal normalization divides by the block count and the score sum, so it has faults of its own.
KINDS["profile-literal"] = (*KINDS["profile"][:3], lambda ws, doc: [
    "plan", "--mode", "lewis-literal", "--profile", doc, "--base-profile", doc, "--out", ws / "plan.json"])

HUGE_INTS = st.sampled_from([10**400, -(10**400), 2**63, 2**64, 10**12])
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)


def pick(*strategies):
    """One of `strategies`, each as likely; `|` would flatten nested choices
    and so weigh each by its number of branches."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


def documents(kind):
    """A valid document with one field replaced; with fields dropped and keys
    added or replaced; or any JSON value."""
    _, valid, typos, _ = KINDS[kind]
    own = st.sampled_from(list(valid))
    names = pick(own, st.sampled_from([*typos, *ARCH, "model_id", "mode", "alphas", "provenance"]), st.text(max_size=8))
    values = st.recursive(
        pick(HUGE_INTS, SCALARS),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(pick(names, st.sampled_from(["0", "1", "10", "Q", "MLP"])), inner, max_size=3),
        max_leaves=8,
    )
    replaced = st.builds(lambda key, value: {**valid, key: value}, own, values)
    edited = st.builds(
        lambda drop, add: {**{k: v for k, v in valid.items() if k not in drop}, **add},
        st.sets(own, max_size=2),
        st.dictionaries(names, values, max_size=3),
    )
    return pick(replaced, edited, values)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("fuzz")
    arch = lewis.ArchConfig(**ARCH)
    base = lewis.random_checkpoint(arch, seed=81)
    rng = np.random.default_rng(82)
    fine = lewis.Checkpoint({n: base[n] + 0.2 * rng.standard_normal(base[n].shape) for n in base.names()})
    lewis.write_checkpoint(base, ws / "base.safetensors")
    lewis.write_checkpoint(fine, ws / "fine.safetensors")
    lewis.CalibrationSet([lewis.tokenize("the quick brown fox")]).save(ws / "calib.jsonl")
    return ws


@pytest.mark.parametrize("kind", list(KINDS))
def test_any_document_exits_cleanly(workspace, kind):
    cls, _, _, argv = KINDS[kind]
    path = workspace / f"{kind}.json"

    @settings(max_examples=100, deadline=None)
    @given(doc=documents(kind))
    def check(doc):
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([str(a) for a in argv(workspace, path)])
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().startswith("error: ")
        try:
            cls.load(path)
        except lewis.MergeError:
            assert code == 1 and err.getvalue().startswith(f"error: {path}: ")

    check()


# Block-keyed maps: saved keys are str(block), and a load reads back exactly those.
BLOCK_MAPS = {
    lewis.ActivationProfile: lambda ids, values: lewis.ActivationProfile("m", dict(enumerate(values[:len(ids)])), 2),
    lewis.SparsityPlan: lambda ids, values: lewis.SparsityPlan("m", "topk", dict(zip(ids, values)), 0.5),
}


@pytest.mark.parametrize("cls", list(BLOCK_MAPS), ids=["profile", "plan"])
def test_block_keys_load_as_saved(tmp_path, cls):
    """A profile's blocks are 0..L-1 for any L; a plan's are any set of non-negative ints."""
    path = tmp_path / "doc.json"

    @settings(max_examples=100, deadline=None)
    @given(ids=st.sets(st.integers(0, 10**30), min_size=1, max_size=16),
           values=st.lists(st.floats(0.01, 1.0), min_size=16, max_size=16))
    def check(ids, values):
        doc = BLOCK_MAPS[cls](sorted(ids), values)
        doc.save(path)
        loaded = cls.load(path)
        assert loaded == doc and loaded.digest() == doc.digest()

    check()


# kind: (class, the block-keyed field, a valid document whose "1" key each spelling below replaces)
BLOCK_DOCS = {
    "profile": (lewis.ActivationProfile, "layer_norms",
                {"model_id": "m", "layer_norms": {"0": 1.0, "1": 2.0}, "num_samples": 1}),
    "plan": (lewis.SparsityPlan, "densities",
             {"model_id": "m", "mode": "topk", "densities": {"0": 0.5, "1": 0.9}, "default_density": 0.5}),
}
SPELLINGS = {"leading-zero": "01", "space": " 1", "plus": "+1", "underscore": "1_0", "negative-zero": "-0",
             "fullwidth": "１"}


@pytest.mark.parametrize("kind", list(BLOCK_DOCS))
@pytest.mark.parametrize("spelling", list(SPELLINGS))
def test_non_canonical_block_key_is_named_error(tmp_path, kind, spelling):
    cls, field, valid = BLOCK_DOCS[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**valid, field: {"0": valid[field]["0"], SPELLINGS[spelling]: valid[field]["1"]}}))
    with pytest.raises(cls._error, match=f"^{re.escape(str(path))}: {field}: block ids must be ints as str"):
        cls.load(path)


@pytest.mark.parametrize("kind", list(BLOCK_DOCS))
@pytest.mark.parametrize("keys", [
    ["0", "1", "01"], [0, 1, "1"], [0, True], [0, 1.0],
], ids=["leading-zero-duplicate", "int-and-text", "bool", "float"])
def test_each_block_is_named_once_by_an_int(tmp_path, kind, keys):
    """In a file two keys can name one block; in memory a key can also be a bool or a float."""
    cls, field, valid = BLOCK_DOCS[kind]
    fields = {**valid, field: dict.fromkeys(keys, valid[field]["1"])}
    with pytest.raises(cls._error, match=f"^{field}: block ids must be ints as str"):
        cls(**fields)
    if all(isinstance(k, str) for k in keys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(fields))
        with pytest.raises(cls._error, match=f"^{re.escape(str(path))}: {field}: "):
            cls.load(path)


@pytest.mark.parametrize("kind", list(BLOCK_DOCS))
def test_key_given_twice_in_a_file_is_named_error(tmp_path, kind):
    """json.loads alone would keep the last "1" and fold two entries into one block."""
    cls, field, valid = BLOCK_DOCS[kind]
    text = json.dumps({**valid, field: {"0": valid[field]["0"], "1": valid[field]["1"]}})
    path = tmp_path / "doc.json"
    path.write_text(text.replace('"1": ', f'"1": {valid[field]["0"]}, "1": '))
    with pytest.raises(cls._error, match=f"^{re.escape(str(path))}: not valid JSON: key '1' appears twice"):
        cls.load(path)
