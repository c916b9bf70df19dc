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

import dataclasses
import hashlib
import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


# Numbers as Python, numpy and fractions give them: each kind has one rule and one stored form.
INT_KINDS = (int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
FLOAT_WIDTHS = {np.float16: 16, np.float32: 32, np.float64: 64}


def ints(lo, hi=2**64 - 1):
    """An int in [lo, hi] as a Python int or any numpy int kind that holds it."""
    kinds = [st.integers(lo, hi)]
    for kind in INT_KINDS[1:]:
        info = np.iinfo(kind)
        if max(lo, int(info.min)) <= min(hi, int(info.max)):
            kinds.append(st.integers(max(lo, int(info.min)), min(hi, int(info.max))).map(kind))
    return pick(*kinds)


def reals(lo, hi):
    """A real in [lo, hi] as a Python float, a numpy float of any width, a fraction or an int."""
    return pick(
        st.floats(lo, hi),
        *(st.floats(max(lo, float(np.finfo(kind).min)), min(hi, float(np.finfo(kind).max)), width=width).map(kind)
          for kind, width in FLOAT_WIDTHS.items()),
        st.fractions(lo, hi, max_denominator=10**6),
        ints(math.ceil(lo), math.floor(hi)) if math.ceil(lo) <= math.floor(hi) else st.nothing(),
    )


DENSITIES = reals(2**-10, 1)  # above 0, and exact at every float width
# key=float: Fraction(1, 1024) < np.int8(1) multiplies 1024 by an int8, which overflows.
BOUNDS = st.lists(DENSITIES, min_size=2, max_size=2).map(lambda pair: sorted(pair, key=float))
PATHS = st.lists(st.text("ab.-_", min_size=1, max_size=4), max_size=3).map(lambda parts: Path("/", *parts))
PATHS = pick(PATHS, PATHS.map(str))

DOCUMENT_DRAWS = {
    "arch": st.tuples(st.integers(1, 8), st.integers(1, 16)).flatmap(lambda shape: st.builds(
        lambda heads, hidden, rest: lewis.ArchConfig(num_heads=heads, hidden_dim=hidden, **rest),
        ints(shape[0], shape[0]), ints(shape[0] * shape[1], shape[0] * shape[1]),
        st.fixed_dictionaries({}, optional={key: ints(1, 1000) for key in
                                            ("vocab_size", "num_blocks", "mlp_dim", "max_seq_len")}),
    )),
    "profile": st.builds(
        lambda norms, n, convention: lewis.ActivationProfile("m", dict(enumerate(norms)), n, convention),
        st.lists(reals(0, 1e6), min_size=1, max_size=4), ints(1), st.sampled_from(["mean-token-l2", "frobenius"]),
    ),
    "plan": st.builds(
        lewis.SparsityPlan,
        st.text(max_size=3),
        st.sampled_from(["lewis-minmax", "topk", "uniform"]),
        st.dictionaries(ints(0, 2**63), DENSITIES, max_size=4),
        st.none() | DENSITIES,
        st.none() | BOUNDS | BOUNDS.map(lambda pair: lewis.SparsityBounds(*pair)),
        st.none() | st.dictionaries(st.sampled_from(["Q", "K", "V", "O", "MLP"]), DENSITIES),
        st.none() | st.dictionaries(st.text(max_size=3), st.text(max_size=3), max_size=2),
    ),
    "recipe": st.integers(1, 3).flatmap(lambda n: st.builds(
        lewis.MergeRecipe,
        PATHS,
        st.lists(PATHS, min_size=n, max_size=n),
        st.lists(reals(-1e6, 1e6), min_size=n, max_size=n) | st.just([]),
        st.sampled_from(["ties", "task-arithmetic", "dare-linear", "dare-ties"]),
        st.none() | DENSITIES | st.lists(PATHS, min_size=n, max_size=n),
        ints(-(2**63)),
    )),
}


def plain(value) -> bool:
    """True if `value` holds only str, int, float and None, nested in lists, dicts and dataclasses."""
    if dataclasses.is_dataclass(value):
        return plain([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, list):
        return all(map(plain, value))
    if isinstance(value, dict):
        return all(map(plain, value)) and all(map(plain, value.values()))
    return type(value) in (str, int, float, type(None))


@pytest.mark.parametrize("kind", list(DOCUMENT_DRAWS))
def test_document_saves_the_plain_values_it_holds(tmp_path, kind):
    """Whatever numbers and paths a constructor accepts, the document holds plain ints, floats and strs,
    saves without a warning, and loads back equal with the same digest."""
    path = tmp_path / "doc.json"

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def check(data):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                doc = data.draw(DOCUMENT_DRAWS[kind])
            except lewis.MergeError:  # a draw the rules refuse: bounds whose stored floats fall in the other order
                assume(False)
            assert plain(doc)
            doc.save(path)
            loaded = type(doc).load(path)
        assert loaded == doc and loaded.digest() == doc.digest()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == doc.digest()

    check()


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(st.lists(ints(-(2**63)), min_size=1, max_size=5), min_size=1, max_size=4))
def test_calibration_set_saves_the_ids_it_holds(tmp_path_factory, samples):
    """Token ids of any int kind save as plain ints, without a warning, and read back equal."""
    path = tmp_path_factory.mktemp("calib") / "c.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lewis.CalibrationSet(samples).save(path)
        loaded = lewis.CalibrationSet.from_file(path)
    assert loaded.samples == samples and plain(loaded.samples)
