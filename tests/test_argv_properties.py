"""Fuzz the CLI's argv.

Each argv is a subcommand (or a bogus one) and some of its flags, usually
with every required flag present, plus bogus flags. A flag's value is a
fixture file of the kind it reads, or any of: another fixture file, a
missing path, a directory, "", ".", "nan", "inf", "-1", "0", "1e400", a
subnormal such as "1e-320", a huge int, or one of any flag's choices.
`--out` mostly gets a fresh path under a temp dir, else "", "." or a path
under a missing directory. Whatever the argv, `main` returns 0, 1 or 2, or
argparse exits with code 0 or 2; no other exception escapes.
"""

import argparse
import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lewis
from lewis.cli import build_parser, main

ARCH = {"vocab_size": 256, "hidden_dim": 8, "num_blocks": 2, "num_heads": 2, "mlp_dim": 16, "max_seq_len": 32}

# The fixture files each path flag reads.
FIXTURES = {
    "--model": ["base.safetensors", "fine.safetensors"],
    "--base": ["base.safetensors"],
    "--ckpt": ["base.safetensors", "fine.safetensors"],
    "--arch": ["arch.json"],
    "--calib": ["calib.jsonl", "short.jsonl"],
    "--profile": ["fine.profile.json"],
    "--base-profile": ["base.profile.json"],
    "--plan": ["plan.json"],
    "--recipe": ["recipe.json"],
}
ODD = ["", ".", "nan", "inf", "-inf", "-1", "0", "0.5", "1", "1e400", "-1e400", "1e-320", "5e-324",
       str(2**63), str(10**400), "9" * 5000, "x"]
BOGUS_FLAGS = ["--bogus", "-x", "--models", "--out=", "-h", "--version"]


def _flags():
    """Subcommand -> its options that take a value (`-h` is among BOGUS_FLAGS)."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in p._actions if a.option_strings and a.nargs != 0] for name, p in sub.choices.items()
    }


FLAGS = _flags()
CHOICES = sorted({str(c) for actions in FLAGS.values() for a in actions for c in a.choices or ()})


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("argv")
    arch = lewis.ArchConfig(**ARCH)
    arch.save(ws / "arch.json")
    base = lewis.random_checkpoint(arch, seed=91)
    rng = np.random.default_rng(92)
    fine = lewis.Checkpoint({n: base[n] + 0.2 * rng.standard_normal(base[n].shape) for n in base.names()})
    lewis.write_checkpoint(base, ws / "base.safetensors")
    lewis.write_checkpoint(fine, ws / "fine.safetensors")
    lewis.CalibrationSet([lewis.tokenize("the quick brown fox")]).save(ws / "calib.jsonl")
    lewis.CalibrationSet([[7]]).save(ws / "short.jsonl")  # too short to evaluate on
    with redirect_stdout(io.StringIO()):
        for tag in ("base", "fine"):
            assert main(["capture", "--model", str(ws / f"{tag}.safetensors"), "--arch", str(ws / "arch.json"),
                         "--calib", str(ws / "calib.jsonl"), "--out", str(ws / f"{tag}.profile.json")]) == 0
        assert main(["plan", "--mode", "lewis-minmax", "--profile", str(ws / "fine.profile.json"),
                     "--base-profile", str(ws / "base.profile.json"), "--out", str(ws / "plan.json")]) == 0
    lewis.MergeRecipe(base_path="base.safetensors", model_paths=["fine.safetensors"], method="dare-ties",
                      plan_refs=0.5, seed=3).save(ws / "recipe.json")
    (ws / "out").mkdir()
    return ws


@st.composite
def argvs(draw, ws, fresh):
    """One argv: a subcommand with flags and values as the module docstring says."""
    command = draw(st.sampled_from([*FLAGS, "frobnicate", ""]))
    actions = FLAGS.get(command, [])
    required = [a for a in actions if a.required]
    if required and draw(st.integers(0, 7)) == 0:  # mostly keep them all, to get past argparse
        required.remove(draw(st.sampled_from(required)))
    chosen = required + (draw(st.lists(st.sampled_from(actions), max_size=5)) if actions else [])
    paths = [str(ws / name) for names in FIXTURES.values() for name in names]
    anything = st.sampled_from([*ODD, *CHOICES, *paths, str(ws), str(ws / "missing.safetensors")])
    argv = [command]
    for action in chosen:
        flag = action.option_strings[-1]
        argv.append(flag)
        if flag == "--out":  # mostly fresh; the others name no file that can be written
            odd = ["", ".", str(ws / "missing" / "m.safetensors")]
            argv.append(draw(st.sampled_from(odd)) if draw(st.integers(0, 3)) == 0 else str(next(fresh)))
            continue
        own = [str(ws / name) for name in FIXTURES.get(flag, [])] + [str(c) for c in action.choices or ()]
        argv.append(draw(st.sampled_from(own) | anything if own else anything))
    for flag in draw(st.lists(st.sampled_from(BOGUS_FLAGS), max_size=1)):
        argv += [flag, draw(anything)] if draw(st.booleans()) else [flag]
    return argv


def test_any_argv_exits_with_a_documented_code(workspace):
    fresh = (workspace / "out" / f"{n}.out" for n in itertools.count())

    @settings(max_examples=300, deadline=None)
    @given(argv=argvs(workspace, fresh))
    def check(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code in (0, 2)
                return
        assert code in (0, 1, 2)

    check()
