"""Workloads of the lewis-merge benchmark: sizes, seeded inputs, jobs, output checks.

Why each workload exists (the layer table is in README.md):

merge-ties-bf16
    ~6.4M-param BF16 toy model (8 blocks, d=256, mlp 1024), 3 fine-tunes,
    per-model lewis-minmax plans in [0.5, 0.8]. The job is `lewis.merge`
    with `ties`, then a write. Magnitude trim, sign election, the threaded
    TIES path and the BF16 codec do most of the work; the runtime does none.
merge-dare-linear-f32
    ~9.6M-param F32 model (12 blocks, d=256, mlp 1024), 2 fine-tunes. The job
    is `dare-linear`, then a write. Read IO and Philox random drop dominate;
    it runs the serial `assemble_merged` path and the F32 codec with no trim
    and no election, so a trim or TIES change should leave it flat, while a
    change to the read path or to float64 copies shows here most (largest
    input bytes and peak RSS). It is cut down from ~21M params, whose ~1.6 GB
    of page-faulting float64 copies per job made run-to-run spread too wide
    on a shared 2-core machine.
pipeline-lewis
    The README flow in-process through `lewis.cli.main`: capture for base +
    2 fine-tunes, plan (lewis-minmax) x2, merge (ties), eval, on a ~1.2M-param
    model (6 blocks, d=128, mlp 512) with 24 x 128 calibration tokens. The
    runtime dominates and the merge is a small share; the only workload
    where runtime or CLI changes show in `job_s`.

The library only ever sees the files `setup` writes; the seed is the
benchmark's argument, never the library's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import lewis
import lewis.cli
import lewis.pruning
import lewis.task_vectors

BOUNDS = (0.5, 0.8)  # plan keep-density bounds [gamma, epsilon]


@dataclass(frozen=True)
class Spec:
    arch: dict  # ArchConfig keyword arguments
    dtype: str  # stored dtype of every tensor
    fine_tunes: int
    method: str  # "pipeline" runs the CLI flow instead of one merge
    samples: int = 0  # calibration samples (pipeline only)
    tokens: int = 0  # tokens per calibration sample


def _arch(blocks: int, d: int, heads: int, mlp: int, seq: int) -> dict:
    return dict(num_blocks=blocks, hidden_dim=d, num_heads=heads, mlp_dim=mlp, max_seq_len=seq)


SPECS = {
    "merge-ties-bf16": Spec(_arch(8, 256, 4, 1024, 128), "BF16", 3, "ties"),
    "merge-dare-linear-f32": Spec(_arch(12, 256, 4, 1024, 128), "F32", 2, "dare-linear"),
    "pipeline-lewis": Spec(_arch(6, 128, 4, 512, 128), "F32", 2, "pipeline", 24, 128),
}

# Tiny sizes with the same code paths, for the benchmark's own tests.
SMOKE_SPECS = {
    "merge-ties-bf16": Spec(_arch(2, 16, 2, 32, 16), "BF16", 3, "ties"),
    "merge-dare-linear-f32": Spec(_arch(2, 16, 2, 32, 16), "F32", 2, "dare-linear"),
    "pipeline-lewis": Spec(_arch(2, 16, 2, 32, 16), "F32", 2, "pipeline", 4, 16),
}


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def header_metadata(path: str | Path) -> dict[str, str] | None:
    """The `__metadata__` map of a safetensors file, read from its header alone."""
    with open(path, "rb") as fh:
        length = int.from_bytes(fh.read(8), "little")
        return json.loads(fh.read(length)).get("__metadata__")


# --------------------------------------------------------------------------- #
# setup: everything the jobs read, generated from the seed
# --------------------------------------------------------------------------- #

def setup(name: str, spec: Spec, seed: int, inputs: Path) -> dict:
    """Write the models and the plans (merge workloads) or the calibration set; return the manifest."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x1E5])
    arch = lewis.ArchConfig(**spec.arch)
    roles = lewis.role_classifier(arch.naming_scheme)
    base = lewis.random_checkpoint(arch, seed=int(rng.integers(2**31)))
    base = lewis.Checkpoint(base.tensors, spec.dtype)
    lewis.write_checkpoint(base, inputs / "base.safetensors")

    # Each fine-tune moves each block by its own scale, so blocks deviate
    # unequally and the guided plans are not uniform.
    delta_scale = 0.02 if spec.method == "pipeline" else 0.005
    scales = delta_scale * rng.uniform(0.2, 1.0, size=(spec.fine_tunes, arch.num_blocks))
    model_paths = []
    for p in range(spec.fine_tunes):
        tensors = {}
        for tname in base.names():
            block = roles(tname).block_index
            scale = 0.2 * delta_scale if block is None else scales[p, block]
            tensors[tname] = base[tname] + scale * rng.standard_normal(base[tname].shape)
        path = inputs / f"ft{p}.safetensors"
        lewis.write_checkpoint(lewis.Checkpoint(tensors, spec.dtype), path)
        model_paths.append(str(path))

    plan_paths = []
    if spec.method == "pipeline":
        arch.save(inputs / "arch.json")
        samples = [[int(t) for t in rng.integers(0, arch.vocab_size, size=spec.tokens)]
                   for _ in range(spec.samples)]
        lewis.CalibrationSet(samples).save(inputs / "tokens.jsonl")
    else:
        # Synthetic profiles whose per-block deviation follows the planted
        # delta scale stand in for a capture run, which is not part of these jobs.
        base_norms = rng.uniform(1.0, 2.0, size=arch.num_blocks)
        base_profile = lewis.ActivationProfile("base", dict(enumerate(base_norms)), 1)
        for p in range(spec.fine_tunes):
            norms = base_norms + 10.0 * scales[p]
            profile = lewis.ActivationProfile(f"ft{p}", dict(enumerate(norms)), 1)
            plan = lewis.build_plan_lewis(profile, base_profile, lewis.SparsityBounds(*BOUNDS), "minmax")
            path = inputs / f"ft{p}.plan.json"
            plan.save(path)
            plan_paths.append(str(path))

    manifest = {
        "workload": name,
        "seed": seed,
        "spec": asdict(spec),
        "params": base.num_elements(),
        "tensors": {n: [list(base[n].shape), base.dtypes[n]] for n in base.names()},
        "base": str(inputs / "base.safetensors"),
        "models": model_paths,
        "plans": plan_paths,
        "arch": str(inputs / "arch.json"),  # pipeline only
        "tokens": str(inputs / "tokens.jsonl"),  # pipeline only
        "input_sha256": {p.name: file_sha256(p) for p in sorted(inputs.iterdir())},
    }
    (inputs / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


# --------------------------------------------------------------------------- #
# jobs
# --------------------------------------------------------------------------- #

@dataclass
class JobResult:
    job_s: float
    merge_s: float  # merge + write
    output: str
    # The pipeline's capture and eval steps; merge jobs run no runtime.
    capture_s: float = 0.0
    capture_tokens: int = 0
    eval_s: float = 0.0
    eval_tokens: int = 0
    eval_loss: float = math.nan


def _recipe(m: dict) -> lewis.MergeRecipe:
    return lewis.MergeRecipe(
        base_path=m["base"], model_paths=m["models"], method=m["spec"]["method"],
        plan_refs=m["plans"], seed=m["seed"],
    )


def merge_job(m: dict, out: Path) -> JobResult:
    """The untraced job: one `lewis.merge`, then a write."""
    t0 = time.perf_counter()
    merged = lewis.merge(_recipe(m))
    lewis.write_checkpoint(merged, out)
    job_s = time.perf_counter() - t0
    return JobResult(job_s=job_s, merge_s=job_s, output=str(out))


def recomposed_merge_job(m: dict, out: Path, reference: str, tracer) -> JobResult:
    """The traced job: `lewis.merge` rebuilt from public calls, then a write.

    `_ties_merge` is private, so the merge is recomposed in the library's
    order: read, task vector, prune, combine (`ties_combine` per tensor on
    LEWIS_THREADS workers, or `assemble_merged`), finalize, write. Metadata is
    copied from the untraced `reference` output, so the byte comparison the
    output check makes is of tensor bytes and layout.
    """
    recipe = _recipe(m)
    metadata = header_metadata(reference)
    t0 = time.perf_counter()
    base = lewis.read_checkpoint(recipe.base_path)
    models = [lewis.read_checkpoint(p) for p in recipe.model_paths]
    plans = [lewis.SparsityPlan.load(p) for p in recipe.plan_refs]
    roles = lewis.role_classifier(lewis.detect_naming_scheme(base.names()))
    ids = [Path(p).stem for p in recipe.model_paths]
    tvs = [lewis.compute_task_vector(base, model, i) for model, i in zip(models, ids)]
    mode = "magnitude" if recipe.method in ("task-arithmetic", "ties") else "random"
    pruned = [
        lewis.apply_plan(tv, plan, mode, roles, seed=lewis.pruning.mix_seed(recipe.seed, f"model-{p}"))
        for p, (tv, plan) in enumerate(zip(tvs, plans))
    ]
    if recipe.method in ("task-arithmetic", "dare-linear"):
        merged = lewis.assemble_merged(base, pruned, recipe.alphas, metadata)
    else:
        def combine(name: str) -> np.ndarray:
            stack = np.stack([float(a) * tv[name] for tv, a in zip(pruned, recipe.alphas)])
            return base[name] + lewis.ties_combine(stack)

        names = base.names()
        with tracer.span("merge_methods", "stage"):
            workers = int(os.environ.get("LEWIS_THREADS", "1"))
            if workers <= 1 or len(names) < 2:
                tensors = {n: combine(n) for n in names}
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    tensors = dict(zip(names, pool.map(combine, names)))
        merged = lewis.task_vectors.finalize_checkpoint(tensors, base, metadata)
    lewis.write_checkpoint(merged, out)
    job_s = time.perf_counter() - t0
    return JobResult(job_s=job_s, merge_s=job_s, output=str(out))


def _cli(step: str, argv: list[str], tracer) -> tuple[float, str]:
    """One `lewis` CLI call in-process; returns its wall time and stdout."""
    buf = io.StringIO()
    span = tracer.span("cli", step) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(buf):
        code = lewis.cli.main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"lewis {' '.join(argv)} exited with {code}")
    return elapsed, buf.getvalue()


def pipeline_job(m: dict, work: Path, tracer=None) -> JobResult:
    """capture x3, plan x2, merge (ties), eval -- the README flow."""
    arch, tokens = m["arch"], m["tokens"]
    g, e = (str(b) for b in BOUNDS)
    paths = [m["base"], *m["models"]]
    profiles = [str(work / f"{Path(p).stem}.profile.json") for p in paths]
    plans = [str(work / f"{Path(p).stem}.plan.json") for p in m["models"]]
    out = work / "merged.safetensors"
    steps: dict[str, float] = {"capture": 0.0, "plan": 0.0}

    t0 = time.perf_counter()
    for path, profile in zip(paths, profiles):
        steps["capture"] += _cli("capture", ["capture", "--model", path, "--arch", arch,
                                             "--calib", tokens, "--out", profile], tracer)[0]
    for profile, plan in zip(profiles[1:], plans):
        steps["plan"] += _cli("plan", ["plan", "--mode", "lewis-minmax", "--profile", profile,
                                       "--base-profile", profiles[0], "--gamma", g,
                                       "--epsilon", e, "--out", plan], tracer)[0]
    merge_argv = ["merge", "--base", m["base"], "--method", "ties", "--seed", str(m["seed"]),
                  "--out", str(out)]
    for model, plan in zip(m["models"], plans):
        merge_argv += ["--model", model, "--plan", plan]
    steps["merge"] = _cli("merge", merge_argv, tracer)[0]
    steps["eval"], text = _cli("eval", ["eval", "--ckpt", str(out), "--arch", arch,
                                        "--calib", tokens], tracer)
    job_s = time.perf_counter() - t0

    found = re.search(r"mean cross-entropy: (\S+)", text)
    n_tokens = m["spec"]["samples"] * m["spec"]["tokens"]
    return JobResult(
        job_s=job_s, merge_s=steps["merge"], output=str(out),
        capture_s=steps["capture"], capture_tokens=len(paths) * n_tokens,
        eval_s=steps["eval"], eval_tokens=n_tokens - m["spec"]["samples"],
        eval_loss=float(found.group(1)) if found else math.nan,
    )


# --------------------------------------------------------------------------- #
# output check
# --------------------------------------------------------------------------- #

class CheckFailed(Exception):
    pass


def check_output(m: dict, result: JobResult, reference_sha: str | None) -> str:
    """Check one job's output and return its sha256; raise CheckFailed on the first violation.

    Every workload: the merged file reads back; keyset, shapes and dtypes
    equal the base's; every value is finite; the sha256 equals the run's
    first job's. Pipeline: the eval loss is finite and plan densities lie in
    [gamma, epsilon].
    """
    sha = file_sha256(result.output)
    if reference_sha is not None and sha != reference_sha:
        raise CheckFailed(f"output sha256 {sha} differs from the first job's {reference_sha}")
    merged = lewis.read_checkpoint(result.output)
    if merged.names() != sorted(m["tensors"]):
        raise CheckFailed("merged keyset differs from the base's")
    for name, (shape, dtype) in m["tensors"].items():
        if list(merged[name].shape) != shape or merged.dtypes[name] != dtype:
            raise CheckFailed(f"tensor {name!r}: shape/dtype differ from the base's")
        if not np.all(np.isfinite(merged[name])):
            raise CheckFailed(f"tensor {name!r} has non-finite values")

    if m["spec"]["method"] == "pipeline":
        if not math.isfinite(result.eval_loss):
            raise CheckFailed(f"eval loss is not finite: {result.eval_loss}")
        work = Path(result.output).parent
        for model in m["models"]:
            plan = lewis.SparsityPlan.load(work / f"{Path(model).stem}.plan.json")
            values = [*plan.densities.values(), plan.default_density]
            if not all(BOUNDS[0] <= v <= BOUNDS[1] for v in values):
                raise CheckFailed(f"plan densities {values} outside {list(BOUNDS)}")
    return sha
