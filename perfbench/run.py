"""Benchmark of the lewis-merge library: seeded inputs, repeated jobs, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload merge-ties-bf16 --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from --seed (setup, repeated and
timed), then starts worker.py, which runs the jobs for --seconds and
checks every output. --trace 0 reports the end-to-end metrics of untraced
jobs; --trace 1 alternates untraced and traced jobs and reports the
per-layer metrics (see layers.py) and the tracing overhead. The last line of
stdout is one JSON object with the metrics BENCHMARK.json names; the full
result, with workload-specific metrics, sample counts, the output digest and
the environment, is written to perfbench/out/results/. --smoke runs tiny
models, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Setup runs at least SETUP_REPEATS times and until SETUP_MIN_S seconds of
# it are measured, so that a fast setup's median rests on enough samples.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
RUN_LIMIT_S = 170.0  # the whole run, setup included, must end before 180 s

# Units of every metric the benchmark can report. The last stdout line
# carries the ones BENCHMARK.json lists; the results file keeps all that apply.
UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "merge_mparams_per_s": "Mparam/s",
    "capture_ktok_per_s": "ktok/s",
    "eval_ktok_per_s": "ktok/s",
    "peak_rss_mb": "MiB",
    "ops_failed": "frac",
    "checkpoint.read_s": "s",
    "checkpoint.read_mb_per_s": "MiB/s",
    "checkpoint.snap_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.write_mb_per_s": "MiB/s",
    "checkpoint.bytes_read": "bytes",
    "checkpoint.bytes_written": "bytes",
    "checkpoint.peak_alloc_mb": "MiB",
    "task_vectors.compute_s": "s",
    "task_vectors.assemble_s": "s",
    "task_vectors.peak_alloc_mb": "MiB",
    "pruning.prune_s": "s",
    "pruning.tensors": "count",
    "pruning.requested_frac": "frac",
    "pruning.kept_frac": "frac",
    "pruning.peak_alloc_mb": "MiB",
    "merge_methods.combine_s": "s",
    "merge_methods.ties_conflict_frac": "frac",
    "merge_methods.peak_alloc_mb": "MiB",
    "importance.plan_s": "s",
    "importance.plans": "count",
    "runtime.capture_s": "s",
    "runtime.eval_s": "s",
    "runtime.forward_calls": "count",
    "runtime.tokens": "count",
    "runtime.us_per_token": "us",
    "cli.capture_s": "s",
    "cli.plan_s": "s",
    "cli.merge_s": "s",
    "cli.eval_s": "s",
    "trace.overhead_frac": "frac",
    "trace.uncovered_frac": "frac",
    "trace.hook_s": "s",
}


def thread_env() -> dict[str, str]:
    """Fixed thread settings: LEWIS_THREADS merge workers, single-threaded BLAS.

    Merge workers do no BLAS work and the runtime runs on the main thread,
    so at most min(2, nproc) threads compute at once. Thread-scaling numbers
    from a 2-core machine are bounded by those 2 cores.
    """
    workers = min(2, len(os.sched_getaffinity(0)))
    return {
        "LEWIS_THREADS": str(workers),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": thread_env(),
        "machine": platform.machine(),
    }


def _metric(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def end_to_end(m: dict, measured: list[dict]) -> dict[str, dict]:
    params = m["params"] * len(m["models"])
    ok = [r for r in measured if r["ok"]]
    out = {
        "job_s": _metric([r["job_s"] for r in ok]),
        "merge_mparams_per_s": _metric([params / 1e6 / r["merge_s"] for r in ok]),
    }
    if ok[0]["capture_tokens"]:  # only jobs that run the runtime
        out["capture_ktok_per_s"] = _metric([r["capture_tokens"] / 1e3 / r["capture_s"] for r in ok])
        out["eval_ktok_per_s"] = _metric([r["eval_tokens"] / 1e3 / r["eval_s"] for r in ok])
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, dict]:
    ok = [r for r in traced if r["ok"]]
    names = sorted({k for r in ok for k in r["layers"]})
    out = {n: _metric([r["layers"][n] for r in ok if n in r["layers"]]) for n in names}
    traced_job = statistics.median(r["job_s"] for r in ok)
    plain_job = statistics.median(r["job_s"] for r in plain if r["ok"])
    out["trace.overhead_frac"] = {"value": traced_job / plain_job - 1.0, "samples": len(ok)}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny models, for tests")
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    root = HERE.parent
    src = root / "src"
    if not (src / "lewis" / "__init__.py").is_file():
        print(f"error: library source {src / 'lewis'} not found", file=sys.stderr)
        return 2
    spec_doc = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec_doc["per_layer" if args.trace else "end_to_end"]

    # Before numpy is imported, here and in the worker.
    os.environ.update(thread_env())
    sys.path.insert(0, str(src))
    import workloads

    specs = workloads.SMOKE_SPECS if args.smoke else workloads.SPECS
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(specs)}")
    spec = specs[args.workload]

    out_dir = HERE / "out" / f"{'smoke-' if args.smoke else ''}{args.workload}"
    shutil.rmtree(out_dir, ignore_errors=True)
    inputs = out_dir / "inputs"

    setup_times, digests = [], set()
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        shutil.rmtree(inputs, ignore_errors=True)
        t0 = time.perf_counter()
        manifest = workloads.setup(args.workload, spec, args.seed, inputs)
        setup_times.append(time.perf_counter() - t0)
        digests.add(json.dumps(manifest["input_sha256"], sort_keys=True))
    if len(digests) != 1:
        print("error: setup is not deterministic for this seed", file=sys.stderr)
        return 1

    config = {
        "src": str(src), "inputs": str(inputs), "work": str(out_dir / "work"),
        "result": str(out_dir / "worker-result.json"),
        "seconds": args.seconds, "trace": bool(args.trace),
        "budget_s": RUN_LIMIT_S - 10.0 - (time.perf_counter() - t_start),
    }
    config_path = out_dir / "worker-config.json"
    config_path.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(HERE), str(src)])}
    try:
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(config_path)],
            cwd=root, env=env, stdout=sys.stderr, check=True,
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - t_start)),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    raw = json.loads(Path(config["result"]).read_text())

    records = raw["records"]
    measured = [r for r in records if not r["warmup"]]
    plain = [r for r in measured if r["kind"] == "plain"]
    traced = [r for r in measured if r["kind"] == "traced"]
    failed = sum(not r["ok"] for r in records)
    if not any(r["ok"] for r in plain) or (args.trace and not any(r["ok"] for r in traced)):
        print("error: no job of a measured kind succeeded", file=sys.stderr)
        return 1

    metrics = end_to_end(manifest, plain)
    metrics["setup_s"] = _metric(setup_times)
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "samples": 1}
    metrics["ops_failed"] = {"value": failed / len(records), "samples": len(records)}
    if args.trace:
        metrics.update(per_layer(plain, traced))
    for name, entry in metrics.items():
        entry["unit"] = UNITS[name]

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "warmup_jobs_discarded": raw["warmup_jobs"], "setup_repeats": len(setup_times),
        "output_sha256": raw["output_sha256"],
        "input_sha256": manifest["input_sha256"],
        "traced_output_identical": (
            all(r.get("sha256") == raw["output_sha256"] for r in records if r["kind"] == "traced")
            if args.trace else None
        ),
        "params": manifest["params"], "fine_tunes": len(manifest["models"]),
        "environment": {**environment(), "reference_kernel_ms": raw["reference_kernel_ms"]},
        "errors": [r["error"] for r in records if not r["ok"]],
        "metrics": metrics,
    }
    results_dir = HERE / "out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{'smoke-' if args.smoke else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    for name in sorted(metrics):
        e = metrics[name]
        print(f"{name:34s} {e['value']:14.6g} {e['unit']:9s} (n={e['samples']})")
    print(f"output_sha256 {raw['output_sha256']}  attempted {len(records)}  failed {failed}")

    missing = [x["name"] for x in wanted if x["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured on this workload: {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {x["name"]: {"value": metrics[x["name"]]["value"], "unit": x["unit"]}
                    for x in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
