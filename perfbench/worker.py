"""The process that runs one workload's jobs; started by run.py, never by hand.

It starts after setup, so the inputs setup generated do not count in its
peak RSS. Usage: python3 perfbench/worker.py CONFIG.json, where run.py
writes CONFIG.json; the raw per-job samples go to the config's "result" path.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

# Discarded jobs before timing: the first merge in a fresh process runs
# 30-80% slower than later ones (page faults on first use of the arrays).
WARMUP_JOBS = 1
# Each kind of job (untraced; traced in a traced run) is measured at least
# this many times, even past --seconds, unless the run's time limit is near.
MIN_SAMPLES = 3


def _reference_ms(repeats: int = 5) -> list[float]:
    """Times of a fixed numpy kernel that no library change can move.

    The machine's speed drifts while other tenants load it; these times,
    taken before and after the jobs, let results from different runs be
    compared with that drift in view.
    """
    import numpy as np

    values = np.random.default_rng(0).standard_normal(1 << 20)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.sort(values)
        times.append(1e3 * (time.perf_counter() - t0))
    return times


def _run_one(cfg: dict, m: dict, kind: str, reference: dict) -> dict:
    import layers
    import workloads
    from spans import Tracer

    work = Path(cfg["work"])
    out = work / "merged.safetensors"
    tracer = None
    record: dict = {"kind": kind}
    try:
        if kind == "traced":
            tracer = Tracer()
            layers.instrument(tracer)
            tracemalloc.start()
        try:
            if m["spec"]["method"] == "pipeline":
                result = workloads.pipeline_job(m, work, tracer)
            elif kind == "traced":
                result = workloads.recomposed_merge_job(m, out, reference["path"], tracer)
            else:
                result = workloads.merge_job(m, out)
        finally:
            if tracer is not None:
                tracemalloc.stop()
                tracer.restore()
        t0 = time.perf_counter()
        sha = workloads.check_output(m, result, reference.get("sha256"))
        record["check_s"] = time.perf_counter() - t0
        if "sha256" not in reference:
            reference["sha256"] = sha
            reference["path"] = str(work / "reference.safetensors")
            Path(result.output).replace(reference["path"])
        record.update(
            ok=True, sha256=sha, job_s=result.job_s, merge_s=result.merge_s,
            capture_s=result.capture_s, capture_tokens=result.capture_tokens,
            eval_s=result.eval_s, eval_tokens=result.eval_tokens, eval_loss=result.eval_loss,
        )
        if tracer is not None:
            record["layers"] = layers.layer_metrics(tracer, result.job_s)
    except Exception as exc:  # a failed job is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        record.update(ok=False, error=f"{type(exc).__name__}: {exc}")
    return record


def main(config_path: str) -> int:
    began = time.perf_counter()
    cfg = json.loads(Path(config_path).read_text())
    sys.path.insert(0, cfg["src"])
    import lewis

    if not Path(lewis.__file__).resolve().is_relative_to(Path(cfg["src"]).resolve()):
        print(f"lewis imported from {lewis.__file__}, not {cfg['src']}", file=sys.stderr)
        return 2
    m = json.loads((Path(cfg["inputs"]) / "manifest.json").read_text())
    Path(cfg["work"]).mkdir(parents=True, exist_ok=True)

    reference_ms = _reference_ms()
    kinds = ["plain", "traced"] if cfg["trace"] else ["plain"]
    reference: dict = {}
    records = []
    for _ in range(WARMUP_JOBS):
        for kind in kinds:
            records.append({**_run_one(cfg, m, kind, reference), "warmup": True})

    start = time.perf_counter()
    counts = dict.fromkeys(kinds, 0)
    longest = 0.0
    while True:
        kind = min(kinds, key=lambda k: counts[k])  # alternate the kinds
        t0 = time.perf_counter()
        records.append({**_run_one(cfg, m, kind, reference), "warmup": False})
        longest = max(longest, time.perf_counter() - t0)
        counts[kind] += 1
        now = time.perf_counter()
        if now - start >= cfg["seconds"] and min(counts.values()) >= MIN_SAMPLES:
            break
        if min(counts.values()) >= 1 and now - began + 2 * longest > cfg["budget_s"]:
            break

    reference_ms += _reference_ms()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "records": records,
        "warmup_jobs": WARMUP_JOBS,
        "measure_s": time.perf_counter() - start,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "output_sha256": reference.get("sha256"),
        "reference_kernel_ms": statistics.median(reference_ms),
    }
    Path(cfg["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
