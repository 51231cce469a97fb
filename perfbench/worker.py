"""One benchmark process: set up a workload, then measure it or only set up.

Started by ``run.py`` as a fresh interpreter, with ``--t0`` set to the
parent's ``time.monotonic()`` just before the start (the clock is shared by
every process on the host), so ``setup_s`` spans interpreter start, ``import
qindel``, input generation and the warm-up jobs.  The last stdout line is a
JSON record for ``run.py``.

A run executes ``round(seconds / workloads.ROUND_SECONDS)`` whole rounds,
so the seed and the run length fix the jobs, and with them every traced
count: two commits measured on one seed run exactly the same jobs.  An
untraced run stops early, at a round boundary, only in a phase slow enough
to stretch it past ``WALL_CAP`` times ``--seconds``.

Between jobs the run times ``calibrate.kernel`` (at most every
``CALIB_EVERY_S``); job times and set-up times are reported divided by the
run's speed factor, so a slow phase of the shared host does not read as a
slower qindel.  The wall times are kept in the record beside them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"
CALIB_EVERY_S = 0.25  # a calibration sample before the first job after each such interval
# An untraced run starts no round that would, at its mean round time so far,
# end past WALL_CAP * --seconds: this bounds a run's length in a slow phase.
WALL_CAP = 2.5


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile with at least ten of ``jobs`` beyond it (nearest rank).

    With ten jobs or fewer no percentile qualifies and p0 (the minimum) is used.
    """
    for p in range(99, 0, -1):
        if jobs - max(1, math.ceil(p * jobs / 100)) >= 10:
            return p
    return 0


def percentile(times: list[float], p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of jobs beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def hd_quantile(times: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution, so most weight falls on the jobs
    near rank qn.  A run's jobs fall into clusters by kind and size; the plain
    sample quantile jumps across the gap between two clusters when one job
    moves past it, and this estimate moves smoothly.
    """
    import numpy as np

    ordered = np.sort(np.asarray(times, dtype=float))
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    x = np.linspace(0.0, 1.0, 200 * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, x, cdf)
    return float(np.dot(np.diff(edges), ordered))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def blas_record() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "name": info.get("name"),
        "version": info.get("version"),
        "config": info.get("openblas configuration"),
        "threads": None,
    }
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                record["threads"] = getter()
                return record
    return record


def machine_record() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "qindel_commit": git_commit(),
        "qindel_source_sha256": source_digest(),
    }


def measure(plan, workload: str, traced: bool, seconds: float) -> dict:
    from calibrate import kernel, speed_factor
    from jobs import FAILURE_KINDS, run_job

    tracer = None
    if traced:
        import qindel.acceptance
        from spans import Tracer, install

        tracer = Tracer()
        criteria = [fn.__name__ for fn in qindel.acceptance.CRITERIA]
        install(tracer)

    times: list[float] = []
    kinds: list[str] = []
    starts: list[float] = []
    calib: list[tuple[float, float]] = []  # (time since the run began, kernel seconds)
    failures: Counter = Counter()
    uncertified = 0
    details: list[str] = []
    began = time.perf_counter()
    last_calib = -CALIB_EVERY_S
    rounds = 0
    for round_jobs in plan.rounds:
        spent = time.perf_counter() - began
        if not traced and rounds and spent * (rounds + 1) / rounds > WALL_CAP * seconds:
            break
        rounds += 1
        for job in round_jobs:
            now = time.perf_counter() - began
            if now - last_calib >= CALIB_EVERY_S:
                calib.append((now, kernel()))
                last_calib = now
            if tracer is not None:
                job = dataclasses.replace(job, run=tracer.span(f"job.{job.kind}", job.run))
            starts.append(time.perf_counter() - began)
            elapsed, outcome = run_job(job)
            times.append(elapsed)
            kinds.append(job.kind)
            if outcome.failure:
                failures[outcome.failure] += 1
                if outcome.failure == "wrong_verdict" and not outcome.certified:
                    uncertified += 1
                if len(details) < 20:
                    details.append(f"{outcome.failure}: {job.label}: {outcome.detail}")

    calib.append((time.perf_counter() - began, kernel()))
    factor = speed_factor([c for _, c in calib])
    scaled = [t / factor for t in times]
    p = tail_percentile(len(times))
    beyond = percentile(scaled, p)[1]
    result = {
        "rounds": rounds,
        "jobs": len(times),
        "failures": {kind: failures[kind] for kind in FAILURE_KINDS},
        "uncertified_wrong_verdicts": uncertified,
        "failure_details": details,
        "speed_factor": factor,
        "job_s": {
            "p50": hd_quantile(scaled, 0.5),
            "tail": hd_quantile(scaled, p / 100),
            "tail_percentile": p,
            "tail_jobs_beyond": beyond,
            "total": sum(scaled),
            "wall_p50": statistics.median(times),
            "wall_total": sum(times),
        },
        "jobs_per_s": len(times) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "job_times": [[kind, start, t] for kind, start, t in zip(kinds, starts, times)],
        "calibration": calib,
    }
    if tracer is not None:
        from spans import deterministic_counts, per_layer_metrics

        layer = per_layer_metrics(tracer, criteria)
        layer["trace.jobs_per_s"] = (result["jobs_per_s"], "1/s")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["counts"] = deterministic_counts(tracer)
        result["spans"] = len(tracer.starts)
        out = RUN_DIR / "results"
        out.mkdir(parents=True, exist_ok=True)
        tracer.save(out / f"spans_{workload}")  # one file per workload bounds the disk used
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at start")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import qindel

    if ROOT / "src" not in Path(qindel.__file__).resolve().parents:
        print(f"error: imported qindel from {qindel.__file__}, not this checkout", file=sys.stderr)
        return 2

    from jobs import run_job
    from workloads import build

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work_{args.workload}_", dir=RUN_DIR))
    try:
        plan = build(args.workload, args.seed, args.seconds, workdir)
        warmup = [run_job(job)[1] for job in plan.warmup]
        record = {
            "setup_wall_s": time.monotonic() - args.t0,
            "warmup_failures": [f"{o.failure}: {o.detail}" for o in warmup if o.failure],
            "warmup_wrong": any(o.failure == "wrong_verdict" and o.certified for o in warmup),
        }
        if not args.setup_only:
            record.update(measure(plan, args.workload, bool(args.trace), args.seconds))
            record["machine"] = machine_record()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
