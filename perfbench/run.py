"""qindel benchmark: one run of one workload.

    python3 perfbench/run.py --workload deletion-codes --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory and qindel is
imported from its ``src``.  One client in one process runs the workload's jobs
as a closed loop (each call waits for the previous one), with BLAS on one
thread: on a shared 2-CPU host, a second OpenBLAS thread made a 64x64
Hermitian eigensolve take 1 ms in some processes and 56 ms in others.

``--trace 0`` prints the end-to-end metrics.  Set-up is done in
``SETUPS`` fresh interpreters one after another, and ``setup_s`` is their
median; the last of them then measures.  Times are reported at a reference
host speed: each wall time divided by the measuring run's speed factor
(``calibrate.py``).  ``--trace 1`` sets up once, wraps
every traced qindel function (``spans.py``) and prints the per-layer metrics.

Human-readable lines come first; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, with per-kind failures, percentiles and the machine, is written to
``.perfbench_run/results/`` in the checkout.  Exit status is 0 when a result
was printed, nonzero (and no result) when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, setup_only: bool, env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    t0 = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(t0),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(final: dict, setups: list[float]) -> dict:
    job_s = final["job_s"]
    return {
        "job_s.p50": {"value": job_s["p50"], "unit": "s"},
        "job_s.tail": {"value": job_s["tail"], "unit": "s"},
        "jobs_per_s": {"value": final["jobs_per_s"], "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": final["peak_rss_mb"], "unit": "MB"},
    }


def describe(workload: str, final: dict, setups: list[float], traced: bool) -> list[str]:
    job_s, failures = final["job_s"], final["failures"]
    failed = sum(failures.values())
    lines = [
        f"workload {workload}: {final['jobs']} jobs in {final['rounds']} rounds"
        + (" (traced)" if traced else ""),
        f"  job_s.p50   {job_s['p50']:.6f} s  (n={final['jobs']})",
        f"  job_s.tail  {job_s['tail']:.6f} s  (p{job_s['tail_percentile']}, "
        f"{job_s['tail_jobs_beyond']} jobs beyond, n={final['jobs']})",
        f"  jobs_per_s  {final['jobs_per_s']:.6f} 1/s  (n={final['jobs']} over {job_s['total']:.3f} s)",
        f"  failed_ratio {failed / final['jobs']:.6f}  ({failed}/{final['jobs']}: "
        + ", ".join(f"{k} {v}" for k, v in failures.items())
        + f"; {final['uncertified_wrong_verdicts']} wrong verdicts uncertified)",
        f"  host speed factor {final['speed_factor']:.4f} ({len(final['calibration'])} kernel samples); "
        f"wall job_s p50 {job_s['wall_p50']:.6f} s, total {job_s['wall_total']:.3f} s",
    ]
    if not traced:
        lines += [
            f"  setup_s     {statistics.median(setups):.6f} s  (median of {len(setups)}: "
            + ", ".join(f"{s:.3f}" for s in setups) + ")",
            f"  peak_rss_mb {final['peak_rss_mb']:.3f} MB",
        ]
    lines += [f"  failure: {d}" for d in final["failure_details"]]
    lines += [f"  warm-up failure: {d}" for d in final["warmup_failures"]]
    m = final["machine"]
    lines.append(
        f"  machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
        f"blas={m['blas']['name']} {m['blas']['version']} threads={m['blas']['threads']} "
        f"qindel={m['qindel_commit']} src={m['qindel_source_sha256']}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qindel" / "__init__.py").is_file():
        print(f"error: no qindel sources under {ROOT / 'src'}; run from a qindel checkout",
              file=sys.stderr)
        return 2

    env = child_env()
    deadline = time.monotonic() + TIME_LIMIT_S
    runs = 1 if args.trace else SETUPS
    try:
        records = [spawn(args, i < runs - 1, env, deadline) for i in range(runs)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    final = records[-1]
    # Set-up ran in the same host phase as the run just after it, so the
    # run's speed factor scales it too.
    setups = [r["setup_wall_s"] / final["speed_factor"] for r in records]
    final["warmup_failures"] = [f for r in records for f in r["warmup_failures"]]
    failures = final["failures"]
    # Failures of every kind are counted in ``failed``; ``correct`` turns false
    # only on an answer that contradicts a known one and that the program
    # presents as checked.
    correct = (
        failures["wrong_verdict"] == final["uncertified_wrong_verdicts"]
        and not any(r["warmup_wrong"] for r in records)
    )
    metrics = final["per_layer"] if args.trace else end_to_end(final, setups)
    results = ROOT / ".perfbench_run" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = dict(final, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setups_s=setups, correct=correct, metrics=metrics,
                  setups_wall_s=[r["setup_wall_s"] for r in records])
    path = results / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")

    for line in describe(args.workload, final, setups, bool(args.trace)):
        print(line)
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": final["jobs"],
        "failed": sum(failures.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
