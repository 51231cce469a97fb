"""Run every workload, untraced and traced, and check the traced counts repeat.

    python3 perfbench/suite.py                  # seed 1, held-out seed 2
    python3 perfbench/suite.py --seed 7 --holdout-seed 8 --workload paper-suite

For each workload this runs ``run.py`` four times: untraced on ``--seed`` and
on ``--holdout-seed`` (so a later claim can be checked on a seed it was not
tuned on), then traced twice on ``--seed``.  It prints every end-to-end metric
with its unit and sample count, every per-layer metric of the first traced
run, and the tracing overhead (untraced minus traced ``jobs_per_s`` on the
same seed).  It exits 1 if a run fails, reports incorrect output, or the two
traced runs disagree on any count (call counts, Dykstra iterations, sphere
sizes, feasibility pair statuses); timings are exempt.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(f"  run failed: {' '.join(cmd[1:])} exited {proc.returncode}")
        return None
    path = ROOT / ".perfbench_run" / "results" / f"{workload}_seed{seed}_trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def print_end_to_end(rec: dict) -> None:
    n, job_s = rec["jobs"], rec["job_s"]
    samples = {
        "job_s.p50": f"n={n} jobs",
        "job_s.tail": f"p{job_s['tail_percentile']}, {job_s['tail_jobs_beyond']} jobs beyond, n={n}",
        "jobs_per_s": f"n={n} jobs over {job_s['total']:.2f} s",
        "setup_s": f"median of {len(rec['setups_s'])} set-ups",
        "peak_rss_mb": "measuring process",
    }
    print(f"  seed {rec['seed']} ({rec['rounds']} rounds, correct={rec['correct']})")
    for name, m in rec["metrics"].items():
        print(f"    {name:12s} {m['value']:12.6f} {m['unit']:4s} ({samples[name]})")
    failures = rec["failures"]
    failed = sum(failures.values())
    print(f"    {'failed_ratio':12s} {failed / n:12.6f}      ({failed}/{n}: "
          + ", ".join(f"{k} {v}" for k, v in failures.items())
          + f"; {rec['uncertified_wrong_verdicts']} wrong verdicts uncertified)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--holdout-seed", type=int, default=2)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    ok = True
    for workload in args.workload or WORKLOADS:
        print(f"== {workload} ({seconds} s runs)")
        plain = [run(workload, seed, seconds, 0) for seed in (args.seed, args.holdout_seed)]
        traced = [run(workload, args.seed, seconds, 1) for _ in range(2)]
        if None in plain or None in traced:
            ok = False
            continue
        for rec in plain:
            print_end_to_end(rec)
        first, second = traced
        print(f"  traced, seed {args.seed}: {first['rounds']} rounds, {first['jobs']} jobs, "
              f"{first['spans']} spans")
        for name, m in first["metrics"].items():
            print(f"    {name:48s} {m['value']:.6g} {m['unit']}")
        overhead = plain[0]["jobs_per_s"] - first["jobs_per_s"]
        print(f"    tracing overhead: {overhead:.6f} jobs/s "
              f"({plain[0]['jobs_per_s']:.4f} untraced - {first['jobs_per_s']:.4f} traced)")
        diff = sorted(k for k in first["counts"].keys() | second["counts"].keys()
                      if first["counts"].get(k) != second["counts"].get(k))
        print(f"    counts identical across two traced runs: {not diff}"
              + (f" (differ: {diff})" if diff else f" ({len(first['counts'])} counts)"))
        ok = ok and not diff and all(r["correct"] for r in plain + traced)
    print("suite:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
