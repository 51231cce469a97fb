"""Self-test of the benchmark's verdict oracle and failure accounting.

    python3 perfbench/selftest.py

Feeds jobs a deliberately wrong expectation, a failing exit, a raising call
and solver reports of each status, and checks each is counted as the right
kind of failure; also checks the Harrell-Davis quantile and the host-speed
factor's trimmed mean.  Exits 1 if any check fails.
"""

from __future__ import annotations

import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from jobs import Job, OK, cli_job, expect_capability, feasibility_job, run_job  # noqa: E402
from calibrate import REFERENCE_S, speed_factor  # noqa: E402
from worker import hd_quantile, percentile, tail_percentile  # noqa: E402

HAGIWARA = ["verify", "builtin:hagiwara4", "--grid", "3,2", "--t", "1"]


def test_known_answer_passes():
    _, outcome = run_job(cli_job("verify-grid", HAGIWARA, expect_capability(True, 4)))
    assert outcome == OK, outcome


def test_wrong_expectation_counts_as_failed():
    _, outcome = run_job(cli_job("verify-grid", HAGIWARA, expect_capability(False, 4)))
    assert outcome.failure == "wrong_verdict" and outcome.certified, outcome


def test_usage_error_counts_as_unexpected_exit():
    argv = ["verify", str(HERE / "no-such-code-directory"), "--t", "1"]
    _, outcome = run_job(cli_job("verify-dir", argv, expect_capability(True, 4)))
    assert outcome.failure == "unexpected_exit", outcome


def test_raising_job_counts_as_exception():
    _, outcome = run_job(Job("raises", lambda: 1 / 0, lambda result: OK))
    assert outcome.failure == "exception", outcome


def _lifted_job():
    import numpy as np
    from qindel.channels import delete
    from qindel.rand import random_density
    from qindel.states import QuditShape

    tau = random_density(np.random.default_rng(0), QuditShape(2, 3), 8)
    return feasibility_job(delete(tau, {1}), delete(tau, {3}), 1, 3, 3)


def test_solver_statuses_are_classified():
    from qindel.feasibility import FeasibilityReport, FeasibilityStatus

    job = _lifted_job()
    inconclusive = job.check(FeasibilityReport(FeasibilityStatus.INCONCLUSIVE, None, 0.1, 5000))
    assert inconclusive.failure == "inconclusive", inconclusive
    infeasible = job.check(FeasibilityReport(FeasibilityStatus.INFEASIBLE, None, 0.1, 100))
    assert infeasible.failure == "wrong_verdict" and not infeasible.certified, infeasible
    _, solved = run_job(job)
    assert solved == OK, solved


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert [tail_percentile(n) for n in (76, 1000, 11, 10)] == [86, 99, 9, 0]
    assert percentile([float(i) for i in range(76)], 86) == (65.0, 10)


def test_hd_quantile_weights_order_statistics():
    assert abs(hd_quantile([2.0] * 9, 0.5) - 2.0) < 1e-12
    ranks = [float(i) for i in range(101)]
    assert abs(hd_quantile(ranks, 0.5) - 50.0) < 1e-6
    assert 88.0 < hd_quantile(ranks, 0.9) < 92.0


def test_speed_factor_drops_stalls():
    assert abs(speed_factor([REFERENCE_S] * 18 + [100 * REFERENCE_S] * 2) - 1.0) < 1e-12
    assert abs(speed_factor([2 * REFERENCE_S] * 10) - 2.0) < 1e-12


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
