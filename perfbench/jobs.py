"""Benchmark jobs, the verdict oracle, and failure accounting.

A job is one closed-loop call into qindel's public entry points: the CLI
(``qindel.cli.main``, called in-process) or a library function.  Each job
carries the answer its inputs were built to have, and ``run_job`` classifies
what came back:

* ``wrong_verdict``: the answer contradicts the known one;
* ``inconclusive``: the program gave no verdict on an instance whose answer
  is known;
* ``unexpected_exit``: the CLI exit code is not one the command can give for
  a decided answer, or the report is missing or malformed;
* ``exception``: the call raised.

Every failure counts in the run's ``failed``.  Only a *certified* wrong
verdict makes the run's output incorrect: one the program presents as
checked, namely any deletion-side answer (spheres are finite, so those are
exact), a feasible verdict (it carries a re-checked witness), and a failed
acceptance criterion.  An infeasible verdict from the feasibility solver
carries no certificate (the library documents it as heuristic), and a job
that raises or exits with an error gives no answer at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

FAILURE_KINDS = ("wrong_verdict", "inconclusive", "unexpected_exit", "exception")


@dataclass(frozen=True)
class Outcome:
    failure: str | None = None  # one of FAILURE_KINDS, or None for a correct answer
    certified: bool = True  # for a wrong verdict: the program presented it as checked
    detail: str = ""


OK = Outcome()


@dataclass(frozen=True)
class Job:
    kind: str
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], Outcome]  # the oracle, run outside the timed region
    label: str = ""


def run_job(job: Job) -> tuple[float, Outcome]:
    """Time one job and classify its result."""
    start = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a job that raises is a counted failure, not a crash
        return time.perf_counter() - start, Outcome("exception", detail=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    try:
        return elapsed, job.check(result)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return elapsed, Outcome("unexpected_exit", detail=f"malformed report: {exc!r}")


# --- CLI jobs -------------------------------------------------------------------


def cli_job(kind: str, argv: list[str], check: Callable[[int, dict | None], Outcome]) -> Job:
    """A ``qindel`` command run in-process; stdout and stderr are captured.

    ``qindel.cli.main`` is looked up at call time so a traced run sees the
    wrapped entry point.
    """

    def run():
        import qindel.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = qindel.cli.main(argv)
        return code, out.getvalue()

    def classify(result):
        code, text = result
        lines = text.strip().splitlines()
        report = json.loads(lines[-1]) if lines else None
        if code == 2:
            return Outcome("inconclusive", detail=" ".join(argv))
        if code not in (0, 1) or report is None:
            return Outcome("unexpected_exit", detail=f"exit {code}: {' '.join(argv)}")
        return check(code, report)

    return Job(kind, run, classify, " ".join(argv))


def _wrong(detail: str, certified: bool = True) -> Outcome:
    return Outcome("wrong_verdict", certified=certified, detail=detail)


def expect_capability(want_ok: bool, want_min_distance: int):
    """``verify --errors deletions|indel``: exit 0 iff it corrects, with the known min distance."""

    def check(code: int, report: dict) -> Outcome:
        verdict = report["results"]["verdict"]
        got = verdict["ok"]
        if (code == 0) != (got is True):
            return Outcome("unexpected_exit", detail=f"exit {code} disagrees with verdict {got}")
        got_d = verdict["evidence"]["min_distance"]
        if got is not want_ok or got_d != want_min_distance:
            return _wrong(f"verdict {got} (want {want_ok}), min distance {got_d} (want {want_min_distance})")
        return OK

    return check


def expect_insertion_capability(want_ok: bool):
    """``verify --errors insertions``.  True rests on per-pair infeasible
    verdicts (uncertified); False rests on a checked feasible witness."""

    def check(code: int, report: dict) -> Outcome:
        got = report["results"]["verdict"]["ok"]
        if (code == 0) != (got is True):
            return Outcome("unexpected_exit", detail=f"exit {code} disagrees with verdict {got}")
        if got is not want_ok:
            return _wrong(f"corrects insertions {got} (want {want_ok})", certified=got is False)
        return OK

    return check


def expect_distance(want: int):
    def check(code: int, report: dict) -> Outcome:
        got = report["results"]["value"]
        if code != 0:
            return Outcome("unexpected_exit", detail=f"distance exited {code}")
        return OK if got == want else _wrong(f"distance {got} (want {want})")

    return check


def expect_sphere(want: int, out_path):
    """Sphere size C(n, s) before and after dedup, and the written file holds it."""

    def check(code: int, report: dict) -> Outcome:
        results = report["results"]
        if code != 0:
            return Outcome("unexpected_exit", detail=f"sphere exited {code}")
        written = json.loads(out_path.read_text(encoding="utf-8"))
        got = (results["cardinality"], results["pre_dedup"], len(written))
        return OK if got == (want, want, want) else _wrong(f"sphere sizes {got} (want {want})")

    return check


def expect_suite(criteria: int):
    def check(code: int, report: dict) -> Outcome:
        items = report["results"]["items"]
        passed = sum(item["status"] == "pass" for item in items)
        if passed != criteria or len(items) != criteria:
            return _wrong(f"{passed}/{len(items)} criteria passed (want {criteria}/{criteria})")
        if code != 0:
            return Outcome("unexpected_exit", detail=f"suite exited {code} with every criterion passed")
        return OK

    return check


# --- library jobs ---------------------------------------------------------------


def _partial_trace(mat: np.ndarray, position: int, length: int) -> np.ndarray:
    """Trace out one qubit (1-based, qubit 1 most significant); the oracle's own kernel."""
    tensor = mat.reshape((2,) * (2 * length))
    reduced = np.trace(tensor, axis1=position - 1, axis2=length + position - 1)
    dim = 2 ** (length - 1)
    return reduced.reshape(dim, dim)


def feasibility_job(sigma, rho, p: int, q: int, length: int, feas_tol: float = 1e-6) -> Job:
    """Single-pair ``feasibility_del_ins`` on marginals of one lifted state, so
    feasible by construction.  A feasible answer's witness is re-checked
    against what the solver promises: both partial-trace residuals within
    ``feas_tol`` (Frobenius) and PSD within the default ``psd_tol``."""
    want_sigma, want_rho = np.asarray(sigma.mat), np.asarray(rho.mat)
    psd_tol = 1e-9 * 2**length

    def run():
        import qindel.feasibility as feasibility
        from qindel.channels import IndexSet

        return feasibility.feasibility_del_ins(
            sigma, rho, IndexSet((p,), length), IndexSet((q,), length)
        )

    def check(report) -> Outcome:
        status = report.status.value
        if status == "inconclusive":
            return Outcome("inconclusive", detail=f"d={2 ** length} P={p} Q={q}")
        if status == "infeasible":
            reason = report.details.get("reason", "")
            return _wrong(f"infeasible ({reason}) on a feasible instance", certified=False)
        w = np.asarray(report.witness.mat)
        residual = max(
            float(np.linalg.norm(_partial_trace(w, p, length) - want_sigma)),
            float(np.linalg.norm(_partial_trace(w, q, length) - want_rho)),
        )
        min_eig = float(np.linalg.eigvalsh((w + w.conj().T) / 2)[0])
        if residual > feas_tol or min_eig < -psd_tol:
            return _wrong(f"feasible witness residual {residual:.3e}, min eigenvalue {min_eig:.3e}")
        return OK

    return Job("feasibility-d16", run, check, f"feasibility_del_ins d={2 ** length} P={p} Q={q}")
