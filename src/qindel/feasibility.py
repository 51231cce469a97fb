"""Membership tests for composed error spheres.

Insertions-after-deletions membership reduces to a finite intersection of
deletion spheres and is decided exactly.  Deletions-after-insertions
membership is a PSD feasibility problem (does the affine slice of states with
prescribed partial traces meet the PSD cone?) and is decided by Dykstra's
alternating projections on d x d Hermitian matrices (an exact least-squares
projector for the stacked partial traces, eigenvalue clipping for the cone),
with an honest tri-state verdict: the infeasible verdict is heuristic (a
plateaued gap, no dual certificate) and borderline runs surface as
inconclusive instead of being coerced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations

import numpy as np

from .channels import IndexSet, _as_index_set, _insertion_set, deletion_sphere, partial_trace
from .channels import sample_insertions, trace_out
from .errors import CountOutOfRange, ShapeMismatch, SizeCapExceeded
from .linalg import Tolerance, hermitian_eigenvalues, hermitian_part
from .states import DensityMatrix, QuditShape, state_to_json_obj

__all__ = [
    "FeasibilityStatus",
    "FeasibilityOptions",
    "FeasibilityReport",
    "AffineConstraint",
    "member_ins_del",
    "feasibility_del_ins",
    "member_del_ins",
    "check_containment_trial",
]


class FeasibilityStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


# Dykstra's iteration cap; the gap counts as plateaued when it moved by at most
# PLATEAU_REL_CHANGE (relative) over the last PLATEAU_WINDOW iterations.
MAX_ITERATIONS = 5000
PLATEAU_WINDOW = 100
PLATEAU_REL_CHANGE = 1e-8
MAX_DIM = 16  # cap on l^(n+t) for the lifted state


@dataclass(frozen=True)
class FeasibilityOptions:
    """Solver thresholds; the defaults classify the shipped fixture instances cleanly."""

    feas_tol: float = 1e-6
    gap_tol: float = 1e-3


@dataclass
class FeasibilityReport:
    status: FeasibilityStatus
    witness: DensityMatrix | None
    gap: float
    iterations: int
    details: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        obj = {
            "status": self.status.value,
            "gap": self.gap,
            "iterations": self.iterations,
            "witness": state_to_json_obj(self.witness) if self.witness is not None else None,
        }
        if self.details:
            obj["details"] = self.details
        return obj


class AffineConstraint:
    """Stacked partial-trace conditions D_P(tau) = target on d x d matrices,
    with a precomputed least-squares projector.

    A partial trace is a real 0/1 matrix on vec(tau), so the stacked map and
    its pseudo-inverse stay real and act on the (Re, Im) columns of vec(tau).
    The projection of a Hermitian matrix is Hermitian.
    """

    def __init__(self, big_shape: QuditShape, conditions: list[tuple[IndexSet, DensityMatrix]]):
        self.big_shape = big_shape
        d, l = big_shape.dim, big_shape.level
        # entry k of the stack is the basis matrix E_k, so trace_out returns
        # column k of each map
        basis = np.eye(d * d).reshape(d * d, d, d)
        self.matrix = np.vstack(
            [trace_out(basis, pset, l).reshape(d * d, -1).T for pset, _ in conditions]
        )
        self.rhs = np.vstack([_columns(target.mat) for _, target in conditions])
        # the stacked map is rank deficient; numpy's default cutoff keeps
        # rounding-level singular values and wrecks the projector
        self.pinv = np.linalg.pinv(self.matrix, rcond=1e-10)
        # distance from rhs to the range of the constraint map; > 0 means the
        # affine set is empty and no PSD search is needed
        self.rhs_residual = float(
            np.linalg.norm(self.matrix @ (self.pinv @ self.rhs) - self.rhs)
        )

    def project(self, x: np.ndarray) -> np.ndarray:
        return x - self._matrix(self.pinv @ (self.matrix @ _columns(x) - self.rhs))

    def least_squares_point(self) -> np.ndarray:
        return self._matrix(self.pinv @ self.rhs)

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.matrix @ _columns(x) - self.rhs))

    def _matrix(self, columns: np.ndarray) -> np.ndarray:
        d = self.big_shape.dim
        return np.ascontiguousarray(columns).view(complex).reshape(d, d)


def _columns(x: np.ndarray) -> np.ndarray:
    """vec(x) as a (size, 2) real array of (Re, Im) columns."""
    return np.ascontiguousarray(x, dtype=complex).reshape(-1).view(float).reshape(-1, 2)


def member_ins_del(
    sigma: DensityMatrix,
    rho: DensityMatrix,
    s: int,
    t: int,
    tol: Tolerance | None = None,
) -> bool:
    """Exact decision of sigma in I^t(D^s(rho)).

    Membership holds iff the t-deletion sphere of sigma meets the s-deletion
    sphere of rho, which is a finite comparison.
    """
    if sigma.level != rho.level:
        raise ShapeMismatch(f"levels differ: {sigma.level} vs {rho.level}")
    if sigma.length != rho.length - s + t:
        raise ShapeMismatch(
            f"len(sigma)={sigma.length} != len(rho)-s+t={rho.length - s + t}"
        )
    left = deletion_sphere(sigma, t, tol)
    right = deletion_sphere(rho, s, tol)
    return left.intersection_witness(right) is not None


def feasibility_del_ins(
    sigma: DensityMatrix,
    rho: DensityMatrix,
    P,
    Q,
    opts: FeasibilityOptions | None = None,
) -> FeasibilityReport:
    """Decide sigma in D_P(I_Q(rho)): is there a PSD tau with D_Q(tau) = rho
    and D_P(tau) = sigma?

    Dykstra's method alternates between the affine set (exact least-squares
    projector) and the PSD cone (eigenvalue clipping).  Feasible comes with a
    witness re-checked against both constraints; Infeasible is declared when
    the estimated set gap plateaus above gap_tol.
    """
    opts = opts or FeasibilityOptions()
    if sigma.level != rho.level:
        raise ShapeMismatch(f"levels differ: {sigma.level} vs {rho.level}")
    n, l = rho.length, rho.level
    qset = _insertion_set(Q, n)
    big = qset.ambient
    pset = _as_index_set(P, big)
    s = pset.size
    if sigma.length != big - s:
        raise ShapeMismatch(f"len(sigma)={sigma.length} != n+t-s={big - s}")
    if l ** big > MAX_DIM:
        raise SizeCapExceeded(f"lifted dimension {l ** big} exceeds cap {MAX_DIM}")

    big_shape = QuditShape(l, big)
    affine = AffineConstraint(big_shape, [(qset, rho), (pset, sigma)])

    if affine.rhs_residual > opts.feas_tol:
        # inconsistent linear system: the affine set itself is empty
        return FeasibilityReport(
            FeasibilityStatus.INFEASIBLE,
            None,
            affine.rhs_residual,
            0,
            {"reason": "affine constraints inconsistent"},
        )

    big_tol = big_shape.tol()

    def psd_project(x: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(x)
        return (v * np.maximum(w, 0.0)) @ v.conj().T

    def feasible_report(witness_mat: np.ndarray, gap: float, k: int) -> FeasibilityReport | None:
        mat = hermitian_part(psd_project(witness_mat))
        residuals = [
            float(np.linalg.norm(trace_out(mat, cond_set, l) - target.mat))
            for cond_set, target in ((qset, rho), (pset, sigma))
        ]
        if max(residuals) > opts.feas_tol:
            return None
        witness = DensityMatrix(big_shape, mat)
        return FeasibilityReport(
            FeasibilityStatus.FEASIBLE,
            witness,
            gap,
            k,
            {"constraint_residuals": residuals},
        )

    x = affine.least_squares_point()
    w = hermitian_eigenvalues(x, big_tol)
    if w[0] >= -big_tol.psd_tol:
        report = feasible_report(x, max(0.0, -float(w[0])), 0)
        if report is not None:
            return report

    correction = np.zeros_like(x)
    gaps: list[float] = []
    for k in range(1, MAX_ITERATIONS + 1):
        y = affine.project(x)
        z = y + correction
        x_new = psd_project(z)
        correction = z - x_new
        gap = float(np.linalg.norm(y - x_new))
        gaps.append(gap)
        x = x_new

        if gap <= opts.feas_tol:
            report = feasible_report(x, gap, k)
            if report is not None:
                return report
        if k >= PLATEAU_WINDOW and gap > opts.gap_tol:
            prev = gaps[k - PLATEAU_WINDOW]
            if abs(prev - gap) <= PLATEAU_REL_CHANGE * max(gap, 1e-30):
                return FeasibilityReport(
                    FeasibilityStatus.INFEASIBLE,
                    None,
                    gap,
                    k,
                    {"reason": "gap plateaued above gap_tol"},
                )

    return FeasibilityReport(
        FeasibilityStatus.INCONCLUSIVE,
        None,
        gaps[-1] if gaps else float("nan"),
        MAX_ITERATIONS,
        {"reason": "iteration cap reached"},
    )


def member_del_ins(
    sigma: DensityMatrix,
    rho: DensityMatrix,
    s: int,
    t: int,
    opts: FeasibilityOptions | None = None,
) -> FeasibilityReport:
    """Decide sigma in D^s(I^t(rho)) as a disjunction of per-(P, Q) feasibility.

    Feasible if any pair is Feasible, Infeasible if all pairs are Infeasible,
    Inconclusive otherwise.
    """
    opts = opts or FeasibilityOptions()
    if sigma.level != rho.level:
        raise ShapeMismatch(f"levels differ: {sigma.level} vs {rho.level}")
    if sigma.length != rho.length + t - s:
        raise ShapeMismatch(
            f"len(sigma)={sigma.length} != len(rho)+t-s={rho.length + t - s}"
        )
    n = rho.length
    big = n + t
    pair_reports: list[dict] = []
    total_iterations = 0
    worst = FeasibilityStatus.INFEASIBLE
    min_gap = math.inf
    for p_combo in combinations(range(1, big + 1), s):
        for q_combo in combinations(range(1, big + 1), t):
            report = feasibility_del_ins(
                sigma, rho, IndexSet(p_combo, big), IndexSet(q_combo, big), opts
            )
            total_iterations += report.iterations
            pair_reports.append(
                {
                    "P": list(p_combo),
                    "Q": list(q_combo),
                    "status": report.status.value,
                    "gap": report.gap,
                }
            )
            if report.status is FeasibilityStatus.FEASIBLE:
                report.iterations = total_iterations
                report.details["pairs"] = pair_reports
                return report
            if report.status is FeasibilityStatus.INCONCLUSIVE:
                worst = FeasibilityStatus.INCONCLUSIVE
            min_gap = min(min_gap, report.gap)
    return FeasibilityReport(
        worst,
        None,
        min_gap if pair_reports else 0.0,
        total_iterations,
        {"pairs": pair_reports},
    )


def check_containment_trial(
    rho: DensityMatrix,
    seed: int,
    s: int,
    t: int,
    tol: Tolerance | None = None,
) -> bool:
    """Apply one random interleaving of s deletions and t insertions to rho
    and test the resulting state for I^t(D^s(rho)) membership.

    Any composite of s deletions and t insertions lands inside the
    insertions-after-deletions sphere, so the test must come back true.
    """
    if s > rho.length:
        raise CountOutOfRange(
            f"cannot delete {s} qudits from a length-{rho.length} state"
        )
    rng = np.random.default_rng(seed)
    state = rho
    deletions_left, insertions_left = s, t
    while deletions_left or insertions_left:
        moves = []
        if deletions_left and state.length >= 1:
            moves.append("D")
        if insertions_left:
            moves.append("I")
        move = moves[rng.integers(len(moves))]
        if move == "D":
            p = int(rng.integers(1, state.length + 1))
            state = partial_trace(state, p)
            deletions_left -= 1
        else:
            q = int(rng.integers(1, state.length + 2))
            how_many = int(rng.integers(1, 3))
            samples = sample_insertions(
                state,
                IndexSet((q,), state.length + 1),
                how_many,
                int(rng.integers(2**62)),
                tol,
            )
            state = samples[-1]
            insertions_left -= 1
    return member_ins_del(state, rho, s, t, tol)
