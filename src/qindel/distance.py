"""Quantum indel distance, code minimum distance, and capability verdicts.

The distance between two states is the least total number of deletions and
insertions carrying one to the other; equivalently the least s + t such that
some s-deletion of the first equals some t-deletion of the second.  A code of
equal-length states corrects t deletions iff its minimum distance is at least
2t + 1, and that capability transfers to any mixed batch of t deletions and
insertions.

``indel_distance``, ``min_distance`` and ``metric_check`` all ask where
deletion spheres first meet.  Each walks deletion ladders
(``channels.deletion_levels``) in step and asks ``channels.first_meeting``
once per level: ``indel_distance`` walks the two states' ladders from their
start levels; ``min_distance`` walks one ladder per code state, since code
states share one length and the code's minimum distance is 2s for the least
s at which two of their s-deletion spheres meet; ``metric_check`` builds each
state's levels once per triple.  Only a witness row is wrapped as a state.
``CodeSample`` checks distinctness with the spheres' greedy dedup.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .channels import IndexSet, SphereSet, deletion_levels, distinct_rows, first_meeting
from .errors import CountOutOfRange, DuplicateStates, LevelMismatch, TooFewStates
from .feasibility import FeasibilityStatus, member_del_ins
from .linalg import Tolerance
from .states import DensityMatrix, state_to_json_obj

__all__ = [
    "DistanceResult",
    "CodeSample",
    "Verdict",
    "indel_distance",
    "min_distance",
    "corrects",
    "corrects_insertions",
    "metric_check",
]


@dataclass(frozen=True)
class DistanceResult:
    """Distance value plus the (s, t, P, Q, common state) realizing it."""

    value: int
    s: int
    t: int
    P: IndexSet
    Q: IndexSet
    common: DensityMatrix

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "s": self.s,
            "t": self.t,
            "P": list(self.P.positions),
            "Q": list(self.Q.positions),
            "common": state_to_json_obj(self.common),
        }


@dataclass(frozen=True)
class CodeSample:
    """Finite list of pairwise-distinct states of a common shape.

    ``tol`` gives the eq_tol within which two states coincide, which raises
    ``DuplicateStates``; it is not kept.
    """

    states: tuple[DensityMatrix, ...]
    labels: tuple[str, ...]
    tol: InitVar[Tolerance] = Tolerance()

    def __post_init__(self, tol: Tolerance) -> None:
        if len(self.labels) != len(self.states):
            raise ValueError("labels and states must have equal length")
        shapes = {s.shape for s in self.states}
        if len(shapes) > 1:
            raise LevelMismatch(f"states span several shapes: {shapes}")
        if not self.states:
            return
        eq_tol = tol.at(self.states[0].dim).eq_tol
        kept, joined = distinct_rows(np.stack([s.mat for s in self.states]), eq_tol)
        for j, k in enumerate(joined):
            i = kept[k]
            if i != j:
                raise DuplicateStates(
                    f"states {self.labels[i]!r} and {self.labels[j]!r} coincide within "
                    f"eq_tol {eq_tol:.3e}"
                )

    @classmethod
    def from_states(cls, states, labels=None, tol: Tolerance = Tolerance()) -> "CodeSample":
        states = tuple(states)
        if labels is None:
            labels = tuple(f"state{k}" for k in range(len(states)))
        return cls(states, tuple(labels), tol)

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class Verdict:
    """Tri-state capability verdict: True / False / None (unknown)."""

    ok: bool | None
    evidence: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "evidence": self.evidence}


def _first_meeting(ladders: Sequence[Iterable[SphereSet]]) -> tuple[int, int, DistanceResult]:
    """The first level, walking the ladders in step, at which two of their
    spheres meet: the first such pair of ladders (i, j), in ``combinations``
    order, and their closest cross pair there as witness."""
    for spheres in zip(*ladders):
        hit = first_meeting([sphere.stack for sphere in spheres], spheres[0].eq_tol)
        if hit is not None:
            i, j, a, b, _ = hit
            P, Q = spheres[i].reps[a], spheres[j].reps[b]
            common = DensityMatrix(spheres[i].shape, spheres[i].stack[a])
            return i, j, DistanceResult(P.size + Q.size, P.size, Q.size, P, Q, common)
    raise AssertionError("unreachable: full deletion always intersects")


def indel_distance(
    rho1: DensityMatrix, rho2: DensityMatrix, tol: Tolerance = Tolerance()
) -> DistanceResult:
    """Breadth-first search over increasing s + t with n - s = m - t >= 0.

    Deletion spheres are finite, so each candidate total is decided exactly;
    full deletion of both states guarantees a hit by s + t = n + m.  Both s
    and t grow by one per step, so the search walks one deletion ladder per
    state, from s = max(0, n - m) and t = max(0, m - n), and keeps only the
    current level of each.
    """
    if rho1.level != rho2.level:
        raise LevelMismatch(f"levels differ: {rho1.level} vs {rho2.level}")
    n, m = rho1.length, rho2.length
    _, _, result = _first_meeting(
        [deletion_levels(rho1, tol, max(0, n - m)), deletion_levels(rho2, tol, max(0, m - n))]
    )
    # equal-length states are always an even distance apart
    assert n != m or result.value % 2 == 0
    return result


def min_distance(
    code: CodeSample, tol: Tolerance = Tolerance()
) -> tuple[int, tuple[str, str], DistanceResult]:
    """Minimum pairwise distance with the achieving pair, level by level.

    Code states share one length, so a pair's distance is 2s for the least s
    at which their s-deletion spheres meet.  One ladder per state is walked,
    one level at a time, and ``channels.first_meeting`` compares each level's
    spheres at once.  The first level with a hit gives the value; the pair
    reported is the first, in ``combinations`` order, that meets there, with
    its closest cross pair as witness.
    """
    if len(code) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(code)}")
    i, j, result = _first_meeting([deletion_levels(rho, tol) for rho in code.states])
    return result.value, (code.labels[i], code.labels[j]), result


def corrects(
    code: CodeSample, t: int, kind: str = "deletions", tol: Tolerance = Tolerance()
) -> Verdict:
    """Capability verdict from the minimum distance.

    kind="deletions": corrects t deletions iff min distance >= 2t + 1.
    kind="total":     the same threshold certifies correction of any combined
                      t deletion-plus-insertion errors (deletion capability
                      transfers to mixed batches).
    """
    if t < 1:
        raise CountOutOfRange(f"need t >= 1, got {t}")
    if kind not in ("deletions", "total"):
        raise ValueError(f"unknown kind {kind!r}")
    value, pair, result = min_distance(code, tol)
    threshold = 2 * t + 1
    evidence = {
        "min_distance": value,
        "threshold": threshold,
        "closest_pair": list(pair),
        "witness": result.to_json_obj(),
        "criterion": "min_distance >= 2t+1"
        + ("" if kind == "deletions" else " (deletion capability covers mixed indel errors)"),
    }
    return Verdict(ok=value >= threshold, evidence=evidence)


def corrects_insertions(
    code: CodeSample,
    t: int,
    tol: Tolerance = Tolerance(),
) -> Verdict:
    """Pairwise disjointness of t-insertion spheres.

    Two insertion spheres meet iff one state lies in the
    deletions-after-insertions sphere of the other, so each pair is decided by
    the PSD feasibility solver.  True rests on infeasible verdicts, each with
    a re-checked Farkas certificate; False on a re-checked witness.  Any
    inconclusive pair makes the overall verdict unknown rather than true.
    """
    if t < 1:
        raise CountOutOfRange(f"need t >= 1, got {t}")
    if len(code) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(code)}")
    unknown_pair: tuple[str, str] | None = None
    pair_gaps = []
    for (i, a), (j, b) in combinations(enumerate(code.states), 2):
        report = member_del_ins(a, b, t, t, tol)
        pair_gaps.append(
            {"pair": [code.labels[i], code.labels[j]], "status": report.status.value, "gap": report.gap}
        )
        if report.status is FeasibilityStatus.FEASIBLE:
            return Verdict(
                ok=False,
                evidence={
                    "pair": [code.labels[i], code.labels[j]],
                    "witness": state_to_json_obj(report.witness) if report.witness else None,
                    "gap": report.gap,
                    "pairs": pair_gaps,
                },
            )
        if report.status is FeasibilityStatus.INCONCLUSIVE and unknown_pair is None:
            unknown_pair = (code.labels[i], code.labels[j])
    if unknown_pair is not None:
        return Verdict(ok=None, evidence={"inconclusive_pair": list(unknown_pair), "pairs": pair_gaps})
    return Verdict(ok=True, evidence={"pairs": pair_gaps})


def _level_distance(x: list[SphereSet], y: list[SphereSet]) -> int:
    """``indel_distance(...).value`` from two states' lists of all their levels."""
    n, m = len(x) - 1, len(y) - 1
    return _first_meeting([x[max(0, n - m) :], y[max(0, m - n) :]])[2].value


def metric_check(
    triples, tol: Tolerance = Tolerance()
) -> dict:
    """Check the three metric axioms on sampled triples of states.

    Identity of indiscernibles, symmetry, and the triangle inequality are
    tested per triple; any violation is reported with the offending values.
    ``odd_equal_length`` counts the distances d_ab, d_bc and d_ac between
    states of equal length that are odd (such distances are always even);
    it does not enter ``ok``.  Each state's deletion levels are built once
    per triple and shared by its distances.
    """
    violations = []
    checked = 0
    odd = 0
    for idx, (a, b, c) in enumerate(triples):
        checked += 1
        la, lb, lc = (list(deletion_levels(x, tol)) for x in (a, b, c))
        d_ab = _level_distance(la, lb)
        d_ba = _level_distance(lb, la)
        d_bc = _level_distance(lb, lc)
        d_ac = _level_distance(la, lc)
        if (d_ab == 0) != a.close_to(b, tol):
            violations.append({"triple": idx, "axiom": "identity", "d": d_ab})
        if d_ab != d_ba:
            violations.append({"triple": idx, "axiom": "symmetry", "d_ab": d_ab, "d_ba": d_ba})
        if d_ac > d_ab + d_bc:
            violations.append(
                {"triple": idx, "axiom": "triangle", "d_ac": d_ac, "d_ab": d_ab, "d_bc": d_bc}
            )
        pairs = ((a, b, d_ab), (b, c, d_bc), (a, c, d_ac))
        odd += sum(1 for x, y, d in pairs if x.length == y.length and d % 2)
    return {"checked": checked, "violations": violations, "odd_equal_length": odd, "ok": not violations}
