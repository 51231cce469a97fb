"""Quantum indel distance, code minimum distance, and capability verdicts.

The distance between two states is the least total number of deletions and
insertions carrying one to the other; equivalently the least s + t such that
some s-deletion of the first equals some t-deletion of the second.  A code of
equal-length states corrects t deletions iff its minimum distance is at least
2t + 1, and that capability transfers to any mixed batch of t deletions and
insertions.

``indel_distance`` searches one pair breadth-first.  ``min_distance`` walks the
levels instead of the pairs: code states share one length, so the code's
minimum distance is 2s for the least s at which two of its s-deletion spheres
meet.  Each level builds every state's sphere once and compares the stacked
members of all spheres in batched norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .channels import IndexSet, SphereSet, cross_distances, deletion_sphere
from .errors import CountOutOfRange, LevelMismatch, TooFewStates
from .feasibility import FeasibilityOptions, FeasibilityStatus, member_del_ins
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
    """Finite list of pairwise-distinct states of a common shape."""

    states: tuple[DensityMatrix, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.states):
            raise ValueError("labels and states must have equal length")
        shapes = {s.shape for s in self.states}
        if len(shapes) > 1:
            raise LevelMismatch(f"states span several shapes: {shapes}")
        if not self.states:
            return
        distinct = SphereSet(self.states[0].shape)
        joined = distinct.extend(np.stack([s.mat for s in self.states]), range(len(self.states)))
        for j, k in enumerate(joined):
            i = distinct.reps[k]
            if i != j:
                raise ValueError(
                    f"states {self.labels[i]!r} and {self.labels[j]!r} coincide within eq_tol"
                )

    @classmethod
    def from_states(cls, states, labels=None) -> "CodeSample":
        states = tuple(states)
        if labels is None:
            labels = tuple(f"state{k}" for k in range(len(states)))
        return cls(states, tuple(labels))

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class Verdict:
    """Tri-state capability verdict: True / False / None (unknown)."""

    ok: bool | None
    evidence: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "evidence": self.evidence}


def indel_distance(
    rho1: DensityMatrix, rho2: DensityMatrix, tol: Tolerance | None = None
) -> DistanceResult:
    """Breadth-first search over increasing s + t with n - s = m - t >= 0.

    Deletion spheres are finite, so each candidate total is decided exactly;
    full deletion of both states guarantees a hit by s + t = n + m.  Both s
    and t grow by one per step, so each sphere is built once and dropped.
    """
    if rho1.level != rho2.level:
        raise LevelMismatch(f"levels differ: {rho1.level} vs {rho2.level}")
    n, m = rho1.length, rho2.length
    for total in range(abs(n - m), n + m + 1, 2):
        s = (total + n - m) // 2
        t = total - s
        sphere1 = deletion_sphere(rho1, s, tol)
        sphere2 = deletion_sphere(rho2, t, tol)
        hit = sphere1.intersection_witness(sphere2)
        if hit is not None:
            i, j, _ = hit
            result = DistanceResult(
                value=total,
                s=s,
                t=t,
                P=sphere1.reps[i],
                Q=sphere2.reps[j],
                common=sphere1.states[i],
            )
            # equal-length states are always an even distance apart
            assert n != m or result.value % 2 == 0
            return result
    raise AssertionError("unreachable: full deletion always intersects")


def min_distance(
    code: CodeSample, tol: Tolerance | None = None
) -> tuple[int, tuple[str, str], DistanceResult]:
    """Minimum pairwise distance with the achieving pair, level by level.

    Code states share one length, so a pair's distance is 2s for the least s
    at which their s-deletion spheres meet.  For s = 0, 1, ... each state's
    sphere is built once, the members of all spheres are stacked, and the
    members of each state are compared with those of every later state in
    one batched call.  The first level with a hit gives the value; the pair
    reported is the first, in ``combinations`` order, that meets there, and
    its witness is its closest cross pair, as ``intersection_witness`` picks
    it.  A level's spheres are dropped before the next is built.
    """
    if len(code) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(code)}")
    n = code.states[0].length
    for s in range(n + 1):
        spheres = [deletion_sphere(rho, s, tol) for rho in code.states]
        shape, eq_tol = spheres[0].shape, spheres[0].eq_tol
        reps = [sphere.reps for sphere in spheres]
        level = np.concatenate([sphere.stack for sphere in spheres])
        del spheres  # the level stack is now the only copy of its members
        sizes = [len(r) for r in reps]
        bounds = np.cumsum([0] + sizes)
        owners = np.repeat(np.arange(len(reps)), sizes)
        for i in range(len(reps) - 1):
            rest = bounds[i + 1]
            dist = cross_distances(level[bounds[i] : rest], level[rest:])
            hits = np.flatnonzero((dist <= eq_tol).any(axis=0))
            if hits.size == 0:
                continue
            j = int(owners[rest + hits[0]])
            cross = dist[:, bounds[j] - rest : bounds[j + 1] - rest]
            a, b = np.unravel_index(np.argmin(cross), cross.shape)
            result = DistanceResult(
                value=2 * s,
                s=s,
                t=s,
                P=reps[i][a],
                Q=reps[j][b],
                common=DensityMatrix(shape, level[bounds[i] + a]),
            )
            return 2 * s, (code.labels[i], code.labels[j]), result
    raise AssertionError("unreachable: full deletion always intersects")


def corrects(
    code: CodeSample, t: int, kind: str = "deletions", tol: Tolerance | None = None
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
    opts: FeasibilityOptions | None = None,
) -> Verdict:
    """Pairwise disjointness of t-insertion spheres.

    Two insertion spheres meet iff one state lies in the
    deletions-after-insertions sphere of the other, so each pair is decided by
    the PSD feasibility solver.  Its heuristic infeasible verdict is inherited:
    any inconclusive pair makes the overall verdict unknown rather than true.
    """
    if t < 1:
        raise CountOutOfRange(f"need t >= 1, got {t}")
    if len(code) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(code)}")
    opts = opts or FeasibilityOptions()
    unknown_pair: tuple[str, str] | None = None
    pair_gaps = []
    for (i, a), (j, b) in combinations(enumerate(code.states), 2):
        report = member_del_ins(a, b, t, t, opts)
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


def metric_check(
    triples, tol: Tolerance | None = None
) -> dict:
    """Check the three metric axioms on sampled triples of states.

    Identity of indiscernibles, symmetry, and the triangle inequality are
    tested per triple; any violation is reported with the offending values.
    ``odd_equal_length`` counts the distances d_ab, d_bc and d_ac between
    states of equal length that are odd (such distances are always even);
    it does not enter ``ok``.
    """
    violations = []
    checked = 0
    odd = 0
    for idx, (a, b, c) in enumerate(triples):
        checked += 1
        d_ab = indel_distance(a, b, tol).value
        d_ba = indel_distance(b, a, tol).value
        d_bc = indel_distance(b, c, tol).value
        d_ac = indel_distance(a, c, tol).value
        if (d_ab == 0) != a.close_to(b):
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
