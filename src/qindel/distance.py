"""Quantum indel distance, code minimum distance, and capability verdicts.

The distance between two states is the least total number of deletions and
insertions carrying one to the other; equivalently the least s + t such that
some s-deletion of the first equals some t-deletion of the second.  A code of
equal-length states corrects t deletions iff its minimum distance is at least
2t + 1, and that capability transfers to any mixed batch of t deletions and
insertions.

``indel_distance``, ``min_distance`` and ``metric_check`` all ask where
deletion spheres first meet, by one walk, ``_first_meeting``.  It walks
ladders of ``channels._dedup_levels`` in step, each one of a stack of
states, and asks ``channels.first_meeting`` once per level about every
state's kept rows: ``indel_distance`` walks two one-state ladders from their
start levels; ``min_distance`` walks the one ladder of the code's stack
from level 1, since code states share one length, are distinct at level 0
by construction, and the code's minimum distance is 2s for the least s at
which two of their s-deletion spheres meet;
``metric_check`` builds each state's levels once per triple.  Only a witness
row is wrapped as a state.  ``CodeSample`` stacks and dedups its states
once, with the spheres' greedy dedup, at the tolerance every verdict on the
code reads, and keeps the stack its states view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterable, Sequence

import numpy as np

from .channels import IndexSet, _dedup_levels, distinct_rows, first_meeting
from .errors import DuplicateStates, LevelMismatch, ParseError, ShapeMismatch, TooFewStates
from .feasibility import FeasibilityStatus, member_del_ins
from .linalg import Tolerance
from .states import DensityMatrix, QuditShape, _count, state_to_json_obj

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
    """Finite list of states of a common shape, distinct within ``tol``.

    Construction dedups the offered states greedily: the first of each
    coinciding group stays, with its label.  ``joined[j]`` is the index in
    ``states`` of the state offered state j became or joined.  The offered
    matrices are stacked once; ``stack`` is the read-only ``(k, d, d)``
    array of the kept ones, and each of ``states`` views its row.
    """

    states: tuple[DensityMatrix, ...]
    labels: tuple[str, ...]
    tol: Tolerance = Tolerance()
    joined: tuple[int, ...] = field(default=(), init=False, repr=False, compare=False)
    stack: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.states):
            raise ShapeMismatch("labels and states must have equal length")
        levels = {s.level for s in self.states}
        if len(levels) > 1:
            raise LevelMismatch(f"states span several levels: {sorted(levels)}")
        lengths = {s.length for s in self.states}
        if len(lengths) > 1:
            raise ShapeMismatch(f"states span several lengths: {sorted(lengths)}")
        if not self.states:
            return
        shape = self.states[0].shape
        stack = np.stack([s.mat for s in self.states])
        kept, joined = distinct_rows(stack, self.tol.at(shape.dim).eq_tol)
        if len(kept) < len(stack):
            stack = stack[kept]
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "states", tuple(DensityMatrix(shape, mat) for mat in stack))
        object.__setattr__(self, "labels", tuple(self.labels[c] for c in kept))
        object.__setattr__(self, "joined", tuple(joined))

    @classmethod
    def from_states(cls, states, labels=None, tol: Tolerance = Tolerance()) -> "CodeSample":
        """The code of ``states``, which must be distinct: ``DuplicateStates``
        names the first repeat, the first state not kept at its own index."""
        states = tuple(states)
        labels = tuple(labels) if labels is not None else tuple(f"state{k}" for k in range(len(states)))
        code = cls(states, labels, tol)
        for j, k in enumerate(code.joined):
            if k != j:
                raise DuplicateStates(
                    f"states {labels[k]!r} and {labels[j]!r} coincide within "
                    f"eq_tol {tol.at(states[0].dim).eq_tol:.3e}"
                )
        return code

    def __len__(self) -> int:
        return len(self.states)


@dataclass
class Verdict:
    """Tri-state capability verdict: True / False / None (unknown)."""

    ok: bool | None
    evidence: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {"ok": self.ok, "evidence": self.evidence}


def _first_meeting(ladders: Sequence[tuple[QuditShape, int, Iterable[tuple]]]) -> tuple[int, int, DistanceResult]:
    """The first level, walking the ladders in step, at which two of their
    states' spheres meet: the first such pair of states (i, j), numbered
    across the ladders in order and taken in ``combinations`` order, and
    their closest cross pair there as witness.

    A ladder ``(shape, start, levels)`` holds a stack of states of ``shape``:
    ``levels`` yields ``channels._dedup_levels`` of the stack from level
    ``start`` on, one ``(eq_tol, raw, kept)`` per level.  Each level hands
    each state's kept rows, a view when every row is kept, to one
    ``channels.first_meeting`` call; a witness row's P and Q are its
    position in ``combinations(range(1, n + 1), s)``, the order of the raw
    rows.
    """
    for step, levels in enumerate(zip(*(levels for _, _, levels in ladders))):
        stacks, owners = [], []
        for (shape, start, _), (_, raw, kept) in zip(ladders, levels):
            stacks += [mats if whole else mats[keep] for mats, keep, whole in zip(raw, kept, kept.all(axis=-1))]
            owners += [(shape, start + step, keep) for keep in kept]
        hit = first_meeting(stacks, levels[0][0])
        if hit is not None:
            i, j, a, b, _ = hit
            P, Q = _deleted(*owners[i], a), _deleted(*owners[j], b)
            shape, s, _ = owners[i]
            common = DensityMatrix(QuditShape(shape.level, shape.length - s), stacks[i][a])
            return i, j, DistanceResult(P.size + Q.size, P.size, Q.size, P, Q, common)
    raise AssertionError("unreachable: full deletion always intersects")


def _deleted(shape: QuditShape, s: int, keep: np.ndarray, row: int) -> IndexSet:
    """The positions deleted to give kept row ``row`` of level s of a state
    of ``shape`` whose level-s kept mask is ``keep``."""
    n = shape.length
    return IndexSet(next(islice(combinations(range(1, n + 1), s), int(np.flatnonzero(keep)[row]), None)), n)


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
    starts = ((rho1, max(0, n - m)), (rho2, max(0, m - n)))
    ladders = [(rho.shape, s, _dedup_levels(rho.mat[None], rho.shape, tol, s)) for rho, s in starts]
    _, _, result = _first_meeting(ladders)
    # equal-length states are always an even distance apart
    assert n != m or result.value % 2 == 0
    return result


def min_distance(code: CodeSample) -> tuple[int, tuple[str, str], DistanceResult]:
    """Minimum pairwise distance with the achieving pair, level by level.

    Code states share one length, so a pair's distance is 2s for the least s
    at which their s-deletion spheres meet.  The one ladder of the code's
    ``stack`` is walked, one level at a time: each level is traced and
    deduplicated for every state in batched calls, and
    ``channels.first_meeting`` compares the states' kept rows at once.  The
    first level with a hit gives the value; the pair reported is the first,
    in ``combinations`` order, that meets there, with its closest cross pair
    as witness.  The walk starts at level 1: level 0 is the code's own
    dedup at ``code.tol``, where no two states meet.
    """
    if len(code) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(code)}")
    shape = code.states[0].shape
    i, j, result = _first_meeting([(shape, 1, _dedup_levels(code.stack, shape, code.tol, 1))])
    return result.value, (code.labels[i], code.labels[j]), result


def corrects(code: CodeSample, t: int, kind: str = "deletions") -> Verdict:
    """Capability verdict from the minimum distance.

    kind="deletions": corrects t deletions iff min distance >= 2t + 1.
    kind="total":     the same threshold certifies correction of any combined
                      t deletion-plus-insertion errors (deletion capability
                      transfers to mixed batches).
    """
    t = _count(t, "error count t", least=1)
    if kind not in ("deletions", "total"):
        raise ParseError(f"unknown kind {kind!r}")
    value, pair, result = min_distance(code)
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


def corrects_insertions(code: CodeSample, t: int) -> Verdict:
    """Pairwise disjointness of t-insertion spheres.

    Two insertion spheres meet iff one state lies in the
    deletions-after-insertions sphere of the other, so each pair is decided by
    the PSD feasibility solver.  True rests on infeasible verdicts, each with
    a re-checked Farkas certificate; False on a re-checked witness.  Any
    inconclusive pair makes the overall verdict unknown rather than true.
    """
    t = _count(t, "error count t", least=1)
    if len(code) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(code)}")
    pairs = []
    for (i, a), (j, b) in combinations(enumerate(code.states), 2):
        report = member_del_ins(a, b, t, t, code.tol)
        pair = [code.labels[i], code.labels[j]]
        pairs.append({"pair": pair, "status": report.status.value, "gap": report.gap})
        if report.status is FeasibilityStatus.FEASIBLE:
            witness = state_to_json_obj(report.witness)
            evidence = {"pair": pair, "witness": witness, "gap": report.gap, "pairs": pairs}
            return Verdict(ok=False, evidence=evidence)
    inconclusive = [entry["pair"] for entry in pairs if entry["status"] == FeasibilityStatus.INCONCLUSIVE]
    if inconclusive:
        return Verdict(ok=None, evidence={"inconclusive_pair": inconclusive[0], "pairs": pairs})
    return Verdict(ok=True, evidence={"pairs": pairs})


def _level_distance(x: tuple[QuditShape, list], y: tuple[QuditShape, list]) -> int:
    """``indel_distance(...).value`` from two states' shapes and lists of all
    their ``_dedup_levels``."""
    (xshape, xlevels), (yshape, ylevels) = x, y
    s, t = max(0, xshape.length - yshape.length), max(0, yshape.length - xshape.length)
    return _first_meeting([(xshape, s, xlevels[s:]), (yshape, t, ylevels[t:])])[2].value


def metric_check(
    triples, tol: Tolerance = Tolerance()
) -> dict:
    """Check the three metric axioms on sampled triples of states.

    Identity of indiscernibles, symmetry, and the triangle inequality are
    tested per triple; any violation is reported with the offending values.
    A triple of states of different levels is refused (``LevelMismatch``).
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
        if not a.level == b.level == c.level:
            raise LevelMismatch(f"triple {idx} spans levels {a.level}, {b.level}, {c.level}")
        la, lb, lc = ((x.shape, list(_dedup_levels(x.mat[None], x.shape, tol))) for x in (a, b, c))
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
