"""Quantum indel distance, code minimum distance, and capability verdicts.

The distance between two states is the least total number of deletions and
insertions carrying one to the other; equivalently the least s + t such that
some s-deletion of the first equals some t-deletion of the second.  A code of
equal-length states corrects t deletions iff its minimum distance is at least
2t + 1, and that capability transfers to any mixed batch of t deletions and
insertions.

``indel_distance`` and ``min_distance`` ask where deletion spheres first
meet, by one walk, ``_first_meeting``.  It walks ladders of
``channels._dedup_levels`` in step, each one of a stack of states, gathers
each level's kept rows once, each owned by its state, and asks
``channels.first_meeting`` once per level about them.  ``indel_distance``
walks two one-state ladders from their start levels; ``min_distance`` walks
the one ladder of the code's stack from level 1, since code states share
one length, are distinct at level 0 by construction, and the code's minimum
distance is 2s for the least s at which two of their s-deletion spheres
meet.  ``metric_check`` needs only values, of many pairs:
``_pair_distances`` groups them by their two (shape, start level) ladders
and walks each group on its own, one ladder a side over the group's states
(one for both sides when the two are the same), deciding the group's pairs
at each step by one ``channels.pairs_meet`` call.  Every comparison
distance.py makes is a ``first_meeting`` or ``pairs_meet`` call, the
probe's too.  Only a witness row is wrapped as a state.  A ``CodeSample``
is one stack of states of one shape, deduplicated in its constructor, with
the spheres' greedy dedup, at the tolerance every verdict on the code
reads: a grid hands over the stack it built, and ``from_states`` stacks a
list of states once.

Before ``indel_distance`` and ``min_distance`` walk, ``_ladders`` probes
the walk's top non-trivial level K, of one-qudit rows: level n - 1 for a
code, step min(n, m) - 1 for two states.  A meeting carries up the ladder
(tracing the same qudits out of two rows moves them at most sqrt(l) times
farther apart per qudit), so when no row of level K lies within
``_probe_bound`` (the largest eq_tol of a skipped level, carried up, plus a
rounding margin) of a row of another state (one ``first_meeting`` call at
that bound finds no meeting), no lower level can meet, and the walk starts
at K: ``channels._traced_levels`` started at K builds of each level below
it only the tail that K's rows are traced from, and the probe's rows are
the walk's first raw level.  Otherwise the walk starts where it would
without the probe.  Every value, pair and witness is the one the walk from
the start gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, islice
from typing import Iterable, Sequence

import numpy as np

from .channels import IndexSet, _dedup_levels, _traced_levels, first_meeting, pairs_meet
from .errors import DuplicateStates, LevelMismatch, ParseError, ShapeMismatch, TooFewStates
from .feasibility import FeasibilityStatus, _PairDecider
from .linalg import Tolerance, _gamma, frobenius_distance, frobenius_norm
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


CODE_CAP = 1 << 14  # most states a code may offer (verify at the cap: under 1 s and 250 MB on a 2-CPU host)


@dataclass(frozen=True, eq=False)
class CodeSample:
    """Finite list of states of one shape, distinct within ``tol``: the
    rows of the ``(k, d, d)`` array ``stack``, one per label.

    Construction dedups the offered rows greedily, as a ladder level, by
    one ``channels._dedup_levels`` step: the first of each coinciding
    group stays, with its label.  ``stack`` keeps the kept rows read-only:
    the offered array itself when every row is kept, else one gather.
    ``states`` wraps views of its rows on first access.
    """

    shape: QuditShape
    stack: np.ndarray = field(repr=False)
    labels: tuple[str, ...]
    tol: Tolerance = Tolerance()

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.stack):
            raise ShapeMismatch("labels and states must have equal length")
        if self.stack.shape[1:] != (self.shape.dim, self.shape.dim):
            raise ShapeMismatch(
                f"rows of shape {self.stack.shape[1:]} do not match qudit shape "
                f"(l={self.shape.level}, n={self.shape.length}, dim={self.shape.dim})"
            )
        _, _, kept = next(_dedup_levels(iter([self.stack]), self.tol))
        stack = self.stack if kept.all() else self.stack[kept]
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "labels", tuple(label for label, keep in zip(self.labels, kept) if keep))

    @classmethod
    def from_states(cls, states, labels=None, tol: Tolerance = Tolerance()) -> "CodeSample":
        """The code of ``states``, at least one and at most ``CODE_CAP``
        (``CountOutOfRange``), of one level and length, stacked once, which
        must be distinct: ``DuplicateStates`` names the first repeat, the
        first state within eq_tol of an earlier one, and the first such
        earlier state.

        The first repeat is the first row the dedup drops: every row before
        it is kept, so it is the first row where the kept rows part from the
        offered ones (a later row of its very values would be dropped too).
        Its partner comes from one stacked ``frobenius_distance`` of the rows
        before it against it, which reads the dedup's distances, so that
        pair is the one the dedup joined."""
        states = tuple(states)
        if not states:
            raise TooFewStates("a code needs at least 1 state, got 0")
        _count(len(states), "states in a code", least=1, most=CODE_CAP)
        levels = {s.level for s in states}
        if len(levels) > 1:
            raise LevelMismatch(f"states span several levels: {sorted(levels)}")
        lengths = {s.length for s in states}
        if len(lengths) > 1:
            raise ShapeMismatch(f"states span several lengths: {sorted(lengths)}")
        labels = tuple(labels) if labels is not None else tuple(f"state{k}" for k in range(len(states)))
        stack = np.stack([s.mat for s in states])
        code = cls(states[0].shape, stack, labels, tol)
        if len(code) < len(states):
            eq_tol = tol.at(states[0].dim).eq_tol
            j = int(np.argmin(np.append((code.stack == stack[: len(code)]).all(axis=(1, 2)), False)))
            k = int(np.argmax(frobenius_distance(stack[:j], np.broadcast_to(stack[j], stack[:j].shape)) <= eq_tol))
            raise DuplicateStates(f"states {labels[k]!r} and {labels[j]!r} coincide within eq_tol {eq_tol:.3e}")
        return code

    @cached_property
    def states(self) -> list[DensityMatrix]:
        return [DensityMatrix(self.shape, mat) for mat in self.stack]

    def __len__(self) -> int:
        return len(self.stack)


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
    ``start`` on, one ``(eq_tol, raw, kept)`` per level.  Each level's kept
    rows are gathered once (``_owned_rows``) for one
    ``channels.first_meeting`` call; a witness row's P and Q are its index
    in its raw level, its place in ``combinations(range(1, n + 1), s)``.
    The last level, of each state's trace, always meets: where
    ``first_meeting`` reads no pair within eq_tol there, the first pair
    meets by its only rows.
    """
    for step, levels in enumerate(zip(*(levels for _, _, levels in ladders))):
        rows, owner, index = _owned_rows((raw, kept) for _, raw, kept in levels)
        hit = first_meeting(rows, owner, levels[0][0])
        if hit is not None:
            break
    else:
        # full deletion leaves every state the one empty state: its first
        # pair meets there, by its only rows, even where eq_tol 0 reads two
        # computed traces a last bit apart
        hit = 0, 1, None
    r, c, _ = hit
    states = [(shape, start + step) for (shape, start, _), (_, _, kept) in zip(ladders, levels) for _ in kept]
    i, j = int(owner[r]), int(owner[c])
    (shape, s), (other, t) = states[i], states[j]
    P, Q = _deleted(shape.length, s, index[r]), _deleted(other.length, t, index[c])
    common = DensityMatrix(QuditShape(shape.level, shape.length - s), rows[r])
    return i, j, DistanceResult(P.size + Q.size, s, t, P, Q, common)


def _owned_rows(levels: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kept rows of raw levels ``(raw, kept)``, each ``(k, C, d, d)`` for
    k states with its ``(k, C)`` kept mask, gathered once into one
    ``(R, d, d)`` stack, with each row's owner, its state numbered across
    the levels in order, and its index in its raw level."""
    rows, owner, index, first = [], [], [], 0
    for raw, kept in levels:
        state, row = np.nonzero(kept)
        rows.append(raw[kept])
        owner.append(state + first)
        index.append(row)
        first += len(kept)
    return np.concatenate(rows), np.concatenate(owner), np.concatenate(index)


def _ladders(stacks: Sequence[tuple[np.ndarray, QuditShape, int]], tol: Tolerance) -> list[tuple]:
    """The ladders ``_first_meeting`` walks for stacks ``(mats, shape,
    start)`` of states whose rows have one length r at their start levels:
    from those starts, or from the top non-trivial step K = r - 1 (rows of
    one qudit) when one probe there shows that no earlier step can meet.

    A meeting carries up the ladder.  Two rows x, y of step k < K, of two
    states, give two rows of step K by tracing the same K - k of their
    qudits out of both, and ||Tr_1 X||_F <= sqrt(l) ||X||_F (Cauchy-Schwarz
    over the l terms of each entry), so those rows are at most
    l^((K - k)/2) ||x - y||_F apart.  So when no row of step K lies within
    ``_probe_bound`` of a row of another state, no step below K holds a
    cross pair within its eq_tol, and the walk starts at K: the probe's rows
    are its first raw level and no level below K is traced.  Otherwise it
    walks from the starts, as it would without the probe.

    The probe asks ``channels.first_meeting`` whether the R rows of step K
    (``_traced_levels`` from that level), each owned by its state, meet
    within the bound; it passes when the bound is finite (a stack with a
    non-finite entry fails it) and they do not.  It is made only when those
    R^2 pairs of l^2 entries are fewer entries than the first level it would
    skip holds, so a code of many short states never pays for it.
    """
    _, shape, start = stacks[0]
    l, r = shape.level, shape.length - start
    top = r - 1
    if top >= 1:
        rows = sum(len(mats) * math.comb(shape.length, start + top) for mats, shape, start in stacks)
        first = sum(len(mats) * math.comb(shape.length, start) for mats, shape, start in stacks) * l ** (2 * r)
        if rows * rows * l * l < first:
            traced = [_traced_levels(mats, shape, start + top) for mats, shape, start in stacks]
            tops = [next(levels) for levels in traced]
            bound = _probe_bound(stacks, tol, top)
            probe, owner, _ = _owned_rows((raw, np.ones(raw.shape[:2], dtype=bool)) for raw in tops)
            if math.isfinite(bound) and first_meeting(probe, owner, bound) is None:
                return [
                    (shape, start + top, _dedup_levels(chain([raw], levels), tol))
                    for (_, shape, start), raw, levels in zip(stacks, tops, traced)
                ]
    return [
        (shape, start, _dedup_levels(_traced_levels(mats, shape, start), tol))
        for mats, shape, start in stacks
    ]


def _probe_bound(stacks: Sequence[tuple[np.ndarray, QuditShape, int]], tol: Tolerance, top: int) -> float:
    """The probe's threshold at step K = ``top``: no computed distance of a
    cross pair of a step k < K is within that step's eq_tol unless a cross
    pair of step K is computed within this bound.

    With d_k = l^(r - k) the row dimension at step k and tau_k the eq_tol
    at d_k, the exact bound is B = max_{k < K} l^((K - k)/2) tau_k (see
    ``_ladders``).  Three roundings are added to it:

    - a computed distance of rows of dimension d is within a factor
      1 + gamma_{2 d^2 + 4} of the norm of the computed rows' difference
      (the difference, 2 d^2 squares and their sum, the square root), taken
      at d_0 for the skipped steps and at l for the probe;
    - one computed trace over a qudit misses the exact trace of its input Y
      by at most delta ||Y||_F, delta = sqrt(l) gamma_l (each entry sums l
      terms); so a row of level s, s traces from a state of norm nu, misses
      its exact value by at most s delta (sqrt(l) + delta)^(s - 1) nu, and,
      carried up to level S = start + K and counted there too, by at most
      E = S delta (sqrt(l) + delta)^(S - 1) nu;
    - a pair has two rows, so 2 (E_x + E_y) <= 4 E with E the largest over
      the stacks, nu each stack's largest Frobenius norm.

    So the bound is (1 + gamma_{2 l^2 + 4}) ((1 + gamma_{2 d_0^2 + 4}) B + 4 E).
    E keeps it above 0 where eq_tol is 0.  A stack with a non-finite entry
    gives a NaN or infinite bound, which no probe passes.
    """
    _, shape, start = stacks[0]
    l, r = shape.level, shape.length - start
    exact = max(l ** ((top - k) / 2) * tol.at(l ** (r - k)).eq_tol for k in range(top))
    delta = math.sqrt(l) * _gamma(l)
    # np.max, unlike max, keeps a NaN norm whichever stack gives it
    carried = np.max([
        (start + top) * delta * (math.sqrt(l) + delta) ** (start + top - 1) * float(frobenius_norm(mats).max())
        for mats, shape, start in stacks
    ])
    return (1 + _gamma(2 * l * l + 4)) * ((1 + _gamma(2 * l ** (2 * r) + 4)) * exact + 4 * carried)


def _deleted(n: int, s: int, index: int) -> IndexSet:
    """The s positions deleted from n qudits to give row ``index`` of a
    raw level s."""
    return IndexSet(next(islice(combinations(range(1, n + 1), s), int(index), None)), n)


def indel_distance(
    rho1: DensityMatrix, rho2: DensityMatrix, tol: Tolerance = Tolerance()
) -> DistanceResult:
    """Breadth-first search over increasing s + t with n - s = m - t >= 0.

    Deletion spheres are finite, so each candidate total is decided exactly;
    full deletion of both states guarantees a hit by s + t = n + m.  Both s
    and t grow by one per step, so the search walks one deletion ladder per
    state, from s = max(0, n - m) and t = max(0, m - n), and keeps only the
    current level of each.  When the probe of ``_ladders`` shows that no
    step below min(n, m) - 1 can meet, as for two generic states, the walk
    starts at that step and no lower level is traced.
    """
    if rho1.level != rho2.level:
        raise LevelMismatch(f"levels differ: {rho1.level} vs {rho2.level}")
    n, m = rho1.length, rho2.length
    starts = ((rho1, max(0, n - m)), (rho2, max(0, m - n)))
    _, _, result = _first_meeting(_ladders([(rho.mat[None], rho.shape, s) for rho, s in starts], tol))
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
    dedup at ``code.tol``, where no two states meet; or at level n - 1 when
    the probe of ``_ladders`` shows that no lower level can meet.  A code
    of many short states (a grid code) is not probed: its probe would
    compare more entries than level 1 holds.
    """
    if len(code) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(code)}")
    i, j, result = _first_meeting(_ladders([(code.stack, code.shape, 1)], code.tol))
    return result.value, (code.labels[i], code.labels[j]), result


def corrects(code: CodeSample, t: int, kind: str = "deletions") -> Verdict:
    """Capability verdict from the minimum distance.

    kind="deletions": corrects t deletions iff min distance >= 2t + 1.
    kind="total":     the deletion verdict, reported for t errors that mix
                      deletions and insertions, as the paper's theorem
                      carries deletion capability over to them.  Only the
                      deletion verdict is computed; no verdict on mixed
                      errors is.
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

    Two spheres meet iff one state lies in the deletions-after-insertions
    sphere of the other: the code's state pairs walk through one
    ``feasibility._PairDecider``, which traces each marginal once per stack.
    True rests on re-checked Farkas certificates, False on a re-checked
    witness; an inconclusive pair makes the verdict unknown.
    """
    t = _count(t, "error count t", least=1)
    if len(code) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(code)}")
    decider = _PairDecider(code.shape, code.stack, code.shape, code.stack, t, t, code.tol)
    pairs = []
    for i, j in combinations(range(len(code)), 2):
        report = decider.member(i, j)
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


def _pair_distances(pairs: Sequence[tuple[DensityMatrix, DensityMatrix]], tol: Tolerance) -> list[int]:
    """``indel_distance(x, y, tol).value`` of every pair ``(x, y)`` of
    states of one level, each group of pairs walked on its own.

    A pair of lengths n and m walks x's ladder from level s = max(0, n - m)
    and y's from t = max(0, m - n), r = min(n, m) steps down to the empty
    state.  The pairs are grouped by their two (shape, start level)
    ladders; each group's x states and y states get one ``_dedup_levels``
    ladder a side, over the stack of that side's states, each once, and one
    ladder for both sides when the two are the same.  At step k < r the
    group's pairs that have not met are decided by one
    ``channels.pairs_meet`` call, and a pair that meets is s + t + 2k
    apart; the walk stops once all have met.  At step r the pairs left
    meet by the empty state, which is not traced.
    """
    groups: dict[tuple, list[int]] = {}  # (x ladder, y ladder) -> its pairs
    for p, (x, y) in enumerate(pairs):
        keys = (x.shape, max(0, x.length - y.length)), (y.shape, max(0, y.length - x.length))
        groups.setdefault(keys, []).append(p)
    values = np.empty(len(pairs), dtype=int)
    for (kx, ky), group in groups.items():
        members: dict[tuple, dict] = {kx: {}, ky: {}}  # each ladder's states, by id: (row, state)
        rows = [
            [members[key].setdefault(id(state), (len(members[key]), state))[0] for key, state in zip((kx, ky), pairs[p])]
            for p in group
        ]
        ladders = {}
        for (shape, start), states in members.items():
            stack = np.stack([state.mat for _, state in states.values()])
            ladders[shape, start] = _dedup_levels(_traced_levels(stack, shape, start), tol)
        pending, (i, j), r = np.array(group), np.array(rows).T, kx[0].length - kx[1]
        for step in range(r):
            levels = {key: next(ladder) for key, ladder in ladders.items()}
            met = pairs_meet(levels[kx], levels[ky], (i, j))
            values[pending[met]] = kx[1] + ky[1] + 2 * step
            pending, i, j = pending[~met], i[~met], j[~met]
            if not len(pending):
                break
        # full deletion leaves every state the one empty state: the pairs
        # left meet there, even where eq_tol 0 reads two computed traces a
        # last bit apart
        values[pending] = kx[1] + ky[1] + 2 * r
    return values.tolist()


def metric_check(
    triples, tol: Tolerance = Tolerance()
) -> dict:
    """Check the three metric axioms on sampled triples of states.

    Identity of indiscernibles, symmetry, and the triangle inequality are
    tested per triple; any violation is reported with the offending values.
    A triple of states of different levels is refused (``LevelMismatch``)
    before any distance is taken.  ``odd_equal_length`` counts the
    distances d_ab, d_bc and d_ac between states of equal length that are
    odd (such distances are always even); it does not enter ``ok``.  The
    distances d_ab, d_ba, d_bc and d_ac of every triple are taken together
    (``_pair_distances``): the pairs are grouped by their two ladders, each
    state's levels are built once per group it belongs to, and each step
    makes one batched comparison per group.
    """
    triples = list(triples)
    for idx, (a, b, c) in enumerate(triples):
        if not a.level == b.level == c.level:
            raise LevelMismatch(f"triple {idx} spans levels {a.level}, {b.level}, {c.level}")
    distances = _pair_distances([pair for a, b, c in triples for pair in ((a, b), (b, a), (b, c), (a, c))], tol)
    violations = []
    odd = 0
    for idx, (a, b, c) in enumerate(triples):
        d_ab, d_ba, d_bc, d_ac = distances[4 * idx : 4 * idx + 4]
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
    return {"checked": len(triples), "violations": violations, "odd_equal_length": odd, "ok": not violations}
