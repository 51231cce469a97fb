"""Deletion channels, qudit index permutations, and insertion-state construction.

Deletion at position p is the partial trace over qudit p.  The deletion
spheres D^0, D^1, ... of a state, or of each state of a stack, form one
ladder, ``_dedup_levels``: the distance walks read it level by level, and
``deletion_sphere`` reads its one level s.  Its levels come from the one
level builder, ``_traced_levels``, which traces each level's candidates
from the level before, bit-identical to tracing each subset from the
state, for one state or a stack of states alike; a ladder started high
builds its first level directly, from only the parents its rows need.  A
sphere is the read-only result of one greedy dedup of one level by
``_dedup_levels``, for one state or each state of a stack; the greedy rule
is one loop, ``_distinct_mask``, which ``distinct_rows`` applies to a
code's stack.  Where spheres first meet is found by one kernel,
``first_meeting``.  Every dedup and every comparison of rows is one call of
``_screened_distances``, on a lone stack or a batch of stacks: only pairs
whose diagonals lie within eq_tol get a full distance, gathered across rows
and batch entries for ``linalg.frobenius_norm``.  ``first_meeting`` compares
many stacks in blocks of whole stacks, one screened call per block: a run
of one-row stacks, or one stack of several rows.

Insertion at a set of positions Q is the *set* of larger states whose
deletion at Q returns the original; members are constructed from rho's
spectral form and one ``(rank, rank, l**t, l**t)`` array of blocks A_{x,y},
one per eigenvector pair (t-qudit densities on the diagonal, traceless adjoint
pairs off it).  The plain array is the only representation of the blocks;
``separable_blocks`` builds the one with no coherence between system and
inserted qudits.  One builder takes a stack of such arrays, one per member,
each with its own source: the stack is checked as one array and attached to
each member's eigenvectors by one batched product per side, with the inserted
qudits last; an index permutation then moves them into place.  A member's
bits depend only on its own source and blocks, never on the rest of the
stack, so a sampler builds all its samples as one stack and the containment
trials build the insertions of many sources at once.  Counts and seeds
are checked by ``states._count``; positions by ``_positions``.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, islice
from math import comb
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BlockConstraintViolated,
    InvalidIndexSet,
    LevelMismatch,
    NotAPermutation,
    NotPSD,
    PositionOutOfRange,
    QindelError,
    RoundTripFailed,
    ShapeMismatch,
)
from .linalg import _CHUNK, Tolerance, cross_distances, eigensolve, frobenius_distance, frobenius_norm, hermitian_part
from .rand import random_orthonormal, random_psd
from .states import DensityMatrix, QuditShape, SpectralForm, _count, spectral_decompose, spectral_decompose_stack

__all__ = [
    "IndexSet",
    "SphereSet",
    "distinct_rows",
    "first_meeting",
    "trace_out",
    "trace_out_adjoint",
    "partial_trace",
    "delete",
    "deletion_sphere",
    "index_permutation",
    "tau_Q",
    "separable_blocks",
    "insert_construct",
    "insertion_member",
    "sample_insertions",
]


def _positions(values) -> tuple[int, ...]:
    """Python or numpy integer positions as ints; a float or a string is refused."""
    try:
        return tuple(operator.index(p) for p in values)
    except TypeError as exc:
        raise InvalidIndexSet(f"qudit positions must be integers: {exc}") from exc


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing 1-based qudit positions inside an ambient range."""

    positions: tuple[int, ...]
    ambient: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", _positions(self.positions))
        pos = self.positions
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise InvalidIndexSet(f"positions {pos} must be strictly increasing")
        if pos and (pos[0] < 1 or pos[-1] > self.ambient):
            raise PositionOutOfRange(f"positions {pos} not within [1, {self.ambient}]")

    @property
    def size(self) -> int:
        return len(self.positions)

    def complement(self) -> tuple[int, ...]:
        inside = set(self.positions)
        return tuple(p for p in range(1, self.ambient + 1) if p not in inside)

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions)


def _as_index_set(positions, ambient: int) -> IndexSet:
    if isinstance(positions, IndexSet):
        if positions.ambient != ambient:
            raise InvalidIndexSet(
                f"index set over [1, {positions.ambient}] used where ambient is {ambient}"
            )
        return positions
    return IndexSet(tuple(sorted(_positions(positions))), ambient)


def _insertion_set(Q, n: int) -> IndexSet:
    """Q as the positions of qudits inserted into an n-qudit state: an index
    set over the lifted range [1, n + |Q|]."""
    Q = Q if isinstance(Q, IndexSet) else tuple(Q)
    return _as_index_set(Q, n + len(tuple(Q)))


def trace_out(mat: np.ndarray, pset: IndexSet, level: int) -> np.ndarray:
    """Partial trace over the qudits at ``pset`` of a raw ``(..., d, d)`` array.

    ``d`` must be ``level ** pset.ambient``; leading axes are a batch and are
    kept.  Positions are traced from the largest down so the remaining 1-based
    positions stay valid.  The matrices themselves are not validated.
    """
    mat = np.asarray(mat)
    n = pset.ambient
    if mat.shape[-2:] != (level**n, level**n):
        raise ShapeMismatch(f"shape {mat.shape} does not end in two axes of {level}**{n}")
    batch = mat.shape[:-2]
    k = len(batch)
    for p in reversed(pset.positions):
        lead, tail = level ** (p - 1), level ** (n - p)
        tensor = mat.reshape(*batch, lead, level, tail, lead, level, tail)
        n -= 1
        mat = np.trace(tensor, axis1=k + 1, axis2=k + 4).reshape(*batch, level**n, level**n)
    return mat


def trace_out_adjoint(mat: np.ndarray, pset: IndexSet, level: int) -> np.ndarray:
    """The adjoint of ``trace_out``: an identity inserted at the qudits of ``pset``.

    ``mat`` is a raw ``(d, d)`` array on the qudits ``pset`` leaves; the result
    is ``level ** pset.ambient`` square, and <trace_out(x), mat> = <x, result>.
    Positions are inserted from the smallest up so each lands where ``pset``
    puts it.
    """
    mat = np.asarray(mat)
    n = pset.ambient - pset.size
    if mat.shape != (level**n, level**n):
        raise ShapeMismatch(f"shape {mat.shape} is not two axes of {level}**{n}")
    for p in pset.positions:
        lead, tail = level ** (p - 1), level ** (n - p + 1)
        block = mat.reshape(lead, tail, lead, tail)
        out = np.zeros((lead, level, tail, lead, level, tail), dtype=mat.dtype)
        for k in range(level):
            out[:, k, :, :, k, :] = block
        n += 1
        mat = out.reshape(level**n, level**n)
    return mat


def partial_trace(rho: DensityMatrix, p: int) -> DensityMatrix:
    """Trace out qudit p (the system loses that qudit)."""
    reduced = trace_out(rho.mat, IndexSet((p,), rho.length), rho.level)
    return DensityMatrix(QuditShape(rho.level, rho.length - 1), reduced)


def delete(rho: DensityMatrix, positions) -> DensityMatrix:
    """Deletion error D_P: the partial trace over the positions in P."""
    pset = _as_index_set(positions, rho.length)
    reduced = trace_out(rho.mat, pset, rho.level)
    return DensityMatrix(QuditShape(rho.level, rho.length - pset.size), reduced)


def _screened_distances(a: np.ndarray, b: np.ndarray, eq_tol: float) -> np.ndarray:
    """``cross_distances(a, b)`` of two ``(..., k, d, d)`` stacks with the same
    batch axes wherever it can be within eq_tol, ``inf`` elsewhere.

    The distance between the diagonals bounds the Frobenius distance from
    below (its squared sum is part of the full one), so full distances are
    computed only for the pairs whose diagonals lie within eq_tol*(1 + 1e-6).
    Rounding moves either sum by less than 1e-11 relative, so every pair set
    to ``inf`` is farther than eq_tol.  Stacks whose every pair fits in one
    chunk are compared in full, in one call, which no screen can undercut.
    Otherwise the diagonals of every batch entry are compared in one call,
    and the screened-in pairs of all entries and rows are gathered as
    ``a[r] - b[c]`` differences, whose two operands hold at most ``_CHUNK``
    complex entries a chunk, for the Frobenius kernel.  Each kept entry is
    ``frobenius_distance`` of its pair, bit for bit, as in
    ``cross_distances``.  When ``a`` is ``b``, only the pairs (i, j) with
    i < j, all a dedup reads, are screened in.
    """
    if a.shape[-3] * b.shape[-3] * a.shape[-1] ** 2 <= _CHUNK:
        return cross_distances(a, b)
    diagonals = (np.diagonal(x, axis1=-2, axis2=-1)[..., None, :] for x in (a, b))
    near = cross_distances(*diagonals) <= eq_tol * (1 + 1e-6)
    if a is b:
        near &= np.arange(a.shape[-3])[:, None] < np.arange(b.shape[-3])
    out = np.full(near.shape, np.inf)
    *lead, rows, cols = np.nonzero(near)
    left, right = (*lead, rows), (*lead, cols)
    dist = np.empty(len(rows))
    step = max(1, _CHUNK // (2 * a.shape[-2] * a.shape[-1]))  # a chunk's two gathered operands hold _CHUNK entries
    with np.errstate(over="ignore"):
        for start in range(0, len(rows), step):
            picks = slice(start, start + step)
            diff = a[tuple(x[picks] for x in left)]
            np.subtract(diff, b[tuple(x[picks] for x in right)], out=diff)
            dist[picks] = frobenius_norm(diff)
    out[near] = dist
    return out


def _distinct_mask(near: np.ndarray) -> np.ndarray:
    """The rows a greedy dedup keeps, as a ``(..., k)`` mask, from the
    ``(..., k, k)`` mask of row pairs within eq_tol of each other: row c is
    kept iff no kept row before it is within eq_tol.  Only the pairs (i, c)
    with i < c are read."""
    dropped = np.zeros(near.shape[:-1], dtype=bool)
    # only a column with an earlier row within eq_tol, in some batch entry,
    # can drop its row; the columns are visited in order
    rows, cols = np.nonzero(near)[-2:]
    for c in sorted(set(cols[rows < cols].tolist())):
        dropped[..., c] = (near[..., :c, c] & ~dropped[..., :c]).any(axis=-1)
    return ~dropped


def distinct_rows(buf: np.ndarray, eq_tol: float) -> tuple[list[int], list[int]]:
    """Greedy dedup of a ``(k, d, d)`` buffer, which is left as it is.

    Candidates are taken in order; one becomes a member only if its
    Frobenius distance to every member kept so far exceeds eq_tol, and
    otherwise joins the first member within eq_tol.  The distances of all
    pairs come from one screened call and the members from
    ``_distinct_mask``, the one greedy rule.  Returns ``(kept, joined)``:
    ``kept`` lists the candidates that became members, in order, and
    ``joined[c]`` is the index of the member candidate c became or joined.
    """
    if len(buf) <= 1:
        return list(range(len(buf))), list(range(len(buf)))
    near = _screened_distances(buf, buf, eq_tol) <= eq_tol
    np.fill_diagonal(near, True)  # the screen leaves it out; a kept c joins itself
    kept = _distinct_mask(near)
    members = np.flatnonzero(kept)
    # column c's first kept row within eq_tol: a dropped c's first kept
    # candidate before it, else c itself (no kept row before c is near it)
    first = (near & kept[:, None]).argmax(axis=0)
    return members.tolist(), np.searchsorted(members, first).tolist()


def first_meeting(
    stacks: Sequence[np.ndarray], eq_tol: float
) -> tuple[int, int, int, int, float] | None:
    """Where a list of ``(k, d, d)`` stacks first meet, or None if no two do.

    Returns ``(i, j, a, b, dist)``: (i, j) is the first pair of stacks, in
    ``combinations`` order, with rows within eq_tol of each other, and row a
    of stack i and row b of stack j are its closest cross pair (first in
    row-major order among equals), ``dist`` apart.

    Two stacks are compared in one screened call, without a copy.  More are
    stacked once and walked in blocks, one screened call each, up to the
    first block with a hit.  A stack of several rows is a block of its own,
    compared with the rows of the later stacks.  Consecutive one-row stacks
    (a grid code's level, where each state's deletions coincide) form
    blocks of as many as keep the block's rows times the rows from the block
    on within ``_MEETING_BUDGET`` pairs; a block's rows are compared with
    their own and all later rows, a self-comparison when the block runs to
    the end, and pairs of a stack with itself or an earlier stack are masked
    out.  One-row stacks have no pairs of their own, so no block compares
    a stack's own pairs.
    """
    if len(stacks) < 2:
        return None
    starts = list(accumulate((len(stack) for stack in stacks), initial=0))
    # the stack of each stacked row; two stacks' rows form cross pairs only
    owner = np.repeat(np.arange(len(stacks)), np.diff(starts)) if len(stacks) > 2 else None
    for left, top, right, base in _meeting_blocks(stacks, starts):
        dist = _screened_distances(left, right, eq_tol)
        hits = dist <= eq_tol
        if owner is not None:
            hits &= owner[top : top + len(left), None] < owner[None, base:]
        if not hits.any():
            continue
        # row-major, the first hit lies in the first stack i with one; j is
        # the least stack among the columns that i's rows hit
        rows, cols = np.nonzero(hits)
        i = bisect_right(starts, top + int(rows[0])) - 1
        j = bisect_right(starts, base + int(cols[rows < starts[i + 1] - top].min())) - 1
        block = dist[starts[i] - top : starts[i + 1] - top, starts[j] - base : starts[j + 1] - base]
        a, b = divmod(int(block.argmin()), block.shape[1])
        return i, j, a, b, float(block[a, b])
    return None


_MEETING_BUDGET = _CHUNK  # largest (block rows) x (rows compared) of a block of one-row stacks


def _meeting_blocks(stacks: Sequence[np.ndarray], starts: list[int]) -> Iterator[tuple]:
    """The screened calls of ``first_meeting``, one ``(left, top, right,
    base)`` per block: the block's rows ``left`` and the rows ``right`` they
    are compared with, which begin at stacked rows ``top`` and ``base``
    (``starts[i]`` is the stacked row where stack i begins)."""
    if len(stacks) == 2:  # a view: one array passed twice is still two stacks
        yield stacks[0], 0, stacks[1][:], starts[1]
        return
    rows = np.concatenate(stacks)
    several = [k for k, stack in enumerate(stacks) if len(stack) != 1] + [len(stacks)]
    i = 0
    while i < len(stacks) - 1:
        if len(stacks[i]) != 1:  # compared with the later stacks only: none of its own pairs
            yield stacks[i], starts[i], rows[starts[i + 1] :], starts[i + 1]
            i += 1
            continue
        right = rows[starts[i] :]
        budget = bisect_right(starts, starts[i] + _MEETING_BUDGET // len(right)) - 1
        end = min(several[bisect_right(several, i)], max(i + 1, budget))
        yield (right if end == len(stacks) else right[: end - i]), starts[i], right, starts[i]
        i = end


@dataclass(frozen=True, eq=False)
class SphereSet:
    """The distinct members of a deduplicated stack of same-shape states.

    The members live in one read-only ``(k, d, d)`` array, ``stack``, their
    only copy; ``states`` wraps views of its rows on first access.  ``reps``
    holds, per member, the tag of the first candidate that produced it (the
    index set, for a deletion sphere); ``raw_count`` counts every candidate
    offered to the dedup.
    """

    shape: QuditShape
    eq_tol: float
    stack: np.ndarray
    reps: list
    raw_count: int

    def __post_init__(self) -> None:
        self.stack.setflags(write=False)

    @cached_property
    def states(self) -> list[DensityMatrix]:
        return [DensityMatrix(self.shape, mat) for mat in self.stack]

    def __len__(self) -> int:
        return len(self.stack)

    def intersection_witness(
        self, other: "SphereSet"
    ) -> tuple[int, int, float] | None:
        """Indices of the closest cross pair (first in row-major order among
        equals) if within eq_tol, else None: ``first_meeting`` of the two
        stacks.  Spheres of different levels (``LevelMismatch``) or lengths
        (``ShapeMismatch``) are refused."""
        if self.shape.level != other.shape.level:
            raise LevelMismatch(f"levels differ: {self.shape.level} vs {other.shape.level}")
        if self.shape != other.shape:
            raise ShapeMismatch(f"sphere shapes differ: {self.shape} vs {other.shape}")
        hit = first_meeting([self.stack, other.stack], max(self.eq_tol, other.eq_tol))
        return None if hit is None else hit[2:]


def _traced_levels(mats: np.ndarray, shape: QuditShape, start: int = 0) -> Iterator[np.ndarray]:
    """The raw deletion levels of each state of ``shape`` in the ``(..., d, d)``
    stack ``mats`` (a lone state passes its matrix): for s = start, ..., n
    one ``(..., C(n, s), d_s, d_s)`` array whose rows are the deletions at
    each s-subset in ``combinations`` order.

    Subset c = (c1 < ... < cs) is traced from the row of its parent c[1:] by
    tracing position c1, which c[1:] leaves unnumbered.  ``trace_out``
    traces the largest position first too, so each row is the one
    ``trace_out(mat, IndexSet(c, n), l)`` gives, bit for bit.  Level
    ``start`` is built directly: only its rows' parents, their parents and
    so on are traced, each once, one ``trace_out`` call per row, and no
    level below it is built whole (at start 0 the level is a view of the
    stack).  Each later level is built whole from the one before: the
    children with c1 = p are a contiguous block whose parents are the last
    C(n - p, s - 1) rows of the level before, so a level is n - s + 1
    batched ``trace_out`` calls, each written into its block of the level.
    """
    n, l = shape.length, shape.level
    batch = mats.shape[:-2]
    if start == 0:
        raw = mats[..., None, :, :]
    else:
        rows = {(): mats}  # each subset traced so far, by its positions
        for c in combinations(range(1, n + 1), start):
            for k in range(len(c) - 1, -1, -1):  # the parents first, the largest subsets last
                if c[k:] not in rows:
                    rows[c[k:]] = trace_out(rows[c[k + 1 :]], IndexSet(c[k : k + 1], n - start + k + 1), l)
        raw = np.stack([rows[c] for c in combinations(range(1, n + 1), start)], axis=-3)
        del rows
    del mats  # a level-0 view alone keeps the stack alive, until level 1 is built
    yield raw
    for s in range(start + 1, n + 1):
        dim = l ** (n - s)
        level = np.empty((*batch, comb(n, s), dim, dim), dtype=complex)
        row = 0
        for p in range(1, n - s + 2):
            count = comb(n - p, s - 1)
            # the parents are not named, so no view keeps the level before alive past this level
            level[..., row : row + count, :, :] = trace_out(raw[..., -count:, :, :], IndexSet((p,), n - s + 1), l)
            row += count
        raw = level
        yield raw


def _dedup_levels(levels: Iterator[np.ndarray], tol: Tolerance) -> Iterator[tuple]:
    """For each raw level of ``levels`` (those of ``_traced_levels``, from
    any level on), ``(eq_tol, raw, kept)``: eq_tol at the level's row
    dimension, the raw ``(..., C(n, s), d_s, d_s)`` level, and the
    ``(..., C(n, s))`` mask of the rows each state's greedy dedup keeps,
    from one screened self-comparison.  A one-row level keeps its row
    without a distance.

    A caller that starts above level 0 passes ``islice`` of the chained
    levels (the levels below the start are traced, not deduplicated), or,
    as a distance walk whose probe built its top level directly does, that
    level and the rest of its ladder."""
    for raw in levels:
        eq_tol = tol.at(raw.shape[-1]).eq_tol
        if raw.shape[-3] == 1:
            yield eq_tol, raw, np.ones(raw.shape[:-2], dtype=bool)
        else:
            yield eq_tol, raw, _distinct_mask(_screened_distances(raw, raw, eq_tol) <= eq_tol)


def deletion_sphere(rho: DensityMatrix, s: int, tol: Tolerance = Tolerance()) -> SphereSet:
    """D^s(rho): level s of rho's ladder, traced from the levels before it,
    which are not deduplicated, and deduplicated greedily within eq_tol at
    its dimension (``_dedup_levels``).  ``s``, a deletion count, must be an
    integer in [0, n], else ``CountOutOfRange``."""
    n, s = rho.length, _count(s, "deletion count s", most=rho.length)
    eq_tol, raw, kept = next(_dedup_levels(islice(_traced_levels(rho.mat, rho.shape), s, None), tol))
    reps = [IndexSet(c, n) for c, keep in zip(combinations(range(1, n + 1), s), kept) if keep]
    return SphereSet(QuditShape(rho.level, n - s), eq_tol, raw if kept.all() else raw[kept], reps, len(raw))


def _permute_axes(mat: np.ndarray, perm: tuple[int, ...], level: int) -> np.ndarray:
    """Reorder tensor factors so that qudit i of the input sits at slot perm[i-1].

    Leading axes of ``mat`` are a batch and are kept.
    """
    n = len(perm)
    batch = mat.shape[:-2]
    k = len(batch)
    # new slot j holds old qudit perm^(-1)(j); transpose axes[j] = perm^(-1)(j+1)-1
    inverse = [0] * n
    for i, target in enumerate(perm):
        inverse[target - 1] = i
    axes = list(range(k)) + [k + a for a in inverse] + [k + n + a for a in inverse]
    tensor = mat.reshape(*batch, *[level] * (2 * n))
    dim = level ** n
    return tensor.transpose(axes).reshape(*batch, dim, dim)


def index_permutation(rho: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Relabel qudit positions: qudit i of rho moves to position perm[i-1].

    Trace and spectrum are preserved (it is a permutation-unitary conjugation).
    """
    try:
        perm = _positions(perm)
    except InvalidIndexSet as exc:
        raise NotAPermutation(str(exc)) from exc
    if sorted(perm) != list(range(1, rho.length + 1)):
        raise NotAPermutation(f"{perm} is not a permutation of [1, {rho.length}]")
    return DensityMatrix(rho.shape, _permute_axes(rho.mat, perm, rho.level))


def tau_Q(Q, n: int) -> tuple[int, ...]:
    """Permutation on [n+t] sending the t appended qudits to the positions Q
    while keeping the original n qudits in increasing order.

    Feeding the result to ``index_permutation`` turns ``rho (x) pi`` (inserted
    block last) into a state whose inserted qudits sit at Q.
    """
    qset = _insertion_set(Q, n)
    perm = [0] * qset.ambient
    for i, q in enumerate(qset.positions):
        perm[n + i] = q
    for j, slot in enumerate(qset.complement()):
        perm[j] = slot
    return tuple(perm)


def separable_blocks(pis: Sequence[np.ndarray]) -> np.ndarray:
    """The block array with no coherence between system and inserted qudits:
    A_{x,x} = pis[x] and A_{x,y} = 0 for x != y."""
    pis = np.asarray(pis, dtype=complex)
    return np.einsum("xy,xab->xyab", np.eye(len(pis)), pis)


def _sample_label(k: int, count: int) -> str:
    """The prefix naming sample k in an error about a stack of ``count`` samples."""
    return "" if count == 1 else f"sample {k}: "


def _check_blocks(stack: np.ndarray, rank: int, block_shape: QuditShape, tol: Tolerance, label) -> None:
    """Raise ``BlockConstraintViolated`` unless ``stack`` is a valid stack of
    ``(rank, rank, l**t, l**t)`` block arrays, one per sample, within ``tol``
    at the t-qudit dimension: its shape, finite entries, adjoint pairs (each
    array is Hermitian as one matrix), unit trace on the diagonal and zero
    trace off it, and PSD diagonal blocks.  Each check runs over the whole
    stack and reports its worst violation, its message prefixed with
    ``label(k)`` of the sample k it found."""
    tol = tol.at(block_shape.dim)
    count = len(stack)

    def violated(k: int, message: str) -> BlockConstraintViolated:
        return BlockConstraintViolated(label(k) + message)

    expected = (rank, rank, block_shape.dim, block_shape.dim)
    if stack.shape[1:] != expected:
        raise BlockConstraintViolated(f"blocks have shape {stack.shape[1:]}, expected {expected}")
    finite = np.isfinite(stack).reshape(count, -1).all(axis=1)
    if not finite.all():
        raise violated(int(np.argmin(finite)), "blocks have non-finite entries")

    adjoint_res = frobenius_distance(stack, stack.transpose(0, 2, 1, 4, 3).conj())
    k, x, y = np.unravel_index(int(np.argmax(adjoint_res)), adjoint_res.shape)
    if adjoint_res[k, x, y] > tol.eq_tol:
        residual = adjoint_res[k, x, y]
        raise violated(k, f"blocks ({x}, {y}) and ({y}, {x}) are not adjoints (residual {residual:.3e})")

    trace_res = np.abs(np.trace(stack, axis1=3, axis2=4) - np.eye(rank))
    k, x, y = np.unravel_index(int(np.argmax(trace_res)), trace_res.shape)
    if trace_res[k, x, y] > tol.eq_tol:
        if x == y:
            raise violated(
                k,
                f"diagonal block {x} is not a valid state: trace differs from 1 by "
                f"{trace_res[k, x, x]:.3e}",
            )
        raise violated(k, f"block ({x}, {y}) has nonzero trace {trace_res[k, x, y]:.3e}")

    # the adjoint check bounds each diagonal block's Hermitian residual at
    # eq_tol, so only rounding drift is symmetrized away
    diagonal = hermitian_part(stack[:, np.arange(rank), np.arange(rank)])
    lowest = eigensolve(np.linalg.eigvalsh, diagonal)[..., 0]
    k, x = np.unravel_index(int(np.argmin(lowest)), lowest.shape)
    if lowest[k, x] < -tol.psd_tol:
        raise violated(
            k, f"diagonal block {x} is not a valid state: negative eigenvalue {lowest[k, x]:.3e}"
        )


def _weighted_kets(form: SpectralForm) -> np.ndarray:
    """The ``(d, rank)`` columns sqrt(p_x) |x> of a spectral form."""
    return form.kets * np.sqrt(form.weights)


def insert_construct(
    rho: DensityMatrix,
    Q,
    blocks: np.ndarray,
    tol: Tolerance = Tolerance(),
) -> DensityMatrix:
    """Build a member of I_Q(rho) from explicit blocks: ``_insert_stack`` of
    one source and a one-sample stack.

    ``blocks[x, y]`` is the l^t x l^t block A_{x,y} of the eigenvector pair
    (x, y), indexed in the order of ``spectral_decompose(rho, tol)`` (which
    drops zero-weight eigenvectors, realizing their forced-zero blocks).  A
    valid array has shape ``(rank, rank, l**t, l**t)`` for t = |Q|, t-qudit
    densities on the diagonal, traceless blocks off it, and
    A_{y,x} = A_{x,y}^dagger; ``_check_blocks`` checks all of it.  The block
    formula alone does not guarantee positivity, so the assembled state is
    PSD-checked and rejected rather than repaired; the deletion round trip
    D_Q(sigma) = rho is verified before returning.
    """
    qset = _insertion_set(Q, rho.length)
    stack = np.asarray(blocks, dtype=complex)[None]
    v = _weighted_kets(spectral_decompose(rho, tol))
    return _insert_stack(rho.shape, qset, rho.mat, v, stack, tol)[0]


def _insert_stack(
    shape: QuditShape,
    qset: IndexSet,
    sources: np.ndarray,
    v: np.ndarray,
    stack: np.ndarray,
    tol: Tolerance,
    label=None,
) -> list[DensityMatrix]:
    """Members of I_Q of their sources, one per sample: sample k inserts
    the blocks ``stack[k]``, a ``(rank, rank, l**t, l**t)`` array, into the
    source ``sources[k]`` of qudit shape ``shape``, whose spectral form gives
    ``v[k]``, the ``(l**n, rank)`` columns sqrt(p_x) |x> (``_weighted_kets``).
    A source shared by every sample may be passed once, as one matrix and
    one set of columns.

    The checks run in order, each over the whole stack: every block check
    (``_check_blocks``), then the PSD test of every assembled state, then
    every deletion round trip against its own source.  An error's message
    starts with ``label(k)`` of the sample k it names; by default, "sample
    k: " with more than one sample and nothing with one.
    """
    n, l, t = shape.length, shape.level, qset.size
    count, rank, block_dim = len(stack), v.shape[-1], l**t
    if label is None:
        label = lambda k: _sample_label(k, count)
    _check_blocks(stack, rank, QuditShape(l, t), tol, label)
    sources = np.broadcast_to(sources, (count, shape.dim, shape.dim))
    v = np.broadcast_to(v, (count, shape.dim, rank))
    # a state is sum_{x,y} V_x V_y^dagger (x) A_{x,y}; contracting V with the
    # blocks first, then with V^dagger, one product per sample on each side,
    # never forms a per-pair Kronecker product, and a sample's rounding does
    # not depend on the rest of the stack
    blocks = stack.transpose(0, 1, 3, 4, 2).reshape(count, rank, block_dim * block_dim * rank)
    vb = (v @ blocks).reshape(count, shape.dim * block_dim * block_dim, rank)  # axes (k, (i, a, b), y)
    mat = (vb @ v.conj().swapaxes(1, 2)).reshape(count, shape.dim, block_dim, block_dim, shape.dim)
    big_shape = QuditShape(l, qset.ambient)
    mat = mat.transpose(0, 1, 2, 4, 3).reshape(count, big_shape.dim, big_shape.dim)  # axes (k, (i, a), (j, b))
    sigmas = _permute_axes(mat, tau_Q(qset, n), l)
    big_tol = tol.at(big_shape.dim)

    # unpermuted, sigma - sigma^dagger = sum_{x,y} sqrt(p_x p_y) |x_L><y_L| (x)
    # (A_xy - A_yx^dagger), Frobenius-orthogonal terms with p_x p_y summing to 1:
    # its norm is at most the largest block residual, at most eq_tol at l^t and
    # so at big_tol; only rounding drift is symmetrized away
    lowest = eigensolve(np.linalg.eigvalsh, hermitian_part(sigmas))[:, 0]
    k = int(np.argmin(lowest))
    if lowest[k] < -big_tol.psd_tol:
        raise NotPSD(
            f"{label(k)}assembled insertion is not PSD (min eigenvalue {lowest[k]:.3e})",
            -float(lowest[k]),
        )

    residuals = frobenius_distance(trace_out(sigmas, qset, l), sources)
    k = int(np.argmax(residuals))
    if residuals[k] > tol.at(shape.dim).eq_tol:
        raise RoundTripFailed(f"{label(k)}D_Q(sigma) differs from rho by {residuals[k]:.3e}")
    sigmas.setflags(write=False)  # so each state keeps its row as a view, not a copy
    return [DensityMatrix(big_shape, mat) for mat in sigmas]


def _check_composed(sigma: DensityMatrix, rho: DensityMatrix, s: int, t: int, most_s: int | None = None) -> None:
    """Raise unless sigma has the shape of a state in a sphere of rho composed of
    s deletions and t insertions: counts from 0, s up to ``most_s`` if given
    (``CountOutOfRange``), rho's level (``LevelMismatch``), length n - s + t (``ShapeMismatch``)."""
    s, t = _count(s, "deletion count s", most=most_s), _count(t, "insertion count t")
    if sigma.level != rho.level:
        raise LevelMismatch(f"levels differ: {sigma.level} vs {rho.level}")
    if sigma.length != rho.length - s + t:
        raise ShapeMismatch(
            f"len(sigma)={sigma.length} != len(rho)-s+t={rho.length - s + t}"
        )


def insertion_member(
    sigma: DensityMatrix, rho: DensityMatrix, Q, tol: Tolerance = Tolerance()
) -> bool:
    """sigma is in I_Q(rho) iff D_Q(sigma) = rho."""
    qset = _as_index_set(Q, sigma.length)
    _check_composed(sigma, rho, 0, qset.size)
    return delete(sigma, qset).distance(rho) <= tol.at(rho.dim).eq_tol


def _draw_blocks(rng: np.random.Generator, count: int, rank: int, dim: int) -> np.ndarray:
    """``count`` block arrays for a rank-``rank`` source and ``dim = l**t``,
    drawn in order from ``rng`` as a ``(count, rank, rank, dim, dim)`` stack.

    Two families alternate: (a) separable, a random t-qudit density per
    eigenvector with zero off-diagonal blocks; (b) entangled, a purification
    |Phi> = sum_x sqrt(p_x) |x_L> (x) |u_x> over a random orthonormal set,
    possible only when dim >= rank.  Sample k is entangled when k is odd and
    the family is possible.  A separable sample's ``rank`` Ginibre matrices
    are one draw, so the first k of ``count`` arrays are the k arrays drawn
    from the same generator state.
    """
    stack = np.empty((count, rank, rank, dim, dim), dtype=complex)
    for k in range(count):
        if k % 2 == 1 and dim >= rank:
            kets = np.array(random_orthonormal(rng, dim, rank))
            stack[k] = np.einsum("xa,yb->xyab", kets, kets.conj())
        else:
            m = random_psd(rng, dim, batch=(rank,))
            pis = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
            stack[k] = separable_blocks(pis)
    return stack


def sample_insertions(
    rho: DensityMatrix,
    Q,
    count: int,
    seed: int,
    tol: Tolerance = Tolerance(),
) -> list[DensityMatrix]:
    """Draw ``count`` members of I_Q(rho), deterministically from ``seed``:
    ``_draw_blocks`` from ``default_rng(seed)``, built by one
    ``_insert_stack`` call with rho as the one source of every sample, so
    every sample is checked and verified as ``insert_construct`` checks one.
    It is the one-request case of ``_sample_batch``.

    ``count`` (at least 1) and ``seed`` (at least 0) must be integers, else
    ``CountOutOfRange``.  A sample's bits depend only on rho, Q and the draws
    before it, so the first k of ``count`` samples are the k samples of the
    same seed, bit for bit, at every level.
    """
    count, seed = _count(count, "sample count", least=1), _count(seed, "seed")
    return _sample_batch([(rho, _insertion_set(Q, rho.length), count, seed)], tol)[0]


def _sample_batch(requests, tol: Tolerance, names=None) -> list[list[DensityMatrix]]:
    """The samples of each request ``(rho, qset, count, seed)``, as
    ``sample_insertions(rho, qset, count, seed, tol)`` draws them.

    The sources of each shape are decomposed by one checked
    ``spectral_decompose_stack`` call.  Each request draws its blocks from
    its own generator; the requests are then grouped by (shape, rank, qset),
    and each group is built by one ``_insert_stack`` call.  Every form and
    sample has the bits it gets alone.  An error names its request by
    ``names[r]`` (nothing by default): a refused source reads as its lone
    ``spectral_decompose``, and a build error then names the sample, with
    more than one sample in the request.
    """
    names = names or [""] * len(requests)
    by_shape: dict[QuditShape, list[int]] = {}
    for r, (rho, *_) in enumerate(requests):
        by_shape.setdefault(rho.shape, []).append(r)
    forms: list = [None] * len(requests)
    for shape, rs in by_shape.items():
        try:
            stacked = spectral_decompose_stack(np.stack([requests[r][0].mat for r in rs]), shape, tol)
        except QindelError:
            # the error path only: the first source refused alone is named
            # by its request, with the class and residual of its lone call
            for r in rs:
                try:
                    spectral_decompose(requests[r][0], tol)
                except QindelError as exc:
                    exc.args = (names[r] + str(exc),)
                    raise
            raise
        for r, form in zip(rs, stacked):
            forms[r] = form
    groups: dict[tuple, list] = {}
    for r, ((rho, qset, count, seed), form) in enumerate(zip(requests, forms)):
        stack = _draw_blocks(np.random.default_rng(seed), count, form.rank, rho.level**qset.size)
        member = (r, rho.mat, _weighted_kets(form), stack)
        groups.setdefault((rho.shape, form.rank, qset), []).append(member)
    samples: list = [None] * len(requests)
    for (shape, _, qset), members in groups.items():
        counts = [len(stack) for *_, stack in members]
        # row of the group -> (request, sample within the request, its count)
        rows = [(r, k, c) for (r, *_), c in zip(members, counts) for k in range(c)]
        built = _insert_stack(
            shape,
            qset,
            np.repeat([mat for _, mat, _, _ in members], counts, axis=0),
            np.repeat([v for _, _, v, _ in members], counts, axis=0),
            np.concatenate([stack for *_, stack in members]),
            tol,
            lambda row: names[rows[row][0]] + _sample_label(*rows[row][1:]),
        )
        for (r, *_), start, count in zip(members, accumulate(counts, initial=0), counts):
            samples[r] = built[start : start + count]
    return samples
