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
is one loop, ``_distinct_mask``, and a code's stack is deduplicated as one
level of it.  Where spheres first meet is found by one kernel,
``first_meeting``, over one stack of rows, each owned by a state.  Every
dedup and every comparison of rows is one call of ``_screened_distances``,
on a lone stack or a batch of stacks, with a mask of the pairs it reads:
only those pairs whose diagonals lie within eq_tol get a full distance,
gathered across rows and batch entries for ``linalg.frobenius_norm``.  A
dedup reads the pairs i < j; ``first_meeting`` walks the owners in blocks
of whole owners, one screened call per block, and reads the pairs of rows
of two owners; ``pairs_meet`` decides, with no witness, whether each
listed pair of states of two ladder levels meets, one screened call per
chunk of pairs, and reads the pairs of their kept rows.

Insertion at a set of positions Q is the *set* of larger states whose
deletion at Q returns the original; members are constructed from rho's
spectral form and one ``(rank, rank, l**t, l**t)`` array of blocks A_{x,y},
one per eigenvector pair (t-qudit densities on the diagonal, traceless adjoint
pairs off it).  The plain array is the only representation of the blocks;
``separable_blocks`` builds the one with no coherence between system and
inserted qudits.  Blocks are checked by ``_check_blocks``, a stack of
arrays per call, before any state is built.  One builder, ``_insert_stack``,
takes the rows of one source shape and t, each with its own source,
position and blocks, of any ranks: each rank's rows are attached to their
sources' eigenvectors by one batched product per side, the inserted qudits
last; then each position's rows take one index permutation, one PSD test
and one round trip.  A sample's bits depend only on its own source,
position and blocks.  The sampler ``_sample_batch`` serves many requests
at once on one generator, as stacks indexed by row: one
``states._spectral_groups`` call per source shape, one draw pass,
``_draw_groups``, with one normal draw, one ``_check_blocks`` call per
(rank, l, t) draw group and one ``_insert_stack`` call per (shape, t)
group.  A request names its source by shape and bare matrix, and gets its
samples as a bare stack; only ``sample_insertions`` wraps them as states.
The containment trials use it for the insertions of each step, and the
insertion round trip for all its samples.  Counts and seeds are checked by
``states._count``; positions by ``_positions``.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
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
from .linalg import _CHUNK, Tolerance, _least_eigenvalues, cross_distances, frobenius_distance, frobenius_norm
from .linalg import hermitian_part
from .rand import _complex_parts, _trace_normalized
from .states import DensityMatrix, QuditShape, _count, _spectral_groups, spectral_decompose

__all__ = [
    "IndexSet",
    "SphereSet",
    "first_meeting",
    "pairs_meet",
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
    """Trace out qudit p (the system loses that qudit): ``delete`` at {p}."""
    return delete(rho, (p,))


def delete(rho: DensityMatrix, positions) -> DensityMatrix:
    """Deletion error D_P: the partial trace over the positions in P."""
    pset = _as_index_set(positions, rho.length)
    reduced = trace_out(rho.mat, pset, rho.level)
    return DensityMatrix(QuditShape(rho.level, rho.length - pset.size), reduced)


def _screened_distances(a: np.ndarray, b: np.ndarray, eq_tol: float, pairs: np.ndarray | None = None) -> np.ndarray:
    """``cross_distances(a, b)`` of two ``(..., k, d, d)`` stacks with the same
    batch axes wherever it can be within eq_tol, ``inf`` elsewhere.  The
    boolean mask ``pairs``, broadcast over the result, leaves out the pairs
    it is False at: they read ``inf`` and are never gathered.

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
    ``cross_distances``.
    """
    if a.shape[-3] * b.shape[-3] * a.shape[-1] ** 2 <= _CHUNK:
        dist = cross_distances(a, b)
        return dist if pairs is None else np.where(pairs, dist, np.inf)
    diagonals = (np.diagonal(x, axis1=-2, axis2=-1)[..., None, :] for x in (a, b))
    near = cross_distances(*diagonals) <= eq_tol * (1 + 1e-6)
    if pairs is not None:
        near &= pairs
    out = np.full(near.shape, np.inf)
    *lead, rows, cols = np.nonzero(near)
    left, right = (*lead, rows), (*lead, cols)
    dist = np.empty(len(rows))
    step = max(1, _CHUNK // (2 * a.shape[-2] * a.shape[-1]))  # a chunk's two gathered operands hold _CHUNK entries
    with np.errstate(over="ignore", invalid="ignore"):  # as in cross_distances
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


def first_meeting(rows: np.ndarray, owner: np.ndarray, eq_tol: float) -> tuple[int, int, float] | None:
    """Where rows of two owners first meet, or None if no two do.

    ``rows`` is one ``(R, d, d)`` stack and ``owner`` its R nondecreasing
    owner ids.  Returns ``(r, c, dist)``: rows r and c, ``dist`` apart, are
    the closest pair (first in row-major order among equals) of the first
    pair of owners, in ``combinations`` order, with rows within eq_tol of
    each other.

    The owners are walked in blocks of whole owners, up to the first block
    with a hit: a block holds at least one owner, never the last, and as
    many as keep its rows times the rows of the owners after its first owner
    within ``_MEETING_BUDGET``.  Its rows are compared with those rows in one
    screened call, masked to the pairs ``owner[r] < owner[c]``, so no owner's
    own pairs are compared.  R owners of one row each (a grid code's level)
    are one call while (R - 1)^2 is within the budget.
    """
    starts = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()]  # the row where each owner begins
    ends = starts[1:] + [len(rows)]
    g = 0
    while g < len(starts) - 1:
        top, base = starts[g], starts[g + 1]
        end = max(g + 1, bisect_right(starts, top + _MEETING_BUDGET // (len(rows) - base)) - 1)
        dist = _screened_distances(
            rows[top : starts[end]], rows[base:], eq_tol, owner[top : starts[end], None] < owner[None, base:]
        )
        hits = dist <= eq_tol
        if hits.any():
            # row-major, the first hit lies in the first owner i with one; j
            # is the least owner among the rows that i's rows hit
            left, right = np.nonzero(hits)
            i = bisect_right(starts, top + int(left[0])) - 1
            j = bisect_right(starts, base + int(right[left < ends[i] - top].min())) - 1
            block = dist[starts[i] - top : ends[i] - top, starts[j] - base : ends[j] - base]
            a, b = divmod(int(block.argmin()), block.shape[1])
            return starts[i] + a, starts[j] + b, float(block[a, b])
        g = end
    return None


_MEETING_BUDGET = _CHUNK  # largest (block rows) x (rows compared) of a block of more than one owner


def pairs_meet(x: tuple, y: tuple, pairs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Whether the spheres of each pair of states meet: for pair p, whether
    a kept row of state ``pairs[0][p]`` of level ``x`` lies within eq_tol
    of a kept row of state ``pairs[1][p]`` of level ``y``.

    ``x`` and ``y`` are levels ``(eq_tol, raw, kept)`` of two
    ``_dedup_levels`` ladders, each of a stack of states, with rows of one
    dimension; eq_tol is x's.  The pairs are taken in chunks of as many as
    keep a chunk's two gathered operands within ``_CHUNK`` complex entries
    (at least one pair).  Each chunk's levels are gathered and compared in
    one ``_screened_distances`` call, masked to the pairs of kept rows, so
    each verdict is the one ``first_meeting`` reads from the two states'
    kept rows.
    """
    (eq_tol, a, a_kept), (_, b, b_kept) = x, y
    left, right = pairs
    meets = np.empty(len(left), dtype=bool)
    step = max(1, _CHUNK // ((a.shape[-3] + b.shape[-3]) * a.shape[-2] * a.shape[-1]))
    for start in range(0, len(left), step):
        i, j = left[start : start + step], right[start : start + step]
        kept = a_kept[i][:, :, None] & b_kept[j][:, None, :]
        meets[start : start + step] = (_screened_distances(a[i], b[j], eq_tol, kept) <= eq_tol).any(axis=(1, 2))
    return meets


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
        spheres' rows, two owners.  Spheres of different levels
        (``LevelMismatch``) or lengths (``ShapeMismatch``) are refused."""
        if self.shape.level != other.shape.level:
            raise LevelMismatch(f"levels differ: {self.shape.level} vs {other.shape.level}")
        if self.shape != other.shape:
            raise ShapeMismatch(f"sphere shapes differ: {self.shape} vs {other.shape}")
        rows = np.concatenate([self.stack, other.stack])
        hit = first_meeting(rows, np.repeat([0, 1], [len(self), len(other)]), max(self.eq_tol, other.eq_tol))
        return None if hit is None else (hit[0], hit[1] - len(self), hit[2])


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
    from one screened comparison of the level with itself, masked to the
    pairs i < j the greedy rule reads.  A one-row level keeps its row
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
            order = np.arange(raw.shape[-3])
            yield eq_tol, raw, _distinct_mask(_screened_distances(raw, raw, eq_tol, order[:, None] < order) <= eq_tol)


def deletion_sphere(rho: DensityMatrix, s: int, tol: Tolerance = Tolerance()) -> SphereSet:
    """D^s(rho): level s of rho's ladder, traced from the levels before it,
    which are not deduplicated, and deduplicated greedily within eq_tol at
    its dimension (``_dedup_levels``).  ``s``, a deletion count, must be an
    integer in [0, n], else ``CountOutOfRange``."""
    n, s = rho.length, _count(s, "deletion count s", most=rho.length)
    eq_tol, raw, kept = next(_dedup_levels(islice(_traced_levels(rho.mat, rho.shape), s, None), tol))
    reps = [IndexSet(c, n) for c, keep in zip(combinations(range(1, n + 1), s), kept) if keep]
    return SphereSet(QuditShape(rho.level, n - s), eq_tol, raw if kept.all() else raw[kept], reps, len(raw))


def _permute_axes(mat: np.ndarray, perm: tuple[int, ...], level: int, out: np.ndarray | None = None) -> np.ndarray:
    """Reorder tensor factors so that qudit i of the input sits at slot perm[i-1].

    Leading axes of ``mat`` are a batch and are kept.  The result is written
    into ``out``, a contiguous array of its shape, when one is given.
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
    if out is None:
        return tensor.transpose(axes).reshape(*batch, dim, dim)
    out.reshape(tensor.shape)[...] = tensor.transpose(axes)
    return out


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
    A_{x,x} = pis[x] and A_{x,y} = 0 for x != y.  A ``(..., rank, d, d)``
    stack of such lists gives the stack of their arrays."""
    pis = np.asarray(pis, dtype=complex)
    return np.einsum("xy,...xab->...xyab", np.eye(pis.shape[-3]), pis)


def _sample_label(k: int, count: int) -> str:
    """The prefix naming sample k in an error about a stack of ``count`` samples."""
    return "" if count == 1 else f"sample {k}: "


def _check_blocks(stack: np.ndarray, rank: int, block_shape: QuditShape, tol: Tolerance, label=None) -> None:
    """Raise ``BlockConstraintViolated`` unless ``stack`` is a valid stack of
    ``(rank, rank, l**t, l**t)`` block arrays, one per sample, within ``tol``
    at the t-qudit dimension: its shape, finite entries, adjoint pairs (each
    array is Hermitian as one matrix), unit trace on the diagonal and zero
    trace off it, and PSD diagonal blocks.  Each check runs over the whole
    stack and reports its worst violation, its message prefixed with
    ``label(k)`` of the sample k it found; by default, "sample k: " with
    more than one sample and nothing with one."""
    tol = tol.at(block_shape.dim)
    count = len(stack)
    if label is None:
        label = lambda k: _sample_label(k, count)

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
    lowest = _least_eigenvalues(diagonal, tol.psd_tol)
    k, x = np.unravel_index(int(np.argmin(lowest)), lowest.shape)
    if lowest[k, x] < -tol.psd_tol:
        raise violated(
            k, f"diagonal block {x} is not a valid state: negative eigenvalue {lowest[k, x]:.3e}"
        )


def _weighted_kets(weights: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """The ``(..., d, rank)`` columns sqrt(p_x) |x> of spectral forms given by
    their ``(..., rank)`` weights and ``(..., d, rank)`` kets."""
    return kets * np.sqrt(weights)[..., None, :]


def insert_construct(
    rho: DensityMatrix,
    Q,
    blocks: np.ndarray,
    tol: Tolerance = Tolerance(),
) -> DensityMatrix:
    """Build a member of I_Q(rho) from explicit blocks: ``_check_blocks`` of
    the one array, then ``_insert_stack`` of its one row.

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
    form = spectral_decompose(rho, tol)
    _check_blocks(stack, form.rank, QuditShape(rho.level, qset.size), tol)
    one = np.zeros(1, dtype=int)
    part = (one, _weighted_kets(form.weights, form.kets)[None], stack)
    sigma = _insert_stack(rho.shape, [qset], rho.mat[None], [1], [part], tol)[0]
    return DensityMatrix(QuditShape(rho.level, qset.ambient), sigma)


def _insert_stack(shape: QuditShape, qsets, sources, ends, parts, tol: Tolerance, label=None) -> np.ndarray:
    """Members of I_Q of their sources, one per row: row i inserts t qudits
    into ``sources[i]``, a state of ``shape``, at ``qsets[j]`` for
    ``ends[j - 1] <= i < ends[j]``.  ``parts`` yields, per rank r of the
    rows, ``(rows, v, blocks)``: those rows, their sources' ``(l**n, r)``
    columns sqrt(p_x) |x> (``_weighted_kets``) and their checked
    ``(r, r, l**t, l**t)`` block arrays.  Returns the read-only stack of
    the states.

    Each rank's rows are assembled together, one product per row on each
    side, the inserted qudits last; then each position's rows take one
    ``_permute_axes``, one PSD test and one deletion round trip, so the
    largest temporaries are one position's.  A state's bits depend only on
    its own source, position and blocks.  An error's message starts with
    ``label(i)`` of its row i; by default, "sample i: " with more than one
    row.
    """
    n, l, count = shape.length, shape.level, len(sources)
    block_dim, big_shape = l ** qsets[0].size, QuditShape(l, qsets[0].ambient)
    if label is None:
        label = lambda i: _sample_label(i, count)
    mat = np.empty((count, shape.dim, block_dim, shape.dim, block_dim), dtype=complex)  # axes (row, i, a, j, b)
    for rows, v, blocks in parts:
        size, rank = v.shape[0], v.shape[-1]
        # a state is sum_{x,y} V_x V_y^dagger (x) A_{x,y}; contracting V with
        # the blocks first, then with V^dagger, one product per row on each
        # side, never forms a per-pair Kronecker product, and a row's
        # rounding does not depend on the rest of the stack
        blocks = blocks.transpose(0, 1, 3, 4, 2).reshape(size, rank, block_dim * block_dim * rank)
        vb = (v @ blocks).reshape(size, -1, rank)
        product = (vb @ v.conj().swapaxes(1, 2)).reshape(size, shape.dim, block_dim, block_dim, shape.dim)
        mat[rows] = product.transpose(0, 1, 2, 4, 3)
    del blocks, vb, product  # the last rank's operands
    mat = mat.reshape(count, big_shape.dim, big_shape.dim)
    spans = list(zip(qsets, [0, *ends[:-1]], ends))
    sigmas = np.empty_like(mat)
    for qset, start, stop in spans:
        _permute_axes(mat[start:stop], tau_Q(qset, n), l, out=sigmas[start:stop])
    del mat
    big_tol, eq_tol = tol.at(big_shape.dim), tol.at(shape.dim).eq_tol
    for qset, start, stop in spans:
        # unpermuted, sigma - sigma^dagger = sum_{x,y} sqrt(p_x p_y) |x_L><y_L| (x)
        # (A_xy - A_yx^dagger), Frobenius-orthogonal terms with p_x p_y summing to 1:
        # its norm is at most the largest block residual, at most eq_tol at l^t and
        # so at big_tol; only rounding drift is symmetrized away
        lowest = _least_eigenvalues(hermitian_part(sigmas[start:stop]), big_tol.psd_tol)
        k = int(np.argmin(lowest))
        if lowest[k] < -big_tol.psd_tol:
            raise NotPSD(
                f"{label(start + k)}assembled insertion is not PSD (min eigenvalue {lowest[k]:.3e})",
                -float(lowest[k]),
            )
        residuals = frobenius_distance(trace_out(sigmas[start:stop], qset, l), sources[start:stop])
        k = int(np.argmax(residuals))
        if residuals[k] > eq_tol:
            raise RoundTripFailed(f"{label(start + k)}D_Q(sigma) differs from rho by {residuals[k]:.3e}")
    sigmas.setflags(write=False)  # so each state keeps its row as a view, not a copy
    return sigmas


def _check_composed(sigma: QuditShape, rho: QuditShape, s: int, t: int, most_s: int | None = None) -> None:
    """Raise unless ``sigma`` is the shape of a state in a sphere, composed of
    s deletions and t insertions, of a state of shape ``rho``: counts from
    0, s up to ``most_s`` if given (``CountOutOfRange``), rho's level
    (``LevelMismatch``), length n - s + t (``ShapeMismatch``)."""
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
    _check_composed(sigma.shape, rho.shape, 0, qset.size)
    return delete(sigma, qset).close_to(rho, tol)


def _draw_groups(rng, counts, keys) -> dict[tuple, tuple[np.ndarray, np.ndarray]]:
    """The block arrays of each draw d: ``counts[d]`` arrays for a rank-r
    source and t inserted qudits of level l, ``keys[d] = (r, l, t)``, the
    draws read in order from the one generator ``rng``.  Returns, per
    (r, l, t) draw group in order of first draw, ``(samples, stack)``: the
    indices of its arrays among all the draws' arrays, in draw order, and
    their stack.

    Two families alternate: (a) separable, a random t-qudit density per
    eigenvector with zero off-diagonal blocks; (b) entangled, a purification
    |Phi> = sum_x sqrt(p_x) |x_L> (x) |u_x> over a random orthonormal set,
    possible only when l**t >= rank.  Array k of a draw is entangled when k
    is odd and the family is possible.  A separable array reads ``rank``
    square Ginibre matrices, as ``random_psd`` with a batch draws them, an
    entangled one an ``l**t x rank`` Ginibre matrix, whose QR factor's
    columns are the set.  One ``standard_normal`` call draws them all: a
    ``Generator`` keeps no normal-draw state between calls, so it reads
    what one call per array would, and the first k of ``count`` arrays are
    the k arrays of the same generator state.
    Index arrays gather each group's values into its families' buffers, and
    the algebra runs once per family of a group; every array has the bits
    of its lone draw.
    """
    counts = np.asarray(counts, dtype=int)
    index = {key: g for g, key in enumerate(dict.fromkeys(keys))}  # groups in order of first draw
    draw = np.repeat(np.arange(len(counts)), counts)  # each array's draw
    group = np.array([index[key] for key in keys], dtype=int)[draw]
    rank, level, t = np.array(list(index), dtype=int).reshape(-1, 3)[group].T
    k = np.arange(len(draw)) - (np.cumsum(counts) - counts)[draw]
    dim = level**t
    entangled = (k % 2 == 1) & (dim >= rank)
    starts = np.concatenate(([0], np.cumsum(np.where(entangled, 2 * dim * rank, 2 * rank * dim * dim))))
    values = rng.standard_normal(int(starts[-1]))
    stacks = {}
    for (rank, level, t), g in index.items():
        dim = level**t
        samples = np.flatnonzero(group == g)
        pure, at = entangled[samples], starts[samples]
        mixed = values[at[~pure, None] + np.arange(2 * rank * dim * dim)].reshape(-1, rank, 2, dim, dim)
        stack = np.empty((len(samples), rank, rank, dim, dim), dtype=complex)
        ginibre = _complex_parts(mixed)
        stack[~pure] = separable_blocks(_trace_normalized(ginibre @ ginibre.conj().swapaxes(-1, -2)))
        if pure.any():
            normals = values[at[pure, None] + np.arange(2 * dim * rank)].reshape(-1, 2, dim, rank)
            kets = np.linalg.qr(_complex_parts(normals))[0].swapaxes(-1, -2)  # rows u_x
            stack[pure] = np.einsum("kxa,kyb->kxyab", kets, kets.conj())
        stacks[rank, level, t] = (samples, stack)
    return stacks


def sample_insertions(
    rho: DensityMatrix,
    Q,
    count: int,
    seed: int,
    tol: Tolerance = Tolerance(),
) -> list[DensityMatrix]:
    """Draw ``count`` members of I_Q(rho), deterministically from ``seed``:
    the one-request case of ``_sample_batch``, on a generator
    ``default_rng(seed)`` of its own, so every sample is checked and
    verified as ``insert_construct`` checks one; each row of its stack is
    wrapped as a state.

    ``count`` (at least 1) and ``seed`` (at least 0) must be integers, else
    ``CountOutOfRange``.  A sample's bits depend only on rho, Q and the draws
    before it, so the first k of ``count`` samples are the k samples of the
    same seed, bit for bit, at every level.
    """
    count, seed = _count(count, "sample count", least=1), _count(seed, "seed")
    qset = _insertion_set(Q, rho.length)
    samples = _sample_batch([(rho.shape, rho.mat, qset, count)], np.random.default_rng(seed), tol)[0]
    big_shape = QuditShape(rho.level, qset.ambient)
    return [DensityMatrix(big_shape, mat) for mat in samples]


def _sample_batch(requests, rng, tol: Tolerance, names=None) -> list[np.ndarray]:
    """The samples of each request ``(shape, mat, qset, count)``: ``count``
    members of I_Q of the state ``mat`` of ``shape``, as a read-only
    ``(count, D, D)`` array, a view of its build's stack.  The requests
    read the one generator ``rng`` in request order, so each gets the
    samples of a one-request call made in that order on it, and a lone
    request on ``default_rng(seed)`` gets the samples of
    ``sample_insertions(rho, qset, count, seed, tol)``.

    Sources, forms, blocks and samples pass as stacks indexed by row; no
    numpy call is made per sample or per request.  Each shape's sources are
    decomposed by one checked ``_spectral_groups`` call, each rank group's
    weighted kets by one multiply.  One ``_draw_groups`` pass, one normal
    draw, draws every request's blocks, one ``_check_blocks`` call checks
    each (rank, l, t) draw group, and one ``_insert_stack`` call builds each
    (shape, t) group, its requests grouped by position.  Every block check
    runs before any state is assembled, and every sample has the bits it
    gets alone.  An error names its request by ``names[r]`` (nothing by
    default): a refused source reads as its lone ``_spectral_groups`` call,
    and a block or build error then names the sample, with more than one in
    the request.
    """
    if not requests:
        return []
    names = names or [""] * len(requests)
    shapes, mats, qsets, counts = (list(column) for column in zip(*requests))
    counts = np.array(counts, dtype=int)
    first = np.cumsum(counts) - counts  # each request's first sample; samples in request order
    request = np.repeat(np.arange(len(requests)), counts)  # each sample's request

    def label(sample) -> str:
        r = int(request[sample])
        return names[r] + _sample_label(int(sample - first[r]), int(counts[r]))

    by_shape: dict[QuditShape, list[int]] = {}
    builds: dict[tuple, tuple] = {}  # per (shape, t), its index and its distinct positions, indexed
    build, where = np.empty(len(requests), dtype=int), np.empty(len(requests), dtype=int)
    for r, (shape, qset) in enumerate(zip(shapes, qsets)):
        by_shape.setdefault(shape, []).append(r)
        build[r], positions = builds.setdefault((shape, qset.size), (len(builds), {}))
        where[r] = positions.setdefault(qset, len(positions))

    # each request's rank, its row of its shape's sources and its row of its (shape, rank) group
    ranks, slots, spots = (np.empty(len(requests), dtype=int) for _ in range(3))
    sources, weighted = {}, {}
    for shape, rs in by_shape.items():
        rs = np.array(rs)
        sources[shape] = np.array([mats[r] for r in rs.tolist()])
        try:
            groups = _spectral_groups(sources[shape], shape, tol)
        except QindelError:
            # the error path only: the first source refused alone is named
            # by its request, with the class and residual of its lone call
            for r in rs.tolist():
                try:
                    _spectral_groups(mats[r], shape, tol)
                except QindelError as exc:
                    exc.args = (names[r] + str(exc),)
                    raise
            raise
        slots[rs] = np.arange(len(rs))
        for rows, weights, kets in groups:
            ranks[rs[rows]], spots[rs[rows]] = kets.shape[-1], np.arange(len(rows))
            weighted[shape, kets.shape[-1]] = _weighted_kets(weights, kets)

    keys = list(zip(ranks.tolist(), [shape.level for shape in shapes], [qset.size for qset in qsets]))
    draws = _draw_groups(rng, counts, keys)
    rows = np.empty(len(request), dtype=int)  # each sample's row of its draw group's stack
    for (rank, level, t), (members, stack) in draws.items():
        rows[members] = np.arange(len(members))
        _check_blocks(stack, rank, QuditShape(level, t), tol, lambda row: label(members[row]))

    samples: list = [None] * len(requests)
    for (shape, t), (b, positions) in builds.items():
        rs = np.flatnonzero(build == b)
        rs = rs[np.argsort(where[rs], kind="stable")]
        stops = np.cumsum(counts[rs])
        mine = np.arange(stops[-1]) + np.repeat(first[rs] - (stops - counts[rs]), counts[rs])  # its rows' samples
        owners = request[mine]

        def parts():  # each rank's operands, gathered only as the build reaches that rank
            for rank in sorted(set(ranks[rs].tolist())):
                at = np.flatnonzero(ranks[owners] == rank)
                yield at, weighted[shape, rank][spots[owners[at]]], draws[rank, shape.level, t][1][rows[mine[at]]]

        ends = np.searchsorted(where[owners], np.arange(len(positions)), side="right").tolist()
        sigmas = _insert_stack(
            shape, list(positions), sources[shape][slots[owners]], ends, parts(), tol, lambda row: label(mine[row])
        )
        for r, start, stop in zip(rs.tolist(), (stops - counts[rs]).tolist(), stops.tolist()):
            samples[r] = sigmas[start:stop]
    return samples
