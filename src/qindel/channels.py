"""Deletion channels, qudit index permutations, and insertion-state construction.

Deletion at position p is the partial trace over qudit p.  The deletion
spheres D^0, D^1, ... of a state form a ladder, ``deletion_levels``: each
level's candidates are traced from the level before, bit-identical to tracing
each subset from the state, and a sphere is the read-only result of one
greedy dedup, ``distinct_rows``, of one level.  Where spheres first meet is
found by one kernel, ``first_meeting``.  Each dedup and each comparison is one
screened call of the distance kernel: only pairs whose diagonals lie within
eq_tol get a full distance.

Insertion at a set of positions Q is the *set* of larger states whose
deletion at Q returns the original; members are constructed from rho's
spectral form and one ``(rank, rank, l**t, l**t)`` array of blocks A_{x,y},
one per eigenvector pair (t-qudit densities on the diagonal, traceless adjoint
pairs off it).  The plain array is the only representation of the blocks;
``separable_blocks`` builds the one with no coherence between system and
inserted qudits.  One builder takes a stack of such arrays, one per member: the
stack is checked as one array and attached to the eigenvectors by one
contraction, with the inserted qudits last; an index permutation then moves
them into place.  A sampler builds all its samples as one stack.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BlockConstraintViolated,
    CountOutOfRange,
    InvalidIndexSet,
    NotAPermutation,
    NotPSD,
    PositionOutOfRange,
    RoundTripFailed,
    ShapeMismatch,
)
from .linalg import Tolerance, hermitian_eigenvalues
from .rand import random_orthonormal, random_psd
from .states import DensityMatrix, QuditShape, SpectralForm, spectral_decompose

__all__ = [
    "IndexSet",
    "SphereSet",
    "cross_distances",
    "distinct_rows",
    "first_meeting",
    "trace_out",
    "trace_out_adjoint",
    "partial_trace",
    "delete",
    "deletion_levels",
    "deletion_sphere",
    "index_permutation",
    "tau_Q",
    "separable_blocks",
    "insert_construct",
    "insertion_member",
    "sample_insertions",
]


@dataclass(frozen=True)
class IndexSet:
    """Strictly increasing 1-based qudit positions inside an ambient range."""

    positions: tuple[int, ...]
    ambient: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        pos = self.positions
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise InvalidIndexSet(f"positions {pos} must be strictly increasing")
        if pos and (pos[0] < 1 or pos[-1] > self.ambient):
            raise PositionOutOfRange(f"positions {pos} not within [1, {self.ambient}]")

    @classmethod
    def of(cls, positions: Iterable[int], ambient: int) -> "IndexSet":
        return cls(tuple(sorted(int(p) for p in positions)), ambient)

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
    return IndexSet.of(positions, ambient)


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


# Largest temporary, in complex entries, that ``cross_distances`` allocates.
_CHUNK = 1 << 16


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius distances between two ``(k, d, d)`` stacks, as a ``(ka, kb)`` array.

    Entry ``[i, j]`` is ``||a[i] - b[j]||``, computed from the difference
    itself (not from Gram products, whose cancellation would swamp eq_tol).
    The pairs are taken in blocks, so no temporary holds more than ``_CHUNK``
    complex entries whatever the stack sizes (one pair always fits: the
    dimension cap is 256, and 256**2 = _CHUNK).
    """
    ka, kb = len(a), len(b)
    size = a.shape[-1] * a.shape[-2]
    a = a.reshape(ka, 1, size)
    b = b.reshape(1, kb, size)
    out = np.empty((ka, kb))
    cols = max(1, min(kb, _CHUNK // size))
    rows = max(1, min(ka, _CHUNK // (cols * size)))
    diff = np.empty((rows, cols, size), dtype=complex)
    for i in range(0, ka, rows):
        for j in range(0, kb, cols):
            block = diff[: min(rows, ka - i), : min(cols, kb - j)]
            np.subtract(a[i : i + rows], b[:, j : j + cols], out=block)
            flat = block.view(float)
            out[i : i + rows, j : j + cols] = np.einsum("...k,...k->...", flat, flat)
    return np.sqrt(out, out=out)


def _screened_distances(
    a: np.ndarray, b: np.ndarray, eq_tol: float, *, later_only: bool = False
) -> np.ndarray:
    """``cross_distances(a, b)`` wherever it can be within eq_tol, ``inf`` elsewhere.

    The distance between the diagonals bounds the Frobenius distance from
    below (its squared sum is part of the full one), so full distances are
    computed, one ``cross_distances`` call per row, only for the pairs whose
    diagonals lie within eq_tol*(1 + 1e-6).  Rounding moves either sum by
    less than 1e-11 relative, so every pair set to ``inf`` is farther than
    eq_tol, and every entry that is kept is the one ``cross_distances``
    gives.  Stacks whose every pair fits in one chunk are compared in full,
    in one call, which no screen can undercut.  ``later_only`` (for ``a``
    and ``b`` one stack) leaves the pairs (i, j) with i >= j out of the
    screen; the caller reads only the entries with i < j.
    """
    if len(a) * len(b) * a.shape[-1] ** 2 <= _CHUNK:
        return cross_distances(a, b)
    lower = cross_distances(
        np.diagonal(a, axis1=1, axis2=2)[:, None], np.diagonal(b, axis1=1, axis2=2)[:, None]
    )
    near = lower <= eq_tol * (1 + 1e-6)
    if later_only:
        near &= np.arange(len(a))[:, None] < np.arange(len(b))
    out = np.full(lower.shape, np.inf)
    for i in np.flatnonzero(near.any(axis=1)):
        cols = np.flatnonzero(near[i])
        out[i, cols] = cross_distances(a[i : i + 1], b[cols])[0]
    return out


def distinct_rows(buf: np.ndarray, eq_tol: float) -> tuple[list[int], list[int]]:
    """Greedy dedup of a ``(k, d, d)`` buffer, which is left as it is.

    Candidates are taken in order; one becomes a member only if its
    Frobenius distance to every member kept so far exceeds eq_tol, and
    otherwise joins the first member within eq_tol.  The distances of all
    pairs come from one screened call.  Returns ``(kept, joined)``: ``kept``
    lists the candidates that became members, in order, and ``joined[c]`` is
    the index of the member candidate c became or joined.
    """
    if len(buf) <= 1:
        return list(range(len(buf))), list(range(len(buf)))
    # earlier[c]: the candidates before c within eq_tol of it, in order
    earlier: dict[int, list[int]] = {}
    near = _screened_distances(buf, buf, eq_tol, later_only=True) <= eq_tol
    for i, c in zip(*(axis.tolist() for axis in np.nonzero(near))):
        if i < c:
            earlier.setdefault(c, []).append(i)
    kept: list[int] = []
    joined: list[int] = []
    member: dict[int, int] = {}  # kept candidate -> its member index
    for c in range(len(buf)):
        hit = next((member[i] for i in earlier.get(c, ()) if i in member), None)
        if hit is None:
            hit = member[c] = len(kept)
            kept.append(c)
        joined.append(hit)
    return kept, joined


def first_meeting(
    stacks: Sequence[np.ndarray], eq_tol: float
) -> tuple[int, int, int, int, float] | None:
    """Where a list of ``(k, d, d)`` stacks first meet, or None if no two do.

    Returns ``(i, j, a, b, dist)``: (i, j) is the first pair of stacks, in
    ``combinations`` order, with rows within eq_tol of each other, and row a
    of stack i and row b of stack j are its closest cross pair (first in
    row-major order among equals), ``dist`` apart.  Each stack is compared
    with all later stacks, stacked once, in one screened call.
    """
    if len(stacks) < 2:
        return None
    # two stacks (a distance walk's level) are compared without a copy
    later = stacks[1] if len(stacks) == 2 else np.concatenate(stacks[1:])
    # starts[j]: the row of ``later`` where stack j begins (stack 0 is not in it)
    starts = list(accumulate((len(stack) for stack in stacks), initial=-len(stacks[0])))
    for i in range(len(stacks) - 1):
        rest = starts[i + 1]
        dist = _screened_distances(stacks[i], later[rest:], eq_tol)
        hits = (dist <= eq_tol).any(axis=0)
        if not hits.any():
            continue
        j = bisect_right(starts, rest + int(hits.argmax())) - 1
        block = dist[:, starts[j] - rest : starts[j + 1] - rest]
        a, b = divmod(int(block.argmin()), block.shape[1])
        return i, j, a, b, float(block[a, b])
    return None


@dataclass(frozen=True, eq=False)
class SphereSet:
    """The distinct members of a deduplicated stack of same-shape states.

    The members live in one read-only ``(k, d, d)`` array, ``stack``, their
    only copy; ``states`` wraps views of its rows on first access.  ``reps``
    holds, per member, the tag of the first candidate that produced it (the
    index set, for a deletion sphere); ``raw_count`` counts every candidate
    offered to ``distinct_rows``.
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

    def __iter__(self) -> Iterator[DensityMatrix]:
        return iter(self.states)

    def intersection_witness(
        self, other: "SphereSet"
    ) -> tuple[int, int, float] | None:
        """Indices of the closest cross pair (first in row-major order among
        equals) if within eq_tol, else None: ``first_meeting`` of the two stacks."""
        hit = first_meeting([self.stack, other.stack], max(self.eq_tol, other.eq_tol))
        return None if hit is None else hit[2:]


def _traced_levels(rho: DensityMatrix) -> Iterator[np.ndarray]:
    """The raw deletion levels of rho: for s = 0, 1, ..., n one ``(C(n, s), d, d)``
    buffer whose rows are the deletions at each s-subset in ``combinations``
    order.

    Subset c = (c1 < ... < cs) is traced from the row of its parent c[1:] by
    tracing position c1, which c[1:] leaves unnumbered, so each row is the
    one ``trace_out(rho.mat, IndexSet(c, n), l)`` gives, bit for bit.  The
    children with c1 = p are a contiguous block whose parents are the last
    C(n - p, s - 1) rows of the level before, so a level is n - s + 1 batched
    ``trace_out`` calls, each written into its block of the level.
    """
    n, l = rho.length, rho.level
    raw = rho.mat[None]
    yield raw
    for s in range(1, n + 1):
        dim = l ** (n - s)
        level = np.empty((comb(n, s), dim, dim), dtype=complex)
        row = 0
        for p in range(1, n - s + 2):
            parents = raw[len(raw) - comb(n - p, s - 1) :]
            level[row : row + len(parents)] = trace_out(parents, IndexSet((p,), n - s + 1), l)
            row += len(parents)
        raw = level
        yield raw


def deletion_levels(
    rho: DensityMatrix, tol: Tolerance = Tolerance(), start: int = 0
) -> Iterator[SphereSet]:
    """D^start(rho), D^(start+1)(rho), ..., D^n(rho), each level traced from
    the one before and deduplicated greedily within eq_tol at its dimension.

    Levels below ``start`` are traced but not deduplicated.  Each level is
    built only when it is asked for, from the last raw level, the only one
    kept.
    """
    n = rho.length
    for s, raw in enumerate(_traced_levels(rho)):
        if s < start:
            continue
        shape = QuditShape(rho.level, n - s)
        eq_tol = tol.at(shape.dim).eq_tol
        kept, _ = distinct_rows(raw, eq_tol)
        combos = list(combinations(range(1, n + 1), s))
        stack = raw if len(kept) == len(raw) else raw[kept]
        yield SphereSet(shape, eq_tol, stack, [IndexSet(combos[c], n) for c in kept], len(raw))


def deletion_sphere(rho: DensityMatrix, s: int, tol: Tolerance = Tolerance()) -> SphereSet:
    """D^s(rho): level s of ``deletion_levels``, the only one deduplicated."""
    n = rho.length
    if not 0 <= s <= n:
        raise CountOutOfRange(f"deletion count {s} not in [0, {n}]")
    return next(deletion_levels(rho, tol, s))


def _check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm} is not a permutation of [1, {n}]")
    return perm


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
    perm = _check_permutation(perm, rho.length)
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


def _check_blocks(stack: np.ndarray, rank: int, block_shape: QuditShape, tol: Tolerance) -> None:
    """Raise ``BlockConstraintViolated`` unless ``stack`` is a valid stack of
    ``(rank, rank, l**t, l**t)`` block arrays, one per sample, within ``tol``
    at the t-qudit dimension: its shape, finite entries, adjoint pairs (each
    array is Hermitian as one matrix), unit trace on the diagonal and zero
    trace off it, and PSD diagonal blocks.  Each check runs over the whole
    stack and reports its worst violation; with more than one sample, the
    message names the sample."""
    tol = tol.at(block_shape.dim)
    count = len(stack)

    def violated(k: int, message: str) -> BlockConstraintViolated:
        return BlockConstraintViolated(_sample_label(k, count) + message)

    expected = (rank, rank, block_shape.dim, block_shape.dim)
    if stack.shape[1:] != expected:
        raise BlockConstraintViolated(f"blocks have shape {stack.shape[1:]}, expected {expected}")
    finite = np.isfinite(stack).reshape(count, -1).all(axis=1)
    if not finite.all():
        raise violated(int(np.argmin(finite)), "blocks have non-finite entries")

    adjoint_res = np.linalg.norm(stack - stack.transpose(0, 2, 1, 4, 3).conj(), axis=(3, 4))
    k, x, y = np.unravel_index(int(np.argmax(adjoint_res)), adjoint_res.shape)
    if adjoint_res[k, x, y] > tol.eq_tol:
        raise violated(
            k,
            f"blocks ({x}, {y}) and ({y}, {x}) are not adjoints "
            f"(residual {adjoint_res[k, x, y]:.3e})",
        )

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

    diag = stack[:, np.arange(rank), np.arange(rank)]
    lowest = np.linalg.eigvalsh((diag + diag.conj().swapaxes(2, 3)) / 2)[..., 0]
    k, x = np.unravel_index(int(np.argmin(lowest)), lowest.shape)
    if lowest[k, x] < -tol.psd_tol:
        raise violated(
            k, f"diagonal block {x} is not a valid state: negative eigenvalue {lowest[k, x]:.3e}"
        )


def insert_construct(
    rho: DensityMatrix,
    Q,
    blocks: np.ndarray,
    tol: Tolerance = Tolerance(),
) -> DensityMatrix:
    """Build a member of I_Q(rho) from explicit blocks: ``_insert_stack`` of a
    one-sample stack.

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
    return _insert_stack(rho, qset, spectral_decompose(rho, tol), stack, tol)[0]


def _insert_stack(
    rho: DensityMatrix,
    qset: IndexSet,
    form: SpectralForm,
    stack: np.ndarray,
    tol: Tolerance,
) -> list[DensityMatrix]:
    """The members of I_Q(rho) built from a ``(count, rank, rank, l**t, l**t)``
    stack of block arrays, once rho's spectral form is known.

    The checks run in order, each over the whole stack: every block check
    (``_check_blocks``), then the PSD test of every assembled state, then
    every deletion round trip.  With more than one sample, an error names
    the sample.
    """
    n, l, t = rho.length, rho.level, qset.size
    count = len(stack)
    _check_blocks(stack, form.rank, QuditShape(l, t), tol)
    # columns sqrt(p_x) |x_L>, so a state is sum_{x,y} V_x V_y^dagger (x) A_{x,y};
    # contracting V with the blocks first, then with V^dagger, never forms a
    # per-pair Kronecker product
    v = form.kets * np.sqrt(form.weights)
    vb = np.tensordot(v, stack, (1, 1))  # axes (i, k, y, a, b)
    mat = np.tensordot(vb, v.conj(), (2, 1)).transpose(1, 0, 2, 4, 3)  # axes (k, i, a, j, b)
    big_shape = QuditShape(l, qset.ambient)
    sigmas = _permute_axes(mat.reshape(count, big_shape.dim, big_shape.dim), tau_Q(qset, n), l)
    big_tol = tol.at(big_shape.dim)

    # blocks that pass their adjoint check assemble to states Hermitian within
    # big_tol (up to rounding), so its Hermitian check passes and only the
    # rounding drift is symmetrized away
    lowest = hermitian_eigenvalues(sigmas, big_tol)[:, 0]
    k = int(np.argmin(lowest))
    if lowest[k] < -big_tol.psd_tol:
        raise NotPSD(
            f"{_sample_label(k, count)}assembled insertion is not PSD "
            f"(min eigenvalue {lowest[k]:.3e})",
            -float(lowest[k]),
        )

    residuals = np.linalg.norm(trace_out(sigmas, qset, l) - rho.mat, axis=(1, 2))
    k = int(np.argmax(residuals))
    if residuals[k] > tol.at(rho.dim).eq_tol:
        raise RoundTripFailed(
            f"{_sample_label(k, count)}D_Q(sigma) differs from rho by {residuals[k]:.3e}"
        )
    sigmas.setflags(write=False)  # so each state keeps its row as a view, not a copy
    return [DensityMatrix(big_shape, mat) for mat in sigmas]


def insertion_member(
    sigma: DensityMatrix, rho: DensityMatrix, Q, tol: Tolerance = Tolerance()
) -> bool:
    """sigma is in I_Q(rho) iff D_Q(sigma) = rho."""
    if sigma.level != rho.level:
        raise ShapeMismatch(f"levels differ: {sigma.level} vs {rho.level}")
    qset = _as_index_set(Q, sigma.length)
    if sigma.length != rho.length + qset.size:
        raise ShapeMismatch(
            f"len(sigma)={sigma.length} != len(rho)+|Q|={rho.length + qset.size}"
        )
    return delete(sigma, qset).distance(rho) <= tol.at(rho.dim).eq_tol


def sample_insertions(
    rho: DensityMatrix,
    Q,
    count: int,
    seed: int,
    tol: Tolerance = Tolerance(),
) -> list[DensityMatrix]:
    """Draw ``count`` members of I_Q(rho), deterministically from ``seed``.

    Two families alternate: (a) separable, a random t-qudit density per
    eigenvector with zero off-diagonal blocks; (b) entangled, a purification
    sigma = |Phi><Phi| with |Phi> = sum_x sqrt(p_x) |x_L> (x) |u_x| over a
    random orthonormal set, emitted only when l^t >= rank(rho).  Sample k is
    entangled when k is odd and the family is possible.

    The samples are drawn in order, so the first k of ``count`` samples are
    the k samples of the same seed, and then built as one block stack by one
    ``_insert_stack`` call: every sample is checked and verified as
    ``insert_construct`` checks one.
    """
    if count < 1:
        raise CountOutOfRange(f"need count >= 1, got {count}")
    qset = _insertion_set(Q, rho.length)
    rng = np.random.default_rng(seed)
    form = spectral_decompose(rho, tol)
    rank, dim = form.rank, rho.level**qset.size
    stack = np.empty((count, rank, rank, dim, dim), dtype=complex)
    for k in range(count):
        if k % 2 == 1 and dim >= rank:
            kets = np.array(random_orthonormal(rng, dim, rank))
            stack[k] = np.einsum("xa,yb->xyab", kets, kets.conj())
        else:
            m = random_psd(rng, dim, batch=(rank,))
            pis = m / np.trace(m, axis1=1, axis2=2).real[:, None, None]
            stack[k] = separable_blocks(pis)
    return _insert_stack(rho, qset, form, stack, tol)
