"""Deletion channels, qudit index permutations, and insertion-state construction.

Deletion at position p is the partial trace over qudit p.  Insertion at a set
of positions Q is the *set* of larger states whose deletion at Q returns the
original; members are constructed from rho's spectral form and one
``(rank, rank, l**t, l**t)`` array of blocks A_{x,y}, one per eigenvector pair
(t-qudit densities on the diagonal, traceless adjoint pairs off it).  The
blocks are checked as one array and attached to the eigenvectors by a single
contraction, with the inserted qudits last; an index permutation then moves
them into place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
from .linalg import Tolerance, hermitian_eigenvalues, hermitian_part
from .rand import random_density, random_orthonormal
from .states import DensityMatrix, QuditShape, spectral_decompose

__all__ = [
    "IndexSet",
    "InsertionBlocks",
    "SphereSet",
    "cross_distances",
    "trace_out",
    "partial_trace",
    "delete",
    "deletion_sphere",
    "index_permutation",
    "tau_Q",
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


class SphereSet:
    """Finite set of same-shape states with tolerance-based membership.

    The members live in one read-only ``(k, d, d)`` array, ``stack``, their
    only copy; ``states`` wraps read-only views of its rows.  Deduplication is
    greedy: candidates are taken in order, and one joins only if its
    Frobenius distance to every current member exceeds eq_tol, with all those
    distances computed in one batched call.  Each member remembers in
    ``reps`` the tag of the first candidate that produced it (the index set,
    for a deletion sphere); ``raw_count`` counts every candidate offered.
    """

    def __init__(self, shape: QuditShape, eq_tol: float | None = None):
        self.shape = shape
        self.eq_tol = eq_tol if eq_tol is not None else shape.tol().eq_tol
        self.reps: list = []
        self.raw_count = 0
        self._set_stack(np.empty((0, shape.dim, shape.dim), dtype=complex))

    def _set_stack(self, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        self.stack = stack
        self.states = [DensityMatrix(self.shape, mat) for mat in stack]

    def _first_within(self, dist: np.ndarray) -> int | None:
        hits = np.flatnonzero(dist <= self.eq_tol)
        return int(hits[0]) if hits.size else None

    def find(self, rho: DensityMatrix) -> int | None:
        return self._first_within(cross_distances(self.stack, rho.mat[None])[:, 0])

    def extend(self, mats: np.ndarray, reps: Sequence | None = None) -> list[int]:
        """Offer a ``(k, d, d)`` stack of candidates in order; return the
        index of the member each one joined or became."""
        return self._absorb(np.concatenate([self.stack, np.asarray(mats, dtype=complex)]), reps)

    def _absorb(self, buf: np.ndarray, reps: Sequence | None) -> list[int]:
        """``extend`` on a buffer owned here: the current members followed by
        the candidates.  Members are compacted in place at its front."""
        reps = list(reps) if reps is not None else [None] * (len(buf) - len(self.stack))
        k = len(self.stack)
        joined = []
        for c, rep in zip(range(len(self.stack), len(buf)), reps):
            hit = self._first_within(cross_distances(buf[:k], buf[c : c + 1])[:, 0])
            if hit is None:
                buf[k] = buf[c]
                self.reps.append(rep)
                hit, k = k, k + 1
            joined.append(hit)
        self.raw_count += len(buf) - len(self.stack)
        self._set_stack(buf if k == len(buf) else buf[:k].copy())
        return joined

    def add(self, rho: DensityMatrix, rep=None) -> int:
        return self.extend(rho.mat[None], [rep])[0]

    def __len__(self) -> int:
        return len(self.stack)

    def __iter__(self) -> Iterator[DensityMatrix]:
        return iter(self.states)

    def min_cross_distance(self, other: "SphereSet") -> float:
        return float(cross_distances(self.stack, other.stack).min())

    def intersection_witness(
        self, other: "SphereSet"
    ) -> tuple[int, int, float] | None:
        """Indices of the closest cross pair (first in row-major order among
        equals) if within eq_tol, else None."""
        dist = cross_distances(self.stack, other.stack)
        if dist.size == 0:
            return None
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[i, j] <= max(self.eq_tol, other.eq_tol):
            return int(i), int(j), float(dist[i, j])
        return None


def deletion_sphere(rho: DensityMatrix, s: int, tol: Tolerance | None = None) -> SphereSet:
    """D^s(rho): all C(n, s) deletions, traced into one buffer and
    deduplicated greedily within eq_tol."""
    n = rho.length
    if not 0 <= s <= n:
        raise CountOutOfRange(f"deletion count {s} not in [0, {n}]")
    out_shape = QuditShape(rho.level, n - s)
    psets = [IndexSet(combo, n) for combo in combinations(range(1, n + 1), s)]
    buf = np.empty((len(psets), out_shape.dim, out_shape.dim), dtype=complex)
    for k, pset in enumerate(psets):
        buf[k] = trace_out(rho.mat, pset, rho.level)
    sphere = SphereSet(out_shape, tol.eq_tol if tol is not None else None)
    sphere._absorb(buf, psets)
    return sphere


def _check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise NotAPermutation(f"{perm} is not a permutation of [1, {n}]")
    return perm


def _permute_axes(mat: np.ndarray, perm: tuple[int, ...], level: int) -> np.ndarray:
    """Reorder tensor factors so that qudit i of the input sits at slot perm[i-1]."""
    n = len(perm)
    # new slot j holds old qudit perm^(-1)(j); transpose axes[j] = perm^(-1)(j+1)-1
    inverse = [0] * n
    for i, target in enumerate(perm):
        inverse[target - 1] = i
    axes = inverse + [n + a for a in inverse]
    tensor = mat.reshape([level] * (2 * n))
    dim = level ** n
    return tensor.transpose(axes).reshape(dim, dim)


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
    qset = Q if isinstance(Q, IndexSet) else IndexSet.of(Q, n + len(tuple(Q)))
    t = qset.size
    if qset.ambient != n + t:
        raise InvalidIndexSet(f"Q must live in [1, {n + t}], got ambient {qset.ambient}")
    perm = [0] * (n + t)
    for i, q in enumerate(qset.positions):
        perm[n + i] = q
    for j, slot in enumerate(qset.complement()):
        perm[j] = slot
    return tuple(perm)


@dataclass(frozen=True, eq=False)
class InsertionBlocks:
    """The blocks A_{x,y} of an inserted t-qudit subsystem, as one array.

    ``blocks[x, y]`` is the l^t x l^t block of the eigenvector pair (x, y),
    indexed in the order of the ``SpectralForm`` (zero-weight eigenvectors
    are already dropped there, which realizes their forced-zero blocks).  A
    valid array has shape ``(rank, rank, l**t, l**t)``, t-qudit densities on
    the diagonal, traceless blocks off it, and A_{y,x} = A_{x,y}^dagger;
    ``insert_construct`` checks all of it.
    """

    t: int
    blocks: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", np.asarray(self.blocks, dtype=complex))

    @classmethod
    def separable(cls, t: int, pis: Sequence[np.ndarray]) -> "InsertionBlocks":
        """No coherence between system and inserted qudits: A_{x,y} = 0 for x != y."""
        pis = np.asarray(pis, dtype=complex)
        return cls(t, np.einsum("xy,xab->xyab", np.eye(len(pis)), pis))


def _worst_pair(residuals: np.ndarray) -> tuple[int, int]:
    x, y = np.unravel_index(np.argmax(residuals), residuals.shape)
    return int(x), int(y)


def _check_blocks(blocks: np.ndarray, rank: int, block_shape: QuditShape) -> None:
    """Raise ``BlockConstraintViolated`` unless ``blocks`` is a valid block
    array for ``rank`` eigenvectors, within the t-qudit tolerances: its shape,
    finite entries, adjoint pairs (the array is Hermitian as one matrix), unit
    trace on the diagonal and zero trace off it, and PSD diagonal blocks."""
    tol = block_shape.tol()
    expected = (rank, rank, block_shape.dim, block_shape.dim)
    if blocks.shape != expected:
        raise BlockConstraintViolated(f"blocks have shape {blocks.shape}, expected {expected}")
    if not np.isfinite(blocks).all():
        raise BlockConstraintViolated("blocks have non-finite entries")

    adjoint_res = np.linalg.norm(blocks - blocks.transpose(1, 0, 3, 2).conj(), axis=(2, 3))
    x, y = _worst_pair(adjoint_res)
    if adjoint_res[x, y] > tol.eq_tol:
        raise BlockConstraintViolated(
            f"blocks ({x}, {y}) and ({y}, {x}) are not adjoints "
            f"(residual {adjoint_res[x, y]:.3e})"
        )

    trace_res = np.abs(np.trace(blocks, axis1=2, axis2=3) - np.eye(rank))
    x, y = _worst_pair(trace_res)
    if trace_res[x, y] > tol.eq_tol:
        if x == y:
            raise BlockConstraintViolated(
                f"diagonal block {x} is not a valid state: trace differs from 1 by "
                f"{trace_res[x, x]:.3e}"
            )
        raise BlockConstraintViolated(f"block ({x}, {y}) has nonzero trace {trace_res[x, y]:.3e}")

    diag = blocks[np.arange(rank), np.arange(rank)]
    lowest = np.linalg.eigvalsh((diag + diag.conj().swapaxes(1, 2)) / 2)[:, 0]
    x = int(np.argmin(lowest))
    if lowest[x] < -tol.psd_tol:
        raise BlockConstraintViolated(
            f"diagonal block {x} is not a valid state: negative eigenvalue {lowest[x]:.3e}"
        )


# Contract V with the blocks first, then with V^dagger: O(d r^2 D^2 + d^2 r D^2)
# work for d = l^n, D = l^t and rank r, where the naive one-step einsum
# loops over all d^2 r^2 D^2 index combinations.
_INSERTION_PATH = ["einsum_path", (0, 1), (0, 1)]


def insert_construct(
    rho: DensityMatrix,
    Q,
    blocks: InsertionBlocks,
    tol: Tolerance | None = None,
) -> DensityMatrix:
    """Build a member of I_Q(rho) from explicit blocks.

    The block formula alone does not guarantee positivity, so the assembled
    state is PSD-checked and rejected rather than repaired; the deletion
    round trip D_Q(sigma) = rho is verified before returning.
    """
    n, l = rho.length, rho.level
    qset = Q if isinstance(Q, IndexSet) else IndexSet.of(Q, n + len(tuple(Q)))
    t = qset.size
    if blocks.t != t:
        raise ShapeMismatch(f"blocks are for t={blocks.t} but Q inserts {t} qudits")
    if qset.ambient != n + t:
        raise InvalidIndexSet(f"Q ambient {qset.ambient} != n + t = {n + t}")

    form = spectral_decompose(rho, tol)
    _check_blocks(blocks.blocks, form.rank, QuditShape(l, t))
    # columns sqrt(p_x) |x_L>, so the state is sum_{x,y} V_x V_y^dagger (x) A_{x,y}
    v = np.stack([ket for _, ket in form.pairs], axis=1) * np.sqrt(form.weights)
    big_shape = QuditShape(l, n + t)
    mat = np.einsum("ix,xyab,jy->iajb", v, blocks.blocks, v.conj(), optimize=_INSERTION_PATH)
    sigma_mat = _permute_axes(mat.reshape(big_shape.dim, big_shape.dim), tau_Q(qset, n), l)
    big_tol = tol if tol is not None else big_shape.tol()

    w = hermitian_eigenvalues(hermitian_part(sigma_mat), big_tol)
    if w[0] < -big_tol.psd_tol:
        raise NotPSD(
            f"assembled insertion is not PSD (min eigenvalue {w[0]:.3e})", -float(w[0])
        )
    sigma = DensityMatrix(big_shape, sigma_mat)

    back = delete(sigma, qset)
    residual = back.distance(rho)
    roundtrip_tol = (tol if tol is not None else rho.shape.tol()).eq_tol
    if residual > roundtrip_tol:
        raise RoundTripFailed(f"D_Q(sigma) differs from rho by {residual:.3e}")
    return sigma


def insertion_member(
    sigma: DensityMatrix, rho: DensityMatrix, Q, tol: Tolerance | None = None
) -> bool:
    """sigma is in I_Q(rho) iff D_Q(sigma) = rho."""
    if sigma.level != rho.level:
        raise ShapeMismatch(f"levels differ: {sigma.level} vs {rho.level}")
    qset = Q if isinstance(Q, IndexSet) else IndexSet.of(Q, sigma.length)
    if sigma.length != rho.length + qset.size:
        raise ShapeMismatch(
            f"len(sigma)={sigma.length} != len(rho)+|Q|={rho.length + qset.size}"
        )
    if qset.ambient != sigma.length:
        raise InvalidIndexSet(f"Q ambient {qset.ambient} != len(sigma) = {sigma.length}")
    tol = tol if tol is not None else rho.shape.tol()
    return delete(sigma, qset).distance(rho) <= tol.eq_tol


def sample_insertions(
    rho: DensityMatrix,
    Q,
    count: int,
    seed: int,
    tol: Tolerance | None = None,
) -> list[DensityMatrix]:
    """Draw ``count`` members of I_Q(rho), deterministically from ``seed``.

    Two families alternate: (a) separable, a random t-qudit density per
    eigenvector with zero off-diagonal blocks; (b) entangled, a purification
    sigma = |Phi><Phi| with |Phi> = sum_x sqrt(p_x) |x_L> (x) |u_x| over a
    random orthonormal set, emitted only when l^t >= rank(rho).
    """
    if count < 1:
        raise CountOutOfRange(f"need count >= 1, got {count}")
    n, l = rho.length, rho.level
    qset = Q if isinstance(Q, IndexSet) else IndexSet.of(Q, n + len(tuple(Q)))
    t = qset.size
    rng = np.random.default_rng(seed)
    form = spectral_decompose(rho, tol)
    block_shape = QuditShape(l, t)
    entangled_ok = block_shape.dim >= form.rank

    samples: list[DensityMatrix] = []
    for k in range(count):
        if k % 2 == 1 and entangled_ok:
            kets = np.array(random_orthonormal(rng, block_shape.dim, form.rank))
            blocks = InsertionBlocks(t, np.einsum("xa,yb->xyab", kets, kets.conj()))
        else:
            pis = [random_density(rng, block_shape).mat for _ in range(form.rank)]
            blocks = InsertionBlocks.separable(t, pis)
        samples.append(insert_construct(rho, qset, blocks, tol))
    return samples
