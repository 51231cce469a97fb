"""Deletion channels, qudit index permutations, and insertion-state construction.

Deletion at position p is the partial trace over qudit p.  Insertion at a set
of positions Q is the *set* of larger states whose deletion at Q returns the
original; members are constructed from a spectral form plus one block matrix
per eigenvector pair (diagonal blocks are t-qudit densities, off-diagonal
blocks are traceless and adjoint-paired), tensor-attached at the end and then
moved into place by an index permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

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
from .linalg import Tolerance, frobenius_distance, hermitian_eigensystem, hermitian_part
from .errors import ValidationError
from .rand import random_density, random_orthonormal
from .states import (
    DensityMatrix,
    QuditShape,
    SpectralForm,
    spectral_decompose,
    state_to_json_obj,
    validate,
)

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

    def contains(self, rho: DensityMatrix) -> bool:
        return self.find(rho) is not None

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

    def to_json_obj(self) -> list[dict]:
        return [state_to_json_obj(s) for s in self.states]


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


@dataclass(frozen=True)
class InsertionBlocks:
    """Per-eigenvector-pair blocks defining an inserted t-qudit subsystem.

    Keys index the pairs of a ``SpectralForm`` (zero-weight eigenvectors are
    already dropped there, which realizes their forced-zero blocks).  Missing
    off-diagonal entries default to zero; a present (x, y) supplies (y, x) by
    adjoint unless that key is also given, in which case both must agree.
    """

    t: int
    diag: Mapping[int, np.ndarray]
    offdiag: Mapping[tuple[int, int], np.ndarray] = field(default_factory=dict)

    @classmethod
    def separable(cls, t: int, pis: Sequence[np.ndarray]) -> "InsertionBlocks":
        """No coherence between system and inserted qudits: A_{x,y} = 0 for x != y."""
        return cls(t, {x: np.asarray(p, dtype=complex) for x, p in enumerate(pis)})

    def resolved_offdiag(self, rank: int, eq_tol: float) -> dict[tuple[int, int], np.ndarray]:
        out: dict[tuple[int, int], np.ndarray] = {}
        for (x, y), a in self.offdiag.items():
            if x == y or not (0 <= x < rank and 0 <= y < rank):
                raise BlockConstraintViolated(
                    f"off-diagonal key ({x}, {y}) is not a pair of distinct eigenvector "
                    f"indices in [0, {rank})"
                )
            a = np.asarray(a, dtype=complex)
            if (x, y) in out and frobenius_distance(out[(x, y)], a) > eq_tol:
                raise BlockConstraintViolated(f"blocks ({x}, {y}) and ({y}, {x}) are not adjoints")
            out[(x, y)] = a
            mirror = a.conj().T
            if (y, x) in self.offdiag:
                given = np.asarray(self.offdiag[(y, x)], dtype=complex)
                if frobenius_distance(given, mirror) > eq_tol:
                    raise BlockConstraintViolated(
                        f"blocks ({x}, {y}) and ({y}, {x}) are not adjoints"
                    )
            out[(y, x)] = mirror
        return out


def _assemble_insertion(
    form: SpectralForm, blocks: InsertionBlocks, tol: Tolerance
) -> np.ndarray:
    """sum_{x,y} sqrt(p_x p_y) |x_L><y_L| (x) A_{x,y}, inserted block last."""
    l, n = form.shape.level, form.shape.length
    t = blocks.t
    block_shape = QuditShape(l, t)
    block_tol = block_shape.tol()
    rank = form.rank

    diag: dict[int, np.ndarray] = {}
    for x in range(rank):
        if x not in blocks.diag:
            raise BlockConstraintViolated(f"missing diagonal block for eigenvector {x}")
        a = np.asarray(blocks.diag[x], dtype=complex)
        try:
            validate(a, block_shape, block_tol)
        except (ValidationError, ShapeMismatch) as exc:
            raise BlockConstraintViolated(f"diagonal block {x} is not a valid state: {exc}") from exc
        diag[x] = a

    offdiag = blocks.resolved_offdiag(rank, block_tol.eq_tol)
    for (x, y), a in offdiag.items():
        if a.shape != (block_shape.dim, block_shape.dim):
            raise BlockConstraintViolated(
                f"block ({x}, {y}) has shape {a.shape}, expected {block_shape.dim}"
            )
        tr = abs(np.trace(a))
        if tr > block_tol.eq_tol:
            raise BlockConstraintViolated(f"block ({x}, {y}) has nonzero trace {tr:.3e}")

    big = QuditShape(l, n + t)
    mat = np.zeros((big.dim, big.dim), dtype=complex)
    for x in range(rank):
        p_x, ket_x = form.pairs[x]
        for y in range(rank):
            p_y, ket_y = form.pairs[y]
            a = diag[x] if x == y else offdiag.get((x, y))
            if a is None:
                continue
            mat += np.sqrt(p_x * p_y) * np.kron(np.outer(ket_x, ket_y.conj()), a)
    return mat


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
    mat = _assemble_insertion(form, blocks, tol if tol is not None else rho.shape.tol())
    perm = tau_Q(qset, n)
    big_shape = QuditShape(l, n + t)
    sigma_mat = _permute_axes(mat, perm, l)
    big_tol = tol if tol is not None else big_shape.tol()

    w, _ = hermitian_eigensystem(hermitian_part(sigma_mat), big_tol)
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
            kets = random_orthonormal(rng, block_shape.dim, form.rank)
            blocks = InsertionBlocks(
                t,
                diag={x: np.outer(kets[x], kets[x].conj()) for x in range(form.rank)},
                offdiag={
                    (x, y): np.outer(kets[x], kets[y].conj())
                    for x in range(form.rank)
                    for y in range(form.rank)
                    if x != y
                },
            )
        else:
            pis = [random_density(rng, block_shape).mat for _ in range(form.rank)]
            blocks = InsertionBlocks.separable(t, pis)
        samples.append(insert_construct(rho, qset, blocks, tol))
    return samples
