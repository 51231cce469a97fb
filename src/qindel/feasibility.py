"""Membership tests for composed error spheres.

Insertions-after-deletions membership reduces to a finite intersection of
deletion spheres and is decided exactly, for two same-shape stacks of pairs
at once by ``_members_ins_del``; the containment trials keep their states
as bare matrices and stacks and wrap none.  Deletions-after-insertions
membership is a PSD feasibility problem (is there a PSD tau with
D_Q(tau) = rho and D_P(tau) = sigma?), decided in up to three steps: both
conditions must fix the same common marginal, within eq_tol at its
dimension; facial reduction (Drusvyatskiy & Wolkowicz, 2017) confines tau to
the lifted ranges of rho and sigma; and L-BFGS on the dual semidefinite
least-squares problem on that face (Malick, SIMAX 2004) converges to a
witness or diverges along a Farkas certificate.  The solve has
checkpoints at ``NEWTON_AFTER`` evaluations, at ``NEWTON_AFTER`` times the
count of each checkpoint that decides nothing, and where L-BFGS stops.  At
each it tries to finish by Gauss–Newton steps on the factor R of
tau = R R^dagger (Burer & Monteiro, 2003), from the dual's positive part,
and returns a witness that meets the dual's own witness test; failing
that, it tests the dual's Farkas candidate; failing both, L-BFGS goes on
as it would have, unless it had stopped.  A feasible verdict carries a
re-checked witness, an infeasible one a re-checked certificate; with
neither, the verdict is inconclusive.  One ``_PairDecider`` per pair of
state stacks decides them all; ``feasibility_del_ins`` and
``member_del_ins`` are its one-pair and one-state-pair cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import combinations, product

import numpy as np

from .channels import IndexSet, _as_index_set, _check_composed, _dedup_levels, _insertion_set, _one_position
from .channels import _sample_batch, _traced_levels, pairs_meet, trace_out, trace_out_adjoint
from .errors import QindelError, ShapeMismatch, SizeCapExceeded
from .linalg import Tolerance, _refuse_alone, eigensolve, frobenius_distance, frobenius_norm, hermitian_part
from .states import DensityMatrix, QuditShape, _count, _spectral_groups

__all__ = [
    "FeasibilityStatus",
    "FeasibilityReport",
    "AffineConstraint",
    "member_ins_del",
    "feasibility_del_ins",
    "member_del_ins",
    "check_containment_trial",
    "check_containment_trials",
]


class FeasibilityStatus(str, Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    INCONCLUSIVE = "inconclusive"


MAX_ITERATIONS = 5000  # cap on dual gradient evaluations per (P, Q) pair
MEMORY = 60  # L-BFGS correction pairs kept; set by a measured sweep (ROADMAP item 5)
NEWTON_AFTER = 4  # evaluations before the first dual checkpoint, and the growth of the count between them; measured
NEWTON_STEPS = 8  # cap on the finish's steps
NEWTON_KEEP = 1e-2  # the finish keeps the factor's columns of weight at least this share of the largest; measured
MAX_DIM = 16  # cap on l^(n+t) for the lifted state


@dataclass
class FeasibilityReport:
    """A verdict with its evidence: a witness, or a Farkas certificate
    (lam_Q, lam_P).  ``gap`` is, for infeasible, the certified lower bound of
    ``AffineConstraint.certify``, otherwise the residual of the witness or of
    the last primal point.  ``iterations`` counts dual gradient evaluations."""

    status: FeasibilityStatus
    witness: DensityMatrix | None
    gap: float
    iterations: int
    details: dict = field(default_factory=dict)
    certificate: tuple[np.ndarray, np.ndarray] | None = None


@cache
def _rests(qset: IndexSet, pset: IndexSet) -> tuple[IndexSet, IndexSet]:
    """P \\ Q numbered among rho's qudits (those Q leaves) and Q \\ P among
    sigma's: traced from rho and from sigma, they leave the common marginal
    D_{P u Q} that both conditions fix."""
    return tuple(
        IndexSet(tuple(rest.index(p) + 1 for p in positions if p in rest), len(rest))
        for positions, rest in ((pset, qset.complement()), (qset, pset.complement()))
    )


@cache
def _index_maps(level: int, qset: IndexSet, pset: IndexSet) -> tuple[list, np.ndarray]:
    """A and A* of ``AffineConstraint`` as read-only index arrays, built once
    per (level, ambient, Q, P); ``MAX_DIM`` bounds how many there are.

    A packed dual vector is vec(lam_Q) then vec(lam_P), then one zero pad
    (``AffineConstraint.pack``).  The adjoint's map is ``(2, d, d)``: entry (i, j) of
    ``trace_out_adjoint(lam_S)`` is the packed entry it copies, or the pad
    where that function writes a zero.  A's map gives, for each entry of the
    packed A(tau), the ``l**|S|`` entries of vec(tau) that ``trace_out``
    adds into it, in the order of the traced digits, the first position's
    most significant: the transpose of the adjoint's map, read off it by one
    stable sort.  It is a list of (gather, packed slice) blocks, one for
    both conditions when |P| = |Q|, else one per condition.
    """
    sides = [level ** (traced.ambient - traced.size) for traced in (qset, pset)]
    pad = sides[0] ** 2 + sides[1] ** 2
    gathers, spread, offset = [], [], 0
    for traced, side in zip((qset, pset), sides):
        # entry k + 1 of the small matrix lands where trace_out_adjoint copies entry k
        copies = trace_out_adjoint(np.arange(1, side * side + 1).reshape(side, side), traced, level)
        zeros = copies.size - np.count_nonzero(copies)
        gathers.append(np.argsort(copies, axis=None, kind="stable")[zeros:].reshape(side * side, -1))
        spread.append(np.where(copies > 0, copies - 1 + offset, pad))
        offset += side * side
    if qset.size == pset.size:
        blocks = [(np.concatenate(gathers), slice(None))]
    else:
        blocks = [(gathers[0], slice(None, sides[0] ** 2)), (gathers[1], slice(sides[0] ** 2, None))]
    spread = np.array(spread)
    for array in (*(gather for gather, _ in blocks), spread):
        array.setflags(write=False)
    return blocks, spread


@cache
def _normal_maps(level: int, qset: IndexSet, pset: IndexSet) -> tuple:
    """The Gauss–Newton normal matrix N = S (I (x) tau^T + tau (x) I) S^T of
    ``_newton_finish``, S the 0/1 gather-sum of A (S^T is A*), as read-only
    index maps built once per (level, ambient, Q, P) from the adjoint's map
    of ``_index_maps`` only.

    Entry (a, b) of N adds, over the entries p of tau that packed entry a
    sums and q that b sums, tau[j_q, j_p] where p and q share a row and
    tau[i_p, i_q] where they share a column.  Within one condition's block
    these sums are the condition's marginal of tau, entries of A(tau), so
    the block is that marginal's Kronecker sum; only the cross block reads
    tau itself.  The system is solved in real coordinates: Re of each packed
    entry (i, j) with i <= j, then Im of each with i < j.  A row of the real
    N takes that part of a row of N; a column adds the columns of an entry
    and of its mirror (j, i), times i and -i for Im.  So each real entry is
    a signed sum of floats f of the source [vec(tau), A(tau)].  W N is
    symmetric, W = diag(``weights``) with weight 2 on the coordinates of an
    entry off the diagonal: each term of a cell on or above the diagonal is
    mapped to its flattened cell (``cells``) and, off the diagonal, to the
    mirror cell too, and ``gather`` indexes its float in [f, -f, 2f, -2f],
    so the term carries its sign and its row's weight.  The terms are sorted
    by cell, and W N is one ``np.bincount(cells, source[gather])``.  The
    maps live as long as the process, so each is kept in the smallest
    unsigned dtype that holds it: about 49 KB for a d=16 pair with
    |P| = |Q| = 1.  ``coordinates`` reads the real coordinates off a packed
    vector's floats; ``real_of`` and ``imag_of`` give each packed entry,
    pad included, its Re and signed Im in [u, -u, 0], u the real coordinates.
    """
    _, spread = _index_maps(level, qset, pset)
    n = (level ** (qset.ambient - qset.size), level ** (pset.ambient - pset.size))
    d, pad, offsets = spread.shape[1], n[0] ** 2 + n[1] ** 2, (0, n[0] ** 2)
    i, j = (np.concatenate(parts) for parts in zip(*(np.divmod(np.arange(side * side), side) for side in n)))
    mirror = np.concatenate([start + np.arange(m * m).reshape(m, m).T.ravel() for m, start in zip(n, offsets)])
    upper, strict = np.flatnonzero(i <= j), np.flatnonzero(i < j)
    # int32 while building: the terms are many, and every index fits
    up, st, spread = np.full(pad, -1, np.int32), np.full(pad, -1, np.int32), spread.astype(np.int32)
    up[upper], st[strict] = np.arange(len(upper)), len(upper) + np.arange(len(strict))
    # complex terms (a, b, k): N[a, b] adds source[k]; the cross blocks first, rows then columns
    k, terms = np.arange(d, dtype=np.int32), []
    for rows, cols in (spread, spread[::-1]):
        for a, b, t in (
            np.broadcast_arrays(rows[:, :, None], cols[:, None, :], k[None, None, :] * d + k[None, :, None]),
            np.broadcast_arrays(rows[:, None, :], cols[None, :, :], k[:, None, None] * d + k[None, :, None]),
        ):
            kept = (a < pad) & (b < pad)
            terms.append([a[kept], b[kept], t[kept]])
    for side, start in zip(n, offsets):
        x, y, z = (part.ravel() for part in np.indices((side,) * 3, dtype=np.int32))
        # the block's Kronecker sum: N[(x, y), (x, z)] adds marginal[z, y], N[(x, y), (z, y)] marginal[x, z]
        terms.append([start + x * side + y, start + x * side + z, d * d + start + z * side + y])
        terms.append([start + x * side + y, start + z * side + y, d * d + start + x * side + z])
    a, b, t = (np.concatenate(parts) for parts in zip(*terms))
    del terms
    lower = up[b] < 0
    b = np.where(lower, mirror[b], b)
    floats, terms = 2 * (d * d + pad), []
    # (row part, column part): Re/Re and Im/Re read coef 1; Re/Im reads -Im (+Im for a lower b), Im/Im +Re (-Re)
    for rows, cols, part, negative in ((up, up, 0, None), (st, up, 1, None), (up, st, 1, ~lower), (st, st, 0, lower)):
        row, col = rows[a], cols[b]
        kept = (row >= 0) & (row <= col)
        terms.append([row[kept], col[kept], 2 * t[kept] + part + (0 if negative is None else floats * negative[kept])])
    row, col, gather = (np.concatenate(parts) for parts in zip(*terms))
    weights = np.where(np.r_[i[upper] == j[upper], np.zeros(len(strict), bool)], 1.0, 2.0)
    gather += 2 * floats * (weights[row] == 2)  # the row's weight, read from [f, -f] or [2f, -2f]
    mirrored = row < col  # W N is symmetric: a term off its diagonal adds into both cells
    cells = np.concatenate([row * pad + col, col[mirrored] * pad + row[mirrored]])
    gather = np.concatenate([gather, gather[mirrored]])
    order = np.argsort(cells, kind="stable")
    coordinates = np.concatenate([2 * upper, 2 * strict + 1])
    real_of = np.append(up[np.where(up >= 0, np.arange(pad), mirror)], 2 * pad)
    imag_of = np.append(np.where(st >= 0, st, np.where(i > j, pad + st[mirror], 2 * pad)), 2 * pad)
    index = np.min_scalar_type(max(pad * pad, 4 * floats))
    maps = (*(array.astype(index) for array in (cells[order], gather[order])), weights,
            *(array.astype(index) for array in (coordinates, real_of, imag_of)))
    for array in maps:
        array.setflags(write=False)
    return maps


def _column_sums(columns: np.ndarray, level: int, out: np.ndarray) -> None:
    """Each row of ``columns``, an ``_index_maps`` gather, added as
    ``trace_out`` adds it, into ``out``: one traced qudit at a time, the last
    first, each one's ``level`` columns in turn, so every sum has its bits.
    (``.sum(-1)`` costs several times as much on a length-2 axis.)"""
    rows = len(columns)
    if columns.shape[1] == 1:  # nothing traced
        out[:] = columns[:, 0]
    while columns.shape[1] > 1:
        width = columns.shape[1] // level
        columns = columns.reshape(rows, width, level)
        total = out.reshape(rows, 1) if width == 1 else np.empty((rows, width), complex)
        np.add(columns[..., 0], columns[..., 1], out=total)
        for k in range(2, level):
            total += columns[..., k]
        columns = total


class AffineConstraint:
    """The conditions D_Q(tau) = rho and D_P(tau) = sigma, applied matrix-free.

    A sends a lifted tau to (D_Q tau, D_P tau), and its adjoint inserts an
    identity at Q and at P and adds.  Dual points are packed complex vectors,
    vec(lam_Q), vec(lam_P) and one zero pad (``pack``, ``unpack``), and
    certificates pairs (lam_Q, lam_P) shaped like b = (rho, sigma), under
    Re tr(x^dagger y).
    ``apply`` and ``adjoint`` are the compiled index maps of
    ``_index_maps``, with the bits of ``trace_out`` and ``trace_out_adjoint``.
    Its ``mismatch``, D_{P\\Q} rho - D_{Q\\P} sigma (``_rests``), comes traced.
    """

    def __init__(self, level: int, rho: np.ndarray, qset: IndexSet, sigma: np.ndarray, pset: IndexSet, mismatch):
        self.level = level
        self.qset, self.pset = qset, pset
        self.rhs = (rho, sigma)
        self._rest = _rests(qset, pset)
        self.mismatch = mismatch
        self.scale = math.sqrt(sum(level**rest.size for rest in self._rest))
        self._blocks, self._spread = _index_maps(level, qset, pset)
        self._size = rho.size + sigma.size

    def pack(self, lam) -> np.ndarray:
        """The packed dual vector of the pair lam = (lam_Q, lam_P), a fresh
        complex vector ending in the one zero pad that ``adjoint`` gathers
        from."""
        return np.concatenate([*(part.ravel() for part in lam), [0j]])

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pair (lam_Q, lam_P), as views, of the packed vector z, with
        or without its pad."""
        rho, sigma = self.rhs
        return z[: rho.size].reshape(rho.shape), z[rho.size : self._size].reshape(sigma.shape)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A(x), packed: one gather from vec(x) per ``_index_maps`` block,
        its columns added by ``_column_sums``."""
        flat, out = x.ravel(), np.empty(self._size, complex)
        for gather, part in self._blocks:
            _column_sums(flat[gather], self.level, out[part])
        return out

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """A*(z) of a packed z, pad included: one gather from z, then the
        two conditions' identity insertions added."""
        both = z[self._spread]
        return both[0] + both[1]

    def least_squares_dual(self) -> tuple[np.ndarray, np.ndarray]:
        """y0 with A*(y0) = r_Q + r_P - Pi_P r_Q, where r_S = A_S*(target) / l^|S|
        solves condition S alone with least norm and Pi_S = A_S* A_S / l^|S|.
        The Pi_S commute, so for consistent conditions this is the least-norm
        matrix meeting both."""
        rho, sigma = self.rhs
        l, t, s = self.level, self.qset.size, self.pset.size
        overlap = trace_out(trace_out_adjoint(rho, self.qset, l), self.pset, l)
        return rho / l**t, sigma / l**s - overlap / l ** (s + t)

    def consistency_residual(self) -> float:
        """Distance from b to the range of A: zero iff some matrix meets both conditions."""
        return float(frobenius_norm(self.mismatch)) / self.scale

    def inconsistency_certificate(self) -> tuple[np.ndarray, np.ndarray]:
        """lam with A*(lam) = 0 and <b, lam> = -||mismatch||^2."""
        l = self.level
        return (
            -trace_out_adjoint(self.mismatch, self._rest[0], l),
            trace_out_adjoint(self.mismatch, self._rest[1], l),
        )

    def certify(self, lam) -> tuple[float, float]:
        """(margin, bound) of a Farkas candidate lam.

        lam' = lam + c (I, 0), c = max(0, -lambda_min(A* lam)), has A*(lam')
        PSD, so every PSD X has <A(X) - b, lam'> >= margin := -<b, lam'> and
        ||A(X) - b|| >= bound := margin / ||lam'||.  ``_PairDecider.decide``
        accepts lam only when the bound exceeds its step's threshold, feas_tol
        or the consistency step's, far above any rounding error.
        """
        rho, sigma = self.rhs
        shift = max(0.0, -float(eigensolve(np.linalg.eigvalsh, self.adjoint(self.pack(lam)))[0]))
        lam_q = lam[0] + shift * np.eye(len(rho))
        margin = -float(np.vdot(rho, lam_q).real + np.vdot(sigma, lam[1]).real)
        norm = math.hypot(frobenius_norm(lam_q), frobenius_norm(lam[1]))
        return margin, (margin / norm if norm else 0.0)


def member_ins_del(
    sigma: DensityMatrix,
    rho: DensityMatrix,
    s: int,
    t: int,
    tol: Tolerance = Tolerance(),
) -> bool:
    """Exact decision of sigma in I^t(D^s(rho)): the one-pair case of
    ``_members_ins_del``.

    Membership holds iff the t-deletion sphere of sigma meets the s-deletion
    sphere of rho, which is a finite comparison.
    """
    return _members_ins_del(sigma.shape, sigma.mat[None], rho.shape, rho.mat[None], s, t, tol)[0]


def _members_ins_del(sigma_shape, sigmas, rho_shape, rhos, s: int, t: int, tol: Tolerance) -> list[bool]:
    """Whether each state of the ``(k, d, d)`` stack ``sigmas``, of
    ``sigma_shape``, lies in I^t(D^s) of the same row of ``rhos``, of
    ``rho_shape``: ``member_ins_del`` of each pair, in one batched comparison.

    The shapes are checked once (``_check_composed``, and s at most rho's
    length).  Level t of the sigmas and level s of the rhos, with the masks
    of their kept rows, come from ``_dedup_levels``, the dedup
    ``deletion_sphere`` reads.  The pairs, sigma i with rho i, are decided
    by one ``channels.pairs_meet`` call, at eq_tol of the common dimension,
    over the kept rows only, so each verdict is the one
    ``deletion_sphere(sigma, t).intersection_witness(deletion_sphere(rho, s))``
    reads.
    """
    _check_composed(sigma_shape, rho_shape, s, t, most_s=rho_shape.length)
    left = next(_dedup_levels(_traced_levels(sigmas, sigma_shape, t), tol))
    right = next(_dedup_levels(_traced_levels(rhos, rho_shape, s), tol))
    order = np.arange(len(sigmas))
    return pairs_meet(left, right, (order, order)).tolist()


class _PairDecider:
    """sigma in D_P(I_Q(rho)) for row i of the stack ``sigmas``, row j of
    ``rhos`` and any (P, Q) of s and t positions, its shapes, counts and
    lifted dimension checked once.  Each subset a pair traces from one side
    (``_rests``) is traced once, by one ``trace_out`` over that side's stack,
    each row with the bits of its lone call; each state is decomposed once,
    on its first pair that reaches the face, the pair's two states of one
    shape by one stacked call, each row with the bits of its lone call, and a
    refused state raises its lone call's error.  When both sides are one
    stack of one shape, its marginals and kernels are kept once, by row and
    subset."""

    def __init__(self, sigma_shape: QuditShape, sigmas, rho_shape: QuditShape, rhos, s, t, tol: Tolerance):
        _check_composed(sigma_shape, rho_shape, s, t)
        self.ambient, self.level, self.s, self.t, self.tol = rho_shape.length + t, rho_shape.level, s, t, tol
        if self.level**self.ambient > MAX_DIM:
            raise SizeCapExceeded(f"lifted dimension {self.level ** self.ambient} exceeds cap {MAX_DIM}")
        self.shapes, self.stacks = (sigma_shape, rho_shape), (sigmas, rhos)  # side 0 is sigma's, 1 rho's
        # one stack on both sides (a code against itself) is traced and decomposed once
        self._sources = (0, 0) if sigmas is rhos and sigma_shape == rho_shape else (0, 1)
        self._marginals, self._kernels = {}, {}  # by (source, subset) and by (source, row)

    def _marginal(self, side: int, row: int, rest: IndexSet) -> np.ndarray:
        key = self._sources[side], rest
        if key not in self._marginals:
            self._marginals[key] = trace_out(self.stacks[side], rest, self.level)
        return self._marginals[key][row]

    def _kernels_of(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """I minus the range projectors of rho j and of sigma i.  The states
        not yet decomposed are decomposed by one ``states._spectral_groups``
        call per shape, sigma's first, each row with the bits of its lone
        call; on a refusal each is decomposed alone, in that order, so the
        first refused state raises its lone call's error."""
        missing: dict = {}
        for side, row in ((0, i), (1, j)):
            key = self._sources[side], row
            if key not in self._kernels:
                missing.setdefault(self.shapes[side], {})[key] = self.stacks[side][row]
        for shape, states in missing.items():
            keys, mats = list(states), np.array(list(states.values()))
            try:
                groups = _spectral_groups(mats, shape, self.tol)
            except QindelError:
                _refuse_alone(lambda mat: _spectral_groups(mat, shape, self.tol), mats, lambda mat, message: message)
                raise
            for rows, _, kets in groups:
                for row, ket in zip(rows.tolist(), kets):
                    self._kernels[keys[row]] = np.eye(len(ket)) - ket @ ket.conj().T
        return self._kernels[self._sources[1], j], self._kernels[0, i]

    def decide(self, i: int, j: int, pset: IndexSet, qset: IndexSet) -> FeasibilityReport:
        """Whether sigma i lies in D_P(I_Q(rho j)), by the module docstring's steps.  ``details``
        gives ``consistency_tol``, ``face_dim`` once the face is built (the
        whole space, with no eigensolve, when both kernels are rounding),
        ``newton_steps`` and ``newton_tries``, the dual solve's Gauss–Newton steps and its
        checkpoints (one try each, the last one's Farkas test deciding a dual certificate),
        the ``margin`` of a certificate and the ``reason`` for any verdict but feasible."""
        tol, (rest_rho, rest_sigma) = self.tol, _rests(qset, pset)
        mismatch = self._marginal(1, j, rest_rho) - self._marginal(0, i, rest_sigma)
        affine = AffineConstraint(self.level, self.stacks[1][j], qset, self.stacks[0][i], pset, mismatch)
        details: dict = {}

        def verdict(status, gap, evaluations=0, reason=None, witness=None, lam=None):
            if reason is not None:
                details["reason"] = reason
            return FeasibilityReport(status, witness, gap, evaluations, details, lam)

        def certified(lam, reason: str, threshold: float, evaluations: int = 0, checked=None):
            margin, bound = checked or affine.certify(lam)
            if bound <= threshold:
                return None
            details["margin"] = margin
            return verdict(FeasibilityStatus.INFEASIBLE, bound, evaluations, reason, lam=lam)

        # marginals of dimension d more than eq_tol(d) apart differ, however far below feas_tol
        threshold = min(tol.feas_tol, tol.at(len(affine.mismatch)).eq_tol / affine.scale)
        details["consistency_tol"] = threshold
        if affine.consistency_residual() > threshold:
            report = certified(affine.inconsistency_certificate(), "affine constraints inconsistent", threshold)
            if report is not None:
                return report

        # a feasible tau is orthogonal to the lifted kernels of rho and sigma, so
        # it lives on the null space of their sum M
        kernels = self._kernels_of(i, j)
        # if no eigenvalue is at most face_tol, the certificate below has margin
        # above face_tol and norm at most sqrt(m_rho + m_sigma): its bound clears feas_tol
        face_tol = 2 * tol.feas_tol * math.sqrt(len(kernels[0]) + len(kernels[1]))
        # ||A*(kernels)|| <= sqrt(l^t) ||K_rho|| + sqrt(l^s) ||K_sigma||; for states of full rank,
        # whose kernels are rounding, it is far below face_tol, and so is every eigenvalue: the
        # face is the whole space without an eigensolve
        reach = sum(math.sqrt(self.level**S.size) * frobenius_norm(K) for S, K in zip((qset, pset), kernels))
        if 2 * reach <= face_tol:
            face, details["face_dim"] = None, self.level**self.ambient
        else:
            w, v = eigensolve(np.linalg.eigh, affine.adjoint(affine.pack(kernels)))
            face_dim = details["face_dim"] = int(np.searchsorted(w, face_tol, side="right"))
            if face_dim == 0:
                lam = (kernels[0] - w[0] * np.eye(len(kernels[0])), kernels[1].copy())  # the report's own arrays
                report = certified(lam, "empty face", tol.feas_tol)
                return report or verdict(FeasibilityStatus.INCONCLUSIVE, 0.0, 0, "certificate failed its re-check")
            face = v[:, :face_dim] if face_dim < len(w) else None
        outcome, payload, evaluations, residual, details["newton_steps"], details["newton_tries"] = _dual_solve(
            affine, face, tol.feas_tol
        )
        if outcome == "witness":
            mat = hermitian_part(payload)
            images = affine.unpack(affine.apply(mat))
            residuals = [float(frobenius_distance(r, b)) for r, b in zip(images, affine.rhs)]
            if max(residuals) <= tol.feas_tol:
                details["constraint_residuals"] = residuals
                witness = DensityMatrix(QuditShape(self.level, self.ambient), mat)
                return verdict(FeasibilityStatus.FEASIBLE, math.hypot(*residuals), evaluations, witness=witness)
            payload = "witness failed its re-check"
        elif outcome == "certificate":
            lam, checked = payload
            return certified(lam, "dual certificate", tol.feas_tol, evaluations, checked)
        return verdict(FeasibilityStatus.INCONCLUSIVE, residual, evaluations, payload)

    def member(self, i: int, j: int) -> FeasibilityReport:
        """Whether sigma i lies in D^s(I^t(rho j)), by ``decide`` over the (P, Q)
        pairs: feasible at the first feasible pair; otherwise inconclusive if any
        pair is, else infeasible, with the least gap.  ``details["pairs"]`` lists each."""
        pairs, iterations = [], 0
        for P, Q in product(*(combinations(range(1, self.ambient + 1), k) for k in (self.s, self.t))):
            report = self.decide(i, j, IndexSet(P, self.ambient), IndexSet(Q, self.ambient))
            iterations += report.iterations
            pairs.append({"P": list(P), "Q": list(Q), "status": report.status.value, "gap": report.gap,
                          **report.details})
            if report.status is FeasibilityStatus.FEASIBLE:
                report.iterations = iterations
                report.details["pairs"] = pairs
                return report
        inconclusive = any(pair["status"] == FeasibilityStatus.INCONCLUSIVE for pair in pairs)
        status = FeasibilityStatus.INCONCLUSIVE if inconclusive else FeasibilityStatus.INFEASIBLE
        return FeasibilityReport(status, None, min(pair["gap"] for pair in pairs), iterations, {"pairs": pairs})


def feasibility_del_ins(
    sigma: DensityMatrix, rho: DensityMatrix, P, Q, tol: Tolerance = Tolerance()
) -> FeasibilityReport:
    """Decide sigma in D_P(I_Q(rho)): is there a PSD tau with D_Q(tau) = rho
    and D_P(tau) = sigma?  The one-pair case of ``_PairDecider.decide``."""
    qset = _insertion_set(Q, rho.length)
    pset = _as_index_set(P, qset.ambient)
    decider = _PairDecider(sigma.shape, sigma.mat[None], rho.shape, rho.mat[None], pset.size, qset.size, tol)
    return decider.decide(0, 0, pset, qset)


def _dual_solve(affine: AffineConstraint, face: np.ndarray | None, feas_tol: float):
    """L-BFGS with Armijo backtracking on theta(y) = 1/2 ||Pi_+(U^dagger A*(y) U)||^2
    - <b, y>, U the face basis (None: the whole space), from the least-squares dual.
    The curvature memory is kept in compact form and updated one pair at a
    time (``_CurvatureMemory``), so a search direction takes no solve.

    The gradient is A(tau) - b with tau = U Pi_+(...) U^dagger, so a small one
    makes tau a witness; if theta is unbounded below, -y / ||y|| tends to a
    Farkas certificate.  Dual points are real vectors, the (Re, Im) parts of
    the packed (y_Q, y_P) that ``apply`` returns and ``adjoint`` takes, kept
    in ``pack`` buffers, whose pad ``adjoint`` reads in place: a trial point
    is written into one, and an accepted one swaps with it.  An evaluation is
    one ``eigh`` and a fixed handful of array calls: the positive part is the
    top of the ascending spectrum, as views, and theta reads w @ w.  A step
    makes three products with the memory: two for the direction, one for
    the push.

    The solve checks its progress at checkpoints: the first evaluation
    count of at least ``NEWTON_AFTER``, then the first of at least
    ``NEWTON_AFTER`` times the last checkpoint's count (4, 16, 64, ...), so
    a long solve has only logarithmically many, and a stop (the iteration
    cap or a second failed line search).  At each, ``_newton_finish`` first
    tries Gauss–Newton steps on the factor R of tau = R R^dagger from the
    accepted point's positive part: once the dual has found the witness's
    rank, the steps converge fast where L-BFGS crawls (ranks near sqrt(d)).
    A try that meets the witness test returns its tau.  Otherwise the
    candidate -y / ||y|| goes to ``certify``, and is returned if its bound
    clears feas_tol.  Otherwise a stop returns "stopped", and any other
    checkpoint leaves L-BFGS to go on from its own state, which neither
    test changed.  A certified bound
    above feas_tol and a witness within it cannot both hold, so neither
    test decides a pair that the other would have decided otherwise.
    Returns (outcome, payload, evaluations, residual, steps, tries), outcome
    "witness" (tau), "certificate" (lam and its ``certify`` result, whose
    bound clears feas_tol) or "stopped" (why), and steps and tries the
    Gauss–Newton steps and tries taken.
    """
    b = affine.pack(affine.rhs)[:-1].view(float)
    face_h = None if face is None else face.conj().T

    def evaluate(z, y):
        x = affine.adjoint(z)
        if face is not None:
            x = face_h @ x @ face
        w, v = eigensolve(np.linalg.eigh, x)
        k = w.searchsorted(0.0, "right")  # the positive part is the top of the ascending spectrum
        w = w[k:]
        root = v[:, k:] * np.sqrt(w)
        if face is not None:
            root = face @ root
        grad = affine.apply(root @ root.conj().T).view(float)
        grad -= b
        return float(0.5 * (w @ w) - b @ y), grad, root

    point = affine.pack(affine.least_squares_dual())
    trial = np.zeros_like(point)
    y, y_trial, step = point[:-1].view(float), trial[:-1].view(float), np.empty(len(b))
    f, g, root = evaluate(point, y)
    # 1 / ||A||^2: a safe gradient step before any curvature is known
    step0 = 1.0 / (affine.level**affine.qset.size + affine.level**affine.pset.size)
    memory = _CurvatureMemory(len(y))
    evaluations, failures, steps, tries, checkpoint = 0, 0, 0, 0, NEWTON_AFTER
    while True:
        residual = math.sqrt(g @ g)  # np.linalg.norm's own formula for a real vector
        if residual <= feas_tol / 2:
            return "witness", root @ root.conj().T, evaluations, residual, steps, tries
        stop = "line search failed" if failures == 2 else None
        stop = "iteration cap reached" if evaluations >= MAX_ITERATIONS else stop
        if stop or evaluations >= checkpoint:  # a try, then a Farkas test: neither moves the L-BFGS state
            checkpoint, tries = NEWTON_AFTER * evaluations, tries + 1
            tau, taken, finished = _newton_finish(affine, root, b, feas_tol)
            steps += taken
            if tau is not None:
                return "witness", tau, evaluations, finished, steps, tries
            lam = affine.unpack((-y / (float(np.linalg.norm(y)) or 1.0)).view(complex))
            checked = affine.certify(lam)
            if checked[1] > feas_tol:
                return "certificate", (lam, checked), evaluations, residual, steps, tries
            if stop:
                return "stopped", stop, evaluations, residual, steps, tries
        direction = memory.direction(g, step0)
        slope = float(g @ direction)
        if slope >= 0:
            memory.clear()
            direction = -step0 * g
            slope = float(g @ direction)
        slope, alpha = 1e-4 * slope, 1.0
        while True:
            np.multiply(direction, alpha, out=step)
            np.add(y, step, out=y_trial)
            f_new, g_new, root_new = evaluate(trial, y_trial)
            evaluations += 1
            if f_new <= f + alpha * slope or alpha < 1e-10 or evaluations >= MAX_ITERATIONS:
                break
            alpha /= 2
        if f_new > f + alpha * slope:
            failures += 1
            memory.clear()
            continue
        g_vec = g_new - g
        if step @ g_vec > 1e-12 * (g_vec @ g_vec):
            memory.push(step, g_vec)
        point, trial, y, y_trial = trial, point, y_trial, y
        f, g, root = f_new, g_new, root_new


def _newton_finish(affine: AffineConstraint, root: np.ndarray, b: np.ndarray, feas_tol: float):
    """Min-norm Gauss–Newton steps on F(R) = A(R R^dagger) - b from the
    factor ``root`` of the dual's primal point (Burer & Monteiro, 2003),
    less its columns of weight below ``NEWTON_KEEP`` times the largest.

    J dR = A(dR R^dagger + R dR^dagger) is F's Jacobian at R, J^*(y) = 2
    A*(y) R and J J^* = 2 N, N = ``_normal_maps``' normal matrix at tau =
    R R^dagger.  So the least-norm solution of J dR = -F is dR = A*(y) R,
    y the solution of N y = -F: one LU solve of W N, built by one bincount
    in real coordinates, with a small shift on its diagonal for the null
    directions of the shared marginal.  Returns (tau, steps, residual) once
    ||F|| <= feas_tol / 2, the dual's own witness test, else (None, steps, residual) after
    ``NEWTON_STEPS`` steps, or sooner once a step does not shrink ||F||.
    """
    cells, gather, weights, coordinates, real_of, imag_of = _normal_maps(affine.level, affine.qset, affine.pset)
    # a column of negligible weight is a rank the witness lacks: Gauss–Newton shrinks it only linearly
    norms = np.einsum("ij,ij->j", root.conj(), root).real
    root = root[:, norms >= NEWTON_KEEP * norms.max(initial=0.0)]
    size = len(weights)
    diagonal, signs = np.diag_indices(size), np.array([[1.0], [-1.0], [2.0], [-2.0]])
    best, steps = math.inf, 0
    while True:
        tau = root @ root.conj().T
        image = affine.apply(tau)
        misfit = image.view(float) - b
        residual = math.sqrt(misfit @ misfit)
        if residual <= feas_tol / 2:
            return tau, steps, residual
        if steps == NEWTON_STEPS or not residual < best:
            return None, steps, residual
        best, steps = residual, steps + 1
        source = (signs * np.concatenate([tau.ravel(), image]).view(float)).ravel()
        matrix = np.bincount(cells, source[gather], minlength=size * size).reshape(size, size)
        matrix[diagonal] += 1e-12 * math.fsum(matrix[diagonal]) / size
        try:
            u = np.linalg.solve(matrix, -misfit[coordinates] * weights)
        except np.linalg.LinAlgError:  # singular to working precision: no step
            return None, steps, residual
        u = np.concatenate([u, -u, [0.0]])
        root = root + affine.adjoint(u[real_of] + 1j * u[imag_of]) @ root


class _CurvatureMemory:
    """The last ``MEMORY`` L-BFGS pairs (s, y) in the compact form of Byrd,
    Nocedal and Schnabel (1994), kept up to date one pair at a time.

    The pairs are interleaved in one buffer W, s_i in row 2i and y_i in row
    2i + 1; pairs ``start`` to ``start + count`` are held, oldest first.
    With R the upper triangle of S Y^T, the same window of ``r_inv``, ``yy``
    and ``sy`` holds R^-1, Y Y^T and diag(R).  A push adds a row and column
    to each in O(m n + m^2), reading S y, Y y, s^T y and y^T y off one
    product W y, and slides the window past the oldest pair once the memory
    is full: R[1:, 1:]^-1 is R^-1[1:, 1:] for a triangular R, so nothing is
    refactored.  A direction is W g, O(m^2) algebra on its two halves and one
    c W: two gemvs.  The buffers hold two memories' worth of pairs, so the
    window is copied back to the front once every ``MEMORY`` pushes.
    """

    def __init__(self, n: int):
        size = 2 * MEMORY
        self.W = np.empty((2 * size, n))
        # only the upper triangle of r_inv is ever written: the rest stays 0
        self.r_inv, self.yy, self.sy = np.zeros((size, size)), np.empty((size, size)), np.empty(size)
        self.start = self.count = 0

    def clear(self) -> None:
        self.start = self.count = 0

    def push(self, s: np.ndarray, y: np.ndarray) -> None:
        if self.count == MEMORY:
            self.start, self.count = self.start + 1, self.count - 1
        a, k = self.start, self.start + self.count
        if k == len(self.sy):
            self.W[: 2 * (k - a)] = self.W[2 * a : 2 * k]
            self.sy[: k - a] = self.sy[a:k]
            for block in (self.r_inv, self.yy):
                block[: k - a, : k - a] = block[a:k, a:k]
            a, k, self.start = 0, k - a, 0
        self.W[2 * k], self.W[2 * k + 1] = s, y
        products = self.W[2 * a : 2 * k + 2] @ y  # S y and Y y interleaved, then s^T y and y^T y
        sy = self.sy[k] = products[-2]
        # [[R, S y], [0, sy]]^-1 = [[R^-1, -R^-1 S y / sy], [0, 1 / sy]]
        self.r_inv[a:k, k] = self.r_inv[a:k, a:k] @ products[:-2:2] / -sy
        self.r_inv[k, k] = 1 / sy
        self.yy[k, a:k] = self.yy[a:k, k] = products[1:-2:2]
        self.yy[k, k] = products[-1]
        self.count += 1

    def direction(self, g: np.ndarray, step0: float) -> np.ndarray:
        """-H g, H the L-BFGS inverse Hessian with gamma I as its seed, gamma
        = s^T y / y^T y of the newest pair; -step0 g with no pair held."""
        if not self.count:
            return -step0 * g
        a, k = self.start, self.start + self.count
        W, r_inv = self.W[2 * a : 2 * k], self.r_inv[a:k, a:k]
        gamma = float(self.sy[k - 1] / self.yy[k - 1, k - 1])
        products = W @ g  # S g and Y g, interleaved
        u = r_inv @ products[::2]
        p = (self.sy[a:k] * u + gamma * (self.yy[a:k, a:k] @ u - products[1::2])) @ r_inv
        # -(gamma g + p S - gamma u Y) as one product with W
        np.negative(p, out=products[::2])
        np.multiply(u, gamma, out=products[1::2])
        return products @ W - gamma * g


def member_del_ins(
    sigma: DensityMatrix, rho: DensityMatrix, s: int, t: int, tol: Tolerance = Tolerance()
) -> FeasibilityReport:
    """Decide sigma in D^s(I^t(rho)) as a disjunction of per-(P, Q)
    feasibility: the one-state-pair case of ``_PairDecider.member``."""
    return _PairDecider(sigma.shape, sigma.mat[None], rho.shape, rho.mat[None], s, t, tol).member(0, 0)


def check_containment_trial(
    rho: DensityMatrix,
    seed: int,
    s: int,
    t: int,
    tol: Tolerance = Tolerance(),
) -> bool:
    """Apply one random interleaving of s deletions and t insertions to rho
    and test the resulting state for I^t(D^s(rho)) membership: the one-trial
    case of ``check_containment_trials``, its moves and samples drawn from
    ``default_rng(seed)``."""
    return check_containment_trials([rho], seed, s, t, tol)[0]


def _trial_counts(value, what: str, lengths: list, bounded: bool) -> list[int]:
    """One count per trial: ``value`` for every trial, or ``value[i]`` for
    trial i.  Each is a nonnegative integer (``CountOutOfRange``), at most
    its trial's length ``lengths[i]`` where ``bounded``; one per trial, or
    ``ShapeMismatch``.  The trials are checked in order, so a refusal names
    the first trial at fault, ``... of trial i``."""
    if np.ndim(value) == 0:
        most = min(lengths, default=None) if bounded else None
        return [_count(value, what, most=most)] * len(lengths)
    values = list(value)
    if len(values) != len(lengths):
        raise ShapeMismatch(f"{len(lengths)} states but {len(values)} values of {what}")
    bounds = lengths if bounded else [None] * len(lengths)
    return [_count(v, f"{what} of trial {i}", most=most) for i, (v, most) in enumerate(zip(values, bounds))]


def _below(u: np.ndarray, k) -> np.ndarray:
    """floor(u * k): an integer in [0, k) for each u in [0, 1), since the
    rounded product of a double below 1 and an integer k < 2**53 is below k."""
    return np.floor(u * k).astype(int)


def check_containment_trials(
    rhos,
    seed,
    s,
    t,
    tol: Tolerance = Tolerance(),
) -> list[bool]:
    """Apply one random interleaving of s deletions and t insertions to each
    ``rhos[i]``, all drawn from one generator ``default_rng(seed)``, and
    test each result for I^t(D^s(rhos[i])) membership.  Any composite of s
    deletions and t insertions lands inside the insertions-after-deletions
    sphere, so every verdict must come back true.  ``s`` and ``t`` are one
    count for every trial, or one count per trial.  The states are unwrapped
    once, for ``_containment_trials``, which runs the trials.

    The seed and every count must be nonnegative integers, and each s at
    most its rho's length (``CountOutOfRange``); a per-trial ``s`` or ``t``
    must have one count per trial (``ShapeMismatch``).
    """
    rhos = list(rhos)
    return _containment_trials([rho.shape for rho in rhos], [rho.mat for rho in rhos], seed, s, t, tol)


def _containment_trials(shapes, mats, seed, s, t, tol: Tolerance) -> list[bool]:
    """``check_containment_trials`` of the states ``mats[i]``, bare
    matrices of ``shapes[i]``; none is wrapped as a state.

    Before the first step, one ``rng.random((3, trials, steps))`` call
    draws every trial's coin, position and sample count for every step, as
    uniform floats u mapped to integers by floor(u * k) (``_below``).  At
    each step a trial with both kinds of move left inserts on a coin of 1
    and deletes on 0; one with one kind left makes that move.  A deletion
    removes qudit 1 + floor(u * n) of the trial's n qudits, an insertion
    inserts at 1 + floor(u * (n + 1)) and keeps the last of 1 + floor(2u)
    samples.  The trials run in lockstep, one move each per step, and a
    trial whose moves are done sits out the later steps.  The deletions of
    one step are one ``trace_out`` call per (shape, position) group, on the
    stack of its states, each result the bits of that state's lone
    ``partial_trace``.  The insertions of one step are one
    ``_sample_batch`` call on the batch's generator, its requests in trial
    order, so the samples are those of one-request calls made trial by
    trial; it decomposes their sources with one checked
    ``states._spectral_groups`` call per shape, draws their blocks in one
    pass, checks each (rank, level, t) draw group with one ``_check_blocks``
    call and builds each source shape's insertions with one
    ``_insert_stack`` call.  Every sample is checked and built, the
    discarded ones too; each source shape's kept ones are then copied into
    one fresh read-only stack, so no build's stack outlives its step.  A
    block or build error names the trial's index and the step.  The final
    memberships are one ``_members_ins_del`` call per (s, t, final shape,
    source shape) group, each verdict the one ``member_ins_del`` gives.
    """
    rng = np.random.default_rng(_count(seed, "seed"))
    lengths = [shape.length for shape in shapes]
    ss = _trial_counts(s, "deletion count s", lengths, bounded=True)
    ts = _trial_counts(t, "insertion count t", lengths, bounded=False)
    left_s, left_t = np.array(ss, dtype=int), np.array(ts, dtype=int)  # moves left per trial
    lengths = np.array(lengths, dtype=int)
    coins, spots, sizes = rng.random((3, len(mats), int((left_s + left_t).max(initial=0))))
    sources, rho_shapes = mats, shapes
    mats, shapes = list(mats), list(shapes)  # each trial's state
    shape_of = cache(QuditShape)  # shared by the trials
    for step in range(1, coins.shape[1] + 1):
        moving = left_s + left_t > 0
        deletes = (left_s > 0) & ~((left_t > 0) & (_below(coins[:, step - 1], 2) == 1))
        positions = 1 + _below(spots[:, step - 1], lengths + ~deletes)  # n qudits, n + 1 gaps
        how_many = 1 + _below(sizes[:, step - 1], 2)
        left_s -= moving & deletes
        left_t -= moving & ~deletes
        lengths += moving * np.where(deletes, -1, 1)
        requests, names, inserting, deleting = [], [], {}, {}
        moves = (np.flatnonzero(moving), deletes[moving], positions[moving], how_many[moving], lengths[moving])
        for i, deleted, position, count, length in zip(*(column.tolist() for column in moves)):
            if deleted:
                deleting.setdefault((shapes[i], position), []).append(i)
            else:
                inserting.setdefault(shapes[i], []).append((len(requests), i))
                requests.append((shapes[i], mats[i], _one_position(position, length), count))
                names.append(f"trial {i}, step {step}: ")
        for (shape, p), group in deleting.items():
            reduced = trace_out(np.array([mats[i] for i in group]), _one_position(p, shape.length), shape.level)
            reduced.setflags(write=False)  # every trial state is read-only, as the sources and samples are
            shape = shape_of(shape.level, shape.length - 1)
            for i, mat in zip(group, reduced):
                mats[i], shapes[i] = mat, shape
        samples = _sample_batch(requests, rng, tol, names)
        for shape, group in inserting.items():
            # the kept samples, copied into one fresh read-only stack; a
            # build's stack, with the samples discarded, goes with its last view
            kept = np.array([samples[k][-1] for k, _ in group])
            kept.setflags(write=False)
            shape = shape_of(shape.level, shape.length + 1)
            for (k, i), mat in zip(group, kept):
                mats[i], shapes[i], samples[k] = mat, shape, None
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(ss, ts, shapes, rho_shapes)):
        groups.setdefault(key, []).append(i)
    verdicts: list = [None] * len(mats)
    for (s_k, t_k, shape, rho_shape), group in groups.items():
        sigmas, rhos = np.array([mats[i] for i in group]), np.array([sources[i] for i in group])
        for i, verdict in zip(group, _members_ins_del(shape, sigmas, rho_shape, rhos, s_k, t_k, tol)):
            verdicts[i] = verdict
    return verdicts
