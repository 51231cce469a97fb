"""Dense complex-matrix arithmetic and Hermitian/PSD machinery.

Everything downstream (states, channels, feasibility, distances) is built on
the handful of operations here.  All functions are pure and accept anything
``np.asarray`` can turn into a complex matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidTolerance, NoConvergence, NonSquare, NotHermitian, QindelError, ShapeMismatch
from .errors import ValidationError

__all__ = [
    "Tolerance",
    "cross_distances",
    "eigensolve",
    "frobenius_distance",
    "frobenius_norm",
    "hermitian_part",
    "hermitian_eigensystem",
    "is_psd",
    "project_psd",
    "psd_principal_minors",
]


@dataclass(frozen=True)
class Tolerance:
    """Numeric slack for equality, PSD and feasibility decisions.

    eq_tol    Frobenius-distance threshold below which two matrices count as
              equal; unset (None): 1e-9*sqrt(dim).
    psd_tol   eigenvalue floor: min eigenvalue >= -psd_tol still counts as PSD;
              unset (None): 1e-9*dim.
    feas_tol  largest Frobenius miss of each condition a feasibility witness
              may have; a certificate must show that every PSD matrix misses
              them by more.  The consistency step reads the smaller of
              feas_tol and eq_tol at the common marginal's dimension.

    ``dim`` is the order of the matrices a check compares, so one object
    passed down a call chain gives every check its own dimension's defaults:
    each check resolves it with ``at``.  A field that is set applies at every
    dimension.  Constructed states carry only rounding error, which grows
    with the dimension.
    """

    eq_tol: float | None = None
    psd_tol: float | None = None
    feas_tol: float = 1e-6

    def __post_init__(self) -> None:
        # each field that is set is stored as a float; a bool, string, complex value or array is refused
        for name, positive in (("eq_tol", False), ("psd_tol", False), ("feas_tol", True)):
            value = getattr(self, name)
            if value is None and not positive:
                continue
            if type(value) is not float:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise InvalidTolerance(f"{name} must be a real number, got {value!r}")
                object.__setattr__(self, name, float(value))
            if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
                sign = "positive" if positive else "nonnegative"
                raise InvalidTolerance(f"{name} must be finite and {sign}, got {value!r}")

    def at(self, dim: int) -> "Tolerance":
        """This tolerance with every unset field given its value at ``dim``."""
        if self.eq_tol is not None and self.psd_tol is not None:
            return self
        return Tolerance(
            self.eq_tol if self.eq_tol is not None else 1e-9 * math.sqrt(dim),
            self.psd_tol if self.psd_tol is not None else 1e-9 * dim,
            self.feas_tol,
        )

    def to_json_obj(self) -> dict:
        """Each field's value, or the rule that gives it at each dimension."""
        return {
            "eq_tol": self.eq_tol if self.eq_tol is not None else "1e-9*sqrt(dim)",
            "psd_tol": self.psd_tol if self.psd_tol is not None else "1e-9*dim",
            "feas_tol": self.feas_tol,
        }


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def frobenius_norm(a) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a ``(..., m, n)`` stack:
    the package's one Frobenius reduction, behind every distance and residual
    a verdict reads.  It sums the squared entries (a distance read off Gram
    products would cancel below eq_tol; the projections of
    ``channels._near_pairs`` only rule pairs out) and reads ``inf``, without
    a warning, past the float range.

    The squares are a fresh aligned array with contiguous rows, and
    ``np.add.reduce`` sums each matrix's row of them whole, by numpy's
    pairwise summation (Higham, SIAM J. Sci. Comput. 14, 1993), in an order
    fixed by the row's length alone: each matrix gets the bits of its lone
    call, whatever the stack around it, its memory layout or its address."""
    a = _as_complex(a)
    flat = a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1]).view(float)
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(np.square(flat), axis=-1))


def frobenius_distance(a, b) -> float | np.ndarray:
    """``frobenius_norm(a - b)`` of two matrices, or of two same-shape stacks
    matrix by matrix (``ShapeMismatch`` otherwise); ``inf``, without a
    warning, where the difference itself leaves the float range."""
    a, b = _as_complex(a), _as_complex(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    with np.errstate(over="ignore"):
        return frobenius_norm(a - b)


_CHUNK = 1 << 16  # largest temporary, in complex entries, of ``cross_distances``
# largest temporary spanning several batch entries: a batch of small stacks
# then adds no more than this (64 KiB) to the peak memory of its caller
_BATCH_CHUNK = 1 << 12


def cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs Frobenius distances of two ``(..., k, d, d)`` stacks with the
    same leading batch axes: a ``(..., ka, kb)`` array of
    ``frobenius_norm(a[..., i, :, :] - b[..., j, :, :])``, each batch entry's
    pairs on their own.  The pairs are taken in blocks of at most ``_CHUNK``
    complex entries (one pair always fits: the dimension cap is 256, and
    256**2 = _CHUNK), and a block spans several batch entries only within
    ``_BATCH_CHUNK``.  Each entry is ``frobenius_distance`` of its pair, bit
    for bit, whatever block it falls in."""
    batch, (ka, d1, d2), kb = a.shape[:-3], a.shape[-3:], b.shape[-3]
    count = math.prod(batch)
    a, b = a.reshape(count, ka, d1, d2), b.reshape(count, kb, d1, d2)
    size = d1 * d2
    out = np.empty((count, ka, kb))
    cols = max(1, min(kb, _CHUNK // size))
    rows = max(1, min(ka, _CHUNK // (cols * size)))
    mats = max(1, min(count, _BATCH_CHUNK // (rows * cols * size)))
    diff = np.empty((mats, rows, cols, d1, d2), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, as the norm of a NaN pair reads
        for m in range(0, count, mats):
            for i in range(0, ka, rows):
                for j in range(0, kb, cols):
                    block = diff[: min(mats, count - m), : min(rows, ka - i), : min(cols, kb - j)]
                    np.subtract(a[m : m + mats, i : i + rows, None], b[m : m + mats, None, j : j + cols], out=block)
                    out[m : m + mats, i : i + rows, j : j + cols] = frobenius_norm(block)
    return out.reshape(*batch, ka, kb)


_HALF_MAX = np.finfo(float).max / 2


def hermitian_part(a) -> np.ndarray:
    """(a + a†)/2; removes rounding drift without changing Hermitian inputs.
    Leading axes are a batch.  The sum is halved, which keeps subnormal
    entries exact, unless an entry of the matrix is large enough for the sum
    to overflow: then each of its terms is halved first.  The choice is made
    per matrix, so each matrix of a stack gets the bits it gets alone.
    With no modulus above ``_HALF_MAX`` (as no part above ``_HALF_MAX`` / 2
    shows, with no ``np.abs`` pass), a is added into its conjugate
    transpose, the one array made, and the sum halved in place."""
    a = _as_complex(a)
    h = np.conjugate(a.swapaxes(-1, -2), order="C")
    parts = h.view(float)
    # NaN fails both tests
    if max(parts.max(initial=0.0), -parts.min(initial=0.0)) <= _HALF_MAX / 2 or np.abs(a).max(initial=0.0) <= _HALF_MAX:
        h += a  # b + a: the bits of a + b
        h /= 2
        return h
    b = a.conj().swapaxes(-1, -2)
    large = np.abs(a).max(axis=(-2, -1), initial=0.0) > _HALF_MAX
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing sums are discarded
        return np.where(large[..., None, None], a / 2 + b / 2, (a + b) / 2)


def _require_finite(a: np.ndarray) -> None:
    # an explicit test before any arithmetic: NaN and inf raise no warning
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")


def _matrix_name(a: np.ndarray, k: int) -> str:
    """"matrix" for a lone matrix; "matrix i", or "matrix (i, j, ...)" with
    more than one batch axis, for row ``k`` of a flattened stack."""
    if a.ndim == 2:
        return "matrix"
    index = tuple(int(i) for i in np.unravel_index(k, a.shape[:-2]))
    return f"matrix {index[0] if len(index) == 1 else index}"


def _require_hermitian(a, tol: Tolerance) -> np.ndarray:
    """The one check of a matrix, or a ``(..., d, d)`` stack of them, that
    the package did not build, in order: square (``NonSquare``), finite
    (``ValidationError``), Hermitian within eq_tol at d (``NotHermitian``,
    with its residual, ``inf`` past the float range).  Returns it
    symmetrized.

    On a stack the first matrix that fails a check is refused, with the
    class and residual its lone call gives and its batch index named.  A
    residual is computed only for the matrices before the first non-finite
    one.

    The finite check reads the largest real or imaginary part, p (NaN if
    any part is).  A finite input's conjugate transpose b is formed once, in
    row order: a - b gives the residual and a + b, summed into the same
    buffer and halved, the result, the bits of ``hermitian_part``.  Where p
    is at most ``_HALF_MAX`` / 2, no entry's modulus (at most sqrt(2) p)
    reaches ``_HALF_MAX``, so ``hermitian_part`` would halve no term first
    and its test needs no pass of its own; above, ``hermitian_part``
    decides.
    """
    a = _as_complex(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonSquare(f"need a square matrix, got shape {a.shape}")
    d = a.shape[-1]
    parts = np.ascontiguousarray(a).view(float)
    peak = max(parts.max(initial=0.0), -parts.min(initial=0.0))  # NaN if any part is: both are
    if not peak < math.inf:
        flat = a.reshape(math.prod(a.shape[:-2]), d, d)
        clean = flat[: int(np.argmin(np.isfinite(flat).all(axis=(1, 2))))]
        _require_residual(a, frobenius_distance(clean, clean.conj().swapaxes(-1, -2)), tol)
        raise ValidationError(f"{_matrix_name(a, len(clean))} has non-finite entries")
    b = np.conjugate(a.swapaxes(-1, -2), order="C")
    if peak > _HALF_MAX / 2:  # a - b can overflow, and a matrix's terms may need halving first
        with np.errstate(over="ignore"):
            _require_residual(a, frobenius_norm(a - b), tol)
        return hermitian_part(a)
    out = a - b  # parts of at most _HALF_MAX / 2: neither a - b nor a + b overflows
    _require_residual(a, frobenius_norm(out), tol)
    np.add(a, b, out=out)
    out /= 2
    return out


def _require_residual(a: np.ndarray, res: np.ndarray, tol: Tolerance) -> None:
    """Refuse the first matrix of ``a`` whose Hermitian residual in ``res``
    exceeds eq_tol at d (``NotHermitian``)."""
    over = res > tol.at(a.shape[-1]).eq_tol
    if over.any():
        k = int(np.argmax(over))
        worst = float(np.ravel(res)[k])
        raise NotHermitian(f"{_matrix_name(a, k)} is not Hermitian (residual {worst:.3e})", worst)


def eigensolve(solver, h):
    """``solver(h)``, a numpy eigensolver (``np.linalg.eigh``, ``eigvalsh``) on a
    matrix or stack Hermitian by construction, with a LAPACK failure or a
    spectrum that leaves the float range (a finite matrix can have one)
    raised as ``NoConvergence``: every eigen-solve runs here.  Unchecked
    matrices go through ``hermitian_eigensystem`` or ``is_psd``."""
    try:
        out = solver(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    w = out[0] if isinstance(out, tuple) else out
    if not np.isfinite(w).all():
        spectra = w.reshape(-1, w.shape[-1])
        k = int(np.argmin(np.isfinite(spectra).all(axis=1)))
        where = "" if w.ndim == 1 else f" for {_matrix_name(h, k)}"
        raise NoConvergence(f"eigensolver returned a non-finite spectrum {spectra[k]}{where}")
    return out


_EPS = np.finfo(float).eps


def _gamma(k: int) -> float:
    """Higham's gamma_k = k eps / (1 - k eps), taken at the machine epsilon
    eps = 2u, which covers complex products and sums."""
    return k * _EPS / (1 - k * _EPS)


def _psd_certified(h: np.ndarray, psd_tol: float) -> bool | np.ndarray:
    """True only if the gated matrix ``h`` (a fresh, writable Hermitian
    copy, such as ``_require_hermitian`` or ``hermitian_part`` returns) is
    shown to have every eigenvalue above -psd_tol with room to spare, by one
    Cholesky factorization and no eigen-solve; for a ``(..., d, d)`` stack,
    that verdict per matrix, from one stacked factorization.

    With c = psd_tol / 2 added to its diagonal, h is factored as R R^H.
    R R^H is then exactly h + cI plus a backward error of 2-norm at most
    gamma_{d+1} ||R||_F^2 (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Thm 10.5; gamma_k = k eps / (1 - k eps) is taken at the
    machine epsilon eps = 2u, which covers complex products), so the least
    eigenvalue of h is at least -c minus that error and the shift's
    rounding.  h is certified when those two and ``eigvalsh``'s own rounding
    (about d eps ||h||_2), bounded together by
    (gamma_{d+1} + (d + 1) eps)(||R||_F^2 + c), stay within c / 2:
    ``eigvalsh`` could then read its least eigenvalue no lower than
    -3c/2 > -psd_tol.  A bound that fails (always, at psd_tol = 0) or a
    non-finite ``R`` means "not certified" for its own matrix, never "not
    PSD".  numpy refuses a whole stack when any matrix of it fails to
    factor: then none is certified.  Each matrix's factor has the bits of
    its lone call.  The diagonal is shifted in place, through a writable
    view, and ``h`` is left as given.
    """
    d, c = h.shape[-1], psd_tol / 2
    diagonal = np.einsum("...ii->...i", h)  # a writable view
    saved = diagonal.copy()
    # a shift or an R past the float range fails the factorization or the bound
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal += c
        try:
            r = np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            return _verdicts(np.zeros(h.shape[:-2], dtype=bool))
        finally:
            diagonal[...] = saved
        return _verdicts((_gamma(d + 1) + (d + 1) * _EPS) * (frobenius_norm(r) ** 2 + c) <= c / 2)


def _least_eigenvalues(h: np.ndarray, psd_tol: float) -> np.ndarray:
    """For the PSD tests of a matrix or a ``(..., d, d)`` stack ``h`` (fresh
    and Hermitian, as ``_psd_certified`` takes it): the least eigenvalue of
    each matrix that ``_psd_certified`` does not clear, from one eigen-solve
    of those matrices only, each the value its lone ``eigvalsh`` gives, and 0
    for each matrix it clears, whose least eigenvalue reads above -psd_tol.
    Every value below -psd_tol is then a matrix's own, and the first or the
    least of them names the matrix a full eigen-solve would.  A refusal
    (``NoConvergence``) names the matrix of ``h`` at fault: none for a lone
    matrix, its batch index in a stack."""
    certified = np.asarray(_psd_certified(h, psd_tol))
    lowest = np.zeros(h.shape[:-2])
    if not certified.all():
        flat, rows = h.reshape(-1, *h.shape[-2:]), np.flatnonzero(~certified)
        try:
            lowest.flat[rows] = eigensolve(np.linalg.eigvalsh, flat[rows])[:, 0]
        except NoConvergence:
            name = (lambda k, m: m) if h.ndim == 2 else (lambda k, m: f"{m} for {_matrix_name(h, k)}")
            _refuse_alone(lambda k: eigensolve(np.linalg.eigvalsh, flat[k]), rows.tolist(), name)
            raise
    return lowest


def _refuse_alone(check, items, rename) -> None:
    """The error path of a stacked check that refused: ``check(item)`` runs
    on each item alone, in order, and the first refusal is raised with the
    class and residual of that lone call and the message
    ``rename(item, message)``.  Returns if no item is refused alone, and the
    caller re-raises its stacked refusal."""
    for item in items:
        try:
            check(item)
        except QindelError as exc:
            exc.args = (rename(item, str(exc)),)
            raise


def hermitian_eigensystem(a, tol: Tolerance = Tolerance()) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and eigenvector matrix of a Hermitian
    matrix, or of each matrix of a ``(..., d, d)`` stack.

    The input is checked square, finite and Hermitian within ``eq_tol`` and
    symmetrized before the solve (``_require_hermitian``), so only rounding
    drift is ever discarded.  Column ``k`` of the returned unitary is the
    eigenvector for eigenvalue ``k``.  Each matrix of a stack gets the bits
    of its lone call.
    """
    return eigensolve(np.linalg.eigh, _require_hermitian(a, tol))


def _verdicts(ok: np.ndarray) -> bool | np.ndarray:
    """A lone matrix's verdict as a bool, a stack's as a bool array."""
    return bool(ok) if ok.ndim == 0 else ok


def is_psd(a, tol: Tolerance = Tolerance()) -> bool | np.ndarray:
    """True iff the Hermitian matrix has min eigenvalue >= -psd_tol; for a
    ``(..., d, d)`` stack, that verdict per matrix.  An empty matrix is PSD.

    One gate (``_require_hermitian``), then ``_least_eigenvalues``: a matrix
    that the Cholesky certificate clears reads above -psd_tol, and any
    other gets the least eigenvalue of its lone ``eigvalsh``."""
    h = _require_hermitian(a, tol)
    psd_tol = tol.at(h.shape[-1]).psd_tol
    return _verdicts(_least_eigenvalues(h, psd_tol) >= -psd_tol)


def project_psd(a, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Frobenius-nearest PSD matrix, of a matrix or of each matrix of a
    stack: clip negative eigenvalues to zero.

    Fixed point for PSD inputs; does not renormalize the trace.
    """
    w, v = hermitian_eigensystem(a, tol)
    w = np.maximum(w, 0.0)
    return hermitian_part((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))


MINORS_MAX_DIM = 4


def psd_principal_minors(a, tol: Tolerance = Tolerance()) -> bool | np.ndarray:
    """Exhaustive principal-minor PSD test, usable only for small matrices.

    A Hermitian matrix is PSD iff every principal minor is nonnegative.  The
    subset enumeration is exponential, so this is a cross-check oracle for
    ``is_psd`` at dim <= ``MINORS_MAX_DIM``, not a production path.  The
    minors of each size k are one ``det`` call over the stacked k x k
    principal submatrices, in ``combinations`` order, of every matrix of a
    ``(..., d, d)`` stack at once; the verdict is per matrix, as ``is_psd``.
    """
    a = _require_hermitian(a, tol)
    n = a.shape[-1]
    if n > MINORS_MAX_DIM:
        raise ShapeMismatch(f"principal-minor test capped at dim {MINORS_MAX_DIM}, got {n}")
    tol = tol.at(n)
    ok = np.ones(a.shape[:-2], dtype=bool)
    for k in range(1, n + 1):
        rows = np.array(list(combinations(range(n), k)))
        minors = np.linalg.det(a[..., rows[:, :, None], rows[:, None, :]])
        ok &= ~(minors.real < -tol.psd_tol).any(axis=-1)
    return _verdicts(ok)
