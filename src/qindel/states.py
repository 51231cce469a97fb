"""Density-matrix data model: validation, spectral form, basis conventions, file I/O,
and ``_count``, the one check of every count, length, level and seed in the package.

Conventions (fixed once, used everywhere):
  * qudit 1 is the most significant tensor factor, so the basis ket |x_1 ... x_n>
    has flat index sum_i x_i * l^(n-i);
  * all qudit positions are 1-based;
  * the n = 0 system has the single state (1), a 1x1 matrix.

Every state, pure or mixed, is a ``DensityMatrix``; a ket is never kept.
Inside the package a set of same-shape states is one read-only ``(k, d, d)``
stack with its ``QuditShape``, wrapped only where a public call returns a
state.  Foreign matrices are checked by ``validate`` (``validate_stack``,
which returns the checked stack, for a stack), and pure states are built
from their kets, checked once, by ``_pure_stack`` (``density_from_ket``
for one ket).  ``validate_stack`` shows matrices PSD by one stacked
Cholesky factorization of them shifted by psd_tol / 2
(``linalg._psd_certified``) and eigen-solves only the matrices that fail
it, to name a refusal with its residual.

State files are UTF-8 JSON objects, read and written here only, through
orjson.  The one encoder writes a matrix in the compact form: the base64 of
its row-major little-endian complex128 bytes, marked by ``"encoding":
"base64"``, so a file reads back bit for bit, also with the stdlib ``json``
and ``base64``.  The reader takes that form, where every complex array of the
object (``matrix``, ``ket``, each spectral ``ket``) is such a string decoded
in one copy, and the nested form, where each is a whole array of ``[re, im]``
pairs.  ``NaN`` and ``Infinity`` tokens are not JSON and are rejected.
"""

from __future__ import annotations

import base64
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import orjson

from .errors import (
    CountOutOfRange,
    DigitOutOfRange,
    InvalidShape,
    NotNormalized,
    NotPSD,
    ParseError,
    QindelError,
    ShapeMismatch,
    SizeCapExceeded,
    TraceNotOne,
    ValidationError,
)
from .linalg import (
    Tolerance,
    _least_eigenvalues,
    _psd_certified,
    _refuse_alone,
    _require_finite,
    _require_hermitian,
    eigensolve,
    frobenius_distance,
    frobenius_norm,
    hermitian_eigensystem,
)

__all__ = [
    "SIZE_CAP",
    "QuditShape",
    "DensityMatrix",
    "SpectralForm",
    "basis_index",
    "basis_ket",
    "density_from_ket",
    "validate",
    "validate_stack",
    "spectral_decompose",
    "state_to_json_obj",
    "state_from_json_obj",
    "save_state",
    "save_states",
    "load_state",
]

SIZE_CAP = 256  # largest allowed l^n


def _frozen_array(values) -> np.ndarray:
    """A read-only complex array of ``values``; one that is already read-only
    and complex (such as a row of a sphere's stack) is kept, not copied."""
    if isinstance(values, np.ndarray) and values.dtype == complex and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=complex)
    arr.setflags(write=False)
    return arr


def _count(value, what: str, least: int = 0, most: int | None = None) -> int:
    """The one check of every count, length, level and seed: Python or numpy
    integers in [``least``, ``most``] (``most=None``: unbounded) pass as an int;
    a bool, a float, a string or a value out of range is ``CountOutOfRange`` naming ``what``."""
    try:  # a bool is an int to ``operator.index``, but no count
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError as exc:
        raise CountOutOfRange(f"{what} must be an integer, got {value!r}") from exc
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise CountOutOfRange(f"{what} must be {bound}, got {value}")
    if most is not None and value > most:
        raise CountOutOfRange(f"{what}={value} not in [{least}, {most}]")
    return value


@dataclass(frozen=True)
class QuditShape:
    """``length`` qudits of ``level`` levels each; total dimension level**length."""

    level: int
    length: int

    def __post_init__(self) -> None:
        try:
            level, length = _count(self.level, "qudit level", least=2), _count(self.length, "length")
        except CountOutOfRange as exc:
            raise InvalidShape(str(exc)) from exc
        # a length of SIZE_CAP.bit_length() exceeds the cap at every level: refused before the power
        if length >= SIZE_CAP.bit_length() or level**length > SIZE_CAP:
            raise SizeCapExceeded(f"dimension {level}**{length} exceeds the cap {SIZE_CAP}")
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "length", length)

    @property
    def dim(self) -> int:
        return self.level ** self.length


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A state of ``shape.length`` qudits: Hermitian, trace-1, PSD matrix.

    Instances built by the channel operations preserve validity by
    construction; ``validate`` is the checking constructor for foreign data.
    """

    shape: QuditShape
    mat: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", _frozen_array(self.mat))
        if self.mat.shape != (self.shape.dim, self.shape.dim):
            raise ShapeMismatch(
                f"matrix shape {self.mat.shape} does not match qudit shape "
                f"(l={self.shape.level}, n={self.shape.length}, dim={self.shape.dim})"
            )

    @property
    def level(self) -> int:
        return self.shape.level

    @property
    def length(self) -> int:
        return self.shape.length

    @property
    def dim(self) -> int:
        return self.shape.dim

    def distance(self, other: "DensityMatrix") -> float:
        return float(frobenius_distance(self.mat, other.mat))

    def close_to(self, other: "DensityMatrix", tol: Tolerance = Tolerance()) -> bool:
        if self.shape != other.shape:
            return False
        return self.distance(other) <= tol.at(self.dim).eq_tol


@dataclass(frozen=True, eq=False)
class SpectralForm:
    """The eigenvalues of a density matrix, zero weights dropped, as ``weights``
    ``(r,)``, and their eigenvectors as the columns of ``kets`` ``(d, r)``."""

    shape: QuditShape
    weights: np.ndarray
    kets: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.weights)


def _digits(x: str | Sequence[int], shape: QuditShape) -> list[int]:
    digits = [int(c) for c in x]
    if len(digits) != shape.length:
        raise ShapeMismatch(f"expected {shape.length} digits, got {len(digits)}")
    for d in digits:
        if not 0 <= d < shape.level:
            raise DigitOutOfRange(f"digit {d} not in Z_{shape.level}")
    return digits


def basis_index(x: str | Sequence[int], shape: QuditShape) -> int:
    """Flat index of the basis ket |x_1 ... x_n>, qudit 1 most significant."""
    idx = 0
    for d in _digits(x, shape):
        idx = idx * shape.level + d
    return idx


def basis_ket(x: str | Sequence[int], shape: QuditShape) -> np.ndarray:
    """Computational basis ket |x> as a dense vector."""
    ket = np.zeros(shape.dim, dtype=complex)
    ket[basis_index(x, shape)] = 1.0
    return ket


def _pure_stack(kets: np.ndarray, shape: QuditShape, tol: Tolerance = Tolerance()) -> np.ndarray:
    """The read-only ``(k, d, d)`` stack of the pure states |phi><phi| of the
    k kets of ``shape``, the rows of the ``(k, d)`` array ``kets``: the one
    check and build of pure states.  Every entry must be finite, and every
    ket of unit ``frobenius_norm`` within eq_tol (``NotNormalized``, naming
    the first ket at fault; "ket" alone for a lone ket).  Each row is the
    outer product of its ket with the ufunc ``np.outer`` uses, so it has the
    bits of ``np.outer`` of its ket."""
    finite = np.isfinite(kets).all(axis=1)
    # only finite kets are squared: a signalling NaN would raise an invalid-value warning
    residual = np.full(len(kets), np.inf)
    residual[finite] = np.abs(frobenius_norm(kets[finite, None, :]) - 1.0)  # inf past the float range
    bad = ~finite | (residual > tol.at(shape.dim).eq_tol)
    if bad.any():
        k = int(bad.argmax())
        name = "ket" if len(kets) == 1 else f"ket {k}"
        if not finite[k]:
            raise NotNormalized(f"{name} has non-finite entries")
        raise NotNormalized(f"{name} norm differs from 1 by {residual[k]:.3e}", residual[k])
    stack = kets[:, :, None] * kets.conj()[:, None, :]
    stack.setflags(write=False)
    return stack


def density_from_ket(amplitudes, shape: QuditShape, tol: Tolerance = Tolerance()) -> DensityMatrix:
    """The pure state |phi><phi| of the ket ``amplitudes``: the checked
    constructor of a pure state, the one-ket case of ``_pure_stack``.  The
    ket must have ``shape.dim`` entries (``ShapeMismatch``), all finite,
    and unit norm within eq_tol (``NotNormalized``)."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.shape != (shape.dim,):
        raise ShapeMismatch(f"ket length {vec.shape[0]} does not match dim {shape.dim}")
    return DensityMatrix(shape, _pure_stack(vec[None], shape, tol)[0])


def _require_psd(w: np.ndarray, tol: Tolerance) -> None:
    """Refuse the first spectrum (ascending, the last axis of ``w``) whose
    least eigenvalue is below -psd_tol; on a stack, the message names it."""
    lowest = w[..., 0]
    bad = lowest < -tol.psd_tol
    if bad.any():
        k = int(np.argmax(bad))
        value = float(np.ravel(lowest)[k])
        where = "" if w.ndim == 1 else f"matrix {k}: "
        raise NotPSD(f"{where}negative eigenvalue {value:.3e}", -value)


def validate(mat, shape: QuditShape, tol: Tolerance = Tolerance()) -> DensityMatrix:
    """Check all density-matrix invariants; raise naming the first violation:
    shape, the gate (finite, Hermitian), a finite spectrum, trace, PSD.  The
    one-matrix case of ``validate_stack``.
    """
    m = np.asarray(mat, dtype=complex)
    if m.shape != (shape.dim, shape.dim):
        raise ShapeMismatch(f"expected a {shape.dim}x{shape.dim} matrix, got {m.shape}")
    return DensityMatrix(shape, validate_stack(m, shape, tol)[0])


def validate_stack(mats, shape: QuditShape, tol: Tolerance = Tolerance()) -> np.ndarray:
    """The read-only ``(k, d, d)`` stack of the matrices of ``mats``, a
    ``(k, d, d)`` stack (or one ``(d, d)`` matrix, which gives a one-row
    stack), each a state of ``shape`` after the checks of ``validate``,
    each made once over the whole stack: one gate, one certificate, one
    eigen-solve of the matrices it does not certify, one trace test and one
    PSD test.  The rows of a read-only complex ``mats`` are returned as they
    are, those of any other copied once.  Other shapes of ``mats`` raise
    ``ShapeMismatch``.

    A matrix that ``linalg._psd_certified`` certifies, by its row of one
    stacked Cholesky factorization, needs no eigen-solve: its spectrum is
    finite and its least eigenvalue above -psd_tol.  Any other matrix takes
    the eigen-solve, so every refusal has the class, message and residual
    the spectrum gives.  Each check refuses the first matrix k at fault,
    with the class, message and residual of its lone ``validate``, the
    message prefixed "matrix k: " on a stack; the gate and the eigen-solve
    find that matrix by checking their matrices alone
    (``linalg._refuse_alone``), on the error path only.
    """
    m, dim = np.asarray(mats, dtype=complex), shape.dim
    if m.ndim not in (2, 3) or m.shape[-2:] != (dim, dim):
        raise ShapeMismatch(f"expected a {dim}x{dim} matrix or a stack of them, got {m.shape}")
    tol = tol.at(dim)
    flat = m.reshape(-1, dim, dim)

    def named(k: int, message: str) -> str:
        return message if m.ndim == 2 else f"matrix {k}: {message}"

    try:
        h = _require_hermitian(flat, tol)
    except QindelError:
        _refuse_alone(lambda k: _require_hermitian(flat[k], tol), range(len(flat)), named)
        raise
    try:
        lowest = _least_eigenvalues(h, tol.psd_tol)
    except QindelError:
        uncertified = np.flatnonzero(~_psd_certified(h, tol.psd_tol)).tolist()
        _refuse_alone(lambda k: eigensolve(np.linalg.eigvalsh, h[k]), uncertified, named)
        raise
    tr_res = np.abs(flat.trace(axis1=1, axis2=2) - 1.0)
    if tr_res.max(initial=0.0) > tol.eq_tol:
        k = int(np.argmax(tr_res > tol.eq_tol))
        raise TraceNotOne(named(k, f"trace differs from 1 by {tr_res[k]:.3e}"), tr_res[k])
    _require_psd(lowest.reshape(*m.shape[:-2], 1), tol)  # one-value spectra, batched as mats is
    return _frozen_array(flat)


def spectral_decompose(rho: DensityMatrix, tol: Tolerance = Tolerance()) -> SpectralForm:
    """Eigen-pairs with negligible weights dropped, renormalized: the one
    row of rho's one rank group of ``_spectral_groups``, whose checks and
    errors these are.

    Weights are clipped at zero, and the smallest are dropped only while their
    running sum stays at most 1e-3 * eq_tol, so the reconstruction moves far
    less than the eq_tol that round trips are held to (dropping every weight
    up to psd_tol could move it by more).  Ordered by descending weight.  For
    degenerate spectra the eigenbasis is whatever the solver returns;
    downstream constructions only depend on the reconstructed matrix.
    """
    [(_, weights, kets)] = _spectral_groups(rho.mat, rho.shape, tol)
    return SpectralForm(rho.shape, weights[0], kets[0])


def _spectral_groups(mats, shape: QuditShape, tol: Tolerance) -> list[tuple]:
    """The spectral forms of the states of ``shape`` in ``mats``, a
    ``(k, d, d)`` stack (or one ``(d, d)`` matrix, one state), by rank,
    ranks ascending: per rank r, ``(rows, weights, kets)``, the indices of
    its states, their ``(g, r)`` weights and ``(g, d, r)`` kets.  Other
    shapes of ``mats`` raise ``ShapeMismatch``.

    One checked eigen-solve: the gate of ``hermitian_eigensystem`` and a
    PSD test at d, each naming the first matrix of a stack it refuses.
    Each group is ordered by one stable descending ``argsort`` and divided
    by the last column of the ``cumsum`` of its kept weights, which adds
    them in ascending order one by one, so every row has the bits of its
    state's form computed alone.
    """
    mats, dim = np.asarray(mats, dtype=complex), shape.dim
    if mats.ndim not in (2, 3) or mats.shape[-2:] != (dim, dim):
        raise ShapeMismatch(f"expected a {dim}x{dim} matrix or a stack of them, got {mats.shape}")
    tol = tol.at(dim)
    w, v = hermitian_eigensystem(mats, tol)
    _require_psd(w, tol)
    w, v = w.reshape(-1, dim), v.reshape(-1, dim, dim)
    # the clipped running sum only rises: the weights dropped are those where it is still within the bound
    ranks = dim - (np.cumsum(np.maximum(w, 0.0), axis=1) <= 1e-3 * tol.eq_tol).sum(axis=1)
    groups = []
    for rank in sorted(set(ranks.tolist())):
        rows = np.flatnonzero(ranks == rank)
        kept = w[rows, dim - rank :]
        order = dim - rank + np.argsort(-kept, axis=1, kind="stable")  # columns of w and v
        # the total as a (g, 1) column; at rank 0 an empty one, which no weight reads
        total = np.cumsum(kept, axis=1)[:, -1:]
        kets = v[rows[:, None, None], np.arange(dim)[:, None], order[:, None, :]]
        groups.append((rows, w[rows[:, None], order] / total, kets))
    return groups


# --- state-file format (JSON, UTF-8) ------------------------------------------


def _complex_array(value, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of ``shape`` encoded by nested ``[re, im]`` pairs.

    One ``np.asarray`` parses the whole nest.  A ragged nest, one that numpy
    does not read as numbers (string, null or object entries, or booleans
    only) and any shape other than ``(*shape, 2)`` raise ``ParseError``.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed {what}: expected [re, im] pairs") from exc
    if arr.dtype.kind not in "iuf":
        raise ParseError(f"malformed {what}: expected numeric [re, im] pairs")
    if arr.shape != (*shape, 2):
        raise ParseError(
            f"malformed {what}: expected shape {(*shape, 2)} of [re, im] pairs, got {arr.shape}"
        )
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


def _decoded_array(value, what: str, shape: tuple[int, ...]) -> np.ndarray:
    """The complex array of ``shape`` whose row-major little-endian complex128
    bytes ``value`` holds in base64: a read-only view of the decoded bytes.

    A value that is not a string, is not strict base64 (characters outside
    the alphabet, bad padding) or decodes to another byte count than
    ``shape`` needs raises ``ParseError``.  Entries are not checked here:
    non-finite ones are refused by the state's validation, as in a nest.
    """
    if not isinstance(value, str):
        raise ParseError(f"malformed {what}: expected a base64 string, got {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ParseError(f"malformed {what}: bad base64: {exc}") from exc
    expected = 16 * math.prod(shape)
    if len(raw) != expected:
        raise ParseError(
            f"malformed {what}: expected {expected} bytes of complex128 for shape {shape}, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<c16").reshape(shape)


def state_to_json_obj(rho: DensityMatrix) -> dict:
    """The state object of ``rho``, its matrix in the compact form."""
    payload = rho.mat.astype("<c16", copy=False).tobytes()  # row-major
    return {
        "level": rho.level,
        "length": rho.length,
        "kind": "mixed",
        "encoding": "base64",
        "matrix": base64.b64encode(payload).decode("ascii"),
    }


def state_from_json_obj(obj: dict, tol: Tolerance = Tolerance()) -> DensityMatrix:
    """Parse a state object, validating every invariant; reports the first
    violation with its numeric residual.  With an ``encoding`` field (whose
    one value is ``"base64"``) every complex array in it is a base64 string,
    and without one a nest of ``[re, im]`` pairs."""
    if not isinstance(obj, dict):
        raise ParseError("state object must be a JSON object")
    try:
        shape, kind = QuditShape(obj["level"], obj["length"]), obj["kind"]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"missing or malformed level/length/kind: {exc}") from exc
    if "encoding" in obj and obj["encoding"] != "base64":
        raise ParseError(f"unknown encoding {obj['encoding']!r}: expected 'base64'")
    array = _decoded_array if "encoding" in obj else _complex_array
    dim = shape.dim
    try:
        if kind == "pure":
            return density_from_ket(array(obj["ket"], "ket", (dim,)), shape, tol)
        if kind == "mixed":
            return validate(array(obj["matrix"], "matrix", (dim, dim)), shape, tol)
        if kind == "spectral":
            pairs = obj["pairs"]
            if not isinstance(pairs, list) or not all(isinstance(p, dict) for p in pairs):
                raise ParseError("malformed pairs: expected a list of {p, ket} objects")
            mat = np.zeros((dim, dim), dtype=complex)
            for pair in pairs:
                weight = pair["p"]
                if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                    raise ParseError(f"malformed spectral weight {weight!r}: expected a number")
                ket = array(pair["ket"], "spectral ket", (dim,))
                # a non-finite or overflowing term is left for validate to refuse
                with np.errstate(over="ignore", invalid="ignore"):
                    mat += weight * np.outer(ket, ket.conj())
            return validate(mat, shape, tol)
    except KeyError as exc:
        raise ParseError(f"missing field for kind={kind!r}: {exc}") from exc
    except ValidationError as exc:
        raise ParseError(f"invalid {kind} state: {exc} (residual {exc.residual:.3e})") from exc
    raise ParseError(f"unknown state kind {kind!r}")


def _finite_json_obj(rho: DensityMatrix) -> dict:
    # no reader accepts a non-finite entry, so the writers refuse such a
    # state before any file is opened
    _require_finite(rho.mat)
    return state_to_json_obj(rho)


def save_state(rho: DensityMatrix, path: str | Path) -> None:
    Path(path).write_bytes(orjson.dumps(_finite_json_obj(rho)))


def save_states(states: Iterable[DensityMatrix], path: str | Path) -> None:
    """Write ``states`` as one JSON list of state objects (a sphere file)."""
    Path(path).write_bytes(orjson.dumps([_finite_json_obj(rho) for rho in states]))


def load_state(path: str | Path, tol: Tolerance = Tolerance(), *, data: bytes | None = None) -> DensityMatrix:
    """The state in the state file ``path``.  ``data``, when given, is the
    file's content already read: the file is not read again, and ``path``
    only names it in errors."""
    try:
        obj = orjson.loads(Path(path).read_bytes() if data is None else data)
    except (OSError, orjson.JSONDecodeError) as exc:
        raise ParseError(f"cannot read state file {path}: {exc}") from exc
    return state_from_json_obj(obj, tol)
