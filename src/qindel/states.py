"""Density-matrix data model: validation, spectral form, basis conventions, file I/O.

Conventions (fixed once, used everywhere):
  * qudit 1 is the most significant tensor factor, so the basis ket |x_1 ... x_n>
    has flat index sum_i x_i * l^(n-i);
  * all qudit positions are 1-based;
  * the n = 0 system has the single state (1), a 1x1 matrix.

Every state, pure or mixed, is a ``DensityMatrix``; a ket is never kept.
Foreign matrices are checked by ``validate``, and a pure state is built from
its ket, checked once, by ``density_from_ket``.

State files are UTF-8 JSON, read and written here only, through orjson:
floats are written compactly in shortest round-trip form (so every file reads
back bit-identically, also with the stdlib ``json``), and matrices and kets
are parsed as whole arrays of ``[re, im]`` pairs.  ``NaN`` and ``Infinity``
tokens are not JSON and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import orjson

from .errors import (
    DigitOutOfRange,
    NotNormalized,
    NotPSD,
    ParseError,
    ShapeMismatch,
    SizeCapExceeded,
    TraceNotOne,
    ValidationError,
)
from .linalg import Tolerance, frobenius_distance, hermitian_eigensystem, hermitian_eigenvalues

__all__ = [
    "SIZE_CAP",
    "QuditShape",
    "DensityMatrix",
    "SpectralForm",
    "basis_index",
    "basis_ket",
    "density_from_ket",
    "validate",
    "scalar_state",
    "purity",
    "spectral_decompose",
    "reconstruct",
    "state_to_json_obj",
    "state_from_json_obj",
    "save_state",
    "save_states",
    "load_state",
]

SIZE_CAP = 256  # largest allowed l^n


def _frozen_array(values, dtype=complex) -> np.ndarray:
    """A read-only array of ``values``; one that is already read-only and of
    ``dtype`` (such as a row of a sphere's stack) is kept, not copied."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuditShape:
    """``length`` qudits of ``level`` levels each; total dimension level**length."""

    level: int
    length: int

    def __post_init__(self) -> None:
        if self.level < 2:
            raise ValueError(f"qudit level must be >= 2, got {self.level}")
        if self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        if self.level ** self.length > SIZE_CAP:
            raise SizeCapExceeded(
                f"dimension {self.level}**{self.length} exceeds the cap {SIZE_CAP}"
            )

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
        return frobenius_distance(self.mat, other.mat)

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


def density_from_ket(amplitudes, shape: QuditShape, tol: Tolerance = Tolerance()) -> DensityMatrix:
    """The pure state |phi><phi| of the ket ``amplitudes``: the checked
    constructor of a pure state.  The ket must have ``shape.dim`` entries
    (``ShapeMismatch``), all finite, and unit norm within eq_tol
    (``NotNormalized``)."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.shape != (shape.dim,):
        raise ShapeMismatch(f"ket length {vec.shape[0]} does not match dim {shape.dim}")
    if not np.isfinite(vec).all():
        raise NotNormalized("ket has non-finite entries")
    residual = abs(np.linalg.norm(vec) - 1.0)
    if residual > tol.at(shape.dim).eq_tol:
        raise NotNormalized(f"ket norm differs from 1 by {residual:.3e}", residual)
    return DensityMatrix(shape, np.outer(vec, vec.conj()))


def _require_finite(mat: np.ndarray) -> None:
    if not np.isfinite(mat).all():
        raise ValidationError("matrix has non-finite entries")


def validate(mat, shape: QuditShape, tol: Tolerance = Tolerance()) -> DensityMatrix:
    """Check all density-matrix invariants; raise naming the first violation."""
    m = np.asarray(mat, dtype=complex)
    tol = tol.at(shape.dim)
    if m.shape != (shape.dim, shape.dim):
        raise ShapeMismatch(f"expected a {shape.dim}x{shape.dim} matrix, got {m.shape}")
    _require_finite(m)
    w = hermitian_eigenvalues(m, tol)  # its Hermitian check (NotHermitian) comes first
    tr_res = abs(np.trace(m) - 1.0)
    if tr_res > tol.eq_tol:
        raise TraceNotOne(f"trace differs from 1 by {tr_res:.3e}", tr_res)
    if w[0] < -tol.psd_tol:
        raise NotPSD(f"negative eigenvalue {w[0]:.3e}", -float(w[0]))
    return DensityMatrix(shape, m)


def scalar_state(level: int) -> DensityMatrix:
    """The unique zero-qudit state (1); the endpoint of full deletion."""
    return DensityMatrix(QuditShape(level, 0), np.array([[1.0 + 0.0j]]))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); equals 1 iff rho is rank 1."""
    return float(np.trace(rho.mat @ rho.mat).real)


def spectral_decompose(rho: DensityMatrix, tol: Tolerance = Tolerance()) -> SpectralForm:
    """Eigen-pairs with negligible weights dropped, renormalized.

    Weights are clipped at zero, and the smallest are dropped only while their
    running sum stays at most 1e-3 * eq_tol, so the reconstruction moves far
    less than the eq_tol that round trips are held to (dropping every weight
    up to psd_tol could move it by more).  Ordered by descending weight.  For
    degenerate spectra the eigenbasis is whatever the solver returns;
    downstream constructions only depend on the reconstructed matrix.
    """
    tol = tol.at(rho.dim)
    w, v = hermitian_eigensystem(rho.mat, tol)
    if w[0] < -tol.psd_tol:
        raise NotPSD(f"negative eigenvalue {w[0]:.3e}", -float(w[0]))
    dropped = np.searchsorted(np.cumsum(np.clip(w, 0.0, None)), 1e-3 * tol.eq_tol, side="right")
    w, v = w[dropped:], v[:, dropped:]
    order = np.argsort(-w, kind="stable")
    total = sum(w.tolist())
    return SpectralForm(rho.shape, w[order] / total, np.ascontiguousarray(v[:, order]))


def reconstruct(form: SpectralForm) -> DensityMatrix:
    """Sum p_x |x_L><x_L| back into a DensityMatrix."""
    return DensityMatrix(form.shape, (form.kets * form.weights) @ form.kets.conj().T)


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


def state_to_json_obj(rho: DensityMatrix) -> dict:
    return {
        "level": rho.level,
        "length": rho.length,
        "kind": "mixed",
        "matrix": np.stack([rho.mat.real, rho.mat.imag], -1).tolist(),
    }


def state_from_json_obj(obj: dict, tol: Tolerance = Tolerance()) -> DensityMatrix:
    """Parse a state object, validating every invariant; reports the first
    violation with its numeric residual."""
    if not isinstance(obj, dict):
        raise ParseError("state object must be a JSON object")
    try:
        level, length, kind = obj["level"], obj["length"], obj["kind"]
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (level, length)):
            raise TypeError(f"level and length must be integers, got {level!r} and {length!r}")
        shape = QuditShape(level, length)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"missing or malformed level/length/kind: {exc}") from exc
    dim = shape.dim
    try:
        if kind == "pure":
            vec = _complex_array(obj["ket"], "ket", (dim,))
            return density_from_ket(vec, shape, tol)
        if kind == "mixed":
            return validate(_complex_array(obj["matrix"], "matrix", (dim, dim)), shape, tol)
        if kind == "spectral":
            pairs = obj["pairs"]
            if not isinstance(pairs, list) or not all(isinstance(p, dict) for p in pairs):
                raise ParseError("malformed pairs: expected a list of {p, ket} objects")
            mat = np.zeros((dim, dim), dtype=complex)
            for pair in pairs:
                weight = pair["p"]
                if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                    raise ParseError(f"malformed spectral weight {weight!r}: expected a number")
                ket = _complex_array(pair["ket"], "spectral ket", (dim,))
                mat += weight * np.outer(ket, ket.conj())
            return validate(mat, shape, tol)
    except KeyError as exc:
        raise ParseError(f"missing field for kind={kind!r}: {exc}") from exc
    except ValidationError as exc:
        raise ParseError(f"invalid {kind} state: {exc} (residual {exc.residual:.3e})") from exc
    raise ParseError(f"unknown state kind {kind!r}")


def _finite_json_obj(rho: DensityMatrix) -> dict:
    # orjson would write NaN and infinities as null, which no reader accepts:
    # the writers refuse such a state before any file is opened
    _require_finite(rho.mat)
    return state_to_json_obj(rho)


def save_state(rho: DensityMatrix, path: str | Path) -> None:
    Path(path).write_bytes(orjson.dumps(_finite_json_obj(rho)))


def save_states(states: Iterable[DensityMatrix], path: str | Path) -> None:
    """Write ``states`` as one JSON list of state objects (a sphere file)."""
    Path(path).write_bytes(orjson.dumps([_finite_json_obj(rho) for rho in states]))


def load_state(path: str | Path, tol: Tolerance = Tolerance()) -> DensityMatrix:
    try:
        obj = orjson.loads(Path(path).read_bytes())
    except (OSError, orjson.JSONDecodeError) as exc:
        raise ParseError(f"cannot read state file {path}: {exc}") from exc
    return state_from_json_obj(obj, tol)
