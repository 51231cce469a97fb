"""Fixture states, codes, and closed-form oracles used throughout the tests.

Everything here is built from exact rational / square-root amplitudes at full
floating precision, so oracle comparisons can run at 1e-10 tightness.  A
codeword family is its shape and its two logical kets; ``_codewords`` builds
any number of a family's codewords as one read-only stack, for a grid code
and for a lone codeword alike.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np

from .channels import delete
from .distance import CODE_CAP, CodeSample
from .errors import CountOutOfRange, DegenerateParam, NotNormalized, ParseError
from .errors import WeightOutOfRange
from .linalg import Tolerance
from .states import DensityMatrix, QuditShape, _count, _pure_stack, basis_ket, density_from_ket

__all__ = [
    "dicke_ket",
    "hagiwara_codeword",
    "x1_codeword",
    "example_rho",
    "example_psi",
    "in_del_after_ins_sphere",
    "in_ins_after_del_sphere",
    "hagiwara_single_deletion",
    "hagiwara_double_deletion",
    "collision_pair_x2",
    "code_params",
    "x2_collision_params",
    "builtin_state",
    "builtin_code",
]

def _check_params(params) -> np.ndarray:
    """The (alpha, beta) pairs of ``params`` as a ``(k, 2)`` complex array,
    each normalized: the first pair whose |alpha|^2 + |beta|^2 differs from 1
    by more than 1e-9 is refused (``NotNormalized``)."""
    pairs = np.array(params, dtype=complex).reshape(-1, 2)
    with np.errstate(over="ignore"):  # a square past the float range reads inf
        residual = np.abs(np.abs(pairs[:, 0]) ** 2 + np.abs(pairs[:, 1]) ** 2 - 1.0)
    bad = ~(residual <= 1e-9)  # also refuses a NaN residual
    if bad.any():
        first = float(residual[bad.argmax()])
        raise NotNormalized(f"|alpha|^2+|beta|^2 differs from 1 by {first:.3e}", first)
    return pairs


def _check_param(alpha: complex, beta: complex) -> tuple[complex, complex]:
    """One pair of ``_check_params``, as Python complex numbers."""
    alpha, beta = _check_params([(alpha, beta)])[0].tolist()
    return alpha, beta


def _check_weights(p0: float, p1: float) -> None:
    if not (p0 >= 0 and p1 >= 0):
        raise WeightOutOfRange(f"weights must be nonnegative, got {p0!r} and {p1!r}")
    residual = abs(p0 + p1 - 1.0)
    if residual > 1e-9:
        raise NotNormalized(f"p0+p1 differs from 1 by {residual:.3e}", residual)


def dicke_ket(n: int, i: int) -> np.ndarray:
    """Unnormalized sum of all n-qubit basis kets of Hamming weight i.

    The squared norm is C(n, i).
    """
    try:
        i = _count(i, "weight i", most=n)
    except CountOutOfRange as exc:
        raise WeightOutOfRange(str(exc)) from exc
    return (np.array([k.bit_count() for k in range(QuditShape(2, n).dim)]) == i).astype(complex)


def _family(shape: QuditShape, zero: np.ndarray, one: np.ndarray) -> tuple[QuditShape, np.ndarray, np.ndarray]:
    """A codeword family: its qudit shape and its logical kets |0_L>, |1_L>, read-only."""
    zero.setflags(write=False)
    one.setflags(write=False)
    return shape, zero, one


# the families of x1_codeword and hagiwara_codeword, built once
_X1 = _family(QuditShape(2, 2), basis_ket("00", QuditShape(2, 2)), basis_ket("11", QuditShape(2, 2)))
_HAGIWARA = _family(QuditShape(2, 4), (dicke_ket(4, 0) + dicke_ket(4, 4)) / math.sqrt(2), dicke_ket(4, 2) / math.sqrt(6))


def _dicke_kets(n: int) -> tuple[np.ndarray, ...]:
    """The n-qubit Dicke kets of weights 0..n, read-only."""
    kets = tuple(dicke_ket(n, i) for i in range(n + 1))
    for ket in kets:
        ket.setflags(write=False)
    return kets


# the Dicke kets of the hagiwara closed forms, built once
_DICKE3 = _dicke_kets(3)
_DICKE2 = _dicke_kets(2)


def _codewords(family, params) -> np.ndarray:
    """The read-only ``(k, d, d)`` stack of the codewords alpha|0_L> + beta|1_L>
    of ``family`` over the k (alpha, beta) pairs of ``params``.

    The pairs pass ``_check_params``; the kets then pass
    ``states._pure_stack``, the one check and build of pure states, at the
    default tolerance, so each row has the bits of building its state
    alone."""
    shape, zero, one = family
    pairs = _check_params(params)
    return _pure_stack(pairs[:, :1] * zero + pairs[:, 1:] * one, shape)


def hagiwara_codeword(alpha: complex, beta: complex) -> DensityMatrix:
    """Four-qubit codeword alpha|0_L> + beta|1_L> of the single-deletion code
    with |0_L> = (|0000> + |1111>)/sqrt(2) and |1_L> the normalized weight-2
    sum: the one-pair case of ``_codewords``."""
    return DensityMatrix(_HAGIWARA[0], _codewords(_HAGIWARA, [(alpha, beta)])[0])


def x1_codeword(alpha: complex, beta: complex) -> DensityMatrix:
    """Two-qubit codeword alpha|00> + beta|11>: the one-pair case of ``_codewords``."""
    return DensityMatrix(_X1[0], _codewords(_X1, [(alpha, beta)])[0])


def example_rho(p0: float = 0.5, p1: float = 0.5) -> DensityMatrix:
    """p0 |00><00| + p1 |11><11|."""
    _check_weights(p0, p1)
    shape = QuditShape(2, 2)
    k00, k11 = basis_ket("00", shape), basis_ket("11", shape)
    return DensityMatrix(shape, p0 * np.outer(k00, k00) + p1 * np.outer(k11, k11))


def example_psi(p0: float = 0.5, p1: float = 0.5) -> DensityMatrix:
    """|psi><psi| for |psi> = sqrt(p0)|01> + sqrt(p1)|10|."""
    _check_weights(p0, p1)
    shape = QuditShape(2, 2)
    ket = math.sqrt(p0) * basis_ket("01", shape) + math.sqrt(p1) * basis_ket("10", shape)
    return density_from_ket(ket, shape)


def _sector_blocks(sigma: DensityMatrix, classical_qubit: int) -> np.ndarray:
    """Reshape a 2-qubit state so axis pairs (block, sector) are explicit."""
    tensor = sigma.mat.reshape(2, 2, 2, 2)
    if classical_qubit == 2:
        return tensor  # [a, x2, b, y2]
    return tensor.transpose(1, 0, 3, 2)  # [a, x1, b, y1]


def in_del_after_ins_sphere(
    sigma: DensityMatrix, p0: float = 0.5, p1: float = 0.5, tol: Tolerance = Tolerance()
) -> bool:
    """Closed-form membership in the delete-after-insert sphere of example_rho.

    The sphere is exactly: the state itself, plus the two one-sided families
    p0 pi00 (x) |0><0| + p1 pi11 (x) |1><1| (and its mirror) with arbitrary
    single-qubit densities pi00, pi11 and no cross-sector coherence.
    """
    rho = example_rho(p0, p1)  # checks the weights
    tol = tol.at(sigma.dim)
    if sigma.close_to(rho, tol):
        return True
    for classical_qubit in (1, 2):
        tensor = _sector_blocks(sigma, classical_qubit)
        cross = max(
            float(np.abs(tensor[:, 0, :, 1]).max()), float(np.abs(tensor[:, 1, :, 0]).max())
        )
        if cross > tol.eq_tol:
            continue
        tr0 = float(np.trace(tensor[:, 0, :, 0]).real)
        tr1 = float(np.trace(tensor[:, 1, :, 1]).real)
        if abs(tr0 - p0) <= tol.eq_tol and abs(tr1 - p1) <= tol.eq_tol:
            return True
    return False


def in_ins_after_del_sphere(
    sigma: DensityMatrix, p0: float = 0.5, p1: float = 0.5, tol: Tolerance = Tolerance()
) -> bool:
    """Membership in the insert-after-delete sphere of example_rho.

    The deletion sphere of the example state is the single qubit
    p0|0><0| + p1|1><1|, so membership just asks one of sigma's single-qudit
    deletions to equal it, within eq_tol at the qubit's dimension.
    """
    _check_weights(p0, p1)
    target = DensityMatrix(QuditShape(2, 1), np.diag([p0, p1]))
    return any(delete(sigma, {q}).close_to(target, tol) for q in (1, 2))


def hagiwara_single_deletion(alpha: complex, beta: complex) -> DensityMatrix:
    """Closed form of any single-qubit deletion of a hagiwara_codeword.

    All four deletion positions give this same three-qubit state.
    """
    alpha, beta = _check_param(alpha, beta)
    shape = QuditShape(2, 3)
    d0, d1, d2, d3 = _DICKE3
    v1 = alpha * d0 + (beta / math.sqrt(3)) * d2
    v2 = alpha * d3 + (beta / math.sqrt(3)) * d1
    mat = 0.5 * (np.outer(v1, v1.conj()) + np.outer(v2, v2.conj()))
    return DensityMatrix(shape, mat)


def hagiwara_double_deletion(alpha: complex, beta: complex) -> DensityMatrix:
    """Closed form of any two-qubit deletion of a hagiwara_codeword."""
    alpha, beta = _check_param(alpha, beta)
    shape = QuditShape(2, 2)
    k0, k1, k2 = _DICKE2
    out = lambda u, v: np.outer(u, v.conj())
    coeff = 0.5 * (abs(alpha) ** 2 + abs(beta) ** 2 / 3)
    cross = (alpha * beta.conjugate() + alpha.conjugate() * beta) / (2 * math.sqrt(3))
    mat = coeff * (out(k0, k0) + out(k2, k2))
    mat += cross * (out(k0, k2) + out(k2, k0))
    mat += (abs(beta) ** 2 / 3) * out(k1, k1)
    return DensityMatrix(shape, mat)


def collision_pair_x2(alpha: complex, beta: complex) -> tuple[DensityMatrix, DensityMatrix]:
    """The codeword pair whose two-deletion spheres share the closed-form state.

    The partner flips the relative phase to 2(arg alpha - arg beta); when that
    phase is trivial (in particular for alpha or beta zero, or both real) the
    two states coincide and no pair exists.
    """
    first, second = _codewords(_HAGIWARA, _collision_params(alpha, beta))
    return DensityMatrix(_HAGIWARA[0], first), DensityMatrix(_HAGIWARA[0], second)


def _collision_params(alpha: complex, beta: complex) -> list[tuple[complex, complex]]:
    """The parameters of ``collision_pair_x2(alpha, beta)``."""
    alpha, beta = _check_param(alpha, beta)
    if abs(alpha) < 1e-12 or abs(beta) < 1e-12:
        raise DegenerateParam("alpha and beta must both be nonzero")
    phase = cmath.exp(2j * (cmath.phase(alpha) - cmath.phase(beta)))
    if abs(phase - 1.0) < 1e-12:
        raise DegenerateParam("phase factor is 1; the pair coincides")
    return [(alpha, beta), (alpha, phase * beta)]


# --- parameter grids and code samples -----------------------------------------


def code_params(n_theta: int = 5, n_phi: int = 8) -> list[tuple[complex, complex]]:
    """(alpha, beta) = (cos theta, e^(i phi) sin theta) over a grid: ``n_theta``
    (at least 2) angles theta evenly spaced over [0, pi/2], each with
    ``n_phi`` (at least 1) phases phi evenly spaced over [0, 2 pi), at most
    ``distance.CODE_CAP`` pairs in all (``CountOutOfRange``, before any is
    built)."""
    # the type alone: the range below has the grid's own message
    n_theta, n_phi = _count(n_theta, "n_theta", least=-math.inf), _count(n_phi, "n_phi", least=-math.inf)
    if n_theta < 2 or n_phi < 1:
        raise CountOutOfRange(f"a grid needs n_theta >= 2 and n_phi >= 1, got {n_theta},{n_phi}")
    _count(n_theta * n_phi, "grid states n_theta*n_phi", least=1, most=CODE_CAP)  # before any pair is built
    thetas = [k * (math.pi / 2) / (n_theta - 1) for k in range(n_theta)]
    phis = [k * 2 * math.pi / n_phi for k in range(n_phi)]
    return [
        (complex(math.cos(th)), cmath.exp(1j * ph) * math.sin(th))
        for th, ph in product(thetas, phis)
    ]


def x2_collision_params() -> tuple[complex, complex]:
    return (math.cos(math.pi / 8), math.sin(math.pi / 8) * cmath.exp(1j * math.pi / 3))


def _grid_code(family, params, extras, tol: Tolerance) -> CodeSample:
    """The code of ``family``'s codewords over ``params`` (None:
    ``code_params()``), each state labelled by its parameters, with the
    codewords of the labelled parameters ``extras`` appended, deduplicated
    within ``tol``.  The code is handed the one ``_codewords`` stack, so a
    bad pair is refused as ``_check_params`` refuses it, and the dedup's
    gather of the kept rows is the only copy."""
    params = code_params() if params is None else list(params)
    labels = [f"a={a.real:+.3f}{a.imag:+.3f}j,b={b.real:+.3f}{b.imag:+.3f}j" for a, b in params]
    stack = _codewords(family, params + [pair for _, pair in extras])
    return CodeSample(family[0], stack, labels + [label for label, _ in extras], tol)


# --- builtin registry for the CLI ---------------------------------------------


def _parse_angles(args: str | None) -> tuple[complex, complex]:
    if not args:
        theta, phi = math.pi / 4, 0.0
    else:
        try:
            theta, phi = (float(x) for x in args.split(","))
        except ValueError as exc:
            raise ParseError(f"expected 'theta,phi' floats, got {args!r}") from exc
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ParseError(f"theta and phi must be finite, got {args!r}")
    return complex(math.cos(theta)), cmath.exp(1j * phi) * math.sin(theta)


def builtin_state(name: str, args: str | None = None) -> DensityMatrix:
    """Resolve 'rho', 'psi', 'x1[:theta,phi]', 'hagiwara4[:theta,phi]'."""
    if name in ("rho", "psi") and args:
        raise ParseError(f"builtin state {name!r} takes no parameters, got {args!r}")
    if name == "rho":
        return example_rho()
    if name == "psi":
        return example_psi()
    if name == "x1":
        return x1_codeword(*_parse_angles(args))
    if name == "hagiwara4":
        return hagiwara_codeword(*_parse_angles(args))
    raise ParseError(f"unknown builtin state {name!r}")


def builtin_code(name: str, params=None, tol: Tolerance = Tolerance()) -> CodeSample:
    """The named code, deduplicated (or checked distinct) within ``tol``: 'x1' or
    'hagiwara4', the grid code over ``params`` with its phase or collision pair
    appended, or 'collision-x2', that collision pair alone."""
    if name == "x1":
        a, b = math.cos(math.pi / 8), math.sin(math.pi / 8)
        pair = [(f"phase-{k}", (a, b * cmath.exp(1j * k * math.pi / 3))) for k in (1, 2)]
        return _grid_code(_X1, params, pair, tol)
    if name == "hagiwara4":
        pair = zip(("collision-1", "collision-2"), _collision_params(*x2_collision_params()))
        return _grid_code(_HAGIWARA, params, list(pair), tol)
    if name == "collision-x2":
        psi1, psi2 = collision_pair_x2(*x2_collision_params())
        return CodeSample.from_states((psi1, psi2), ("collision-1", "collision-2"), tol)
    raise ParseError(f"unknown builtin code {name!r}")
