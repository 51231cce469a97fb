"""Fixture states, codes, and closed-form oracles used throughout the tests.

Everything here is built from exact rational / square-root amplitudes at full
floating precision, so oracle comparisons can run at 1e-10 tightness.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np

from .channels import delete, distinct_rows
from .distance import CodeSample
from .errors import DegenerateParam, NotNormalized, ParseError, WeightOutOfRange
from .linalg import Tolerance, frobenius_distance, kron
from .states import DensityMatrix, QuditShape, basis_ket, density_from_ket

__all__ = [
    "dicke_ket",
    "hagiwara_codeword",
    "x1_codeword",
    "example_rho",
    "example_psi",
    "sigma_1",
    "sigma_2",
    "sigma_3",
    "in_del_after_ins_sphere",
    "in_ins_after_del_sphere",
    "hagiwara_single_deletion",
    "hagiwara_double_deletion",
    "collision_pair_x2",
    "code_params",
    "x1_phase_pair_params",
    "x2_collision_params",
    "x1_code_sample",
    "x2_code_sample",
    "builtin_state",
    "builtin_code",
    "BUILTIN_STATE_NAMES",
    "BUILTIN_CODE_NAMES",
]

_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def _check_param(alpha: complex, beta: complex) -> tuple[complex, complex]:
    alpha, beta = complex(alpha), complex(beta)
    residual = abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0)
    if residual > 1e-9:
        raise NotNormalized(f"|alpha|^2+|beta|^2 differs from 1 by {residual:.3e}", residual)
    return alpha, beta


def dicke_ket(n: int, i: int) -> np.ndarray:
    """Unnormalized sum of all n-qubit basis kets of Hamming weight i.

    The squared norm is C(n, i).
    """
    if not 0 <= i <= n:
        raise WeightOutOfRange(f"weight {i} not in [0, {n}]")
    shape = QuditShape(2, n)
    ket = np.zeros(shape.dim, dtype=complex)
    for bits in product((0, 1), repeat=n):
        if sum(bits) == i:
            ket += basis_ket(bits, shape)
    return ket


def hagiwara_codeword(alpha: complex, beta: complex) -> DensityMatrix:
    """Four-qubit codeword alpha|0_L> + beta|1_L> of the single-deletion code
    with |0_L> = (|0000> + |1111>)/sqrt(2) and |1_L> the normalized weight-2 sum."""
    alpha, beta = _check_param(alpha, beta)
    shape = QuditShape(2, 4)
    zero_l = (dicke_ket(4, 0) + dicke_ket(4, 4)) / math.sqrt(2)
    one_l = dicke_ket(4, 2) / math.sqrt(6)
    return density_from_ket(alpha * zero_l + beta * one_l, shape)


def x1_codeword(alpha: complex, beta: complex) -> DensityMatrix:
    """Two-qubit codeword alpha|00> + beta|11>."""
    alpha, beta = _check_param(alpha, beta)
    shape = QuditShape(2, 2)
    ket = alpha * basis_ket("00", shape) + beta * basis_ket("11", shape)
    return density_from_ket(ket, shape)


def example_rho(p0: float = 0.5, p1: float = 0.5) -> DensityMatrix:
    """p0 |00><00| + p1 |11><11|."""
    shape = QuditShape(2, 2)
    k00, k11 = basis_ket("00", shape), basis_ket("11", shape)
    return DensityMatrix(shape, p0 * np.outer(k00, k00) + p1 * np.outer(k11, k11))


def example_psi(p0: float = 0.5, p1: float = 0.5) -> DensityMatrix:
    """|psi><psi| for |psi> = sqrt(p0)|01> + sqrt(p1)|10|."""
    shape = QuditShape(2, 2)
    ket = math.sqrt(p0) * basis_ket("01", shape) + math.sqrt(p1) * basis_ket("10", shape)
    return density_from_ket(ket, shape)


def _coherence_terms(p0: float, p1: float, a: np.ndarray, slot: int) -> np.ndarray:
    """sqrt(p1 p0) X + h.c. where X places A at `slot` among three factors."""
    a = np.asarray(a, dtype=complex)
    k = math.sqrt(p1 * p0)
    out10 = np.outer(_KET1, _KET0.conj())
    factors = [out10, out10]
    factors.insert(slot, a)
    term = k * kron(kron(factors[0], factors[1]), factors[2])
    return term + term.conj().T


def sigma_1(p0: float, p1: float, pi00, pi11, a) -> DensityMatrix:
    """Insertion of one qubit in front of p0|00><00| + p1|11><11|."""
    pi00, pi11 = np.asarray(pi00, dtype=complex), np.asarray(pi11, dtype=complex)
    out00 = np.outer(_KET0, _KET0.conj())
    out11 = np.outer(_KET1, _KET1.conj())
    mat = p0 * kron(pi00, kron(out00, out00)) + p1 * kron(pi11, kron(out11, out11))
    mat += _coherence_terms(p0, p1, a, 0)
    return DensityMatrix(QuditShape(2, 3), mat)


def sigma_2(p0: float, p1: float, pi00, pi11, a) -> DensityMatrix:
    """Insertion of one qubit between the two qubits of the example state."""
    pi00, pi11 = np.asarray(pi00, dtype=complex), np.asarray(pi11, dtype=complex)
    out00 = np.outer(_KET0, _KET0.conj())
    out11 = np.outer(_KET1, _KET1.conj())
    mat = p0 * kron(out00, kron(pi00, out00)) + p1 * kron(out11, kron(pi11, out11))
    mat += _coherence_terms(p0, p1, a, 1)
    return DensityMatrix(QuditShape(2, 3), mat)


def sigma_3(p0: float, p1: float, pi00, pi11, a) -> DensityMatrix:
    """Insertion of one qubit after the two qubits of the example state."""
    pi00, pi11 = np.asarray(pi00, dtype=complex), np.asarray(pi11, dtype=complex)
    out00 = np.outer(_KET0, _KET0.conj())
    out11 = np.outer(_KET1, _KET1.conj())
    mat = p0 * kron(kron(out00, out00), pi00) + p1 * kron(kron(out11, out11), pi11)
    mat += _coherence_terms(p0, p1, a, 2)
    return DensityMatrix(QuditShape(2, 3), mat)


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
    rho = example_rho(p0, p1)
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
    deletions to equal it.
    """
    target = p0 * np.outer(_KET0, _KET0.conj()) + p1 * np.outer(_KET1, _KET1.conj())
    tol = tol.at(sigma.dim)
    for q in (1, 2):
        reduced = delete(sigma, {q})
        if frobenius_distance(reduced.mat, target) <= tol.eq_tol:
            return True
    return False


def hagiwara_single_deletion(alpha: complex, beta: complex) -> DensityMatrix:
    """Closed form of any single-qubit deletion of a hagiwara_codeword.

    All four deletion positions give this same three-qubit state.
    """
    alpha, beta = _check_param(alpha, beta)
    shape = QuditShape(2, 3)
    v1 = alpha * dicke_ket(3, 0) + (beta / math.sqrt(3)) * dicke_ket(3, 2)
    v2 = alpha * dicke_ket(3, 3) + (beta / math.sqrt(3)) * dicke_ket(3, 1)
    mat = 0.5 * (np.outer(v1, v1.conj()) + np.outer(v2, v2.conj()))
    return DensityMatrix(shape, mat)


def hagiwara_double_deletion(alpha: complex, beta: complex) -> DensityMatrix:
    """Closed form of any two-qubit deletion of a hagiwara_codeword."""
    alpha, beta = _check_param(alpha, beta)
    shape = QuditShape(2, 2)
    k0, k1, k2 = dicke_ket(2, 0), dicke_ket(2, 1), dicke_ket(2, 2)
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
    alpha, beta = _check_param(alpha, beta)
    if abs(alpha) < 1e-12 or abs(beta) < 1e-12:
        raise DegenerateParam("alpha and beta must both be nonzero")
    phase = cmath.exp(2j * (cmath.phase(alpha) - cmath.phase(beta)))
    if abs(phase - 1.0) < 1e-12:
        raise DegenerateParam("phase factor is 1; the pair coincides")
    return hagiwara_codeword(alpha, beta), hagiwara_codeword(alpha, phase * beta)


# --- parameter grids and code samples -----------------------------------------


def code_params(n_theta: int = 5, n_phi: int = 8) -> list[tuple[complex, complex]]:
    """(alpha, beta) = (cos theta, e^(i phi) sin theta) over a grid: ``n_theta``
    (at least 2) angles theta evenly spaced over [0, pi/2], each with
    ``n_phi`` phases phi evenly spaced over [0, 2 pi)."""
    thetas = [k * (math.pi / 2) / (n_theta - 1) for k in range(n_theta)]
    phis = [k * 2 * math.pi / n_phi for k in range(n_phi)]
    return [
        (complex(math.cos(th)), cmath.exp(1j * ph) * math.sin(th))
        for th, ph in product(thetas, phis)
    ]


def x1_phase_pair_params() -> list[tuple[complex, complex]]:
    a = math.cos(math.pi / 8)
    b = math.sin(math.pi / 8)
    return [(a, b * cmath.exp(1j * math.pi / 3)), (a, b * cmath.exp(2j * math.pi / 3))]


def x2_collision_params() -> tuple[complex, complex]:
    return (math.cos(math.pi / 8), math.sin(math.pi / 8) * cmath.exp(1j * math.pi / 3))


def _dedup_sample(entries: list[tuple[str, DensityMatrix]], tol: Tolerance) -> CodeSample:
    """Greedy dedup of a nonempty list within eq_tol: the first entry of each
    coinciding group stays."""
    eq_tol = tol.at(entries[0][1].dim).eq_tol
    kept, _ = distinct_rows(np.stack([state.mat for _, state in entries]), eq_tol)
    return CodeSample(
        tuple(entries[c][1] for c in kept), tuple(entries[c][0] for c in kept), tol
    )


def _grid_entries(codeword, params) -> list[tuple[str, DensityMatrix]]:
    return [
        (f"a={a.real:+.3f}{a.imag:+.3f}j,b={b.real:+.3f}{b.imag:+.3f}j", codeword(a, b))
        for a, b in params
    ]


def x1_code_sample(params=None, tol: Tolerance = Tolerance()) -> CodeSample:
    """Grid sample of the two-qubit code, engineered phase pair appended,
    deduplicated within ``tol``."""
    entries = _grid_entries(x1_codeword, params if params is not None else code_params())
    for k, (a, b) in enumerate(x1_phase_pair_params()):
        entries.append((f"phase-{k + 1}", x1_codeword(a, b)))
    return _dedup_sample(entries, tol)


def x2_code_sample(params=None, tol: Tolerance = Tolerance()) -> CodeSample:
    """Grid sample of the four-qubit single-deletion code, collision pair
    appended, deduplicated within ``tol``."""
    entries = _grid_entries(hagiwara_codeword, params if params is not None else code_params())
    psi1, psi2 = collision_pair_x2(*x2_collision_params())
    entries.append(("collision-1", psi1))
    entries.append(("collision-2", psi2))
    return _dedup_sample(entries, tol)


# --- builtin registry for the CLI ---------------------------------------------

BUILTIN_STATE_NAMES = ("rho", "psi", "x1", "hagiwara4")
BUILTIN_CODE_NAMES = ("x1", "hagiwara4", "collision-x2")


def _parse_angles(args: str | None) -> tuple[complex, complex]:
    if not args:
        theta, phi = math.pi / 4, 0.0
    else:
        try:
            theta, phi = (float(x) for x in args.split(","))
        except ValueError as exc:
            raise ParseError(f"expected 'theta,phi' floats, got {args!r}") from exc
    return complex(math.cos(theta)), cmath.exp(1j * phi) * math.sin(theta)


def builtin_state(name: str, args: str | None = None) -> DensityMatrix:
    """Resolve 'rho', 'psi', 'x1[:theta,phi]', 'hagiwara4[:theta,phi]'."""
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
    """Resolve a builtin code sample by name; its states are deduplicated, or
    checked to be distinct, within ``tol``."""
    if name == "x1":
        return x1_code_sample(params, tol)
    if name == "hagiwara4":
        return x2_code_sample(params, tol)
    if name == "collision-x2":
        psi1, psi2 = collision_pair_x2(*x2_collision_params())
        return CodeSample((psi1, psi2), ("collision-1", "collision-2"), tol)
    raise ParseError(f"unknown builtin code {name!r}")
