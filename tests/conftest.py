import math
import sys
from functools import reduce
from itertools import combinations, count

import numpy as np
import pytest

from qindel import linalg
from qindel.channels import deletion_sphere
from qindel.codes import _check_weights
from qindel.distance import indel_distance, min_distance
from qindel.errors import CountOutOfRange, PositionOutOfRange, QindelError, ShapeMismatch, TraceNotOne
from qindel.linalg import Tolerance, _require_hermitian, eigensolve, hermitian_eigensystem
from qindel.rand import _ginibre, random_density
from qindel.states import DensityMatrix, QuditShape, _count, _require_psd, validate


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_states(rng, level, length, count, max_rank=None):
    shape = QuditShape(level, length)
    cap = max_rank or shape.dim
    return [
        random_density(rng, shape, int(rng.integers(1, cap + 1))) for _ in range(count)
    ]


def random_orthonormal(rng, dim: int, count: int) -> list[np.ndarray]:
    """``count`` orthonormal vectors in C^dim (0 <= count <= dim)."""
    count = _count(count, "count")
    if count > dim:
        raise CountOutOfRange(f"cannot fit {count} orthonormal vectors in dimension {dim}")
    q, _ = np.linalg.qr(_ginibre(rng, dim, count))
    return [q[:, k].copy() for k in range(count)]


_KET0 = np.array([1.0, 0.0], dtype=complex)
_KET1 = np.array([0.0, 1.0], dtype=complex)


def example_insertion(q: int, p0: float, p1: float, pi00, pi11, a) -> DensityMatrix:
    """The member of I_{q}(example_rho(p0, p1)) with qubit q in {1, 2, 3}
    inserted: p0 pi00 beside |00>, p1 pi11 beside |11>, and the coherence
    sqrt(p1 p0) |1><0| (x) A (x) |1><0| + h.c. between them, A at slot q.

    Built by hand with ``np.kron``, independently of ``insert_construct``."""
    if q not in (1, 2, 3):
        raise PositionOutOfRange(f"insertion position {q} not within [1, 3]")
    _check_weights(p0, p1)

    def placed(block, outer: np.ndarray) -> np.ndarray:
        factors = [outer, outer]
        factors.insert(q - 1, np.asarray(block, dtype=complex))
        return reduce(np.kron, factors)

    mat = p0 * placed(pi00, np.outer(_KET0, _KET0)) + p1 * placed(pi11, np.outer(_KET1, _KET1))
    term = math.sqrt(p1 * p0) * placed(a, np.outer(_KET1, _KET0))
    mat += term + term.conj().T
    return DensityMatrix(QuditShape(2, 3), mat)


def failing_from(call, solver):
    """``solver``, but raising the ``LinAlgError`` of a LAPACK failure from
    its ``call``-th call on, as a stand-in patched into ``np.linalg``."""
    calls = count(1)

    def patched(*args, **kwargs):
        if next(calls) >= call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(*args, **kwargs)

    return patched


def lone_walk_min_distance(code):
    """``min_distance(code)`` from each state's own ``deletion_sphere`` at
    each level s = 1, 2, ..., each pair of spheres decided by its own
    ``intersection_witness``, in ``combinations`` order:
    ``(value, pair, P, Q, common matrix)``."""
    for s in range(1, code.states[0].length + 1):
        spheres = [deletion_sphere(rho, s, code.tol) for rho in code.states]
        for i, j in combinations(range(len(spheres)), 2):
            hit = spheres[i].intersection_witness(spheres[j])
            if hit is not None:
                a, b, _ = hit
                pair = (code.labels[i], code.labels[j])
                return 2 * s, pair, spheres[i].reps[a], spheres[j].reps[b], spheres[i].stack[a]
    # full deletion leaves every state the one empty state, so the first
    # pair meets there even where eq_tol 0 reads two traces a bit apart
    return 2 * s, (code.labels[0], code.labels[1]), spheres[0].reps[0], spheres[1].reps[0], spheres[0].stack[0]


def lone_walk_indel_distance(rho, sigma, tol=Tolerance()):
    """``indel_distance(rho, sigma, tol)`` from each state's own
    ``deletion_sphere`` at each step, s = max(0, n - m) + k against
    t = max(0, m - n) + k for k = 0, 1, ..., and the two spheres'
    ``intersection_witness`` per step: ``(value, s, t, P, Q, common matrix)``."""
    n, m = rho.length, sigma.length
    for k in range(min(n, m) + 1):
        s, t = max(0, n - m) + k, max(0, m - n) + k
        a, b = deletion_sphere(rho, s, tol), deletion_sphere(sigma, t, tol)
        hit = a.intersection_witness(b)
        if hit is not None:
            i, j, _ = hit
            return s + t, s, t, a.reps[i], b.reps[j], a.stack[i]
    # as in ``lone_walk_min_distance``: the empty states always meet
    return s + t, s, t, a.reps[0], b.reps[0], a.stack[0]


def assert_indel_matches_lone_walk(rho, sigma, tol=Tolerance()):
    """``indel_distance(rho, sigma, tol)`` equals
    ``lone_walk_indel_distance``: value, s, t, P, Q and the common state's
    bits.  Returns the value."""
    result = indel_distance(rho, sigma, tol)
    value, s, t, P, Q, common = lone_walk_indel_distance(rho, sigma, tol)
    assert (result.value, result.s, result.t, result.P, result.Q) == (value, s, t, P, Q)
    assert np.array_equal(result.common.mat, common)
    return value


def assert_matches_lone_walk(code):
    """``min_distance(code)`` equals ``lone_walk_min_distance(code)``: value,
    pair, s, t, P, Q and the common state's bits."""
    value, pair, result = min_distance(code)
    want, want_pair, P, Q, common = lone_walk_min_distance(code)
    assert (value, pair) == (want, want_pair)
    assert (result.value, result.s, result.t) == (want, want // 2, want // 2)
    assert (result.P, result.Q) == (P, Q)
    assert np.array_equal(result.common.mat, common)
    return value


def reference_validate(mat, shape, tol=Tolerance()):
    """``states.validate`` by the eigen-solve rule alone, with no PSD
    certificate: shape, the checked eigen-solve (finite, Hermitian, finite
    spectrum), trace, then the least eigenvalue against -psd_tol."""
    m = np.asarray(mat, dtype=complex)
    tol = tol.at(shape.dim)
    if m.shape != (shape.dim, shape.dim):
        raise ShapeMismatch(f"expected a {shape.dim}x{shape.dim} matrix, got {m.shape}")
    w = eigensolve(np.linalg.eigvalsh, _require_hermitian(m, tol))  # the gate, then the eigenvalues alone
    tr_res = abs(np.trace(m) - 1.0)
    if tr_res > tol.eq_tol:
        raise TraceNotOne(f"trace differs from 1 by {tr_res:.3e}", tr_res)
    _require_psd(w, tol)
    return DensityMatrix(shape, m)


def assert_validates_as_reference(mat, shape, tol=Tolerance()):
    """``validate`` returns the state ``reference_validate`` returns, bit for
    bit, or raises what it raises: class, message and residual.  Returns the
    refusal, or None."""
    try:
        want = reference_validate(mat, shape, tol)
    except QindelError as exc:
        with pytest.raises(QindelError) as got:
            validate(mat, shape, tol)
        # a float's repr gives its bits back, NaN included
        seen, expected = (repr(getattr(e, "residual", None)) for e in (got.value, exc))
        assert (type(got.value), str(got.value), seen) == (type(exc), str(exc), expected)
        return exc
    got = validate(mat, shape, tol)
    assert got.shape == want.shape and np.array_equal(got.mat, want.mat)
    return None


def reference_spectral_form(mat, shape, tol=Tolerance()):
    """The spectral form of one state by the per-state rule: its own checked
    eigen-solve, the weights dropped while their clipped running sum stays
    within 1e-3 * eq_tol, a stable descending sort and the kept weights
    summed one by one in ascending order.  Returns (weights, kets)."""
    tol = tol.at(shape.dim)
    w, v = hermitian_eigensystem(np.asarray(mat, dtype=complex), tol)
    _require_psd(w, tol)
    dropped = int((np.cumsum(np.maximum(w, 0.0)) <= 1e-3 * tol.eq_tol).sum())
    w, v = w[dropped:], v[:, dropped:]
    order = np.argsort(-w, kind="stable")
    return w[order] / sum(w.tolist()), np.ascontiguousarray(v[:, order])


def planted_state(rng, shape, lowest, rank=None):
    """A Hermitian matrix of ``shape`` with trace 1 in a random basis: its
    eigenvalues are ``lowest``, ``rank - 1`` positive ones summing to
    1 - ``lowest`` (``rank`` at least 2, default the dimension) and zeros.
    At dimension 1 the one eigenvalue is ``lowest``."""
    d = shape.dim
    rank = d if rank is None else rank
    w = np.zeros(d)
    w[0] = lowest
    if d > 1:
        positive = rng.uniform(0.5, 1.5, rank - 1)
        w[1:rank] = positive * (1 - lowest) / positive.sum()
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return (q * w) @ q.conj().T


@pytest.fixture
def eigensolves(monkeypatch):
    """The solvers of every eigen-solve made through ``linalg.eigensolve``
    while the test runs, in order, from each package module that binds it."""
    calls, real = [], linalg.eigensolve

    def counted(solver, h):
        calls.append(solver.__name__)
        return real(solver, h)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qindel" and getattr(module, "eigensolve", None) is real:
            monkeypatch.setattr(module, "eigensolve", counted)
    return calls
