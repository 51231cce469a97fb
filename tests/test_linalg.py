import math

import numpy as np
import pytest

from qindel.errors import NoConvergence, NonSquare, NotHermitian, ShapeMismatch, ValidationError
from qindel.linalg import (
    Tolerance,
    _psd_certified,
    _require_hermitian,
    _least_eigenvalues,
    eigensolve,
    frobenius_distance,
    frobenius_norm,
    hermitian_eigensystem,
    hermitian_part,
    is_psd,
    project_psd,
    psd_principal_minors,
)
from qindel.rand import _random_densities, random_density, random_hermitian, random_psd
from qindel.states import QuditShape, validate
from conftest import cross_distances, failing_from, planted_state

I2 = np.eye(2, dtype=complex)


def test_frobenius_distance():
    assert frobenius_distance(I2, I2) == 0
    assert frobenius_distance(I2, np.zeros((2, 2))) == pytest.approx(np.sqrt(2))
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert frobenius_distance(p0, p1) == pytest.approx(np.sqrt(2))
    with pytest.raises(ShapeMismatch):
        frobenius_distance(I2, np.zeros((3, 3)))


def test_eigensystem_known_values():
    w, _ = hermitian_eigensystem(np.eye(4))
    np.testing.assert_allclose(w, [1, 1, 1, 1])

    # roots of x^2 - 2x - 3 (trace 2, det -3)
    roots = np.roots([1, -2, -3])
    w, v = hermitian_eigensystem([[1, 2], [2, 1]])
    np.testing.assert_allclose(w, sorted(roots), atol=1e-12)
    a = np.array([[1, 2], [2, 1]], dtype=complex)
    np.testing.assert_allclose(a @ v, v * w, atol=1e-12)

    w, _ = hermitian_eigensystem(np.diag([0.5, 0, 0, 0.5]).astype(complex))
    np.testing.assert_allclose(w, [0, 0, 0.5, 0.5], atol=1e-12)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigensystem([[0, 1], [0, 0]])


def test_eigenvalue_sum_matches_trace(rng):
    for _ in range(50):
        dim = int(rng.integers(2, 13))
        h = random_hermitian(rng, dim)
        w, _ = hermitian_eigensystem(h)
        assert abs(np.sum(w) - np.trace(h).real) <= 1e-10 * dim


def test_eigenvalues_match_eigensystem(rng):
    # the least eigenvalue is_psd reads, from the certificate or its lone
    # eigvalsh, against the eigensystem's, on PSD and indefinite matrices
    for k in range(60):
        dim = int(rng.integers(1, 33)) if k < 50 else 256
        h = random_hermitian(rng, dim) * 10.0 ** int(rng.integers(-3, 4))
        if k % 2:
            h = hermitian_part(h @ h)  # PSD: the certificate clears it
        psd_tol = Tolerance().at(dim).psd_tol
        (lowest,) = _least_eigenvalues(_require_hermitian(h[None], Tolerance()), psd_tol)
        want = hermitian_eigensystem(h)[0][0]
        if lowest == 0:
            assert want > -psd_tol
        else:
            assert abs(lowest - want) <= 1e-12 * np.linalg.norm(h)
        assert is_psd(h) == (want >= -psd_tol)
    for bad in ([[0, 1], [0, 0]], [[1, 1j], [1j, 1]], random_psd(rng, 4) + 1e-6j * np.eye(4)):
        with pytest.raises(NotHermitian):
            hermitian_eigensystem(bad)
        with pytest.raises(NotHermitian):
            is_psd(bad)
    with pytest.raises(NonSquare):
        is_psd(np.zeros((2, 3)))


# the five checked entry points, each taking a matrix or a (..., d, d) stack
CHECKED = {
    "_require_hermitian": lambda a: _require_hermitian(a, Tolerance()),
    "hermitian_eigensystem": hermitian_eigensystem,
    "is_psd": is_psd,
    "project_psd": project_psd,
    "psd_principal_minors": psd_principal_minors,
}


def _bits(out):
    """An entry point's result as comparable bits."""
    if isinstance(out, tuple):
        return tuple(part.tobytes() for part in out)
    return out.tobytes() if isinstance(out, np.ndarray) else out


def _at(out, index):
    """Matrix ``index``'s part of a stacked result; a lone result is its own."""
    if not index:
        return out
    if isinstance(out, tuple):
        return tuple(part[index] for part in out)
    return bool(out[index]) if out.dtype == bool else out[index]


@pytest.mark.parametrize("name", CHECKED)
@pytest.mark.parametrize("batch", [(), (5,), (2, 5)], ids=["lone", "stack", "grid"])
def test_checked_solves_give_each_matrix_of_a_stack_its_lone_bits(rng, name, batch):
    solve = CHECKED[name]
    for dim in (1, 2, 3, 4):
        count = math.prod(batch)
        mats = [random_hermitian(rng, dim) if k % 2 else random_psd(rng, dim) for k in range(count)]
        # rounding drift within eq_tol, which the gate symmetrizes away
        stack = np.array(mats).reshape(*batch, dim, dim) + 1e-13 * rng.standard_normal((*batch, dim, dim))
        out = solve(stack)
        for index in np.ndindex(*batch):
            assert _bits(_at(out, index)) == _bits(solve(stack[index])), (name, batch, dim, index)
    for bad in (np.zeros(3), np.zeros(()), np.zeros((2, 3)), np.zeros((4, 2, 3)), np.zeros((2, 2, 3, 1))):
        with pytest.raises(NonSquare):
            solve(bad)


@pytest.mark.parametrize("name", CHECKED)
def test_a_stack_refuses_its_first_bad_matrix_by_index(rng, name):
    solve = CHECKED[name]
    skew = np.array([[1.0, 3e-6], [0.0, 1.0]])
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(NotHermitian) as lone:
        solve(skew)
    with pytest.raises(ValidationError, match="^matrix has non-finite entries$"):
        solve(nan)
    stack = np.array([random_psd(rng, 2) for _ in range(6)])
    cases = (
        ({3: skew}, NotHermitian, "matrix 3 is not Hermitian"),
        ({3: nan}, ValidationError, "matrix 3 has non-finite entries"),
        ({1: skew, 3: nan}, NotHermitian, "matrix 1 is not Hermitian"),
        ({1: nan, 3: skew}, ValidationError, "matrix 1 has non-finite entries"),
    )
    for bad, error, message in cases:
        mats = stack.copy()
        for k, mat in bad.items():
            mats[k] = mat
        with pytest.raises(error, match=f"^{message}") as caught:
            solve(mats)
        if error is NotHermitian:
            assert caught.value.residual == lone.value.residual
        k = min(bad)
        with pytest.raises(error, match=rf"^matrix \({k // 3}, {k % 3}\) "):
            solve(mats.reshape(2, 3, 2, 2))


@pytest.mark.parametrize("name", CHECKED)
def test_a_stack_is_held_to_the_tolerances_of_its_matrix_dimension(name):
    # eq_tol(2) = 1.41e-9 refuses a Hermitian residual of 2e-9; resolved at
    # the stack's length, eq_tol(300) = 1.7e-8 would pass it
    solve = CHECKED[name]
    stack = np.array([np.eye(2, dtype=complex)] * 300)
    stack[217, 0, 1] = 2e-9 / math.sqrt(2)
    with pytest.raises(NotHermitian, match="^matrix 217 is not Hermitian") as caught:
        solve(stack)
    assert caught.value.residual == pytest.approx(2e-9, rel=1e-12)


def test_a_stack_is_psd_at_the_floor_of_its_matrix_dimension():
    # psd_tol(2) = 2e-9 refuses an eigenvalue of -3e-9; psd_tol(300) would not
    stack = np.array([np.eye(2, dtype=complex)] * 300)
    stack[217] = np.diag([1.0, -3e-9])
    for oracle in (is_psd, psd_principal_minors):
        verdicts = oracle(stack)
        assert verdicts.shape == (300,)
        assert np.flatnonzero(~verdicts).tolist() == [217]


def test_an_empty_matrix_is_psd_for_both_oracles():
    for empty in (np.zeros((0, 0)), np.zeros((3, 0, 0))):
        eig, minors = is_psd(empty), psd_principal_minors(empty)
        assert np.array_equal(eig, minors) and np.all(eig)
    assert is_psd(np.zeros((0, 0))) is True


def test_a_lapack_failure_raises_no_convergence(monkeypatch):
    # is_psd eigen-solves only what its certificate does not clear: the
    # indefinite diag(-1, 2)
    for name, solve, diagonal in (("eigh", hermitian_eigensystem, [1.0, 2.0]), ("eigvalsh", is_psd, [-1.0, 2.0])):
        h = np.diag(diagonal).astype(complex)
        failing = failing_from(1, getattr(np.linalg, name))
        with pytest.raises(NoConvergence):
            eigensolve(failing, h)
        monkeypatch.setattr(np.linalg, name, failing)
        with pytest.raises(NoConvergence):
            solve(h)


def test_random_psd_batch_draws_what_one_call_per_matrix_draws():
    stack = random_psd(np.random.default_rng(3), 3, 2, batch=(2, 2))
    rng = np.random.default_rng(3)
    assert stack.shape == (2, 2, 3, 3)
    for m in stack.reshape(4, 3, 3):
        assert np.array_equal(m, random_psd(rng, 3, 2))


def test_random_hermitian_batch_draws_what_one_call_per_matrix_draws():
    stack = random_hermitian(np.random.default_rng(5), 4, batch=(3,))
    rng = np.random.default_rng(5)
    assert stack.shape == (3, 4, 4)
    for m in stack:
        assert m.tobytes() == random_hermitian(rng, 4).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_densities_draw_each_rank_as_lone_calls(n):
    # each rank, in ascending order, draws its states as back-to-back lone
    # random_density calls; the states come back as one read-only stack in
    # ranks order
    shape = QuditShape(2, n)
    ranks = np.random.default_rng(n).permutation(np.repeat(np.arange(1, shape.dim + 1), 3))
    stack = _random_densities(np.random.default_rng(9), shape, ranks)
    assert stack.shape == (len(ranks), shape.dim, shape.dim) and not stack.flags.writeable
    rng = np.random.default_rng(9)
    for rank in range(1, shape.dim + 1):
        for j in np.flatnonzero(ranks == rank):
            assert stack[j].tobytes() == random_density(rng, shape, rank).mat.tobytes()


def test_is_psd():
    assert is_psd(I2)
    assert not is_psd([[1, 2], [2, 1]])  # eigenvalue -1


def test_hermitian_part_at_both_ends_of_the_float_range():
    # a + a† overflows for these finite entries, so each term is halved
    # first: the PSD diagonal keeps its spectrum and stays PSD
    huge = np.diag([1e308, 1e308])
    assert np.array_equal(hermitian_part(huge), huge)
    assert np.array_equal(hermitian_eigensystem(huge)[0], [1e308, 1e308])
    assert is_psd(huge) is True
    skew = np.array([[1e308, 1.6e308], [1.4e308, 1e308]])
    assert np.array_equal(hermitian_part(skew), [[1e308, 1.5e308], [1.5e308, 1e308]])
    # halving first would round an odd subnormal (5e-324 / 2 is 0): a
    # Hermitian matrix of subnormals comes back unchanged
    tiny = np.array([[5e-324, 3e-320 + 5e-324j], [3e-320 - 5e-324j, 1e-310]])
    assert np.array_equal(hermitian_part(tiny), tiny)


def _peaked(h, peak):
    """``h`` scaled so that its largest real or imaginary part is ``peak``."""
    return h * (peak / np.abs(h.view(float)).max())


def _signed_zeros(rng, d):
    """A Hermitian matrix with a zero part of either sign in many entries."""
    h = random_hermitian(rng, d)
    parts = h.view(float).reshape(d, d, 2)
    for i, j in zip(*np.nonzero(np.triu(rng.random((d, d)) < 0.6))):
        which = [0] if i == j else [[0], [1], [0, 1]][rng.integers(3)]
        parts[i, j, which] = rng.choice([0.0, -0.0], len(which))
        h[j, i] = np.conj(h[i, j])  # the mirrored zero has the other sign
    return h


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: random_hermitian(rng, 16),
        lambda rng: random_hermitian(rng, 64).real.astype(complex),  # -0 imaginary parts in its adjoint
        lambda rng: _signed_zeros(rng, 8),
        lambda rng: _signed_zeros(rng, 32),
        lambda rng: random_hermitian(rng, 4) * 1e-310,  # subnormal entries
        lambda rng: _peaked(random_hermitian(rng, 4), 1e308),  # parts past _HALF_MAX / 2
        lambda rng: np.stack([random_hermitian(rng, 3), _signed_zeros(rng, 3), _peaked(random_hermitian(rng, 3), 6e307)]),
        lambda rng: random_hermitian(rng, 5).T,  # not in row order
        lambda rng: random_hermitian(rng, 256) + 1e-13 * rng.standard_normal((256, 256)),
    ],
    ids=["generic", "real", "signed-zeros", "signed-zeros-d32", "subnormal", "huge", "stack", "transposed", "d256-drift"],
)
def test_the_gate_returns_the_bits_of_hermitian_part(rng, make):
    # one conjugate transpose serves the residual and the sum, summed into
    # the residual's buffer and halved there: the bits stay hermitian_part's
    a = make(rng)
    assert _require_hermitian(a, Tolerance()).tobytes() == hermitian_part(a).tobytes()


@pytest.mark.parametrize("entry", [1e200, 1e308])
def test_a_residual_past_the_float_range_refuses_cleanly(entry):
    # the residual's squares (1e200) or the difference itself (1e308) leave
    # the float range: the gate reads inf and refuses without a RuntimeWarning
    skew = np.array([[0, entry], [-entry, 0]])
    for solve in (hermitian_eigensystem, is_psd):
        with pytest.raises(NotHermitian, match="residual inf"):
            solve(skew)
    assert frobenius_distance(skew, -skew) == math.inf
    assert frobenius_norm(skew) == math.inf


def test_a_spectrum_past_the_float_range_is_refused():
    # finite and Hermitian, but the eigenvalue 2e308 overflows inside LAPACK
    huge = np.full((2, 2), 1e308)
    for check in (hermitian_eigensystem, is_psd, project_psd):
        with pytest.raises(NoConvergence, match="non-finite spectrum"):
            check(huge)
    with pytest.raises(NoConvergence, match="non-finite spectrum"):
        validate(huge, QuditShape(2, 1))


def test_a_refused_spectrum_names_the_callers_matrix():
    # a lone matrix names none; in a stack, an overflowing matrix after one
    # the Cholesky certificate clears is named by its own batch index, not
    # by its index among the uncertified matrices.  Its eigenvalue 2e308
    # overflows inside LAPACK, while its factor overflows only the bound
    with pytest.raises(NoConvergence) as lone:
        is_psd(np.full((2, 2), 1e308))
    assert "non-finite spectrum" in str(lone.value) and "matrix" not in str(lone.value)
    overflowing = np.array([[1.5e308, 0.5e308], [0.5e308, 1.5e308]])
    psd_tol = Tolerance().at(2).psd_tol
    assert _psd_certified(np.stack([np.eye(2), overflowing]).astype(complex), psd_tol).tolist() == [True, False]
    for stack, name in ((np.stack([np.eye(2), overflowing]), "matrix 1"),
                        (np.stack([[np.eye(2)] * 2, [np.eye(2), overflowing]]), r"matrix \(1, 1\)")):
        with pytest.raises(NoConvergence, match=f"non-finite spectrum .* for {name}$"):
            is_psd(stack)


def test_the_paired_and_all_pairs_forms_agree(rng):
    stacks = [np.array([random_hermitian(rng, d) for _ in range(5)]) for d in (2, 8, 64)]
    for a in stacks:
        b = a[::-1]
        paired = frobenius_distance(a, b)
        assert paired.shape == (5,)
        want = [np.linalg.norm(x - y) for x, y in zip(a, b)]
        np.testing.assert_allclose(paired, want, rtol=1e-14)
        np.testing.assert_allclose(np.diagonal(cross_distances(a, b)), want, rtol=1e-14)
        np.testing.assert_allclose(frobenius_norm(a - b), want, rtol=1e-14)
        assert isinstance(frobenius_distance(a[0], b[0]), float)


@pytest.mark.parametrize("dim", [65, 81, 128, 256])
def test_every_distance_has_the_bits_of_its_lone_pair(rng, dim):
    # past 4096 complex entries a batched reduction could be summed in
    # pieces where a lone one is not: paired stacks and every all-pairs
    # entry must still read the pair's own frobenius_distance
    a = np.array([random_hermitian(rng, dim) for _ in range(3)])
    b = np.array([random_hermitian(rng, dim) for _ in range(4)])
    lone = np.array([[frobenius_distance(x, y) for y in b] for x in a])
    assert cross_distances(a, b).tobytes() == lone.tobytes()
    assert frobenius_distance(a, b[:3]).tobytes() == np.diagonal(lone).tobytes()
    assert frobenius_distance(a[::-1], b[1:]).tobytes() == np.diagonal(lone[::-1, 1:]).tobytes()


def test_a_refused_stack_carries_the_residual_of_its_lone_call(rng):
    # a stack of 128 x 128 matrices whose middle one is 1e-3 off Hermitian:
    # the stacked refusal names it with the residual its lone call reads
    for _ in range(4):
        stack = np.array([random_hermitian(rng, 128) for _ in range(3)])
        skew = rng.normal(size=(128, 128))
        stack[1] += 1e-3 * (skew - skew.T) / np.linalg.norm(skew - skew.T)
        with pytest.raises(NotHermitian) as lone:
            is_psd(stack[1])
        with pytest.raises(NotHermitian, match="^matrix 1 is not Hermitian") as stacked:
            is_psd(stack)
        assert stacked.value.residual == lone.value.residual


def test_congruence_preserves_psd(rng):
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        m = random_psd(rng, dim)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert is_psd(a @ m @ a.conj().T)


def test_is_psd_agrees_with_principal_minors(rng):
    for k in range(200):
        dim = int(rng.integers(1, 5))
        h = random_hermitian(rng, dim) if k % 2 else random_psd(rng, dim)
        assert is_psd(h) == psd_principal_minors(h)
    with pytest.raises(ShapeMismatch):
        psd_principal_minors(np.eye(5))


def test_zero_diagonal_forces_zero_row(rng):
    for _ in range(30):
        dim = int(rng.integers(2, 6))
        i = int(rng.integers(dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b[i, :] = 0.0
        m = project_psd(b @ b.conj().T)
        assert np.abs(m[i, :]).max() <= 1e-12
        assert np.abs(m[:, i]).max() <= 1e-12


def test_project_psd():
    np.testing.assert_allclose(project_psd(I2), I2)
    np.testing.assert_allclose(project_psd(np.zeros((3, 3))), np.zeros((3, 3)), atol=1e-15)
    clipped = project_psd([[1, 2], [2, 1]])
    w, _ = hermitian_eigensystem(clipped)
    np.testing.assert_allclose(w, [0, 3], atol=1e-12)


def test_project_psd_is_nearest_among_samples(rng):
    h = random_hermitian(rng, 4)
    p = project_psd(h)
    assert is_psd(p)
    best = frobenius_distance(p, h)
    for _ in range(50):
        q = random_psd(rng, 4)
        assert best <= frobenius_distance(q, h) + 1e-12


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(eq_tol=-1.0, psd_tol=0.0)
    t = Tolerance().at(16)
    assert t.eq_tol == pytest.approx(4e-9)
    assert t.psd_tol == pytest.approx(16e-9)
    for dim in (1, 2, 16, 64, 256):
        t = Tolerance().at(dim)
        assert (t.eq_tol, t.psd_tol, t.feas_tol) == (1e-9 * math.sqrt(dim), 1e-9 * dim, 1e-6)
        assert t.at(3) == t  # a field that is set applies at every dimension
    assert Tolerance(eq_tol=1e-8).at(64) == Tolerance(1e-8, 6.4e-8)
    assert Tolerance(psd_tol=0.0).at(64) == Tolerance(8e-9, 0.0)
    assert Tolerance().to_json_obj() == {
        "eq_tol": "1e-9*sqrt(dim)",
        "psd_tol": "1e-9*dim",
        "feas_tol": 1e-6,
    }
    assert Tolerance(psd_tol=0.0, feas_tol=1e-7).to_json_obj() == {
        "eq_tol": "1e-9*sqrt(dim)",
        "psd_tol": 0.0,
        "feas_tol": 1e-7,
    }


def _certificate_cases(rng, d, psd_tol):
    """Fresh Hermitian matrices of order d around the edges of the PSD
    certificate at psd_tol: PSD of full rank, rank-deficient, with a least
    eigenvalue planted inside the shift (-psd_tol / 4), and PSD but of a norm
    whose rounding the bound does not clear."""
    shape = QuditShape(d, 1) if d > 1 else QuditShape(2, 0)
    mats = [
        planted_state(rng, shape, 0.5 / d),
        planted_state(rng, shape, 0.0, max(2, d // 2)),
        planted_state(rng, shape, -psd_tol / 4),
        1e8 * planted_state(rng, shape, 0.5 / d),
    ]
    return [hermitian_part(m) for m in mats]


@pytest.mark.parametrize("psd_tol", [None, 0.0], ids=["default", "psd_tol=0"])
def test_a_stacked_certificate_gives_each_matrix_its_lone_verdict(psd_tol):
    # every verdict of one stacked factorization is the lone call's, the
    # stack is left as given, and a batch of two axes keeps its shape
    rng = np.random.default_rng(5)
    for d in range(1, 33):
        tol = Tolerance(psd_tol=psd_tol).at(d).psd_tol
        mats = _certificate_cases(rng, d, tol) + _certificate_cases(rng, d, tol)
        stack = np.stack([mats[k] for k in rng.permutation(len(mats))])
        before = stack.tobytes()
        alone = [_psd_certified(m.copy(), tol) for m in stack]
        assert all(type(verdict) is bool for verdict in alone)
        got = _psd_certified(stack, tol)
        assert stack.tobytes() == before
        assert got.dtype == bool and got.tolist() == alone, d
        assert _psd_certified(stack.reshape(2, -1, d, d), tol).ravel().tolist() == alone
        if psd_tol is None:  # the large norm fails its bound alone, the rest pass
            assert alone.count(True) == 6
        else:
            assert not any(alone)


def test_a_stack_with_a_member_that_fails_to_factor_certifies_none():
    rng = np.random.default_rng(6)
    for d in (1, 2, 5, 16):
        tol = Tolerance().at(d).psd_tol
        shape = QuditShape(d, 1) if d > 1 else QuditShape(2, 0)
        good = _certificate_cases(rng, d, tol)[:3]
        refused = hermitian_part(planted_state(rng, shape, -4 * tol))  # below the shift
        assert not _psd_certified(refused.copy(), tol)
        assert all(_psd_certified(m.copy(), tol) for m in good)
        stack = np.stack(good + [refused])
        before = stack.tobytes()
        assert _psd_certified(stack, tol).tolist() == [False] * 4
        assert stack.tobytes() == before


def test_only_the_uncertified_matrices_are_eigen_solved(monkeypatch):
    rng = np.random.default_rng(7)
    d = 6
    tol = Tolerance().at(d).psd_tol
    mats = _certificate_cases(rng, d, tol)  # the last fails its bound alone
    stack = np.stack(mats + mats[:3])
    solved, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: solved.append(h.shape) or real(h))
    assert _least_eigenvalues(stack[:3], tol).tolist() == [0.0] * 3 and solved == []
    lowest = _least_eigenvalues(stack.reshape(7, 1, d, d), tol)
    assert solved == [(1, d, d)] and lowest.shape == (7, 1)
    assert lowest[3].tobytes() == real(stack[3])[:1].tobytes()
    assert np.delete(lowest, 3).tolist() == [0.0] * 6
