import cmath
import math
from itertools import product

import numpy as np
import pytest

import qindel.codes as codes
from qindel.channels import delete
from qindel.codes import (
    builtin_code,
    builtin_state,
    collision_pair_x2,
    code_params,
    dicke_ket,
    example_psi,
    example_rho,
    hagiwara_codeword,
    hagiwara_double_deletion,
    hagiwara_single_deletion,
    in_del_after_ins_sphere,
    in_ins_after_del_sphere,
    x1_codeword,
    x2_collision_params,
)
from qindel.errors import (
    CountOutOfRange,
    DegenerateParam,
    NotNormalized,
    ParseError,
    PositionOutOfRange,
    SizeCapExceeded,
    WeightOutOfRange,
)
from qindel.feasibility import FeasibilityStatus, member_del_ins, member_ins_del
from qindel.rand import random_density
from qindel.states import DensityMatrix, QuditShape, basis_ket, density_from_ket, validate

from conftest import example_insertion


def test_dicke_kets():
    # oracle: the sum of the basis kets of weight i
    for n in range(9):
        shape = QuditShape(2, n)
        for i in range(n + 1):
            oracle = np.zeros(shape.dim, dtype=complex)
            for bits in product((0, 1), repeat=n):
                if sum(bits) == i:
                    oracle += basis_ket(bits, shape)
            assert np.array_equal(dicke_ket(n, i), oracle), (n, i)
    with pytest.raises(SizeCapExceeded):
        dicke_ket(9, 0)
    np.testing.assert_array_equal(dicke_ket(4, 0), basis_ket("0000", QuditShape(2, 4)))
    np.testing.assert_array_equal(dicke_ket(4, 4), basis_ket("1111", QuditShape(2, 4)))
    assert np.linalg.norm(dicke_ket(4, 2)) == pytest.approx(math.sqrt(6))
    assert np.count_nonzero(dicke_ket(4, 2)) == 6
    with pytest.raises(WeightOutOfRange):
        dicke_ket(4, 5)
    with pytest.raises(WeightOutOfRange, match="must be an integer"):
        dicke_ket(4, 1.5)  # not a zero ket


def test_weight_kets_are_orthogonal():
    for i in range(4):
        for j in range(4):
            ip = dicke_ket(3, i) @ dicke_ket(3, j).conj()
            assert ip == (0 if i != j else pytest.approx(math.comb(3, i)))


def test_hagiwara_codeword_endpoints():
    shape = QuditShape(2, 4)
    ghz = (basis_ket("0000", shape) + basis_ket("1111", shape)) / math.sqrt(2)
    np.testing.assert_allclose(hagiwara_codeword(1, 0).mat, np.outer(ghz, ghz.conj()), atol=1e-15)
    w2 = dicke_ket(4, 2) / math.sqrt(6)
    np.testing.assert_allclose(hagiwara_codeword(0, 1).mat, np.outer(w2, w2.conj()), atol=1e-15)
    with pytest.raises(NotNormalized):
        hagiwara_codeword(1, 1)


@pytest.mark.parametrize("grid", [(), (9, 12)], ids=["default-grid", "grid-9-12"])
def test_hagiwara_codewords_keep_the_bits_of_the_inline_formula(grid):
    # the logical kets are module constants; every grid codeword, and the
    # collision pair's, is the matrix building them per call gave, bit for bit
    shape = QuditShape(2, 4)
    zero_l = (dicke_ket(4, 0) + dicke_ket(4, 4)) / math.sqrt(2)
    one_l = dicke_ket(4, 2) / math.sqrt(6)
    for a, b in code_params(*grid) + [x2_collision_params()]:
        a, b = complex(a), complex(b)
        expected = density_from_ket(a * zero_l + b * one_l, shape)
        assert np.array_equal(hagiwara_codeword(a, b).mat, expected.mat)


def _per_state_formula(name, a, b):
    """The parent formula of one grid state: its ket built alone, then np.outer."""
    if name == "x1":
        shape = QuditShape(2, 2)
        zero, one = basis_ket("00", shape), basis_ket("11", shape)
    else:
        zero, one = (dicke_ket(4, 0) + dicke_ket(4, 4)) / math.sqrt(2), dicke_ket(4, 2) / math.sqrt(6)
    ket = complex(a) * zero + complex(b) * one
    return np.outer(ket, ket.conj())


def _offered_labels(monkeypatch) -> list[str]:
    """The labels the next grid code is offered, in order, filled in when
    ``codes._grid_code`` hands them to ``CodeSample``; each kept state is the
    first offered row with its label."""
    labels, real = [], codes.CodeSample

    def recorded(shape, stack, offered, tol):
        labels.extend(offered)
        return real(shape, stack, offered, tol)

    monkeypatch.setattr(codes, "CodeSample", recorded)
    return labels


@pytest.mark.parametrize("name, grid, offered, kept", [("x1", (2, 1), 4, 4), ("hagiwara4", (9, 12), 110, 86)])
def test_a_grid_code_is_handed_its_codeword_stack(monkeypatch, name, grid, offered, kept):
    # the code keeps the one stack _codewords builds when every row is kept,
    # and otherwise one gather of the kept rows, which its states view
    stacks, real = [], codes._codewords
    monkeypatch.setattr(codes, "_codewords", lambda family, params: stacks.append(real(family, params)) or stacks[-1])
    labels = _offered_labels(monkeypatch)
    code = builtin_code(name, code_params(*grid))
    (stack,) = stacks
    assert (len(stack), len(labels), len(code)) == (offered, offered, kept)
    rows = [labels.index(label) for label in code.labels]  # the offered row each kept state is
    if kept == offered:
        assert code.stack is stack
    else:
        assert not np.shares_memory(code.stack, stack)
    assert code.stack.tobytes() == stack[rows].tobytes() and not code.stack.flags.writeable
    assert all(np.shares_memory(state.mat, code.stack) for state in code.states)


@pytest.mark.parametrize("name", ["x1", "hagiwara4"])
@pytest.mark.parametrize("grid", [None, (9, 12), (2, 1)], ids=["default-grid", "grid-9-12", "grid-2-1"])
def test_grid_states_keep_the_bits_of_the_per_state_formula(monkeypatch, name, grid):
    # the grid and its appended pair are built as one read-only stack, and
    # every state is a view of its row with the bits of building it alone
    labels = _offered_labels(monkeypatch)
    code = builtin_code(name, None if grid is None else code_params(*grid))
    params = code_params(*(grid or ()))
    if name == "x1":
        a, b = math.cos(math.pi / 8), math.sin(math.pi / 8)
        params += [(a, b * cmath.exp(1j * k * math.pi / 3)) for k in (1, 2)]
    else:
        alpha, beta = x2_collision_params()
        phase = cmath.exp(2j * (cmath.phase(alpha) - cmath.phase(beta)))
        params += [(alpha, beta), (alpha, phase * beta)]
    offered = [_per_state_formula(name, a, b) for a, b in params]
    assert len(labels) == len(offered)
    for state, k in zip(code.states, [labels.index(label) for label in code.labels], strict=True):
        assert state.mat.tobytes() == offered[k].tobytes()
        assert not state.mat.flags.writeable
        assert state.mat.base is not None and state.mat.base is code.states[0].mat.base


@pytest.mark.parametrize("name", ["x1", "hagiwara4"])
def test_a_bad_grid_pair_is_refused_as_its_lone_codeword_is(name):
    # the first pair off the unit sphere is named by its residual, with the
    # message the one-state check gives; later bad pairs are not reached
    good = code_params(3, 2)
    for bad in ([(1, 1), (0.5, 0.5)], [(math.nan, 0), (1, 1)], [(0.6, 0.8 + 1e-6), (2, 0)]):
        with pytest.raises(NotNormalized) as lone:
            x1_codeword(*bad[0])
        with pytest.raises(NotNormalized) as grid:
            builtin_code(name, good[:2] + bad + good[2:])
        assert str(grid.value) == str(lone.value)
        assert str(lone.value).startswith("|alpha|^2+|beta|^2 differs from 1 by ")
        assert grid.value.residual == lone.value.residual or math.isnan(lone.value.residual)


@pytest.mark.parametrize(
    "build", [hagiwara_codeword, x1_codeword, hagiwara_single_deletion, hagiwara_double_deletion]
)
@pytest.mark.parametrize(
    "alpha, beta",
    [(math.nan, 0), (0.6, complex(math.nan, math.nan)), (math.inf, 0)],
    ids=["nan-alpha", "complex-nan-beta", "inf-alpha"],
)
def test_non_finite_amplitudes_are_not_normalized(build, alpha, beta):
    # a NaN residual fails the normalization check like any other: the
    # error names it, before any matrix is built
    with pytest.raises(NotNormalized) as info:
        build(alpha, beta)
    assert not info.value.residual <= 1e-9


def test_single_deletion_closed_form():
    # every deletion position of every sampled codeword matches the closed form
    alpha_c, beta_c = x2_collision_params()
    for a, b in [(1, 0), (0, 1), (1 / math.sqrt(2), 1 / math.sqrt(2)), (alpha_c, beta_c)]:
        word = hagiwara_codeword(a, b)
        expected = hagiwara_single_deletion(a, b)
        for p in range(1, 5):
            assert delete(word, {p}).distance(expected) <= 1e-10
        validate(expected.mat, expected.shape)


def test_double_deletion_closed_form():
    alpha_c, beta_c = x2_collision_params()
    for a, b in [(1, 0), (0.6, 0.8j), (alpha_c, beta_c)]:
        word = hagiwara_codeword(a, b)
        expected = hagiwara_double_deletion(a, b)
        for combo in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
            assert delete(word, combo).distance(expected) <= 1e-10


def test_x1_codeword():
    np.testing.assert_allclose(x1_codeword(1, 0).mat, np.diag([1.0, 0, 0, 0]))
    np.testing.assert_allclose(x1_codeword(0, 1).mat, np.diag([0, 0, 0, 1.0]))
    a, b = 0.6, 0.8 * cmath.exp(1j * 0.3)
    word = x1_codeword(a, b)
    target = np.diag([abs(a) ** 2, abs(b) ** 2]).astype(complex)
    for p in (1, 2):
        assert np.linalg.norm(delete(word, {p}).mat - target) <= 1e-12


def test_sigma_fixtures_delete_back(rng):
    p0, p1 = 0.4, 0.6
    rho = example_rho(p0, p1)
    pi00 = random_density(rng, QuditShape(2, 1)).mat
    pi11 = random_density(rng, QuditShape(2, 1)).mat
    a = 0.02 * np.array([[1, 2j], [0.5, -1]], dtype=complex)  # traceless
    for q in (1, 2, 3):
        sig = example_insertion(q, p0, p1, pi00, pi11, a)
        assert delete(sig, {q}).distance(rho) <= 1e-12
    with pytest.raises(PositionOutOfRange):
        example_insertion(4, p0, p1, pi00, pi11, a)

    # one-position deletions of the front insertion drop the coherence block entirely
    sig1 = example_insertion(1, p0, p1, pi00, pi11, a)
    expected = DensityMatrix(
        QuditShape(2, 2),
        p0 * np.kron(pi00, np.diag([1.0, 0])) + p1 * np.kron(pi11, np.diag([0, 1.0])),
    )
    assert delete(sig1, {2}).distance(expected) <= 1e-12
    assert delete(sig1, {3}).distance(expected) <= 1e-12


_HALF = np.eye(2) / 2


@pytest.mark.parametrize(
    "build, p0, p1, error",
    [
        pytest.param(example_rho, 0.3, 0.3, NotNormalized, id="rho-trace-0.6"),
        pytest.param(example_rho, 1.5, -0.5, WeightOutOfRange, id="rho-negative"),
        pytest.param(example_psi, -0.5, 1.5, WeightOutOfRange, id="psi-negative"),
        pytest.param(
            lambda p0, p1: example_insertion(1, p0, p1, _HALF, _HALF, np.zeros((2, 2))),
            0.3, 0.3, NotNormalized, id="insertion-trace-0.6",
        ),
        pytest.param(
            lambda p0, p1: in_del_after_ins_sphere(example_rho(), p0, p1),
            0.3, 0.3, NotNormalized, id="del-after-ins-trace-0.6",
        ),
        pytest.param(
            lambda p0, p1: in_ins_after_del_sphere(example_rho(), p0, p1),
            float("nan"), 0.5, WeightOutOfRange, id="ins-after-del-nan",
        ),
    ],
)
def test_example_weights_must_make_a_state(build, p0, p1, error):
    # weights that make no state are refused by name, with the normalization residual
    with pytest.raises(error) as info:
        build(p0, p1)
    if error is NotNormalized:
        assert info.value.residual == pytest.approx(0.4)


def test_insert_construct_matches_explicit_fixtures(rng):
    # blocks fed through the generic constructor reproduce the hand-built
    # example insertion at every position
    from qindel.channels import IndexSet, insert_construct
    from qindel.states import spectral_decompose

    p0, p1 = 0.3, 0.7
    rho = example_rho(p0, p1)

    def well_conditioned_pi():
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T + 2 * np.eye(2)
        return m / np.trace(m).real

    pi00, pi11 = well_conditioned_pi(), well_conditioned_pi()
    a = 0.05 * np.array([[0.1 + 0.2j, 0.05], [0.3j, -0.1 - 0.2j]])  # traceless

    form = spectral_decompose(rho)
    k00 = basis_ket("00", rho.shape)
    idx00 = max(range(2), key=lambda k: abs(form.kets[:, k] @ k00.conj()))
    idx11 = 1 - idx00
    # the diagonal source pins the eigenbasis to exact computational kets
    assert abs(form.kets[:, idx00] @ k00.conj() - 1.0) < 1e-12
    arr = np.zeros((2, 2, 2, 2), dtype=complex)
    arr[idx00, idx00], arr[idx11, idx11] = pi00, pi11
    arr[idx11, idx00], arr[idx00, idx11] = a, a.conj().T
    blocks = arr

    for q in (1, 2, 3):
        built = insert_construct(rho, IndexSet((q,), 3), blocks)
        assert built.distance(example_insertion(q, p0, p1, pi00, pi11, a)) <= 1e-12


def test_structural_membership_oracle(rng):
    rho = example_rho(0.5, 0.5)
    psi = example_psi(0.5, 0.5)
    assert in_del_after_ins_sphere(rho)
    assert not in_del_after_ins_sphere(psi)  # nonzero cross coherence
    assert in_ins_after_del_sphere(psi)
    assert in_ins_after_del_sphere(rho)

    pi00 = random_density(rng, QuditShape(2, 1)).mat
    pi11 = random_density(rng, QuditShape(2, 1)).mat
    member = DensityMatrix(
        QuditShape(2, 2),
        0.5 * np.kron(np.diag([1.0, 0]), pi00) + 0.5 * np.kron(np.diag([0, 1.0]), pi11),
    )
    assert in_del_after_ins_sphere(member)
    assert in_ins_after_del_sphere(member)


def test_structural_oracle_degenerate_weights(rng):
    # with the second weight zero both composition orders give the same sphere
    for _ in range(10):
        pi = random_density(rng, QuditShape(2, 1)).mat
        left = DensityMatrix(QuditShape(2, 2), np.kron(np.diag([1.0, 0]), pi))
        right = DensityMatrix(QuditShape(2, 2), np.kron(pi, np.diag([1.0, 0])))
        for state in (left, right):
            assert in_del_after_ins_sphere(state, 1.0, 0.0)
            assert in_ins_after_del_sphere(state, 1.0, 0.0)
    outside = example_psi(0.5, 0.5)
    assert not in_del_after_ins_sphere(outside, 1.0, 0.0)
    assert not in_ins_after_del_sphere(outside, 1.0, 0.0)


@pytest.mark.parametrize("shift, member", [(1.2e-9, False), (0.9e-9, True)])
def test_ins_after_del_oracle_compares_marginals_at_their_own_dimension(shift, member):
    # the 1-qubit marginals are shift * sqrt(2) from the target: 1.70e-9 is
    # past eq_tol at dim 2 (1.414e-9), 1.27e-9 is within it
    sigma = DensityMatrix(QuditShape(2, 2), np.diag([0.5 + shift, 0, 0, 0.5 - shift]))
    assert in_ins_after_del_sphere(sigma) is member
    assert member_ins_del(sigma, example_rho(), 1, 1) is member


def test_structural_oracle_agrees_with_feasibility(rng):
    # membership by closed form == membership by PSD feasibility, 100 states
    rho = example_rho(0.5, 0.5)
    samples = []
    for _ in range(30):  # members of the two one-sided families
        pi00 = random_density(rng, QuditShape(2, 1)).mat
        pi11 = random_density(rng, QuditShape(2, 1)).mat
        samples.append(0.5 * np.kron(pi00, np.diag([1.0, 0])) + 0.5 * np.kron(pi11, np.diag([0, 1.0])))
        pi00 = random_density(rng, QuditShape(2, 1)).mat
        pi11 = random_density(rng, QuditShape(2, 1)).mat
        samples.append(0.5 * np.kron(np.diag([1.0, 0]), pi00) + 0.5 * np.kron(np.diag([0, 1.0]), pi11))
    samples.append(rho.mat)
    samples.append(example_psi(0.5, 0.5).mat)
    while len(samples) < 100:  # generic states sit clearly outside
        samples.append(random_density(rng, QuditShape(2, 2), int(rng.integers(1, 5))).mat)

    for k, mat in enumerate(samples):
        sigma = DensityMatrix(QuditShape(2, 2), mat)
        predicted = in_del_after_ins_sphere(sigma)
        report = member_del_ins(sigma, rho, 1, 1)
        assert report.status is not FeasibilityStatus.INCONCLUSIVE, f"sample {k}"
        assert (report.status is FeasibilityStatus.FEASIBLE) == predicted, f"sample {k}"


def test_collision_pair():
    psi1, psi2 = collision_pair_x2(*x2_collision_params())
    assert psi1.distance(psi2) > 1e-3
    with pytest.raises(DegenerateParam):
        collision_pair_x2(1.0, 0.0)
    with pytest.raises(DegenerateParam):
        collision_pair_x2(0.6, 0.8)  # both real: phase factor 1, pair coincides

    # both two-deletion states coincide with the closed form
    form1 = hagiwara_double_deletion(*x2_collision_params())
    for combo in [(1, 2), (3, 4)]:
        assert delete(psi1, combo).distance(form1) <= 1e-10
        assert delete(psi2, combo).distance(form1) <= 1e-10


def test_grids_and_samples():
    params = code_params()
    assert len(params) == 40
    x2 = builtin_code("hagiwara4")
    assert "collision-1" in x2.labels and "collision-2" in x2.labels
    assert len(x2) >= 26
    x1 = builtin_code("x1")
    assert "phase-1" in x1.labels and "phase-2" in x1.labels
    a, b = math.cos(math.pi / 8), math.sin(math.pi / 8)
    for k in (1, 2):
        phase_k = x1.states[x1.labels.index(f"phase-{k}")]
        assert np.array_equal(phase_k.mat, x1_codeword(a, b * cmath.exp(1j * k * math.pi / 3)).mat)


def test_builtin_registry():
    assert builtin_state("rho").distance(example_rho()) == 0
    assert builtin_state("psi").distance(example_psi()) == 0
    assert builtin_state("hagiwara4", "0,0").distance(hagiwara_codeword(1, 0)) <= 1e-15
    assert builtin_state("x1").length == 2
    assert len(builtin_code("collision-x2")) == 2
    with pytest.raises(ParseError):
        builtin_state("nope")
    with pytest.raises(ParseError):
        builtin_state("hagiwara4", "a,b")
    for name, args in (("rho", "0.3,0.1"), ("psi", "0")):
        with pytest.raises(ParseError, match=f"builtin state '{name}' takes no parameters"):
            builtin_state(name, args)
    for name, args in (("x1", "inf,0"), ("hagiwara4", "0,nan"), ("x1", "-inf,-inf")):
        with pytest.raises(ParseError, match="theta and phi must be finite"):
            builtin_state(name, args)
    with pytest.raises(ParseError):
        builtin_code("nope")


@pytest.mark.parametrize("n_theta, n_phi", [(1, 8), (0, 8), (5, 0), (2, -1)])
def test_code_params_refuses_a_grid_without_two_angles_and_a_phase(n_theta, n_phi):
    # one angle leaves no spacing, and an empty grid would leave a builtin
    # code with only its appended pair
    with pytest.raises(CountOutOfRange, match="n_theta >= 2 and n_phi >= 1"):
        code_params(n_theta, n_phi)
    assert len(code_params(2, 1)) == 2

