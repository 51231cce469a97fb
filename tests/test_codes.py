import cmath
import math

import numpy as np
import pytest

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
    sigma_1,
    sigma_2,
    sigma_3,
    x1_code_sample,
    x1_codeword,
    x2_code_sample,
    x2_collision_params,
)
from qindel.errors import DegenerateParam, NotNormalized, ParseError, WeightOutOfRange
from qindel.feasibility import FeasibilityStatus, member_del_ins
from qindel.rand import random_density
from qindel.states import DensityMatrix, QuditShape, basis_ket, validate


def test_dicke_kets():
    np.testing.assert_array_equal(dicke_ket(4, 0), basis_ket("0000", QuditShape(2, 4)))
    np.testing.assert_array_equal(dicke_ket(4, 4), basis_ket("1111", QuditShape(2, 4)))
    assert np.linalg.norm(dicke_ket(4, 2)) == pytest.approx(math.sqrt(6))
    assert np.count_nonzero(dicke_ket(4, 2)) == 6
    with pytest.raises(WeightOutOfRange):
        dicke_ket(4, 5)


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
    for q, fixture in ((1, sigma_1), (2, sigma_2), (3, sigma_3)):
        sig = fixture(p0, p1, pi00, pi11, a)
        assert delete(sig, {q}).distance(rho) <= 1e-12

    # one-position deletions of sigma_1 drop the coherence block entirely
    sig1 = sigma_1(p0, p1, pi00, pi11, a)
    expected = DensityMatrix(
        QuditShape(2, 2),
        p0 * np.kron(pi00, np.diag([1.0, 0])) + p1 * np.kron(pi11, np.diag([0, 1.0])),
    )
    assert delete(sig1, {2}).distance(expected) <= 1e-12
    assert delete(sig1, {3}).distance(expected) <= 1e-12


def test_insert_construct_matches_explicit_fixtures(rng):
    # blocks fed through the generic constructor reproduce the hand-built
    # sigma formulas at every insertion position
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

    for q, fixture in ((1, sigma_1), (2, sigma_2), (3, sigma_3)):
        built = insert_construct(rho, IndexSet((q,), 3), blocks)
        assert built.distance(fixture(p0, p1, pi00, pi11, a)) <= 1e-12


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
    x2 = x2_code_sample()
    assert "collision-1" in x2.labels and "collision-2" in x2.labels
    assert len(x2) >= 26
    x1 = x1_code_sample()
    assert "phase-1" in x1.labels and "phase-2" in x1.labels


def test_builtin_registry():
    assert builtin_state("rho").distance(example_rho()) == 0
    assert builtin_state("psi").distance(example_psi()) == 0
    assert builtin_state("hagiwara4", "0,0").distance(hagiwara_codeword(1, 0)) <= 1e-15
    assert builtin_state("x1").length == 2
    assert len(builtin_code("collision-x2")) == 2
    assert len(builtin_code("x1")) == len(x1_code_sample())
    with pytest.raises(ParseError):
        builtin_state("nope")
    with pytest.raises(ParseError):
        builtin_state("hagiwara4", "a,b")
    with pytest.raises(ParseError):
        builtin_code("nope")
