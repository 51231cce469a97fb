import cmath
import math
from itertools import combinations

import numpy as np
import pytest

from qindel.channels import delete
from qindel.codes import (
    builtin_code,
    collision_pair_x2,
    example_psi,
    example_rho,
    x1_code_sample,
    x2_collision_params,
)
from qindel.distance import (
    CodeSample,
    corrects,
    corrects_insertions,
    indel_distance,
    metric_check,
    min_distance,
)
from qindel.errors import CountOutOfRange, DuplicateStates, LevelMismatch, TooFewStates
from qindel.linalg import Tolerance
from qindel.rand import random_density
from qindel.states import DensityMatrix, QuditShape, basis_ket, density_from_ket
from conftest import make_states


def _pure(digits, level=2):
    shape = QuditShape(level, len(digits))
    return density_from_ket(basis_ket(digits, shape), shape)


def test_distance_zero_iff_equal(rng):
    rho = random_density(rng, QuditShape(2, 2))
    assert indel_distance(rho, rho).value == 0
    other = random_density(rng, QuditShape(2, 2))
    assert indel_distance(rho, other).value > 0


def test_distance_of_mirrored_mixtures():
    shape = QuditShape(2, 2)
    rho1 = example_rho(0.5, 0.5)
    k01, k10 = basis_ket("01", shape), basis_ket("10", shape)
    rho2 = DensityMatrix(shape, 0.5 * np.outer(k01, k01) + 0.5 * np.outer(k10, k10))
    result = indel_distance(rho1, rho2)
    assert result.value == 2
    assert (result.s, result.t) == (1, 1)
    # the witness re-verifies: both deletions land on the common state
    assert delete(rho1, result.P).distance(result.common) <= 1e-12
    assert delete(rho2, result.Q).distance(result.common) <= 1e-12
    np.testing.assert_allclose(result.common.mat, np.eye(2) / 2, atol=1e-12)


def test_distance_across_lengths():
    assert indel_distance(_pure("0"), _pure("01")).value == 1
    assert indel_distance(_pure("01"), _pure("0")).value == 1
    with pytest.raises(LevelMismatch):
        indel_distance(_pure("0"), _pure("0", level=3))


def test_distance_even_and_symmetric(rng):
    for _ in range(15):
        a = random_density(rng, QuditShape(2, 2), int(rng.integers(1, 5)))
        b = random_density(rng, QuditShape(2, 2), int(rng.integers(1, 5)))
        d_ab = indel_distance(a, b).value
        assert d_ab % 2 == 0
        assert d_ab == indel_distance(b, a).value


def test_min_distance_x1_grid():
    value, pair, result = min_distance(x1_code_sample())
    assert value == 2
    assert result.value == 2


def _grid(n_theta, n_phi):
    """The (alpha, beta) parameters of ``--grid N_THETA,N_PHI``."""
    thetas = [k * (math.pi / 2) / (n_theta - 1) for k in range(n_theta)]
    phis = [k * 2 * math.pi / n_phi for k in range(n_phi)]
    return [(complex(math.cos(th)), cmath.exp(1j * ph) * math.sin(th)) for th in thetas for ph in phis]


def _assert_matches_pairwise_oracle(code):
    value, pair, result = min_distance(code)
    oracle = [(indel_distance(a, b), i, j) for (i, a), (j, b) in combinations(enumerate(code.states), 2)]
    want = min(r.value for r, _, _ in oracle)
    first, i, j = next((r, i, j) for r, i, j in oracle if r.value == want)
    assert value == result.value == want
    assert pair == (code.labels[i], code.labels[j])
    assert (result.s, result.t) == (first.s, first.t) == (want // 2, want // 2)
    assert (result.P, result.Q) == (first.P, first.Q)
    np.testing.assert_array_equal(result.common.mat, first.common.mat)
    eq_tol = Tolerance().at(result.common.dim).eq_tol
    assert delete(code.states[i], result.P).distance(result.common) <= eq_tol
    assert delete(code.states[j], result.Q).distance(result.common) <= eq_tol
    return value


def test_min_distance_matches_pairwise_oracle(rng):
    for name, want in (("x1", 2), ("hagiwara4", 4)):
        for grid in ((2, 1), (3, 2), (4, 5), (6, 3)):
            assert _assert_matches_pairwise_oracle(builtin_code(name, _grid(*grid))) == want
    for _ in range(8):
        n = int(rng.integers(1, 4))
        code = CodeSample.from_states(make_states(rng, 2, n, int(rng.integers(2, 6))))
        _assert_matches_pairwise_oracle(code)
    # the single-qubit deletions of one state: every pair shares a marginal,
    # so many pairs and cross pairs meet at the same level
    for n in (3, 4):
        tau = random_density(rng, QuditShape(2, n))
        code = CodeSample.from_states([delete(tau, {p}) for p in range(1, n + 1)])
        assert _assert_matches_pairwise_oracle(code) == 2
    # generic states first, so the closest pair is the last one
    tau = random_density(rng, QuditShape(2, 3))
    code = CodeSample.from_states(make_states(rng, 2, 2, 3) + [delete(tau, {1}), delete(tau, {3})])
    assert _assert_matches_pairwise_oracle(code) == 2
    assert min_distance(code)[1] == ("state3", "state4")


def test_min_distance_orthogonal_product_states():
    # single deletions give |0><0| vs |1><1| (disjoint); empty states meet at 4
    code = CodeSample.from_states([_pure("00"), _pure("11")], ["00", "11"])
    value, _, _ = min_distance(code)
    assert value == 4
    with pytest.raises(TooFewStates):
        min_distance(CodeSample.from_states([_pure("00")]))


def test_collision_pair_distance():
    psi1, psi2 = collision_pair_x2(*x2_collision_params())
    assert indel_distance(psi1, psi2).value == 4


def test_corrects_deletions():
    x1 = x1_code_sample()
    verdict = corrects(x1, 1, "deletions")
    assert verdict.ok is False
    i, j = (x1.labels.index(lbl) for lbl in verdict.evidence["closest_pair"])
    a, b = x1.states[i], x1.states[j]
    # evidence pair differs only in relative phase
    np.testing.assert_allclose(np.diag(a.mat), np.diag(b.mat), atol=1e-9)
    assert a.distance(b) > 1e-6

    pair = CodeSample.from_states([example_rho(0.5, 0.5), example_psi(0.5, 0.5)], ["rho", "psi"])
    assert corrects(pair, 1, "deletions").ok is False

    collision_code = CodeSample.from_states(collision_pair_x2(*x2_collision_params()))
    assert corrects(collision_code, 1, "deletions").ok is True  # distance 4 >= 3
    assert corrects(collision_code, 1, "total").ok is True
    assert corrects(collision_code, 2, "deletions").ok is False  # 4 < 5

    with pytest.raises(CountOutOfRange):
        corrects(pair, 0, "deletions")
    with pytest.raises(ValueError):
        corrects(pair, 1, "sideways")


def test_corrects_insertions_true_and_false():
    pair = CodeSample.from_states([example_rho(0.5, 0.5), example_psi(0.5, 0.5)], ["rho", "psi"])
    assert corrects_insertions(pair, 1).ok is True

    # two distinct states sharing the insertion |010>: deleting position 1
    # gives one, deleting position 3 gives the other
    sharing = CodeSample.from_states([_pure("10"), _pure("01")], ["10", "01"])
    verdict = corrects_insertions(sharing, 1)
    assert verdict.ok is False
    assert verdict.evidence["witness"] is not None

    far = CodeSample.from_states([_pure("00"), _pure("11")], ["00", "11"])
    assert corrects_insertions(far, 1).ok is True  # distance 4 implies disjoint spheres


def test_threshold_matches_sphere_disjointness(rng):
    # min_distance >= 2t+1 holds exactly when all pairwise t-deletion spheres
    # are disjoint, for t in {1, 2}
    from qindel.channels import deletion_sphere

    codes = [
        CodeSample.from_states([_pure("00"), _pure("11")]),
        CodeSample.from_states(collision_pair_x2(*x2_collision_params())),
        CodeSample.from_states(make_states(rng, 2, 2, 4)),
        CodeSample.from_states(
            [example_rho(0.5, 0.5), example_psi(0.5, 0.5), _pure("01")]
        ),
    ]
    for code in codes:
        n = code.states[0].length
        value, _, _ = min_distance(code)
        for t in (1, 2):
            if t > n:
                continue
            disjoint = True
            for i in range(len(code)):
                for j in range(i + 1, len(code)):
                    a = deletion_sphere(code.states[i], t)
                    b = deletion_sphere(code.states[j], t)
                    if a.intersection_witness(b) is not None:
                        disjoint = False
            assert disjoint == (value >= 2 * t + 1)


def test_metric_check(rng):
    rho = example_rho(0.5, 0.5)
    assert metric_check([(rho, rho, rho)])["ok"]

    shape = QuditShape(2, 2)
    k01, k10 = basis_ket("01", shape), basis_ket("10", shape)
    rho2 = DensityMatrix(shape, 0.5 * np.outer(k01, k01) + 0.5 * np.outer(k10, k10))
    assert metric_check([(rho, rho2, _pure("00"))])["ok"]

    triples = [tuple(make_states(rng, 2, 2, 3)) for _ in range(10)]
    report = metric_check(triples)
    assert report["checked"] == 10
    assert report["violations"] == []
    assert report["odd_equal_length"] == 0

    # d(|00>, |0>) = 1 is odd, but between states of different lengths
    one = density_from_ket(basis_ket("0", QuditShape(2, 1)), QuditShape(2, 1))
    report = metric_check([(_pure("00"), one, _pure("01"))])
    assert report["ok"] and report["odd_equal_length"] == 0

    # identity is judged at the tolerance the distances are taken at
    near = example_rho(0.5 + 1e-4, 0.5 - 1e-4)
    assert 1e-4 < rho.distance(near) < 1e-3
    report = metric_check([(rho, near, rho)], Tolerance(eq_tol=1e-3))
    assert report["ok"] and report["violations"] == []


def test_metric_check_counts_odd_equal_length_distances(monkeypatch):
    import qindel.distance

    # metric_check takes each distance from levels it builds once per triple
    monkeypatch.setattr(qindel.distance, "_level_distance", lambda x, y: 1)
    one = density_from_ket(basis_ket("0", QuditShape(2, 1)), QuditShape(2, 1))
    assert metric_check([(_pure("00"), _pure("01"), _pure("10"))])["odd_equal_length"] == 3
    assert metric_check([(_pure("00"), one, _pure("10"))])["odd_equal_length"] == 1


def test_code_sample_rejects_duplicates():
    with pytest.raises(DuplicateStates, match="coincide"):
        CodeSample.from_states([_pure("00"), _pure("00")])
