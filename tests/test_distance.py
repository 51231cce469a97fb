import cmath
import math
from functools import reduce
from itertools import combinations

import numpy as np
import pytest

from qindel.channels import IndexSet, delete, deletion_sphere
from qindel.acceptance import run_all
from qindel.codes import (
    builtin_code,
    code_params,
    collision_pair_x2,
    example_psi,
    example_rho,
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
import qindel.channels
import qindel.distance as distance
import qindel.feasibility as feasibility
from qindel.errors import (
    CountOutOfRange,
    DuplicateStates,
    LevelMismatch,
    ParseError,
    ShapeMismatch,
    TooFewStates,
)
from qindel.feasibility import FeasibilityReport, FeasibilityStatus, member_del_ins, member_ins_del
from qindel.linalg import Tolerance
from qindel.rand import random_density
from qindel.states import DensityMatrix, QuditShape, basis_ket, density_from_ket, state_to_json_obj
from conftest import assert_indel_matches_lone_walk, assert_matches_lone_walk, make_states


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
    value, pair, result = min_distance(builtin_code("x1"))
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


@pytest.mark.parametrize(
    "name, grid, size, want",
    [("x1", None, 28, 2), ("hagiwara4", (9, 12), 86, 4)],
)
def test_the_stacked_walk_matches_the_lone_walk_on_the_builtin_grids(name, grid, size, want):
    # one ladder of the whole stack gives the value, pair, P, Q and common
    # bits that each state's own deletion spheres give
    code = builtin_code(name, _grid(*grid) if grid else None)
    assert len(code) == size
    assert assert_matches_lone_walk(code) == want


def _recorded(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records the shapes of the
    arrays of each call; returns the list of records."""
    calls, real = [], getattr(module, name)

    def recorded(*args):
        calls.append(tuple(arg.shape for arg in args if isinstance(arg, np.ndarray)))
        return real(*args)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_a_grid_code_is_deduplicated_with_one_sweep(monkeypatch):
    # the 110 offered states of the 9x12 grid and its collision pair: one
    # sweep of their projections finds the candidates, and only those are
    # gathered for a full distance: the 134 pairs i < j of the 12 phases at
    # each pole and of the two collision states with their grid points,
    # every one within eq_tol, so 24 states are dropped
    sweeps = _recorded(monkeypatch, qindel.channels, "_near_pairs")
    gathers = _recorded(monkeypatch, qindel.channels, "frobenius_norm")
    assert len(builtin_code("hagiwara4", _grid(9, 12))) == 86
    assert sweeps == [((110, 16, 16), (110, 16, 16))]
    assert sum(shape[0] for (shape,) in gathers) == 134


def test_a_grid_walk_makes_one_screened_call_per_level_and_block(monkeypatch):
    # min distance 4: levels 1 and 2, each one dedup of all 86 stacked
    # ladders, kept to the pairs i < j, and one block, the whole level, of
    # the 86 kept rows, one per state: the rows swept once against
    # themselves, kept to pairs of two states, not one call per state
    code = builtin_code("hagiwara4", _grid(9, 12))
    calls = _recorded(monkeypatch, qindel.channels, "_screened_distances")
    assert min_distance(code)[0] == 4
    assert calls == [
        ((86, 4, 8, 8), (86, 4, 8, 8)),
        ((86, 8, 8), (86, 8, 8)),
        ((86, 6, 4, 4), (86, 6, 4, 4)),
        ((86, 4, 4), (86, 4, 4)),
    ]


def _probes(monkeypatch):
    """Record ``("trace", start)`` for each ``_traced_levels`` call of
    distance.py (a probe traces from its top level, a walk from level 0)
    and ``("walk", start)`` for each ladder ``_ladders`` hands the walk: a
    walk whose probe passed traces nothing more."""
    calls, ladders, traced = [], distance._ladders, distance._traced_levels

    def recorded_ladders(stacks, tol):
        built = ladders(stacks, tol)
        calls.extend(("walk", start) for _, start, _ in built)
        return built

    def recorded_traced(mats, shape, start=0):
        calls.append(("trace", start))
        return traced(mats, shape, start)

    monkeypatch.setattr(distance, "_ladders", recorded_ladders)
    monkeypatch.setattr(distance, "_traced_levels", recorded_traced)
    return calls


def test_a_pair_meeting_only_at_its_one_qudit_rows_fails_the_probe(rng, monkeypatch):
    # A(x)A(x)A(x)A and A(x)B(x)B(x)B share the marginal A and no marginal
    # of two or more qubits: the probe at level 3 meets, so the walk starts
    # at level 0 and meets at level 3, s = t = 3
    a, b = (random_density(rng, QuditShape(2, 1)).mat for _ in range(2))
    rho = DensityMatrix(QuditShape(2, 4), np.kron(np.kron(a, a), np.kron(a, a)))
    sigma = DensityMatrix(QuditShape(2, 4), np.kron(np.kron(a, b), np.kron(b, b)))
    calls = _probes(monkeypatch)
    assert assert_indel_matches_lone_walk(rho, sigma) == 6
    assert calls == [("trace", 3), ("trace", 3), ("trace", 0), ("trace", 0), ("walk", 0), ("walk", 0)]
    assert indel_distance(rho, sigma).s == 3
    calls.clear()
    code = CodeSample.from_states([rho, sigma])
    assert assert_matches_lone_walk(code) == 6
    assert calls == [("trace", 3), ("trace", 0), ("walk", 1)]


def test_a_generic_pair_walks_from_the_rows_of_its_probe(rng, monkeypatch):
    # two generic 4-qubit states share no marginal: the probe at level 3
    # passes and its rows are each ladder's first level, traced once
    rho, sigma = (random_density(rng, QuditShape(2, 4), 16) for _ in range(2))
    calls = _probes(monkeypatch)
    assert assert_indel_matches_lone_walk(rho, sigma) == 8
    assert calls == [("trace", 3), ("trace", 3), ("walk", 3), ("walk", 3)]


def test_full_deletion_meets_at_eq_tol_0(rng):
    # at eq_tol 0 two states' computed traces can differ in their last
    # bit; the empty states they delete to still meet, at n + m
    exact = Tolerance(eq_tol=0.0)
    for _ in range(20):
        rho, sigma = random_density(rng, QuditShape(2, 3)), random_density(rng, QuditShape(2, 2))
        if deletion_sphere(rho, 3).stack[0] != deletion_sphere(sigma, 2).stack[0]:
            break
    else:
        pytest.fail("no pair of traces differed")
    result = indel_distance(rho, sigma, exact)
    assert (result.value, result.s, result.t) == (5, 3, 2)
    assert result.common.mat.tobytes() == deletion_sphere(rho, 3).stack[0].tobytes()
    assert assert_indel_matches_lone_walk(rho, sigma, exact) == 5
    code = CodeSample.from_states((rho, random_density(rng, QuditShape(2, 3))), ("a", "b"), exact)
    assert assert_matches_lone_walk(code) == 6


def test_the_collision_pair_probes_and_walks_from_level_1(monkeypatch):
    # two 4-qubit states: 8 probe rows are fewer entries than level 1, but
    # the pair meets at level 2, so the probe at level 3 fails
    code = builtin_code("collision-x2")
    calls = _probes(monkeypatch)
    assert assert_matches_lone_walk(code) == 4
    assert calls == [("trace", 3), ("trace", 0), ("walk", 1)]


def test_a_large_grid_code_walks_without_a_probe(monkeypatch):
    # 86 states of 4 qubits: 344 probe rows squared outnumber level 1's
    # entries, so the walk starts at level 1 as it did before the probe
    code = builtin_code("hagiwara4", _grid(9, 12))
    calls = _probes(monkeypatch)
    assert min_distance(code)[0] == 4
    assert calls == [("trace", 0), ("walk", 1)]


def test_a_pair_within_eq_tol_fails_the_probe(rng, monkeypatch):
    # sigma is rho moved by half of eq_tol: they meet at level 0, and their
    # one-qubit marginals, some 1e-10 apart, lie within the probe's bound
    rho = random_density(rng, QuditShape(2, 4))
    h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = h + h.conj().T - np.trace(h + h.conj().T) / 16 * np.eye(16)
    sigma = DensityMatrix(rho.shape, rho.mat + h * (Tolerance().at(16).eq_tol / 2 / np.linalg.norm(h)))
    calls = _probes(monkeypatch)
    assert assert_indel_matches_lone_walk(rho, sigma) == 0
    assert calls == [("trace", 3), ("trace", 3), ("trace", 0), ("trace", 0), ("walk", 0), ("walk", 0)]


@pytest.mark.parametrize("entry, at", [(np.nan, (3, 3)), (np.inf, (0, 15))], ids=["nan", "inf"])
def test_a_state_with_a_non_finite_entry_fails_the_probe(rng, monkeypatch, entry, at):
    # a NaN or inf entry gives a NaN or inf probe bound, whichever state has
    # it, and a NaN distance is within no bound, so the probe never passes:
    # the walk starts where it would without it.  The inf entry pairs
    # |0000> with |1111>, so only the state itself holds it
    rho = random_density(rng, QuditShape(2, 4), 16)
    mat = random_density(rng, QuditShape(2, 4), 16).mat.copy()
    mat[at] = entry
    sigma = DensityMatrix(rho.shape, mat)
    stacks = [(x.mat[None], x.shape, 0) for x in (rho, sigma)]
    assert not math.isfinite(distance._probe_bound(stacks, Tolerance(), 3))
    calls = _probes(monkeypatch)
    assert assert_indel_matches_lone_walk(rho, sigma) == 8
    assert calls == [("trace", 3), ("trace", 3), ("trace", 0), ("trace", 0), ("walk", 0), ("walk", 0)]
    calls.clear()
    assert assert_matches_lone_walk(CodeSample.from_states([rho, sigma])) == 8
    assert calls == [("trace", 3), ("trace", 0), ("walk", 1)]


def test_a_code_with_an_infinite_entry_is_built_without_a_warning(rng):
    # the dedup of a code compares each row with itself where every pair
    # fits one chunk, and inf - inf is NaN: that pair reads NaN, within no
    # eq_tol, with no RuntimeWarning (an error under this suite's -W error),
    # as frobenius_norm reads inf without one
    rho = random_density(rng, QuditShape(2, 4), 16)
    mat = random_density(rng, QuditShape(2, 4), 16).mat.copy()
    mat[0, 15] = np.inf
    sigma = DensityMatrix(rho.shape, mat)
    code = CodeSample.from_states([rho, sigma])
    assert len(code) == 2 and code.stack[1].tobytes() == mat.tobytes()


def test_the_probe_bound_covers_the_rounding_of_the_rows(rng):
    # at eq_tol 0 the bound is its rounding margin alone; it must exceed the
    # spread of one marginal traced in two orders, both rounded from one
    # exact row
    rho = random_density(rng, QuditShape(2, 8))
    spread = 0.0
    for q in range(1, 9):
        others = [p for p in range(1, 9) if p != q]
        chained = qindel.channels.trace_out(rho.mat, IndexSet(tuple(others), 8), 2)
        upward = rho.mat
        for k, p in enumerate(others):  # smallest first: each traced position renumbers the rest
            upward = qindel.channels.trace_out(upward, IndexSet((p - k,), 8 - k), 2)
        spread = max(spread, float(np.linalg.norm(chained - upward)))
    bound = distance._probe_bound([(rho.mat[None], rho.shape, 0)] * 2, Tolerance(eq_tol=0.0), 7)
    assert 0 < spread < bound < 1e-12


def test_two_generic_8_qubit_states_walk_only_their_top_levels(rng, monkeypatch):
    # generic states share no marginal: the probe sweeps the two states'
    # 16 one-qubit rows in one screened call and passes, so no level below
    # 7 is built; the walk then dedups each state's level 7, compares it,
    # and meets at level 8
    rho, sigma = (random_density(rng, QuditShape(2, 8), 40) for _ in range(2))
    levels, traced = [], qindel.channels._traced_levels

    def recorded(mats, shape, start=0):
        for level in traced(mats, shape, start):
            levels.append(level.shape)
            yield level

    monkeypatch.setattr(distance, "_traced_levels", recorded)
    monkeypatch.setattr(qindel.channels, "_traced_levels", recorded)
    calls = _recorded(monkeypatch, qindel.channels, "_screened_distances")
    result = indel_distance(rho, sigma)
    assert (result.value, result.s, result.t) == (16, 8, 8)
    assert levels == [(1, 8, 2, 2), (1, 8, 2, 2), (1, 1, 1, 1), (1, 1, 1, 1)]
    assert calls == [
        ((16, 2, 2), (16, 2, 2)),  # the probe
        ((1, 8, 2, 2), (1, 8, 2, 2)),  # level 7: each state's dedup
        ((1, 8, 2, 2), (1, 8, 2, 2)),
        ((16, 2, 2), (16, 2, 2)),  # level 7: the comparison
        ((2, 1, 1), (2, 1, 1)),  # level 8: the comparison
    ]


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
    x1 = builtin_code("x1")
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
    with pytest.raises(ParseError, match="unknown kind 'sideways'"):
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

    # a triple of mixed levels is refused by name, as indel_distance refuses a pair
    with pytest.raises(LevelMismatch, match="triple 1"):
        metric_check([(rho, rho, rho), (rho, _pure("00", 3), rho)])


def test_metric_check_counts_odd_equal_length_distances(monkeypatch):
    import qindel.distance

    # metric_check takes every distance from one lockstep walk over its pairs
    monkeypatch.setattr(qindel.distance, "_pair_distances", lambda pairs, tol: [1] * len(pairs))
    one = density_from_ket(basis_ket("0", QuditShape(2, 1)), QuditShape(2, 1))
    assert metric_check([(_pure("00"), _pure("01"), _pure("10"))])["odd_equal_length"] == 3
    assert metric_check([(_pure("00"), one, _pure("10"))])["odd_equal_length"] == 1


def test_metric_check_records_each_violation_with_its_values(monkeypatch):
    # distances scripted in pair order d_ab, d_ba, d_bc, d_ac per triple: the
    # first triple is clean, the second breaks every axiom at once (d_ab = 0
    # between distinct states)
    a, b, c = _pure("00"), _pure("01"), _pure("11")

    def scripted(pairs, tol):
        order = [(a, b), (b, a), (b, c), (a, c)] * 2
        assert [tuple(map(id, pair)) for pair in pairs] == [tuple(map(id, pair)) for pair in order]
        return [2, 2, 2, 2, 0, 2, 1, 4]

    monkeypatch.setattr(distance, "_pair_distances", scripted)
    report = metric_check([(a, b, c), (a, b, c)])
    assert report["checked"] == 2 and report["ok"] is False
    assert report["violations"] == [
        {"triple": 1, "axiom": "identity", "d": 0},
        {"triple": 1, "axiom": "symmetry", "d_ab": 0, "d_ba": 2},
        {"triple": 1, "axiom": "triangle", "d_ac": 4, "d_ab": 0, "d_bc": 1},
    ]


@pytest.mark.parametrize("level, n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_metric_check_makes_one_batched_comparison_per_step(monkeypatch, rng, level, n):
    # the pairs of 50 same-shape triples walk one ladder in lockstep: one
    # pairs_meet call per step, all 200 pairs at the first, and none at the
    # empty state, where the pairs left meet untraced: n calls at most
    calls, real = [], distance.pairs_meet
    monkeypatch.setattr(distance, "pairs_meet", lambda x, y, pairs: calls.append(len(pairs[0])) or real(x, y, pairs))
    report = metric_check([tuple(make_states(rng, level, n, 3)) for _ in range(50)])
    assert report["ok"] and report["checked"] == 50
    assert 1 <= len(calls) <= n and calls[0] == 200


def test_the_lockstep_walk_keeps_each_gather_within_budget(monkeypatch):
    # 6-qubit triples: a pair's two level-0 rows hold 2 * 4096 entries, so
    # the 32 pairs of 8 triples take four chunks at level 0; products of a
    # small pool meet mid-ladder, random states only at the empty state
    rng = np.random.default_rng(6)
    shape = QuditShape(2, 6)
    pool = [random_density(rng, QuditShape(2, 1)).mat for _ in range(3)]
    words = [(0, 1, 2, 0, 1, 2), (1, 2, 0, 1, 2, 0), (0, 0, 1, 1, 2, 2), (2, 1, 0, 2, 1, 0)]
    products = [DensityMatrix(shape, reduce(np.kron, [pool[k] for k in word])) for word in words]
    states = products + make_states(rng, 2, 6, 4)
    triples = [(states[k], states[(k + 1) % 8], states[(k + 3) % 8]) for k in range(8)]
    pairs = [pair for a, b, c in triples for pair in ((a, b), (b, a), (b, c), (a, c))]
    want = [indel_distance(x, y).value for x, y in pairs]
    assert min(want) < 12 and max(want) == 12
    gathered, screen = [], qindel.channels._screened_distances

    def recording(a, b, eq_tol, mask=None):
        if a is not b:  # a dedup compares its level with itself, ungathered
            gathered.append(a.size + b.size)
        return screen(a, b, eq_tol, mask)

    monkeypatch.setattr(qindel.channels, "_screened_distances", recording)
    assert distance._pair_distances(pairs, Tolerance()) == want
    assert len(gathered) > 5 and max(gathered) <= qindel.channels._CHUNK
    assert metric_check(triples)["ok"]


def test_code_sample_rejects_duplicates():
    with pytest.raises(DuplicateStates, match="coincide"):
        CodeSample.from_states([_pure("00"), _pure("00")])


def test_code_sample_names_a_last_repeat_among_many_states_with_one_distance_call(rng, monkeypatch):
    # the first repeat is the first row the dedup drops, found without a
    # pairwise loop: one stacked frobenius_distance of the rows before it
    # names its partner, the first of them within eq_tol; equal labels do
    # not confuse it
    states = make_states(rng, 2, 2, 200)
    states.append(DensityMatrix(states[57].shape, states[57].mat + 1e-12))
    calls, real = [], distance.frobenius_distance
    monkeypatch.setattr(distance, "frobenius_distance", lambda a, b: calls.append(a.shape) or real(a, b))
    with pytest.raises(DuplicateStates, match="states 'state57' and 'state200' coincide"):
        CodeSample.from_states(states)
    assert calls == [(200, 4, 4)]
    with pytest.raises(DuplicateStates, match="states 'same' and 'same' coincide"):
        CodeSample.from_states(states[:3] + [states[1]], ["same"] * 4)


def test_a_code_of_more_states_than_the_cap_is_refused_before_it_is_stacked(rng, monkeypatch):
    monkeypatch.setattr(distance, "CODE_CAP", 3)
    states = make_states(rng, 2, 1, 4)
    assert len(CodeSample.from_states(states[:3])) == 3
    with pytest.raises(CountOutOfRange, match=r"states in a code=4 not in \[1, 3\]"):
        CodeSample.from_states(states)


def test_code_sample_names_the_mismatch():
    qubit, pair, qutrit = (random_density(np.random.default_rng(0), shape)
                           for shape in (QuditShape(2, 1), QuditShape(2, 2), QuditShape(3, 1)))
    with pytest.raises(ShapeMismatch, match="equal length"):
        CodeSample.from_states((qubit,), ("a", "b"))
    with pytest.raises(LevelMismatch, match="levels"):
        CodeSample.from_states((qubit, qutrit), ("a", "b"))
    with pytest.raises(ShapeMismatch, match="lengths"):
        CodeSample.from_states((qubit, pair), ("a", "b"))
    with pytest.raises(ShapeMismatch, match="equal length"):
        CodeSample(qubit.shape, np.empty((0, 2, 2), dtype=complex), ("a",))
    # a grid hands over its stack: the labels are counted against its rows
    with pytest.raises(ShapeMismatch, match="equal length"):
        CodeSample(pair.shape, np.stack([pair.mat, pair.mat]), ["a"])
    # a 2-qubit code's rows are 4 x 4: smaller or oblong rows, or one
    # matrix handed over as a stack of 4 rows, name the qudit shape
    for rows in ((2, 2, 2), (2, 4, 2), (4, 4)):
        with pytest.raises(ShapeMismatch, match=r"rows of shape .* do not match qudit shape \(l=2, n=2, dim=4\)"):
            CodeSample(pair.shape, np.zeros(rows, dtype=complex), [f"s{k}" for k in range(rows[0])])
    with pytest.raises(TooFewStates, match="at least 1 state, got 0"):
        CodeSample.from_states([])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda rho, code: deletion_sphere(rho, 1.5), id="deletion_sphere-float"),
        pytest.param(lambda rho, code: deletion_sphere(rho, "1"), id="deletion_sphere-string"),
        pytest.param(lambda rho, code: corrects(code, "1"), id="corrects-string"),
        pytest.param(lambda rho, code: corrects(code, np.float64(1)), id="corrects-numpy-float"),
        pytest.param(lambda rho, code: corrects(code, True), id="corrects-bool"),
        pytest.param(lambda rho, code: corrects_insertions(code, 1.5), id="corrects_insertions-float"),
        pytest.param(lambda rho, code: member_del_ins(rho, rho, 1.5, 1.5), id="member_del_ins-floats"),
        pytest.param(lambda rho, code: member_ins_del(rho, rho, 1.0, 1), id="member_ins_del-float-s"),
        pytest.param(lambda rho, code: member_ins_del(rho, rho, 1, "1"), id="member_ins_del-string-t"),
        pytest.param(lambda rho, code: code_params(2.5, 8), id="code_params-float"),
        pytest.param(lambda rho, code: run_all(1.5), id="run_all-float-seed"),
    ],
)
def test_non_integer_counts_are_refused_by_name(call):
    # every count goes through one check: a float or a string is a
    # CountOutOfRange, never a bare TypeError or a silently empty sphere
    rho = example_rho(0.5, 0.5)
    code = CodeSample.from_states([rho, example_psi(0.5, 0.5)])
    with pytest.raises(CountOutOfRange, match="must be an integer"):
        call(rho, code)


def test_corrects_insertions_refuses_bad_counts_and_small_codes():
    code = CodeSample.from_states([example_rho(0.5, 0.5), example_psi(0.5, 0.5)])
    with pytest.raises(CountOutOfRange):
        corrects_insertions(code, 0)
    with pytest.raises(TooFewStates):
        corrects_insertions(CodeSample.from_states([example_rho(0.5, 0.5)]), 1)


def test_corrects_insertions_traces_each_marginal_once_per_stack(monkeypatch):
    # x1's 28 states make 378 state pairs and 3,402 (P, Q) pairs: one decider,
    # the code's stack on both sides, traces each of the three subsets a pair
    # needs once over the whole stack, and decomposes a state at most once
    counts = {"trace_out": 0, "spectral_decompose": 0}

    def counted(name):
        real = getattr(feasibility, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    for name in counts:
        monkeypatch.setattr(feasibility, name, counted(name))
    code = builtin_code("x1")
    assert len(code) == 28 and corrects_insertions(code, 1).ok is True
    assert counts["trace_out"] <= 3
    assert 0 < counts["spectral_decompose"] <= len(code)


def test_corrects_insertions_reads_the_verdict_off_the_pairs(monkeypatch):
    # pair verdicts scripted in combinations order: with none feasible, the
    # first inconclusive pair is named once every pair is decided; a feasible
    # pair decides at once, with the state it found as witness
    code = CodeSample.from_states([_pure("00"), _pure("01"), _pure("10"), _pure("11")], list("abcd"))
    script = ["infeasible", "inconclusive", "infeasible", "inconclusive", "infeasible", "infeasible"]
    gaps, seen = [], []

    def scripted(decider, i, j):
        seen.append((i, j))
        status = FeasibilityStatus(script[len(gaps)])
        gaps.append(0.5 + len(gaps))
        witness = DensityMatrix(code.shape, code.stack[i]) if status is FeasibilityStatus.FEASIBLE else None
        return FeasibilityReport(status, witness, gaps[-1], 0)

    monkeypatch.setattr(feasibility._PairDecider, "member", scripted)
    verdict = corrects_insertions(code, 1)
    assert seen == list(combinations(range(4), 2))
    assert verdict.ok is None and verdict.evidence["inconclusive_pair"] == ["a", "c"]
    assert [entry["status"] for entry in verdict.evidence["pairs"]] == script
    assert [entry["gap"] for entry in verdict.evidence["pairs"]] == gaps == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]

    script[2], gaps[:], seen[:] = "feasible", [], []
    verdict = corrects_insertions(code, 1)
    assert seen == [(0, 1), (0, 2), (0, 3)]
    assert verdict.ok is False and verdict.evidence["pair"] == ["a", "d"]
    assert verdict.evidence["witness"] == state_to_json_obj(_pure("00"))
    assert verdict.evidence["gap"] == 2.5 and len(verdict.evidence["pairs"]) == 3
