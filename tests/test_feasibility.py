import math
import re
import sys
from functools import reduce
from itertools import combinations, permutations, product

import numpy as np
import pytest

from qindel.channels import IndexSet, _sample_batch, delete, insert_construct, insertion_member, sample_insertions
from qindel.channels import trace_out, trace_out_adjoint
from qindel.codes import example_psi, example_rho
from qindel.errors import BlockConstraintViolated, CountOutOfRange, LevelMismatch, NoConvergence, NotPSD
from qindel.errors import RoundTripFailed, ShapeMismatch, SizeCapExceeded
import qindel.channels as channels
import qindel.feasibility as feasibility
from qindel.feasibility import (
    FeasibilityReport,
    FeasibilityStatus,
    check_containment_trial,
    check_containment_trials,
    feasibility_del_ins,
    member_del_ins,
    member_ins_del,
)
from qindel.linalg import Tolerance
from qindel.rand import random_density, random_hermitian
from qindel.states import DensityMatrix, QuditShape, basis_ket, density_from_ket, spectral_decompose
from conftest import affine_constraint, failing_from, make_states


def _columns(x):
    """vec(x) as a (size, 2) real array of (Re, Im) columns."""
    return np.ascontiguousarray(x, dtype=complex).reshape(-1).view(float).reshape(-1, 2)


def _dense_map(level, qset, pset):
    """The stacked partial traces as one dense real 0/1 map on the (Re, Im)
    columns of vec(tau)."""
    d = level**qset.ambient
    basis = np.eye(d * d).reshape(d * d, d, d)  # trace_out of E_k is column k
    return np.vstack([trace_out(basis, s, level).reshape(d * d, -1).T for s in (qset, pset)])


def _subsets(n):
    return [IndexSet(c, n) for k in range(1, n) for c in combinations(range(1, n + 1), k)]


def test_affine_projection_properties(rng):
    # the matrix-free conditions against the dense map and its pinv, for every
    # P and Q up to d=16, overlapping ones included
    inconsistent = 0
    for n in (2, 3, 4):
        shape = QuditShape(2, n)
        tau, other = random_density(rng, shape), random_density(rng, shape)
        for qset in _subsets(n):
            for pset in _subsets(n):
                matrix = _dense_map(2, qset, pset)
                pinv = np.linalg.pinv(matrix, rcond=1e-10)
                rho = delete(tau, qset)
                for sigma in (delete(tau, pset), delete(other, pset)):
                    affine = affine_constraint(sigma, rho, pset, qset)
                    rhs = np.vstack([_columns(rho.mat), _columns(sigma.mat)])
                    point = pinv @ rhs
                    residual = float(np.linalg.norm(matrix @ point - rhs))
                    assert abs(affine.consistency_residual() - residual) <= 1e-12
                    if residual <= 1e-12:
                        point = np.ascontiguousarray(point).view(complex).reshape(shape.dim, -1)
                        assert np.abs(affine.adjoint(affine.pack(affine.least_squares_dual())) - point).max() <= 1e-12
                    inconsistent += residual > 1e-3
                x = random_hermitian(rng, shape.dim) + 1j * random_hermitian(rng, shape.dim)
                y = tuple(random_hermitian(rng, len(m)) for m in affine.rhs)
                left = sum(_inner(a, b) for a, b in zip(affine.unpack(affine.apply(x)), y))
                assert abs(left - _inner(x, affine.adjoint(affine.pack(y)))) <= 1e-12 * max(1.0, abs(left))
    assert inconsistent > 0
    # marginals of a random 4-qubit state at P={1}, Q={4}: a loose pseudo-inverse
    # cutoff once made them look inconsistent; the face-reduced dual decides them
    tau = random_density(rng, QuditShape(2, 4))
    p1, q4 = IndexSet((1,), 4), IndexSet((4,), 4)
    report = feasibility_del_ins(delete(tau, p1), delete(tau, q4), p1, q4)
    assert report.status is FeasibilityStatus.FEASIBLE
    _check_witness(report, delete(tau, p1), delete(tau, q4), p1, q4)


def _check_witness(report, sigma, rho, pset, qset):
    """A feasible witness re-checked from scratch: PSD, and both conditions
    met within feas_tol."""
    w = report.witness
    assert np.linalg.eigvalsh(w.mat)[0] >= -Tolerance().at(w.dim).psd_tol
    feas_tol = Tolerance().feas_tol
    assert delete(w, qset).distance(rho) <= feas_tol
    assert delete(w, pset).distance(sigma) <= feas_tol


def _check_certificate(report, sigma, rho, pset, qset):
    """Re-check an infeasible verdict's certificate against the dense map:
    lam shifted by c (I, 0) has A*(lam') PSD and <b, lam'> < 0.  Returns the
    margin -<b, lam'>."""
    assert report.certificate is not None
    lam_q, lam_p = report.certificate
    matrix = _dense_map(rho.level, qset, pset)
    d = rho.level**qset.ambient
    lam_cols = np.vstack([_columns(lam_q), _columns(lam_p)])
    dual = np.ascontiguousarray(matrix.T @ lam_cols).view(complex).reshape(d, d)
    shift = max(0.0, -np.linalg.eigvalsh(dual)[0])
    margin = -(_inner(rho.mat, lam_q) + _inner(sigma.mat, lam_p) + shift * np.trace(rho.mat).real)
    assert margin > 0
    return margin


def _inner(a, b):
    return float(np.vdot(a, b).real)


def test_member_ins_del():
    rho = example_rho(0.5, 0.5)
    psi = example_psi(0.5, 0.5)
    assert member_ins_del(rho, rho, 0, 0)
    assert member_ins_del(psi, rho, 1, 1)
    # the underlying sphere-intersection test is symmetric and repeatable
    assert member_ins_del(rho, psi, 1, 1) == member_ins_del(psi, rho, 1, 1)
    assert member_ins_del(psi, rho, 1, 1) == member_ins_del(psi, rho, 1, 1)

    shape2 = QuditShape(2, 2)
    k00, k11 = basis_ket("00", shape2), basis_ket("11", shape2)
    rho00 = DensityMatrix(shape2, np.outer(k00, k00))
    rho11 = DensityMatrix(shape2, np.outer(k11, k11))
    assert not member_ins_del(rho11, rho00, 1, 1)

    with pytest.raises(ShapeMismatch):
        member_ins_del(psi, rho, 1, 2)


def test_feasibility_same_position_roundtrip():
    rho = example_rho(0.5, 0.5)
    report = feasibility_del_ins(rho, rho, IndexSet((2,), 3), IndexSet((2,), 3))
    assert report.status is FeasibilityStatus.FEASIBLE
    w = report.witness
    assert w is not None
    assert delete(w, {2}).distance(rho) <= Tolerance().feas_tol


def test_feasibility_counterexample_pair():
    rho = example_rho(0.5, 0.5)
    psi = example_psi(0.5, 0.5)
    report = feasibility_del_ins(psi, rho, IndexSet((1,), 3), IndexSet((2,), 3))
    assert report.status is FeasibilityStatus.INFEASIBLE
    assert report.gap >= 1e-3


def test_feasibility_family_state(rng):
    rho = example_rho(0.5, 0.5)
    pi00 = random_density(rng, QuditShape(2, 1)).mat
    pi11 = random_density(rng, QuditShape(2, 1)).mat
    sigma = DensityMatrix(
        QuditShape(2, 2),
        0.5 * np.kron(pi00, np.diag([1.0, 0.0]).astype(complex))
        + 0.5 * np.kron(pi11, np.diag([0.0, 1.0]).astype(complex)),
    )
    report = feasibility_del_ins(sigma, rho, IndexSet((3,), 3), IndexSet((1,), 3))
    assert report.status is FeasibilityStatus.FEASIBLE
    w = report.witness
    assert delete(w, {1}).distance(rho) <= Tolerance().feas_tol
    assert delete(w, {3}).distance(sigma) <= Tolerance().feas_tol


def test_feasibility_size_cap():
    rho = example_rho(0.5, 0.5)
    sigma = random_density(np.random.default_rng(0), QuditShape(2, 4))
    with pytest.raises(SizeCapExceeded):
        feasibility_del_ins(sigma, rho, IndexSet((1,), 5), IndexSet((1, 2, 3), 5))


def test_member_del_ins_verdicts():
    rho = example_rho(0.5, 0.5)
    psi = example_psi(0.5, 0.5)
    assert member_del_ins(rho, rho, 1, 1).status is FeasibilityStatus.FEASIBLE

    report = member_del_ins(psi, rho, 1, 1)
    assert report.status is FeasibilityStatus.INFEASIBLE
    assert len(report.details["pairs"]) == 9
    assert all(p["status"] == "infeasible" for p in report.details["pairs"])

    # with the second weight zero the coherent state becomes reachable
    shape2 = QuditShape(2, 2)
    rho00 = density_from_ket(basis_ket("00", shape2), shape2)
    psi01 = density_from_ket(basis_ket("01", shape2), shape2)
    assert member_del_ins(psi01, rho00, 1, 1).status is FeasibilityStatus.FEASIBLE


def test_a_witness_that_fails_its_recheck_is_inconclusive(monkeypatch):
    # the solver's witness is re-checked against both conditions; the zero
    # matrix misses them, so the feasible pair gets no feasible verdict
    rho = example_rho(0.5, 0.5)
    scripted = lambda affine, face, feas_tol: ("witness", np.zeros((8, 8), complex), 7, 0.25, 0, 0)
    monkeypatch.setattr(feasibility, "_dual_solve", scripted)
    report = feasibility_del_ins(rho, rho, (3,), (3,))
    assert (report.status, report.gap, report.iterations) == (FeasibilityStatus.INCONCLUSIVE, 0.25, 7)
    assert report.witness is None and report.certificate is None
    assert report.details["reason"] == "witness failed its re-check"


def test_member_del_ins_reads_its_verdict_off_the_pairs(monkeypatch):
    # pair verdicts scripted over the 9 (P, Q) pairs, P outer: without a
    # feasible pair the status is inconclusive if any pair is, else
    # infeasible, with the least gap and the summed iterations; a feasible
    # pair is returned at once, with every pair decided so far
    rho, psi = example_rho(0.5, 0.5), example_psi(0.5, 0.5)
    script = ["infeasible"] * 9
    seen = []

    def scripted(decider, i, j, pset, qset):
        k = len(seen)
        seen.append((i, j, pset.positions, qset.positions))
        status = FeasibilityStatus(script[k])
        return FeasibilityReport(status, None, [3.0, 2.0, 5.0, 0.5, 4.0, 1.0, 6.0, 7.0, 8.0][k], k, {"k": k})

    monkeypatch.setattr(feasibility._PairDecider, "decide", scripted)
    report = member_del_ins(psi, rho, 1, 1)
    assert seen == [(0, 0, (p,), (q,)) for p in range(1, 4) for q in range(1, 4)]
    assert (report.status, report.gap, report.iterations) == (FeasibilityStatus.INFEASIBLE, 0.5, 36)
    assert [(pair["P"], pair["Q"], pair["k"]) for pair in report.details["pairs"]] == [
        (list(P), list(Q), k) for k, (_, _, P, Q) in enumerate(seen)
    ]

    script[7], seen[:] = "inconclusive", []
    report = member_del_ins(psi, rho, 1, 1)
    assert (report.status, report.gap, report.iterations) == (FeasibilityStatus.INCONCLUSIVE, 0.5, 36)

    script[4], seen[:] = "feasible", []
    report = member_del_ins(psi, rho, 1, 1)
    assert (report.status, report.gap, report.iterations) == (FeasibilityStatus.FEASIBLE, 4.0, 10)
    assert [pair["status"] for pair in report.details["pairs"]] == script[:5]
    assert report.details["k"] == 4


def test_del_ins_membership_implies_ins_del(rng):
    # the deletions-after-insertions sphere sits inside the other composition
    hits = 0
    for sigma in make_states(rng, 2, 1, 6):
        for rho in make_states(rng, 2, 1, 2):
            report = member_del_ins(sigma, rho, 1, 1)
            if report.status is FeasibilityStatus.FEASIBLE:
                hits += 1
                assert member_ins_del(sigma, rho, 1, 1)
    assert hits > 0  # single-qudit systems always connect


def test_containment_trials(rng):
    rho = example_rho(0.5, 0.5)
    for seed in range(5):
        assert check_containment_trial(rho, seed, 1, 1)
    for seed in range(5):
        state = random_density(rng, QuditShape(2, 2), int(rng.integers(1, 5)))
        assert check_containment_trial(state, 100 + seed, 1, 2)
        assert check_containment_trial(state, 200 + seed, 2, 1)


@pytest.mark.parametrize("s, t", [(-1, 1), (1, -1)])
def test_containment_trial_refuses_negative_counts(s, t):
    # refused by name before the first move is drawn
    with pytest.raises(CountOutOfRange):
        check_containment_trial(example_rho(0.5, 0.5), 0, s, t)


@pytest.mark.parametrize(
    "seed, s, t",
    [(-1, 1, 1), (1.0, 1, 1), ("1", 1, 1), (True, 1, 1), (1, 1.0, 1), (1, 1, 1.0), (1, np.float64(1), 1),
     (1, 3, 1)],
)
def test_containment_trial_refuses_bad_counts_and_seeds(seed, s, t):
    # a negative or non-integer seed or count, or more deletions than qudits,
    # is refused by name before the first move is drawn
    with pytest.raises(CountOutOfRange):
        check_containment_trial(example_rho(0.5, 0.5), seed, s, t)


@pytest.mark.parametrize("seed", [-1, 1.0, True, [3, 4]])
def test_containment_trials_refuse_a_bad_batch_seed(seed):
    # one seed serves the whole batch: a negative, float or bool seed, or a
    # seed per trial, is refused before any move is drawn
    with pytest.raises(CountOutOfRange, match="^seed must be"):
        check_containment_trials([example_rho(0.5, 0.5)] * 2, seed, 1, 1)


def _replayed_moves(rhos, seed, ss, ts):
    """Each trial's moves as ``check_containment_trials`` draws them, derived
    one trial at a time by a scalar loop from the same
    ``rng.random((3, trials, steps))`` call on ``default_rng(seed)``: a move
    is ``(p, None)``, deleting qudit p, or ``(q, count)``, inserting at q
    and keeping the last of ``count`` samples.  Returns the generator, at
    the state the samplers read next, and the moves."""
    rng = np.random.default_rng(seed)
    coins, spots, sizes = rng.random((3, len(rhos), max(map(sum, zip(ss, ts)), default=0))).tolist()
    plans = []
    for i, (rho, s, t) in enumerate(zip(rhos, ss, ts)):
        moves, n = [], rho.length
        for k in range(s + t):
            if s and not (t and math.floor(coins[i][k] * 2)):
                moves.append((1 + math.floor(spots[i][k] * n), None))
                s, n = s - 1, n - 1
            else:
                moves.append((1 + math.floor(spots[i][k] * (n + 1)), 1 + math.floor(sizes[i][k] * 2)))
                t, n = t - 1, n + 1
        plans.append(moves)
    return rng, plans


def _replayed_trials(rhos, seed, ss, ts):
    """``check_containment_trials`` replayed one move at a time: the moves of
    ``_replayed_moves``, then, step by step and in trial order, a lone
    ``delete`` per deletion and a one-request ``_sample_batch`` call per
    insertion, every call on the one shared generator.  Returns the final
    states and, per step, each moving trial's ``(i, state, position,
    count)``."""
    rng, plans = _replayed_moves(rhos, seed, ss, ts)
    states, history = list(rhos), []
    for step in range(max(map(len, plans), default=0)):
        history.append([])
        for i, moves in enumerate(plans):
            if step < len(moves):
                state, (position, count) = states[i], moves[step]
                history[-1].append((i, state, position, count))
                if count is None:
                    states[i] = delete(state, {position})
                else:
                    request = (state.shape, state.mat, IndexSet((position,), state.length + 1), count)
                    sample = _sample_batch([request], rng, Tolerance())[0][-1]
                    states[i] = DensityMatrix(QuditShape(state.level, state.length + 1), sample)
    return states, history


def _mixed_trials(rng, s, t):
    """States for one lockstep call: 1-3 qubits of every rank, and, where
    n + t <= 2 allows, 1-2 qutrits of every rank."""
    rhos = []
    for level, lengths in ((2, range(max(s, 1), 4)), (3, range(max(s, 1), 3 - t))):
        for n in lengths:
            shape = QuditShape(level, n)
            rhos += [random_density(rng, shape, rank) for rank in range(1, shape.dim + 1)]
    return rhos


def _assert_final_groups(finals, meets, rhos, ss, ts, replayed):
    """The final memberships of a lockstep call: one ``_members_ins_del``
    call, and in it one ``pairs_meet`` call, per (s, t, final shape, source
    shape) group, on the stacks of its trials' final states, bit for bit
    those of the replay, and of their sources, in trial order."""
    groups: dict = {}
    for i, key in enumerate(zip(ss, ts, (sigma.shape for sigma in replayed), (rho.shape for rho in rhos))):
        groups.setdefault(key, []).append(i)
    assert len(finals) == len(meets) == len(groups)
    batched = {(s, t, sigma_shape, rho_shape): (sigmas.tobytes(), sources.tobytes())
               for sigma_shape, sigmas, rho_shape, sources, s, t, _ in finals}
    assert batched == {
        key: (b"".join(replayed[i].mat.tobytes() for i in group), b"".join(rhos[i].mat.tobytes() for i in group))
        for key, group in groups.items()
    }


def _memberships(sigmas, rhos, s, t):
    """``feasibility._members_ins_del`` of each (sigma shape, rho shape)
    group of the pairs, on the stacks of its sigmas and its rhos; the
    verdicts in pair order."""
    groups: dict = {}
    for i, (sigma, rho) in enumerate(zip(sigmas, rhos)):
        groups.setdefault((sigma.shape, rho.shape), []).append(i)
    verdicts: list = [None] * len(sigmas)
    for (sigma_shape, rho_shape), group in groups.items():
        left, right = (np.array([states[i].mat for i in group]) for states in (sigmas, rhos))
        found = feasibility._members_ins_del(sigma_shape, left, rho_shape, right, s, t, Tolerance())
        for i, verdict in zip(group, found):
            verdicts[i] = verdict
    return verdicts


def _recorded(monkeypatch, module, name):
    """Wrap ``module.<name>`` so each call's arguments are recorded."""
    calls = []
    real = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


@pytest.mark.parametrize("s, t", [(1, 1), (2, 1), (1, 2), (0, 2), (2, 0)])
def test_lockstep_trials_match_one_trial_bit_for_bit(monkeypatch, rng, s, t):
    # every trial of one mixed call ends in the state, bit for bit, and with
    # the verdict that the trial reaches when the batch is replayed one
    # trial's move at a time
    rhos = _mixed_trials(rng, s, t)
    seed = int(rng.integers(2**62))
    finals = _recorded(monkeypatch, feasibility, "_members_ins_del")
    meets = _recorded(monkeypatch, feasibility, "pairs_meet")
    builds = _recorded(monkeypatch, channels, "_insert_stack")
    verdicts = check_containment_trials(rhos, seed, s, t)
    if t:  # same-shape insertions of different trials share one build
        assert len(builds) < sum(len(sources) for _, _, sources, *_ in builds)
    replayed, _ = _replayed_trials(rhos, seed, [s] * len(rhos), [t] * len(rhos))
    # every final membership is decided by one comparison per group
    _assert_final_groups(finals, meets, rhos, [s] * len(rhos), [t] * len(rhos), replayed)
    assert verdicts == [member_ins_del(sigma, rho, s, t) for sigma, rho in zip(replayed, rhos)]
    assert all(verdicts)


def _lockstep_calls(monkeypatch, steps):
    """Record, for each of ``steps`` lockstep steps, the group key of each
    call: a stacked deletion (``feasibility.trace_out``: dimension and
    position), a block check (``_check_blocks``: rank, l, t) and a build
    (``_insert_stack``: source shape, and the set of its positions).  A
    step's deletions come before its one
    ``_sample_batch`` call, and its checks and builds inside it."""
    calls = [{"trace_out": [], "_check_blocks": [], "_insert_stack": []} for _ in range(steps)]
    batches = []

    def record(module, name, key):
        real = getattr(module, name)

        def recording(*args):
            if name == "_sample_batch":
                batches.append(None)
            else:
                calls[len(batches) - (name != "trace_out")][name].append(key(*args))
            return real(*args)

        monkeypatch.setattr(module, name, recording)

    record(feasibility, "trace_out", lambda mat, pset, level: (mat.shape[-1], pset.positions))
    record(feasibility, "_sample_batch", None)
    record(channels, "_check_blocks", lambda stack, rank, shape, *_: (rank, shape.level, shape.length))
    record(channels, "_insert_stack", lambda shape, qsets, *_: (shape, frozenset(qsets)))
    return calls, batches


def test_a_lockstep_step_makes_one_stacked_call_per_group(monkeypatch, rng):
    # one mixed call: qubits on 1-3 and qutrits on 1-2 qudits, of every rank,
    # through one deletion and two insertions.  Each step makes one stacked
    # trace_out per (shape, position) of its deletions, one _check_blocks
    # per (rank, l, t) of its insertions and one _insert_stack per source
    # shape, whatever its positions, the groups read off the moves of the
    # batch replayed trial by trial
    s, t = 1, 2
    rhos = [
        random_density(rng, shape, rank)
        for shape in (QuditShape(2, 1), QuditShape(2, 2), QuditShape(2, 3), QuditShape(3, 1), QuditShape(3, 2))
        for rank in range(1, shape.dim + 1)
    ]
    seed = int(rng.integers(2**62))
    _, history = _replayed_trials(rhos, seed, [s] * len(rhos), [t] * len(rhos))
    calls, batches = _lockstep_calls(monkeypatch, s + t)
    check_containment_trials(rhos, seed, s, t)
    assert len(batches) == s + t
    for step, made in enumerate(calls):
        moves = history[step]
        positions: dict = {}  # per source shape of an insertion, its positions
        for _, state, q, count in moves:
            if count:
                positions.setdefault(state.shape, set()).add(IndexSet((q,), state.length + 1))
        groups = {
            "trace_out": {(state.dim, (p,)) for _, state, p, count in moves if count is None},
            "_check_blocks": {
                (spectral_decompose(state).rank, state.level, 1) for _, state, _, count in moves if count
            },
            "_insert_stack": {(shape, frozenset(qsets)) for shape, qsets in positions.items()},
        }
        for name, keys in made.items():
            assert sorted(keys, key=repr) == sorted(groups[name], key=repr), (step, name)
    # 26 deletions and 52 insertions, one move per trial and step
    totals = {name: sum(len(made[name]) for made in calls) for name in calls[0]}
    assert len(rhos) == 26 and totals == {"trace_out": 22, "_check_blocks": 34, "_insert_stack": 18}


def test_one_call_runs_trials_of_different_counts_as_each_runs_alone(monkeypatch, rng):
    # (1,1), (2,1), (1,2), (0,2) and (2,0) trials, shuffled into one call:
    # three lockstep steps, each trial's final state and verdict those of
    # the batch replayed trial by trial, and one final-membership call per
    # distinct (s, t)
    counts = [(1, 1), (2, 1), (1, 2), (0, 2), (2, 0)]
    trials = [(rho, s, t) for s, t in counts for rho in _mixed_trials(rng, s, t)]
    rhos, ss, ts = zip(*[trials[k] for k in rng.permutation(len(trials))])
    seed = int(rng.integers(2**62))
    finals = _recorded(monkeypatch, feasibility, "_members_ins_del")
    meets = _recorded(monkeypatch, feasibility, "pairs_meet")
    batches = _recorded(monkeypatch, feasibility, "_sample_batch")
    verdicts = check_containment_trials(rhos, seed, list(ss), np.array(ts))
    assert len(batches) == 3
    assert {(s, t) for *_, s, t, _ in finals} == set(counts)
    replayed, _ = _replayed_trials(rhos, seed, ss, ts)
    _assert_final_groups(finals, meets, rhos, ss, ts, replayed)
    assert verdicts == [member_ins_del(*trial) for trial in zip(replayed, rhos, ss, ts)]
    assert all(verdicts)


@pytest.mark.parametrize(
    "s, t, lone",
    [
        ([1, 1.0], 1, (1.0, 1)),
        (1, [1, np.float64(1)], (1, np.float64(1))),
        ([1, 3], 1, (3, 1)),
        ([-1, 1], 1, (-1, 1)),
        (1, [True, 1], (1, True)),
        ([1, "1"], 1, ("1", 1)),
    ],
)
def test_per_trial_counts_are_refused_as_a_lone_trial_refuses_them(s, t, lone):
    # a float, a bool, a string, a negative count or more deletions than
    # that trial's qudits: refused by name before the first move is drawn
    rho = example_rho(0.5, 0.5)
    with pytest.raises(CountOutOfRange, match="of trial [01]"):
        check_containment_trials([rho, rho], 3, s, t)
    with pytest.raises(CountOutOfRange):
        check_containment_trial(rho, 3, *lone)


@pytest.mark.parametrize("s, t", [([1], 1), (1, [1, 1, 1]), ([], [])])
def test_per_trial_counts_need_one_count_per_trial(s, t):
    with pytest.raises(ShapeMismatch):
        check_containment_trials([example_rho(0.5, 0.5)] * 2, 3, s, t)


def _tamper_request(monkeypatch, fault, request):
    """Script one fault into one request of a ``_sample_batch`` call: its
    source's weights off by 0.2 % (a round trip fails), or its blocks NaN.
    Sources are decomposed a stack per shape, in request order when each
    shape's requests are adjacent, into rank groups that name their rows of
    the stack.  Blocks are drawn in one ``_draw_groups`` pass whose draws are
    the requests in order; a (rank, l, t) group names its arrays among the
    arrays of all draws, in draw order."""
    if fault == "round trip":
        real, done = channels._spectral_groups, []

        def faulty(*args):
            groups = real(*args)
            k = request - len(done)
            for rows, weights, _ in groups:
                done.extend(rows)
                weights[rows == k] *= 1.002
            return groups

        monkeypatch.setattr(channels, "_spectral_groups", faulty)
        return
    real = channels._draw_groups

    def faulty(rng, counts, keys):
        stacks = real(rng, counts, keys)
        start = sum(counts[:request])
        for samples, stack in stacks.values():
            stack[(start <= samples) & (samples < start + counts[request])] = np.nan
        return stacks

    monkeypatch.setattr(channels, "_draw_groups", faulty)


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("round trip", RoundTripFailed, "D_Q\\(sigma\\) differs"),
        ("non-finite", BlockConstraintViolated, "blocks have non-finite"),
    ],
)
def test_batch_errors_name_the_trial_and_step(monkeypatch, rng, fault, error, message):
    # three 2-qubit trials, then three 1-qubit trials that all insert at one
    # position, trial 3 drawing one sample (the first seed whose moves do
    # so): trial 3 is row 0 of the build, and of the rank-2 draw group, it
    # shares with trials 4 and 5, and a fault in it is reported as trial 3
    # at step 1, not by its row
    rhos = [random_density(rng, QuditShape(2, n)) for n in (2, 2, 2, 1, 1, 1)]

    def fits(seed):
        (q3, count), (q4, _), (q5, _) = [plan[0] for plan in _replayed_moves(rhos, seed, [0] * 6, [1] * 6)[1][3:]]
        return q3 == q4 == q5 and count == 1

    seed = next(seed for seed in range(100) if fits(seed))
    builds = _recorded(monkeypatch, channels, "_insert_stack")
    checks = _recorded(monkeypatch, channels, "_check_blocks")
    _tamper_request(monkeypatch, fault, 3)  # every trial inserts at step 1
    with pytest.raises(error, match=rf"^trial 3, step 1: {message}"):
        check_containment_trials(rhos, seed, 0, 1)
    if fault == "round trip":
        _, _, sources, *_ = builds[-1]  # the build that raised: one row per sample
        counts = [plan[0][1] for plan in _replayed_moves(rhos, seed, [0] * 6, [1] * 6)[1][3:]]
        expected = [rho.mat.tobytes() for rho, count in zip(rhos[3:], counts) for _ in range(count)]
        assert [source.tobytes() for source in sources] == expected
    else:  # every block check runs before any build
        stack, rank, *_ = checks[-1]  # the check that raised
        assert not builds and rank == 2 and len(stack) >= 3
        assert np.isnan(stack[0]).all() and np.isfinite(stack[-1]).all()


def test_a_block_error_names_its_trial_in_a_draw_group_of_two_shapes(monkeypatch, rng):
    # a 1-qubit and two 2-qubit sources, all of rank 2, insert one qubit:
    # one (rank, l, t) draw group, checked by one call, whose rows of trial 2
    # follow those of trials 0 and 1, of another shape and of the same
    rhos = [random_density(rng, QuditShape(2, 1))] + [random_density(rng, QuditShape(2, 2), 2) for _ in range(2)]
    checks = _recorded(monkeypatch, channels, "_check_blocks")
    _tamper_request(monkeypatch, "non-finite", 2)
    with pytest.raises(BlockConstraintViolated, match=r"^trial 2, step 1: (sample 0: )?blocks have non-finite"):
        check_containment_trials(rhos, 3, 0, 1)
    assert len(checks) == 1
    stack, rank, block_shape, *_ = checks[0]
    assert (rank, block_shape) == (2, QuditShape(2, 1))
    finite = np.isfinite(stack).reshape(len(stack), -1).all(axis=1)
    assert 2 < len(stack) and finite[: len(stack) - 1].sum() >= 2 and not finite[-1]


def test_batch_errors_name_the_trial_of_a_refused_source(rng):
    # trial 4 is row 2 of the 2-qubit sources, decomposed as one stack; its
    # refusal names the trial and step, with the class and residual of the
    # lone decomposition, which a lone sampler and insert_construct both read
    bad = DensityMatrix(QuditShape(2, 2), np.diag([1.2, -0.2, 0.0, 0.0]))
    rhos = [random_density(rng, QuditShape(2, n)) for n in (1, 2, 1, 2)] + [bad]
    with pytest.raises(NotPSD, match=r"^trial 4, step 1: negative eigenvalue -2\.000e-01$") as batched:
        check_containment_trials(rhos, 0, 0, 1)
    assert batched.value.residual == pytest.approx(0.2)
    with pytest.raises(NotPSD) as lone:
        insert_construct(bad, (1,), np.zeros((2, 2, 2, 2)))
    with pytest.raises(NotPSD, match=f"^{lone.value}$"):
        sample_insertions(bad, (1,), 1, 0)


@pytest.mark.parametrize("s, t", [(-1, 0), (0, -1)])
def test_member_del_ins_refuses_negative_counts(rng, s, t):
    # sigma has the length n + t - s the counts ask for, so only the count is wrong
    rho = example_rho(0.5, 0.5)
    sigma = random_density(rng, QuditShape(2, rho.length + t - s))
    with pytest.raises(CountOutOfRange):
        member_del_ins(sigma, rho, s, t)


def test_low_rank_marginals_are_feasible(rng):
    # marginals of low-rank states have no positive definite lift: the face
    # shrinks with the rank, and the dual on it converges to a witness
    for n, ranks in ((4, range(1, 6)), (3, (1, 2))):
        shape = QuditShape(2, n)
        for rank in ranks:
            for p, q in ((1, n), (2, 1)):
                tau = random_density(rng, shape, rank)
                pset, qset = IndexSet((p,), n), IndexSet((q,), n)
                sigma, rho = delete(tau, pset), delete(tau, qset)
                report = feasibility_del_ins(sigma, rho, pset, qset)
                assert report.status is FeasibilityStatus.FEASIBLE, (n, rank, p, q)
                assert report.certificate is None
                assert 1 <= report.details["face_dim"] <= shape.dim
                _check_witness(report, sigma, rho, pset, qset)


def test_full_face_marginals_are_feasible(rng):
    # marginals of rank-4 states on 4 qubits: full-rank marginals, so the
    # face is the whole space, but a rank-deficient tau, which makes the dual
    # the slowest; the memory rebuilt at every step (_compact_direction) took
    # 138, 990, 277 and 628 evaluations (2,033), and rounding moves each count
    shape = QuditShape(2, 4)
    total = 0
    for p, q in ((1, 4), (2, 3), (4, 2), (3, 1)):
        tau = random_density(rng, shape, 4)
        pset, qset = IndexSet((p,), 4), IndexSet((q,), 4)
        sigma, rho = delete(tau, pset), delete(tau, qset)
        report = feasibility_del_ins(sigma, rho, pset, qset)
        assert report.status is FeasibilityStatus.FEASIBLE, (p, q)
        assert report.details["face_dim"] == shape.dim
        _check_witness(report, sigma, rho, pset, qset)
        assert report.iterations <= 1500, (p, q)
        total += report.iterations
    assert total <= 2500


def _d16_instances(seeds):
    """(sigma, rho, P, Q) of the d=16 sweep, as the benchmark's
    feasibility-d16 slot builds them: the marginals of a random 4-qubit
    state at every rank 1-16, one ordered position pair per rank."""
    shape, pairs = QuditShape(2, 4), list(permutations(range(1, 5), 2))
    for seed in seeds:
        rng = np.random.default_rng([seed, 16])
        for rank in range(1, shape.dim + 1):
            tau = random_density(rng, shape, rank)
            p, q = pairs[(seed + rank) % len(pairs)]
            pset, qset = IndexSet((p,), 4), IndexSet((q,), 4)
            yield delete(tau, pset), delete(tau, qset), pset, qset


def test_a_d16_sweep_stays_within_its_measured_evaluations():
    # seeds 3-5 of the d=16 sweep.  At MEMORY = 60 the sweep took 1,233
    # evaluations (30 pairs: 1,470), and 1,234 once the memory's interleaved
    # products rounded otherwise; the bound leaves 5 % for other LAPACK
    # builds.  One Gauss–Newton try at 20 evaluations took it to 568, the
    # schedule of tries from 4 evaluations to 265.  Counts repeat exactly at
    # one BLAS thread
    total = 0
    for sigma, rho, pset, qset in _d16_instances((3, 4, 5)):
        report = feasibility_del_ins(sigma, rho, pset, qset)
        assert report.status is FeasibilityStatus.FEASIBLE, (pset, qset)
        _check_witness(report, sigma, rho, pset, qset)
        total += report.iterations
    assert total <= 278


def _recorded_finishes(monkeypatch):
    """Patch ``_newton_finish`` to record each try as (the evaluation count
    it starts at, read off ``_dual_solve``'s frame, whether it met the
    witness test); returns the list it appends to."""
    tries, real = [], feasibility._newton_finish

    def recorded(*args):
        tau, steps, residual = real(*args)
        tries.append((sys._getframe(1).f_locals["evaluations"], tau is not None))
        return tau, steps, residual

    monkeypatch.setattr(feasibility, "_newton_finish", recorded)
    return tries


def test_the_newton_finish_shortens_the_d16_sweep(monkeypatch):
    # the 96 instances of seeds 0-5: 2,395 evaluations without the finish
    # (rank 4: 869); 1,160 with one try at 20 evaluations, its 31 tries all
    # meeting the witness test; 472 with a try at 4 evaluations and each
    # next one at NEWTON_AFTER times the count of the failed one, 74 of its
    # 82 tries meeting the test (a try at 4 can fail where one at 20 would
    # not).  The bounds leave 5 % on the count and on the wins, and 2 failed
    # tries.  Each try starts at the first count on or past its schedule
    # that the solve reaches, as the counts of its L-BFGS steps (read at
    # each search direction) show.  Every witness, finished or not, is
    # re-checked here on its own
    tries, reached, direction = _recorded_finishes(monkeypatch), [], feasibility._CurvatureMemory.direction
    monkeypatch.setattr(feasibility._CurvatureMemory, "direction", lambda memory, g, step0: reached.append(
        sys._getframe(1).f_locals["evaluations"]) or direction(memory, g, step0))
    total, steps, outcomes = 0, 0, []
    for sigma, rho, pset, qset in _d16_instances(range(6)):
        tries.clear(), reached.clear()
        report = feasibility_del_ins(sigma, rho, pset, qset)
        assert report.status is FeasibilityStatus.FEASIBLE, (pset, qset)
        _check_witness(report, sigma, rho, pset, qset)
        total += report.iterations
        steps += report.details["newton_steps"]
        scheduled, due = [], feasibility.NEWTON_AFTER
        for count in sorted({*reached, *(count for count, _ in tries)}):
            if count >= due:
                scheduled.append(count)
                due = feasibility.NEWTON_AFTER * count
        assert [count for count, _ in tries] == scheduled and report.details["newton_tries"] == len(tries)
        outcomes += [met for _, met in tries]
    assert total <= 496
    assert sum(outcomes) >= 70 and len(outcomes) - sum(outcomes) <= 10
    assert len(outcomes) <= steps <= feasibility.NEWTON_STEPS * len(outcomes)


def test_the_held_out_d16_instances_stay_within_their_measured_evaluations():
    # the 320 held-out instances of seeds 6-25: all feasible, each witness
    # re-checked, 1,474 evaluations in all; the bound leaves 5 %
    total = 0
    for sigma, rho, pset, qset in _d16_instances(range(6, 26)):
        report = feasibility_del_ins(sigma, rho, pset, qset)
        assert report.status is FeasibilityStatus.FEASIBLE, (pset, qset)
        _check_witness(report, sigma, rho, pset, qset)
        total += report.iterations
    assert total <= 1547


def test_the_held_out_worst_instance_is_finished_by_a_later_try():
    # default_rng([22, 16]) at rank 4, the held-out sweep's worst: its one
    # try at 20 evaluations failed and L-BFGS ran on to 947; the schedule's
    # third try, at 64, meets the witness test.  The bound leaves 5 %
    sigma, rho, pset, qset = list(_d16_instances([22]))[3]
    assert (pset.positions, qset.positions) == ((1,), (4,))  # pairs[(22 + 4) % 12]
    report = feasibility_del_ins(sigma, rho, pset, qset)
    assert report.status is FeasibilityStatus.FEASIBLE and report.iterations <= 67
    _check_witness(report, sigma, rho, pset, qset)


def _no_finish(*args):
    """``_newton_finish`` switched off: every try fails with zero steps."""
    return None, 0, math.inf


def test_a_failed_finish_leaves_every_report_as_no_finish_leaves_it(monkeypatch):
    # every try forced to fail after its steps: each report, Werner
    # certificates, rho/psi and the d=16 sweep, is the one with the finish
    # switched off (each try failing with zero steps), to the bit (status,
    # evaluations, gap, witness, certificate), at the same checkpoints.
    # 78 reports made a try, 36 of them two or more
    real = feasibility._newton_finish
    monkeypatch.setattr(feasibility, "_newton_finish", lambda *args: (None, *real(*args)[1:]))
    failed = [feasibility_del_ins(*instance) for instance in _screen_instances()]
    monkeypatch.setattr(feasibility, "_newton_finish", _no_finish)
    tried, retried = 0, 0
    for instance, report in zip(_screen_instances(), failed, strict=True):
        alone = feasibility_del_ins(*instance)
        _assert_same_report(report, alone)
        assert alone.details.get("newton_steps", 0) == 0
        assert alone.details.get("newton_tries") == report.details.get("newton_tries")
        tried += report.details.get("newton_tries", 0) > 0
        retried += report.details.get("newton_tries", 0) > 1
        if report.witness is not None:
            assert report.witness.mat.tobytes() == alone.witness.mat.tobytes()
    assert tried >= 70 and retried >= 30


def test_an_early_try_leaves_every_report_short_of_feasible_as_it_was(monkeypatch):
    # the real finish, tried at every checkpoint: a try that fails leaves
    # the L-BFGS state untouched, and no witness within feas_tol coexists
    # with a certificate, so every report of the screen's instances that is
    # not feasible is the one with the finish switched off, to the bit.
    # Each Werner certificate comes after a failed try
    reports = [feasibility_del_ins(*instance) for instance in _screen_instances()]
    monkeypatch.setattr(feasibility, "_newton_finish", _no_finish)
    for instance, report in zip(_screen_instances(), reports, strict=True):
        if report.status is not FeasibilityStatus.FEASIBLE:
            _assert_same_report(report, feasibility_del_ins(*instance))
    werner = [report for report in reports[:3] if report.status is FeasibilityStatus.INFEASIBLE]
    assert len(werner) == 2 and all(report.details["newton_tries"] >= 1 for report in werner)


def _assert_same_report(report, alone):
    """Status, evaluations, gap, reason and certificate arrays to the bit."""
    assert (report.status, report.iterations, report.gap) == (alone.status, alone.iterations, alone.gap)
    assert report.details.get("reason") == alone.details.get("reason")
    for mine, theirs in ((report.witness, alone.witness), (report.certificate, alone.certificate)):
        assert (mine is None) == (theirs is None)
    if report.certificate is not None:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(report.certificate, alone.certificate))


def test_the_finish_covers_two_blocks_and_qutrits(monkeypatch):
    # |P| != |Q| packs the two conditions as two blocks; at its natural start
    # the finish meets the witness test on 4 qubits, P = {1, 2}, Q = {3}, and
    # so it does on 6 of 8 qutrit pairs
    tries = _recorded_finishes(monkeypatch)
    rng = np.random.default_rng([0, 42])
    tau = [random_density(rng, QuditShape(2, 4), rank) for rank in range(1, 5)][-1]  # the rank-4 draw
    pset, qset = IndexSet((1, 2), 4), IndexSet((3,), 4)
    sigma, rho = delete(tau, pset), delete(tau, qset)
    report = feasibility_del_ins(sigma, rho, pset, qset)
    assert report.status is FeasibilityStatus.FEASIBLE and tries == [(feasibility.NEWTON_AFTER, True)]
    assert report.iterations == feasibility.NEWTON_AFTER and report.details["newton_steps"] > 0
    _check_witness(report, sigma, rho, pset, qset)
    rng, wins = np.random.default_rng([0, 43]), 0
    for rank in range(2, 6):
        tau = random_density(rng, QuditShape(3, 2), rank)
        for p, q in ((1, 2), (2, 1)):
            pset, qset = IndexSet((p,), 2), IndexSet((q,), 2)
            sigma, rho = delete(tau, pset), delete(tau, qset)
            tries.clear()
            report = feasibility_del_ins(sigma, rho, pset, qset)
            assert report.status is FeasibilityStatus.FEASIBLE
            _check_witness(report, sigma, rho, pset, qset)
            wins += tries == [(feasibility.NEWTON_AFTER, True)]
    assert wins >= 6


def test_the_normal_maps_give_the_matrix_free_normal_matrix(rng):
    # the real W N of _normal_maps, one bincount over its sorted cells, against
    # W times N y = A(A*(y) tau + tau A*(y)) for a Hermitian pair y, at every
    # (level, Q, P) of the lifted pairs, two blocks and qutrits included;
    # real_of and imag_of give y back from its real coordinates
    for level, qset, pset in _lifted_pairs():
        rho, sigma = _mixed(level, qset.ambient - qset.size), _mixed(level, pset.ambient - pset.size)
        affine = affine_constraint(sigma, rho, pset, qset)
        d = level**qset.ambient
        root = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
        tau = root @ root.conj().T
        cells, gather, weights, coordinates, real_of, imag_of = feasibility._normal_maps(level, qset, pset)
        assert cells.dtype.kind == gather.dtype.kind == "u" and np.all(cells[1:] >= cells[:-1])
        floats = np.concatenate([tau.ravel(), affine.apply(tau)]).view(float)
        source = np.concatenate([floats, -floats, 2 * floats, -2 * floats])
        matrix = np.bincount(cells, source[gather], minlength=len(weights) ** 2).reshape(len(weights), -1)
        y = affine.pack(tuple(random_hermitian(rng, len(m)) for m in affine.rhs))
        x = affine.adjoint(y)
        want = affine.apply(x @ tau + tau @ x).view(float)[coordinates] * weights
        u = y[:-1].view(float)[coordinates]
        assert np.abs(matrix @ u - want).max() <= 1e-12 * np.abs(want).max(), (level, qset, pset)
        u = np.concatenate([u, -u, [0.0]])
        assert np.array_equal(u[real_of] + 1j * u[imag_of], y)  # pad included


def _lifted_pairs():
    """Every (level, Q, P) of index sets, empty ones included, at lifted
    d <= 16: qubits up to n + t = 4 and qutrits up to n + t = 2."""
    for level, most in ((2, 4), (3, 2)):
        for ambient in range(1, most + 1):
            sets = [IndexSet(c, ambient) for k in range(ambient + 1) for c in combinations(range(1, ambient + 1), k)]
            for qset, pset in product(sets, repeat=2):
                yield level, qset, pset


def test_compiled_maps_have_the_bits_of_trace_out_and_are_adjoint(rng):
    covered = set()
    for level, qset, pset in _lifted_pairs():
        rho, sigma = _mixed(level, qset.ambient - qset.size), _mixed(level, pset.ambient - pset.size)
        affine = affine_constraint(sigma, rho, pset, qset)
        d = level**qset.ambient
        # magnitudes far apart, so that another order of the sums would round otherwise
        x = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * 10.0 ** rng.integers(-6, 7, (d, d))
        lam = tuple(rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape) for m in affine.rhs)
        parts = affine.unpack(affine.apply(x))
        for part, traced in zip(parts, (qset, pset)):
            assert part.tobytes() == trace_out(x, traced, level).tobytes(), (level, qset, pset)
        spread = trace_out_adjoint(lam[0], qset, level) + trace_out_adjoint(lam[1], pset, level)
        z = affine.pack(lam)
        assert affine.adjoint(z).tobytes() == spread.tobytes(), (level, qset, pset)
        left = np.vdot(affine.apply(x), z[:-1]).real  # z without its pad
        assert abs(left - np.vdot(x, affine.adjoint(z)).real) <= 1e-12 * np.abs(x).max() * np.abs(z).max() * d * d
        covered.add((level, qset.size == pset.size, pset.size))
    assert {(2, False, 2), (2, True, 2), (3, False, 1), (3, True, 1)} <= covered


def test_decider_kernels_have_the_bits_of_lone_decompositions(rng, monkeypatch):
    # the decider decomposes each state once per side (once in all when both
    # sides are one stack), the states a pair still lacks by one
    # _spectral_groups call per shape, sigma's row first: each kernel I - P
    # has the bits of a lone spectral_decompose's projector, whatever the
    # ranks beside it, and a refusal is the lone call's error
    def lone(shape, mat):
        kets = spectral_decompose(DensityMatrix(shape, mat)).kets
        return np.eye(len(kets)) - kets @ kets.conj().T

    calls = []
    real = feasibility._spectral_groups
    monkeypatch.setattr(feasibility, "_spectral_groups", lambda mats, shape, tol: calls.append(
        len(mats) if np.ndim(mats) == 3 else 1) or real(mats, shape, tol))
    for level, length in ((2, 2), (2, 3), (3, 1)):
        shape = QuditShape(level, length)
        stack = np.array([random_density(rng, shape, rank).mat for rank in (1, shape.dim, 2, 3)])
        for rhos, sides in ((stack, 1), (stack.copy(), 2)):
            decider = feasibility._PairDecider(shape, stack, shape, rhos, 1, 1, Tolerance())
            calls.clear()
            for i, j in product(range(len(stack)), repeat=2):
                rho_kernel, sigma_kernel = decider._kernels_of(i, j)
                assert rho_kernel.tobytes() == lone(shape, stack[j]).tobytes()
                assert sigma_kernel.tobytes() == lone(shape, stack[i]).tobytes()
            assert sum(calls) == sides * len(stack)  # every state decomposed once
            assert calls[0] == sides  # the first pair's two states share one call
    shape = QuditShape(2, 2)
    good, bad = random_density(rng, shape).mat, np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    with pytest.raises(NotPSD) as refusal:
        spectral_decompose(DensityMatrix(shape, bad))
    assert str(refusal.value).startswith("negative eigenvalue")
    decider = feasibility._PairDecider(shape, np.array([good, bad]), shape, np.array([bad]), 1, 1, Tolerance())
    for i in (1, 0):  # sigma 1 refused first, then rho 0 after sigma 0 passes
        calls.clear()
        with pytest.raises(NotPSD, match=f"^{re.escape(str(refusal.value))}$") as error:
            decider._kernels_of(i, 0)
        # the stacked call, then the lone calls up to the refused state
        assert error.value.residual == refusal.value.residual and calls == ([2, 1] if i else [2, 1, 1])


def test_a_one_pair_decision_decomposes_both_states_in_one_call(monkeypatch):
    # the two same-shape states of a one-pair decision share one stacked
    # _spectral_groups call; marginals of full rank (tau of rank >= 4) leave
    # kernels of rounding only, so the face is the whole space with no
    # eigensolve, which is what the eigensolve finds: every eigenvalue below
    # face_tol.  At rank 2 the face takes its eigensolve
    calls, solves, faces = [], [], []
    groups, solve = feasibility._spectral_groups, feasibility.eigensolve
    monkeypatch.setattr(feasibility, "_spectral_groups",
                        lambda mats, shape, tol: calls.append(np.shape(mats)) or groups(mats, shape, tol))
    monkeypatch.setattr(feasibility, "eigensolve", lambda solver, h: solves.append(1) or solve(solver, h))
    monkeypatch.setattr(feasibility, "_dual_solve",
                        lambda affine, face, feas_tol: faces.append(face) or ("stopped", "stub", 0, 1.0, 0, 0))
    rng, pset, qset = np.random.default_rng(7), IndexSet((1,), 4), IndexSet((3,), 4)
    for rank, full in ((16, True), (4, True), (2, False)):
        tau = random_density(rng, QuditShape(2, 4), rank)
        sigma, rho = delete(tau, pset), delete(tau, qset)
        calls.clear(), solves.clear(), faces.clear()
        report = feasibility_del_ins(sigma, rho, pset, qset)
        assert calls == [(2, 8, 8)] and len(solves) == (0 if full else 1) and len(faces) == 1
        assert (faces[0] is None and report.details["face_dim"] == 16) if full else faces[0] is not None
        decider = feasibility._PairDecider(sigma.shape, sigma.mat[None], rho.shape, rho.mat[None], 1, 1, Tolerance())
        kernels = decider._kernels_of(0, 0)
        affine = affine_constraint(sigma, rho, pset, qset)
        w = np.linalg.eigvalsh(affine.adjoint(affine.pack(kernels)))
        assert (w.max() <= 2 * Tolerance().feas_tol * math.sqrt(16)) == full


def _compact_direction(g, S, Y, step0):
    """-H g for the L-BFGS pairs, the rows of S and Y (oldest first), rebuilt
    from scratch in the compact form of Byrd, Nocedal and Schnabel (1994):
    R = triu(S Y^T) and two solves.  The oracle for the incremental memory."""
    if not len(S):
        return -step0 * g
    sy = S @ Y.T
    upper, gamma = np.triu(sy), sy[-1, -1] / float(Y[-1] @ Y[-1])
    u = np.linalg.solve(upper, S @ g)
    p = np.linalg.solve(upper.T, np.diag(sy) * u + gamma * (Y @ (Y.T @ u) - Y @ g))
    return -(gamma * g + p @ S - gamma * (u @ Y))


@pytest.mark.parametrize("n", [64, 256])  # the dual sizes at d=8 and at d=16
def test_curvature_memory_matches_the_compact_form_from_scratch(rng, n):
    # pairs of a well-conditioned quadratic plus noise, s^T y > 0; from the
    # empty memory, 75 pushes drop the oldest pair 45 times and copy the
    # window back once, then a clear and 5 more pushes start over
    memory, pairs = feasibility._CurvatureMemory(n), []
    g, curvature = rng.standard_normal(n), rng.uniform(1.0, 4.0, n)
    for k in range(81):
        if k == 75:
            memory.clear()
            pairs.clear()
        if k:
            s = rng.standard_normal(n)
            y = curvature * s + 0.1 * rng.standard_normal(n)
            memory.push(s, y)
            pairs.append((s, y))
        S, Y = (np.array([pair[i] for pair in pairs[-feasibility.MEMORY :]]).reshape(-1, n) for i in (0, 1))
        want = _compact_direction(g, S, Y, 0.25)
        got = memory.direction(g, 0.25)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), k


def _werner(eps):
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    return DensityMatrix(QuditShape(2, 2), (1 - eps) * np.outer(phi, phi) + eps * np.eye(4) / 4)


def test_monogamy_dual_certificate():
    # qubit 2 cannot be nearly maximally entangled with both qubit 1 and qubit 3
    p1, q3 = IndexSet((1,), 3), IndexSet((3,), 3)
    for eps in (0.05, 0.3):
        state = _werner(eps)
        report = feasibility_del_ins(state, state, p1, q3)
        assert report.status is FeasibilityStatus.INFEASIBLE
        assert report.details["reason"] == "dual certificate"
        assert report.details["face_dim"] == 8
        assert 0 < report.iterations <= 100
        margin = _check_certificate(report, state, state, p1, q3)
        assert report.details["margin"] == pytest.approx(margin, abs=1e-12)
        assert report.gap > Tolerance().feas_tol
    state = _werner(0.6)
    report = feasibility_del_ins(state, state, p1, q3)
    assert report.status is FeasibilityStatus.FEASIBLE
    _check_witness(report, state, state, p1, q3)


def _screen_instances():
    """(sigma, rho, P, Q) of the dual checkpoints' tests: the Werner
    monogamy pairs on a face of 8 (two certified, one feasible), rho/psi both
    ways at every P and Q, and the 96-instance d=16 sweep of marginals of
    random 4-qubit states (seeds 0-5, every rank)."""
    p1, q3 = IndexSet((1,), 3), IndexSet((3,), 3)
    for eps in (0.05, 0.3, 0.6):
        yield _werner(eps), _werner(eps), p1, q3
    rho, psi = example_rho(0.5, 0.5), example_psi(0.5, 0.5)
    for (sigma, rho_), p, q in product(((psi, rho), (rho, psi)), range(1, 4), range(1, 4)):
        yield sigma, rho_, IndexSet((p,), 3), IndexSet((q,), 3)
    yield from _d16_instances(range(6))


def test_dual_certificates_come_only_at_checkpoints(monkeypatch):
    # each Werner certificate comes at the first checkpoint, evaluation
    # NEWTON_AFTER, after one failed Gauss-Newton try, and re-checks; over
    # the screen's instances every certify call of a dual solve follows a
    # failed try at its evaluation count (the tries keep their schedule,
    # test_the_newton_finish_shortens_the_d16_sweep), and 2 of the 20
    # infeasible reports are dual certificates
    events, finish, certify = [], feasibility._newton_finish, feasibility.AffineConstraint.certify

    def solver_frame():
        frame = sys._getframe(2)
        return frame.f_locals["evaluations"] if frame.f_code.co_name == "_dual_solve" else None

    def recorded_finish(*args):
        tau, steps, residual = finish(*args)
        events.append(("try", solver_frame(), tau is not None))
        return tau, steps, residual

    def recorded_certify(affine, lam):
        count = solver_frame()
        if count is not None:
            events.append(("certify", count))
        return certify(affine, lam)

    monkeypatch.setattr(feasibility, "_newton_finish", recorded_finish)
    monkeypatch.setattr(feasibility.AffineConstraint, "certify", recorded_certify)
    p1, q3 = IndexSet((1,), 3), IndexSet((3,), 3)
    for eps in (0.05, 0.3):
        state = _werner(eps)
        events.clear()
        report = feasibility_del_ins(state, state, p1, q3)
        assert report.status is FeasibilityStatus.INFEASIBLE and report.details["reason"] == "dual certificate"
        count = feasibility.NEWTON_AFTER
        assert report.iterations == count and report.details["newton_tries"] == 1
        assert events == [("try", count, False), ("certify", count)]
        margin = _check_certificate(report, state, state, p1, q3)
        assert report.details["margin"] == pytest.approx(margin, abs=1e-12)
    reasons, certified = [], 0
    for instance in _screen_instances():
        events.clear()
        report = feasibility_del_ins(*instance)
        assert report.status is not FeasibilityStatus.INCONCLUSIVE
        scheduled = []
        for _, count, met in (event for event in events if event[0] == "try"):
            scheduled += [("try", count, met)] if met else [("try", count, met), ("certify", count)]
        assert events == scheduled
        certified += sum(event[0] == "certify" for event in events)
        if report.status is FeasibilityStatus.INFEASIBLE:
            reasons.append(report.details["reason"])
    assert reasons.count("dual certificate") == 2 and len(reasons) == 20
    assert certified > 2  # failed tries on feasible instances are followed by a test too


def test_counterexample_certificates_recheck():
    # every (P, Q) pair of the rho/psi counterexample carries a certificate
    # that re-checks against the dense map
    rho, psi = example_rho(0.5, 0.5), example_psi(0.5, 0.5)
    reasons = []
    for p in range(1, 4):
        for q in range(1, 4):
            pset, qset = IndexSet((p,), 3), IndexSet((q,), 3)
            report = feasibility_del_ins(psi, rho, pset, qset)
            assert report.status is FeasibilityStatus.INFEASIBLE
            margin = _check_certificate(report, psi, rho, pset, qset)
            assert report.details["margin"] == pytest.approx(margin, abs=1e-12)
            assert report.gap >= 1e-3
            reasons.append(report.details["reason"])
    assert reasons.count("empty face") == 6
    assert reasons.count("affine constraints inconsistent") == 3


def test_tampered_and_feasible_certificates_are_rejected(rng):
    feas_tol = Tolerance().feas_tol
    rho, psi = example_rho(0.5, 0.5), example_psi(0.5, 0.5)
    p1, q2, q3 = IndexSet((1,), 3), IndexSet((2,), 3), IndexSet((3,), 3)
    werner = _werner(0.05)
    for sigma, rho_, pset, qset in ((psi, rho, p1, q2), (psi, rho, p1, IndexSet((1,), 3)),
                                     (werner, werner, p1, q3)):
        report = feasibility_del_ins(sigma, rho_, pset, qset)
        affine = affine_constraint(sigma, rho_, pset, qset)
        lam_q, lam_p = report.certificate
        assert affine.certify((lam_q, lam_p))[1] > feas_tol
        assert affine.certify((-lam_q, -lam_p))[0] < 0
        # one diagonal entry pushed far down: A*(lam) turns indefinite by more
        # than the margin can pay for
        bent = lam_q.copy()
        bent[0, 0] -= 10.0
        assert affine.certify((bent, lam_p))[0] < 0
    # on feasible instances no candidate passes: not the mismatch, the
    # least-squares dual point, nor an empty-face style shift
    for rank in (1, 2, 4):
        tau = random_density(rng, QuditShape(2, 4), rank)
        pset, qset = IndexSet((2,), 4), IndexSet((3,), 4)
        sigma, rho_ = delete(tau, pset), delete(tau, qset)
        report = feasibility_del_ins(sigma, rho_, pset, qset)
        assert report.status is FeasibilityStatus.FEASIBLE and report.certificate is None
        affine = affine_constraint(sigma, rho_, pset, qset)
        y_q, y_p = affine.least_squares_dual()
        candidates = [affine.inconsistency_certificate(), (-y_q, -y_p), (y_q, y_p),
                      (np.eye(8) - 2 * rho_.mat, np.eye(8) - 2 * sigma.mat)]
        for lam in candidates:
            assert affine.certify(lam)[1] <= feas_tol


def _mixed(level, length):
    dim = level**length
    return DensityMatrix(QuditShape(level, length), np.eye(dim) / dim)


# each composed-error call with its counts (s, t): sigma must have rho's
# level and length n - s + t
_COMPOSED = [
    pytest.param(lambda sigma, rho: insertion_member(sigma, rho, IndexSet((1,), sigma.length)),
                 0, 1, id="insertion_member"),
    pytest.param(lambda sigma, rho: member_ins_del(sigma, rho, 1, 1), 1, 1, id="member_ins_del"),
    pytest.param(lambda sigma, rho: feasibility_del_ins(sigma, rho, (1,), (2,)),
                 1, 1, id="feasibility_del_ins"),
    pytest.param(lambda sigma, rho: member_del_ins(sigma, rho, 1, 1), 1, 1, id="member_del_ins"),
]


@pytest.mark.parametrize("call, s, t", _COMPOSED)
@pytest.mark.parametrize(
    "level, extra, error", [(3, 0, LevelMismatch), (2, 1, ShapeMismatch)], ids=["level", "length"]
)
def test_composed_calls_name_the_mismatch(call, s, t, level, extra, error):
    rho = _mixed(2, 1)
    sigma = _mixed(level, rho.length - s + t + extra)
    with pytest.raises(error, match="levels differ" if error is LevelMismatch else "len"):
        call(sigma, rho)


@pytest.mark.parametrize("s, t", [(-1, 0), (0, -1)])
def test_member_ins_del_refuses_negative_counts(s, t):
    rho = _mixed(2, 2)
    with pytest.raises(CountOutOfRange, match="nonnegative"):
        member_ins_del(_mixed(2, rho.length - s + t), rho, s, t)


def test_memberships_compare_deduplicated_levels_not_raw_ones():
    # sigma's 1-deletions are x2 then x1, within eq_tol(2) = 1.41e-9 of each
    # other, so the sphere keeps only x2; rho's are y twice.  The raw x1 is
    # 0.71e-9 from y, the kept x2 1.84e-9: the spheres do not meet
    shape = QuditShape(2, 1)
    x1 = np.diag([0.5, 0.5])
    x2 = np.diag([0.5 + 0.8e-9, 0.5 - 0.8e-9])
    y = np.diag([0.5 - 0.5e-9, 0.5 + 0.5e-9])
    sigma = DensityMatrix(QuditShape(2, 2), np.kron(x1, x2))
    rho = DensityMatrix(QuditShape(2, 2), np.kron(y, y))
    eq_tol = Tolerance().at(shape.dim).eq_tol
    raw = [delete(sigma, {p}).mat for p in (1, 2)]
    assert min(np.linalg.norm(mat - y) for mat in raw) <= eq_tol  # the raw levels meet
    assert channels.deletion_sphere(sigma, 1).intersection_witness(channels.deletion_sphere(rho, 1)) is None
    assert member_ins_del(sigma, rho, 1, 1) is False
    assert _memberships([rho, sigma, sigma], [rho, rho, sigma], 1, 1) == [True, False, True]


@pytest.mark.parametrize("s, t", [(1, 1), (2, 1), (1, 2), (0, 2), (2, 0), (0, 0)])
def test_batched_memberships_match_the_sphere_oracle(rng, s, t):
    # qubits and qutrits of every rank in one call: half of the sigmas are a
    # deletion of rho then an insertion (members), half random states
    rhos = _mixed_trials(rng, s, t)
    sigmas = []
    for k, rho in enumerate(rhos):
        n = rho.length
        shape = QuditShape(rho.level, n - s + t)
        if k % 2:
            sigmas.append(random_density(rng, shape, int(rng.integers(1, shape.dim + 1))))
            continue
        kept = delete(rho, range(1, s + 1)) if s else rho
        inserted = tuple(sorted(rng.choice(np.arange(1, n - s + t + 1), size=t, replace=False).tolist()))
        sigmas.append(sample_insertions(kept, inserted, 1, k)[0] if t else kept)
    verdicts = _memberships(sigmas, rhos, s, t)
    oracle = [
        channels.deletion_sphere(sigma, t).intersection_witness(channels.deletion_sphere(rho, s)) is not None
        for sigma, rho in zip(sigmas, rhos)
    ]
    assert verdicts == oracle
    assert all(verdicts[::2])
    assert verdicts == [member_ins_del(sigma, rho, s, t) for sigma, rho in zip(sigmas, rhos)]


def test_batched_memberships_above_one_chunk_match_the_sphere_oracle(rng):
    # 7-qubit levels of 7 rows of 64 x 64 exceed one chunk, so the dedups and
    # the comparison are screened per pair; two marginals of one 8-qubit
    # state share their 1-deletions (members), random pairs do not.  The
    # marginals of a product of 8 copies of one qubit state dedup each level
    # to one kept row
    s = t = 1
    one = random_density(rng, QuditShape(2, 1)).mat
    taus = [random_density(rng, QuditShape(2, 8), 4), random_density(rng, QuditShape(2, 8))]
    taus.append(DensityMatrix(QuditShape(2, 8), reduce(np.kron, [one] * 8)))
    sigmas = [delete(tau, {p}) for tau, p in zip(taus, (2, 8, 3))]
    rhos = [delete(tau, {q}) for tau, q in zip(taus, (5, 1, 3))]
    sigmas += [random_density(rng, QuditShape(2, 7), rank) for rank in (1, 9, 128)]
    rhos += [random_density(rng, QuditShape(2, 7)) for _ in range(3)]
    assert 7 * 7 * sigmas[0].dim ** 2 > channels._CHUNK
    assert [len(channels.deletion_sphere(sigma, t)) for sigma in sigmas[:3]] == [7, 7, 1]
    verdicts = _memberships(sigmas, rhos, s, t)
    oracle = [
        channels.deletion_sphere(sigma, t).intersection_witness(channels.deletion_sphere(rho, s)) is not None
        for sigma, rho in zip(sigmas, rhos)
    ]
    assert verdicts == oracle == [True, True, True, False, False, False]


def test_member_ins_del_names_a_deletion_count_above_the_length():
    # sigma has the length n - s + t, so only s is wrong, and the error names it
    with pytest.raises(CountOutOfRange, match="s=3"):
        member_ins_del(_mixed(2, 1), _mixed(2, 2), 3, 2)


# the decider decomposes sigma, then rho, before the face: sigma of rho's
# shape (P = {2}) by one stacked solve with rho, one of one qubit (P = {1, 2})
# by its own lone solve, then rho by its own
_ONE_QUBIT = delete(example_rho(0.5, 0.5), {1})


@pytest.mark.parametrize(
    "solver, call, sigma, P, reason, step",
    [
        pytest.param("eigh", 1, _ONE_QUBIT, (1, 2), None, "_kernels_of", id="sigma-projector"),
        pytest.param("eigh", 2, _ONE_QUBIT, (1, 2), None, "_kernels_of", id="rho-projector"),
        pytest.param("eigh", 1, example_rho(0.5, 0.5), (2,), None, "_kernels_of", id="range-projectors"),
        pytest.param("eigh", 2, example_rho(0.5, 0.5), (2,), None, "eigensolve", id="face"),
        pytest.param("eigh", 3, example_rho(0.5, 0.5), (2,), None, "_dual_solve", id="first-dual-evaluation"),
        pytest.param("eigvalsh", 1, example_psi(0.5, 0.5), (2,), "affine constraints inconsistent", "certified",
                     id="certify"),
    ],
)
def test_a_lapack_failure_raises_no_convergence(monkeypatch, solver, call, sigma, P, reason, step):
    # ``step`` is the frame the decider's decide was in when the solver failed
    rho = example_rho(0.5, 0.5)
    pset, qset = IndexSet(P, 3), IndexSet((2,), 3)
    report = feasibility_del_ins(sigma, rho, pset, qset)
    assert report.details.get("reason") == reason
    monkeypatch.setattr(np.linalg, solver, failing_from(call, getattr(np.linalg, solver)))
    with pytest.raises(NoConvergence) as failure:
        feasibility_del_ins(sigma, rho, pset, qset)
    frames = [entry.name for entry in failure.traceback]
    assert frames[frames.index("decide") + 1] == step
