from itertools import combinations

import numpy as np
import pytest

from qindel.channels import IndexSet, delete, trace_out
from qindel.codes import example_psi, example_rho
from qindel.errors import CountOutOfRange, ShapeMismatch, SizeCapExceeded
from qindel.feasibility import (
    AffineConstraint,
    FeasibilityStatus,
    check_containment_trial,
    feasibility_del_ins,
    member_del_ins,
    member_ins_del,
)
from qindel.linalg import Tolerance
from qindel.rand import random_density, random_hermitian
from qindel.states import DensityMatrix, QuditShape, basis_ket, density_from_ket
from conftest import make_states


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
                    affine = AffineConstraint(rho, qset, sigma, pset)
                    rhs = np.vstack([_columns(rho.mat), _columns(sigma.mat)])
                    point = pinv @ rhs
                    residual = float(np.linalg.norm(matrix @ point - rhs))
                    assert abs(affine.consistency_residual() - residual) <= 1e-12
                    if residual <= 1e-12:
                        point = np.ascontiguousarray(point).view(complex).reshape(shape.dim, -1)
                        assert np.abs(affine.adjoint(affine.least_squares_dual()) - point).max() <= 1e-12
                    inconsistent += residual > 1e-3
                x = random_hermitian(rng, shape.dim) + 1j * random_hermitian(rng, shape.dim)
                y = tuple(random_hermitian(rng, len(m)) for m in affine.rhs)
                left = sum(_inner(a, b) for a, b in zip(affine.apply(x), y))
                assert abs(left - _inner(x, affine.adjoint(y))) <= 1e-12 * max(1.0, abs(left))
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


@pytest.mark.parametrize("s, t", [(-1, 0), (0, -1)])
def test_member_del_ins_refuses_negative_counts(rng, s, t):
    # sigma has the length n + t - s the counts ask for, so only the count is wrong
    rho = example_rho(0.5, 0.5)
    sigma = random_density(rng, QuditShape(2, rho.length + t - s))
    with pytest.raises(CountOutOfRange):
        member_del_ins(sigma, rho, s, t)


def test_low_rank_marginals_are_feasible(rng):
    # marginals of low-rank states, which stalled Dykstra: the face shrinks
    # with the rank, and the dual on it converges to a witness
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
        affine = AffineConstraint(rho_, qset, sigma, pset)
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
        affine = AffineConstraint(rho_, qset, sigma, pset)
        y_q, y_p = affine.least_squares_dual()
        candidates = [affine.inconsistency_certificate(), (-y_q, -y_p), (y_q, y_p),
                      (np.eye(8) - 2 * rho_.mat, np.eye(8) - 2 * sigma.mat)]
        for lam in candidates:
            assert affine.certify(lam)[1] <= feas_tol
