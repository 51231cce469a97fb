import numpy as np
import pytest

from qindel.channels import IndexSet, delete
from qindel.codes import example_psi, example_rho
from qindel.errors import ShapeMismatch, SizeCapExceeded
from qindel.feasibility import (
    AffineConstraint,
    FeasibilityOptions,
    FeasibilityStatus,
    check_containment_trial,
    feasibility_del_ins,
    member_del_ins,
    member_ins_del,
)
from qindel.rand import random_density, random_hermitian
from qindel.states import DensityMatrix, QuditShape, basis_ket, density_from_ket, pure_ket
from conftest import make_states


def test_affine_projection_properties(rng):
    rho = example_rho(0.5, 0.5)
    # marginals of a random 4-qubit state at P={1}, Q={4}: the stacked map is
    # rank deficient, and a loose pseudo-inverse cutoff made it look inconsistent
    tau = random_density(rng, QuditShape(2, 4))
    p1, q4 = IndexSet((1,), 4), IndexSet((4,), 4)
    cases = [
        (QuditShape(2, 3), [(IndexSet((2,), 3), rho), (IndexSet((1, 2), 3), delete(rho, {1}))]),
        (QuditShape(2, 4), [(q4, delete(tau, q4)), (p1, delete(tau, p1))]),
    ]
    for big, conditions in cases:
        affine = AffineConstraint(big, conditions)
        assert affine.rhs_residual <= 1e-12
        for _ in range(5):
            x = random_hermitian(rng, big.dim)
            y = affine.project(x)
            assert affine.residual(y) <= 1e-10
            np.testing.assert_allclose(affine.project(y), y, atol=1e-10)
            # projected iterates stay Hermitian with unit trace
            assert np.linalg.norm(y - y.conj().T) <= 1e-12
            assert abs(np.trace(y) - 1.0) <= 1e-10
    report = feasibility_del_ins(delete(tau, p1), delete(tau, q4), p1, q4)
    assert report.status is not FeasibilityStatus.INFEASIBLE


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
    assert delete(w, {2}).distance(rho) <= FeasibilityOptions().feas_tol


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
    assert delete(w, {1}).distance(rho) <= FeasibilityOptions().feas_tol
    assert delete(w, {3}).distance(sigma) <= FeasibilityOptions().feas_tol


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
    rho00 = density_from_ket(pure_ket(basis_ket("00", shape2), shape2))
    psi01 = density_from_ket(pure_ket(basis_ket("01", shape2), shape2))
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
