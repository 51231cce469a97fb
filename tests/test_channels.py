from itertools import combinations

import numpy as np
import pytest

from qindel.channels import (
    IndexSet,
    InsertionBlocks,
    delete,
    deletion_sphere,
    index_permutation,
    insert_construct,
    insertion_member,
    partial_trace,
    sample_insertions,
    tau_Q,
    trace_out,
)
from qindel.codes import example_rho, x1_codeword
from qindel.errors import (
    BlockConstraintViolated,
    CountOutOfRange,
    InvalidIndexSet,
    NotAPermutation,
    NotPSD,
    PositionOutOfRange,
)
from qindel.linalg import kron
from qindel.rand import random_density
from qindel.states import (
    DensityMatrix,
    QuditShape,
    basis_ket,
    density_from_ket,
    pure_ket,
    spectral_decompose,
    validate,
)
from conftest import make_states


def partial_trace_oracle(mat, p, level, n):
    """Entrywise sum over digit strings; independent of the reshape path."""
    small = level ** (n - 1)
    out = np.zeros((small, small), dtype=complex)
    for row in range(level**n):
        for col in range(level**n):
            xs = np.base_repr(row, level).zfill(n)
            ys = np.base_repr(col, level).zfill(n)
            if xs[p - 1] != ys[p - 1]:
                continue
            xr = xs[: p - 1] + xs[p:]
            yr = ys[: p - 1] + ys[p:]
            out[int(xr, level), int(yr, level)] += mat[row, col]
    return out


def delete_oracle(mat, positions, level, n):
    for p in sorted(positions, reverse=True):
        mat = partial_trace_oracle(mat, p, level, n)
        n -= 1
    return mat


def test_partial_trace_matches_oracle(rng):
    for level, n in ((2, 3), (3, 2), (2, 4)):
        rho = random_density(rng, QuditShape(level, n))
        for p in range(1, n + 1):
            expected = partial_trace_oracle(rho.mat, p, level, n)
            np.testing.assert_allclose(partial_trace(rho, p).mat, expected, atol=1e-13)
        for s in range(2, n):
            for combo in combinations(range(1, n + 1), s):
                expected = delete_oracle(rho.mat, combo, level, n)
                np.testing.assert_allclose(delete(rho, combo).mat, expected, atol=1e-13)

    # a (k, d, d) batch is traced matrix by matrix, on non-Hermitian input too
    batch = rng.normal(size=(3, 16, 16)) + 1j * rng.normal(size=(3, 16, 16))
    traced = trace_out(batch, IndexSet((1, 3), 4), 2)
    assert traced.shape == (3, 4, 4)
    for mat, got in zip(batch, traced):
        np.testing.assert_allclose(got, delete_oracle(mat, (1, 3), 2, 4), atol=1e-12)


def test_partial_trace_examples():
    shape2 = QuditShape(2, 2)
    k00 = basis_ket("00", shape2)
    rho = DensityMatrix(shape2, np.outer(k00, k00))
    np.testing.assert_allclose(partial_trace(rho, 2).mat, np.diag([1.0, 0.0]))

    mix = example_rho(0.3, 0.7)
    np.testing.assert_allclose(partial_trace(mix, 1).mat, np.diag([0.3, 0.7]))

    bell = (basis_ket("00", shape2) + basis_ket("11", shape2)) / np.sqrt(2)
    rho = density_from_ket(pure_ket(bell, shape2))
    np.testing.assert_allclose(partial_trace(rho, 1).mat, np.eye(2) / 2)

    with pytest.raises(PositionOutOfRange):
        partial_trace(mix, 3)


def test_delete_full_deletion(rng):
    rho = random_density(rng, QuditShape(2, 4))
    scalar = delete(rho, {1, 2, 3, 4})
    assert scalar.length == 0
    np.testing.assert_allclose(scalar.mat, [[1.0]], atol=1e-12)


def test_delete_order_identity(rng):
    # removing position q then p (p < q) equals removing p then q-1
    for _ in range(10):
        rho = random_density(rng, QuditShape(2, 4))
        p, q = sorted(rng.choice(range(1, 5), size=2, replace=False))
        left = delete(delete(rho, {q}), {p})
        right = delete(delete(rho, {p}), {q - 1})
        assert left.distance(right) <= 1e-12


def test_delete_preserves_validity(rng):
    for _ in range(500):
        n = int(rng.integers(1, 5))
        rho = random_density(rng, QuditShape(2, n), int(rng.integers(1, 2**n + 1)))
        s = int(rng.integers(1, n + 1))
        positions = sorted(rng.choice(range(1, n + 1), size=s, replace=False))
        reduced = delete(rho, positions)
        assert abs(np.trace(reduced.mat) - 1.0) <= 1e-12
        validate(reduced.mat, reduced.shape)


def test_deletion_sphere():
    mix = example_rho(0.4, 0.6)
    s0 = deletion_sphere(mix, 0)
    assert len(s0) == 1 and s0.states[0].distance(mix) == 0

    shape2 = QuditShape(2, 2)
    k01 = basis_ket("01", shape2)
    rho01 = DensityMatrix(shape2, np.outer(k01, k01))
    sphere = deletion_sphere(rho01, 1)
    assert len(sphere) == 2
    mats = sorted((tuple(np.round(np.diag(m.mat).real, 9)) for m in sphere))
    assert mats == [(0.0, 1.0), (1.0, 0.0)]

    word = x1_codeword(0.6, 0.8)
    assert len(deletion_sphere(word, 1)) == 1  # both single deletions coincide

    with pytest.raises(CountOutOfRange):
        deletion_sphere(mix, 3)


def test_sphere_size_bounded_by_binomial(rng):
    from math import comb

    rho = random_density(rng, QuditShape(2, 4))
    for s in range(5):
        assert len(deletion_sphere(rho, s)) <= comb(4, s)


def test_index_permutation_basics(rng):
    shape2 = QuditShape(2, 2)
    k01 = basis_ket("01", shape2)
    rho01 = DensityMatrix(shape2, np.outer(k01, k01))
    same = index_permutation(rho01, (1, 2))
    assert same.distance(rho01) == 0
    swapped = index_permutation(rho01, (2, 1))
    k10 = basis_ket("10", shape2)
    np.testing.assert_allclose(swapped.mat, np.outer(k10, k10))

    rho = random_density(rng, QuditShape(2, 3))
    permuted = index_permutation(rho, (3, 1, 2))
    assert abs(np.trace(permuted.mat) - 1) <= 1e-12
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(permuted.mat)), np.sort(np.linalg.eigvalsh(rho.mat)), atol=1e-12
    )

    with pytest.raises(NotAPermutation):
        index_permutation(rho, (1, 1, 2))


def test_tau_Q():
    assert tau_Q(IndexSet((3,), 3), 2) == (1, 2, 3)  # appended slot stays
    assert tau_Q(IndexSet((1,), 3), 2) == (2, 3, 1)
    assert tau_Q(IndexSet((2,), 3), 2) == (1, 3, 2)
    assert tau_Q(IndexSet((1, 4), 4), 2) == (2, 3, 1, 4)
    with pytest.raises(InvalidIndexSet):
        tau_Q(IndexSet((1,), 5), 2)


def test_tau_Q_roundtrip(rng):
    # moving the appended qudit to q and deleting it there recovers the state
    for _ in range(10):
        n = int(rng.integers(1, 4))
        rho = random_density(rng, QuditShape(2, n))
        pi = random_density(rng, QuditShape(2, 1))
        q = int(rng.integers(1, n + 2))
        big = DensityMatrix(QuditShape(2, n + 1), kron(rho.mat, pi.mat))
        sigma = index_permutation(big, tau_Q(IndexSet((q,), n + 1), n))
        assert delete(sigma, {q}).distance(rho) <= 1e-12


def _matched_blocks(rho, pis, a=None):
    """Blocks keyed to spectral_decompose order, matching |00>, |11| kets."""
    form = spectral_decompose(rho)
    shape = rho.shape
    k00, k11 = basis_ket("00", shape), basis_ket("11", shape)
    idx00 = max(range(form.rank), key=lambda k: abs(form.pairs[k][1] @ k00.conj()))
    idx11 = [k for k in range(form.rank) if k != idx00][0] if form.rank > 1 else None
    diag = {idx00: pis[0]}
    off = {}
    if idx11 is not None:
        diag[idx11] = pis[1]
        if a is not None:
            off[(idx11, idx00)] = a
    return diag, off


def test_insert_construct_separable(rng):
    rho = example_rho(0.3, 0.7)
    pis = [random_density(rng, QuditShape(2, 1)).mat for _ in range(2)]
    diag, _ = _matched_blocks(rho, pis)
    sigma = insert_construct(rho, IndexSet((2,), 3), InsertionBlocks(1, diag))
    validate(sigma.mat, sigma.shape)
    assert delete(sigma, {2}).distance(rho) <= 1e-12


def test_insert_construct_pure_state_form(rng):
    # inserting into a pure state always gives tau_Q(|phi><phi| (x) pi)
    shape = QuditShape(2, 2)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = density_from_ket(pure_ket(v / np.linalg.norm(v), shape))
    pi = random_density(rng, QuditShape(2, 1))
    sigma = insert_construct(rho, IndexSet((1,), 3), InsertionBlocks.separable(1, [pi.mat]))
    expected = index_permutation(
        DensityMatrix(QuditShape(2, 3), kron(rho.mat, pi.mat)), tau_Q(IndexSet((1,), 3), 2)
    )
    assert sigma.distance(expected) <= 1e-12


def test_insert_construct_block_validation(rng):
    rho = example_rho(0.5, 0.5)
    good_pi = np.eye(2, dtype=complex) / 2
    with pytest.raises(BlockConstraintViolated, match="missing"):
        insert_construct(rho, IndexSet((3,), 3), InsertionBlocks(1, {0: good_pi}))
    with pytest.raises(BlockConstraintViolated, match="not a valid state"):
        insert_construct(
            rho, IndexSet((3,), 3), InsertionBlocks(1, {0: good_pi, 1: np.eye(2, dtype=complex)})
        )
    with pytest.raises(BlockConstraintViolated, match="trace"):
        insert_construct(
            rho,
            IndexSet((3,), 3),
            InsertionBlocks(1, {0: good_pi, 1: good_pi}, {(0, 1): np.eye(2, dtype=complex)}),
        )
    with pytest.raises(BlockConstraintViolated, match="adjoint"):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        insert_construct(
            rho,
            IndexSet((3,), 3),
            InsertionBlocks(1, {0: good_pi, 1: good_pi}, {(0, 1): a, (1, 0): a}),
        )


def test_insert_construct_rejects_non_psd():
    # singular diagonal blocks with coupling outside their support
    rho = example_rho(0.5, 0.5)
    pi = np.diag([1.0, 0.0]).astype(complex)
    a = 0.3 * np.array([[0, 1], [0, 0]], dtype=complex)
    blocks = InsertionBlocks(1, {0: pi, 1: pi}, {(1, 0): a})
    with pytest.raises(NotPSD):
        insert_construct(rho, IndexSet((3,), 3), blocks)


def test_insertion_member():
    rho = example_rho(0.5, 0.5)
    pis = [np.eye(2, dtype=complex) / 2] * 2
    sigma = insert_construct(rho, IndexSet((3,), 3), InsertionBlocks.separable(1, pis))
    assert insertion_member(sigma, rho, IndexSet((3,), 3))

    shape2 = QuditShape(2, 2)
    k00 = basis_ket("00", shape2)
    rho00 = DensityMatrix(shape2, np.outer(k00, k00))
    one = DensityMatrix(QuditShape(2, 1), np.diag([0.0, 1.0]).astype(complex))
    assert not insertion_member(rho00, one, IndexSet((2,), 2))

    psi = (basis_ket("01", shape2) + basis_ket("10", shape2)) / np.sqrt(2)
    psi_rho = density_from_ket(pure_ket(psi, shape2))
    half = DensityMatrix(QuditShape(2, 1), np.eye(2, dtype=complex) / 2)
    assert insertion_member(psi_rho, half, IndexSet((1,), 2))


def test_delete_then_reinsert_membership(rng):
    # X is always inside the insert-after-delete sphere at the same positions
    for rho in make_states(rng, 2, 3, 10):
        for p in range(1, 4):
            pset = IndexSet((p,), 3)
            assert insertion_member(rho, delete(rho, pset), pset)


def test_sample_insertions_contract(rng):
    rho = example_rho(0.5, 0.5)
    qset = IndexSet((2,), 3)
    with pytest.raises(CountOutOfRange):
        sample_insertions(rho, qset, 0, seed=1)
    assert len(sample_insertions(rho, qset, 1, seed=1)) == 1

    samples = sample_insertions(rho, qset, 6, seed=42)
    again = sample_insertions(rho, qset, 6, seed=42)
    for a, b in zip(samples, again):
        assert a.distance(b) == 0  # deterministic for a fixed seed
    for sigma in samples:
        validate(sigma.mat, sigma.shape)
        assert insertion_member(sigma, rho, qset)

    # full-rank source: purification family is silently skipped
    full = random_density(rng, QuditShape(2, 2), 4)
    for sigma in sample_insertions(full, IndexSet((1,), 3), 4, seed=7):
        assert insertion_member(sigma, full, IndexSet((1,), 3))


def test_inserted_blocks_trace_contract(rng):
    # recovered blocks trace to the eigenvalue on the diagonal, zero off it
    rho = example_rho(0.3, 0.7)
    qset = IndexSet((1,), 3)
    form = spectral_decompose(rho)
    perm = tau_Q(qset, 2)
    inverse = tuple(np.argsort(perm) + 1)
    for sigma in sample_insertions(rho, qset, 4, seed=5):
        unpermuted = index_permutation(sigma, inverse)
        tensor = unpermuted.mat.reshape(4, 2, 4, 2)
        for x, (p_x, ket_x) in enumerate(form.pairs):
            for y, (p_y, ket_y) in enumerate(form.pairs):
                block = np.einsum("a,abcd,c->bd", ket_x.conj(), tensor, ket_y)
                expected = p_x if x == y else 0.0
                assert abs(np.trace(block) - expected) <= 1e-10
