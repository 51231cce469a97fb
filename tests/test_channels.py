import math
import weakref
from functools import reduce
from itertools import accumulate, combinations, islice

import numpy as np
import pytest

import qindel.channels
from qindel.channels import (
    IndexSet,
    SphereSet,
    _check_blocks,
    _dedup_levels,
    _draw_groups,
    _insert_stack,
    _permute_axes,
    _screened_distances,
    _traced_levels,
    _weighted_kets,
    delete,
    deletion_sphere,
    first_meeting,
    index_permutation,
    insert_construct,
    insertion_member,
    partial_trace,
    sample_insertions,
    separable_blocks,
    tau_Q,
    trace_out,
    trace_out_adjoint,
)
from qindel.codes import example_rho, x1_codeword
from qindel.distance import CodeSample
from qindel.errors import (
    BlockConstraintViolated,
    CountOutOfRange,
    DuplicateStates,
    InvalidIndexSet,
    LevelMismatch,
    NotAPermutation,
    NotPSD,
    PositionOutOfRange,
    ShapeMismatch,
)
from qindel.feasibility import feasibility_del_ins
from qindel.linalg import Tolerance, cross_distances, frobenius_distance
from qindel.rand import random_density
from qindel.states import (
    DensityMatrix,
    QuditShape,
    basis_ket,
    density_from_ket,
    spectral_decompose,
    validate,
)
from conftest import make_states, random_orthonormal


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
    rho = density_from_ket(bell, shape2)
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
    mats = sorted((tuple(np.round(np.diag(m.mat).real, 9)) for m in sphere.states))
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


def greedy_oracle(candidates, eq_tol):
    """Greedy dedup by a loop over ``np.linalg.norm``, a reduction independent
    of the package's kernel: (members, reps)."""
    members, reps = [], []
    for tag, mat in candidates:
        if all(np.linalg.norm(mat - m) > eq_tol for m in members):
            members.append(mat)
            reps.append(tag)
    return members, reps


def assert_matches_oracle(candidates, eq_tol):
    """The kept mask of ``_dedup_levels`` on the stacked candidates, as one
    level, against the greedy oracle: members and kept tags; the buffer is
    left as it was.  Returns the oracle's (members, reps)."""
    members, reps = greedy_oracle(candidates, eq_tol)
    buf = np.stack([mat for _, mat in candidates])
    _, raw, kept = next(_dedup_levels(iter([buf]), Tolerance(eq_tol=eq_tol)))
    assert raw is buf
    np.testing.assert_array_equal(buf, np.stack([mat for _, mat in candidates]))
    assert [tag for (tag, _), keep in zip(candidates, kept) if keep] == reps
    assert kept.sum() == len(members)
    for got, want in zip(buf[kept], members):
        np.testing.assert_array_equal(got, want)
    return members, reps


def repeated_product(rng, level, n):
    """A product of n copies of one random qudit state: all s-deletions coincide."""
    one = random_density(rng, QuditShape(level, 1)).mat
    return DensityMatrix(QuditShape(level, n), reduce(np.kron, [one] * n))


def test_sphere_set_matches_greedy_oracle(rng):
    # deletion spheres of random states, including the coinciding deletions
    # of states that are products with a repeated factor; the 7-qubit levels
    # are large enough for the diagonal screen to run
    product = repeated_product(rng, 2, 3)
    rhos = make_states(rng, 2, 4, 3) + make_states(rng, 3, 2, 2) + [product]
    rhos += make_states(rng, 2, 7, 1) + [repeated_product(rng, 2, 7)]
    for rho in rhos:
        for s in range(rho.length + 1):
            candidates = [
                (IndexSet(combo, rho.length), delete(rho, combo).mat)
                for combo in combinations(range(1, rho.length + 1), s)
            ]
            sphere = deletion_sphere(rho, s)
            members, reps = assert_matches_oracle(candidates, sphere.eq_tol)
            assert sphere.raw_count == len(candidates)
            assert sphere.reps == reps
            assert len(sphere) == len(members)
            for got, want in zip(sphere.stack, members):
                np.testing.assert_array_equal(got, want)
    assert len(deletion_sphere(product, 1)) == 1

    # candidates at 0.5x and 2x eq_tol from a base state
    shape = QuditShape(2, 3)
    eq_tol = Tolerance().at(shape.dim).eq_tol
    base = random_density(rng, shape).mat
    candidates = [("base", base)]
    for k in range(6):
        step = rng.normal(size=base.shape) + 1j * rng.normal(size=base.shape)
        step = step + step.conj().T
        step -= np.trace(step) / shape.dim * np.eye(shape.dim)
        scale = (0.5, 2.0)[k % 2] * eq_tol / np.linalg.norm(step)
        candidates.append((f"near{k}", base + scale * step))
    members, _ = assert_matches_oracle(candidates, eq_tol)
    assert 1 < len(members) < len(candidates)

    # candidates at d = 64 that share the base's diagonal and differ off it by
    # 0.5x and 2x eq_tol: the screen passes every pair, the full distance decides
    shape = QuditShape(2, 6)
    eq_tol = Tolerance().at(shape.dim).eq_tol
    base = random_density(rng, shape).mat
    candidates = [("base", base)]
    for k in range(6):
        step = rng.normal(size=base.shape) + 1j * rng.normal(size=base.shape)
        step = step + step.conj().T
        step[np.diag_indices(shape.dim)] = 0
        scale = (0.5, 2.0)[k % 2] * eq_tol / np.linalg.norm(step)
        candidates.append((f"off{k}", base + scale * step))
    assert len(candidates) ** 2 * shape.dim**2 > qindel.channels._CHUNK  # screened
    members, reps = assert_matches_oracle(candidates, eq_tol)
    assert reps == ["base", "off1", "off3", "off5"]


@pytest.mark.parametrize("length", [3, 6])
def test_a_candidate_near_only_a_dropped_one_is_kept(rng, length):
    # along one direction, at 0, 0.8, 10, 1.7 and 5 eq_tol: the fourth lies
    # within eq_tol only of the dropped second, so it is kept, and every
    # candidate joins a member, never a dropped candidate; at d = 64 the
    # diagonals agree, so the screen passes every pair
    shape = QuditShape(2, length)
    eq_tol = Tolerance().at(shape.dim).eq_tol
    base = random_density(rng, shape).mat
    step = _hermitian_step(rng, shape.dim, "off")
    candidates = [(f"x{k}", base + t * eq_tol * step) for k, t in enumerate((0, 0.8, 10, 1.7, 5))]
    assert (len(candidates) ** 2 * shape.dim**2 > qindel.channels._CHUNK) == (length == 6)
    assert_matches_oracle(candidates, eq_tol)
    stack, labels = np.stack([mat for _, mat in candidates]), [tag for tag, _ in candidates]
    code = CodeSample(shape, stack, labels)
    assert code.labels == ("x0", "x2", "x3", "x4")
    assert code.stack.tobytes() == stack[[0, 2, 3, 4]].tobytes()
    with pytest.raises(DuplicateStates, match="states 'x0' and 'x1' coincide"):
        CodeSample.from_states([DensityMatrix(shape, mat) for mat in stack], labels)


def _unscreened_witness(a, b, eq_tol):
    dist = cross_distances(a, b)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return (int(i), int(j), float(dist[i, j])) if dist[i, j] <= eq_tol else None


def _hermitian_step(rng, dim, part):
    """A unit-norm Hermitian direction: on the diagonal only, off it only, or both."""
    step = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    step = step + step.conj().T
    if part == "diagonal":
        step = np.diag(np.diag(step).real).astype(complex)
    elif part == "off":
        step[np.diag_indices(dim)] = 0
    return step / np.linalg.norm(step)


def _diagonal_rounds_above_full(rng, x, eq_tol):
    """A state y whose difference from x lies on the diagonal and whose
    diagonal distance to x, as computed, exceeds its full distance."""
    for _ in range(2000):
        y = x + np.diag(rng.normal(size=len(x)) * np.exp(3 * rng.normal(size=len(x))))
        y = x + (y - x) * (eq_tol / np.linalg.norm(y - x))
        full = cross_distances(x[None], y[None])[0, 0]
        diag = cross_distances(np.diag(x)[None, None], np.diag(y)[None, None])[0, 0]
        if diag > full:
            return y, float(full)
    raise AssertionError("no pair whose diagonal distance rounds above its full distance")


def test_screened_witness_matches_unscreened_argmin(rng):
    shape = QuditShape(2, 6)
    eq_tol = Tolerance().at(shape.dim).eq_tol

    def sphere(stack, tol):
        return SphereSet(shape, tol, stack, list(range(len(stack))), len(stack))

    def check(a, b, tol):
        assert len(a) * len(b) * shape.dim**2 > qindel.channels._CHUNK  # screened
        dist, full = _screened_distances(a, b, tol), cross_distances(a, b)
        kept = np.isfinite(dist)
        np.testing.assert_array_equal(dist[kept], full[kept])
        assert (full[~kept] > tol).all()
        want = _unscreened_witness(a, b, tol)
        assert sphere(a, tol).intersection_witness(sphere(b, tol)) == want
        return want

    plants = [
        [(0.5, "diagonal"), (2.0, "off")],
        [(0.99, "diagonal"), (0.999, "both"), (0.3, "off")],
        [(1.01, "diagonal"), (2.0, "both")],
        [(1.01, "off"), (1.001, "both"), (3.0, "diagonal")],
        [(0.0, "both"), (0.0, "both")],  # two exact copies: the first in row-major order wins
    ]
    hits, pairs = 0, []
    for plant in plants:
        a = np.stack([random_density(rng, shape).mat for _ in range(5)])
        b = np.stack([random_density(rng, shape).mat for _ in range(4)])
        for j, (factor, part) in zip(rng.permutation(len(b)), plant):
            i = int(rng.integers(len(a)))
            b[j] = a[i] + factor * eq_tol * _hermitian_step(rng, shape.dim, part)
        hits += check(a, b, eq_tol) is not None
        pairs.append((a, b))
    assert hits == 3

    # a batch axis: each entry gets the bits of its lone call.  An array
    # passed twice with no mask is compared in full, every row meeting
    # itself; with the mask of the pairs i < j, the pairs masked out read
    # inf, though each planted pair meets both ways
    lefts, rights = (np.stack(side) for side in zip(*pairs))
    both = np.concatenate([lefts, rights], axis=1)
    later = np.triu(np.ones((9, 9), dtype=bool), 1)
    batched = _screened_distances(lefts, rights, eq_tol)
    unmasked, masked = _screened_distances(both, both, eq_tol), _screened_distances(both, both, eq_tol, later)
    for k, (a, b) in enumerate(pairs):
        assert batched[k].tobytes() == _screened_distances(a, b, eq_tol).tobytes()
        rows = both[k]
        assert masked[k].tobytes() == _screened_distances(rows, rows, eq_tol, later).tobytes()
        assert unmasked[k].tobytes() == _screened_distances(rows, rows.copy(), eq_tol).tobytes()
    full = cross_distances(both, both)
    near = full <= eq_tol
    finite = np.isfinite(masked)
    assert not (finite & ~later).any()
    np.testing.assert_array_equal(masked[finite], full[finite])
    assert (near & later).any() and not (near & later & ~finite).any()
    finite = np.isfinite(unmasked)
    np.testing.assert_array_equal(unmasked[finite], full[finite])
    assert (near & ~later).any() and not (near & ~finite).any()
    assert (unmasked[:, range(9), range(9)] == 0).all()
    # stacks whose every pair fits in one chunk, compared in full: the mask
    # still sets the pairs it leaves out to inf
    rows = both[0, :3]
    assert len(rows) ** 2 * shape.dim**2 <= qindel.channels._CHUNK
    got = _screened_distances(rows, rows, eq_tol, later[:3, :3])
    assert got.tobytes() == np.where(later[:3, :3], cross_distances(rows, rows), np.inf).tobytes()

    # at the edge of eq_tol: a diagonal-only difference whose computed
    # diagonal distance rounds above the full one still meets, by the margin
    a = np.stack([random_density(rng, shape).mat for _ in range(5)])
    b = np.stack([random_density(rng, shape).mat for _ in range(4)])
    b[1], edge = _diagonal_rounds_above_full(rng, a[2], eq_tol)
    assert check(a, b, edge) == (2, 1, edge)


def _owned(stacks, ids=None):
    """The stacks as ``first_meeting`` takes them: one stack of their rows
    and each row's owner, its stack's entry of ``ids`` (by default its
    index)."""
    ids = np.arange(len(stacks)) if ids is None else ids
    return np.concatenate(stacks), np.repeat(ids, [len(stack) for stack in stacks])


def _meeting_oracle(stacks, eq_tol):
    """``first_meeting`` pair by pair: the first pair of stacks in
    ``combinations`` order whose closest cross pair is within eq_tol, as
    ``(i, j, a, b, dist)``, and that pair as rows ``(r, c, dist)`` of
    ``_owned(stacks)``; or None and None."""
    starts = [0, *accumulate(len(stack) for stack in stacks)]
    for i, j in combinations(range(len(stacks)), 2):
        dist = cross_distances(stacks[i], stacks[j])
        a, b = np.unravel_index(np.argmin(dist), dist.shape)
        if dist[a, b] <= eq_tol:
            a, b, d = int(a), int(b), float(dist[a, b])
            return (i, j, a, b, d), (starts[i] + a, starts[j] + b, d)
    return None, None


@pytest.mark.parametrize("n", [2, 6])
def test_first_meeting_matches_pairwise_oracle(rng, n):
    """Planted cross pairs at 0.5x eq_tol meet and at 2x do not; at n=6 the
    larger calls exceed one chunk, so the screen runs as well as the direct
    comparison."""
    shape = QuditShape(2, n)
    eq_tol = Tolerance().at(shape.dim).eq_tol
    plants = [(), (2.0,), (0.5,), (2.0, 0.5), (0.5, 0.5), (2.0, 2.0, 0.5)]
    found = screened = 0
    for count in range(2, 6):
        for plant in plants:
            stacks = [
                np.stack([random_density(rng, shape).mat for _ in range(int(rng.integers(1, 5)))])
                for _ in range(count)
            ]
            for factor in plant:
                i, j = sorted(rng.choice(count, 2, replace=False))
                a, b = int(rng.integers(len(stacks[i]))), int(rng.integers(len(stacks[j])))
                step = _hermitian_step(rng, shape.dim, "both")
                stacks[j][b] = stacks[i][a] + factor * eq_tol * step
            later = sum(len(stack) for stack in stacks[1:])
            screened += len(stacks[0]) * later * shape.dim**2 > qindel.channels._CHUNK
            want, rows_want = _meeting_oracle(stacks, eq_tol)
            assert first_meeting(*_owned(stacks), eq_tol) == rows_want
            assert (want is not None) == (0.5 in plant)
            if want is not None:
                found += 1
                i, j, a, b, dist = want
                spheres = [SphereSet(shape, eq_tol, stacks[k], [], 0) for k in (i, j)]
                assert spheres[0].intersection_witness(spheres[1]) == (a, b, dist)
    assert found == 4 * 4
    assert (screened > 0) == (n == 6)
    assert first_meeting(stacks[0], np.zeros(len(stacks[0]), dtype=int), eq_tol) is None


def _counting(monkeypatch, module, name):
    """Patch ``module.name`` with a wrapper that records each call's
    arguments; returns the list of records."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("budget", [1, 10, None], ids=["one-stack-blocks", "small-blocks", "one-block"])
def test_first_meeting_in_blocks_matches_pairwise_oracle(rng, monkeypatch, budget):
    """Blocks of whole owners, of one row or several each, one screened call
    each and at most one per owner but the last, give the pairwise oracle's
    answer: the first meeting pair, then the first of its closest cross
    pairs, exact copies at distance 0 included; copies within one owner
    never meet.  Owner ids need only be nondecreasing."""
    if budget is not None:
        monkeypatch.setattr(qindel.channels, "_MEETING_BUDGET", budget)
    calls = _counting(monkeypatch, qindel.channels, "_screened_distances")
    shape = QuditShape(2, 2)
    eq_tol = Tolerance().at(shape.dim).eq_tol
    found, one_row_calls = 0, []
    for trial in range(120):
        count = int(rng.integers(3, 9))
        most = 1 if trial % 2 else 4  # every other code has one row per stack, as a grid's levels do
        stacks = [np.stack([random_density(rng, shape).mat for _ in range(int(rng.integers(1, most + 1)))]) for _ in range(count)]
        for _ in range(int(rng.integers(0, 4))):
            # an exact copy of a row, in its own stack or a later one, at
            # one or two places: ties at distance 0
            i = int(rng.integers(count))
            row = stacks[i][int(rng.integers(len(stacks[i])))]
            for j in rng.choice(np.arange(i, count), int(rng.integers(1, 3))):
                stacks[j][int(rng.integers(len(stacks[j])))] = row
        if rng.random() < 0.3:  # a near pair, within eq_tol but not a copy
            i, j = sorted(rng.choice(count, 2, replace=False))
            b = int(rng.integers(len(stacks[j])))
            stacks[j][b] = stacks[i][0] + 0.5 * eq_tol * _hermitian_step(rng, shape.dim, "both")
        calls.clear()
        _, want = _meeting_oracle(stacks, eq_tol)
        assert first_meeting(*_owned(stacks, np.cumsum(rng.integers(1, 3, count))), eq_tol) == want
        assert len(calls) <= count - 1
        found += want is not None
        if most == 1:
            one_row_calls.append(len(calls))
    assert 20 < found < 120
    assert (max(one_row_calls) > 1) == (budget is not None)


def _shared_diagonal_rows(rng, dim, sizes):
    """Hermitian rows in families of ``sizes`` rows, each family sharing one
    diagonal, as the states of one grid angle do at every phase."""
    rows = []
    for size in sizes:
        diagonal = rng.random(dim)
        for _ in range(size):
            row = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            row = row + row.conj().T
            np.fill_diagonal(row, diagonal)
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("n", [4, 8], ids=["one chunk", "screened"])
def test_a_row_with_an_infinite_entry_reads_nan_against_itself_without_a_warning(rng, n):
    # inf - inf is NaN in both paths: in the one-chunk comparison and in the
    # screened gather of the pairs whose diagonals meet (each row's own)
    mats = np.stack([random_density(rng, QuditShape(2, n)).mat for _ in range(2)])
    mats[:, 0, -1] = np.inf
    dist = _screened_distances(mats, mats, 1e-9)
    assert np.isnan(np.diagonal(dist)).all()


@pytest.mark.parametrize("dim, sizes", [(16, (30, 20, 1)), (128, (1, 2, 3, 5, 4, 9))])
def test_screened_pairs_past_one_chunk_keep_the_bits_of_each_rows_call(rng, dim, sizes):
    """Every pair of a family passes the diagonal screen, far more pairs than
    one chunk holds; each kept entry is ``frobenius_distance`` of its pair,
    bit for bit, and so what its row's lone ``cross_distances`` call gives.
    At d=128 a pair has more entries than one buffer of numpy's iterator
    holds, rows keep 1 to 9 columns, and the cross case leaves one pair for
    the last chunk of the rest.  One array passed twice is compared in full,
    as against its copy; the mask of the pairs i < j leaves the rest out."""
    b = _shared_diagonal_rows(rng, dim, sizes)
    family = np.repeat(np.arange(len(sizes)), sizes)
    later = np.arange(len(b))[:, None] < np.arange(len(b))
    for left, right, pairs in ((b.copy(), b, None), (b, b, None), (b, b, later)):
        dist = _screened_distances(left, right, 1e-9, pairs)
        kept = np.isfinite(dist)
        want = family[:, None] == family[None, :]
        if pairs is not None:
            want &= pairs
        np.testing.assert_array_equal(kept, want)
        assert kept.sum() > 2 * qindel.channels._CHUNK // dim**2
        pairs = np.array([frobenius_distance(left[i], right[j]) for i, j in zip(*np.nonzero(kept))])
        assert dist[kept].tobytes() == pairs.tobytes()


@pytest.mark.parametrize("level, lengths", [(2, range(1, 7)), (3, range(1, 4))])
def test_deletion_levels_match_per_subset_traces(rng, level, lengths):
    """At every level s, every raw row of the ladder equals the direct trace
    bit for bit, and the members and reps of ``deletion_sphere(rho, s)`` are
    the greedy dedup of those rows in ``combinations`` order."""
    for n in lengths:
        shape = QuditShape(level, n)
        product = repeated_product(rng, level, n)
        for rho in (random_density(rng, shape), random_density(rng, shape, 1), product):
            raws = list(_traced_levels(rho.mat, rho.shape))
            spheres = [deletion_sphere(rho, s) for s in range(n + 1)]
            assert len(raws) == n + 1
            for s, (raw, sphere) in enumerate(zip(raws, spheres)):
                combos = list(combinations(range(1, n + 1), s))
                assert raw.shape[0] == sphere.raw_count == len(combos)
                for row, combo in zip(raw, combos):
                    assert np.array_equal(row, trace_out(rho.mat, IndexSet(combo, n), level))
                members, reps = greedy_oracle(zip([IndexSet(c, n) for c in combos], raw), sphere.eq_tol)
                assert sphere.reps == reps
                assert np.array_equal(sphere.stack, np.stack(members))
            if rho is product:  # the repeated factor merges each level to one member
                assert [len(sphere) for sphere in spheres] == [1] * (n + 1)


@pytest.mark.parametrize("level, n", [(2, 3), (2, 4), (3, 2), (3, 3)])
@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
def test_stacked_ladders_give_each_state_its_lone_rows(rng, level, n, batch):
    # one ladder serves a lone state and a batch: each entry's rows are the
    # lone ladder's rows, bit for bit, at every level
    shape = QuditShape(level, n)
    rhos = [random_density(rng, shape, int(rng.integers(1, shape.dim + 1))) for _ in range(math.prod(batch))]
    mats = np.stack([rho.mat for rho in rhos]).reshape(*batch, shape.dim, shape.dim)
    stacked = list(_traced_levels(mats, shape))
    assert len(stacked) == n + 1
    for k, rho in enumerate(rhos):
        for s, (level_rows, lone) in enumerate(zip(stacked, _traced_levels(rho.mat, shape))):
            assert level_rows.shape == (*batch, math.comb(n, s), *lone.shape[-2:])
            rows = level_rows.reshape(-1, *lone.shape)[k]
            assert rows.tobytes() == lone.tobytes()


@pytest.mark.parametrize("level, n", [(2, 4), (2, 6), (3, 3)])
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_a_ladder_started_high_gives_the_chained_rows(rng, level, n, batch):
    # a level built directly, from only the parents its rows need, and every
    # level after it have the bits of the ladder traced from level 0
    shape = QuditShape(level, n)
    rhos = [random_density(rng, shape, int(rng.integers(1, shape.dim + 1))) for _ in range(math.prod(batch))]
    mats = np.stack([rho.mat for rho in rhos]).reshape(*batch, shape.dim, shape.dim)
    chained = list(_traced_levels(mats, shape))
    for start in range(1, n + 1):
        started = list(_traced_levels(mats, shape, start))
        assert len(started) == n + 1 - start
        for raw, want in zip(started, chained[start:]):
            assert raw.shape == want.shape and raw.tobytes() == want.tobytes()


def test_a_ladder_keeps_only_its_current_level(rng):
    # an open ladder (min_distance holds one for the code's stacked states)
    # lets each level go once the next one is built
    rho = random_density(rng, QuditShape(2, 4))
    ladder = _traced_levels(rho.mat, rho.shape)
    next(ladder)
    before = weakref.ref(next(ladder))
    next(ladder)
    assert before() is None


def test_a_ladder_lets_its_stack_go_once_level_1_is_built(rng):
    # min_distance stacks the code's states for its ladder and names no stack,
    # so the copy lives only as long as the walk needs it
    shape = QuditShape(2, 4)
    stack = np.stack([random_density(rng, shape).mat for _ in range(3)])
    source = weakref.ref(stack)
    ladder = _dedup_levels(islice(_traced_levels(stack, shape), 1, None), Tolerance())
    del stack
    next(ladder)
    assert source() is None


@pytest.mark.parametrize("s", [1.5, -3, -1, 4, 7, "1"])
def test_deletion_levels_refuse_a_bad_start(s):
    # s is a deletion count: a float or a string is not a level, and a
    # 3-qubit state has no level below D^0 or above D^3
    with pytest.raises(CountOutOfRange, match="deletion count s"):
        deletion_sphere(random_density(np.random.default_rng(0), QuditShape(2, 3)), s)


def test_intersection_witness_refuses_spheres_of_other_shapes(rng):
    three, two = (random_density(rng, QuditShape(2, n)) for n in (3, 2))
    with pytest.raises(ShapeMismatch, match=r"QuditShape\(level=2, length=2\) vs QuditShape\(level=2, length=1\)"):
        deletion_sphere(three, 1).intersection_witness(deletion_sphere(two, 1))
    qutrit = random_density(rng, QuditShape(3, 2))
    with pytest.raises(LevelMismatch, match="levels differ: 2 vs 3"):
        deletion_sphere(two, 1).intersection_witness(deletion_sphere(qutrit, 1))


@pytest.mark.parametrize("count", [0, 1])
def test_distinct_rows_of_no_row_or_one(count):
    # the dedup of fewer than two candidates keeps each: as a ladder level
    # and as a code's rows and labels
    stack = np.zeros((count, 2, 2), dtype=complex)
    _, _, kept = next(_dedup_levels(iter([stack]), Tolerance(eq_tol=1e-9)))
    assert kept.tolist() == [True] * count
    code = CodeSample(QuditShape(2, 1), stack, [f"row{k}" for k in range(count)])
    assert code.stack is stack and code.labels == tuple(f"row{k}" for k in range(count))


def test_sphere_members_are_read_only_views(rng):
    sphere = deletion_sphere(random_density(rng, QuditShape(2, 4)), 2)
    assert not sphere.stack.flags.writeable
    for k, member in enumerate(sphere.states):
        assert not member.mat.flags.writeable
        assert np.shares_memory(member.mat, sphere.stack)
        np.testing.assert_array_equal(member.mat, sphere.stack[k])
    with pytest.raises(ValueError):
        sphere.stack[0, 0, 0] = 0
    with pytest.raises(ValueError):
        sphere.states[0].mat[0, 0] = 0


def test_cross_distances_chunked_matches_pairwise(rng):
    # d=128 members: no more than four pairs fit in one chunk
    a = deletion_sphere(random_density(rng, QuditShape(2, 8), 3), 1)
    b = deletion_sphere(random_density(rng, QuditShape(2, 8), 5), 1)
    assert a.shape.dim == 128 and len(a) == len(b) == 8
    for left, right in ((a, b), (a, a)):
        dist = cross_distances(left.stack, right.stack)
        for i, x in enumerate(left.states):
            for j, y in enumerate(right.states):
                assert abs(dist[i, j] - np.linalg.norm(x.mat - y.mat)) <= 1e-12
    i, j, gap = a.intersection_witness(a)
    assert i == j == 0 and gap == 0.0
    assert a.intersection_witness(b) is None


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
    with pytest.raises(NotAPermutation):
        index_permutation(rho, (1.9, 2, 3))  # refused, not truncated to the identity
    assert index_permutation(rho, np.array([3, 1, 2])).distance(permuted) == 0


def test_permute_axes_keeps_leading_batch_axes(rng):
    states = [random_density(rng, QuditShape(2, 3)) for _ in range(6)]
    stack = np.array([rho.mat for rho in states]).reshape(2, 3, 8, 8)
    permuted = _permute_axes(stack, (3, 1, 2), 2)
    assert permuted.shape == (2, 3, 8, 8)
    for k, rho in enumerate(states):
        assert np.array_equal(permuted[divmod(k, 3)], index_permutation(rho, (3, 1, 2)).mat)


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
        big = DensityMatrix(QuditShape(2, n + 1), np.kron(rho.mat, pi.mat))
        sigma = index_permutation(big, tau_Q(IndexSet((q,), n + 1), n))
        assert delete(sigma, {q}).distance(rho) <= 1e-12


def _matched_blocks(rho, pis):
    """Separable blocks in spectral_decompose order: pis[0] on the eigenvector
    matching |00>, pis[1] on the other."""
    form = spectral_decompose(rho)
    k00 = basis_ket("00", rho.shape)
    idx00 = max(range(form.rank), key=lambda k: abs(form.kets[:, k] @ k00.conj()))
    order = [idx00] + [k for k in range(form.rank) if k != idx00]
    return separable_blocks([pis[order.index(x)] for x in range(form.rank)])


def test_insert_construct_separable(rng):
    rho = example_rho(0.3, 0.7)
    pis = [random_density(rng, QuditShape(2, 1)).mat for _ in range(2)]
    sigma = insert_construct(rho, IndexSet((2,), 3), _matched_blocks(rho, pis))
    validate(sigma.mat, sigma.shape)
    assert delete(sigma, {2}).distance(rho) <= 1e-12


def random_blocks(rng, rank, block_dim):
    """A valid block array whose assembly is PSD: a random PSD matrix on
    C^rank (x) C^block_dim, congruence-normalized so that its partial trace
    over the block factor is the identity."""
    g = rng.normal(size=(rank * block_dim,) * 2) + 1j * rng.normal(size=(rank * block_dim,) * 2)
    big = (g @ g.conj().T).reshape(rank, block_dim, rank, block_dim)
    w, v = np.linalg.eigh(np.einsum("xaya->xy", big))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return np.einsum("xu,uavb,vy->xyab", inv_sqrt, big, inv_sqrt)


def kron_sum_reference(rho, qset, blocks):
    """sum_{x,y} sqrt(p_x p_y) |x_L><y_L| (x) A_{x,y}, one kron per pair, with
    the inserted qudits then moved to Q."""
    form = spectral_decompose(rho)
    dim = rho.dim * blocks.shape[-1]
    mat = np.zeros((dim, dim), dtype=complex)
    for x, (p_x, ket_x) in enumerate(zip(form.weights, form.kets.T)):
        for y, (p_y, ket_y) in enumerate(zip(form.weights, form.kets.T)):
            mat += np.sqrt(p_x * p_y) * np.kron(np.outer(ket_x, ket_y.conj()), blocks[x, y])
    big = DensityMatrix(QuditShape(rho.level, qset.ambient), mat)
    return index_permutation(big, tau_Q(qset, rho.length)).mat


def test_insert_construct_matches_kron_sum(rng):
    cases = 0
    for n in (1, 2, 3):
        for t in (1, 2):
            for rank in range(1, min(4, 2**n) + 1):
                rho = random_density(rng, QuditShape(2, n), rank)
                assert spectral_decompose(rho).rank == rank
                q = sorted(rng.choice(range(1, n + t + 1), size=t, replace=False))
                qset = IndexSet(tuple(q), n + t)
                blocks = random_blocks(rng, rank, 2**t)
                sigma = insert_construct(rho, qset, blocks)
                want = kron_sum_reference(rho, qset, blocks)
                assert frobenius_distance(sigma.mat, want) <= 1e-12
                cases += 1
    assert cases == 2 * (2 + 4 + 4)


def test_insert_construct_keeps_small_eigenvalues(rng):
    # an eigenvalue of 2e-9 is below psd_tol (8e-9 at d=8) but not negligible
    # against eq_tol (2.8e-9): dropping it would fail the round trip
    shape = QuditShape(2, 3)
    psi, phi = random_orthonormal(rng, shape.dim, 2)
    small = 2e-9
    rho = DensityMatrix(
        shape, (1 - small) * np.outer(psi, psi.conj()) + small * np.outer(phi, phi.conj())
    )
    assert spectral_decompose(rho).rank == 2
    pis = [random_density(rng, QuditShape(2, 1)).mat for _ in range(2)]
    sigma = insert_construct(rho, IndexSet((2,), 4), separable_blocks(pis))
    assert delete(sigma, {2}).distance(rho) <= Tolerance().at(shape.dim).eq_tol / 100


def test_insert_construct_pure_state_form(rng):
    # inserting into a pure state always gives tau_Q(|phi><phi| (x) pi)
    shape = QuditShape(2, 2)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho = density_from_ket(v / np.linalg.norm(v), shape)
    pi = random_density(rng, QuditShape(2, 1))
    sigma = insert_construct(rho, IndexSet((1,), 3), separable_blocks([pi.mat]))
    expected = index_permutation(
        DensityMatrix(QuditShape(2, 3), np.kron(rho.mat, pi.mat)), tau_Q(IndexSet((1,), 3), 2)
    )
    assert sigma.distance(expected) <= 1e-12


def test_insert_construct_block_validation(rng):
    rho = example_rho(0.5, 0.5)
    qset = IndexSet((3,), 3)
    good_pi = np.eye(2, dtype=complex) / 2

    def blocks(pairs):
        """A rank-2 block array: good_pi on the diagonal, then ``pairs``."""
        arr = np.zeros((2, 2, 2, 2), dtype=complex)
        arr[0, 0] = arr[1, 1] = good_pi
        for (x, y), a in pairs.items():
            arr[x, y] = a
        return arr

    # one diagonal block for two eigenvectors
    with pytest.raises(BlockConstraintViolated, match="shape"):
        insert_construct(rho, qset, separable_blocks([good_pi]))
    with pytest.raises(BlockConstraintViolated, match="shape"):
        insert_construct(rho, qset, np.zeros((2, 2, 4, 4)))
    # a valid array for two inserted qubits, where Q inserts one
    with pytest.raises(BlockConstraintViolated, match=r"shape.*expected \(2, 2, 2, 2\)"):
        insert_construct(rho, qset, separable_blocks([np.eye(4) / 4] * 2))
    with pytest.raises(BlockConstraintViolated, match="not a valid state"):
        insert_construct(rho, qset, blocks({(1, 1): np.eye(2, dtype=complex)}))
    with pytest.raises(BlockConstraintViolated, match="not a valid state"):
        insert_construct(rho, qset, blocks({(1, 1): np.diag([1.5, -0.5]).astype(complex)}))
    eye = np.eye(2, dtype=complex)
    with pytest.raises(BlockConstraintViolated, match="trace"):
        insert_construct(rho, qset, blocks({(0, 1): eye, (1, 0): eye}))
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(BlockConstraintViolated, match="adjoint"):
        insert_construct(rho, qset, blocks({(0, 1): a, (1, 0): a}))
    with pytest.raises(BlockConstraintViolated, match="adjoint"):
        insert_construct(rho, qset, blocks({(0, 1): a}))  # (1, 0) left zero
    with pytest.raises(BlockConstraintViolated, match="adjoint"):
        insert_construct(rho, qset, blocks({(1, 1): good_pi + 0.1 * a}))
    with pytest.raises(BlockConstraintViolated, match="non-finite"):
        insert_construct(rho, qset, blocks({(0, 1): np.full((2, 2), np.nan)}))
    # a finite entry whose square leaves the float range: the adjoint
    # residual reads inf, without a RuntimeWarning
    with pytest.raises(BlockConstraintViolated, match=r"adjoints \(residual inf\)"):
        insert_construct(rho, (3,), blocks({(0, 1): np.array([[1e200, 0], [0, 0]])}))


def test_insert_construct_rejects_non_psd():
    # singular diagonal blocks with coupling outside their support
    rho = example_rho(0.5, 0.5)
    pi = np.diag([1.0, 0.0]).astype(complex)
    a = 0.3 * np.array([[0, 1], [0, 0]], dtype=complex)
    arr = np.array([[pi, a.conj().T], [a, pi]])
    with pytest.raises(NotPSD):
        insert_construct(rho, IndexSet((3,), 3), arr)


def _tampered(stack, k, case):
    """``stack`` with one kind of fault written into sample k."""
    stack = stack.copy()
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    if case == "non-finite":
        stack[k, 0, 1] = np.nan
    elif case == "adjoint":
        stack[k, 0, 1] = a  # (1, 0) left zero
    elif case == "trace":
        stack[k, 0, 1] = stack[k, 1, 0] = np.eye(2)
    elif case == "not a valid state":
        stack[k, 1, 1] = np.diag([1.5, -0.5])
    else:  # singular diagonal blocks with coupling outside their support
        stack[k, 0, 0] = stack[k, 1, 1] = np.diag([1.0, 0.0])
        stack[k, 0, 1], stack[k, 1, 0] = 0.3 * a.conj().T, 0.3 * a
    return stack


@pytest.mark.parametrize("case", ["non-finite", "adjoint", "trace", "not a valid state", "not PSD"])
def test_block_stack_errors_name_the_sample(case):
    # a stack of valid block arrays with one tampered slot k > 0 is refused,
    # and the error names sample k; a one-sample stack keeps the plain
    # message.  The blocks are refused by _check_blocks, which checks a stack
    # before it is built; a non-PSD state by the build, _insert_stack
    rho = example_rho(0.5, 0.5)
    qset = IndexSet((3,), 3)
    form = spectral_decompose(rho)
    v = _weighted_kets(form.weights, form.kets)
    good = np.array([separable_blocks([np.eye(2) / 2] * form.rank)] * 3)
    error = NotPSD if case == "not PSD" else BlockConstraintViolated

    def build(stack):
        _check_blocks(stack, form.rank, QuditShape(2, 1), Tolerance())
        rows = np.arange(len(stack))
        sources, vs = np.array([rho.mat] * len(stack)), np.array([v] * len(stack))
        return _insert_stack(rho.shape, [qset], sources, [len(stack)], [(rows, vs, stack)], Tolerance())

    for k in (1, 2):
        with pytest.raises(error, match=rf"^sample {k}: .*{case}"):
            build(_tampered(good, k, case))
    with pytest.raises(error, match=rf"^(?!sample).*{case}"):
        build(_tampered(good, 0, case)[:1])


def _build(shape, qsets, rows):
    """One ``_insert_stack`` call on ``rows``, each ``(j, rho, blocks)``:
    blocks inserted into rho at ``qsets[j]``, the rows already in
    ascending j."""
    ends = np.cumsum([sum(row[0] == j for row in rows) for j in range(len(qsets))]).tolist()
    forms = [spectral_decompose(rho) for _, rho, _ in rows]
    ranks = np.array([form.rank for form in forms])
    parts = []
    for rank in sorted(set(ranks.tolist())):
        at = np.flatnonzero(ranks == rank)
        v = np.array([_weighted_kets(forms[i].weights, forms[i].kets) for i in at])
        parts.append((at, v, np.array([rows[i][2] for i in at])))
    sources = np.array([rho.mat for _, rho, _ in rows])
    return _insert_stack(shape, qsets, sources, ends, parts, Tolerance())


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("n", range(4))
def test_one_build_over_every_position_gives_each_row_its_positions_build(rng, n, t):
    # rows at every Q of size t, from sources of the least and the largest
    # rank, with a separable and an entangled block array each where the
    # family is possible: one call over all positions gives each row the
    # bits of the call over its position's rows alone
    shape = QuditShape(2, n)
    qsets = [IndexSet(Q, n + t) for Q in combinations(range(1, n + t + 1), t)]
    rhos = [random_density(rng, shape, rank) for rank in sorted({1, shape.dim})]
    draws = _draw_groups(rng, [2] * len(rhos), [(spectral_decompose(rho).rank, 2, t) for rho in rhos])
    arrays = [stack for _, stack in draws.values()]
    rows = [(j, rho, blocks) for j in range(len(qsets)) for rho, stack in zip(rhos, arrays) for blocks in stack]
    together = _build(shape, qsets, rows)
    assert together.shape == (len(rows), 2 ** (n + t), 2 ** (n + t)) and not together.flags.writeable
    alone = [_build(shape, [qset], [(0, *row[1:]) for row in rows if row[0] == j]) for j, qset in enumerate(qsets)]
    assert [mat.tobytes() for mat in together] == [mat.tobytes() for stack in alone for mat in stack]


def test_insertion_member():
    rho = example_rho(0.5, 0.5)
    pis = [np.eye(2, dtype=complex) / 2] * 2
    sigma = insert_construct(rho, IndexSet((3,), 3), separable_blocks(pis))
    assert insertion_member(sigma, rho, IndexSet((3,), 3))

    shape2 = QuditShape(2, 2)
    k00 = basis_ket("00", shape2)
    rho00 = DensityMatrix(shape2, np.outer(k00, k00))
    one = DensityMatrix(QuditShape(2, 1), np.diag([0.0, 1.0]).astype(complex))
    assert not insertion_member(rho00, one, IndexSet((2,), 2))

    psi = (basis_ket("01", shape2) + basis_ket("10", shape2)) / np.sqrt(2)
    psi_rho = density_from_ket(psi, shape2)
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


@pytest.mark.parametrize(
    "count, seed",
    [(2.0, 1), ("2", 1), (0, 1), (-1, 1), (1, -1), (1, 1.0), (1, "1"), (np.float64(2), 1)],
)
def test_sample_insertions_refuses_bad_counts_and_seeds(count, seed):
    # one argument check: a non-integer or out-of-range count or seed is a
    # named error, never a builtin TypeError or numpy's ValueError
    with pytest.raises(CountOutOfRange):
        sample_insertions(example_rho(0.5, 0.5), (2,), count, seed)


def test_sample_insertions_takes_numpy_integers():
    rho = example_rho(0.5, 0.5)
    plain = sample_insertions(rho, (2,), 3, 5)
    numpy = sample_insertions(rho, (2,), np.int64(3), np.uint64(5))
    assert [a.mat.tobytes() for a in plain] == [b.mat.tobytes() for b in numpy]


def test_sample_insertions_decomposes_once(monkeypatch):
    import qindel.channels as channels

    calls = []

    real = channels._spectral_groups

    def counting(mats, shape, tol):
        calls.extend(mat.tobytes() for mat in mats)
        return real(mats, shape, tol)

    monkeypatch.setattr(channels, "_spectral_groups", counting)
    rho = example_rho(0.5, 0.5)
    for count in (1, 2, 5):
        calls.clear()
        sample_insertions(rho, IndexSet((2,), 3), count, seed=3)
        assert calls == [rho.mat.tobytes()]


def _coercion_case(name):
    """(call, Q or P as an IndexSet) for an entry point taking index sets."""
    rho = example_rho(0.5, 0.5)
    q2 = IndexSet((2,), 3)
    sigma = sample_insertions(rho, q2, 1, seed=0)[0]
    blocks = separable_blocks([np.eye(2) / 2] * spectral_decompose(rho).rank)

    def feasibility(P, Q):
        report = feasibility_del_ins(rho, rho, P, Q)
        return report.status.value, report.gap

    return {
        "IndexSet": (lambda q: IndexSet(tuple(q), 3).positions, q2),
        "delete": (lambda p: delete(sigma, p).mat, q2),
        "tau_Q": (lambda q: tau_Q(q, 2), q2),
        "insert_construct": (lambda q: insert_construct(rho, q, blocks).mat, q2),
        "insertion_member": (lambda q: insertion_member(sigma, rho, q), q2),
        "sample_insertions": (lambda q: sample_insertions(rho, q, 2, seed=0)[1].mat, q2),
        "feasibility_del_ins-P": (lambda p: feasibility(p, q2), q2),
        "feasibility_del_ins-Q": (lambda q: feasibility(q2, q), q2),
    }[name]


@pytest.mark.parametrize(
    "name",
    [
        "IndexSet",
        "delete",
        "tau_Q",
        "insert_construct",
        "insertion_member",
        "sample_insertions",
        "feasibility_del_ins-P",
        "feasibility_del_ins-Q",
    ],
)
def test_index_set_coercion(name):
    # an index set over the wrong range is refused by name, and a one-shot
    # iterable of positions is read once and means the same as the index set
    call, positions = _coercion_case(name)
    if name != "IndexSet":
        with pytest.raises(InvalidIndexSet):
            call(IndexSet(positions.positions, positions.ambient + 1))
    np.testing.assert_array_equal(call(iter(positions.positions)), call(positions))
    # numpy integers are positions too; a float or a string is refused, not truncated
    np.testing.assert_array_equal(call(np.array(positions.positions)), call(positions))
    for bad in ([p + 0.7 for p in positions], [str(p) for p in positions]):
        with pytest.raises(InvalidIndexSet, match="integers"):
            call(bad)


def test_repeated_or_decreasing_positions_are_refused():
    rho = example_rho(0.5, 0.5)
    for call in (lambda: delete(rho, [1, 1]), lambda: IndexSet((2, 1), 3), lambda: IndexSet((1, 1), 2)):
        with pytest.raises(InvalidIndexSet, match="strictly increasing"):
            call()


def test_raw_traces_refuse_a_wrong_shape():
    pset = IndexSet((2,), 3)
    for mat in (np.eye(4), np.zeros((2, 8, 4))):
        with pytest.raises(ShapeMismatch, match=r"2\*\*3"):
            trace_out(mat, pset, 2)
    for mat in (np.eye(8), np.zeros((2, 4, 4))):
        with pytest.raises(ShapeMismatch, match=r"2\*\*2"):
            trace_out_adjoint(mat, pset, 2)


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
        for x, (p_x, ket_x) in enumerate(zip(form.weights, form.kets.T)):
            for y, (p_y, ket_y) in enumerate(zip(form.weights, form.kets.T)):
                block = np.einsum("a,abcd,c->bd", ket_x.conj(), tensor, ket_y)
                expected = p_x if x == y else 0.0
                assert abs(np.trace(block) - expected) <= 1e-10
