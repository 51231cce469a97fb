"""Property tests: input checks (tolerance values, state-file shapes and
malformed payloads in both forms, non-finite and non-square matrices), the
agreement of the nested and compact state-file forms, the metric axioms
of the indel distance, the sphere-row screen's kept pairs and their
bits, ``metric_check``'s lockstep walk against each
pair's indel distance, the code minimum distance's stacked walk against
each state's own spheres, a code's dedup of coinciding states, the insertion
round trip and sampler prefixes, a batch of sampler requests against each
request's lone samples, the split of one normal draw that the sampler's
draw pass relies on, the containment of interleaved errors, and the
evidence of feasibility verdicts: witnesses and Farkas certificates.
The metric, insertion, containment and feasibility tests draw qubit and
qutrit states; qutrit cases keep the lifted dimension at most 16, apart
from the samplers', which reach 3^4 and, in a batch, 3^5.

Examples are derived from the test source, not drawn at random, and no
example database is kept, so runs are deterministic and write nothing to
the working tree.
"""

import base64
import contextlib
import math
import tempfile
import warnings
from functools import reduce
from itertools import combinations
from pathlib import Path
from unittest.mock import patch

import numpy as np
import orjson
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

import qindel.channels  # noqa: E402
from qindel.channels import IndexSet, _sample_batch, _screened_distances, delete, insertion_member  # noqa: E402
from qindel.channels import sample_insertions, trace_out_adjoint  # noqa: E402
from qindel.codes import example_psi, example_rho  # noqa: E402
from qindel.distance import CodeSample, _pair_distances, corrects, corrects_insertions, indel_distance  # noqa: E402
from qindel.distance import min_distance  # noqa: E402
from qindel.errors import DuplicateStates, InvalidTolerance, NonSquare, ParseError  # noqa: E402
from qindel.errors import ShapeMismatch, ValidationError  # noqa: E402
from qindel.feasibility import (  # noqa: E402
    FeasibilityStatus,
    check_containment_trial,
    feasibility_del_ins,
)
from qindel.linalg import (  # noqa: E402
    Tolerance,
    frobenius_distance,
    frobenius_norm,
    hermitian_eigensystem,
    hermitian_part,
    is_psd,
    project_psd,
    psd_principal_minors,
)
from qindel.rand import random_density, random_hermitian  # noqa: E402
from qindel.states import (  # noqa: E402
    DensityMatrix,
    QuditShape,
    load_state,
    spectral_decompose,
    state_from_json_obj,
    state_to_json_obj,
    validate,
)
from conftest import affine_constraint, assert_indel_matches_lone_walk, assert_matches_lone_walk  # noqa: E402
from conftest import assert_validates_as_reference, planted_state, random_orthonormal  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

# Once pytest has collected the tests, hypothesis caches the constants of the
# local source files under its home directory, ./.hypothesis unless set; this
# module is imported during collection, so the cache goes to the temp directory.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "qindel-hypothesis")

GOOD = st.floats(min_value=0.0, allow_infinity=False)
NEGATIVE = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@DETERMINISTIC
@given(st.sampled_from(["eq_tol", "psd_tol"]), st.one_of(NEGATIVE, NON_FINITE))
def test_negative_or_non_finite_eq_and_psd_tolerances_are_refused(name, value):
    with pytest.raises(InvalidTolerance, match=name):
        Tolerance(**{name: value})


NOT_REAL = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, "1e-9", 1e-9 + 0j, np.array([1e-9, 1e-9]), np.array(1e-9)]),
)


@DETERMINISTIC
@given(st.sampled_from(["eq_tol", "psd_tol", "feas_tol"]), NOT_REAL)
def test_a_tolerance_that_is_not_a_real_number_is_refused(name, value):
    # a bool is not a tolerance, though it compares as 0 or 1, and a string,
    # a complex value or an array is refused by name, not as a TypeError
    with pytest.raises(InvalidTolerance, match=f"^{name} must be a real number"):
        Tolerance(**{name: value})


@DETERMINISTIC
@given(st.sampled_from(["eq_tol", "psd_tol", "feas_tol"]), st.floats(1e-12, 1.0))
def test_a_set_tolerance_is_stored_as_a_float(name, value):
    for given_value in (value, np.float32(value), np.float64(value), 1 if value > 0.5 else value):
        stored = getattr(Tolerance(**{name: given_value}), name)
        assert type(stored) is float and stored == float(given_value)
    assert Tolerance(eq_tol=np.float64(value)).to_json_obj()["eq_tol"] == value


@DETERMINISTIC
@given(st.one_of(NEGATIVE, st.just(0.0), NON_FINITE, st.none()))
def test_feas_tol_must_be_positive_and_finite(value):
    with pytest.raises(InvalidTolerance, match="feas_tol"):
        Tolerance(feas_tol=value)


@DETERMINISTIC
@given(st.one_of(st.none(), GOOD), st.one_of(st.none(), GOOD), st.integers(1, 256))
def test_resolving_fills_only_unset_fields(eq_tol, psd_tol, dim):
    resolved = Tolerance(eq_tol, psd_tol).at(dim)
    assert resolved.eq_tol == (eq_tol if eq_tol is not None else 1e-9 * math.sqrt(dim))
    assert resolved.psd_tol == (psd_tol if psd_tol is not None else 1e-9 * dim)
    assert resolved.at(1) == resolved


_NOT_INTEGERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text("0123456789.-e x", max_size=3),
    st.none(),
    st.lists(st.integers(2, 3), max_size=2),
)


@DETERMINISTIC
@given(st.sampled_from(["level", "length"]), _NOT_INTEGERS)
def test_level_and_length_that_are_not_integers_are_refused(field, value):
    obj = {"level": 2, "length": 1, "kind": "pure", "ket": [[1.0, 0.0], [0.0, 0.0]]}
    obj[field] = value
    with pytest.raises(ParseError):
        state_from_json_obj(orjson.loads(orjson.dumps(obj)))


@DETERMINISTIC
@given(st.integers(2, 4), st.integers(0, 3))
def test_integer_level_and_length_load(level, length):
    dim = level**length
    ket = [[1.0, 0.0]] + [[0.0, 0.0]] * (dim - 1)
    obj = {"level": level, "length": length, "kind": "pure", "ket": ket}
    rho = state_from_json_obj(orjson.loads(orjson.dumps(obj)))
    assert (rho.level, rho.length) == (level, length)


# every entry point that checks a matrix it did not build, on orders 1-4
# (the principal-minor oracle's range); validate reads a matrix of order 3 as
# one qutrit and the rest as qubits
_SHAPES = {1: QuditShape(2, 0), 2: QuditShape(2, 1), 3: QuditShape(3, 1), 4: QuditShape(2, 2)}
CHECKED = {
    "hermitian_eigensystem": hermitian_eigensystem,
    "is_psd": is_psd,
    "project_psd": project_psd,
    "psd_principal_minors": psd_principal_minors,
    "validate": lambda m: validate(m, _SHAPES[len(m)]),
}
NON_FINITE_ENTRIES = st.sampled_from(
    [math.nan, math.inf, -math.inf, complex(0.25, math.inf), complex(math.nan, -math.inf)]
)


@DETERMINISTIC
@given(st.sampled_from(sorted(CHECKED)), st.sampled_from(sorted(_SHAPES)), NON_FINITE_ENTRIES, st.data())
def test_checked_entry_points_refuse_a_non_finite_entry(name, dim, entry, data):
    # the state would pass every check but for the one entry
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    mat = random_density(np.random.default_rng(seed), _SHAPES[dim]).mat.copy()
    i, j = data.draw(st.integers(0, dim - 1), label="row"), data.draw(st.integers(0, dim - 1), label="col")
    mat[i, j] = entry
    with pytest.raises(ValidationError, match="non-finite"):
        CHECKED[name](mat)


@DETERMINISTIC
@given(st.sampled_from(sorted(CHECKED)), st.integers(1, 4), st.integers(1, 4))
def test_checked_entry_points_refuse_a_non_square_matrix(name, rows, cols):
    assume(rows != cols)
    # validate compares the shape with the qudit shape first
    with pytest.raises(ShapeMismatch if name == "validate" else NonSquare):
        CHECKED[name](np.eye(rows, cols, dtype=complex))


def _norm_bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(DETERMINISTIC, max_examples=60)
@given(st.lists(st.integers(1, 3), max_size=3), st.integers(1, 100), st.integers(1, 100), st.integers(0, 2**32 - 1))
@example([3], 256, 256, 0)
def test_each_matrix_keeps_the_frobenius_bits_of_its_lone_call(batch, rows, cols, seed):
    # frobenius_norm(x)[idx] == frobenius_norm(x[idx]), bit for bit, whatever
    # the stack around a matrix, its layout or its address
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(*batch, rows, cols)) + 1j * rng.normal(size=(*batch, rows, cols))
    x *= 10.0 ** rng.uniform(-8, 8, size=(*batch, 1, 1))
    flat = x.reshape(-1, rows, cols)
    lone = [frobenius_norm(mat) for mat in flat]
    norms = frobenius_norm(x)
    assert _norm_bits(norms) == _norm_bits(np.reshape(lone, batch))
    picks = rng.integers(len(flat), size=5)  # gathered, repeats included
    assert _norm_bits(frobenius_norm(flat[picks])) == _norm_bits([lone[k] for k in picks])
    shifted = np.empty(x.nbytes + 1, dtype=np.uint8)[1:].view(complex).reshape(x.shape)
    shifted[...] = x
    assert not shifted.flags.aligned
    assert _norm_bits(frobenius_norm(shifted)) == _norm_bits(norms)
    apart = np.empty((*batch, 2, rows, cols), dtype=complex)[..., 0, :, :]  # a strided stack
    apart[...] = x
    assert _norm_bits(frobenius_norm(apart)) == _norm_bits(norms)
    if batch:  # the batch axes reordered: the same matrices in another order
        assert _norm_bits(frobenius_norm(np.moveaxis(x, 0, -3))) == _norm_bits(np.moveaxis(norms, 0, -1))
    flipped = x.swapaxes(-1, -2).reshape(-1, cols, rows)  # non-contiguous matrices
    assert _norm_bits(frobenius_norm(flipped)) == _norm_bits([frobenius_norm(mat) for mat in flipped])

    # one matrix past the float range reads inf, with no warning, and the
    # others keep their lone bits
    k = int(rng.integers(len(flat)))
    big = flat.copy()
    big[k] *= 1e280
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = frobenius_norm(big)
    assert norms[k] == math.inf
    assert _norm_bits(np.delete(norms, k)) == _norm_bits(np.delete(lone, k))


def _unit_hermitian_step(rng, dim: int, part: str) -> np.ndarray:
    """A unit-norm Hermitian direction on the diagonal only, off it only (on
    the diagonal for a 1x1 matrix, which has nothing off it), or both."""
    step = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    step = step + step.conj().T
    if part == "diagonal" or dim == 1:
        step = np.diag(np.diag(step).real).astype(complex)
    elif part == "off":
        step[np.diag_indices(dim)] = 0
    return step / np.linalg.norm(step)


# how far a planted pair lies apart: an exact copy, a pair at eq_tol*(1 -+
# 1e-9), a near copy 1e-12 to 1e-8 apart, and a pair 1 apart
_PLANT_AT = {
    "copy": lambda rng, eq_tol: 0.0,
    "edge below": lambda rng, eq_tol: eq_tol * (1 - 1e-9),
    "edge above": lambda rng, eq_tol: eq_tol * (1 + 1e-9),
    "near": lambda rng, eq_tol: 10.0 ** rng.uniform(-12, -8),
    "far": lambda rng, eq_tol: 1.0,
}


def _unit_unseen_step(rng, dim: int) -> np.ndarray:
    """A unit-norm direction the sweep cannot see: orthogonal, in the rows'
    real coordinates, to the axis their projections are taken on, so a
    pair that differs along it projects to one point."""
    v = qindel.channels._axis(2 * dim * dim)
    w = rng.normal(size=v.shape)
    w -= (w @ v) * v
    w /= np.sqrt(w @ w)
    return w.view(complex).reshape(dim, dim)


@settings(DETERMINISTIC, max_examples=300)
@given(
    st.sampled_from([(), (1,), (3,), (2, 2)]),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from([1, 2, 4, 8, 16]),
    st.sampled_from(["cross", "cross, masked", "self", "self, i < j"]),
    st.booleans(),
    st.lists(
        st.tuples(st.sampled_from(sorted(_PLANT_AT)), st.sampled_from(["diagonal", "off", "both", "unseen"])),
        max_size=4,
    ),
    st.sampled_from(["default", "zero", "large", "huge"]),
    st.sampled_from([None, "infinite", "past the float range"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example((), 0, 3, 4, "cross", False, [], "default", None, True, 0)
@example((2, 2), 1, 0, 16, "self", True, [], "large", None, True, 0)
@example((3,), 1, 1, 16, "cross", True, [("copy", "off")], "zero", None, True, 0)
@example((3,), 5, 5, 4, "self", False, [("edge below", "unseen"), ("far", "unseen")], "default", None, True, 0)
@example((2,), 4, 3, 2, "cross", False, [("copy", "both")], "huge", "past the float range", True, 0)
@example((), 4, 4, 2, "self", False, [("copy", "both")], "default", "infinite", False, 0)
def test_the_screen_keeps_every_pair_within_eq_tol_with_its_bits(
    batch, ka, kb, dim, compare, equal_diagonals, plants, tol_kind, odd_row, forced, seed
):
    # the sweep rules out no pair within eq_tol, and every kept pair has the
    # bits of frobenius_distance: planted copies, pairs at the edge of
    # eq_tol, near copies and far pairs, differing on the diagonal, off it,
    # both, or only where the sweep's axis cannot see (equal projections),
    # among random rows or rows with one diagonal, as a phase grid's are,
    # at eq_tol 0, the default, 0.5 and 1e3 (every pair a candidate); a row
    # with an infinite entry meets none, and a row past the float range
    # (its norm overflows) still meets its copy.  A forced case expands
    # each row's window and gathers each pair in a chunk of its own.  The
    # pairs come sorted, once each, only where the caller's keep holds
    rng = np.random.default_rng(seed)
    eq_tol = {"default": Tolerance().at(dim).eq_tol, "zero": 0.0, "large": 0.5, "huge": 1e3}[tol_kind]
    diagonal = rng.random(dim)

    def rows(count):
        x = rng.normal(size=(*batch, count, dim, dim)) + 1j * rng.normal(size=(*batch, count, dim, dim))
        x = (x + x.conj().swapaxes(-1, -2)) / (2 * dim)
        if equal_diagonals:
            x[..., range(dim), range(dim)] = diagonal
        return x

    a = rows(ka)
    b = a if compare.startswith("self") else rows(kb)
    kb = b.shape[-3]
    if odd_row and ka:
        a[..., int(rng.integers(ka)), :, :] *= 1e300 if odd_row == "past the float range" else 1.0
        if odd_row == "infinite":
            a[..., int(rng.integers(ka)), 0, -1] = np.inf
    for plant, part in plants:
        if ka and kb:
            i, j = int(rng.integers(ka)), int(rng.integers(kb))
            if b is not a or i != j:
                step = _unit_unseen_step(rng, dim) if part == "unseen" else _unit_hermitian_step(rng, dim, part)
                b[..., j, :, :] = a[..., i, :, :] + _PLANT_AT[plant](rng, eq_tol) * step
    pairs = {
        "cross": True,
        "cross, masked": rng.random((*batch, ka, kb)) < 0.6,
        "self": True,
        "self, i < j": np.arange(ka)[:, None] < np.arange(kb),
    }[compare]
    with np.errstate(invalid="ignore"):  # inf - inf in the oracle
        want = frobenius_distance(*np.broadcast_arrays(a[..., :, None, :, :], b[..., None, :, :, :]))
    asked = np.broadcast_to(pairs, want.shape).reshape(math.prod(batch), ka, kb)
    want = want.reshape(asked.shape)
    small = patch.object(qindel.channels, "_CHUNK", 1) if forced else contextlib.nullcontext()
    with small, warnings.catch_warnings():
        warnings.simplefilter("error")
        (i, j), dist = _screened_distances(a, b, eq_tol, lambda i, j: asked[i // ka, i % ka, j % kb])
    e, r, c = i // max(ka, 1), i % max(ka, 1), j % max(kb, 1)
    assert (e == j // max(kb, 1)).all() and (np.diff(i * len(asked) * kb + j) > 0).all() and asked[e, r, c].all()
    assert dist.tobytes() == want[e, r, c].tobytes()
    kept = np.zeros(asked.shape, dtype=bool)
    kept[e, r, c] = True
    assert not (asked & (want <= eq_tol) & ~kept).any()
    if odd_row == "infinite":
        assert not np.isnan(dist).any() and np.isfinite(a.reshape(-1, dim * dim)[i]).all()


# validate against the eigen-solve rule alone (conftest.reference_validate):
# least eigenvalues around -psd_tol and its half, the certificate's shift,
# in full-rank and rank-deficient states, and trace and Hermitian faults
# around eq_tol, at the default psd_tol, at 0 and at an explicit large one
_VALIDATED = [QuditShape(2, 0), QuditShape(2, 1), QuditShape(3, 1), QuditShape(2, 2), QuditShape(3, 2),
              QuditShape(2, 4), QuditShape(3, 3), QuditShape(2, 6), QuditShape(2, 8)]


@DETERMINISTIC
@given(
    st.sampled_from(_VALIDATED),
    st.floats(-3.0, 1.0),
    st.sampled_from([None, 0.0, 0.25]),
    st.sampled_from(["none", "rank", "trace", "hermitian"]),
    st.floats(0.5, 2.0),
    st.integers(0, 2**32 - 1),
)
def test_validate_decides_as_the_eigen_solve_rule(shape, factor, psd_tol, fault, size, seed):
    rng, dim, tol = np.random.default_rng(seed), shape.dim, Tolerance(psd_tol=psd_tol)
    at = tol.at(dim)
    rank = int(rng.integers(2, dim)) if fault == "rank" and dim > 2 else None
    mat = planted_state(rng, shape, factor * (at.psd_tol or Tolerance().at(dim).psd_tol), rank)
    if fault == "trace":
        mat += size * at.eq_tol * np.eye(dim) / dim
    elif fault == "hermitian":
        skew = rng.normal(size=(dim, dim)) * 1j
        skew = skew + skew.T  # anti-Hermitian
        mat += size * at.eq_tol * skew / np.linalg.norm(skew) / 2
    assert_validates_as_reference(mat, shape, tol)


def _planted_hermitian(rng, d, lowest):
    """An exactly Hermitian d x d matrix of trace about 1 in a random basis
    with least eigenvalue ``lowest`` (at d = 1 its one eigenvalue)."""
    if d == 0:
        return np.zeros((0, 0), dtype=complex)
    w = np.concatenate(([lowest], rng.uniform(0.5, 1.5, d - 1) / d))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return hermitian_part((q * w) @ q.conj().T)


# is_psd (the gate, the Cholesky certificate, eigvalsh of what it does not
# clear) against the eigvalsh verdict alone, on lone matrices and (2, 3)
# stacks that mix PSD, indefinite and near-boundary matrices, the last with
# least eigenvalue within psd_tol of -psd_tol, at the default psd_tol, at 0
# and at an explicit one
@DETERMINISTIC
@given(
    st.integers(0, 6),
    st.sampled_from([(), (2, 3)]),
    st.sampled_from([None, 0.0, 0.25]),
    st.integers(0, 2**32 - 1),
    st.data(),
)
def test_is_psd_gives_the_eigvalsh_verdict(d, batch, psd_tol, seed, data):
    rng, tol = np.random.default_rng(seed), Tolerance(psd_tol=psd_tol)
    floor = tol.at(d).psd_tol
    count = math.prod(batch)
    kinds = data.draw(st.lists(st.sampled_from(["psd", "indefinite", "boundary"]), min_size=count, max_size=count))
    offsets = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count))
    lowest = {
        "psd": lambda u: abs(u) / 10,
        "indefinite": lambda u: -0.05 - abs(u) / 10,
        "boundary": lambda u: (u - 1) * floor,  # within psd_tol of -psd_tol
    }
    h = np.array([_planted_hermitian(rng, d, lowest[kind](u)) for kind, u in zip(kinds, offsets)])
    h = h.reshape(*batch, d, d)
    want = np.linalg.eigvalsh(h)[..., 0] >= -floor if d else np.ones(batch, dtype=bool)
    got = is_psd(h, tol)
    assert isinstance(got, bool) if not batch else got.shape == batch
    assert np.array_equal(got, want)


_NUMBERS = st.floats(-1.0, 1.0)
_JUNK = st.one_of(
    st.text(max_size=2), st.none(), st.dictionaries(st.text(max_size=1), _NUMBERS, max_size=1)
)


def _draw_nest(draw, shape: tuple[int, ...]) -> list:
    """Nested lists of [re, im] number pairs of ``shape``."""
    if not shape:
        return [draw(_NUMBERS), draw(_NUMBERS)]
    return [_draw_nest(draw, shape[1:]) for _ in range(shape[0])]


@st.composite
def malformed_nests(draw, shape: tuple[int, ...]):
    """A nest of ``shape`` with one defect: a list one entry short or long
    (ragged, or the wrong length), an entry or the whole nest one level too
    deep, or an entry or the whole nest that is not a number or a list."""
    nest = _draw_nest(draw, shape)
    how = draw(st.sampled_from(["drop", "extra", "deeper", "junk", "deeper nest", "junk nest"]))
    if how == "deeper nest":
        return [nest]
    if how == "junk nest":
        return draw(_JUNK)
    parent = nest  # the list to corrupt: the nest itself down to a [re, im] pair
    for _ in range(draw(st.integers(0, len(shape)))):
        parent = parent[draw(st.integers(0, len(parent) - 1))]
    k = draw(st.integers(0, len(parent) - 1))
    if how == "drop":
        del parent[k]
    elif how == "extra":
        parent.append(parent[k])
    elif how == "deeper":
        parent[k] = [parent[k]]
    else:
        parent[k] = draw(_JUNK)
    return nest


def _encode(values) -> str:
    """The compact payload of a complex array: base64 of its row-major
    little-endian complex128 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode("ascii")


def _nest(values) -> list:
    """The nested payload of a complex array: [re, im] pairs."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], -1).tolist()


def _draw_encoded(draw, shape: tuple[int, ...]) -> str:
    """A compact payload of ``shape`` with [re, im] parts drawn as in a nest."""
    return _encode(np.array(_draw_nest(draw, shape)).view(complex)[..., 0])


def _draw_valid(draw, shape: tuple[int, ...]) -> np.ndarray:
    """A unit ket of ``shape`` ``(dim,)`` or a density matrix of ``shape``
    ``(dim, dim)``, dim a power of 2: a payload that only its defect spoils."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if len(shape) == 1:
        return random_orthonormal(rng, shape[0], 1)[0]
    return random_density(rng, QuditShape(2, shape[0].bit_length() - 1)).mat


# float64 bit patterns with an all-ones exponent: the infinities (zero
# mantissa) and every NaN, quiet or signalling, of either sign
NON_FINITE_BITS = st.builds(
    lambda sign, mantissa: (sign << 63) | (0x7FF << 52) | mantissa,
    st.integers(0, 1),
    st.one_of(st.just(0), st.integers(0, 2**52 - 1)),
)


@st.composite
def malformed_encodings(draw, shape: tuple[int, ...]):
    """A compact payload of ``shape`` that would read as a valid ket or
    density matrix but for one defect: not a string (its valid nest
    included), not strict base64 (a character outside the alphabet inserted,
    or one character dropped), a byte count other than the 16 per entry that
    ``shape`` needs, or one NaN or infinite part."""
    values = _draw_valid(draw, shape)
    how = draw(st.sampled_from(["type", "character", "drop", "count", "non-finite"]))
    if how == "type":
        return draw(st.one_of(_JUNK.filter(lambda x: not isinstance(x, str)), st.just(_nest(values))))
    if how == "count":
        expected = 16 * math.prod(shape)
        size = draw(st.integers(0, expected + 32).filter(lambda n: n != expected))
        return base64.b64encode(draw(st.binary(min_size=size, max_size=size))).decode("ascii")
    if how == "non-finite":
        parts = np.asarray(values, dtype="<c16").view("<u8").reshape(-1).copy()
        parts[draw(st.integers(0, len(parts) - 1))] = draw(NON_FINITE_BITS)
        return base64.b64encode(parts.tobytes()).decode("ascii")
    text = _encode(values)
    k = draw(st.integers(0, len(text) - 1))
    if how == "drop":
        return text[:k] + text[k + 1:]
    return text[:k] + draw(st.sampled_from("!-_.* \n=\u00e9")) + text[k:]


@st.composite
def malformed_payloads(draw):
    """A state object for one or two qubits whose ``ket``, ``matrix`` or
    ``pairs`` payload is malformed, in the nested or the compact form, or
    a valid compact state object under an unknown ``encoding``."""
    length = draw(st.integers(1, 2))
    dim = 2**length
    form = draw(st.sampled_from(["nested", "compact", "unknown encoding"]))
    if form == "unknown encoding":
        encoding = draw(st.one_of(_JUNK, st.sampled_from(["BASE64", "base64 ", "hex", "base85"])))
        return {**state_to_json_obj(DensityMatrix(QuditShape(2, length), np.eye(dim) / dim)), "encoding": encoding}
    kind = draw(st.sampled_from(["pure", "mixed", "spectral"]))
    obj = {"level": 2, "length": length, "kind": kind}
    good, bad = _draw_nest, malformed_nests
    if form == "compact":
        obj["encoding"] = "base64"
        good, bad = _draw_encoded, malformed_encodings
    if kind == "pure":
        obj["ket"] = draw(bad((dim,)))
    elif kind == "mixed":
        obj["matrix"] = draw(bad((dim, dim)))
    else:
        pairs = [{"p": draw(_NUMBERS), "ket": good(draw, (dim,))} for _ in range(draw(st.integers(1, 2)))]
        k = draw(st.integers(0, len(pairs) - 1))
        how = draw(st.sampled_from(["ket", "p", "missing", "pair", "pairs"]))
        if how == "ket":
            pairs[k]["ket"] = draw(bad((dim,)))
        elif how == "p":
            pairs[k]["p"] = draw(st.one_of(_JUNK, st.booleans(), st.just([0.5])))
        elif how == "missing":
            del pairs[k][draw(st.sampled_from(["p", "ket"]))]
        elif how == "pair":
            pairs[k] = draw(st.one_of(_JUNK.filter(lambda x: not isinstance(x, dict)), st.just([])))
        obj["pairs"] = draw(_JUNK) if how == "pairs" else pairs
    return obj


@settings(DETERMINISTIC, max_examples=400)
@given(malformed_payloads())
def test_malformed_payloads_are_parse_errors(obj):
    with pytest.raises(ParseError):
        state_from_json_obj(orjson.loads(orjson.dumps(obj)))


_FILE_SHAPES = [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]


def _bits(mat: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a complex array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(mat, dtype=complex).view(np.int64)


@pytest.mark.parametrize("kind", ["mixed", "pure", "spectral"])
@pytest.mark.parametrize("level, length", _FILE_SHAPES)
@settings(DETERMINISTIC, max_examples=3)
@given(st.integers(0, 2**32 - 1))
def test_nested_and_compact_files_read_to_the_same_bits(level, length, kind, seed):
    # the nested file is what the writer wrote before the compact form; a
    # mixed state's compact file is what it writes now
    shape, rng = QuditShape(level, length), np.random.default_rng(seed)
    head = {"level": level, "length": length, "kind": kind}
    if kind == "pure":
        (ket,) = random_orthonormal(rng, shape.dim, 1)
        nested, compact = {**head, "ket": _nest(ket)}, {**head, "encoding": "base64", "ket": _encode(ket)}
    else:
        rho = random_density(rng, shape, int(rng.integers(1, shape.dim + 1)))
    if kind == "mixed":
        nested, compact = {**head, "matrix": _nest(rho.mat)}, state_to_json_obj(rho)
    elif kind == "spectral":
        form = spectral_decompose(rho)
        pairs = list(zip(form.weights.tolist(), form.kets.T))
        nested = {**head, "pairs": [{"p": p, "ket": _nest(ket)} for p, ket in pairs]}
        compact = {**head, "encoding": "base64", "pairs": [{"p": p, "ket": _encode(ket)} for p, ket in pairs]}
    from_nested = load_state("nested.json", data=orjson.dumps(nested))
    from_compact = load_state("compact.json", data=orjson.dumps(compact))
    assert np.array_equal(_bits(from_nested.mat), _bits(from_compact.mat))
    if kind == "mixed":
        assert np.array_equal(_bits(from_compact.mat), _bits(rho.mat))


# Products of qudits drawn from a small pool share marginals, so their
# distances range over every value; seeded random states are generically as
# far apart as their lengths allow.
_POOLS = {
    level: [random_density(np.random.default_rng(k), QuditShape(level, 1)).mat for k in range(3)]
    for level in (2, 3)
}
LEVELS = st.sampled_from([2, 3])
# the tests that draw qutrits as well as qubits run twice the examples, so
# they try as many qubit states as before
BOTH_LEVELS = settings(DETERMINISTIC, max_examples=2 * settings.default.max_examples)


@st.composite
def qudit_states(draw, level=2, lengths=st.integers(1, 3)):
    n = draw(lengths)
    shape = QuditShape(level, n)
    if draw(st.booleans()):
        pool = _POOLS[level]
        factors = draw(st.lists(st.sampled_from(range(len(pool))), min_size=n, max_size=n))
        return DensityMatrix(shape, reduce(np.kron, [pool[k] for k in factors]))
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.integers(1, shape.dim))
    return random_density(np.random.default_rng(seed), shape, rank)


def qubit_states(lengths=st.integers(1, 3)):
    return qudit_states(2, lengths)


@st.composite
def same_level_states(draw, count):
    """``count`` states of one level: qubits on 1-3 qudits, or qutrits on 1-2."""
    level = draw(LEVELS)
    lengths = st.integers(1, 3 if level == 2 else 2)
    return [draw(qudit_states(level, lengths)) for _ in range(count)]


@BOTH_LEVELS
@given(same_level_states(1))
def test_distance_of_a_state_to_itself_is_zero(states):
    (a,) = states
    result = indel_distance(a, a)
    assert (result.value, result.s, result.t) == (0, 0, 0)


@BOTH_LEVELS
@given(same_level_states(2))
def test_distance_is_symmetric_and_even_between_equal_lengths(states):
    a, b = states
    d_ab, d_ba = indel_distance(a, b).value, indel_distance(b, a).value
    assert d_ab == d_ba
    assert abs(a.length - b.length) <= d_ab <= a.length + b.length
    if a.length == b.length:
        assert d_ab % 2 == 0


@BOTH_LEVELS
@given(same_level_states(3))
def test_triangle_inequality(states):
    a, b, c = states
    assert indel_distance(a, c).value <= indel_distance(a, b).value + indel_distance(b, c).value


def _nudged(state, tol):
    """A copy of ``state`` moved eq_tol/2 at its dimension, along a unit
    traceless diagonal: distinct from it, yet equal to it at eq_tol."""
    step = np.zeros(state.dim)
    step[:2] = (1, -1)
    return DensityMatrix(state.shape, state.mat + np.diag(step) * (tol.at(state.dim).eq_tol / 2 / math.sqrt(2)))


@settings(DETERMINISTIC, max_examples=60)
@given(LEVELS.flatmap(lambda level: st.lists(qudit_states(level), min_size=1, max_size=3)), st.booleans())
def test_the_lockstep_walk_gives_each_pairs_indel_distance(states, exact):
    # mixed lengths, a repeated state and one eq_tol/2 from another; at
    # eq_tol 0 the nudge is none, and the traces must still meet at n + m
    tol = Tolerance(eq_tol=0.0) if exact else Tolerance()
    states = [*states, states[0], _nudged(states[-1], tol)]
    pairs = [(x, y) for x in states for y in states]
    distances = _pair_distances(pairs, tol)
    assert distances == [indel_distance(x, y, tol).value for x, y in pairs]
    assert all(d <= x.length + y.length for d, (x, y) in zip(distances, pairs))


@DETERMINISTIC
@given(st.integers(1, 3).flatmap(lambda n: st.lists(qubit_states(st.just(n)), min_size=2, max_size=4)))
def test_min_distance_is_the_least_pairwise_distance(states):
    try:
        code = CodeSample.from_states(states)
    except DuplicateStates:
        assume(False)
    pairs = {
        (code.labels[i], code.labels[j]): indel_distance(states[i], states[j]).value
        for i, j in combinations(range(len(states)), 2)
    }
    value, pair, _ = min_distance(code)
    least = min(pairs.values())
    assert value == least
    assert pair == next(p for p, d in pairs.items() if d == least)


@st.composite
def codes(draw):
    """A code of 2-6 offered states: qubits on 1-4 qudits or qutrits on 1-3,
    half of them products of a 3-state pool, so deletions coincide and
    the dedup of a level drops rows; coinciding offers are merged."""
    level = draw(LEVELS)
    n = draw(st.integers(1, 4 if level == 2 else 3))
    states = draw(st.lists(qudit_states(level, st.just(n)), min_size=2, max_size=6))
    return CodeSample(states[0].shape, np.stack([rho.mat for rho in states]), [f"state{k}" for k in range(len(states))])


@BOTH_LEVELS
@given(codes())
def test_the_stacked_walk_matches_each_states_own_spheres(code):
    assume(len(code) >= 2)
    assert_matches_lone_walk(code)


def _probe_failing_tolerance(states, skipped):
    """A fixed eq_tol at which the top-level probe of a walk over ``states``
    that would skip ``skipped`` steps finds a cross pair: the probe's bound
    is at least 2^(skipped/2) eq_tol, here just above the closest pair of
    one-qubit marginals of two different states."""
    marginals = [
        [delete(rho, [q for q in range(1, rho.length + 1) if q != p]).mat for p in range(1, rho.length + 1)]
        for rho in states
    ]
    closest = min(
        np.linalg.norm(x - y) for a, b in combinations(marginals, 2) for x in a for y in b
    )
    return Tolerance(eq_tol=1.01 * closest / 2 ** (skipped / 2))


WALK_TOLERANCES = st.sampled_from(["default", "exact", "probe-failing"])


def _walk_tolerance(name, states, skipped):
    """The tolerance named ``name``: unset, eq_tol 0 (the probe's bound is
    its rounding margin alone) or one that fails every probe."""
    if name == "probe-failing":
        return _probe_failing_tolerance(states, skipped)
    return Tolerance() if name == "default" else Tolerance(eq_tol=0.0)


@settings(DETERMINISTIC, max_examples=60)
@given(st.lists(qubit_states(st.integers(4, 6)), min_size=2, max_size=2), WALK_TOLERANCES)
def test_indel_distance_matches_each_states_own_spheres(states, tol_name):
    # generic states pass the top-level probe; products of a small pool
    # share marginals and meet mid-ladder, where the probe fails
    rho, sigma = states
    tol = _walk_tolerance(tol_name, states, min(rho.length, sigma.length) - 1)
    assert_indel_matches_lone_walk(rho, sigma, tol)


@settings(DETERMINISTIC, max_examples=60)
@given(st.integers(4, 6).flatmap(lambda n: st.lists(qubit_states(st.just(n)), min_size=2, max_size=4)), WALK_TOLERANCES)
def test_min_distance_matches_each_states_own_spheres_at_every_tolerance(states, tol_name):
    tol = _walk_tolerance(tol_name, states, states[0].length - 2)
    code = CodeSample(states[0].shape, np.stack([rho.mat for rho in states]), [f"state{k}" for k in range(len(states))], tol)
    assume(len(code) >= 2)
    assert_matches_lone_walk(code)


@DETERMINISTIC
@given(
    st.integers(1, 2).flatmap(lambda n: st.lists(qubit_states(st.just(n)), min_size=1, max_size=3)),
    st.data(),
)
def test_a_code_keeps_the_first_of_each_coinciding_group(candidates, data):
    """Repeats, as the same object or as a copy within eq_tol, join the first
    state of their group: ``CodeSample`` keeps that state with its label,
    and ``from_states`` refuses the first repeat, naming it and its keeper."""
    bases = []  # candidates well apart, so each group is one base and its repeats
    for rho in candidates:
        if all(np.linalg.norm(rho.mat - b.mat) > 1e-6 for b in bases):
            bases.append(rho)
    order = data.draw(st.lists(st.integers(0, len(bases) - 1), min_size=1, max_size=6))
    states, first = [], {}  # first[k]: offered index of base k's first occurrence
    for j, k in enumerate(order):
        if k not in first:
            first[k] = j
            states.append(bases[k])
        elif data.draw(st.booleans()):
            states.append(bases[k])
        else:
            mixed = np.eye(len(bases[k].mat)) / len(bases[k].mat)
            states.append(DensityMatrix(bases[k].shape, (1 - 1e-10) * bases[k].mat + 1e-10 * mixed))
    labels = [f"offered{j}" for j in range(len(states))]

    code = CodeSample(states[0].shape, np.stack([rho.mat for rho in states]), labels)
    keepers = sorted(first.values())
    # each kept state has its keeper's bits and views its row of the code's one stack
    for rho, j, row in zip(code.states, keepers, code.stack, strict=True):
        assert rho.shape == states[j].shape and np.array_equal(rho.mat, states[j].mat)
        assert np.shares_memory(rho.mat, row) and np.array_equal(rho.mat, row)
    assert code.labels == tuple(labels[j] for j in keepers)

    repeat = next((j for j, k in enumerate(order) if first[k] != j), None)
    if repeat is None:
        assert CodeSample.from_states(states, labels).labels == code.labels
    else:
        keeper = labels[first[order[repeat]]]
        with pytest.raises(DuplicateStates, match=f"states '{keeper}' and '{labels[repeat]}' coincide"):
            CodeSample.from_states(states, labels)
    with pytest.raises(DuplicateStates, match="states 'state0' and 'state1' coincide"):
        CodeSample.from_states([bases[0], bases[0]])


@st.composite
def insertion_cases(draw):
    """(rho, t): a qubit state on 1-3 qudits with t of 1 or 2, or a qutrit
    with t = 1 (lifted dimension 9)."""
    if draw(LEVELS) == 2:
        return draw(qubit_states()), draw(st.integers(1, 2))
    return draw(qudit_states(3, st.just(1))), 1


@BOTH_LEVELS
@given(insertion_cases(), st.data())
def test_sampled_insertions_are_members_from_both_families(case, data):
    """Every sample is a valid state whose deletion at Q gives rho back.  The
    samplers alternate, separable first; an entangled sample is a
    purification, so it is pure, while a separable one is mixed."""
    rho, t = case
    positions = st.lists(st.integers(1, rho.length + t), min_size=t, max_size=t, unique=True)
    Q = tuple(sorted(data.draw(positions)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    samples = sample_insertions(rho, Q, 4, seed)
    for sigma in samples:
        validate(sigma.mat, sigma.shape)
        assert insertion_member(sigma, rho, Q)
    entangled_ok = rho.level**t >= spectral_decompose(rho).rank
    pure = [np.trace(sigma.mat @ sigma.mat).real > 1 - 1e-9 for sigma in samples]
    assert pure == [False, entangled_ok, False, entangled_ok]


@BOTH_LEVELS
@given(LEVELS, st.integers(1, 2), st.data())
def test_fewer_samples_are_a_prefix_of_more(level, t, data):
    """Samples are drawn in order: the first k of c samples are the k samples
    of the same seed, bit for bit, however many the block stack holds, at
    either level."""
    rho = data.draw(qudit_states(level, st.integers(1, 3 if level == 2 else 2)))
    positions = st.lists(st.integers(1, rho.length + t), min_size=t, max_size=t, unique=True)
    Q = tuple(sorted(data.draw(positions)))
    more = data.draw(st.integers(2, 6))
    fewer = data.draw(st.integers(1, more - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    prefix = sample_insertions(rho, Q, fewer, seed)
    for short, long in zip(prefix, sample_insertions(rho, Q, more, seed)):
        assert short.mat.tobytes() == long.mat.tobytes()


@st.composite
def sampler_requests(draw):
    """A list of sampler requests (rho, qset, count) in shuffled order:
    qubit and qutrit sources on 1-3 qudits of any rank, |Q| of 1 or 2 and
    1-4 samples each.  Some sources are asked again, at another Q, so
    requests share draw groups and builds."""
    requests = []
    for _ in range(draw(st.integers(1, 4))):
        level, n = draw(LEVELS), draw(st.integers(1, 3))
        shape = QuditShape(level, n)
        seed, rank = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, shape.dim))
        rho = random_density(np.random.default_rng(seed), shape, rank)
        for _ in range(draw(st.integers(1, 3))):
            t = draw(st.integers(1, 2))
            Q = draw(st.lists(st.integers(1, n + t), min_size=t, max_size=t, unique=True))
            qset = IndexSet(tuple(sorted(Q)), n + t)
            requests.append((rho, qset, draw(st.integers(1, 4))))
    return draw(st.permutations(requests))


@settings(DETERMINISTIC, max_examples=30)
@given(sampler_requests(), st.integers(0, 2**62 - 1))
def test_a_batch_of_requests_gives_each_its_lone_samples(requests, seed):
    """The one draw pass, per-group block checks and per-(shape, Q) builds
    of ``_sample_batch`` give each request the samples of a lone
    one-request call made in request order on one generator of the same
    seed, bit for bit, as a read-only stack, whatever the other requests,
    including counts of 3 and 4 and ranks above l^t, where only the
    separable family is drawn."""
    batched = _sample_batch(
        [(rho.shape, rho.mat, qset, count) for rho, qset, count in requests], np.random.default_rng(seed), Tolerance()
    )
    assert [len(samples) for samples in batched] == [count for _, _, count in requests]
    rng = np.random.default_rng(seed)
    for (rho, qset, count), samples in zip(requests, batched):
        lone = _sample_batch([(rho.shape, rho.mat, qset, count)], rng, Tolerance())[0]
        assert not samples.flags.writeable
        assert samples.tobytes() == lone.tobytes()


@settings(DETERMINISTIC, max_examples=30)
@given(sampler_requests(), st.integers(0, 2**62 - 1))
def test_requests_that_share_a_generator_read_it_in_request_order(requests, seed):
    """Requests of one ``_sample_batch`` call read its one generator in
    request order: the first request's samples are those of its lone
    ``sample_insertions`` call of that seed, and the batch leaves the
    generator where one-request calls made in request order on a generator
    of the same seed leave it."""
    shared = np.random.default_rng(seed)
    batched = _sample_batch([(rho.shape, rho.mat, qset, count) for rho, qset, count in requests], shared, Tolerance())
    rho, qset, count = requests[0]
    first = sample_insertions(rho, qset.positions, count, seed)
    assert [mat.tobytes() for mat in batched[0]] == [sigma.mat.tobytes() for sigma in first]
    rng = np.random.default_rng(seed)
    for rho, qset, count in requests:
        _sample_batch([(rho.shape, rho.mat, qset, count)], rng, Tolerance())
    assert shared.bit_generator.state == rng.bit_generator.state


@settings(DETERMINISTIC, max_examples=60)
@given(st.integers(0, 2**63 - 1), st.lists(st.integers(0, 300), min_size=1, max_size=8))
def test_one_normal_draw_is_its_back_to_back_parts(seed, sizes):
    """One ``standard_normal`` call of N values draws the values that
    back-to-back calls whose sizes sum to N draw, as ``out`` arrays or by
    size, and leaves the generator where they leave it: a ``Generator``
    keeps no normal-draw state between calls.  The sampler's draw pass
    (``channels._draw_groups``) relies on it to make one call for all its
    draws."""
    whole, parts, sized = (np.random.default_rng(seed) for _ in range(3))
    values = whole.standard_normal(sum(sizes))
    pieces = []
    for size in sizes:
        piece = np.empty(size)
        parts.standard_normal(out=piece)
        pieces.append(piece)
    assert np.concatenate(pieces).tobytes() == values.tobytes()
    assert np.concatenate([sized.standard_normal(size) for size in sizes]).tobytes() == values.tobytes()
    assert whole.standard_normal(3).tobytes() == parts.standard_normal(3).tobytes() == sized.standard_normal(3).tobytes()


@BOTH_LEVELS
@given(LEVELS, st.data())
def test_interleaved_errors_land_in_the_insertions_after_deletions_sphere(level, data):
    """Every interleaving of s deletions and t insertions lands in I^t(D^s(rho)).
    A qutrit trial keeps n + t <= 2, so no state it passes through exceeds
    dimension 9."""
    counts = [(1, 1), (2, 1), (1, 2), (0, 2), (2, 0)] if level == 2 else [(1, 1), (2, 0)]
    s, t = data.draw(st.sampled_from(counts))
    rho = data.draw(qudit_states(level, st.integers(max(s, 1), 3 if level == 2 else 2 - t)))
    seed = data.draw(st.integers(0, 2**62 - 1))
    assert check_containment_trial(rho, seed, s, t)


@st.composite
def feasible_instances(draw):
    """(sigma, rho, P, Q) = (D_P(tau), D_Q(tau), P, Q) for a random lifted
    tau of random rank and dimension at most 16, on 2-4 qubits or 2 qutrits,
    with P and Q any nonempty position sets that leave at least one qudit."""
    level = draw(LEVELS)
    big = draw(st.integers(2, 4)) if level == 2 else 2
    shape = QuditShape(level, big)
    tau = random_density(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), shape,
                         draw(st.integers(1, shape.dim)))
    subsets = st.lists(st.integers(1, big), min_size=1, max_size=big - 1, unique=True)
    pset, qset = (IndexSet(tuple(sorted(draw(subsets))), big) for _ in range(2))
    return delete(tau, pset), delete(tau, qset), pset, qset


@settings(DETERMINISTIC, max_examples=50)
@given(feasible_instances())
def test_feasible_instances_are_never_infeasible(instance):
    """A feasible instance is never refuted, and a feasible verdict's witness
    meets both conditions within feas_tol and is PSD."""
    sigma, rho, pset, qset = instance
    report = feasibility_del_ins(sigma, rho, pset, qset)
    assert report.status is not FeasibilityStatus.INFEASIBLE
    if report.status is FeasibilityStatus.FEASIBLE:
        w = report.witness
        assert np.linalg.eigvalsh(w.mat)[0] >= -Tolerance().at(w.dim).psd_tol
        assert delete(w, qset).distance(rho) <= Tolerance().feas_tol
        assert delete(w, pset).distance(sigma) <= Tolerance().feas_tol


@settings(DETERMINISTIC, max_examples=50)
@given(feasible_instances(), st.floats(-10.0, 10.0), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_no_certificate_clears_feas_tol_on_a_feasible_instance(instance, c, weight, seed):
    """Not the mismatch certificate, the least-squares dual point or its
    negation, nor an empty-face style shift: every certified bound stays at
    or below feas_tol.  Nor does any of them scaled by 1e-3 or 1e3, shifted
    by c times a random element of A*'s kernel, or mixed with the
    least-squares dual point."""
    sigma, rho, pset, qset = instance
    affine = affine_constraint(sigma, rho, pset, qset)
    y_q, y_p = affine.least_squares_dual()
    shift = (np.eye(rho.dim) - 2 * rho.mat, np.eye(sigma.dim) - 2 * sigma.mat)
    # (-A*_{rest0}(delta), A*_{rest1}(delta)) for a Hermitian delta on the
    # common marginal inserts identities at P u Q in both terms, so A* sends it to 0
    delta = random_hermitian(np.random.default_rng(seed), len(affine.mismatch))
    rest0, rest1 = affine._rest
    kernel = (-trace_out_adjoint(delta, rest0, rho.level), trace_out_adjoint(delta, rest1, rho.level))
    assert np.abs(affine.adjoint(affine.pack(kernel))).max() <= 1e-12 * np.abs(delta).max()
    for lam in (affine.inconsistency_certificate(), (y_q, y_p), (-y_q, -y_p), shift):
        forms = [
            lam,
            (1e-3 * lam[0], 1e-3 * lam[1]),
            (1e3 * lam[0], 1e3 * lam[1]),
            (lam[0] + c * kernel[0], lam[1] + c * kernel[1]),
            ((1 - weight) * lam[0] + weight * y_q, (1 - weight) * lam[1] + weight * y_p),
        ]
        for form in forms:
            assert affine.certify(form)[1] <= Tolerance().feas_tol


@settings(DETERMINISTIC, max_examples=25)
@given(st.floats(0.1, 0.9), st.booleans())
def test_counterexample_verdicts_carry_certificates(p0, swap):
    """psi = sqrt(p0)|01> + sqrt(p1)|10> and rho = p0|00><00| + p1|11><11| are
    in no D_P(I_Q) of each other: every (P, Q) is infeasible with a
    certificate that passes ``certify`` and whose negation has a negative
    margin."""
    sigma, rho = example_psi(p0, 1 - p0), example_rho(p0, 1 - p0)
    if swap:
        sigma, rho = rho, sigma
    for p in range(1, 4):
        for q in range(1, 4):
            pset, qset = IndexSet((p,), 3), IndexSet((q,), 3)
            report = feasibility_del_ins(sigma, rho, pset, qset)
            assert report.status is FeasibilityStatus.INFEASIBLE, (p, q)
            affine = affine_constraint(sigma, rho, pset, qset)
            lam_q, lam_p = report.certificate
            margin, bound = affine.certify((lam_q, lam_p))
            assert bound > Tolerance().feas_tol and margin == report.details["margin"]
            assert affine.certify((-lam_q, -lam_p))[0] < 0


def test_near_copy_codes_that_correct_a_deletion_correct_an_insertion():
    """The paper's theorem: a code correcting t deletions corrects t
    insertions.  Codes {a, (1 - eps) a + eps b} of random 2- and 3-qubit
    states, eps from 3e-9 to 1e-5, have marginals closer than feas_tol but
    farther than eq_tol, so the consistency step must judge them at eq_tol.
    A draw within eq_tol of a is refused as ``DuplicateStates`` and counted."""
    drawn = {"codes": 0, "deletion-correcting": 0, "duplicates": 0}

    @settings(DETERMINISTIC, max_examples=40)
    @given(st.integers(2, 3), st.floats(math.log(3e-9), math.log(1e-5)), st.integers(0, 2**32 - 1))
    def check(n, log_eps, seed):
        rng, shape, eps = np.random.default_rng(seed), QuditShape(2, n), math.exp(log_eps)
        a, b = random_density(rng, shape), random_density(rng, shape)
        try:
            code = CodeSample.from_states([a, DensityMatrix(shape, (1 - eps) * a.mat + eps * b.mat)])
        except DuplicateStates:
            drawn["duplicates"] += 1
            return
        drawn["codes"] += 1
        if corrects(code, 1).ok:
            drawn["deletion-correcting"] += 1
            assert corrects_insertions(code, 1).ok is True, (n, eps)

    check()
    assert drawn["deletion-correcting"] >= 20 and drawn["duplicates"] < drawn["codes"], drawn


def _factor_pool(level: int) -> list[np.ndarray]:
    """One-qudit factors of the product codes: two basis states, a pure
    superposition and a full-rank mixed state."""
    rng = np.random.default_rng([level, 4])
    ket = rng.standard_normal(level) + 1j * rng.standard_normal(level)
    ket /= np.linalg.norm(ket)
    basis = [np.diag(np.eye(level)[k]).astype(complex) for k in range(2)]
    return [*basis, np.outer(ket, ket.conj()), random_density(rng, QuditShape(level, 1)).mat]


_FACTORS = {level: _factor_pool(level) for level in (2, 3)}


@st.composite
def product_codes(draw):
    """2-4 product states of one shape: qubits on 1-3 qudits or one qutrit,
    so the lifted dimension at t = 1 is at most 16."""
    level = draw(LEVELS)
    n = draw(st.integers(1, 3)) if level == 2 else 1
    pool = _FACTORS[level]
    words = draw(st.lists(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n), min_size=2, max_size=4))
    return QuditShape(level, n), [reduce(np.kron, [pool[k] for k in word]) for word in words]


def test_product_codes_that_correct_a_deletion_correct_an_insertion():
    """The insertion half of the paper's theorem on product codes over basis,
    pure and mixed factors: ``corrects(code, 1)`` True implies
    ``corrects_insertions(code, 1)`` True, never False or inconclusive.  A
    draw with two equal states is refused as ``DuplicateStates`` and
    counted."""
    drawn = {"codes": 0, "deletion-correcting": 0, "duplicates": 0}

    @settings(DETERMINISTIC, max_examples=1500)
    @given(product_codes())
    def check(case):
        shape, mats = case
        try:
            code = CodeSample.from_states([DensityMatrix(shape, mat) for mat in mats])
        except DuplicateStates:
            drawn["duplicates"] += 1
            return
        drawn["codes"] += 1
        if corrects(code, 1).ok:
            drawn["deletion-correcting"] += 1
            assert corrects_insertions(code, 1).ok is True, (shape, mats)

    check()
    assert drawn["deletion-correcting"] >= 50 and drawn["duplicates"] > 0, drawn
