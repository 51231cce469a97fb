"""Property tests: input checks (tolerance values and state-file shapes) and
the metric axioms of the indel distance.

Examples are derived from the test source, not drawn at random, and no
example database is kept, so runs are deterministic and write nothing to
the working tree.
"""

import math
import tempfile
from functools import reduce
from itertools import combinations
from pathlib import Path

import numpy as np
import orjson
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from qindel.distance import CodeSample, indel_distance, min_distance  # noqa: E402
from qindel.errors import DuplicateStates, InvalidTolerance, ParseError  # noqa: E402
from qindel.linalg import Tolerance, kron  # noqa: E402
from qindel.rand import random_density  # noqa: E402
from qindel.states import DensityMatrix, QuditShape, state_from_json_obj  # noqa: E402

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


@DETERMINISTIC
@given(st.one_of(NEGATIVE, st.just(0.0), NON_FINITE))
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


# Products of qubits drawn from a small pool share marginals, so their
# distances range over every value; seeded random states are generically as
# far apart as their lengths allow.
_POOL = [random_density(np.random.default_rng(k), QuditShape(2, 1)).mat for k in range(3)]


@st.composite
def qubit_states(draw, lengths=st.integers(1, 3)):
    n = draw(lengths)
    shape = QuditShape(2, n)
    if draw(st.booleans()):
        factors = draw(st.lists(st.sampled_from(range(len(_POOL))), min_size=n, max_size=n))
        return DensityMatrix(shape, reduce(kron, [_POOL[k] for k in factors]))
    seed = draw(st.integers(0, 2**32 - 1))
    rank = draw(st.integers(1, shape.dim))
    return random_density(np.random.default_rng(seed), shape, rank)


@DETERMINISTIC
@given(qubit_states())
def test_distance_of_a_state_to_itself_is_zero(a):
    result = indel_distance(a, a)
    assert (result.value, result.s, result.t) == (0, 0, 0)


@DETERMINISTIC
@given(qubit_states(), qubit_states())
def test_distance_is_symmetric_and_even_between_equal_lengths(a, b):
    d_ab, d_ba = indel_distance(a, b).value, indel_distance(b, a).value
    assert d_ab == d_ba
    assert abs(a.length - b.length) <= d_ab <= a.length + b.length
    if a.length == b.length:
        assert d_ab % 2 == 0


@DETERMINISTIC
@given(qubit_states(), qubit_states(), qubit_states())
def test_triangle_inequality(a, b, c):
    assert indel_distance(a, c).value <= indel_distance(a, b).value + indel_distance(b, c).value


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
