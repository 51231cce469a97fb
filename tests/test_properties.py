"""Property tests of input checks: tolerance values and state-file shapes.

Examples are derived from the test source, not drawn at random, and no
example database is kept, so runs are deterministic and write nothing to
the working tree.
"""

import math
import tempfile
from pathlib import Path

import orjson
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

from qindel.errors import InvalidTolerance, ParseError  # noqa: E402
from qindel.linalg import Tolerance  # noqa: E402
from qindel.states import state_from_json_obj  # noqa: E402

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
