import json

import numpy as np
import orjson
import pytest

from qindel.errors import (
    DigitOutOfRange,
    NotHermitian,
    NotNormalized,
    NotPSD,
    ParseError,
    ShapeMismatch,
    SizeCapExceeded,
    TraceNotOne,
    ValidationError,
)
from qindel.linalg import Tolerance
from qindel.rand import random_density
from qindel.states import (
    DensityMatrix,
    QuditShape,
    basis_index,
    basis_ket,
    density_from_ket,
    load_state,
    purity,
    reconstruct,
    save_state,
    save_states,
    scalar_state,
    spectral_decompose,
    state_from_json_obj,
    state_to_json_obj,
    validate,
)


def test_qudit_shape():
    assert QuditShape(2, 3).dim == 8
    assert QuditShape(2, 0).dim == 1
    with pytest.raises(SizeCapExceeded):
        QuditShape(2, 9)
    with pytest.raises(ValueError):
        QuditShape(1, 2)


def test_basis_index_examples():
    assert basis_index("00", QuditShape(2, 2)) == 0
    assert basis_index("10", QuditShape(2, 2)) == 2
    assert basis_index("21", QuditShape(3, 2)) == 7
    with pytest.raises(DigitOutOfRange):
        basis_index("20", QuditShape(2, 2))
    with pytest.raises(ShapeMismatch):
        basis_index("0", QuditShape(2, 2))


@pytest.mark.parametrize("level,length", [(2, 8), (3, 5), (4, 4), (5, 3), (16, 2)])
def test_basis_index_is_a_bijection(level, length):
    shape = QuditShape(level, length)
    seen = set()
    digits = [0] * length

    def walk(pos):
        if pos == length:
            seen.add(basis_index(digits, shape))
            return
        for d in range(level):
            digits[pos] = d
            walk(pos + 1)

    walk(0)
    assert seen == set(range(shape.dim))


def test_density_from_ket():
    shape1 = QuditShape(2, 1)
    rho = density_from_ket([1, 0], shape1)
    np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]))

    shape2 = QuditShape(2, 2)
    bell = (basis_ket("00", shape2) + basis_ket("11", shape2)) / np.sqrt(2)
    rho = density_from_ket(bell, shape2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(rho.mat, expected, atol=1e-15)

    with pytest.raises(NotNormalized):
        density_from_ket([1, 1], shape1)
    # the ket's length, finiteness and norm are each checked here, once
    with pytest.raises(ShapeMismatch, match="ket length 4"):
        density_from_ket(bell, shape1)
    with pytest.raises(NotNormalized, match="non-finite"):
        density_from_ket([np.nan, 1], shape1)
    with pytest.raises(NotNormalized, match="norm") as exc:
        density_from_ket([1, 1e-3], shape1)
    assert exc.value.residual == pytest.approx(5e-7, rel=1e-3)


def test_validate():
    shape1 = QuditShape(2, 1)
    ok = validate(np.eye(2) / 2, shape1)
    assert isinstance(ok, DensityMatrix)
    with pytest.raises(TraceNotOne):
        validate(np.eye(2), shape1)
    with pytest.raises(NotPSD):
        validate(np.diag([1.5, -0.5]), shape1)
    with pytest.raises(NotHermitian):
        validate([[0.5, 1], [0, 0.5]], shape1)
    with pytest.raises(ShapeMismatch):
        validate(np.eye(2) / 2, QuditShape(2, 2))


def test_spectral_decompose_pure():
    shape = QuditShape(2, 1)
    rho = density_from_ket([1, 0], shape)
    form = spectral_decompose(rho)
    assert form.rank == 1
    weight, ket = form.weights[0], form.kets[:, 0]
    assert weight == pytest.approx(1.0)
    assert abs(ket[0]) == pytest.approx(1.0)


def test_spectral_decompose_diagonal_mixture():
    shape = QuditShape(2, 2)
    k00, k11 = basis_ket("00", shape), basis_ket("11", shape)
    rho = DensityMatrix(shape, 0.3 * np.outer(k00, k00) + 0.7 * np.outer(k11, k11))
    form = spectral_decompose(rho)
    assert form.rank == 2
    np.testing.assert_allclose(form.weights, [0.7, 0.3])
    assert abs(form.kets[:, 0] @ k11.conj()) == pytest.approx(1.0)
    assert abs(form.kets[:, 1] @ k00.conj()) == pytest.approx(1.0)


def test_spectral_decompose_degenerate():
    shape = QuditShape(2, 1)
    form = spectral_decompose(DensityMatrix(shape, np.eye(2, dtype=complex) / 2))
    assert form.rank == 2
    np.testing.assert_allclose(form.weights, [0.5, 0.5])
    u, v = form.kets[:, 0], form.kets[:, 1]
    assert abs(u @ v.conj()) < 1e-12  # any orthonormal pair is fine


def test_spectral_reconstruction_roundtrip(rng):
    for _ in range(20):
        shape = QuditShape(2, int(rng.integers(1, 4)))
        rho = random_density(rng, shape, int(rng.integers(1, shape.dim + 1)))
        form = spectral_decompose(rho)
        assert reconstruct(form).distance(rho) <= Tolerance().at(shape.dim).eq_tol
        # eigenkets are mutually orthonormal
        for i in range(form.rank):
            for j in range(form.rank):
                ip = form.kets[:, i] @ form.kets[:, j].conj()
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


def test_purity_detects_rank_one(rng):
    shape = QuditShape(2, 2)
    for _ in range(10):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = density_from_ket(v / np.linalg.norm(v), shape)
        validate(rho.mat, shape)  # normalized kets always produce valid states
        assert purity(rho) == pytest.approx(1.0)
    mixed = random_density(rng, shape, 3)
    assert purity(mixed) < 1.0 - 1e-6


def test_scalar_state():
    one = scalar_state(2)
    assert one.length == 0
    assert one.dim == 1
    np.testing.assert_array_equal(one.mat, [[1.0]])


def test_state_file_roundtrip(tmp_path, rng):
    shape = QuditShape(2, 2)
    rho = random_density(rng, shape, 2)
    path = tmp_path / "state.json"
    save_state(rho, path)
    again = load_state(path)
    assert again.distance(rho) <= 1e-12
    assert again.shape == shape


def test_state_file_kinds(rng):
    shape = QuditShape(2, 1)
    pure = state_from_json_obj(
        {"level": 2, "length": 1, "kind": "pure", "ket": [[1.0, 0.0], [0.0, 0.0]]}
    )
    np.testing.assert_allclose(pure.mat, np.diag([1.0, 0.0]))
    spectral = state_from_json_obj(
        {
            "level": 2,
            "length": 1,
            "kind": "spectral",
            "pairs": [
                {"p": 0.25, "ket": [[1.0, 0.0], [0.0, 0.0]]},
                {"p": 0.75, "ket": [[0.0, 0.0], [1.0, 0.0]]},
            ],
        }
    )
    np.testing.assert_allclose(spectral.mat, np.diag([0.25, 0.75]))
    assert state_to_json_obj(spectral)["kind"] == "mixed"


def test_state_file_errors(tmp_path):
    with pytest.raises(ParseError, match="residual"):
        state_from_json_obj(
            {"level": 2, "length": 1, "kind": "mixed",
             "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
        )  # trace 2
    with pytest.raises(ParseError):
        state_from_json_obj({"level": 2, "length": 1, "kind": "what"})
    with pytest.raises(ParseError):
        state_from_json_obj({"kind": "pure"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_state(bad)


def _head_encoder(rho: DensityMatrix) -> str:
    """The per-entry encoder state files were written with before the orjson
    codec: kept as the reference that old files must still load from."""
    return json.dumps(
        {
            "level": rho.level,
            "length": rho.length,
            "kind": "mixed",
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in rho.mat],
        }
    )


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.1, -np.inf)])
def test_writers_refuse_non_finite_states(tmp_path, entry):
    good = DensityMatrix(QuditShape(2, 1), np.eye(2) / 2)
    mat = np.eye(2, dtype=complex) / 2
    mat[0, 1] = entry
    bad = DensityMatrix(QuditShape(2, 1), mat)  # the unchecked constructor
    path = tmp_path / "state.json"
    with pytest.raises(ValidationError, match="non-finite"):
        save_state(bad, path)
    assert not path.exists()
    with pytest.raises(ValidationError, match="non-finite"):
        save_states([good, bad], path)
    assert not path.exists()
    save_states([good], path)
    assert len(json.loads(path.read_text(encoding="utf-8"))) == 1


@pytest.mark.parametrize("length", range(1, 9))
def test_state_file_roundtrip_is_exact(tmp_path, rng, length):
    shape = QuditShape(2, length)
    rho = random_density(rng, shape, int(rng.integers(1, shape.dim + 1)))
    path = tmp_path / "state.json"
    save_state(rho, path)
    assert np.array_equal(_bits(load_state(path).mat), _bits(rho.mat))
    assert json.loads(path.read_text(encoding="utf-8")) == state_to_json_obj(rho)

    old = tmp_path / "old.json"
    old.write_text(_head_encoder(rho), encoding="utf-8")
    assert np.array_equal(_bits(load_state(old).mat), _bits(rho.mat))


def test_state_file_special_floats_are_exact(tmp_path):
    third = 1 / 3
    # a valid state whose entries include -0.0, the least subnormal and 1/3
    mat = np.array([[third, complex(-0.0, 5e-324)], [complex(-0.0, -5e-324), 1 - third]])
    path = tmp_path / "state.json"
    save_state(DensityMatrix(QuditShape(2, 1), mat), path)
    assert np.array_equal(_bits(load_state(path).mat), _bits(mat))

    # no valid state holds 1e300, so that value is checked at the file level
    raw = np.array([[1e300, complex(third, 5e-324)], [complex(-0.0, -third), 5e-324]])
    save_state(DensityMatrix(QuditShape(2, 1), raw), path)
    for parsed in (json.loads(path.read_text(encoding="utf-8")), orjson.loads(path.read_bytes())):
        back = np.array(parsed["matrix"], dtype=float).view(complex)[..., 0]
        assert np.array_equal(_bits(back), _bits(raw))
    assert b" " not in path.read_bytes()  # compact separators


def _bits(mat: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a complex array, so -0.0 differs from 0.0."""
    return np.ascontiguousarray(mat, dtype=complex).view(np.int64)


def _mixed(matrix) -> dict:
    return {"level": 2, "length": 1, "kind": "mixed", "matrix": matrix}


def _spectral(pairs) -> dict:
    return {"level": 2, "length": 1, "kind": "spectral", "pairs": pairs}


_E0 = [[1.0, 0.0], [0.0, 0.0]]
_TWO_ROWS = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


@pytest.mark.parametrize(
    "obj",
    [
        pytest.param(_mixed([_TWO_ROWS[0], [[0.0, 0.0]]]), id="ragged-rows"),
        pytest.param(_mixed(5), id="matrix-number"),
        pytest.param(_mixed({"re": 0.5}), id="matrix-object"),
        pytest.param(_mixed(_TWO_ROWS[:1]), id="too-few-rows"),
        pytest.param(_mixed(_TWO_ROWS + [[[0.0, 0.0], [0.0, 0.0]]]), id="too-many-rows"),
        pytest.param(_mixed([[["0.5", 0.0], [0.0, 0.0]], _TWO_ROWS[1]]), id="string-entry"),
        pytest.param(_mixed([[[0.5, None], [0.0, 0.0]], _TWO_ROWS[1]]), id="null-entry"),
        pytest.param(_mixed([[[0.5], [0.0]], [[0.0], [0.5]]]), id="short-pairs"),
        pytest.param(_mixed([[p + [0.0] for p in row] for row in _TWO_ROWS]), id="long-pairs"),
        pytest.param({"level": 2, "length": 1, "kind": "pure", "ket": [[1.0, 0.0]]}, id="short-ket"),
        pytest.param(
            {"level": 2, "length": 1, "kind": "pure", "ket": [["1", "0"], ["0", "0"]]},
            id="string-ket",
        ),
        pytest.param(_spectral(5), id="pairs-number"),
        pytest.param(_spectral([5]), id="pair-number"),
        pytest.param(_spectral([{"p": "x", "ket": _E0}]), id="weight-word"),
        pytest.param(_spectral([{"p": "1.0", "ket": _E0}]), id="weight-string"),
        pytest.param(_spectral([{"p": True, "ket": _E0}]), id="weight-bool"),
        pytest.param(_spectral([{"p": 1.0, "ket": [[1.0, 0.0]]}]), id="short-spectral-ket"),
        pytest.param(_spectral([{"p": 1.0}]), id="missing-ket"),
        *(
            pytest.param({**_mixed(_TWO_ROWS), field: value}, id=f"{field}-{value!r}")
            for field in ("level", "length")
            for value in (2.7, "2", 1.9, True, 2.0)
        ),
    ],
)
def test_malformed_state_objects_raise_parse_error(obj):
    with pytest.raises(ParseError):
        state_from_json_obj(obj)


@pytest.mark.parametrize(
    "content",
    [
        b'{"level": 2, "length": 1, "kind": "mixed", "matrix": '
        b"[[[NaN, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}",
        b'{"level": 2, "length": 1, "kind": "mixed", "matrix": '
        b"[[[Infinity, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}",
        b'{"level": 2, "length": 1, "kind": "pure", "ket": [[1.0, 0.0], [0.0, 0.0]], "x": "\xff"}',
        b"",
    ],
    ids=["nan-token", "infinity-token", "non-utf8-byte", "empty"],
)
def test_malformed_state_files_raise_parse_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(ParseError):
        load_state(path)
