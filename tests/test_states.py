import base64
import json
import math

import numpy as np
import orjson
import pytest

from qindel.errors import (
    CountOutOfRange,
    QindelError,
    DigitOutOfRange,
    InvalidShape,
    NoConvergence,
    NotHermitian,
    NotNormalized,
    NotPSD,
    ParseError,
    ShapeMismatch,
    SizeCapExceeded,
    TraceNotOne,
    ValidationError,
)
from qindel.codes import _codewords
from qindel.linalg import Tolerance, frobenius_distance, frobenius_norm
from qindel.rand import random_density, random_hermitian, random_psd
from qindel.states import (
    DensityMatrix,
    QuditShape,
    _pure_stack,
    basis_index,
    basis_ket,
    density_from_ket,
    load_state,
    save_state,
    save_states,
    _spectral_groups,
    spectral_decompose,
    state_from_json_obj,
    state_to_json_obj,
    validate,
    validate_stack,
)
from conftest import assert_validates_as_reference, planted_state, random_orthonormal, reference_spectral_form


def test_qudit_shape():
    assert QuditShape(2, 3).dim == 8
    assert QuditShape(2, 0).dim == 1
    with pytest.raises(SizeCapExceeded):
        QuditShape(2, 9)
    with pytest.raises(SizeCapExceeded):
        QuditShape(3, 10**12)  # refused before 3**(10**12) is built
    with pytest.raises(InvalidShape, match="level"):
        QuditShape(1, 2)
    with pytest.raises(InvalidShape, match="length"):
        QuditShape(2, -1)
    # a level and a length are counts: a float or a bool is refused, and a
    # numpy integer is kept as the int it names
    for level, length in ((2, 3.0), (2.5, 2), (2, True)):
        with pytest.raises(InvalidShape):
            QuditShape(level, length)
    shape = QuditShape(np.int64(2), np.uint8(3))
    assert (type(shape.level), type(shape.length), shape) == (int, int, QuditShape(2, 3))


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


def test_density_from_ket(rng):
    shape1 = QuditShape(2, 1)
    rho = density_from_ket([1, 0], shape1)
    np.testing.assert_allclose(rho.mat, np.diag([1.0, 0.0]))

    shape2 = QuditShape(2, 2)
    bell = (basis_ket("00", shape2) + basis_ket("11", shape2)) / np.sqrt(2)
    rho = density_from_ket(bell, shape2)
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(rho.mat, expected, atol=1e-15)
    for _ in range(10):  # normalized kets always produce valid rank-one states
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = density_from_ket(v / np.linalg.norm(v), shape2)
        validate(rho.mat, shape2)
        assert spectral_decompose(rho).rank == 1

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


@pytest.mark.parametrize("count", [1, 6])
def test_pure_states_are_the_outer_products_of_their_kets(rng, count):
    # one check and build of pure states: each row of the read-only stack
    # is np.outer of its ket, bit for bit, and density_from_ket its one-ket case
    shape = QuditShape(2, 3)
    kets = rng.standard_normal((count, shape.dim)) + 1j * rng.standard_normal((count, shape.dim))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    stack = _pure_stack(kets, shape)
    assert stack.shape == (count, shape.dim, shape.dim) and not stack.flags.writeable
    for ket, row in zip(kets, stack, strict=True):
        assert row.tobytes() == np.outer(ket, ket.conj()).tobytes()
        assert density_from_ket(ket, shape).mat.tobytes() == row.tobytes()


def test_a_ket_off_the_unit_sphere_is_refused_by_every_pure_state_builder():
    # the first ket at fault is named, by its index on a stack of several;
    # density_from_ket and a codeword family's _codewords refuse it alike (a
    # family's non-finite logical ket makes every codeword non-finite, 0 * nan
    # being nan)
    shape = QuditShape(2, 2)
    faults = [
        ([1, 1, 0, 0], "norm differs from 1 by 4.142e-01"),
        ([1, 1e-3, 0, 0], "norm differs from 1 by 5.000e-07"),
        ([np.nan, 0, 0, 0], "has non-finite entries"),
        ([np.inf, 0, 0, 0], "has non-finite entries"),
        ([1e200, 0, 0, 0], "norm differs from 1 by inf"),
    ]
    for bad, message in faults:
        bad = np.array(bad, dtype=complex)
        finite = np.isfinite(bad).all()
        residual = float(abs(frobenius_norm(bad[None]) - 1.0)) if finite else math.nan
        kets = np.eye(4, dtype=complex)
        kets[2], kets[3] = bad, [2, 0, 0, 0]  # two kets at fault: the first is named
        refusals = []
        for build, name in (
            (lambda: _pure_stack(kets, shape), "ket 2"),
            (lambda: density_from_ket(bad, shape), "ket"),
            (lambda: _codewords((shape, bad, kets[1]), [(1, 0)]), "ket"),
            (lambda: _codewords((shape, kets[1], bad), [(1, 0), (-1, 0), (0, 1)]), "ket 2" if finite else "ket 0"),
        ):
            # a codeword's sum takes 0 * inf to nan
            with pytest.raises(NotNormalized, match=f"^{name} {message}$") as exc, np.errstate(invalid="ignore"):
                build()
            refusals.append(repr(exc.value.residual))
        assert refusals == [repr(residual)] * 4


def _signalling_nan() -> float:
    """A NaN whose quiet bit is clear: arithmetic on it raises numpy's
    invalid-value warning, where a quiet NaN passes silently."""
    return np.array([0x7FF0000000000001], dtype=np.int64).view(float)[0]


def test_a_ket_with_a_signalling_nan_is_refused_without_a_warning():
    # the norm is taken of the finite kets only: squaring a signalling NaN
    # would warn ("invalid value encountered in square") before the refusal
    shape = QuditShape(2, 2)
    kets = np.eye(4, dtype=complex)
    kets.view(float)[1, 2] = _signalling_nan()  # the real part of ket 1's entry 1
    assert kets.view(np.int64)[1, 2] == 0x7FF0000000000001
    with pytest.raises(NotNormalized, match="^ket 1 has non-finite entries$"):
        _pure_stack(kets, shape)
    with pytest.raises(NotNormalized, match="^ket has non-finite entries$"):
        _pure_stack(kets[1:2], shape)


def test_a_signalling_nan_in_a_payload_ket_is_a_parse_error():
    # a falsifying example of test_malformed_payloads_are_parse_errors: its
    # first amplitude's real part is the signalling NaN 0x7ff0000000000001
    payload = {"level": 2, "length": 1, "kind": "pure", "encoding": "base64",
               "ket": "AQAAAAAA8H+akbsuyWbuvznF2YioFck/Ya2zKTrrw78="}
    assert np.frombuffer(base64.b64decode(payload["ket"]), np.int64)[0] == 0x7FF0000000000001
    with pytest.raises(ParseError, match="^invalid pure state: ket has non-finite entries"):
        state_from_json_obj(payload)


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


# one shape per dimension validate is checked at, qutrits included
SHAPES = {
    1: QuditShape(2, 0),
    2: QuditShape(2, 1),
    3: QuditShape(3, 1),
    4: QuditShape(2, 2),
    9: QuditShape(3, 2),
    16: QuditShape(2, 4),
    27: QuditShape(3, 3),
    64: QuditShape(2, 6),
    256: QuditShape(2, 8),
}
PSD_TOLS = {
    "default": Tolerance(),
    "psd_tol=0": Tolerance(psd_tol=0.0),
    "psd_tol=0.25": Tolerance(psd_tol=0.25),
}


@pytest.mark.parametrize("tol", PSD_TOLS.values(), ids=PSD_TOLS)
@pytest.mark.parametrize("dim", SHAPES)
def test_validate_decides_planted_spectra_as_the_eigen_solve_rule(dim, tol):
    # least eigenvalues on both sides of -psd_tol and at its half, the
    # certificate's shift (psd_tol=0 plants them around the default floor)
    shape, rng = SHAPES[dim], np.random.default_rng(dim)
    psd_tol = tol.at(dim).psd_tol
    scale = psd_tol or Tolerance().at(dim).psd_tol
    for factor in (-2, -1.01, -0.99, -0.5, 0, 1e-3):
        refusal = assert_validates_as_reference(planted_state(rng, shape, factor * scale), shape, tol)
        if dim == 1:  # the one eigenvalue is the trace
            assert isinstance(refusal, TraceNotOne)
        elif factor * scale < -psd_tol:
            assert isinstance(refusal, NotPSD)
        elif factor > 0 or (factor > -1 and psd_tol > 0):
            assert refusal is None
    for rank in sorted({2, dim // 2, dim - 1} & set(range(2, dim))):
        assert_validates_as_reference(planted_state(rng, shape, 0.0, rank), shape, tol)


@pytest.mark.parametrize("dim", [2, 256])
def test_validate_refuses_as_the_eigen_solve_rule(dim):
    shape, rng = SHAPES[dim], np.random.default_rng(dim)
    rho = random_density(rng, shape, 2).mat
    nan, inf, skew = rho.copy(), rho.copy(), rho.copy()
    nan[0, 1], inf[1, 1], skew[0, 1] = np.nan, np.inf, skew[0, 1] + 1e-3
    negative = planted_state(rng, shape, -0.1)
    cases = [
        (nan, ValidationError),
        (inf, ValidationError),
        (skew, NotHermitian),
        (1.1 * rho, TraceNotOne),  # PSD: refused on the certified path
        (1.1 * negative, TraceNotOne),  # the trace is checked before the spectrum
        (negative, NotPSD),
    ]
    for mat, error in cases:
        assert type(assert_validates_as_reference(mat, shape)) is error
    assert_validates_as_reference(rho, shape)


def test_a_spectrum_past_the_float_range_is_refused_before_the_trace():
    huge = np.full((2, 2), 1e308)
    assert type(assert_validates_as_reference(huge, QuditShape(2, 1))) is NoConvergence
    with pytest.raises(NoConvergence, match="non-finite spectrum"):
        validate(huge, QuditShape(2, 1))


def test_a_valid_state_file_loads_without_an_eigen_solve(tmp_path, rng, eigensolves):
    rho = random_density(rng, QuditShape(2, 8), 5)
    save_state(rho, tmp_path / "rho.json")
    assert np.array_equal(load_state(tmp_path / "rho.json").mat, rho.mat)
    assert eigensolves == []


def test_a_state_file_below_the_psd_floor_is_refused_by_one_eigen_solve(tmp_path, rng, eigensolves):
    shape = QuditShape(2, 8)
    psd_tol = Tolerance().at(shape.dim).psd_tol  # 2.56e-7
    save_state(DensityMatrix(shape, planted_state(rng, shape, -2 * psd_tol)), tmp_path / "bad.json")
    message = r"invalid mixed state: negative eigenvalue -5\.120e-07 \(residual 5\.120e-07\)"
    with pytest.raises(ParseError, match=message) as exc:
        load_state(tmp_path / "bad.json")
    assert isinstance(exc.value.__cause__, NotPSD)
    assert exc.value.__cause__.residual == pytest.approx(2 * psd_tol, rel=1e-9)
    assert eigensolves == ["eigvalsh"]


def _refusal(call):
    """What ``call()`` raises, or None."""
    try:
        call()
    except QindelError as exc:
        return exc
    return None


def _faults(rng, shape):
    """One matrix per way ``validate`` can refuse one at ``shape`` (or
    pass it, at a loose psd_tol): non-finite, skew, off trace, below the
    PSD floor, and, from dimension 2, a spectrum past the float range."""
    d = shape.dim
    rho = random_density(rng, shape, min(2, d)).mat
    nan, inf, skew = rho.copy(), rho.copy(), rho.copy()
    nan[0, 0], inf[-1, -1] = np.nan, np.inf
    skew[0, -1] += 1e-3
    faults = [nan, inf, 1.1 * rho, planted_state(rng, shape, -2 * Tolerance().at(d).psd_tol)]
    if d > 1:
        faults += [skew, np.full((d, d), 1e308)]
    return faults


@pytest.mark.parametrize("tol", PSD_TOLS.values(), ids=PSD_TOLS)
@pytest.mark.parametrize("dim", [1, 2, 4, 9, 64])
def test_validate_stack_gives_each_matrix_its_lone_result(dim, tol):
    # a stack of valid states of every rank validates to the read-only
    # stack of the states lone calls give, bit for bit; one fault at slot k
    # is refused with the class, residual and message of its lone call,
    # named "matrix k: "
    shape, rng = SHAPES[dim], np.random.default_rng(dim)
    candidates = [random_density(rng, shape, rank).mat for rank in sorted({1, (dim + 1) // 2, dim})]
    candidates += [planted_state(rng, shape, 0.0, min(dim, 2)) if dim > 1 else np.ones((1, 1), complex)]
    candidates += [planted_state(rng, shape, 0.5 / dim) for _ in range(2)]  # full rank
    # at psd_tol=0 a rank-deficient state may read a rounding-negative eigenvalue
    good = [m for m in candidates if _refusal(lambda: validate(m, shape, tol)) is None]
    assert len(good) >= 2
    stack = np.stack(good)
    checked = validate_stack(stack, shape, tol)
    assert [mat.tobytes() for mat in checked] == [validate(m, shape, tol).mat.tobytes() for m in good]
    assert checked.shape == stack.shape and not checked.flags.writeable
    assert np.shares_memory(validate_stack(checked, shape, tol), checked)  # a read-only stack is not copied
    [lone] = validate_stack(good[0], shape, tol)  # one matrix gives one state
    assert lone.tobytes() == good[0].tobytes()
    for fault in _faults(rng, shape):
        want = _refusal(lambda: validate(fault, shape, tol))
        for k in (0, len(good) - 1):
            faulty = stack.copy()
            faulty[k] = fault
            got = _refusal(lambda: validate_stack(faulty, shape, tol))
            if want is None:
                assert got is None
                continue
            assert type(got) is type(want) and str(got) == f"matrix {k}: {want}"
            assert repr(getattr(got, "residual", None)) == repr(getattr(want, "residual", None))
            # a lone matrix is named by nothing, as validate names it
            lone = _refusal(lambda: validate_stack(fault, shape, tol))
            assert (type(lone), str(lone)) == (type(want), str(want))


def test_validate_stack_refuses_other_shapes():
    shape = QuditShape(2, 1)
    for bad in (np.zeros(2), np.zeros((2, 3)), np.zeros((2, 4, 4)), np.zeros((1, 2, 2, 2))):
        with pytest.raises(ShapeMismatch):
            validate_stack(bad, shape)
    with pytest.raises(ShapeMismatch):  # one matrix only
        validate(np.zeros((1, 2, 2)), shape)


def test_a_valid_stack_eigen_solves_only_when_not_certified(rng, eigensolves):
    shape = QuditShape(2, 3)
    mats = np.stack([random_density(rng, shape, rank).mat for rank in range(1, 9)])
    validate_stack(mats, shape)
    assert eigensolves == []
    # a least eigenvalue planted just inside the floor, below the shift,
    # fails to factor: the stack is not certified, and one solve of all of
    # it passes it
    mats[3] = planted_state(rng, shape, -0.9 * Tolerance().at(shape.dim).psd_tol)
    solved = []
    real = np.linalg.eigvalsh
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda h: solved.append(h.shape) or real(h))
        validate_stack(mats, shape)
    assert solved == [(8, 8, 8)]


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


def _spectral_stack(rng, shape):
    """States of ``shape`` whose forms drop different numbers of weights:
    a random state of each rank (a rank-r draw has d - r eigenvalues at
    rounding level, all dropped), the maximally mixed state (one weight
    repeated d times), a degenerate mixture of two weights, and planted
    spectra whose smallest weight sits on either side of the drop bound."""
    d = shape.dim
    mats = [random_density(rng, shape, rank).mat for rank in range(1, d + 1)]
    mats.append(np.eye(d, dtype=complex) / d)
    if d > 1:
        mats.append(np.diag([0.5] * 2 + [0.0] * (d - 2) if d > 2 else [0.5, 0.5]).astype(complex))
        bound = 1e-3 * Tolerance().at(d).eq_tol
        for lowest in (bound / 4, bound * 4):
            mats.append(planted_state(rng, shape, lowest))
    return np.array(mats)


@pytest.mark.parametrize("level, length", [(2, n) for n in range(4)] + [(3, n) for n in range(4)])
def test_rank_grouped_forms_are_the_lone_forms_bit_for_bit(rng, level, length):
    # every row of every rank group, the forms sliced from them and the lone
    # spectral_decompose of each state carry the per-state rule's bits
    shape = QuditShape(level, length)
    mats = _spectral_stack(rng, shape)
    expected = [reference_spectral_form(mat, shape) for mat in mats]
    groups = _spectral_groups(mats, shape, Tolerance())
    assert sorted(k for rows, _, _ in groups for k in rows.tolist()) == list(range(len(mats)))
    ranks = [kets.shape[-1] for _, _, kets in groups]
    assert ranks == sorted(set(ranks)) and len({len(w) for w, _ in expected}) == len(ranks)
    for rows, weights, kets in groups:
        for k, w_k, v_k in zip(rows.tolist(), weights, kets):
            assert v_k.flags.c_contiguous and v_k.shape == expected[k][1].shape
            assert (w_k.tobytes(), v_k.tobytes()) == (expected[k][0].tobytes(), expected[k][1].tobytes())
    for k, mat in enumerate(mats):
        # a lone matrix is one rank group of one row, and its form that row
        [(rows, weights, kets)] = _spectral_groups(mat, shape, Tolerance())
        lone = spectral_decompose(DensityMatrix(shape, mat))
        assert rows.tolist() == [0]
        for w_k, v_k in ((weights[0], kets[0]), (lone.weights, lone.kets)):
            assert v_k.flags.c_contiguous and v_k.shape == expected[k][1].shape
            assert (w_k.tobytes(), v_k.tobytes()) == (expected[k][0].tobytes(), expected[k][1].tobytes())


def test_spectral_reconstruction_roundtrip(rng):
    for _ in range(20):
        shape = QuditShape(2, int(rng.integers(1, 4)))
        rho = random_density(rng, shape, int(rng.integers(1, shape.dim + 1)))
        form = spectral_decompose(rho)
        rebuilt = (form.kets * form.weights) @ form.kets.conj().T
        assert frobenius_distance(rebuilt, rho.mat) <= Tolerance().at(shape.dim).eq_tol
        # eigenkets are mutually orthonormal
        for i in range(form.rank):
            for j in range(form.rank):
                ip = form.kets[:, i] @ form.kets[:, j].conj()
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


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

    # no valid state holds 1e300, so that value is checked at the file level:
    # the payload is the row-major bytes of little-endian complex128
    raw = np.array([[1e300, complex(third, 5e-324)], [complex(-0.0, -third), 5e-324]])
    save_state(DensityMatrix(QuditShape(2, 1), raw), path)
    for parsed in (json.loads(path.read_text(encoding="utf-8")), orjson.loads(path.read_bytes())):
        assert parsed["encoding"] == "base64"
        back = np.frombuffer(base64.b64decode(parsed["matrix"], validate=True), dtype="<c16").reshape(2, 2)
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
        pytest.param([1, 2], id="not-an-object"),
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
        pytest.param({**_mixed(_TWO_ROWS), "level": 3, "length": 10**12}, id="huge-length"),
    ],
)
def test_malformed_state_objects_raise_parse_error(obj):
    with pytest.raises(ParseError):
        state_from_json_obj(obj)


def _compact(kind: str, **payload) -> dict:
    return {"level": 2, "length": 1, "kind": kind, "encoding": "base64", **payload}


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode("ascii")


_HALF = _b64(np.eye(2) / 2)


@pytest.mark.parametrize(
    "obj, message",
    [
        pytest.param(_compact("mixed", matrix=_TWO_ROWS), "expected a base64 string, got list", id="nest"),
        pytest.param(_compact("mixed", matrix=None), "expected a base64 string, got NoneType", id="null"),
        pytest.param(_compact("pure", ket=5), "malformed ket: expected a base64 string", id="ket-number"),
        pytest.param(_compact("mixed", matrix=_HALF[:-1]), "bad base64", id="bad-padding"),
        pytest.param(_compact("mixed", matrix="!" + _HALF[1:]), "bad base64", id="bad-character"),
        pytest.param(_compact("mixed", matrix=_HALF[:4] + "\n" + _HALF[4:]), "bad base64", id="newline"),
        pytest.param(_compact("mixed", matrix="\u00e9" * 4), "bad base64", id="non-ascii"),
        pytest.param(_compact("mixed", matrix=_b64(np.eye(2)[0] / 2)), "expected 64 bytes .* got 32", id="short"),
        pytest.param(_compact("mixed", matrix=_b64(np.eye(3) / 3)), "expected 64 bytes .* got 144", id="long"),
        pytest.param(_compact("pure", ket=_b64([1.0])), "malformed ket: expected 32 bytes .* got 16", id="short-ket"),
        pytest.param(
            _compact("spectral", pairs=[{"p": 1.0, "ket": _b64([1.0, 0.0, 0.0])}]),
            "malformed spectral ket: expected 32 bytes .* got 48",
            id="long-spectral-ket",
        ),
        pytest.param(_compact("spectral", pairs=[{"p": 1.0, "ket": [[1.0, 0.0], [0.0, 0.0]]}]),
                     "malformed spectral ket: expected a base64 string", id="nested-spectral-ket"),
        pytest.param({**_compact("mixed", matrix=_HALF), "encoding": "hex"}, "unknown encoding 'hex'", id="hex"),
        pytest.param({**_compact("mixed", matrix=_HALF), "encoding": None}, "unknown encoding None", id="null-encoding"),
        pytest.param(
            {"level": 2, "length": 1, "kind": "mixed", "matrix": _HALF}, "numeric \\[re, im\\] pairs", id="no-encoding"
        ),
        *(
            pytest.param(obj, "non-finite", id=f"{kind}-{value!r}")
            for value in (np.nan, np.inf, complex(0.5, -np.inf))
            for kind, obj in (
                ("mixed", _compact("mixed", matrix=_b64([[0.5, value], [np.conj(value), 0.5]]))),
                ("pure", _compact("pure", ket=_b64([value, 0.0]))),
                ("spectral", _compact("spectral", pairs=[{"p": 1.0, "ket": _b64([value, 0.0])}])),
            )
        ),
    ],
)
def test_malformed_compact_payloads_name_the_fault(obj, message):
    with pytest.raises(ParseError, match=message):
        state_from_json_obj(orjson.loads(orjson.dumps(obj)))


@pytest.mark.parametrize(
    "obj",
    [
        pytest.param({"level": 2, "length": 1, "kind": "pure", "ket": [[1e300, 0.0], [1e300, 0.0]]}, id="nested"),
        pytest.param(_compact("pure", ket=_b64([1e300, 1e300])), id="compact"),
    ],
)
def test_a_ket_whose_norm_overflows_is_a_parse_error(obj):
    # the entries are finite but the norm is past the float range: the reader
    # names it (residual inf), with no numpy overflow warning on the way
    with pytest.raises(ParseError, match="ket norm differs from 1 by inf") as info:
        state_from_json_obj(obj)
    assert isinstance(info.value.__cause__, NotNormalized)
    assert info.value.__cause__.residual == np.inf


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


def test_density_matrix_refuses_a_matrix_of_another_shape():
    with pytest.raises(ShapeMismatch, match="does not match qudit shape"):
        DensityMatrix(QuditShape(2, 1), np.eye(4) / 4)


def test_random_orthonormal_refuses_more_vectors_than_the_dimension():
    with pytest.raises(CountOutOfRange, match="cannot fit 3"):
        random_orthonormal(np.random.default_rng(0), 2, 3)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda rng: random_density(rng, QuditShape(2, 1), 0), "rank must be at least 1", id="rank-0"),
        pytest.param(lambda rng: random_density(rng, QuditShape(2, 1), 5), r"rank=5 not in \[1, 2\]", id="rank-5"),
        pytest.param(lambda rng: random_density(rng, QuditShape(2, 1), 1.0), "must be an integer", id="rank-float"),
        pytest.param(lambda rng: random_orthonormal(rng, 4, 1.5), "must be an integer", id="count-float"),
        pytest.param(lambda rng: random_orthonormal(rng, 4, -1), "must be nonnegative", id="count-negative"),
        pytest.param(lambda rng: random_psd(rng, 2, 0), "rank must be at least 1", id="psd-rank-0"),
        pytest.param(lambda rng: random_psd(rng, 2, -1), "rank must be at least 1", id="psd-rank-negative"),
        pytest.param(lambda rng: random_psd(rng, 2, 3), r"rank=3 not in \[1, 2\]", id="psd-rank-3"),
        pytest.param(lambda rng: random_psd(rng, 0), "dimension must be at least 1", id="psd-dim-0"),
        pytest.param(lambda rng: random_hermitian(rng, 1.5), "must be an integer", id="hermitian-dim-float"),
        pytest.param(lambda rng: random_hermitian(rng, -2), "dimension must be at least 1", id="hermitian-dim-negative"),
    ],
)
def test_random_counts_go_through_the_count_rule(call, message):
    # a rank of zero once divided by a zero trace (random_psd returned the
    # zero matrix), a rank above the dimension silently drew a full-rank
    # state, and a float or negative dimension reached numpy
    with pytest.raises(CountOutOfRange, match=message):
        call(np.random.default_rng(0))



def test_checked_draws_keep_their_bits():
    # the count checks draw nothing: each draw is the Ginibre formula it was
    rng = np.random.default_rng(11)
    parts = rng.standard_normal((2, 3, 3))
    g = parts[0] + 1j * parts[1]
    assert random_hermitian(np.random.default_rng(11), np.int64(3)).tobytes() == ((g + g.conj().T) / 2).tobytes()
    for rank in (None, 3, 2):
        rng = np.random.default_rng(11)
        parts = rng.standard_normal((2, 3, rank or 3))
        b = parts[0] + 1j * parts[1]
        assert random_psd(np.random.default_rng(11), 3, rank).tobytes() == (b @ b.conj().T).tobytes()
