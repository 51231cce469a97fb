import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import qindel.acceptance
import qindel.cli
import qindel.feasibility as feasibility
from qindel.channels import delete, deletion_sphere
from qindel.cli import main
from qindel.codes import example_rho
from qindel.errors import CountOutOfRange
from qindel.rand import random_density
from qindel.states import (
    DensityMatrix,
    QuditShape,
    basis_ket,
    density_from_ket,
    save_state,
    state_from_json_obj,
    state_to_json_obj,
)
from conftest import failing_from


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def _write_pure(tmp_path, digits, name):
    shape = QuditShape(2, len(digits))
    rho = density_from_ket(basis_ket(digits, shape), shape)
    path = tmp_path / name
    save_state(rho, path)
    return path


def test_sphere_builtin_rho(tmp_path, capsys):
    out = tmp_path / "sphere.json"
    code, report, _ = run_cli(capsys, "sphere", "builtin:rho", "--s", "1", "--out", str(out))
    assert code == 0
    assert report["results"]["cardinality"] == 1
    assert report["results"]["pre_dedup"] == 2
    states = [state_from_json_obj(obj) for obj in json.loads(out.read_text())]
    assert len(states) == 1
    np.testing.assert_allclose(states[0].mat, np.eye(2) / 2, atol=1e-12)


def test_sphere_full_deletion(tmp_path, capsys):
    out = tmp_path / "sphere.json"
    code, report, _ = run_cli(
        capsys, "sphere", "builtin:hagiwara4:0,0", "--s", "4", "--out", str(out)
    )
    assert code == 0
    assert report["results"]["cardinality"] == 1
    (scalar,) = [state_from_json_obj(obj) for obj in json.loads(out.read_text())]
    assert scalar.length == 0


def test_sphere_from_file(tmp_path, capsys):
    path = _write_pure(tmp_path, "01", "s01.json")
    out = tmp_path / "sphere.json"
    code, report, _ = run_cli(capsys, "sphere", str(path), "--s", "1", "--out", str(out))
    assert code == 0
    assert report["results"]["cardinality"] == 2


def test_sphere_file_holds_the_state_objects(tmp_path, capsys):
    rho = example_rho(0.5, 0.5)
    path = tmp_path / "rho.json"
    save_state(rho, path)
    out = tmp_path / "sphere.json"
    code, _, _ = run_cli(capsys, "sphere", str(path), "--s", "1", "--out", str(out))
    assert code == 0
    expected = [state_to_json_obj(s) for s in deletion_sphere(rho, 1).states]
    assert json.loads(out.read_text(encoding="utf-8")) == expected


def test_distance_rejects_malformed_files(tmp_path, capsys):
    good = _write_pure(tmp_path, "01", "good.json")
    ragged = tmp_path / "ragged.json"
    ragged.write_text(
        '{"level": 2, "length": 1, "kind": "mixed", '
        '"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]]}'
    )
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(good.read_bytes()[:-1] + b', "note": "\xe9"}')
    for bad in (ragged, not_utf8):
        code, report, err = run_cli(capsys, "distance", str(bad), str(good))
        assert code == 3
        assert report is None
        assert "Traceback" not in err


def test_distance_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    save_state(example_rho(0.5, 0.5), a)
    shape = QuditShape(2, 2)
    k01, k10 = basis_ket("01", shape), basis_ket("10", shape)
    from qindel.states import DensityMatrix

    save_state(
        DensityMatrix(shape, 0.5 * np.outer(k01, k01) + 0.5 * np.outer(k10, k10)),
        tmp_path / "b.json",
    )
    code, report, _ = run_cli(capsys, "distance", str(a), str(tmp_path / "b.json"))
    assert code == 0
    assert report["results"]["value"] == 2

    code, report, _ = run_cli(capsys, "distance", str(a), str(a))
    assert code == 0
    assert report["results"]["value"] == 0

    p0 = _write_pure(tmp_path, "0", "p0.json")
    p01 = _write_pure(tmp_path, "01", "p01.json")
    code, report, _ = run_cli(capsys, "distance", str(p0), str(p01))
    assert report["results"]["value"] == 1


def test_distance_report_is_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.json"
    save_state(example_rho(0.5, 0.5), a)
    _, first, _ = run_cli(capsys, "distance", str(a), str(a))
    _, second, _ = run_cli(capsys, "distance", str(a), str(a))
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_each_state_file_is_read_once_and_named_by_its_digest(tmp_path, capsys, monkeypatch):
    code_dir = tmp_path / "code"
    code_dir.mkdir()
    for name, digits in (("a.json", "00"), ("b.json", "11")):
        _write_pure(code_dir, digits, name)
    a, b = code_dir / "a.json", code_dir / "b.json"
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path.name) or read_bytes(path))

    def digest(path):
        return hashlib.sha256(read_bytes(path)).hexdigest()[:16]

    code, report, _ = run_cli(capsys, "distance", str(a), str(b))
    assert code == 0
    assert report["inputs"] == {"a": digest(a), "b": digest(b)}
    assert sorted(reads) == ["a.json", "b.json"]
    reads.clear()
    code, report, _ = run_cli(capsys, "verify", str(code_dir), "--t", "1")
    assert code == 0
    assert report["inputs"]["code"] == f"{digest(a)},{digest(b)}"
    assert sorted(reads) == ["a.json", "b.json"]


def test_verify_deletions(capsys):
    code, report, _ = run_cli(capsys, "verify", "builtin:hagiwara4", "--t", "1")
    assert code == 0
    assert report["results"]["verdict"]["ok"] is True

    code, report, _ = run_cli(capsys, "verify", "builtin:x1", "--t", "1")
    assert code == 1
    assert report["results"]["verdict"]["evidence"]["min_distance"] == 2

    code, report, _ = run_cli(capsys, "verify", "builtin:hagiwara4", "--t", "1", "--errors", "indel")
    assert code == 0


def test_verify_insertions(capsys):
    code, report, _ = run_cli(
        capsys, "verify", "builtin:{rho,psi}", "--t", "1", "--errors", "insertions"
    )
    assert code == 0
    assert report["results"]["verdict"]["ok"] is True

    # lifted dimension 2^5 exceeds the feasibility cap
    code, _, err = run_cli(
        capsys, "verify", "builtin:hagiwara4", "--t", "1", "--errors", "insertions"
    )
    assert code == 3
    assert "SizeCapExceeded" in err


def test_verify_inconclusive_exit(tmp_path, monkeypatch, capsys):
    # two marginals of a rank-2 3-qubit state: the pair that meets needs dual
    # iterations, so a cap of 3 leaves the tri-state verdict unknown
    tau = random_density(np.random.default_rng(0), QuditShape(2, 3), 2)
    save_state(delete(tau, {1}), tmp_path / "a.json")
    save_state(delete(tau, {2}), tmp_path / "b.json")
    argv = ("verify", str(tmp_path), "--t", "1", "--errors", "insertions")
    code, report, _ = run_cli(capsys, *argv)
    assert code == 1 and report["results"]["verdict"]["ok"] is False
    monkeypatch.setattr(feasibility, "MAX_ITERATIONS", 3)
    code, report, _ = run_cli(capsys, *argv)
    assert code == 2
    assert report["results"]["verdict"]["ok"] is None


def test_verify_collision_pair(capsys):
    code, report, _ = run_cli(capsys, "verify", "builtin:collision-x2", "--t", "1")
    assert code == 0
    assert report["results"]["verdict"]["evidence"]["min_distance"] == 4


def test_verify_directory(tmp_path, capsys):
    _write_pure(tmp_path, "00", "a.json")
    _write_pure(tmp_path, "11", "b.json")
    code, report, _ = run_cli(capsys, "verify", str(tmp_path), "--t", "1")
    assert code == 0  # distance 4 >= 3
    assert report["inputs"]["size"] == 2


def test_verify_directory_with_coinciding_files_exits_3(tmp_path, capsys):
    rho = example_rho(0.5, 0.5)
    save_state(rho, tmp_path / "a.json")
    save_state(rho, tmp_path / "b.json")
    code, report, err = run_cli(capsys, "verify", str(tmp_path), "--t", "1")
    assert code == 3 and report is None
    assert "DuplicateStates" in err and "'a.json' and 'b.json'" in err
    assert "Traceback" not in err


def test_verify_directory_duplicate_check_reads_eq_tol(tmp_path, capsys):
    _write_pure(tmp_path, "00", "a.json")
    _write_pure(tmp_path, "11", "b.json")  # Frobenius distance sqrt(2)
    code, report, err = run_cli(capsys, "verify", str(tmp_path), "--t", "1", "--eq-tol", "1.5")
    assert code == 3 and report is None
    assert "DuplicateStates" in err


def test_verify_grid_override(capsys):
    code, report, _ = run_cli(capsys, "verify", "builtin:x1", "--t", "1", "--grid", "3,4")
    assert code == 1
    assert report["inputs"]["size"] < len_default()


def test_verify_grid_default_is_the_builtin_grid(capsys):
    # --grid 5,8 names the default grid, built by the same code_params
    _, plain, _ = run_cli(capsys, "verify", "builtin:hagiwara4", "--t", "1")
    _, gridded, _ = run_cli(capsys, "verify", "builtin:hagiwara4", "--t", "1", "--grid", "5,8")
    for report in (plain, gridded):
        report.pop("elapsed_ms")
    assert gridded == plain


def test_verify_builtin_code_dedups_at_eq_tol(capsys):
    # the grid is deduplicated at the tolerance it is checked at: two states
    # within eq_tol merge, rather than meeting at distance 0
    code, report, _ = run_cli(capsys, "verify", "builtin:x1", "--t", "1", "--eq-tol", "0.3")
    assert code == 1
    assert report["inputs"]["size"] == 26 < len_default()
    assert report["results"]["verdict"]["evidence"]["min_distance"] == 2
    code, report, err = run_cli(capsys, "verify", "builtin:collision-x2", "--eq-tol", "2")
    assert code == 3 and report is None
    assert "DuplicateStates" in err


def len_default():
    from qindel.codes import builtin_code

    return len(builtin_code("x1"))


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "builtin:nope")
    assert code == 3
    code, _, err = run_cli(capsys, "verify", "builtin:x1", "--grid", "bad")
    assert code == 3
    code, _, err = run_cli(capsys, "sphere", "/nonexistent.json", "--s", "1", "--out", "/tmp/x")
    assert code == 3
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 3


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch, capsys):
    # the parser is built once per process; each report and exit code is the
    # one a freshly built parser gives, a usage error between calls included
    monkeypatch.setattr(qindel.cli, "run_all", lambda seed: {"items": [{"status": "pass", "name": "seed", "details": seed}]})
    a, b = _write_pure(tmp_path, "01", "a.json"), _write_pure(tmp_path, "10", "b.json")
    calls = [
        ("verify", "builtin:x1", "--grid", "3,2", "--t", "1", "--errors", "indel"),
        ("verify", "builtin:x1", "--t", "one"),
        ("distance", str(a), str(b), "--eq-tol", "1e-6"),
        ("paper-examples", "--seed", "7"),
    ]

    def outcome(argv):
        code, report, err = run_cli(capsys, *argv)
        if report is not None:
            report.pop("elapsed_ms")
        return code, report, err

    qindel.cli._build_parser.cache_clear()
    shared = [outcome(argv) for argv in calls]
    assert qindel.cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        qindel.cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 3, 0, 0]
    assert shared[3][1]["results"]["items"][0]["details"] == 7


def test_sphere_names_an_out_of_range_count_by_its_flag(tmp_path, capsys):
    out = tmp_path / "x.json"
    code, report, err = run_cli(capsys, "sphere", "builtin:rho", "--s", "3", "--out", str(out))
    assert code == 3 and report is None
    assert err == "error: CountOutOfRange: deletion count s=3 not in [0, 2]\n"
    assert not out.exists()


def test_sphere_unwritable_out_exits_3(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, report, err = run_cli(capsys, "sphere", "builtin:rho", "--s", "1", "--out", str(out))
    assert code == 3 and report is None
    assert f"error: cannot write {out}: " in err
    assert "Traceback" not in err


def test_paper_examples_unwritable_report_exits_3(tmp_path, monkeypatch, capsys):
    # refused before the suite runs: it is never called and prints no criterion line
    monkeypatch.setattr(qindel.cli, "run_all", lambda seed: pytest.fail("the suite ran"))
    path = tmp_path / "missing" / "r.json"
    code, report, err = run_cli(capsys, "paper-examples", "--report", str(path))
    assert code == 3 and report is None
    assert f"error: cannot write {path}: " in err
    assert "Traceback" not in err
    assert not any(line.startswith(("PASS", "FAIL")) for line in err.splitlines())


def test_paper_examples_refuses_a_negative_seed(tmp_path, monkeypatch, capsys):
    # refused before the report is opened or the suite runs
    monkeypatch.setattr(qindel.cli, "run_all", lambda seed: pytest.fail("the suite ran"))
    path = tmp_path / "r.json"
    code, report, err = run_cli(capsys, "paper-examples", "--seed", "-5", "--report", str(path))
    assert code == 3 and report is None
    assert err == "error: --seed must be nonnegative, got -5\n"
    assert not path.exists()
    with pytest.raises(CountOutOfRange, match="nonnegative"):  # and so is the suite's own seed
        qindel.acceptance.run_all(-5)


def test_a_state_file_with_a_spectrum_past_the_float_range_exits_3(tmp_path, capsys):
    # finite and Hermitian, but its eigenvalue 2e308 is not a float
    path = tmp_path / "huge.json"
    path.write_text(
        '{"level": 2, "length": 1, "kind": "mixed", '
        '"matrix": [[[1e308, 0], [1e308, 0]], [[1e308, 0], [1e308, 0]]]}'
    )
    good = _write_pure(tmp_path, "0", "good.json")
    code, report, err = run_cli(capsys, "distance", str(path), str(good))
    assert code == 3 and report is None
    assert err.startswith("error: NoConvergence: ") and "non-finite spectrum" in err


def test_verify_reports_an_eigensolver_failure_as_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigh", failing_from(3, np.linalg.eigh))
    code, report, err = run_cli(capsys, "verify", "builtin:{rho,psi}", "--errors", "insertions")
    assert code == 3 and report is None
    assert err.startswith("error: NoConvergence: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["paper-examples", "--eq-tol", "1e-9"],
        ["paper-examples", "--psd-tol", "1e-9"],
        ["paper-examples", "--feas-tol", "1e-6"],
        ["paper-examples", "--gap-tol", "1e-3"],
        ["sphere", "builtin:rho", "--s", "1", "--out", "unused.json", "--feas-tol", "1e-6"],
        ["sphere", "builtin:rho", "--s", "1", "--out", "unused.json", "--gap-tol", "1e-3"],
        ["sphere", "builtin:rho", "--s", "1", "--out", "unused.json", "--seed", "1"],
        ["distance", "builtin:rho", "builtin:psi", "--feas-tol", "1e-6"],
        ["distance", "builtin:rho", "builtin:psi", "--gap-tol", "1e-3"],
        ["distance", "builtin:rho", "builtin:psi", "--seed", "1"],
        ["verify", "builtin:x1", "--seed", "1"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_options_a_command_ignores_are_usage_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, report, err = run_cli(capsys, *argv)
    assert code == 3 and report is None
    assert "unrecognized arguments" in err
    assert not (tmp_path / "unused.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["distance", "builtin:hagiwara4:inf,0", "builtin:x1"], "theta and phi must be finite, got 'inf,0'"),
        (["distance", "builtin:hagiwara4:0,nan", "builtin:x1"], "theta and phi must be finite, got '0,nan'"),
        (["distance", "builtin:rho:0.3,0.1", "builtin:psi"], "builtin state 'rho' takes no parameters"),
        (["verify", "builtin:collision-x2", "--grid", "3,2"], "--grid applies only to builtin:x1"),
        (["verify", "builtin:{rho,psi}", "--grid", "3,2"], "--grid applies only to builtin:x1"),
        (["verify", ".", "--grid", "3,2"], "--grid applies only to builtin:x1"),
        (["verify", "builtin:x1", "--grid", "1,8"], "CountOutOfRange: a grid needs n_theta >= 2"),
        # braces always make a list of builtin states, never a named code
        (["verify", "builtin:{x1}", "--t", "1"], "TooFewStates: need at least 2 states, got 1"),
        (["verify", "builtin:{rho}"], "TooFewStates: need at least 2 states, got 1"),
        (["verify", "builtin:{x1}", "--grid", "3,2"], "--grid applies only to builtin:x1"),
        (["verify", "builtin:{rho,psi"], "unbalanced braces in code spec 'builtin:{rho,psi'"),
        (["verify", "builtin:rho,psi}"], "unbalanced braces"),
    ],
    ids=["inf-angle", "nan-angle", "rho-parameters", "collision-grid", "list-grid", "directory-grid",
         "one-angle-grid", "one-code-list", "one-state-list", "one-code-list-grid", "open-brace", "close-brace"],
)
def test_spec_inputs_a_command_cannot_honour_are_usage_errors(argv, message, tmp_path, monkeypatch, capsys):
    # the directory holds one state file, so only --grid is wrong with it
    monkeypatch.chdir(tmp_path)
    _write_pure(tmp_path, "00", "a.json")
    code, report, err = run_cli(capsys, *argv)
    assert code == 3 and report is None
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--eq-tol", "-1"],
        ["--psd-tol", "nan"],
        ["--psd-tol", "inf"],
        ["--feas-tol", "-1"],
        ["--feas-tol", "0"],
    ],
    ids=lambda flags: f"{flags[0]}={flags[1]}",
)
def test_invalid_tolerances_exit_3_with_no_report(flags, capsys):
    code, report, err = run_cli(capsys, "verify", "builtin:{rho,psi}", "--errors", "insertions", *flags)
    assert code == 3 and report is None
    assert "InvalidTolerance" in err
    assert "Traceback" not in err


def test_eq_tol_override_keeps_the_psd_default(tmp_path, capsys):
    """A 6-qubit state with a -1e-8 eigenvalue is PSD within the default
    psd_tol (1e-9 * 64); setting eq_tol alone must not tighten psd_tol."""
    rng = np.random.default_rng(8)
    shape = QuditShape(2, 6)
    weights = rng.random(shape.dim)
    weights[0] = 0.0
    weights *= (1 + 1e-8) / weights.sum()
    weights[0] = -1e-8
    q, _ = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    mat = (q * weights) @ q.conj().T
    path = tmp_path / "state.json"
    save_state(DensityMatrix(shape, (mat + mat.conj().T) / 2), path)
    for flags in (["--eq-tol", "1e-8"], []):
        code, report, err = run_cli(capsys, "distance", str(path), str(path), *flags)
        assert code == 0, err
        assert report["results"]["value"] == 0
        assert report["tolerances"]["psd_tol"] == "1e-9*dim"


def test_reports_echo_only_the_options_a_command_reads(tmp_path, capsys):
    out = tmp_path / "sphere.json"
    _, report, _ = run_cli(capsys, "sphere", "builtin:rho", "--s", "1", "--out", str(out), "--eq-tol", "1e-8")
    assert report["tolerances"] == {"eq_tol": 1e-8, "psd_tol": "1e-9*dim"}
    assert "seed" not in report
    _, report, _ = run_cli(capsys, "distance", "builtin:rho", "builtin:psi")
    assert report["tolerances"] == {"eq_tol": "1e-9*sqrt(dim)", "psd_tol": "1e-9*dim"}
    assert "seed" not in report
    _, report, _ = run_cli(capsys, "verify", "builtin:{rho,psi}", "--feas-tol", "1e-7")
    assert report["tolerances"] == {"eq_tol": "1e-9*sqrt(dim)", "psd_tol": "1e-9*dim", "feas_tol": 1e-7}
    assert "seed" not in report


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """One CLI suite run per seed; shared across the assertions below."""
    runs = {}
    for seed in (0, 1):
        tmp = tmp_path_factory.mktemp(f"suite{seed}")
        report_path = tmp / "report.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["paper-examples", "--seed", str(seed), "--report", str(report_path)])
        runs[seed] = (code, json.loads(report_path.read_text()), json.loads(out.getvalue()))
    return runs


def test_paper_examples_all_pass(suite_runs, capsys):
    code, report, _ = suite_runs[0]
    assert code == 0
    assert len(report["items"]) == 9
    assert all(item["status"] == "pass" for item in report["items"])
    for item in report["items"]:
        assert isinstance(item["residual"], float)


def test_paper_examples_report_keys(suite_runs):
    for seed, (_, suite, report) in suite_runs.items():
        assert report["seed"] == seed
        assert "tolerances" not in report  # the suite pins its own, in results
        assert report["results"]["tolerances"] == suite["tolerances"]


def test_paper_examples_seed_changes_only_witnesses(suite_runs):
    verdicts0 = [(i["name"], i["status"]) for i in suite_runs[0][1]["items"]]
    verdicts1 = [(i["name"], i["status"]) for i in suite_runs[1][1]["items"]]
    assert verdicts0 == verdicts1


def test_verify_refuses_code_specs_that_name_no_states(tmp_path, capsys):
    code, report, err = run_cli(capsys, "verify", str(tmp_path / "missing"))
    assert code == 3 and report is None and "neither builtin:... nor a directory" in err
    code, report, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 3 and report is None and "contains no .json state files" in err
