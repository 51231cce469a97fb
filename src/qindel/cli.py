"""Command-line verifier.

Subcommands: ``sphere`` (deletion spheres), ``distance`` (indel distance),
``verify`` (code-capability verdicts), ``paper-examples`` (the full
reproduction suite).  Exit codes: 0 success/true, 1 falsified, 2 inconclusive,
3 usage or parse error.  Reports are JSON on stdout and deterministic for
fixed inputs and seed (the ``elapsed_ms`` field is wall-clock and excluded
from that contract).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from .acceptance import run_all
from .codes import builtin_code, builtin_state, code_params
from .distance import CodeSample, Verdict, corrects, corrects_insertions, indel_distance
from .channels import deletion_sphere
from .errors import ParseError, QindelError
from .linalg import Tolerance
from .states import DensityMatrix, load_state, save_states

__all__ = ["main"]

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2 by default; the contract says 3
        raise ParseError(message)


def _add_state_tolerances(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eq-tol", type=float, default=None, help="equality threshold override")
    parser.add_argument("--psd-tol", type=float, default=None, help="PSD eigenvalue floor override")


_TOLERANCES = ("eq_tol", "psd_tol", "feas_tol")


def _tolerance(args) -> Tolerance:
    """The tolerance the command's flags set; the rest keep their defaults."""
    return Tolerance(
        **{name: getattr(args, name) for name in _TOLERANCES if getattr(args, name, None) is not None}
    )


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _load_state_spec(spec: str, tol: Tolerance) -> tuple[DensityMatrix, str]:
    if spec.startswith("builtin:"):
        rest = spec[len("builtin:"):]
        name, _, params = rest.partition(":")
        return builtin_state(name, params or None), spec
    path = Path(spec)
    return load_state(path, tol), _digest(path)


def _grid_params(grid: str | None):
    """The code parameters ``--grid N_THETA,N_PHI`` asks for; None without it."""
    if grid is None:
        return None
    try:
        n_theta, n_phi = (int(x) for x in grid.split(","))
        if n_theta < 2 or n_phi < 1:
            raise ValueError
    except ValueError as exc:
        raise ParseError(f"--grid expects 'N_THETA,N_PHI' with N_THETA>=2, got {grid!r}") from exc
    return code_params(n_theta, n_phi)


def _load_code_spec(spec: str, grid: str | None, tol: Tolerance) -> tuple[CodeSample, str]:
    if spec.startswith("builtin:"):
        rest = spec[len("builtin:"):].strip("{}")
        names = [n.strip() for n in rest.split(",")]
        if len(names) > 1:
            states = [builtin_state(n) for n in names]
            return CodeSample.from_states(states, names, tol), spec
        return builtin_code(names[0], _grid_params(grid), tol), spec
    path = Path(spec)
    if not path.is_dir():
        raise ParseError(f"code spec {spec!r} is neither builtin:... nor a directory")
    files = sorted(path.glob("*.json"))
    if not files:
        raise ParseError(f"directory {spec!r} contains no .json state files")
    states = [load_state(f, tol) for f in files]
    return CodeSample.from_states(states, [f.name for f in files], tol), ",".join(_digest(f) for f in files)


def _report(args, inputs: dict, results: dict, started: float) -> dict:
    """``seed`` and ``tolerances`` echo only the options the command accepts;
    a tolerance is echoed with its value, or with its rule if left unset."""
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    tolerances = {
        name: value for name, value in _tolerance(args).to_json_obj().items() if hasattr(args, name)
    }
    if tolerances:
        report["tolerances"] = tolerances
    if hasattr(args, "seed"):
        report["seed"] = args.seed
    return report


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True))


def _cmd_sphere(args) -> int:
    started = time.monotonic()
    tol = _tolerance(args)
    state, digest = _load_state_spec(args.state, tol)
    sphere = deletion_sphere(state, args.s, tol)
    save_states(sphere.states, args.out)
    results = {
        "cardinality": len(sphere),
        "pre_dedup": sphere.raw_count,
        "out": str(args.out),
    }
    print(f"deletion sphere: {len(sphere)} distinct of {sphere.raw_count} raw", file=sys.stderr)
    _emit(_report(args, {"state": digest, "s": args.s}, results, started))
    return EXIT_TRUE


def _cmd_distance(args) -> int:
    started = time.monotonic()
    tol = _tolerance(args)
    a, digest_a = _load_state_spec(args.state_a, tol)
    b, digest_b = _load_state_spec(args.state_b, tol)
    result = indel_distance(a, b, tol)
    _emit(_report(args, {"a": digest_a, "b": digest_b}, result.to_json_obj(), started))
    return EXIT_TRUE


def _verdict_exit(verdict: Verdict) -> int:
    if verdict.ok is True:
        return EXIT_TRUE
    if verdict.ok is False:
        return EXIT_FALSE
    return EXIT_UNKNOWN


def _cmd_verify(args) -> int:
    started = time.monotonic()
    tol = _tolerance(args)
    code, digest = _load_code_spec(args.code, args.grid, tol)
    if args.errors == "deletions":
        verdict = corrects(code, args.t, "deletions", tol)
    elif args.errors == "indel":
        verdict = corrects(code, args.t, "total", tol)
    else:
        verdict = corrects_insertions(code, args.t, tol)
    results = {"errors": args.errors, "t": args.t, "verdict": verdict.to_json_obj()}
    _emit(_report(args, {"code": digest, "size": len(code)}, results, started))
    return _verdict_exit(verdict)


def _cmd_paper_examples(args) -> int:
    started = time.monotonic()
    suite = run_all(args.seed)
    if args.report:
        Path(args.report).write_text(json.dumps(suite, sort_keys=True), encoding="utf-8")
    for item in suite["items"]:
        print(f"{item['status'].upper():4s} {item['name']}: {item['details']}", file=sys.stderr)
    _emit(_report(args, {}, suite, started))
    return EXIT_TRUE if all(i["status"] == "pass" for i in suite["items"]) else EXIT_FALSE


def _build_parser() -> _Parser:
    parser = _Parser(prog="qindel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sphere = sub.add_parser("sphere", help="write the deduplicated s-deletion sphere of a state")
    p_sphere.add_argument("state", help="state file or builtin:NAME[:theta,phi]")
    p_sphere.add_argument("--s", type=int, required=True, help="number of deletions")
    p_sphere.add_argument("--out", required=True, help="output JSON path for the sphere")
    _add_state_tolerances(p_sphere)
    p_sphere.set_defaults(func=_cmd_sphere)

    p_dist = sub.add_parser("distance", help="quantum indel distance between two states")
    p_dist.add_argument("state_a")
    p_dist.add_argument("state_b")
    _add_state_tolerances(p_dist)
    p_dist.set_defaults(func=_cmd_distance)

    p_verify = sub.add_parser("verify", help="decide code-correcting capability")
    p_verify.add_argument("code", help="builtin:NAME, builtin:{a,b}, or a directory of state files")
    p_verify.add_argument("--t", type=int, default=1, help="error count to correct")
    p_verify.add_argument(
        "--errors", choices=("deletions", "indel", "insertions"), default="deletions"
    )
    p_verify.add_argument("--grid", default=None, help="N_THETA,N_PHI grid override for builtin codes")
    _add_state_tolerances(p_verify)
    p_verify.add_argument("--feas-tol", type=float, default=None, help="feasibility residual threshold")
    p_verify.set_defaults(func=_cmd_verify)

    p_suite = sub.add_parser("paper-examples", help="run the full reproduction suite")
    p_suite.add_argument("--report", default=None, help="also write the report JSON here")
    p_suite.add_argument("--seed", type=int, default=0, help="seed of the suite's random draws")
    p_suite.set_defaults(func=_cmd_paper_examples)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QindelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
