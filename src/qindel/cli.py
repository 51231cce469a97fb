"""Command-line verifier.

Subcommands: ``sphere`` (deletion spheres), ``distance`` (indel distance),
``verify`` (code-capability verdicts), ``paper-examples`` (the full
reproduction suite).  Exit codes: 0 success/true, 1 falsified, 2 inconclusive,
3 usage or parse error.  Each command returns its exit code and report
parts, and ``main`` times it and prints the one report: JSON on stdout,
deterministic for fixed inputs and seed (the ``elapsed_ms`` field is
wall-clock, argument parsing included, and excluded from that contract).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from .acceptance import run_all
from .codes import builtin_code, builtin_state, code_params
from .distance import CodeSample, corrects, corrects_insertions, indel_distance
from .channels import deletion_sphere
from .errors import CountOutOfRange, ParseError, QindelError
from .linalg import Tolerance
from .states import DensityMatrix, _count, load_state, save_states

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


def _load_file(path: Path, tol: Tolerance) -> tuple[DensityMatrix, str]:
    """The state in file ``path`` and the first 16 hex digits of the file's
    sha256, from one read of the file."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read state file {path}: {exc}") from exc
    return load_state(path, tol, data=data), hashlib.sha256(data).hexdigest()[:16]


def _load_state_spec(spec: str, tol: Tolerance) -> tuple[DensityMatrix, str]:
    if spec.startswith("builtin:"):
        rest = spec[len("builtin:"):]
        name, _, params = rest.partition(":")
        return builtin_state(name, params or None), spec
    return _load_file(Path(spec), tol)


def _grid_params(grid: str | None):
    """The code parameters ``--grid N_THETA,N_PHI`` asks for; None without it."""
    if grid is None:
        return None
    try:
        n_theta, n_phi = (int(x) for x in grid.split(","))
    except ValueError as exc:
        raise ParseError(f"--grid expects 'N_THETA,N_PHI' integers, got {grid!r}") from exc
    return code_params(n_theta, n_phi)


def _load_code_spec(spec: str, grid: str | None, tol: Tolerance) -> tuple[CodeSample, str]:
    names, listed = [], False
    if spec.startswith("builtin:"):
        body = spec[len("builtin:"):]
        listed = body[:1] == "{" and body[-1:] == "}"  # braces always make a list of builtin states
        inner = body[1:-1] if listed else body
        if "{" in inner or "}" in inner:
            raise ParseError(f"unbalanced braces in code spec {spec!r}")
        names = [n.strip() for n in inner.split(",")]
    if grid is not None and (listed or names not in (["x1"], ["hagiwara4"])):
        raise ParseError(f"--grid applies only to builtin:x1 and builtin:hagiwara4, got {spec!r}")
    if listed or len(names) > 1:
        return CodeSample.from_states([builtin_state(n) for n in names], names, tol), spec
    if names:
        return builtin_code(names[0], _grid_params(grid), tol), spec
    path = Path(spec)
    if not path.is_dir():
        raise ParseError(f"code spec {spec!r} is neither builtin:... nor a directory")
    files = sorted(path.glob("*.json"))
    if not files:
        raise ParseError(f"directory {spec!r} contains no .json state files")
    states, digests = zip(*(_load_file(f, tol) for f in files))
    return CodeSample.from_states(states, [f.name for f in files], tol), ",".join(digests)


def _report(args, inputs: dict, results: dict, elapsed_ms: int) -> dict:
    """``seed`` and ``tolerances`` echo only the options the command accepts;
    a tolerance is echoed with its value, or with its rule if left unset."""
    report = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "elapsed_ms": elapsed_ms,
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


def _cmd_sphere(args) -> tuple[int, dict, dict]:
    tol = _tolerance(args)
    state, digest = _load_state_spec(args.state, tol)
    sphere = deletion_sphere(state, args.s, tol)
    try:
        save_states(sphere.states, args.out)
    except OSError as exc:
        raise ParseError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    results = {
        "cardinality": len(sphere),
        "pre_dedup": sphere.raw_count,
        "out": str(args.out),
    }
    print(f"deletion sphere: {len(sphere)} distinct of {sphere.raw_count} raw", file=sys.stderr)
    return EXIT_TRUE, {"state": digest, "s": args.s}, results


def _cmd_distance(args) -> tuple[int, dict, dict]:
    tol = _tolerance(args)
    a, digest_a = _load_state_spec(args.state_a, tol)
    b, digest_b = _load_state_spec(args.state_b, tol)
    return EXIT_TRUE, {"a": digest_a, "b": digest_b}, indel_distance(a, b, tol).to_json_obj()


_VERDICT_EXIT = {True: EXIT_TRUE, False: EXIT_FALSE, None: EXIT_UNKNOWN}


def _cmd_verify(args) -> tuple[int, dict, dict]:
    code, digest = _load_code_spec(args.code, args.grid, _tolerance(args))
    kind = "total" if args.errors == "indel" else args.errors
    verdict = corrects_insertions(code, args.t) if kind == "insertions" else corrects(code, args.t, kind)
    results = {"errors": args.errors, "t": args.t, "verdict": verdict.to_json_obj()}
    return _VERDICT_EXIT[verdict.ok], {"code": digest, "size": len(code)}, results


def _cmd_paper_examples(args) -> tuple[int, dict, dict]:
    try:  # refused as a usage error, before the report file is opened
        _count(args.seed, "--seed")
    except CountOutOfRange as exc:
        raise ParseError(str(exc)) from exc
    # the report file is opened first, so an unwritable path is refused before the suite runs
    try:
        report_file = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as exc:
        raise ParseError(f"cannot write {args.report}: {exc.strerror or exc}") from exc
    with report_file or contextlib.nullcontext():
        suite = run_all(args.seed)
        if report_file:
            report_file.write(json.dumps(suite, sort_keys=True))
    for item in suite["items"]:
        print(f"{item['status'].upper():4s} {item['name']}: {item['details']}", file=sys.stderr)
    return (EXIT_TRUE if all(i["status"] == "pass" for i in suite["items"]) else EXIT_FALSE), {}, suite


@functools.cache  # built once per process: parsing leaves the parser as it was
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
    p_verify.add_argument("--grid", default=None, help="N_THETA,N_PHI grid (builtin:x1, builtin:hagiwara4)")
    _add_state_tolerances(p_verify)
    p_verify.add_argument("--feas-tol", type=float, default=None, help="feasibility residual threshold")
    p_verify.set_defaults(func=_cmd_verify)

    p_suite = sub.add_parser("paper-examples", help="run the full reproduction suite")
    p_suite.add_argument("--report", default=None, help="also write the report JSON here")
    p_suite.add_argument("--seed", type=int, default=0, help="nonnegative seed of the suite's random draws")
    p_suite.set_defaults(func=_cmd_paper_examples)

    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, inputs, results = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QindelError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(_report(args, inputs, results, int((time.monotonic() - started) * 1000)))
    return code


if __name__ == "__main__":
    sys.exit(main())
