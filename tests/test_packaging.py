import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def _third_party_imports() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "qindel").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"qindel"}


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
        for dep in project["dependencies"]
    }
    imported = _third_party_imports()
    assert {"numpy", "orjson"} <= imported
    assert imported <= declared, f"imported but not declared: {sorted(imported - declared)}"


def test_every_exported_name_resolves():
    missing = []
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        module = importlib.import_module(f"qindel.{path.stem}".removesuffix(".__init__"))
        names = getattr(module, "__all__", ())
        missing += [f"{module.__name__}.{name}" for name in names if not hasattr(module, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Module-level import bindings that the module never reads: not as a
    name, not as an attribute base, and not in ``__all__``."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [name for name in bound if name not in read]


def test_no_module_imports_an_unused_name():
    unused = []
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            unused += [f"{path.stem}: {name}" for name in _unused_imports(tree)]
    assert not unused, f"imported but unused: {unused}"


FACTORIZATIONS = {"cholesky", "eig", "eigh", "eigvals", "eigvalsh"}


def test_only_linalg_calls_an_eigensolver():
    # every eigen-solve and Cholesky factorization runs inside linalg, which
    # maps a LAPACK failure to NoConvergence or to "not certified"; elsewhere
    # a solver may only be passed as an argument
    calls = []
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        if path.name != "linalg.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name in FACTORIZATIONS:
                        calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"eigensolver or factorization called outside linalg: {calls}"


# the containment and round-trip paths, from draw to verdict: states pass as
# bare matrices and same-shape read-only stacks, and only the public
# one-state calls wrap them
STACK_NATIVE = {
    "acceptance.py": {"_qubit_states", "check_containment", "check_insertion_roundtrip"},
    "channels.py": {"_sample_batch"},
    "feasibility.py": {"_containment_trials", "_members_ins_del", "check_containment_trials"},
    "rand.py": {"_random_densities"},
    "states.py": {"validate_stack"},
}


def test_the_containment_path_wraps_no_state():
    wraps = []
    for filename, names in STACK_NATIVE.items():
        tree = ast.parse((ROOT / "src" / "qindel" / filename).read_text(encoding="utf-8"))
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names]
        assert {function.name for function in functions} == names
        for function in functions:
            for node in ast.walk(function):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "DensityMatrix":
                        wraps.append(f"{filename}:{function.name}:{node.lineno}")
    assert not wraps, f"DensityMatrix built on the containment path: {wraps}"


STATE_FILE_CODECS = {"orjson", "base64"}


def test_only_states_imports_the_state_file_codecs():
    # the state-file encoding is decided in one module: a second importer of
    # the JSON or base64 codec could write or read a second format
    imports = []
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        if path.name != "states.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(name.split(".")[0] in STATE_FILE_CODECS for name in names):
                    imports.append(f"{path.name}:{node.lineno}")
    assert not imports, f"state-file codec imported outside states: {imports}"


# functions that may call np.linalg.norm: the dual solver's step norms, which
# steer its iterates; the acceptance suite keeps its own residuals as a check
# independent of the kernel
NORM_ALLOWED = {("feasibility.py", "_dual_solve")}


def test_every_frobenius_norm_goes_through_the_linalg_kernel():
    # linalg.frobenius_norm is the one Frobenius reduction (it reads inf, not
    # a RuntimeWarning, past the float range); a second one would give
    # eq_tol and feas_tol a second meaning
    calls = []
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        if path.name == "acceptance.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): func.name
            for func in tree.body
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.norm":
                if (path.name, owner.get(id(node))) not in NORM_ALLOWED:
                    calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"np.linalg.norm called outside the allow-list: {calls}"


SCREEN = ("channels.py", "_screened_distances")


def test_only_the_screen_reads_cross_distances():
    # every dedup and every comparison of states goes through the one screened
    # kernel, channels._screened_distances; the acceptance suite keeps its own
    # independent residuals, and linalg defines the kernel
    reads = []
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        if path.name in ("linalg.py", "acceptance.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): func.name
            for func in tree.body
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "cross_distances" and (path.name, owner.get(id(node))) != SCREEN:
                reads.append(f"{path.name}:{node.lineno}")
    assert not reads, f"cross_distances read outside channels._screened_distances: {reads}"


NAMES_DISTANCE_MUST_NOT_READ = {"deletion_sphere", "SphereSet", "_screened_distances", "cross_distances"}


def test_the_distance_walks_read_only_the_stacked_ladder():
    # every ladder distance.py walks comes from channels._dedup_levels, one
    # per stack of states, and every comparison it makes is a channels call:
    # first_meeting for the walks and the probe, pairs_meet for the pairs
    # metric_check walks in lockstep; the lone sphere path stays for the
    # sphere command
    path = ROOT / "src" / "qindel" / "distance.py"
    reads = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)]
        reads += [f"{name} at line {node.lineno}" for name in names if name in NAMES_DISTANCE_MUST_NOT_READ]
    assert not reads, f"distance.py reads the lone ladder or compares rows itself: {reads}"


CODE_DEDUP = ("distance.py", "CodeSample.__post_init__")
GREEDY_RULE = ("channels.py", "_dedup_levels")


def test_every_code_dedups_in_its_constructor():
    # one greedy rule: _distinct_mask is read only in channels._dedup_levels,
    # which every sphere, ladder and code dedups through, a code's inside
    # CodeSample.__init__, a grid code's too
    reads, owners = [], set()
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for top in tree.body:
            defs = [(top.name, top)] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef)]
            owner.update({id(node): name for name, func in defs for node in ast.walk(func)})
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "_distinct_mask" and (path.name, owner.get(id(node))) != GREEDY_RULE:
                reads.append(f"{path.name}:{node.lineno}")
            if name == "_dedup_levels":
                owners.add((path.name, owner.get(id(node))))
    assert not reads, f"_distinct_mask read outside channels._dedup_levels: {reads}"
    assert CODE_DEDUP in owners, "CodeSample.__post_init__ does not dedup through _dedup_levels"


COUNT_RAISES = {("states.py", "_count"), ("codes.py", "code_params")}


def test_only_the_count_rule_raises_count_out_of_range():
    # every count, length, level and seed, upper bounds included, is checked
    # by states._count; the grid's range keeps its own pinned message
    raises = []
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): func.name
            for func in tree.body
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) == "CountOutOfRange" and (path.name, owner.get(id(node))) not in COUNT_RAISES:
                raises.append(f"{path.name}:{node.lineno}")
    assert not raises, f"CountOutOfRange raised outside states._count: {raises}"


def test_cli_builds_and_prints_one_report():
    # each command returns its exit code and report parts to main, which reads
    # the clock at start and stop and prints the one report, so a new command
    # cannot grow its own report path
    tree = ast.parse((ROOT / "src" / "qindel" / "cli.py").read_text(encoding="utf-8"))
    owner = {
        id(node): func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
    }
    calls = sorted(
        (ast.unparse(node.func), owner.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("time.monotonic", "_emit")
    )
    assert calls == [("_emit", "main"), ("time.monotonic", "main"), ("time.monotonic", "main")]


def _named_errors() -> set[str]:
    errors = importlib.import_module("qindel.errors")
    return {name for name, obj in vars(errors).items() if getattr(obj, "__module__", None) == errors.__name__}


def _unnamed_raises(tree: ast.Module, named: set[str]) -> list[int]:
    """Lines of ``raise`` statements whose exception is not a class of
    ``named``, nor built by a helper annotated to return one, nor an
    ``AssertionError`` for an unreachable state; a bare re-raise passes."""
    helpers = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and getattr(node.returns, "id", None) in named
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", None) not in named | helpers | {"AssertionError"}:
                lines.append(node.lineno)
    return sorted(lines)


def test_every_raise_names_a_package_error():
    # bad input is refused with a named error, which the CLI reports as a usage error
    named = _named_errors()
    unnamed = []
    for path in sorted((ROOT / "src" / "qindel").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unnamed += [f"{path.name}:{line}" for line in _unnamed_raises(tree, named)]
    assert not unnamed, f"raise without a qindel.errors class: {unnamed}"


MODULES = sorted(path.stem for path in (ROOT / "src" / "qindel").glob("*.py") if path.stem != "__init__")
# a backticked `module.attr` or `module.attr.attr`, optionally `qindel.`-prefixed,
# at the start of a code span (a call's arguments may follow)
README_REFERENCE = re.compile(rf"`(?:qindel\.)?((?:{'|'.join(MODULES)})(?:\.\w+){{1,2}})(?![\w.])")


def _span_strings() -> set[str]:
    """Every string literal in ``perfbench/spans.py``, read, not imported."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _resolves(reference: str) -> bool:
    module, *attrs = reference.split(".")
    obj = importlib.import_module(f"qindel.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_readme_reference_resolves():
    # a README that names a module's function, class or constant names one
    # that exists, or a metric the benchmark's tracer emits; a stale name
    # (a helper since deleted) fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    references = {match.group(1) for match in README_REFERENCE.finditer(text)}
    assert "channels.first_meeting" in references
    spans = _span_strings()
    stale = sorted(ref for ref in references if not _resolves(ref) and ref not in spans)
    assert not stale, f"README names what no qindel module has: {stale}"


def _code_reads(path: Path) -> set[str]:
    """Every name that ``path`` reads as code: a name, an attribute or an
    imported name; the strings of an ``__all__`` list are not read."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            reads.update(alias.name.split(".")[-1] for alias in node.names)
    return reads


def test_every_export_is_read_outside_the_tests():
    # an exported name that only tests read is a test helper in the library:
    # each one is read by the package itself (not its re-exports), a demo or
    # the benchmark, or pinned by name in the benchmark's span list
    package = ROOT / "src" / "qindel"
    sources = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    reads = set().union(*map(_code_reads, sources)) | _span_strings()
    unread = []
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"qindel.{path.stem}".removesuffix(".__init__"))
        unread += [f"{path.stem}.{name}" for name in getattr(module, "__all__", ()) if name not in reads]
    assert not unread, f"exported but read only by tests: {unread}"
