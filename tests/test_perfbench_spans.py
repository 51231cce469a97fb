"""The traced benchmark run wraps qindel entry points by name; every name it
lists must still resolve, or ``perfbench/run.py --trace 1`` fails at start."""

import importlib
import runpy
from pathlib import Path

import qindel.acceptance

SPANS = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"))


def test_traced_functions_resolve():
    missing = [
        f"{module}.{attr}"
        for module, attr in SPANS["FUNCTIONS"]
        if not callable(getattr(importlib.import_module(f"qindel.{module}"), attr, None))
    ]
    assert not missing, f"perfbench/spans.py traces names qindel no longer has: {missing}"


def test_traced_methods_resolve():
    missing = []
    for module, cls_name, method, _ in SPANS["METHODS"]:
        cls = getattr(importlib.import_module(f"qindel.{module}"), cls_name, None)
        if not callable(getattr(cls, method, None)):
            missing.append(f"{module}.{cls_name}.{method}")
    assert not missing, f"perfbench/spans.py traces methods qindel no longer has: {missing}"


def test_traced_criteria_are_functions():
    assert qindel.acceptance.CRITERIA
    assert all(callable(fn) and fn.__name__.startswith("check_") for fn in qindel.acceptance.CRITERIA)


def test_a_grid_code_dedups_inside_the_code_sample_span(monkeypatch):
    # the span around CodeSample.__init__ covers every code's dedup, a grid
    # code's included, so the distance.CodeSample layer times the dedup
    import qindel.distance
    from qindel.codes import builtin_code, code_params

    tracer = SPANS["Tracer"]()
    monkeypatch.setattr(
        qindel.distance.CodeSample,
        "__init__",
        tracer.span("distance.CodeSample", qindel.distance.CodeSample.__init__),
    )
    inside = []
    dedup_levels = qindel.distance._dedup_levels

    def recorded(*args, **kwargs):
        inside.append(tracer.is_open("distance.CodeSample"))
        return dedup_levels(*args, **kwargs)

    monkeypatch.setattr(qindel.distance, "_dedup_levels", recorded)
    code = builtin_code("hagiwara4", code_params(9, 12))
    assert inside == [True]
    assert tracer.call_count("distance.CodeSample") == 1 and len(code) == 86
