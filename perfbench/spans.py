"""Span tracing of qindel's layers, installed from outside the package.

``install`` replaces each traced function with a wrapper in every ``qindel``
module namespace that binds it (``from .channels import deletion_sphere``
makes several bindings of one function), patches the traced methods on their
classes, and swaps ``acceptance.CRITERIA`` for a tuple of wrapped criteria.
Nothing under ``src/qindel`` is edited.

A span records its name, start, end and parent span.  Every span stays in
memory (24 bytes each) and is written out by ``Tracer.save`` when the run
ends.  Self time -- a span's duration minus the time its direct child spans
cover -- and call counts are aggregated as spans close, together with the
work counters each layer's results expose.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute) for plain functions; the layer is the module name.
FUNCTIONS = (
    ("channels", "partial_trace"),
    ("channels", "delete"),
    ("channels", "deletion_sphere"),
    ("channels", "insert_construct"),
    ("channels", "sample_insertions"),
    ("distance", "indel_distance"),
    ("distance", "min_distance"),
    ("distance", "corrects"),
    ("distance", "corrects_insertions"),
    ("distance", "metric_check"),
    ("states", "load_state"),
    ("states", "validate"),
    ("states", "state_to_json_obj"),
    ("states", "spectral_decompose"),
    ("feasibility", "feasibility_del_ins"),
    ("feasibility", "member_del_ins"),
    ("feasibility", "member_ins_del"),
    ("feasibility", "check_containment_trial"),
    ("linalg", "hermitian_eigensystem"),
    ("linalg", "is_psd"),
    ("codes", "builtin_code"),
    ("cli", "main"),
)

# (module, class, method, span name); constructors are named after the class.
METHODS = (
    ("channels", "SphereSet", "intersection_witness", "channels.SphereSet.intersection_witness"),
    ("feasibility", "AffineConstraint", "__init__", "feasibility.AffineConstraint"),
    ("distance", "CodeSample", "__init__", "distance.CodeSample"),
)


class Tracer:
    """In-memory span recorder with on-the-fly self-time aggregation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: Counter = Counter()
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        # open spans: [name id, start, time covered by children, span index]
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def is_open(self, name: str) -> bool:
        """True while a span of this name encloses the current call."""
        nid = self._ids.get(name)
        return nid is not None and any(frame[0] == nid for frame in self._stack)

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``on_result(result)`` runs after the span closes, so counter
        bookkeeping is not charged to the traced function.
        """
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.name_ids.append(nid)
            self.parents.append(stack[-1][3] if stack else -1)
            frame = [nid, 0.0, 0.0, idx]
            stack.append(frame)
            start = clock()
            frame[1] = start
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self.starts[idx] = start
                self.ends[idx] = end
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_time(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def save(self, stem: Path) -> None:
        """Write the spans to ``<stem>.npz`` as columns, names to ``<stem>.json``.

        Times are seconds relative to the first span; ``parent`` is a row
        index into the same columns, -1 for a root span.
        """
        import numpy as np

        origin = self.starts[0] if self.starts else 0.0
        np.savez(
            f"{stem}.npz",
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start_s=np.frombuffer(self.starts, dtype=np.float64) - origin,
            end_s=np.frombuffer(self.ends, dtype=np.float64) - origin,
            parent=np.frombuffer(self.parents, dtype=np.int32),
        )
        Path(f"{stem}.json").write_text(
            json.dumps({"names": self.names}), encoding="utf-8"
        )


def _rebind(original, wrapper) -> None:
    """Point every qindel module-level binding of ``original`` at ``wrapper``."""
    for modname, module in list(sys.modules.items()):
        if modname != "qindel" and not modname.startswith("qindel."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced qindel entry point; the process stays traced until it exits."""
    import qindel.acceptance as acceptance
    import qindel.channels as channels
    import qindel.cli as cli
    import qindel.codes as codes
    import qindel.distance as distance
    import qindel.feasibility as feasibility
    import qindel.linalg as linalg
    import qindel.states as states

    modules = {
        "channels": channels,
        "distance": distance,
        "states": states,
        "feasibility": feasibility,
        "linalg": linalg,
        "codes": codes,
        "cli": cli,
    }
    counters = tracer.counters

    def sphere_built(sphere):
        counters["channels.sphere.raw"] += sphere.raw_count
        counters["channels.sphere.distinct"] += len(sphere)
        if tracer.is_open("distance.indel_distance"):
            counters["distance.sphere_builds"] += 1

    def intersection_done(hit):
        if hit is not None:
            counters["channels.intersection.hits"] += 1

    def pair_decided(report):
        counters["feasibility.dykstra.iterations"] += report.iterations
        status = report.status.value
        if status == "infeasible" and report.details.get("reason") == "affine constraints inconsistent":
            status = "affine_inconsistent"
        counters[f"feasibility.pairs.{status}"] += 1

    hooks = {
        "channels.deletion_sphere": sphere_built,
        "feasibility.feasibility_del_ins": pair_decided,
        "channels.SphereSet.intersection_witness": intersection_done,
    }

    for layer, attr in FUNCTIONS:
        original = getattr(modules[layer], attr)
        name = f"{layer}.{attr}"
        _rebind(original, tracer.span(name, original, hooks.get(name)))

    for layer, cls_name, method, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.span(name, getattr(cls, method), hooks.get(name)))

    acceptance.CRITERIA = tuple(
        tracer.span(f"acceptance.{fn.__name__}", fn) for fn in acceptance.CRITERIA
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, criteria: list[str]) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) for every per-layer metric the benchmark declares."""
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str) -> None:
        out[f"{name}.calls"] = (tracer.call_count(name), "count")
        out[f"{name}.self_s"] = (tracer.self_time(name), "s")

    c = tracer.counters
    for name in ("channels.partial_trace", "channels.delete", "channels.deletion_sphere"):
        timed(name)
    out["channels.sphere.dedup_ratio"] = (
        _ratio(c["channels.sphere.distinct"], c["channels.sphere.raw"]), "ratio")
    timed("channels.SphereSet.intersection_witness")
    out["channels.intersection.hit_ratio"] = (
        _ratio(c["channels.intersection.hits"],
               tracer.call_count("channels.SphereSet.intersection_witness")), "ratio")
    timed("channels.insert_construct")
    timed("channels.sample_insertions")

    timed("distance.indel_distance")
    out["distance.spheres_per_distance"] = (
        _ratio(c["distance.sphere_builds"], tracer.call_count("distance.indel_distance")), "ratio")
    for name in ("min_distance", "corrects", "corrects_insertions", "metric_check", "CodeSample"):
        timed(f"distance.{name}")

    for name in ("load_state", "validate", "state_to_json_obj", "spectral_decompose"):
        timed(f"states.{name}")

    timed("feasibility.AffineConstraint")
    timed("feasibility.feasibility_del_ins")
    iterations = c["feasibility.dykstra.iterations"]
    out["feasibility.dykstra.iterations"] = (iterations, "count")
    out["feasibility.dykstra.s_per_iteration"] = (
        _ratio(tracer.self_time("feasibility.feasibility_del_ins"), iterations), "s")
    statuses = ("feasible", "infeasible", "inconclusive", "affine_inconsistent")
    for status in statuses:
        out[f"feasibility.pairs.{status}"] = (c[f"feasibility.pairs.{status}"], "count")
    decided = sum(c[f"feasibility.pairs.{s}"] for s in statuses if s != "inconclusive")
    out["feasibility.pairs.decided_ratio"] = (
        _ratio(decided, sum(c[f"feasibility.pairs.{s}"] for s in statuses)), "ratio")
    for name in ("member_del_ins", "member_ins_del", "check_containment_trial"):
        timed(f"feasibility.{name}")

    timed("linalg.hermitian_eigensystem")
    timed("linalg.is_psd")
    timed("codes.builtin_code")
    for name in criteria:
        out[f"acceptance.{name}.self_s"] = (tracer.self_time(f"acceptance.{name}"), "s")
    timed("cli.main")
    return out


def deterministic_counts(tracer: Tracer) -> dict[str, int]:
    """Counts that must repeat exactly for a fixed seed (timings are exempt)."""
    counts = {f"{name}.calls": tracer.calls[nid] for nid, name in enumerate(tracer.names)}
    counts.update({key: int(value) for key, value in tracer.counters.items()})
    return dict(sorted(counts.items()))
