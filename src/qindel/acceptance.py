"""Reproduction suite: every desk-scale claim the library is built to verify.

Each item checks one headline fact (a worked distance, a code capability, a
containment or metric law, or a linear-algebra oracle) at a pinned tolerance
and reports pass/fail with the worst numeric residual it saw.  The CLI
``paper-examples`` command and the acceptance tests both run these items.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from .channels import IndexSet, _dedup_levels, _sample_batch, _traced_levels, delete, deletion_sphere, trace_out
from .codes import (
    _HAGIWARA,
    _codewords,
    builtin_code,
    code_params,
    collision_pair_x2,
    example_psi,
    example_rho,
    hagiwara_double_deletion,
    hagiwara_single_deletion,
    in_del_after_ins_sphere,
    in_ins_after_del_sphere,
    x2_collision_params,
)
from .distance import CodeSample, corrects, corrects_insertions, indel_distance, metric_check, min_distance
from .feasibility import FeasibilityStatus, _containment_trials, member_del_ins, member_ins_del
from .linalg import (
    Tolerance,
    cross_distances,
    frobenius_distance,
    hermitian_eigensystem,
    is_psd,
    project_psd,
    psd_principal_minors,
)
from .rand import _ginibre, _random_densities, random_hermitian, random_psd
from .states import DensityMatrix, QuditShape, _count, basis_ket, validate_stack

__all__ = ["CRITERIA", "run_all"]


def _item(name: str, ok: bool, residual: float, details: str) -> dict:
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "residual": float(residual),
        "details": details,
    }


def check_mixture_distance(seed: int) -> dict:
    """d = 2 between the two 2-qubit mixtures whose single deletions coincide."""
    shape = QuditShape(2, 2)
    rho1 = example_rho(0.5, 0.5)
    k01, k10 = basis_ket("01", shape), basis_ket("10", shape)
    rho2 = DensityMatrix(shape, 0.5 * np.outer(k10, k10) + 0.5 * np.outer(k01, k01))
    result = indel_distance(rho1, rho2)
    half_mix = np.eye(2, dtype=complex) / 2

    residuals = [
        float(np.linalg.norm(delete(rho1, result.P).mat - delete(rho2, result.Q).mat)),
        float(np.linalg.norm(result.common.mat - half_mix)),
        float(np.linalg.norm(delete(rho1, {1}).mat - half_mix)),
        float(np.linalg.norm(delete(rho2, {2}).mat - half_mix)),
    ]
    ok = result.value == 2 and max(residuals) <= 1e-10
    return _item(
        "indel-distance-two-qubit-mixtures",
        ok,
        max(residuals),
        f"d={result.value} (want 2), witness P={list(result.P)}, Q={list(result.Q)}",
    )


def check_x1_min_distance(seed: int) -> dict:
    """The phase-degenerate 2-qubit code has min distance 2 and fails 1-deletion."""
    code = builtin_code("x1")
    verdict = corrects(code, 1, "deletions")
    value = verdict.evidence["min_distance"]
    i, j = (code.labels.index(lbl) for lbl in verdict.evidence["closest_pair"])
    a, b = code.states[i], code.states[j]
    # the closest pair must differ only in relative phase: same diagonals, distinct state
    diag_gap = float(np.linalg.norm(np.diag(a.mat) - np.diag(b.mat)))
    distinct = a.distance(b) > 1e-6
    ok = value == 2 and verdict.ok is False and diag_gap <= 1e-9 and distinct
    return _item(
        "x1-phase-code-min-distance",
        ok,
        diag_gap,
        f"min_distance={value} (want 2), corrects(1 deletion)={verdict.ok}, "
        f"evidence pair={verdict.evidence['closest_pair']}",
    )


def check_x2_min_distance(seed: int) -> dict:
    """The 4-qubit single-deletion code: disjoint 1-deletion spheres, min
    distance 4.  The spheres are the kept rows of one level-1 ladder of the
    code's stack, each state's compared with the later states' by one
    ``cross_distances`` call; the closed forms are checked against levels 1
    and 2 of one stack of the 42 codewords."""
    params = code_params()
    sample = builtin_code("hagiwara4")

    _, raw, kept = next(_dedup_levels(_traced_levels(sample.stack, sample.shape, 1), Tolerance()))
    rows, owner = raw[kept], np.nonzero(kept)[0]
    # one call per state against the later states' rows: one call over all
    # the rows would fill a 0.8 MB block and raise the suite's peak memory
    min_cross = min(float(cross_distances(rows[owner == i], rows[owner > i]).min()) for i in range(len(sample) - 1))

    doubles = [deletion_sphere(psi, 2).stack for psi in collision_pair_x2(*x2_collision_params())]
    collision_gap = float(cross_distances(*doubles).min())

    alpha_c, beta_c = x2_collision_params()
    partner = (alpha_c, beta_c * np.exp(2j * (np.angle(alpha_c) - np.angle(beta_c))))
    words = params + [(alpha_c, beta_c), partner]
    levels = _traced_levels(_codewords(_HAGIWARA, words), sample.shape, 1)
    closed_form_err = 0.0
    for deleted, closed_form in zip(levels, (hagiwara_single_deletion, hagiwara_double_deletion)):
        # every deletion of s qubits gives the one closed form of s deletions
        forms = np.stack([closed_form(a, b).mat for a, b in words])[:, None]
        residuals = frobenius_distance(deleted, np.broadcast_to(forms, deleted.shape))
        closed_form_err = max(closed_form_err, float(residuals.max()))

    value, pair, _ = min_distance(sample)
    ok = (
        min_cross > 1e-6
        and collision_gap <= 1e-9
        and value == 4
        and closed_form_err <= 1e-10
    )
    return _item(
        "hagiwara4-code-min-distance",
        ok,
        max(collision_gap, closed_form_err),
        f"grid={len(params)} params, sample={len(sample)} distinct states, "
        f"min 1-deletion cross distance={min_cross:.3e} (want > 1e-6), "
        f"collision gap={collision_gap:.3e}, min_distance={value} (want 4), "
        f"closed-form error={closed_form_err:.3e}",
    )


def _qubit_states(rng: np.random.Generator, ns: np.ndarray, ranks: np.ndarray) -> tuple[list, list]:
    """One state of ``ns[i]`` qubits and rank ``ranks[i]`` per item, as its
    shape (one ``QuditShape`` per length) and bare matrix: each length's
    states, lengths in ascending order, are one ``_random_densities``
    stack, each row at its item's index."""
    shapes: list = [None] * len(ns)
    states: list = [None] * len(ns)
    for n in sorted(set(ns.tolist())):  # not np.unique, as in _random_densities
        where, shape = np.flatnonzero(ns == n), QuditShape(2, n)
        for j, mat in zip(where.tolist(), _random_densities(rng, shape, ranks[where])):
            shapes[j], states[j] = shape, mat
    return shapes, states


def check_containment(seed: int) -> dict:
    """Interleaved (s, t)-error trajectories always land in the
    insertions-after-deletions sphere; zero failures tolerated.  Each (s, t)
    draws the sizes of its 200 trials first, one ``rng.integers`` call each
    for the lengths and the ranks, then its states by ``_qubit_states``
    (one ``random_psd`` batch per length and rank).  Once every (s, t) has
    drawn its inputs, one batch seed is drawn, and the 600 trials run in
    lockstep in one ``feasibility._containment_trials`` call on that seed,
    with one (s, t) per trial; no state is wrapped."""
    rng = np.random.default_rng(seed)
    shapes, mats, ss, ts = [], [], [], []
    for s, t in ((1, 1), (2, 1), (1, 2)):
        ns = rng.integers(max(s, 1), 4, size=200)  # s <= n keeps D^s(rho) nonempty
        ranks = rng.integers(1, 2**ns + 1)
        batch_shapes, batch = _qubit_states(rng, ns, ranks)
        shapes += batch_shapes
        mats += batch
        ss += [s] * len(ns)
        ts += [t] * len(ns)
    verdicts = _containment_trials(shapes, mats, int(rng.integers(2**62)), ss, ts, Tolerance())
    failures = verdicts.count(False)
    return _item(
        "interleaved-error-containment",
        failures == 0,
        float(failures),
        f"{len(verdicts) - failures}/{len(verdicts)} trajectories contained over (s,t) in (1,1),(2,1),(1,2)",
    )


def check_strict_inclusion(seed: int) -> dict:
    """The coherent pure state reachable by insert-after-delete but not
    delete-after-insert: exact membership one way, all-pairs infeasible the other."""
    rho = example_rho(0.5, 0.5)
    psi = example_psi(0.5, 0.5)
    in_ins_del = member_ins_del(psi, rho, 1, 1)
    report = member_del_ins(psi, rho, 1, 1)
    pairs = report.details.get("pairs", [])
    all_infeasible = bool(pairs) and all(p["status"] == "infeasible" for p in pairs)
    min_gap = min((p["gap"] for p in pairs), default=0.0)
    oracle_ok = in_ins_after_del_sphere(psi) and not in_del_after_ins_sphere(psi)
    ok = (
        in_ins_del
        and report.status is FeasibilityStatus.INFEASIBLE
        and all_infeasible
        and min_gap >= 1e-3
        and oracle_ok
    )
    return _item(
        "strict-inclusion-counterexample",
        ok,
        min_gap,
        f"member_ins_del={in_ins_del} (want True), member_del_ins={report.status.value} "
        f"(want infeasible), {len(pairs)} pairs, min gap={min_gap:.3e} (want >= 1e-3), "
        f"closed-form oracle agrees={oracle_ok}",
    )


def check_insertion_code(seed: int) -> dict:
    """The two-state code correcting one insertion but not one deletion."""
    code = CodeSample.from_states((example_rho(0.5, 0.5), example_psi(0.5, 0.5)), ("rho", "psi"))
    ins = corrects_insertions(code, 1)
    dels = corrects(code, 1, "deletions")
    ok = ins.ok is True and dels.ok is False
    return _item(
        "insertion-only-code",
        ok,
        0.0 if ok else 1.0,
        f"corrects_insertions={ins.ok} (want True), corrects deletions={dels.ok} (want False)",
    )


def check_insertion_roundtrip(seed: int) -> dict:
    """Constructed insertions delete back to their source within 1e-10 and are
    valid states; both sampler families must appear.  The sizes of the 50
    requests of two samples are drawn first, one ``rng.integers`` call each
    for the lengths, the ranks and the positions; then its sources by
    ``_qubit_states``; then every sample by one ``_sample_batch`` call on
    the criterion's generator, whose per-request sample stacks are read
    directly.  The samples of each shape are validated by one
    ``validate_stack`` call, and each (shape, q) group's samples are deleted
    back by one stacked ``trace_out`` and compared with their sources by one
    ``frobenius_distance``; no state is wrapped."""
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, 3, size=50)
    ranks = rng.integers(1, 3, size=50)  # rank <= 2 keeps the purification family live
    qs = rng.integers(1, ns + 2, size=50)
    shapes, sources = _qubit_states(rng, ns, ranks)
    requests = [
        (shape, mat, IndexSet((q,), shape.length + 1), 2) for shape, q, mat in zip(shapes, qs.tolist(), sources)
    ]
    samples = _sample_batch(requests, rng, Tolerance())
    groups: dict[tuple, list[int]] = {}
    by_shape: dict[QuditShape, list[np.ndarray]] = {}
    for r, (shape, _, qset, _) in enumerate(requests):
        groups.setdefault((shape, qset), []).append(r)
        by_shape.setdefault(QuditShape(2, qset.ambient), []).append(samples[r])
    for shape, stacks in by_shape.items():
        validate_stack(np.concatenate(stacks), shape)
    count = sum(len(mats) for mats in samples)
    families = {"separable": len(samples), "entangled": count - len(samples)}  # each request's first is separable
    worst = 0.0
    for (shape, qset), rs in groups.items():
        sigmas = np.concatenate([samples[r] for r in rs])
        originals = np.stack([sources[r] for r in rs for _ in samples[r]])
        worst = max(worst, float(frobenius_distance(trace_out(sigmas, qset, shape.level), originals).max()))
    ok = worst <= 1e-10 and min(families.values()) > 0
    return _item(
        "insertion-roundtrip",
        ok,
        worst,
        f"{count} samples ({families['separable']} separable, {families['entangled']} entangled), "
        f"worst deletion round-trip residual={worst:.3e} (want <= 1e-10)",
    )


def check_metric_axioms(seed: int) -> dict:
    """Identity, symmetry, triangle inequality on random 2-qubit triples, and
    evenness of every equal-length distance.  The 150 ranks are drawn first,
    by one ``rng.integers`` call, then the states by one
    ``_random_densities`` call (one ``random_psd`` batch per rank); triple k
    is states 3k, 3k + 1 and 3k + 2."""
    rng = np.random.default_rng(seed)
    shape = QuditShape(2, 2)
    states = [DensityMatrix(shape, mat) for mat in _random_densities(rng, shape, rng.integers(1, 5, size=150))]
    triples = list(zip(states[0::3], states[1::3], states[2::3]))
    report = metric_check(triples)
    odd = report["odd_equal_length"]
    ok = report["ok"] and odd == 0
    return _item(
        "metric-axioms",
        ok,
        float(len(report["violations"]) + odd),
        f"{report['checked']} triples, {len(report['violations'])} axiom violations, "
        f"{odd} odd equal-length distances",
    )


def check_linear_algebra(seed: int) -> dict:
    """Eigenvalue sums match traces; the eigenvalue PSD test agrees with the
    exhaustive principal-minor criterion; congruence preserves PSD; a zero
    diagonal entry kills its row and column.  Each part draws its sizes
    first, one ``rng.integers`` call each for the dimensions and the zeroed
    rows, then each dimension's matrices, dimensions in ascending order, as
    one stacked draw per kind, and checks them with one call per check, so
    every matrix passes the checked solves' gate."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 13, size=500)
    worst_trace = 0.0
    for dim, count in sorted(Counter(dims.tolist()).items()):
        hs = random_hermitian(rng, dim, (count,))
        w, _ = hermitian_eigensystem(hs)
        gaps = np.abs(w.sum(axis=-1) - np.trace(hs, axis1=1, axis2=2).real) / (1e-10 * dim)
        worst_trace = max(worst_trace, float(gaps.max()))
    trace_ok = worst_trace <= 1.0

    dims = rng.integers(1, 5, size=1000)  # matrix k is Hermitian for odd k, PSD for even k
    minor_disagreements = 0
    for dim in sorted(set(dims.tolist())):
        hermitian, psd = int((dims[1::2] == dim).sum()), int((dims[0::2] == dim).sum())
        hs = np.concatenate([random_hermitian(rng, dim, (hermitian,)), random_psd(rng, dim, batch=(psd,))])
        minor_disagreements += int((is_psd(hs) != psd_principal_minors(hs)).sum())

    dims = rng.integers(2, 7, size=200)
    congruence_failures = 0
    for dim, count in sorted(Counter(dims.tolist()).items()):
        m = random_psd(rng, dim, batch=(count,))
        a = _ginibre(rng, dim, dim, (count,))
        congruence_failures += int((~is_psd(a @ m @ a.conj().swapaxes(-1, -2))).sum())

    dims = rng.integers(2, 7, size=200)
    zeroed = rng.integers(dims)
    worst_row = 0.0
    for dim in sorted(set(dims.tolist())):
        rows = zeroed[dims == dim]
        at = np.arange(len(rows))
        b = _ginibre(rng, dim, dim, (len(rows),))
        b[at, rows, :] = 0.0  # forces M[i, i] = 0 for M = B B-dagger
        ms = project_psd(b @ b.conj().swapaxes(-1, -2))
        worst_row = max(worst_row, float(np.abs(ms[at, rows, :]).max()), float(np.abs(ms[at, :, rows]).max()))
    row_ok = worst_row <= 1e-12

    ok = trace_ok and minor_disagreements == 0 and congruence_failures == 0 and row_ok
    return _item(
        "hermitian-psd-oracles",
        ok,
        max(worst_trace, float(minor_disagreements + congruence_failures), worst_row),
        f"trace residual ratio={worst_trace:.3f} (want <= 1), "
        f"principal-minor disagreements={minor_disagreements}/1000, "
        f"congruence failures={congruence_failures}/200, "
        f"zero-diagonal row leak={worst_row:.3e} (want <= 1e-12)",
    )


CRITERIA = (
    check_mixture_distance,
    check_x1_min_distance,
    check_x2_min_distance,
    check_containment,
    check_strict_inclusion,
    check_insertion_code,
    check_insertion_roundtrip,
    check_metric_axioms,
    check_linear_algebra,
)


def run_all(seed: int = 0) -> dict:
    """Run every criterion; verdicts are deterministic for a fixed seed (and
    stable across seeds, which only move the sampled witnesses)."""
    start, seed = time.monotonic(), _count(seed, "seed")
    items = [criterion(seed + k) for k, criterion in enumerate(CRITERIA)]
    return {
        "items": items,
        "seed": seed,
        "tolerances": Tolerance().to_json_obj(),
        "elapsed_ms": int((time.monotonic() - start) * 1000),
    }
