"""Acceptance gate: every headline claim, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import sys

import numpy as np
import pytest

import qindel.acceptance
import qindel.channels
import qindel.feasibility
import qindel.rand
import qindel.states
from qindel.acceptance import CRITERIA, _item, check_insertion_roundtrip, check_x2_min_distance, run_all
from qindel.acceptance import check_containment, check_linear_algebra, check_metric_axioms
from qindel.channels import IndexSet, _sample_batch, delete, deletion_sphere
from qindel.codes import builtin_code, code_params, collision_pair_x2, hagiwara_codeword
from qindel.codes import hagiwara_double_deletion, hagiwara_single_deletion, x2_collision_params
from qindel.distance import min_distance
from qindel.linalg import Tolerance, cross_distances
from qindel.rand import random_density
from qindel.states import QuditShape, validate

NAMES = [
    "indel-distance-two-qubit-mixtures",
    "x1-phase-code-min-distance",
    "hagiwara4-code-min-distance",
    "interleaved-error-containment",
    "strict-inclusion-counterexample",
    "insertion-only-code",
    "insertion-roundtrip",
    "metric-axioms",
    "hermitian-psd-oracles",
]


@pytest.fixture(scope="module")
def suite():
    return run_all(seed=0)


def _check(suite, name):
    item = next(i for i in suite["items"] if i["name"] == name)
    print(f"{item['status'].upper()} {item['name']}: {item['details']}")
    assert item["status"] == "pass", item["details"]


@pytest.mark.parametrize("name", NAMES)
def test_criterion(suite, name):
    _check(suite, name)


def test_suite_is_complete(suite):
    assert [i["name"] for i in suite["items"]] == NAMES
    assert len(CRITERIA) == len(NAMES)
    assert {"seed", "tolerances", "elapsed_ms", "items"} <= set(suite.keys())
    for item in suite["items"]:
        assert {"name", "status", "residual", "details"} <= set(item.keys())


def per_request_insertion_roundtrip(seed: int) -> dict:
    """``check_insertion_roundtrip`` as loops over its requests: the same
    sizes, each source by its own ``random_density`` call, lengths and then
    ranks ascending, then one one-request ``_sample_batch`` call per request
    on the criterion's generator, each sample checked by ``validate`` and
    deleted back by its own ``delete``."""
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, 3, size=50)
    ranks = rng.integers(1, 3, size=50)
    qs = rng.integers(1, ns + 2, size=50)
    sources = [None] * len(ns)
    for n in sorted(set(ns.tolist())):
        for rank in sorted(set(ranks[ns == n].tolist())):
            for r in np.flatnonzero((ns == n) & (ranks == rank)).tolist():
                sources[r] = random_density(rng, QuditShape(2, n), rank)
    worst = 0.0
    families = {"separable": 0, "entangled": 0}
    count = 0
    for rho, q in zip(sources, qs.tolist()):
        qset = IndexSet((q,), rho.length + 1)
        for k, mat in enumerate(_sample_batch([(rho.shape, rho.mat, qset, 2)], rng, Tolerance())[0]):
            sigma = validate(mat, QuditShape(2, qset.ambient))
            worst = max(worst, delete(sigma, qset).distance(rho))
            families["separable" if k == 0 else "entangled"] += 1
            count += 1
    ok = worst <= 1e-10 and min(families.values()) > 0
    return _item(
        "insertion-roundtrip",
        ok,
        worst,
        f"{count} samples ({families['separable']} separable, {families['entangled']} entangled), "
        f"worst deletion round-trip residual={worst:.3e} (want <= 1e-10)",
    )


def per_state_x2_min_distance(seed: int) -> dict:
    """``check_x2_min_distance`` as loops over its states: one
    ``deletion_sphere`` per state, ``cross_distances`` per pair of spheres,
    and one ``delete`` per codeword and deleted set."""
    params = code_params()
    sample = builtin_code("hagiwara4")
    spheres = [deletion_sphere(s, 1).stack for s in sample.states]
    min_cross = min(
        float(cross_distances(spheres[i], spheres[j]).min())
        for i in range(len(sample))
        for j in range(i + 1, len(sample))
    )
    doubles = [deletion_sphere(psi, 2).stack for psi in collision_pair_x2(*x2_collision_params())]
    collision_gap = float(cross_distances(*doubles).min())
    alpha_c, beta_c = x2_collision_params()
    partner = (alpha_c, beta_c * np.exp(2j * (np.angle(alpha_c) - np.angle(beta_c))))
    closed_form_err = 0.0
    for a, b in params + [(alpha_c, beta_c), partner]:
        word = hagiwara_codeword(a, b)
        single = hagiwara_single_deletion(a, b)
        double = hagiwara_double_deletion(a, b)
        for p in range(1, 5):
            closed_form_err = max(closed_form_err, delete(word, {p}).distance(single))
        for combo in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
            closed_form_err = max(closed_form_err, delete(word, combo).distance(double))
    value, pair, _ = min_distance(sample)
    ok = min_cross > 1e-6 and collision_gap <= 1e-9 and value == 4 and closed_form_err <= 1e-10
    return _item(
        "hagiwara4-code-min-distance",
        ok,
        max(collision_gap, closed_form_err),
        f"grid={len(params)} params, sample={len(sample)} distinct states, "
        f"min 1-deletion cross distance={min_cross:.3e} (want > 1e-6), "
        f"collision gap={collision_gap:.3e}, min_distance={value} (want 4), "
        f"closed-form error={closed_form_err:.3e}",
    )


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "criterion, oracle",
    [(check_insertion_roundtrip, per_request_insertion_roundtrip), (check_x2_min_distance, per_state_x2_min_distance)],
)
def test_stacked_criteria_match_their_per_item_loops(criterion, oracle, seed):
    got, want = criterion(seed), oracle(seed)
    assert got == want
    assert float(got["residual"]).hex() == float(want["residual"]).hex()


@pytest.mark.parametrize(
    "criterion, most",
    # one Ginibre draw per (dimension, rank, kind) group: 11 + 8 + 10 + 5
    # groups in the four linear-algebra parts, 14 + 12 + 14 (length, rank)
    # groups over the three (s, t), four ranks of 2-qubit states
    [(check_linear_algebra, 34), (check_containment, 40), (check_metric_axioms, 4)],
)
def test_sampled_criteria_draw_one_stack_per_group(monkeypatch, criterion, most):
    draws = []

    def counted(*args, **kwargs):
        draws.append(args[1:])
        return ginibre(*args, **kwargs)

    ginibre = qindel.rand._ginibre
    monkeypatch.setattr(qindel.rand, "_ginibre", counted)
    monkeypatch.setattr(qindel.acceptance, "_ginibre", counted)
    assert criterion(0)["status"] == "pass"
    assert 0 < len(draws) <= most


@pytest.mark.parametrize("seed", [2, 3, 4, 5, 6])
def test_sampled_criteria_pass_across_seeds(seed):
    containment = check_containment(seed)
    assert containment["status"] == "pass"
    assert containment["details"] == "600/600 trajectories contained over (s,t) in (1,1),(2,1),(1,2)"
    metric = check_metric_axioms(seed)
    assert metric["status"] == "pass"
    assert metric["details"] == "50 triples, 0 axiom violations, 0 odd equal-length distances"
    linear_algebra = check_linear_algebra(seed)
    assert linear_algebra["status"] == "pass", linear_algebra["details"]


def _counted(monkeypatch, module, names):
    """Count the calls of ``module.<name>`` for each of ``names`` it has,
    through every qindel module that binds it."""
    calls = []
    for name in names:
        real = getattr(module, name, None)
        if real is None:
            continue

        def counted(*args, _real=real, **kwargs):
            calls.append(_real.__name__)
            return _real(*args, **kwargs)

        for modname, bound in list(sys.modules.items()):
            if modname.split(".")[0] == "qindel" and getattr(bound, name, None) is real:
                monkeypatch.setattr(bound, name, counted)
    return calls


def test_containment_runs_its_600_trials_in_one_lockstep_call(monkeypatch):
    # three (s, t) of 200 trials each, one call of three steps
    trials = _counted(monkeypatch, qindel.feasibility, ["_containment_trials"])
    batches = _counted(monkeypatch, qindel.feasibility, ["_sample_batch"])
    item = check_containment(0)
    assert item["status"] == "pass"
    assert item["details"] == "600/600 trajectories contained over (s,t) in (1,1),(2,1),(1,2)"
    assert (len(trials), len(batches)) == (1, 3)


def test_containment_builds_once_per_step_and_source_shape(monkeypatch):
    # each of the three steps builds each source shape's insertions in one
    # _insert_stack call, whatever their positions and ranks, and the
    # sampler reads its rank groups with no SpectralForm per request
    steps, builds, forms = [], [], []
    real_batch, real_build = qindel.feasibility._sample_batch, qindel.channels._insert_stack
    monkeypatch.setattr(qindel.feasibility, "_sample_batch", lambda *args: steps.append(None) or real_batch(*args))
    monkeypatch.setattr(
        qindel.channels, "_insert_stack", lambda shape, *args: builds.append((len(steps), shape)) or real_build(shape, *args)
    )
    real_form = qindel.states.SpectralForm.__init__
    monkeypatch.setattr(qindel.states.SpectralForm, "__init__", lambda *args: forms.append(None) or real_form(*args))
    assert check_containment(0)["status"] == "pass"
    assert len(steps) == 3 and len(builds) == len(set(builds))
    assert {step for step, _ in builds} == {1, 2, 3} and forms == []


def test_containment_certifies_every_psd_test_without_an_eigen_solve(monkeypatch):
    # every sampled block and assembled state is certified PSD by one
    # stacked Cholesky factorization, so no eigenvalue solve runs
    solves, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: solves.append(h.shape) or real(h))
    assert check_containment(3)["status"] == "pass"
    assert solves == []


def test_containment_builds_no_generator_per_trial_or_sampler(monkeypatch):
    # the criterion's generator and the batch's; the 600 trials and their
    # insertion samplers all read the batch's
    built, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: built.append(args) or real(*args))
    assert check_containment(0)["status"] == "pass"
    assert len(built) <= 2


def test_the_round_trip_builds_one_generator(monkeypatch):
    # the criterion's: its sizes, sources and samples all read it
    built, real = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: built.append(args) or real(*args))
    assert check_insertion_roundtrip(0)["status"] == "pass"
    assert built == [(0,)]


def test_containment_and_round_trip_wrap_no_state(monkeypatch):
    # draws, the sampler, the trial loop, validate_stack and the batched
    # memberships pass states as bare matrices and read-only stacks
    built, real = [], qindel.states.DensityMatrix.__post_init__
    monkeypatch.setattr(qindel.states.DensityMatrix, "__post_init__", lambda self: built.append(None) or real(self))
    assert check_containment(0)["status"] == "pass"
    assert built == []
    assert check_insertion_roundtrip(0)["status"] == "pass"
    assert built == []


def test_the_round_trip_validates_one_stack_per_shape(monkeypatch):
    calls = _counted(monkeypatch, qindel.states, ["validate", "validate_stack"])
    assert check_insertion_roundtrip(3)["status"] == "pass"
    assert 0 < len(calls) <= 2
