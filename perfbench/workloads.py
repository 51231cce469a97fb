"""The three workloads, generated from the workload seed alone.

A run is a number of *rounds*.  Round ``r`` is built from
``numpy.random.default_rng([seed, 0, r])`` and holds one job for every slot
of the workload: one slot per job kind and size listed below, none weighted
over another.  Each round has the same mix of kinds and sizes with fresh
random content, which keeps one run's figures close to another's across
seeds.  Warm-up jobs come from ``[seed, 1]``, set-up inputs (state files) from
``[seed, 2]`` and the order of grid-size strata from ``[seed, 3]``.  The program receives only the generated inputs.

deletion-codes
    Deletion spheres, the distance BFS and state-file parsing.  Grid codes of
    ``builtin:hagiwara4`` (min distance 4: corrects t=1, not t=2) and
    ``builtin:x1`` (min distance 2: does not correct t=1) at seeded
    ``--grid`` sizes, one in each of five bands that together cover 8 to 60
    states; each state
    is reused in k-1 pairs, which a sphere cache would exploit.  Directory
    codes, ``distance`` and ``sphere`` on random mixed states of 6-8 qubits
    (64-256 dimensions, written as JSON at set-up): generic states share no
    deletion but the empty one, so their distance is n + m and an s-sphere
    has C(n, s) distinct members.  Little reuse; matrix- and JSON-bound.
    The feasibility solver does no work here.

insertion-codes
    The feasibility solver and linear algebra; no deletion spheres.
    ``verify --errors insertions --t 1`` on two-state 2-qubit directory codes
    (lifted dimension 8) of three kinds: the example rho/psi pair at seeded p0
    (affine-consistent, infeasible by ``codes.in_del_after_ins_sphere``, so
    the code corrects), marginals of a random 3-qubit state at each rank 1-8
    (feasible, so it does not), and a random state pair (inconsistent linear
    constraints, so it corrects without running Dykstra).  Plus single-pair
    ``feasibility_del_ins`` at d=16 on marginals of a random 4-qubit state at
    each rank 1-16 (feasible).  Low-rank feasible instances hit the
    iteration cap at the seed commit and are kept: they are the failures a
    better solver should remove.

paper-suite
    ``qindel paper-examples --seed k`` with k drawn from the workload seed;
    every job must pass 9 of 9 criteria.  Builds states by insertion on 1-3
    qubits, where per-call overhead outweighs matrix size.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from jobs import (
    Job,
    cli_job,
    expect_capability,
    expect_distance,
    expect_insertion_capability,
    expect_sphere,
    expect_suite,
    feasibility_job,
)

WORKLOADS = ("deletion-codes", "insertion-codes", "paper-suite")

# A run of ``seconds`` executes round(seconds / ROUND_SECONDS) whole rounds: a
# fixed amount of work, so the job count and every traced count depend only on
# the seed and the run length.  At a 20 s run these give 3, 6 and 12 rounds,
# 20-50 s of wall time on a 2-CPU x86-64 host as its speed varies.
# insertion-codes gets the most rounds: whether a low-rank instance converges,
# and after how many iterations, varies most from one random state to the next.
ROUND_SECONDS = {"deletion-codes": 6.5, "insertion-codes": 3.3, "paper-suite": 1.6}

# (n_theta - 2) * n_phi grid points give that many states plus four (the two
# poles collapse to one state each, and the engineered pair is appended).
# The bands cover 8-60 states without gaps, so job times spread evenly and
# no percentile falls in a gap between two clusters of sizes.
GRID_BANDS = ((4, 14), (15, 24), (25, 35), (36, 45), (46, 56))
POOL_SIZES = {6: 4, 7: 3, 8: 3}  # random state files per qubit count
DIR_CODE_SLOTS = ((6, 4), (7, 3), (8, 2))  # (length, states per code)
DISTANCE_SLOTS = ((6, 6), (7, 7), (8, 8))  # (length, length)
SPHERE_SLOTS = ((6, (1, 2, 3)), (7, (1, 2, 3)), (8, (1, 2)))  # (length, choices of s)
PAPER_CRITERIA = 9


@dataclass
class Plan:
    warmup: list[Job]
    rounds: list[list[Job]]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _grid(rng: np.random.Generator, band: tuple[int, int], stratum: float) -> str:
    """A grid whose point count lies at ``stratum`` (0 to 1) of ``band``."""
    points = band[0] + int(stratum * (band[1] - band[0] + 1))
    divisors = [d for d in range(1, points + 1) if points % d == 0]
    rows = divisors[int(rng.integers(len(divisors)))]
    return f"{rows + 2},{points // rows}"


def _link(src: Path, dst: Path) -> None:
    try:
        os.link(src, dst)
    except OSError:
        shutil.copyfile(src, dst)


# --- deletion-codes ---------------------------------------------------------------


def _deletion_codes(seed: int, rounds: int, workdir: Path) -> Plan:
    from qindel.rand import random_density
    from qindel.states import QuditShape, save_state

    rng = _rng(seed, 2)
    pool: dict[int, list[Path]] = {}
    for n, size in POOL_SIZES.items():
        shape = QuditShape(2, n)
        pool[n] = []
        for i in range(size):
            path = workdir / f"state_n{n}_{i}.json"
            save_state(random_density(rng, shape, int(rng.integers(2, shape.dim + 1))), path)
            pool[n].append(path)
    code_dirs: dict[tuple[int, int], list[Path]] = {}
    for n, k in DIR_CODE_SLOTS:
        code_dirs[n, k] = []
        for subset in combinations(range(POOL_SIZES[n]), k):
            d = workdir / ("code_n{}_{}".format(n, "".join(map(str, subset))))
            d.mkdir()
            for i in subset:
                _link(pool[n][i], d / pool[n][i].name)
            code_dirs[n, k].append(d)
    sphere_out = workdir / "sphere.json"

    # Round r takes its grid sizes from stratum strata[band][r] of each band,
    # so a run's sizes cover each band evenly whatever the seed.
    # Sphere jobs likewise cycle through their choices of s from a seeded start.
    order = _rng(seed, 3)
    strata = [order.permutation(rounds) for _ in GRID_BANDS]
    s_starts = [int(order.integers(len(choices))) for _, choices in SPHERE_SLOTS]

    def grid_verify(rng, code: str, band, stratum: float) -> Job:
        if code == "hagiwara4":
            t = int(rng.integers(1, 3))
            want_ok, want_d = t == 1, 4
        else:
            t, want_ok, want_d = 1, False, 2
        errors = ("deletions", "indel")[int(rng.integers(2))]
        argv = ["verify", f"builtin:{code}", "--grid", _grid(rng, band, stratum), "--t", str(t), "--errors", errors]
        return cli_job("verify-grid", argv, expect_capability(want_ok, want_d))

    def dir_verify(rng, n: int, k: int) -> Job:
        dirs = code_dirs[n, k]
        t = (1, n)[int(rng.integers(2))]  # min distance 2n: corrects t=1, not t=n
        argv = ["verify", str(dirs[int(rng.integers(len(dirs)))]), "--t", str(t)]
        return cli_job("verify-dir", argv, expect_capability(2 * n >= 2 * t + 1, 2 * n))

    def distance(rng, n: int, m: int) -> Job:
        a = pool[n][int(rng.integers(len(pool[n])))]
        others = [path for path in pool[m] if path != a]
        b = others[int(rng.integers(len(others)))]
        argv = ["distance", str(a), str(b)]
        return cli_job("distance", argv, expect_distance(n + m))

    def sphere(rng, n: int, s: int) -> Job:
        path = pool[n][int(rng.integers(len(pool[n])))]
        argv = ["sphere", str(path), "--s", str(s), "--out", str(sphere_out)]
        return cli_job("sphere", argv, expect_sphere(math.comb(n, s), sphere_out))

    def round_jobs(r: int) -> list[Job]:
        rng = _rng(seed, 0, r)
        jobs = [
            grid_verify(rng, code, band, (strata[b][r] + rng.random()) / rounds)
            for code in ("hagiwara4", "x1")
            for b, band in enumerate(GRID_BANDS)
        ]
        jobs += [dir_verify(rng, n, k) for n, k in DIR_CODE_SLOTS]
        jobs += [distance(rng, n, m) for n, m in DISTANCE_SLOTS]
        jobs += [
            sphere(rng, n, choices[(start + r) % len(choices)])
            for (n, choices), start in zip(SPHERE_SLOTS, s_starts)
        ]
        return jobs

    warm = _rng(seed, 1)
    warmup = [
        grid_verify(warm, "hagiwara4", GRID_BANDS[0], warm.random()),
        dir_verify(warm, *DIR_CODE_SLOTS[0]),
        distance(warm, *DISTANCE_SLOTS[0]),
        sphere(warm, SPHERE_SLOTS[0][0], SPHERE_SLOTS[0][1][-1]),
    ]
    return Plan(warmup, [round_jobs(r) for r in range(rounds)])


# --- insertion-codes --------------------------------------------------------------


def _insertion_codes(seed: int, rounds: int, workdir: Path) -> Plan:
    from qindel.channels import delete
    from qindel.codes import example_psi, example_rho
    from qindel.rand import random_density
    from qindel.states import QuditShape, save_state

    two, three, four = QuditShape(2, 2), QuditShape(2, 3), QuditShape(2, 4)
    counter = iter(range(10**9))

    def code_dir(states) -> Path:
        d = workdir / f"code{next(counter)}"
        d.mkdir()
        for i, state in enumerate(states):
            save_state(state, d / f"{i}.json")
        return d

    def verify(states, want_ok: bool, kind: str) -> Job:
        argv = ["verify", str(code_dir(states)), "--errors", "insertions", "--t", "1"]
        return cli_job(kind, argv, expect_insertion_capability(want_ok))

    # Round r draws p0 from stratum p0_strata[r] of [0.1, 0.9], and rank k
    # of round r takes ordered position pair start + k + r, so a run covers
    # the strata and the pairs evenly whatever the seed.
    order = _rng(seed, 3)
    p0_strata = order.permutation(rounds)
    pairs3, pairs4 = list(permutations(range(1, 4), 2)), list(permutations(range(1, 5), 2))
    start3, start4 = int(order.integers(len(pairs3))), int(order.integers(len(pairs4)))

    def rho_psi(rng, stratum: float) -> Job:
        p0 = 0.1 + 0.8 * stratum
        pair = [example_rho(p0, 1 - p0), example_psi(p0, 1 - p0)]
        if rng.integers(2):
            pair.reverse()
        return verify(pair, True, "verify-rho-psi")

    def marginals(rng, rank: int, pair: tuple[int, int]) -> Job:
        tau = random_density(rng, three, rank)
        p, q = pair
        return verify([delete(tau, {p}), delete(tau, {q})], False, "verify-marginals")

    def random_pair(rng) -> Job:
        pair = [random_density(rng, two, int(rng.integers(1, 5))) for _ in range(2)]
        return verify(pair, True, "verify-random-pair")

    def lifted(rng, rank: int, pair: tuple[int, int]) -> Job:
        tau = random_density(rng, four, rank)
        p, q = pair
        return feasibility_job(delete(tau, {p}), delete(tau, {q}), p, q, 4)

    def build_round(r: int) -> list[Job]:
        rng = _rng(seed, 0, r)
        jobs = [rho_psi(rng, (p0_strata[r] + rng.random()) / rounds)]
        jobs += [
            marginals(rng, rank, pairs3[(start3 + rank + r) % len(pairs3)])
            for rank in range(1, three.dim + 1)
        ]
        jobs += [random_pair(rng)]
        jobs += [
            lifted(rng, rank, pairs4[(start4 + rank + r) % len(pairs4)])
            for rank in range(1, four.dim + 1)
        ]
        return [jobs[i] for i in rng.permutation(len(jobs))]

    warm = _rng(seed, 1)
    warmup = [
        rho_psi(warm, warm.random()),
        marginals(warm, three.dim, pairs3[0]),
        random_pair(warm),
        lifted(warm, four.dim, pairs4[0]),
    ]
    return Plan(warmup, [build_round(r) for r in range(rounds)])


# --- paper-suite ------------------------------------------------------------------


def _paper_suite(seed: int, rounds: int, workdir: Path) -> Plan:
    def suite(rng) -> Job:
        argv = ["paper-examples", "--seed", str(int(rng.integers(2**31)))]
        return cli_job("paper-examples", argv, expect_suite(PAPER_CRITERIA))

    return Plan([suite(_rng(seed, 1))], [[suite(_rng(seed, 0, r))] for r in range(rounds)])


def build(workload: str, seed: int, seconds: float, workdir: Path) -> Plan:
    """Generate the inputs of a run of about ``seconds`` into ``workdir``.

    The run has ``round(seconds / ROUND_SECONDS)`` rounds (at least one).
    """
    builders = {
        "deletion-codes": _deletion_codes,
        "insertion-codes": _insertion_codes,
        "paper-suite": _paper_suite,
    }
    return builders[workload](seed, max(1, round(seconds / ROUND_SECONDS[workload])), workdir)
