from itertools import count

import numpy as np
import pytest

from qindel.channels import deletion_sphere, first_meeting
from qindel.distance import min_distance
from qindel.rand import random_density
from qindel.states import QuditShape


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def make_states(rng, level, length, count, max_rank=None):
    shape = QuditShape(level, length)
    cap = max_rank or shape.dim
    return [
        random_density(rng, shape, int(rng.integers(1, cap + 1))) for _ in range(count)
    ]


def failing_from(call, solver):
    """``solver``, but raising the ``LinAlgError`` of a LAPACK failure from
    its ``call``-th call on, as a stand-in patched into ``np.linalg``."""
    calls = count(1)

    def patched(*args, **kwargs):
        if next(calls) >= call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(*args, **kwargs)

    return patched


def lone_walk_min_distance(code):
    """``min_distance(code)`` from each state's own ``deletion_sphere`` at
    each level s = 1, 2, ... and one ``first_meeting`` per level:
    ``(value, pair, P, Q, common matrix)``."""
    for s in range(1, code.states[0].length + 1):
        spheres = [deletion_sphere(rho, s, code.tol) for rho in code.states]
        hit = first_meeting([sphere.stack for sphere in spheres], spheres[0].eq_tol)
        if hit is not None:
            i, j, a, b, _ = hit
            pair = (code.labels[i], code.labels[j])
            return 2 * s, pair, spheres[i].reps[a], spheres[j].reps[b], spheres[i].stack[a]
    raise AssertionError("full deletion always meets")


def assert_matches_lone_walk(code):
    """``min_distance(code)`` equals ``lone_walk_min_distance(code)``: value,
    pair, s, t, P, Q and the common state's bits."""
    value, pair, result = min_distance(code)
    want, want_pair, P, Q, common = lone_walk_min_distance(code)
    assert (value, pair) == (want, want_pair)
    assert (result.value, result.s, result.t) == (want, want // 2, want // 2)
    assert (result.P, result.Q) == (P, Q)
    assert np.array_equal(result.common.mat, common)
    return value
