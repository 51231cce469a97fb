from itertools import count

import numpy as np
import pytest

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
