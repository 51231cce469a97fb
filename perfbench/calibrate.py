"""Host-speed calibration: a fixed kernel timed between a run's jobs.

The benchmark shares its machine with other tenants, and the same work runs
up to twice as fast in one minute as in another.  Such phases last longer
than a run, so no statistic over one run's job times can remove them.  They
slow the calibration kernel by the same factor as qindel's jobs: on a 2-CPU
x86-64 host, 30-second medians of a pure-Python loop and of a small numpy
eigensolver moved by up to 35 %, while their ratio stayed within 4 % of
its mean.

``kernel`` does the kinds of work qindel's jobs do -- Python dict and set
bookkeeping, small numpy reshapes, partial traces and Hermitian eigensolves,
and JSON encoding -- on fixed inputs and without importing qindel, so no
change to qindel can change its cost.  A run divides its wall times by the
host speed factor (``speed_factor`` of the run's kernel times), and so
reports times at the reference speed.  The raw wall times are kept in
the run's record beside the scaled ones.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The reference speed: a trimmed-mean ``kernel`` time between jobs on a 2-CPU
# x86-64 host (Python 3.11, numpy with single-threaded OpenBLAS), where it
# read 0.011-0.018 s.  It sets the scale of the reported times, not their
# ratios: at this speed a scaled time equals the wall time.
REFERENCE_S = 0.015

_RNG = np.random.default_rng(0)


def _hermitian(dim: int) -> np.ndarray:
    m = _RNG.standard_normal((dim, dim)) + 1j * _RNG.standard_normal((dim, dim))
    return m @ m.conj().T


# 16- to 256-dimensional, as qindel's states; the largest is 1 MiB, so the
# kernel also feels a neighbour's pressure on the shared cache.
_HERMS = [_hermitian(2**n) for n in (2, 4, 6, 8)]
TRIM = 0.1  # share of samples dropped at each end before averaging


def kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    start = time.perf_counter()
    seen: dict[tuple[int, ...], int] = {}
    for i in range(2000):
        key = (i % 97, i % 13, i % 7)
        seen[key] = seen.get(key, 0) + 1
    frontier = set(seen)
    for key in list(frontier):
        frontier.discard((key[0], key[1], (key[2] + 1) % 7))
    for herm in _HERMS:
        n = herm.shape[0].bit_length() - 1
        tensor = herm.reshape((2,) * (2 * n))
        for q in range(n):
            np.trace(tensor, axis1=q, axis2=n + q)
        if n < 8:
            np.linalg.eigh(herm)
    np.linalg.eigh(_HERMS[3][:128, :128])
    json.dumps({"re": _HERMS[2].real.tolist(), "im": _HERMS[2].imag.tolist()})
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Host slowness relative to the reference: above 1 means slower.

    The host alternates between fast and slow spells of a few seconds within a
    run, so kernel times are bimodal and their median jumps between the two
    modes; a trimmed mean weighs the spells by their share of the run, as the
    jobs feel them, and drops rare stalls.
    """
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return statistics.fmean(kept) / REFERENCE_S
