"""Seeded random matrices and states for property tests and samplers."""

from __future__ import annotations

import numpy as np

from .states import DensityMatrix, QuditShape, _count

__all__ = [
    "random_hermitian",
    "random_psd",
    "random_density",
]


def _ginibre(
    rng: np.random.Generator, rows: int, cols: int, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """Complex Gaussian matrices of shape ``batch + (rows, cols)`` from one draw;
    each matrix takes its real part, then its imaginary part, from the stream,
    so a batch draws what one call per matrix would."""
    return _complex_parts(rng.standard_normal((*batch, 2, rows, cols)))


def _complex_parts(parts: np.ndarray) -> np.ndarray:
    """The complex matrices of a ``(..., 2, rows, cols)`` array of draws laid
    out as ``_ginibre`` draws them: each real part, then its imaginary part."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def random_hermitian(rng: np.random.Generator, dim: int, batch: tuple[int, ...] = ()) -> np.ndarray:
    """(G + G-dagger)/2 for a Ginibre G; ``dim`` is an integer of at least 1.
    With ``batch`` leading axes, a stack of them from one draw, as
    ``_ginibre``: each matrix has the bits of one call per matrix in turn."""
    dim = _count(dim, "dimension", least=1)
    g = _ginibre(rng, dim, dim, batch)
    return (g + g.conj().swapaxes(-1, -2)) / 2


def random_psd(
    rng: np.random.Generator, dim: int, rank: int | None = None, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """B B-dagger for a Ginibre B, ``dim`` (an integer of at least 1) square;
    ``rank`` is None (full rank) or an integer in [1, ``dim``], the number of
    columns of B.  With ``batch`` leading axes, a stack of them from one
    draw, as ``_ginibre``."""
    dim = _count(dim, "dimension", least=1)
    rank = dim if rank is None else _count(rank, "rank", least=1, most=dim)
    b = _ginibre(rng, dim, rank, batch)
    return b @ b.conj().swapaxes(-1, -2)


def random_density(rng: np.random.Generator, shape: QuditShape, rank: int | None = None) -> DensityMatrix:
    """Trace-normalized ``random_psd`` state, optionally rank-limited: ``rank``
    is None (full rank) or an integer in [1, ``shape.dim``]."""
    return DensityMatrix(shape, _trace_normalized(random_psd(rng, shape.dim, rank)))


def _random_densities(rng: np.random.Generator, shape: QuditShape, ranks) -> np.ndarray:
    """The read-only ``(k, d, d)`` stack of one ``random_density`` state of
    ``shape`` per entry of ``ranks`` (integers in [1, ``shape.dim``]), in
    ``ranks`` order.  Each distinct rank, in ascending order, draws its
    states as one ``random_psd`` batch, so each row has the bits of one
    ``random_density`` call per state of that rank in turn."""
    ranks = np.asarray(ranks)
    stack = np.empty((len(ranks), shape.dim, shape.dim), dtype=complex)
    # not np.unique: on numpy 2.4 its first call imports numpy.ma, about 1.7 MB
    # of resident memory
    for rank in sorted(set(ranks.tolist())):
        where = np.flatnonzero(ranks == rank)
        stack[where] = _trace_normalized(random_psd(rng, shape.dim, rank, (len(where),)))
    stack.setflags(write=False)
    return stack


def _trace_normalized(m: np.ndarray) -> np.ndarray:
    """Each matrix of a ``(..., d, d)`` stack divided by its real trace."""
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]

