"""Seeded random states and bases for property tests and samplers."""

from __future__ import annotations

import numpy as np

from .errors import CountOutOfRange
from .states import DensityMatrix, QuditShape, _count

__all__ = [
    "random_hermitian",
    "random_psd",
    "random_density",
    "random_orthonormal",
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


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """(G + G-dagger)/2 for a Ginibre G; ``dim`` is an integer of at least 1."""
    dim = _count(dim, "dimension", least=1)
    g = _ginibre(rng, dim, dim)
    return (g + g.conj().T) / 2


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
    m = random_psd(rng, shape.dim, rank)
    return DensityMatrix(shape, m / np.trace(m).real)


def random_orthonormal(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """``count`` orthonormal vectors in C^dim (0 <= count <= dim)."""
    count = _count(count, "count")
    if count > dim:
        raise CountOutOfRange(f"cannot fit {count} orthonormal vectors in dimension {dim}")
    q, _ = np.linalg.qr(_ginibre(rng, dim, count))
    return [q[:, k].copy() for k in range(count)]
