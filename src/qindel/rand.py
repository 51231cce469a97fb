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
    parts = rng.standard_normal((*batch, 2, rows, cols))
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = _ginibre(rng, dim, dim)
    return (g + g.conj().T) / 2


def random_psd(
    rng: np.random.Generator, dim: int, rank: int | None = None, batch: tuple[int, ...] = ()
) -> np.ndarray:
    """B B-dagger for a Ginibre B; rank limits the number of columns.  With
    ``batch`` leading axes, a stack of them from one draw, as ``_ginibre``."""
    b = _ginibre(rng, dim, rank if rank is not None else dim, batch)
    return b @ b.conj().swapaxes(-1, -2)


def random_density(rng: np.random.Generator, shape: QuditShape, rank: int | None = None) -> DensityMatrix:
    """Trace-normalized Ginibre state, optionally rank-limited: ``rank`` is
    None (full rank) or an integer in [1, ``shape.dim``]."""
    if rank is not None:
        rank = _count(rank, "rank", least=1, most=shape.dim)
    m = random_psd(rng, shape.dim, rank)
    return DensityMatrix(shape, m / np.trace(m).real)


def random_orthonormal(rng: np.random.Generator, dim: int, count: int) -> list[np.ndarray]:
    """``count`` orthonormal vectors in C^dim (0 <= count <= dim)."""
    count = _count(count, "count")
    if count > dim:
        raise CountOutOfRange(f"cannot fit {count} orthonormal vectors in dimension {dim}")
    q, _ = np.linalg.qr(_ginibre(rng, dim, count))
    return [q[:, k].copy() for k in range(count)]
