"""Test-only signals shared by several test modules."""

from typing import Sequence

import numpy as np

from phaselab.grids import Grid, GridFunction


def base_gaussian(grid: Grid, center: float | Sequence[float] = 0.0, width: float = 1.0,
                  frequency: float | Sequence[float] = 0.0) -> GridFunction:
    """Gaussian wave packet on a base grid (minimal-image envelope)."""
    center = np.broadcast_to(np.asarray(center, dtype=float), (grid.dim,))
    frequency = np.broadcast_to(np.asarray(frequency, dtype=float), (grid.dim,))
    L = grid.extent
    coords = grid.coordinates()
    envelope = np.zeros(grid.shape)
    phase_arg = np.zeros(grid.shape)
    for i, c in enumerate(coords):
        delta = np.mod(c - center[i] + L / 2, L) - L / 2
        envelope = envelope + delta**2
        phase_arg = phase_arg + frequency[i] * c
    return GridFunction(grid, np.exp(-envelope / (2 * width**2)) * np.exp(1j * phase_arg))
