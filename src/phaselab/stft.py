"""Ordinary and symplectic short-time Fourier transforms on periodic grids.

Window shifts wrap periodically; combined with the truncation policy for
test symbols this keeps wrap-around contamination below the tolerance of
every identity checked downstream.  Tensors are materialized fully up to
``2^20`` entries and must be streamed slice-by-slice beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import (
    Grid,
    GridError,
    GridFunction,
    centered_character_sum,
    require_same_grid,
)

#: largest tensor materialized at once (32^4 for d = 1 symbols)
MATERIALIZE_LIMIT = 1 << 20


@dataclass(frozen=True)
class STFTTensor:
    """Sampled STFT: ``values[shift_index + freq_index]``.

    For the ordinary flavor the frequency block lives on the dual grid of
    the input (identical to it on self-dual grids); for the symplectic
    flavor both blocks live on the phase grid.  ``values`` is a read-only
    view, so the norms memoised on the tensor cannot go stale through it.
    """

    shift_grid: Grid
    freq_grid: Grid
    values: np.ndarray
    flavor: str
    #: mixed norms already computed on this tensor, keyed by ``norms.mixed_norm``
    _norms: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    #: ``|values|`` (key None) and ``|values| * w`` (key: weight) shared by ``norms.mixed_norm``
    _mags: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        expected = self.shift_grid.shape + self.freq_grid.shape
        if self.values.shape != expected:
            raise GridError(f"tensor shape {self.values.shape} != {expected}")
        view = self.values.view()
        view.flags.writeable = False
        object.__setattr__(self, "values", view)

    @property
    def block_dims(self) -> tuple[int, int]:
        return (self.shift_grid.dim, self.freq_grid.dim)


def _shifted_windows(phi: GridFunction) -> np.ndarray:
    """Read-only view ``w[x, y] = conj(phi)[(y - x + c) mod n]`` over all shifts x.

    ``conj(phi)`` is tiled three times per axis, so the window at shift x is
    the plain slice starting at ``c + n - x`` on each axis; no entry is copied.
    """
    g = phi.grid
    n, c = g.count, g.count // 2
    tiled = np.tile(np.conj(phi.values), (3,) * g.dim)
    return sliding_window_view(tiled, g.shape)[(slice(c + n, c, -1),) * g.dim]


def _shift_stack(f: GridFunction, phi: GridFunction) -> np.ndarray:
    """All windowed copies ``f(y) * conj(phi(y - x))`` stacked over shifts x."""
    g = f.grid
    n, m = g.count, g.dim
    if (n**m) ** 2 > MATERIALIZE_LIMIT:
        raise GridError(
            f"tensor of {(n ** m) ** 2} entries exceeds the materialization limit; "
            "use the streaming slice iterator"
        )
    return f.values[(np.newaxis,) * m + (Ellipsis,)] * _shifted_windows(phi)


def _ordinary_coeff(g: Grid) -> float:
    return (2 * math.pi) ** (-g.dim / 2) * g.quadrature_weight


def stft(f: GridFunction, phi: GridFunction) -> STFTTensor:
    """Windowed unitary Fourier transform ``V_phi f``.

    ``V_phi f(x, xi) = (2*pi)^{-d/2} * s^d * sum_y f(y) conj(phi(y-x)) e^{-i<y, xi>}``
    with the frequency variable on the dual grid.
    """
    require_same_grid(f, phi)
    if not np.any(phi.values):
        raise GridError("window must be nonzero")
    g = f.grid
    stacked = _shift_stack(f, phi)
    centered_character_sum(stacked, range(g.dim, 2 * g.dim), -1, out=stacked)
    stacked *= _ordinary_coeff(g)
    return STFTTensor(g, g.dual(), stacked, "ordinary")


def _symplectic_transform(block: np.ndarray, g: Grid, lead: int) -> np.ndarray:
    """Apply the symplectic Fourier transform to the trailing ``2d`` axes.

    ``block`` is the caller's own complex array: both character sums and the
    scale run in place on it, and the result is a ``moveaxis`` view of it.
    """
    d = g.dim // 2
    centered_character_sum(block, range(lead, lead + d), +1, out=block)
    centered_character_sum(block, range(lead + d, lead + 2 * d), -1, out=block)
    block *= math.pi ** (-d) * g.quadrature_weight
    src = list(range(lead, lead + 2 * d))
    dst = list(range(lead + d, lead + 2 * d)) + list(range(lead, lead + d))
    return np.moveaxis(block, src, dst)


def symplectic_stft(a: GridFunction, Phi: GridFunction) -> STFTTensor:
    """Symplectic STFT ``(X, Y) -> pi^{-d} integral a(Z) conj(Phi(Z-X)) e^{2i sigma(Y,Z)} dZ``."""
    require_same_grid(a, Phi)
    if not np.any(Phi.values):
        raise GridError("window must be nonzero")
    g = a.grid
    if not g.is_symplectic:
        raise GridError("symplectic STFT requires a phase grid")
    stacked = _shift_stack(a, Phi)
    spec = _symplectic_transform(stacked, g, g.dim)
    return STFTTensor(g, g, spec, "symplectic")


def iter_stft_slices(a: GridFunction, Phi: GridFunction, symplectic: bool) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Stream the STFT one shift-slice at a time (for large grids).

    Yields ``(shift_index, values_over_frequency)`` in row-major shift order;
    output is identical to the materialized tensor restricted to that slice.
    """
    require_same_grid(a, Phi)
    if not np.any(Phi.values):
        raise GridError("window must be nonzero")
    g = a.grid
    if symplectic and not g.is_symplectic:
        raise GridError("symplectic STFT requires a phase grid")
    windows = _shifted_windows(Phi)
    for index in np.ndindex(g.shape):
        windowed = a.values * windows[index]
        if symplectic:
            yield index, _symplectic_transform(windowed, g, 0)
        else:
            centered_character_sum(windowed, range(g.dim), -1, out=windowed)
            windowed *= _ordinary_coeff(g)
            yield index, windowed
