"""Ordinary and symplectic short-time Fourier transforms on periodic grids.

Window shifts wrap periodically; combined with the truncation policy for
test symbols this keeps wrap-around contamination below the tolerance of
every identity checked downstream.  ``stft_blocks`` yields either STFT in
blocks of whole rows of the leading shift axis, each of at most ``2^20``
entries (``MATERIALIZE_LIMIT``); ``stft`` and ``symplectic_stft`` are its
one-block case and refuse tensors past that size.

A block costs two elementwise passes besides its FFTs: the shift stack is
built from samples already multiplied by the sums' sign table, and one table
after the last FFT holds every trailing factor and the scale.  All three
run in spans of shift rows (``grids._by_rows``), with the bits of one pass.

Each block is written into the front of a flat complex buffer, laid out as a
fresh product: a fresh buffer, or the private ``_out`` of ``symplectic_stft``
and ``stft_blocks``, a caller's buffer of ``_block_shape``'s entries that the
block values alias (``norms.stft_norms`` keeps one per thread).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grids import (
    Grid,
    GridError,
    GridFunction,
    _by_rows,
    _sign_table,
    _symplectic_transform,
    centered_character_sum,
    require_same_grid,
)

#: largest tensor materialized at once (32^4 for d = 1 symbols)
MATERIALIZE_LIMIT = 1 << 20


@dataclass(frozen=True)
class STFTTensor:
    """Sampled STFT: ``values[shift_index + freq_index]``, a read-only view.

    From ``stft`` the frequency block lives on the dual grid of the input
    (identical to it on self-dual grids); from ``symplectic_stft`` both
    blocks live on the phase grid.
    """

    shift_grid: Grid
    freq_grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expected = self.shift_grid.shape + self.freq_grid.shape
        if self.values.shape != expected:
            raise GridError(f"tensor shape {self.values.shape} != {expected}")
        view = self.values.view()
        view.flags.writeable = False
        object.__setattr__(self, "values", view)


def _shifted_windows(phi: GridFunction) -> np.ndarray:
    """Read-only view ``w[x, y] = conj(phi)[(y - x + c) mod n]`` over all shifts x.

    ``conj(phi)`` is tiled three times per axis, so the window at shift x is
    the plain slice starting at ``c + n - x`` on each axis; no entry is copied.
    """
    g = phi.grid
    n, c = g.count, g.count // 2
    tiled = np.tile(np.conj(phi.values), (3,) * g.dim)
    return sliding_window_view(tiled, g.shape)[(slice(c + n, c, -1),) * g.dim]


def _laid_out(flat: np.ndarray, shape: tuple[int, ...], strides: tuple[int, ...]) -> np.ndarray:
    """``flat`` as ``shape``, its axes nested in the fresh order of ``strides`` (largest outermost)."""
    order = sorted(range(len(shape)), key=lambda i: -strides[i])
    return flat.reshape([shape[i] for i in order]).transpose(np.argsort(order))


def _product_into(x: np.ndarray, y: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """``x * y`` in ``flat``, laid out as the fresh product of the 2-per-axis corners.

    Either factor may have length-one axes (a split weight is constant along
    half of them); it broadcasts as in a fresh product."""
    shape = np.broadcast_shapes(x.shape, y.shape)
    x_corner, y_corner = (a[(slice(2),) * a.ndim] for a in (x, y))
    return _by_rows(np.multiply, _laid_out(flat, shape, np.multiply(x_corner, y_corner).strides), x, y)


def _shift_stack(values: np.ndarray, phi: GridFunction, rows: slice = slice(None),
                 out: np.ndarray | None = None) -> np.ndarray:
    """Windowed copies ``values(y) * conj(phi(y - x))`` stacked over the shifts x in ``rows``.

    ``rows`` selects along the leading shift axis; every other axis is whole.
    The stack goes into the front of ``out`` (a fresh buffer if None) with
    the strides and bits of a fresh ``np.multiply``.
    """
    samples = values[(np.newaxis,) * values.ndim + (Ellipsis,)]
    windows = _shifted_windows(phi)[rows]
    flat = np.empty(windows.size, complex) if out is None else out[:windows.size]
    return _product_into(samples, windows, flat)


def stft(f: GridFunction, phi: GridFunction) -> STFTTensor:
    """Windowed unitary Fourier transform ``V_phi f``.

    ``V_phi f(x, xi) = (2*pi)^{-d/2} * s^d * sum_y f(y) conj(phi(y-x)) e^{-i<y, xi>}``
    with the frequency variable on the dual grid.
    """
    return STFTTensor(f.grid, f.grid.dual(), _one_block(f, phi, False, None))


def symplectic_stft(a: GridFunction, Phi: GridFunction, *,
                    _out: np.ndarray | None = None) -> STFTTensor:
    """Symplectic STFT ``(X, Y) -> pi^{-d} integral a(Z) conj(Phi(Z-X)) e^{2i sigma(Y,Z)} dZ``."""
    return STFTTensor(a.grid, a.grid, _one_block(a, Phi, True, _out))


def _block_shape(g: Grid) -> tuple[int, ...]:
    """The largest block of an STFT over ``g``: as many whole rows of the leading shift
    axis as fit in ``MATERIALIZE_LIMIT`` entries, at most all n (one block; 0 when a
    single row exceeds the limit), and every other axis whole."""
    n, m = g.count, g.dim
    return (min(n, MATERIALIZE_LIMIT * n // (n**m) ** 2),) + (n,) * (2 * m - 1)


def _one_block(a: GridFunction, Phi: GridFunction, symplectic: bool,
               out: np.ndarray | None) -> np.ndarray:
    """The whole STFT as one block; past ``MATERIALIZE_LIMIT`` walk ``stft_blocks``."""
    if _block_shape(a.grid)[0] < a.grid.count:
        raise GridError(f"tensor over {a.grid.shape} exceeds the materialization limit")
    ((_, values),) = stft_blocks(a, Phi, symplectic, _out=out)
    return values


def stft_blocks(a: GridFunction, Phi: GridFunction, symplectic: bool, *,
                _out: np.ndarray | None = None) -> Iterator[tuple[slice, np.ndarray]]:
    """The STFT of ``a`` in blocks of whole rows of the leading shift axis.

    Yields ``(rows, values)`` in shift order, where ``values`` is the tensor
    restricted to leading shift indices ``rows``.  A block holds as many rows
    as fit in ``MATERIALIZE_LIMIT`` entries, so no array past the limit is
    built, and a single row past it is refused.  A tensor within the limit is
    one block, bitwise the materialized one with its strides.  With ``_out``
    every block is written into the front of that buffer, so a block is valid
    only until the next is yielded.
    """
    require_same_grid(a, Phi)
    if not np.any(Phi.values):
        raise GridError("window must be nonzero")
    g = a.grid
    if symplectic and not g.is_symplectic:
        raise GridError("symplectic STFT requires a phase grid")
    n, m = g.count, g.dim
    step = _block_shape(g)[0]
    if step < 1:
        raise GridError(f"one shift row of {n ** (2 * m - 1)} entries exceeds the materialization limit")
    # the sums' sign table goes into the n^m samples instead of the block
    signed = a.values * _sign_table(g.shape, range(m))
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        block = _shift_stack(signed, Phi, rows, _out)
        if symplectic:
            yield rows, _symplectic_transform(block, g, m)
        else:
            yield rows, centered_character_sum(block, range(m, 2 * m), -1, _signed=True,
                                               _scale=(2 * math.pi) ** (-m / 2) * g.quadrature_weight)
