"""Symplectically self-dual discretisation of phase space.

Everything lives on centered periodic grids.  A phase grid over ``R^{2d}``
uses ``n`` points per axis with spacing ``h = sqrt(pi/n)``; with that choice
``e^{2i sigma(Y, Z)}`` sampled on the grid is an exact character and the
symplectic Fourier transform below is an exact involution rather than an
approximation.  The companion grid for functions on ``R^d`` halves the point
count and doubles the spacing, which makes it self-dual for the ordinary
Fourier transform (``spacing^2 = 2*pi/count``) while keeping the half-sum
coordinate shear of the operator calculus grid-aligned.

Every transform reduces to :func:`centered_character_sum`, which brackets
its FFTs with two elementwise passes: a ``+-1`` sign table before them, and
one table of the trailing signs and any scale after.  ``+-1`` commutes
exactly with FFTs along other axes, so the bits are those of the per-axis
route.  An inverse sum over a power-of-two axis is the unscaled
``ifft(..., norm="forward")``, bitwise ``ifft(...) * n``; any other ``n``
stays right after its ``ifft``, since ``norm="forward"`` would round
differently.

Test symbols are sums of Gaussian atoms; :func:`gaussian_atom` takes an
atom's center, modulation, width and amplitude as its own arguments.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class GridError(ValueError):
    """Raised on malformed grids or grid mismatches."""


def _sign_table(shape: Sequence[int], axes: Sequence[int], sign: int = 0,
                scale: float | np.ndarray = 1.0) -> np.ndarray:
    """``scale`` times one ``+-1`` table per axis in ``axes``, multiplied out.

    ``sign`` 0 gives ``(-1)^j``, what a centered sum multiplies its input by;
    otherwise it is the sum's trailing table, ``(-1)^(k + n/2)`` per axis."""
    table = np.asarray(scale, dtype=float)
    for ax in axes:
        n = shape[ax]
        fill = (-1) ** (n // 2) if sign else 1
        table = table * np.where(np.arange(n) % 2, -fill, fill).reshape(
            [-1 if i == ax else 1 for i in range(len(shape))])
    return table


def _thread_count() -> int:
    """The usable CPUs (this process's affinity mask), at most 4: sample workers, row spans (README)."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


SPAN_ENTRIES = 1 << 15  #: the fewest entries worth a span of their own (README)


@functools.cache
def _pool():
    """The package's one executor, for ratio samples and row spans, sized at first use (README)."""
    from concurrent.futures import ThreadPoolExecutor  # loads logging: only when used
    return ThreadPoolExecutor(_thread_count())


if hasattr(os, "register_at_fork"):  # a forked child's copy of the pool has no threads
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _by_rows(fn, out: np.ndarray, *args) -> np.ndarray:
    """``fn(*args, out=out)`` in spans of the leading axis of ``out``, one per usable CPU,
    split on the main thread only (README, "Determinism and threads"); returns ``out``.
    An argument with fewer axes or a length-one leading axis goes whole to every span."""
    assert all(np.ndim(a) < out.ndim or len(a) in (1, len(out)) for a in args), "does not broadcast"
    if out.size < 2 * SPAN_ENTRIES or threading.current_thread() is not threading.main_thread():
        return fn(*args, out=out)
    parts = min(_thread_count(), len(out), out.size // SPAN_ENTRIES)
    cut = [np.ndim(a) == out.ndim and len(a) > 1 for a in args]
    rows = [slice(len(out) * k // parts, len(out) * (k + 1) // parts) for k in range(parts)]
    spans = [(out[r], [a[r] if c else a for a, c in zip(args, cut)]) for r in rows]
    futures = [_pool().submit(fn, *span, out=part) for part, span in spans[1:]]
    try:
        fn(*spans[0][1], out=spans[0][0])
    finally:
        for future in futures:
            future.result()
    return out


def centered_character_sum(values: np.ndarray, axes: Sequence[int], sign: int, *,
                           _signed: bool = False,
                           _scale: float | np.ndarray | None = 1.0) -> np.ndarray:
    """Per-axis sums ``sum_j f_j exp(sign * 2*pi*1j * (j-n/2)(k-n/2) / n)``.

    This is the index-space core shared by every transform in the package;
    the physical pairing ``x_j * w_k`` reduces to it whenever
    ``spacing * dual_spacing * n = 2*pi``, which holds for all grid pairs
    used here.  Each axis length must be even.

    Per axis the sum is ``sgn * (-1)^(n/2) * fft(sgn * f)`` with
    ``sgn = (-1)^j`` (``ifft(...) * n`` for ``sign > 0``), bit for bit but
    for the sign of an exact zero; all axes share the two table passes.
    When axis 0 is not summed (an STFT block's shift axis), the FFTs and the
    trailing table run in spans of its rows (``_by_rows``).

    The sign multiply allocates the result with the memory layout of
    ``values``, which is then never written.  With ``_signed`` the caller
    has already multiplied ``values`` (complex, then written in place) by
    the sign table; ``_scale`` (a scalar or a table) is multiplied into the
    trailing table, and None leaves that table to the caller.
    """
    res, axes = np.asarray(values), tuple(axes)
    for ax in axes:
        if res.shape[ax] % 2:
            raise GridError(f"centered transform needs an even axis, got {res.shape[ax]}")
    if not _signed:
        res = np.multiply(res, _sign_table(res.shape, axes), out=np.empty_like(res, dtype=complex))
    table = None if _scale is None else _sign_table(res.shape, axes, sign, _scale)

    def transform(table: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        for ax in axes:
            n = out.shape[ax]
            if sign < 0:
                np.fft.fft(out, axis=ax, out=out)
            elif n & (n - 1):
                np.fft.ifft(out, axis=ax, out=out)
                out *= n
            else:
                np.fft.ifft(out, axis=ax, out=out, norm="forward")
        if table is not None:
            out *= table
        return out

    return transform(table, out=res) if 0 in axes else _by_rows(transform, res, table)


@dataclass(frozen=True)
class Grid:
    """Centered periodic grid with ``count`` points per axis in ``dim`` axes."""

    dim: int
    count: int
    spacing: float

    def __post_init__(self):
        if self.dim < 1 or self.count < 2 or self.count % 2:
            raise GridError(f"bad grid ({self.dim}, {self.count})")

    @property
    def extent(self) -> float:
        return self.count * self.spacing

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.count,) * self.dim

    @property
    def axis(self) -> np.ndarray:
        return (np.arange(self.count) - self.count // 2) * self.spacing

    def dual(self) -> "Grid":
        return Grid(self.dim, self.count, 2 * math.pi / (self.count * self.spacing))

    @property
    def is_self_dual(self) -> bool:
        return abs(self.spacing**2 * self.count - 2 * math.pi) < 1e-12

    @property
    def is_symplectic(self) -> bool:
        return self.dim % 2 == 0 and abs(self.spacing**2 * self.count - math.pi) < 1e-12

    @property
    def quadrature_weight(self) -> float:
        return self.spacing**self.dim

    def coordinates(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        ax = self.axis
        return [ax.reshape([-1 if i == k else 1 for i in range(self.dim)]) for k in range(self.dim)]


@dataclass(frozen=True)
class PhaseGrid:
    """Discretised phase space ``R^{2d}`` plus its base-space companion."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise GridError(f"dimension must be >= 1, got {self.d}")
        if self.n < 4 or self.n % 2:
            raise GridError(f"samples per axis must be even and >= 4, got {self.n}")

    @property
    def h(self) -> float:
        return math.sqrt(math.pi / self.n)

    @property
    def extent(self) -> float:
        return self.n * self.h

    @property
    def symbol_grid(self) -> Grid:
        return Grid(2 * self.d, self.n, self.h)

    @property
    def base_grid(self) -> Grid:
        """Self-dual grid for functions on ``R^d``: ``n/2`` points, spacing ``2h``."""
        if self.n % 4:
            raise GridError(f"base-space companion needs n divisible by 4, got {self.n}")
        return Grid(self.d, self.n // 2, 2 * self.h)


def make_grid(d: int, n: int) -> PhaseGrid:
    return PhaseGrid(d, n)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples over a grid, immutable once constructed."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.shape:
            raise GridError(f"sample shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise GridError("samples must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def norm2(self) -> float:
        """Quadrature L2 norm."""
        return float(np.sqrt(self.grid.quadrature_weight * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "GridFunction") -> complex:
        """Quadrature L2 inner product, conjugate-linear in ``other``."""
        require_same_grid(self, other)
        return complex(self.grid.quadrature_weight * np.sum(self.values * np.conj(other.values)))


def require_same_grid(*fns: GridFunction):
    g0 = fns[0].grid
    for f in fns[1:]:
        if f.grid != g0:
            raise GridError("grid mismatch")


def constant_symbol(phase: PhaseGrid, value: complex = 1.0) -> GridFunction:
    g = phase.symbol_grid
    return GridFunction(g, np.full(g.shape, value, dtype=complex))


def fourier(f: GridFunction, inverse: bool = False) -> GridFunction:
    """Unitary Fourier transform on a self-dual grid.

    Uses the ``(2*pi)^{-d/2}`` normalization; the frequency axes coincide
    with the space axes, and the inverse composes to the identity exactly.
    """
    g = f.grid
    if not g.is_self_dual:
        raise GridError("fourier requires a self-dual base grid")
    coeff = ((2 * math.pi) ** (-g.dim / 2)) * g.quadrature_weight
    out = centered_character_sum(f.values, range(g.dim), +1 if inverse else -1, _scale=coeff)
    return GridFunction(g, out)


def symplectic_fourier(a: GridFunction) -> GridFunction:
    """Symplectic Fourier transform, an exact involution on a phase grid.

    ``(F_sigma a)(Y) = pi^{-d} * h^{2d} * sum_Z a(Z) e^{2i sigma(Y, Z)}``.
    """
    g = a.grid
    if not g.is_symplectic:
        raise GridError("symplectic transform requires a symplectically self-dual grid")
    signed = np.multiply(a.values, _sign_table(g.shape, range(g.dim)), dtype=complex)
    return GridFunction(g, _symplectic_transform(signed, g))


def _symplectic_transform(signed: np.ndarray, g: Grid, lead: int = 0) -> np.ndarray:
    """The symplectic Fourier transform over the ``2d`` axes of ``signed`` after ``lead``.

    ``signed`` is complex and already multiplied by the ``_sign_table`` of
    those axes; it is transformed in place and a ``moveaxis`` view returned.
    The first sum's trailing table rides on the second's, with the scale."""
    d = g.dim // 2
    first, second = list(range(lead, lead + d)), list(range(lead + d, lead + 2 * d))
    # 2*sigma(Y, Z) = sum_i 2*h^2 [ (j_z_i - c)(k_eta_i - c) - (k_y_i - c)(j_zeta_i - c) ]
    centered_character_sum(signed, first, +1, _signed=True, _scale=None)
    tail = _sign_table(signed.shape, first, +1, math.pi ** (-d) * g.quadrature_weight)
    centered_character_sum(signed, second, -1, _signed=True, _scale=tail)
    # first block now pairs with eta (second output block), second with y
    return np.moveaxis(signed, first, second)


def gaussian_atom(phase: PhaseGrid, center: Sequence[float], modulation: Sequence[float],
                  width: float = 1.0, amplitude: complex = 1.0) -> GridFunction:
    """Sample ``amplitude * exp(-|Z - X0|^2 / (2 width^2)) * exp(2i sigma(Y0, Z))``.

    ``center`` is the envelope center ``X0`` and ``modulation`` the
    symplectic modulation ``Y0``, each of ``2d`` numbers; ``width`` must be
    positive.  The envelope uses minimal-image (torus) distances, so shifting
    the center by one grid step permutes the samples cyclically.  Centers and
    modulations must stay within a quarter extent of the origin so that the
    periodization error remains below the truncation budget.
    """
    if width <= 0:
        raise GridError("atom width must be positive")
    center = tuple(float(c) for c in center)
    modulation = tuple(float(m) for m in modulation)
    g = phase.symbol_grid
    if len(center) != g.dim or len(modulation) != g.dim:
        raise GridError("atom center/modulation dimension mismatch")
    L = g.extent
    reach = max(abs(c) for c in center) + max(abs(m) for m in modulation)
    if reach > L / 4 + 1e-12:
        raise GridError(
            f"atom at reach {reach:.3g} violates truncation safety (extent {L:.3g})"
        )
    coords = g.coordinates()
    d = g.dim // 2
    envelope = np.zeros(g.shape)
    phase_arg = np.zeros(g.shape)
    for i, c in enumerate(coords):
        delta = np.mod(c - center[i] + L / 2, L) - L / 2
        envelope = envelope + delta**2
        # 2*sigma(Y0, Z) = 2 * sum_i (z_i * eta0_i - y0_i * zeta_i)
        if i < d:
            phase_arg = phase_arg + 2 * c * modulation[d + i]
        else:
            phase_arg = phase_arg - 2 * modulation[i - d] * c
    vals = amplitude * np.exp(-envelope / (2 * width**2)) * np.exp(1j * phase_arg)
    return GridFunction(g, vals)
