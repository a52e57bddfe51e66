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
one table of the trailing signs, the factors ``n`` and any scale after.
``+-1`` and powers of two commute exactly with FFTs along other axes, so the
bits are those of the per-axis route; an ``n`` that is not a power of two
stays right after its inverse FFT, since deferring it would round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class GridError(ValueError):
    """Raised on malformed grids or grid mismatches."""


def _sign_table(shape: Sequence[int], axes: Sequence[int], sign: int = 0,
                scale: float | np.ndarray = 1.0) -> np.ndarray:
    """``scale`` times one ``+-1`` table per axis in ``axes``, multiplied out.

    ``sign`` 0 gives ``(-1)^j``, what a centered sum multiplies its input by;
    otherwise it is the sum's trailing table, ``(-1)^(k + n/2)`` per axis,
    times ``n`` for ``sign > 0`` when ``n`` is a power of two."""
    table = np.asarray(scale, dtype=float)
    for ax in axes:
        n = shape[ax]
        fill = (-1) ** (n // 2) * (n if sign > 0 and not n & (n - 1) else 1) if sign else 1
        table = table * np.where(np.arange(n) % 2, -fill, fill).reshape(
            [-1 if i == ax else 1 for i in range(len(shape))])
    return table


def centered_character_sum(values: np.ndarray, axes: Sequence[int], sign: int,
                           out: np.ndarray | None = None, *, _signed: bool = False,
                           _scale: float | np.ndarray | None = 1.0) -> np.ndarray:
    """Per-axis sums ``sum_j f_j exp(sign * 2*pi*1j * (j-n/2)(k-n/2) / n)``.

    This is the index-space core shared by every transform in the package;
    the physical pairing ``x_j * w_k`` reduces to it whenever
    ``spacing * dual_spacing * n = 2*pi``, which holds for all grid pairs
    used here.  Each axis length must be even.

    Per axis the sum is ``sgn * (-1)^(n/2) * fft(sgn * f)`` with
    ``sgn = (-1)^j`` (``ifft(...) * n`` for ``sign > 0``), bit for bit but
    for the sign of an exact zero; all axes share the two table passes.

    As with ``np.fft.fft``, the result goes to ``out`` when given (a complex
    array of the input's shape, which may be ``values`` itself); otherwise
    the sign multiply allocates it with the memory layout of ``values``,
    which is then never written.  With ``_signed`` the caller has already
    multiplied ``values`` (complex, then written in place) by the sign
    table; ``_scale`` (a scalar or a table) is multiplied into the trailing
    table, and None leaves that table to the caller.
    """
    res, axes = np.asarray(values), tuple(axes)
    for ax in axes:
        if res.shape[ax] % 2:
            raise GridError(f"centered transform needs an even axis, got {res.shape[ax]}")
    if not _signed:
        res = np.multiply(res, _sign_table(res.shape, axes),
                          out=np.empty_like(res, dtype=complex) if out is None else out)
    for ax in axes:
        n = res.shape[ax]
        if sign < 0:
            np.fft.fft(res, axis=ax, out=res)
        else:
            np.fft.ifft(res, axis=ax, out=res)
            if n & (n - 1):
                res *= n
    if _scale is not None:
        res *= _sign_table(res.shape, axes, sign, _scale)
    return res


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

    def __add__(self, other: "GridFunction") -> "GridFunction":
        require_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        require_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__

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


def sigma(X: Sequence[float], Y: Sequence[float]) -> float:
    """Standard symplectic form; ``sigma((x, xi), (y, eta)) = <y, xi> - <x, eta>``."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != Y.shape or X.size % 2:
        raise GridError("symplectic form needs two vectors of equal even dimension")
    d = X.size // 2
    return float(np.dot(Y[:d], X[d:]) - np.dot(X[:d], Y[d:]))


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


@dataclass(frozen=True)
class GaussianAtomSpec:
    """Gaussian phase-space atom: envelope center, symplectic modulation, width."""

    center: tuple[float, ...]
    modulation: tuple[float, ...]
    width: float = 1.0
    amplitude: complex = 1.0

    def __post_init__(self):
        if self.width <= 0:
            raise GridError("atom width must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "modulation", tuple(float(m) for m in self.modulation))


def gaussian_atom(phase: PhaseGrid, spec: GaussianAtomSpec) -> GridFunction:
    """Sample ``amplitude * exp(-|Z - X0|^2 / (2 width^2)) * exp(2i sigma(Y0, Z))``.

    The envelope uses minimal-image (torus) distances, so shifting the center
    by one grid step permutes the samples cyclically.  Centers and modulations
    must stay within a quarter extent of the origin so that the periodization
    error remains below the truncation budget.
    """
    g = phase.symbol_grid
    if len(spec.center) != g.dim or len(spec.modulation) != g.dim:
        raise GridError("atom center/modulation dimension mismatch")
    L = g.extent
    reach = max(abs(c) for c in spec.center) + max(abs(m) for m in spec.modulation)
    if reach > L / 4 + 1e-12:
        raise GridError(
            f"atom at reach {reach:.3g} violates truncation safety (extent {L:.3g})"
        )
    coords = g.coordinates()
    d = g.dim // 2
    envelope = np.zeros(g.shape)
    phase_arg = np.zeros(g.shape)
    for i, c in enumerate(coords):
        delta = np.mod(c - spec.center[i] + L / 2, L) - L / 2
        envelope = envelope + delta**2
        # 2*sigma(Y0, Z) = 2 * sum_i (z_i * eta0_i - y0_i * zeta_i)
        if i < d:
            phase_arg = phase_arg + 2 * c * spec.modulation[d + i]
        else:
            phase_arg = phase_arg - 2 * spec.modulation[i - d] * c
    vals = spec.amplitude * np.exp(-envelope / (2 * spec.width**2)) * np.exp(1j * phase_arg)
    return GridFunction(g, vals)


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
