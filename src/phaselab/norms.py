"""Weighted mixed norms of STFT tensors.

Two iteration orders (inner-shift/outer-frequency for modulation-type norms,
the reverse for amalgam-type norms), two measures:

* ``quadrature`` attaches the grid cell volume ``spacing^dim`` inside each
  power sum and approximates the continuum norms;
* ``counting`` drops the volume factors, which makes order-theoretic facts
  (embedding monotonicity, Frobenius-type submultiplicativity) exact.

Quasi-Banach exponents below 1 are allowed; infinite exponents take sups.
When the two exponents coincide the norm collapses to the flat vector norm
and is computed by exactly that code path (bitwise identical).

A norm reduces in two steps shared by every caller: ``_partial`` sums p-th
powers (or takes maxima) over the shift axes of a block of magnitudes and
``_finish`` turns the accumulated sums into the norm.  ``stft_norms`` takes
the norms of one symbol's STFT: a tensor within ``MATERIALIZE_LIMIT`` is one
block and goes through ``mixed_norm``; a larger one is walked once in blocks.

``mixed_norm`` memoises each (p, q, order if p != q, weight if not unit,
measure) on the read-only tensor and returns the first float on a repeat;
the memo is per tensor, so ``PHASELAB_THREADS`` workers share nothing.  On a
miss it reduces magnitudes shared through a second per-tensor cache: ``|V|``
is built once per tensor and ``|V| * w`` once per (tensor, weight); both
caches go with the tensor, which ``stft_norms`` drops once its norms are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .exponents import Exponent
from .grids import Grid, GridError, GridFunction
from .stft import STFTTensor, _fits, stft, stft_blocks, symplectic_stft
from .weights import WeightSpec

FLAVORS = ("M", "W", "symplectic-M", "symplectic-W")


def _exponent_value(p) -> float:
    if isinstance(p, Exponent):
        return p.value
    value = float(p)
    if value <= 0:
        raise GridError(f"norm exponent must be positive, got {p}")
    return value


@dataclass(frozen=True)
class MixedNormSpec:
    """Exponent pair, iteration order, weight and measure of a mixed norm."""

    p: object
    q: object
    order: str = "modulation"  # inner-shift-outer-frequency; "amalgam" reverses
    weight: WeightSpec | None = None
    measure: str = "quadrature"

    def __post_init__(self):
        if self.order not in ("modulation", "amalgam"):
            raise GridError(f"unknown norm order {self.order!r}")
        if self.measure not in ("quadrature", "counting"):
            raise GridError(f"unknown measure {self.measure!r}")
        _exponent_value(self.p)
        _exponent_value(self.q)


def flat_norm(values: np.ndarray, p: float, cell: float = 1.0) -> float:
    """Plain l^p (quasi-)norm of all entries with one quadrature cell volume."""
    return float(_axes_norm(np.abs(values), None, p, cell))


def _power_sum(x: np.ndarray, axes: tuple[int, ...] | None, p: float) -> np.ndarray:
    """Sum of ``x**p`` over ``axes`` (all entries when None); the maximum for ``p = inf``."""
    if math.isinf(p):
        return np.max(x, axis=axes, initial=0.0)
    return np.sum(x**p, axis=axes)


def _root(acc: np.ndarray, p: float, cell: float) -> np.ndarray:
    """Norm from a power sum (or maximum) and the cell volume it was summed over."""
    return acc if math.isinf(p) else (acc * cell) ** (1.0 / p)


def _axes_norm(mags: np.ndarray, axes: tuple[int, ...] | None, p: float, cell: float) -> np.ndarray:
    """Norm over ``axes`` (all entries when None) of non-negative magnitudes."""
    return _root(_power_sum(mags, axes, p), p, cell)


def _norm_key(spec: MixedNormSpec) -> tuple:
    """What a norm depends on: (p, q, order or None if p = q, weight or None if unit, measure)."""
    p = _exponent_value(spec.p)
    q = _exponent_value(spec.q)
    unit = spec.weight is None or spec.weight.kind == "unit"
    return (p, q, None if p == q else spec.order, None if unit else spec.weight, spec.measure)


def _cells(measure: str, shift_grid: Grid, freq_grid: Grid) -> tuple[float, float]:
    if measure == "quadrature":
        return shift_grid.quadrature_weight, freq_grid.quadrature_weight
    return 1.0, 1.0


def _partial(mags: np.ndarray, key: tuple, cells: tuple[float, float]) -> np.ndarray:
    """Power sums (maxima) over the shift axes, the leading half, of a block of magnitudes."""
    p, q, order = key[:3]
    kx = mags.ndim // 2
    if order == "amalgam":
        mags = _axes_norm(mags, tuple(range(kx, 2 * kx)), q, cells[1])
    return _power_sum(mags, None if order is None else tuple(range(kx)), p)


def _finish(acc: np.ndarray, key: tuple, cells: tuple[float, float]) -> float:
    """The norm from the partials of every block."""
    p, q, order = key[:3]
    cell_shift, cell_freq = cells
    if order is None:
        return float(_root(acc, p, cell_shift * cell_freq))
    inner = _root(acc, p, cell_shift)
    if order == "modulation":
        inner = _axes_norm(inner, tuple(range(inner.ndim)), q, cell_freq)
    return float(inner)


def _weight_tensor(weight: WeightSpec | None, shift_grid: Grid, freq_grid: Grid,
                   rows: slice = slice(None)) -> np.ndarray | None:
    """``weight`` over the tensor entries with leading shift index in ``rows``; None if unit."""
    if weight is None or weight.kind == "unit":
        return None
    axes = [shift_grid.axis] * shift_grid.dim + [freq_grid.axis] * freq_grid.dim
    axes[0] = axes[0][rows]
    return weight.evaluate_grid(np.ix_(*axes))


def _magnitudes(F: STFTTensor, weight: WeightSpec | None, w: np.ndarray | None) -> np.ndarray:
    """``|F|`` (``w`` None) or ``|F| * w``, each built once per tensor and weight."""
    cache = F._mags
    if None not in cache:
        cache[None] = np.abs(F.values)
    if w is None:
        return cache[None]
    if weight not in cache:
        cache[weight] = cache[None] * w
    return cache[weight]


def mixed_norm(F: STFTTensor, spec: MixedNormSpec) -> float:
    """Iterated (quasi-)norm of ``|F * weight|`` in the declared order."""
    w = _weight_tensor(spec.weight, F.shift_grid, F.freq_grid)
    key = _norm_key(spec)
    if key in F._norms:
        return F._norms[key]
    cells = _cells(spec.measure, F.shift_grid, F.freq_grid)
    mags = _magnitudes(F, spec.weight, w)
    F._norms[key] = _finish(_partial(mags, key, cells), key, cells)
    return F._norms[key]


def stft_norms(a: GridFunction, window: GridFunction, specs: list[MixedNormSpec],
               symplectic: bool = True) -> list[float]:
    """Mixed norms of the (symplectic) STFT of ``a`` against ``window``, one per spec.

    A tensor within ``MATERIALIZE_LIMIT`` is built once and every spec goes
    through :func:`mixed_norm`.  A larger one is walked once in blocks: per
    block ``|V|`` is taken once and ``|V| * w`` once per distinct weight, and
    each distinct norm adds its block's partial sums (or maxima).
    """
    g = a.grid
    if _fits(g):
        F = symplectic_stft(a, window) if symplectic else stft(a, window)
        return [mixed_norm(F, spec) for spec in specs]
    freq_grid = g if symplectic else g.dual()
    keys = [_norm_key(spec) for spec in specs]
    cells = {key: _cells(key[4], g, freq_grid) for key in keys}
    acc = {}
    for rows, block in stft_blocks(a, window, symplectic):
        mags = {None: np.abs(block)}
        for weight in dict.fromkeys(key[3] for key in keys if key[3] is not None):
            mags[weight] = mags[None] * _weight_tensor(weight, g, freq_grid, rows)
        for key in cells:
            combine = np.maximum if math.isinf(key[0]) else np.add
            acc[key] = combine(acc.get(key, 0.0), _partial(mags[key[3]], key, cells[key]))
    return [_finish(acc[key], key, cells[key]) for key in keys]


def modulation_norm(a: GridFunction, window: GridFunction, spec: MixedNormSpec,
                    flavor: str = "symplectic-M") -> float:
    """Mixed norm of the STFT selected by ``flavor``.

    Modulation-type flavors iterate inner-shift/outer-frequency, amalgam-type
    the reverse; the flavor overrides ``spec.order`` accordingly.
    """
    if flavor not in FLAVORS:
        raise GridError(f"unknown flavor {flavor!r}")
    order = "modulation" if flavor.endswith("M") else "amalgam"
    spec = MixedNormSpec(spec.p, spec.q, order, spec.weight, spec.measure)
    return stft_norms(a, window, [spec], flavor.startswith("symplectic"))[0]
