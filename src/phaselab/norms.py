"""Weighted mixed norms of STFT tensors.

Two iteration orders (inner-shift/outer-frequency for modulation-type norms,
the reverse for amalgam-type norms), two measures:

* ``quadrature`` attaches the grid cell volume ``spacing^dim`` inside each
  power sum and approximates the continuum norms;
* ``counting`` drops the volume factors, which makes order-theoretic facts
  (embedding monotonicity, Frobenius-type submultiplicativity) exact.

Quasi-Banach exponents below 1 are allowed; infinite exponents take sups.
When the two exponents coincide the norm collapses to the flat vector norm:
one power sum over every entry, whatever the order.

A norm reduces in two steps shared by every caller: ``_partial`` sums p-th
powers (or takes maxima) over the shift axes of a block of magnitudes and
``_finish`` turns the accumulated sums into the norm.  ``stft_norms`` takes
the norms of one symbol's symplectic STFT: a tensor within
``MATERIALIZE_LIMIT`` is one block and goes through ``mixed_norm``; a larger
one is walked once in blocks.

``stft_norms`` memoises each norm in the state it keeps for one tensor
under ``MixedNormSpec.key``, the (p, q, order if p != q, weight unless it
is constant one, measure) that a spec computes once, and ``mixed_norm``
returns the first float on a repeat; the memo lives for one call, so the
ratio-sample workers share nothing.  Called on its own, ``mixed_norm``
reduces a fresh ``|V|`` (times ``w``) and never writes the tensor.

``stft_norms`` keeps only the STFT block in a per-thread arena: one complex
buffer, grown to the largest block the thread has built (16 MiB from n = 32
on) and never shrunk.  The one-block tensor and each block of a walk go
into its front.  Both paths reduce a spent block by one rule,
``_magnitudes``: ``|V|`` over its first float64 half,
``|V| * w`` (one weight at a time) into its second, unit-weight powers into
the second half, the last weight's powers over ``|V|`` and any other
weight's into fresh arrays.  Each buffer is laid out as the fresh array it
replaces, so the bits do not change.  No returned value aliases the arena.
Those passes run in spans of shift rows and every sum whole (see README).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
import numpy as np

from .exponents import Exponent
from .grids import Grid, GridError, GridFunction, _by_rows
from .stft import STFTTensor, _extent, _fits, _laid_out, _product_into, stft_blocks, symplectic_stft
from .weights import WeightSpec

_ARENA = threading.local()


def _arena() -> dict:
    """This thread's scratch for ``stft_norms``: one block buffer, kept between calls."""
    if not hasattr(_ARENA, "buffers"):
        _ARENA.buffers = {}
    return _ARENA.buffers


def _exponent_value(p) -> float:
    try:
        if isinstance(p, Exponent):
            return p.value
        value = float(p)
    except OverflowError:
        raise GridError("norm exponent beyond the float range (about 1.8e308)") from None
    if value <= 0:
        raise GridError(f"norm exponent must be positive, got {p}")
    return value


@dataclass(frozen=True)
class MixedNormSpec:
    """Exponent pair, iteration order, weight and measure of a mixed norm.

    ``key`` is what the norm depends on, computed once: (p, q as floats,
    order or None if p = q, weight or None if it is constant one, measure)."""

    p: object
    q: object
    order: str = "modulation"  # inner-shift-outer-frequency; "amalgam" reverses
    weight: WeightSpec | None = None
    measure: str = "quadrature"
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order not in ("modulation", "amalgam"):
            raise GridError(f"unknown norm order {self.order!r}")
        if self.measure not in ("quadrature", "counting"):
            raise GridError(f"unknown measure {self.measure!r}")
        p, q = _exponent_value(self.p), _exponent_value(self.q)
        unit = self.weight is None or self.weight.is_unit
        object.__setattr__(self, "key", (p, q, None if p == q else self.order,
                                         None if unit else self.weight, self.measure))


def _halves(values: np.ndarray) -> np.ndarray:
    """The entries behind the spent ``values`` as two float64 halves, rows of one array."""
    return _extent(values).view(np.float64).reshape(2, -1)


def _abs_over(values: np.ndarray) -> np.ndarray:
    """``np.abs(values)`` written over the first float64 half of the entries behind them.

    The entries go in doubling chunks of memory order, each in row spans:
    entries ``[a, 2a)`` write floats ``[a, 2a)`` and read floats ``[2a, 4a)``,
    so no write meets an unread entry and numpy makes no overlap copy.  The
    result is laid out as ``values``, as a fresh ``np.abs`` is.
    """
    flat = _extent(values)
    out = flat.view(np.float64)[:flat.size]
    np.abs(flat[:1], out=out[:1])  # the one entry that overlaps its own output
    a = 1
    while a < flat.size:
        _by_rows(np.abs, out[a:2 * a], flat[a:2 * a])
        a *= 2
    return _laid_out(out, values.shape, values.strides)


def _power_sum(x: np.ndarray, axes: tuple[int, ...] | None, p: float,
               flat: np.ndarray | None = None) -> np.ndarray:
    """Sum of ``x**p`` over ``axes`` (all entries when None); the maximum for ``p = inf``.
    The powers go into ``flat`` (if given) in ``x``'s layout, bitwise the fresh ``x**p``."""
    if math.isinf(p):
        return np.max(x, axis=axes, initial=0.0)
    power = x**p if flat is None else _by_rows(np.power, _laid_out(flat, x.shape, x.strides), x, p)
    return np.sum(power, axis=axes)


def _root(acc: np.ndarray, p: float, cell: float) -> np.ndarray:
    """Norm from a power sum (or maximum) and the cell volume it was summed over."""
    return acc if math.isinf(p) else (acc * cell) ** (1.0 / p)


def _cells(measure: str, shift_grid: Grid, freq_grid: Grid) -> tuple[float, float]:
    if measure == "quadrature":
        return shift_grid.quadrature_weight, freq_grid.quadrature_weight
    return 1.0, 1.0


def _partial(mags: np.ndarray, key: tuple, cells: tuple[float, float],
             flat: np.ndarray | None = None) -> np.ndarray:
    """Power sums (maxima) over the shift axes, the leading half, of a block of magnitudes."""
    p, q, order = key[:3]
    kx = mags.ndim // 2
    if order == "amalgam":  # the outer sum is over the small inner norms
        inner = _root(_power_sum(mags, tuple(range(kx, 2 * kx)), q, flat), q, cells[1])
        return _power_sum(inner, tuple(range(kx)), p)
    return _power_sum(mags, None if order is None else tuple(range(kx)), p, flat)


def _finish(acc: np.ndarray, key: tuple, cells: tuple[float, float]) -> float:
    """The norm from the partials of every block."""
    p, q, order = key[:3]
    cell_shift, cell_freq = cells
    if order is None:
        return float(_root(acc, p, cell_shift * cell_freq))
    inner = _root(acc, p, cell_shift)
    if order == "modulation":
        inner = _root(_power_sum(inner, tuple(range(inner.ndim)), q), q, cell_freq)
    return float(inner)


def _weight_tensor(weight: WeightSpec | None, shift_grid: Grid, freq_grid: Grid,
                   rows: slice = slice(None)) -> np.ndarray | None:
    """``weight`` over the tensor entries with leading shift index in ``rows``; None if unit."""
    if weight is None or weight.is_unit:
        return None
    axes = [shift_grid.axis] * shift_grid.dim + [freq_grid.axis] * freq_grid.dim
    axes[0] = axes[0][rows]
    return weight.evaluate_grid(np.ix_(*axes))


def _magnitudes(state: dict, block: np.ndarray, weight: WeightSpec | None,
                w: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None]:
    """``|block|`` (``w`` None) or ``|block| * w``, and the buffer for their powers.

    ``block`` is spent, and ``state`` belongs to it and names the ``"last"``
    weight its norms take.  ``|block|`` goes over the first float64 half
    once, and ``|block| * w`` into the second once per weight (weights are
    compared by ``==``).  Unit-weight powers go into the second half, the
    last weight's over ``|block|``, and any other weight's into fresh arrays
    (None).
    """
    half_a, half_b = _halves(block)
    if "abs" not in state:
        state["abs"] = _abs_over(block)
    if w is None:
        return state["abs"], half_b
    if "weight" not in state or state["weight"] != weight:
        state["weight"], state["product"] = weight, _product_into(state["abs"], w, half_b)
    return state["product"], half_a if weight == state["last"] else None


def mixed_norm(F: STFTTensor, spec: MixedNormSpec, *, _state: dict | None = None) -> float:
    """Iterated (quasi-)norm of ``|F * weight|`` in the declared order.

    ``_state`` (for ``stft_norms``) says that ``F.values`` is a spent arena
    block, which :func:`_magnitudes` writes over, and memoises the norm
    under ``spec.key``; without it the magnitudes and powers are fresh
    arrays and ``F.values`` is only read.
    """
    w = _weight_tensor(spec.weight, F.shift_grid, F.freq_grid)
    key = spec.key
    cells = _cells(spec.measure, F.shift_grid, F.freq_grid)
    if _state is None:
        mags = np.abs(F.values)
        x = mags if w is None else np.multiply(mags, w)
        return _finish(_partial(x, key, cells), key, cells)
    if key not in _state:
        x, flat = _magnitudes(_state, F.values, key[3], w)
        _state[key] = _finish(_partial(x, key, cells, flat), key, cells)
    return _state[key]


def stft_norms(a: GridFunction, window: GridFunction, specs: list[MixedNormSpec]) -> list[float]:
    """Mixed norms of the symplectic STFT of ``a`` against ``window``, one per spec.

    The specs are taken grouped by weight, unit weights first and then in
    first-appearance order, so each ``|V| * w`` is written once and ``|V|``
    is dead once the last weight has its product.  A tensor within
    ``MATERIALIZE_LIMIT`` is built once in this thread's arena and every
    spec goes through :func:`mixed_norm`, whose state memoises each
    distinct norm.  A larger one is walked once in blocks through the same
    arena, and each distinct norm adds every block's partial sums (or
    maxima).  Either way each block's magnitudes come from one
    :func:`_magnitudes` state.
    """
    g = a.grid
    keys = [spec.key for spec in specs]
    weights = sorted(dict.fromkeys(key[3] for key in keys), key=lambda weight: weight is not None)
    last = weights[-1] if weights else None
    if _fits(g):
        F = symplectic_stft(a, window, _scratch=_arena())
        state = {"last": last}
        norms = {i: mixed_norm(F, specs[i], _state=state)
                 for i in sorted(range(len(specs)), key=lambda i: weights.index(keys[i][3]))}
        return [norms[i] for i in range(len(specs))]
    cells = {key: _cells(key[4], g, g) for key in keys}
    acc = {}
    for rows, block in stft_blocks(a, window, True, _scratch=_arena()):
        state = {"last": last}
        for weight in weights:
            x, flat = _magnitudes(state, block, weight, _weight_tensor(weight, g, g, rows))
            for key in [k for k in cells if k[3] == weight]:
                combine = np.maximum if math.isinf(key[0]) else np.add
                acc[key] = combine(acc.get(key, 0.0), _partial(x, key, cells[key], flat))
    return [_finish(acc[key], key, cells[key]) for key in keys]
