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

``mixed_norm`` memoises each (p, q, order if p != q, weight if not unit,
measure) on the read-only tensor and returns the first float on a repeat;
the memo is per tensor, so ``PHASELAB_THREADS`` workers share nothing.  On a
miss it reduces magnitudes shared through a second per-tensor cache: ``|V|``
is built once per tensor and ``|V| * w`` once per (tensor, weight).  The
cache lives as long as the tensor unless ``_mags`` is cleared;
``lab._sample_ratios`` takes every config's norm of one tensor before the
next and then clears it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .exponents import Exponent
from .grids import GridError, GridFunction
from .stft import MATERIALIZE_LIMIT, STFTTensor, iter_stft_slices, stft, symplectic_stft
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


def _axes_norm(mags: np.ndarray, axes: tuple[int, ...] | None, p: float, cell: float) -> np.ndarray:
    """Norm over ``axes`` (all entries when None) of non-negative magnitudes."""
    if math.isinf(p):
        return np.max(mags, axis=axes, initial=0.0)
    return (np.sum(mags**p, axis=axes) * cell) ** (1.0 / p)


def _weight_tensor(spec: MixedNormSpec, F: STFTTensor) -> np.ndarray | None:
    if spec.weight is None or spec.weight.kind == "unit":
        return None
    coords = []
    total = F.shift_grid.dim + F.freq_grid.dim
    for k, ax in enumerate(list(F.shift_grid.coordinates()) + list(F.freq_grid.coordinates())):
        shape = [1] * total
        shape[k] = -1
        coords.append(np.reshape(ax, shape))
    return spec.weight.evaluate_grid(coords)


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
    w = _weight_tensor(spec, F)
    p = _exponent_value(spec.p)
    q = _exponent_value(spec.q)
    key = (p, q, None if p == q else spec.order, None if w is None else spec.weight, spec.measure)
    if key in F._norms:
        return F._norms[key]
    mags = _magnitudes(F, spec.weight, w)
    kx, ky = F.block_dims
    quad = spec.measure == "quadrature"
    cell_shift = F.shift_grid.quadrature_weight if quad else 1.0
    cell_freq = F.freq_grid.quadrature_weight if quad else 1.0
    if p == q:
        value = float(_axes_norm(mags, None, p, cell_shift * cell_freq if quad else 1.0))
    elif spec.order == "modulation":
        inner = _axes_norm(mags, tuple(range(kx)), p, cell_shift)
        value = float(_axes_norm(inner, tuple(range(inner.ndim)), q, cell_freq))
    else:
        inner = _axes_norm(mags, tuple(range(kx, kx + ky)), q, cell_freq)
        value = float(_axes_norm(inner, tuple(range(inner.ndim)), p, cell_shift))
    F._norms[key] = value
    return value


def _streaming_norm(a: GridFunction, window: GridFunction, spec: MixedNormSpec,
                    symplectic: bool) -> float:
    """Slice-streamed mixed norm for tensors beyond the materialization limit."""
    g = a.grid
    freq_grid = g if symplectic else g.dual()
    quad = spec.measure == "quadrature"
    cell_shift = g.quadrature_weight if quad else 1.0
    cell_freq = freq_grid.quadrature_weight if quad else 1.0
    p = _exponent_value(spec.p)
    q = _exponent_value(spec.q)
    freq_coords = freq_grid.coordinates()
    weighted = spec.weight is not None and spec.weight.kind != "unit"

    def slice_weight(index):
        if not weighted:
            return None
        point = g.point(index)
        coords = [np.asarray(v) for v in point] + list(freq_coords)
        return spec.weight.evaluate_grid(coords)

    if spec.order == "modulation":
        acc = None
        for index, sl in iter_stft_slices(a, window, symplectic):
            w = slice_weight(index)
            mags = np.abs(sl) if w is None else np.abs(sl) * w
            term = mags if math.isinf(p) else mags**p
            acc = term.copy() if acc is None else (np.maximum(acc, term) if math.isinf(p) else acc + term)
        inner = acc if math.isinf(p) else (acc * cell_shift) ** (1.0 / p)
        return float(_axes_norm(inner, tuple(range(inner.ndim)), q, cell_freq))
    total = 0.0
    sup = 0.0
    for index, sl in iter_stft_slices(a, window, symplectic):
        w = slice_weight(index)
        mags = np.abs(sl) if w is None else np.abs(sl) * w
        inner = _axes_norm(mags, tuple(range(mags.ndim)), q, cell_freq)
        if math.isinf(p):
            sup = max(sup, float(inner))
        else:
            total += float(inner) ** p
    return sup if math.isinf(p) else float((total * cell_shift) ** (1.0 / p))


def modulation_norm(a: GridFunction, window: GridFunction, spec: MixedNormSpec,
                    flavor: str = "symplectic-M") -> float:
    """Mixed norm of the STFT selected by ``flavor``.

    Modulation-type flavors iterate inner-shift/outer-frequency, amalgam-type
    the reverse; the flavor overrides ``spec.order`` accordingly.  Large
    tensors are streamed one shift-slice at a time.
    """
    if flavor not in FLAVORS:
        raise GridError(f"unknown flavor {flavor!r}")
    symplectic = flavor.startswith("symplectic")
    order = "modulation" if flavor.endswith("M") else "amalgam"
    spec = MixedNormSpec(spec.p, spec.q, order, spec.weight, spec.measure)
    g = a.grid
    size = (g.count**g.dim) ** 2
    if size > MATERIALIZE_LIMIT:
        return _streaming_norm(a, window, spec, symplectic)
    F = symplectic_stft(a, window) if symplectic else stft(a, window)
    return mixed_norm(F, spec)
