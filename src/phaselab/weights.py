"""Moderate weight functions on phase space and multilinear weight conditions.

Weights are strictly positive and at most exponential; the built-in kinds are

* ``unit``                     constant one,
* ``poly:s=<s>``               ``(1 + |x|^2)^(s/2)``,
* ``exp:c=<c>``                ``e^(c |x|)`` with ``|c| <= 1``,
* ``split:<inner>@X`` / ``@Y`` inner weight acting on one half of a
                               two-block argument, unit on the other,
* products of the above.

The multilinear weight condition has two kinds, ``weyl`` and ``twist``, the
coordinate patterns of the Weyl product and of the twisted convolution in
the symmetric calculus (A = 1/2).  :func:`weight_condition` decides exactly
whether the weight product is bounded below, one flat of the tuple space at
a time; exponential rates of both signs are refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

EXP_RATE_CAP = 1.0


class WeightError(ValueError):
    """Raised on malformed weights or arity mismatches."""


@dataclass(frozen=True)
class WeightSpec:
    """Declarative weight; :meth:`evaluate_grid` evaluates it (``__call__`` at one point)."""

    kind: str  # unit | poly | exp | split | product
    param: float = 0.0
    inner: tuple["WeightSpec", ...] = ()
    block: str = ""  # "X" or "Y" for split

    def __post_init__(self):
        if self.kind not in ("unit", "poly", "exp", "split", "product"):
            raise WeightError(f"unknown weight kind {self.kind!r}")
        if not math.isfinite(self.param):
            raise WeightError(f"weight parameter must be finite, got {self.param}")
        if self.kind == "exp" and abs(self.param) > EXP_RATE_CAP:
            raise WeightError(f"exponential rate |c| must be <= {EXP_RATE_CAP}")
        if self.kind == "split":
            if self.block not in ("X", "Y") or len(self.inner) != 1:
                raise WeightError("split weight needs one inner weight and a block X or Y")
        if self.kind == "product" and len(self.inner) < 1:
            raise WeightError("product weight needs at least one factor")

    @property
    def is_unit(self) -> bool:
        """Whether the weight is constant one: ``unit``, or a split or product of unit weights."""
        return self.kind == "unit" or (self.kind in ("split", "product")
                                       and all(w.is_unit for w in self.inner))

    def __call__(self, point: Sequence[float]) -> float:
        return np.asarray(self.evaluate_grid(np.asarray(point, dtype=float))).item()

    def evaluate_grid(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Broadcast evaluation over per-axis coordinate arrays."""
        if self.kind == "unit":
            return np.ones(1)
        if self.kind in ("poly", "exp"):
            sq = sum(c**2 for c in coords)
            return ((1.0 + sq) ** (self.param / 2) if self.kind == "poly"
                    else np.exp(self.param * np.sqrt(sq)))
        if self.kind == "split":
            return self.inner[0].evaluate_grid(self._half(coords))
        out = np.ones(1)
        for w in self.inner:
            out = out * w.evaluate_grid(coords)
        return out

    def _half(self, coords):
        """The half of a two-block argument that a split weight reads."""
        if len(coords) % 2:
            raise WeightError("split weight needs an even-dimensional argument")
        half = len(coords) // 2
        return coords[:half] if self.block == "X" else coords[half:]

    def _atoms(self, coords):
        """``(kind, param, coords)`` of each poly and exp factor, on the part it reads."""
        if self.kind in ("poly", "exp"):
            return [(self.kind, self.param, coords)]
        if self.kind == "split":
            return self.inner[0]._atoms(self._half(coords))
        return [atom for w in self.inner for atom in w._atoms(coords)]

    def reciprocal(self) -> "WeightSpec":
        if self.kind == "unit":
            return unit_weight()
        if self.kind in ("poly", "exp"):
            return WeightSpec(self.kind, -self.param)
        if self.kind == "split":
            return WeightSpec("split", 0.0, (self.inner[0].reciprocal(),), self.block)
        return WeightSpec("product", 0.0, tuple(w.reciprocal() for w in self.inner))

    def literal(self) -> str:
        if self.kind == "unit":
            return "unit"
        if self.kind == "poly":
            return f"poly:s={self.param:g}"
        if self.kind == "exp":
            return f"exp:c={self.param:g}"
        if self.kind == "split":
            return f"split:{self.inner[0].literal()}@{self.block}"
        return "*".join(w.literal() for w in self.inner)


def unit_weight() -> WeightSpec:
    return WeightSpec("unit")


def poly_weight(s: float) -> WeightSpec:
    return WeightSpec("poly", float(s))


def exp_weight(c: float) -> WeightSpec:
    return WeightSpec("exp", float(c))


def split_weight(inner: WeightSpec, block: str) -> WeightSpec:
    return WeightSpec("split", 0.0, (inner,), block)


def parse_weight(text: str) -> WeightSpec:
    """Parse the CLI weight grammar (``unit``, ``poly:s=1.5``, ``exp:c=0.25``,
    ``split:poly:s=1@Y`` and ``*``-joined products)."""
    text = text.strip()
    if "*" in text:
        return WeightSpec("product", 0.0, tuple(parse_weight(p) for p in text.split("*")))
    if text == "unit":
        return unit_weight()
    if text.startswith("split:"):
        body = text[len("split:"):]
        if "@" not in body:
            raise WeightError(f"split weight needs a block marker: {text!r}")
        inner_text, block = body.rsplit("@", 1)
        return split_weight(parse_weight(inner_text), block.strip())
    for prefix, make in (("poly:s=", poly_weight), ("exp:c=", exp_weight)):
        if text.startswith(prefix):
            try:
                value = float(text[len(prefix):])
            except ValueError:
                raise WeightError(f"weight parameter must be a number: {text!r}") from None
            return make(value)
    raise WeightError(f"cannot parse weight literal {text!r}")


def parse_weight_list(text: str) -> tuple[WeightSpec, ...]:
    return tuple(parse_weight(p) for p in text.split(","))


def _tuple_arguments(kind: str, points: np.ndarray) -> np.ndarray:
    """Arguments fed to each weight for tuples ``(X_0..X_N)``.

    ``points`` has shape ``(tuples, N + 1, 2d)``; returns shape
    ``(tuples, N + 1, 4d)``: slot 0 is the output-slot argument, slot j >= 1
    belongs to the j-th factor, whose pair is ``(X_j, X_{j-1})`` (slot 0
    pairs ``(X_N, X_0)``).
    """
    X = np.concatenate([points[:, -1:], points[:, 1:]], axis=1)
    Y = np.concatenate([points[:, :1], points[:, :-1]], axis=1)
    if kind == "weyl":
        return np.concatenate([X + Y, X - Y], axis=-1)
    if kind == "twist":
        return np.concatenate([X - Y, X + Y], axis=-1)
    raise WeightError(f"unknown condition kind {kind!r}")


def weight_condition(kind: str, weights: Sequence[WeightSpec], d: int = 1
                     ) -> tuple[bool, Fraction | float, np.ndarray]:
    """Decide exactly whether the multilinear weight product is bounded below.

    Each weight splits into atoms ``<L_h x>^(s_h)`` and ``e^(c_h |L_h x|)``
    on the whole tuple ``x = (X_0..X_N)``; ``L_h`` is the integer matrix of
    the slot-argument rows the atom reads (:func:`_tuple_arguments` of the
    identity basis).  The product is bounded below iff on every flat
    ``U = ∩_{h in J} ker L_h != 0`` the exponents of the atoms that do not
    vanish on ``U`` sum to at least 0.  Necessity: along ``t u``, ``u``
    generic in ``U``, the product behaves like ``t^(sum)``.  Sufficiency, a
    layer-cake over scales: with the ``a_h = log <L_h x>`` sorted,
    ``sum_h s_h a_h = sum_k (a_(k) - a_(k-1)) sum_{a_h >= a_(k)} s_h``; past a
    large enough gap between levels, the atoms above are exactly those that
    do not vanish on the flat of the atoms below (one that vanishes there is
    bounded by them), so the jump is weighted by a flat's sum >= 0, and the
    levels between such gaps cost a bounded factor.

    A nonzero exponential rate counts as ``+inf`` or ``-inf`` on a flat where
    its atom does not vanish: ``e^(c |L_h x|)`` dominates every Peetre
    factor.  Rates of both signs would need the norm inequality
    ``sum_h c_h |L_h x| >= 0``, which the rule does not decide: refused.

    Returns the verdict, the least sum (a ``Fraction``, or ``±math.inf``)
    and an orthonormal basis of a flat attaining it, one column per direction.
    """
    slots = len(weights)
    if slots < 2:
        raise WeightError("need at least two weights (output slot plus factors)")
    size = slots * 2 * d
    args = _tuple_arguments(kind, np.eye(size).reshape(size, slots, 2 * d))
    atoms = [(L, atom, param) for slot, w in enumerate(weights)
             for atom, param, L in w._atoms(args[:, slot].T) if param]
    if len({math.copysign(1.0, c) for _, atom, c in atoms if atom == "exp"}) > 1:
        raise WeightError("exponential rates of both signs need a norm inequality that "
                          "the exact weight condition does not decide")
    worst, flat = Fraction(0), None
    for J in itertools.chain(*(itertools.combinations(atoms, r) for r in range(len(atoms) + 1))):
        # integer matrices: a nonzero singular value or entry is far above 1e-9
        _, sv, vt = np.linalg.svd(np.vstack([np.zeros(size)] + [L for L, _, _ in J]))
        basis = vt[int(np.sum(sv > 1e-9)):].T
        if not basis.size:
            continue
        total = sum((Fraction(c) if atom == "poly" else math.copysign(math.inf, c)
                     for L, atom, c in atoms if np.abs(L @ basis).max() > 1e-9), Fraction(0))
        if flat is None or total < worst:
            worst, flat = total, basis
    return bool(worst >= 0), worst, flat
