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
the symmetric calculus (A = 1/2).  Its "bounded below" reading is operational:
a sampled infimum over random tuples plus deterministic escape rays must
stay above ``1e-6``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EXP_RATE_CAP = 1.0
INF_THRESHOLD = 1e-6
DEFAULT_SAMPLES = 10_000


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

    def evaluate_grid(self, coords: Sequence[np.ndarray], log: bool = False) -> np.ndarray:
        """Broadcast evaluation over per-axis coordinate arrays.

        ``log`` returns the natural log of the weight, which keeps escape-ray
        probes inside float range.
        """
        if self.kind == "unit":
            return np.zeros(1) if log else np.ones(1)
        if self.kind == "poly":
            sq = sum(c**2 for c in coords)
            return self.param / 2 * np.log1p(sq) if log else (1.0 + sq) ** (self.param / 2)
        if self.kind == "exp":
            sq = sum(c**2 for c in coords)
            return self.param * np.sqrt(sq) if log else np.exp(self.param * np.sqrt(sq))
        if self.kind == "split":
            if len(coords) % 2:
                raise WeightError("split weight needs an even-dimensional argument")
            half = len(coords) // 2
            part = coords[:half] if self.block == "X" else coords[half:]
            return self.inner[0].evaluate_grid(part, log)
        if log:
            return sum(w.evaluate_grid(coords, log) for w in self.inner)
        out = np.ones(1)
        for w in self.inner:
            out = out * w.evaluate_grid(coords)
        return out

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
            return f"poly:s={_fmt(self.param)}"
        if self.kind == "exp":
            return f"exp:c={_fmt(self.param)}"
        if self.kind == "split":
            return f"split:{self.inner[0].literal()}@{self.block}"
        return "*".join(w.literal() for w in self.inner)


def _fmt(x: float) -> str:
    return f"{x:g}"


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


def parse_weight_list(text: str, expected: int | None = None) -> tuple[WeightSpec, ...]:
    parts = [parse_weight(p) for p in text.split(",")]
    if expected is not None and len(parts) != expected:
        raise WeightError(f"expected {expected} weights, got {len(parts)}")
    return tuple(parts)


def _tuple_arguments(kind: str, points: np.ndarray) -> np.ndarray:
    """Arguments fed to each weight for sampled tuples ``(X_0..X_N)``.

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


#: geometric ray ladder; the far end is what catches slowly decaying products
RAY_RADII = (1.0, 1e1, 1e2, 1e4, 1e6, 1e8)


def _escape_tuples(n_factors: int, d: int) -> np.ndarray:
    """Deterministic rays probing the generic failure directions.

    Sends single points, the two end points in opposite directions, and the
    whole tuple off along each coordinate axis, over a geometric radius
    ladder; log-space evaluation keeps even the far rays finite.  Returns
    shape ``(rays, n_factors + 1, 2d)``.
    """
    tuples = []
    dim = 2 * d
    for t in RAY_RADII:
        for axis in range(dim):
            e = np.zeros(dim)
            e[axis] = t
            for j in range(n_factors + 1):
                pts = np.zeros((n_factors + 1, dim))
                pts[j] = e
                tuples.append(pts)
            pts = np.zeros((n_factors + 1, dim))
            pts[-1], pts[0] = e, -e
            tuples.append(pts)
            tuples.append(np.tile(e, (n_factors + 1, 1)))
    return np.array(tuples)


def product_weight_condition(
    kind: str,
    weights: Sequence[WeightSpec],
    sample_count: int = DEFAULT_SAMPLES,
    seed: int = 0,
    d: int = 1,
    radius: float = 32.0,
) -> tuple[bool, float]:
    """Estimate the infimum of the multilinear weight product.

    ``kind`` selects the coordinate pattern of the symmetric (A = 1/2)
    calculus: ``weyl`` pairs sums with differences, ``twist`` swaps the two
    blocks.  The estimate combines ``sample_count`` uniform random tuples
    with deterministic escape rays; the condition counts as satisfied when
    the sampled infimum stays above ``1e-6``.
    """
    n_factors = len(weights) - 1
    if n_factors < 1:
        raise WeightError("need at least two weights (output slot plus factors)")
    rng = np.random.default_rng(seed)
    points = np.concatenate([_escape_tuples(n_factors, d),
                             rng.uniform(-radius, radius, size=(sample_count, n_factors + 1, 2 * d))])
    args = _tuple_arguments(kind, points)
    log_prod = sum(w.evaluate_grid(args[:, slot].T, log=True) for slot, w in enumerate(weights))
    log_inf = float(np.min(log_prod))
    inf_estimate = math.exp(log_inf) if log_inf > -745 else 0.0
    return bool(inf_estimate >= INF_THRESHOLD), float(inf_estimate)
