"""Exact arithmetic over extended Lebesgue exponents.

Exponents ``p`` range over ``(0, infinity]`` and are stored through their
reciprocals, so that ``p = infinity`` is the ordinary number ``0`` and all the
functionals below become affine/min expressions in the reciprocal vector.
Whenever the inputs are rational the whole calculus stays exact: one
evaluator scales the reciprocal vectors to integers over a common denominator
(``_scaled``), and the excess and the opposite-parity pair minima
(``_pair_minima``) that ``holder_excess``, ``check_conditions`` and
``implication_chain`` read are integer expressions at that scale.  The
boundary cases of the boundedness conditions (several of which hold exactly at
equality) are then decided without rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int, float]

CRITERIA = ("bilinear-base", "cotowa-2.5", "prop-A", "thm-B", "twist", "prop2-pattern")


def _coerce(x: Scalar) -> Fraction | float:
    """Return ``x`` as Fraction when exactly representable, else float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # floats are binary rationals; keep them exact so comparisons at
        # equality (the interesting cases) never depend on epsilons
        return Fraction(x) if x == x and abs(x) != float("inf") else x
    raise TypeError(f"cannot interpret {x!r} as a reciprocal")


class ExponentError(ValueError):
    """Raised on malformed exponents, tuples or rejected inputs."""


@dataclass(frozen=True, order=False)
class Exponent:
    """Extended Lebesgue exponent in ``(0, infinity]`` stored as a reciprocal."""

    reciprocal: Fraction

    def __post_init__(self):
        r = _coerce(self.reciprocal)
        if not isinstance(r, Fraction):
            raise ExponentError(f"reciprocal must be a finite rational, got {r!r}")
        if r < 0:
            raise ExponentError(f"reciprocal must be nonnegative, got {r}")
        object.__setattr__(self, "reciprocal", r)

    @classmethod
    def from_value(cls, value) -> "Exponent":
        if isinstance(value, Exponent):
            return value
        if isinstance(value, str):
            return parse_exponent(value)
        if value == float("inf"):
            return cls(Fraction(0))
        v = _coerce(value)
        if v <= 0:
            raise ExponentError(f"exponent value must be positive, got {value}")
        return cls(1 / v)

    @property
    def is_infinite(self) -> bool:
        return self.reciprocal == 0

    @property
    def value(self) -> float:
        return float("inf") if self.is_infinite else float(1 / self.reciprocal)

    @property
    def in_banach_range(self) -> bool:
        return 0 <= self.reciprocal <= 1

    def conjugate(self) -> "Exponent":
        r = self.reciprocal
        if r >= 1:  # p in (0, 1] -> infinity
            return Exponent(Fraction(0))
        if r == 0:  # p = infinity -> 1
            return Exponent(Fraction(1))
        return Exponent(1 - r)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(1 / self.reciprocal)


def parse_exponent(text: str) -> Exponent:
    """Parse ``"2"``, ``"4/3"``, ``"2.5"`` or ``"inf"`` into an Exponent."""
    t = text.strip().lower()
    if t in ("inf", "infty", "infinity", "oo"):
        return Exponent(Fraction(0))
    try:
        return Exponent.from_value(Fraction(t))
    except (ValueError, ZeroDivisionError) as exc:
        raise ExponentError(f"cannot parse exponent literal {text!r}") from exc


@dataclass(frozen=True)
class ExponentTuple:
    """``(N+1)``-tuple of exponents indexed ``0..N``."""

    entries: tuple[Exponent, ...]

    def __post_init__(self):
        entries = tuple(Exponent.from_value(e) for e in self.entries)
        if len(entries) < 2:
            raise ExponentError("an exponent tuple needs at least two entries")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def parse(cls, text: str) -> "ExponentTuple":
        return cls(tuple(parse_exponent(part) for part in text.split(",")))

    @classmethod
    def from_reciprocals(cls, recips: Iterable[Scalar]) -> "ExponentTuple":
        return cls(tuple(Exponent(_coerce(r)) for r in recips))

    @property
    def n_factors(self) -> int:
        return len(self.entries) - 1

    def reciprocals(self) -> tuple[Fraction, ...]:
        return tuple(e.reciprocal for e in self.entries)

    def conjugate(self) -> "ExponentTuple":
        return ExponentTuple(tuple(e.conjugate() for e in self.entries))

    def in_banach_range(self) -> bool:
        return all(e.in_banach_range for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int) -> Exponent:
        return self.entries[j]

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.entries)


def _scaled(*vectors: Sequence[Scalar]) -> tuple[int, list[list[int]]]:
    """Reciprocal vectors as integers over one common denominator ``den``.

    At the common scale ``2 (N - 1) den`` of an ``(N+1)``-vector ``x`` scaled
    to ``ix``, the excess functional reads ``2 (sum ix - den)`` and a pair
    mean ``(x_j + y_k)/2`` reads ``(N - 1)(ix_j + iy_k)``, both integers.
    """
    rats = [[_coerce(v) for v in vec] for vec in vectors]
    try:
        den = math.lcm(*(v.denominator for vec in rats for v in vec))
    except AttributeError:  # _coerce leaves only nan and infinities as floats
        raise ExponentError("reciprocals must be finite rationals") from None
    return den, [[v.numerator * (den // v.denominator) for v in vec] for vec in rats]


def holder_excess(x: Sequence[Scalar]) -> Fraction:
    """Normalized excess of a reciprocal vector over the Hoelder budget.

    For an ``(N+1)``-vector this is ``(sum x_j - 1) / (N - 1)``; the sign
    decides whether an ``N``-fold product of the corresponding spaces can
    stay within the scale at all.  Requires ``N >= 2``.
    """
    n_factors = len(x) - 1
    if n_factors < 2:
        raise ExponentError(f"excess functional needs N >= 2, got N = {n_factors}")
    den, (ix,) = _scaled(x)
    return Fraction(sum(ix) - den, (n_factors - 1) * den)


@functools.lru_cache(maxsize=None)
def _odd_pairs(m: int):
    """Ordered index pairs (j, k), 0 <= j,k <= m, with j + k odd."""
    return tuple((j, k) for j in range(m + 1) for k in range(m + 1) if (j + k) % 2 == 1)


def _pair_minima(x: list[int], y: list[int], den: int):
    """Minima of the pair means over ordered opposite-parity index pairs.

    ``x`` and ``y`` are reciprocal vectors scaled by ``_scaled`` over ``den``.
    Returns ``(plain, balanced, argmin)`` at the common scale
    ``2 (N - 1) den``: ``plain`` is the least ``(x_j + y_k)/2`` over pairs
    with ``j + k`` odd, ``balanced`` also takes ``1 - (x_j + y_k)/2`` into
    account, and ``argmin`` is the first pair in ``_odd_pairs`` order
    realizing the balanced minimum.
    """
    w = len(x) - 2  # N - 1
    full = 2 * w * den  # the scaled value of 1
    plain = balanced = argmin = None
    for j, k in _odd_pairs(w + 1):
        mean = w * (x[j] + y[k])
        if plain is None or mean < plain:
            plain = mean
        cand = min(mean, full - mean)
        if balanced is None or cand < balanced:
            balanced, argmin = cand, (j, k)
    return plain, balanced, argmin


@dataclass(frozen=True)
class ConditionReport:
    """Structured verdict of a boundedness-condition check.

    Float reciprocals are coerced to exact binary rationals on entry, so
    every comparison is exact and the rational-input slack is identically
    zero; ``lhs``/``rhs`` are float renderings of exact quantities kept in
    ``detail``.
    """

    criterion: str
    holds: bool
    lhs: float
    rhs: float
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "holds": self.holds,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "detail": {k: _jsonable(v) for k, v in self.detail.items()},
        }


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return list(v)
    return v


def _require_odd(criterion: str, n_factors: int):
    if n_factors < 3 or n_factors % 2 == 0:
        raise ExponentError(f"criterion {criterion!r} needs odd N >= 3, got N = {n_factors}")


def require_same_n(p: ExponentTuple, q: ExponentTuple):
    """``q`` must have as many factors as ``p``."""
    if q.n_factors != p.n_factors:
        raise ExponentError(f"p has N = {p.n_factors} but q has N = {q.n_factors}")


def check_conditions(criterion: str, p: ExponentTuple, q: ExponentTuple) -> ConditionReport:
    """Evaluate one of the named exponent conditions exactly as displayed.

    ``bilinear-base``  two-sided sign condition on the excess functionals;
    ``cotowa-2.5``     the always-sufficient entrywise condition;
    ``prop-A``         balanced pair minima of ``1/p``, ``1/q'`` and the mixed pair;
    ``thm-B``          as prop-A but with the plain (unbalanced) ``1/q'`` minimum;
    ``twist``          thm-B with the roles of ``p`` and ``q`` exchanged;
    ``prop2-pattern``  membership test for the endpoint exponent patterns.

    Every criterion but the pattern test compares ``max(R(1/b'), 0)`` with a
    minimum of terms built on ``1/a``, where ``(a, b)`` is ``(p, q)``, or
    ``(q, p)`` for ``twist``.  All reciprocals are exact rationals, so the
    whole evaluation runs in common-denominator integer arithmetic and
    verdicts at equality (which several worked instances hit) are reliable.
    """
    if criterion not in CRITERIA:
        raise ExponentError(f"unknown criterion {criterion!r}")
    require_same_n(p, q)
    n = p.n_factors
    if n < 2:
        raise ExponentError(f"condition predicates need N >= 2, got N = {n}")
    den, (ip, iq) = _scaled(p.reciprocals(), q.reciprocals())
    if max(ip + iq) > den:  # 1/p_j <= 1; reciprocals are never negative
        raise ExponentError("condition predicates need exponents in [1, infinity]")

    if criterion == "prop2-pattern":
        return _check_prop2_pattern(p, q)

    scale = 2 * (n - 1) * den
    a, b, ia, ib = ("q", "p", iq, ip) if criterion == "twist" else ("p", "q", ip, iq)
    ibc = [den - v for v in ib]
    r_bc = 2 * (sum(ibc) - den)  # excess functionals at the common scale
    r_a = 2 * (sum(ia) - den)

    def frac(x):
        return Fraction(x, scale)

    lhs = max(r_bc, 0)
    detail = {f"R(1/{b}')": frac(r_bc), f"R(1/{a})": frac(r_a)}
    if criterion == "bilinear-base":
        rhs = min(0, r_a)
    elif criterion == "cotowa-2.5":
        entrywise = 2 * (n - 1) * min(min(ip), min(iq), den - max(ip), den - max(iq))
        rhs = min(entrywise, r_a)
        detail["entrywise_min"] = frac(entrywise)
    else:
        _require_odd(criterion, n)
        _, q_a, arg_a = _pair_minima(ia, ia, den)
        plain_bc, q_bc, arg_bc = _pair_minima(ibc, ibc, den)
        _, q_pq, arg_pq = _pair_minima(ip, iq, den)
        rhs = min(q_a, q_bc if criterion == "prop-A" else plain_bc, q_pq, r_a)
        detail.update({f"Q(1/{a})": frac(q_a), f"Q0(1/{b}')": frac(plain_bc),
                       "Q(1/p,1/q)": frac(q_pq), "argmin(1/p,1/q)": arg_pq})
        if criterion != "twist":  # the twist report keeps six entries
            detail.update({f"Q(1/{b}')": frac(q_bc), f"argmin(1/{a})": arg_a,
                           f"argmin(1/{b}')": arg_bc})

    holds = lhs <= rhs  # exact integer comparison at the common scale
    return ConditionReport(criterion, bool(holds), float(frac(lhs)), float(frac(rhs)), detail)


def _check_prop2_pattern(p: ExponentTuple, q: ExponentTuple) -> ConditionReport:
    """Does ``(p, q)`` match one of the endpoint exponent patterns?

    The endpoint results only involve diagonal spaces, so ``q`` must equal
    ``p`` and ``p`` itself must match ``pattern_exponents`` for some variant
    with base exponent read from entry 0.
    """
    n = p.n_factors
    _require_odd("prop2-pattern", n)
    base = p.entries[0]
    best = None
    matched = None
    for variant in (1, 2):
        pattern = pattern_exponents(n, base, variant)
        dev = max(
            max(abs(a.reciprocal - b.reciprocal) for a, b in zip(p.entries, pattern.entries)),
            max(abs(a.reciprocal - b.reciprocal) for a, b in zip(q.entries, pattern.entries)),
        )
        if best is None or dev < best:
            best, matched = dev, variant
    holds = best == 0
    return ConditionReport(
        "prop2-pattern", bool(holds), float(best), 0.0, {"variant": matched, "base": str(base)}
    )


def pattern_exponents(n_factors: int, p: Exponent, variant: int) -> ExponentTuple:
    """Endpoint exponent patterns of the diagonal-space propositions.

    Variant 1 pins both end entries to ``p`` and alternates the interior,
    ``max(1, p)`` on even slots and ``p'`` on odd ones; variant 2 is the pure
    alternation ``p`` on even slots, ``p'`` on odd slots.  Quasi-range ``p``
    (reciprocal above 1) is allowed.
    """
    if n_factors < 3 or n_factors % 2 == 0:
        raise ExponentError(f"patterns need odd N >= 3, got {n_factors}")
    if variant not in (1, 2):
        raise ExponentError(f"variant must be 1 or 2, got {variant}")
    p = Exponent.from_value(p)
    conj = p.conjugate()
    clipped = Exponent(min(p.reciprocal, Fraction(1)))  # max(1, p) as an exponent
    even = clipped if variant == 1 else p
    entries = [even if j % 2 == 0 else conj for j in range(n_factors + 1)]
    if variant == 1:
        entries[0] = entries[-1] = p
    return ExponentTuple(tuple(entries))


def implication_chain(x: Sequence[Scalar], mode: str = "odd-pairs"):
    """Evaluate the three chained inequalities on a reciprocal vector.

    ``odd-pairs`` uses pair means ``(x_j + x_k)/2`` over opposite-parity
    pairs; ``all-pairs`` uses the entrywise form over all pairs.  Returns the
    boolean triple ``(c1, c2, c3)``; on any admissible vector ``c1`` implies
    ``c2`` implies ``c3``.
    """
    n = len(x) - 1
    if n < 2:
        raise ExponentError(f"excess functional needs N >= 2, got N = {n}")
    den, (ix,) = _scaled(x)
    w = 2 * (n - 1)  # the common scale of _scaled is w * den
    excess = 2 * (sum(ix) - den)
    if mode == "odd-pairs":
        if n % 2 == 0:
            raise ExponentError(f"odd-pairs mode needs odd N >= 3, got {n}")
        least = _pair_minima(ix, ix, den)[0]
        conj = [den - v for v in ix]
        least_conj = _pair_minima(conj, conj, den)[0]  # 1 - the largest mean of x
        c1 = excess <= least
        c2 = 2 * least_conj >= w * den  # every mean of x is at most 1/2
        c3 = excess <= least_conj
    elif mode == "all-pairs":
        top = sorted(ix)
        c1 = excess <= w * top[0]
        c2 = top[-1] + top[-2] <= den  # every sum of two distinct entries is at most 1
        c3 = excess <= w * (den - top[-1])
    else:
        raise ExponentError(f"unknown mode {mode!r}")
    return bool(c1), bool(c2), bool(c3)


@dataclass(frozen=True)
class InterpolationCertificate:
    """Outcome of the constructive interpolation-parameter search."""

    theta: Fraction
    v: Exponent
    r: ExponentTuple
    s: ExponentTuple
    feasible: bool
    residual: float
    branch: str
    detail: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "theta": str(self.theta),
            "v": str(self.v),
            "r": str(self.r),
            "s": str(self.s),
            "feasible": self.feasible,
            "residual": self.residual,
            "branch": self.branch,
            "detail": {k: _jsonable(v) for k, v in self.detail.items()},
        }


def _scaled_mix(recips, theta: Fraction, v_recip: Fraction) -> list[Fraction]:
    """``(1-theta)/r_j`` solved from ``(1-theta)/r_j + theta u_j = recips_j``,
    where ``u_j`` is ``1/v'`` on even and ``1/v`` on odd slots."""
    return [x - theta * ((1 - v_recip) if j % 2 == 0 else v_recip) for j, x in enumerate(recips)]


def _slacks(rp, rq, theta: Fraction, v_recip: Fraction) -> dict[str, Fraction]:
    """Each certificate constraint at ``1/v = v_recip`` as a named slack, >= 0 when
    it holds.  Ranges and budget are scaled by ``1 - theta``, so every slack is
    affine in ``1/v`` and, at ``theta = 1``, the range slacks are the mixing
    equations ``u_j = 1/p_j``, ``u_j = 1/q_j`` as two opposite half-lines.
    The budget ``sum(1 - 1/s) <= 1`` has no slack here: for odd N its slack
    is ``(N - 1)(theta/2 - R(1/q'))``, free of ``1/v`` and never negative at
    ``theta = 2 max(R(1/q'), 0)``; ``_certificate_residual`` still checks it."""
    slack = {}
    r, s = (_scaled_mix(recips, theta, v_recip) for recips in (rp, rq))
    for name, scaled in (("r", r), ("s", s)):
        for j, y in enumerate(scaled):
            slack[f"1/{name}_{j} >= 0"] = y
            slack[f"1/{name}_{j} <= 1"] = 1 - theta - y
    slack["sum(1/r) >= 1"] = sum(r) - (1 - theta)
    return slack


def _certificate_residual(
    p: ExponentTuple,
    q: ExponentTuple,
    theta: Fraction,
    v_recip: Fraction,
    r_recips: Sequence[Fraction],
    s_recips: Sequence[Fraction],
) -> Fraction:
    """Exact maximal violation of the mixing equations and the endpoint budget."""
    worst = Fraction(0)
    for j, (rp, rq) in enumerate(zip(p.reciprocals(), q.reciprocals())):
        u = (1 - v_recip) if j % 2 == 0 else v_recip
        worst = max(worst, abs((1 - theta) * r_recips[j] + theta * u - rp))
        worst = max(worst, abs((1 - theta) * s_recips[j] + theta * u - rq))
    sum_s_conj = sum(1 - rs for rs in s_recips)
    sum_r = sum(r_recips)
    worst = max(worst, max(Fraction(0), sum_s_conj - 1), max(Fraction(0), 1 - sum_r))
    for val in itertools.chain(r_recips, s_recips):
        worst = max(worst, max(Fraction(0), -val), max(Fraction(0), val - 1))
    return worst


def construct_interpolation(p: ExponentTuple, q: ExponentTuple) -> InterpolationCertificate:
    """Interpolation parameters reproducing ``(p, q)``, which must satisfy ``prop-A``.

    At ``theta = 2 max(R(1/q'), 0)`` every constraint is affine in ``1/v``, so
    the feasible ``1/v`` form one exact interval.  The branch names the
    preferred ``1/v``, which is clamped into it: ``1/2`` for ``theta-zero``
    (``theta = 0``, ``r = p``, ``s = q``) and ``delegated-2.5`` (every
    reciprocal above ``theta/2`` and ``cotowa-2.5`` holding), else the proof's
    ``m / theta`` for ``endpoint-mix``, ``m`` the least reciprocal of ``p`` and
    ``q``.  Feasibility is claimed only when ``_certificate_residual`` is
    exactly 0.  On an empty interval, or a failing constraint free of ``v``,
    the branch reads ``infeasible``, ``detail`` names the constraints that set
    the two ends (or the failing one), and the residual is the violation at
    the preferred ``1/v`` clamped to ``[0, 1]``, with ``r``, ``s`` clipped.
    """
    if not check_conditions("prop-A", p, q).holds:
        raise ExponentError("rejected input: prop-A condition fails for (p, q)")
    rp, rq = p.reciprocals(), q.reciprocals()
    r_qc = holder_excess(q.conjugate().reciprocals())
    theta = 2 * max(r_qc, Fraction(0))
    min_recip = min(min(rp), min(rq))

    if theta == 0:
        branch, preferred, detail = "theta-zero", Fraction(1, 2), {"R(1/q')": r_qc}
    elif min_recip > theta / 2 and check_conditions("cotowa-2.5", p, q).holds:
        branch, preferred = "delegated-2.5", Fraction(1, 2)
        detail = {"cotowa-2.5": True, "min_reciprocal": min_recip}
    else:
        branch, preferred = "endpoint-mix", min_recip / theta  # from 1/p_0 = theta/v
        detail = {"min_reciprocal": min_recip}

    # each slack is affine in 1/v: read it at 0 and 1, and a rising slack
    # bounds 1/v from below at its root, a falling one from above
    at0, at1 = _slacks(rp, rq, theta, Fraction(0)), _slacks(rp, rq, theta, Fraction(1))
    lo, hi, violated = (Fraction(0), "1/v >= 0"), (Fraction(1), "1/v <= 1"), None
    for name, g0 in at0.items():
        g1 = at1[name]
        if g0 == g1:
            violated = violated or (name if g0 < 0 else None)
        elif g1 > g0:
            lo = max(lo, (g0 / (g0 - g1), name), key=lambda end: end[0])
        else:
            hi = min(hi, (g0 / (g0 - g1), name), key=lambda end: end[0])
    nonempty = violated is None and lo[0] <= hi[0]
    v_recip = min(max(preferred, lo[0] if nonempty else 0), hi[0] if nonempty else 1)
    # at theta = 1 the slacks pin p and q to the alternating pattern, the base
    # tuples are unconstrained, and all ones meet the endpoint budget
    r_recips, s_recips = ([y / (1 - theta) if theta < 1 else Fraction(1)
                           for y in _scaled_mix(xs, theta, v_recip)] for xs in (rp, rq))
    residual = _certificate_residual(p, q, theta, v_recip, r_recips, s_recips)
    feasible = nonempty and residual == 0
    if not feasible:
        branch = "infeasible"
        detail.update({"violated": violated} if violated else
                      {"lo": lo[0], "lo_set_by": lo[1], "hi": hi[0], "hi_set_by": hi[1]})
        r_recips, s_recips = ([min(max(x, Fraction(0)), Fraction(1)) for x in xs]
                              for xs in (r_recips, s_recips))
    return InterpolationCertificate(
        theta=theta,
        v=Exponent(v_recip),
        r=ExponentTuple.from_reciprocals(r_recips),
        s=ExponentTuple.from_reciprocals(s_recips),
        feasible=feasible,
        residual=float(residual),
        branch=branch,
        detail=detail,
    )
