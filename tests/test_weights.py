"""Weight functions, literals, multilinear weight conditions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from phaselab.weights import (
    WeightError,
    exp_weight,
    parse_weight,
    parse_weight_list,
    poly_weight,
    split_weight,
    unit_weight,
    weight_condition,
)
from phaselab.weights import _tuple_arguments

RNG = np.random.default_rng(0)


def test_evaluate_values():
    assert poly_weight(0)((0.3, 4.0)) == 1.0
    assert poly_weight(2)((3.0, 4.0)) == pytest.approx(26.0)
    assert exp_weight(1)((2.0, 0.0)) == pytest.approx(math.e**2)
    w = split_weight(poly_weight(1.0), "Y")
    assert w((9.0, 9.0, 3.0, 4.0)) == pytest.approx(math.sqrt(26.0))
    assert w((3.0, 4.0, 0.0, 0.0)) == 1.0


def test_exp_rate_cap():
    with pytest.raises(WeightError):
        exp_weight(1.5)


@pytest.mark.parametrize("text", ["poly:s=inf", "poly:s=-inf", "poly:s=nan", "exp:c=nan",
                                  "exp:c=-inf", "split:poly:s=nan@Y", "unit*exp:c=nan"])
def test_non_finite_parameter_refused(text):
    # an infinite or NaN parameter would give every ratio 0 or NaN after a full run
    with pytest.raises(WeightError, match="finite"):
        parse_weight(text)


@pytest.mark.parametrize("text", ["poly:s=abc", "exp:c=", "split:exp:c=x@Y", "unit*poly:s=1e"])
def test_non_number_parameter_refused(text):
    # a bare float() would let ValueError escape the CLI's usage-error handling
    with pytest.raises(WeightError, match="number"):
        parse_weight(text)


def test_parse_literals():
    assert parse_weight("unit").kind == "unit"
    assert parse_weight("poly:s=1.5").param == 1.5
    assert parse_weight("exp:c=0.25").param == 0.25
    w = parse_weight("split:poly:s=1@Y")
    assert w.kind == "split" and w.block == "Y" and w.inner[0].param == 1.0
    prod = parse_weight("poly:s=1*exp:c=0.1")
    assert prod.kind == "product" and len(prod.inner) == 2
    with pytest.raises(WeightError):
        parse_weight("gauss:s=1")
    with pytest.raises(WeightError):
        parse_weight("split:poly:s=1")
    assert len(parse_weight_list("unit,unit,poly:s=1")) == 3


def test_literal_round_trip():
    for text in ("unit", "poly:s=-1.5", "exp:c=0.25", "split:poly:s=2@X",
                 "poly:s=1*split:exp:c=0.5@Y"):
        w = parse_weight(text)
        assert parse_weight(w.literal()).literal() == w.literal()


def test_reciprocal_and_moderator():
    w = split_weight(poly_weight(2.0), "Y")
    pt = (1.0, 2.0, 3.0, 4.0)
    assert w.reciprocal()(pt) == pytest.approx(1.0 / w(pt))


def test_unit_weight_conditions_exact():
    for kind in ("weyl", "twist"):
        holds, worst, flat = weight_condition(kind, [unit_weight()] * 4)
        assert holds and worst == 0 and flat.shape == (8, 8)  # the whole tuple space


def test_split_poly_chain_satisfied():
    # telescoping Peetre chain: bounded below, and the sum 0 is attained on a flat
    for n_factors in (3, 5, 7):
        chain = ([split_weight(poly_weight(-1.0), "Y")]
                 + [split_weight(poly_weight(1.0), "Y")] * n_factors)
        for kind in ("weyl", "twist"):
            holds, worst, flat = weight_condition(kind, chain)
            assert holds and worst == 0, (kind, n_factors)
            assert np.allclose(_log_slopes(kind, chain, flat), 0.0, atol=1e-3)


def test_decaying_output_weight_fails():
    bad = [split_weight(poly_weight(-1.0), "Y")] + [unit_weight()] * 3
    for kind in ("weyl", "twist"):
        for d in (1, 2):
            holds, worst, flat = weight_condition(kind, bad, d=d)
            assert not holds and worst == -1, (kind, d)
            assert np.allclose(_log_slopes(kind, bad, flat, d), -1.0, atol=1e-3)


def test_exponential_rates_of_one_sign():
    # a live positive rate wins over any polynomial exponent on its flat
    assert weight_condition("weyl", [exp_weight(0.5)] * 4)[:2] == (True, math.inf)
    good = [split_weight(poly_weight(-3.0), "Y")] + [split_weight(exp_weight(0.5), "Y")] * 3
    holds, worst, flat = weight_condition("twist", good)
    assert holds and worst == 0  # wherever the s = -3 atom lives, an exponential one does
    assert np.allclose(_log_slopes("twist", good, flat), 0.0, atol=1e-3)


def test_condition_validation():
    with pytest.raises(WeightError):
        weight_condition("weyl", [unit_weight()])
    with pytest.raises(WeightError):
        weight_condition("nope", [unit_weight()] * 4)


# -- scalar oracles: one point, one tuple at a time -----------------------------

def _scalar_weight(w, point):
    """One weight at one point, by plain recursion over the spec."""
    if w.kind == "unit":
        return 1.0
    sq = float(np.dot(point, point))
    if w.kind == "poly":
        return (1.0 + sq) ** (w.param / 2)
    if w.kind == "exp":
        return math.exp(w.param * math.sqrt(sq))
    if w.kind == "split":
        half = len(point) // 2
        return _scalar_weight(w.inner[0], point[:half] if w.block == "X" else point[half:])
    return math.prod(_scalar_weight(v, point) for v in w.inner)


def _scalar_arguments(kind, pts):
    """Slot arguments of one tuple: slot 0 pairs (X_N, X_0), slot j pairs (X_j, X_{j-1})."""
    rows = []
    for X, Y in [(pts[-1], pts[0])] + [(pts[j], pts[j - 1]) for j in range(1, len(pts))]:
        if kind == "weyl":
            rows.append(np.concatenate([X + Y, X - Y]))
        else:
            rows.append(np.concatenate([X - Y, X + Y]))
    return rows


def _log_slopes(kind, weights, flat, d=1):
    """Log-slopes of the weight product over t = 1e2 -> 1e4 -> 1e6 along t u, u a
    generic vector of ``flat``, each slot evaluated by ``evaluate_grid`` at its point."""
    u = flat @ np.random.default_rng(0).standard_normal(flat.shape[1])
    logs = [sum(np.log(w.evaluate_grid(a)).item()
                for w, a in zip(weights, _scalar_arguments(kind, (t * u).reshape(-1, 2 * d))))
            for t in (1e2, 1e4, 1e6)]
    return np.diff(logs) / math.log(1e2)


SPLIT_POLY = [split_weight(poly_weight(-1.0), "Y")] + [split_weight(poly_weight(1.0), "Y")] * 3
SPLIT_EXP = [split_weight(exp_weight(-0.5), "Y")] + [split_weight(exp_weight(0.5), "Y")] * 3
MIXED = [parse_weight("poly:s=-1*split:exp:c=-0.25@X"), poly_weight(0.5),
         parse_weight("split:poly:s=1@X*exp:c=0.1"), split_weight(exp_weight(0.25), "Y")]
REPRO = parse_weight_list("split:poly:s=3@X,split:poly:s=1@Y,"
                          "split:poly:s=-3@X*split:poly:s=2@Y,split:poly:s=1@Y")


# explicit ids keep each row's test name stable when rows are added or removed;
# worst None: exponential rates of both signs, which the exact rule refuses
@pytest.mark.parametrize("kind, weights, d, worst", [
    pytest.param("weyl", [unit_weight()] * 4, 1, 0, id="weyl-weights0-None-1"),
    pytest.param("twist", [unit_weight()] * 4, 1, 0, id="twist-weights1-None-1"),
    pytest.param("weyl", SPLIT_POLY, 1, 0, id="weyl-weights3-None-1"),
    pytest.param("twist", SPLIT_POLY, 1, 0, id="twist-weights4-None-1"),
    pytest.param("weyl", [split_weight(poly_weight(-1.0), "Y")] + [unit_weight()] * 3, 1, -1,
                 id="weyl-weights5-None-1"),
    pytest.param("weyl", SPLIT_EXP, 1, None, id="weyl-weights6-None-1"),
    pytest.param("weyl", [split_weight(exp_weight(-0.5), "Y")] + [unit_weight()] * 3, 1,
                 -math.inf, id="weyl-weights7-None-1"),
    pytest.param("twist", SPLIT_EXP, 1, None, id="twist-weights8-None-1"),
    pytest.param("weyl", MIXED, 1, None, id="weyl-weights9-None-1"),
    pytest.param("twist", MIXED, 2, None, id="twist-weights13-None-2"),
    # a sampled infimum over 10,000 tuples in a box of radius 32 plus axis rays
    # read 0.073 here, yet along a flat the product decays like t^-2
    pytest.param("weyl", REPRO, 1, -2, id="weyl-repro-1"),
])
def test_condition_matches_scalar_loop(kind, weights, d, worst):
    """Each row's exact verdict; a finite worst sum is the log-slope of the product
    along the witness flat, read slot by slot at one point at a time."""
    if worst is None:
        with pytest.raises(WeightError, match="both signs"):
            weight_condition(kind, weights, d=d)
        return
    holds, got, flat = weight_condition(kind, weights, d=d)
    assert (holds, got) == (worst >= 0, worst)
    assert isinstance(got, Fraction) == math.isfinite(worst)  # exact sums
    if math.isfinite(worst):
        assert np.allclose(_log_slopes(kind, weights, flat, d), worst, atol=1e-3)


@pytest.mark.parametrize("kind, d", [("weyl", 1), ("twist", 2)],
                         ids=["weyl-None-1", "twist-None-2"])
def test_tuple_arguments_match_scalar_loop(kind, d):
    pts = RNG.uniform(-3, 3, size=(50, 4, 2 * d))
    args = _tuple_arguments(kind, pts)
    for tup, rows in zip(pts, args):
        assert np.allclose(rows, _scalar_arguments(kind, tup), rtol=1e-14, atol=1e-14)


def test_call_matches_scalar_weight():
    for w in (unit_weight(), poly_weight(1.5), exp_weight(-0.5), *MIXED):
        for point in RNG.uniform(-4, 4, size=(20, 4)):
            assert w(point) == pytest.approx(_scalar_weight(w, point), rel=1e-12, abs=0.0)


def test_split_weight_needs_even_dimension():
    w = split_weight(poly_weight(1.0), "X")
    with pytest.raises(WeightError):
        w((1.0, 2.0, 3.0))
    with pytest.raises(WeightError):
        w.evaluate_grid(np.ix_(np.zeros(3), np.zeros(3), np.zeros(3)))
