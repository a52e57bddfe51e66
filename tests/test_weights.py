"""Weight functions, literals, multilinear weight conditions."""

import math

import numpy as np
import pytest

from phaselab.weights import (
    WeightError,
    exp_weight,
    parse_weight,
    parse_weight_list,
    poly_weight,
    product_weight_condition,
    split_weight,
    unit_weight,
)
from phaselab.weights import _escape_tuples, _tuple_arguments

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
    assert len(parse_weight_list("unit,unit,poly:s=1", 3)) == 3
    with pytest.raises(WeightError):
        parse_weight_list("unit,unit", 3)


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
    weights = [unit_weight()] * 4
    for kind in ("weyl", "twist"):
        sat, inf = product_weight_condition(kind, weights, sample_count=300, seed=1)
        assert sat and inf == 1.0
    sat, inf = product_weight_condition("a-calculus", weights, A=0.5, sample_count=300, seed=1)
    assert sat and inf == 1.0


def test_split_poly_chain_satisfied():
    chain = [split_weight(poly_weight(-1.0), "Y")] + [split_weight(poly_weight(1.0), "Y")] * 3
    sat, inf = product_weight_condition("weyl", chain, sample_count=3000, seed=2)
    # telescoping Peetre chain bounds the product below by 2^{-(N-1)/2}
    assert sat and inf >= 2 ** (-1.0) - 1e-9
    sat, inf = product_weight_condition("twist", chain, sample_count=3000, seed=2)
    assert sat


def test_decaying_output_weight_fails():
    bad = [split_weight(poly_weight(-1.0), "Y")] + [unit_weight()] * 3
    sat, inf = product_weight_condition("weyl", bad, sample_count=1000, seed=3)
    assert not sat and inf < 1e-6  # escape ray drives the product to zero


def test_exponential_chain_log_space():
    chain = [split_weight(exp_weight(-0.5), "Y")] + [split_weight(exp_weight(0.5), "Y")] * 3
    sat, inf = product_weight_condition("weyl", chain, sample_count=1000, seed=4)
    assert sat
    bad = [split_weight(exp_weight(-0.5), "Y")] + [unit_weight()] * 3
    sat, inf = product_weight_condition("weyl", bad, sample_count=1000, seed=4)
    assert not sat and inf == 0.0


def test_a_calculus_half_identity_coincides_with_plain():
    """For the symmetric quantization the sheared pattern is the plain one
    after (U, V) -> (U/2, JV); checked pointwise on shared samples."""
    pts = RNG.uniform(-3, 3, size=(1, 4, 2))
    (args_a,) = _tuple_arguments("a-calculus", pts, np.array([[0.5]]), 1)
    (args_w,) = _tuple_arguments("weyl", pts, None, 1)
    for row_a, row_w in zip(args_a, args_w):
        U, V = row_w[:2], row_w[2:]
        assert np.allclose(row_a[:2], U / 2)
        assert np.allclose(row_a[2:], [-V[1], V[0]])


def test_condition_validation():
    with pytest.raises(WeightError):
        product_weight_condition("weyl", [unit_weight()])
    with pytest.raises(WeightError):
        product_weight_condition("a-calculus", [unit_weight()] * 4)  # missing A
    with pytest.raises(WeightError):
        product_weight_condition("nope", [unit_weight()] * 4)


# -- scalar oracles: one point, one tuple at a time -----------------------------

def _scalar_weight(w, point, log=False):
    """One weight at one point, by plain recursion over the spec."""
    if w.kind == "unit":
        return 0.0 if log else 1.0
    sq = float(np.dot(point, point))
    if w.kind == "poly":
        return w.param / 2 * math.log1p(sq) if log else (1.0 + sq) ** (w.param / 2)
    if w.kind == "exp":
        return w.param * math.sqrt(sq) if log else math.exp(w.param * math.sqrt(sq))
    if w.kind == "split":
        half = len(point) // 2
        return _scalar_weight(w.inner[0], point[:half] if w.block == "X" else point[half:], log)
    parts = [_scalar_weight(v, point, log) for v in w.inner]
    return sum(parts) if log else math.prod(parts)


def _scalar_arguments(kind, pts, A, d):
    """Slot arguments of one tuple: slot 0 pairs (X_N, X_0), slot j pairs (X_j, X_{j-1})."""
    rows = []
    for X, Y in [(pts[-1], pts[0])] + [(pts[j], pts[j - 1]) for j in range(1, len(pts))]:
        if kind == "weyl":
            rows.append(np.concatenate([X + Y, X - Y]))
        elif kind == "twist":
            rows.append(np.concatenate([X - Y, X + Y]))
        else:
            x, xi, y, eta = X[:d], X[d:], Y[:d], Y[d:]
            rows.append(np.concatenate([y + A @ (x - y), xi + A.T @ (eta - xi), eta - xi, x - y]))
    return rows


def _scalar_condition(kind, weights, A=None, sample_count=1000, seed=0, d=1, radius=32.0):
    """The infimum of ``product_weight_condition`` by a loop over tuples."""
    n_factors = len(weights) - 1
    A = np.atleast_2d(np.asarray(A, dtype=float)) if kind == "a-calculus" else None
    rng = np.random.default_rng(seed)
    tuples = list(_escape_tuples(n_factors, d))
    tuples += [rng.uniform(-radius, radius, size=(n_factors + 1, 2 * d))
               for _ in range(sample_count)]
    log_inf = math.inf
    for pts in tuples:
        args = _scalar_arguments(kind, pts, A, d)
        log_inf = min(log_inf, sum(_scalar_weight(w, a, log=True) for w, a in zip(weights, args)))
    return math.exp(log_inf) if log_inf > -745 else 0.0


SPLIT_POLY = [split_weight(poly_weight(-1.0), "Y")] + [split_weight(poly_weight(1.0), "Y")] * 3
SPLIT_EXP = [split_weight(exp_weight(-0.5), "Y")] + [split_weight(exp_weight(0.5), "Y")] * 3
MIXED = [parse_weight("poly:s=-1*split:exp:c=-0.25@X"), poly_weight(0.5),
         parse_weight("split:poly:s=1@X*exp:c=0.1"), split_weight(exp_weight(0.25), "Y")]


@pytest.mark.parametrize("kind, weights, A, d", [
    ("weyl", [unit_weight()] * 4, None, 1),
    ("twist", [unit_weight()] * 4, None, 1),
    ("a-calculus", [unit_weight()] * 4, 0.5, 1),
    ("weyl", SPLIT_POLY, None, 1),
    ("twist", SPLIT_POLY, None, 1),
    ("weyl", [split_weight(poly_weight(-1.0), "Y")] + [unit_weight()] * 3, None, 1),
    ("weyl", SPLIT_EXP, None, 1),
    ("weyl", [split_weight(exp_weight(-0.5), "Y")] + [unit_weight()] * 3, None, 1),
    ("twist", SPLIT_EXP, None, 1),
    ("weyl", MIXED, None, 1),
    ("a-calculus", SPLIT_POLY, 0.5, 1),
    ("a-calculus", MIXED, 0.25, 1),
    ("a-calculus", MIXED, [[0.25, 0.5], [0.0, 0.75]], 2),
    ("twist", MIXED, None, 2),
])
def test_condition_matches_scalar_loop(kind, weights, A, d):
    _, inf = product_weight_condition(kind, weights, A=A, sample_count=400, seed=7, d=d)
    want = _scalar_condition(kind, weights, A=A, sample_count=400, seed=7, d=d)
    assert inf == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind, A, d", [
    ("weyl", None, 1), ("twist", None, 2), ("a-calculus", [[0.25, 0.5], [0.0, 0.75]], 2),
])
def test_tuple_arguments_match_scalar_loop(kind, A, d):
    A = None if A is None else np.asarray(A)
    pts = RNG.uniform(-3, 3, size=(50, 4, 2 * d))
    args = _tuple_arguments(kind, pts, A, d)
    for tup, rows in zip(pts, args):
        assert np.allclose(rows, _scalar_arguments(kind, tup, A, d), rtol=1e-14, atol=1e-14)


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
