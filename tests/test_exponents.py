"""Exponent calculus: conjugation, functionals, condition predicates, patterns."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phaselab.exponents import (
    CRITERIA,
    Exponent,
    ExponentError,
    ExponentTuple,
    check_conditions,
    conjugate_reciprocals,
    _certificate_residual,
    construct_interpolation,
    holder_excess,
    implication_chain,
    oddpair_minima,
    parse_exponent,
    pattern_exponents,
)

recips = st.fractions(min_value=0, max_value=1, max_denominator=32)
eighths = st.integers(0, 8).map(lambda k: Fraction(k, 8))


def test_conjugate_branches():
    assert Exponent.from_value(1).conjugate().is_infinite
    assert Exponent.from_value(2).conjugate().reciprocal == Fraction(1, 2)
    assert Exponent.from_value(Fraction(4, 3)).conjugate().reciprocal == Fraction(1, 4)
    assert parse_exponent("inf").conjugate().reciprocal == 1
    # quasi-range: p in (0, 1] maps to infinity
    assert Exponent.from_value(Fraction(1, 2)).conjugate().is_infinite


@given(recips)
def test_conjugate_involution(r):
    e = Exponent(r)
    assert e.conjugate().conjugate() == e


def test_parse_exponent_errors():
    with pytest.raises(ExponentError):
        parse_exponent("zero")
    with pytest.raises(ExponentError):
        parse_exponent("-2")
    with pytest.raises(ExponentError):
        Exponent(Fraction(-1, 2))
    with pytest.raises(ExponentError):
        Exponent(float("inf"))
    with pytest.raises(ExponentError):
        Exponent(float("nan"))


def test_holder_excess_values():
    assert holder_excess([1, 1, 1, 1]) == Fraction(3, 2)
    assert holder_excess([0, 0, 0, 0]) == Fraction(-1, 2)
    assert holder_excess([Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2)]) == Fraction(1, 4)
    with pytest.raises(ExponentError):
        holder_excess([1, 1])  # N = 1 not allowed


@given(st.lists(recips, min_size=4, max_size=6))
def test_holder_excess_conjugate_duality(x):
    assert holder_excess(x) + holder_excess([1 - v for v in x]) == 1


@given(st.permutations(range(4)), st.lists(recips, min_size=4, max_size=4))
def test_holder_excess_permutation_invariant(perm, x):
    assert holder_excess(x) == holder_excess([x[i] for i in perm])


def _oddpair_oracle(x, y):
    """Brute enumeration over ordered opposite-parity pairs."""
    n = len(x) - 1
    plain, balanced = None, None
    for j in range(n + 1):
        for k in range(n + 1):
            if (j + k) % 2 == 0:
                continue
            mean = Fraction(x[j] + y[k], 2) if isinstance(x[j], int) else (x[j] + y[k]) / 2
            plain = mean if plain is None else min(plain, mean)
            cand = min(mean, 1 - mean)
            balanced = cand if balanced is None else min(balanced, cand)
    return plain, balanced


def test_oddpair_minima_values():
    h = Fraction(1, 2)
    assert oddpair_minima([h, h, h, h])[:2] == (h, h)
    assert oddpair_minima([1, 1, 0, 0])[:2] == (0, 0)
    # frozen from the 8-ordered-pair enumeration oracle
    x = [h, 0, h, h]
    y = [h, 1, h, h]
    assert _oddpair_oracle(x, y) == (Fraction(1, 4), Fraction(1, 4))
    assert oddpair_minima(x, y)[:2] == (Fraction(1, 4), Fraction(1, 4))


@given(st.lists(recips, min_size=4, max_size=4), st.lists(recips, min_size=4, max_size=4))
def test_oddpair_minima_match_oracle(x, y):
    assert oddpair_minima(x, y)[:2] == _oddpair_oracle(x, y)


def _parity_permutations(n_slots):
    evens = [j for j in range(n_slots) if j % 2 == 0]
    odds = [j for j in range(n_slots) if j % 2 == 1]
    for pe in itertools.permutations(evens):
        for po in itertools.permutations(odds):
            perm = list(range(n_slots))
            for a, b in zip(evens, pe):
                perm[a] = b
            for a, b in zip(odds, po):
                perm[a] = b
            yield perm


@given(st.lists(recips, min_size=4, max_size=4))
@settings(max_examples=25)
def test_oddpair_minima_parity_permutation_invariant(x):
    base = oddpair_minima(x)[:2]
    for perm in _parity_permutations(4):
        assert oddpair_minima([x[i] for i in perm])[:2] == base


def test_check_conditions_worked_instance():
    p = ExponentTuple.parse("2,inf,2,2")
    q = ExponentTuple.parse("2,1,2,2")
    r = check_conditions("thm-B", p, q)
    assert r.holds and r.lhs == 0.25 and r.rhs == 0.25
    quarter = Fraction(1, 4)
    for key in ("Q(1/p)", "Q0(1/q')", "Q(1/p,1/q)", "R(1/p)"):
        assert r.detail[key] == quarter
    r25 = check_conditions("cotowa-2.5", p, q)
    assert not r25.holds
    assert r25.detail["entrywise_min"] == 0  # 1/p_1 = 0 enters the minimum


def test_check_conditions_all_two():
    t = ExponentTuple.parse("2,2,2,2")
    assert check_conditions("thm-B", t, t).holds
    assert check_conditions("prop-A", t, t).holds
    assert check_conditions("cotowa-2.5", t, t).holds


def test_bilinear_base_criterion():
    # two-sided sign condition: excess of 1/q' nonpositive, of 1/p nonnegative
    good_p = ExponentTuple.parse("1,1,1,inf")
    assert check_conditions("bilinear-base", good_p, good_p).holds
    all2 = ExponentTuple.parse("2,2,2,2")
    r = check_conditions("bilinear-base", all2, all2)
    assert not r.holds and r.detail["R(1/q')"] == Fraction(1, 2)
    # even N is allowed here (only the pair criteria need odd N)
    even = ExponentTuple.parse("1,1,inf")
    assert check_conditions("bilinear-base", even, even).holds


def test_check_conditions_validation():
    p = ExponentTuple.parse("2,2,2,2")
    q4 = ExponentTuple.parse("2,2,2,2,2")
    with pytest.raises(ExponentError):
        check_conditions("thm-B", p, q4)
    even = ExponentTuple.parse("2,2,2")
    with pytest.raises(ExponentError):
        check_conditions("thm-B", even, even)
    with pytest.raises(ExponentError):
        check_conditions("nope", p, p)
    quasi = ExponentTuple.parse("1/2,2,2,2")
    with pytest.raises(ExponentError):
        check_conditions("thm-B", quasi, quasi)


def test_twist_criterion_swaps_roles():
    p = ExponentTuple.parse("2,inf,2,2")
    q = ExponentTuple.parse("2,1,2,2")
    # twist on (q, p) coincides with thm-B on (p, q)
    tw = check_conditions("twist", q, p)
    tb = check_conditions("thm-B", p, q)
    assert tw.holds == tb.holds and tw.lhs == tb.lhs and tw.rhs == tb.rhs


def test_prop2_pattern_criterion():
    pat = pattern_exponents(3, Exponent.from_value(4), 2)
    r = check_conditions("prop2-pattern", pat, pat)
    assert r.holds
    other = ExponentTuple.parse("4,4,4,4")
    assert not check_conditions("prop2-pattern", other, other).holds


@given(recips, recips, recips, recips, recips, recips, recips, recips)
@settings(max_examples=400)
def test_condition_dominance(r0, r1, r2, r3, s0, s1, s2, s3):
    p = ExponentTuple.from_reciprocals([r0, r1, r2, r3])
    q = ExponentTuple.from_reciprocals([s0, s1, s2, s3])
    if check_conditions("cotowa-2.5", p, q).holds:
        assert check_conditions("thm-B", p, q).holds
    if check_conditions("thm-B", p, q).holds:
        assert check_conditions("prop-A", p, q).holds


def _pair_of_tuples(n, elements=recips):
    vec = st.lists(elements, min_size=n + 1, max_size=n + 1)
    return st.tuples(vec, vec)


@given(st.sampled_from([2, 3, 5]).flatmap(_pair_of_tuples))
@example(([Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2)],
          [Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2)]))  # the worked instance
@settings(max_examples=150)
def test_check_conditions_detail_matches_fraction_route(pair):
    """The scaled-integer table reproduces every criterion's Fraction functionals.

    ``twist`` is ``thm-B`` with ``p`` and ``q`` exchanged, so its expected
    values come from the same Fraction route on ``(q, p)``.  At even N only
    the two criteria without pair minima apply.
    """
    x, y = pair
    p = ExponentTuple.from_reciprocals(x)
    q = ExponentTuple.from_reciprocals(y)
    odd = p.n_factors % 2 == 1
    paired = ("prop-A", "thm-B", "twist") if odd else ()
    for criterion in ("bilinear-base", "cotowa-2.5") + paired:
        a, b, na, nb = (y, x, "q", "p") if criterion == "twist" else (x, y, "p", "q")
        bc = conjugate_reciprocals(b)
        r_bc, r_a = holder_excess(bc), holder_excess(a)
        want = {f"R(1/{nb}')": r_bc, f"R(1/{na})": r_a}
        if criterion == "bilinear-base":
            rhs = min(Fraction(0), r_a)
        elif criterion == "cotowa-2.5":
            want["entrywise_min"] = min(x + y + [1 - v for v in x + y])
            rhs = min(want["entrywise_min"], r_a)
        else:
            _, q_a, arg_a = oddpair_minima(a)
            q0_bc, q_bc, arg_bc = oddpair_minima(bc)
            _, q_pq, arg_pq = oddpair_minima(x, y)
            want.update({f"Q(1/{na})": q_a, f"Q0(1/{nb}')": q0_bc,
                         "Q(1/p,1/q)": q_pq, "argmin(1/p,1/q)": arg_pq})
            if criterion != "twist":
                want.update({f"Q(1/{nb}')": q_bc, f"argmin(1/{na})": arg_a,
                             f"argmin(1/{nb}')": arg_bc})
            rhs = min(q_a, q_bc if criterion == "prop-A" else q0_bc, q_pq, r_a)
        lhs = max(r_bc, Fraction(0))
        r = check_conditions(criterion, p, q)
        assert r.detail == want
        assert (r.holds, r.lhs, r.rhs) == (lhs <= rhs, float(lhs), float(rhs))
    if odd:
        tw, tb = check_conditions("twist", p, q), check_conditions("thm-B", q, p)
        assert (tw.holds, tw.lhs, tw.rhs) == (tb.holds, tb.lhs, tb.rhs)


def test_check_conditions_refuses_one_factor():
    # with N = 1 the excess functionals divide by N - 1 = 0 (holder_excess
    # refuses them too), so no criterion has a value to report
    t = ExponentTuple.parse("2,2")
    for criterion in CRITERIA:
        with pytest.raises(ExponentError, match="N >= 2"):
            check_conditions(criterion, t, t)


def test_pattern_exponents_values():
    assert str(pattern_exponents(3, Exponent.from_value(2), 1)) == "2,2,2,2"
    assert str(pattern_exponents(5, parse_exponent("inf"), 1)) == "inf,1,inf,1,inf,inf"
    assert str(pattern_exponents(3, Exponent.from_value(1), 2)) == "1,inf,1,inf"
    # quasi-range base: interior even slots clip at 1
    quasi = pattern_exponents(5, Exponent.from_value(Fraction(1, 2)), 1)
    assert [e.reciprocal for e in quasi.entries] == [
        Fraction(2), Fraction(0), Fraction(1), Fraction(0), Fraction(1), Fraction(2)]
    with pytest.raises(ExponentError):
        pattern_exponents(4, Exponent.from_value(2), 1)
    with pytest.raises(ExponentError):
        pattern_exponents(3, Exponent.from_value(2), 3)


def test_implication_chain_values():
    assert implication_chain([1, 0, 1, 0]) == (True, True, True)
    assert implication_chain([1, 1, 1, 1]) == (False, False, False)
    assert implication_chain([0, 0, 0, 0]) == (True, True, True)
    with pytest.raises(ExponentError):
        implication_chain([1, 0, 1], "odd-pairs")
    assert implication_chain([0, 0, 0], "all-pairs") == (True, True, True)


@given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=8),
                min_size=4, max_size=4))
def test_implication_chain_property_n3(x):
    c1, c2, c3 = implication_chain(x, "odd-pairs")
    assert (not c1) or c2
    assert (not c2) or c3
    d1, d2, d3 = implication_chain(x, "all-pairs")
    assert (not d1) or d2
    assert (not d2) or d3


def test_conjugate_reciprocals_rejects_quasi():
    with pytest.raises(ExponentError):
        conjugate_reciprocals([Fraction(3, 2)])


@st.composite
def _certificate_pairs(draw):
    """Reciprocal pairs at N = 3 or 5, mixed as the proof does:
    ``(1 - theta) * base + theta * alternating`` on the 1/8 grid, with the base
    ``1/s`` in ``[1/2, 1]``.  Prop-A holds for about a third of them at N = 5,
    against 1 in 170 plain grid pairs."""
    n = draw(st.sampled_from([3, 5]))
    r = draw(st.lists(eighths, min_size=n + 1, max_size=n + 1))
    s = draw(st.lists(eighths.map(lambda x: (1 + x) / 2), min_size=n + 1, max_size=n + 1))
    theta, t = draw(eighths), draw(eighths)
    u = [(1 - t) if j % 2 == 0 else t for j in range(n + 1)]
    return tuple([(1 - theta) * a + theta * b for a, b in zip(xs, u)] for xs in (r, s))


class TestInterpolation:
    def test_all_two_endpoint(self):
        t = ExponentTuple.parse("2,2,2,2")
        cert = construct_interpolation(t, t)
        assert cert.branch == "endpoint-mix"
        assert cert.theta == 1
        assert cert.v.reciprocal == Fraction(1, 2)
        assert cert.feasible and cert.residual == 0.0

    def test_theta_zero(self):
        t = ExponentTuple.parse("1,1,1,inf")
        cert = construct_interpolation(t, t)
        assert cert.branch == "theta-zero"
        assert cert.theta == 0 and cert.feasible
        assert cert.r == t and cert.s == t

    def test_worked_instance_reported_honestly(self):
        p = ExponentTuple.parse("2,inf,2,2")
        q = ExponentTuple.parse("2,1,2,2")
        cert = construct_interpolation(p, q)
        assert cert.theta == Fraction(1, 2)
        # no admissible v exists for this tuple; the solver must say so, and
        # name the two constraints that empty the interval: at theta = 1/2,
        # 1/r_1 = -1/v needs 1/v <= 0 while 1/s_1 = 2 - 1/v needs 1/v >= 1
        assert not cert.feasible
        assert cert.branch == "infeasible"
        assert cert.residual > 0
        assert cert.detail["lo"] == 1 and cert.detail["lo_set_by"] == "1/s_1 <= 1"
        assert cert.detail["hi"] == 0 and cert.detail["hi_set_by"] == "1/r_1 >= 0"

    def test_single_point_interval_off_the_scan_grid(self):
        # at theta = 3/8 only 1/v = 1/3 meets every constraint; 1/3 is not
        # a dyadic grid point, and the proof's choice 4/3 lies above 1
        p = ExponentTuple.parse("2,4/3,4/3,4/3")
        q = ExponentTuple.parse("2,4/3,8/7,2")
        cert = construct_interpolation(p, q)
        assert cert.theta == Fraction(3, 8)
        assert cert.feasible and cert.residual == 0.0
        assert cert.branch == "endpoint-mix"
        assert cert.v.reciprocal == Fraction(1, 3)
        for t in (Fraction(1, 3) - Fraction(1, 96), Fraction(1, 3) + Fraction(1, 96)):
            assert _certificate_residual(p, q, cert.theta, t, *_mixed(p, q, cert.theta, t)) > 0

    def test_delegated_branch(self):
        t = ExponentTuple.from_reciprocals([Fraction(3, 5)] * 4)
        cert = construct_interpolation(t, t)
        assert cert.branch == "delegated-2.5"
        assert cert.feasible and cert.residual == 0.0
        assert cert.detail["cotowa-2.5"] is True

    def test_delegated_branch_needs_entrywise_condition(self):
        # every reciprocal exceeds theta/2 = 1/16, yet cotowa-2.5 fails
        # (1/p_3 = 1); v = 2 leaves 1/r_3 = 15/14 > 1 here, while the
        # proof's choice v = 1 verifies
        p = ExponentTuple.parse("8/3,8,2,1")
        q = ExponentTuple.parse("8/7,8/5,8/7,2")
        assert not check_conditions("cotowa-2.5", p, q).holds
        cert = construct_interpolation(p, q)
        assert cert.feasible and cert.residual == 0.0
        assert cert.branch == "endpoint-mix"
        assert cert.v.reciprocal == 1

    def test_rejects_inadmissible_input(self):
        bad = ExponentTuple.parse("4,4,4,4")  # excess of 1/q' is 1, pair minima 1/4
        with pytest.raises(ExponentError):
            construct_interpolation(bad, bad)

    @given(_certificate_pairs())
    @example(([Fraction(1, 2), Fraction(3, 4), Fraction(3, 4), Fraction(3, 4)],
              [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8), Fraction(1, 2)]))  # off the grid
    @example(([Fraction(1, 2), 0, Fraction(1, 2), Fraction(1, 2)],
              [Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 2)]))  # the worked instance
    @settings(max_examples=300, deadline=None)
    def test_feasible_certificates_verify(self, pair):
        """Oracle: a scan over the proof's choice of 1/v and t = k/16.

        Every pair the scan certifies, the interval certifies too, and every
        interval certificate re-verifies exactly and independently.
        """
        p, q = (ExponentTuple.from_reciprocals(x) for x in pair)
        if not check_conditions("prop-A", p, q).holds:
            return
        n = p.n_factors
        cert = construct_interpolation(p, q)
        theta = cert.theta
        scan = [Fraction(k, 16) for k in range(17)]
        if theta > 0 and min(p.reciprocals() + q.reciprocals()) <= theta:
            scan.insert(0, min(p.reciprocals() + q.reciprocals()) / theta)
        if any(_certificate_residual(p, q, theta, t, *_mixed(p, q, theta, t)) == 0 for t in scan):
            assert cert.feasible
        if cert.branch == "delegated-2.5":
            assert cert.feasible
        if not cert.feasible:
            assert cert.residual > 0
            assert "violated" in cert.detail or cert.detail["lo"] > cert.detail["hi"]
            return
        vr = cert.v.reciprocal
        r, s = [e.reciprocal for e in cert.r.entries], [e.reciprocal for e in cert.s.entries]
        assert cert.residual == 0.0 and _certificate_residual(p, q, theta, vr, r, s) == 0
        assert cert.r.in_banach_range() and cert.s.in_banach_range()
        # re-verify the mixing equations and the budget by hand
        if theta < 1:
            for j in range(n + 1):
                u = (1 - vr) if j % 2 == 0 else vr
                assert (1 - theta) * r[j] + theta * u == p[j].reciprocal
                assert (1 - theta) * s[j] + theta * u == q[j].reciprocal
        assert sum(1 - x for x in s) <= 1
        assert sum(r) >= 1


def _mixed(p, q, theta, t):
    """1/r and 1/s solving the mixing equations at 1/v = t (all ones at theta = 1)."""
    if theta == 1:
        return [Fraction(1)] * len(p), [Fraction(1)] * len(q)
    u = [(1 - t) if j % 2 == 0 else t for j in range(len(p))]
    return tuple([(x.reciprocal - theta * uj) / (1 - theta) for x, uj in zip(xs.entries, u)]
                 for xs in (p, q))
