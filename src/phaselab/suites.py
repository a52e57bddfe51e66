"""Named verification suites: every check is a (name, value, tolerance) row.

These back both the command-line runner and the acceptance tests; each check
re-derives its expected quantity from an independent route (direct sums,
matrix oracles, exhaustive enumeration) rather than trusting the code under
test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exponents import (
    ExponentTuple,
    check_conditions,
    construct_interpolation,
    holder_excess,
    implication_chain,
)
from .grids import (
    GridFunction,
    PhaseGrid,
    constant_symbol,
    make_grid,
    symplectic_fourier,
)
from .lab import (
    EnsembleSpec,
    RatioConfig,
    RatioReport,
    default_window,
    ensemble_generate,
    paired_stft,
    ratio_experiment_multi,
    stft_integral_representation,
    window_for_representation,
    _random_atoms,
)
from .stft import stft, symplectic_stft
from .weights import poly_weight, split_weight, unit_weight
from .weyl import (
    calculi_transform,
    compose_kernels,
    involution,
    operator_matrix,
    point_reflection,
    twisted_convolution,
    weyl_product,
    weyl_product_via_operators,
)


@dataclass(frozen=True)
class Check:
    """One named verification with its tolerance (None = boolean verdict)."""

    name: str
    value: float
    tolerance: float | None
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _residual_check(name: str, value: float, tolerance: float) -> Check:
    return Check(name, float(value), float(tolerance), bool(value <= tolerance))


def _verdict_check(name: str, ok: bool) -> Check:
    return Check(name, 0.0 if ok else 1.0, None, bool(ok))


def _random_symbol(phase: PhaseGrid, rng: np.random.Generator) -> GridFunction:
    g = phase.symbol_grid
    vals = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return GridFunction(g, vals)


def _atom_cloud(phase: PhaseGrid, rng: np.random.Generator, atoms: int = 3,
                width: float | None = None, center_frac: float = 0.125,
                modulation_frac: float = 0.0625) -> GridFunction:
    L = phase.extent
    width = width if width is not None else min(1.0, L / 14)
    return _random_atoms(phase, rng, atoms, center_frac * L, modulation_frac * L, width)


def _rel(err_values: np.ndarray, ref_values: np.ndarray) -> float:
    scale = np.max(np.abs(ref_values))
    return float(np.max(np.abs(err_values)) / scale) if scale else 0.0


# -- transform identity suites -------------------------------------------------

def suite_involution(sizes=(16, 32, 64), trials: int = 50, seed: int = 0,
                     tolerance: float = 1e-12) -> list[Check]:
    """Double symplectic Fourier transform is the identity."""
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        phase = make_grid(1, n)
        worst = 0.0
        for _ in range(trials):
            a = _random_symbol(phase, rng)
            aa = symplectic_fourier(symplectic_fourier(a))
            worst = max(worst, _rel(aa.values - a.values, a.values))
        out.append(_residual_check(f"symplectic-involution[n={n}]", worst, tolerance))
    return out


def suite_convention(n: int = 16, pairs: int = 20, seed: int = 1,
                     tolerance: float = 1e-10) -> list[Check]:
    """Symplectic vs ordinary STFT comparison pinning the symplectic-form sign."""
    phase = make_grid(1, n)
    rng = np.random.default_rng(seed)
    c = n // 2
    worst = 0.0
    for _ in range(pairs):
        a = _random_symbol(phase, rng)
        Phi = _atom_cloud(phase, rng, atoms=1, modulation_frac=0.0)
        W = symplectic_stft(a, Phi)
        V = stft(a, Phi)
        rhs = np.empty_like(W.values)
        for ky in range(n):
            for ke in range(n):
                rhs[:, :, ky, ke] = 2 * V.values[:, :, (2 * c - ke) % n, ky]
        worst = max(worst, _rel(W.values - rhs, W.values))
    return [_residual_check(f"stft-comparison[n={n}]", worst, tolerance)]


def suite_products(n: int = 32, triples: int = 20, seed: int = 2,
                   tolerance: float = 1e-10) -> list[Check]:
    """Product identities: product-via-twist, transform exchange, duality,
    associativity; each reported as the max relative residual over the triples."""
    phase = make_grid(1, n)
    rng = np.random.default_rng(seed)
    cell = phase.symbol_grid.quadrature_weight
    worst = {"product-via-twist-unit": 0.0, "twist-fourier-exchange": 0.0,
             "product-fourier-image": 0.0, "product-duality": 0.0,
             "twist-duality": 0.0, "product-associativity": 0.0,
             "twist-associativity": 0.0}

    def inner(u, v):
        return complex(cell * np.sum(u.values * np.conj(v.values)))

    one = constant_symbol(phase)
    for _ in range(triples):
        a = _atom_cloud(phase, rng)
        b = _atom_cloud(phase, rng)
        c3 = _atom_cloud(phase, rng)
        pa = weyl_product(a, one)
        pb = weyl_product(one, a)
        worst["product-via-twist-unit"] = max(
            worst["product-via-twist-unit"],
            _rel(pa.values - a.values, a.values),
            _rel(pb.values - a.values, a.values),
        )
        lhs = symplectic_fourier(twisted_convolution(a, b))
        m1 = twisted_convolution(symplectic_fourier(a), b)
        m2 = twisted_convolution(point_reflection(a), symplectic_fourier(b))
        worst["twist-fourier-exchange"] = max(
            worst["twist-fourier-exchange"],
            _rel(lhs.values - m1.values, lhs.values),
            _rel(lhs.values - m2.values, lhs.values),
        )
        lhs = symplectic_fourier(weyl_product(a, b))
        rhs = (2 * math.pi) ** (-phase.d / 2) * twisted_convolution(
            symplectic_fourier(a), symplectic_fourier(b)).values
        worst["product-fourier-image"] = max(worst["product-fourier-image"],
                                             _rel(lhs.values - rhs, rhs))
        ip = inner(weyl_product(a, b), c3)
        conj_a = GridFunction(a.grid, np.conj(a.values))
        conj_b = GridFunction(b.grid, np.conj(b.values))
        d1 = inner(b, weyl_product(conj_a, c3))
        d2 = inner(a, weyl_product(c3, conj_b))
        worst["product-duality"] = max(worst["product-duality"],
                                       abs(ip - d1) / abs(ip), abs(ip - d2) / abs(ip))
        it = inner(twisted_convolution(a, b), c3)
        t1 = inner(a, twisted_convolution(c3, involution(b)))
        t2 = inner(b, twisted_convolution(involution(a), c3))
        worst["twist-duality"] = max(worst["twist-duality"],
                                     abs(it - t1) / abs(it), abs(it - t2) / abs(it))
        w1 = weyl_product(weyl_product(a, b), c3)
        w2 = weyl_product(a, weyl_product(b, c3))
        worst["product-associativity"] = max(worst["product-associativity"],
                                             _rel(w1.values - w2.values, w1.values))
        s1 = twisted_convolution(twisted_convolution(a, b), c3)
        s2 = twisted_convolution(a, twisted_convolution(b, c3))
        worst["twist-associativity"] = max(worst["twist-associativity"],
                                           _rel(s1.values - s2.values, s1.values))
    return [_residual_check(f"{k}[n={n}]", v, tolerance) for k, v in worst.items()]


def suite_routes(n: int = 64, seed: int = 3, tolerance: float = 1e-6) -> list[Check]:
    """Cross-route consistency: product via twisted convolution vs operator
    matrices, and operator equality under the calculi transform.

    The operator route samples kernels on the companion base lattice, whose
    representable offset window shrinks with the symbols' modulation reach;
    the ensemble therefore keeps modulations within 3% of the extent.
    """
    phase = make_grid(1, n)
    rng = np.random.default_rng(seed)
    a = _atom_cloud(phase, rng, modulation_frac=0.03)
    b = _atom_cloud(phase, rng, modulation_frac=0.03)
    p1 = weyl_product(a, b)
    p2 = weyl_product_via_operators(a, b)
    checks = [_residual_check(f"product-route[n={n}]", _rel(p1.values - p2.values, p1.values),
                              tolerance)]
    worst = 0.0
    for A1, A2 in itertools.product((0.0, 0.5, 1.0), repeat=2):
        a2 = calculi_transform(a, A1, A2)
        M1 = operator_matrix(a, A1)
        M2 = operator_matrix(a2, A2)
        worst = max(worst, _rel(M1.matrix - M2.matrix, M1.matrix))
    checks.append(_residual_check(f"calculi-operator-equality[n={n}]", worst, tolerance))
    direct = twisted_convolution(a, b, "direct")
    fast = twisted_convolution(a, b, "fast")
    checks.append(_residual_check(f"twist-fast-vs-direct[n={n}]",
                                  _rel(fast.values - direct.values, direct.values), 1e-12))
    return checks


def suite_kernel_factorization(n: int = 16, seed: int = 4, tolerance: float = 1e-10,
                               frob_tolerance: float = 1e-12) -> list[Check]:
    """Composition factorization vs iterated matrix products (N = 3) and the
    Hilbert-Schmidt submultiplicativity of composition."""
    phase = make_grid(1, n)
    base = phase.base_grid
    rng = np.random.default_rng(seed)
    m = base.count
    Ks = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(3)]
    composed, residual = compose_kernels(Ks, base)
    checks = [_residual_check(f"kernel-factorization[N=3,n={n}]", residual, tolerance)]

    def hs(K):
        return math.sqrt(base.quadrature_weight**2 * float(np.sum(np.abs(K) ** 2)))

    lhs = hs(composed)
    rhs = math.prod(hs(K) for K in Ks)
    margin = max(0.0, lhs / rhs - 1.0)
    checks.append(_residual_check("hs-submultiplicativity", margin, frob_tolerance))
    return checks


def suite_representation(n: int = 8, seed: int = 5, tolerance: float = 1e-6) -> list[Check]:
    """Integral representation of the paired STFT of N-fold products."""
    phase = make_grid(1, n)
    spec = EnsembleSpec(seed=seed, count=3, atoms_per_symbol=2, width_range=(0.4, 0.5),
                        center_radius=0.45, modulation_radius=0.4)
    symbols = ensemble_generate(spec, phase)
    window = default_window(phase)
    checks = []
    for N in (2, 3):
        factors = symbols[:N]
        stfts = [symplectic_stft(s, window) for s in factors]
        rep = stft_integral_representation(stfts)
        prod = factors[0]
        for s in factors[1:]:
            prod = weyl_product(prod, s)
        W0 = window_for_representation(phase, [window] * N)
        target = paired_stft(prod, W0)
        checks.append(_residual_check(f"stft-representation[N={N},n={n}]",
                                      _rel(rep.values - target.values, target.values),
                                      tolerance))
    return checks


# -- exponent suites ------------------------------------------------------------

def _fraction_grid(step: int, length: int):
    vals = [Fraction(k, step) for k in range(step + 1)]
    return itertools.product(vals, repeat=length)


def suite_exponent_combinatorics(trials: int = 100_000, seed: int = 6) -> list[Check]:
    """Implication-chain sweeps, conjugate duality and condition dominance."""
    checks = []
    for step, length in ((8, 4), (4, 6)):
        violations = 0
        for x in _fraction_grid(step, length):
            c1, c2, c3 = implication_chain(x, "odd-pairs")
            d1, d2, d3 = implication_chain(x, "all-pairs")
            if (c1 and not c2) or (c2 and not c3) or (d1 and not d2) or (d2 and not d3):
                violations += 1
        checks.append(_verdict_check(f"implication-chain[N={length - 1},step=1/{step}]", violations == 0))

    rng = np.random.default_rng(seed)
    conj_violations = 0
    for _ in range(2000):
        x = [Fraction(int(rng.integers(0, 33)), 32) for _ in range(4)]
        if holder_excess(x) + holder_excess([1 - v for v in x]) != 1:
            conj_violations += 1
    checks.append(_verdict_check("conjugate-duality-exact", conj_violations == 0))

    dom_violations = 0
    for _ in range(trials):
        N = int(rng.choice([3, 5]))
        rp = [Fraction(int(rng.integers(0, 17)), 16) for _ in range(N + 1)]
        rq = [Fraction(int(rng.integers(0, 17)), 16) for _ in range(N + 1)]
        p = ExponentTuple.from_reciprocals(rp)
        q = ExponentTuple.from_reciprocals(rq)
        b = check_conditions("thm-B", p, q).holds
        if b and not check_conditions("prop-A", p, q).holds:
            dom_violations += 1
        if check_conditions("cotowa-2.5", p, q).holds and not b:
            dom_violations += 1
    checks.append(_verdict_check(f"condition-dominance[{trials}]", dom_violations == 0))
    return checks


def suite_worked_instance() -> list[Check]:
    """The trilinear worked example: accepted by the pair-minimum criterion at
    exact equality 1/4, rejected by the entrywise criterion."""
    p = ExponentTuple.parse("2,inf,2,2")
    q = ExponentTuple.parse("2,1,2,2")
    rb = check_conditions("thm-B", p, q)
    r25 = check_conditions("cotowa-2.5", p, q)
    quarter = Fraction(1, 4)
    functionals_ok = all(
        rb.detail[k] == quarter
        for k in ("Q(1/p)", "Q0(1/q')", "Q(1/p,1/q)", "R(1/p)")
    ) and rb.detail["R(1/q')"] == quarter
    return [
        _verdict_check("worked-instance-accepted[thm-B]", rb.holds),
        _verdict_check("worked-instance-rejected[cotowa-2.5]", not r25.holds),
        _verdict_check("worked-instance-functionals=1/4", functionals_ok),
    ]


def suite_interpolation(trials: int = 1000, seed: int = 7,
                        tolerance: float = 1e-12) -> list[Check]:
    """Certificates for random admissible tuples: every feasible certificate
    verifies exactly; infeasible outcomes carry their violation ledger."""
    rng = np.random.default_rng(seed)
    found = feasible = 0
    worst = 0.0
    ledger_ok = True
    while found < trials:
        N = 3
        rp = [Fraction(int(rng.integers(0, 9)), 8) for _ in range(N + 1)]
        rq = [Fraction(int(rng.integers(0, 9)), 8) for _ in range(N + 1)]
        p = ExponentTuple.from_reciprocals(rp)
        q = ExponentTuple.from_reciprocals(rq)
        if not check_conditions("prop-A", p, q).holds:
            continue
        found += 1
        cert = construct_interpolation(p, q)
        if cert.feasible:
            feasible += 1
            worst = max(worst, cert.residual)
            if not (cert.r.in_banach_range() and cert.s.in_banach_range()):
                ledger_ok = False
        elif cert.residual <= 0:
            # an infeasible outcome must document a strictly positive violation
            ledger_ok = False
    return [
        _residual_check(f"interpolation-feasible-residual[{feasible}/{trials}]", worst, tolerance),
        _verdict_check("interpolation-honest-ledger", ledger_ok),
    ]


# -- ratio suites ----------------------------------------------------------------

def endpoint_ratio_check(seed: int = 8, samples: int = 20, n: int = 16) -> list[Check]:
    """Flat-exponent counting-measure endpoint: ratios bounded by 1."""
    phase = make_grid(1, n)
    all2 = ExponentTuple.parse("2,2,2,2")
    ens = EnsembleSpec(seed=seed, count=3 * samples, atoms_per_symbol=2,
                       width_range=(0.35, 0.5), center_radius=1.0, modulation_radius=0.7)
    cfg = RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "counting", "endpoint")
    rep = ratio_experiment_multi([cfg], ens, phase)[0]
    margin = max(0.0, rep.max_ratio - 1.0)
    return [_residual_check(f"endpoint-counting-ratio[n={n}]", margin, 1e-8)]


def drift_configs() -> list[RatioConfig]:
    """The 12 admissible ratio probes of the drift check: 3 tuple pairs x (unit,
    split-polynomial chain) weights x (weyl, twist) modes, quadrature measure."""
    remark_p = ExponentTuple.parse("2,inf,2,2")
    remark_q = ExponentTuple.parse("2,1,2,2")
    alt1 = ExponentTuple.parse("4,4/3,4,4/3")
    alt2_p = ExponentTuple.parse("2,inf,inf,2")
    alt2_q = ExponentTuple.parse("2,1,1,2")
    unit = (unit_weight(),) * 4
    chain = (split_weight(poly_weight(-1.0), "Y"),) + (split_weight(poly_weight(1.0), "Y"),) * 3
    configs = []
    for (p, q, lab) in ((remark_p, remark_q, "remark"), (alt1, alt1, "alt1"), (alt2_p, alt2_q, "alt2")):
        for (w, wlab) in ((unit, "unit"), (chain, "chain")):
            configs.append(RatioConfig(p, q, w, "weyl", "quadrature", f"{lab}:{wlab}"))
            # twisted-convolution mode repeats the probe on the swapped tuple,
            # for which the twist criterion coincides with the product one
            configs.append(RatioConfig(q, p, w, "twist", "quadrature", f"{lab}:{wlab}:twist"))
    return configs


def drift_ratio_checks(seed: int = 9, samples: int = 200, grids: tuple[int, ...] = (16, 32)
                       ) -> tuple[list[Check] | list[RatioReport], ...]:
    """Ratio stability over a grid ladder (default n = 16, 32) for admissible
    tuples, unit and split-polynomial weight chains, both product modes.

    Returns ``(checks, *reports)``: one drift check per config, then the
    per-config ratio reports of each grid in ladder order.  A config's drift
    is max / min of its ``max_ratio`` over the ladder.
    """
    configs = drift_configs()
    ens = EnsembleSpec(seed=seed, count=3 * samples, atoms_per_symbol=2,
                       width_range=(0.35, 0.5), center_radius=1.0, modulation_radius=0.7)
    ladder = [ratio_experiment_multi(configs, ens, make_grid(1, n)) for n in grids]
    checks = []
    for reports in zip(*ladder):
        maxima = [rep.max_ratio for rep in reports]
        lo, hi = min(maxima), max(maxima)
        # max_ratio is 0 when every sample on a grid is degenerate: no drift is defined
        drift = hi / lo if lo > 0.0 else math.inf
        checks.append(Check(f"ratio-drift[{reports[0].label}]", float(drift), 2.0,
                            bool(drift <= 2.0 and reports[0].verdict.holds)))
    return (checks, *ladder)
