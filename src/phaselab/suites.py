"""Named verification suites: every check is a (name, value, tolerance) row.

These back both the command-line runner and the acceptance tests; each check
re-derives its expected quantity from an independent route (direct sums,
matrix oracles, exhaustive enumeration) rather than trusting the code under
test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
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
    nfold_product,
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
    compose_via_matrices,
    involution,
    operator_matrix,
    point_reflection,
    twisted_convolution,
    weyl_product,
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
                modulation_frac: float = 0.0625) -> GridFunction:
    L = phase.extent
    return _random_atoms(phase, rng, atoms, 0.125 * L, modulation_frac * L, min(1.0, L / 14))


def _rel(ref: np.ndarray, other: np.ndarray) -> float:
    """``max |ref - other| / max |ref|``, or 0 where ``ref`` vanishes."""
    scale = np.max(np.abs(ref))
    return float(np.max(np.abs(ref - other)) / scale) if scale else 0.0


# -- transform identity suites -------------------------------------------------

def suite_involution(seed: int = 0) -> list[Check]:
    """Double symplectic Fourier transform is the identity."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (16, 32, 64):
        phase = make_grid(1, n)
        worst = 0.0
        for _ in range(50):
            a = _random_symbol(phase, rng)
            aa = symplectic_fourier(symplectic_fourier(a))
            worst = max(worst, _rel(a.values, aa.values))
        out.append(_residual_check(f"symplectic-involution[n={n}]", worst, 1e-12))
    return out


def suite_convention(seed: int = 1) -> list[Check]:
    """Symplectic vs ordinary STFT comparison pinning the symplectic-form sign:
    ``W[:, :, ky, ke] = 2 V[:, :, -ke, ky]`` with indices modulo n = 16."""
    n = 16
    phase = make_grid(1, n)
    rng = np.random.default_rng(seed)
    reflect = (n - np.arange(n)) % n
    worst = 0.0
    for _ in range(20):
        a = _random_symbol(phase, rng)
        Phi = _atom_cloud(phase, rng, atoms=1, modulation_frac=0.0)
        W = symplectic_stft(a, Phi)
        rhs = 2 * np.swapaxes(stft(a, Phi).values[:, :, reflect, :], 2, 3)
        worst = max(worst, _rel(W.values, rhs))
    return [_residual_check(f"stft-comparison[n={n}]", worst, 1e-10)]


def suite_products(n: int = 32, seed: int = 2) -> list[Check]:
    """Product identities: product-via-twist, transform exchange, duality,
    associativity; each reported as the max relative residual over 20 triples."""
    phase = make_grid(1, n)
    rng = np.random.default_rng(seed)
    one = constant_symbol(phase)
    worst: dict[str, float] = {}
    for _ in range(20):
        a, b, c = (_atom_cloud(phase, rng) for _ in range(3))
        conj_a = GridFunction(a.grid, np.conj(a.values))
        conj_b = GridFunction(b.grid, np.conj(b.values))
        twist_image = symplectic_fourier(twisted_convolution(a, b)).values
        product_image = symplectic_fourier(weyl_product(a, b)).values
        image_rhs = (2 * math.pi) ** (-phase.d / 2) * twisted_convolution(
            symplectic_fourier(a), symplectic_fourier(b)).values
        ip = weyl_product(a, b).inner(c)
        it = twisted_convolution(a, b).inner(c)
        w1 = weyl_product(weyl_product(a, b), c).values
        s1 = twisted_convolution(twisted_convolution(a, b), c).values
        residuals = {
            "product-via-twist-unit": [_rel(a.values, weyl_product(*pair).values)
                                       for pair in ((a, one), (one, a))],
            "twist-fourier-exchange": [
                _rel(twist_image, m.values)
                for m in (twisted_convolution(symplectic_fourier(a), b),
                          twisted_convolution(point_reflection(a), symplectic_fourier(b)))],
            "product-fourier-image": [_rel(image_rhs, product_image)],
            "product-duality": [abs(ip - d) / abs(ip) for d in (
                b.inner(weyl_product(conj_a, c)), a.inner(weyl_product(c, conj_b)))],
            "twist-duality": [abs(it - t) / abs(it) for t in (
                a.inner(twisted_convolution(c, involution(b))),
                b.inner(twisted_convolution(involution(a), c)))],
            "product-associativity": [_rel(w1, weyl_product(a, weyl_product(b, c)).values)],
            "twist-associativity": [
                _rel(s1, twisted_convolution(a, twisted_convolution(b, c)).values)],
        }
        for name, values in residuals.items():
            worst[name] = max(worst.get(name, 0.0), *values)
    return [_residual_check(f"{k}[n={n}]", v, 1e-10) for k, v in worst.items()]


def suite_routes(seed: int = 3) -> list[Check]:
    """Cross-route consistency at n = 64: product via twisted convolution vs
    operator matrices, and operator equality under the calculi transform.

    The operator route samples kernels on the companion base lattice, whose
    representable offset window shrinks with the symbols' modulation reach;
    the ensemble therefore keeps modulations within 3% of the extent.
    """
    phase = make_grid(1, 64)
    rng = np.random.default_rng(seed)
    a = _atom_cloud(phase, rng, modulation_frac=0.03)
    b = _atom_cloud(phase, rng, modulation_frac=0.03)
    p1 = weyl_product(a, b)
    p2 = compose_via_matrices(a, b, 0.5)
    calculi = 0.0
    for A1, A2 in itertools.product((0.0, 0.5, 1.0), repeat=2):
        M1 = operator_matrix(a, A1)
        M2 = operator_matrix(calculi_transform(a, A1, A2), A2)
        calculi = max(calculi, _rel(M1, M2))
    direct = twisted_convolution(a, b, "direct")
    fast = twisted_convolution(a, b, "fast")
    return [
        _residual_check("product-route[n=64]", _rel(p1.values, p2.values), 1e-6),
        _residual_check("calculi-operator-equality[n=64]", calculi, 1e-6),
        _residual_check("twist-fast-vs-direct[n=64]", _rel(direct.values, fast.values), 1e-12),
    ]


def suite_kernel_factorization(seed: int = 4) -> list[Check]:
    """Composition factorization vs iterated matrix products (N = 3, n = 16)
    and the Hilbert-Schmidt submultiplicativity of composition."""
    base = make_grid(1, 16).base_grid
    rng = np.random.default_rng(seed)
    m = base.count
    Ks = [rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)) for _ in range(3)]
    composed, residual = compose_kernels(Ks, base)

    def hs(K):
        return math.sqrt(base.quadrature_weight**2 * float(np.sum(np.abs(K) ** 2)))

    margin = max(0.0, hs(composed) / math.prod(hs(K) for K in Ks) - 1.0)
    return [_residual_check("kernel-factorization[N=3,n=16]", residual, 1e-10),
            _residual_check("hs-submultiplicativity", margin, 1e-12)]


def suite_representation(n: int = 8, seed: int = 5) -> list[Check]:
    """Integral representation of the paired STFT of N-fold products, N = 2 to 7."""
    spec = EnsembleSpec(seed=seed, count=7, atoms_per_symbol=2, width_range=(0.4, 0.5),
                        center_radius=0.45, modulation_radius=0.4)
    checks = []
    for d, size, label in ((1, n, f"n={n}"), (2, 4, "n=4,d=2")):
        phase = make_grid(d, size)
        symbols = ensemble_generate(spec, phase)
        window = default_window(phase)
        for N in (2, 3, 5, 7):
            factors = symbols[:N]
            rep = stft_integral_representation(symplectic_stft(s, window) for s in factors)
            target = paired_stft(nfold_product(factors),
                                 window_for_representation(phase, [window] * N))
            checks.append(_residual_check(f"stft-representation[N={N},{label}]",
                                          _rel(target.values, rep.values), 1e-12))
            del rep, target  # room for the next quadrature
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


def suite_interpolation(trials: int = 1000, seed: int = 7) -> list[Check]:
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
        _residual_check(f"interpolation-feasible-residual[{feasible}/{trials}]", worst, 1e-12),
        _verdict_check("interpolation-honest-ledger", ledger_ok),
    ]


# -- ratio suites ----------------------------------------------------------------

def endpoint_ratio_check(seed: int = 8) -> list[Check]:
    """Flat-exponent counting-measure endpoint at n = 16: ratios bounded by 1
    over 20 samples."""
    phase = make_grid(1, 16)
    all2 = ExponentTuple.parse("2,2,2,2")
    ens = EnsembleSpec(seed=seed, count=3 * 20, atoms_per_symbol=2,
                       width_range=(0.35, 0.5), center_radius=1.0, modulation_radius=0.7)
    cfg = RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "counting", "endpoint")
    rep = ratio_experiment_multi([cfg], ens, phase)[0]
    margin = max(0.0, rep.max_ratio - 1.0)
    return [_residual_check("endpoint-counting-ratio[n=16]", margin, 1e-8)]


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
        check = _residual_check(f"ratio-drift[{reports[0].label}]",
                                hi / lo if lo > 0.0 else math.inf, 2.0)
        checks.append(replace(check, passed=check.passed and reports[0].verdict.holds))
    return (checks, *ladder)
