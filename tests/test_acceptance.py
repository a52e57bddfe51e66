"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All criteria run at d = 1, apart from criterion 5's rows at d = 2.  Each
check in :mod:`phaselab.suites` fixes its own sizes and tolerance, so the
same verifications are reachable from the command line; the tolerances are
pinned here, in ``PINNED``, and every row's tolerance is asserted against
it, so a loosened literal in the suites fails this gate.
"""

import json
import time

from phaselab import suites
from phaselab.cli import main


# pinned tolerance per check name up to its first "[" (None: a boolean verdict)
PINNED = {
    "symplectic-involution": 1e-12,
    "stft-comparison": 1e-10,
    **dict.fromkeys(("product-via-twist-unit", "twist-fourier-exchange",
                     "product-fourier-image", "product-duality", "twist-duality",
                     "product-associativity", "twist-associativity"), 1e-10),
    "product-route": 1e-6,
    "calculi-operator-equality": 1e-12,
    "twist-fast-vs-direct": 1e-12,
    "stft-representation": 1e-12,
    "kernel-factorization": 1e-10,
    "hs-submultiplicativity": 1e-12,
    "implication-chain": None,
    "conjugate-duality-exact": None,
    "condition-dominance": None,
    "worked-instance-accepted": None,
    "worked-instance-rejected": None,
    "worked-instance-functionals=1/4": None,
    "interpolation-feasible-residual": 1e-12,
    "interpolation-honest-ledger": None,
    "endpoint-counting-ratio": 1e-8,
    "ratio-drift": 2.0,
}


def _report(number, title, checks, elapsed):
    for c in checks:
        assert c.tolerance == PINNED[c.name.partition("[")[0]], c.name
    ok = all(c.passed for c in checks)
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:>2} [{status}] {title} ({elapsed:.1f}s)")
    for c in checks:
        tol = "verdict" if c.tolerance is None else f"tol={c.tolerance:g}"
        print(f"    {'ok ' if c.passed else 'BAD'} {c.name}: value={c.value:.3g} ({tol})")
    assert ok, f"criterion {number} failed: " + "; ".join(
        c.name for c in checks if not c.passed)


def test_criterion_01_symplectic_involution():
    t0 = time.time()
    checks = suites.suite_involution(seed=101)
    _report(1, "double symplectic transform is the identity", checks, time.time() - t0)


def test_criterion_02_convention_pinning():
    t0 = time.time()
    checks = suites.suite_convention(seed=102)
    _report(2, "symplectic/ordinary STFT comparison pins the sign convention",
            checks, time.time() - t0)


def test_criterion_03_product_identities():
    t0 = time.time()
    checks = suites.suite_products(n=32, seed=103)
    _report(3, "product, transform-exchange, duality and associativity identities",
            checks, time.time() - t0)


def test_criterion_04_route_consistency():
    t0 = time.time()
    checks = suites.suite_routes(seed=104)
    _report(4, "twisted-convolution route vs operator-matrix route", checks,
            time.time() - t0)


def test_criterion_05_integral_representation():
    t0 = time.time()
    checks = suites.suite_representation(n=8, seed=105)
    _report(5, "paired-STFT integral representation of N-fold products", checks,
            time.time() - t0)


def test_criterion_06_kernel_factorization():
    t0 = time.time()
    checks = suites.suite_kernel_factorization(seed=106)
    _report(6, "kernel enclosure factorization and HS submultiplicativity", checks,
            time.time() - t0)


def test_criterion_07_exponent_combinatorics():
    t0 = time.time()
    checks = suites.suite_exponent_combinatorics(trials=100_000, seed=107)
    _report(7, "implication chains, conjugate duality, condition dominance", checks,
            time.time() - t0)


def test_criterion_08_worked_instance():
    t0 = time.time()
    checks = suites.suite_worked_instance()
    _report(8, "trilinear worked instance at exact equality 1/4", checks,
            time.time() - t0)


def test_criterion_09_interpolation_certificates():
    t0 = time.time()
    checks = suites.suite_interpolation(trials=1000, seed=109)
    _report(9, "interpolation certificates verify or report violations", checks,
            time.time() - t0)


def test_criterion_10_norm_ratio_probe():
    t0 = time.time()
    checks = suites.endpoint_ratio_check(seed=110)
    drift_checks, reports16, reports32 = suites.drift_ratio_checks(seed=111, samples=200)
    checks = checks + drift_checks
    _report(10, "norm-ratio endpoint bound and two-grid stability", checks,
            time.time() - t0)


def test_criterion_11_report_determinism(capsys, tmp_path):
    t0 = time.time()
    outputs = {}
    for label, args in {
        "identities": ["identities", "--grid", "16", "--seed", "7"],
        "ratio": ["ratio", "--p", "2,inf,2,2", "--q", "2,1,2,2", "--grid", "16",
                  "--samples", "10", "--seed", "7"],
        "representation": ["representation", "--grid", "8", "--seed", "7"],
    }.items():
        docs = []
        for _ in range(2):
            code = main(args)
            captured = capsys.readouterr()
            assert code == 0, captured.err
            doc = json.loads(captured.out)
            doc.pop("timing")
            docs.append(json.dumps(doc, sort_keys=True))
        outputs[label] = docs[0] == docs[1]
    ok = all(outputs.values())
    with capsys.disabled():
        print(f"criterion 11 [{'PASS' if ok else 'FAIL'}] byte-identical reports "
              f"excluding timing ({time.time() - t0:.1f}s): {outputs}")
    assert ok
