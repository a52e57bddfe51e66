"""The benchmark's workloads: one pass each, its correctness data, and the
call counts a traced pass must show.

Every workload is a closed loop: one caller runs passes back to back in one
process.  A pass takes one input seed and returns an :class:`Outcome`.  The
input seeds of a run are derived from the run's ``--seed`` only.
``BENCHMARK.json`` lists ``drift`` and ``ratio32``; ``sweep`` and
``identities`` are runnable but too sensitive to host load to be gated
(see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

#: input seeds per run; passes cycle through them so every input repeats and
#: two passes at one input must give identical reports
POOL = 2

#: relative tolerance for a ratio against the stored reference
RATIO_RTOL = 1e-9


def input_seeds(seed: int) -> list[int]:
    return [1000 * seed + k for k in range(POOL)]


@dataclass
class Outcome:
    """Result of one pass: timing, and what the correctness gate compares."""

    seconds: float
    digest: str = ""  # sha256 of the canonical report without ``timing``
    checks: list = field(default_factory=list)  # [name, passed] rows
    ratios: list = field(default_factory=list)  # floats (or None) compared at RATIO_RTOL
    error: str = ""

    @property
    def checks_pass(self) -> bool:
        return bool(self.checks) and all(ok for _, ok in self.checks)


def _digest(report: dict) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(argv: list[str]) -> Outcome:
    from phaselab import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    seconds = time.perf_counter() - t0
    if rc != 0:
        return Outcome(seconds, error=f"phaselab {' '.join(argv)} exited with {rc}")
    report = json.loads(buf.getvalue())
    report.pop("timing", None)
    ratios = report.get("ratio_report", {}).get("ratios", [])
    checks = [[c["name"], bool(c["pass"])] for c in report["checks"]]
    return Outcome(seconds, _digest(report), checks, list(ratios))


# -- workloads ----------------------------------------------------------------

class Workload:
    name = ""
    dominant = ""  # layer expected to have the largest self time

    def run_pass(self, seed: int) -> Outcome:
        raise NotImplementedError

    def expected_calls(self) -> dict:
        """Span name -> exact count per pass, or ``(low, high)`` (``high`` may be None).

        The counts follow from the workload's configuration, so a call site
        the tracer missed shows as a shortfall; a zero entry asserts that a
        layer does not run.  Unlisted spans (helpers such as ``make_grid``)
        still count towards their layer's self time.
        """
        raise NotImplementedError


class Drift(Workload):
    """``suites.drift_ratio_checks`` at one sample per pass."""

    name = "drift"
    dominant = "norms"
    SAMPLES = 1
    N = 3
    GRIDS = 2
    CONFIGS = 12  # 3 tuple pairs x (unit, chain) weights x (weyl, twist) modes
    CHAIN_CONFIGS = 6
    ATOMS = 2

    def run_pass(self, seed: int) -> Outcome:
        from phaselab import suites

        t0 = time.perf_counter()
        checks, r16, r32 = suites.drift_ratio_checks(seed=seed, samples=self.SAMPLES)
        seconds = time.perf_counter() - t0
        report = {"checks": [c.as_dict() for c in checks],
                  "n16": [r.as_dict() for r in r16], "n32": [r.as_dict() for r in r32]}
        ratios = [c.value for c in checks]
        for rep in list(r16) + list(r32):
            ratios.extend(rep.ratios)
        return Outcome(seconds, _digest(report), [[c.name, c.passed] for c in checks], ratios)

    def expected_calls(self) -> dict:
        S, N, G = self.SAMPLES, self.N, self.GRIDS
        factor_norms = N + 1  # N factor norms plus the product norm, per config
        return {
            # per sample and grid: N factor tensors, one weyl and one twist product
            "stft.symplectic_stft": G * S * (N + 2),
            "norms.mixed_norm": G * S * self.CONFIGS * factor_norms,
            # split weights evaluate their inner weight: two spans per weighted norm
            "weights.evaluate_grid": G * S * self.CHAIN_CONFIGS * factor_norms * 2,
            # N-1 products per fold, one weyl fold and one twisted fold
            "weyl.twisted_convolution.fast": G * S * 2 * (N - 1),
            "weyl.weyl_product": G * S * (N - 1),
            "weyl.pseudo_product": G * S * (N - 1),
            "grids.symplectic_fourier": G * S * (N - 1),
            "grids.centered_character_sum": G * S * (2 * (N + 2) + 2 * (N - 1)),
            "grids.gaussian_atom": G * (S * N * self.ATOMS + 1),
            "lab.ensemble_generate": G,
            "lab.ratio_experiment_multi": G,
            "lab.nfold_product": G * S,
            "lab.nfold_twisted": G * S,
            "exponents.check_conditions": G * self.CONFIGS,
            "suites.drift_ratio_checks": 1,
        }


class Ratio32(Workload):
    """CLI ``ratio`` at ``--grid 32``, one weyl config, split-polynomial weights."""

    name = "ratio32"
    # the STFT stage dominates, but most of its time is the character sums it
    # calls in grids, so grids (not stft) has the largest self time
    dominant = "grids"
    SAMPLES = 1
    N = 3
    ATOMS = 2
    ARGS = ["ratio", "--p", "2,inf,2,2", "--q", "2,1,2,2", "--grid", "32",
            "--weights", "split:poly:s=-1@Y,split:poly:s=1@Y,split:poly:s=1@Y,split:poly:s=1@Y"]

    def run_pass(self, seed: int) -> Outcome:
        return _run_cli(self.ARGS + ["--samples", str(self.SAMPLES), "--atoms", str(self.ATOMS),
                                     "--seed", str(seed)])

    def expected_calls(self) -> dict:
        S, N = self.SAMPLES, self.N
        return {
            "stft.symplectic_stft": S * (N + 1),
            "norms.mixed_norm": S * (N + 1),
            "weights.evaluate_grid": S * (N + 1) * 2,
            "weyl.twisted_convolution.fast": S * (N - 1),
            "weyl.weyl_product": S * (N - 1),
            "weyl.pseudo_product": S * (N - 1),
            "grids.symplectic_fourier": S * (N - 1),
            "grids.centered_character_sum": S * (2 * (N + 1) + 2 * (N - 1)),
            "grids.gaussian_atom": S * N * self.ATOMS + 1,
            "lab.ensemble_generate": 1,
            "lab.ratio_experiment_multi": 1,
            "lab.nfold_product": S,
            "lab.nfold_twisted": 0,
            "exponents.check_conditions": 1,
            "cli.main": 1,
        }


class Sweep(Workload):
    """CLI ``sweep`` at reduced random trial counts."""

    name = "sweep"
    dominant = "exponents"
    TRIALS = 2000
    CERT_TRIALS = 20
    CHAIN_GRIDS = ((8, 4), (4, 6))  # (step, length) of the exhaustive fraction grids

    def run_pass(self, seed: int) -> Outcome:
        return _run_cli(["sweep", "--trials", str(self.TRIALS),
                         "--cert-trials", str(self.CERT_TRIALS), "--seed", str(seed)])

    def expected_calls(self) -> dict:
        chains = sum((step + 1) ** length for step, length in self.CHAIN_GRIDS)
        T, C = self.TRIALS, self.CERT_TRIALS
        return {
            # odd-pairs and all-pairs on every grid point
            "exponents.implication_chain": 2 * chains,
            "exponents.construct_interpolation": C,
            # 2 or 3 per dominance trial, 2 for the worked instance, and at least
            # one admissibility test plus one precheck per certificate
            "exponents.check_conditions": (2 * T + 2 + 2 * C, None),
            "suites.suite_exponent_combinatorics": 1,
            "suites.suite_worked_instance": 1,
            "suites.suite_interpolation": 1,
            "cli.main": 1,
        }


class Identities(Workload):
    """CLI ``identities`` at ``--grid 32``."""

    name = "identities"
    dominant = "weyl"
    TRIPLES = 20  # suite_products
    PAIRS = 20  # suite_convention

    def run_pass(self, seed: int) -> Outcome:
        return _run_cli(["identities", "--grid", "32", "--seed", str(seed)])

    def expected_calls(self) -> dict:
        T = self.TRIPLES
        return {
            # suite_convention: one symplectic and one ordinary STFT per pair
            "stft.symplectic_stft": self.PAIRS,
            "stft.stft": self.PAIRS,
            # suite_products: 10 products and 11 explicit twists per triple; suite_routes:
            # one product plus the fast-vs-direct pair
            "weyl.twisted_convolution.fast": 21 * T + 2,
            "weyl.twisted_convolution.direct": 1,
            "weyl.weyl_product": 10 * T + 1,
            "weyl.operator_matrix": 9 * 2,  # suite_routes: 3 x 3 calculi pairs
            "norms.mixed_norm": 0,
            "weights.evaluate_grid": 0,
            "lab.ensemble_generate": 0,
            "exponents.check_conditions": 0,
            "suites.suite_involution": 1,
            "suites.suite_convention": 1,
            "suites.suite_products": 1,
            "suites.suite_routes": 1,
            "suites.suite_kernel_factorization": 1,
            "cli.main": 1,
        }


WORKLOADS = {w.name: w for w in (Drift(), Ratio32(), Sweep(), Identities())}


def compare(outcome: Outcome, reference: dict) -> str:
    """Empty string if ``outcome`` matches a stored reference entry, else why not."""
    if outcome.checks != reference["checks"]:
        return "check names or verdicts differ from the stored reference"
    got, want = outcome.ratios, reference["ratios"]
    if len(got) != len(want):
        return f"{len(got)} ratios, reference has {len(want)}"
    for k, (a, b) in enumerate(zip(got, want)):
        if a is None or b is None:
            if a is not b:
                return f"ratio {k}: {a} vs reference {b}"
        elif abs(a - b) > RATIO_RTOL * max(abs(a), abs(b)):
            return f"ratio {k}: {a!r} vs reference {b!r}"
    return ""
