"""Verification suites: edge cases of the check builders."""

import pytest

from phaselab import suites
from phaselab.exponents import ConditionReport
from phaselab.lab import RatioReport


def _fake_experiment(max_by_grid):
    """Stand-in for ``ratio_experiment_multi`` returning fixed ``max_ratio`` values."""

    def run(configs, ens, phase, *args, **kwargs):
        mx = max_by_grid[phase.n]
        ratios = (mx,) if mx else (None,)
        verdict = ConditionReport("thm-B", True, 0.0, 0.0)
        return [RatioReport(cfg, phase.n, ens.seed, verdict, ratios) for cfg in configs]

    return run


@pytest.mark.parametrize("mx16, mx32", [(0.0, 0.0), (0.0, 1.5), (1.5, 0.0)])
def test_drift_zero_max_ratio_fails_check(monkeypatch, mx16, mx32):
    # every sample degenerate on a grid: max_ratio is 0 and the drift undefined
    monkeypatch.setattr(suites, "ratio_experiment_multi", _fake_experiment({16: mx16, 32: mx32}))
    checks, _, _ = suites.drift_ratio_checks(samples=1)
    assert len(checks) == len(suites.drift_configs())
    assert not any(c.passed for c in checks)


def test_drift_equal_max_ratio_passes(monkeypatch):
    monkeypatch.setattr(suites, "ratio_experiment_multi", _fake_experiment({16: 1.5, 32: 1.5}))
    checks, _, _ = suites.drift_ratio_checks(samples=1)
    assert all(c.passed and c.value == 1.0 for c in checks)


@pytest.mark.parametrize("maxima, drift", [((1.0, 1.5, 1.2), 1.5), ((1.5, 0.0, 1.5), float("inf"))])
def test_drift_is_max_over_min_on_a_ladder(monkeypatch, maxima, drift):
    ladder = (16, 32, 64)
    monkeypatch.setattr(suites, "ratio_experiment_multi",
                        _fake_experiment(dict(zip(ladder, maxima))))
    checks, *reports = suites.drift_ratio_checks(samples=1, grids=ladder)
    assert [[rep.grid_n for rep in reps] for reps in reports] == \
        [[n] * len(suites.drift_configs()) for n in ladder]
    assert all(c.value == drift and c.passed == (drift <= 2.0) for c in checks)
