"""Ensembles, N-fold products, representation quadrature, ratio experiments."""

import dataclasses
import itertools
import os

import numpy as np
import pytest

import phaselab.grids
import phaselab.lab
import phaselab.norms
import phaselab.stft
from phaselab.exponents import ExponentError, ExponentTuple
from phaselab.grids import GridError, GridFunction, _thread_count, make_grid
from phaselab.lab import (
    EnsembleSpec,
    RatioConfig,
    RatioReport,
    default_window,
    ensemble_generate,
    nfold_product,
    nfold_twisted,
    paired_stft,
    ratio_experiment_multi,
    stft_integral_representation,
    window_for_representation,
)
from phaselab.lab import _sample_ratios, _sigma_table
from phaselab.norms import MixedNormSpec
from phaselab.stft import symplectic_stft
from phaselab.weights import WeightError, parse_weight, unit_weight
from phaselab.weyl import operator_matrix, weyl_product


@pytest.fixture
def pg8():
    return make_grid(1, 8)


@pytest.fixture
def small_spec():
    return EnsembleSpec(seed=11, count=6, atoms_per_symbol=2, width_range=(0.4, 0.5),
                        center_radius=0.5, modulation_radius=0.4)


class TestEnsemble:
    def test_deterministic(self, pg8, small_spec):
        a = ensemble_generate(small_spec, pg8)
        b = ensemble_generate(small_spec, pg8)
        assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_count_zero(self, pg8):
        spec = EnsembleSpec(seed=1, count=0, center_radius=0.5, modulation_radius=0.3)
        assert ensemble_generate(spec, pg8) == []

    def test_radius_guard(self, pg8):
        spec = EnsembleSpec(seed=1, count=1, center_radius=10.0, modulation_radius=0.0)
        with pytest.raises(GridError):
            ensemble_generate(spec, pg8)

    def test_grid_independent_draws(self, small_spec):
        # the same spec on two grids samples the same continuum symbols; the
        # quadrature norms of the sampled versions must agree to the
        # truncation budget even though the grids do not nest
        a16 = ensemble_generate(small_spec, make_grid(1, 16))[0]
        a32 = ensemble_generate(small_spec, make_grid(1, 32))[0]
        assert a16.norm2() == pytest.approx(a32.norm2(), rel=1e-4)


class TestNfoldProduct:
    @pytest.mark.parametrize("fold", [nfold_product, nfold_twisted])
    def test_empty_input_is_a_grid_error(self, fold):
        with pytest.raises(GridError, match="at least one symbol"):
            fold([])

    def test_single_factor_unchanged(self, pg8, small_spec):
        s = ensemble_generate(small_spec, pg8)[0]
        out = nfold_product([s])
        assert np.array_equal(out.values, s.values)

    def test_bracketing_invariance(self, pg8, small_spec):
        a, b, c = ensemble_generate(small_spec, pg8)[:3]
        left = weyl_product(weyl_product(a, b), c)
        right = weyl_product(a, weyl_product(b, c))
        rel = np.max(np.abs(left.values - right.values)) / np.max(np.abs(left.values))
        assert rel < 1e-10
        fold = nfold_product([a, b, c])
        assert np.array_equal(fold.values, left.values)

    def test_three_fold_matrix_oracle(self):
        pg = make_grid(1, 64)
        spec = EnsembleSpec(seed=5, count=3, atoms_per_symbol=2, width_range=(0.9, 1.1),
                            center_radius=1.5, modulation_radius=0.8)
        a, b, c = ensemble_generate(spec, pg)
        prod = nfold_product([a, b, c])
        M = operator_matrix(a, 0.5) @ operator_matrix(b, 0.5) @ operator_matrix(c, 0.5)
        Mp = operator_matrix(prod, 0.5)
        rel = np.max(np.abs(M - Mp)) / np.max(np.abs(Mp))
        assert rel < 1e-6


class TestRepresentation:
    def test_zero_factors_give_zero(self, pg8):
        window = default_window(pg8)
        zero = GridFunction(pg8.symbol_grid, np.zeros(pg8.symbol_grid.shape))
        out = stft_integral_representation([zero, zero], window)
        assert np.all(out == 0)

    @pytest.mark.parametrize("n_factors", [2, 3, 5, 7])
    def test_matches_direct_product_stft(self, small_spec, n_factors):
        # the identity is exact on the grid, at d = 1 and at d = 2; the symbols come
        # from a generator, as the quadrature consumes them one at a time (the
        # narrower centres keep the ensemble truncation-safe at n = 4)
        spec = dataclasses.replace(small_spec, count=7, center_radius=0.45)
        for d, n in ((1, 8), (2, 4)):
            pg = make_grid(d, n)
            symbols = ensemble_generate(spec, pg)[:n_factors]
            window = default_window(pg)
            rep = stft_integral_representation((s for s in symbols), window)
            prod = symbols[0]
            for s in symbols[1:]:
                prod = weyl_product(prod, s)
            target = paired_stft(prod, window_for_representation(window, n_factors))
            rel = np.max(np.abs(rep - target)) / np.max(np.abs(target))
            assert rel < 1e-12, (d, n)

    @pytest.mark.parametrize("d, n", [(1, 8), (2, 4)])
    def test_paired_stft_gathers_sum_and_difference(self, d, n):
        """``paired_stft`` equals ``V(X + Y, X - Y)`` gathered point pair by point pair."""
        pg = make_grid(d, n)
        rng = np.random.default_rng(n)
        shape = pg.symbol_grid.shape
        a = GridFunction(pg.symbol_grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        window = default_window(pg)
        V = symplectic_stft(a, window).values
        points = _centered_points(d, n)

        def index(X):
            return tuple((k + n // 2) % n for k in X)

        want = np.array([[V[index(np.add(X, Y)) + index(np.subtract(X, Y))] for Y in points]
                         for X in points])
        got = paired_stft(a, window).reshape(len(points), len(points))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("d, n", [(1, 8), (2, 4)])
    def test_sigma_table_pair_by_pair(self, d, n):
        # 2 sigma(A, B) = (2 pi / n) s(A, B) with the integer form s built one pair at a
        # time; the float step is the table's own expression, so the bits must agree
        points = _centered_points(d, n)
        s = np.array([[sum(A[d + i] * B[i] - A[i] * B[d + i] for i in range(d)) for B in points]
                      for A in points])
        assert np.array_equal(_sigma_table(make_grid(d, n).symbol_grid), np.exp(2j * np.pi * s / n))

    def test_grid_16_runs(self):
        # the only size rule is symplectic_stft's: an STFT within MATERIALIZE_LIMIT
        pg = make_grid(1, 16)
        spec = EnsembleSpec(seed=1, count=3, center_radius=0.5, modulation_radius=0.3)
        window = default_window(pg)
        rep = stft_integral_representation(ensemble_generate(spec, pg), window)
        assert rep.shape == (16,) * 4 and np.all(np.isfinite(rep))

    def test_one_shot_iterator_needs_two_factors(self, pg8, small_spec):
        s = ensemble_generate(small_spec, pg8)[0]
        with pytest.raises(GridError, match="at least two factors"):
            stft_integral_representation(iter([s]), default_window(pg8))

    def test_factor_on_another_grid_refused(self, pg8, small_spec):
        s = ensemble_generate(small_spec, pg8)[0]
        t = ensemble_generate(small_spec, make_grid(1, 16))[0]
        with pytest.raises(GridError):
            stft_integral_representation([s, t], default_window(pg8))

    def test_needs_two_factors(self, pg8, small_spec):
        s = ensemble_generate(small_spec, pg8)[0]
        with pytest.raises(GridError):
            stft_integral_representation([s], default_window(pg8))


def _centered_points(d, n):
    """Integer coordinates of the phase grid's points, in flat (C) order."""
    return list(itertools.product(range(-(n // 2), n - n // 2), repeat=2 * d))


def _one_config(p, q, ens, phase, mode="weyl"):
    """Report of one unit-weight config with quadrature measure."""
    cfg = RatioConfig(p, q, (unit_weight(),) * len(p), mode)
    return ratio_experiment_multi([cfg], ens, phase)[0]


class TestRatioExperiment:
    def test_deterministic_reports(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=21, count=9, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        r1 = _one_config(all2, all2, ens, pg8)
        r2 = _one_config(all2, all2, ens, pg8)
        assert r1.as_dict() == r2.as_dict()

    def test_degenerate_symbol_records_null(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        cfg = RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "counting")
        window = default_window(pg8)
        zero = GridFunction(pg8.symbol_grid, np.zeros(pg8.symbol_grid.shape))
        spec = EnsembleSpec(seed=2, count=3, center_radius=0.5, modulation_radius=0.3)
        symbols = ensemble_generate(spec, pg8)
        ratios = _sample_ratios([cfg], [symbols[0], zero, symbols[1]], window)
        assert ratios == [None]

    def test_twist_mode_uses_twisted_products(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=23, count=6, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        rep = _one_config(all2, all2, ens, pg8, "twist")
        assert rep.config.mode == "twist" and rep.verdict.criterion == "twist"
        assert all(r is not None and r > 0 for r in rep.ratios)

    def test_report_serialization(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=24, count=6, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        rep = _one_config(all2, all2, ens, pg8)
        doc = rep.as_dict()
        assert doc["grid_n"] == 8 and doc["N"] == 3 and len(doc["ratios"]) == 2
        # an unlabelled config is named after its mode and tuples
        assert doc["label"] == "weyl:2,2,2,2|2,2,2,2"
        lines = RatioReport.to_csv([rep]).strip().split("\n")
        assert lines[0].startswith("sample,ratio")
        assert len(lines) == 3
        # tuple literals contain commas and must be quoted (RFC 4180)
        assert '"2,2,2,2"' in lines[1]
        # several reports share one header
        assert RatioReport.to_csv([rep, rep]).strip().split("\n") == lines + lines[1:]

    def test_condition_recorded_but_not_gating(self, pg8):
        # a tuple violating the condition still runs; the verdict is recorded
        p = ExponentTuple.parse("4,4,4,4")
        ens = EnsembleSpec(seed=25, count=3, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        rep = _one_config(p, p, ens, pg8)
        assert rep.verdict.holds is False
        assert len(rep.ratios) == 1

    def test_multi_shares_samples(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=26, count=6, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        cfgs = [RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "quadrature", "a"),
                RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "counting", "b")]
        reports = ratio_experiment_multi(cfgs, ens, pg8)
        single = _one_config(all2, all2, ens, pg8)
        assert reports[0].ratios == single.ratios
        assert reports[0].label == "a" and reports[1].label == "b"

    def test_thread_count_does_not_change_results(self, pg8, monkeypatch):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=27, count=9, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        base = _one_config(all2, all2, ens, pg8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        threaded = _one_config(all2, all2, ens, pg8)
        assert base.ratios == threaded.ratios

    @pytest.mark.parametrize("cpus, threads", [({0}, 1), ({0, 1, 2}, 3), (set(range(8)), 4)])
    def test_thread_count_is_the_usable_cpus_up_to_four(self, monkeypatch, cpus, threads):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert _thread_count() == threads

    def test_thread_count_falls_back_to_cpu_count(self, monkeypatch):
        # platforms without an affinity call (macOS, Windows)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _thread_count() == 3

    def test_only_a_one_sample_run_splits_rows(self, monkeypatch):
        # a sample worker already has a CPU: only the caller of a one-sample run
        # splits its STFT blocks in spans of shift rows, through the row pool
        import threading
        from concurrent.futures import ThreadPoolExecutor

        submitters = []
        with ThreadPoolExecutor(2) as real:
            class Recording:
                def submit(self, fn, *args, **kwargs):
                    submitters.append(threading.current_thread())
                    return real.submit(fn, *args, **kwargs)

            monkeypatch.setattr(phaselab.grids, "_pool", Recording)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            all2 = ExponentTuple.parse("2,2,2,2")
            ens = EnsembleSpec(seed=28, count=6, atoms_per_symbol=2)
            two = _one_config(all2, all2, ens, make_grid(1, 32))
            assert submitters == []
            one = _one_config(all2, all2, dataclasses.replace(ens, count=3), make_grid(1, 32))
        assert submitters and set(submitters) == {threading.main_thread()}
        assert one.ratios == two.ratios[:1]

    @pytest.mark.parametrize("p, q, message", [
        ("2,2,2", "2,2,2", "odd N"),  # N = 2
        ("1/2,2,2,2", "2,2,2,2", r"\[1, infinity\]"),  # quasi-Banach
    ])
    def test_bad_tuples_refused_before_the_ensemble(self, pg8, monkeypatch, p, q, message):
        built = []

        def recorder(spec, phase):
            built.append(spec)
            return []

        monkeypatch.setattr(phaselab.lab, "ensemble_generate", recorder)
        ens = EnsembleSpec(seed=1, count=3, center_radius=0.5, modulation_radius=0.3)
        with pytest.raises(ExponentError, match=message):
            _one_config(ExponentTuple.parse(p), ExponentTuple.parse(q), ens, pg8)
        assert built == []

    def test_bad_measure_refused_at_construction(self):
        all2 = ExponentTuple.parse("2,2,2,2")
        with pytest.raises(GridError, match="unknown measure 'bogus'"):
            RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "bogus")

    def test_counts_checked_at_construction(self):
        # one weight per slot and one N for p and q; each message names both counts
        all2 = ExponentTuple.parse("2,2,2,2")
        with pytest.raises(WeightError, match="got 3 weights for 4 slots"):
            RatioConfig(all2, all2, (unit_weight(),) * 3)
        with pytest.raises(ExponentError, match="p has N = 3 but q has N = 2"):
            RatioConfig(all2, ExponentTuple.parse("2,2,2"), (unit_weight(),) * 4)

    @pytest.mark.parametrize("literal", ["unit*unit", "split:unit@X"])
    @pytest.mark.parametrize("rows", [None, 4])
    def test_constant_weight_equals_unit_bitwise(self, monkeypatch, literal, rows):
        # a constant weight is the unit weight, on the one-block path and in a walk
        if rows:
            monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", rows * 16**3)
        p, q = ExponentTuple.parse("2,inf,2,2"), ExponentTuple.parse("2,1,2,2")
        ens = EnsembleSpec(seed=9, count=6, atoms_per_symbol=2, width_range=(0.35, 0.5),
                           center_radius=1.0, modulation_radius=0.7)
        pg16 = make_grid(1, 16)
        unit, constant = (ratio_experiment_multi([RatioConfig(p, q, (w,) * 4)], ens, pg16)[0]
                          for w in (unit_weight(), parse_weight(literal)))
        assert constant.ratios == unit.ratios and None not in unit.ratios

    def test_shared_norms_match_lone_configs_bitwise(self):
        # run together, the drift configs reuse factor norms through the
        # per-tensor memo; a lone config takes one norm per tensor and never hits it
        from phaselab.suites import drift_configs

        configs = drift_configs()
        ens = EnsembleSpec(seed=9, count=6, atoms_per_symbol=2, width_range=(0.35, 0.5),
                           center_radius=1.0, modulation_radius=0.7)
        pg16 = make_grid(1, 16)
        together = ratio_experiment_multi(configs, ens, pg16)
        for cfg, rep in zip(configs, together):
            alone = ratio_experiment_multi([cfg], ens, pg16)[0]
            assert rep.ratios == alone.ratios and None not in rep.ratios


# -- tensor-by-tensor norm walk ------------------------------------------------------

def _config_by_config_ratios(configs, symbols, window):
    """The config-by-config ``_sample_ratios``: each config walks every tensor."""
    tensors = [symplectic_stft(s, window) for s in symbols]
    prod_tensor = {}
    if any(c.mode == "weyl" for c in configs):
        prod_tensor["weyl"] = symplectic_stft(nfold_product(symbols), window)
    if any(c.mode == "twist" for c in configs):
        prod_tensor["twist"] = symplectic_stft(nfold_twisted(symbols), window)
    out = []
    for cfg in configs:
        order = "modulation" if cfg.mode == "weyl" else "amalgam"
        denom = 1.0
        degenerate = False
        for j, tens in enumerate(tensors, start=1):
            spec = MixedNormSpec(cfg.p[j], cfg.q[j], order, cfg.weights[j], cfg.measure)
            val = phaselab.norms.mixed_norm(tens, spec)
            if val == 0.0:
                degenerate = True
                break
            denom *= val
        if degenerate:
            out.append(None)
            continue
        spec0 = MixedNormSpec(cfg.p[0].conjugate(), cfg.q[0].conjugate(), order,
                              cfg.weights[0].reciprocal(), cfg.measure)
        out.append(phaselab.norms.mixed_norm(prod_tensor[cfg.mode], spec0) / denom)
    return out


@pytest.fixture
def count_norms(monkeypatch):
    """Counts ``mixed_norm`` calls, made by ``norms.stft_norms`` or the oracle."""
    calls = []
    real = phaselab.norms.mixed_norm

    def counting(F, spec, **private):
        calls.append(spec)
        return real(F, spec, **private)

    monkeypatch.setattr(phaselab.norms, "mixed_norm", counting)
    return calls


def _drift_samples(count):
    """The drift configs, their ensemble of ``count`` symbols at n = 16, and its samples."""
    from phaselab.suites import drift_configs

    pg16 = make_grid(1, 16)
    ens = EnsembleSpec(seed=9, count=count, atoms_per_symbol=2, width_range=(0.35, 0.5),
                       center_radius=1.0, modulation_radius=0.7)
    symbols = ensemble_generate(ens, pg16)
    return drift_configs(), ens, [symbols[k:k + 3] for k in range(0, count, 3)], pg16


class TestTensorWalk:
    def test_drift_configs_match_config_by_config(self, count_norms):
        configs, _, groups, pg16 = _drift_samples(6)
        window = default_window(pg16)
        for grp in groups:
            count_norms.clear()
            want = _config_by_config_ratios(configs, grp, window)
            n_oracle = len(count_norms)
            got = _sample_ratios(configs, grp, window)
            assert got == want and None not in got
            assert n_oracle == 48 and len(count_norms) == 2 * n_oracle

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_zero_symbol_stops_like_config_by_config(self, count_norms, position):
        configs, _, groups, pg16 = _drift_samples(3)
        window = default_window(pg16)
        symbols = list(groups[0])
        symbols[position] = GridFunction(pg16.symbol_grid, np.zeros(pg16.symbol_grid.shape))
        want = _config_by_config_ratios(configs, symbols, window)
        n_oracle = len(count_norms)
        got = _sample_ratios(configs, symbols, window)
        assert got == want == [None] * len(configs)
        assert len(count_norms) == 2 * n_oracle == 2 * len(configs) * (position + 1)

    def test_threads_match_config_by_config(self, count_norms, monkeypatch):
        configs, ens, groups, pg16 = _drift_samples(9)
        window = default_window(pg16)
        rows = [_config_by_config_ratios(configs, grp, window)
                for grp in groups]
        n_oracle = len(count_norms)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        reports = ratio_experiment_multi(configs, ens, pg16)
        for i, rep in enumerate(reports):
            assert rep.ratios == tuple(row[i] for row in rows)
        assert len(count_norms) == 2 * n_oracle

    @pytest.mark.parametrize("n", [16, 32])
    def test_multi_block_matches_one_block(self, monkeypatch, n):
        from phaselab.suites import drift_configs

        configs = drift_configs()
        pg = make_grid(1, n)
        ens = EnsembleSpec(seed=9, count=3, atoms_per_symbol=2, width_range=(0.35, 0.5),
                           center_radius=1.0, modulation_radius=0.7)
        symbols = ensemble_generate(ens, pg)
        window = default_window(pg)
        want = _sample_ratios(configs, symbols, window)
        # four rows of the leading shift axis per block
        monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", 4 * n**3)
        got = _sample_ratios(configs, symbols, window)
        assert None not in want
        assert got == pytest.approx(want, rel=1e-12, abs=0)
