"""Ensembles, N-fold products, representation quadrature, ratio experiments."""

import numpy as np
import pytest

from phaselab.exponents import ExponentTuple
from phaselab.grids import GridError, GridFunction, make_grid
from phaselab.lab import (
    EnsembleSpec,
    RatioConfig,
    default_window,
    ensemble_generate,
    nfold_product,
    norm_ratio_experiment,
    paired_stft,
    ratio_experiment_multi,
    stft_integral_representation,
    window_for_representation,
)
from phaselab.lab import _sample_ratios
from phaselab.norms import MixedNormSpec, modulation_norm
from phaselab.stft import symplectic_stft
from phaselab.weights import unit_weight
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

    def test_unit_normalization(self, pg8, small_spec):
        spec = EnsembleSpec(seed=3, count=3, atoms_per_symbol=2, width_range=(0.4, 0.5),
                            center_radius=0.5, modulation_radius=0.4,
                            normalization="unit-M2")
        window = default_window(pg8)
        for s in ensemble_generate(spec, pg8):
            norm = modulation_norm(s, window, MixedNormSpec(2, 2), "symplectic-M")
            assert norm == pytest.approx(1.0, abs=1e-10)

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
    def test_single_factor_unchanged(self, pg8, small_spec):
        s = ensemble_generate(small_spec, pg8)[0]
        out = nfold_product([s], 0.5)
        assert np.array_equal(out.values, s.values)

    def test_bracketing_invariance(self, pg8, small_spec):
        a, b, c = ensemble_generate(small_spec, pg8)[:3]
        left = weyl_product(weyl_product(a, b), c)
        right = weyl_product(a, weyl_product(b, c))
        rel = np.max(np.abs(left.values - right.values)) / np.max(np.abs(left.values))
        assert rel < 1e-10
        fold = nfold_product([a, b, c], 0.5)
        assert np.array_equal(fold.values, left.values)

    def test_three_fold_matrix_oracle(self):
        pg = make_grid(1, 64)
        spec = EnsembleSpec(seed=5, count=3, atoms_per_symbol=2, width_range=(0.9, 1.1),
                            center_radius=1.5, modulation_radius=0.8)
        a, b, c = ensemble_generate(spec, pg)
        prod = nfold_product([a, b, c], 0.5)
        M = operator_matrix(a, 0.5).compose(operator_matrix(b, 0.5)).compose(
            operator_matrix(c, 0.5))
        Mp = operator_matrix(prod, 0.5)
        rel = np.max(np.abs(M.matrix - Mp.matrix)) / np.max(np.abs(Mp.matrix))
        assert rel < 1e-6


class TestRepresentation:
    def test_zero_factors_give_zero(self, pg8):
        window = default_window(pg8)
        zero = GridFunction(pg8.symbol_grid, np.zeros(pg8.symbol_grid.shape))
        stfts = [symplectic_stft(zero, window) for _ in range(2)]
        out = stft_integral_representation(stfts)
        assert np.all(out.values == 0)

    @pytest.mark.parametrize("n_factors", [2, 3])
    def test_matches_direct_product_stft(self, pg8, small_spec, n_factors):
        symbols = ensemble_generate(small_spec, pg8)[:n_factors]
        window = default_window(pg8)
        stfts = [symplectic_stft(s, window) for s in symbols]
        rep = stft_integral_representation(stfts)
        prod = symbols[0]
        for s in symbols[1:]:
            prod = weyl_product(prod, s)
        target = paired_stft(prod, window_for_representation(pg8, [window] * n_factors))
        rel = np.max(np.abs(rep.values - target.values)) / np.max(np.abs(target.values))
        assert rel < 1e-6

    def test_memory_guard(self, small_spec):
        pg = make_grid(1, 16)
        spec = EnsembleSpec(seed=1, count=2, center_radius=0.5, modulation_radius=0.3)
        symbols = ensemble_generate(spec, pg)
        window = default_window(pg)
        stfts = [symplectic_stft(s, window) for s in symbols]
        with pytest.raises(GridError):
            stft_integral_representation(stfts)

    def test_needs_two_factors(self, pg8, small_spec):
        s = ensemble_generate(small_spec, pg8)[0]
        with pytest.raises(GridError):
            stft_integral_representation([symplectic_stft(s, default_window(pg8))])


class TestRatioExperiment:
    def test_deterministic_reports(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=21, count=9, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        r1 = norm_ratio_experiment(all2, all2, [unit_weight()] * 4, ens, pg8)
        r2 = norm_ratio_experiment(all2, all2, [unit_weight()] * 4, ens, pg8)
        assert r1.as_dict() == r2.as_dict()
        assert r1.to_json() == r2.to_json()

    def test_degenerate_symbol_records_null(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        cfg = RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "counting")
        window = default_window(pg8)
        zero = GridFunction(pg8.symbol_grid, np.zeros(pg8.symbol_grid.shape))
        spec = EnsembleSpec(seed=2, count=3, center_radius=0.5, modulation_radius=0.3)
        symbols = ensemble_generate(spec, pg8)
        ratios = _sample_ratios([cfg], [symbols[0], zero, symbols[1]], pg8, 0.5, window, "fast")
        assert ratios == [None]

    def test_twist_mode_uses_twisted_products(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=23, count=6, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        rep = norm_ratio_experiment(all2, all2, [unit_weight()] * 4, ens, pg8, mode="twist")
        assert rep.mode == "twist" and rep.condition == "twist"
        assert all(r is not None and r > 0 for r in rep.ratios)

    def test_report_serialization(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=24, count=6, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        rep = norm_ratio_experiment(all2, all2, [unit_weight()] * 4, ens, pg8)
        doc = rep.as_dict()
        assert doc["grid_n"] == 8 and doc["N"] == 3 and len(doc["ratios"]) == 2
        csv_text = rep.to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0].startswith("sample,ratio")
        assert len(lines) == 3
        # tuple literals contain commas and must be quoted (RFC 4180)
        assert '"2,2,2,2"' in lines[1]

    def test_condition_recorded_but_not_gating(self, pg8):
        # a tuple violating the condition still runs; the verdict is recorded
        p = ExponentTuple.parse("4,4,4,4")
        ens = EnsembleSpec(seed=25, count=3, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        rep = norm_ratio_experiment(p, p, [unit_weight()] * 4, ens, pg8)
        assert rep.condition_holds is False
        assert len(rep.ratios) == 1

    def test_multi_shares_samples(self, pg8):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=26, count=6, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        cfgs = [RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "quadrature", "a"),
                RatioConfig(all2, all2, (unit_weight(),) * 4, "weyl", "counting", "b")]
        reports = ratio_experiment_multi(cfgs, ens, pg8)
        single = norm_ratio_experiment(all2, all2, [unit_weight()] * 4, ens, pg8)
        assert reports[0].ratios == single.ratios
        assert reports[0].config_label == "a" and reports[1].config_label == "b"

    def test_thread_env_does_not_change_results(self, pg8, monkeypatch):
        all2 = ExponentTuple.parse("2,2,2,2")
        ens = EnsembleSpec(seed=27, count=9, atoms_per_symbol=2, width_range=(0.4, 0.5),
                           center_radius=0.5, modulation_radius=0.4)
        base = norm_ratio_experiment(all2, all2, [unit_weight()] * 4, ens, pg8)
        monkeypatch.setenv("PHASELAB_THREADS", "3")
        threaded = norm_ratio_experiment(all2, all2, [unit_weight()] * 4, ens, pg8)
        assert base.ratios == threaded.ratios

    def test_shared_norms_match_lone_configs_bitwise(self):
        # run together, the drift configs reuse factor norms through the
        # per-tensor memo; a lone config takes one norm per tensor and never hits it
        from phaselab.suites import _drift_configs

        configs = _drift_configs()
        ens = EnsembleSpec(seed=9, count=6, atoms_per_symbol=2, width_range=(0.35, 0.5),
                           center_radius=1.0, modulation_radius=0.7)
        pg16 = make_grid(1, 16)
        together = ratio_experiment_multi(configs, ens, pg16)
        for cfg, rep in zip(configs, together):
            alone = ratio_experiment_multi([cfg], ens, pg16)[0]
            assert rep.ratios == alone.ratios and None not in rep.ratios
