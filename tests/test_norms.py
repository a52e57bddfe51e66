"""Mixed norms: collapse, monotonicity, energy identities, duality bounds."""

import numpy as np
import pytest

import phaselab.lab
import phaselab.norms
import phaselab.stft
from phaselab.exponents import Exponent
from phaselab.grids import (
    GaussianAtomSpec,
    GridError,
    gaussian_atom,
    make_grid,
    symplectic_fourier,
)
from phaselab.norms import MixedNormSpec, mixed_norm, stft_norms
from phaselab.stft import STFTTensor, stft_blocks, symplectic_stft
from phaselab.weights import poly_weight, split_weight, unit_weight

RNG = np.random.default_rng(2)


@pytest.fixture
def setup():
    pg = make_grid(1, 16)
    a = gaussian_atom(pg, GaussianAtomSpec((0.4, -0.2), (2 * pg.h, -pg.h), 0.45))
    Phi = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), 0.45))
    return pg, a, Phi, symplectic_stft(a, Phi)


def test_single_entry_counting(setup):
    pg, a, Phi, W = setup
    g = pg.symbol_grid
    vals = np.zeros(W.values.shape, dtype=complex)
    vals[3, 5, 7, 2] = 2 - 1j
    T = STFTTensor(W.shift_grid, W.freq_grid, vals, "symplectic")
    w = split_weight(poly_weight(1.0), "Y")
    point = g.axis[[3, 5, 7, 2]]
    for (p, q) in [(1, 2), (0.5, 3), (float("inf"), 1)]:
        got = mixed_norm(T, MixedNormSpec(p, q, "modulation", w, "counting"))
        assert got == pytest.approx(abs(2 - 1j) * w(point), rel=1e-12)


def test_equal_exponents_collapse_bitwise(setup):
    pg, a, Phi, W = setup
    g = pg.symbol_grid
    for measure in ("counting", "quadrature"):
        cell = g.quadrature_weight**2 if measure == "quadrature" else 1.0
        for order in ("modulation", "amalgam"):
            spec = MixedNormSpec(1.5, 1.5, order, None, measure)
            assert mixed_norm(W, spec) == (cell * np.sum(np.abs(W.values) ** 1.5)) ** (1 / 1.5)


def test_counting_monotonicity(setup):
    # smaller exponents give larger counting norms (embedding direction)
    pg, a, Phi, W = setup
    for _ in range(25):
        p1, q1 = RNG.uniform(0.4, 3.0, 2)
        p2, q2 = p1 + RNG.uniform(0, 2), q1 + RNG.uniform(0, 2)
        n1 = mixed_norm(W, MixedNormSpec(p1, q1, "modulation", None, "counting"))
        n2 = mixed_norm(W, MixedNormSpec(p2, q2, "modulation", None, "counting"))
        assert n2 <= n1 * (1 + 1e-12)


def test_homogeneity_and_triangle(setup):
    pg, a, Phi, W = setup
    g = W.shift_grid
    spec_b = MixedNormSpec(1.5, 2.5, "modulation", None, "counting")
    spec_q = MixedNormSpec(0.5, 0.75, "modulation", None, "counting")
    A = RNG.standard_normal(W.values.shape) + 1j * RNG.standard_normal(W.values.shape)
    B = RNG.standard_normal(W.values.shape) + 1j * RNG.standard_normal(W.values.shape)

    def norm(vals, spec):
        return mixed_norm(STFTTensor(g, g, vals, "symplectic"), spec)

    for spec in (spec_b, spec_q):
        assert norm(3.5 * A, spec) == pytest.approx(3.5 * norm(A, spec), rel=1e-12)
    assert norm(A + B, spec_b) <= norm(A, spec_b) + norm(B, spec_b) + 1e-12
    r = 0.5  # r-power triangle inequality in the quasi-range, r = min(p, q, 1)
    assert norm(A + B, spec_q) ** r <= norm(A, spec_q) ** r + norm(B, spec_q) ** r + 1e-12


def test_moyal_constant_symplectic(setup):
    # measured once against the direct-sum oracle: the constant is 1 exactly
    pg, a, Phi, W = setup
    got = stft_norms(a, Phi, [MixedNormSpec(2, 2)])[0]
    assert got == pytest.approx(a.norm2() * Phi.norm2(), rel=1e-8)


def test_window_robustness(setup):
    pg, a, Phi, _ = setup
    w1 = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), 0.45))
    w2 = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), 0.55))
    spec = MixedNormSpec(1, 2, "modulation", None, "quadrature")
    ratios = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        sym = gaussian_atom(pg, GaussianAtomSpec(
            tuple(rng.uniform(-1, 1, 2)), tuple(rng.uniform(-0.5, 0.5, 2)), 0.5))
        ratios.append(stft_norms(sym, w1, [spec])[0] / stft_norms(sym, w2, [spec])[0])
    # equivalent norms: the two-window ratio stays in a fixed band
    assert max(ratios) / min(ratios) < 1.5
    assert all(0.25 < r < 4.0 for r in ratios)


def test_transform_exchange_of_norms(setup):
    # modulation norm of a equals the reversed amalgam norm of its transform
    pg, a, Phi, _ = setup
    w = split_weight(poly_weight(1.0), "Y")
    w0 = split_weight(poly_weight(1.0), "X")
    fa, fPhi = symplectic_fourier(a), symplectic_fourier(Phi)
    for (p, q) in [(1, 2), (2, 4), (3, 1.5), (float("inf"), 2)]:
        lhs = stft_norms(a, Phi, [MixedNormSpec(p, q, "modulation", w)])[0]
        rhs = stft_norms(fa, fPhi, [MixedNormSpec(q, p, "amalgam", w0)])[0]
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_duality_lower_bound():
    # |<a, b>| <= M^{p,q}_w(a) * M^{p',q'}_{1/w}(b) / ||Phi||^2, stable in n
    w = split_weight(poly_weight(1.0), "Y")
    for n in (16, 32):
        pg = make_grid(1, n)
        Phi = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), 0.45))
        a = gaussian_atom(pg, GaussianAtomSpec((0.4, -0.2), (2 * pg.h, -pg.h), 0.45))
        b = gaussian_atom(pg, GaussianAtomSpec((-0.3, 0.5), (pg.h, 0), 0.5))
        for (p, q) in [(1.0, 2.0), (2.0, 3.0), (4.0, 1.0)]:
            pc = Exponent.from_value(p).conjugate().value
            qc = Exponent.from_value(q).conjugate().value
            na = stft_norms(a, Phi, [MixedNormSpec(p, q, "modulation", w)])[0]
            nb = stft_norms(b, Phi, [MixedNormSpec(pc, qc, "modulation", w.reciprocal())])[0]
            assert abs(a.inner(b)) <= na * nb / Phi.norm2() ** 2 * (1 + 1e-8)


def test_multi_block_matches_one_block(monkeypatch):
    # every drift spec, in both orders and with both measures, plus weighted and
    # infinite-exponent cases
    w = split_weight(poly_weight(1.0), "Y")
    specs = _drift_specs()
    specs += [MixedNormSpec(s.p, s.q, s.order, s.weight, "counting") for s in specs]
    specs += [
        MixedNormSpec(1.5, 2.5, "modulation", w),
        MixedNormSpec(float("inf"), 2, "amalgam", w),
        MixedNormSpec(2, float("inf"), "modulation", None),
        # weights on the shift block see which rows a block holds
        MixedNormSpec(1.5, 3, "modulation", split_weight(poly_weight(1.0), "X")),
        MixedNormSpec(3, 1.5, "amalgam", poly_weight(0.5)),
    ]
    for n in (16, 32):
        pg = make_grid(1, n)
        a = gaussian_atom(pg, GaussianAtomSpec((0.4, -0.2), (2 * pg.h, -pg.h), 0.45))
        Phi = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), 0.45))
        want = stft_norms(a, Phi, specs)
        for rows in (1, 4):
            monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", rows * n**3)
            assert stft_norms(a, Phi, specs) == pytest.approx(want, rel=1e-12, abs=0)
        monkeypatch.undo()


def test_spec_validation():
    with pytest.raises(GridError):
        MixedNormSpec(0, 2)
    with pytest.raises(GridError):
        MixedNormSpec(2, 2, "diagonal")
    with pytest.raises(GridError):
        MixedNormSpec(2, 2, "modulation", None, "lebesgue")


# -- per-tensor norm memo ----------------------------------------------------------

def _drift_specs():
    """Every factor and product spec the drift configs ask of one tensor."""
    from phaselab.suites import drift_configs

    specs = []
    for cfg in drift_configs():
        order = "modulation" if cfg.mode == "weyl" else "amalgam"
        for j in range(1, cfg.p.n_factors + 1):
            specs.append(MixedNormSpec(cfg.p[j], cfg.q[j], order, cfg.weights[j], cfg.measure))
        specs.append(MixedNormSpec(cfg.p[0].conjugate(), cfg.q[0].conjugate(), order,
                                   cfg.weights[0].reciprocal(), cfg.measure))
    return specs


def _fresh(T):
    """A tensor over the same array (same memory layout) with an empty memo."""
    return STFTTensor(T.shift_grid, T.freq_grid, T.values, T.flavor)


def test_memo_hit_equals_fresh_tensor(setup):
    _, _, _, W = setup
    specs = _drift_specs()
    first = [mixed_norm(W, spec) for spec in specs]
    for spec, cold in zip(specs, first):
        warm = mixed_norm(W, spec)
        assert warm == cold == mixed_norm(_fresh(W), spec)


def test_memo_computes_each_distinct_norm_once(monkeypatch, setup):
    _, _, _, W = setup
    specs = _drift_specs()
    reductions = []
    real = phaselab.norms._partial

    def counting(*args):
        reductions.append(args)
        return real(*args)

    monkeypatch.setattr(phaselab.norms, "_partial", counting)
    for spec in specs:
        mixed_norm(W, spec)
    # a materialized tensor is one block: one partial reduction per distinct norm
    assert len(reductions) == len(W._norms) < len(specs)


def test_memo_keeps_distinct_specs_apart(setup):
    _, _, _, W = setup
    w = split_weight(poly_weight(1.0), "Y")
    pairs = [
        (MixedNormSpec(2, 1, "modulation"), MixedNormSpec(2, 1, "amalgam")),
        (MixedNormSpec(2, 1, "modulation", w), MixedNormSpec(2, 1, "modulation", w, "counting")),
        (MixedNormSpec(2, 2, "modulation", w), MixedNormSpec(2, 2, "modulation", w, "counting")),
        (MixedNormSpec(2, 1, "modulation"), MixedNormSpec(2, 1, "modulation", w)),
        (MixedNormSpec(2, 2), MixedNormSpec(2, 2, "modulation", w)),
        (MixedNormSpec(1, 2), MixedNormSpec(2, 1)),
        (MixedNormSpec(2, 1), MixedNormSpec(2, 4)),
        (MixedNormSpec(1, 2), MixedNormSpec(4, 2)),
    ]
    for a, b in pairs:
        na, nb = mixed_norm(W, a), mixed_norm(W, b)
        assert na != nb
        assert (na, nb) == (mixed_norm(_fresh(W), a), mixed_norm(_fresh(W), b))


def test_memo_shares_equivalent_specs(setup):
    # the order is irrelevant when p = q, and a unit weight equals no weight
    _, _, _, W = setup
    a = mixed_norm(W, MixedNormSpec(1.5, 1.5, "amalgam"))
    b = mixed_norm(W, MixedNormSpec(Exponent.from_value(1.5), 1.5, "modulation", unit_weight()))
    assert a == b and len(W._norms) == 1


def test_tensor_values_read_only(setup):
    _, _, _, W = setup
    vals = W.values.copy()
    T = STFTTensor(W.shift_grid, W.freq_grid, vals, "symplectic")
    assert not T.values.flags.writeable and not W.values.flags.writeable
    with pytest.raises(ValueError):
        T.values[0, 0, 0, 0] = 1.0
    assert vals.flags.writeable
    vals[0, 0, 0, 0] = 1.0


# -- magnitudes shared per tensor ------------------------------------------------

def test_abs_runs_once_per_tensor(monkeypatch, setup):
    _, _, _, W = setup
    T = _fresh(W)
    calls = []
    real = np.abs

    def counting(x, *args, **kwargs):
        if x is T.values:
            calls.append(1)
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counting)
    for spec in _drift_specs():
        mixed_norm(T, spec)
    assert len(calls) == 1


class _CountedWeight(np.ndarray):
    """Weight tensor that counts the products it enters."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.multiply:
            _CountedWeight.products += 1
        inputs = [x.view(np.ndarray) if isinstance(x, _CountedWeight) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_weighted_magnitudes_built_once_per_weight(monkeypatch, setup):
    _, _, _, W = setup
    T = _fresh(W)
    real = phaselab.norms._weight_tensor

    def counted(*args):
        w = real(*args)
        return None if w is None else w.view(_CountedWeight)

    monkeypatch.setattr(phaselab.norms, "_weight_tensor", counted)
    monkeypatch.setattr(_CountedWeight, "products", 0)
    # the drift specs share one weight (poly(-1)'s reciprocal is poly(1)); add a second
    w2 = split_weight(poly_weight(2.0), "Y")
    specs = _drift_specs() + [MixedNormSpec(2, 1, "modulation", w2), MixedNormSpec(1, 2, "amalgam", w2)]
    for spec in specs:
        mixed_norm(T, spec)
    weights = {s.weight for s in specs if s.weight is not None and s.weight.kind != "unit"}
    assert len(weights) == 2
    assert _CountedWeight.products == len(weights)
    assert set(T._mags) == {None} | weights


def test_warm_magnitudes_equal_cold_bitwise(setup):
    _, _, _, W = setup
    specs = _drift_specs()
    warm = _fresh(W)
    for spec in specs:
        mixed_norm(warm, spec)
    warm._norms.clear()
    for spec in specs:
        assert mixed_norm(warm, spec) == mixed_norm(_fresh(W), spec)


def test_sample_ratios_releases_magnitudes(monkeypatch):
    # each tensor, with its magnitude cache, is freed before the next is built
    import weakref

    from phaselab.grids import GridFunction
    from phaselab.lab import EnsembleSpec, _sample_ratios, default_window, ensemble_generate
    from phaselab.suites import drift_configs

    made = []
    real = phaselab.norms.symplectic_stft

    def tracking(a, window, **scratch):
        assert all(ref() is None for ref in made)
        T = real(a, window, **scratch)
        made.append(weakref.ref(T))
        return T

    monkeypatch.setattr(phaselab.norms, "symplectic_stft", tracking)
    pg = make_grid(1, 16)
    ens = EnsembleSpec(seed=9, count=3, atoms_per_symbol=2, width_range=(0.35, 0.5),
                       center_radius=1.0, modulation_radius=0.7)
    symbols = ensemble_generate(ens, pg)
    zero = GridFunction(pg.symbol_grid, np.zeros(pg.symbol_grid.shape))
    for grp in (symbols, [symbols[0], zero, symbols[2]]):
        _sample_ratios(drift_configs(), grp, 0.5, default_window(pg))
    # 3 factors and 2 products; then 2 factors, after which every config is degenerate
    assert len(made) == 7 and all(ref() is None for ref in made)


# -- per-thread scratch arena ------------------------------------------------------

def _window(pg):
    return gaussian_atom(pg, GaussianAtomSpec((0,) * (2 * pg.d), (0,) * (2 * pg.d), 0.45))


def _symbols(pg, count, seed=5):
    """``count`` different Gaussian symbols on ``pg``."""
    rng = np.random.default_rng(seed)
    k, r = 2 * pg.d, min(0.6, pg.symbol_grid.extent / 10)  # truncation-safe reach
    return [gaussian_atom(pg, GaussianAtomSpec(tuple(rng.uniform(-r, r, k)),
                                               tuple(rng.uniform(-r, r, k) * 2 / 3), 0.45))
            for _ in range(count)]


def _arena_specs():
    """The drift specs plus a second Y weight and an X weight: three weight slots."""
    w2 = split_weight(poly_weight(2.0), "Y")
    wx = split_weight(poly_weight(1.0), "X")
    return _drift_specs() + [MixedNormSpec(2, 1, "modulation", w2),
                             MixedNormSpec(1.5, 3, "amalgam", wx, "counting"),
                             MixedNormSpec(float("inf"), 2, "modulation", wx)]


@pytest.mark.parametrize("d, n", [(1, 16), (1, 32), (2, 4)])
def test_arena_norms_equal_fresh_tensor_bitwise(d, n):
    # a stale block or magnitude buffer would give the previous symbol's norms
    pg = make_grid(d, n)
    Phi = _window(pg)
    specs = _arena_specs()
    keys = None
    for a in _symbols(pg, 3):
        got = stft_norms(a, Phi, specs)
        fresh = symplectic_stft(a, Phi)
        assert got == [mixed_norm(fresh, spec) for spec in specs]
        # one set of buffers per layout: later symbols add none
        keys = keys or set(phaselab.norms._arena())
        assert set(phaselab.norms._arena()) == keys


def test_block_walk_equals_itself_without_the_arena(monkeypatch):
    pg = make_grid(1, 64)
    Phi = _window(pg)
    w = split_weight(poly_weight(1.0), "Y")
    specs = [MixedNormSpec(2, 1, "modulation", w), MixedNormSpec(1, 2, "amalgam", w, "counting"),
             MixedNormSpec(float("inf"), 2, "modulation", split_weight(poly_weight(1.0), "X")),
             MixedNormSpec(3, 3)]
    a, b = _symbols(pg, 2)
    stft_norms(a, Phi, specs)
    warm = stft_norms(b, Phi, specs)
    phaselab.norms._arena().clear()
    assert stft_norms(b, Phi, specs) == warm
    # and with no buffer kept at all, not even from block to block within the walk
    def fresh(scratch, slot, ufunc, *operands):
        return ufunc(*operands)

    monkeypatch.setattr(phaselab.stft, "_reuse", fresh)
    monkeypatch.setattr(phaselab.norms, "_reuse", fresh)
    assert stft_norms(b, Phi, specs) == warm


def test_arena_buffers_have_fresh_strides(monkeypatch):
    pg = make_grid(1, 16)
    Phi = _window(pg)
    a, b = _symbols(pg, 2)
    specs = _arena_specs()
    scratch = {}
    first = symplectic_stft(a, Phi, _scratch=scratch)
    for spec in specs:
        mixed_norm(first, spec)
    reused = symplectic_stft(b, Phi, _scratch=scratch)
    for spec in specs:
        mixed_norm(reused, spec)
    fresh = symplectic_stft(b, Phi)
    for spec in specs:
        mixed_norm(fresh, spec)
    assert np.shares_memory(reused.values, first.values)
    assert reused.values.strides == fresh.values.strides
    assert set(reused._mags) == set(fresh._mags)
    for k, mags in fresh._mags.items():
        assert np.shares_memory(reused._mags[k], first._mags[k])
        assert reused._mags[k].strides == mags.strides
    # blocks of a walk: every block goes into one buffer with the fresh block's strides
    monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", 4 * 16**3)
    want = [(rows, block.strides) for rows, block in stft_blocks(a, Phi, True)]
    scratch = {}
    for f in (a, b):
        got = [(rows, block.strides) for rows, block in stft_blocks(f, Phi, True, _scratch=scratch)]
        assert got == want and len(want) == 4
    assert len(scratch) == 1


def test_public_tensors_never_alias_the_arena():
    pg = make_grid(1, 16)
    Phi = _window(pg)
    a, b, c = _symbols(pg, 3)
    specs = _arena_specs()
    stft_norms(a, Phi, specs)
    T = symplectic_stft(b, Phi)
    for spec in specs:
        mixed_norm(T, spec)
    before = T.values.copy()
    stft_norms(c, Phi, specs)
    arena = list(phaselab.norms._arena().values())
    for arr in (T.values, *T._mags.values()):
        assert not any(np.shares_memory(arr, buf) for buf in arena)
    assert T.values.tobytes() == before.tobytes()


def test_thread_workers_hold_distinct_arenas(monkeypatch):
    import json
    import threading

    from phaselab.lab import EnsembleSpec, ratio_experiment_multi
    from phaselab.suites import drift_configs

    pg = make_grid(1, 16)
    ens = EnsembleSpec(seed=9, count=6, atoms_per_symbol=2, width_range=(0.35, 0.5),
                       center_radius=1.0, modulation_radius=0.7)
    one = ratio_experiment_multi(drift_configs(), ens, pg)
    arenas = {}
    both_started = threading.Barrier(2, timeout=60)  # each of the 2 samples on its own worker
    real = phaselab.lab.stft_norms

    def recording(*args, **kwargs):
        me = threading.get_ident()
        if me not in arenas:
            arenas[me] = phaselab.norms._arena()
            both_started.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(phaselab.lab, "stft_norms", recording)
    monkeypatch.setenv("PHASELAB_THREADS", "2")
    two = ratio_experiment_multi(drift_configs(), ens, pg)
    assert (json.dumps([r.as_dict() for r in two], sort_keys=True)
            == json.dumps([r.as_dict() for r in one], sort_keys=True))
    assert threading.get_ident() not in arenas
    x, y = arenas.values()
    assert x is not y and x and y
    assert not any(np.shares_memory(u, v) for u in x.values() for v in y.values())
