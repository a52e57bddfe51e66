"""Mixed norms: collapse, monotonicity, energy identities, duality bounds."""

import numpy as np
import pytest

import phaselab.lab
import phaselab.norms
import phaselab.stft
from phaselab.exponents import Exponent
from phaselab.grids import (
    GridError,
    gaussian_atom,
    make_grid,
    symplectic_fourier,
)
from phaselab.norms import MixedNormSpec, mixed_norm, stft_norms
from phaselab.stft import STFTTensor, stft_blocks, symplectic_stft
from phaselab.weights import parse_weight, poly_weight, split_weight, unit_weight

RNG = np.random.default_rng(2)


@pytest.fixture
def setup():
    pg = make_grid(1, 16)
    a = gaussian_atom(pg, (0.4, -0.2), (2 * pg.h, -pg.h), 0.45)
    Phi = gaussian_atom(pg, (0, 0), (0, 0), 0.45)
    return pg, a, Phi, symplectic_stft(a, Phi)


def test_single_entry_counting(setup):
    pg, a, Phi, W = setup
    g = pg.symbol_grid
    vals = np.zeros(W.values.shape, dtype=complex)
    vals[3, 5, 7, 2] = 2 - 1j
    T = STFTTensor(W.shift_grid, W.freq_grid, vals)
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
        return mixed_norm(STFTTensor(g, g, vals), spec)

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
    w1 = gaussian_atom(pg, (0, 0), (0, 0), 0.45)
    w2 = gaussian_atom(pg, (0, 0), (0, 0), 0.55)
    spec = MixedNormSpec(1, 2, "modulation", None, "quadrature")
    ratios = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        sym = gaussian_atom(pg, rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2), 0.5)
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
        Phi = gaussian_atom(pg, (0, 0), (0, 0), 0.45)
        a = gaussian_atom(pg, (0.4, -0.2), (2 * pg.h, -pg.h), 0.45)
        b = gaussian_atom(pg, (-0.3, 0.5), (pg.h, 0), 0.5)
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
        a = gaussian_atom(pg, (0.4, -0.2), (2 * pg.h, -pg.h), 0.45)
        Phi = gaussian_atom(pg, (0, 0), (0, 0), 0.45)
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
    huge = Exponent.from_value("1e400")  # exact, but beyond the float range
    with pytest.raises(GridError):
        MixedNormSpec(huge, 2)
    with pytest.raises(GridError):
        MixedNormSpec(2, huge)


# -- per-tensor norm memo ----------------------------------------------------------

def _drift_specs():
    """Every factor and product spec the drift configs ask of one tensor."""
    from phaselab.suites import drift_configs

    return [spec for cfg in drift_configs() for spec in cfg.norm_specs]


def _count_reductions(monkeypatch):
    """The arguments of every ``_partial`` reduction from here on."""
    reductions = []
    real = phaselab.norms._partial

    def counting(*args):
        reductions.append(args)
        return real(*args)

    monkeypatch.setattr(phaselab.norms, "_partial", counting)
    return reductions


def test_memo_hit_equals_fresh_tensor(setup):
    # every spec asked twice in one call: the repeats are memo hits
    _, a, Phi, W = setup
    specs = _drift_specs()
    cold = [mixed_norm(W, spec) for spec in specs]
    assert stft_norms(a, Phi, specs + specs) == cold + cold


def test_memo_computes_each_distinct_norm_once(monkeypatch, setup):
    _, a, Phi, _ = setup
    specs = _drift_specs()
    reductions = _count_reductions(monkeypatch)
    stft_norms(a, Phi, specs)
    # a materialized tensor is one block: one partial reduction per distinct norm
    assert len(reductions) == len({spec.key for spec in specs}) < len(specs)


def test_memo_keeps_distinct_specs_apart(setup):
    _, a, Phi, W = setup
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
    for x, y in pairs:
        nx, ny = stft_norms(a, Phi, [x, y])
        assert nx != ny
        assert (nx, ny) == (mixed_norm(W, x), mixed_norm(W, y))


def test_memo_shares_equivalent_specs(monkeypatch, setup):
    # the order is irrelevant when p = q, and a unit weight equals no weight
    _, a, Phi, _ = setup
    reductions = _count_reductions(monkeypatch)
    x, y = stft_norms(a, Phi, [MixedNormSpec(1.5, 1.5, "amalgam"),
                               MixedNormSpec(Exponent.from_value(1.5), 1.5, "modulation",
                                             unit_weight())])
    assert x == y and len(reductions) == 1


@pytest.mark.parametrize("literal", ["unit*unit", "split:unit@X"])
def test_constant_weights_share_the_unit_key(literal):
    weight = parse_weight(literal)
    assert weight.is_unit and weight.reciprocal().is_unit
    assert not parse_weight("unit*poly:s=1").is_unit
    for p, q in ((2, 1), (2, 2)):
        assert (MixedNormSpec(p, q, weight=weight).key
                == MixedNormSpec(p, q, weight=unit_weight()).key
                == MixedNormSpec(p, q).key)


def test_constant_weights_write_no_weighted_magnitudes(monkeypatch):
    # unit*unit in all four slots, one sample at n = 16: every norm reads |V| itself
    from phaselab.exponents import ExponentTuple
    from phaselab.lab import EnsembleSpec, RatioConfig, ratio_experiment_multi

    products = []
    real = phaselab.norms._product_into

    def counting(mags, w, flat):
        products.append(w.shape)
        return real(mags, w, flat)

    monkeypatch.setattr(phaselab.norms, "_product_into", counting)
    p, q = ExponentTuple.parse("2,inf,2,2"), ExponentTuple.parse("2,1,2,2")
    ens = EnsembleSpec(seed=9, count=3, atoms_per_symbol=2, width_range=(0.35, 0.5),
                       center_radius=1.0, modulation_radius=0.7)
    cfg = RatioConfig(p, q, (parse_weight("unit*unit"),) * 4)
    (rep,) = ratio_experiment_multi([cfg], ens, make_grid(1, 16))
    assert None not in rep.ratios and products == []


def test_tensor_values_read_only(setup):
    _, _, _, W = setup
    vals = W.values.copy()
    T = STFTTensor(W.shift_grid, W.freq_grid, vals)
    assert not T.values.flags.writeable and not W.values.flags.writeable
    with pytest.raises(ValueError):
        T.values[0, 0, 0, 0] = 1.0
    assert vals.flags.writeable
    vals[0, 0, 0, 0] = 1.0


# -- magnitudes taken once per tensor and weight -----------------------------------

def test_abs_runs_once_per_tensor(monkeypatch):
    # |V| is taken once per tensor whatever its weights, and once per block of a walk
    pg = make_grid(1, 16)
    Phi = _window(pg)
    symbols = _symbols(pg, 2)
    calls = []
    real = phaselab.norms._abs_over

    def counting(values):
        calls.append(values.shape)
        return real(values)

    monkeypatch.setattr(phaselab.norms, "_abs_over", counting)
    for a in symbols:
        stft_norms(a, Phi, _arena_specs())
    assert calls == [(16,) * 4] * 2
    calls.clear()
    monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", 4 * 16**3)
    for a in symbols:
        stft_norms(a, Phi, _arena_specs())
    assert calls == [(4, 16, 16, 16)] * 8


def test_weighted_magnitudes_built_once_per_weight(monkeypatch):
    # one |V| * w per weight and tensor (per block in a walk), with three weights;
    # equal weights built apart are one weight and share their product
    pg = make_grid(1, 16)
    Phi = _window(pg)
    a = _symbols(pg, 1)[0]
    specs = _arena_specs() + [MixedNormSpec(3, 2, "amalgam", split_weight(poly_weight(1.0), "X"))]
    assert specs[-1].weight == specs[-2].weight and specs[-1].weight is not specs[-2].weight
    weights = {s.weight for s in specs if s.weight is not None and s.weight.kind != "unit"}
    assert len(weights) == 3
    products = []
    real = phaselab.norms._product_into

    def counting(mags, w, flat):
        products.append(flat)
        return real(mags, w, flat)

    monkeypatch.setattr(phaselab.norms, "_product_into", counting)
    fresh = symplectic_stft(a, Phi)
    assert stft_norms(a, Phi, specs) == [mixed_norm(fresh, spec) for spec in specs]
    assert len(products) == len(weights)
    products.clear()
    monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", 4 * 16**3)
    assert stft_norms(a, Phi, specs) == _fresh_walk(a, Phi, specs)
    assert len(products) == 4 * len(weights)


def test_warm_magnitudes_equal_cold_bitwise(setup):
    # a second call writes over the first one's spent block and starts a new memo
    _, a, Phi, W = setup
    specs = _drift_specs()
    cold = [mixed_norm(W, spec) for spec in specs]
    assert stft_norms(a, Phi, specs) == cold
    assert stft_norms(a, Phi, specs) == cold


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
        _sample_ratios(drift_configs(), grp, default_window(pg))
    # 3 factors and 2 products; then 2 factors, after which every config is degenerate
    assert len(made) == 7 and all(ref() is None for ref in made)


# -- per-thread scratch arena ------------------------------------------------------

def _window(pg):
    return gaussian_atom(pg, (0,) * (2 * pg.d), (0,) * (2 * pg.d), 0.45)


def _symbols(pg, count, seed=5):
    """``count`` different Gaussian symbols on ``pg``."""
    rng = np.random.default_rng(seed)
    k, r = 2 * pg.d, min(0.6, pg.symbol_grid.extent / 10)  # truncation-safe reach
    return [gaussian_atom(pg, rng.uniform(-r, r, k), rng.uniform(-r, r, k) * 2 / 3, 0.45)
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
        # one block buffer: later symbols add none
        keys = keys or set(phaselab.norms._arena())
        assert set(phaselab.norms._arena()) == keys


def _fresh_walk(a, window, specs):
    """The block walk of ``stft_norms`` with a fresh ``np.abs``, ``np.multiply`` and ``x**p`` per block."""
    norms = phaselab.norms
    g = a.grid
    keys = [spec.key for spec in specs]
    cells = {key: norms._cells(key[4], g, g) for key in keys}
    acc = {}
    for rows, block in stft_blocks(a, window, True):
        mags = np.abs(block)
        for key in cells:
            w = norms._weight_tensor(key[3], g, g, rows)
            x = mags if w is None else np.multiply(mags, w)
            combine = np.maximum if np.isinf(key[0]) else np.add
            acc[key] = combine(acc.get(key, 0.0), norms._partial(x, key, cells[key]))
    return [norms._finish(acc[key], key, cells[key]) for key in keys]


def test_block_walk_equals_itself_without_the_arena():
    # the walk writes |V| over each spent block and |V| * w and the powers into its
    # halves; a walk with fresh arrays per block gives the same bits, with one weight
    # (its powers go over |V|) and with two (the first weight's powers are fresh)
    pg = make_grid(1, 64)
    Phi = _window(pg)
    wy, wx = split_weight(poly_weight(1.0), "Y"), split_weight(poly_weight(1.0), "X")
    one = [MixedNormSpec(2, 1, "modulation", wy), MixedNormSpec(1, 2, "amalgam", wy, "counting"),
           MixedNormSpec(3, 3)]
    two = one + [MixedNormSpec(float("inf"), 2, "modulation", wx),
                 MixedNormSpec(4 / 3, 2, "modulation", wx)]
    a, b = _symbols(pg, 2)
    for specs in (one, two):
        stft_norms(a, Phi, specs)
        assert stft_norms(b, Phi, specs) == _fresh_walk(b, Phi, specs)


@pytest.mark.parametrize("n", [32, 64])  # 64 is the block walk
def test_norms_do_not_depend_on_the_cpu_count(usable_cpus, n):
    # |V|, |V| * w and the powers run in one span of shift rows per usable CPU (three
    # parts cut unevenly) and every sum whole, so the bits are those of one CPU
    pg = make_grid(1, n)
    Phi, a = _window(pg), _symbols(pg, 1)[0]
    wy, wx = split_weight(poly_weight(1.0), "Y"), split_weight(poly_weight(1.0), "X")
    specs = [MixedNormSpec(2, 1, "modulation", wy), MixedNormSpec(1, 2, "amalgam", wy, "counting"),
             MixedNormSpec(3, 3), MixedNormSpec(float("inf"), 2, "modulation", wx),
             MixedNormSpec(4 / 3, 2, "amalgam", wx)]
    got = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        usable_cpus(cpus)
        got.append(np.array(stft_norms(a, Phi, specs)).tobytes())
    assert got[0] == got[1] == got[2]


def test_arena_buffers_have_fresh_strides(monkeypatch):
    # the arena keeps the block only; |V|, |V| * w and the powers reuse the spent block
    pg = make_grid(1, 16)
    Phi = _window(pg)
    a, b = _symbols(pg, 2)
    specs = _arena_specs()
    scratch = {}
    first = symplectic_stft(a, Phi, _scratch=scratch)
    reused = symplectic_stft(b, Phi, _scratch=scratch)
    fresh = symplectic_stft(b, Phi)
    assert np.shares_memory(reused.values, first.values)
    assert reused.values.strides == fresh.values.strides
    assert list(scratch) == ["block"]
    # every magnitude array _magnitudes returns lies in the spent block with the strides
    # and bits of the fresh |V| or |V| * w; the powers go into a half clear of it, or fresh
    states, returned, want_blocks = [], [], []
    real = phaselab.norms._magnitudes

    def checked(state, block, weight, w):
        if not want_blocks:  # warming the arena up
            return real(state, block, weight, w)
        if not any(state is seen for seen in states):
            states.append(state)
        x, flat = real(state, block, weight, w)
        mags = np.abs(want_blocks[len(states) - 1])
        want = mags if w is None else np.multiply(mags, w)
        assert x.strides == want.strides and np.array_equal(x.view(np.int64), want.view(np.int64))
        assert np.shares_memory(x, block)
        assert flat is None or (np.shares_memory(flat, block) and not np.shares_memory(flat, x)
                                and flat.size == x.size)
        returned.append((weight, flat is not None))
        return x, flat

    monkeypatch.setattr(phaselab.norms, "_magnitudes", checked)
    # unit-weight powers and the last weight's go into the block, the others' are fresh
    weights = {spec.key[3] for spec in specs}
    assert len(weights) == 4
    flags = {(weight, weight in (None, specs[-1].weight)) for weight in weights}
    for limit, blocks in ((phaselab.stft.MATERIALIZE_LIMIT, 1), (4 * 16**3, 4)):
        monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", limit)
        phaselab.norms._arena().clear()
        want_blocks.clear()
        stft_norms(a, Phi, specs)
        states.clear()
        returned.clear()
        want_blocks.extend(block for _, block in stft_blocks(b, Phi, True))
        stft_norms(b, Phi, specs)
        assert len(states) == blocks
        assert set(returned) == flags
    # blocks of a walk: every block goes into one buffer with the fresh block's strides
    want = [(rows, block.strides) for rows, block in stft_blocks(a, Phi, True)]
    scratch = {}
    for f in (a, b):
        got = [(rows, block.strides) for rows, block in stft_blocks(f, Phi, True, _scratch=scratch)]
        assert got == want and len(want) == 4
    assert len(scratch) == 1


@pytest.mark.parametrize("d, n", [(1, 16), (1, 32), (2, 4), (1, 64)])
def test_spent_block_halves_have_fresh_layouts(d, n):
    # |V| * w goes into the second half in a fresh product's layout (C order for a Y
    # weight, |V|'s permuted order for an X weight), each power into the first in
    # its base's layout; at n = 64 on the first block of the walk
    pg = make_grid(d, n)
    a = _symbols(pg, 1)[0]
    g = a.grid
    rows, block = next(stft_blocks(a, _window(pg), True, _scratch={}))
    mags = np.abs(block)
    half_a, half_b = phaselab.norms._halves(block)
    assert half_a.size == half_b.size == mags.size and not np.shares_memory(half_a, half_b)
    weights = [split_weight(poly_weight(1.0), "X"), split_weight(poly_weight(-1.0), "Y"),
               poly_weight(0.5), parse_weight("split:poly:s=1@X*split:poly:s=2@Y")]
    for weight in weights:
        w = phaselab.norms._weight_tensor(weight, g, g, rows)
        want = np.multiply(mags, w)
        got = phaselab.norms._product_into(mags, w, half_b)
        assert np.shares_memory(got, half_b) and got.strides == want.strides, weight
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for x in (mags, got):
            for p in (1 / 2, 1, 4 / 3, 2, 3, 4):
                power = np.power(x, p, out=phaselab.norms._laid_out(half_a, x.shape, x.strides))
                fresh = x**p
                assert power.strides == fresh.strides
                assert np.array_equal(power.view(np.int64), fresh.view(np.int64)), (weight, p)


@pytest.mark.parametrize("d, n", [(1, 16), (1, 24), (1, 32), (2, 4), (1, 64)])
def test_abs_written_over_the_spent_block_equals_fresh_abs(d, n):
    # |V| goes over the first float64 half of the spent block, in doubling chunks of
    # memory order, laid out as a fresh np.abs; at n = 64 on every block of the walk
    pg = make_grid(d, n)
    a = _symbols(pg, 1)[0]
    Phi = _window(pg)
    scratch = {}
    blocks = 0
    for (rows, fresh), (_, block) in zip(stft_blocks(a, Phi, True),
                                         stft_blocks(a, Phi, True, _scratch=scratch), strict=True):
        want = np.abs(fresh)
        got = phaselab.norms._abs_over(block)
        assert np.shares_memory(got, phaselab.norms._halves(block)[0])
        assert got.strides == want.strides
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), rows
        blocks += 1
    assert blocks == (16 if n == 64 else 1)


def test_two_weights_keep_abs_and_match_a_fresh_tensor_bitwise(monkeypatch):
    # |V| outlives the first weight's product, so that weight's powers are fresh
    # arrays; unit-weight powers go into the second half, the last weight's over |V|
    pg = make_grid(1, 32)
    Phi = _window(pg)
    a, b = _symbols(pg, 2)
    wy, wx = split_weight(poly_weight(1.0), "Y"), split_weight(poly_weight(-1.0), "X")
    specs = [MixedNormSpec(2, 1, "modulation", wy), MixedNormSpec(1, 2, "amalgam", wx),
             MixedNormSpec(3, 3), MixedNormSpec(4 / 3, 2, "modulation", wy),
             MixedNormSpec(2, 4 / 3, "amalgam", wx, "counting")]
    phaselab.norms._arena().clear()
    stft_norms(a, Phi, specs)
    (buf,) = phaselab.norms._arena().values()
    half_a, half_b = phaselab.norms._halves(buf[...])
    where = []
    real = phaselab.norms._partial

    def recording(mags, key, cells, flat=None):
        where.append((key[3], None if flat is None else "a" if np.shares_memory(flat, half_a)
                      else "b" if np.shares_memory(flat, half_b) else "elsewhere"))
        return real(mags, key, cells, flat)

    monkeypatch.setattr(phaselab.norms, "_partial", recording)
    got = stft_norms(b, Phi, specs)
    assert where == [(None, "b"), (wy, None), (wy, None), (wx, "a"), (wx, "a")]
    fresh = symplectic_stft(b, Phi)
    assert got == [mixed_norm(fresh, spec) for spec in specs]


def test_warm_norms_allocate_no_tensor():
    # after a warm-up the arena holds the block alone (16 MiB at n = 32), and a
    # tensor's norms write |V|, |V| * w and the powers into its spent block
    import tracemalloc

    pg = make_grid(1, 32)
    Phi = _window(pg)
    a, b = _symbols(pg, 2)
    w = split_weight(poly_weight(1.0), "Y")
    specs = [MixedNormSpec(4 / 3, 2, "modulation", w), MixedNormSpec(2, 4 / 3, "amalgam", w),
             MixedNormSpec(2, 1)]
    phaselab.norms._arena().clear()
    stft_norms(a, Phi, specs)
    tracemalloc.start()
    try:
        got = stft_norms(b, Phi, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sum(buf.nbytes for buf in phaselab.norms._arena().values()) == 16 * 2**20
    fresh = symplectic_stft(b, Phi)
    assert got == [mixed_norm(fresh, spec) for spec in specs]


@pytest.mark.parametrize("rows", [None, 4])
def test_each_weights_product_written_once_per_block(monkeypatch, rows):
    # interleaved weights are taken grouped: one |V| * w per weight and block, and
    # the norms come back in spec order
    pg = make_grid(1, 16)
    Phi = _window(pg)
    a = _symbols(pg, 1)[0]
    wy, wx = split_weight(poly_weight(1.0), "Y"), split_weight(poly_weight(1.0), "X")
    specs = [MixedNormSpec(2, 1, "modulation", wy), MixedNormSpec(2, 1, "modulation", wx),
             MixedNormSpec(3, 3), MixedNormSpec(1, 2, "amalgam", wy),
             MixedNormSpec(4 / 3, 3, "modulation", wx, "counting")]
    fresh = symplectic_stft(a, Phi)
    want = [mixed_norm(fresh, spec) for spec in specs]
    products = []
    real = phaselab.norms._product_into

    def counting(mags, w, flat):
        products.append(flat is not None)
        return real(mags, w, flat)

    monkeypatch.setattr(phaselab.norms, "_product_into", counting)
    blocks = 1
    if rows:
        monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", rows * 16**3)
        blocks = 16 // rows
    got = stft_norms(a, Phi, specs)
    assert products == [True] * 2 * blocks
    if rows:
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    else:
        assert got == want


def test_one_block_buffer_per_thread_serves_every_grid_and_walk(monkeypatch):
    # the buffer grows to the largest block (32^4 entries, and 4 rows at n = 64) and
    # never shrinks; every later block, one-block tensor or block of a walk, goes into
    # its front, so a walk allocates no block of its own
    import tracemalloc

    arena = phaselab.norms._arena()
    wy = split_weight(poly_weight(1.0), "Y")
    specs = [MixedNormSpec(2, 1, "modulation", wy), MixedNormSpec(1, 2, "amalgam", wy, "counting"),
             MixedNormSpec(3, 3)]
    cases = []
    for n in (16, 32, 48, 64):
        pg = make_grid(1, n)
        cases.append((n, _symbols(pg, 1)[0], _window(pg)))
    walked = []
    real = phaselab.norms.stft_blocks

    def recording(*args, **kwargs):
        for rows, block in real(*args, **kwargs):
            buf = arena.get("block", np.empty(0, complex))
            walked.append((block.shape[0], rows, block.strides,
                           np.shares_memory(block, buf[:block.size])
                           and not np.shares_memory(block, buf[block.size:])))
            yield rows, block

    monkeypatch.setattr(phaselab.norms, "stft_blocks", recording)
    arena.clear()
    got = {}
    for n, a, Phi in cases:
        tracemalloc.start()
        try:
            got[n] = stft_norms(a, Phi, specs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n < 48 or peak < 4 * 2**20, (n, peak)
    (buf,) = arena.values()
    assert list(arena) == ["block"] and buf.shape == (phaselab.stft.MATERIALIZE_LIMIT,)
    assert buf.dtype == complex and buf.nbytes == 16 * 2**20
    # n = 48 walks 5 blocks of 9 rows and ends with 3 rows, each in the front of the
    # buffer with a fresh block's strides
    assert [size for size, *_ in walked] == [9] * 5 + [3] + [4] * 16
    assert all(front for *_, front in walked) and walked[5][1] == slice(45, 48)
    fresh = [(rows, block.strides) for _, a, Phi in cases[2:] for rows, block in real(a, Phi, True)]
    assert [(rows, strides) for _, rows, strides, _ in walked] == fresh
    # a smaller tensor goes into the front of the same buffer
    assert stft_norms(*cases[0][1:], specs) == got[16] and arena["block"] is buf
    for n, a, Phi in cases:
        arena.clear()
        assert stft_norms(a, Phi, specs) == got[n], n


def test_public_tensors_never_alias_the_arena(monkeypatch):
    # public tensors and blocks, and the magnitudes and powers of a norm taken on its
    # own, are fresh arrays that no later stft_norms call writes over
    pg = make_grid(1, 16)
    Phi = _window(pg)
    a, b, c = _symbols(pg, 3)
    specs = _arena_specs()
    stft_norms(a, Phi, specs)
    reduced = []
    real = phaselab.norms._partial

    def recording(mags, key, cells, flat=None):
        reduced.append((mags, flat))
        return real(mags, key, cells, flat)

    monkeypatch.setattr(phaselab.norms, "_partial", recording)
    T = symplectic_stft(b, Phi)
    for spec in specs:
        mixed_norm(T, spec)
    monkeypatch.undo()
    blocks = [block for _, block in stft_blocks(b, Phi, True)]
    before = T.values.copy()
    stft_norms(c, Phi, specs)
    arena = list(phaselab.norms._arena().values())
    assert arena and len(reduced) == len(specs)
    for arr in (T.values, *blocks, *(mags for mags, _ in reduced)):
        assert not any(np.shares_memory(arr, buf) for buf in arena)
    assert all(flat is None for _, flat in reduced)
    assert T.values.tobytes() == before.tobytes() == blocks[0].tobytes()


def test_standalone_norms_never_write_an_arena_tensor():
    # a tensor built on a scratch dict keeps its values through mixed_norm called on its own
    pg = make_grid(1, 16)
    Phi = _window(pg)
    a = _symbols(pg, 1)[0]
    T = symplectic_stft(a, Phi, _scratch={})
    before = T.values.copy()
    fresh = symplectic_stft(a, Phi)
    for spec in _arena_specs():
        assert mixed_norm(T, spec) == mixed_norm(fresh, spec)
    assert T.values.tobytes() == before.tobytes()


def test_thread_workers_hold_distinct_arenas(monkeypatch, usable_cpus):
    import json
    import threading

    from phaselab.lab import EnsembleSpec, ratio_experiment_multi
    from phaselab.suites import drift_configs

    pg = make_grid(1, 16)
    ens = EnsembleSpec(seed=9, count=6, atoms_per_symbol=2, width_range=(0.35, 0.5),
                       center_radius=1.0, modulation_radius=0.7)
    usable_cpus({0})  # the serial oracle
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
    usable_cpus({0, 1})
    two = ratio_experiment_multi(drift_configs(), ens, pg)
    assert (json.dumps([r.as_dict() for r in two], sort_keys=True)
            == json.dumps([r.as_dict() for r in one], sort_keys=True))
    assert threading.get_ident() not in arenas
    x, y = arenas.values()
    assert x is not y and x and y
    assert not any(np.shares_memory(u, v) for u in x.values() for v in y.values())
