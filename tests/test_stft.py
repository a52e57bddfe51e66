"""Short-time Fourier transforms: oracles, energy identities, cross-relations."""

import math

import numpy as np
import pytest

import phaselab.grids
import phaselab.stft
from phaselab.grids import (
    GridError,
    GridFunction,
    fourier,
    gaussian_atom,
    make_grid,
    symplectic_fourier,
)
from phaselab.norms import MixedNormSpec, stft_norms
from phaselab.stft import _shift_stack, _shifted_windows, stft, stft_blocks, symplectic_stft

from signals import base_gaussian

RNG = np.random.default_rng(1)


@pytest.fixture
def base_setup():
    g = make_grid(1, 64).base_grid
    phi = base_gaussian(g, width=0.8)
    f = base_gaussian(g, center=0.7, width=1.1, frequency=1.3)
    return g, f, phi


@pytest.fixture
def phase_setup():
    pg = make_grid(1, 16)
    a = gaussian_atom(pg, (0.5, -0.3), (2 * pg.spacing, pg.spacing), 0.45)
    Phi = gaussian_atom(pg, (0, 0), (0, 0), 0.45)
    return pg, a, Phi


def test_stft_matches_direct_sum_oracle(base_setup):
    g, f, phi = base_setup
    V = stft(f, phi)
    n, s, ax = g.count, g.spacing, g.axis
    for ix, ik in [(16, 16), (3, 25), (20, 9)]:
        shifted = np.roll(phi.values, ix - n // 2)
        want = (2 * math.pi) ** -0.5 * s * np.sum(
            f.values * np.conj(shifted) * np.exp(-1j * ax * ax[ik]))
        assert abs(V.values[ix, ik] - want) < 1e-12


def test_stft_center_value(base_setup):
    g, f, phi = base_setup
    V = stft(phi, phi)
    c = g.count // 2
    assert V.values[c, c] == pytest.approx((2 * math.pi) ** -0.5 * phi.norm2() ** 2, abs=1e-12)


def test_stft_zero_cases(base_setup):
    g, f, phi = base_setup
    zero = GridFunction(g, np.zeros(g.shape))
    assert np.all(stft(zero, phi).values == 0)
    with pytest.raises(GridError):
        stft(f, zero)


def test_stft_linearity(base_setup):
    g, f, phi = base_setup
    f2 = GridFunction(g, RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape))
    lhs = stft(GridFunction(g, 2 * f.values + 1j * f2.values), phi).values
    rhs = 2 * stft(f, phi).values + 1j * stft(f2, phi).values
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # conjugate-linearity in the window
    lhs = stft(f, GridFunction(g, 1j * phi.values)).values
    assert np.max(np.abs(lhs + 1j * stft(f, phi).values)) < 1e-12


def test_moyal_energy_identity_ordinary():
    # direct-sum oracle at n = 16: quadrature norm of V equals ||f|| ||phi||
    g = make_grid(1, 32).base_grid
    f = GridFunction(g, RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape))
    phi = base_gaussian(g, width=0.7)
    V = stft(f, phi)
    qnorm = math.sqrt(g.quadrature_weight**2 * np.sum(np.abs(V.values) ** 2))
    assert qnorm == pytest.approx(f.norm2() * phi.norm2(), rel=1e-10)


def test_moyal_energy_identity_symplectic(phase_setup):
    pg, a, Phi = phase_setup
    W = symplectic_stft(a, Phi)
    h = pg.spacing
    qnorm = math.sqrt(h**4 * np.sum(np.abs(W.values) ** 2))
    assert qnorm == pytest.approx(a.norm2() * Phi.norm2(), rel=1e-10)


def test_fourier_covariance_of_stft(base_setup):
    # V_{F phi}(F f)(xi, -x) = e^{i<x, xi>} V_phi f(x, xi)
    g, f, phi = base_setup
    n, c, ax = g.count, g.count // 2, g.axis
    V = stft(f, phi)
    Vh = stft(fourier(f), fourier(phi))
    X, XI = np.meshgrid(ax, ax, indexing="ij")
    lhs = np.empty_like(V.values)
    for ix in range(n):
        for ik in range(n):
            lhs[ix, ik] = Vh.values[ik, (2 * c - ix) % n]
    rhs = np.exp(1j * X * XI) * V.values
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) < 1e-10


def test_symplectic_stft_direct_sum_oracle(phase_setup):
    pg, a, Phi = phase_setup
    g = pg
    W = symplectic_stft(a, Phi)
    h, ax, cn = g.spacing, g.axis, g.count // 2
    Z1, Z2 = np.meshgrid(ax, ax, indexing="ij")
    for idx in [(3, 12, 7, 9), (0, 5, 11, 2), (8, 8, 8, 8)]:
        ix1, ix2, iy1, iy2 = idx
        shifted = np.roll(Phi.values, (ix1 - cn, ix2 - cn), axis=(0, 1))
        want = (h * h / math.pi) * np.sum(
            a.values * np.conj(shifted) * np.exp(2j * (Z1 * ax[iy2] - ax[iy1] * Z2)))
        assert abs(W.values[idx] - want) < 1e-12


def test_symplectic_stft_zero_frequency_slice(phase_setup):
    pg, a, Phi = phase_setup
    g = pg
    W = symplectic_stft(a, Phi)
    h, cn = g.spacing, g.count // 2
    for idx in [(8, 8), (3, 12)]:
        shifted = np.roll(Phi.values, (idx[0] - cn, idx[1] - cn), axis=(0, 1))
        want = (1 / math.pi) * h * h * np.sum(a.values * np.conj(shifted))
        assert abs(W.values[idx[0], idx[1], cn, cn] - want) < 1e-12


def test_stft_comparison_relation(phase_setup):
    # symplectic STFT(X, Y) = 2^d * ordinary STFT at (x, xi, -2 eta, 2 y)
    pg, a, Phi = phase_setup
    g = pg
    n, cn = g.count, g.count // 2
    W = symplectic_stft(a, Phi)
    V = stft(a, Phi)  # frequency block on the dual (2h) grid
    rhs = np.empty_like(W.values)
    for ky in range(n):
        for ke in range(n):
            rhs[:, :, ky, ke] = 2 * V.values[:, :, (2 * cn - ke) % n, ky]
    assert np.max(np.abs(W.values - rhs)) / np.max(np.abs(W.values)) < 1e-10


def test_symplectic_fourier_covariance(phase_setup):
    pg, a, Phi = phase_setup
    g = pg
    W = symplectic_stft(a, Phi)
    Wf = symplectic_stft(symplectic_fourier(a), symplectic_fourier(Phi))
    ax = g.axis
    X1, XI, Y1, ETA = np.meshgrid(ax, ax, ax, ax, indexing="ij")
    rhs = np.exp(2j * (X1 * ETA - Y1 * XI)) * np.transpose(W.values, (2, 3, 0, 1))
    assert np.max(np.abs(Wf.values - rhs)) / np.max(np.abs(W.values)) < 1e-10


@pytest.mark.parametrize("n", [16, 32])
def test_blocks_match_materialized(monkeypatch, n):
    pg = make_grid(1, n)
    a = gaussian_atom(pg, (0.5, -0.3), (2 * pg.spacing, pg.spacing), 0.45)
    Phi = gaussian_atom(pg, (0, 0), (0, 0), 0.45)
    for symplectic in (False, True):
        T = symplectic_stft(a, Phi) if symplectic else stft(a, Phi)
        ((rows, values),) = stft_blocks(a, Phi, symplectic)
        assert rows == slice(0, n) and np.array_equal(values, T.values)
        assert values.strides == T.values.strides
        for per_block in (1, 3, 8):
            # blocks of whole rows of the leading shift axis, the last one short
            monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", per_block * n**3)
            blocks = list(stft_blocks(a, Phi, symplectic))
            assert [r.start for r, _ in blocks] == list(range(0, n, per_block))
            assert np.array_equal(np.concatenate([v for _, v in blocks]), T.values)
        monkeypatch.undo()


def test_blocks_refuse_rows_past_the_limit():
    # d = 2, n = 8: one row of the leading shift axis holds 8^7 > 2^20 entries
    pg = make_grid(2, 8)
    a = gaussian_atom(pg, (0,) * 4, (0,) * 4, 1.0)
    with pytest.raises(GridError, match="shift row"):
        next(stft_blocks(a, a, True))


def _gathered_stack(f, phi):
    """Direct fancy-index gather ``f[y] * conj(phi[(y - x + c) % n])``."""
    n, m = f.grid.count, f.grid.dim
    idx = np.ix_(*[np.arange(n)] * (2 * m))
    x, y = idx[:m], idx[m:]
    shifted = tuple((yi - xi + n // 2) % n for xi, yi in zip(x, y))
    return f.values[y] * np.conj(phi.values)[shifted]


def test_shift_stack_equals_direct_gather(base_setup, phase_setup):
    g, f, phi = base_setup
    assert np.array_equal(_shift_stack(f.values, phi), _gathered_stack(f, phi))
    pg, a, Phi = phase_setup
    assert np.array_equal(_shift_stack(a.values, Phi), _gathered_stack(a, Phi))
    # every stack is written into a flat buffer, fresh or a caller's, with the strides
    # and bits of a fresh np.multiply
    for values, window in ((f.values, phi), (a.values, Phi)):
        for rows in (slice(None), slice(2, 5)):
            fresh = np.multiply(values[(np.newaxis,) * values.ndim + (Ellipsis,)],
                                _shifted_windows(window)[rows])
            out = np.empty(fresh.size + 3, complex)
            for got in (_shift_stack(values, window, rows), _shift_stack(values, window, rows, out)):
                assert got.strides == fresh.strides and got.tobytes() == fresh.tobytes()
            assert np.shares_memory(got, out[:fresh.size]) and not np.shares_memory(got, out[fresh.size:])


def test_stft_memory_layout(phase_setup):
    # norms reduce in memory order, so the layout is part of the bitwise contract
    pg, a, Phi = phase_setup
    n, item = pg.count, np.dtype(complex).itemsize
    assert symplectic_stft(a, Phi).values.strides == tuple(
        item * n**k for k in (3, 1, 0, 2))
    assert stft(a, Phi).values.strides == tuple(item * n**k for k in (3, 1, 2, 0))


def test_materialization_guard():
    pg = make_grid(1, 64)
    a = gaussian_atom(pg, (0, 0), (0, 0), 1.0)
    with pytest.raises(GridError):
        symplectic_stft(a, a)


# -- bitwise oracle: per axis sign -> FFT -> trailing table, then the scale ------

def _per_axis_sums(res, axes, sign):
    """In place on ``res``: per axis a sign pass, the FFT, and a sign, parity and ``n`` pass."""
    for ax in axes:
        n = res.shape[ax]
        sgn = np.where(np.arange(n) % 2, -1.0, 1.0).reshape(
            [-1 if i == ax else 1 for i in range(res.ndim)])
        res *= sgn
        if sign < 0:
            np.fft.fft(res, axis=ax, out=res)
            res *= sgn * (-1) ** (n // 2)
        else:
            np.fft.ifft(res, axis=ax, out=res)
            res *= sgn * ((-1) ** (n // 2) * n)
    return res


def _per_axis_symplectic(res, g, lead):
    d = g.dim // 2
    first, second = list(range(lead, lead + d)), list(range(lead + d, lead + 2 * d))
    _per_axis_sums(res, first, +1)
    _per_axis_sums(res, second, -1)
    res *= math.pi ** (-d) * g.quadrature_weight
    return np.moveaxis(res, first, second)


def _oracle_block(a, Phi, symplectic, rows=slice(None)):
    """The STFT rows ``rows`` by the per-axis route, on a shift stack of the same layout."""
    g, m = a.grid, a.grid.dim
    block = a.values[(np.newaxis,) * m + (Ellipsis,)] * _shifted_windows(Phi)[rows]
    if symplectic:
        return _per_axis_symplectic(block, g, m)
    _per_axis_sums(block, range(m, 2 * m), -1)
    block *= (2 * math.pi) ** (-m / 2) * g.quadrature_weight
    return block


def _random(g):
    return GridFunction(g, RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape))


def _same(got, want):
    return np.array_equal(got, want) and got.strides == want.strides


# n = 12 and 24 are not powers of two: their inverse FFTs' factor n is inexact
@pytest.mark.parametrize("d, n", [(1, 16), (1, 32), (1, 12), (1, 24), (2, 4), (2, 8)])
def test_transforms_equal_per_axis_route_bitwise(d, n):
    pg = make_grid(d, n)
    g = pg
    a, Phi = _random(g), _random(g)
    want = _per_axis_symplectic(a.values.astype(complex), g, 0)
    assert _same(symplectic_fourier(a).values, GridFunction(g, want).values)
    if d == 1 or n == 4:  # d = 2, n = 8 is past the materialization limit
        assert _same(symplectic_stft(a, Phi).values, _oracle_block(a, Phi, True))
        assert _same(stft(a, Phi).values, _oracle_block(a, Phi, False))
    if n % 4 == 0:
        b = pg.base_grid
        f, phi = _random(b), _random(b)
        assert _same(stft(f, phi).values, _oracle_block(f, phi, False))
        for sign, inverse in ((-1, False), (+1, True)):
            want = _per_axis_sums(f.values.astype(complex), range(b.dim), sign)
            want *= (2 * math.pi) ** (-b.dim / 2) * b.quadrature_weight
            assert _same(fourier(f, inverse).values, GridFunction(b, want).values)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2}])  # three parts cut 32 rows unevenly
@pytest.mark.parametrize("n", [16, 24, 32])
def test_row_spans_keep_the_per_axis_bits(usable_cpus, cpus, n):
    # an STFT block runs in one span of shift rows per usable CPU, whatever their count
    usable_cpus(cpus)
    g = make_grid(1, n)
    a, Phi = _random(g), _random(g)
    assert _same(symplectic_stft(a, Phi).values, _oracle_block(a, Phi, True))
    assert _same(stft(a, Phi).values, _oracle_block(a, Phi, False))


def test_block_walk_equals_per_axis_route_bitwise(monkeypatch):
    n = 64
    pg = make_grid(1, n)
    a, Phi = _random(pg), _random(pg)
    monkeypatch.setattr(phaselab.stft, "MATERIALIZE_LIMIT", 3 * n**3)
    for symplectic in (True, False):
        blocks = 0
        for rows, block in stft_blocks(a, Phi, symplectic):
            assert _same(block, _oracle_block(a, Phi, symplectic, rows))
            blocks += 1
        assert blocks == 22  # 21 blocks of three rows and a last one of one


def test_each_transform_makes_two_character_sums(monkeypatch):
    # the benchmark's trace pins these counts per pass
    calls = []
    real = phaselab.grids.centered_character_sum

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    for module in (phaselab.grids, phaselab.stft):
        monkeypatch.setattr(module, "centered_character_sum", counted)
    pg = make_grid(1, 32)
    a, Phi = _random(pg), _random(pg)
    symplectic_stft(a, Phi)
    assert calls == [+1, -1]
    calls.clear()
    symplectic_fourier(a)
    assert calls == [+1, -1]
    calls.clear()
    stft(a, Phi)
    assert calls == [-1]
    calls.clear()
    # n = 64: 16 blocks of four shift rows each
    pg = make_grid(1, 64)
    stft_norms(_random(pg), _random(pg), [MixedNormSpec(2, 2)])
    assert calls == [+1, -1] * 16
