"""Grids, Fourier transforms, Gaussian atoms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phaselab.grids import (
    GaussianAtomSpec,
    Grid,
    GridError,
    GridFunction,
    base_gaussian,
    centered_character_sum,
    fourier,
    gaussian_atom,
    make_grid,
    sigma,
    symplectic_fourier,
)

RNG = np.random.default_rng(0)


def _direct_character_sum(vals, sign):
    """O(n^{2 dim}) oracle for the centered index-space transform."""
    n = vals.shape[0]
    c = n // 2
    out = np.zeros_like(vals, dtype=complex)
    for k in np.ndindex(vals.shape):
        acc = 0.0 + 0.0j
        for j in np.ndindex(vals.shape):
            ph = sum((jj - c) * (kk - c) for jj, kk in zip(j, k))
            acc += vals[j] * np.exp(sign * 2j * np.pi * ph / n)
        out[k] = acc
    return out


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("sign", [+1, -1])
def test_centered_sum_matches_direct_oracle(n, sign):
    vals = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    got = centered_character_sum(vals, (0, 1), sign)
    want = _direct_character_sum(vals, sign)
    assert np.max(np.abs(got - want)) < 1e-10


def _per_axis_character_sum(values, axes, sign):
    """The per-axis sign-FFT-sign definition, one new array per pass."""
    out = np.asarray(values, dtype=complex)
    for ax in axes:
        n = out.shape[ax]
        shape = [1] * out.ndim
        shape[ax] = n
        sgn = np.where(np.arange(n) % 2, -1.0, 1.0).reshape(shape)
        out = out * sgn
        if sign < 0:
            out = np.fft.fft(out, axis=ax)
        else:
            out = np.fft.ifft(out, axis=ax) * n
        out = out * sgn * ((-1) ** (n // 2))
    return out


@pytest.mark.parametrize("n", [4, 6, 12, 16, 32])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("axes", [(1,), (0, 1), (2, 0), ()])
def test_centered_sum_equals_per_axis_definition(n, sign, axes):
    cube = RNG.standard_normal((n, 2, n)) + 1j * RNG.standard_normal((n, 2, n))
    real = RNG.standard_normal((n, 2, n))
    # a permuted view checks that the result keeps the input's memory layout
    for vals in (cube, np.transpose(cube, (2, 1, 0)), real):
        got = centered_character_sum(vals, axes, sign)
        want = _per_axis_character_sum(vals, axes, sign)
        assert np.array_equal(got, want)
        assert got.strides == want.strides and got.dtype == want.dtype
        # out= a fresh buffer, and out= the input itself, give the same array
        buf = np.empty_like(vals, dtype=complex)
        assert centered_character_sum(vals, axes, sign, out=buf) is buf
        alias = vals.astype(complex, order="K")
        assert centered_character_sum(alias, axes, sign, out=alias) is alias
        for res in (buf, alias):
            assert np.array_equal(res, got)
            assert res.strides == got.strides and res.dtype == got.dtype


def test_centered_sum_leaves_read_only_input_untouched():
    vals = RNG.standard_normal((8, 8)) + 1j * RNG.standard_normal((8, 8))
    vals.flags.writeable = False
    before = vals.copy()
    for sign in (+1, -1):
        out = centered_character_sum(vals, (0, 1), sign)
        assert out.flags.writeable and not np.shares_memory(out, vals)
        buf = np.empty_like(vals)
        assert centered_character_sum(vals, (0, 1), sign, out=buf) is buf
    assert np.array_equal(vals, before)


def test_make_grid_values():
    pg = make_grid(1, 16)
    assert pg.h == pytest.approx(0.443113, abs=1e-6)
    assert pg.extent == pytest.approx(7.08982, abs=1e-5)
    assert make_grid(1, 64).h ** 2 == pytest.approx(math.pi / 64, abs=1e-15)
    # symplectic self-duality h^2 n = pi holds exactly by construction
    assert pg.h**2 * pg.n == pytest.approx(math.pi, abs=1e-15)


def test_make_grid_validation():
    with pytest.raises(GridError):
        make_grid(1, 7)
    with pytest.raises(GridError):
        make_grid(1, 2)
    with pytest.raises(GridError):
        make_grid(0, 16)


def test_companion_base_grid_is_self_dual_and_shear_compatible():
    pg = make_grid(1, 32)
    base = pg.base_grid
    assert base.count == 16
    assert base.spacing == pytest.approx(2 * pg.h)
    assert base.is_self_dual
    with pytest.raises(GridError):
        make_grid(1, 6).base_grid  # n = 6 has no even companion


def test_sigma_convention():
    assert sigma((1, 0), (0, 1)) == -1
    assert sigma((0.3, 1.7), (0.3, 1.7)) == 0
    with pytest.raises(GridError):
        sigma((1, 0, 0), (0, 1, 0))


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.lists(st.floats(-5, 5), min_size=4, max_size=4))
def test_sigma_antisymmetry(x, y):
    assert sigma(x, y) == pytest.approx(-sigma(y, x), abs=1e-12)


def test_fourier_gaussian_self_dual():
    g = make_grid(1, 128).base_grid
    f = base_gaussian(g, width=1.0)
    fh = fourier(f)
    rel = np.max(np.abs(fh.values - f.values)) / np.max(np.abs(f.values))
    assert rel < 1e-10


def test_fourier_round_trip_and_parseval():
    g = make_grid(1, 128).base_grid
    f = GridFunction(g, RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape))
    back = fourier(fourier(f), inverse=True)
    assert np.max(np.abs(back.values - f.values)) < 1e-13
    assert fourier(f).norm2() == pytest.approx(f.norm2(), abs=1e-12)


def test_fourier_requires_self_dual():
    pg = make_grid(1, 16)
    a = GridFunction(pg.symbol_grid, np.ones(pg.symbol_grid.shape))
    with pytest.raises(GridError):
        fourier(a)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_symplectic_involution(n):
    pg = make_grid(1, n)
    g = pg.symbol_grid
    a = GridFunction(g, RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape))
    aa = symplectic_fourier(symplectic_fourier(a))
    rel = np.max(np.abs(aa.values - a.values)) / np.max(np.abs(a.values))
    assert rel < 1e-12


def test_symplectic_gaussian_fixed_point():
    pg = make_grid(1, 32)
    a = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), math.sqrt(0.5)))  # e^{-|Z|^2}
    fa = symplectic_fourier(a)
    rel = np.max(np.abs(fa.values - a.values)) / np.max(np.abs(a.values))
    assert rel < 1e-8


def test_symplectic_matches_quadrature_oracle():
    pg = make_grid(1, 32)
    g = pg.symbol_grid
    h, ax = g.spacing, g.axis
    a = gaussian_atom(pg, GaussianAtomSpec((0.5, -0.4), (2 * pg.h, pg.h), 0.8))
    fa = symplectic_fourier(a)
    Z1, Z2 = np.meshgrid(ax, ax, indexing="ij")
    for (i, j) in [(16, 16), (20, 13), (5, 27)]:
        direct = (h * h / math.pi) * np.sum(
            a.values * np.exp(2j * (Z1 * ax[j] - ax[i] * Z2)))
        assert abs(direct - fa.values[i, j]) < 1e-12


def test_symplectic_linearity_zero():
    pg = make_grid(1, 16)
    z = GridFunction(pg.symbol_grid, np.zeros(pg.symbol_grid.shape))
    assert np.all(symplectic_fourier(z).values == 0)


class TestGaussianAtom:
    def test_boundary_corner_magnitude(self):
        pg = make_grid(1, 32)
        atom = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), 1.0))
        assert abs(atom.values[0, 0]) <= 1e-10

    def test_zero_amplitude(self):
        pg = make_grid(1, 16)
        atom = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), 1.0, amplitude=0.0))
        assert np.all(atom.values == 0)

    def test_far_atoms_overlap_bound(self):
        pg = make_grid(1, 32)
        width = 0.6
        g1 = gaussian_atom(pg, GaussianAtomSpec((-1.5, 0), (0, 0), width))
        g2 = gaussian_atom(pg, GaussianAtomSpec((1.5, 0), (0, 0), width))
        overlap = abs(g1.inner(g2)) / (g1.norm2() * g2.norm2())
        assert overlap <= math.exp(-(3.0**2) / (4 * width**2)) + 1e-10

    def test_truncation_safety_enforced(self):
        pg = make_grid(1, 16)
        far = pg.extent / 2
        with pytest.raises(GridError):
            gaussian_atom(pg, GaussianAtomSpec((far, 0), (0, 0), 1.0))

    def test_truncation_refusal_names_the_tested_reach(self):
        # the bound is on |center| + |modulation|: 1.2 + 1.2 against a limit of 1.77
        pg = make_grid(1, 16)
        with pytest.raises(GridError, match=r"reach 2\.4 "):
            gaussian_atom(pg, GaussianAtomSpec((1.2, 0), (1.2, 0), 1.0))

    def test_grid_step_shift_is_cyclic(self):
        pg = make_grid(1, 32)
        h = pg.h
        spec0 = GaussianAtomSpec((0.0, 0.0), (2 * h, -3 * h), 0.8)
        spec1 = GaussianAtomSpec((h, 0.0), (2 * h, -3 * h), 0.8)
        a0 = gaussian_atom(pg, spec0)
        a1 = gaussian_atom(pg, spec1)
        rolled = np.roll(a0.values, 1, axis=0)
        ratio = a1.values / rolled
        # cyclic up to one constant phase from the grid-aligned modulation
        assert np.max(np.abs(ratio - ratio.flat[0])) < 1e-10
        spec_plain = GaussianAtomSpec((0.0, 0.0), (0.0, 0.0), 0.8)
        spec_shift = GaussianAtomSpec((0.0, h), (0.0, 0.0), 0.8)
        b0 = gaussian_atom(pg, spec_plain)
        b1 = gaussian_atom(pg, spec_shift)
        assert np.max(np.abs(b1.values - np.roll(b0.values, 1, axis=1))) < 1e-14


def test_gridfunction_immutability_and_validation():
    pg = make_grid(1, 16)
    a = gaussian_atom(pg, GaussianAtomSpec((0, 0), (0, 0), 0.5))
    with pytest.raises(ValueError):
        a.values[0, 0] = 1.0
    with pytest.raises(GridError):
        GridFunction(pg.symbol_grid, np.ones((3, 3)))
    bad = np.ones(pg.symbol_grid.shape)
    bad[0, 0] = np.nan
    with pytest.raises(GridError):
        GridFunction(pg.symbol_grid, bad)


def test_grid_dual_pairing():
    g = Grid(1, 16, 0.25)
    d = g.dual()
    assert d.spacing * g.spacing * g.count == pytest.approx(2 * math.pi)
    assert d.dual() == g
