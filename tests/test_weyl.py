"""Twisted convolution, symbol products, kernel maps, operator matrices."""

import math
import warnings

import numpy as np
import pytest

from phaselab.grids import (
    GridError,
    GridFunction,
    constant_symbol,
    gaussian_atom,
    make_grid,
    symplectic_fourier,
)
from phaselab.weyl import (
    calculi_transform,
    compose_kernels,
    compose_via_matrices,
    involution,
    kernel_to_symbol,
    operator_matrix,
    point_reflection,
    pseudo_product,
    symbol_to_kernel,
    twisted_convolution,
    weyl_product,
    _scatter,
)

from signals import base_gaussian

RNG = np.random.default_rng(3)


def _rel(err, ref):
    return np.max(np.abs(err)) / np.max(np.abs(ref))


def _random_symbol(pg):
    g = pg.symbol_grid
    return GridFunction(g, RNG.standard_normal(g.shape) + 1j * RNG.standard_normal(g.shape))


def _atom_cloud(pg, seed, atoms=3, width=1.0, center_frac=0.125, modulation_frac=0.0625):
    rng = np.random.default_rng(seed)
    L = pg.extent
    vals = None
    for _ in range(atoms):
        c = rng.uniform(-center_frac * L, center_frac * L, 2)
        m = rng.uniform(-modulation_frac * L, modulation_frac * L, 2)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        g = gaussian_atom(pg, c, m, width, amp)
        vals = g.values if vals is None else vals + g.values
    return GridFunction(pg.symbol_grid, vals)


@pytest.fixture
def pg16():
    return make_grid(1, 16)


def _phase_table(n, sign):
    k = np.arange(n) - n // 2
    return np.exp(sign * 2j * np.pi * np.outer(k, k) / n)


def _d1_fast_oracle(a, b):
    """The single-axis-pair fast path, kept as a bitwise oracle for d = 1."""
    n = a.grid.count
    c = n // 2
    coeff = (2 / math.pi) ** 0.5 * a.grid.quadrature_weight
    Pm = _phase_table(n, -1)
    Pp = np.conj(Pm)
    roll_idx = (np.arange(n) + c) % n
    a_off = a.values[roll_idx][:, roll_idx]
    fa = np.fft.fft(a_off, axis=1)
    out = np.empty((n, n), dtype=complex)
    for i1 in range(n):
        bmod = b.values * Pm[i1][None, :]
        fb = np.fft.fft(bmod, axis=1)
        rows = (i1 - np.arange(n)) % n
        conv = np.fft.ifft(fb * fa[rows], axis=1)
        out[i1] = coeff * np.einsum("km,mk->m", conv, Pp)
    return out


def _d1_direct_oracle(a, b):
    """The single-axis-pair direct double sum, kept as a bitwise oracle for d = 1."""
    n = a.grid.count
    c = n // 2
    idx = np.arange(n)
    coeff = (2 / math.pi) ** 0.5 * a.grid.quadrature_weight
    P = _phase_table(n, +1)
    out = np.empty((n, n), dtype=complex)
    for i1 in range(n):
        ag = a.values[
            (i1 - idx[:, None, None] + c) % n,
            (idx[None, :, None] - idx[None, None, :] + c) % n,
        ]
        term = np.einsum("kml,kl,mk,l->m", ag, b.values, P, np.conj(P[i1]), optimize=True)
        out[i1] = coeff * term
    return out


class TestTwistedConvolution:
    def test_zero_factor(self, pg16):
        a = _random_symbol(pg16)
        z = GridFunction(a.grid, np.zeros(a.grid.shape))
        assert np.all(twisted_convolution(a, z).values == 0)

    def test_fast_equals_direct_oracle(self, pg16):
        a, b = _random_symbol(pg16), _random_symbol(pg16)
        fast = twisted_convolution(a, b, "fast")
        direct = twisted_convolution(a, b, "direct")
        assert _rel(fast.values - direct.values, direct.values) < 1e-12

    def test_transform_exchange(self, pg16):
        a, b = _random_symbol(pg16), _random_symbol(pg16)
        lhs = symplectic_fourier(twisted_convolution(a, b))
        m1 = twisted_convolution(symplectic_fourier(a), b)
        m2 = twisted_convolution(point_reflection(a), symplectic_fourier(b))
        assert _rel(lhs.values - m1.values, lhs.values) < 1e-10
        assert _rel(lhs.values - m2.values, lhs.values) < 1e-10

    def test_associativity_and_duality(self, pg16):
        a, b, c = (_random_symbol(pg16) for _ in range(3))
        s1 = twisted_convolution(twisted_convolution(a, b), c)
        s2 = twisted_convolution(a, twisted_convolution(b, c))
        assert _rel(s1.values - s2.values, s1.values) < 1e-10
        cell = a.grid.quadrature_weight

        def inner(u, v):
            return complex(cell * np.sum(u.values * np.conj(v.values)))

        lhs = inner(twisted_convolution(a, b), c)
        assert abs(lhs - inner(a, twisted_convolution(c, involution(b)))) < 1e-10 * abs(lhs)
        assert abs(lhs - inner(b, twisted_convolution(involution(a), c))) < 1e-10 * abs(lhs)

    def test_unknown_method(self, pg16):
        for pg in (pg16, make_grid(2, 4)):
            a = _random_symbol(pg)
            with pytest.raises(GridError):
                twisted_convolution(a, a, "magic")

    @pytest.mark.parametrize("n", [16, 32])
    def test_d1_routes_bitwise_unchanged(self, n):
        pg = make_grid(1, n)
        a, b = _random_symbol(pg), _random_symbol(pg)
        assert np.array_equal(twisted_convolution(a, b, "fast").values, _d1_fast_oracle(a, b))
        assert np.array_equal(twisted_convolution(a, b, "direct").values, _d1_direct_oracle(a, b))

    @pytest.mark.parametrize("n", [4, 8])
    def test_d2_fast_equals_direct_oracle(self, n):
        pg = make_grid(2, n)
        a, b = _random_symbol(pg), _random_symbol(pg)
        fast = twisted_convolution(a, b, "fast")
        direct = twisted_convolution(a, b, "direct")
        assert _rel(fast.values - direct.values, direct.values) < 1e-12

    def test_d2_associativity_and_transform_exchange(self):
        pg = make_grid(2, 8)
        a, b, c = (_random_symbol(pg) for _ in range(3))
        s1 = twisted_convolution(twisted_convolution(a, b), c)
        s2 = twisted_convolution(a, twisted_convolution(b, c))
        assert _rel(s1.values - s2.values, s1.values) < 1e-10
        lhs = symplectic_fourier(twisted_convolution(a, b))
        m1 = twisted_convolution(symplectic_fourier(a), b)
        m2 = twisted_convolution(point_reflection(a), symplectic_fourier(b))
        assert _rel(lhs.values - m1.values, lhs.values) < 1e-10
        assert _rel(lhs.values - m2.values, lhs.values) < 1e-10


@pytest.mark.parametrize("d, n", [(1, 16), (2, 4)])
def test_point_reflection_matches_per_axis_take(d, n):
    a = _random_symbol(make_grid(d, n))
    idx = (2 * (n // 2) - np.arange(n)) % n  # the index of -x on each centered axis
    want = a.values
    for ax in range(2 * d):
        want = np.take(want, idx, axis=ax)
    assert np.array_equal(point_reflection(a).values, want)


class TestWeylProduct:
    def test_unit_symbol(self, pg16):
        a = _random_symbol(pg16)
        one = constant_symbol(pg16)
        assert _rel(weyl_product(a, one).values - a.values, a.values) < 1e-10
        assert _rel(weyl_product(one, a).values - a.values, a.values) < 1e-10

    def test_transform_image(self, pg16):
        a, b = _random_symbol(pg16), _random_symbol(pg16)
        lhs = symplectic_fourier(weyl_product(a, b))
        rhs = (2 * math.pi) ** -0.5 * twisted_convolution(
            symplectic_fourier(a), symplectic_fourier(b)).values
        assert _rel(lhs.values - rhs, rhs) < 1e-10

    def test_duality(self, pg16):
        a, b, c = (_random_symbol(pg16) for _ in range(3))
        cell = a.grid.quadrature_weight

        def inner(u, v):
            return complex(cell * np.sum(u.values * np.conj(v.values)))

        lhs = inner(weyl_product(a, b), c)
        ca = GridFunction(a.grid, np.conj(a.values))
        cb = GridFunction(b.grid, np.conj(b.values))
        assert abs(lhs - inner(b, weyl_product(ca, c))) < 1e-10 * abs(lhs)
        assert abs(lhs - inner(a, weyl_product(c, cb))) < 1e-10 * abs(lhs)

    def test_associativity(self, pg16):
        a, b, c = (_random_symbol(pg16) for _ in range(3))
        w1 = weyl_product(weyl_product(a, b), c)
        w2 = weyl_product(a, weyl_product(b, c))
        assert _rel(w1.values - w2.values, w1.values) < 1e-10

    def test_operator_route_n64(self):
        pg = make_grid(1, 64)
        a, b = _atom_cloud(pg, 1), _atom_cloud(pg, 2)
        p1 = weyl_product(a, b)
        p2 = compose_via_matrices(a, b, 0.5)
        assert _rel(p1.values - p2.values, p1.values) < 1e-6

    def test_hilbert_schmidt_endpoint(self):
        # ||a # b||_2 <= (2 pi)^{-d/2} ||a||_2 ||b||_2, stable under refinement
        for n in (16, 32):
            pg = make_grid(1, n)
            for seed in range(5):
                a, b = _atom_cloud(pg, seed, width=0.45), _atom_cloud(pg, seed + 50, width=0.45)
                lhs = weyl_product(a, b).norm2()
                assert lhs <= (2 * math.pi) ** -0.5 * a.norm2() * b.norm2() * (1 + 1e-10)


class TestKernelMaps:
    def test_round_trip_exact(self, pg16):
        a = _random_symbol(pg16)
        for A in (0.0, 0.5, 1.0):
            back = kernel_to_symbol(symbol_to_kernel(a, A), pg16)
            assert _rel(back.values - a.values, a.values) < 1e-12

    def test_shear_must_be_half_integer(self, pg16):
        a = _random_symbol(pg16)
        with pytest.raises(GridError):
            symbol_to_kernel(a, 0.3)

    def test_half_integer_check_is_exact_at_large_index(self, pg16):
        # within numpy's default relative tolerance of a half-integer, but
        # round(2 A) would shear by a different index
        a = _random_symbol(pg16)
        for A in (100000.25, 300000.3):
            with pytest.raises(GridError):
                symbol_to_kernel(a, A)
            with pytest.raises(GridError):
                calculi_transform(a, A, 0.0)
        for A in (0.0, 0.5, 1.0, 300000.5):
            symbol_to_kernel(a, A)
            calculi_transform(a, A, 0.0)

    @pytest.mark.parametrize("A", [math.inf, -math.inf])
    def test_infinite_index_is_not_a_half_integer(self, A):
        # inf is allclose to its own rounding; refused before any arithmetic on it
        a = _random_symbol(make_grid(1, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="half-integer"):
                operator_matrix(a, A)
            with pytest.raises(GridError, match="half-integer"):
                calculi_transform(a, A, 0.5)

    def test_unit_symbol_kernel_is_scaled_diagonal(self, pg16):
        # frozen from the discrete partial-transform oracle: the unit symbol
        # maps to the diagonal with entries 1/(base spacing), which in sheared
        # (u, t) coordinates is the t = 0 column; the operator matrix is then
        # exactly the identity
        one = constant_symbol(pg16)
        K = symbol_to_kernel(one, 0.5)
        M = operator_matrix(one, 0.5)
        m = pg16.base_grid.count
        diag = 1.0 / pg16.base_grid.spacing
        t0 = pg16.n // 2
        assert np.max(np.abs(K[:, t0] - diag)) < 1e-12 * diag
        assert np.max(np.abs(np.delete(K, t0, axis=1))) < 1e-12 * diag
        kv = M / pg16.base_grid.quadrature_weight
        assert np.max(np.abs(kv - np.eye(m) * diag)) < 1e-12 * diag
        assert np.max(np.abs(M - np.eye(m))) < 1e-12

    def test_stft_link_between_kernel_and_symbol(self):
        """Magnitude link between the ordinary STFT of the operator kernel and
        the paired symplectic STFT of the symbol.

        The window acting on the kernel is the transposed kernel of the
        symbol-side window (an even, centered Gaussian); the two transforms
        agree up to the fixed constant 2^d (2 pi)^{d/2} on the frequency
        window the base-lattice sampling can represent.
        """
        from phaselab.grids import Grid
        from phaselab.stft import stft

        pg = make_grid(1, 64)
        base = pg.base_grid
        n, m = pg.n, base.count
        cn, cm = n // 2, m // 2
        a = _atom_cloud(pg, 7, atoms=2, width=1.0, center_frac=0.05, modulation_frac=0.02)
        Psi = gaussian_atom(pg, (0, 0), (0, 0), 1.0)
        grid2 = Grid(2 * base.dim, base.count, base.spacing)
        w = base.quadrature_weight
        Kf = GridFunction(grid2, operator_matrix(a, 0.5) / w)
        Phi = GridFunction(grid2, math.sqrt(2 * math.pi) * (operator_matrix(Psi, 0.5) / w).T)
        V = stft(Kf, Phi)
        C = 2 * (2 * math.pi) ** 0.5
        half = m // 8
        idx = np.arange(cm - half, cm + half + 1)
        ix, iy, ik, ien = np.meshgrid(idx, idx, idx, idx, indexing="ij")
        ie = (2 * cm - ien) % m  # fourth STFT frequency is -eta
        lhs = C * np.abs(V.values[ix, iy, ik, ien])
        P1 = (iy + ix - 2 * cm + cn) % n
        P2 = (ie + ik - 2 * cm + cn) % n
        M1 = (iy - ix + cn) % n
        M2 = (ie - ik + cn) % n
        # evaluate the symplectic STFT only on the needed shift slices
        g = pg.symbol_grid
        cache = {}
        rhs = np.empty(lhs.shape)
        flat = P1 * n + P2
        for s in np.unique(flat):
            s1, s2 = divmod(int(s), n)
            windowed = a.values * np.conj(np.roll(Psi.values, (s1 - cn, s2 - cn), axis=(0, 1)))
            cache[int(s)] = symplectic_fourier(GridFunction(g, windowed)).values
        it = np.nditer(flat, flags=["multi_index"])
        for val in it:
            mi = it.multi_index
            rhs[mi] = abs(cache[int(val)][M1[mi], M2[mi]])
        assert np.max(np.abs(lhs - rhs)) / np.max(rhs) < 1e-8


class TestOperatorMatrix:
    @pytest.mark.parametrize("other", [32, 8])
    def test_composition_needs_one_grid(self, pg16, other):
        a = constant_symbol(pg16)
        b = constant_symbol(make_grid(1, other))
        for pair in ((a, b), (b, a)):
            with pytest.raises(GridError):
                compose_via_matrices(*pair, 0.5)

    def test_identity_symbol(self, pg16):
        for A in (0.0, 0.5, 1.0):
            M = operator_matrix(constant_symbol(pg16), A)
            assert np.max(np.abs(M - np.eye(M.shape[0]))) < 1e-12

    def test_hermitian_for_real_symbol(self, pg16):
        ar = GridFunction(pg16.symbol_grid, RNG.standard_normal(pg16.symbol_grid.shape))
        M = operator_matrix(ar, 0.5)
        assert np.max(np.abs(M - M.conj().T)) < 1e-12

    def test_rank_one_kernel_gives_outer_product(self, pg16):
        base = pg16.base_grid
        phi = base_gaussian(base, center=0.4, width=0.9)
        psi = base_gaussian(base, center=-0.3, width=1.1, frequency=0.7)
        outer = np.outer(phi.values, np.conj(psi.values))
        M = base.quadrature_weight * outer
        K = np.zeros((pg16.n,) * 2, dtype=complex)
        _scatter(M, pg16, 0.5, 0, K)
        back = operator_matrix(kernel_to_symbol(K, pg16), 0.5)
        assert _rel(back - M, M) < 1e-8
        f = base_gaussian(base, width=0.8)
        applied = M @ f.values.ravel()
        want = phi.values * complex(np.vdot(psi.values, f.values) * base.quadrature_weight)
        assert np.max(np.abs(applied - want)) < 1e-10


class TestCalculiTransform:
    def test_identity(self, pg16):
        a = _random_symbol(pg16)
        assert np.array_equal(calculi_transform(a, 0.5, 0.5).values, a.values)

    def test_group_law(self, pg16):
        a = _random_symbol(pg16)
        t1 = calculi_transform(calculi_transform(a, 0.0, 0.5), 0.5, 1.0)
        t2 = calculi_transform(a, 0.0, 1.0)
        assert _rel(t1.values - t2.values, t2.values) < 1e-12

    def test_operator_equality(self):
        pg = make_grid(1, 64)
        a1 = _atom_cloud(pg, 10)
        for (A1, A2) in [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0), (1.0, 0.0)]:
            a2 = calculi_transform(a1, A1, A2)
            M1 = operator_matrix(a1, A1)
            M2 = operator_matrix(a2, A2)
            assert _rel(M1 - M2, M1) < 1e-8

    def test_incompatible_shear_rejected(self, pg16):
        a = _random_symbol(pg16)
        with pytest.raises(GridError):
            calculi_transform(a, 0.0, 0.25)


class TestPseudoProduct:
    def test_half_identity_is_weyl(self, pg16):
        a, b = _random_symbol(pg16), _random_symbol(pg16)
        assert np.array_equal(pseudo_product(a, b, 0.5).values, weyl_product(a, b).values)

    def test_unit_for_general_quantization(self, pg16):
        a = _random_symbol(pg16)
        one = constant_symbol(pg16)
        for A in (0.0, 1.0):
            got = pseudo_product(a, one, A)
            assert _rel(got.values - a.values, a.values) < 1e-10

    def test_matrix_route_kohn_nirenberg(self):
        pg = make_grid(1, 64)
        a, b = _atom_cloud(pg, 11), _atom_cloud(pg, 12)
        p0 = pseudo_product(a, b, 0.0)
        M1 = operator_matrix(p0, 0.0)
        M2 = operator_matrix(a, 0.0) @ operator_matrix(b, 0.0)
        assert _rel(M1 - M2, M1) < 1e-6
        # the two-lattice symbol reconstruction agrees as well
        pm = compose_via_matrices(a, b, 0.0)
        assert _rel(p0.values - pm.values, p0.values) < 1e-4


class TestComposeKernels:
    def test_scaled_identity(self, pg16):
        base = pg16.base_grid
        ident = np.eye(base.count) / base.quadrature_weight
        composed, residual = compose_kernels([2 * ident, 3 * ident, 4 * ident], base)
        assert np.allclose(composed, 24 * ident)
        assert residual < 1e-12

    @pytest.mark.parametrize("n_factors", [3, 5, 7])
    def test_factorization_matches_matrix_route(self, pg16, n_factors):
        base = pg16.base_grid
        m = base.count
        Ks = [RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m))
              for _ in range(n_factors)]
        composed, residual = compose_kernels(Ks, base)
        assert residual < 1e-10
        # independent fold for the matrix route itself
        w = base.quadrature_weight
        direct = Ks[0]
        for K in Ks[1:]:
            direct = direct @ (w * K)
        assert np.allclose(composed, direct)

    def test_even_count_has_no_factorization(self, pg16):
        base = pg16.base_grid
        m = base.count
        Ks = [RNG.standard_normal((m, m)) for _ in range(2)]
        composed, residual = compose_kernels(Ks, base)
        assert residual is None

    def test_hs_submultiplicativity(self, pg16):
        base = pg16.base_grid
        m = base.count
        w = base.quadrature_weight

        def hs(K):
            return math.sqrt(w**2 * float(np.sum(np.abs(K) ** 2)))

        for _ in range(10):
            Ks = [RNG.standard_normal((m, m)) + 1j * RNG.standard_normal((m, m))
                  for _ in range(3)]
            composed, _ = compose_kernels(Ks, base)
            assert hs(composed) <= math.prod(hs(K) for K in Ks) * (1 + 1e-12)


def test_two_dimensional_symbols_supported():
    # d = 2 stays in scope at desk scale: involution exact, products associative
    pg8 = make_grid(2, 8)
    rng = np.random.default_rng(17)
    g8 = pg8.symbol_grid
    a8 = GridFunction(g8, rng.standard_normal(g8.shape) + 1j * rng.standard_normal(g8.shape))
    aa = symplectic_fourier(symplectic_fourier(a8))
    assert _rel(aa.values - a8.values, a8.values) < 1e-12
    pg = make_grid(2, 4)
    g = pg.symbol_grid
    a = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    b = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    c = GridFunction(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    s1 = twisted_convolution(twisted_convolution(a, b), c)
    s2 = twisted_convolution(a, twisted_convolution(b, c))
    assert _rel(s1.values - s2.values, s1.values) < 1e-10
    one = constant_symbol(pg)
    assert _rel(weyl_product(a, one).values - a.values, a.values) < 1e-10
    M = operator_matrix(one, 0.5)
    assert np.max(np.abs(M - np.eye(M.shape[0]))) < 1e-12


@pytest.mark.parametrize("d, n", [(2, 16), (1, 256)])  # 2^16 entries: large enough to split
def test_products_do_not_depend_on_the_cpu_count(usable_cpus, d, n):
    # the symplectic transform sums axis 0 with a full-length trailing table: the
    # spans of its second sum must cut that table with the rows (three parts cut unevenly)
    pg = make_grid(d, n)
    a, b = _random_symbol(pg), _random_symbol(pg)
    got = []
    for cpus in ({0}, {0, 1}, {0, 1, 2}):
        usable_cpus(cpus)
        got.append((symplectic_fourier(a).values.tobytes(), weyl_product(a, b).values.tobytes()))
    assert got[0] == got[1] == got[2]
