"""Twisted convolution, Weyl-type products, symbol/kernel maps and kernel algebra.

Every product here is computable along two independent routes:

* phase-space route: twisted convolution (the O(n^{4d}) direct double-sum
  oracle or the O(n^{3d} log n) FFT-factorized fast path, both at every d)
  feeding the product formula;
* operator route: symbols mapped to operator matrices on the companion base
  grid, composed with ``@``, mapped back.

The phase-space identities are exact on the symplectically self-dual grid;
the operator route crosses the sampling of the half-sum coordinate and is
therefore only expected to agree to truncation accuracy on decaying symbols.

Kernels and operator matrices are plain arrays.  A kernel is carried in
sheared coordinates ``(u, t) = (x - A(x-y), x - y)``, where the partial
Fourier transform linking symbols and kernels is an exact unitary bijection;
the ``(x, y)`` matrix is a sampling step.
The quantization index ``A`` is one number, the same on every axis: 1/2 is
the Weyl calculus, 0 and 1 the Kohn-Nirenberg pair.  It must be a
half-integer, so that the shear moves the grid onto itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from typing import Sequence

import numpy as np

from .grids import (
    Grid,
    GridError,
    GridFunction,
    centered_character_sum,
    require_same_grid,
    symplectic_fourier,
)


def _require_half_integer(A: float, what: str):
    if not (math.isfinite(A) and np.allclose(2 * A, np.round(2 * A), rtol=0, atol=1e-12)):
        raise GridError(f"{what} needs a half-integer quantization index to stay grid-aligned")


def _phase_grid(a: GridFunction) -> Grid:
    if not a.grid.is_symplectic:
        raise GridError("symbol must live on a phase grid")
    return a.grid


def point_reflection(a: GridFunction) -> GridFunction:
    """``a(X) -> a(-X)`` on the centered periodic grid."""
    idx = (2 * (a.grid.count // 2) - np.arange(a.grid.count)) % a.grid.count
    return GridFunction(a.grid, a.values[np.ix_(*[idx] * a.grid.dim)])


def involution(a: GridFunction) -> GridFunction:
    """``a(X) -> conj(a(-X))``, the twisted-convolution adjoint."""
    return GridFunction(a.grid, np.conj(point_reflection(a).values))


# -- twisted convolution ------------------------------------------------------

def _phase_table(n: int, sign: int) -> np.ndarray:
    c = n // 2
    k = np.arange(n) - c
    return np.exp(sign * 2j * np.pi * np.outer(k, k) / n)


def twisted_convolution(a: GridFunction, b: GridFunction, method: str = "fast") -> GridFunction:
    """Twisted convolution ``(2/pi)^{d/2} h^{2d} sum_Y a(X-Y) b(Y) e^{2i sigma(X,Y)}``.

    ``method="direct"`` is the O(n^{4d}) double-sum oracle kept as the
    permanent reference; ``method="fast"`` factors the symplectic phase over
    the d axis pairs into FFT convolutions, O(n^{3d} log n) and identical
    output to roundoff.  Both routes run at every d.
    """
    if method not in ("fast", "direct"):
        raise GridError(f"unknown twisted convolution method {method!r}")
    require_same_grid(a, b)
    route = _twisted_fast if method == "fast" else _twisted_direct
    return route(a, b, _phase_grid(a))


def _twisted_coeff(g: Grid) -> float:
    return (2 / math.pi) ** (g.dim / 4) * g.quadrature_weight


#: einsum subscripts, three per axis pair j: ``y_j``, ``xi_j``, ``eta_j`` (``kml`` at d = 1)
_SUBSCRIPTS = "kml" + "".join(ch for ch in string.ascii_lowercase if ch not in "kml")


def _spread(table: np.ndarray, axes: tuple[int, ...], ndim: int) -> np.ndarray:
    """``table`` reshaped so that its axes lie on ``axes`` of ``ndim`` broadcast axes."""
    return table.reshape([table.shape[axes.index(ax)] if ax in axes else 1 for ax in range(ndim)])


def _differences(n: int) -> np.ndarray:
    """``diff[p, q]``: index of the point ``p - q`` on a centered periodic axis of n points."""
    return (np.arange(n)[:, None] - np.arange(n)[None, :] + n // 2) % n


def _each_position(n: int, d: int, ndim: int):
    """Every output position ``x`` (a d-tuple) with the ``np.ix_`` index arrays of
    ``x - y`` over the first d of ``ndim`` axes.  They are built once, since
    ``np.ix_`` per ``x`` costs the d = 1 fast path about 10% of its time."""
    rows = [_spread(_differences(n), (0, 1 + j), 1 + ndim) for j in range(d)]  # leading axis: x_j
    return zip(itertools.product(range(n), repeat=d), itertools.product(*rows))


def _twisted_direct(a: GridFunction, b: GridFunction, g: Grid) -> GridFunction:
    """Direct double sum, one output position ``x`` at a time to bound memory."""
    n, d = g.count, g.dim // 2
    coeff = _twisted_coeff(g)
    P = _phase_table(n, +1)  # P[p, q] = e^{2pi i (p-c)(q-c)/n}
    Pc = np.conj(P)
    k, m, l = (_SUBSCRIPTS[s:3 * d:3] for s in range(3))
    spec = f"{k}{m}{l},{k}{l}," + ",".join([mj + kj for kj, mj in zip(k, m)] + list(l)) + f"->{m}"
    # ag[y, xi, eta] = a[x - y, xi - eta] over 3d gather axes
    freq_index = tuple(_spread(_differences(n), (d + j, 2 * d + j), 3 * d) for j in range(d))
    out = np.empty(g.shape, dtype=complex)
    for x, rows in _each_position(n, d, 3 * d):
        ag = a.values[rows + freq_index]
        # e^{2i sigma(X, Y)} = prod_j e^{2i(xi_j y_j - x_j eta_j)} = prod_j P[xi_j, y_j] Pc[x_j, eta_j]
        term = np.einsum(spec, ag, b.values, *[P] * d, *(Pc[xj] for xj in x), optimize=True)
        out[x] = coeff * term
    return GridFunction(g, out)


def _twisted_fast(a: GridFunction, b: GridFunction, g: Grid) -> GridFunction:
    """Per-pair factorization: FFT convolution over the frequency axes, explicit
    character sum over the position axes, one output position ``x`` at a time."""
    n, d = g.count, g.dim // 2
    coeff = _twisted_coeff(g)
    Pm = _phase_table(n, -1)  # e^{-2pi i (p-c)(q-c)/n}
    Pp = [np.conj(Pm)] * d
    freq_axes = range(d, 2 * d)
    k, m, _ = (_SUBSCRIPTS[s:3 * d:3] for s in range(3))
    spec = f"{k}{m}," + ",".join(mj + kj for kj, mj in zip(k, m)) + f"->{m}"
    # mod[x][y, eta] = prod_j e^{-2i x_j eta_j}, broadcast over the position axes y
    mod = functools.reduce(np.multiply, (_spread(Pm, (j, 2 * d + j), 3 * d) for j in range(d)))
    # spectra of a over its frequency axes, each axis re-indexed by offset: a[.., (o + c) % n, ..]
    fa = a.values
    for ax in freq_axes:
        fa = np.fft.fft(fa.take((np.arange(n) + n // 2) % n, axis=ax), axis=ax)
    out = np.empty(g.shape, dtype=complex)
    for x, rows in _each_position(n, d, d):
        fb = b.values * mod[x]  # b(y, eta) e^{-2i x eta}
        for ax in freq_axes:
            fb = np.fft.fft(fb, axis=ax)
        # circular convolution over eta: sum_eta b(y, eta) e^{-2i x eta} a(x - y, xi - eta)
        conv = fb * fa[rows]
        for ax in freq_axes:
            conv = np.fft.ifft(conv, axis=ax)
        # sum over y with the remaining phase e^{+2i xi y} = prod_j Pp[xi_j, y_j]
        out[x] = coeff * np.einsum(spec, conv, *Pp)
    return GridFunction(g, out)


def weyl_product(a: GridFunction, b: GridFunction) -> GridFunction:
    """Symbol product of operator composition in the symmetric quantization.

    Computed as ``(2*pi)^{-d/2} * (a twisted-conv symplectic_fourier(b))``;
    the constant symbol 1 is the unit.
    """
    g = _phase_grid(a)
    scaled = twisted_convolution(a, symplectic_fourier(b))
    return GridFunction(g, (2 * math.pi) ** (-g.dim / 4) * scaled.values)


# -- symbol/kernel maps -------------------------------------------------------

def symbol_to_kernel(a: GridFunction, A: float) -> np.ndarray:
    """Exact partial-transform route from a symbol to its operator kernel.

    ``K[u_index, t_index]`` holds ``K(x, y)`` in sheared coordinates
    ``(u, t) = (x - A(x-y), x - y)``: the ``u`` axes are the phase grid's
    position axes (n points, spacing h, periodic with extent L) and the
    ``t`` axes carry n points of spacing 2h (extent 2L).
    """
    d = _phase_grid(a).dim // 2
    _require_half_integer(A, "kernel map")
    # (2 pi)^{-d/2} * [(2 pi)^{-d/2} h^d sum_xi a(u, xi) e^{+i t xi}]
    coeff = (2 * math.pi) ** (-d) * a.grid.quadrature_weight ** 0.5
    return coeff * centered_character_sum(a.values, range(d, 2 * d), +1)


def kernel_to_symbol(K: np.ndarray, g: Grid) -> GridFunction:
    """Inverse of :func:`symbol_to_kernel` onto the phase grid ``g``; exact round trip."""
    d = g.dim // 2
    t_spacing = 2 * g.spacing
    coeff = (2 * math.pi) ** (d / 2) * (2 * math.pi) ** (-d / 2) * t_spacing**d
    return GridFunction(g, coeff * centered_character_sum(K, range(d, 2 * d), -1))


def _kernel_sample_indices(g: Grid, A: float, offset: int):
    """Index arrays mapping base-lattice pairs ``(x, y)`` into the (u, t) axes.

    ``offset = 0`` is the base grid itself, ``offset = 1`` the half-spacing
    staggered lattice.  Pairs from one lattice populate one parity class of
    the ``(u, t)`` checkerboard; both lattices together cover the full
    diamond of reachable cells.
    """
    m, n, d = g.base_grid.count, g.count, g.dim // 2
    # per-axis integer coordinates of x and y in units of the base spacing 2h
    xy = np.indices((m,) * (2 * d)) - m // 2  # x axes then y axes
    x, diff = xy[:d], xy[:d] - xy[d:]
    u = 2 * x + offset - round(2 * A) * diff  # in units of h
    return tuple((u + n // 2) % n) + tuple(diff + n // 2)  # t in units of 2h, no wrap needed


def _sample(K: np.ndarray, g: Grid, A: float, offset: int) -> np.ndarray:
    """Quadrature-scaled matrix of the kernel ``K`` on one base lattice."""
    base = g.base_grid
    m = base.count**base.dim
    return base.quadrature_weight * K[_kernel_sample_indices(g, A, offset)].reshape(m, m)


def _scatter(M: np.ndarray, g: Grid, A: float, offset: int, K: np.ndarray):
    """Write the kernel samples of the matrix ``M`` back into ``K``.

    One lattice offset fills one parity class of ``K``; scatter the other
    offset into the same array to fill both.  Cells outside the reachable
    diamond keep what ``K`` held, zero for a fresh array: a truncation-level
    approximation for decaying kernels (and the reason the operator route
    carries a looser tolerance than the phase-space route).
    """
    base = g.base_grid
    K[_kernel_sample_indices(g, A, offset)] = (M / base.quadrature_weight).reshape(base.shape * 2)


def operator_matrix(a: GridFunction, A: float) -> np.ndarray:
    """Quadrature matrix of the quantized operator of a symbol.

    The ``(m^d, m^d)`` matrix on the companion base grid already carries the
    ``(2h)^d`` quadrature factor, so application and composition are plain
    matrix products (hence composition is exactly associative).
    """
    return _sample(symbol_to_kernel(a, A), _phase_grid(a), A, 0)


def compose_via_matrices(a: GridFunction, b: GridFunction, A: float) -> GridFunction:
    """Oracle route: compose quantized matrices on both lattice offsets and
    reassemble the product symbol from the two checkerboard classes."""
    require_same_grid(a, b)
    g = _phase_grid(a)
    Ka, Kb = symbol_to_kernel(a, A), symbol_to_kernel(b, A)
    K = np.zeros(Ka.shape, dtype=complex)
    for offset in (0, 1):
        M = _sample(Ka, g, A, offset) @ _sample(Kb, g, A, offset)
        _scatter(M, g, A, offset, K)
    return kernel_to_symbol(K, g)


# -- calculi transform and general quantizations ------------------------------

def calculi_transform(a: GridFunction, A1: float, A2: float) -> GridFunction:
    """Transform a symbol between quantizations ``A1 -> A2``.

    Fourier-side multiplier ``exp(i (A1-A2) <w_xi, w_x>)``; with half-integer
    ``A1 - A2`` the multiplier is an exact grid character, the map is unitary
    and the transforms compose as a group.
    """
    g = _phase_grid(a)
    d = g.dim // 2
    dA = A1 - A2
    _require_half_integer(dA, "calculi transform")
    if not dA:
        return a
    n, c = g.count, g.count // 2
    ahat = centered_character_sum(a.values, range(2 * d), -1)
    k = np.arange(n) - c
    exponent = np.zeros(g.shape)
    for i in range(d):
        wx = k.reshape([-1 if ax == i else 1 for ax in range(2 * d)])
        wxi = k.reshape([-1 if ax == d + i else 1 for ax in range(2 * d)])
        exponent = exponent + dA * (4 * math.pi / n) * wx * wxi
    ahat = ahat * np.exp(1j * exponent)
    vals = centered_character_sum(ahat, range(2 * d), +1) / float(n ** (2 * d))
    return GridFunction(g, vals)


def pseudo_product(a: GridFunction, b: GridFunction, A: float) -> GridFunction:
    """Symbol product for the ``A``-quantization, by conjugation with the
    calculi transform around the symmetric product."""
    if A == 0.5:
        return weyl_product(a, b)
    ta = calculi_transform(a, A, 0.5)
    tb = calculi_transform(b, A, 0.5)
    return calculi_transform(weyl_product(ta, tb), 0.5, A)


# -- kernel composition -------------------------------------------------------

def compose_kernels(kernels: Sequence[np.ndarray], base: Grid):
    """Compose operator kernels; returns the matrix-route result and the
    enclosure-factorization residual.

    ``kernels`` are unscaled kernel sample arrays over ``base x base``.  The
    matrix route folds quadrature-scaled matrix products; for odd ``N >= 3``
    the result is recomputed through the two-sided enclosure factorization
    (outer factors paired with the interleaved inner pairing) and the max
    relative deviation between the routes is reported.
    """
    if len(kernels) < 1:
        raise GridError("need at least one kernel")
    m = base.count**base.dim
    mats = []
    for K in kernels:
        K = np.asarray(K, dtype=complex)
        if K.shape != (m, m):
            raise GridError(f"kernel shape {K.shape} != {(m, m)}")
        mats.append(K)
    w = base.quadrature_weight
    composed = mats[0]
    for K in mats[1:]:
        composed = composed @ (w * K)
    n_factors = len(mats)
    residual = None
    if n_factors >= 3 and n_factors % 2 == 1:
        factored = _enclosure_factorization(mats, w)
        scale = np.max(np.abs(composed))
        residual = float(np.max(np.abs(factored - composed)) / scale) if scale else 0.0
    return composed, residual


def _enclosure_factorization(mats: Sequence[np.ndarray], w: float) -> np.ndarray:
    """Outer-tensor / inner-pairing route for odd-length kernel composition.

    The two end kernels form the outer tensor ``G``; the interior splits by
    parity into ``H1`` (even slots, conjugated) and ``H2`` (odd slots), paired
    over the shared interior variables.
    """
    n_factors = len(mats)
    # twisted[j-1] = K_j for odd j, conj(K_j) for even j
    twisted = [mats[j - 1] if j % 2 == 1 else np.conj(mats[j - 1]) for j in range(1, n_factors + 1)]
    outer = functools.partial(np.tensordot, axes=0)
    # H1(x1, ..., x_{N-1}) = prod_j K~_{2j}(x_{2j-1}, x_{2j}); consecutive index
    # pairs, so plain outer products keep the axes in order
    h1 = functools.reduce(outer, (twisted[j - 1] for j in range(2, n_factors, 2)), np.ones(()))
    # H2(x2, ..., x_{N-2}) = prod_j K~_{2j+1}(x_{2j}, x_{2j+1}); the 0-d one at N = 3
    h2 = functools.reduce(outer, (twisted[j - 1] for j in range(3, n_factors - 1, 2)), np.ones(()))
    y_axes = n_factors - 3  # interior variables x_2 .. x_{N-2}
    # H(x1, x_{N-1}) = w^{y} sum_y H2(y) conj(H1)(x1, y, x_{N-1})
    H = np.tensordot(h2, np.conj(h1), axes=(tuple(range(y_axes)), tuple(range(1, 1 + y_axes))))
    H = (w**y_axes) * H
    G_left = twisted[0]  # K~_1 = K_1
    G_right = twisted[-1]  # K~_N = K_N (N odd)
    # result(x0, xN) = w^2 sum_{x1, x_{N-1}} K_1(x0,x1) K_N(x_{N-1},xN) H(x1, x_{N-1})
    return (w**2) * np.einsum("ab,cd,bc->ad", G_left, G_right, H, optimize=True)
