"""Randomized ensembles, N-fold products and norm-ratio experiments.

The ratio experiments probe the multilinear boundedness statements at desk
scale: for sampled symbol tuples they compare the mixed norm of the N-fold
product against the product of the factor norms.  The bound constants are
unknowable from theory alone, so acceptance is phrased as ratio stability
under grid refinement plus exactness at the flat-exponent matrix endpoint;
every experiment is a pure function of ``(seed, config)``.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exponents import ExponentTuple, check_conditions
from .grids import (
    GaussianAtomSpec,
    Grid,
    GridError,
    GridFunction,
    PhaseGrid,
    gaussian_atom,
)
from .norms import MixedNormSpec, stft_norms
from .stft import STFTTensor, symplectic_stft
from .weights import WeightSpec
from .weyl import pseudo_product, twisted_convolution, weyl_product

THREAD_ENV = "PHASELAB_THREADS"

#: hard cap on the integral-representation quadrature (cost n^{2d(N+1)})
REPRESENTATION_CAP = {"n": 8, "d": 1, "N": 3}


@dataclass(frozen=True)
class EnsembleSpec:
    """Deterministic ensemble of random Gaussian-atom superpositions."""

    seed: int
    count: int
    atoms_per_symbol: int = 3
    width_range: tuple[float, float] = (0.35, 0.5)
    center_radius: float = 1.5
    modulation_radius: float = 0.8

    def __post_init__(self):
        if self.count < 0 or self.atoms_per_symbol < 1:
            raise GridError("ensemble needs count >= 0 and at least one atom per symbol")


def ensemble_generate(spec: EnsembleSpec, phase: PhaseGrid) -> list[GridFunction]:
    """Sample ``count`` symbols; identical output for identical (seed, spec, grid).

    All random draws are in physical units and independent of the grid, so
    the same spec sampled on two grids yields the same continuum symbols.
    """
    reach = spec.center_radius + spec.modulation_radius
    if reach > phase.extent / 4 + 1e-12:
        raise GridError(
            f"ensemble reach {reach:.3g} violates truncation safety for extent {phase.extent:.3g}"
        )
    streams = np.random.SeedSequence(spec.seed).spawn(spec.count)
    out = []
    for stream in streams:
        rng = np.random.default_rng(stream)
        vals = None
        for _ in range(spec.atoms_per_symbol):
            center = rng.uniform(-spec.center_radius, spec.center_radius, size=2 * phase.d)
            modulation = rng.uniform(-spec.modulation_radius, spec.modulation_radius, size=2 * phase.d)
            width = rng.uniform(*spec.width_range)
            amp = rng.standard_normal() + 1j * rng.standard_normal()
            atom = gaussian_atom(phase, GaussianAtomSpec(tuple(center), tuple(modulation), width, amp))
            vals = atom.values if vals is None else vals + atom.values
        out.append(GridFunction(phase.symbol_grid, vals))
    return out


def default_window(phase: PhaseGrid) -> GridFunction:
    """Centered Gaussian window, truncation-safe down to n = 16."""
    return gaussian_atom(phase, GaussianAtomSpec((0.0,) * (2 * phase.d), (0.0,) * (2 * phase.d), 0.45))


def nfold_product(symbols: Sequence[GridFunction], A) -> GridFunction:
    """Left fold of the quantized symbol product (associative up to roundoff)."""
    if not symbols:
        raise GridError("need at least one symbol")
    out = symbols[0]
    for s in symbols[1:]:
        out = pseudo_product(out, s, A)
    return out


def nfold_twisted(symbols: Sequence[GridFunction]) -> GridFunction:
    if not symbols:
        raise GridError("need at least one symbol")
    out = symbols[0]
    for s in symbols[1:]:
        out = twisted_convolution(out, s)
    return out


# -- STFT integral representation ---------------------------------------------

def _pair_index_tables(n: int):
    idx = np.arange(n)
    plus = (idx[:, None] + idx[None, :] - n // 2) % n
    minus = (idx[:, None] - idx[None, :] + n // 2) % n
    return plus, minus


def _as_pair_matrix(T: STFTTensor) -> np.ndarray:
    """``F(X, Y) = V(X + Y, X - Y)`` flattened to a (n^{2d} x n^{2d}) matrix."""
    g = T.shift_grid
    n, dim = g.count, g.dim
    plus, minus = _pair_index_tables(n)
    take = []
    for ax in range(dim):
        shape_x = [1] * (2 * dim)
        shape_x[ax] = n
        shape_y = [1] * (2 * dim)
        shape_y[dim + ax] = n
        ix = np.reshape(np.arange(n), shape_x)
        iy = np.reshape(np.arange(n), shape_y)
        take.append((plus[ix, iy], minus[ix, iy]))
    gathered = T.values[tuple(p for p, _ in take) + tuple(m for _, m in take)]
    P = n**dim
    return gathered.reshape(P, P)


def _sigma_table(grid: Grid) -> np.ndarray:
    """``S[flat(A), flat(B)] = exp(2i sigma(A, B))`` over all grid point pairs."""
    n, dim = grid.count, grid.dim
    d = dim // 2
    c = n // 2
    k = np.arange(n) - c
    coords = np.meshgrid(*([k] * dim), indexing="ij")
    flat = np.stack([cc.ravel() for cc in coords], axis=1)  # (P, 2d) integer coords
    # 2 sigma(A, B) = (2 pi / n) * sum_i (b_pos_i * a_frq_i - a_pos_i * b_frq_i)
    a_pos, a_frq = flat[:, :d], flat[:, d:]
    s = np.einsum("ik,jk->ij", a_frq, flat[:, :d]) - np.einsum("ik,jk->ij", a_pos, flat[:, d:])
    return np.exp(2j * np.pi * s / n)


def stft_integral_representation(stfts: Sequence[STFTTensor]) -> STFTTensor:
    """Quadrature of the product representation of paired STFTs.

    Input: raw symplectic STFT tensors of the factors (same grid and one
    window convention); output tensor ``out[X_N, X_0]`` equals, up to the
    representation identity, the paired STFT of the N-fold product taken
    against the scaled product of the windows.
    """
    if len(stfts) < 2:
        raise GridError("representation needs at least two factors")
    g = stfts[0].shift_grid
    for T in stfts:
        if T.flavor != "symplectic" or T.shift_grid != g:
            raise GridError("all factors must be symplectic STFTs on one grid")
    n, dim = g.count, g.dim
    d = dim // 2
    N = len(stfts)
    if n > REPRESENTATION_CAP["n"] or d > REPRESENTATION_CAP["d"] or N > REPRESENTATION_CAP["N"]:
        raise GridError(
            f"representation capped at n <= {REPRESENTATION_CAP['n']}, d <= "
            f"{REPRESENTATION_CAP['d']}, N <= {REPRESENTATION_CAP['N']} "
            f"(cost n^(2d(N+1)))"
        )
    S = _sigma_table(g)
    F = [_as_pair_matrix(T) for T in stfts]
    weight = g.quadrature_weight ** (N - 1)
    # phase telescopes to prod_j S[x_j, x_{j+1}] * conj(S)[x_1, x_0] * conj(S)[x_0, x_N]
    M = F[0] * np.conj(S)  # G1[x_1, x_0]
    for j in range(1, N):
        M = (F[j] * S.T) @ M  # attach F_{j+1}[x_{j+1}, x_j] S[x_j, x_{j+1}]
    out = weight * M * np.conj(S).T
    shaped = out.reshape(g.shape + g.shape)
    return STFTTensor(g, g, shaped, "symplectic")


def paired_stft(a: GridFunction, window: GridFunction) -> STFTTensor:
    """Symplectic STFT re-indexed to the pairing convention ``(X+Y, X-Y)``."""
    T = symplectic_stft(a, window)
    g = T.shift_grid
    mat = _as_pair_matrix(T)
    return STFTTensor(g, g, mat.reshape(g.shape + g.shape), "symplectic")


def window_for_representation(phase: PhaseGrid, windows: Sequence[GridFunction]) -> GridFunction:
    """Scaled window product entering the representation identity."""
    N = len(windows)
    out = windows[0]
    for w in windows[1:]:
        out = weyl_product(out, w)
    return GridFunction(out.grid, (math.pi ** ((N - 1) * phase.d)) * out.values)


# -- ratio experiments ---------------------------------------------------------

@dataclass(frozen=True)
class RatioConfig:
    """One norm-ratio probe: exponent tuples, weights, product mode, measure."""

    p: ExponentTuple
    q: ExponentTuple
    weights: tuple[WeightSpec, ...]
    mode: str = "weyl"  # "weyl" (quantized products, M-norms) or "twist" (W-norms)
    measure: str = "quadrature"
    label: str = ""

    def __post_init__(self):
        if self.mode not in ("weyl", "twist"):
            raise GridError(f"unknown ratio mode {self.mode!r}")
        if len(self.weights) != len(self.p.entries):
            raise GridError("need one weight per tuple slot")
        if self.p.n_factors != self.q.n_factors:
            raise GridError("p and q must have equal length")


@dataclass(frozen=True)
class RatioReport:
    """Per-sample norm ratios of one experiment plus summary statistics."""

    config_label: str
    mode: str
    measure: str
    p: str
    q: str
    weights: tuple[str, ...]
    n_factors: int
    grid_n: int
    seed: int
    condition: str
    condition_holds: bool
    ratios: tuple  # float or None per sample
    max_ratio: float
    mean_ratio: float
    quantiles: dict

    def as_dict(self) -> dict:
        return {
            "label": self.config_label,
            "mode": self.mode,
            "measure": self.measure,
            "p": self.p,
            "q": self.q,
            "weights": list(self.weights),
            "N": self.n_factors,
            "grid_n": self.grid_n,
            "seed": self.seed,
            "condition": self.condition,
            "condition_holds": self.condition_holds,
            "ratios": [r if r is None else float(r) for r in self.ratios],
            "max_ratio": self.max_ratio,
            "mean_ratio": self.mean_ratio,
            "quantiles": self.quantiles,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(["sample", "ratio", "label", "mode", "p", "q", "grid_n", "seed"])
        for k, r in enumerate(self.ratios):
            writer.writerow([k, "" if r is None else repr(float(r)), self.config_label,
                             self.mode, self.p, self.q, self.grid_n, self.seed])
        return buf.getvalue()


def _thread_count() -> int:
    value = os.environ.get(THREAD_ENV, "1")
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise GridError(f"{THREAD_ENV} must be a positive integer, got {value!r}")
    return threads


def _sample_ratios(configs: Sequence[RatioConfig], symbols: Sequence[GridFunction],
                   A, window: GridFunction) -> list:
    """Ratios of all configs on one symbol tuple.  Each tensor is built when due,
    gives every asking config its norm in one ``stft_norms`` call, and is dropped."""
    orders = ["modulation" if cfg.mode == "weyl" else "amalgam" for cfg in configs]
    factor_norms = [[] for _ in configs]  # per config, up to its first zero
    for j, symbol in enumerate(symbols, start=1):
        asking = [i for i, vals in enumerate(factor_norms) if 0.0 not in vals]
        if not asking:
            break
        specs = [MixedNormSpec(configs[i].p[j], configs[i].q[j], orders[i], configs[i].weights[j],
                               configs[i].measure) for i in asking]
        for i, val in zip(asking, stft_norms(symbol, window, specs)):
            factor_norms[i].append(val)
    numers = {}  # product norm per config that has no zero factor norm
    for mode in ("weyl", "twist"):
        asking = [i for i, cfg in enumerate(configs)
                  if cfg.mode == mode and 0.0 not in factor_norms[i]]
        if not asking:
            continue
        product = nfold_product(symbols, A) if mode == "weyl" else nfold_twisted(symbols)
        specs = [MixedNormSpec(configs[i].p[0].conjugate(), configs[i].q[0].conjugate(), orders[i],
                               configs[i].weights[0].reciprocal(), configs[i].measure) for i in asking]
        numers.update(zip(asking, stft_norms(product, window, specs)))
    return [numers[i] / math.prod(vals) if i in numers else None
            for i, vals in enumerate(factor_norms)]


def ratio_experiment_multi(configs: Sequence[RatioConfig], ensemble: EnsembleSpec,
                           phase: PhaseGrid) -> list[RatioReport]:
    """Run several ratio probes over one shared ensemble.

    Sample ``k`` consumes symbols ``[k*N, (k+1)*N)`` of the ensemble; the
    expensive transforms (Weyl-quantized products, STFTs against
    ``default_window``) are computed once per sample and shared across
    configs.  Samples may evaluate in parallel (thread count from the
    ``PHASELAB_THREADS`` environment variable); aggregation is ordered, so
    results are schedule-independent.
    """
    if not configs:
        return []
    n_factors = configs[0].p.n_factors
    for cfg in configs:
        if cfg.p.n_factors != n_factors:
            raise GridError("all configs in one run must share N")
    window = default_window(phase)
    symbols = ensemble_generate(ensemble, phase)
    n_samples = len(symbols) // n_factors
    groups = [symbols[k * n_factors:(k + 1) * n_factors] for k in range(n_samples)]
    threads = _thread_count()
    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(
                lambda grp: _sample_ratios(configs, grp, 0.5, window), groups))
    else:
        rows = [_sample_ratios(configs, grp, 0.5, window) for grp in groups]
    reports = []
    for i, cfg in enumerate(configs):
        ratios = tuple(row[i] for row in rows)
        finite = [r for r in ratios if r is not None]
        criterion = "thm-B" if cfg.mode == "weyl" else "twist"
        verdict = check_conditions(criterion, cfg.p, cfg.q)
        if finite:
            arr = np.asarray(finite)
            qs = {f"q{int(100 * t)}": float(np.quantile(arr, t)) for t in (0.5, 0.9, 1.0)}
            mx, mean = float(arr.max()), float(arr.mean())
        else:
            qs, mx, mean = {}, 0.0, 0.0
        reports.append(RatioReport(
            config_label=cfg.label or f"{cfg.mode}:{cfg.p}|{cfg.q}",
            mode=cfg.mode,
            measure=cfg.measure,
            p=str(cfg.p),
            q=str(cfg.q),
            weights=tuple(w.literal() for w in cfg.weights),
            n_factors=n_factors,
            grid_n=phase.n,
            seed=ensemble.seed,
            condition=criterion,
            condition_holds=verdict.holds,
            ratios=ratios,
            max_ratio=mx,
            mean_ratio=mean,
            quantiles=qs,
        ))
    return reports

