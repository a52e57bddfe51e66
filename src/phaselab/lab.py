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
import functools
import io
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .exponents import ConditionReport, ExponentTuple, check_conditions, require_same_n
from .grids import Grid, GridError, GridFunction, PhaseGrid, _thread_count, gaussian_atom
from .norms import MixedNormSpec, stft_norms
from .stft import STFTTensor, symplectic_stft
from .weights import WeightError, WeightSpec
from .weyl import pseudo_product, twisted_convolution


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
    return [_random_atoms(phase, np.random.default_rng(stream), spec.atoms_per_symbol,
                          spec.center_radius, spec.modulation_radius, spec.width_range)
            for stream in streams]


def _random_atoms(phase: PhaseGrid, rng: np.random.Generator, atoms: int, center_radius: float,
                  modulation_radius: float, width) -> GridFunction:
    """Sum of ``atoms`` random Gaussian atoms.

    Each atom draws, in this order, its centre, its modulation, its width
    when ``width`` is a ``(low, high)`` range (a number is taken as it is),
    and its complex amplitude.
    """
    vals = None
    for _ in range(atoms):
        center = rng.uniform(-center_radius, center_radius, size=2 * phase.d)
        modulation = rng.uniform(-modulation_radius, modulation_radius, size=2 * phase.d)
        w = width if np.isscalar(width) else rng.uniform(*width)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        atom = gaussian_atom(phase, center, modulation, w, amp)
        vals = atom.values if vals is None else vals + atom.values
    return GridFunction(phase.symbol_grid, vals)


def default_window(phase: PhaseGrid) -> GridFunction:
    """Centered Gaussian window, truncation-safe down to n = 16."""
    return gaussian_atom(phase, (0.0,) * (2 * phase.d), (0.0,) * (2 * phase.d), 0.45)


def _fold(symbols: Sequence[GridFunction], product) -> GridFunction:
    if not symbols:
        raise GridError("need at least one symbol")
    return functools.reduce(product, symbols)


def nfold_product(symbols: Sequence[GridFunction]) -> GridFunction:
    """Left fold of the Weyl product (associative up to roundoff)."""
    return _fold(symbols, lambda a, b: pseudo_product(a, b, 0.5))  # perfbench counts these calls


def nfold_twisted(symbols: Sequence[GridFunction]) -> GridFunction:
    return _fold(symbols, twisted_convolution)


# -- STFT integral representation ---------------------------------------------

def _as_pair_matrix(T: STFTTensor) -> np.ndarray:
    """``F(X, Y) = V(X + Y, X - Y)`` flattened to a (n^{2d} x n^{2d}) matrix."""
    g = T.shift_grid
    n, dim = g.count, g.dim
    x = np.ix_(*[np.arange(n)] * (2 * dim))  # X axes, then Y axes
    shift = tuple((x[ax] + x[dim + ax] - n // 2) % n for ax in range(dim))
    freq = tuple((x[ax] - x[dim + ax] + n // 2) % n for ax in range(dim))
    return T.values[shift + freq].reshape(n**dim, n**dim)


def _sigma_table(grid: Grid) -> np.ndarray:
    """``S[flat(A), flat(B)] = exp(2i sigma(A, B))`` over all grid point pairs."""
    n, d = grid.count, grid.dim // 2
    flat = np.indices(grid.shape).reshape(grid.dim, -1).T - n // 2  # (P, 2d) integer coords
    pos, frq = flat[:, :d], flat[:, d:]
    # 2 sigma(A, B) = (2 pi / n) * sum_i (b_pos_i * a_frq_i - a_pos_i * b_frq_i)
    s = frq @ pos.T - pos @ frq.T
    return np.exp(2j * np.pi * s / n)


def stft_integral_representation(symbols: Iterable[GridFunction],
                                 window: GridFunction) -> np.ndarray:
    """Quadrature of the product representation of paired STFTs.

    Each factor's symplectic STFT against ``window`` is built at its step of
    the fold, and ``symbols`` is consumed once; the output ``out[X_N, X_0]``
    equals, up to the representation identity, the paired STFT of the N-fold
    product taken against ``window_for_representation(window, N)``.  The cost
    is (N - 1) n^{6d} multiply-adds, and the fold keeps at most four
    n^{2d}-square matrices alive for any N.
    """
    g, S = window.grid, _sigma_table(window.grid)
    N = 0
    for N, a in enumerate(symbols, start=1):
        F = _as_pair_matrix(symplectic_stft(a, window))
        # phase telescopes to prod_j S[x_j, x_{j+1}] * conj(S)[x_1, x_0] * conj(S)[x_0, x_N]
        if N == 1:
            M = F * np.conj(S)  # G1[x_1, x_0]
        else:
            F *= S.T  # attach F_{j+1}[x_{j+1}, x_j] S[x_j, x_{j+1}]
            M = F @ M
        del F
    if N < 2:
        raise GridError("representation needs at least two factors")
    M *= g.quadrature_weight ** (N - 1)
    M *= np.conj(S).T
    return M.reshape(g.shape + g.shape)


def paired_stft(a: GridFunction, window: GridFunction) -> np.ndarray:
    """Symplectic STFT re-indexed to the pairing convention ``(X+Y, X-Y)``."""
    return _as_pair_matrix(symplectic_stft(a, window)).reshape(a.grid.shape + a.grid.shape)


def window_for_representation(window: GridFunction, N: int) -> GridFunction:
    """Scaled N-fold Weyl product of ``window`` entering the representation identity."""
    out = nfold_product([window] * N)
    return GridFunction(out.grid, (math.pi ** ((N - 1) * (window.grid.dim // 2))) * out.values)


# -- ratio experiments ---------------------------------------------------------

@dataclass(frozen=True)
class RatioConfig:
    """One norm-ratio probe: exponent tuples, weights, product mode, measure.

    ``norm_specs`` holds one mixed norm per slot, built once: slot ``j >= 1``
    is ``(p_j, q_j, w_j)`` on the j-th factor, slot 0 the conjugate pair with
    ``1/w_0`` on the product; the order is ``modulation`` in weyl mode and
    ``amalgam`` in twist mode."""

    p: ExponentTuple
    q: ExponentTuple
    weights: tuple[WeightSpec, ...]
    mode: str = "weyl"  # "weyl" (quantized products, M-norms) or "twist" (W-norms)
    measure: str = "quadrature"
    label: str = ""
    norm_specs: tuple[MixedNormSpec, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("weyl", "twist"):
            raise GridError(f"unknown ratio mode {self.mode!r}")
        require_same_n(self.p, self.q)
        if len(self.weights) != len(self.p):
            raise WeightError(f"need one weight per tuple slot: got {len(self.weights)} "
                              f"weights for {len(self.p)} slots")
        order = "modulation" if self.mode == "weyl" else "amalgam"
        product = MixedNormSpec(self.p[0].conjugate(), self.q[0].conjugate(), order,
                                self.weights[0].reciprocal(), self.measure)
        object.__setattr__(self, "norm_specs", (product,) + tuple(
            MixedNormSpec(self.p[j], self.q[j], order, self.weights[j], self.measure)
            for j in range(1, len(self.weights))))


@dataclass(frozen=True)
class RatioReport:
    """Norm ratios of one probe: its config, its verdict and one ratio per sample.

    ``verdict`` is the probe's condition (``thm-B``, or ``twist`` in twist mode),
    checked once before sampling.  A ratio is None where a factor norm is zero.
    """

    config: RatioConfig
    grid_n: int
    seed: int
    verdict: ConditionReport
    ratios: tuple  # float or None per sample

    @property
    def label(self) -> str:
        return self.config.label or f"{self.config.mode}:{self.config.p}|{self.config.q}"

    def _finite(self) -> np.ndarray:
        return np.asarray([r for r in self.ratios if r is not None], dtype=float)

    @property
    def max_ratio(self) -> float:
        """Largest ratio; 0.0 when every sample is degenerate (ratios are >= 0)."""
        return float(np.max(self._finite(), initial=0.0))

    def as_dict(self) -> dict:
        cfg, finite = self.config, self._finite()
        return {
            "label": self.label,
            "mode": cfg.mode,
            "measure": cfg.measure,
            "p": str(cfg.p),
            "q": str(cfg.q),
            "weights": [w.literal() for w in cfg.weights],
            "N": cfg.p.n_factors,
            "grid_n": self.grid_n,
            "seed": self.seed,
            "condition": self.verdict.criterion,
            "condition_holds": self.verdict.holds,
            "ratios": [r if r is None else float(r) for r in self.ratios],
            "max_ratio": self.max_ratio,
            "mean_ratio": float(finite.mean()) if finite.size else 0.0,
            "quantiles": {f"q{int(100 * t)}": float(np.quantile(finite, t))
                          for t in (0.5, 0.9, 1.0) if finite.size},
        }

    @staticmethod
    def to_csv(reports: Sequence[RatioReport]) -> str:
        """One header, then one row per sample of each report in turn."""
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerow(["sample", "ratio", "label", "mode", "p", "q", "grid_n", "seed"])
        for rep in reports:
            for k, r in enumerate(rep.ratios):
                writer.writerow([k, "" if r is None else repr(float(r)), rep.label,
                                 rep.config.mode, rep.config.p, rep.config.q, rep.grid_n, rep.seed])
        return buf.getvalue()


def _sample_ratios(configs: Sequence[RatioConfig], symbols: Sequence[GridFunction],
                   window: GridFunction) -> list:
    """Ratios of all configs on one symbol tuple.  Each tensor is built when due,
    gives every asking config its norm in one ``stft_norms`` call, and is dropped."""
    factor_norms = [[] for _ in configs]  # per config, up to its first zero
    for j, symbol in enumerate(symbols, start=1):
        asking = [i for i, vals in enumerate(factor_norms) if 0.0 not in vals]
        if not asking:
            break
        specs = [configs[i].norm_specs[j] for i in asking]
        for i, val in zip(asking, stft_norms(symbol, window, specs)):
            factor_norms[i].append(val)
    numers = {}  # product norm per config that has no zero factor norm
    for mode in ("weyl", "twist"):
        asking = [i for i, cfg in enumerate(configs)
                  if cfg.mode == mode and 0.0 not in factor_norms[i]]
        if not asking:
            continue
        product = nfold_product(symbols) if mode == "weyl" else nfold_twisted(symbols)
        specs = [configs[i].norm_specs[0] for i in asking]
        numers.update(zip(asking, stft_norms(product, window, specs)))
    return [numers[i] / math.prod(vals) if i in numers else None
            for i, vals in enumerate(factor_norms)]


def ratio_experiment_multi(configs: Sequence[RatioConfig], ensemble: EnsembleSpec,
                           phase: PhaseGrid) -> list[RatioReport]:
    """Run several ratio probes over one shared ensemble.

    Sample ``k`` consumes symbols ``[k*N, (k+1)*N)`` of the ensemble; the
    expensive transforms (Weyl-quantized products, STFTs against
    ``default_window``) are computed once per sample and shared across
    configs.  Samples evaluate in parallel on one thread per CPU this process
    may run on (``_thread_count``); aggregation is ordered and each thread has
    its own arena, so results are schedule-independent.
    """
    if not configs:
        return []
    n_factors = configs[0].p.n_factors
    if any(cfg.p.n_factors != n_factors for cfg in configs):
        raise GridError("all configs in one run must share N")
    # a config with no verdict (an even N, a quasi-Banach tuple) fails before any sampling
    verdicts = [check_conditions("thm-B" if cfg.mode == "weyl" else "twist", cfg.p, cfg.q)
                for cfg in configs]
    window = default_window(phase)
    symbols = ensemble_generate(ensemble, phase)
    n_samples = len(symbols) // n_factors
    groups = [symbols[k * n_factors:(k + 1) * n_factors] for k in range(n_samples)]
    threads = min(_thread_count(), len(groups))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: only when used
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda grp: _sample_ratios(configs, grp, window), groups))
    else:
        rows = [_sample_ratios(configs, grp, window) for grp in groups]
    return [RatioReport(cfg, phase.n, ensemble.seed, verdict, tuple(row[i] for row in rows))
            for i, (cfg, verdict) in enumerate(zip(configs, verdicts))]
