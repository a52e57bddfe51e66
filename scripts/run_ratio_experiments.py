#!/usr/bin/env python3
"""Grid-refinement norm-ratio experiments for admissible exponent tuples.

Runs the drift check's probes (``suites.drift_configs``): quantized-product
probes (modulation-type norms) and twisted-convolution probes (amalgam-type
norms) over a shared deterministic ensemble on each grid of ``--grids``,
printing drift factors against the first grid and writing plot-ready CSV.
"""

import argparse
import csv
import pathlib
import sys

from phaselab import suites
from phaselab.cli import _at_least
from phaselab.grids import make_grid
from phaselab.lab import EnsembleSpec, ratio_experiment_multi


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=_at_least(1), default=100)
    ap.add_argument("--seed", type=_at_least(0), default=0)
    ap.add_argument("--grids", default="16,32")
    ap.add_argument("--out", default="results/ratios.csv")
    args = ap.parse_args()

    configs = suites.drift_configs()

    grids = [int(g) for g in args.grids.split(",")]
    budget = min(make_grid(1, n).extent for n in grids) / 4
    ens = EnsembleSpec(seed=args.seed, count=3 * args.samples, atoms_per_symbol=2,
                       width_range=(0.35, 0.5),
                       center_radius=min(1.0, 0.6 * budget),
                       modulation_radius=min(0.7, 0.4 * budget))
    per_grid = {}
    for n in grids:
        per_grid[n] = ratio_experiment_multi(configs, ens, make_grid(1, n))
        print(f"grid n={n} done")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "grid_n", "sample", "ratio", "condition_holds"])
        for n, reports in per_grid.items():
            for rep in reports:
                for k, r in enumerate(rep.ratios):
                    writer.writerow([rep.config_label, n, k,
                                     "" if r is None else repr(float(r)),
                                     rep.condition_holds])
    print(f"wrote {out}")

    base = grids[0]
    for i, cfg in enumerate(configs):
        r0 = per_grid[base][i]
        line = f"{cfg.label:16s} cond={r0.condition_holds} max[{base}]={r0.max_ratio:.4g}"
        for n in grids[1:]:
            rn = per_grid[n][i]
            drift = (max(rn.max_ratio / r0.max_ratio, r0.max_ratio / rn.max_ratio)
                     if r0.max_ratio and rn.max_ratio else float("nan"))
            line += f" max[{n}]={rn.max_ratio:.4g} drift={drift:.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
