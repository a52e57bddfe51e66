"""Command-line front end.

Subcommands
-----------
``drift``           run the drift check's ratio probes over a grid ladder, and
                    the counting-measure endpoint check
``exponents``       evaluate one boundedness condition on an exponent pair
``identities``      run the transform/product identity suite
``interpolate``     construct an interpolation certificate for a tuple pair
``representation``  check the STFT integral representation of products
``ratio``           run a norm-ratio experiment
``sweep``           exhaustive/randomized exponent-combinatorics sweeps

Every run emits one JSON report; ``ratio`` and ``drift`` take ``--emit csv``
for their per-sample table instead.  Reports are byte-identical across runs
with equal configuration and seed, except for the segregated ``timing`` block.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import __version__
from .exponents import (
    CRITERIA,
    ExponentError,
    ExponentTuple,
    check_conditions,
    construct_interpolation,
)
from .grids import GridError, _thread_count, make_grid
from .lab import EnsembleSpec, RatioConfig, RatioReport, ratio_experiment_multi
from .stft import _fits, _rows_per_block
from .weights import WeightError, parse_weight_list, unit_weight
from . import suites

SCHEMA_VERSION = 1


def _run(args) -> int:
    """Run one subcommand and write its report; the exit code follows the checks.

    ``args.func`` returns ``(config, checks, sections, csv_text)``: the
    report's ``config``, its :class:`suites.Check` rows, any extra top-level
    report sections, and the CSV form (None if there is none; only the
    commands with one take ``--emit``).  ``--out`` is opened before the
    command runs, so a path that cannot be written costs no computation; it
    is opened for appending and a regular file is emptied only when the
    report is written, so a failed run leaves an existing file as it was and
    removes a file that it created.
    """
    created = bool(args.out) and not os.path.exists(args.out)
    try:
        with open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            config, checks, sections, csv_text = args.func(args)
            report = {
                "artifact": {"name": "phaselab", "version": __version__, "schema": SCHEMA_VERSION},
                "command": args.command,
                "config": config,
                "checks": [c.as_dict() for c in checks],
                **sections,
                "timing": {"total_s": time.perf_counter() - args.t0, "cpus": _thread_count()},
            }
            payload = (csv_text if getattr(args, "emit", "json") == "csv"
                       else json.dumps(report, sort_keys=True, indent=2) + "\n")
            if args.out and os.path.isfile(args.out):
                fh.truncate(0)
            fh.write(payload)
    except BaseException:
        if created and os.path.exists(args.out):
            os.remove(args.out)
        raise
    return 0 if all(c.passed for c in checks) else 1


def _cmd_exponents(args):
    p, q = ExponentTuple.parse(args.p), ExponentTuple.parse(args.q)
    result = check_conditions(args.criterion, p, q)
    config = {"p": str(p), "q": str(q), "criterion": args.criterion}
    check = suites.Check(f"condition[{args.criterion}]", 0.0 if result.holds else 1.0,
                         None, result.holds)
    return config, [check], {"condition": result.as_dict()}, None


def _cmd_interpolate(args):
    p, q = ExponentTuple.parse(args.p), ExponentTuple.parse(args.q)
    cert = construct_interpolation(p, q)
    check = suites.Check("certificate-consistency", cert.residual, 1e-12,
                         (not cert.feasible) or cert.residual <= 1e-12)
    return {"p": str(p), "q": str(q)}, [check], {"certificate": cert.as_dict()}, None


def _cmd_identities(args):
    checks = []
    checks += suites.suite_involution(seed=args.seed)
    checks += suites.suite_convention(seed=args.seed + 1)
    checks += suites.suite_products(n=args.grid, seed=args.seed + 2)
    checks += suites.suite_routes(seed=args.seed + 3)
    checks += suites.suite_kernel_factorization(seed=args.seed + 4)
    return {"grid": args.grid, "seed": args.seed}, checks, {}, None


def _cmd_representation(args):
    checks = suites.suite_representation(n=args.grid, seed=args.seed)
    return {"grid": args.grid, "seed": args.seed}, checks, {}, None


def _cmd_ratio(args):
    p, q = ExponentTuple.parse(args.p), ExponentTuple.parse(args.q)
    weights = parse_weight_list(args.weights) if args.weights else (unit_weight(),) * len(p)
    cfg = RatioConfig(p, q, weights, args.mode, args.measure, "cli")
    phase = make_grid(1, args.grid)
    ensemble = EnsembleSpec(seed=args.seed, count=args.samples * p.n_factors,
                            atoms_per_symbol=args.atoms,
                            center_radius=min(1.5, phase.extent / 8),
                            modulation_radius=min(0.8, phase.extent / 10))
    rep = ratio_experiment_multi([cfg], ensemble, phase)[0]
    finite = all(r is None or (r == r and r != float("inf")) for r in rep.ratios)
    config = {"p": str(p), "q": str(q), "weights": [w.literal() for w in cfg.weights],
              "mode": cfg.mode, "measure": cfg.measure, "grid": args.grid, "seed": args.seed,
              "samples": args.samples, "atoms": args.atoms}
    check = suites.Check("ratios-finite", 0.0 if finite else 1.0, None, bool(finite))
    return config, [check], {"ratio_report": rep.as_dict()}, RatioReport.to_csv([rep])


def _cmd_drift(args):
    checks, *ladder = suites.drift_ratio_checks(seed=args.seed, samples=args.samples,
                                                grids=args.grids)
    checks += suites.endpoint_ratio_check(seed=args.seed)
    reports = [rep for grid_reports in ladder for rep in grid_reports]
    config = {"grids": list(args.grids), "samples": args.samples, "seed": args.seed}
    return (config, checks, {"ratio_reports": [rep.as_dict() for rep in reports]},
            RatioReport.to_csv(reports))


def _cmd_sweep(args):
    checks = []
    checks += suites.suite_exponent_combinatorics(trials=args.trials, seed=args.seed)
    checks += suites.suite_worked_instance()
    checks += suites.suite_interpolation(trials=args.cert_trials, seed=args.seed + 1)
    config = {"trials": args.trials, "cert_trials": args.cert_trials, "seed": args.seed}
    return config, checks, {}, None


def _with_config(argv: list[str], config: dict) -> list[str]:
    """``argv`` with ``config`` spelt as flags right after the subcommand name.

    ``{"cert_trials": 5}`` becomes ``--cert-trials=5``, so the parser checks
    each value, the required flags and the key names as it does command-line
    text, and a flag given explicitly later on the line wins.  A list is
    joined with commas (``--grids=16,32``), so a report's own ``config``
    replays it.  A ``null`` value leaves the flag at its default.
    """
    flags = [f"--{key.replace('_', '-')}={','.join(map(str, value)) if isinstance(value, list) else value}"
             for key, value in config.items() if value is not None]
    i = 0
    while i < len(argv) and argv[i].startswith("-"):
        i += 2 if argv[i] == "--config" else 1
    return argv[:i + 1] + flags + argv[i + 1:]


def _at_least(minimum: int):
    """argparse type for an integer no smaller than ``minimum``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _grid_size(minimum: int, whole: bool = False):
    """argparse type for an even grid size no smaller than ``minimum`` whose
    d = 1 STFT (two axes) has shift rows within the materialization limit,
    and with ``whole`` is itself within it, by ``symplectic_stft``'s rule, so
    that an unusable grid is refused before any numerics run."""
    at_least = _at_least(minimum)

    def size(text: str) -> int:
        value = at_least(text)
        if value % 2:
            raise argparse.ArgumentTypeError(f"must be even, got {value}")
        if not _rows_per_block(value, 2):
            raise argparse.ArgumentTypeError(
                f"one STFT shift row at n = {value} exceeds the materialization limit")
        if whole and not _fits(make_grid(1, value).symbol_grid):
            raise argparse.ArgumentTypeError(
                f"the STFT at n = {value} exceeds the materialization limit")
        return value
    return size


def _grid_ladder(text: str) -> tuple[int, ...]:
    """argparse type for comma-separated grid sizes, each under ``ratio --grid``'s rule."""
    return tuple(map(_grid_size(16), text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Desk-scale phase-space numerics: transforms, symbol products, "
                    "exponent conditions and norm-ratio experiments.",
    )
    parser.add_argument("--config", help="JSON file with default values for the flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeded=True, tabular=False):
        if tabular:  # only a tabular report has a CSV form
            sp.add_argument("--emit", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="output path (default: stdout)")
        if seeded:  # exponents and interpolate draw no random numbers
            sp.add_argument("--seed", type=_at_least(0), default=0)

    sp = sub.add_parser("exponents", help="evaluate a boundedness condition")
    sp.add_argument("--p", required=True, help="comma-separated exponents, e.g. 2,inf,2,2")
    sp.add_argument("--q", required=True)
    sp.add_argument("--criterion", choices=CRITERIA, default="thm-B")
    common(sp, seeded=False)
    sp.set_defaults(func=_cmd_exponents)

    sp = sub.add_parser("interpolate", help="construct an interpolation certificate")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    common(sp, seeded=False)
    sp.set_defaults(func=_cmd_interpolate)

    sp = sub.add_parser("identities", help="transform and product identity suite")
    # even grids; the product identity suite is capped at n = 32
    sp.add_argument("--grid", type=int, choices=range(4, 33, 2), default=32)
    common(sp)
    sp.set_defaults(func=_cmd_identities)

    sp = sub.add_parser("representation", help="STFT integral representation check")
    sp.add_argument("--grid", type=_grid_size(4, whole=True), default=8)
    common(sp)
    sp.set_defaults(func=_cmd_representation)

    sp = sub.add_parser("ratio", help="norm-ratio experiment")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--weights", help="comma-separated weight literals (one per slot)")
    sp.add_argument("--mode", choices=("weyl", "twist"), default="weyl")
    sp.add_argument("--measure", choices=("quadrature", "counting"), default="quadrature")
    # default_window is truncation-safe from n = 16 up
    sp.add_argument("--grid", type=_grid_size(16), default=16)
    sp.add_argument("--samples", type=_at_least(1), default=50)
    sp.add_argument("--atoms", type=_at_least(1), default=2)
    common(sp, tabular=True)
    sp.set_defaults(func=_cmd_ratio)

    sp = sub.add_parser("drift", help="drift check's ratio probes over a grid ladder")
    sp.add_argument("--grids", type=_grid_ladder, default=(16, 32))
    sp.add_argument("--samples", type=_at_least(1), default=100)
    common(sp, tabular=True)
    sp.set_defaults(func=_cmd_drift)

    sp = sub.add_parser("sweep", help="exponent combinatorics sweeps")
    sp.add_argument("--trials", type=_at_least(1), default=20000)
    sp.add_argument("--cert-trials", type=_at_least(1), default=200)
    common(sp)
    sp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    pre = argparse.ArgumentParser(prog="phaselab", add_help=False)
    pre.add_argument("--config")
    config_path = pre.parse_known_args(argv)[0].config
    if config_path:
        try:
            with open(config_path) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print("config error: top-level JSON object expected", file=sys.stderr)
            return 2
        argv = _with_config(argv, config)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (or the help)
        return exc.code
    args.t0 = time.perf_counter()
    try:
        return _run(args)
    except (ExponentError, GridError, WeightError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
