"""Command-line front end.

Subcommands
-----------
``exponents``       evaluate one boundedness condition on an exponent pair
``identities``      run the transform/product identity suite
``interpolate``     construct an interpolation certificate for a tuple pair
``representation``  check the STFT integral representation of products
``ratio``           run a norm-ratio experiment
``sweep``           exhaustive/randomized exponent-combinatorics sweeps

Every run emits one JSON report (or CSV with ``--emit csv`` where a tabular
form exists).  Reports are byte-identical across runs with equal
configuration and seed, except for the segregated ``timing`` block.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
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
from .grids import GridError, make_grid
from .lab import EnsembleSpec, RatioConfig, ratio_experiment_multi
from .weights import WeightError, parse_weight_list, unit_weight
from . import suites

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _report_skeleton(command: str, config: dict) -> dict:
    return {
        "artifact": {"name": "phaselab", "version": __version__, "schema": SCHEMA_VERSION},
        "command": command,
        "config": config,
        "checks": [],
    }


def _emit(report: dict, args, csv_text: str | None = None) -> None:
    if args.emit == "csv":
        if csv_text is None:
            raise ConfigError("this command has no CSV form; use --emit json")
        payload = csv_text
    else:
        payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _exit_code(report: dict) -> int:
    return 0 if all(c["pass"] for c in report["checks"]) else 1


def _parse_tuple(text: str, n: int | None) -> ExponentTuple:
    tup = ExponentTuple.parse(text)
    if n is not None and tup.n_factors != n:
        raise ConfigError(f"tuple {text!r} has N = {tup.n_factors}, expected N = {n}")
    return tup


def _cmd_exponents(args) -> int:
    p = _parse_tuple(args.p, args.n)
    q = _parse_tuple(args.q, args.n if args.n is not None else p.n_factors)
    if p.n_factors != q.n_factors:
        raise ConfigError("p and q must have the same length")
    result = check_conditions(args.criterion, p, q)
    report = _report_skeleton("exponents", {
        "n": p.n_factors, "p": str(p), "q": str(q), "criterion": args.criterion,
    })
    report["checks"].append({
        "name": f"condition[{args.criterion}]",
        "value": 0.0 if result.holds else 1.0,
        "tolerance": None,
        "pass": result.holds,
    })
    report["condition"] = result.as_dict()
    report["timing"] = {"total_s": time.time() - args.t0}
    _emit(report, args)
    return _exit_code(report)


def _cmd_interpolate(args) -> int:
    p = _parse_tuple(args.p, args.n)
    q = _parse_tuple(args.q, args.n if args.n is not None else p.n_factors)
    cert = construct_interpolation(p, q)
    report = _report_skeleton("interpolate", {"p": str(p), "q": str(q)})
    consistent = (not cert.feasible) or cert.residual <= args.tolerance
    report["checks"].append({
        "name": "certificate-consistency",
        "value": cert.residual,
        "tolerance": args.tolerance,
        "pass": bool(consistent),
    })
    report["certificate"] = cert.as_dict()
    report["timing"] = {"total_s": time.time() - args.t0}
    _emit(report, args)
    return _exit_code(report)


def _cmd_identities(args) -> int:
    checks = []
    checks += suites.suite_involution(seed=args.seed)
    checks += suites.suite_convention(seed=args.seed + 1)
    checks += suites.suite_products(n=min(args.grid, 32), seed=args.seed + 2)
    checks += suites.suite_routes(seed=args.seed + 3)
    checks += suites.suite_kernel_factorization(seed=args.seed + 4)
    report = _report_skeleton("identities", {"grid": args.grid, "seed": args.seed})
    report["checks"] = [c.as_dict() for c in checks]
    report["timing"] = {"total_s": time.time() - args.t0}
    _emit(report, args)
    return _exit_code(report)


def _cmd_representation(args) -> int:
    if args.grid > 8:
        raise ConfigError("representation quadrature is capped at --grid 8")
    checks = suites.suite_representation(n=args.grid, seed=args.seed)
    report = _report_skeleton("representation", {"grid": args.grid, "seed": args.seed})
    report["checks"] = [c.as_dict() for c in checks]
    report["timing"] = {"total_s": time.time() - args.t0}
    _emit(report, args)
    return _exit_code(report)


def _cmd_ratio(args) -> int:
    p = _parse_tuple(args.p, args.n)
    q = _parse_tuple(args.q, args.n if args.n is not None else p.n_factors)
    if p.n_factors != q.n_factors:
        raise ConfigError("p and q must have the same length")
    n_slots = p.n_factors + 1
    weights = (parse_weight_list(args.weights, n_slots)
               if args.weights else (unit_weight(),) * n_slots)
    phase = make_grid(1, args.grid)
    ensemble = EnsembleSpec(seed=args.seed, count=args.samples * p.n_factors,
                            atoms_per_symbol=args.atoms,
                            width_range=(0.35, 0.5),
                            center_radius=min(1.5, phase.extent / 8),
                            modulation_radius=min(0.8, phase.extent / 10))
    cfg = RatioConfig(p, q, tuple(weights), args.mode, args.measure, "cli")
    rep = ratio_experiment_multi([cfg], ensemble, phase)[0]
    finite = all(r is None or (r == r and r != float("inf")) for r in rep.ratios)
    report = _report_skeleton("ratio", {
        "p": str(p), "q": str(q), "weights": list(rep.weights), "mode": args.mode,
        "measure": args.measure, "grid": args.grid, "seed": args.seed,
        "samples": args.samples, "atoms": args.atoms,
    })
    report["checks"].append({
        "name": "ratios-finite", "value": 0.0 if finite else 1.0,
        "tolerance": None, "pass": bool(finite),
    })
    report["ratio_report"] = rep.as_dict()
    report["timing"] = {"total_s": time.time() - args.t0}
    _emit(report, args, csv_text=rep.to_csv())
    return _exit_code(report)


def _cmd_sweep(args) -> int:
    checks = []
    checks += suites.suite_exponent_combinatorics(trials=args.trials, seed=args.seed)
    checks += suites.suite_worked_instance()
    checks += suites.suite_interpolation(trials=args.cert_trials, seed=args.seed + 1)
    report = _report_skeleton("sweep", {
        "trials": args.trials, "cert_trials": args.cert_trials, "seed": args.seed,
    })
    report["checks"] = [c.as_dict() for c in checks]
    report["timing"] = {"total_s": time.time() - args.t0}
    _emit(report, args)
    return _exit_code(report)


def _with_config(argv: list[str], config: dict) -> list[str]:
    """``argv`` with ``config`` spelt as flags right after the subcommand name.

    ``{"cert_trials": 5}`` becomes ``--cert-trials=5``, so the parser checks
    each value, the required flags and the key names as it does command-line
    text, and a flag given explicitly later on the line wins.  A ``null``
    value leaves the flag at its default.
    """
    flags = [f"--{key.replace('_', '-')}={value}"
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Desk-scale phase-space numerics: transforms, symbol products, "
                    "exponent conditions and norm-ratio experiments.",
    )
    parser.add_argument("--config", help="JSON file with default values for the flags")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--emit", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--seed", type=_at_least(0), default=0)

    sp = sub.add_parser("exponents", help="evaluate a boundedness condition")
    sp.add_argument("--n", type=int, default=None, help="number of factors N")
    sp.add_argument("--p", required=True, help="comma-separated exponents, e.g. 2,inf,2,2")
    sp.add_argument("--q", required=True)
    sp.add_argument("--criterion", choices=CRITERIA, default="thm-B")
    common(sp)
    sp.set_defaults(func=_cmd_exponents)

    sp = sub.add_parser("interpolate", help="construct an interpolation certificate")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--tolerance", type=float, default=1e-12)
    common(sp)
    sp.set_defaults(func=_cmd_interpolate)

    sp = sub.add_parser("identities", help="transform and product identity suite")
    sp.add_argument("--grid", type=int, default=32)
    common(sp)
    sp.set_defaults(func=_cmd_identities)

    sp = sub.add_parser("representation", help="STFT integral representation check")
    sp.add_argument("--grid", type=int, default=8)
    common(sp)
    sp.set_defaults(func=_cmd_representation)

    sp = sub.add_parser("ratio", help="norm-ratio experiment")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--weights", help="comma-separated weight literals (one per slot)")
    sp.add_argument("--mode", choices=("weyl", "twist"), default="weyl")
    sp.add_argument("--measure", choices=("quadrature", "counting"), default="quadrature")
    sp.add_argument("--grid", type=int, default=16)
    sp.add_argument("--samples", type=_at_least(1), default=50)
    sp.add_argument("--atoms", type=_at_least(1), default=2)
    common(sp)
    sp.set_defaults(func=_cmd_ratio)

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
        args, remaining = build_parser().parse_known_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (or the help)
        return exc.code
    if remaining:
        print(f"unrecognized arguments: {' '.join(remaining)}", file=sys.stderr)
        return 2
    args.t0 = time.time()
    try:
        return args.func(args)
    except (ConfigError, ExponentError, GridError, WeightError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
