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
import contextlib
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


def _run(args) -> int:
    """Run one subcommand and write its report; the exit code follows the checks.

    ``args.func`` returns ``(config, checks, sections, csv_text)``: the
    report's ``config``, its :class:`suites.Check` rows, any extra top-level
    report sections, and the CSV form (None if there is none; the parser
    offers ``--emit csv`` only where there is one).  ``--out`` is opened
    before the command runs, so a path that cannot be written costs no
    computation; it is opened for appending and emptied only when the report
    is written, so a failed run leaves an existing file as it was (and a new
    path as an empty file).
    """
    with open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        config, checks, sections, csv_text = args.func(args)
        report = {
            "artifact": {"name": "phaselab", "version": __version__, "schema": SCHEMA_VERSION},
            "command": args.command,
            "config": config,
            "checks": [c.as_dict() for c in checks],
            **sections,
            "timing": {"total_s": time.time() - args.t0},
        }
        payload = (csv_text if args.emit == "csv"
                   else json.dumps(report, sort_keys=True, indent=2) + "\n")
        if args.out:
            fh.truncate(0)
        fh.write(payload)
    return 0 if all(c.passed for c in checks) else 1


def _parse_pair(args) -> tuple[ExponentTuple, ExponentTuple]:
    """``--p`` and ``--q``; q must have as many factors as p."""
    p, q = ExponentTuple.parse(args.p), ExponentTuple.parse(args.q)
    if q.n_factors != p.n_factors:
        raise ConfigError(f"tuple {args.q!r} has N = {q.n_factors}, expected N = {p.n_factors}")
    return p, q


def _cmd_exponents(args):
    p, q = _parse_pair(args)
    result = check_conditions(args.criterion, p, q)
    config = {"n": p.n_factors, "p": str(p), "q": str(q), "criterion": args.criterion}
    check = suites.Check(f"condition[{args.criterion}]", 0.0 if result.holds else 1.0,
                         None, result.holds)
    return config, [check], {"condition": result.as_dict()}, None


def _cmd_interpolate(args):
    p, q = _parse_pair(args)
    cert = construct_interpolation(p, q)
    consistent = (not cert.feasible) or cert.residual <= args.tolerance
    check = suites.Check("certificate-consistency", cert.residual, args.tolerance,
                         bool(consistent))
    return {"p": str(p), "q": str(q)}, [check], {"certificate": cert.as_dict()}, None


def _cmd_identities(args):
    if args.grid > 32:
        raise ConfigError("the identity product suite is capped at --grid 32")
    checks = []
    checks += suites.suite_involution(seed=args.seed)
    checks += suites.suite_convention(seed=args.seed + 1)
    checks += suites.suite_products(n=args.grid, seed=args.seed + 2)
    checks += suites.suite_routes(seed=args.seed + 3)
    checks += suites.suite_kernel_factorization(seed=args.seed + 4)
    return {"grid": args.grid, "seed": args.seed}, checks, {}, None


def _cmd_representation(args):
    if args.grid > 8:
        raise ConfigError("representation quadrature is capped at --grid 8")
    checks = suites.suite_representation(n=args.grid, seed=args.seed)
    return {"grid": args.grid, "seed": args.seed}, checks, {}, None


def _cmd_ratio(args):
    p, q = _parse_pair(args)
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
    config = {
        "p": str(p), "q": str(q), "weights": list(rep.weights), "mode": args.mode,
        "measure": args.measure, "grid": args.grid, "seed": args.seed,
        "samples": args.samples, "atoms": args.atoms,
    }
    check = suites.Check("ratios-finite", 0.0 if finite else 1.0, None, bool(finite))
    return config, [check], {"ratio_report": rep.as_dict()}, rep.to_csv()


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

    def common(sp, emits=("json",)):
        sp.add_argument("--emit", choices=emits, default="json")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--seed", type=_at_least(0), default=0)

    sp = sub.add_parser("exponents", help="evaluate a boundedness condition")
    sp.add_argument("--p", required=True, help="comma-separated exponents, e.g. 2,inf,2,2")
    sp.add_argument("--q", required=True)
    sp.add_argument("--criterion", choices=CRITERIA, default="thm-B")
    common(sp)
    sp.set_defaults(func=_cmd_exponents)

    sp = sub.add_parser("interpolate", help="construct an interpolation certificate")
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
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--weights", help="comma-separated weight literals (one per slot)")
    sp.add_argument("--mode", choices=("weyl", "twist"), default="weyl")
    sp.add_argument("--measure", choices=("quadrature", "counting"), default="quadrature")
    # default_window is truncation-safe from n = 16 up
    sp.add_argument("--grid", type=_at_least(16), default=16)
    sp.add_argument("--samples", type=_at_least(1), default=50)
    sp.add_argument("--atoms", type=_at_least(1), default=2)
    common(sp, emits=("json", "csv"))
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
        return _run(args)
    except (ConfigError, ExponentError, GridError, WeightError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
