#!/usr/bin/env python3
"""phaselab benchmark runner.

    python3 perfbench/run.py --workload drift --seed 3 --seconds 50 --trace 0

Runs one workload as a closed loop (passes back to back, one thread) for
``--seconds`` and prints a readable summary followed, as the last line, by
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (fresh process
until phaselab is imported and ready, median of several spawns),
``wall_norm_s`` (median pass), ``wall_tail_norm_s`` (the slowest pass that
still has ten slower ones beyond it, or the fastest pass when there are fewer
than eleven) and ``peak_rss_mb``.  Pass times are normalised to a reference
host speed with the calibration kernel of ``calibrate.py``, timed before
every pass; the raw wall times are in the summary and the result file.
``fail_share`` is ``failed / attempted``.

``--trace 1`` wraps phaselab's public functions in spans (see ``tracer.py``)
and reports per-layer metrics per traced pass, checks the span counts against
the workload's configuration, and repeats the traced passes on a held-out
seed to show that the dominant layer does not depend on the seed.

``--workload all`` runs every workload in its own process and prints a table.
Details, files written and known gaps: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
from workloads import WORKLOADS, compare, input_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
HOLDOUT_SEED = 2
SETUP_SPAWNS = 21
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARS = ("PHASELAB_THREADS",) + BLAS_VARS
READY_SNIPPET = "import phaselab.cli, phaselab.suites; print('ready', flush=True)"

END_TO_END = {"setup_s": "s", "wall_norm_s": "s", "wall_tail_norm_s": "s", "peak_rss_mb": "MB"}
TRACED_FUNCTIONS = (
    "stft.symplectic_stft", "norms.mixed_norm", "weights.evaluate_grid",
    "weyl.twisted_convolution.fast",
    "grids.centered_character_sum", "grids.symplectic_fourier", "grids.gaussian_atom",
    "exponents.check_conditions",
)
SELF_ONLY = ("weyl.weyl_product", "weyl.pseudo_product",
             "lab.ensemble_generate", "lab.nfold_product", "lab.nfold_twisted",
             "lab.ratio_experiment_multi", "cli.main")
SUITES = ("drift_ratio_checks",)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad settings)."""


# -- environment ---------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def apply_thread_settings() -> dict:
    """Default every thread knob to 1 and refuse values above ``nproc``.

    Must run before numpy is imported.
    """
    cores = nproc()
    settings = {}
    for var in THREAD_VARS:
        raw = os.environ.setdefault(var, "1")
        try:
            value = int(raw)
        except ValueError:
            raise BenchError(f"{var}={raw!r} is not an integer") from None
        if not 1 <= value <= cores:
            raise BenchError(f"{var}={value} outside 1..nproc={cores}; refusing to run")
        settings[var] = value
    return settings


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "phaselab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(threads: dict, seeds: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_version,
        "threads": threads,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seeds": seeds,
    }


# -- measurement -----------------------------------------------------------------

def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until phaselab is imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", READY_SNIPPET], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise BenchError(f"fresh import of phaselab failed: {err.strip()[-500:]}")
    return elapsed


class Gate:
    """Correctness gate: every pass is one attempted operation."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference.get(workload.name, {})
        self.attempted = 0
        self.failed = 0
        self.digest_drift = 0  # passes whose report differs from the stored bytes
        self.first_digest: dict = {}
        self.repeats = 0
        self.messages: list[str] = []

    def _fail(self, seed: int, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{self.workload.name} input {seed}: {why}")

    def run(self, seed: int):
        """One pass; returns its Outcome, or None if it raised."""
        self.attempted += 1
        try:
            outcome = self.workload.run_pass(seed)
        except Exception:  # any failure inside the program is a failed operation
            self._fail(seed, "raised\n" + traceback.format_exc())
            return None
        if outcome.error:
            self._fail(seed, outcome.error)
            return outcome
        if not outcome.checks_pass:
            bad = [name for name, ok in outcome.checks if not ok]
            self._fail(seed, f"checks failed: {bad}")
            return outcome
        ref = self.reference.get(str(seed))
        if ref is not None:
            why = compare(outcome, ref)
            if why:
                self._fail(seed, why)
                return outcome
            self.digest_drift += outcome.digest != ref["digest"]
        if seed not in self.first_digest:
            self.first_digest[seed] = outcome.digest
        else:
            self.repeats += 1
            if self.first_digest[seed] != outcome.digest:
                self._fail(seed, "report differs from an earlier pass at the same input")
        return outcome


def timed_loop(run_pass, seeds: list[int], seconds: float) -> list[float]:
    """``run_pass(seed)`` cycling through ``seeds`` until ``seconds`` is spent
    (at least once); returns the pass times.

    A pass is not started when it would most likely end more than half a
    pass past the budget.
    """
    times: list[float] = []
    start = time.perf_counter()
    k = 0
    while True:
        seed = seeds[k % len(seeds)]
        outcome = run_pass(seed)
        if outcome is not None:
            times.append(outcome.seconds)
        k += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(times) if times else elapsed / k
        if elapsed + 0.5 * typical >= seconds:
            return times


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the slowest pass with TAIL_BEYOND slower ones beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[k], 100.0 * (k + 1) / n


def run_untraced(args, gate: Gate) -> dict:
    from calibrate import Calibrator, normalise  # imports numpy

    setup = [measure_setup()]
    gate.run(input_seeds(DEFAULT_SEED)[0])  # warm-up, checked against the stored reference
    seeds = input_seeds(args.seed)
    for seed in seeds:  # warm-up on this run's inputs
        gate.run(seed)
    # read before the calibration kernel first runs, so that its arrays
    # cannot set the peak
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibrator = Calibrator()
    calibrator.kernel()  # warm-up
    kernel_times: list[float] = []
    pass_times: list[float] = []
    # the remaining set-up samples are spread over the run, so that their
    # median, like the passes', covers the whole run
    spawn_every = args.seconds / SETUP_SPAWNS
    next_spawn = time.perf_counter() + spawn_every

    def calibrated_pass(seed):
        nonlocal next_spawn
        if len(setup) < SETUP_SPAWNS and time.perf_counter() >= next_spawn:
            setup.append(measure_setup())
            next_spawn += spawn_every
        kernel_times.append(calibrator.kernel())
        outcome = gate.run(seed)
        pass_times.append(outcome.seconds if outcome is not None else None)
        return outcome

    timed_loop(calibrated_pass, seeds, args.seconds)
    kernel_times.append(calibrator.kernel())
    while len(setup) < SETUP_SPAWNS:
        setup.append(measure_setup())
    kept = [i for i, t in enumerate(pass_times) if t is not None]
    if not kept:
        raise BenchError("no pass completed")
    normalised = [normalise(pass_times[i], kernel_times[i], kernel_times[i + 1]) for i in kept]
    raw = [pass_times[i] for i in kept]
    tail_value, tail_pct = tail(normalised)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_norm_s": statistics.median(normalised),
        "wall_tail_norm_s": tail_value,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    detail = {"setup_samples_s": setup, "pass_times_s": raw, "kernel_times_s": kernel_times,
              "normalised_pass_times_s": normalised, "wall_s": statistics.median(raw),
              "wall_tail_s": tail(raw)[0], "wall_tail_percentile": tail_pct,
              "kernel_s": statistics.median(kernel_times), "passes": len(normalised)}
    return {"metrics": metrics, "detail": detail}


# -- traced run --------------------------------------------------------------------

def _coverage(workload, summary: dict) -> list[str]:
    problems = []
    for name, want in workload.expected_calls().items():
        got = summary["calls"].get(name, 0)
        low, high = want if isinstance(want, tuple) else (want, want)
        if got < low or (high is not None and got > high):
            problems.append(f"{name}: {got} spans, configuration implies {want}")
    return problems


def _layer_self(summary: dict) -> dict:
    totals = dict.fromkeys(tracer.LAYERS, 0.0)
    for name, value in summary["self_s"].items():
        totals[name.split(".", 1)[0]] += value
    return totals


def _traced_phase(workload, gate: Gate, tr, seeds: list[int], seconds: float) -> dict:
    """Traced passes; returns per-pass means of every summary figure."""
    sums: dict = {"calls": {}, "self_s": {}, "incl_s": {}}
    scalars = ("stft.tensor_bytes", "norms.bytes_read", "norms.distinct_ratio")
    totals = dict.fromkeys(scalars, 0.0)
    problems: list[str] = []
    passes = 0

    def on_pass(seed):
        nonlocal passes
        passes += 1
        mark = tr.mark()
        outcome = gate.run(seed)
        summary = tr.summary(mark)
        for key in ("calls", "self_s", "incl_s"):
            for name, value in summary[key].items():
                sums[key][name] = sums[key].get(name, 0) + value
        for key in scalars:
            totals[key] += summary[key]
        problems.extend(_coverage(workload, summary))
        return outcome

    times = timed_loop(on_pass, seeds, seconds)
    n = passes
    mean = {key: {name: v / n for name, v in table.items()} for key, table in sums.items()}
    mean.update({key: v / n for key, v in totals.items()})
    layers = _layer_self(mean)
    return {"mean": mean, "times": times, "problems": problems, "layers": layers,
            "dominant": max(layers, key=layers.get)}


def run_traced(workload, args, gate: Gate) -> dict:
    holdout = args.holdout_seed if args.holdout_seed != args.seed else args.seed + 1
    gate.run(input_seeds(DEFAULT_SEED)[0])  # warm-up and stored-reference check
    third = args.seconds / 3.0
    untraced = timed_loop(gate.run, input_seeds(args.seed), third)
    tr = tracer.Tracer()
    tracer.install(tr)
    main = _traced_phase(workload, gate, tr, input_seeds(args.seed), third)
    held = _traced_phase(workload, gate, tr, input_seeds(holdout), third)
    mean = main["mean"]
    metrics = {}
    for name in TRACED_FUNCTIONS:
        metrics[f"{name}.calls"] = mean["calls"].get(name, 0)
        metrics[f"{name}.self_s"] = mean["self_s"].get(name, 0.0)
    metrics["stft.tensor_bytes"] = mean["stft.tensor_bytes"]
    metrics["norms.bytes_read"] = mean["norms.bytes_read"]
    metrics["norms.distinct_ratio"] = mean["norms.distinct_ratio"]
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = mean["self_s"].get(name, 0.0)
    for suite in SUITES:
        metrics[f"suites.{suite}.wall_s"] = mean["incl_s"].get(f"suites.{suite}", 0.0)
    for layer, value in main["layers"].items():
        metrics[f"layer.{layer}.self_s"] = value
    traced_wall = statistics.median(main["times"]) if main["times"] else 0.0
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - (statistics.median(untraced) if untraced else 0.0)
    metrics["trace.dominant_expected"] = int(main["dominant"] == workload.dominant)
    metrics["trace.holdout_dominant_same"] = int(main["dominant"] == held["dominant"])
    problems = main["problems"] + held["problems"]
    for problem in problems[:20]:
        gate.messages.append(f"coverage: {problem}")
    OUT.mkdir(exist_ok=True)
    tr.dump(OUT / f"spans-{workload.name}-seed{args.seed}.json")
    detail = {
        "holdout_seed": holdout,
        "dominant_layer": main["dominant"], "holdout_dominant_layer": held["dominant"],
        "expected_dominant_layer": workload.dominant,
        "layer_self_s": main["layers"], "holdout_layer_self_s": held["layers"],
        "untraced_pass_times_s": untraced, "traced_pass_times_s": main["times"],
        "holdout_pass_times_s": held["times"], "coverage_problems": len(problems),
        "per_function": {key: mean[key] for key in ("calls", "self_s", "incl_s")},
    }
    return {"metrics": metrics, "detail": detail, "coverage_ok": not problems}


# -- entry points ----------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("drift", "ratio32", "sweep", "identities", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--holdout-seed", type=int, default=HOLDOUT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.holdout_seed < 0:
        parser.error("seeds must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_summary(name: str, args, result: dict, gate: Gate, env: dict) -> None:
    print(f"perfbench workload={name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    detail = result["detail"]
    if args.trace == 0:
        m = result["metrics"]
        print(f"  setup_s           {m['setup_s']:.4f} s   median of {SETUP_SPAWNS} fresh imports "
              "spread over the run")
        print(f"  wall_norm_s       {m['wall_norm_s']:.4f} s   median of {detail['passes']} "
              f"passes at reference host speed (raw wall {detail['wall_s']:.4f} s)")
        print(f"  wall_tail_norm_s  {m['wall_tail_norm_s']:.4f} s   "
              f"p{detail['wall_tail_percentile']:.0f} of {detail['passes']} passes "
              f"(raw wall {detail['wall_tail_s']:.4f} s)")
        from calibrate import REFERENCE_S

        print(f"  calibration kernel median {detail['kernel_s']:.4f} s, reference "
              f"{REFERENCE_S:.4f} s")
        print(f"  peak_rss_mb       {m['peak_rss_mb']:.1f} MB")
    else:
        print(f"  dominant layer {detail['dominant_layer']} (expected "
              f"{detail['expected_dominant_layer']}), held-out seed "
              f"{detail['holdout_seed']}: {detail['holdout_dominant_layer']}")
        shares = detail["layer_self_s"]
        total = sum(shares.values()) or 1.0
        print("  self time per pass: " + ", ".join(
            f"{k} {v:.4f} s ({100 * v / total:.0f}%)"
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v > 0))
        print(f"  tracing overhead {result['metrics']['trace.overhead_s']:+.4f} s per pass; "
              f"coverage {'ok' if result['coverage_ok'] else 'FAILED'}")
    share = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"  fail_share        {share:.4g} share   {gate.failed} of {gate.attempted} operations; "
          f"{gate.digest_drift} passes differ in bytes from the stored reference")
    for message in gate.messages:
        print(f"  ! {message}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))


def run_one(args) -> int:
    threads = apply_thread_settings()
    if not (SRC / "phaselab" / "__init__.py").is_file():
        raise BenchError(f"phaselab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import phaselab.cli  # noqa: F401  (compiles bytecode before setup is timed)
    import phaselab.suites  # noqa: F401

    workload = WORKLOADS[args.workload]
    try:
        reference = json.loads(REFERENCE.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {REFERENCE.name}: {exc}") from exc
    gate = Gate(workload, reference)
    if args.trace:
        try:
            result = run_traced(workload, args, gate)
        except tracer.CoverageError as exc:
            raise BenchError(str(exc)) from exc
        correct = gate.failed == 0 and result["coverage_ok"]
    else:
        result = run_untraced(args, gate)
        correct = gate.failed == 0
    env = environment(threads, {"seed": args.seed, "holdout_seed": args.holdout_seed,
                                "reference_seed": DEFAULT_SEED})
    _print_summary(workload.name, args, result, gate, env)
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "args": vars(args), "env": env, "correct": correct,
              "attempted": gate.attempted, "failed": gate.failed,
              "messages": gate.messages, **result}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    unit = _layer_unit if args.trace else END_TO_END.get
    metrics = {name: {"value": value, "unit": unit(name)}
               for name, value in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_read"):
        return "bytes"
    if name.endswith("distinct_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in a fresh process, then one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--holdout-seed", str(args.holdout_seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.splitlines()[-1])))
    names = list(rows[0][1]["metrics"])
    print("workload    " + " ".join(f"{n:>14}" for n in names[:6]) + "      fail_share")
    for name, res in rows:
        cells = " ".join(f"{res['metrics'][n]['value']:>14.6g}" for n in names[:6])
        print(f"{name:<11} {cells}   {res['failed']}/{res['attempted']}")
    print(json.dumps({
        "correct": all(res["correct"] for _, res in rows),
        "attempted": sum(res["attempted"] for _, res in rows),
        "failed": sum(res["failed"] for _, res in rows),
        "metrics": {f"{name}.{k}": v for name, res in rows for k, v in res["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
