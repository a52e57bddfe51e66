"""Command-line runner: exit codes, report shape, determinism, file output."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import phaselab
from phaselab import lab, suites
from phaselab.cli import build_parser, main
from phaselab.grids import _thread_count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, err
    return code, json.loads(out)


def test_exponents_worked_instance(capsys):
    code, doc = run_json(capsys, "exponents", "--p", "2,inf,2,2",
                         "--q", "2,1,2,2", "--criterion", "thm-B")
    assert code == 0
    assert doc["checks"][0]["pass"] is True
    assert doc["condition"]["lhs"] == 0.25 and doc["condition"]["rhs"] == 0.25
    assert doc["artifact"]["name"] == "phaselab" and "timing" in doc


def test_exponents_failing_condition_exits_one(capsys):
    code, doc = run_json(capsys, "exponents", "--p", "2,inf,2,2", "--q", "2,1,2,2",
                         "--criterion", "cotowa-2.5")
    assert code == 1
    assert doc["checks"][0]["pass"] is False


def test_exponents_length_mismatch_exits_two(capsys):
    code, out, err = run(capsys, "exponents", "--p", "2", "--q", "2,1,2")
    assert code == 2 and "error" in err


def test_exponents_mismatched_tuples_exit_two(capsys):
    code, out, err = run(capsys, "exponents", "--p", "2,2,2,2", "--q", "2,1,2")
    assert code == 2 and "p has N = 3 but q has N = 2" in err


def test_exponents_one_factor_exits_two(capsys):
    code, out, err = run(capsys, "exponents", "--p", "2,2", "--q", "2,2",
                         "--criterion", "cotowa-2.5")
    assert code == 2 and "N >= 2" in err


def test_unknown_flag_exits_two(capsys):
    code, out, err = run(capsys, "exponents", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--frobnicate")
    assert code == 2


def test_n_flag_is_gone(capsys):
    # N is the length of --p, so the old --n flag is an unrecognised argument
    code, out, err = run(capsys, "exponents", "--n", "3", "--p", "2,inf,2,2", "--q", "2,1,2,2")
    assert code == 2 and "unrecognized arguments: --n 3" in err


def test_interpolate_reports_certificate(capsys):
    code, doc = run_json(capsys, "interpolate", "--p", "2,2,2,2", "--q", "2,2,2,2")
    assert code == 0
    cert = doc["certificate"]
    assert cert["branch"] == "endpoint-mix" and cert["feasible"] is True
    assert cert["theta"] == "1" and cert["v"] == "2"


def test_interpolate_infeasible_names_the_interval(capsys):
    code, doc = run_json(capsys, "interpolate", "--p", "2,inf,2,2", "--q", "2,1,2,2")
    assert code == 0
    cert = doc["certificate"]
    assert cert["branch"] == "infeasible" and cert["residual"] > 0
    detail = cert["detail"]
    assert (detail["lo"], detail["lo_set_by"]) == ("1", "1/s_1 <= 1")
    assert (detail["hi"], detail["hi_set_by"]) == ("0", "1/r_1 >= 0")


def test_interpolate_rejected_input_exits_two(capsys):
    code, out, err = run(capsys, "interpolate", "--p", "4,4,4,4", "--q", "4,4,4,4")
    assert code == 2 and "rejected" in err


@pytest.mark.parametrize("p, q, tolerance", [
    ("4,4/3,4,4/3", "4,4/3,4,4/3", "-1"),
    ("2,inf,2,2", "2,1,2,2", "nan"),  # the infeasible worked instance
    ("2,2,2,2", "2,2,2,2", "inf"),
    ("2,2,2,2", "2,2,2,2", "-inf"),
    ("4,4/3,4,4/3", "4,4/3,4,4/3", "0"),
])
def test_interpolate_tolerance_must_be_finite_and_nonnegative(capsys, p, q, tolerance):
    # --tolerance is gone, so every value, 0 included, is an unrecognised argument:
    # a feasible certificate has residual exactly 0, so the flag could change no verdict
    code, out, err = run(capsys, "interpolate", "--p", p, "--q", q, f"--tolerance={tolerance}")
    assert code == 2 and f"unrecognized arguments: --tolerance={tolerance}" in err and not out


def test_representation_command(capsys):
    code, doc = run_json(capsys, "representation", "--grid", "8", "--seed", "5")
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])
    # no cap of its own: any grid whose STFT is materialized runs
    code, doc = run_json(capsys, "representation", "--grid", "16")
    assert code == 0 and all(c["pass"] for c in doc["checks"])


def test_representation_grid_past_the_limit_refused_at_parse(capsys, tmp_path):
    # at n = 34 a d = 1 STFT has 34^4 > 2^20 entries, the limit symplectic_stft applies
    out_path = tmp_path / "rep.json"
    code, out, err = run(capsys, "representation", "--grid", "34", "--out", str(out_path))
    assert code == 2 and not out and "Traceback" not in err
    assert err.strip().splitlines()[-1].endswith(
        "argument --grid: the STFT at n = 34 exceeds the materialization limit")
    assert not out_path.exists()


def _csv_of(reports):
    """The CSV text of JSON ratio reports: one header, then each report's rows."""
    lines = ["sample,ratio,label,mode,p,q,grid_n,seed"]
    for rep in reports:
        lines += [f'{k},{"" if r is None else repr(r)},{rep["label"]},{rep["mode"]},'
                  f'"{rep["p"]}","{rep["q"]}",{rep["grid_n"]},{rep["seed"]}'
                  for k, r in enumerate(rep["ratios"])]
    return "\n".join(lines) + "\n"


def test_ratio_json_and_csv(capsys, tmp_path):
    args = ("ratio", "--p", "2,2,2,2", "--q", "2,2,2,2", "--grid", "16",
            "--samples", "3", "--seed", "9")
    code, doc = run_json(capsys, *args)
    assert code == 0
    assert doc["ratio_report"]["grid_n"] == 16
    assert len(doc["ratio_report"]["ratios"]) == 3
    out_path = tmp_path / "ratios.csv"
    code, out, err = run(capsys, *args, "--emit", "csv", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("sample,ratio,label,mode,p,q,grid_n,seed\n")
    assert len(text.strip().split("\n")) == 4
    assert text == _csv_of([doc["ratio_report"]])
    # drift writes every report of its ladder under one header
    args = ("drift", "--samples", "1", "--grids", "16,32", "--seed", "3")
    code, doc = run_json(capsys, *args)
    assert code == 0 and len(doc["ratio_reports"]) == 2 * len(suites.drift_configs())
    code, out, err = run(capsys, *args, "--emit", "csv")
    assert code == 0 and out == _csv_of(doc["ratio_reports"])


def test_ratio_weights_literals(capsys):
    code, doc = run_json(capsys, "ratio", "--p", "2,inf,2,2", "--q", "2,1,2,2",
                         "--weights",
                         "split:poly:s=-1@Y,split:poly:s=1@Y,split:poly:s=1@Y,split:poly:s=1@Y",
                         "--grid", "16", "--samples", "2")
    assert code == 0
    assert doc["ratio_report"]["weights"][0] == "split:poly:s=-1@Y"


def test_ratio_bad_weights_exit_two(capsys):
    code, out, err = run(capsys, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--weights", "unit,unit", "--grid", "16", "--samples", "1")
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (("--q", "2,2,2"), "p has N = 3 but q has N = 2"),
    (("--q", "2,2,2,2", "--weights", "unit,unit"), "got 2 weights for 4 slots"),
], ids=["tuple-length", "weight-count"])
def test_ratio_count_mismatch_refused_before_the_ensemble(capsys, monkeypatch, tmp_path,
                                                          flags, message):
    # RatioConfig owns both rules and is built before the ensemble is drawn
    monkeypatch.setattr(lab, "ensemble_generate", lambda *a: pytest.fail("ensemble drawn"))
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, "ratio", "--p", "2,2,2,2", *flags, "--samples", "1",
                         "--out", str(out_path))
    assert code == 2 and not out and message in err and err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("weight", ["poly:s=inf", "poly:s=nan", "exp:c=nan"])
def test_ratio_non_finite_weight_exits_two(capsys, weight):
    code, out, err = run(capsys, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2", "--samples", "1",
                         "--weights", f"{weight},unit,unit,unit")
    assert code == 2 and "finite" in err and not out


@pytest.mark.parametrize("weight, shown", [("poly:s=2000", "poly:s=2000"),
                                           ("poly:s=1e308", "poly:s=1e+308")])
def test_ratio_weight_that_overflows_exits_two(capsys, weight, shown):
    # finite parameters, but the weight overflows on the grid: refused, never a ratio of 0
    code, out, err = run(capsys, "ratio", "--p", "2,inf,2,2", "--q", "2,1,2,2", "--samples", "2",
                         "--weights", f"unit,{weight},unit,unit")
    assert code == 2 and not out
    assert err == f"error: weight {shown} is not finite on the grid at n = 16\n"


def test_ratio_non_number_weight_exits_two(capsys):
    code, out, err = run(capsys, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2", "--samples", "1",
                         "--weights", "poly:s=abc,unit,unit,unit")
    assert code == 2 and "poly:s=abc" in err and not out


@pytest.mark.parametrize("flags", [("--p", "2,1e400,2,2", "--q", "2,1,2,2"),
                                   ("--p", "2,1,2,2", "--q", "2,1e400,2,2")])
def test_ratio_exponent_beyond_float_range_exits_two(capsys, monkeypatch, flags):
    # the exact calculus keeps such a literal; a norm needs its float, so the
    # config is refused before the ensemble is drawn
    monkeypatch.setattr(lab, "ensemble_generate", lambda *a: pytest.fail("ensemble drawn"))
    code, out, err = run(capsys, "ratio", *flags, "--samples", "1")
    assert code == 2 and not out
    assert err.count("\n") == 1 and "float" in err and "Traceback" not in err


def test_sweep_small(capsys):
    code, doc = run_json(capsys, "sweep", "--trials", "300", "--cert-trials", "10")
    assert code == 0
    names = {c["name"] for c in doc["checks"]}
    assert any("implication-chain" in n for n in names)
    assert any("condition-dominance" in n for n in names)


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": "2,inf,2,2", "q": "2,1,2,2", "criterion": "thm-B"}))
    code, doc = run_json(capsys, "--config", str(cfg), "exponents",
                         "--p", "2,inf,2,2", "--q", "2,1,2,2")
    assert code == 0 and doc["config"]["criterion"] == "thm-B"
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, out, err = run(capsys, "--config", str(bad), "exponents",
                         "--p", "2,2,2,2", "--q", "2,2,2,2")
    assert code == 2


def test_csv_unavailable_for_suites(capsys):
    code, out, err = run(capsys, "sweep", "--trials", "10", "--cert-trials", "2",
                         "--emit", "csv")
    assert code == 2


def _refuse(*args, **kwargs):
    raise AssertionError("computed before the output flags were checked")


@pytest.mark.parametrize("argv", [
    ("sweep", "--trials", "10", "--cert-trials", "2", "--emit", "csv"),
    ("identities", "--grid", "16", "--emit", "csv"),  # no --emit: one form only
    ("identities", "--grid", "16", "--out", "{missing}/x.json"),
    ("ratio", "--p", "2,2,2,2", "--q", "2,2,2,2", "--samples", "1", "--out", "{missing}/r.csv"),
])
def test_output_flags_checked_before_computing(capsys, monkeypatch, tmp_path, argv):
    from phaselab import cli, suites

    for name in ("suite_exponent_combinatorics", "suite_worked_instance", "suite_interpolation",
                 "suite_involution", "suite_convention", "suite_products", "suite_routes",
                 "suite_kernel_factorization"):
        monkeypatch.setattr(suites, name, _refuse)
    monkeypatch.setattr(cli, "ratio_experiment_multi", _refuse)
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert ("--emit" if "csv" in argv else "missing") in err


def test_failed_run_leaves_out_file_as_it_was(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    out_path.write_text("previous\n")
    code, out, err = run(capsys, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--weights", "unit,unit", "--out", str(out_path))
    assert code == 2 and "got 2 weights for 4 slots" in err
    assert out_path.read_text() == "previous\n"
    code, out, err = run(capsys, "exponents", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--out", str(out_path))
    assert code == 0 and json.loads(out_path.read_text())["command"] == "exponents"


def test_failed_run_removes_the_out_file_it_created(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--weights", "poly:s=inf,unit,unit,unit", "--out", str(out_path))
    assert code == 2 and "finite" in err
    assert not out_path.exists()


def test_out_to_a_file_that_is_not_regular(capsys):
    # /dev/null and a pipe cannot be emptied: the report is only written to them
    code, out, err = run(capsys, "exponents", "--p", "2,inf,2,2", "--q", "2,1,2,2",
                         "--out", os.devnull)
    assert code == 0 and not out and not err
    if os.path.exists("/dev/stdout"):
        src = str(pathlib.Path(phaselab.__file__).resolve().parent.parent)
        argv = ["exponents", "--p", "2,inf,2,2", "--q", "2,1,2,2", "--out", "/dev/stdout"]
        piped = subprocess.run([sys.executable, "-m", "phaselab.cli", *argv], capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": src})
        assert piped.returncode == 0 and json.loads(piped.stdout)["command"] == "exponents"


def _strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing")
    return doc


def test_report_determinism_excluding_timing(capsys):
    # every subcommand at a tiny size: the shared runner writes each report
    for args in [
        ("exponents", "--p", "2,inf,2,2", "--q", "2,1,2,2"),
        ("interpolate", "--p", "2,2,2,2", "--q", "2,2,2,2"),
        ("identities", "--grid", "16", "--seed", "2"),
        ("representation", "--grid", "8", "--seed", "3"),
        ("ratio", "--p", "2,2,2,2", "--q", "2,2,2,2", "--grid", "16", "--samples", "3",
         "--seed", "41"),
        ("sweep", "--trials", "10", "--cert-trials", "2", "--seed", "5"),
        ("drift", "--samples", "1", "--seed", "6"),
    ]:
        code1, doc1 = run_json(capsys, *args)
        code2, doc2 = run_json(capsys, *args)
        assert code1 == code2 == 0, args
        assert doc1["command"] == args[0] and doc1["timing"]["total_s"] >= 0
        assert doc1["timing"]["cpus"] == _thread_count()  # sizes sample workers and row spans
        assert json.dumps(_strip_timing(doc1), sort_keys=True) == \
            json.dumps(_strip_timing(doc2), sort_keys=True), args


def _config(tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    return str(cfg)


def test_config_sets_subcommand_flag(capsys, tmp_path):
    # these exponents pass under twist and fail under the default thm-B
    code, doc = run_json(capsys, "--config", _config(tmp_path, {"criterion": "twist"}),
                         "exponents", "--p", "1,1,1,inf", "--q", "inf,inf,inf,1")
    assert code == 0
    assert doc["config"]["criterion"] == "twist"


def test_config_supplies_required_flags(capsys, tmp_path):
    cfg = _config(tmp_path, {"p": "2,inf,2,2", "q": "2,1,2,2"})
    code, doc = run_json(capsys, "--config", cfg, "exponents")
    assert code == 0
    assert doc["config"]["p"] == "2,inf,2,2" and doc["config"]["q"] == "2,1,2,2"


def test_config_sets_ratio_samples(capsys, tmp_path):
    cfg = _config(tmp_path, {"samples": 2, "grid": 16})
    code, doc = run_json(capsys, "--config", cfg, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2")
    assert code == 0
    assert doc["config"]["samples"] == 2 and len(doc["ratio_report"]["ratios"]) == 2


def test_explicit_flag_overrides_config(capsys, tmp_path):
    cfg = _config(tmp_path, {"criterion": "cotowa-2.5", "p": "2,2,2,2"})
    code, doc = run_json(capsys, "--config", cfg, "exponents", "--p", "2,inf,2,2",
                         "--q", "2,1,2,2", "--criterion", "thm-B")
    assert code == 0
    assert doc["config"]["criterion"] == "thm-B" and doc["config"]["p"] == "2,inf,2,2"


@pytest.mark.parametrize("args", [
    ("drift", "--samples", "1", "--grids", "16,32"),
    ("ratio", "--p", "2,inf,2,2", "--q", "2,1,2,2", "--samples", "1",
     "--weights", "split:poly:s=-1@Y,split:poly:s=1@Y,split:poly:s=1@Y,split:poly:s=1@Y"),
    ("exponents", "--p", "2,inf,2,2", "--q", "2,1,2,2"),
    ("interpolate", "--p", "2,inf,2,2", "--q", "2,1,2,2"),
    ("representation", "--grid", "8"),
    ("sweep", "--trials", "10", "--cert-trials", "2"),
])
def test_report_config_replays_the_report(capsys, tmp_path, args):
    # list values (drift's grids, ratio's weights) included; every key of every
    # subcommand's config is one of its flags
    code, doc = run_json(capsys, *args)
    code2, again = run_json(capsys, "--config", _config(tmp_path, doc["config"]), args[0])
    assert code == code2 == 0
    assert json.dumps(_strip_timing(again), sort_keys=True) == \
        json.dumps(_strip_timing(doc), sort_keys=True)


@pytest.mark.parametrize("argv", [
    ("exponents", "--p", "2,inf,2,2", "--q", "2,1,2,2"),
    ("interpolate", "--p", "2,inf,2,2", "--q", "2,1,2,2"),
])
def test_seed_only_where_random_numbers_are_drawn(capsys, tmp_path, argv):
    # exponents and interpolate are exact: a seed would be accepted and ignored
    code, out, err = run(capsys, *argv, "--seed", "12345")
    assert code == 2 and "unrecognized arguments: --seed 12345" in err and not out
    code, out, err = run(capsys, "--config", _config(tmp_path, {"seed": 1}), *argv)
    assert code == 2 and "unrecognized arguments: --seed=1" in err and not out


def test_config_unknown_key_exits_two(capsys, tmp_path):
    cfg = _config(tmp_path, {"sampels": 3})
    code, out, err = run(capsys, "--config", cfg, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--grid", "16", "--samples", "1")
    assert code == 2 and "sampels" in err and not out
    # a flag of another subcommand is not a flag of this one
    cfg = _config(tmp_path, {"trials": 10})
    code, out, err = run(capsys, "--config", cfg, "exponents", "--p", "2,2,2,2", "--q", "2,2,2,2")
    assert code == 2 and "trials" in err and not out


def test_config_bad_choice_exits_two(capsys, tmp_path):
    cfg = _config(tmp_path, {"mode": "bogus"})
    code, out, err = run(capsys, "--config", cfg, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--grid", "16", "--samples", "1")
    assert code == 2 and "mode" in err and not out


def test_config_bad_value_type_exits_two(capsys, tmp_path):
    cfg = _config(tmp_path, {"samples": 2.5})
    code, out, err = run(capsys, "--config", cfg, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--grid", "16")
    assert code == 2 and "--samples" in err and not out


def test_config_key_spelling_and_null(capsys, tmp_path):
    # keys are spelt with "_" for "-"; null leaves a flag at its default
    cfg = _config(tmp_path, {"cert_trials": 3, "trials": 40, "seed": None})
    code, doc = run_json(capsys, "--config", cfg, "sweep")
    assert code == 0
    assert doc["config"] == {"trials": 40, "cert_trials": 3, "seed": 0}


def test_parser_errors_return_two(capsys):
    code, out, err = run(capsys, "exponents", "--q", "2,2,2,2")
    assert code == 2 and "--p" in err and not out
    code, out, err = run(capsys, "representation", "--grid", "eight")
    assert code == 2 and "--grid" in err and not out


SPLIT_CHAIN = "split:poly:s=-1@Y,split:poly:s=1@Y,split:poly:s=1@Y,split:poly:s=1@Y"
SMALL_RATIO = ("ratio", "--p", "2,2,2,2", "--q", "2,2,2,2", "--grid", "16", "--samples", "1")


@pytest.mark.parametrize("argv", [
    SMALL_RATIO,
    ("sweep", "--trials", "10", "--cert-trials", "2"),
    ("identities", "--grid", "16"),
    ("representation", "--grid", "8"),
])
def test_negative_seed_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2 and "--seed" in err and not out


@pytest.mark.parametrize("argv", [
    SMALL_RATIO[:-1] + ("0",),
    SMALL_RATIO[:-1] + ("-2",),
    SMALL_RATIO + ("--atoms", "0"),
    ("sweep", "--trials", "-5", "--cert-trials", "2"),
    ("sweep", "--trials", "10", "--cert-trials", "0"),
])
def test_counts_below_one_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and "at least 1" in err and not out


def test_ratio_twist_mode_runs(capsys):
    twist_argv = ("ratio", "--p", "2,1,2,2", "--q", "2,inf,2,2", "--grid", "16", "--samples", "2")
    code, doc = run_json(capsys, *twist_argv, "--mode", "twist")
    assert code == 0
    rep = doc["ratio_report"]
    assert doc["config"]["mode"] == rep["mode"] == "twist" and rep["condition"] == "twist"
    _, weyl = run_json(capsys, *twist_argv, "--mode", "weyl")
    assert weyl["ratio_report"]["mode"] == "weyl"
    assert rep["ratios"] != weyl["ratio_report"]["ratios"]


def test_ratio_counting_measure_stays_below_one(capsys):
    # the counting measure on the flat tuple: every ratio is at most 1
    code, doc = run_json(capsys, "ratio", "--measure", "counting", "--p", "2,2,2,2",
                         "--q", "2,2,2,2", "--grid", "16", "--samples", "3")
    assert code == 0 and doc["ratio_report"]["measure"] == "counting"
    ratios = doc["ratio_report"]["ratios"]
    assert len(ratios) == 3 and all(r <= 1 + 1e-8 for r in ratios)


def test_ratio_grid_64_runs(capsys):
    # past the materialization limit: every norm is taken block by block
    code, doc = run_json(capsys, "ratio", "--p", "2,inf,2,2", "--q", "2,1,2,2", "--grid", "64",
                         "--samples", "1", "--weights", SPLIT_CHAIN)
    assert code == 0
    (ratio,) = doc["ratio_report"]["ratios"]
    assert ratio is not None and math.isfinite(ratio) and ratio > 0


def test_ratio_grid_below_16_exits_two(capsys):
    # default_window is truncation-safe only from n = 16 up
    code, out, err = run(capsys, "ratio", "--p", "2,2,2,2", "--q", "2,2,2,2", "--grid", "8",
                         "--samples", "1")
    assert code == 2 and "--grid" in err and not out


def test_identities_grid_above_32_exits_two(capsys):
    # the product identities are capped at n = 32: the parser's choices name the largest
    code, out, err = run(capsys, "identities", "--grid", "64")
    assert code == 2 and not out
    assert err.strip().splitlines()[-1].endswith(
        "argument --grid: invalid choice: 64 (choose from 4, 6, 8, 10, 12, 14, 16, 18, 20, "
        "22, 24, 26, 28, 30, 32)")


def test_identities_grid_refused_at_parse():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["identities", "--grid", "34"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    (("drift", "--grids", "32,17", "--samples", "20"), "--grids"),
    (SMALL_RATIO[:5] + ("--grid", "17", "--samples", "1"), "--grid"),
    (("identities", "--grid", "7"), "--grid"),
    (("identities", "--grid", "2"), "--grid"),
    (("representation", "--grid", "5"), "--grid"),
    # at d = 1 an STFT shift row has n^3 entries, past 2^20 from n = 102 on
    (("drift", "--grids", "16,102", "--samples", "20"), "--grids"),
    (SMALL_RATIO[:5] + ("--grid", "102", "--samples", "1"), "--grid"),
    # at d = 1 a whole STFT has n^4 entries, past 2^20 from n = 34 on
    (("representation", "--grid", "34"), "--grid"),
    (("identities", "--grid", "34"), "--grid"),
])
def test_bad_grid_sizes_refused_before_any_numerics(capsys, monkeypatch, argv, flag):
    ran = []

    def recorder(name):
        def record(*args, **kwargs):
            ran.append(name)
            return []
        return record

    monkeypatch.setattr(lab, "ensemble_generate", recorder("ensemble_generate"))
    for name in ("suite_involution", "suite_convention", "suite_products", "suite_routes",
                 "suite_kernel_factorization", "suite_representation"):
        monkeypatch.setattr(suites, name, recorder(name))
    code, out, err = run(capsys, *argv)
    assert code == 2 and flag in err and not out
    assert ran == []


def test_even_grid_sizes_parse():
    parse = build_parser().parse_args
    assert [parse(["identities", "--grid", str(n)]).grid for n in range(4, 33, 2)] == \
        list(range(4, 33, 2))
    assert parse(["representation", "--grid", "4"]).grid == 4
    assert parse(["drift", "--grids", "16,24,64"]).grids == (16, 24, 64)
    assert parse(["drift", "--grids", "16,100"]).grids == (16, 100)  # the largest usable n
    assert parse(["ratio", "--p", "2,2,2,2", "--q", "2,2,2,2", "--grid", "100"]).grid == 100


@pytest.mark.parametrize("flags", [
    ("--seed", "-1"), ("--samples", "0"), ("--grids", "8"), ("--grids", "16,x"), ("--grids", ""),
])
def test_drift_bad_flags_exit_two(capsys, tmp_path, flags):
    out_path = tmp_path / "r.csv"
    code, out, err = run(capsys, "drift", "--samples", "1", "--out", str(out_path), *flags)
    assert code == 2 and flags[0] in err and not out
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ("exponents", "--p", "2,2,2,2", "--q", "2,2,2,2"),
    ("interpolate", "--p", "2,2,2,2", "--q", "2,2,2,2"),
    ("identities",), ("representation",), ("sweep",),
], ids=lambda argv: argv[0])
def test_emit_only_where_a_table_exists(capsys, argv):
    # JSON is these commands' only form, so --emit json is an unrecognised argument too
    code, out, err = run(capsys, *argv, "--emit", "json")
    assert code == 2 and "unrecognized arguments: --emit json" in err and not out


def test_import_loads_no_thread_pool():
    # concurrent.futures (and the logging it imports) is loaded only for a threaded run
    src = str(pathlib.Path(phaselab.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import phaselab.cli, phaselab.suites; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_drift_checks_are_the_suites(capsys):
    code, doc = run_json(capsys, "drift", "--samples", "1", "--grids", "16,32")
    assert code == 0
    checks = suites.drift_ratio_checks(seed=0, samples=1)[0] + suites.endpoint_ratio_check(seed=0)
    assert doc["checks"] == [c.as_dict() for c in checks]


def test_drift_reports_the_endpoint_check(capsys):
    # criterion 10's counting-measure endpoint has a CLI route: drift reports it last
    code, doc = run_json(capsys, "drift", "--grids", "16", "--samples", "1")
    assert code == 0
    endpoint = doc["checks"][-1]
    assert endpoint["name"] == "endpoint-counting-ratio[n=16]" and endpoint["tolerance"] == 1e-8
    assert endpoint["pass"] is True


def test_drift_over_a_three_grid_ladder(capsys):
    code, doc = run_json(capsys, "drift", "--samples", "1", "--grids", "16,32,64")
    assert code == 0 and doc["config"] == {"grids": [16, 32, 64], "samples": 1, "seed": 0}
    per_grid = len(suites.drift_configs())
    reports = doc["ratio_reports"]
    assert [rep["grid_n"] for rep in reports] == [16] * per_grid + [32] * per_grid + [64] * per_grid
    for i, check in enumerate(doc["checks"][:per_grid]):
        maxima = [rep["max_ratio"] for rep in reports[i::per_grid]]
        assert check["name"] == f"ratio-drift[{reports[i]['label']}]"
        assert check["value"] == max(maxima) / min(maxima)
