"""Command-line runner: exit codes, report shape, determinism, file output."""

import json
import math
import pathlib
import runpy
import sys

import pytest

from phaselab.cli import main


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
    assert code == 2


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


def test_representation_command(capsys):
    code, doc = run_json(capsys, "representation", "--grid", "8", "--seed", "5")
    assert code == 0
    assert all(c["pass"] for c in doc["checks"])
    code, out, err = run(capsys, "representation", "--grid", "16")
    assert code == 2  # quadrature cap


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
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("sample,ratio") and len(lines) == 4


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
    ("identities", "--grid", "16", "--emit", "csv"),
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
    code, out, err = run(capsys, "identities", "--grid", "64", "--out", str(out_path))
    assert code == 2 and "--grid 32" in err
    assert out_path.read_text() == "previous\n"
    code, out, err = run(capsys, "exponents", "--p", "2,2,2,2", "--q", "2,2,2,2",
                         "--out", str(out_path))
    assert code == 0 and json.loads(out_path.read_text())["command"] == "exponents"


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
    ]:
        code1, doc1 = run_json(capsys, *args)
        code2, doc2 = run_json(capsys, *args)
        assert code1 == code2 == 0, args
        assert doc1["command"] == args[0] and doc1["timing"]["total_s"] >= 0
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


def test_bad_thread_count_exits_two(capsys, monkeypatch):
    # one sample: no worker thread would start even if the value were read
    monkeypatch.setenv("PHASELAB_THREADS", "two")
    code, out, err = run(capsys, *SMALL_RATIO)
    assert code == 2 and "PHASELAB_THREADS" in err and not out


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
    # the product identities are capped at n = 32, and the report must say the size run
    code, out, err = run(capsys, "identities", "--grid", "64")
    assert code == 2 and "--grid 32" in err and not out


RATIO_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_ratio_experiments.py"


@pytest.mark.parametrize("flags", [("--seed", "-1"), ("--samples", "0")])
def test_ratio_script_rejects_bad_counts(capsys, monkeypatch, tmp_path, flags):
    argv = ["--samples", "1", "--grids", "16", "--out", str(tmp_path / "r.csv"), *flags]
    monkeypatch.setattr(sys, "argv", [str(RATIO_SCRIPT), *argv])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(RATIO_SCRIPT), run_name="__main__")
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()
