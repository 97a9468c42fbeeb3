import hashlib
import importlib.util
import os
import pathlib
import re
import sys
import xml.dom.minidom

import pytest

from opspectra import cli, scenarios
from opspectra.cli import (ConfigParse, ScenarioConfig, ScenarioFailed,
                           parse_config_text, run_scenario)
from opspectra.regularity import StatSeries
from opspectra.scenarios import BadOption, ScenarioResult, UnknownScenario

ALL_IDS = ("thm1_1", "prop2_2", "thm3_1", "thm4_1", "thm4_2", "thm6_1",
           "mnt_illustration", "conjecture5_1_explore")


def test_registry_lists_the_expected_ids():
    assert scenarios.scenario_ids() == ALL_IDS
    for sid in ALL_IDS:
        assert scenarios.describe(sid)
    with pytest.raises(UnknownScenario):
        scenarios.describe("thm9_9")


def test_config_parser_happy_path():
    text = """
    # a comment
    scenario = thm4_1
    seed = 3

    input.bump_value = 0.25  # trailing comment
    threshold.cn_last = 0.01
    """
    d = parse_config_text(text)
    assert d == {"scenario": "thm4_1", "seed": "3",
                 "input.bump_value": "0.25", "threshold.cn_last": "0.01"}


@pytest.mark.parametrize("line,reason", [
    ("just words", "expected key"),
    ("a..b = 1", "bad key"),
    ("2bad = 1", "bad key"),
    ("empty = ", "empty value"),
])
def test_config_parser_rejects_malformed_lines(line, reason):
    with pytest.raises(ConfigParse) as err:
        parse_config_text(line)
    assert err.value.lineno == 1
    assert reason in str(err.value)


def test_config_parser_rejects_duplicates():
    with pytest.raises(ConfigParse) as err:
        parse_config_text("seed = 1\nseed = 2\n")
    assert err.value.lineno == 2


def test_scenario_config_from_mapping_defaults_and_checks():
    cfg = ScenarioConfig.from_mapping({"scenario": "thm4_1"})
    assert cfg.seed == 1 and cfg.outdir is None and not cfg.emit_svg
    with pytest.raises(ConfigParse):
        ScenarioConfig.from_mapping({})
    with pytest.raises(UnknownScenario):
        ScenarioConfig.from_mapping({"scenario": "bogus"})
    with pytest.raises(BadOption):
        ScenarioConfig.from_mapping({"scenario": "thm4_1", "seed": "x"})
    with pytest.raises(BadOption):
        ScenarioConfig.from_mapping({"scenario": "thm4_1",
                                     "threshold.cn_last": "-1"})


def test_default_configs_round_trip_through_the_parser():
    for sid in ALL_IDS:
        cfg = ScenarioConfig.from_mapping(
            parse_config_text(scenarios.default_config(sid)))
        assert cfg.scenario == sid


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = ScenarioConfig("thm4_1", outdir=str(tmp_path / "out"))
    report = run_scenario(cfg)
    assert report.passed
    assert (tmp_path / "out" / "stats.csv").exists()
    text = (tmp_path / "out" / "stats.csv").read_text()
    assert text.startswith("label,N,value\n")
    assert all(line.count(",") == 2 for line in text.strip().splitlines())


def test_run_scenario_raises_after_writing_on_threshold_violation(tmp_path):
    cfg = ScenarioConfig("thm4_1", outdir=str(tmp_path / "out"),
                         options={"threshold.cn_last": "1e-12"})
    with pytest.raises(ScenarioFailed) as err:
        run_scenario(cfg)
    assert err.value.failures == ["cn_last"]
    assert (tmp_path / "out" / "stats.csv").exists()


def test_byte_identical_reruns(tmp_path):
    a = ScenarioConfig("prop2_2", seed=5, outdir=str(tmp_path / "a"))
    b = ScenarioConfig("prop2_2", seed=5, outdir=str(tmp_path / "b"))
    run_scenario(a)
    run_scenario(b)
    assert (tmp_path / "a" / "stats.csv").read_bytes() \
        == (tmp_path / "b" / "stats.csv").read_bytes()


def test_outdir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "forced"
    monkeypatch.setenv(cli.OUTDIR_ENV, str(target))
    report = run_scenario(ScenarioConfig("thm4_1",
                                         outdir=str(tmp_path / "ignored")))
    assert report.outdir == str(target)
    assert (target / "stats.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_scenario_extra_artifacts(tmp_path):
    cfg = ScenarioConfig("prop2_2", outdir=str(tmp_path / "out"))
    run_scenario(cfg)
    assert (tmp_path / "out" / "zeros.csv").read_text().startswith(
        "index,point\n")
    assert (tmp_path / "out" / "density.csv").read_text().startswith(
        "x,density\n")
    cfg2 = ScenarioConfig("conjecture5_1_explore",
                          outdir=str(tmp_path / "out2"))
    run_scenario(cfg2)
    torus = (tmp_path / "out2" / "torus_samples.csv").read_text()
    assert torus.splitlines()[0] == "theta_1,a_1,a_2,b_1,b_2"
    assert (tmp_path / "out2" / "discriminant.csv").read_text().startswith(
        "k,coeff\n")


def test_svg_emission_is_well_formed(tmp_path):
    cfg = ScenarioConfig("thm4_1", outdir=str(tmp_path / "out"),
                         emit_svg=True)
    report = run_scenario(cfg)
    for s in report.result.series:
        path = tmp_path / "out" / f"plot_{s.label}.svg"
        assert path.exists()
        xml.dom.minidom.parse(str(path))


def test_cli_run_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    good = tmp_path / "good.txt"
    good.write_text("scenario = thm4_1\noutdir = %s\n" % (tmp_path / "out"))
    assert cli.main(["run", str(good)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "scenario thm4_1: PASS" in out

    strict = tmp_path / "strict.txt"
    strict.write_text("scenario = thm4_1\noutdir = %s\n"
                      "threshold.cn_last = 1e-12\n" % (tmp_path / "out2"))
    assert cli.main(["run", str(strict)]) == 1
    assert "FAIL cn_last" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("scenario = nonsense\n")
    assert cli.main(["run", str(bad)]) == 2
    assert cli.main(["run", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_cli_list_and_emit(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for sid in ALL_IDS:
        assert sid in out
    assert cli.main(["emit-default-config", "thm6_1"]) == 0
    assert "scenario = thm6_1" in capsys.readouterr().out
    assert cli.main(["emit-default-config", "nope"]) == 2
    capsys.readouterr()


def test_mnt_scenario_has_no_thresholds_but_reports(tmp_path):
    report = run_scenario(ScenarioConfig("mnt_illustration",
                                         outdir=str(tmp_path / "out")))
    assert report.passed
    assert any("illustration" in line for line in report.lines)
    labels = {s.label for s in report.result.series}
    assert "b_window_max" in labels


def test_stats_csv_is_the_series_csv_rows_under_one_header():
    series = [StatSeries("x", (1, 2), (0.5, 0.25)),
              StatSeries("y", (4,), (1.0 / 3.0,))]
    res = ScenarioResult("demo", series=series)
    body = "".join(s.to_csv().split("\n", 1)[1] for s in series)
    assert res.stats_csv() == "label,N,value\n" + body


@pytest.mark.parametrize("scenario,line", [
    ("thm6_1", "input.pattern = 1,1,0,0"),      # closed gap
    ("thm6_1", "input.pattern = 1,x,0,0"),      # not a number
    ("thm4_1", "Ns = 0,5"),                     # empty window
    ("thm4_2", "arc.a = 1.5"),
    ("thm4_2", "arc.k = 0"),
    ("thm4_2", "cmv.N = 0"),
    ("thm4_2", "arc.phase = inf"),
    ("thm4_2", "arc.a = 0.9"),                  # |alpha_0| >= 1
    ("thm3_1", "inputs.count = 0"),
    ("mnt_illustration", "coefficients = 51"),
    ("mnt_illustration", "input.tilt = 3"),
    ("thm4_1", "input.bump_value = 1.5"),
    ("thm6_1", "blockmap.K = 0"),
    ("thm6_1", "torus.theta = inf"),
    ("thm6_1", "input.pattern = 1,inf,0,0"),
    ("thm1_1", "bumps.norm_check_N = 0"),
    ("thm4_1", "threshold.cn_last = inf"),      # would switch the check off
    ("thm4_1", "threshold.cn_lst = 1e-7"),      # unknown key
], ids=["closed_gap", "non_numeric_pattern", "zero_window", "arc_a",
        "arc_k", "cmv_N", "arc_phase_inf", "perturbed_alpha_0",
        "inputs_count", "mnt_coefficients", "mnt_tilt", "circle_bump",
        "blockmap_K", "torus_theta_inf", "pattern_inf", "norm_check_N",
        "threshold_inf", "unknown_key"])
def test_cli_unusable_input_exits_2_with_one_error_line(
        tmp_path, capsys, monkeypatch, scenario, line):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"scenario = {scenario}\noutdir = {tmp_path / 'out'}\n"
                   f"{line}\n")
    assert cli.main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


def test_cli_unwritable_outdir_exits_2_with_one_error_line(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"scenario = thm4_1\noutdir = {tmp_path / 'file' / 'out'}\n")
    assert cli.main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "Traceback" not in captured.out + captured.err


def test_cli_legendre_ladder_past_200_coefficients_runs(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"scenario = thm1_1\noutdir = {tmp_path / 'out'}\n"
                   "legendre.Ns = 4,200\n")
    assert cli.main(["run", str(cfg)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("sid", ALL_IDS)
def test_default_config_lists_every_option_and_reruns_the_default(
        sid, tmp_path, capsys, monkeypatch):
    text = scenarios.default_config(sid)
    keys = [m.group(1) for m in map(re.compile(r"(?:# )?([\w.]+) =").match,
                                    text.splitlines()) if m]
    declared = list(scenarios.parse_options(sid, {}))
    assert keys == ["scenario", "seed", "emit_svg", "outdir"] + declared
    assert all("  # " in line for line in text.splitlines()[5:])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "out"))
    assert cli.main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "stats.csv").read_bytes() \
        == scenarios.run(sid, {}, 1).stats_csv().encode()


def test_every_benchmark_config_parses(tmp_path, monkeypatch):
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    ops = [op for w in workloads.WORKLOADS.values() for op in w.ops]
    assert ops
    for op in ops:
        cfg = ScenarioConfig.from_mapping(parse_config_text(
            op.config_text(1, str(tmp_path / op.op_id))))
        assert set(cfg.options) == {k for k, _ in op.options}
        scenarios.parse_options(op.scenario, cfg.options)


def test_cli_runs_a_period_four_pattern(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario = conjecture5_1_explore\n"
                   f"outdir = {tmp_path / 'out'}\n"
                   "input.pattern = 1,0.6,0.8,1.2,0.1,-0.2,0,0.3\n")
    assert cli.main(["run", str(cfg)]) == 0
    capsys.readouterr()
    samples = (tmp_path / "out" / "torus_samples.csv").read_text()
    assert samples.splitlines()[0].startswith("theta_1,theta_2,theta_3,a_1")


@pytest.mark.parametrize("sid, extra, sha", [
    ("thm6_1", "",
     "81c996e352789d7705d3d8a7f38c313b0083f7dd40b2f0cd625b4c68a6d33e0a"),
    ("conjecture5_1_explore", "Ns = 8,16,32\n",
     "0ef0ab43411f3b741a965c014ec65d1e945da3f297a0fd665e00285b82a7ccd5"),
])
def test_cli_runs_a_period_one_pattern(sid, extra, sha, tmp_path, capsys,
                                       monkeypatch):
    # a period-1 torus is one point with no angles to search; its
    # stats.csv is pinned byte for byte
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"scenario = {sid}\noutdir = {tmp_path / 'out'}\n"
                   f"input.pattern = 1,0\n{extra}")
    assert cli.main(["run", str(cfg)]) == 0
    capsys.readouterr()
    stats = (tmp_path / "out" / "stats.csv").read_bytes()
    assert hashlib.sha256(stats).hexdigest() == sha
