import ast
import hashlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest
import scipy

from opspectra import cli, periodic, scenarios, sequences
from opspectra.cli import (ConfigParse, ScenarioConfig, default_config,
                           parse_config_text, run_scenario)
from opspectra.regularity import StatSeries
from opspectra.scenarios import BadOption, ScenarioResult, UnknownScenario
from opspectra.sequences import (BlockJacobiParams, UnitaryChain,
                                 VerblunskyParams)

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
        ScenarioConfig.from_mapping({"scenario": "thm4_1", "emit_svg": "x"})
    # scenario options are passed on as text and parsed when it runs
    cfg = ScenarioConfig.from_mapping({"scenario": "thm4_1",
                                       "threshold.cn_last": "-1"})
    assert cfg.options == {"threshold.cn_last": "-1"}
    with pytest.raises(BadOption):
        run_scenario(cfg)


def test_default_configs_round_trip_through_the_parser():
    for sid in ALL_IDS:
        cfg = ScenarioConfig.from_mapping(
            parse_config_text(default_config(sid)))
        assert cfg.scenario == sid


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = ScenarioConfig("thm4_1", outdir=str(tmp_path / "out"))
    report = run_scenario(cfg)
    assert report.result.passed
    assert (tmp_path / "out" / "stats.csv").exists()
    text = (tmp_path / "out" / "stats.csv").read_text()
    assert text.startswith("label,N,value\n")
    assert all(line.count(",") == 2 for line in text.strip().splitlines())


def test_run_scenario_reports_a_threshold_violation_after_writing(tmp_path):
    cfg = ScenarioConfig("thm4_1", outdir=str(tmp_path / "out"),
                         options={"threshold.cn_last": "1e-12"})
    report = run_scenario(cfg)
    assert report.result.passed is False
    assert [c.name for c in report.result.checks if not c.passed] \
        == ["cn_last"]
    assert (tmp_path / "out" / "stats.csv").read_text() \
        == report.result.artifacts()["stats.csv"]


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
    assert (tmp_path / "out2" / "bands.csv").read_text().startswith(
        "band,lo,hi\n")


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


@pytest.mark.parametrize("sid", ALL_IDS)
def test_a_cli_run_parses_the_scenario_options_once(sid, tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    calls = []
    real = scenarios.parse_options
    monkeypatch.setattr(scenarios, "parse_options",
                        lambda *args: calls.append(args) or real(*args))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"scenario = {sid}\noutdir = {tmp_path / 'out'}\n")
    assert cli.main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_list_and_emit(capsys):
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for sid in ALL_IDS:
        assert sid in out
    assert cli.main(["emit-default-config", "thm6_1"]) == 0
    assert "scenario = thm6_1" in capsys.readouterr().out
    assert cli.main(["emit-default-config", "nope"]) == 2
    capsys.readouterr()


def _src_env(**extra):
    """The environment with src first on PYTHONPATH and ``extra`` set."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _python_m_opspectra(*args):
    """``python -m opspectra args`` in a fresh process."""
    return subprocess.run([sys.executable, "-m", "opspectra", *args],
                          env=_src_env(), capture_output=True, text=True)


def test_module_entry_point_lists_the_scenarios():
    out = _python_m_opspectra("list-scenarios")
    assert out.returncode == 0
    assert tuple(line.split()[0] for line in out.stdout.splitlines()) \
        == ALL_IDS


def test_module_entry_point_without_a_command_prints_usage_and_exits_2():
    out = _python_m_opspectra()
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: opspectra ")


def test_mnt_scenario_has_no_thresholds_but_reports(tmp_path):
    report = run_scenario(ScenarioConfig("mnt_illustration",
                                         outdir=str(tmp_path / "out")))
    assert report.result.passed
    assert any("illustration" in line for line in report.lines)
    labels = {s.label for s in report.result.series}
    assert "b_window_max" in labels


def _tilted_flat_recurrence(tilt, n, nodes):
    """b_1..b_n and a_1..a_{n-1} of the density 1 + tilt x / 2 on
    [-2, 2]: Gauss-Legendre in theta, x = 2 cos theta (a smooth
    integrand), then Lanczos with full reorthogonalization."""
    t, g = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * np.pi * (t + 1.0)
    x = 2.0 * np.cos(theta)
    w = g * np.sin(theta) * (1.0 + tilt * x / 2.0)
    Q = np.zeros((n, nodes))
    q = np.sqrt(w / np.sum(w))
    a, b = np.zeros(n), np.zeros(n)
    for k in range(n):
        Q[k] = q
        v = x * q
        b[k] = q @ v
        for _ in range(2):
            v -= (Q[:k + 1] @ v) @ Q[:k + 1]
        a[k] = np.linalg.norm(v)
        q = v / a[k]
    return a[:-1], b


def test_mnt_coefficients_at_the_cap_match_the_continuous_measure():
    # 600 nodes agree with 2400 to 4e-15 on these n; mnt's 4800-node
    # discretization first leaves them by 1e-12 at a_127
    a, b = _tilted_flat_recurrence(0.5, 126, 600)
    res = scenarios.run("mnt_illustration", {"coefficients": "126"}, 1)
    J = res.jacobi_inputs[0][1]
    assert len(J) == 126
    assert np.max(np.abs(J.a_window(125) - a)) <= 1e-12
    assert np.max(np.abs(J.b_window(126) - b)) <= 1e-12


def test_stats_csv_is_the_series_csv_rows_under_one_header():
    series = [StatSeries("x", (1, 2), (0.5, 0.25)),
              StatSeries("y", (4,), (1.0 / 3.0,))]
    res = ScenarioResult("demo", series=series,
                         extras={"t.csv": (("i", "v"), [(np.int64(3), 0.1)])})
    assert res.artifacts() == {
        "stats.csv": "label,N,value\nx,1,0.5\nx,2,0.25\n"
                     "y,4,0.3333333333333333\n",
        "t.csv": "i,v\n3,0.1\n"}


PERIOD_7 = ("input.pattern = 1,0.6,0.8,1.2,0.9,1.1,0.7,"
            "0.1,-0.2,0,0.3,-0.1,0.2,0")


@pytest.mark.parametrize("scenario,line", [
    ("thm6_1", "input.pattern = 1,1,0,0"),      # closed gap
    ("thm6_1", "input.pattern = 0.932,0.932,0.932,0.188,0.188,0.188"),
    ("thm6_1", "input.pattern = 1,x,0,0"),      # not a number
    ("thm4_1", "Ns = 0,5"),                     # empty window
    ("thm4_2", "arc.a = 1.5"),
    ("thm4_2", "arc.k = 0"),
    ("thm4_2", "cmv.N = 0"),
    ("thm4_2", "arc.phase = inf"),
    ("thm4_2", "arc.a = 0.9"),                  # |alpha_0| >= 1
    ("thm3_1", "inputs.count = 0"),
    ("mnt_illustration", "coefficients = 51"),
    ("mnt_illustration", "coefficients = 4801"),  # past the 4800 nodes
    ("mnt_illustration", "coefficients = 127"),   # past the 1e-12 cap
    ("mnt_illustration", "input.tilt = 3"),
    ("thm4_1", "input.bump_value = 1.5"),
    ("thm6_1", "blockmap.K = 0"),
    ("thm6_1", "defect.site = 131"),            # past (K + 1) p = 130
    ("thm6_1", "torus.theta = inf"),
    ("thm6_1", "input.pattern = 1,inf,0,0"),
    ("thm1_1", "bumps.norm_check_N = 0"),
    ("thm4_1", "threshold.cn_last = inf"),      # would switch the check off
    ("thm4_1", "threshold.cn_lst = 1e-7"),      # unknown key
    ("thm6_1", "defect.size = 1e6"),            # |shift| <= 10
    ("conjecture5_1_explore", "bumps.amp = 1e295"),
    ("conjecture5_1_explore", "decay.power = -1"),  # shift would grow
    ("thm6_1", PERIOD_7),                       # 8^6 grid starts
    ("conjecture5_1_explore", PERIOD_7),
    ("thm6_1", "input.pattern = 1,1e-20,0,0"),  # a band collapses
    ("conjecture5_1_explore", "input.pattern = 1,0.5,0,1e10"),
    ("thm6_1", "input.pattern = 1e-8,1,0,0"),   # defect.size 0.3 too large
    ("thm4_1", "Ns = 32,,64"),                  # empty ladder entry
    ("thm4_1", "Ns = 32,64,"),
    ("thm4_1", "Ns = 32,64,99999999999999999999"),  # past 2^32 sites
    ("thm6_1", "torus.Ns = 32,65537"),          # past 2^16 torus offsets
    ("conjecture5_1_explore", "Ns = 65537"),
    ("prop2_2", "Ns = 400,16385"),              # past 2^14 zero counting
    ("thm1_1", "legendre.Ns = 4,50000"),        # past the 2^11 Gauss rule
    ("thm1_1", "bumps.norm_check_N = 16385"),   # past 2^14
    ("thm4_2", "cmv.N = 4097"),                 # past 2^12
    ("prop2_2", "identity.N = 4097"),           # past 2^12
    ("prop2_2", "identity.count = 4097"),       # past 2^12
    ("prop2_2", "identity.count = 17\nidentity.N = 4096"),  # 2^28 < count N^2
    ("thm3_1", "inputs.count = 1025"),          # past 2^10
    ("conjecture5_1_explore", "torus.samples = 16385"),  # past 2^14
    ("thm6_1", "blockmap.K = 1"),               # no interior block
    ("thm6_1", "blockmap.K = 16385"),           # past 2^14
    ("thm4_2", "arc.k = 4294967297"),           # past 2^32
], ids=["closed_gap", "constant_pattern", "non_numeric_pattern",
        "zero_window", "arc_a", "arc_k", "cmv_N", "arc_phase_inf",
        "perturbed_alpha_0", "inputs_count", "mnt_coefficients",
        "mnt_coefficients_past_nodes", "mnt_coefficients_past_cap",
        "mnt_tilt", "circle_bump",
        "blockmap_K", "defect_site_past_blocks", "torus_theta_inf",
        "pattern_inf", "norm_check_N", "threshold_inf", "unknown_key",
        "defect_size", "bumps_amp", "decay_power", "thm6_1_period_7",
        "conjecture_period_7", "collapsed_band", "pattern_scale",
        "defect_size_for_pattern_scale", "ladder_empty_entry",
        "ladder_trailing_comma", "ladder_past_bound", "torus_ladder",
        "conjecture_ladder", "zeros_ladder", "legendre_ladder",
        "norm_check_N_past_bound", "cmv_N_past_bound",
        "identity_N_past_bound", "identity_count_past_bound",
        "identity_count_times_N_squared",
        "inputs_count_past_bound", "torus_samples_past_bound",
        "blockmap_K_one", "blockmap_K_past_bound", "arc_k_past_bound"])
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


def test_thm3_1_reports_a_hadamard_violation_as_a_fail_line(
        tmp_path, capsys, monkeypatch):
    # a type-1 block with det A > prod diag A fails the scenario's own
    # check with a FAIL line, not with a traceback from the normal form
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    real = periodic.normalize_type1

    def violating(inputs):
        out = []
        for t1, chain in real(inputs):
            ell = t1.block_size
            skew = np.zeros((ell, ell))
            skew[0, -1] += 5.0     # adds about 5^2 to det A when ell >= 2
            skew[-1, 0] -= 5.0
            out.append((BlockJacobiParams(ell, t1.A + skew, t1.B, "general"),
                        chain))
        return out

    monkeypatch.setattr(periodic, "normalize_type1", violating)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"scenario = thm3_1\noutdir = {tmp_path / 'out'}\n"
                   "inputs.count = 4\n")
    assert cli.main(["run", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert "FAIL hadamard: " in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cli_config_that_is_not_utf8_exits_2_with_one_error_line(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"scenario = thm4_1\n# caf\xe9\n")
    assert cli.main(["run", str(cfg)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config: ")
    assert "Traceback" not in captured.out + captured.err


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
    text = default_config(sid)
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
        == scenarios.run(sid, {}, 1).artifacts()["stats.csv"].encode()


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


def _traced_names():
    """The functions bench/run.py times by name: the values of its
    FUNCTION_GROUPS table."""
    root = pathlib.Path(__file__).resolve().parents[1]
    tree = ast.parse((root / "bench" / "run.py").read_text(encoding="utf-8"))
    groups = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.AnnAssign)
                  and node.target.id == "FUNCTION_GROUPS")
    return sorted(name for names in groups.values() for name in names)


@pytest.mark.parametrize("name", _traced_names())
def test_every_traced_name_resolves_to_a_callable(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"opspectra.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)


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


def test_period_one_torus_samples_name_every_column():
    # a period-1 torus has no angle columns
    res = scenarios.run("conjecture5_1_explore",
                        {"input.pattern": "1,0", "Ns": "8",
                         "torus.samples": "2"}, 1)
    assert res.artifacts()["torus_samples.csv"] \
        == "a_1,b_1\n1.0,0.0\n1.0,0.0\n"


#: SHA-256 of each default stats.csv, by (scenario, seed)
DEFAULT_STATS_SHA256 = {
    ("thm1_1", 1):
        "31837ae58f681d96360d3543c44c374086ba2338d3f2dbb52bc99593d7996009",
    ("prop2_2", 1):
        "9bd26e2fc438d360a5e30cd27b0bde826b10db4e67593c6e09c9a8230059d4db",
    ("thm3_1", 1):
        "118bf7a131ba31af3ac77b3403a1aed6c8b285d27041470113e1622d58d1781b",
    # seed 2 moves if |det A| is taken with np.abs instead of abs()
    ("thm3_1", 2):
        "99357c3fb242eb37973a5e7075dd54a4ca8ca7dc436462fb94f049351dca5431",
    ("thm4_1", 1):
        "7614c1f0e91c328449eedaeaf7e80f2c6bed87d1d04ee2d9dafc333bdc790ab3",
    ("thm4_2", 1):
        "498221a0ca173f6f382bd579b4df1887a9b51ed76b7fb325dce636a6b96a80e5",
    ("thm6_1", 1):
        "bcc56792b60088149ca5de51eb99eb603cb20902dec7c341a8b9d820126f7b90",
    ("mnt_illustration", 1):
        "d69138e478f4935ba9afa4d2011b3b9e76d23bcf20fc80ca683dab7415f2fd77",
    ("conjecture5_1_explore", 1):
        "a6b80731dbe51ad895a0d9918bb06e12f325c75af3b001ab521e6fe7d0fdb424",
}


#: SHA-256 of thm3_1's stats.csv at inputs.count = 50, by seed: the
#: normal forms stack inputs of all three block sizes, padded to the
#: longest of each size
THM3_1_COUNT50_STATS_SHA256 = {
    1: "0bc651eeb020fca62a4f2ebe186c404b0099164a67c177e0f953961c036f5e6f",
    2: "7285c3bb21721f948dfd1aaff5b39a095baa6a167c38e5c0d2c9a2394b2571f1",
}


#: SHA-256 of thm4_1's stats.csv at the ladder Ns = 2^5, ..., 2^19, by
#: seed: the statistics stream the coefficients, no window is kept
THM4_1_LADDER_STATS_SHA256 = {
    1: "6e3fdc7522d18f941efe0ba1c9154a50c41069891dcddce9281e10888d9e0f3c",
    2: "6e3fdc7522d18f941efe0ba1c9154a50c41069891dcddce9281e10888d9e0f3c",
}

THM4_1_LADDER = ",".join(str(2 ** k) for k in range(5, 20))


def test_pins_cover_every_scenario():
    assert {sid for sid, _ in DEFAULT_STATS_SHA256} == set(ALL_IDS)


@pytest.mark.parametrize("sid, seed", sorted(DEFAULT_STATS_SHA256))
def test_default_stats_csv_is_pinned_byte_for_byte(sid, seed, tmp_path):
    run_scenario(ScenarioConfig(sid, seed=seed, outdir=str(tmp_path)))
    stats = (tmp_path / "stats.csv").read_bytes()
    assert hashlib.sha256(stats).hexdigest() == DEFAULT_STATS_SHA256[sid, seed]


@pytest.mark.parametrize("seed", sorted(THM3_1_COUNT50_STATS_SHA256))
def test_thm3_1_stats_csv_at_50_inputs_is_pinned_byte_for_byte(seed, tmp_path):
    run_scenario(ScenarioConfig("thm3_1", seed=seed, outdir=str(tmp_path),
                                options={"inputs.count": "50"}))
    stats = (tmp_path / "stats.csv").read_bytes()
    assert (hashlib.sha256(stats).hexdigest()
            == THM3_1_COUNT50_STATS_SHA256[seed])


@pytest.mark.parametrize("seed", sorted(THM4_1_LADDER_STATS_SHA256))
def test_thm4_1_stats_csv_at_a_long_ladder_is_pinned_byte_for_byte(
        seed, tmp_path):
    run_scenario(ScenarioConfig("thm4_1", seed=seed, outdir=str(tmp_path),
                                options={"Ns": THM4_1_LADDER}))
    stats = (tmp_path / "stats.csv").read_bytes()
    assert (hashlib.sha256(stats).hexdigest()
            == THM4_1_LADDER_STATS_SHA256[seed])


def test_thm4_1_generates_each_coefficient_once(monkeypatch):
    # the root test and the Cesaro average share one pass over the
    # sequence
    generated = []
    real = scenarios.sparse_bump_verblunsky

    def counting(value):
        fn = real(value)._alpha.fn
        return VerblunskyParams.from_function(
            lambda j: generated.extend(j.tolist()) or fn(j))

    monkeypatch.setattr(scenarios, "sparse_bump_verblunsky", counting)
    scenarios.run("thm4_1", {"Ns": "32,1000,100000"}, 1)
    assert generated == list(range(100000))


def test_ladder_windows_stop_at_2_to_the_32():
    assert scenarios._ladder(f"1,{2 ** 32}") == (1, 2 ** 32)
    with pytest.raises(ValueError, match="past the largest"):
        scenarios._ladder(f"1,{2 ** 32 + 1}")


@pytest.mark.parametrize("scenario, key, largest", [
    ("thm6_1", "torus.Ns", 2 ** 16),
    ("conjecture5_1_explore", "Ns", 2 ** 16),
    ("prop2_2", "Ns", 2 ** 14),
    ("thm1_1", "legendre.Ns", 2 ** 11),
])
def test_window_holding_ladders_stop_at_their_bound(scenario, key, largest):
    assert scenarios.parse_options(
        scenario, {key: f"1,{largest}"})[key] == (1, largest)
    with pytest.raises(scenarios.BadOption,
                       match=f"^{key}: window {largest + 1} is past the "
                             f"largest, {largest}: "):
        scenarios.parse_options(scenario, {key: f"1,{largest + 1}"})


@pytest.mark.parametrize("scenario, key, largest", [
    ("thm1_1", "bumps.norm_check_N", 2 ** 14),
    ("thm4_2", "cmv.N", 2 ** 12),
    ("prop2_2", "identity.N", 2 ** 12),
    ("prop2_2", "identity.count", 2 ** 12),
    ("thm3_1", "inputs.count", 2 ** 10),
    ("conjecture5_1_explore", "torus.samples", 2 ** 14),
    ("thm6_1", "blockmap.K", 2 ** 14),
    ("thm4_2", "arc.k", 2 ** 32),
])
def test_superlinear_sizes_stop_at_their_bound(scenario, key, largest):
    assert scenarios.parse_options(
        scenario, {key: str(largest)})[key] == largest
    with pytest.raises(scenarios.BadOption,
                       match=f"^{key}: size {largest + 1} is past the "
                             f"largest, {largest}: "):
        scenarios.parse_options(scenario, {key: str(largest + 1)})
    with pytest.raises(scenarios.BadOption, match=f"^{key}: 0 is not in"):
        scenarios.parse_options(scenario, {key: "0"})


def test_prop2_2_bounds_the_identity_count_times_n_squared(monkeypatch):
    # each bound alone would let 2^12 inputs of 2^12 sites run for
    # about 20 minutes; the product stops at 2^28, checked before any
    # solve
    class Solved(Exception):
        pass

    def solve(*args):
        raise Solved

    monkeypatch.setattr(scenarios.S, "zero_counting", solve)
    with pytest.raises(Solved):
        scenarios.run("prop2_2", {"identity.count": "16",
                                  "identity.N": "4096"}, 1)
    with pytest.raises(scenarios.BadOption,
                       match=r"^identity\.count, identity\.N: 17 inputs of "
                             r"4096 sites are past the largest count \* N\^2, "
                             r"2\^28: "):
        scenarios.run("prop2_2", {"identity.count": "17",
                                  "identity.N": "4096"}, 1)


_THM3_1_THREADS_SCRIPT = """
import hashlib, os, tempfile
from opspectra.cli import ScenarioConfig, run_scenario
with tempfile.TemporaryDirectory() as out:
    run_scenario(ScenarioConfig("thm3_1", seed=1, outdir=out,
                                options={"inputs.count": "50"}))
    with open(os.path.join(out, "stats.csv"), "rb") as fh:
        print(hashlib.sha256(fh.read()).hexdigest())
"""


def test_thm3_1_stats_csv_does_not_depend_on_the_blas_thread_count():
    # the normal forms multiply stacks of small matrices, which a
    # threaded BLAS could split differently with its thread count
    digests = []
    for threads in ("1", "2"):
        env = _src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _THM3_1_THREADS_SCRIPT],
                             env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.split()[-1])
    assert digests[0] == digests[1] == THM3_1_COUNT50_STATS_SHA256[1]


@pytest.mark.parametrize("module", ("scipy.optimize", "scipy.sparse",
                                    "scipy.linalg"))
def test_importing_the_cli_leaves_a_scipy_module_out(module):
    # no scenario needs a root finder, the block map and the CMV matrix
    # are banded arrays, and spectra loads its LAPACK routines from
    # scipy's extension alone, so no process should pay for any of them
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, opspectra.cli; print({module!r} in sys.modules)"],
        env=_src_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_without_the_lapack_extension_the_import_fails_naming_scipy():
    # spectra has one route to LAPACK: with scipy's extension file out of
    # reach the import raises one error, one line naming scipy's version
    code = ("import importlib.machinery as m; "
            "m.EXTENSION_SUFFIXES[:] = ['.absent']; import opspectra.cli")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         capture_output=True, text=True)
    assert out.returncode == 1
    assert "During handling" not in out.stderr
    last = out.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert "linalg/_flapack" in last
    assert f"scipy {scipy.__version__} " in last


def test_thm3_1_checks_every_block_object_it_makes_exactly_once(
        monkeypatch):
    # the inputs, the chains, the normal forms and the gauge-moved copies
    # are built in groups; each still passes its construction check once
    made, checked = [], []
    stack, validate = sequences._stack, sequences.validate_blocks
    check_chains = UnitaryChain._check_all
    monkeypatch.setattr(sequences, "_stack", lambda obj, name, ell: (
        made.append(obj) if name in ("A", "u") else None,
        stack(obj, name, ell))[1])
    monkeypatch.setattr(sequences, "validate_blocks", lambda *Jbs: (
        checked.extend(Jbs), validate(*Jbs))[1])
    monkeypatch.setattr(UnitaryChain, "_check_all", staticmethod(
        lambda members: (checked.extend(members), check_chains(members))[1]))
    result = scenarios.run("thm3_1", {"inputs.count": "7"}, 3)
    assert result.passed
    # 7 inputs, 7 random chains, 7 gauge-moved copies, and 7 outputs and
    # 7 chains per normal form
    assert len(made) == 49
    assert sorted(map(id, checked)) == sorted(map(id, made))
