"""Byte pins of what `opspectra run` writes and prints besides stats.csv
(pinned in test_scenarios_cli): every other artifact of each default
scenario at seeds 1 and 2, the printed PASS/FAIL lines, and each
scenario's `emit-default-config` text."""

import hashlib

import pytest

from opspectra import cli, scenarios

#: SHA-256 of every file a default run writes other than stats.csv, and
#: of its printed output (``<stdout>``, the output directory written as
#: ``<outdir>``), by (scenario, seed)
ARTIFACT_SHA256 = {
    ("thm1_1", 1): {
        "<stdout>":
            "e63fa12e3f09143ab64917ceadef0213b9294af99370b2eab8054008ef61b878",
    },
    ("thm1_1", 2): {
        "<stdout>":
            "e63fa12e3f09143ab64917ceadef0213b9294af99370b2eab8054008ef61b878",
    },
    ("prop2_2", 1): {
        "density.csv":
            "62ce25f31df283fd58a64e534076ce89f7d3ba21e771d194b776289be0dbc309",
        "zeros.csv":
            "dae57af730792f3591dc002d970ddda8407224a32120ce375705dc79daaa4d1c",
        "<stdout>":
            "40d3563261b60a27b40c2138ea9b3497795fccbf3d35a2d558004474b0d95ca7",
    },
    ("prop2_2", 2): {
        "density.csv":
            "62ce25f31df283fd58a64e534076ce89f7d3ba21e771d194b776289be0dbc309",
        "zeros.csv":
            "dae57af730792f3591dc002d970ddda8407224a32120ce375705dc79daaa4d1c",
        "<stdout>":
            "47092972adb9d8fdacf0e0164161892d715b0b2d2c72c0356fa0e52c7d4fbe05",
    },
    ("thm3_1", 1): {
        "<stdout>":
            "b1780af215a57846d1c883bfe566635a385efe99b71a4d17238b11077a5320a6",
    },
    ("thm3_1", 2): {
        "<stdout>":
            "5ab53c15e2f9fd1e4270c5237a2ede769cf85813c0511735845dfade84c5f466",
    },
    ("thm4_1", 1): {
        "<stdout>":
            "2f18b18fbd567c97e6ce4e5976952b0fa1693e21bec4566e0df22e8e99d9fb69",
    },
    ("thm4_1", 2): {
        "<stdout>":
            "2f18b18fbd567c97e6ce4e5976952b0fa1693e21bec4566e0df22e8e99d9fb69",
    },
    ("thm4_2", 1): {
        "angles.csv":
            "eb3975a8229eaf186e22c8aea7eaea156bbca1ccdf7eface8bd946d3101bbd2b",
        "<stdout>":
            "c95b067c5bf7d79e3e0462cfb2df84a7a1ecb355c3d59e45ec2827919b9016cf",
    },
    ("thm4_2", 2): {
        "angles.csv":
            "eb3975a8229eaf186e22c8aea7eaea156bbca1ccdf7eface8bd946d3101bbd2b",
        "<stdout>":
            "c95b067c5bf7d79e3e0462cfb2df84a7a1ecb355c3d59e45ec2827919b9016cf",
    },
    ("thm6_1", 1): {
        "bands.csv":
            "65a5ae11d2bc81856a630914ad64bf281fce5727e28591cd9b27406b48507487",
        "<stdout>":
            "cb51fd69f987110977550dc869ef062aacf6534143c72976ced6c15b6096191c",
    },
    ("thm6_1", 2): {
        "bands.csv":
            "65a5ae11d2bc81856a630914ad64bf281fce5727e28591cd9b27406b48507487",
        "<stdout>":
            "cb51fd69f987110977550dc869ef062aacf6534143c72976ced6c15b6096191c",
    },
    ("mnt_illustration", 1): {
        "windowed.csv":
            "06483c211fb3624b044273c06a5840551d1f490d3f8a8a777b8584b445d8cfb0",
        "<stdout>":
            "2846a2a3283dedd66f2f0d6ab489b656cd9c6412234da77d1703a58330974cd3",
    },
    ("mnt_illustration", 2): {
        "windowed.csv":
            "06483c211fb3624b044273c06a5840551d1f490d3f8a8a777b8584b445d8cfb0",
        "<stdout>":
            "2846a2a3283dedd66f2f0d6ab489b656cd9c6412234da77d1703a58330974cd3",
    },
    ("conjecture5_1_explore", 1): {
        "bands.csv":
            "65a5ae11d2bc81856a630914ad64bf281fce5727e28591cd9b27406b48507487",
        "torus_samples.csv":
            "e9bfa196aaaa61a7d0257175dd38ae508cd795fa12d1a092689c5f46e0df1414",
        "<stdout>":
            "76f3422d35fb61acf65153ec802431d6fc7d22e329e1ed53e67951cc6d4266c9",
    },
    ("conjecture5_1_explore", 2): {
        "bands.csv":
            "65a5ae11d2bc81856a630914ad64bf281fce5727e28591cd9b27406b48507487",
        "torus_samples.csv":
            "e9bfa196aaaa61a7d0257175dd38ae508cd795fa12d1a092689c5f46e0df1414",
        "<stdout>":
            "76f3422d35fb61acf65153ec802431d6fc7d22e329e1ed53e67951cc6d4266c9",
    },
}

#: SHA-256 of `opspectra emit-default-config <scenario>`
EMIT_SHA256 = {
    "thm1_1":
        "cea8eeed25d1ff1df4353afafaeb5c88f92d7befb298f57997c67022408d6d3d",
    "prop2_2":
        "96330b4f1a2633b16b53da7cbdcff21ffde1e648730bc55bfb3e7888edf75c41",
    "thm3_1":
        "596a6e0615d127e58e3cb2c2dfe221fe8aaa7d4a410ea01f9f5c84ea4e172015",
    "thm4_1":
        "a5bf10081d74f9c67101965e989f002a046b6636cb5a692c546cd8d6086895f0",
    "thm4_2":
        "8d2a52d77d1f58428f74bde716fda17b80c47800342941b504d701af3080af2d",
    "thm6_1":
        "fefc1c6541b1d6a59622a7fe09c27c7cdd13bcd3ef2aedca65911fd702f3e4dc",
    "mnt_illustration":
        "bf4e853b9093865b12e973e2492689ee7e846095a01a3944c3381628cd2a3775",
    "conjecture5_1_explore":
        "542b1916f0eaaa8fc9c2b8024d0b3dde3912031cf05d480f12a2f9dc0acab5fc",
}


def test_pins_cover_every_scenario_at_both_seeds():
    ids = scenarios.scenario_ids()
    assert set(ARTIFACT_SHA256) == {(s, seed) for s in ids for seed in (1, 2)}
    assert set(EMIT_SHA256) == set(ids)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(tmp_path, capsys, monkeypatch, text):
    """`opspectra run` of the config ``text`` (plus an outdir line):
    exit code, printed output with the outdir as ``<outdir>``, and the
    output directory."""
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{text}outdir = {out}\n")
    code = cli.main(["run", str(cfg)])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out.replace(str(out), "<outdir>"), out


@pytest.mark.parametrize("sid, seed", sorted(ARTIFACT_SHA256))
def test_default_run_artifacts_and_printed_lines_are_pinned(
        sid, seed, tmp_path, capsys, monkeypatch):
    code, printed, out = _run(tmp_path, capsys, monkeypatch,
                              f"scenario = {sid}\nseed = {seed}\n")
    assert code == 0
    got = {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())
           if p.name != "stats.csv"}
    got["<stdout>"] = _sha(printed.encode())
    assert got == ARTIFACT_SHA256[sid, seed]


def test_a_threshold_failure_prints_its_fail_line_and_exits_1(
        tmp_path, capsys, monkeypatch):
    code, printed, out = _run(tmp_path, capsys, monkeypatch,
                              "scenario = thm4_1\n"
                              "threshold.cn_last = 1e-12\n")
    assert code == 1
    assert printed == ("PASS root_last_dev: 0.000421321 <= 0.005\n"
                       "FAIL cn_last: 0.00146484 <= 1e-12\n"
                       "scenario thm4_1: FAIL (artifacts in <outdir>)\n")
    assert _sha((out / "stats.csv").read_bytes()) == (
        "7614c1f0e91c328449eedaeaf7e80f2c6bed87d1d04ee2d9dafc333bdc790ab3")


@pytest.mark.parametrize("sid", sorted(EMIT_SHA256))
def test_emit_default_config_is_pinned(sid, capsys):
    assert cli.main(["emit-default-config", sid]) == 0
    assert _sha(capsys.readouterr().out.encode()) == EMIT_SHA256[sid]
