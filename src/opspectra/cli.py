"""Command line front end: run scenarios from flat text configs.

Commands
--------
``opspectra run <config>``
    Execute the scenario named in the config, write ``stats.csv`` (and
    any scenario-specific CSV artifacts, plus one ``plot_<label>.svg``
    per statistic when ``emit_svg = true``) into the output directory,
    print one PASS/FAIL line per threshold, and exit 0 on pass, 1 on a
    threshold failure, 2 on a usage or config error, an unknown key,
    unusable input (a value outside its option's range, a periodic
    pattern with a closed gap) or an output directory that cannot be
    written, with one ``error:`` line.

``opspectra list-scenarios``
    Print the available scenario ids with one-line descriptions.

``opspectra emit-default-config <scenario>``
    Print a config that reproduces the scenario's default run: every
    option the scenario declares, each with a one-line doc.

Config format: one ``key = value`` per line, ``#`` starts a comment.
Besides ``scenario``, ``seed``, ``outdir`` and ``emit_svg``, a config may
set only the options its scenario declares (dotted keys one level deep,
such as ``threshold.cn_last``).  The environment variable
``OPSPECTRA_OUTDIR``, when set, overrides the ``outdir`` key.  Identical
config and seed give byte-identical ``stats.csv``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import scenarios
from .periodic import GapClosed
from .scenarios import BadOption, ScenarioResult, UnknownScenario

OUTDIR_ENV = "OPSPECTRA_OUTDIR"

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)?$")


class ConfigParse(ValueError):
    """A config line failed to parse; carries the line number."""

    def __init__(self, lineno: int, text: str, reason: str = ""):
        self.lineno = lineno
        self.text = text
        self.reason = reason
        msg = f"config line {lineno}: {text.strip()!r}"
        if reason:
            msg += f" ({reason})"
        super().__init__(msg)


class ScenarioFailed(RuntimeError):
    """Thresholds were violated; artifacts are still written."""

    def __init__(self, failures: List[str], report: "ExitReport"):
        self.failures = failures
        self.report = report
        super().__init__("violated thresholds: " + ", ".join(failures))


def parse_config_text(text: str) -> Dict[str, str]:
    """Flat ``key = value`` lines into a string mapping."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigParse(lineno, raw, "expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if not _KEY_RE.match(key):
            raise ConfigParse(lineno, raw, "bad key")
        if not value:
            raise ConfigParse(lineno, raw, "empty value")
        if key in out:
            raise ConfigParse(lineno, raw, "duplicate key")
        out[key] = value
    return out


def load_config(path: str) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


@dataclass
class ScenarioConfig:
    """Everything one run needs: scenario id, seed, output directory,
    whether to emit plots, and the flat option mapping (input choices,
    ladders, thresholds) interpreted by the scenario itself."""

    scenario: str
    seed: int = 1
    outdir: Optional[str] = None
    emit_svg: bool = False
    options: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, mapping: Dict[str, str]) -> "ScenarioConfig":
        opts = dict(mapping)
        try:
            scenario = opts.pop("scenario")
        except KeyError:
            raise ConfigParse(0, "", "missing key: scenario") from None
        try:
            seed = int(opts.pop("seed", "1"))
        except ValueError as exc:
            raise BadOption(f"seed: {exc}") from None
        outdir = opts.pop("outdir", None)
        raw_svg = opts.pop("emit_svg", "false").lower()
        if raw_svg not in ("true", "false", "1", "0", "yes", "no"):
            raise BadOption(f"emit_svg: cannot parse {raw_svg!r}")
        emit_svg = raw_svg in ("true", "1", "yes")
        scenarios.parse_options(scenario, opts)
        return cls(scenario, seed, outdir, emit_svg, opts)


@dataclass
class ExitReport:
    """What a run produced: per-threshold lines, the overall verdict,
    the output directory, and the raw scenario result."""

    scenario: str
    lines: List[str]
    passed: bool
    outdir: str
    result: ScenarioResult


def _fmt_tick(v: float) -> str:
    return f"{v:.4g}"


def svg_polyline(label: str, Ns, values) -> str:
    """Minimal standalone line plot: one polyline, dot markers, two
    axes with end-value ticks.  Deterministic output."""
    w, h = 640, 400
    ml, mr, mt, mb = 70, 20, 25, 45
    lo = min(values)
    hi = max(values)
    if hi - lo < 1e-300:
        pad = abs(hi) * 0.1 + 1e-6
        lo, hi = lo - pad, hi + pad
    span = hi - lo
    n = len(values)
    xs = [ml + (w - ml - mr) * (i / max(1, n - 1)) for i in range(n)]
    ys = [h - mb - (h - mt - mb) * ((v - lo) / span) for v in values]
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{ml}" y1="{h - mb}" x2="{w - mr}" y2="{h - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{h - mb}" stroke="black"/>',
        f'<text x="{ml - 6}" y="{h - mb + 4}" text-anchor="end" '
        f'font-size="12">{_fmt_tick(lo)}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" text-anchor="end" '
        f'font-size="12">{_fmt_tick(hi)}</text>',
        f'<text x="{(ml + w - mr) / 2:.1f}" y="{h - 10}" text-anchor="middle" '
        f'font-size="13">N (window size)</text>',
        f'<text x="{(ml + w - mr) / 2:.1f}" y="{mt - 8}" text-anchor="middle" '
        f'font-size="13">{label}</text>',
    ]
    for i, (x, nval) in enumerate(zip(xs, Ns)):
        parts.append(f'<text x="{x:.2f}" y="{h - mb + 18}" '
                     f'text-anchor="middle" font-size="11">{nval}</text>')
    if n > 1:
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" '
                     'stroke-width="1.5"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                     'fill="#1f5fa8"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run_scenario(cfg: ScenarioConfig) -> ExitReport:
    """Execute one configured scenario and write its artifacts.

    Returns the report on success; raises ScenarioFailed (report
    attached, artifacts already written) when a threshold is violated.
    The scenario runs before the output directory is made, so a bad
    option writes nothing; OSError from the writes propagates.
    """
    outdir = os.environ.get(OUTDIR_ENV) or cfg.outdir \
        or os.path.join("opspectra_out", cfg.scenario)
    result = scenarios.run(cfg.scenario, cfg.options, cfg.seed)
    os.makedirs(outdir, exist_ok=True)
    _write_text(os.path.join(outdir, "stats.csv"), result.stats_csv())
    for name, text in sorted(result.extras.items()):
        _write_text(os.path.join(outdir, name), text)
    if cfg.emit_svg:
        for s in result.series:
            _write_text(os.path.join(outdir, f"plot_{s.label}.svg"),
                        svg_polyline(s.label, s.Ns, s.values))
    lines = [c.line() for c in result.checks]
    if not result.checks:
        lines.append("PASS (no thresholds attached; illustration only)")
    report = ExitReport(cfg.scenario, lines, result.passed, outdir, result)
    if not result.passed:
        raise ScenarioFailed([c.name for c in result.checks if not c.passed],
                             report)
    return report


def _cmd_run(path: str) -> int:
    try:
        cfg = ScenarioConfig.from_mapping(load_config(path))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except (ConfigParse, UnknownScenario, BadOption) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(cfg)
    except (BadOption, GapClosed, OSError) as exc:  # OSError: outdir, writes
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScenarioFailed as exc:
        report = exc.report
    for line in report.lines:
        print(line)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"scenario {report.scenario}: {verdict} "
          f"(artifacts in {report.outdir})")
    return 0 if report.passed else 1


def _cmd_list() -> int:
    for sid in scenarios.scenario_ids():
        print(f"{sid:24s} {scenarios.describe(sid)}")
    return 0


def _cmd_emit(scenario: str) -> int:
    try:
        sys.stdout.write(scenarios.default_config(scenario))
    except UnknownScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="opspectra",
        description="Run orthogonal-polynomial regularity experiments "
                    "from flat text configs.",
        epilog=f"Set {OUTDIR_ENV} to override the output directory.")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="path to a key = value config file")
    sub.add_parser("list-scenarios", help="print available scenario ids")
    p_emit = sub.add_parser("emit-default-config",
                            help="print a scenario's default config")
    p_emit.add_argument("scenario")
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args.config)
    if args.command == "list-scenarios":
        return _cmd_list()
    if args.command == "emit-default-config":
        return _cmd_emit(args.scenario)
    parser.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
