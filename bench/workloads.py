"""The benchmark's workloads: which `opspectra run` configs one pass runs.

An op is one `opspectra run` of one config; a pass runs a workload's ops
once, in order.  The workload seed reaches the program only as each
config's ``seed`` key.  Pass sizes are chosen so that one run of the
benchmark (five fresh set-up processes, three cold passes and the
steady-state passes) ends within about half a minute on two cores, and
ops are kept short (about a second or less, but for the p=3 torus
search) so that the calibration loop timed around each op sees the
host state the op ran in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: seed whose stats.csv values are stored in reference.json
REFERENCE_SEED = 1

#: period-3 pattern a = (1, .6, .8), b = (.1, -.2, 0); all gaps open
P3_PATTERN = "1,0.6,0.8,0.1,-0.2,0"


def _ladder(*ns: int) -> str:
    return ",".join(str(n) for n in ns)


@dataclass(frozen=True)
class Op:
    """One scenario config: ``options`` are overrides on its defaults."""

    op_id: str
    scenario: str
    options: Tuple[Tuple[str, str], ...] = ()

    def config_text(self, seed: int, outdir: str) -> str:
        if "#" in outdir:
            raise ValueError(f"outdir may not contain '#': {outdir!r}")
        lines = [f"scenario = {self.scenario}", f"seed = {seed}",
                 "emit_svg = false", f"outdir = {outdir}"]
        lines += [f"{k} = {v}" for k, v in self.options]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: Tuple[Op, ...]


SUITE_SCENARIOS = ("thm1_1", "prop2_2", "thm3_1", "thm4_1", "thm4_2",
                   "thm6_1", "mnt_illustration", "conjecture5_1_explore")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "suite",
        "the eight scenarios at their defaults, as users run them; every "
        "layer works, so it is the bypass for what the other three stress",
        tuple(Op(f"suite.{sid}", sid) for sid in SUITE_SCENARIOS)),
    Workload(
        "spectral_large",
        "few large eigenproblems (tridiagonal N=1024,2048 and CMV N=512); "
        "spectra is nearly the whole pass and periodic idles",
        (Op("spectral_large.prop2_2", "prop2_2",
            (("Ns", _ladder(1024, 2048)),)),
         Op("spectral_large.thm4_2", "thm4_2", (("cmv.N", "512"),)))),
    Workload(
        "torus",
        "torus-distance search at p=2 and p=3; the periodic layer "
        "dominates and spectra does nothing",
        (Op("torus.thm6_1", "thm6_1",
            (("torus.Ns", _ladder(*(2 ** k for k in range(5, 13)))),)),
         Op("torus.conjecture_p2", "conjecture5_1_explore",
            (("Ns", _ladder(*(2 ** k for k in range(5, 12)))),)),
         Op("torus.conjecture_p3", "conjecture5_1_explore",
            (("input.pattern", P3_PATTERN), ("Ns", "1"),
             ("torus.samples", "2"))))),
    Workload(
        "many_small",
        "the same layers through many small calls: random inputs, small "
        "solves, normal forms and quadrature on short ladders",
        (Op("many_small.thm3_1", "thm3_1", (("inputs.count", "50"),)),
         Op("many_small.prop2_2", "prop2_2",
            (("Ns", _ladder(128, 256)), ("identity.count", "200"))),
         Op("many_small.mnt_illustration", "mnt_illustration",
            (("coefficients", "100"),)),
         Op("many_small.thm4_1", "thm4_1",
            (("Ns", _ladder(*(2 ** k for k in range(5, 20)))),)))),
)}


def write_configs(workload: Workload, seed: int,
                  workdir: str) -> List[Tuple[Op, str, str]]:
    """Write one config file per op into ``workdir``.

    Returns ``(op, config_path, outdir)`` triples in pass order.
    """
    out = []
    for op in workload.ops:
        outdir = os.path.join(workdir, op.op_id)
        path = os.path.join(workdir, op.op_id + ".cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(op.config_text(seed, outdir))
        out.append((op, path, outdir))
    return out
