"""Compare two benchmark result files, parent against change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the run records `run.py` appends (one JSON object per
line).  For every workload and end-to-end metric the table gives each
side's median and quartiles over its ``--trace 0`` runs, the change in
the median, the metric's bound from BENCHMARK.json and a verdict:

* ``improved``: every change run beats every parent run, or the change
  wins at least nine tenths of the run pairs (paired in file order,
  ties counting for neither) and the medians differ by more than the
  parent's quartile spread;
* ``worse``: the change median is worse than the parent median by more
  than the bound;
* ``unresolved``: either side's quartile spread, as a share of its
  median, exceeds the bound;
* ``unchanged``: otherwise.

A second table lists the per-layer ``self_s`` medians of the ``--trace
1`` runs, so that a claimed saving can be located.  The exit code is 1
when some verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(parent: List[float], change: List[float], bound: float,
            better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0

    def gain(p: float, c: float) -> float:   # > 0 when c beats p
        return sign * (p - c)

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    if all(gain(p, c) > 0 for p in parent for c in change):
        return "improved"
    if (p3 - p1) / abs(pm) > bound or (c3 - c1) / abs(cm) > bound:
        return "unresolved"
    if -gain(pm, cm) / abs(pm) > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(gain(p, c) > 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain(pm, cm) > p3 - p1:
        return "improved"
    return "unchanged"


def _by_workload(runs: List[Dict], trace: int) -> Dict[str, List[Dict]]:
    out: Dict[str, List[Dict]] = {}
    for r in runs:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def end_to_end_rows(parent: List[Dict], change: List[Dict],
                    spec: Dict) -> List[Tuple]:
    rows = []
    p_by, c_by = _by_workload(parent, 0), _by_workload(change, 0)
    for w in sorted(set(p_by) & set(c_by)):
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name] for r in p_by[w]]
            cv = [r["metrics"][name] for r in c_by[w]]
            p, c = quartiles(pv), quartiles(cv)
            rows.append((w, name, m["unit"], p, c, len(pv), len(cv),
                         (c[1] - p[1]) / abs(p[1]), m["bound"],
                         verdict(pv, cv, m["bound"], m["better"])))
    return rows


def layer_rows(parent: List[Dict], change: List[Dict]) -> List[Tuple]:
    rows = []
    p_by, c_by = _by_workload(parent, 1), _by_workload(change, 1)
    for w in sorted(set(p_by) & set(c_by)):
        names = sorted(k for k in p_by[w][0]["metrics"]
                       if k.endswith(".self_s"))
        for name in names:
            pm = statistics.median(r["metrics"][name] for r in p_by[w])
            cm = statistics.median(r["metrics"].get(name, 0.0)
                                   for r in c_by[w])
            if pm or cm:
                rows.append((w, name, pm, cm, cm - pm))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="results file of the parent commit")
    parser.add_argument("change", help="results file of the change")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parent, change = load_runs(args.parent), load_runs(args.change)

    print(f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'runs':>7s} {'delta':>8s} "
          f"{'bound':>6s}  verdict")
    worse = False
    for (w, name, unit, p, c, np_, nc, delta, bound,
         v) in end_to_end_rows(parent, change, spec):
        worse |= v == "worse"
        print(f"{w:15s} {name:12s} "
              f"{p[1]:10.4g} [{p[0]:.4g}, {p[2]:.4g}] {unit:3s} "
              f"{c[1]:10.4g} [{c[0]:.4g}, {c[2]:.4g}] {unit:3s} "
              f"{np_:3d}/{nc:<3d} {delta:+8.1%} {bound:6.2f}  {v}")
    rows = layer_rows(parent, change)
    if rows:
        print()
        print(f"{'workload':15s} {'layer self time':36s} {'parent s':>10s} "
              f"{'change s':>10s} {'delta s':>10s}")
        for w, name, pm, cm, d in rows:
            print(f"{w:15s} {name:36s} {pm:10.4f} {cm:10.4f} {d:+10.4f}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
