"""Output verification against reference stats.csv values.

`reference.json` holds, for every op of every workload, the stats.csv
rows the program wrote at the reference seed, the SHA-256 of that file,
and the labels whose values change with the seed.  A run's stats.csv is
correct when it has the same (label, N) rows and

* each value of a seed-independent label (and, at the reference seed,
  of every label) is within ``ATOL + RTOL * |reference|`` of the
  reference;
* each value of a seed-dependent label at another seed is finite; the
  scenario's own thresholds, which the exit code reports, bound those;
* each value of a torus-distance series (``cn_torus_*``) is finite and
  non-negative.  Those are optimizer upper bounds that a better torus
  search is expected to lower, so they are not compared.

Capture the reference on the commit whose outputs are the baseline:

    python3 bench/verify.py --capture
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from typing import Dict, List, Tuple

import program
from workloads import REFERENCE_SEED, WORKLOADS, write_configs

RTOL = 1e-9
ATOL = 1e-12
UPPER_BOUND_PREFIX = "cn_torus_"
#: extra seeds run at capture time to find the seed-dependent labels
PROBE_SEEDS = (2, 17)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

Row = Tuple[str, int, float]


def parse_stats(text: str) -> List[Row]:
    lines = text.splitlines()
    if not lines or lines[0] != "label,N,value":
        raise ValueError("stats.csv lacks its label,N,value header")
    rows = []
    for line in lines[1:]:
        label, n, value = line.rsplit(",", 2)
        rows.append((label, int(n), float(value)))
    return rows


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(path: str = REFERENCE_PATH) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _by_label(rows: List[Row]) -> Dict[str, List[Tuple[int, float]]]:
    out: Dict[str, List[Tuple[int, float]]] = {}
    for label, n, v in rows:
        out.setdefault(label, []).append((n, v))
    return out


def check_stats(text: str, ref_op: Dict, seed: int, ref_seed: int) -> List[str]:
    """Problems found in one op's stats.csv; empty when correct.

    At another seed than the reference one, a seed-dependent label may
    have other windows N (its ladder can depend on the random inputs).
    """
    try:
        rows = parse_stats(text)
    except ValueError as exc:
        return [f"unreadable stats.csv: {exc}"]
    ref_rows = [(lab, n, float(v)) for lab, n, v in ref_op["rows"]]
    seeded = set(ref_op["seeded_labels"]) if seed != ref_seed else set()
    got, want = _by_label(rows), _by_label(ref_rows)
    if list(got) != list(want) or any(
            [n for n, _ in got[lab]] != [n for n, _ in want[lab]]
            for lab in want if lab not in seeded):
        return ["stats.csv rows differ from the reference rows"]
    problems = []
    for label, n, v in rows:
        where = f"{label} at N={n}"
        if not math.isfinite(v):
            problems.append(f"{where}: {v!r} is not finite")
        elif label.startswith(UPPER_BOUND_PREFIX):
            if v < 0.0:
                problems.append(f"{where}: distance {v!r} is negative")
    for label, series in want.items():
        if label in seeded or label.startswith(UPPER_BOUND_PREFIX):
            continue
        for (n, v), (_, ref) in zip(got[label], series):
            if math.isfinite(v) and abs(v - ref) > ATOL + RTOL * abs(ref):
                problems.append(f"{label} at N={n}: {v!r} differs from "
                                f"the reference {ref!r}")
    return problems


def _stats_by_seed(cli, seeds) -> Dict[str, Dict[int, str]]:
    out: Dict[str, Dict[int, str]] = {}
    for workload in WORKLOADS.values():
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=program.scratch_dir()) as tmp:
                for op, cfg, outdir in write_configs(workload, seed, tmp):
                    code, printed = program.run_op(cli, cfg)
                    if code != 0:
                        raise SystemExit(f"{op.op_id} failed at seed {seed}:"
                                         f"\n{printed}")
                    with open(os.path.join(outdir, "stats.csv"),
                              encoding="utf-8") as fh:
                        out.setdefault(op.op_id, {})[seed] = fh.read()
    return out


def capture(root: str, path: str = REFERENCE_PATH) -> None:
    cli = program.load_cli(root)
    seeds = (REFERENCE_SEED,) + PROBE_SEEDS
    texts = _stats_by_seed(cli, seeds)
    ops = {}
    for op_id, by_seed in texts.items():
        ref_text = by_seed[REFERENCE_SEED]
        ref_rows = parse_stats(ref_text)
        want = _by_label(ref_rows)
        seeded = set()
        for seed in PROBE_SEEDS:
            for label, series in _by_label(
                    parse_stats(by_seed[seed])).items():
                if series != want.get(label):
                    seeded.add(label)
        ops[op_id] = {"sha256": sha256(ref_text),
                      "seeded_labels": sorted(seeded),
                      "rows": [[lab, n, repr(v)] for lab, n, v in ref_rows]}
    doc = {"seed": REFERENCE_SEED, "probe_seeds": list(PROBE_SEEDS),
           "rtol": RTOL, "atol": ATOL, "ops": ops}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--capture", action="store_true",
                        help=f"write {os.path.basename(REFERENCE_PATH)} "
                             "from the program in this checkout")
    args = parser.parse_args(argv)
    if not args.capture:
        parser.print_usage(sys.stderr)
        return 2
    program.pin_threads()
    capture(os.path.dirname(HERE))
    return 0


if __name__ == "__main__":
    sys.exit(main())
