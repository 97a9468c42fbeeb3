"""Benchmark of `opspectra run`, end to end and per layer.

    python3 bench/run.py --workload suite --seed 1 --seconds 12 --trace 0

Each workload (see workloads.py) is a closed loop: one process, one op
at a time, BLAS pinned to one thread.  An op is one `opspectra run` of
one scenario config, called in-process through ``cli.main`` with its
artifacts written under ``bench/out``; a pass runs the workload's ops
once.  Every op's stats.csv is checked against ``reference.json``.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median, over SETUP_RUNS fresh interpreters, of the time
  from starting the interpreter until it has imported ``opspectra.cli``
  and written the workload's configs;
* ``cold_pass_s``: the first pass of a fresh process, over this one and
  COLD_CHILDREN set-up processes (started after the steady passes);
* ``pass_s``: the steady passes that follow, started while ``--seconds``
  have not passed (at least MIN_STEADY of them);
* ``peak_rss_mb``: peak resident set of this process.

Every end-to-end time is scaled to the host's reference speed with the
calibration loop timed around it (see hostspeed.py), because this
host's speed switches between two states tens of seconds long.  A pass
time over several passes is the sum over the workload's ops of each
op's median scaled time.  The record also keeps the raw times, every
pass's raw total with quartiles, and the calibration times.

``--trace 1`` alternates untraced and traced passes for ``--seconds``
and reports the per-layer metrics of the median traced pass, with
``trace.overhead_s`` the traced minus the untraced median pass; these
times are raw.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run also appends a full
record (samples, quartiles, per-op times, failures, environment and the
exact configs) to ``bench/out/results.jsonl``; ``bench/compare.py``
compares two such files.  Exit code 2, with no result printed, means
the benchmark could not run (for instance, no program in the checkout).
"""

from __future__ import annotations

import program

program.pin_threads()   # before anything imports numpy

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import hostspeed  # noqa: E402
import verify  # noqa: E402
from compare import quartiles  # noqa: E402
from workloads import WORKLOADS, Workload, write_configs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_RUNS = 5
COLD_CHILDREN = 2
MIN_STEADY = 3
CHILD_TIMEOUT_S = 60.0

LAYERS = ("rng", "sequences", "spectra", "measures", "potential",
          "periodic", "regularity", "scenarios", "cli")

#: functions with their own self_s and calls; each always opens a span
FUNCTION_GROUPS: Dict[str, Tuple[str, ...]] = {
    "spectra.eig_sym_tridiag": ("spectra.eig_sym_tridiag",),
    "spectra.eig_unitary": ("spectra.eig_unitary",),
    "periodic.d_to_torus_batch": ("periodic.d_to_torus_batch",),
    "periodic.discriminant": ("periodic.discriminant",),
    "periodic.normalize_type1": ("periodic.normalize_type1",),
    "periodic.normalize_type3": ("periodic.normalize_type3",),
    "sequences.window": ("sequences.JacobiParams.a_window",
                         "sequences.JacobiParams.b_window",
                         "sequences.VerblunskyParams.alpha_window",
                         "sequences.VerblunskyParams.rho_window"),
    "sequences.validate_blocks": ("sequences.validate_blocks",),
    "measures.discretize": ("measures.discretize",),
    "measures.jacobi_from_measure": ("measures.jacobi_from_measure",),
    "potential.w1_distance": ("potential.w1_distance",),
    "cli.run_scenario": ("cli.run_scenario",),
}

#: work counters: function -> metric counting the values it returns
WORK_COUNTERS = {
    "spectra.eig_sym_tridiag": "spectra.eig_sym_tridiag.eigs",
    "spectra.eig_unitary": "spectra.eig_unitary.eigs",
    "periodic.d_to_torus_batch": "periodic.d_to_torus_batch.offsets",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


@dataclass
class Outcome:
    """What one op did: its wall seconds, the calibration seconds around
    it, its problems (empty when correct), whether its stats.csv equals
    the reference bytes, and the bytes it wrote."""

    op_id: str
    seconds: float
    host_s: float
    problems: List[str] = field(default_factory=list)
    identical: bool = False
    bytes_written: int = 0


def _dir_bytes(path: str) -> int:
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total


def _check_op(op, outdir: str, code: int, printed: str, seed: int,
              ref: Dict) -> Tuple[List[str], bool, int]:
    problems = []
    if code != 0:
        tail = printed.strip().splitlines()[-3:]
        problems.append(f"exit code {code}: " + " | ".join(tail))
    stats_path = os.path.join(outdir, "stats.csv")
    try:
        with open(stats_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return problems + [f"no stats.csv: {exc}"], False, 0
    ref_op = ref["ops"][op.op_id]
    problems += verify.check_stats(text, ref_op, seed, ref["seed"])
    identical = verify.sha256(text) == ref_op["sha256"]
    return problems, identical, _dir_bytes(outdir)


def run_pass(cli, ops, seed: int, ref: Dict, tracer=None) -> List[Outcome]:
    """Run every op once; only the ``cli.main`` calls are timed, each
    between two runs of the calibration loop."""
    outcomes = []
    before = hostspeed.calibrate()
    for op, cfg, outdir in ops:
        if tracer is not None:
            tracer.op = op.op_id
        t0 = time.perf_counter()
        try:
            code, printed = program.run_op(cli, cfg)
        except Exception:       # the op failed; the benchmark goes on
            code, printed = None, traceback.format_exc(limit=5)
        seconds = time.perf_counter() - t0
        after = hostspeed.calibrate()
        outcome = Outcome(op.op_id, seconds, (before + after) / 2)
        before = after
        if code is None:
            outcome.problems = [printed]
        else:
            outcome.problems, outcome.identical, outcome.bytes_written = \
                _check_op(op, outdir, code, printed, seed, ref)
        outcomes.append(outcome)
    return outcomes


def pass_seconds(outcomes: List[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def scaled(o: Outcome) -> float:
    return hostspeed.scale(o.seconds, o.host_s)


# -- set-up processes ---------------------------------------------------

def child_main(args) -> int:
    """A fresh process: import, write configs, say "ready", and, with
    ``--cold``, run one pass and print its outcomes as JSON."""
    cli = program.load_cli(ROOT)
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix="child-", dir=program.scratch_dir())
    try:
        ops = write_configs(workload, args.seed, workdir)
        print("ready", flush=True)
        if args.cold:
            ref = verify.load_reference()
            outcomes = run_pass(cli, ops, args.seed, ref)
            print(json.dumps([o.__dict__ for o in outcomes]), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _spawn(workload: str, seed: int, cold: bool):
    """Start one set-up process; returns its set-up seconds, the
    calibration seconds around it and, for a cold one, the outcomes of
    its first pass."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", workload, "--seed", str(seed)]
    if cold:
        cmd.append("--cold")
    before = hostspeed.calibrate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        t1 = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or code != 0:
        raise BenchError(f"set-up process exited with code {code}")
    host_s = (before + hostspeed.calibrate()) / 2
    outcomes = None
    if cold:
        outcomes = [Outcome(**o) for o in json.loads(rest.splitlines()[-1])]
    return t1 - t0, host_s, outcomes


# -- metrics ------------------------------------------------------------

def _quartiles(xs: List[float]) -> Dict[str, float]:
    q1, med, q3 = quartiles(xs)
    return {"q1": q1, "median": med, "q3": q3, "n": len(xs)}


def layer_metrics(tracer, outcomes: List[Outcome]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass."""
    m: Dict[str, float] = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        t = totals.get(layer, {"self_s": 0.0, "calls": 0, "fail": 0})
        m[f"{layer}.self_s"] = t["self_s"]
        m[f"{layer}.calls"] = t["calls"]
        m[f"{layer}.fail"] = t["fail"]
    for group, names in FUNCTION_GROUPS.items():
        m[f"{group}.self_s"] = sum(tracer.self_s.get(n, 0.0) for n in names)
        m[f"{group}.calls"] = sum(tracer.calls.get(n, 0) for n in names)
    for metric in list(WORK_COUNTERS.values()) + ["rng.draws"]:
        m[metric] = tracer.work.get(metric, 0)
    offsets = m["periodic.d_to_torus_batch.offsets"]
    m["periodic.discriminant.per_offset"] = (
        m["periodic.discriminant.calls"] / offsets if offsets else 0.0)
    m["cli.bytes_written"] = sum(o.bytes_written for o in outcomes)
    m["scenarios.stats_csv_identical"] = sum(o.identical for o in outcomes)
    m["trace.pass_s"] = pass_seconds(outcomes)
    return m


def _make_tracer():
    from tracer import Tracer
    always = [n for names in FUNCTION_GROUPS.values() for n in names]
    return Tracer(always_span=always, work=WORK_COUNTERS,
                  aggregated=("rng",), sized=("spectra",))


def environment(workload: Workload, seed: int, configs: Dict[str, str]):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": sys.version, "platform": platform.platform(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": blas, "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in program.THREAD_ENV},
        "git_sha": _git_sha(), "workload": workload.name, "seed": seed,
        "configs": configs,
    }


def _git_sha() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# -- the two kinds of run -------------------------------------------------

def op_medians(passes: List[List[Outcome]], value) -> Dict[str, float]:
    """Median over the passes of each op's ``value`` (raw or scaled
    seconds)."""
    by_op: Dict[str, List[float]] = {}
    for done in passes:
        for o in done:
            by_op.setdefault(o.op_id, []).append(value(o))
    return {k: statistics.median(v) for k, v in by_op.items()}


def _raw(o: Outcome) -> float:
    return o.seconds


def measure_end_to_end(cli, workload, ops, seed, ref, seconds):
    gc.collect()
    cold = [run_pass(cli, ops, seed, ref)]
    steady: List[List[Outcome]] = []
    start = time.perf_counter()
    while len(steady) < MIN_STEADY or time.perf_counter() - start < seconds:
        gc.collect()
        steady.append(run_pass(cli, ops, seed, ref))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the fresh processes run last, so that their cold passes and this
    # one's lie apart in time and a slow spell of the host hits fewer
    setup: List[Tuple[float, float]] = []
    for i in range(SETUP_RUNS):
        s, host_s, child = _spawn(workload.name, seed,
                                  cold=i < COLD_CHILDREN)
        setup.append((s, host_s))
        if child is not None:
            cold.append(child)
    metrics = {
        "setup_s": statistics.median(hostspeed.scale(s, h) for s, h in setup),
        "cold_pass_s": sum(op_medians(cold, scaled).values()),
        "pass_s": sum(op_medians(steady, scaled).values()),
        "peak_rss_mb": rss_mb}
    samples = {"setup_s": [s for s, _ in setup],
               "cold_pass_s": [pass_seconds(p) for p in cold],
               "pass_s": [pass_seconds(p) for p in steady]}
    host = [h for _, h in setup] + [o.host_s for p in cold + steady
                                    for o in p]
    extra = {"samples": samples,
             "quartiles": {k: _quartiles(v) for k, v in samples.items()},
             "raw": {"setup_s": statistics.median(samples["setup_s"]),
                     "cold_pass_s": sum(op_medians(cold, _raw).values()),
                     "pass_s": sum(op_medians(steady, _raw).values())},
             "host_s": _quartiles(host),
             "per_op_median_s": op_medians(steady, _raw),
             "per_op_scaled_s": op_medians(steady, scaled)}
    outcomes = [o for done in cold + steady for o in done]
    return metrics, outcomes, extra


def measure_layers(cli, workload, ops, seed, ref, seconds, spans_path):
    tracer = _make_tracer()
    modules = [importlib.import_module(f"opspectra.{m}") for m in LAYERS]
    rebind = [m for name, m in sys.modules.items()
              if name == "opspectra" or name.startswith("opspectra.")]
    outcomes = run_pass(cli, ops, seed, ref)       # warm-up, untraced
    plain: List[float] = []
    traced: List[Dict[str, float]] = []
    start = time.perf_counter()
    while not traced or \
            time.perf_counter() - start + plain[-1] \
            + traced[-1]["trace.pass_s"] <= seconds:
        gc.collect()
        done = run_pass(cli, ops, seed, ref)
        plain.append(pass_seconds(done))
        outcomes += done
        gc.collect()
        tracer.reset()
        tracer.install(modules, rebind)
        try:
            done = run_pass(cli, ops, seed, ref, tracer)
        finally:
            tracer.uninstall()
        traced.append(layer_metrics(tracer, done))
        outcomes += done
    tracer.write_spans(spans_path)
    # the whole median traced pass, so that its layer self times add up
    metrics = sorted(traced, key=lambda t: t["trace.pass_s"])[
        (len(traced) - 1) // 2]
    metrics["trace.overhead_s"] = (metrics["trace.pass_s"]
                                   - statistics.median(plain))
    extra = {"untraced_pass_s": plain,
             "traced_pass_s": [t["trace.pass_s"] for t in traced],
             "layer_share": {layer: metrics[f"{layer}.self_s"]
                             / metrics["trace.pass_s"] for layer in LAYERS},
             "spans_file": os.path.relpath(spans_path, ROOT)}
    return metrics, outcomes, extra


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".per_offset"):
        return "calls/offset"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark opspectra end to end (--trace 0) or per "
                    "layer (--trace 1).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(
        program.OUT_DIR, "results.jsonl"),
        help="JSON-lines file the full run record is appended to")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.child:
            return child_main(args)
        return _run(args)
    except (program.ProgramMissing, BenchError, OSError,
            ImportError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    cli = program.load_cli(ROOT)
    ref = verify.load_reference()
    workload = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix="run-", dir=program.scratch_dir())
    try:
        ops = write_configs(workload, args.seed, workdir)
        configs = {op.op_id: op.config_text(args.seed, "<per-run directory>")
                   for op, _, _ in ops}
        if args.trace:
            spans = os.path.join(program.OUT_DIR,
                                 f"spans-{workload.name}-{args.seed}.jsonl")
            metrics, outcomes, extra = measure_layers(
                cli, workload, ops, args.seed, ref, args.seconds, spans)
        else:
            metrics, outcomes, extra = measure_end_to_end(
                cli, workload, ops, args.seed, ref, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [o for o in outcomes if o.problems]
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "attempted": len(outcomes),
        "failed": len(failed), "fail_ratio": len(failed) / len(outcomes),
        "failures": [{"op": o.op_id, "problems": o.problems[:5]}
                     for o in failed[:20]],
        "metrics": metrics, **extra,
        "env": environment(workload, args.seed, configs),
    }
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for f in record["failures"]:
        print(f"FAILED {f['op']}: {f['problems'][0].strip()}")
    if args.trace:
        for layer, share in extra["layer_share"].items():
            print(f"share {layer:10s} {share:7.1%}")
    for name, q in extra.get("quartiles", {}).items():
        print(f"{name} raw samples (whole passes for the pass metrics): "
              f"median {q['median']:.4f} s, quartiles {q['q1']:.4f}.."
              f"{q['q3']:.4f} s, {q['n']} samples")
    if "host_s" in extra:
        q = extra["host_s"]
        print(f"calibration loop: median {q['median'] * 1e3:.2f} ms, "
              f"quartiles {q['q1'] * 1e3:.2f}..{q['q3'] * 1e3:.2f} ms, "
              f"reference {hostspeed.REFERENCE_S * 1e3:.2f} ms")
    for name, value in metrics.items():
        print(f"{name} = {value} {_unit(name)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
