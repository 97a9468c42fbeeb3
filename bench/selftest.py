"""Self-tests of the benchmark: tracer accounting, output verification,
compare verdicts.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import os
import sys
import tempfile
import textwrap
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import program  # noqa: E402

program.pin_threads()

import importlib  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, write_configs  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _module(name: str, source: str, **names) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(names)
    exec(textwrap.dedent(source), mod.__dict__)
    return mod


@pytest.fixture
def fake_layers():
    """Three layers on a fake clock: alpha calls beta, beta draws from
    rng, and gamma holds a name bound by ``from beta import work``."""
    clock = FakeClock()
    rng = _module("fake.rng", """
        def one():
            clock.advance(0.25)
            return 0.5
        def draw(n):
            return np.array([one() for _ in range(n)])
    """, clock=clock, np=np)
    beta = _module("fake.beta", """
        def work(n):
            clock.advance(n)
            rng.draw(3)
            return n
        def broken():
            clock.advance(0.125)
            raise ValueError("planted")
    """, clock=clock, rng=rng)
    alpha = _module("fake.alpha", """
        class Job:
            def run(self):
                clock.advance(1.0)
                self.helper()
                return beta.work(2)
            def helper(self):
                clock.advance(0.5)
                beta.work(1)
        def outer():
            return Job().run()
    """, clock=clock, beta=beta)
    gamma = _module("fake.gamma", "", work=beta.work)
    return clock, alpha, beta, gamma, rng


def test_tracer_self_times_on_a_synthetic_call_tree(fake_layers):
    clock, alpha, beta, gamma, rng = fake_layers
    original_work = beta.work
    tr = Tracer(aggregated=("rng",), clock=clock)
    mods = (alpha, beta, rng)
    tr.install(mods, mods + (gamma,))
    assert gamma.work is beta.work is not original_work

    alpha.outer()
    totals = tr.layer_totals()
    assert totals["alpha"]["self_s"] == pytest.approx(1.5)
    assert totals["beta"]["self_s"] == pytest.approx(3.0)
    # rng.draw spans 3 x 0.25 s each time beta calls it
    assert totals["rng"]["self_s"] == pytest.approx(1.5)
    root = [s for s in tr.spans if s[1] is None]
    assert len(root) == 1 and root[0][2] == "alpha.outer"
    root_s = root[0][4] - root[0][3]
    assert root_s == pytest.approx(6.0)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root_s)

    # every call is counted; only layer crossings open spans
    assert tr.calls["alpha.Job.run"] == 1 and tr.calls["alpha.Job.helper"] == 1
    assert tr.calls["rng.one"] == 6 and tr.work["rng.draws"] == 6
    stored = [s[2] for s in tr.spans]
    assert stored == ["beta.work", "beta.work", "alpha.outer"]
    # beta.work called from helper still hangs under the root span
    assert {s[1] for s in tr.spans if s[2] == "beta.work"} == {root[0][0]}

    with pytest.raises(ValueError):
        beta.broken()
    assert tr.fail["beta.broken"] == 1 and tr.layer_totals()["beta"]["fail"] == 1

    tr.uninstall()
    assert beta.work is original_work and gamma.work is original_work
    assert "run" in vars(alpha.Job) and not hasattr(vars(alpha.Job)["run"],
                                                    "__wrapped__")


def test_always_span_functions_open_spans_inside_their_layer(fake_layers):
    clock, alpha, beta, gamma, rng = fake_layers
    tr = Tracer(always_span=("alpha.Job.helper",), clock=clock)
    tr.install((alpha, beta), (alpha, beta))
    try:
        alpha.outer()
    finally:
        tr.uninstall()
    assert tr.self_s["alpha.Job.helper"] == pytest.approx(0.5)
    assert tr.self_s["alpha.outer"] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def program_cli():
    return program.load_cli(run.ROOT)


def _one_op(workload: str, op_id: str, workdir: str):
    ops = write_configs(WORKLOADS[workload], REFERENCE_SEED, workdir)
    return [o for o in ops if o[0].op_id == op_id]


def test_traced_suite_op_layers_add_up_to_the_root_span(program_cli):
    ref = verify.load_reference()
    tr = run._make_tracer()
    mods = [importlib.import_module(f"opspectra.{m}") for m in run.LAYERS]
    rebind = [m for n, m in sys.modules.items()
              if n == "opspectra" or n.startswith("opspectra.")]
    with tempfile.TemporaryDirectory(dir=program.scratch_dir()) as tmp:
        ops = _one_op("suite", "suite.thm6_1", tmp)
        tr.install(mods, rebind)
        try:
            outcomes = run.run_pass(program_cli, ops, REFERENCE_SEED, ref, tr)
        finally:
            tr.uninstall()
    assert outcomes[0].problems == [] and outcomes[0].identical
    roots = [s for s in tr.spans if s[1] is None]
    assert [s[2] for s in roots] == ["cli.main"]
    root_s = roots[0][4] - roots[0][3]
    layer_sum = sum(t["self_s"] for t in tr.layer_totals().values())
    # the tracer's own cost lands inside the spans, so the sum is exact
    # up to rounding
    assert abs(layer_sum - root_s) < 1e-9 * max(1, len(tr.spans))
    m = run.layer_metrics(tr, outcomes)
    assert m["periodic.d_to_torus_batch.calls"] > 0
    assert m["periodic.d_to_torus_batch.offsets"] == 2000 + 2000
    assert m["periodic.discriminant.calls"] >= 1
    assert m["scenarios.stats_csv_identical"] == 1
    # names bound by "from ... import" are wrapped too
    assert tr.calls["sequences.JacobiParams.from_functions"] > 0
    assert all(s[3] <= s[4] for s in tr.spans)


def test_verifier_counts_a_planted_wrong_value_as_a_failure(program_cli):
    ref = verify.load_reference()
    with tempfile.TemporaryDirectory(dir=program.scratch_dir()) as tmp:
        ops = _one_op("suite", "suite.thm1_1", tmp)
        outcomes = run.run_pass(program_cli, ops, REFERENCE_SEED, ref)
        assert outcomes[0].problems == [] and outcomes[0].identical
        op, cfg, outdir = ops[0]
        path = os.path.join(outdir, "stats.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        label, n, value = lines[3].rsplit(",", 2)
        lines[3] = f"{label},{n},{repr(float(value) * (1 + 1e-6))}"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        problems, identical, _ = run._check_op(op, outdir, 0, "",
                                               REFERENCE_SEED, ref)
    assert not identical
    assert len(problems) == 1 and f"{label} at N={n}" in problems[0]


def _stats(rows) -> str:
    return "label,N,value\n" + "".join(f"{a},{n},{v!r}\n" for a, n, v in rows)


def test_verifier_rules_for_seeded_and_torus_series():
    ref_op = {"rows": [["fixed", 4, "1.0"], ["noise", 4, "0.001"],
                       ["cn_torus_x", 4, "0.25"]],
              "seeded_labels": ["noise"], "sha256": ""}

    def check(rows, seed):
        return verify.check_stats(_stats(rows), ref_op, seed, 1)

    ok = [("fixed", 4, 1.0), ("noise", 4, 0.001), ("cn_torus_x", 4, 0.25)]
    assert check(ok, 1) == []
    moved_noise = [ok[0], ("noise", 4, 0.003), ok[2]]
    assert check(moved_noise, 5) == []
    assert len(check(moved_noise, 1)) == 1
    assert check([ok[0], ok[1], ("cn_torus_x", 4, 0.125)], 1) == []
    assert len(check([ok[0], ok[1], ("cn_torus_x", 4, -0.1)], 1)) == 1
    assert len(check([ok[0], ok[1], ("cn_torus_x", 4, float("nan"))], 1)) == 1
    assert len(check([("fixed", 4, 1.0 + 1e-7), ok[1], ok[2]], 7)) == 1
    assert check(ok[:2], 1) == ["stats.csv rows differ from the reference rows"]


def test_compare_verdicts():
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict(parent, [v * 0.5 for v in parent], 0.1,
                           "lower") == "improved"
    assert compare.verdict(parent, [v * 1.3 for v in parent], 0.1,
                           "lower") == "worse"
    assert compare.verdict(parent, [v * 1.01 for v in parent], 0.1,
                           "lower") == "unchanged"
    noisy = [1.0, 2.0, 0.5, 1.5, 0.7, 1.2, 0.9, 1.8, 0.6, 1.1]
    assert compare.verdict(noisy, noisy[::-1], 0.1, "lower") == "unresolved"
    assert compare.verdict(parent, [v * 1.3 for v in parent], 0.1,
                           "higher") == "improved"
