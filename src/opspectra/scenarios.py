"""Named numerical experiments over the toolkit, driven by flat
key = value options.

Each scenario declares its options once, in one table (parser, default,
doc).  `run` is the one place that parses them: it turns the option
text into typed values, every default filled in, before anything is
computed.  The scenario then builds deterministic inputs (seeded through
SplitMix64 where randomness is wanted), computes a bundle of windowed
statistics, evaluates its thresholds, and hands everything back in one
ScenarioResult: the statistic series, the tables of its extra
artifacts, the pass/fail checks, and the raw inputs so that
cross-cutting identities can be asserted on every input of every
scenario.  `ScenarioResult.artifacts` formats stats.csv and every extra
through the one CSV formatter, `csv_text`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import measures as M
from . import periodic as P
from . import potential as pot
from . import regularity as R
from . import spectra as S
from .rng import SplitMix64
from .sequences import (BlockJacobiParams, IndexFn, JacobiParams,
                        UnitaryChain, VerblunskyParams, _built_together,
                        _herm)


class UnknownScenario(ValueError):
    """Scenario id not in the registry."""


class BadOption(ValueError):
    """A config option failed to parse or is out of range."""


#: relation name -> (test, symbol)
_RELATIONS = {"le": (operator.le, "<="), "ge": (operator.ge, ">="),
              "lt": (operator.lt, "<")}


@dataclass
class Check:
    """One threshold evaluation: ``value`` compared against ``bound``
    with the given relation ("le", "ge", "lt")."""

    name: str
    value: float
    bound: float
    relation: str = "le"

    @property
    def passed(self) -> bool:
        return _RELATIONS[self.relation][0](self.value, self.bound)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name}: {self.value:.6g} "
                f"{_RELATIONS[self.relation][1]} {self.bound:.6g}")


def csv_text(header, rows) -> str:
    """One CSV artifact: the header line, then one line per row; float
    cells by repr, other cells (ints, labels) as written."""
    return "".join(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                            for v in row) + "\n" for row in (header, *rows))


@dataclass
class ScenarioResult:
    scenario: str
    series: List[R.StatSeries] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    # extra artifacts by file name, each a (header, rows) table
    extras: Dict[str, tuple] = field(default_factory=dict)
    # inputs exposed for cross-cutting identity checks
    jacobi_inputs: List[Tuple[str, JacobiParams, Tuple[int, ...]]] = \
        field(default_factory=list)
    verblunsky_inputs: List[Tuple[str, VerblunskyParams, Tuple[int, ...]]] = \
        field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def artifacts(self) -> Dict[str, str]:
        """Every CSV artifact by file name: stats.csv, one
        ``label,N,value`` row per statistic window, then the extras."""
        stats = [(s.label, n, v) for s in self.series
                 for n, v in zip(s.Ns, s.values)]
        out = {"stats.csv": csv_text(("label", "N", "value"), stats)}
        out.update((name, csv_text(*table))
                   for name, table in sorted(self.extras.items()))
        return out


def _num(cast, lo=-math.inf, hi=math.inf, closed=False):
    """Parser of a finite cast(text) in (lo, hi), or in [lo, hi] if closed."""
    def parse(text: str):
        x = cast(text)
        if not (math.isfinite(x) and (lo <= x <= hi if closed else lo < x < hi)):
            left, right = "[]" if closed else "()"
            raise ValueError(f"{x!r} is not in {left}{lo!r}, {hi!r}{right}")
        return x
    return parse


_real = _num(float)
_threshold = _num(float, 0.0)
# a b_n shift, kept well below the sizes where thm6_1's block map loses
# its type-3 shape (about 1e3 at period 4) and the torus weights overflow
_shift = _num(float, -10.0, 10.0, closed=True)


#: largest window of a ladder: the statistics stream any N in O(2^14)
#: memory, and 2^32 sites take them minutes
_MAX_WINDOW = 2 ** 32


def _ladder_upto(largest: int, why: str = ""):
    """Parser of a window ladder whose last window is at most
    ``largest``; ``why`` ends the message past it."""
    def parse(text: str) -> Tuple[int, ...]:
        Ns = R._check_ladder(int(t) for t in text.split(","))
        if Ns[-1] > largest:
            raise ValueError(f"window {Ns[-1]} is past the largest, "
                             f"{largest}{why}")
        return Ns
    return parse


_ladder = _ladder_upto(_MAX_WINDOW)
# ladders of the consumers that hold every window at once, each bound
# sized from its time on 2 cores with one BLAS thread: the torus search
# keeps O(1) numbers per offset for all N offsets (2^16 take about 2 s
# and 80 MB at p = 2, 2^18 about 7 s), and the zero counting
# diagonalizes an N-site truncation in O(N^2) (2^14 takes about 6 s)
_torus_ladder = _ladder_upto(
    2 ** 16, ": the torus search holds every offset at once")
_zeros_ladder = _ladder_upto(
    2 ** 14, ": the zero counting takes O(N^2) time")


def _size_upto(largest: int, why: str, least: int = 1):
    """Parser of a size from ``least`` to ``largest``; ``why`` ends the
    message past ``largest``."""
    at_least = _num(int, least - 1)

    def parse(text: str) -> int:
        n = at_least(text)
        if n > largest:
            raise ValueError(f"size {n} is past the largest, {largest}{why}")
        return n
    return parse


# sizes that drive a solve costing more than linear time, each bound
# sized like the ladders above: thm1_1's flat measure needs an
# (N + 1)-point Gauss rule, whose companion matrix has (N + 1)^2 entries
# (2^11 take about 1.2 s and 130 MB, 4000 about 7 s and 310 MB); the
# tridiagonal norm check is O(N^2) (2^14 take about 2 s); the circle
# eigensolver takes about 1.7 s at 2^12 and 8 s at 2^13; and each trace
# identity input about 0.3 s at 2^12 and 1.3 s at 2^13, times the count
_legendre_ladder = _ladder_upto(
    2 ** 11, ": the flat measure's Gauss rule takes O(N^2) memory")
_norm_check_size = _size_upto(
    2 ** 14, ": the norm check takes O(N^2) time")
_cmv_size = _size_upto(
    2 ** 12, ": the circle eigensolver takes O(N^2) time")
_identity_size = _size_upto(
    2 ** 12, ": each trace identity input takes O(N^2) time")
# counts and sizes whose cost grows linearly, bounded like the ladders
# so that a typo cannot run for hours: 2^12 trace identity inputs take
# about 4.7 s at N = 200; thm3_1 holds every input until the normal
# forms run (2^10 take about 2.8 s and 81 MB); each torus sample is a
# row of torus_samples.csv (2^14 rows are 1.5 MiB at p = 2 and 5.1 MiB at
# p = 6, and computing them takes 5 to 30 ms with a 3 to 14 MiB peak,
# one map call and one stacked check for all of them); the block map
# holds K blocks of p x p (2^14 take about 0.25 s and a 150 MB peak at
# p = 6); and the arc's block statistic streams k sites ahead in O(1)
# memory, like any window
_identity_count = _size_upto(
    2 ** 12, ": each input solves an identity.N-site truncation")
# the two bounds above multiply: count * N^2 at 2^28 takes about 4.5 s
# (16 inputs at N = 2^12, or 64 at 2^11), while 2^12 of each would take
# about 20 minutes
_IDENTITY_WORK = 2 ** 28
_inputs_count = _size_upto(
    2 ** 10, ": every input is held until the normal forms run")
_samples_count = _size_upto(
    2 ** 14, ": each torus sample is a row of torus_samples.csv "
    "(2^14 rows are 5.1 MiB at p = 6)")
_blockmap_size = _size_upto(
    2 ** 14, ": the block map holds K blocks of p x p", least=2)
_block_length = _size_upto(
    _MAX_WINDOW, ": 2^32 sites take the statistics minutes")


#: largest period of an input pattern: the torus search starts from a
#: grid of 8^(p - 1) angles (2.6e5 at p = 7, 1.3e8 at p = 10)
_MAX_PERIOD = 6


def _pattern(text: str) -> pot.FiniteGapSet:
    """The band set of the generator a_1..a_p,b_1..b_p, which carries
    the generator.  The period must be at most _MAX_PERIOD and the set
    must have p bands: a band that collapses to a point at the scale of
    the pattern (FiniteGapSet rejects it) and a closed gap are unusable
    input, as is an odd length (PeriodicJacobi rejects it)."""
    vals = [_real(t) for t in text.split(",")]
    p = len(vals) // 2
    if p > _MAX_PERIOD:
        raise ValueError(f"period {p} is above {_MAX_PERIOD}: the torus "
                         f"search would start from 8^{p - 1} grid points")
    return P._open_bands(P.PeriodicJacobi(tuple(vals[:p]), tuple(vals[p:])))


#: (parser of the config text, default config text, one-line doc)
Option = Tuple[Callable[[str], object], str, str]

_PATTERN: Option = (_pattern, "1,0.5,0,0",
                    f"generator a_1..a_p,b_1..b_p, p <= {_MAX_PERIOD}, "
                    "every gap open")

#: scenario id -> (runner, one-line description, option table)
_SCENARIOS: Dict[str, tuple] = {}


def _scenario(sid: str, doc: str, table: Dict[str, Option]):
    """Register the decorated runner as scenario ``sid``."""
    def register(runner):
        _SCENARIOS[sid] = (runner, doc, table)
        return runner
    return register


def _is_pow2(n: np.ndarray) -> np.ndarray:
    """Elementwise: is the integer n a power of two (1, 2, 4, ...)?"""
    return (n >= 1) & ((n & (n - 1)) == 0)


def sparse_bump_jacobi(value: float) -> JacobiParams:
    """a_n = value at n = 2, 4, 8, ... (powers of two above 1), else 1;
    b = 0.  A classic regular-but-not-Nevai coefficient sequence."""
    return JacobiParams.from_functions(
        lambda n: np.where((n > 1) & _is_pow2(n), value, 1.0),
        lambda n: 0.0)


def sparse_bump_verblunsky(value: float) -> VerblunskyParams:
    """alpha_j = value at j = 1, 2, 4, 8, ... (powers of two), else 0."""
    return VerblunskyParams.from_function(
        lambda j: np.where(_is_pow2(j), value, 0.0))


def _seeded_jacobi(rng: SplitMix64, n: int) -> JacobiParams:
    a = 1.0 + 0.4 * (rng.uniforms(n) - 0.5)
    b = 0.8 * (rng.uniforms(n) - 0.5)
    return JacobiParams(a[: n - 1], b)


# ---------------------------------------------------------------------
# thm1_1: scalar regularity implies the Cesaro deviation average dies
# ---------------------------------------------------------------------


@_scenario("thm1_1", "scalar regularity: measure ladder and sparse bumps", {
    "legendre.Ns": (_legendre_ladder, "4,8,16,32,60",
                    "windows of the flat measure"),
    "threshold.legendre_cn_last": (_threshold, "0.02", "its last average"),
    "input.bump_value": (_num(float, 0.0), "0.5", "a_n at n = 2, 4, 8, ..."),
    "bumps.Ns": (_ladder, "32,64,128,256,512,1024,2048,4096,8192", "windows"),
    "bumps.norm_check_N": (_norm_check_size, "1024", "size of the norm check"),
    "threshold.bumps_root_dev": (_threshold, "0.01", "|last root test - 1|"),
    "threshold.bumps_cn_last": (_threshold, "0.01", "last Cesaro average"),
})
def _run_thm1_1(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm1_1")
    # part 1: flat measure on [-2, 2] through the moment ladder
    lad1 = o["legendre.Ns"]
    n_coef = lad1[-1] + 1
    dm = M.discretize(M.LineMeasureSpec.legendre_flat(), max(200, n_coef))
    J1 = M.jacobi_from_measure(dm, n_coef)
    cn1 = R.cn_stat_oprl(J1, lad1, label="cn_legendre")
    res.series.append(cn1)
    res.jacobi_inputs.append(("legendre", J1, lad1))
    res.checks.append(Check("legendre_cn_last", cn1.last,
                            o["threshold.legendre_cn_last"]))
    res.checks.append(Check("legendre_cn_decreasing",
                            0.0 if cn1.decreasing() else 1.0, 0.5))

    # part 2: sparse off-diagonal bumps
    lad2 = o["bumps.Ns"]
    J2 = sparse_bump_jacobi(o["input.bump_value"])
    rt2, cn2 = R.root_and_cesaro(J2, lad2, root_label="root_bumps",
                                 cn_label="cn_bumps")
    res.series += [cn2, rt2]
    res.jacobi_inputs.append(("sparse_bumps", J2, lad2))
    w = S.eig_sym_tridiag(J2, o["bumps.norm_check_N"])
    res.checks.append(Check("bumps_norm", float(np.max(np.abs(w))),
                            2.0 + 1e-9))
    res.checks.append(Check("bumps_root_last", abs(rt2.last - 1.0),
                            o["threshold.bumps_root_dev"]))
    res.checks.append(Check("bumps_cn_last", cn2.last,
                            o["threshold.bumps_cn_last"]))
    return res


# ---------------------------------------------------------------------
# prop2_2: zero counting approaches the arcsine law; trace identities
# ---------------------------------------------------------------------


@_scenario("prop2_2", "zero counting vs arcsine law; trace identities", {
    "Ns": (_zeros_ladder, "400,800",
           "truncation sizes of the zero counting"),
    "threshold.w1_first": (_threshold, "0.02", "W1 to arcsine at the first N"),
    "trace.Ns": (_ladder, "32,64,128,256,512", "windows of the trace"),
    "identity.count": (_identity_count, "50",
                       "random trace identity inputs"),
    "identity.N": (_identity_size, "200", "their truncation size"),
    "threshold.trace_identity": (_threshold, "1e-8", "worst mismatch"),
})
def _run_prop2_2(o: Dict[str, object], seed: int) -> ScenarioResult:
    count, n_id = o["identity.count"], o["identity.N"]
    if count * n_id ** 2 > _IDENTITY_WORK:
        raise BadOption(f"identity.count, identity.N: {count} inputs of "
                        f"{n_id} sites are past the largest count * N^2, "
                        "2^28: each input takes O(N^2) time")
    res = ScenarioResult("prop2_2")
    Ns = o["Ns"]
    ref = pot.equilibrium_measure((-2.0, 2.0))
    w1_vals = []
    for n in Ns:
        emp = S.zero_counting(JacobiParams.free(n), n)
        w1_vals.append(pot.w1_distance(emp, ref))
    res.series.append(R.StatSeries("w1_free", Ns, tuple(w1_vals)))
    res.extras["zeros.csv"] = (("index", "point"), list(enumerate(emp.points)))
    res.extras["density.csv"] = (("x", "density"), ref.density_samples())
    res.checks.append(Check("w1_first", w1_vals[0], o["threshold.w1_first"]))
    res.checks.append(Check("w1_shrinks", w1_vals[-1], w1_vals[0], "lt"))

    lad = o["trace.Ns"]
    Jf = JacobiParams.free()
    ts = R.trace_stat(Jf, lad, label="trace_free")
    res.series.append(ts)
    res.jacobi_inputs.append(("free", Jf, lad))
    worst_gap = max(abs(v - 2.0) - 2.5 / n for n, v in zip(ts.Ns, ts.values))
    res.checks.append(Check("trace_near_2", worst_gap, 0.0))

    worst = 0.0
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        Jr = _seeded_jacobi(rng, n_id)
        f, e = S.trace_square(Jr, n_id)
        worst = max(worst, abs(f - e) / max(1.0, abs(f)))
        if s < 3:
            res.jacobi_inputs.append((f"random_{s}", Jr,
                                      (n_id // 2, n_id - 1)))
    res.series.append(R.StatSeries("trace_identity_worst", (n_id,), (worst,)))
    res.checks.append(Check("trace_identity", worst,
                            o["threshold.trace_identity"]))
    return res


# ---------------------------------------------------------------------
# thm3_1: block normal forms and the equivalence-invariant average
# ---------------------------------------------------------------------


def _block_draws(rng: SplitMix64, ell: int, K: int):
    """(A, B): K Hermitian B's, then K - 1 A's near I, from one complex
    normal each."""
    z = rng.normals(2 * (2 * K - 1) * ell * ell).view(complex).reshape(-1, ell, ell)
    B = 0.4 * z[:K]
    B = (B + _herm(B)) / 2.0
    A = np.eye(ell, dtype=complex) + 0.35 * z[K:]
    return A, B


def _random_blocks(rng: SplitMix64, ell: int, K: int) -> BlockJacobiParams:
    """General-tag block parameters from ``_block_draws``."""
    return BlockJacobiParams(ell, *_block_draws(rng, ell, K), "general")


def _random_chains(draws) -> List[UnitaryChain]:
    """One chain per (rng, ell, count) of ``draws``: u_1 = I, then the
    phase-fixed Q factors of count - 1 complex normal matrices from that
    rng, with one stacked QR per block size; the chains are built
    together, one unitarity check per block size."""
    g = [rng.normals(2 * (count - 1) * ell * ell).view(complex)
         .reshape(count - 1, ell, ell) for rng, ell, count in draws]
    us = [None] * len(draws)
    for ell in sorted({ell for _, ell, _ in draws}):
        idx = [i for i, (_, e, _) in enumerate(draws) if e == ell]
        q = P._qr_step(_herm(np.concatenate([g[i] for i in idx])))
        ends = np.cumsum([len(g[i]) for i in idx])
        for i, qi in zip(idx, np.split(q, ends[:-1])):
            us[i] = np.concatenate([np.eye(ell)[None], qi])
    return _built_together(UnitaryChain, [(u,) for u in us])


def _random_chain(rng: SplitMix64, ell: int, count: int) -> UnitaryChain:
    """The one chain of ``_random_chains([(rng, ell, count)])``."""
    [chain] = _random_chains([(rng, ell, count)])
    return chain


@_scenario("thm3_1", "block normal forms and the invariant average", {
    "inputs.count": (_inputs_count, "20", "random block Jacobi inputs"),
    "threshold.spectra_preserved": (_threshold, "1e-10", "eigenvalue shift"),
    "threshold.det_preserved": (_threshold, "1e-12", "|det A_n| shift"),
    "threshold.invariant_form": (_threshold, "1e-12", "invariant avg shift"),
})
def _run_thm3_1(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm3_1")
    count = o["inputs.count"]
    worst_spec = worst_det = worst_inv = 0.0
    hadamard = -math.inf   # max of det A - prod diag A over type-1 blocks
    rep_series = None
    rngs, rows = [], []
    for i in range(count):
        rng = SplitMix64(seed * 777 + i)
        ell = int(1 + rng.next_u64() % 3)
        K = int(8 + rng.next_u64() % 33)        # up to 40 blocks
        rows.append((ell, *_block_draws(rng, ell, K), "general"))
        rngs.append(rng)
    # every input, its random gauge chain and the gauge-moved copy are
    # built together, one construction check per block size
    inputs = _built_together(BlockJacobiParams, rows)
    chains = _random_chains([(rng, Jb.block_size, len(Jb.B) + 1)
                             for rng, Jb in zip(rngs, inputs)])
    moved = _built_together(BlockJacobiParams, [
        (Jb.block_size, *chain._moved(Jb), "general")
        for chain, Jb in zip(chains, inputs)])
    forms = zip(P.normalize_type3(inputs), P.normalize_type1(inputs))
    for Jb, Jm, ((t3, _), (t1, _)) in zip(inputs, moved, forms):
        w0 = S.eig_block(Jb, len(Jb.B))
        dx = np.linalg.det(Jb.A)
        for t in (t3, t1):
            wt = S.eig_block(t, len(t.B))
            worst_spec = max(worst_spec, float(np.max(np.abs(wt - w0))))
            dy = np.linalg.det(t.A)  # |det| as hypot: bit-equal to abs()
            shift = np.abs(np.hypot(dx.real, dx.imag) - np.hypot(dy.real, dy.imag))
            worst_det = max(worst_det, float(np.max(shift)))
        # the loop ends on t1, so dy is det(t1.A)
        diag = np.prod(np.diagonal(t1.A, axis1=1, axis2=2).real, axis=1)
        hadamard = max(hadamard, float(np.max(dy.real - diag)))
        lad = tuple(sorted({max(1, len(Jb.B) // 4), max(2, len(Jb.B) // 2),
                            len(Jb.B) - 1}))
        inv_a = R.cn_stat_matrix_invariant(Jb, lad)
        inv_b = R.cn_stat_matrix_invariant(Jm, lad)
        worst_inv = max(worst_inv, max(abs(x - y) for x, y
                                       in zip(inv_a.values, inv_b.values)))
        if rep_series is None:
            tf, iv = R.cn_stat_matrix(t3, lad)
            rep_series = [tf, iv]
    res.series += rep_series
    for label, worst in (("spec_preserved_worst", worst_spec),
                         ("det_preserved_worst", worst_det),
                         ("invariant_form_shift", worst_inv)):
        res.series.append(R.StatSeries(label, (count,), (worst,)))
    res.checks.append(Check("spectra_preserved", worst_spec,
                            o["threshold.spectra_preserved"]))
    res.checks.append(Check("det_preserved", worst_det,
                            o["threshold.det_preserved"]))
    res.checks.append(Check("hadamard", hadamard, 1e-12))
    res.checks.append(Check("invariant_form", worst_inv,
                            o["threshold.invariant_form"]))
    return res


# ---------------------------------------------------------------------
# thm4_1: circle analog of the sparse-bump regularity example
# ---------------------------------------------------------------------


@_scenario("thm4_1", "circle sparse bumps: root test and deviation average", {
    "input.bump_value": (_num(float, -1.0, 1.0), "0.5",
                         "alpha_j at j = 1, 2, 4, 8, ..."),
    "Ns": (_ladder, "32,64,128,256,512,1024,2048,4096", "windows"),
    "threshold.root_dev": (_threshold, "0.005", "|last root test - 1|"),
    "threshold.cn_last": (_threshold, "0.005", "last Cesaro average"),
})
def _run_thm4_1(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm4_1")
    lad = o["Ns"]
    V = sparse_bump_verblunsky(o["input.bump_value"])
    rt, cn = R.root_and_cesaro(V, lad, root_label="root_opuc",
                               cn_label="cn_opuc")
    res.series += [rt, cn]
    res.verblunsky_inputs.append(("sparse_alpha", V, lad))
    res.checks.append(Check("root_last_dev", abs(rt.last - 1.0),
                            o["threshold.root_dev"]))
    res.checks.append(Check("cn_last", cn.last, o["threshold.cn_last"]))
    return res


# ---------------------------------------------------------------------
# thm4_2: the circular arc, its torus point, and perturbations
# ---------------------------------------------------------------------


@_scenario("thm4_2",
           "circular arc: torus point, truncation angles, perturbations", {
    "arc.a": (_num(float, 0.0, 1.0), "0.5", "arc parameter: alpha_j = a"),
    "arc.k": (_block_length, "3", "block length of the block statistic"),
    "cmv.N": (_cmv_size, "256", "CMV truncation size"),
    "Ns": (_ladder, "32,64,128,256,512,1024,2000", "windows"),
    "arc.phase": (_real, repr(math.pi / 3.0), "chi in alpha_j = a e^(i chi)"),
    "threshold.moment_dev": (_threshold, "0.05", "|first CMV moment + a^2|"),
    "perturb.theta0": (_real, "0.7", "alpha_j = a e^(i theta0) + 1/(j + 2)"),
    "threshold.pert_last": (_threshold, "0.01", "perturbed stats at last N"),
})
def _run_thm4_2(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm4_2")
    a, kblk, cmv_n, lad = o["arc.a"], o["arc.k"], o["cmv.N"], o["Ns"]
    theta0 = o["perturb.theta0"]
    phase = complex(math.cos(theta0), math.sin(theta0))
    if abs(a * phase + 0.5) >= 1.0:  # the largest |alpha_j|, at j = 0
        raise BadOption("arc.a, perturb.theta0: |alpha_0| would reach 1")

    Vc = VerblunskyParams.from_function(lambda j: complex(a))
    consts = R.arc_stats(Vc, a, kblk, lad, label="const")
    res.series += consts
    res.verblunsky_inputs.append(("const_alpha", Vc, lad))
    worst_const = max(max(abs(v) for v in s.values) for s in consts)
    res.checks.append(Check("const_stats_zero", worst_const, 1e-15))

    # any constant phase sits on the same isospectral family
    chi = o["arc.phase"]
    rot = complex(math.cos(chi), math.sin(chi))
    Vf = VerblunskyParams.from_function(lambda j: a * rot)
    f1, f2, f3 = R.arc_stats(Vf, a, kblk, lad)
    worst_phased = max(max(abs(v) for v in s.values) for s in (f1, f2, f3))
    res.series.append(R.StatSeries("phased_worst", (lad[-1],),
                                   (worst_phased,)))
    res.verblunsky_inputs.append(("phased_alpha", Vf, lad))
    res.checks.append(Check("phased_stats_zero", worst_phased, 1e-13))

    emp = S.eig_unitary(Vc, cmv_n)
    res.extras["angles.csv"] = (("index", "point"), list(enumerate(emp.points)))
    gap = pot.CircleArcSet(a).gap_angle
    min_angle = float(np.min(np.abs(emp.points)))
    res.series.append(R.StatSeries("cmv_min_angle", (cmv_n,), (min_angle,)))
    res.checks.append(Check("cmv_angles_in_arc", min_angle, gap - 0.1, "ge"))
    moment = emp.mean_phase()
    target = -(a * a)
    res.series.append(R.StatSeries("cmv_first_moment_re", (cmv_n,),
                                   (moment.real,)))
    res.checks.append(Check("cmv_first_moment", abs(moment - target),
                            o["threshold.moment_dev"]))

    Vp = VerblunskyParams.from_function(lambda j: a * phase + 1.0 / (j + 2.0))
    perts = R.arc_stats(Vp, a, kblk, lad, label="pert")
    res.series += perts
    res.verblunsky_inputs.append(("perturbed_alpha", Vp, lad))
    worst_last = max(s.last for s in perts)
    res.checks.append(Check("pert_stats_last", worst_last,
                            o["threshold.pert_last"]))
    mono = all(s.decreasing() for s in perts)
    res.checks.append(Check("pert_stats_decreasing", 0.0 if mono else 1.0, 0.5))
    return res


# ---------------------------------------------------------------------
# thm6_1: the block map of a periodic generator, and the torus average
# ---------------------------------------------------------------------


def _bands_table(fgs: pot.FiniteGapSet) -> tuple:
    return (("band", "lo", "hi"),
            [(j, lo, hi) for j, (lo, hi) in enumerate(fgs.bands, start=1)])


def _periodic_as_params(J0: P.PeriodicJacobi,
                        db: Optional[IndexFn] = None) -> JacobiParams:
    """The periodic J0 as unbounded Jacobi parameters, with the
    index-array function ``db`` (default 0) added to its b_n."""
    a, b = np.array(J0.a), np.array(J0.b)
    shift = db if db is not None else (lambda n: 0.0)
    return JacobiParams.from_functions(
        lambda n: a[(n - 1) % J0.p],
        lambda n: b[(n - 1) % J0.p] + shift(n))


@_scenario("thm6_1", "periodic block map and torus-distance averages", {
    "input.pattern": _PATTERN,
    # at least 2: the interior blocks A[1:] of the map must not be empty
    "blockmap.K": (_blockmap_size, "64", "blocks of the block map"),
    "threshold.interior_norm": (_threshold, "1e-10", "interior blocks"),
    "defect.site": (_num(int, 0), "21", "site n <= (K + 1) p of a b_n shift"),
    "defect.size": (_shift, "0.3", "size of that shift, |size| <= 10"),
    "torus.Ns": (_torus_ladder, "32,64,128,256,512,1024,2000", "windows"),
    "threshold.torus_last": (_threshold, "0.06", "harmonic shift, last N"),
    "torus.burn_in": (_num(int, -1), "64", "N below it: no decrease check"),
    "torus.theta": (_real, "1.3", "every angle of the torus point"),
    "threshold.torus_point": (_threshold, "1e-7", "torus point, every N"),
})
def _run_thm6_1(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm6_1")
    fgs = o["input.pattern"]
    J0, p = fgs.generator, fgs.generator.p
    K, site, eps = o["blockmap.K"], o["defect.site"], o["defect.size"]
    if site > (K + 1) * p:
        raise BadOption(f"defect.site: {site} is past the {(K + 1) * p} "
                        "sites of the K + 1 diagonal blocks of the block map")
    res.extras["bands.csv"] = _bands_table(fgs)

    # block map on the exactly periodic sequence
    Jper = _periodic_as_params(J0)
    blocks = P.delta_of_J(J0, Jper, K)
    worst_B = float(np.sqrt(np.max(R._hs2(blocks.B[1:]))))
    worst_A = float(np.sqrt(np.max(R._hs2(blocks.A[1:] - np.eye(p)))))
    res.series.append(R.StatSeries("blockmap_interior_B", (K,), (worst_B,)))
    res.series.append(R.StatSeries("blockmap_interior_A", (K,), (worst_A,)))
    res.checks.append(Check("interior_B_norm", worst_B,
                            o["threshold.interior_norm"]))
    res.checks.append(Check("interior_A_norm", worst_A,
                            o["threshold.interior_norm"]))
    upper = float(np.max(np.abs(np.triu(blocks.A, k=1))))
    res.checks.append(Check("type3_structure", upper, 1e-12))

    Jdef = _periodic_as_params(J0, lambda n: np.where(n == site, eps, 0.0))
    try:
        blocks_d = P.delta_of_J(J0, Jdef, K)
    except P.NotType3 as exc:
        # the exact periodic map above passed: the shift is too large
        # for the scale of the pattern
        raise BadOption(f"defect.size, input.pattern: a shift of {eps} "
                        f"breaks the block map of this pattern ({exc})") from None
    lo_blk = max(0, (site - 1 - p) // p - 1)
    hi_blk = (site - 1 + p) // p + 1
    d = np.concatenate([np.abs(blocks_d.B - blocks.B).max(axis=(1, 2)),
                        np.abs(blocks_d.A - blocks.A).max(axis=(1, 2))])
    k = np.concatenate([np.arange(K + 1), np.arange(K)])
    at = (lo_blk <= k) & (k <= hi_blk)
    near, far = (float(np.max(d[m], initial=0.0)) for m in (at, ~at))
    res.checks.append(Check("locality_far_blocks", far, 1e-12))
    res.checks.append(Check("locality_defect_visible", near, abs(eps) / 2.0,
                            "ge"))

    # torus-distance averages
    lad = o["torus.Ns"]
    Jh = _periodic_as_params(J0, lambda n: 1.0 / n)
    cn_h = R.cn_stat_torus(Jh, J0, lad, label="cn_torus_harmonic")
    res.series.append(cn_h)
    res.jacobi_inputs.append(("harmonic_shift", Jh, lad))
    res.checks.append(Check("torus_harmonic_last", cn_h.last,
                            o["threshold.torus_last"]))
    burn = o["torus.burn_in"]
    res.checks.append(Check("torus_harmonic_decreasing",
                            0.0 if cn_h.decreasing(burn_in=burn) else 1.0, 0.5))

    Jt = _periodic_as_params(P.torus_point(J0, (o["torus.theta"],) * (p - 1)))
    cn_t = R.cn_stat_torus(Jt, J0, lad, label="cn_torus_point")
    res.series.append(cn_t)
    res.jacobi_inputs.append(("torus_point", Jt, lad))
    res.checks.append(Check("torus_point_flat", max(cn_t.values),
                            o["threshold.torus_point"]))
    return res


# ---------------------------------------------------------------------
# mnt_illustration: shrinking diagonal for measures on [-2, 2]
# ---------------------------------------------------------------------


@_scenario("mnt_illustration",
           "shrinking diagonal for [-2,2] measures (no thresholds)", {
    # the window from start 40 needs 52 coefficients; past 126 the
    # computed a_n leave the continuous measure's by more than 1e-12
    "coefficients": (_num(int, 52, 126, closed=True), "80",
                     "recurrence coefficients, 52 to 126"),
    "input.tilt": (_num(float, -1.0, 1.0, closed=True), "0.5",
                   "density 1 + tilt x / 2 on [-2, 2]"),
})
def _run_mnt(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("mnt_illustration")
    n_coef, tilt = o["coefficients"], o["input.tilt"]
    xs = np.linspace(-2.0, 2.0, 401)
    vals = 1.0 + tilt * xs / 2.0
    spec = M.LineMeasureSpec(
        [M.DensityPart(-2.0, 2.0, "tabulated", 1.0, (xs, vals))])
    J = M.jacobi_from_measure(M.discretize(spec), n_coef)
    lad = tuple(n for n in (5, 10, 20, 40, n_coef - 1) if n < n_coef)
    res.jacobi_inputs.append(("tilted_flat", J, lad))
    res.series.append(R.cn_stat_oprl(J, lad, label="cn_tilted"))
    b = np.abs(J.b_window(n_coef))
    halves = [float(np.max(b[n // 2:n])) for n in lad]
    res.series.append(R.StatSeries("b_window_max", lad, tuple(halves)))
    starts = np.array([1, 5, 10, 20, 40])
    win = R.cn_stat_windowed(J, starts, max(2, (n_coef - 1) // 4))
    res.extras["windowed.csv"] = (("start", "value"), list(zip(starts, win)))
    return res


# ---------------------------------------------------------------------
# conjecture5_1_explore: finite-gap torus averages, no verdict attached
# ---------------------------------------------------------------------


@_scenario("conjecture5_1_explore", "finite-gap torus averages, exploratory", {
    "input.pattern": _PATTERN,
    "Ns": (_torus_ladder, "32,64,128,256,512", "windows"),
    "decay.amp": (_shift, "0.5", "b_n shift amp / n^power, |amp| <= 10"),
    "decay.power": (_num(float, 0.0, math.inf, closed=True), "1.0",
                    "its power, >= 0"),
    "bumps.amp": (_shift, "0.4", "b_n shift at n = 2, 4, 8, ..., |amp| <= 10"),
    "torus.samples": (_samples_count, "8", "rows of torus_samples.csv"),
})
def _run_conjecture(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("conjecture5_1_explore")
    fgs = o["input.pattern"]
    J0, p = fgs.generator, fgs.generator.p
    res.extras["bands.csv"] = _bands_table(fgs)
    lad = o["Ns"]

    amp, power, bump = o["decay.amp"], o["decay.power"], o["bumps.amp"]
    Jd = _periodic_as_params(J0, lambda n: amp / n ** power)
    Jb = _periodic_as_params(
        J0, lambda n: np.where((n > 1) & _is_pow2(n), bump, 0.0))
    for name, J, label in (("decaying_shift", Jd, "cn_torus_decay"),
                           ("sparse_shift", Jb, "cn_torus_bumps")):
        res.series.append(R.cn_stat_torus(J, J0, lad, label=label))
        res.jacobi_inputs.append((name, J, lad))

    rt = R.root_test(Jd, lad, label="root_decay")
    cap = pot.capacity(fgs)
    res.series.append(rt)
    res.series.append(R.StatSeries("root_over_capacity", lad,
                                   tuple(v / cap for v in rt.values)))

    count = o["torus.samples"]
    header = ([f"theta_{i+1}" for i in range(p - 1)]
              + [f"a_{i+1}" for i in range(p)] + [f"b_{i+1}" for i in range(p)])
    theta = np.tile((2.0 * math.pi * np.arange(count) / count)[:, None], p - 1)
    rows = np.hstack([theta, *P._torus_points(J0, theta)]).tolist()
    res.extras["torus_samples.csv"] = (header, rows)
    return res


def _entry(scenario: str):
    if scenario not in _SCENARIOS:
        raise UnknownScenario(f"unknown scenario: {scenario}")
    return _SCENARIOS[scenario]


def scenario_ids() -> Tuple[str, ...]:
    return tuple(_SCENARIOS)


def describe(scenario: str) -> str:
    return _entry(scenario)[1]


def parse_options(scenario: str, raw: Dict[str, str]) -> Dict[str, object]:
    """The scenario's options from their config text, every default
    filled in.  An unknown key, or a value its parser rejects, raises
    BadOption naming the key."""
    table = _entry(scenario)[2]
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise BadOption(f"{', '.join(unknown)}: not an option of {scenario}")
    out = {}
    for key, (parse, default, _) in table.items():
        text = raw.get(key, default)
        try:
            out[key] = parse(text)
        except ValueError as exc:
            raise BadOption(f"{key}: {exc}") from None
    return out


def run(scenario: str, options: Dict[str, str], seed: int) -> ScenarioResult:
    """Execute one scenario with the given flat option text.  The
    options are parsed here, once, before anything is computed; a bad
    one raises BadOption."""
    return _entry(scenario)[0](parse_options(scenario, options), seed)


def option_lines(scenario: str) -> List[str]:
    """One ``key = default  # doc`` config line per option the scenario
    declares, in table order."""
    return [f"{key} = {default}  # {doc}"
            for key, (_, default, doc) in _entry(scenario)[2].items()]
