"""Named numerical experiments over the toolkit, driven by flat
key = value configurations.

Each scenario builds deterministic inputs (seeded through SplitMix64
where randomness is wanted), computes a bundle of windowed statistics,
evaluates its thresholds, and hands everything back in a ScenarioResult:
the statistic series (written to stats.csv by the command line front
end), auxiliary CSV artifacts, the pass/fail checks, and the raw inputs
so that cross-cutting identities can be asserted on every input of
every scenario.
"""

from __future__ import annotations

import math
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
                        UnitaryChain, VerblunskyParams, _freeze,
                        validate_blocks)


class UnknownScenario(ValueError):
    """Scenario id not in the registry."""


class BadOption(ValueError):
    """A config option failed to parse or is out of range."""


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
        if self.relation == "le":
            return self.value <= self.bound
        if self.relation == "ge":
            return self.value >= self.bound
        if self.relation == "lt":
            return self.value < self.bound
        raise ValueError(f"unknown relation {self.relation!r}")

    def line(self) -> str:
        op = {"le": "<=", "ge": ">=", "lt": "<"}[self.relation]
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.value:.6g} {op} {self.bound:.6g}"


@dataclass
class ScenarioResult:
    scenario: str
    series: List[R.StatSeries] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    extras: Dict[str, str] = field(default_factory=dict)
    # inputs exposed for cross-cutting identity checks
    jacobi_inputs: List[Tuple[str, JacobiParams, Tuple[int, ...]]] = \
        field(default_factory=list)
    verblunsky_inputs: List[Tuple[str, VerblunskyParams, Tuple[int, ...]]] = \
        field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def stats_csv(self) -> str:
        lines = ["label,N,value"]
        for s in self.series:
            lines += s.csv_rows()
        return "\n".join(lines) + "\n"


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


def _ladder(text: str) -> Tuple[int, ...]:
    return R._check_ladder(int(t) for t in text.split(",") if t.strip())


def _pattern(text: str) -> P.PeriodicJacobi:
    """a_1..a_p,b_1..b_p; PeriodicJacobi rejects odd lengths."""
    vals = [_real(t) for t in text.split(",")]
    p = len(vals) // 2
    return P.PeriodicJacobi(tuple(vals[:p]), tuple(vals[p:]))


#: (parser of the config text, default config text, one-line doc)
Option = Tuple[Callable[[str], object], str, str]

_PATTERN: Option = (_pattern, "1,0.5,0,0", "generator a_1..a_p,b_1..b_p")

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
    dev = abs(value - 1.0)
    return JacobiParams.from_functions(
        lambda n: np.where((n > 1) & _is_pow2(n), value, 1.0),
        lambda n: 0.0, bound=dev)


def sparse_bump_verblunsky(value: float) -> VerblunskyParams:
    """alpha_j = value at j = 1, 2, 4, 8, ... (powers of two), else 0."""
    return VerblunskyParams.from_function(
        lambda j: np.where(_is_pow2(j), value, 0.0))


def _seeded_jacobi(rng: SplitMix64, n: int) -> JacobiParams:
    a_amp, b_amp = 0.4, 0.8
    a = 1.0 + a_amp * (rng.uniforms(n) - 0.5)
    b = b_amp * (rng.uniforms(n) - 0.5)
    return JacobiParams(a[: n - 1], b, bound=a_amp / 2 + b_amp / 2)


# ---------------------------------------------------------------------
# thm1_1: scalar regularity implies the Cesaro deviation average dies
# ---------------------------------------------------------------------


@_scenario("thm1_1", "scalar regularity: measure ladder and sparse bumps", {
    "legendre.Ns": (_ladder, "4,8,16,32,60", "windows of the flat measure"),
    "threshold.legendre_cn_last": (_threshold, "0.02", "its last average"),
    "input.bump_value": (_num(float, 0.0), "0.5", "a_n at n = 2, 4, 8, ..."),
    "bumps.Ns": (_ladder, "32,64,128,256,512,1024,2048,4096,8192", "windows"),
    "bumps.norm_check_N": (_num(int, 0), "1024", "size of the norm check"),
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
    cn2 = R.cn_stat_oprl(J2, lad2, label="cn_bumps")
    rt2 = R.root_test(J2, lad2, label="root_bumps")
    res.series += [cn2, rt2]
    res.jacobi_inputs.append(("sparse_bumps", J2, lad2))
    w = S.eig_sym_tridiag(S.truncate(J2, o["bumps.norm_check_N"]))
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
    "Ns": (_ladder, "400,800", "truncation sizes of the zero counting"),
    "threshold.w1_first": (_threshold, "0.02", "W1 to arcsine at the first N"),
    "trace.Ns": (_ladder, "32,64,128,256,512", "windows of the trace"),
    "identity.count": (_num(int, 0), "50", "random trace identity inputs"),
    "identity.N": (_num(int, 0), "200", "their truncation size"),
    "threshold.trace_identity": (_threshold, "1e-8", "worst mismatch"),
})
def _run_prop2_2(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("prop2_2")
    Ns = o["Ns"]
    ref = pot.equilibrium_measure((-2.0, 2.0))
    w1_vals = []
    zeros_csv = None
    for n in Ns:
        emp = S.zero_counting(JacobiParams.free(n), n)
        w1_vals.append(pot.w1_distance(emp, ref))
        zeros_csv = emp.to_csv()
    res.series.append(R.StatSeries("w1_free", Ns, tuple(w1_vals)))
    res.extras["zeros.csv"] = zeros_csv
    xs_dens = ref.density_samples()
    res.extras["density.csv"] = "x,density\n" + "\n".join(
        f"{repr(float(x))},{repr(float(d))}" for x, d in xs_dens) + "\n"
    res.checks.append(Check("w1_first", w1_vals[0], o["threshold.w1_first"]))
    res.checks.append(Check("w1_shrinks", w1_vals[-1], w1_vals[0], "lt"))

    lad = o["trace.Ns"]
    Jf = JacobiParams.free()
    ts = R.trace_stat(Jf, lad, label="trace_free")
    res.series.append(ts)
    res.jacobi_inputs.append(("free", Jf, lad))
    worst_gap = max(abs(v - 2.0) - 2.5 / n for n, v in zip(ts.Ns, ts.values))
    res.checks.append(Check("trace_near_2", worst_gap, 0.0))

    count, n_id = o["identity.count"], o["identity.N"]
    worst = 0.0
    for s in range(count):
        rng = SplitMix64(seed * 1000 + s)
        Jr = _seeded_jacobi(rng, n_id)
        f, e = S.trace_square(Jr, n_id, method="ql")
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


def _random_blocks(rng: SplitMix64, ell: int, K: int) -> BlockJacobiParams:
    def cmat(scale):
        m = np.array([[complex(rng.normal(), rng.normal())
                       for _ in range(ell)] for _ in range(ell)])
        return scale * m

    A = []
    B = []
    for _ in range(K):
        B_ = cmat(0.4)
        B.append(_freeze((B_ + B_.conj().T) / 2.0))
    for _ in range(K - 1):
        A.append(_freeze(np.eye(ell, dtype=complex) + cmat(0.35)))
    out = BlockJacobiParams(ell, tuple(A), tuple(B), "general")
    return validate_blocks(out)


def _random_chain(rng: SplitMix64, ell: int, count: int) -> UnitaryChain:
    us = [np.eye(ell, dtype=complex)]
    for _ in range(count - 1):
        g = np.array([[complex(rng.normal(), rng.normal())
                       for _ in range(ell)] for _ in range(ell)])
        q, r = np.linalg.qr(g)
        q = q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r)))
        us.append(q)
    return UnitaryChain(tuple(_freeze(u) for u in us))


@_scenario("thm3_1", "block normal forms and the invariant average", {
    "inputs.count": (_num(int, 0), "20", "random block Jacobi inputs"),
    "threshold.spectra_preserved": (_threshold, "1e-10", "eigenvalue shift"),
    "threshold.det_preserved": (_threshold, "1e-12", "|det A_n| shift"),
    "threshold.invariant_form": (_threshold, "1e-12", "invariant avg shift"),
})
def _run_thm3_1(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm3_1")
    count = o["inputs.count"]
    worst_spec = worst_det = worst_inv = 0.0
    hadamard_ok = True
    rep_series = None
    for i in range(count):
        rng = SplitMix64(seed * 777 + i)
        ell = 1 + rng.next_u64() % 3
        K = 8 + rng.next_u64() % 33        # up to 40 blocks
        Jb = _random_blocks(rng, int(ell), int(K))
        w0 = S.eig_block(Jb, len(Jb.B))
        t3, _ = P.normalize_type3(Jb)
        t1, _ = P.normalize_type1(Jb)
        for t in (t3, t1):
            wt = S.eig_block(t, len(t.B))
            worst_spec = max(worst_spec, float(np.max(np.abs(wt - w0))))
        for X, Y in ((Jb, t3), (Jb, t1)):
            for Ax, Ay in zip(X.A, Y.A):
                worst_det = max(worst_det,
                                abs(abs(np.linalg.det(Ax))
                                    - abs(np.linalg.det(Ay))))
        for Ablk in t1.A:
            det = float(np.linalg.det(Ablk).real)
            diag = float(np.prod(np.diagonal(Ablk).real))
            if det > diag + 1e-12:
                hadamard_ok = False
        lad = tuple(sorted({max(1, len(Jb.B) // 4), max(2, len(Jb.B) // 2),
                            len(Jb.B) - 1}))
        inv_a = R.cn_stat_matrix_invariant(Jb, lad)
        chain = _random_chain(rng, int(ell), len(Jb.B) + 1)
        inv_b = R.cn_stat_matrix_invariant(chain.apply(Jb), lad)
        worst_inv = max(worst_inv, max(abs(x - y) for x, y
                                       in zip(inv_a.values, inv_b.values)))
        if rep_series is None:
            tf, iv = R.cn_stat_matrix(t3, lad)
            rep_series = [tf, iv]
    res.series += rep_series
    res.series.append(R.StatSeries("spec_preserved_worst", (count,),
                                   (worst_spec,)))
    res.series.append(R.StatSeries("det_preserved_worst", (count,),
                                   (worst_det,)))
    res.series.append(R.StatSeries("invariant_form_shift", (count,),
                                   (worst_inv,)))
    res.checks.append(Check("spectra_preserved", worst_spec,
                            o["threshold.spectra_preserved"]))
    res.checks.append(Check("det_preserved", worst_det,
                            o["threshold.det_preserved"]))
    res.checks.append(Check("hadamard", 0.0 if hadamard_ok else 1.0, 0.5))
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
    rt = R.root_test(V, lad, label="root_opuc")
    cn = R.cn_stat_opuc(V, lad, label="cn_opuc")
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
    "arc.k": (_num(int, 0), "3", "block length of the block statistic"),
    "cmv.N": (_num(int, 0), "256", "CMV truncation size"),
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
    s1, s2, s3 = R.arc_stats(Vc, a, kblk, lad)
    for s, nm in ((s1, "const_modulus"), (s2, "const_step"), (s3, "const_block")):
        res.series.append(R.StatSeries(nm, s.Ns, s.values))
    res.verblunsky_inputs.append(("const_alpha", Vc, lad))
    worst_const = max(max(abs(v) for v in s.values) for s in (s1, s2, s3))
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

    emp = S.eig_unitary(S.cmv(Vc, cmv_n))
    res.extras["angles.csv"] = emp.to_csv()
    gap = 2.0 * math.asin(a)
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
    p1, p2, p3 = R.arc_stats(Vp, a, kblk, lad)
    for s, nm in ((p1, "pert_modulus"), (p2, "pert_step"), (p3, "pert_block")):
        res.series.append(R.StatSeries(nm, s.Ns, s.values))
    res.verblunsky_inputs.append(("perturbed_alpha", Vp, lad))
    worst_last = max(p1.last, p2.last, p3.last)
    res.checks.append(Check("pert_stats_last", worst_last,
                            o["threshold.pert_last"]))
    mono = all(s.decreasing() for s in (p1, p2, p3))
    res.checks.append(Check("pert_stats_decreasing", 0.0 if mono else 1.0, 0.5))
    return res


# ---------------------------------------------------------------------
# thm6_1: the block map of a periodic generator, and the torus average
# ---------------------------------------------------------------------


def _periodic_as_params(J0: P.PeriodicJacobi, db: Optional[IndexFn] = None,
                        bound_extra: float = 0.0) -> JacobiParams:
    """The periodic J0 as unbounded Jacobi parameters, with the
    index-array function ``db`` (default 0) added to its b_n."""
    dev = J0.deviation_bound + bound_extra
    a, b = np.array(J0.a), np.array(J0.b)
    shift = db if db is not None else (lambda n: 0.0)
    return JacobiParams.from_functions(
        lambda n: a[(n - 1) % J0.p],
        lambda n: b[(n - 1) % J0.p] + shift(n),
        bound=dev)


@_scenario("thm6_1", "periodic block map and torus-distance averages", {
    "input.pattern": _PATTERN,
    "blockmap.K": (_num(int, 1), "64", "blocks of the block map"),
    "threshold.interior_norm": (_threshold, "1e-10", "interior blocks"),
    "defect.site": (_num(int, 0), "21", "site n of a one-site shift of b_n"),
    "defect.size": (_real, "0.3", "size of that shift"),
    "torus.Ns": (_ladder, "32,64,128,256,512,1024,2000", "windows"),
    "threshold.torus_last": (_threshold, "0.06", "harmonic shift, last N"),
    "torus.burn_in": (_num(int, -1), "64", "N below it: no decrease check"),
    "torus.theta": (_real, "1.3", "every angle of the torus point"),
    "threshold.torus_point": (_threshold, "1e-7", "torus point, every N"),
})
def _run_thm6_1(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm6_1")
    J0 = o["input.pattern"]
    p = J0.p
    disc = P.discriminant(J0)
    res.extras["discriminant.csv"] = disc.to_csv()

    # block map on the exactly periodic sequence
    K = o["blockmap.K"]
    Jper = _periodic_as_params(J0)
    blocks = P.delta_of_J(J0, Jper, K)
    eye = np.eye(p)
    worst_B = max(float(np.sqrt(np.sum(np.abs(b) ** 2)))
                  for b in blocks.B[1:])
    worst_A = max(float(np.sqrt(np.sum(np.abs(a - eye) ** 2)))
                  for a in blocks.A[1:])
    res.series.append(R.StatSeries("blockmap_interior_B", (K,), (worst_B,)))
    res.series.append(R.StatSeries("blockmap_interior_A", (K,), (worst_A,)))
    res.checks.append(Check("interior_B_norm", worst_B,
                            o["threshold.interior_norm"]))
    res.checks.append(Check("interior_A_norm", worst_A,
                            o["threshold.interior_norm"]))
    upper = max(float(np.max(np.abs(np.triu(a, k=1)))) for a in blocks.A)
    res.checks.append(Check("type3_structure", upper, 1e-12))

    site, eps = o["defect.site"], o["defect.size"]
    Jdef = _periodic_as_params(J0, lambda n: np.where(n == site, eps, 0.0),
                               bound_extra=eps)
    blocks_d = P.delta_of_J(J0, Jdef, K)
    lo_blk = max(0, (site - 1 - p) // p - 1)
    hi_blk = (site - 1 + p) // p + 1
    near = far = 0.0
    for new, old in ((blocks_d.B, blocks.B), (blocks_d.A, blocks.A)):
        for k, (x, y) in enumerate(zip(new, old)):
            d = float(np.max(np.abs(x - y)))
            if lo_blk <= k <= hi_blk:
                near = max(near, d)
            else:
                far = max(far, d)
    res.checks.append(Check("locality_far_blocks", far, 1e-12))
    res.checks.append(Check("locality_defect_visible", near, eps / 2.0, "ge"))

    # torus-distance averages
    lad = o["torus.Ns"]
    Jh = _periodic_as_params(J0, lambda n: 1.0 / n, bound_extra=1.0)
    cn_h = R.cn_stat_torus(Jh, disc, lad, label="cn_torus_harmonic")
    res.series.append(cn_h)
    res.jacobi_inputs.append(("harmonic_shift", Jh, lad))
    res.checks.append(Check("torus_harmonic_last", cn_h.last,
                            o["threshold.torus_last"]))
    burn = o["torus.burn_in"]
    res.checks.append(Check("torus_harmonic_decreasing",
                            0.0 if cn_h.decreasing(burn_in=burn) else 1.0, 0.5))

    pt = P.torus_point(disc, (o["torus.theta"],) * (p - 1))
    Jt = _periodic_as_params(pt.jacobi)
    cn_t = R.cn_stat_torus(Jt, disc, lad, label="cn_torus_point")
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
    # the window from start 40 needs 52 coefficients
    "coefficients": (_num(int, 51), "80", "recurrence coefficients"),
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
    res.extras["windowed.csv"] = "start,value\n" + "\n".join(
        f"{s},{repr(float(v))}" for s, v in zip(starts, win)) + "\n"
    return res


# ---------------------------------------------------------------------
# conjecture5_1_explore: finite-gap torus averages, no verdict attached
# ---------------------------------------------------------------------


@_scenario("conjecture5_1_explore", "finite-gap torus averages, exploratory", {
    "input.pattern": _PATTERN,
    "Ns": (_ladder, "32,64,128,256,512", "windows"),
    "decay.amp": (_real, "0.5", "b_n shift amp / n^power"),
    "decay.power": (_real, "1.0", "its power"),
    "bumps.amp": (_real, "0.4", "b_n shift at n = 2, 4, 8, ..."),
    "torus.samples": (_num(int, 0), "8", "rows of torus_samples.csv"),
})
def _run_conjecture(o: Dict[str, object], seed: int) -> ScenarioResult:
    res = ScenarioResult("conjecture5_1_explore")
    J0 = o["input.pattern"]
    p = J0.p
    disc = P.discriminant(J0)
    res.extras["discriminant.csv"] = disc.to_csv()
    lad = o["Ns"]

    amp, power, bump = o["decay.amp"], o["decay.power"], o["bumps.amp"]
    Jd = _periodic_as_params(J0, lambda n: amp / n ** power, bound_extra=amp)
    Jb = _periodic_as_params(
        J0, lambda n: np.where((n > 1) & _is_pow2(n), bump, 0.0),
        bound_extra=bump)
    for name, J, label in (("decaying_shift", Jd, "cn_torus_decay"),
                           ("sparse_shift", Jb, "cn_torus_bumps")):
        res.series.append(R.cn_stat_torus(J, disc, lad, label=label))
        res.jacobi_inputs.append((name, J, lad))

    rt = R.root_test(Jd, lad, label="root_decay")
    cap = pot.capacity(disc.bands())
    res.series.append(rt)
    res.series.append(R.StatSeries("root_over_capacity", lad,
                                   tuple(v / cap for v in rt.values)))

    n_samp = o["torus.samples"]
    rows = []
    header = (",".join(f"theta_{i+1}" for i in range(p - 1))
              + "," + ",".join(f"a_{i+1}" for i in range(p))
              + "," + ",".join(f"b_{i+1}" for i in range(p)))
    for i in range(n_samp):
        th = tuple(2.0 * math.pi * i / n_samp for _ in range(p - 1))
        pt = P.torus_point(disc, th)
        rows.append(",".join([repr(t) for t in th]
                             + [repr(x) for x in pt.jacobi.a]
                             + [repr(x) for x in pt.jacobi.b]))
    res.extras["torus_samples.csv"] = header + "\n" + "\n".join(rows) + "\n"
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


def run(scenario: str, options: Dict[str, str], seed: int = 1) -> ScenarioResult:
    """Execute one scenario with the given flat options."""
    return _entry(scenario)[0](parse_options(scenario, options), seed)


def default_config(scenario: str) -> str:
    """Config text that reproduces the scenario's default run: every
    option at its default, with its doc."""
    lines = [
        f"# {scenario}: {describe(scenario)}",
        f"scenario = {scenario}",
        "seed = 1",
        "emit_svg = false",
        "# outdir = ./out",
    ]
    for key, (_, default, doc) in _entry(scenario)[2].items():
        lines.append(f"{key} = {default}  # {doc}")
    return "\n".join(lines) + "\n"
