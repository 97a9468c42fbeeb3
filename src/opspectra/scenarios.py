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
from .sequences import (BlockJacobiParams, JacobiParams, UnitaryChain,
                        VerblunskyParams, _freeze, validate_blocks)


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


def _get(options: Dict[str, str], key: str, default: str) -> str:
    return options.get(key, default)


def _get_float(options, key, default) -> float:
    try:
        return float(_get(options, key, repr(default)))
    except ValueError as exc:
        raise BadOption(f"{key}: {exc}") from None


def _get_int(options, key, default) -> int:
    try:
        return int(_get(options, key, str(default)))
    except ValueError as exc:
        raise BadOption(f"{key}: {exc}") from None


def _get_ladder(options, key, default: Tuple[int, ...]) -> Tuple[int, ...]:
    raw = _get(options, key, ",".join(str(n) for n in default))
    try:
        Ns = tuple(int(t.strip()) for t in raw.split(",") if t.strip())
    except ValueError as exc:
        raise BadOption(f"{key}: {exc}") from None
    if not Ns or any(Ns[i] >= Ns[i + 1] for i in range(len(Ns) - 1)):
        raise BadOption(f"{key}: ladder must be strictly increasing")
    if Ns[0] < 1:
        raise BadOption(f"{key}: window lengths must be positive")
    return Ns


def _threshold(options, name, default) -> float:
    return _get_float(options, f"threshold.{name}", default)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def sparse_bump_jacobi(value: float = 0.5) -> JacobiParams:
    """a_n = value at n = 2, 4, 8, ... (powers of two above 1), else 1;
    b = 0.  A classic regular-but-not-Nevai coefficient sequence."""
    dev = abs(value - 1.0)
    return JacobiParams.from_functions(
        lambda n: value if (n > 1 and _is_pow2(n)) else 1.0,
        lambda n: 0.0, bound=dev)


def sparse_bump_verblunsky(value: float = 0.5) -> VerblunskyParams:
    """alpha_j = value at j = 1, 2, 4, 8, ... (powers of two), else 0."""
    return VerblunskyParams.from_function(
        lambda j: value if _is_pow2(j) else 0.0)


def _seeded_jacobi(rng: SplitMix64, n: int, a_amp: float = 0.4,
                   b_amp: float = 0.8) -> JacobiParams:
    a = 1.0 + a_amp * (rng.uniforms(n) - 0.5)
    b = b_amp * (rng.uniforms(n) - 0.5)
    return JacobiParams(a[: n - 1], b, bound=a_amp / 2 + b_amp / 2)


# ---------------------------------------------------------------------
# thm1_1: scalar regularity implies the Cesaro deviation average dies
# ---------------------------------------------------------------------


def _run_thm1_1(options: Dict[str, str], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm1_1")
    # part 1: flat measure on [-2, 2] through the moment ladder
    lad1 = _get_ladder(options, "legendre.Ns", (4, 8, 16, 32, 60))
    n_coef = lad1[-1] + 1
    dm = M.discretize(M.LineMeasureSpec.legendre_flat())
    J1 = M.jacobi_from_measure(dm, n_coef)
    cn1 = R.cn_stat_oprl(J1, lad1, label="cn_legendre")
    res.series.append(cn1)
    res.jacobi_inputs.append(("legendre", J1, lad1))
    res.checks.append(Check("legendre_cn_last", cn1.last,
                            _threshold(options, "legendre_cn_last", 0.02)))
    res.checks.append(Check("legendre_cn_decreasing",
                            0.0 if cn1.decreasing() else 1.0, 0.5))

    # part 2: sparse off-diagonal bumps
    bump = _get_float(options, "input.bump_value", 0.5)
    lad2 = _get_ladder(options, "bumps.Ns", R.DEFAULT_LADDER)
    J2 = sparse_bump_jacobi(bump)
    cn2 = R.cn_stat_oprl(J2, lad2, label="cn_bumps")
    rt2 = R.root_test(J2, lad2, label="root_bumps")
    res.series += [cn2, rt2]
    res.jacobi_inputs.append(("sparse_bumps", J2, lad2))
    norm_n = _get_int(options, "bumps.norm_check_N", 1024)
    w = S.eig_sym_tridiag(S.truncate(J2, norm_n))
    res.checks.append(Check("bumps_norm", float(np.max(np.abs(w))),
                            2.0 + 1e-9))
    res.checks.append(Check("bumps_root_last", abs(rt2.last - 1.0),
                            _threshold(options, "bumps_root_dev", 0.01)))
    res.checks.append(Check("bumps_cn_last", cn2.last,
                            _threshold(options, "bumps_cn_last", 0.01)))
    return res


# ---------------------------------------------------------------------
# prop2_2: zero counting approaches the arcsine law; trace identities
# ---------------------------------------------------------------------


def _run_prop2_2(options: Dict[str, str], seed: int) -> ScenarioResult:
    res = ScenarioResult("prop2_2")
    Ns = _get_ladder(options, "Ns", (400, 800))
    ref = pot.equilibrium_measure((-2.0, 2.0))
    w1_vals = []
    zeros_csv = None
    for n in Ns:
        emp = S.zero_counting(JacobiParams.free(n), n)
        w1_vals.append(pot.w1_distance(emp, ref))
        zeros_csv = emp.to_csv()
    res.series.append(R.StatSeries("w1_free", Ns, tuple(w1_vals)))
    res.extras["zeros.csv"] = zeros_csv
    xs_dens = ref.density_samples(200)
    res.extras["density.csv"] = "x,density\n" + "\n".join(
        f"{repr(float(x))},{repr(float(d))}" for x, d in xs_dens) + "\n"
    res.checks.append(Check("w1_first", w1_vals[0],
                            _threshold(options, "w1_first", 0.02)))
    res.checks.append(Check("w1_shrinks", w1_vals[-1], w1_vals[0], "lt"))

    lad = _get_ladder(options, "trace.Ns", (32, 64, 128, 256, 512))
    Jf = JacobiParams.free()
    ts = R.trace_stat(Jf, lad, label="trace_free")
    res.series.append(ts)
    res.jacobi_inputs.append(("free", Jf, lad))
    worst_gap = max(abs(v - 2.0) - 2.5 / n for n, v in zip(ts.Ns, ts.values))
    res.checks.append(Check("trace_near_2", worst_gap, 0.0))

    count = _get_int(options, "identity.count", 50)
    n_id = _get_int(options, "identity.N", 200)
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
                            _threshold(options, "trace_identity", 1e-8)))
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


def _run_thm3_1(options: Dict[str, str], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm3_1")
    count = _get_int(options, "inputs.count", 20)
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
                            _threshold(options, "spectra_preserved", 1e-10)))
    res.checks.append(Check("det_preserved", worst_det,
                            _threshold(options, "det_preserved", 1e-12)))
    res.checks.append(Check("hadamard", 0.0 if hadamard_ok else 1.0, 0.5))
    res.checks.append(Check("invariant_form", worst_inv,
                            _threshold(options, "invariant_form", 1e-12)))
    return res


# ---------------------------------------------------------------------
# thm4_1: circle analog of the sparse-bump regularity example
# ---------------------------------------------------------------------


def _run_thm4_1(options: Dict[str, str], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm4_1")
    bump = _get_float(options, "input.bump_value", 0.5)
    lad = _get_ladder(options, "Ns", (32, 64, 128, 256, 512, 1024, 2048, 4096))
    V = sparse_bump_verblunsky(bump)
    rt = R.root_test(V, lad, label="root_opuc")
    cn = R.cn_stat_opuc(V, lad, label="cn_opuc")
    res.series += [rt, cn]
    res.verblunsky_inputs.append(("sparse_alpha", V, lad))
    res.checks.append(Check("root_last_dev", abs(rt.last - 1.0),
                            _threshold(options, "root_dev", 0.005)))
    res.checks.append(Check("cn_last", cn.last,
                            _threshold(options, "cn_last", 0.005)))
    return res


# ---------------------------------------------------------------------
# thm4_2: the circular arc, its torus point, and perturbations
# ---------------------------------------------------------------------


def _run_thm4_2(options: Dict[str, str], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm4_2")
    a = _get_float(options, "arc.a", 0.5)
    kblk = _get_int(options, "arc.k", 3)
    cmv_n = _get_int(options, "cmv.N", 256)
    lad = _get_ladder(options, "Ns", (32, 64, 128, 256, 512, 1024, 2000))

    Vc = VerblunskyParams.from_function(lambda j: complex(a))
    s1, s2, s3 = R.arc_stats(Vc, a, kblk, lad)
    for s, nm in ((s1, "const_modulus"), (s2, "const_step"), (s3, "const_block")):
        res.series.append(R.StatSeries(nm, s.Ns, s.values))
    res.verblunsky_inputs.append(("const_alpha", Vc, lad))
    worst_const = max(max(abs(v) for v in s.values) for s in (s1, s2, s3))
    res.checks.append(Check("const_stats_zero", worst_const, 1e-15))

    # any constant phase sits on the same isospectral family
    chi = _get_float(options, "arc.phase", math.pi / 3.0)
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
                            _threshold(options, "moment_dev", 0.05)))

    theta0 = _get_float(options, "perturb.theta0", 0.7)
    phase = complex(math.cos(theta0), math.sin(theta0))
    Vp = VerblunskyParams.from_function(lambda j: a * phase + 1.0 / (j + 2.0))
    p1, p2, p3 = R.arc_stats(Vp, a, kblk, lad)
    for s, nm in ((p1, "pert_modulus"), (p2, "pert_step"), (p3, "pert_block")):
        res.series.append(R.StatSeries(nm, s.Ns, s.values))
    res.verblunsky_inputs.append(("perturbed_alpha", Vp, lad))
    worst_last = max(p1.last, p2.last, p3.last)
    res.checks.append(Check("pert_stats_last", worst_last,
                            _threshold(options, "pert_last", 0.01)))
    mono = all(s.decreasing() for s in (p1, p2, p3))
    res.checks.append(Check("pert_stats_decreasing", 0.0 if mono else 1.0, 0.5))
    return res


# ---------------------------------------------------------------------
# thm6_1: the block map of a periodic generator, and the torus average
# ---------------------------------------------------------------------


def _pattern_from(options: Dict[str, str]) -> P.PeriodicJacobi:
    raw = _get(options, "input.pattern", "1,0.5,0,0")
    try:  # a_1..a_p,b_1..b_p; PeriodicJacobi rejects odd lengths
        vals = [float(t) for t in raw.split(",")]
        p = len(vals) // 2
        return P.PeriodicJacobi(tuple(vals[:p]), tuple(vals[p:]))
    except ValueError as exc:
        raise BadOption(f"input.pattern: {exc}") from None


def _periodic_as_params(J0: P.PeriodicJacobi, db: Optional[Callable[[int], float]] = None,
                        bound_extra: float = 0.0) -> JacobiParams:
    dev = (max(abs(x - 1.0) for x in J0.a) + max(abs(x) for x in J0.b)
           + bound_extra)
    shift = db if db is not None else (lambda n: 0.0)
    return JacobiParams.from_functions(
        lambda n: J0.a[(n - 1) % J0.p],
        lambda n: J0.b[(n - 1) % J0.p] + shift(n),
        bound=dev)


def _run_thm6_1(options: Dict[str, str], seed: int) -> ScenarioResult:
    res = ScenarioResult("thm6_1")
    J0 = _pattern_from(options)
    p = J0.p
    disc = P.discriminant(J0)
    res.extras["discriminant.csv"] = disc.to_csv()

    # block map on the exactly periodic sequence
    K = _get_int(options, "blockmap.K", 64)
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
                            _threshold(options, "interior_norm", 1e-10)))
    res.checks.append(Check("interior_A_norm", worst_A,
                            _threshold(options, "interior_norm", 1e-10)))
    upper = max(float(np.max(np.abs(np.triu(a, k=1)))) for a in blocks.A)
    res.checks.append(Check("type3_structure", upper, 1e-12))

    site = _get_int(options, "defect.site", 21)
    eps = _get_float(options, "defect.size", 0.3)
    Jdef = _periodic_as_params(J0, lambda n: eps if n == site else 0.0,
                               bound_extra=eps)
    blocks_d = P.delta_of_J(J0, Jdef, K)
    lo_blk = max(0, (site - 1 - p) // p - 1)
    hi_blk = (site - 1 + p) // p + 1
    far = 0.0
    near = 0.0
    for k in range(K + 1):
        d = float(np.max(np.abs(blocks_d.B[k] - blocks.B[k])))
        if lo_blk <= k <= hi_blk:
            near = max(near, d)
        else:
            far = max(far, d)
    for k in range(K):
        d = float(np.max(np.abs(blocks_d.A[k] - blocks.A[k])))
        if lo_blk <= k <= hi_blk:
            near = max(near, d)
        else:
            far = max(far, d)
    res.checks.append(Check("locality_far_blocks", far, 1e-12))
    res.checks.append(Check("locality_defect_visible", near, eps / 2.0, "ge"))

    # torus-distance averages
    lad = _get_ladder(options, "torus.Ns", (32, 64, 128, 256, 512, 1024, 2000))
    Jh = _periodic_as_params(J0, lambda n: 1.0 / n, bound_extra=1.0)
    cn_h = R.cn_stat_torus(Jh, disc, lad, label="cn_torus_harmonic")
    res.series.append(cn_h)
    res.jacobi_inputs.append(("harmonic_shift", Jh, lad))
    res.checks.append(Check("torus_harmonic_last", cn_h.last,
                            _threshold(options, "torus_last", 0.06)))
    burn = _get_int(options, "torus.burn_in", 64)
    res.checks.append(Check("torus_harmonic_decreasing",
                            0.0 if cn_h.decreasing(burn_in=burn) else 1.0, 0.5))

    theta = _get_float(options, "torus.theta", 1.3)
    pt = P.torus_point(disc, (theta,) * (p - 1))
    Jt = _periodic_as_params(pt.jacobi)
    cn_t = R.cn_stat_torus(Jt, disc, lad, label="cn_torus_point")
    res.series.append(cn_t)
    res.jacobi_inputs.append(("torus_point", Jt, lad))
    res.checks.append(Check("torus_point_flat",
                            max(cn_t.values),
                            _threshold(options, "torus_point", 1e-7)))
    return res


# ---------------------------------------------------------------------
# mnt_illustration: shrinking diagonal for measures on [-2, 2]
# ---------------------------------------------------------------------


def _run_mnt(options: Dict[str, str], seed: int) -> ScenarioResult:
    res = ScenarioResult("mnt_illustration")
    n_coef = _get_int(options, "coefficients", 80)
    tilt = _get_float(options, "input.tilt", 0.5)
    xs = np.linspace(-2.0, 2.0, 401)
    vals = 1.0 + tilt * xs / 2.0
    spec = M.LineMeasureSpec(
        [M.DensityPart(-2.0, 2.0, "tabulated", 1.0, (xs, vals))])
    J = M.jacobi_from_measure(M.discretize(spec), n_coef)
    lad = tuple(n for n in (5, 10, 20, 40, n_coef - 1) if n < n_coef)
    res.jacobi_inputs.append(("tilted_flat", J, lad))
    res.series.append(R.cn_stat_oprl(J, lad, label="cn_tilted"))
    b = np.abs(J.b_window(n_coef))
    halves = []
    for n in lad:
        halves.append(float(np.max(b[n // 2:n])))
    res.series.append(R.StatSeries("b_window_max", lad, tuple(halves)))
    starts = np.array([1, 5, 10, 20, 40])
    win = R.cn_stat_windowed(J, starts, max(2, (n_coef - 1) // 4))
    res.extras["windowed.csv"] = "start,value\n" + "\n".join(
        f"{s},{repr(float(v))}" for s, v in zip(starts, win)) + "\n"
    return res


# ---------------------------------------------------------------------
# conjecture5_1_explore: finite-gap torus averages, no verdict attached
# ---------------------------------------------------------------------


def _run_conjecture(options: Dict[str, str], seed: int) -> ScenarioResult:
    res = ScenarioResult("conjecture5_1_explore")
    J0 = _pattern_from(options)
    p = J0.p
    disc = P.discriminant(J0)
    res.extras["discriminant.csv"] = disc.to_csv()
    if p == 2:
        lad = _get_ladder(options, "Ns", (32, 64, 128, 256, 512))
        grid_points, refine = 64, 1e-7
    else:
        lad = _get_ladder(options, "Ns", (8, 16, 32))
        grid_points, refine = 12, 1e-3

    amp = _get_float(options, "decay.amp", 0.5)
    power = _get_float(options, "decay.power", 1.0)
    Jd = _periodic_as_params(J0, lambda n: amp / n ** power, bound_extra=amp)
    cn_d = R.cn_stat_torus(Jd, disc, lad, label="cn_torus_decay",
                           grid_points=grid_points, refine_step=refine)
    res.series.append(cn_d)
    res.jacobi_inputs.append(("decaying_shift", Jd, lad))

    bump = _get_float(options, "bumps.amp", 0.4)
    Jb = _periodic_as_params(
        J0, lambda n: bump if (n > 1 and _is_pow2(n)) else 0.0,
        bound_extra=bump)
    cn_b = R.cn_stat_torus(Jb, disc, lad, label="cn_torus_bumps",
                           grid_points=grid_points, refine_step=refine)
    res.series.append(cn_b)
    res.jacobi_inputs.append(("sparse_shift", Jb, lad))

    rt = R.root_test(Jd, lad, label="root_decay")
    cap = pot.capacity(disc.bands())
    res.series.append(rt)
    res.series.append(R.StatSeries("root_over_capacity", lad,
                                   tuple(v / cap for v in rt.values)))

    n_samp = _get_int(options, "torus.samples", 8)
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


_RUNNERS: Dict[str, Tuple[Callable[[Dict[str, str], int], ScenarioResult], str]] = {
    "thm1_1": (_run_thm1_1,
               "scalar regularity: measure ladder and sparse bumps"),
    "prop2_2": (_run_prop2_2,
                "zero counting vs arcsine law; trace identities"),
    "thm3_1": (_run_thm3_1,
               "block normal forms and the invariant average"),
    "thm4_1": (_run_thm4_1,
               "circle sparse bumps: root test and deviation average"),
    "thm4_2": (_run_thm4_2,
               "circular arc: torus point, truncation angles, perturbations"),
    "thm6_1": (_run_thm6_1,
               "periodic block map and torus-distance averages"),
    "mnt_illustration": (_run_mnt,
                         "shrinking diagonal for [-2,2] measures (no "
                         "thresholds)"),
    "conjecture5_1_explore": (_run_conjecture,
                              "finite-gap torus averages, exploratory"),
}


def scenario_ids() -> Tuple[str, ...]:
    return tuple(_RUNNERS)


def describe(scenario: str) -> str:
    if scenario not in _RUNNERS:
        raise UnknownScenario(scenario)
    return _RUNNERS[scenario][1]


def run(scenario: str, options: Dict[str, str], seed: int = 1) -> ScenarioResult:
    """Execute one scenario with the given flat options."""
    if scenario not in _RUNNERS:
        raise UnknownScenario(scenario)
    return _RUNNERS[scenario][0](options, seed)


_DEFAULT_EXTRA = {
    "thm1_1": ["input.bump_value = 0.5"],
    "prop2_2": ["Ns = 400,800", "identity.count = 50", "identity.N = 200"],
    "thm3_1": ["inputs.count = 20"],
    "thm4_1": ["input.bump_value = 0.5"],
    "thm4_2": ["arc.a = 0.5", "arc.k = 3", "cmv.N = 256",
               "perturb.theta0 = 0.7"],
    "thm6_1": ["input.pattern = 1,0.5,0,0", "blockmap.K = 64",
               "defect.site = 21", "torus.theta = 1.3"],
    "mnt_illustration": ["coefficients = 80", "input.tilt = 0.5"],
    "conjecture5_1_explore": ["input.pattern = 1,0.5,0,0",
                              "decay.amp = 0.5", "bumps.amp = 0.4"],
}


def default_config(scenario: str) -> str:
    """Config text that reproduces the scenario's default run."""
    if scenario not in _RUNNERS:
        raise UnknownScenario(scenario)
    lines = [
        f"# {scenario}: {describe(scenario)}",
        f"scenario = {scenario}",
        "seed = 1",
        "emit_svg = false",
        "# outdir = ./out",
    ]
    lines += _DEFAULT_EXTRA.get(scenario, [])
    return "\n".join(lines) + "\n"
