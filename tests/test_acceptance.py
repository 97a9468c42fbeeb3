"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test prints the measured values next to its
bound so failures are diagnosable from the log alone.
"""

import math
import time

import numpy as np
import pytest

from opspectra import cli, scenarios
from opspectra.cli import ScenarioConfig, run_scenario
from opspectra.measures import (LineMeasureSpec, discretize,
                                jacobi_from_measure)
from opspectra.periodic import (PeriodicJacobi, delta_of_J, normalize_type1,
                                normalize_type3, torus_point)
from opspectra.potential import equilibrium_measure, w1_distance
from opspectra.regularity import (arc_stats, cn_stat_matrix_invariant,
                                  cn_stat_oprl, cn_stat_opuc, cn_sq_stat_oprl,
                                  cn_stat_torus, lemma21_stats, root_test)
from opspectra.rng import SplitMix64
from opspectra.scenarios import (_random_blocks, _random_chain, _seeded_jacobi,
                                 sparse_bump_jacobi, sparse_bump_verblunsky)
from opspectra.sequences import JacobiParams, VerblunskyParams, sup_deviation
from opspectra.spectra import (cmv, eig_block, eig_sym_tridiag, eig_unitary,
                               trace_square, truncate, zero_counting)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def scenario_results():
    """Default run of every registered scenario, shared by the
    cross-cutting identity criteria."""
    return {sid: scenarios.run(sid, {}, seed=1)
            for sid in scenarios.scenario_ids()}


def _every_input(results):
    for sid, res in results.items():
        for name, J, Ns in res.jacobi_inputs:
            yield f"{sid}/{name}", J.a_window(Ns[-1]), Ns
        for name, V, Ns in res.verblunsky_inputs:
            yield f"{sid}/{name}", V.rho_window(Ns[-1]), Ns


def test_ac01_trace_identity_on_seeded_inputs():
    t0 = time.perf_counter()
    worst = 0.0
    for s in range(50):
        rng = SplitMix64(1000 + s)
        J = _seeded_jacobi(rng, 200)
        f, e = trace_square(J, 200)
        worst = max(worst, abs(f - e) / max(1.0, abs(f)))
    dt = time.perf_counter() - t0
    _verdict("AC01 trace identity",
             worst <= 1e-8 and dt < 5.0,
             f"worst rel err {worst:.2e} <= 1e-8, runtime {dt:.2f}s < 5s")


def test_ac02_equilibrium_moments_of_the_reference_interval():
    em = equilibrium_measure((-2.0, 2.0))
    m2 = em.moment(2)
    m4 = em.moment(4)
    odd = max(abs(em.moment(1)), abs(em.moment(3)))
    ok = abs(m2 - 2.0) <= 1e-10 and odd == 0.0 and abs(m4 - 6.0) <= 1e-9
    _verdict("AC02 equilibrium moments", ok,
             f"m2 err {abs(m2 - 2.0):.2e} <= 1e-10, odd {odd}, "
             f"m4 err {abs(m4 - 6.0):.2e} <= 1e-9")


def test_ac03_zero_counting_approaches_the_arcsine_law():
    em = equilibrium_measure((-2.0, 2.0))
    w400 = w1_distance(zero_counting(JacobiParams.free(), 400), em)
    w800 = w1_distance(zero_counting(JacobiParams.free(), 800), em)
    _verdict("AC03 zero counting vs arcsine", w400 <= 0.02 and w800 < w400,
             f"W1(400) {w400:.4f} <= 0.02, W1(800) {w800:.4f} < W1(400)")


def test_ac04_cesaro_averages_die_for_regular_inputs():
    lad = (4, 8, 16, 32, 60)
    J1 = jacobi_from_measure(discretize(LineMeasureSpec.legendre_flat()),
                             lad[-1] + 1)
    cn1 = cn_stat_oprl(J1, lad)
    part1 = cn1.decreasing() and cn1.last <= 0.02

    J2 = sparse_bump_jacobi(0.5)
    norm = float(np.max(np.abs(eig_sym_tridiag(truncate(J2, 1024)))))
    rt = root_test(J2, (1024, 8192)).last
    cn2 = cn_stat_oprl(J2, (1024, 8192)).last
    part2 = norm <= 2.0 + 1e-9 and abs(rt - 1.0) <= 0.01 and cn2 <= 0.01
    _verdict("AC04 regularity trend", part1 and part2,
             f"measure ladder last {cn1.last:.4f} <= 0.02 decreasing "
             f"{cn1.decreasing()}; bump norm {norm:.6f} <= 2+1e-9, "
             f"root dev {abs(rt - 1.0):.4f} <= 0.01, cn {cn2:.5f} <= 0.01")


def test_ac05_square_expansion_identity_on_all_inputs(scenario_results):
    worst = 0.0
    count = 0
    for name, seq, Ns in _every_input(scenario_results):
        geo, mean, mean_sq, msd = lemma21_stats(seq, Ns)
        for m, q, d in zip(mean.values, mean_sq.values, msd.values):
            worst = max(worst, abs(d - (q - 2.0 * m + 1.0)))
            count += 1
    _verdict("AC05 square expansion identity", worst <= 1e-12,
             f"worst window gap {worst:.2e} <= 1e-12 over {count} windows")


def test_ac06_schwarz_bridge_on_all_inputs(scenario_results):
    worst = -np.inf
    count = 0
    for sid, res in scenario_results.items():
        for name, J, Ns in res.jacobi_inputs:
            cn = cn_stat_oprl(J, Ns)
            sq = cn_sq_stat_oprl(J, Ns)
            A = sup_deviation(J, Ns[-1])
            for c, q in zip(cn.values, sq.values):
                worst = max(worst, c * c - 2.0 * q, q - 2.0 * A * c)
                count += 1
    _verdict("AC06 mean-vs-mean-square bridge", worst <= 1e-12,
             f"worst inequality excess {worst:.2e} <= 1e-12 over "
             f"{count} windows")


def test_ac07_block_normal_forms_on_seeded_inputs():
    worst_spec = worst_det = worst_inv = 0.0
    hadamard_ok = True
    for i in range(20):
        rng = SplitMix64(777 + i)
        ell = 1 + rng.next_u64() % 3
        K = 8 + rng.next_u64() % 33
        Jb = _random_blocks(rng, int(ell), int(K))
        w0 = eig_block(Jb, len(Jb.B))
        [(t3, _)] = normalize_type3([Jb])
        [(t1, _)] = normalize_type1([Jb])
        for t in (t3, t1):
            wt = eig_block(t, len(t.B))
            worst_spec = max(worst_spec, float(np.max(np.abs(wt - w0))))
            for Ax, Ay in zip(Jb.A, t.A):
                worst_det = max(worst_det, abs(abs(np.linalg.det(Ax))
                                               - abs(np.linalg.det(Ay))))
        for blk in t1.A:
            det = float(np.linalg.det(blk).real)
            if det > float(np.prod(np.diagonal(blk).real)) + 1e-12:
                hadamard_ok = False
        lad = tuple(sorted({max(1, len(Jb.B) // 4), max(2, len(Jb.B) // 2),
                            len(Jb.B) - 1}))
        base = cn_stat_matrix_invariant(Jb, lad)
        chain = _random_chain(rng, int(ell), len(Jb.B) + 1)
        moved = cn_stat_matrix_invariant(chain.apply(Jb), lad)
        worst_inv = max(worst_inv, max(abs(x - y) for x, y
                                       in zip(base.values, moved.values)))
    ok = (worst_spec <= 1e-10 and worst_det <= 1e-12 and hadamard_ok
          and worst_inv <= 1e-12)
    _verdict("AC07 block normal forms", ok,
             f"spectra {worst_spec:.2e} <= 1e-10, det {worst_det:.2e} <= "
             f"1e-12, hadamard {hadamard_ok}, invariant {worst_inv:.2e} "
             f"<= 1e-12")


def test_ac08_sparse_circle_bumps():
    V = sparse_bump_verblunsky(0.5)
    rt = root_test(V, (1024, 4096)).last
    cn = cn_stat_opuc(V, (1024, 4096)).last
    _verdict("AC08 circle sparse bumps",
             abs(rt - 1.0) <= 0.005 and cn <= 0.005,
             f"root dev {abs(rt - 1.0):.5f} <= 0.005, cn {cn:.5f} <= 0.005")


def test_ac09_arc_statistics_and_truncation_angles():
    a = 0.5
    lad = (32, 64, 128, 256, 512, 1024, 2000)
    Vc = VerblunskyParams.from_function(lambda j: complex(a))
    const_worst = max(max(abs(v) for v in s.values)
                      for s in arc_stats(Vc, a, 3, lad))

    emp = eig_unitary(cmv(Vc, 256))
    min_angle = float(np.min(np.abs(emp.points)))
    gap = 2.0 * math.asin(a)
    moment = emp.mean_phase()
    mom_err = abs(moment - (-0.25))

    theta0 = 0.7
    phase = complex(math.cos(theta0), math.sin(theta0))
    Vp = VerblunskyParams.from_function(lambda j: a * phase + 1.0 / (j + 2.0))
    pert = arc_stats(Vp, a, 3, lad)
    pert_last = max(s.last for s in pert)
    pert_mono = all(s.decreasing() for s in pert)

    ok = (const_worst == 0.0 and min_angle >= gap - 0.1 and mom_err <= 0.05
          and pert_last <= 0.01 and pert_mono)
    _verdict("AC09 circular arc", ok,
             f"const stats {const_worst}, min angle {min_angle:.4f} >= "
             f"{gap - 0.1:.4f}, moment err {mom_err:.4f} <= 0.05, perturbed "
             f"last {pert_last:.5f} <= 0.01 decreasing {pert_mono}")


def test_ac10_block_map_of_the_periodic_generator():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    K = 64
    blocks = delta_of_J(J0, scenarios._periodic_as_params(J0), K)
    eye = np.eye(2)
    worst_A = max(float(np.sqrt(np.sum(np.abs(blk - eye) ** 2)))
                  for blk in blocks.A[1:])
    worst_B = max(float(np.sqrt(np.sum(np.abs(blk) ** 2)))
                  for blk in blocks.B[1:])
    type3_ok = blocks.type_tag == "type3" and all(
        np.max(np.abs(np.triu(blk, k=1))) == 0.0 for blk in blocks.A)

    site, eps = 21, 0.3
    Jdef = scenarios._periodic_as_params(
        J0, db=lambda n: np.where(n == site, eps, 0.0))
    defect = delta_of_J(J0, Jdef, K)
    lo_blk, hi_blk = (site - 3) // 2 - 1, (site + 1) // 2 + 1
    far = near = 0.0
    for k in range(K + 1):
        d = float(np.max(np.abs(defect.B[k] - blocks.B[k])))
        far, near = (far, max(near, d)) if lo_blk <= k <= hi_blk \
            else (max(far, d), near)
    for k in range(K):
        d = float(np.max(np.abs(defect.A[k] - blocks.A[k])))
        far, near = (far, max(near, d)) if lo_blk <= k <= hi_blk \
            else (max(far, d), near)
    ok = (worst_A <= 1e-10 and worst_B <= 1e-10 and type3_ok
          and far <= 1e-12 and near >= eps / 2.0)
    _verdict("AC10 periodic block map", ok,
             f"interior A {worst_A:.2e} B {worst_B:.2e} <= 1e-10, type3 "
             f"{type3_ok}, defect far {far:.2e} <= 1e-12 near {near:.3f}")


def test_ac11_torus_distance_averages():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    lad = (32, 64, 128, 256, 512, 1024, 2000)
    Jh = scenarios._periodic_as_params(J0, db=lambda n: 1.0 / n)
    cn_h = cn_stat_torus(Jh, J0, lad)
    Jt = scenarios._periodic_as_params(torus_point(J0, (1.3,)))
    cn_t = cn_stat_torus(Jt, J0, lad)
    ok = (cn_h.last <= 0.06 and cn_h.decreasing(burn_in=64)
          and max(cn_t.values) <= 1e-7)
    _verdict("AC11 torus-distance averages", ok,
             f"harmonic last {cn_h.last:.4f} <= 0.06 decreasing(64) "
             f"{cn_h.decreasing(burn_in=64)}, torus point worst "
             f"{max(cn_t.values):.2e} <= 1e-7")


def test_ac12_byte_identical_reruns(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
    matched = []
    for sid in ("prop2_2", "thm4_2"):
        pair = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sid}_{tag}"
            run_scenario(ScenarioConfig(sid, seed=9, outdir=str(out)))
            pair.append((out / "stats.csv").read_bytes())
        matched.append(pair[0] == pair[1])
    _verdict("AC12 reproducibility", all(matched),
             f"byte-identical stats.csv for prop2_2 {matched[0]} and "
             f"thm4_2 {matched[1]}")
