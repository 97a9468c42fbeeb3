import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad

from opspectra.periodic import PeriodicJacobi, bands
from opspectra.potential import (CircleArcSet, FiniteGapSet, Unsupported,
                                 capacity, equilibrium_measure, w1_distance)
from opspectra.sequences import JacobiParams
from opspectra.spectra import EmpiricalMeasure, zero_counting


def test_interval_moments_match_central_binomials():
    # arcsine law on [-2,2]: int x^{2m} = C(2m, m); odd moments 0
    em = equilibrium_measure((-2.0, 2.0))
    assert em.moment(0) == pytest.approx(1.0, abs=1e-12)
    assert em.moment(1) == 0.0
    assert em.moment(2) == pytest.approx(2.0, abs=1e-12)
    assert em.moment(3) == 0.0
    assert em.moment(4) == pytest.approx(6.0, abs=1e-11)
    assert em.moment(6) == pytest.approx(20.0, abs=1e-10)


@pytest.mark.parametrize("interval", [(-2.0, 2.0), (-0.75, 0.75)])
def test_odd_moments_of_symmetric_intervals_cancel_exactly(interval):
    em = equilibrium_measure(interval)
    for k in (1, 3, 5, 7):
        assert em.moment(k) == 0.0


def test_shifted_interval_moment_against_quadrature():
    em = equilibrium_measure((0.0, 1.0))
    oracle, err = quad(
        lambda x: x * x / (math.pi * math.sqrt((x - 0.0) * (1.0 - x))),
        0.0, 1.0)
    assert err < 1e-8
    assert em.moment(2) == pytest.approx(oracle, abs=1e-8)


def test_interval_capacity_scales_with_length():
    assert capacity((-2.0, 2.0)) == pytest.approx(1.0)
    assert capacity((0.0, 1.0)) == pytest.approx(0.25)
    assert capacity(FiniteGapSet(((-2.0, 2.0),))) == pytest.approx(1.0)


def test_arc_capacity_closed_form():
    # arc of total opening 2 pi - 4 arcsin(a): capacity sqrt(1 - a^2)
    for a in (0.1, 0.3, 0.5, 0.9):
        assert capacity(CircleArcSet(a)) == pytest.approx(
            math.sqrt(1.0 - a * a), abs=1e-14)


def test_arc_equilibrium_first_moment():
    # int z d rho over the arc equals -a^2 (gap pushes mass oppositely)
    a = 0.5
    em = equilibrium_measure(CircleArcSet(a))
    assert em.moment(0) == pytest.approx(1.0, abs=1e-10)
    m1 = em.moment(1)
    assert m1.imag == 0.0
    assert m1.real == pytest.approx(-a * a, abs=1e-10)


def test_arc_density_integrates_against_quadrature():
    a = 0.4
    em = equilibrium_measure(CircleArcSet(a))
    gap = CircleArcSet(a).gap_angle
    oracle, err = quad(lambda t: math.sin(t / 2.0)
                       / (2.0 * math.pi * math.sqrt(math.sin(t / 2.0) ** 2 - a * a)),
                       gap, math.pi, points=[gap], limit=200)
    # both halves of the symmetric arc
    assert 2.0 * oracle == pytest.approx(1.0, abs=1e-8)
    mid = 0.5 * (gap + math.pi)
    assert em.density(np.array([mid]))[0] == pytest.approx(
        math.sin(mid / 2.0)
        / (2.0 * math.pi * math.sqrt(math.sin(mid / 2.0) ** 2 - a * a)))


@pytest.mark.parametrize("a, b", [
    ((1.0, 0.5), (0.0, 0.0)),
    ((1.1, 0.7, 0.9), (0.2, 0.0, -0.4)),
    ((1.0, 0.6, 0.8, 1.2), (0.1, -0.2, 0.0, 0.3)),
], ids=["p2", "p3", "p4"])
def test_periodic_quantiles_at_levels_j_over_p_land_on_band_edges(a, b):
    # every band holds mass 1/p, so the levels 0, 1/p, ..., 1 fall on
    # band edges
    J0 = PeriodicJacobi(a, b)
    fg = bands(J0)
    p = J0.p
    em = equilibrium_measure(fg)
    q = em.quantiles(np.arange(p + 1) / p)
    edges = np.array([e for band in fg.bands for e in band])
    assert q[0] == pytest.approx(edges[0], abs=1e-13)
    assert q[-1] == pytest.approx(edges[-1], abs=1e-13)
    for x in q:
        assert np.min(np.abs(edges - x)) <= 1e-13


def test_periodic_quantiles_do_not_depend_on_the_slicing():
    # at p = 32 the 3000 levels are solved in three slices; each level
    # alone must give the same bits
    rng = np.random.default_rng(32)
    J0 = PeriodicJacobi(tuple(rng.uniform(0.7, 1.3, 32)),
                        tuple(rng.uniform(-0.3, 0.3, 32)))
    em = equilibrium_measure(bands(J0))
    us = (np.arange(3000) + 0.5) / 3000
    q = em.quantiles(us)
    assert np.all(np.diff(q) >= 0.0)
    for i in range(0, 3000, 97):
        assert em.quantiles(us[i:i + 1])[0] == q[i]


def test_a_multi_band_set_without_its_generator_is_unsupported():
    # the bands of a = (1, 1/2), b = (0, 0), built by hand: nothing
    # here recovers the generator from the edges
    fg = FiniteGapSet(bands(PeriodicJacobi((1.0, 0.5), (0.0, 0.0))).bands)
    assert fg.generator is None and fg.n_bands == 2
    with pytest.raises(Unsupported) as cap:
        capacity(fg)
    with pytest.raises(Unsupported) as em:
        equilibrium_measure(fg)
    assert str(cap.value) == str(em.value)


def test_a_one_band_set_without_its_generator_is_its_interval():
    em = equilibrium_measure(FiniteGapSet(((-2.0, 2.0),)))
    ref = equilibrium_measure((-2.0, 2.0))
    us = (np.arange(1000) + 0.5) / 1000
    assert em.quantiles(us).tobytes() == ref.quantiles(us).tobytes()
    assert [em.moment(k) for k in range(9)] == [ref.moment(k) for k in range(9)]
    assert em.density_samples().tobytes() == ref.density_samples().tobytes()
    assert capacity(FiniteGapSet(((-2.0, 2.0),))) == capacity((-2.0, 2.0))


def test_periodic_capacity_is_the_geometric_mean_of_a():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    assert capacity(bands(J0)) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_periodic_second_moment_against_quadrature():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    em = equilibrium_measure(bands(J0))

    def dens(x):
        # D = (x^2 - a_1^2 - a_2^2) / (a_1 a_2) = 2 x^2 - 2.5
        d = 2.0 * x * x - 2.5
        slope = 4.0 * x
        return abs(slope) / (2.0 * math.pi * math.sqrt(4.0 - d * d))

    total = 0.0
    for lo, hi in bands(J0).bands:
        val, err = quad(lambda x: x * x * dens(x), lo, hi,
                        points=[lo, hi], limit=400)
        assert err < 1e-9
        total += val
    assert em.moment(2) == pytest.approx(total, abs=1e-9)


def test_periodic_density_at_period_32_matches_the_quantile_spacing():
    # the monomial discriminant gave NaN at 29 of these points and a
    # relative error of 6.9; the transfer-product trace gives neither
    p, n = 32, 12800
    rng = np.random.default_rng(32)
    J0 = PeriodicJacobi(tuple(rng.uniform(0.7, 1.3, p)),
                        tuple(rng.uniform(-0.3, 0.3, p)))
    em = equilibrium_measure(bands(J0))
    q = em.quantiles((np.arange(n) + 0.5) / n).reshape(p, n // p)
    x = 0.5 * (q[:, 1:] + q[:, :-1])
    dens = em.density(x)
    assert not np.any(np.isnan(dens))
    # n dq is the reciprocal density at the cell midpoint to second
    # order, away from the square-root edges of each band
    est = 1.0 / (n * np.diff(q, axis=1))
    assert np.max(np.abs(dens - est)[:, 1:-1] / est[:, 1:-1]) <= 0.06


def test_w1_point_mass_against_mean_distance():
    # W1(delta_0, arcsine on [-2,2]) = int |x| d rho = 4 / pi
    em = equilibrium_measure((-2.0, 2.0))
    emp = EmpiricalMeasure(np.zeros(64), "line")
    assert w1_distance(emp, em) == pytest.approx(4.0 / math.pi, abs=5e-3)


def test_w1_of_matching_quantiles_is_small():
    em = equilibrium_measure((-2.0, 2.0))
    emp = zero_counting(JacobiParams.free(), 600)
    assert w1_distance(emp, em) < 0.01


def test_w1_arc_quantile_sample_is_close():
    em = equilibrium_measure(CircleArcSet(0.4))
    n = 256
    lifted = em.quantiles((np.arange(n) + 0.5) / n)
    th = np.where(lifted > math.pi, lifted - 2.0 * math.pi, lifted)
    emp = EmpiricalMeasure(th, "circle")
    assert w1_distance(emp, em) < 0.02


@pytest.mark.parametrize("target", [(2.0, -2.0), (1.0, 1.0), (0.0, math.inf),
                                    (-math.inf, 2.0), (0.0, math.nan)])
def test_bad_intervals_are_rejected_by_both_entry_points(target):
    with pytest.raises(ValueError):
        capacity(target)
    with pytest.raises(ValueError):
        equilibrium_measure(target)


#: the targets of the byte pins below, one per geometry and shape
PINNED_TARGETS = {
    "interval(-2,2)": lambda: (-2.0, 2.0),
    "interval(0,1)": lambda: (0.0, 1.0),
    "arc(0.4)": lambda: CircleArcSet(0.4),
    "bands(1,0.5,0,0)": lambda: bands(PeriodicJacobi((1.0, 0.5),
                                                     (0.0, 0.0))),
    "bands(1,0.6,0.8,0.1,-0.2,0)": lambda: bands(
        PeriodicJacobi((1.0, 0.6, 0.8), (0.1, -0.2, 0.0))),
}

#: SHA-256 of each quantity's bytes on the pinned stack
PINNED_BYTES = {
    "arc(0.4)": {
        "moment":
            "53e269de994c3467112d9fca02c5a813b721596ca70629f4bd9e0477dbd4ce9e",
        "quantiles":
            "0c7331643487ddc25f30d70a77fba05062d1eb384fc24ab0fb01918f24c272ed",
        "density":
            "d4715b87eee7e3902991e8ce1bd1f27ea68768587817f165aec3ffa16c3a2e9c",
        "density_samples":
            "d1e8bc84773a9ff6a278ec742dc2d8c32e74c16bcc85f999012326a68a0c02a0",
        "capacity":
            "add9345ade26d625aad0349e94f13cb388c5500fe1493a78423d1517764c65f2",
    },
    "bands(1,0.5,0,0)": {
        "moment":
            "172ec421a3bcc7fe529bff1433bcaef0931112426eb02d4889c0e54be5d57eba",
        "quantiles":
            "550377380d6e0db9ae3df523b5cbf2b360ba70f91014575dc4c1fd801347e0dc",
        "density":
            "5a5c1a62f03acdc445fe809e0c42faa9d3a94693000ec0c03b47ec47fea8b204",
        "density_samples":
            "8c51c195edc829be187f839fe04a68f2623f2ebc048c40fffa499e6b019b3ba2",
        "capacity":
            "0e9ede2409ce2a463b6130ca196885129f8d3d4302e5608f635ae87efef76712",
    },
    "bands(1,0.6,0.8,0.1,-0.2,0)": {
        "moment":
            "b7424e17f1eeb8ad0b37bc977342fd0bb7abb6c6c3d374e5272b59058ee23e04",
        "quantiles":
            "58ab00b0ec9925746c45b01a63045d3a5b9f293a9e3433323fe832234312407f",
        "density":
            "04751f5280d2b6d2ce026842d33ba50fbefea38f25ad2f2eb60038cdd02b06e1",
        "density_samples":
            "b1874b1eec56d8f32b85e69446508029b5e06a886b1937362730e6e0e2d8ccdb",
        "capacity":
            "dd02b03d8c7bb928ce27cb196b49418d628aa2a80e9311ee570f37b865d6f1dc",
    },
    "interval(-2,2)": {
        "moment":
            "13b0c3b0e17c59e4127a11c18a4aaddba9a679dc6f8251221cf510e34bc9a34b",
        "quantiles":
            "76c61510c5aa144d4b8c728ef3f0e6e2a554e5d3b893c221d5418fe2932bc76e",
        "density":
            "7b602d50fc91400d409ac0dceb7c818a68e4a845b208ad73a7745a84c0470b20",
        "density_samples":
            "a3f77386e69f56c3b09c702afc2fcdef59767cac7c61bfca45fe20e99f8eba5c",
        "capacity":
            "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    },
    "interval(0,1)": {
        "moment":
            "dfe0eb3745c9bb334c36ad97feb4cb26b922a11288a55a06d245335eb443f996",
        "quantiles":
            "3fa3723b2e9e1c3a2b4acb81b951d63ec0d9b0766f90ef7fff3e19d3a8135f6d",
        "density":
            "1f6a66773c8228d64c5ec954880cd6e408860536cb06eb473aa1d6ded55a57ea",
        "density_samples":
            "ae8944c50e08f266943f6bae447bdfe9ca2be886c0038189dde2cb0e37601df1",
        "capacity":
            "272f78036db6721f7cf7444315e5f6360426d14c3d446d6ae8a89ef70d134002",
    },
}


def _pinned_quantities(target):
    """The bytes of every quantity a reference measure gives: moments 0..8,
    quantiles at 257 midpoint levels, the density at the quantiles of 256
    midpoint levels (no level of 256 is a band edge j / p for p = 2, 3),
    density_samples() and the capacity."""
    em = equilibrium_measure(target)
    return {
        "moment": np.array([em.moment(k) for k in range(9)]).tobytes(),
        "quantiles": em.quantiles((np.arange(257) + 0.5) / 257).tobytes(),
        "density": em.density(
            em.quantiles((np.arange(256) + 0.5) / 256)).tobytes(),
        "density_samples": em.density_samples().tobytes(),
        "capacity": np.float64(capacity(target)).tobytes(),
    }


@pytest.mark.parametrize("name", sorted(PINNED_TARGETS))
def test_every_quantity_of_each_geometry_keeps_its_bytes(name):
    got = {q: hashlib.sha256(b).hexdigest()
           for q, b in _pinned_quantities(PINNED_TARGETS[name]()).items()}
    assert got == PINNED_BYTES[name]


@pytest.mark.parametrize("name", ["arc(0.4)", "bands(1,0.5,0,0)",
                                  "bands(1,0.6,0.8,0.1,-0.2,0)"])
def test_density_samples_lie_strictly_inside_the_support(name):
    target = PINNED_TARGETS[name]()
    rows = equilibrium_measure(target).density_samples()
    x, dens = rows[:, 0], rows[:, 1]
    if isinstance(target, CircleArcSet):
        # angles in (-pi, pi), outside the gap around 0
        spans = [(-math.pi, -target.gap_angle), (target.gap_angle, math.pi)]
    else:
        spans = list(target.bands)
    inside = np.zeros(len(x), dtype=bool)
    for lo, hi in spans:
        inside |= (lo < x) & (x < hi)
    assert len(x) >= 150 and inside.all()
    assert np.all(np.isfinite(dens)) and np.all(dens > 0.0)
