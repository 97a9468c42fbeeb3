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
    with pytest.raises(Unsupported):
        capacity(fg)
    with pytest.raises(Unsupported):
        equilibrium_measure(fg)


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
