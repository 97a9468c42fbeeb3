import math

import numpy as np
import pytest
from scipy.integrate import quad

from opspectra.periodic import PeriodicJacobi, discriminant
from opspectra.potential import (CircleArcSet, FiniteGapSet, capacity,
                                 eq_moment, equilibrium_measure, w1_distance)
from opspectra.sequences import JacobiParams
from opspectra.spectra import EmpiricalMeasure, zero_counting


def test_interval_moments_match_central_binomials():
    # arcsine law on [-2,2]: int x^{2m} = C(2m, m); odd moments 0
    em = equilibrium_measure((-2.0, 2.0))
    assert eq_moment(em, 0) == pytest.approx(1.0, abs=1e-12)
    assert eq_moment(em, 1) == 0.0
    assert eq_moment(em, 2) == pytest.approx(2.0, abs=1e-12)
    assert eq_moment(em, 3) == 0.0
    assert eq_moment(em, 4) == pytest.approx(6.0, abs=1e-11)
    assert eq_moment(em, 6) == pytest.approx(20.0, abs=1e-10)


@pytest.mark.parametrize("interval", [(-2.0, 2.0), (-0.75, 0.75)])
def test_odd_moments_of_symmetric_intervals_cancel_exactly(interval):
    em = equilibrium_measure(interval)
    for k in (1, 3, 5, 7):
        assert eq_moment(em, k) == 0.0


def test_shifted_interval_moment_against_quadrature():
    em = equilibrium_measure((0.0, 1.0))
    oracle, err = quad(
        lambda x: x * x / (math.pi * math.sqrt((x - 0.0) * (1.0 - x))),
        0.0, 1.0)
    assert err < 1e-8
    assert eq_moment(em, 2) == pytest.approx(oracle, abs=1e-8)


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
    assert eq_moment(em, 0) == pytest.approx(1.0, abs=1e-10)
    m1 = eq_moment(em, 1)
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


def test_periodic_band_masses_are_equal():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    disc = discriminant(J0)
    bands = disc.bands()
    em = equilibrium_measure(bands, disc)
    masses = em.band_masses()
    assert len(masses) == 2
    assert masses == pytest.approx([0.5, 0.5], abs=1e-10)
    assert capacity(bands) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_periodic_second_moment_against_quadrature():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    disc = discriminant(J0)
    em = equilibrium_measure(disc.bands(), disc)

    def dens(x):
        d = disc.value(x)
        return abs(disc.derivative(x)) / (2.0 * math.pi * math.sqrt(4.0 - d * d))

    total = 0.0
    for lo, hi in disc.bands().bands:
        val, err = quad(lambda x: x * x * dens(x), lo, hi,
                        points=[lo, hi], limit=400)
        assert err < 1e-9
        total += val
    assert eq_moment(em, 2) == pytest.approx(total, abs=1e-9)


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
