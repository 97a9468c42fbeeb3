import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from opspectra.measures import (BreakdownAtStep, CircleMeasureSpec,
                                DensityNegative, DensityPart, DiscreteMeasure,
                                LineMeasureSpec, MomentIllConditioned,
                                _leggauss, discretize, gauss_rule,
                                jacobi_from_measure, trig_moments,
                                verblunsky_from_measure,
                                verblunsky_from_moments)
from opspectra.sequences import VerblunskyParams
from opspectra.spectra import cmv


def test_discrete_measure_normalizes_and_merges():
    dm = DiscreteMeasure([1.0, 0.0, 1.0], [1.0, 2.0, 1.0])
    assert len(dm) == 2
    assert dm.weights == pytest.approx([0.5, 0.5])
    assert dm.moment(0) == pytest.approx(1.0)


def test_flat_measure_moments():
    # oracle: (1/4) int_{-2}^{2} x^k dx = 2^k/(k+1) for even k, 0 odd
    dm = discretize(LineMeasureSpec.legendre_flat())
    assert dm.moment(0) == pytest.approx(1.0, abs=1e-14)
    assert dm.moment(1) == pytest.approx(0.0, abs=1e-14)
    assert dm.moment(2) == pytest.approx(4.0 / 3.0, abs=1e-13)
    assert dm.moment(4) == pytest.approx(16.0 / 5.0, abs=1e-13)


def test_chebyshev_presets_give_known_recurrences():
    # second-kind weight on [-2,2] is the free case
    Ju = jacobi_from_measure(discretize(LineMeasureSpec.chebyshev_u()), 20)
    assert np.max(np.abs(Ju.a_window(19) - 1.0)) < 1e-10
    assert np.max(np.abs(Ju.b_window(20))) < 1e-10
    # first-kind weight: a_1 = sqrt(2), later a_n = 1
    Jt = jacobi_from_measure(discretize(LineMeasureSpec.chebyshev_t()), 20)
    a = Jt.a_window(19)
    assert a[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert np.max(np.abs(a[1:] - 1.0)) < 1e-10


def test_flat_measure_recurrence_closed_form():
    # orthonormal recurrence for the flat density on [-2,2]:
    # b_n = 0, a_n = 2n / sqrt(4 n^2 - 1)
    J = jacobi_from_measure(discretize(LineMeasureSpec.legendre_flat()), 30)
    n = np.arange(1, 30)
    assert np.max(np.abs(J.a_window(29) - 2.0 * n / np.sqrt(4.0 * n * n - 1.0))) < 1e-12
    assert np.max(np.abs(J.b_window(30))) < 1e-12


def test_gauss_rule_reproduces_moments():
    spec = LineMeasureSpec(
        [DensityPart(-2.0, 1.0, "legendre-flat", 2.0),
         DensityPart(1.0, 2.0, "legendre-flat", 1.0)],
        atoms=[(0.5, 0.25)])
    dm = discretize(spec)
    J = jacobi_from_measure(dm, 12)
    rule = gauss_rule(J, 12)
    for k in range(8):
        assert rule.moment(k) == pytest.approx(dm.moment(k), abs=1e-11)


def test_tabulated_density_rejects_negative_values():
    xs = np.linspace(-2.0, 2.0, 11)
    vals = np.ones_like(xs)
    vals[5] = -0.5
    spec = LineMeasureSpec(
        [DensityPart(-2.0, 2.0, "tabulated", 1.0, (xs, vals))])
    with pytest.raises(DensityNegative):
        discretize(spec)


def test_stieltjes_breakdown_on_tiny_support():
    dm = DiscreteMeasure([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])
    jacobi_from_measure(dm, 3)
    with pytest.raises(BreakdownAtStep):
        jacobi_from_measure(dm, 4)


def test_uniform_circle_moments_and_coefficients():
    spec = CircleMeasureSpec.uniform()
    c = trig_moments(spec, 6)
    assert c[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(c[1:])) < 1e-14
    V = verblunsky_from_measure(spec, 8)
    assert np.max(np.abs(V.alpha_window(8))) < 1e-12


def test_cosine_weight_has_known_first_moment():
    # w(theta) = 1 + cos(theta): c_1 = 1/2 exactly; the piecewise-linear
    # table adds an O(h^2) interpolation error
    th = np.linspace(-math.pi, math.pi, 2001)
    spec = CircleMeasureSpec(
        [DensityPart(-math.pi, math.pi, "tabulated", 1.0,
                     (th, 1.0 + np.cos(th)))])
    c = trig_moments(spec, 2)
    assert c[1] == pytest.approx(0.5, abs=1e-4)


def test_moment_route_round_trips_through_cmv():
    # independent dual route: alpha -> CMV corner moments -> alpha
    raw = np.array([0.4, -0.2 + 0.3j, 0.1j, 0.25, -0.3])
    V = VerblunskyParams(np.concatenate([raw, np.zeros(40)]))
    n = 30
    C = cmv(V, n).dense()
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    moms = [1.0 + 0.0j]
    v = e0.copy()
    for _ in range(12):
        v = C @ v
        moms.append(complex(np.vdot(e0, v)))
    back = verblunsky_from_moments(np.conj(np.array(moms)), 8)
    assert np.max(np.abs(back.alpha_window(8)
                         - V.alpha_window(8))) < 1e-12


def test_moment_sequence_must_be_positive_definite():
    c = np.array([1.0, 1.2, 0.0, 0.0], dtype=complex)  # |c_1| > c_0
    with pytest.raises(MomentIllConditioned):
        verblunsky_from_moments(c, 3)


def test_atom_on_circle_shifts_moments():
    spec = CircleMeasureSpec([DensityPart(-math.pi, math.pi, "uniform", 0.5)],
                             atoms=[(0.0, 0.5)])
    c = trig_moments(spec, 3)
    # half uniform (no moments) plus half an atom at angle 0
    assert c[1] == pytest.approx(0.5, abs=1e-12)
    assert c[2] == pytest.approx(0.5, abs=1e-12)


def test_gauss_legendre_rules_are_cached_read_only_and_exact():
    for n in (12, 64):
        t, w = _leggauss(n)
        t0, w0 = npleg.leggauss(n)
        assert np.array_equal(t, t0) and np.array_equal(w, w0)
        assert not t.flags.writeable and not w.flags.writeable
        assert _leggauss(n)[0] is t
