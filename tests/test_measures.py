import math
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from opspectra.measures import (BreakdownAtStep, CircleMeasureSpec,
                                DensityNegative, DensityPart, DiscreteMeasure,
                                LineMeasureSpec, MomentIllConditioned,
                                _gl_nodes, _leggauss, _tabulated_rule,
                                discretize, gauss_rule,
                                jacobi_from_measure, trig_moments,
                                verblunsky_from_measure,
                                verblunsky_from_moments)
from opspectra.sequences import VerblunskyParams
from opspectra.spectra import cmv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _stieltjes_fsum(m: DiscreteMeasure, N: int):
    """Oracle: the Stieltjes loop on p_n itself, every inner product a
    compensated ``math.fsum`` over a Python list; returns (a, b)."""
    x, w = m.nodes, m.weights
    if len(x) < N:
        raise BreakdownAtStep(len(x) + 1, 0.0)

    def dot(u, v):
        return math.fsum((w * u * v).tolist())

    scale = max(1.0, float(np.max(np.abs(x))) ** 2)
    p_prev = np.zeros_like(x)
    p_cur = np.full_like(x, 1.0 / math.sqrt(math.fsum(w.tolist())))
    a, b = [], []
    for n in range(1, N + 1):
        xp = x * p_cur
        b.append(dot(xp, p_cur))
        if n == N:
            break
        q = xp - b[-1] * p_cur - (a[-1] if a else 0.0) * p_prev
        q -= dot(q, p_cur) * p_cur + dot(q, p_prev) * p_prev
        norm2 = dot(q, q)
        if norm2 <= 1e-13 * scale:
            raise BreakdownAtStep(n + 1, norm2)
        a.append(math.sqrt(norm2))
        p_prev, p_cur = p_cur, q / a[-1]
    return np.array(a), np.array(b)


def _tilted_flat():
    # mnt_illustration's default input: 400 tabulated segments, 4800 nodes
    xs = np.linspace(-2.0, 2.0, 401)
    return discretize(LineMeasureSpec(
        [DensityPart(-2.0, 2.0, "tabulated", 1.0, (xs, 1.0 + 0.25 * xs))]))


def _two_parts_and_an_atom():
    return discretize(LineMeasureSpec(
        [DensityPart(-2.0, 1.0, "legendre-flat", 2.0),
         DensityPart(1.0, 2.0, "legendre-flat", 1.0)],
        atoms=[(0.5, 0.25)]))


ORACLE_CASES = {
    "flat": (lambda: discretize(LineMeasureSpec.legendre_flat(), 200), 61),
    "tilted": (_tilted_flat, 100),
    "chebyshev_t": (lambda: discretize(LineMeasureSpec.chebyshev_t()), 100),
    "chebyshev_u": (lambda: discretize(LineMeasureSpec.chebyshev_u()), 100),
    "parts_and_atom": (_two_parts_and_an_atom, 100),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_stieltjes_agrees_with_the_compensated_oracle(case):
    build, N = ORACLE_CASES[case]
    dm = build()
    J = jacobi_from_measure(dm, N)
    a, b = _stieltjes_fsum(dm, N)
    assert np.max(np.abs(J.a_window(N - 1) - a)) <= 1e-14
    assert np.max(np.abs(J.b_window(N) - b)) <= 1e-14


@pytest.mark.parametrize("nodes, weights, N", [
    ([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3], 4),              # fewer nodes than N
    ([-1.0, 0.0, 1.0, 1.0 + 1e-9], [0.3, 0.3, 0.2, 0.2], 4),
    (np.r_[np.linspace(-2.0, 0.0, 6), 1.0 + 1e-7 * np.arange(5)], np.ones(11), 11),
])
def test_stieltjes_breaks_down_at_the_oracle_step(nodes, weights, N):
    dm = DiscreteMeasure(nodes, weights)
    with pytest.raises(BreakdownAtStep) as want:
        _stieltjes_fsum(dm, N)
    with pytest.raises(BreakdownAtStep) as got:
        jacobi_from_measure(dm, N)
    assert got.value.step == want.value.step


def test_stieltjes_matches_exact_legendre_at_N_1000():
    N = 1000
    J = jacobi_from_measure(discretize(LineMeasureSpec.legendre_flat(), N), N)
    n = np.arange(1, N)
    assert np.max(np.abs(J.a_window(N - 1)
                         - 2.0 * n / np.sqrt(4.0 * n * n - 1.0))) <= 1e-12
    assert np.max(np.abs(J.b_window(N))) <= 1e-12


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from opspectra.measures import DiscreteMeasure, jacobi_from_measure
x = np.linspace(-2.0, 2.0, 20011)
J = jacobi_from_measure(DiscreteMeasure(x, 1.0 + 0.3 * x + np.sin(5.0 * x) ** 2), 50)
print(hashlib.sha256(J.a_window(49).tobytes() + J.b_window(50).tobytes()).hexdigest())
"""


def test_stieltjes_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot splits long vectors across threads and rounds
    # differently with their count; the pairwise sums must not
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def _tabulated_loop(xs, vals, order):
    # the per-segment construction the broadcast rule replaced
    nodes, weights = [], []
    for i in range(len(xs) - 1):
        t, w = _gl_nodes(xs[i], xs[i + 1], order)
        nodes.append(t)
        weights.append(w * np.interp(t, xs, vals))
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("xs, vals, order", [
    (np.linspace(-2.0, 2.0, 401), 1.0 + 0.25 * np.linspace(-2.0, 2.0, 401), 12),
    (np.linspace(-math.pi, math.pi, 2001),
     1.0 + np.cos(np.linspace(-math.pi, math.pi, 2001)), 12),
    (np.array([-1.0, -0.3, 0.1, 0.15, 2.0]), np.array([0.0, 2.0, 1.0, 0.5, 3.0]), 5),
])
def test_tabulated_rule_equals_its_per_segment_loop(xs, vals, order):
    nodes, weights = _tabulated_rule(xs, vals, order)
    want_nodes, want_weights = _tabulated_loop(xs, vals, order)
    assert np.array_equal(nodes, want_nodes)
    assert np.array_equal(weights, want_weights)


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
    dm = _two_parts_and_an_atom()
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
