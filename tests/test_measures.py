import math
import os
import subprocess
import sys

import numpy as np
import pytest
from mpmath import mp
from numpy.polynomial import legendre as npleg

from opspectra.measures import (BreakdownAtStep, DensityNegative,
                                DensityPart, DiscreteMeasure, LineMeasureSpec,
                                _gl_nodes, _leggauss, _tabulated_rule,
                                discretize, jacobi_from_measure, szego_image)
from opspectra.sequences import JacobiParams
from oracles import cmv_sparse, gauss_rule, moment, verblunsky_from_measure

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


def _chebyshev(kind):
    return LineMeasureSpec([DensityPart(-2.0, 2.0, f"chebyshev-{kind}")])


ORACLE_CASES = {
    "flat": (lambda: discretize(LineMeasureSpec.legendre_flat(), 200), 61),
    "tilted": (_tilted_flat, 100),
    "chebyshev_t": (lambda: discretize(_chebyshev("t")), 100),
    "chebyshev_u": (lambda: discretize(_chebyshev("u")), 100),
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
from opspectra.measures import (DiscreteMeasure, jacobi_from_measure,
                                szego_image)
x = np.linspace(-2.0, 2.0, 20011)
J = jacobi_from_measure(DiscreteMeasure(x, 1.0 + 0.3 * x + np.sin(5.0 * x) ** 2), 50)
th = np.linspace(-np.pi, np.pi, 20011, endpoint=False)
V = szego_image(jacobi_from_measure(DiscreteMeasure(
    2.0 * np.cos(th), 1.0 + 0.3 * np.cos(th) + np.sin(5.0 * th) ** 2), 16), 30)
print(hashlib.sha256(J.a_window(49).tobytes() + J.b_window(50).tobytes()
                     + V.alpha_window(30).tobytes()).hexdigest())
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
    assert moment(dm, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("nodes, weights, message", [
    ([0.0, np.nan], [0.5, 0.5], r"^node_1 = nan must be finite"),
    ([np.nan, 0.0, 1.0], [0.2, 0.3, 0.5], r"^node_0 = nan must be finite"),
    ([0.0, np.inf, -np.inf], [0.2, 0.3, 0.5], r"^node_1 = inf must be finite"),
    ([0.0, 1.0, 2.0], [0.5, np.nan, 0.5], r"^weight_1 = nan must be finite"),
    ([0.0, 1.0], [np.inf, 0.5], r"^weight_0 = inf must be finite"),
], ids=["nan_node_last", "nan_node_first", "inf_node", "nan_weight",
        "inf_weight"])
def test_discrete_measure_refuses_a_non_finite_node_or_weight(
        nodes, weights, message):
    # unchecked, sorting merges a NaN node into a neighbour, an inf node
    # is kept, and normalizing an inf weight makes every weight NaN
    with pytest.raises(ValueError, match=message):
        DiscreteMeasure(nodes, weights)


@pytest.mark.parametrize("at, value, message", [
    ("xs", np.nan, r"^xs_3 = nan must be finite"),
    ("values", np.inf, r"^values_3 = inf must be finite"),
], ids=["nan_x", "inf_value"])
def test_tabulated_density_refuses_non_finite_data(at, value, message):
    # unchecked, a NaN x discretizes the part to a single NaN node
    data = {"xs": np.linspace(-2.0, 2.0, 11), "values": np.ones(11)}
    data[at][3] = value
    spec = LineMeasureSpec([DensityPart(-2.0, 2.0, "tabulated", 1.0,
                                        (data["xs"], data["values"]))])
    with pytest.raises(ValueError, match=message):
        discretize(spec)


_FLAT = DensityPart(-2.0, 2.0, "legendre-flat")


@pytest.mark.parametrize("parts, atoms, message", [
    ([_FLAT], [(0.5, np.inf)], r"^atom_mass_0 = inf must be > 0 and finite"),
    ([_FLAT], [(0.5, 0.1), (1.0, np.nan)],
     r"^atom_mass_1 = nan must be > 0 and finite"),
    ([DensityPart(-2.0, 2.0, "legendre-flat", np.nan)], [],
     r"^part_weight_0 = nan must be > 0 and finite"),
    ([DensityPart(-2.0, 0.0, "legendre-flat"),
      DensityPart(0.0, 2.0, "legendre-flat", np.inf)], [],
     r"^part_weight_1 = inf must be > 0 and finite"),
    ([_FLAT], [(np.nan, 0.1)], r"^atom_0 = nan must be finite"),
    ([_FLAT], [(0.5, 0.1), (np.inf, 0.1)], r"^atom_1 = inf must be finite"),
    ([DensityPart(-np.inf, 0.0, "legendre-flat")], [],
     r"^part_0 = \(-inf, 0.0\) must be finite"),
    ([DensityPart(-2.0, 0.0, "legendre-flat"),
      DensityPart(0.0, np.inf, "legendre-flat")], [],
     r"^part_1 = \(0.0, inf\) must be finite"),
    ([DensityPart(-2.0, 0.0, "legendre-flat", 1e308),
      DensityPart(0.0, 2.0, "legendre-flat", 1e308)], [],
     r"^measure must have positive, finite total mass"),
], ids=["inf_atom_mass", "nan_atom_mass", "nan_part_weight",
        "inf_part_weight", "nan_atom", "inf_atom", "part_to_minus_inf",
        "part_to_inf", "total_overflows"])
def test_line_measure_spec_refuses_non_finite_input(parts, atoms, message):
    # unchecked, each of these builds and fails only in discretize,
    # naming a quadrature index (an inf atom mass zeroes the part weight
    # and makes the atom mass NaN; an infinite part warns in _gl_nodes)
    with pytest.raises(ValueError, match=message):
        LineMeasureSpec(parts, atoms)


def test_flat_measure_moments():
    # oracle: (1/4) int_{-2}^{2} x^k dx = 2^k/(k+1) for even k, 0 odd
    dm = discretize(LineMeasureSpec.legendre_flat())
    assert moment(dm, 0) == pytest.approx(1.0, abs=1e-14)
    assert moment(dm, 1) == pytest.approx(0.0, abs=1e-14)
    assert moment(dm, 2) == pytest.approx(4.0 / 3.0, abs=1e-13)
    assert moment(dm, 4) == pytest.approx(16.0 / 5.0, abs=1e-13)


def test_chebyshev_presets_give_known_recurrences():
    # second-kind weight on [-2,2] is the free case
    Ju = jacobi_from_measure(discretize(_chebyshev("u")), 20)
    assert np.max(np.abs(Ju.a_window(19) - 1.0)) < 1e-10
    assert np.max(np.abs(Ju.b_window(20))) < 1e-10
    # first-kind weight: a_1 = sqrt(2), later a_n = 1
    Jt = jacobi_from_measure(discretize(_chebyshev("t")), 20)
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
        assert moment(rule, k) == pytest.approx(moment(dm, k), abs=1e-11)


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


def _uniform_angles(n: int):
    """The uniform measure on the circle as n equispaced angles from -pi
    with equal weights: it integrates every trigonometric polynomial of
    degree below n exactly."""
    return -math.pi + (2.0 * math.pi / n) * np.arange(n), np.full(n, 1.0 / n)


def _trig_moments(theta, weights, K: int) -> np.ndarray:
    """c_0..c_K with c_k = integral of e^{-i k theta} of the measure with
    the given weights (of total mass 1) at the angles, each a compensated
    sum."""
    vals = weights * np.exp(-1j * np.arange(K + 1)[:, None] * theta)
    return np.array([complex(math.fsum(v.real.tolist()),
                             math.fsum(v.imag.tolist())) for v in vals])


def _verblunsky_from_moments(c: np.ndarray, N: int) -> np.ndarray:
    """Oracle for measures without a gap: alpha_0..alpha_{N-1} from the
    moments c_0..c_N by the monic recursion Phi_{n+1} = z Phi_n +
    alpha_n Phi_n^* in coefficient space, each alpha_n the value making
    Phi_{n+1} orthogonal to 1 under the moment functional.  The squared
    norm of Phi_n is the ratio of consecutive Toeplitz determinants;
    ArithmeticError when it drops to 1e-13 or an |alpha_n| reaches 1.
    The recursion is exponentially ill-conditioned across a gap."""
    c = np.asarray(c, dtype=complex)
    # m[k] = integral of z^k for k = -N..N, stored with offset N
    m = np.empty(2 * N + 1, dtype=complex)
    m[N:] = np.conj(c[: N + 1])
    m[:N] = c[1: N + 1][::-1]

    def pair(pc, qc):
        # <P, Q> = sum_j sum_k p_j conj(q_k) m[j - k]
        return sum(pj * np.sum(np.conj(qc) * m[N + j - len(qc) + 1: N + j + 1][::-1])
                   for j, pj in enumerate(pc))

    phi, one = np.array([1.0 + 0.0j]), np.array([1.0 + 0.0j])
    alphas = []
    for n in range(N):
        norm2 = pair(phi, phi)
        if norm2.real <= 1e-13 or abs(norm2.imag) > 1e-9 * abs(norm2):
            raise ArithmeticError(f"moment problem not positive at order {n}")
        star = np.conj(phi[::-1])
        zphi = np.concatenate([[0.0], phi])
        alpha = -pair(zphi, one) / pair(star, one)
        if abs(alpha) >= 1.0:
            raise ArithmeticError(f"|alpha_{n}| = {abs(alpha)} >= 1")
        phi = zphi + alpha * np.concatenate([star, [0.0]])
        alphas.append(alpha)
    return np.array(alphas)


def _szego_mp(theta, N: int, dps: int) -> np.ndarray:
    """Oracle: alpha_0..alpha_{N-1} of the equal-weight measure on the
    angles, by the monic Szego recursion on the nodes at dps digits.
    A forward recursion on nodes loses digits exponentially across a
    gap; on the 800-node arc measure below, 250 digits give the same
    floats as 400 for every n < 300."""
    with mp.workdps(dps):
        z = [mp.expj(mp.mpf(float(t))) for t in theta]
        phi = star = [mp.mpc(1)] * len(z)
        out = []
        for _ in range(N):
            zphi = [zk * p for zk, p in zip(z, phi)]
            a = -mp.fsum(zphi) / mp.fsum(star)
            phi, star = ([zp + a * s for zp, s in zip(zphi, star)],
                         [s + mp.conj(a) * zp for zp, s in zip(zphi, star)])
            out.append(complex(a))
    return np.array(out)


def _arc_line_nodes(K: int) -> np.ndarray:
    # the a = 0.5 arc, theta in [pi/3, 5 pi/3]: its equilibrium measure
    # pushed to x = 2 cos(theta) is the arcsine law of [-2, 1], here its
    # K-point Gauss-Chebyshev rule (equal weights)
    return -0.5 + 1.5 * np.cos((2 * np.arange(K) + 1) * math.pi / (2 * K))


def _arc_equilibrium(K: int):
    # the 2K angles over the K line nodes, ascending, with equal weights
    th = np.arccos(_arc_line_nodes(K) / 2.0)
    return np.r_[-th[::-1], th], np.ones(2 * K)


def test_uniform_circle_moments_and_coefficients():
    # 200 equispaced angles integrate z^k exactly for |k| < 200, so every
    # coefficient the 200 nodes carry inside the disc is 0 (the oracle's
    # docstring)
    V = verblunsky_from_measure(*_uniform_angles(200), 199)
    assert abs(V.alpha_window(1)[0]) < 1e-14   # alpha_0 = -integral of z
    assert np.max(np.abs(V.alpha_window(199))) < 2e-14


def test_cosine_weight_has_known_first_moment():
    # w(theta) = 1 + cos(theta): integral of z is 1/2 exactly, so
    # alpha_0 = -1/2; the piecewise-linear table adds an O(h^2) error
    th = np.linspace(-math.pi, math.pi, 2001)
    nodes, w = _tabulated_rule(th, 1.0 + np.cos(th), 12)
    w = w / math.fsum(w.tolist())
    alpha = verblunsky_from_measure(nodes, w, 20).alpha_window(20)
    assert alpha[0] == pytest.approx(-0.5, abs=1e-4)
    # no gap, so the moment recursion is a sound oracle at small N
    assert np.max(np.abs(alpha - _verblunsky_from_moments(
        _trig_moments(nodes, w, 20), 20))) <= 1e-13


def test_moment_route_round_trips_through_cmv():
    # the spectral measure of a 51 x 51 unitary CMV matrix at e_0 has
    # the matrix's 50 coefficients (random, |alpha| < 0.5)
    rng = np.random.default_rng(0)
    alpha = 0.5 * np.sqrt(rng.random(50)) * np.exp(2j * math.pi * rng.random(50))
    C = cmv_sparse(alpha, np.exp(0.7j)).toarray()
    z, vecs = np.linalg.eig(C)
    back = verblunsky_from_measure(np.angle(z), np.abs(vecs[0]) ** 2,
                                   50).alpha_window(50)
    assert np.max(np.abs(back - alpha)) <= 1e-12
    # independent dual route: CMV corner moments -> the moment oracle
    e0 = np.zeros(len(C), dtype=complex)
    e0[0] = 1.0
    moms, v = [1.0 + 0.0j], e0.copy()
    for _ in range(12):
        v = C @ v
        moms.append(complex(np.vdot(e0, v)))
    oracle = _verblunsky_from_moments(np.conj(np.array(moms)), 12)
    assert np.max(np.abs(back[:12] - oracle)) <= 1e-12


def test_moment_sequence_must_be_positive_definite():
    c = np.array([1.0, 1.2, 0.0, 0.0], dtype=complex)  # |c_1| > c_0
    with pytest.raises(ArithmeticError):
        _verblunsky_from_moments(c, 3)


def test_atom_on_circle_shifts_moments():
    # half uniform plus half an atom at z = 1: alpha_0 = -integral of z
    # = -1/2; uniform plus mass t at 1 has alpha_n = -t/(1 + n t) in
    # this package's sign, here -1/(n + 2)
    th, w = _uniform_angles(200)
    th, w = np.r_[th, 0.0], np.r_[0.5 * w, 0.5]
    alpha = verblunsky_from_measure(th, w, 150).alpha_window(150)
    assert np.max(np.abs(alpha + 1.0 / (np.arange(150) + 2.0))) <= 1e-13
    assert np.max(np.abs(alpha[:20] - _verblunsky_from_moments(
        _trig_moments(th, w, 20), 20))) <= 1e-13


# alpha_n of the 800-node arc measure from a 250-digit Szego recursion
# (a 400-digit run gives the same floats)
_ARC_PINNED = {0: 0.24999999999999997, 1: 0.4, 10: 0.49999435500259654,
               100: 0.4999999999999982, 200: 0.5000000000000008,
               299: 0.5000000000000094}


def test_arnoldi_matches_the_high_precision_recursion_across_the_arc_gap():
    alpha = verblunsky_from_measure(*_arc_equilibrium(400), 300).alpha_window(300)
    for n, want in _ARC_PINNED.items():
        assert abs(alpha[n] - want) <= 1e-13, n
    th, w = _arc_equilibrium(100)
    got = verblunsky_from_measure(th, w, 100).alpha_window(100)
    assert np.max(np.abs(got - _szego_mp(th, 100, 250))) <= 1e-13


def test_arnoldi_breaks_down_past_the_support():
    three = (np.array([0.0, 1.0, 2.0]), np.ones(3))
    verblunsky_from_measure(*three, 2)
    with pytest.raises(BreakdownAtStep) as info:
        verblunsky_from_measure(*three, 3)
    assert info.value.step == 4
    # two nodes 1e-9 apart: rho_1^2 ~ 1e-18
    with pytest.raises(BreakdownAtStep) as info:
        verblunsky_from_measure([0.0, 1e-9, 1.0], [1.0] * 3, 2)
    assert info.value.step == 3
    # pi and -pi are one point
    with pytest.raises(BreakdownAtStep):
        verblunsky_from_measure([-math.pi, math.pi], [0.5, 0.5], 1)


def _mirrored_chebyshev_angles(M: int) -> np.ndarray:
    """The M angles (2k + 1) pi / M in (0, pi), k < M / 2, and their
    mirror images in (-pi, 0)."""
    th = (2 * np.arange(M // 2) + 1) * math.pi / M
    return np.r_[-th[::-1], th]


@pytest.mark.parametrize("weight", [lambda th: 1.0 + 0.5 * np.cos(th),
                                    lambda th: np.ones_like(th)],
                         ids=["one_plus_half_cosine", "uniform"])
def test_szego_image_agrees_with_the_arnoldi_oracle(weight):
    # the same discrete measure on both sides: 600 angles on the circle,
    # their 300 line nodes 2 cos(theta_k) carrying the same weights
    th = _mirrored_chebyshev_angles(600)
    line = DiscreteMeasure(2.0 * np.cos(th[300:]), weight(th[300:]))
    got = szego_image(jacobi_from_measure(line, 120), 239).alpha_window(239)
    want = verblunsky_from_measure(th, weight(th), 239).alpha_window(239)
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("N", [299, 300])
def test_szego_image_reaches_the_high_precision_arc_pins_through_the_line(N):
    # the 800-node arc measure of _ARC_PINNED, as its 400 line nodes
    line = DiscreteMeasure(_arc_line_nodes(400), np.ones(400))
    alpha = szego_image(jacobi_from_measure(line, 151), N).alpha_window(N)
    assert np.all(alpha.imag == 0.0)
    for n, want in _ARC_PINNED.items():
        if n < N:
            assert abs(alpha[n] - want) <= 1e-14, n


def _arcsine_of(a: float) -> JacobiParams:
    """The arcsine law of [-2, 2 - 4a^2] by its closed-form coefficients:
    a_1 = sqrt(2)(1 - a^2), a_n = 1 - a^2 after, b_n = -2a^2."""
    return JacobiParams.from_functions(
        lambda n: np.where(n == 1, math.sqrt(2.0), 1.0) * (1.0 - a * a),
        lambda n: -2.0 * a * a)


def test_szego_image_of_an_arcsine_law_is_the_arc_equilibrium_measure():
    alpha = szego_image(_arcsine_of(0.5), 2).alpha_window(2)
    assert alpha[0] == pytest.approx(0.25, abs=1e-16)
    assert alpha[1] == pytest.approx(0.4, abs=1e-15)
    for a in (0.3, 0.5, 0.8, 0.95):
        alpha = szego_image(_arcsine_of(a), 2000).alpha_window(2000)
        assert alpha[0] == pytest.approx(a * a, abs=1e-15)
        assert np.max(np.abs(alpha[100:] - a)) <= 1e-14, a
    # the arcsine law of [-2, 2] is the uniform measure's preimage
    assert np.max(np.abs(szego_image(_arcsine_of(0.0), 101).alpha_window(101))) <= 1e-15


def _arcsine_plus_atom(at: float) -> DiscreteMeasure:
    x = 2.0 * np.cos((2 * np.arange(400) + 1) * math.pi / 800)
    return DiscreteMeasure(np.r_[x, at], np.r_[np.full(400, 0.9 / 400), 0.1])


def test_szego_image_refuses_a_measure_with_mass_past_two():
    J = jacobi_from_measure(_arcsine_plus_atom(2.5), 11)
    with pytest.raises(ValueError, match=r"^\|alpha_4\| = .* must be < 1$"):
        szego_image(J, 21)
    # at exactly 2 the atom is the image of an atom at z = 1:
    # alpha_n = -0.1/(1 + 0.1 n)
    alpha = szego_image(jacobi_from_measure(_arcsine_plus_atom(2.0), 11),
                        21).alpha_window(21)
    assert np.max(np.abs(alpha)) == pytest.approx(0.1, abs=1e-15)
    assert np.max(np.abs(alpha + 0.1 / (1.0 + 0.1 * np.arange(21)))) <= 1e-14


@pytest.mark.parametrize("N, missing", [(7, "b_4"), (8, "a_4")])
def test_szego_image_reads_exactly_the_coefficients_it_needs(N, missing):
    # alpha_0..alpha_{N-1} read b_1..b_{ceil(N/2)} and a_1..a_{floor(N/2)}
    full = _arcsine_of(0.5)
    a, b = full.a_window(N // 2), full.b_window((N + 1) // 2)
    want = szego_image(full, N).alpha_window(N)
    assert np.array_equal(szego_image(JacobiParams(a, b), N).alpha_window(N),
                          want)
    # one fewer of the coefficient read last
    short = (JacobiParams(a, b[:-1]) if missing[0] == "b"
             else JacobiParams(a[:-1], b))
    with pytest.raises(ValueError,
                       match=rf"^requested {missing[0]}_1\.\.{missing}, "):
        szego_image(short, N)


def test_gauss_legendre_rules_are_cached_read_only_and_exact():
    for n in (12, 64):
        t, w = _leggauss(n)
        t0, w0 = npleg.leggauss(n)
        assert np.array_equal(t, t0) and np.array_equal(w, w0)
        assert not t.flags.writeable and not w.flags.writeable
        assert _leggauss(n)[0] is t
