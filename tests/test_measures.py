import math
import os
import subprocess
import sys

import numpy as np
import pytest
from mpmath import mp
from numpy.polynomial import legendre as npleg

from opspectra.measures import (BreakdownAtStep, CircleMeasureSpec,
                                DensityNegative, DensityPart, DiscreteMeasure,
                                LineMeasureSpec, _gl_nodes, _leggauss,
                                _tabulated_rule, discretize,
                                jacobi_from_measure, verblunsky_from_measure)
from oracles import cmv_sparse, gauss_rule, moment

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
                                verblunsky_from_measure)
x = np.linspace(-2.0, 2.0, 20011)
J = jacobi_from_measure(DiscreteMeasure(x, 1.0 + 0.3 * x + np.sin(5.0 * x) ** 2), 50)
th = np.linspace(-np.pi, np.pi, 20011, endpoint=False)
V = verblunsky_from_measure(DiscreteMeasure(
    th, 1.0 + 0.3 * np.cos(th) + np.sin(5.0 * th) ** 2, "circle"), 30)
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
    for domain in ("line", "circle"):
        with pytest.raises(ValueError, match=message):
            DiscreteMeasure(nodes, weights, domain)


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


@pytest.mark.parametrize("parts, atoms, message", [
    ([DensityPart(-math.pi, math.pi, "uniform", np.nan)], [],
     r"^part_weight_0 = nan must be > 0 and finite"),
    ([DensityPart(-math.pi, math.pi, "uniform")], [(0.5, np.inf)],
     r"^atom_mass_0 = inf must be > 0 and finite"),
], ids=["nan_part_weight", "inf_atom_mass"])
def test_circle_measure_spec_refuses_non_finite_weights(parts, atoms, message):
    with pytest.raises(ValueError, match=message):
        CircleMeasureSpec(parts, atoms)


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


def _trig_moments(m: DiscreteMeasure, K: int) -> np.ndarray:
    """c_0..c_K with c_k = integral of e^{-i k theta} dm, each a
    compensated sum."""
    vals = m.weights * np.exp(-1j * np.arange(K + 1)[:, None] * m.nodes)
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


def _arc_equilibrium(K: int) -> DiscreteMeasure:
    # the a = 0.5 arc, theta in [pi/3, 5 pi/3]: its equilibrium measure
    # pushed to x = 2 cos(theta) is the arcsine law of [-2, 1], whose
    # K-point Gauss-Chebyshev rule is mirrored to the lower half
    x = -0.5 + 1.5 * np.cos((2 * np.arange(K) + 1) * math.pi / (2 * K))
    th = np.arccos(x / 2.0)
    return DiscreteMeasure(np.r_[th, -th], np.ones(2 * K), "circle")


def test_uniform_circle_moments_and_coefficients():
    # 200 equispaced angles integrate z^k exactly for |k| < 200, so every
    # coefficient the 200 nodes carry inside the disc is 0 (the
    # verblunsky_from_measure docstring)
    dm = discretize(CircleMeasureSpec(
        [DensityPart(-math.pi, math.pi, "uniform")]))
    assert len(dm) == 200
    V = verblunsky_from_measure(dm, 199)
    assert abs(V.alpha_window(1)[0]) < 1e-14   # alpha_0 = -integral of z
    assert np.max(np.abs(V.alpha_window(199))) < 2e-14


def test_cosine_weight_has_known_first_moment():
    # w(theta) = 1 + cos(theta): integral of z is 1/2 exactly, so
    # alpha_0 = -1/2; the piecewise-linear table adds an O(h^2) error
    th = np.linspace(-math.pi, math.pi, 2001)
    dm = discretize(CircleMeasureSpec(
        [DensityPart(-math.pi, math.pi, "tabulated", 1.0,
                     (th, 1.0 + np.cos(th)))]))
    alpha = verblunsky_from_measure(dm, 20).alpha_window(20)
    assert alpha[0] == pytest.approx(-0.5, abs=1e-4)
    # no gap, so the moment recursion is a sound oracle at small N
    assert np.max(np.abs(alpha - _verblunsky_from_moments(
        _trig_moments(dm, 20), 20))) <= 1e-13


def test_moment_route_round_trips_through_cmv():
    # the spectral measure of a 51 x 51 unitary CMV matrix at e_0 has
    # the matrix's 50 coefficients (random, |alpha| < 0.5)
    rng = np.random.default_rng(0)
    alpha = 0.5 * np.sqrt(rng.random(50)) * np.exp(2j * math.pi * rng.random(50))
    C = cmv_sparse(alpha, np.exp(0.7j)).toarray()
    z, vecs = np.linalg.eig(C)
    dm = DiscreteMeasure(np.angle(z), np.abs(vecs[0]) ** 2, "circle")
    back = verblunsky_from_measure(dm, 50).alpha_window(50)
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
    dm = discretize(CircleMeasureSpec(
        [DensityPart(-math.pi, math.pi, "uniform", 0.5)], atoms=[(0.0, 0.5)]))
    alpha = verblunsky_from_measure(dm, 150).alpha_window(150)
    assert np.max(np.abs(alpha + 1.0 / (np.arange(150) + 2.0))) <= 1e-13
    assert np.max(np.abs(alpha[:20] - _verblunsky_from_moments(
        _trig_moments(dm, 20), 20))) <= 1e-13


# alpha_n of the 800-node arc measure from a 250-digit Szego recursion
# (a 400-digit run gives the same floats)
_ARC_PINNED = {0: 0.24999999999999997, 1: 0.4, 10: 0.49999435500259654,
               100: 0.4999999999999982, 200: 0.5000000000000008,
               299: 0.5000000000000094}


def test_arnoldi_matches_the_high_precision_recursion_across_the_arc_gap():
    alpha = verblunsky_from_measure(_arc_equilibrium(400), 300).alpha_window(300)
    for n, want in _ARC_PINNED.items():
        assert abs(alpha[n] - want) <= 1e-13, n
    small = _arc_equilibrium(100)
    got = verblunsky_from_measure(small, 100).alpha_window(100)
    assert np.max(np.abs(got - _szego_mp(small.nodes, 100, 250))) <= 1e-13


def test_arnoldi_breaks_down_past_the_support():
    three = DiscreteMeasure([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], "circle")
    verblunsky_from_measure(three, 2)
    with pytest.raises(BreakdownAtStep) as info:
        verblunsky_from_measure(three, 3)
    assert info.value.step == 4
    # two nodes 1e-9 apart: rho_1^2 ~ 1e-18
    with pytest.raises(BreakdownAtStep) as info:
        verblunsky_from_measure(DiscreteMeasure([0.0, 1e-9, 1.0], [1.0] * 3,
                                                "circle"), 2)
    assert info.value.step == 3
    # pi and -pi are one point
    dm = discretize(CircleMeasureSpec(atoms=[(math.pi, 0.5), (-math.pi, 0.5)]))
    assert len(dm) == 1 and dm.nodes[0] == -math.pi
    with pytest.raises(BreakdownAtStep):
        verblunsky_from_measure(dm, 1)


def test_gauss_legendre_rules_are_cached_read_only_and_exact():
    for n in (12, 64):
        t, w = _leggauss(n)
        t0, w0 = npleg.leggauss(n)
        assert np.array_equal(t, t0) and np.array_equal(w, w0)
        assert not t.flags.writeable and not w.flags.writeable
        assert _leggauss(n)[0] is t
