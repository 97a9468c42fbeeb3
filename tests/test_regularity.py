import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra.periodic import (PeriodicJacobi, delta_of_J, discriminant,
                                dm_weights)
from opspectra.regularity import (DEFAULT_LADDER, StatSeries, arc_stats,
                                  cn_sq_stat_oprl,
                                  cn_stat_matrix, cn_stat_matrix_invariant,
                                  cn_stat_oprl, cn_stat_opuc, cn_stat_torus,
                                  cn_stat_windowed, d_m, lemma21_stats,
                                  root_test, trace_stat)
from opspectra.sequences import (BlockJacobiParams, JacobiParams,
                                 VerblunskyParams, WrongType, sup_deviation)


def test_default_ladder_is_powers_of_two():
    assert DEFAULT_LADDER == tuple(2 ** k for k in range(5, 14))


def test_stat_series_monotonicity():
    s = StatSeries("x", (2, 4, 8), (0.5, 0.25, 0.125))
    assert s.decreasing()
    bump = StatSeries("x", (2, 4, 8), (0.5, 0.6, 0.125))
    assert not bump.decreasing()
    assert bump.decreasing(burn_in=4)
    assert bump.decreasing(slack=0.11)
    with pytest.raises(ValueError):
        StatSeries("x", (4, 2), (0.1, 0.2))


@given(st.integers(0, 2**32), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_square_deviation_expansion_is_exact(seed, scale):
    # (1/N) sum (a-1)^2 = mean_square - 2 mean + 1 per window
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(-scale / 4.0, scale / 4.0, size=4096))
    geo, mean, mean_sq, msd = lemma21_stats(a, (32, 256, 1024, 4096))
    for g, m, q, d in zip(geo.values, mean.values, mean_sq.values, msd.values):
        assert abs(d - (q - 2.0 * m + 1.0)) <= 1e-12
        assert g <= m + 1e-14


def test_root_test_matches_direct_product_on_short_windows():
    rng = np.random.default_rng(4)
    a = np.exp(rng.uniform(-0.7, 0.7, size=100))
    J = JacobiParams(a, np.zeros(101))
    rt = root_test(J, (3, 10, 31, 100))
    for n, v in zip(rt.Ns, rt.values):
        direct = float(np.prod(a[:n])) ** (1.0 / n)
        assert v == pytest.approx(direct, rel=1e-12)


def test_root_test_on_verblunsky_uses_rho():
    V = VerblunskyParams(np.full(64, 0.6))
    rt = root_test(V, (16, 64))
    assert rt.values == pytest.approx([0.8, 0.8], abs=1e-14)


def test_sparse_bump_statistics_closed_forms():
    from opspectra.scenarios import sparse_bump_jacobi
    J = sparse_bump_jacobi(0.5)
    cn = cn_stat_oprl(J, (1024, 8192))
    # bumps of size 1/2 at 2, 4, ..., so floor(log2 N) of them by site N
    assert cn.values[0] == pytest.approx(0.5 * 10 / 1024, abs=1e-15)
    assert cn.values[1] == pytest.approx(0.5 * 13 / 8192, abs=1e-15)
    rt = root_test(J, (1024,))
    assert rt.last == pytest.approx(0.5 ** (10.0 / 1024.0), rel=1e-12)


def test_trace_stat_free_closed_form():
    ts = trace_stat(JacobiParams.free(), (8, 64, 512))
    for n, v in zip(ts.Ns, ts.values):
        assert v == pytest.approx(2.0 - 2.0 / n, abs=1e-14)


def test_windowed_stat_with_start_one_matches_prefix_mean():
    rng = np.random.default_rng(12)
    J = JacobiParams(1.0 + 0.2 * rng.uniform(-1, 1, 600),
                     0.3 * rng.uniform(-1, 1, 601))
    w = cn_stat_windowed(J, np.array([1]), 400)
    assert w[0] == pytest.approx(cn_stat_oprl(J, (400,)).last, abs=1e-13)


@given(st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_schwarz_bridge_between_the_two_averages(seed):
    # (cn)^2 <= 2 sq and sq <= 2 A cn, with A the sup deviation
    rng = np.random.default_rng(seed)
    n = 512
    J = JacobiParams(1.0 + 0.4 * rng.uniform(-1, 1, n),
                     0.8 * rng.uniform(-1, 1, n + 1))
    Ns = (32, 128, 512)
    cn = cn_stat_oprl(J, Ns)
    sq = cn_sq_stat_oprl(J, Ns)
    A = sup_deviation(J, n)
    for c, q in zip(cn.values, sq.values):
        assert c * c <= 2.0 * q + 1e-12
        assert q <= 2.0 * A * c + 1e-12


def test_opuc_stat_is_zero_for_zero_coefficients():
    V = VerblunskyParams(np.zeros(128, dtype=complex))
    assert cn_stat_opuc(V, (32, 128)).values == (0.0, 0.0)


def test_arc_stats_vanish_exactly_on_the_constant_family():
    V = VerblunskyParams.from_function(lambda j: 0.5 + 0.0j)
    s1, s2, s3 = arc_stats(V, 0.5, 3, (32, 256))
    assert s1.values == (0.0, 0.0)
    assert s2.values == (0.0, 0.0)
    assert s3.values == (0.0, 0.0)


def arc_block_min_grid(window: np.ndarray, a: float,
                       grid: int = 4096) -> float:
    """Brute-force counterpart of the arc block inner minimum: minimize
    sum |alpha_l - a e^{i theta}|^2 over a theta grid; the grid minimum
    can only overshoot the closed form."""
    window = np.asarray(window, dtype=complex)
    thetas = 2.0 * math.pi * np.arange(grid) / grid
    vals = [float(np.sum(np.abs(window - a * np.exp(1j * t)) ** 2))
            for t in thetas]
    return min(vals)


def test_arc_block_closed_form_against_grid_minimum():
    rng = np.random.default_rng(3)
    raw = 0.4 * (rng.uniform(-1, 1, 40) + 1j * rng.uniform(-1, 1, 40))
    V = VerblunskyParams(raw)
    a, k, N = 0.35, 4, 32
    s3 = arc_stats(V, a, k, (N,))[2]
    al = V.alpha_window(N + k)
    closed = np.array([
        float(np.sum(np.abs(al[j + 1:j + 1 + k]) ** 2)) + k * a * a
        - 2.0 * a * abs(complex(np.sum(al[j + 1:j + 1 + k])))
        for j in range(N)])
    assert s3.last == pytest.approx(float(closed.mean()), abs=1e-12)
    for j in (0, 7, 19):
        grid = arc_block_min_grid(al[j + 1:j + 1 + k], a)
        assert grid >= closed[j] - 1e-12
        assert grid <= closed[j] + 1e-5  # grid spacing overshoot


def test_matrix_stats_on_hand_built_blocks():
    eye = np.eye(2, dtype=complex)
    A = (1.5 * eye, eye)
    B = (0.5 * eye, np.zeros((2, 2), complex), np.zeros((2, 2), complex))
    Jb = BlockJacobiParams(2, A, B, "type1")
    tf, iv = cn_stat_matrix(Jb, (1, 2))
    # window 1: ||0.5 I - I||_HS... A_1 - 1 = 0.5 I -> sqrt(2)/2; B_1 = 0.5 I
    assert tf.values[0] == pytest.approx(0.5 * math.sqrt(2.0) * 2, abs=1e-14)
    # invariant form window 1: ||(2.25 - 1) I|| + ||0.5 I||
    assert iv.values[0] == pytest.approx((1.25 + 0.5) * math.sqrt(2.0),
                                         abs=1e-14)
    assert cn_stat_matrix_invariant(Jb, (1, 2)).values == iv.values


def test_type_form_requires_a_typed_representative():
    eye = np.eye(2, dtype=complex)
    Jb = BlockJacobiParams(2, (eye,), (0.1 * eye, 0.1 * eye), "general")
    with pytest.raises(WrongType):
        cn_stat_matrix(Jb, (1,))
    cn_stat_matrix_invariant(Jb, (1,))  # tag-agnostic


def test_exponential_distance_basics():
    J0 = JacobiParams.free()
    J1 = JacobiParams.from_functions(lambda n: 1.0,
                                     lambda n: np.where(n == 3, 0.5, 0.0),
                                     bound=0.5)
    assert d_m(J0, J0, 5) == 0.0
    assert d_m(J0, J1, 1) == pytest.approx(0.5 * math.exp(-2.0), abs=1e-15)
    assert d_m(J0, J1, 3) == pytest.approx(0.5, abs=1e-15)
    assert d_m(J0, J1, 4) == 0.0
    assert d_m(J1, J0, 1) == d_m(J0, J1, 1)


def test_exponential_distance_truncation_is_stable():
    # doubling the truncated tail changes nothing at 1e-12
    J = JacobiParams.from_functions(lambda n: 1.0 + 0.3 / n,
                                    lambda n: 0.2 * np.cos(n), bound=0.7)
    Jt = JacobiParams.free()
    m = 2
    d = d_m(J, Jt, m)
    w = dm_weights(2.0 * (2.0 + 0.7))
    K2 = 2 * (len(w) - 1)
    w2 = np.exp(-np.arange(K2 + 1, dtype=float))
    hi = m + K2
    terms = (np.abs(J.a_window(hi)[m - 1:] - Jt.a_window(hi)[m - 1:])
             + np.abs(J.b_window(hi)[m - 1:] - Jt.b_window(hi)[m - 1:]))
    assert d == pytest.approx(float(terms @ w2), abs=1e-12)


def test_torus_average_vanishes_on_the_generator():
    J0 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
    disc = discriminant(J0)
    J = JacobiParams.from_functions(lambda n: np.array(J0.a)[(n - 1) % 2],
                                    lambda n: np.array(J0.b)[(n - 1) % 2],
                                    bound=1.0)
    s = cn_stat_torus(J, disc, (8, 32))
    assert max(s.values) < 1e-12


def test_block_map_root_test_approaches_one():
    # transfer of the root test through the block map: the geometric
    # mean of the diagonal products of the A blocks goes to 1 for a
    # decaying perturbation of the generator
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    J = JacobiParams.from_functions(
        lambda n: np.array(J0.a)[(n - 1) % 2],
        lambda n: 0.4 / n, bound=1.0)
    blocks = delta_of_J(J0, J, 512)
    rt = root_test(blocks, (64, 256, 512))
    assert abs(rt.last - 1.0) < 0.02
