import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra import regularity, sequences
from opspectra.periodic import PeriodicJacobi, delta_of_J, dm_weights
from opspectra.regularity import (StatSeries, _prefix_sums, _run_means,
                                  _RunningSums, _slices,
                                  arc_stats,
                                  cn_sq_stat_oprl,
                                  cn_stat_matrix, cn_stat_matrix_invariant,
                                  cn_stat_oprl, cn_stat_opuc, cn_stat_torus,
                                  cn_stat_windowed, lemma21_stats,
                                  root_and_cesaro, root_test, trace_stat)
from opspectra.scenarios import sparse_bump_jacobi, sparse_bump_verblunsky
from opspectra.sequences import (_CHUNK, BlockJacobiParams, JacobiParams,
                                 VerblunskyParams, WrongType, sup_deviation)
from oracles import arc_stats_one_shot, d_m, prefix_means_of


def test_stat_series_monotonicity():
    s = StatSeries("x", (2, 4, 8), (0.5, 0.25, 0.125))
    assert s.decreasing()
    bump = StatSeries("x", (2, 4, 8), (0.5, 0.6, 0.125))
    assert not bump.decreasing()
    assert bump.decreasing(burn_in=4)
    # a repeated value does not break the run
    assert StatSeries("x", (2, 4, 8), (0.5, 0.5, 0.125)).decreasing()
    with pytest.raises(ValueError):
        StatSeries("x", (4, 2), (0.1, 0.2))


@given(st.integers(0, 2**32), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_square_deviation_expansion_is_exact(seed, scale):
    # (1/N) sum (a-1)^2 = mean_square - 2 mean + 1 per window
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(-scale / 4.0, scale / 4.0, size=4096))
    J = JacobiParams(a, np.zeros(4096))
    geo, mean, mean_sq, msd = lemma21_stats(J, (32, 256, 1024, 4096))
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


def test_statistics_of_the_off_diagonal_read_a_only():
    def unread(n):
        raise AssertionError(f"b_{n[0]}.. read")

    J = JacobiParams.from_functions(lambda n: 1.0 + 1.0 / n, unread)
    Ns = (5, 100)
    geo = lemma21_stats(J, Ns)[0]
    assert geo.values == root_test(J, Ns).values
    with pytest.raises(AssertionError, match="b_1.. read"):
        cn_stat_oprl(J, Ns)


def test_root_test_on_verblunsky_uses_rho():
    V = VerblunskyParams(np.full(64, 0.6))
    rt = root_test(V, (16, 64))
    assert rt.values == pytest.approx([0.8, 0.8], abs=1e-14)


def test_sparse_bump_statistics_closed_forms():
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


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_block_stats_equal_their_per_block_loops(ell):
    # the stacked statistics against the per-block loops they replace,
    # to the last bit
    rng = np.random.default_rng(ell)
    K, Ns = 40, (3, 17, 39)
    z = rng.standard_normal((2 * K, ell, ell)) \
        + 1j * rng.standard_normal((2 * K, ell, ell))
    A = np.tril(np.eye(ell) + 0.3 * z[:K - 1])
    A[:, range(ell), range(ell)] = np.abs(A[:, range(ell), range(ell)])
    B = (z[K:] + z[K:].conj().transpose(0, 2, 1)) / 2
    Jb = BlockJacobiParams(ell, A, B, "type3")
    eye = np.eye(ell)

    def hs(M):
        return float(np.sqrt(np.sum(np.abs(M) ** 2)))

    tf, iv = cn_stat_matrix(Jb, Ns)
    assert tf.values == prefix_means_of(
        [hs(a - eye) + hs(b) for a, b in zip(A, B)], Ns)
    assert iv.values == prefix_means_of(
        [hs(a.conj().T @ a - eye) + hs(b) for a, b in zip(A, B)], Ns)
    logs = [np.linalg.slogdet(a)[1] / ell for a in A]
    assert root_test(Jb, Ns).values == tuple(
        math.exp(v) for v in prefix_means_of(logs, Ns))
    ta = np.concatenate([[0.0], np.cumsum(
        [float(np.sum(np.abs(a) ** 2)) for a in A], dtype=np.longdouble)])
    tb = np.cumsum([float(np.trace(b @ b).real) for b in B],
                   dtype=np.longdouble)
    assert trace_stat(Jb, Ns).values == tuple(
        float((2.0 * ta[n - 1] + tb[n - 1]) / (n * ell)) for n in Ns)


def test_type_form_requires_a_typed_representative():
    eye = np.eye(2, dtype=complex)
    Jb = BlockJacobiParams(2, (eye,), (0.1 * eye, 0.1 * eye), "general")
    with pytest.raises(WrongType):
        cn_stat_matrix(Jb, (1,))
    cn_stat_matrix_invariant(Jb, (1,))  # tag-agnostic


def test_exponential_distance_basics():
    J0 = JacobiParams.free()
    J1 = JacobiParams.from_functions(lambda n: 1.0,
                                     lambda n: np.where(n == 3, 0.5, 0.0))
    assert d_m(J0, J0, 5) == 0.0
    assert d_m(J0, J1, 1) == pytest.approx(0.5 * math.exp(-2.0), abs=1e-15)
    assert d_m(J0, J1, 3) == pytest.approx(0.5, abs=1e-15)
    assert d_m(J0, J1, 4) == 0.0
    assert d_m(J1, J0, 1) == d_m(J0, J1, 1)


def test_exponential_distance_truncation_is_stable():
    # doubling the truncated tail changes nothing at 1e-12
    J = JacobiParams.from_functions(lambda n: 1.0 + 0.3 / n,
                                    lambda n: 0.2 * np.cos(n))
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
    J = JacobiParams.from_functions(lambda n: np.array(J0.a)[(n - 1) % 2],
                                    lambda n: np.array(J0.b)[(n - 1) % 2])
    s = cn_stat_torus(J, J0, (8, 32))
    assert max(s.values) < 1e-12


def test_block_map_root_test_approaches_one():
    # transfer of the root test through the block map: the geometric
    # mean of the diagonal products of the A blocks goes to 1 for a
    # decaying perturbation of the generator
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    J = JacobiParams.from_functions(
        lambda n: np.array(J0.a)[(n - 1) % 2],
        lambda n: 0.4 / n)
    blocks = delta_of_J(J0, J, 512)
    rt = root_test(blocks, (64, 256, 512))
    assert abs(rt.last - 1.0) < 0.02


# ladder ends on both sides of the chunk boundaries of the accumulator
C = _CHUNK
CHUNK_ENDS = (1, C - 1, C, C + 1, 2 * C, 3 * C + 7)


def test_prefix_sums_have_the_bits_of_one_cumulative_sum():
    rng = np.random.default_rng(19)
    n = CHUNK_ENDS[-1]
    # magnitudes over many decades, so every rounding of the sum shows
    x = rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))
    calls = []

    def read(lo, hi):
        calls.append((lo, hi))
        return x[lo:hi]

    def same(t):
        return t

    cs = np.cumsum(x, dtype=np.longdouble)
    sums, = _prefix_sums((read,), (same,), CHUNK_ENDS)
    assert np.array_equal(sums, cs[np.subtract(CHUNK_ENDS, 1)])
    assert calls == [(0, C), (C, 2 * C), (2 * C, 3 * C), (3 * C, 3 * C + 7)]
    assert _run_means((read,), (same,), CHUNK_ENDS) == [
        prefix_means_of(x, CHUNK_ENDS)]
    # rows are separate series over the same runs, each with the bits it
    # has alone; ends may be 0, repeated, unsorted
    rows = (same, lambda t: -t * t, np.abs)
    ends = np.array([[3 * C + 7, 0, C], [5, C + 1, 5]])
    got = _prefix_sums((_slices(x),), rows, ends)
    full = np.cumsum(np.stack([x, -x * x, np.abs(x)]), axis=-1,
                     dtype=np.longdouble)
    want = np.where(ends > 0, full[:, np.maximum(ends, 1) - 1], 0.0)
    assert got.shape == (3, 2, 3) and np.array_equal(got, want)
    assert np.signbit(got[:, ends == 0]).all()  # the empty sum is -0.0
    for row, alone in zip(rows, got):
        assert np.array_equal(_prefix_sums((_slices(x),), (row,), ends)[0],
                              alone)
    # ends that are all 0 read nothing
    calls.clear()
    assert np.signbit(_prefix_sums((read,), (same,), [0, 0])).all()
    assert calls == []
    # a running total of -0.0 keeps its sign across chunks, as in one pass
    negzero, = _run_means((_slices(np.full(n, -0.0)),), (same,), CHUNK_ENDS)
    assert all(math.copysign(1.0, v) == -1.0 for v in negzero)


def test_statistics_equal_the_one_pass_oracle_across_chunks():
    rng = np.random.default_rng(23)
    Ns, n = CHUNK_ENDS, CHUNK_ENDS[-1]
    a = np.exp(rng.uniform(-0.7, 0.7, n))
    b = rng.uniform(-0.5, 0.5, n)
    J = JacobiParams(a, b)
    alpha = 0.9 * rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    V = VerblunskyParams(alpha)
    rt = tuple(math.exp(v) for v in prefix_means_of(np.log(a), Ns))
    assert root_test(J, Ns).values == rt
    rho = np.sqrt(1.0 - np.abs(alpha) ** 2)
    assert root_test(V, Ns).values == tuple(
        math.exp(v) for v in prefix_means_of(np.log(rho), Ns))
    assert cn_stat_oprl(J, Ns).values == prefix_means_of(
        np.abs(a - 1.0) + np.abs(b), Ns)
    assert cn_sq_stat_oprl(J, Ns).values == prefix_means_of(
        (a - 1.0) ** 2 + b ** 2, Ns)
    assert cn_stat_opuc(V, Ns).values == prefix_means_of(np.abs(alpha), Ns)
    geo, mean, mean_sq, msd = lemma21_stats(J, Ns)
    assert geo.values == rt
    assert mean.values == prefix_means_of(a, Ns)
    assert mean_sq.values == prefix_means_of(a * a, Ns)
    assert msd.values == prefix_means_of((a - 1.0) ** 2, Ns)
    # trace_stat: the a-sum stops one site short of the b-sum
    csa = np.concatenate([[0.0], np.cumsum(a[:n - 1] ** 2, dtype=np.longdouble)])
    csb = np.cumsum(b ** 2, dtype=np.longdouble)
    assert trace_stat(J, Ns).values == tuple(
        float((2.0 * csa[N - 1] + csb[N - 1]) / N) for N in Ns)
    # shifted windows that start and end on every side of a boundary
    starts = np.array([1, 2, C - 4, C, C + 1, 2 * C - 3, 2 * C - 1,
                       C + C // 4])
    w = C + 9
    dev = np.abs(a - 1.0) + np.abs(b)
    cs = np.concatenate([[0.0], np.cumsum(dev, dtype=np.longdouble)])
    assert np.array_equal(cn_stat_windowed(J, starts, w),
                          ((cs[starts + w - 1] - cs[starts - 1]) / w).astype(float))


def _type3_blocks(K: int, ell: int, seed: int) -> BlockJacobiParams:
    """K random type-3 blocks A_n (lower triangular, positive diagonal)
    and K Hermitian blocks B_n."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 * K, ell, ell)) \
        + 1j * rng.standard_normal((2 * K, ell, ell))
    A = np.tril(np.eye(ell) + 0.3 * z[:K])
    A[:, range(ell), range(ell)] = np.abs(A[:, range(ell), range(ell)])
    B = (z[K:] + z[K:].conj().transpose(0, 2, 1)) / 2
    return BlockJacobiParams(ell, A, B, "type3")


def test_block_statistics_equal_the_one_pass_oracle_across_chunks():
    Ns, K, ell = CHUNK_ENDS, CHUNK_ENDS[-1], 2
    Jb = _type3_blocks(K, ell, 29)
    A, B = Jb.A, Jb.B
    eye, Ah = np.eye(ell), A.conj().transpose(0, 2, 1)

    def hs(M):
        return np.sqrt(np.sum(np.abs(M) ** 2, axis=(1, 2)))

    tf, iv = cn_stat_matrix(Jb, Ns)
    assert tf.values == prefix_means_of(hs(A - eye) + hs(B), Ns)
    assert iv.values == prefix_means_of(hs(Ah @ A - eye) + hs(B), Ns)
    logs = np.linalg.slogdet(A)[1] / ell
    assert root_test(Jb, Ns).values == tuple(
        math.exp(v) for v in prefix_means_of(logs, Ns))
    ta = np.concatenate([[0.0], np.cumsum(
        np.sum(np.abs(A[:K - 1]) ** 2, axis=(1, 2)), dtype=np.longdouble)])
    tb = np.cumsum(np.trace(B @ B, axis1=1, axis2=2).real, dtype=np.longdouble)
    assert trace_stat(Jb, Ns).values == tuple(
        float((2.0 * ta[N - 1] + tb[N - 1]) / (N * ell)) for N in Ns)


def test_root_and_cesaro_equal_the_single_statistics_bit_for_bit():
    # the one pass of thm4_1 (and thm1_1) against the two calls it
    # replaces, across chunk boundaries
    Ns = CHUNK_ENDS
    V = VerblunskyParams.from_function(
        lambda j: 0.6 * np.sin(j) * np.exp(0.3j * j))
    rt, cn = root_and_cesaro(V, Ns, root_label="r", cn_label="c")
    assert (rt.label, cn.label) == ("r", "c")
    assert rt.values == root_test(V, Ns).values
    assert cn.values == cn_stat_opuc(V, Ns).values
    J = JacobiParams.from_functions(lambda n: 1.0 + 0.5 * np.cos(n) / n,
                                    lambda n: 0.3 * np.sin(n))
    rt, cn = root_and_cesaro(J, Ns)
    assert rt.values == root_test(J, Ns).values
    assert cn.values == cn_stat_oprl(J, Ns).values
    with pytest.raises(TypeError):
        root_and_cesaro(BlockJacobiParams(1, [[[1.0]]], [[[0.0]]] * 2), (1,))


@pytest.mark.parametrize("k", [1, 3, 1000, C + 5, 2 * C + 5])
def test_arc_stats_equal_the_one_shot_formula_across_chunks(k):
    # the run-by-run block sums against the cumulative sums over the
    # whole window that they replace, to the last bit; the longest blocks
    # span one and two whole runs
    rng = np.random.default_rng(k)
    Ns, K = CHUNK_ENDS, max(1, k)
    m = Ns[-1] + K
    alpha = 0.7 * rng.uniform(0.0, 1.0, m) * np.exp(2j * np.pi * rng.uniform(size=m))
    alpha[::7] = -0.0                   # signed zeros through the sums
    want = arc_stats_one_shot(alpha, 0.35, k, Ns)
    assert tuple(s.values for s in arc_stats(VerblunskyParams(alpha), 0.35,
                                             k, Ns)) == want
    V = VerblunskyParams.from_function(lambda j: alpha[j])
    got = arc_stats(V, 0.35, k, Ns, label="x")
    assert tuple(s.values for s in got) == want
    assert [s.label for s in got] == ["x_modulus", "x_step", "x_block"]
    with pytest.raises(ValueError, match=r"alpha_0\.\.alpha_"):
        arc_stats(VerblunskyParams(alpha[:-1]), 0.35, k, Ns)


def test_running_sums_have_the_bits_of_one_cumsum():
    # signed zeros included: the first carry is -0.0, not +0.0
    x = np.array([complex(-0.0, -0.0), -0.0, 1e-300j, 3.0 - 1.0j, -3.0, 0.5])
    for cut in ([2], [1, 3], [4, 5]):
        sums = _RunningSums()
        got = [sums.add(run) for run in np.split(x, cut)]
        assert np.concatenate([s for s, _ in got]).tobytes() == \
            np.cumsum(x).tobytes()
        assert np.concatenate([s2 for _, s2 in got]).tobytes() == \
            np.cumsum(np.abs(x) ** 2).tobytes()


def _bits(result) -> bytes:
    """The bytes of a statistic, a tuple of them, an array or a float."""
    if isinstance(result, tuple):
        return b"".join(_bits(r) for r in result)
    if isinstance(result, StatSeries):
        return result.label.encode() + np.array(result.values).tobytes()
    return np.asarray(result).tobytes()


def _every_streamed_result(c: int) -> bytes:
    """Every statistic read by runs, and every window fill, on generated
    sequences of 3c + 7 sites (and 3c + 7 stored blocks), as bytes.  The
    ladder ends fall on both sides of the run boundaries for runs of c
    sites, and the largest deviation sits at the last site of the first
    run."""
    n = 3 * c + 7
    Ns = (1, c - 1, c, c + 1, 2 * c, n)
    J = JacobiParams.from_functions(
        lambda k: np.exp(2.0 * np.sin(0.37 * k)),
        # signed zeros, and magnitudes over seven decades
        lambda k: np.where(k == c, 1e5, (k % 5 != 0) * np.sin(1.7 * k)
                           * np.exp(8.0 * np.cos(0.013 * k))))
    V = VerblunskyParams.from_function(
        lambda j: 0.9 * np.exp(-20.0 * np.sin(j) ** 2 + 1j * j))
    Jb = _type3_blocks(n, 2, c)
    return _bits((root_test(J, Ns), root_test(V, Ns), root_test(Jb, Ns),
                  root_and_cesaro(J, Ns), root_and_cesaro(V, Ns),
                  cn_stat_oprl(J, Ns), cn_sq_stat_oprl(J, Ns),
                  cn_stat_opuc(V, Ns),
                  cn_stat_windowed(J, [1, 2, c - 1, c, c + 1, 2 * c - 1], c + 2),
                  trace_stat(J, Ns), trace_stat(Jb, Ns),
                  cn_stat_matrix(Jb, Ns),
                  arc_stats(V, 0.4, 3, Ns), arc_stats(V, 0.4, 2 * c + 3, Ns),
                  lemma21_stats(J, Ns), lemma21_stats(V, Ns),
                  sup_deviation(J, n),
                  J.a_window(n), J.b_window(n), V.alpha_window(n)))


def _check_shared_passes(c: int) -> None:
    """At runs of the current length: cn_stat_matrix reads each block
    stack once and gives the invariant series of its own call, and the
    Lemma 2.1 geometric mean is the root test, to the bit."""
    n = 3 * c + 7
    Ns = (1, c - 1, c, c + 1, 2 * c, n)
    Jb = _type3_blocks(n, 2, c)
    reads = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("a_blocks", "b_blocks"):
            mp.setattr(BlockJacobiParams, name,
                       lambda self, m, stack=getattr(BlockJacobiParams, name),
                       name=name: reads.append(name) or stack(self, m))
        tf, iv = cn_stat_matrix(Jb, Ns)
    assert sorted(reads) == ["a_blocks", "b_blocks"]
    assert _bits(iv) == _bits(cn_stat_matrix_invariant(Jb, Ns))
    J = JacobiParams.from_functions(lambda k: np.exp(np.sin(0.37 * k)),
                                    lambda k: 0.0)
    V = VerblunskyParams.from_function(lambda j: 0.9 * np.sin(j) ** 2)
    for seq in (J, V):
        geo = lemma21_stats(seq, Ns)[0]
        assert np.array(geo.values).tobytes() == \
            np.array(root_test(seq, Ns).values).tobytes()


@pytest.mark.parametrize("c", [7, 64, 2 ** 14, 2 ** 15])
def test_run_length_does_not_change_the_bits(monkeypatch, c):
    # regularity imports the run length by name, so both modules are
    # patched; the reference reads everything in one run
    def under(chunk):
        for module in (sequences, regularity):
            monkeypatch.setattr(module, "_CHUNK", chunk)
        _check_shared_passes(c)
        return _every_streamed_result(c)

    assert under(c) == under(2 ** 30)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_statistics_need_o_chunk_memory_at_any_n():
    # the statistics read a generated sequence by runs and keep nothing:
    # memory is one chunk's working set and one sum buffer per pass (1.0
    # MiB for root_and_cesaro, 0.8 MiB for the single statistics), not
    # the 16 MiB of a 2^20 window
    n = 2 ** 20
    Ns = (2 ** 10, 2 ** 15, n)
    V = sparse_bump_verblunsky(0.5)
    assert _traced_peak(lambda: root_and_cesaro(V, Ns)) <= 2 * 2 ** 20
    assert _traced_peak(lambda: (root_test(V, Ns),
                                 cn_stat_opuc(V, Ns))) <= 2 * 2 ** 20
    # the four Lemma 2.1 rows over one pass: 1.4 MiB on J, 1.6 MiB on V
    J = sparse_bump_jacobi(0.5)
    assert _traced_peak(lambda: lemma21_stats(J, Ns)) <= 2 * 2 ** 20
    assert _traced_peak(lambda: lemma21_stats(V, Ns)) <= 2 * 2 ** 20


@pytest.mark.parametrize("k", [3, 2 ** 17])
def test_arc_stats_memory_depends_on_neither_n_nor_k(k):
    n = 2 ** 20
    phase = complex(math.cos(0.7), math.sin(0.7))
    V = VerblunskyParams.from_function(lambda j: 0.5 * phase + 1.0 / (j + 2.0))
    # 2.5 MiB at either k: three rows of sums, and the runs and running
    # sums of the trailing and the leading block
    peak = _traced_peak(lambda: arc_stats(V, 0.5, k, (2 ** 10, n)))
    assert peak < 4 * 2 ** 20
