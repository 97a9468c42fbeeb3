import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra import regularity as R
from opspectra.sequences import (_CHUNK, BlockJacobiParams, JacobiParams,
                                 SingularBlock, UnitaryChain, VerblunskyParams,
                                 WrongType, sup_deviation, validate_blocks)
from opspectra.scenarios import sparse_bump_jacobi, sparse_bump_verblunsky


def test_finite_jacobi_windows_are_one_indexed():
    J = JacobiParams([1.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0])
    assert np.array_equal(J.a_window(2), [1.0, 2.0])
    assert np.array_equal(J.b_window(4), [10.0, 20.0, 30.0, 40.0])
    with pytest.raises(ValueError):
        J.a_window(4)


def test_function_backed_jacobi_is_lazy_and_consistent():
    calls = []

    def a_fn(n):
        calls.append(n)
        return 1.0 + 1.0 / n

    J = JacobiParams.from_functions(a_fn, lambda n: 0.0)
    first = J.a_window(5)
    assert np.allclose(first, 1.0 + 1.0 / np.arange(1, 6))
    assert np.concatenate(calls).tolist() == [1, 2, 3, 4, 5]
    # nothing is kept: a second window calls the generator again
    assert J.a_window(5).tobytes() == first.tobytes()
    assert np.concatenate(calls).tolist() == [1, 2, 3, 4, 5] * 2


def test_free_case_has_unit_a_zero_b():
    J = JacobiParams.free()
    assert np.all(J.a_window(50) == 1.0)
    assert np.all(J.b_window(50) == 0.0)
    assert sup_deviation(J, 50) == 0.0


def test_every_window_is_read_only():
    # a write into a generated window must not reach the stored values
    J = JacobiParams.free()
    V = VerblunskyParams.from_function(lambda j: 0.25)
    windows = [J.a_window(10), J.b_window(10), V.alpha_window(10),
               V.rho_window(10), JacobiParams([1.0], [0.0, 0.0]).a_window(1),
               VerblunskyParams([0.5]).alpha_window(1)]
    for w in windows:
        with pytest.raises(ValueError):
            w[0] = 5.0
    assert J.a_window(3)[0] == 1.0
    assert V.alpha_window(3)[0] == 0.25


def test_sparse_bump_jacobi_bumps_exactly_at_powers_of_two_above_one():
    n_sites = 2 ** 12
    a = sparse_bump_jacobi(0.5).a_window(n_sites)
    b = sparse_bump_jacobi(0.5).b_window(n_sites)
    bumps = [2 ** k for k in range(1, 13)]  # n = 2, 4, ..., 4096
    expected = np.ones(n_sites)
    expected[np.array(bumps) - 1] = 0.5
    assert np.array_equal(a, expected)
    assert a[0] == 1.0  # n = 1 is a power of two but carries no bump
    assert np.array_equal(b, np.zeros(n_sites))


def test_sparse_bump_verblunsky_bumps_exactly_at_powers_of_two():
    n_sites = 2 ** 12
    alpha = sparse_bump_verblunsky(0.5).alpha_window(n_sites)
    expected = np.zeros(n_sites, dtype=complex)
    expected[[2 ** k for k in range(12)]] = 0.5  # j = 1, 2, 4, ..., 2048
    assert np.array_equal(alpha, expected)
    assert alpha[0] == 0.0


def test_verblunsky_generator_leaving_the_disc_names_the_index():
    V = VerblunskyParams.from_function(lambda j: np.where(j >= 100, 1.0, 0.5))
    assert np.all(V.alpha_window(50) == 0.5)
    with pytest.raises(ValueError, match=r"alpha_100\b"):
        V.alpha_window(200)
    # NaN is not in the disc either, in a finite sequence or generated;
    # a bad coefficient past the first chunk of a window is named the same
    with pytest.raises(ValueError, match=r"^\|alpha_1\| = nan must be < 1"):
        VerblunskyParams([0.1, np.nan])
    for bad in (1.0, np.nan):
        far = VerblunskyParams.from_function(
            lambda j: np.where(j >= 40000, bad, 0.5))
        with pytest.raises(ValueError, match=r"alpha_40000\b"):
            far.alpha_window(50000)
        with pytest.raises(ValueError, match=r"alpha_40000\b"):
            R.cn_stat_opuc(far, (50000,))
        assert np.all(far.alpha_window(300) == 0.5)


def test_a_nonpositive_or_nan_a_n_is_refused_and_named():
    # finite: at construction
    with pytest.raises(ValueError, match=r"^a_1 = -1\.0 must be > 0"):
        JacobiParams([-1.0, np.nan], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"^a_2 = nan must be > 0"):
        JacobiParams([1.0, np.nan], [0.0, 0.0, 0.0])
    # generated: on every window and run that reaches it
    J = JacobiParams.from_functions(lambda n: np.where(n == 5, 0.0, 1.0),
                                    lambda n: 0.0)
    assert np.all(J.a_window(4) == 1.0)
    with pytest.raises(ValueError, match=r"^a_5 = 0\.0 must be > 0"):
        J.a_window(10)
    with pytest.raises(ValueError, match=r"^a_5 = 0\.0 must be > 0"):
        R.cn_stat_oprl(J, (10,))
    # past the first chunk
    far = JacobiParams.from_functions(lambda n: np.where(n >= 40000, -0.5, 1.0),
                                      lambda n: 0.0)
    with pytest.raises(ValueError, match=r"^a_40000 = -0\.5 must be > 0"):
        far.a_window(50000)
    with pytest.raises(ValueError, match=r"^a_40000 = -0\.5 must be > 0"):
        R.root_test(far, (100, 50000))


def test_an_infinite_a_n_or_a_non_finite_b_n_is_refused_and_named():
    # inf > 0 holds, so a_n = inf needs its own refusal
    with pytest.raises(ValueError, match=r"^a_2 = inf must be > 0 and finite"):
        JacobiParams([1.0, np.inf], [0.0, 0.0, 0.0])
    J = JacobiParams.from_functions(lambda n: np.where(n == 7, np.inf, 1.0),
                                    lambda n: 0.0)
    with pytest.raises(ValueError, match=r"^a_7 = inf must be > 0 and finite"):
        R.cn_stat_oprl(J, (10,))
    # b: at construction, and past the first chunk of a generated run
    with pytest.raises(ValueError, match=r"^b_2 = nan must be finite"):
        JacobiParams([1, 1, 1], [0, np.nan, 0])
    with pytest.raises(ValueError, match=r"^b_1 = -inf must be finite"):
        JacobiParams([1.0], [-np.inf, 0.0])
    far = JacobiParams.from_functions(
        lambda n: 1.0, lambda n: np.where(n == 40000, np.inf, 0.0))
    assert np.all(far.b_window(39999) == 0.0)
    with pytest.raises(ValueError, match=r"^b_40000 = inf must be finite"):
        R.cn_stat_oprl(far, (50000,))
    with pytest.raises(ValueError, match=r"^b_40000 = inf must be finite"):
        far.b_window(40000)


def test_chunked_growth_equals_one_shot_generation():
    # windows that cross chunk boundaries give the bits of one call of
    # the generator on all the indices
    def a_fn(n):
        return 1.0 + 0.3 * np.sin(n) / n

    def b_fn(n):
        return 0.2 * np.cos(np.sqrt(n))

    def alpha_fn(j):
        return 0.5 * np.exp(0.1j * j) / (1.0 + np.log1p(j))

    J = JacobiParams.from_functions(a_fn, b_fn)
    V = VerblunskyParams.from_function(alpha_fn)
    for n in (100, 70000, 200000):
        sites = np.arange(1, n + 1)
        assert J.a_window(n).tobytes() == a_fn(sites).tobytes()
        assert J.b_window(n).tobytes() == b_fn(sites).tobytes()
        assert V.alpha_window(n).tobytes() == alpha_fn(sites - 1).tobytes()
        assert V.rho_window(n).tobytes() == np.sqrt(
            1.0 - np.abs(alpha_fn(sites - 1)) ** 2).tobytes()


def test_runs_equal_one_shot_generation():
    # runs that cross chunk boundaries give the bits of one call of the
    # generator on all the indices
    def a_fn(n):
        return 1.0 + 0.3 * np.sin(n) / n

    def b_fn(n):
        return 0.2 * np.cos(np.sqrt(n))

    def alpha_fn(j):
        return 0.5 * np.exp(0.1j * j) / (1.0 + np.log1p(j))

    J = JacobiParams.from_functions(a_fn, b_fn)
    V = VerblunskyParams.from_function(alpha_fn)
    for n in (70000, 200000):
        sites = np.arange(1, n + 1)
        for read, want in ((J.a_runs(n), a_fn(sites)),
                           (J.b_runs(n), b_fn(sites)),
                           (V.alpha_runs(n), alpha_fn(sites - 1))):
            bounds = [0, 50, 150] + list(range(_CHUNK, n, _CHUNK)) + [n]
            got = np.concatenate([read(lo, hi)
                                  for lo, hi in zip(bounds, bounds[1:])])
            assert got.tobytes() == want.tobytes()
            assert read(0, n).tobytes() == want.tobytes()
    # a finite sequence is read as it is, and not past its end
    F = JacobiParams([1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0])
    assert np.array_equal(F.b_runs(4)(1, 3), [5.0, 6.0])
    with pytest.raises(ValueError, match=r"requested a_1\.\.a_4, have 3"):
        F.a_runs(4)


def test_a_bad_coefficient_in_a_streamed_run_names_its_index():
    # the first bad alpha lies inside the second run
    bad, n = _CHUNK + _CHUNK // 4, 2 * _CHUNK
    V = VerblunskyParams.from_function(
        lambda j: np.where(j >= bad, 1.0, 0.5))
    read = V.alpha_runs(n)
    assert np.all(read(0, _CHUNK) == 0.5)
    with pytest.raises(ValueError, match=rf"alpha_{bad}\b"):
        read(_CHUNK, 2 * _CHUNK)
    with pytest.raises(ValueError, match=rf"alpha_{bad}\b"):
        R.cn_stat_opuc(V, (100, n))


def test_reads_leave_every_store_as_they_found_it():
    # a store keeps nothing it generates: its fields are the same objects
    # after any window, run or statistic, and a repeated window gives the
    # same bytes
    J = JacobiParams.from_functions(lambda n: 1.0 + 0.2 / n,
                                    lambda n: 0.1 * np.cos(n))
    V = VerblunskyParams.from_function(lambda j: 0.3 + 0.2 / (j + 1.0))
    stores = (J._a, J._b, V._alpha)
    before = [dict(vars(store)) for store in stores]
    Ns = (10, 300, 5000)
    windows = (J.a_window(5000), J.b_window(5000), V.alpha_window(5000))
    for read in (J.a_runs(5000), J.b_runs(5000), V.alpha_runs(5000)):
        read(0, 100), read(4000, 5000)
    R.root_test(J, Ns), R.root_test(V, Ns)
    R.root_and_cesaro(J, Ns), R.root_and_cesaro(V, Ns)
    R.cn_stat_oprl(J, Ns), R.cn_sq_stat_oprl(J, Ns), R.cn_stat_opuc(V, Ns)
    R.trace_stat(J, Ns), R.arc_stats(V, 0.5, 3, Ns)
    R.cn_stat_windowed(J, np.array([1, 40, 4000]), 900)
    for store, fields in zip(stores, before):
        assert vars(store).keys() == fields.keys()
        assert all(vars(store)[k] is v for k, v in fields.items())
        assert len(store.values) == 0
    again = (J.a_window(5000), J.b_window(5000), V.alpha_window(5000))
    assert [w.tobytes() for w in again] == [w.tobytes() for w in windows]
    with pytest.raises(AttributeError):
        J._a = J._b
    with pytest.raises(AttributeError):
        V._alpha.fn = None


@given(st.integers(1, 40), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_sup_deviation_monotone(n, seed):
    rng = np.random.default_rng(seed)
    a = 1.0 + rng.uniform(-0.5, 0.5, size=n + 5)
    b = rng.uniform(-1.0, 1.0, size=n + 6)
    J = JacobiParams(a, b)
    assert sup_deviation(J, n) <= sup_deviation(J, n + 1) + 1e-15


def _whole_window_sup(a, b) -> float:
    """sup_deviation read off whole windows a and b (a one shorter where
    a finite a stops at N - 1)."""
    dev = np.abs(b)
    dev[: len(a)] += np.abs(a - 1.0)
    return float(dev.max())


def test_sup_deviation_where_a_stops_one_site_short():
    # the last run of a is one shorter than that of b, and |b_N| alone
    # is the largest deviation
    N = _CHUNK + 5
    rng = np.random.default_rng(3)
    a = 1.0 + rng.uniform(-0.5, 0.5, N - 1)
    b = rng.uniform(-1.0, 1.0, N)
    b[-1] = 5.0
    assert sup_deviation(JacobiParams(a, b), N) == _whole_window_sup(a, b) == 5.0


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1,
                               3 * _CHUNK + 7, 6 * _CHUNK + 7])
def test_sup_deviation_of_a_generator_across_run_boundaries(n):
    # large deviations sit at sites C + 1 and 2C + 1, the first of the
    # second and of the third run, so n = C misses the first and n = C + 1
    # reads it, and likewise n = 2C and n = 2C + 1 for the second
    def a_fn(k):
        return (1.0 + 0.5 * np.sin(0.37 * k) + 3.0 * (k == _CHUNK + 1)
                + 6.0 * (k == 2 * _CHUNK + 1))

    J = JacobiParams.from_functions(a_fn, lambda k: 0.3 * np.cos(1.3 * k))
    want = _whole_window_sup(J.a_window(n), J.b_window(n))
    assert sup_deviation(J, n) == want
    assert (want > 2.0) == (n > _CHUNK)
    assert (want > 4.5) == (n > 2 * _CHUNK)


def test_sup_deviation_of_a_generator_needs_o_chunk_memory():
    # whole windows of a and b at 2^20 sites take 8 MiB each; one run of
    # each and its deviations take 0.7 MiB
    J = JacobiParams.from_functions(lambda k: 1.0 + 1.0 / k,
                                    lambda k: np.sin(k) / k)
    tracemalloc.start()
    try:
        sup_deviation(J, 2 ** 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_verblunsky_rho_and_windows():
    V = VerblunskyParams([0.5, 0.3j, -0.1 + 0.2j])
    rho = V.rho_window(3)
    assert np.allclose(rho, np.sqrt(1.0 - np.abs(V.alpha_window(3)) ** 2))
    with pytest.raises(ValueError):
        VerblunskyParams([1.5])  # outside the unit disc


def _sample_blocks():
    A = (np.array([[1.0, 0.0], [0.3, 0.8]], dtype=complex),)
    B = (np.array([[0.2, 0.1j], [-0.1j, -0.4]], dtype=complex),
         np.zeros((2, 2), dtype=complex))
    return BlockJacobiParams(2, A, B, "general")


def test_validate_blocks_rejects_singular_and_wrong_type():
    Jb = _sample_blocks()
    validate_blocks(Jb)
    sing = BlockJacobiParams(2, (np.zeros((2, 2), dtype=complex),), Jb.B,
                             "general")
    with pytest.raises(SingularBlock):
        validate_blocks(sing)
    upper = BlockJacobiParams(2, (np.array([[1.0, 0.5], [0.0, 1.0]],
                                           dtype=complex),), Jb.B, "type3")
    with pytest.raises(WrongType):
        validate_blocks(upper)
    not_herm = BlockJacobiParams(2, Jb.A,
                                 (np.array([[0.0, 1.0], [0.0, 0.0]],
                                           dtype=complex), Jb.B[1]),
                                 "general")
    with pytest.raises(ValueError):
        validate_blocks(not_herm)


def _random_chain(rng, ell, count):
    us = [np.eye(ell, dtype=complex)]
    for _ in range(count - 1):
        g = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
        q, r = np.linalg.qr(g)
        us.append(q @ np.diag(np.diagonal(r) / np.abs(np.diagonal(r))))
    return UnitaryChain(tuple(us))


@given(st.integers(1, 3), st.integers(2, 6), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_chain_apply_then_inverse_is_identity(ell, K, seed):
    rng = np.random.default_rng(seed)
    A = tuple(np.eye(ell) + 0.3 * rng.standard_normal((ell, ell))
              for _ in range(K - 1))
    H = [rng.standard_normal((ell, ell)) for _ in range(K)]
    B = tuple((h + h.T) / 2 for h in H)
    Jb = BlockJacobiParams(ell, tuple(m.astype(complex) for m in A),
                           tuple(m.astype(complex) for m in B), "general")
    chain = _random_chain(rng, ell, K + 1)
    inverse = UnitaryChain(chain.u.conj().swapaxes(-1, -2))
    back = inverse.apply(chain.apply(Jb))
    worst = max(max(np.max(np.abs(x - y)) for x, y in zip(back.A, Jb.A)),
                max(np.max(np.abs(x - y)) for x, y in zip(back.B, Jb.B)))
    assert worst < 1e-12


def test_chain_requires_exact_identity_head():
    almost = np.eye(2, dtype=complex)
    almost_off = almost.copy()
    almost_off[0, 0] = 1.0 + 1e-15
    with pytest.raises(ValueError):
        UnitaryChain((almost_off,))
    UnitaryChain((almost,))


def test_validate_blocks_rejects_an_unknown_type_tag():
    Jb = _sample_blocks()
    typo = BlockJacobiParams(2, Jb.A, Jb.B, "typo3")
    with pytest.raises(ValueError, match="typo3"):
        validate_blocks(typo)


@pytest.mark.parametrize("name, k, value", [
    ("B", 1, np.nan), ("A", 1, np.nan), ("B", 2, np.inf),
    ("A", 2, complex(0.0, -np.inf)),
])
def test_validate_blocks_rejects_non_finite_blocks(name, k, value):
    eye = np.eye(2, dtype=complex)
    blocks = {"A": [eye, eye], "B": [eye, eye, eye]}
    blocks[name][k - 1] = np.full((2, 2), value)
    Jb = BlockJacobiParams(2, blocks["A"], blocks["B"])
    with pytest.raises(ValueError, match=rf"^{name}_{k} has a non-finite") \
            as info:
        validate_blocks(Jb)
    assert not isinstance(info.value, np.linalg.LinAlgError)


def test_validate_blocks_names_the_first_failing_block():
    eye = np.eye(2, dtype=complex)
    upper = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    sing = np.zeros((2, 2), dtype=complex)
    B = [0.1 * eye] * 4
    with pytest.raises(SingularBlock) as info:
        validate_blocks(BlockJacobiParams(2, [eye, sing, upper], B, "type3"))
    assert info.value.index == 2
    with pytest.raises(WrongType, match=r"^A_2 "):
        validate_blocks(BlockJacobiParams(2, [eye, upper, sing], B, "type3"))
    not_pd = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(WrongType, match=r"^A_3 "):
        validate_blocks(BlockJacobiParams(2, [eye, eye, not_pd], B, "type1"))
    herm = [0.1 * eye, 0.1 * eye, upper, upper]
    with pytest.raises(ValueError, match=r"^B_3 is not Hermitian"):
        validate_blocks(BlockJacobiParams(2, [eye] * 3, herm))


def test_block_params_and_chain_copy_their_input_and_are_read_only():
    m = np.eye(2, dtype=complex)
    stack = np.stack([m, m])
    Jb = BlockJacobiParams(2, (m,), stack, "general")
    chain = UnitaryChain(stack)
    m[0, 0] = 5.0
    stack[1, 0, 0] = 7.0
    assert Jb.A[0, 0, 0] == 1.0 and Jb.B[1, 0, 0] == 1.0
    assert chain.u[1, 0, 0] == 1.0
    assert Jb.A.shape == (1, 2, 2) and Jb.B.dtype == complex
    for arr in (Jb.A, Jb.B, chain.u, Jb.a_blocks(1), Jb.b_blocks(2)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0, 0] = 2.0
    # array fields: equality is identity, so == never has to ask an array
    # for its truth value, and both are hashable
    assert Jb == Jb and Jb != BlockJacobiParams(2, Jb.A, Jb.B, "general")
    assert len({Jb, chain}) == 2


def test_block_params_take_an_empty_A_and_reject_wrong_shapes():
    Jb = BlockJacobiParams(3, (), (np.eye(3),), "type3")
    assert Jb.A.shape == (0, 3, 3)
    validate_blocks(Jb)
    with pytest.raises(ValueError, match=r"shape \(2, 2, 2\)"):
        BlockJacobiParams(3, (), (np.eye(2), np.eye(2)))
    with pytest.raises(ValueError):
        UnitaryChain(np.eye(2, dtype=complex))


@pytest.mark.parametrize("ell, nA, nB", [(1, 4, 5), (2, 5, 5), (3, 3, 4)])
def test_chain_apply_equals_its_per_block_loop(ell, nA, nB):
    rng = np.random.default_rng(ell + nA)
    z = rng.standard_normal((nA + nB, ell, ell)) \
        + 1j * rng.standard_normal((nA + nB, ell, ell))
    Jb = BlockJacobiParams(ell, z[:nA], z[nA:])
    u = _random_chain(rng, ell, nA + 1 if nA == nB else nB).u
    out = UnitaryChain(u).apply(Jb)
    assert np.array_equal(out.B, [u[j].conj().T @ Jb.B[j] @ u[j]
                                  for j in range(nB)])
    assert np.array_equal(out.A, [u[j].conj().T @ Jb.A[j] @ u[j + 1]
                                  for j in range(nA)])
