import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra.sequences import (BlockJacobiParams, JacobiParams,
                                 NonPositiveA, SingularBlock, UnboundedDeviation,
                                 UnitaryChain, VerblunskyParams, WrongType,
                                 rayleigh_cesaro, sup_deviation,
                                 validate_blocks, validate_jacobi)
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

    J = JacobiParams.from_functions(a_fn, lambda n: 0.0, bound=1.0)
    first = J.a_window(5)
    assert np.allclose(first, 1.0 + 1.0 / np.arange(1, 6))
    n_calls = len(calls)
    J.a_window(3)  # smaller window must come from the cache
    assert len(calls) == n_calls


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
    assert np.all(V.alpha_window(50) == 0.5)  # stores j = 0..63
    with pytest.raises(ValueError, match=r"alpha_100\b"):
        V.alpha_window(200)


def test_validate_jacobi_flags_bad_entries():
    with pytest.raises(NonPositiveA):
        validate_jacobi(JacobiParams([1.0, -0.5], [0.0, 0.0, 0.0]))
    with pytest.raises(UnboundedDeviation):
        validate_jacobi(JacobiParams([1.0, 1.0], [5.0, 0.0, 0.0]), bound=1.0)
    ok = validate_jacobi(JacobiParams([1.5], [0.25, 0.0]), bound=2.0)
    assert ok.sup_deviation_checked == 0.75


def test_rayleigh_quadratic_form_matches_matrix():
    # oracle: v^T J v for v the normalized indicator of the first n sites
    a = np.array([0.7, 1.3, 1.1, 0.9])
    b = np.array([0.2, -0.4, 0.0, 0.6, 0.1])
    J = JacobiParams(a, b)
    n = 4
    mat = np.diag(b[:n]) + np.diag(a[: n - 1], 1) + np.diag(a[: n - 1], -1)
    v = np.ones(n) / np.sqrt(n)
    assert rayleigh_cesaro(J, n) == pytest.approx(v @ mat @ v, abs=1e-14)


@given(st.integers(1, 40), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_sup_deviation_monotone(n, seed):
    rng = np.random.default_rng(seed)
    a = 1.0 + rng.uniform(-0.5, 0.5, size=n + 5)
    b = rng.uniform(-1.0, 1.0, size=n + 6)
    J = JacobiParams(a, b)
    assert sup_deviation(J, n) <= sup_deviation(J, n + 1) + 1e-15


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
                                           dtype=complex),) + Jb.B[1:],
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
    back = chain.inverse().apply(chain.apply(Jb))
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
