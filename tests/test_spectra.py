import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from opspectra import spectra
from opspectra.sequences import (BlockJacobiParams, JacobiParams,
                                 VerblunskyParams)
from opspectra.spectra import (CmvMatrix, DuplicateEigenvalues,
                               EmpiricalMeasure, NotUnitary,
                               TridiagonalMatrix, block_dense,
                               block_trace_square, cmv, eig_block,
                               eig_sym_tridiag, eig_unitary, trace_square,
                               truncate, zero_counting)


def _dense(T):
    n = len(T.diag)
    m = np.diag(T.diag).astype(float)
    m += np.diag(T.offdiag, 1) + np.diag(T.offdiag, -1)
    return m


def test_truncation_shape_and_entries():
    J = JacobiParams([0.5, 1.5], [1.0, -1.0, 0.25])
    T = truncate(J, 3)
    assert np.array_equal(T.diag, [1.0, -1.0, 0.25])
    assert np.array_equal(T.offdiag, [0.5, 1.5])


def test_free_eigenvalues_match_closed_form():
    # the free n-site truncation has eigenvalues 2 cos(k pi / (n+1))
    n = 60
    w = eig_sym_tridiag(truncate(JacobiParams.free(), n))
    expect = np.sort(2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
    assert np.max(np.abs(w - expect)) < 1e-12


@given(st.integers(2, 30), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_bisect_and_ql_match_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(-1.0, 1.0, size=n - 1))
    b = rng.uniform(-2.0, 2.0, size=n)
    T = truncate(JacobiParams(a, b), n)
    oracle = np.sort(np.linalg.eigvalsh(_dense(T)))
    scale = max(1.0, float(np.max(np.abs(oracle))))
    for method in ("bisect", "ql"):
        w = eig_sym_tridiag(T, method)
        assert np.max(np.abs(np.sort(w) - oracle)) < 1e-10 * scale


def _twin_blocks(coupling):
    """Two copies of one 5-site block joined by a weak link: every
    eigenvalue of the block splits into a pair less than `coupling`
    apart."""
    d = np.array([0.3, -0.4, 1.1, 0.2, -0.9])
    e = np.array([1.0, 0.7, 1.3, 0.8])
    return TridiagonalMatrix(np.concatenate([d, d]),
                             np.concatenate([e, [coupling], e]))


def test_sturm_certificate_rejects_wrong_lists_near_a_planted_pair():
    T = _twin_blocks(1e-6)
    vals = eig_sym_tridiag(T)
    oracle = np.linalg.eigvalsh(T.dense())
    assert np.max(np.abs(vals - oracle)) < 1e-12
    gaps = np.diff(vals)
    j = int(np.argmin(gaps))
    assert 1e-12 < gaps[j] < 1e-6  # the planted near-duplicate pair
    assert len(spectra._sturm_certificate(T, vals)) == 0
    collapsed = vals.copy()
    collapsed[j + 1] = collapsed[j]
    bad = spectra._sturm_certificate(T, collapsed)
    assert list(bad) == [j, j + 1]
    # both values of the pair below its lower member: one bracket empty,
    # the next one holding two eigenvalues
    perturbed = vals.copy()
    perturbed[j:j + 2] = vals[j] - np.array([0.2, 0.1]) * gaps[j]
    bad = spectra._sturm_certificate(T, perturbed)
    assert list(bad) == [j, j + 1]


def test_failed_brackets_are_refined_by_bisection(monkeypatch):
    T = _twin_blocks(1e-6)
    oracle = np.linalg.eigvalsh(T.dense())
    j = int(np.argmin(np.diff(oracle)))
    wrong = oracle.copy()
    wrong[j + 1] = wrong[j]
    wrong[0] -= 0.5
    monkeypatch.setattr(spectra.sla, "eigvalsh_tridiagonal",
                        lambda *args, **kw: wrong.copy())
    with pytest.warns(DuplicateEigenvalues):
        assert np.array_equal(eig_sym_tridiag(T, "ql"), wrong)
    fixed = eig_sym_tridiag(T)
    assert np.max(np.abs(fixed - oracle)) < 1e-12


@pytest.mark.parametrize("method", ["bisect", "ql"])
def test_coincident_eigenvalues_warn(method):
    T = _twin_blocks(1e-20)
    with pytest.warns(DuplicateEigenvalues):
        w = eig_sym_tridiag(T, method)
    assert np.max(np.abs(w - np.linalg.eigvalsh(T.dense()))) < 1e-12


def test_trace_square_two_routes_agree():
    J = JacobiParams([1.1, 0.9, 1.3], [0.2, -0.5, 0.0, 0.7])
    f, e = trace_square(J, 4)
    assert f == pytest.approx(e, rel=1e-12)
    # oracle: explicit dense trace of J^2
    m = _dense(truncate(J, 4))
    assert f == pytest.approx(np.trace(m @ m) / 4.0, rel=1e-12)


def test_zero_counting_is_a_probability_measure_on_the_line():
    emp = zero_counting(JacobiParams.free(), 40)
    assert len(emp.points) == 40
    assert emp.domain == "line"
    assert np.all(np.abs(emp.points) <= 2.0 + 1e-12)


def test_circle_measure_phase_moment():
    th = np.array([0.0, math.pi / 2.0, -math.pi / 2.0])
    emp = EmpiricalMeasure(th, "circle")
    assert emp.mean_phase() == pytest.approx((1.0 + 1j - 1j) / 3.0)


# -- CMV truncations ---------------------------------------------------


def _para_zeros(alpha, N, boundary):
    """Oracle: zeros of z Phi_{N-1}(z) + beta Phi_{N-1}^*(z) by direct
    recursion Phi_{k+1} = z Phi_k + alpha_k Phi_k^*, then numpy roots."""
    phi = np.array([1.0 + 0.0j])
    for k in range(N - 1):
        star = np.conj(phi[::-1])
        zphi = np.concatenate([[0.0], phi])
        phi = zphi + alpha[k] * np.concatenate([star, [0.0]])
    star = np.conj(phi[::-1])
    poly = np.concatenate([[0.0], phi]) + boundary * np.concatenate(
        [star, [0.0]])
    return np.roots(poly[::-1])


@given(st.integers(2, 10), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_cmv_eigenvalues_match_polynomial_zeros(N, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-0.6, 0.6, size=2 * N) \
        + 1j * rng.uniform(-0.6, 0.6, size=2 * N)
    V = VerblunskyParams(raw)
    beta = 1.0 + 0.0j
    C = cmv(V, N, boundary=beta)
    assert C.unitarity_defect() < 1e-12
    mine = np.exp(1j * eig_unitary(C).points)
    oracle = _para_zeros(raw, N, beta)
    # match as multisets
    mine = mine[np.argsort(np.angle(mine))]
    oracle = oracle[np.argsort(np.angle(oracle))]
    assert np.max(np.abs(mine - oracle)) < 1e-8


@given(st.integers(1, 64), st.floats(0.05, 0.95), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_cmv_eigenvalues_match_dense_oracle(N, radius, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, radius, size=N) \
        * np.exp(1j * rng.uniform(-math.pi, math.pi, size=N))
    C = cmv(VerblunskyParams(raw), N)
    th = eig_unitary(C).points
    assert np.all((th > -math.pi) & (th <= math.pi))
    mine = np.exp(1j * th)
    oracle = sla.eigvals(C.mat)
    dist = np.abs(mine[:, None] - oracle[None, :])
    assert np.max(dist.min(axis=1)) < 1e-11
    assert np.max(dist.min(axis=0)) < 1e-11


def test_eig_unitary_rejects_a_non_unitary_matrix():
    with pytest.raises(NotUnitary):
        eig_unitary(CmvMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), 1.0))


def test_cmv_zero_coefficients_give_uniform_angles():
    V = VerblunskyParams(np.zeros(64, dtype=complex))
    th = np.sort(eig_unitary(cmv(V, 32)).points)
    gaps = np.diff(np.concatenate([th, [th[0] + 2.0 * math.pi]]))
    assert np.max(np.abs(gaps - 2.0 * math.pi / 32)) < 1e-10


def test_cmv_default_boundary_follows_last_coefficient():
    V = VerblunskyParams(np.full(8, 0.3 * np.exp(0.4j)))
    C = cmv(V, 8)
    tail = 0.3 * np.exp(0.4j)
    assert C.boundary == pytest.approx(tail / abs(tail))


# -- block truncations -------------------------------------------------


def _sample_block_params(rng, ell, K):
    A = tuple((np.eye(ell) + 0.3 * rng.standard_normal((ell, ell))).astype(complex)
              for _ in range(K - 1))
    H = [rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
         for _ in range(K)]
    B = tuple(((h + h.conj().T) / 2) for h in H)
    return BlockJacobiParams(ell, A, B, "general")


def test_block_dense_layout():
    rng = np.random.default_rng(5)
    Jb = _sample_block_params(rng, 2, 3)
    m = block_dense(Jb, 3)
    assert m.shape == (6, 6)
    assert np.array_equal(m[0:2, 0:2], Jb.B[0])
    assert np.array_equal(m[0:2, 2:4], Jb.A[0])
    assert np.array_equal(m[2:4, 0:2], Jb.A[0].conj().T)
    assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_block_trace_square_routes_agree():
    rng = np.random.default_rng(9)
    Jb = _sample_block_params(rng, 3, 5)
    f, e = block_trace_square(Jb, 5)
    assert f == pytest.approx(e, rel=1e-12)
    m = block_dense(Jb, 5)
    assert e == pytest.approx(float(np.trace(m @ m).real) / (5 * 3),
                              rel=1e-12)


def test_eig_block_matches_dense_oracle():
    rng = np.random.default_rng(3)
    Jb = _sample_block_params(rng, 2, 6)
    w = eig_block(Jb, 6)
    oracle = np.sort(np.linalg.eigvalsh(block_dense(Jb, 6)))
    assert np.max(np.abs(np.sort(w) - oracle)) < 1e-10


@pytest.mark.parametrize("tail", [1e-320, -1e-320j, 3e-310 - 4e-310j, 5e-324])
def test_cmv_subnormal_tail_gives_its_phase(tail):
    V = VerblunskyParams(np.array([0.3, -0.2j, tail]))
    C = cmv(V, 3)
    scaled = np.complex128(tail) * 2.0 ** 600  # exact, far from underflow
    assert C.boundary == scaled / abs(scaled)
    assert abs(abs(C.boundary) - 1.0) < 1e-15


@pytest.mark.parametrize("tail", [0.3 + 0.4j, -0.7, 1e-300j, 2.5e-308])
def test_cmv_normal_tail_phase_is_unchanged(tail):
    V = VerblunskyParams(np.array([0.3, -0.2j, tail]))
    assert cmv(V, 3).boundary == np.complex128(tail) / abs(np.complex128(tail))
