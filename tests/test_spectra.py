import contextlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from opspectra import spectra
from opspectra.sequences import (BlockJacobiParams, JacobiParams,
                                 VerblunskyParams)
from opspectra.spectra import (DuplicateEigenvalues, EmpiricalMeasure,
                               eig_block, eig_sym_tridiag, eig_unitary,
                               trace_square, zero_counting)
from oracles import (block_dense, block_trace_square, cmv_sparse,
                     sturm_counts_stepwise, tridiagonal_dense,
                     tridiagonal_eigvals_mp)


def test_truncation_shape_and_entries():
    J = JacobiParams([0.5, 1.5], [1.0, -1.0, 0.25])
    d, e = spectra._truncation(J, 3)
    assert np.array_equal(d, [1.0, -1.0, 0.25])
    assert np.array_equal(e, [0.5, 1.5])
    d, e = spectra._truncation(J, 1)
    assert np.array_equal(d, [1.0]) and len(e) == 0


def test_the_solver_reads_the_truncation_off_the_sequence():
    J = JacobiParams([0.5, 1.5], [1.0, -1.0, 0.25])
    for n in (1, 2, 3):
        d, e = spectra._truncation(J, n)
        assert np.allclose(eig_sym_tridiag(J, n),
                           np.linalg.eigvalsh(tridiagonal_dense(d, e)),
                           rtol=0.0, atol=1e-14)
    # past a finite end the window's ValueError names the site
    with pytest.raises(ValueError, match=re.escape("requested b_1..b_4")):
        eig_sym_tridiag(J, 4)
    with pytest.raises(ValueError, match="N >= 1"):
        eig_sym_tridiag(J, 0)
    # a bad generated entry is refused by the read, which names it
    bad = JacobiParams.from_functions(lambda n: np.where(n == 3, 0.0, 1.0),
                                      lambda n: 0.0)
    assert len(eig_sym_tridiag(bad, 3)) == 3
    with pytest.raises(ValueError, match=r"^a_3 = 0\.0 must be > 0"):
        eig_sym_tridiag(bad, 4)
    with pytest.raises(ValueError, match=r"^a_3 = 0\.0 must be > 0"):
        trace_square(bad, 4)


@pytest.mark.parametrize("n", [1, 2, 24, 25, 200])
@pytest.mark.parametrize("zero", [False, True],
                         ids=["general", "zero_diagonal"])
def test_a_generated_sequence_gives_the_bits_of_its_finite_twin(n, zero):
    rng = np.random.default_rng(n)
    a = np.exp(rng.uniform(-1.0, 1.0, n))
    b = np.zeros(n) if zero else rng.uniform(-2.0, 2.0, n)
    gen = JacobiParams.from_functions(lambda k: a[k - 1], lambda k: b[k - 1])
    fin = JacobiParams(a, b)
    assert eig_sym_tridiag(gen, n).tobytes() == \
        eig_sym_tridiag(fin, n).tobytes()
    assert trace_square(gen, n) == trace_square(fin, n)


def test_free_eigenvalues_match_closed_form():
    # the free n-site truncation has eigenvalues 2 cos(k pi / (n+1))
    for n in (60, 401, 2048):
        w = eig_sym_tridiag(JacobiParams.free(), n)
        expect = np.sort(2.0 * np.cos(np.arange(1, n + 1) * math.pi
                                      / (n + 1)))
        assert np.max(np.abs(w - expect)) < 2.5e-15


@given(st.integers(2, 30), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_bisect_and_ql_match_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(-1.0, 1.0, size=n - 1))
    b = rng.uniform(-2.0, 2.0, size=n)
    oracle = np.sort(np.linalg.eigvalsh(tridiagonal_dense(b, a)))
    scale = max(1.0, float(np.max(np.abs(oracle))))
    # the certified values, and the raw sterf values trace_square uses
    raw = sla.eigvalsh_tridiagonal(b, a, lapack_driver="sterf")
    for w in (eig_sym_tridiag(JacobiParams(a, b), n), raw):
        assert np.max(np.abs(np.sort(w) - oracle)) < 1e-10 * scale


def _twin_blocks(coupling, zero_diagonal=False):
    """Two copies of one 5-site block joined by a weak link: every
    eigenvalue of the block splits into a pair less than `coupling`
    apart: the diagonal and the off-diagonal of the 10-site matrix."""
    d = np.zeros(5) if zero_diagonal else np.array([0.3, -0.4, 1.1, 0.2,
                                                    -0.9])
    e = np.array([1.0, 0.7, 1.3, 0.8])
    return np.concatenate([d, d]), np.concatenate([e, [coupling], e])


def _sturm_certified(d, e, vals):
    # the Gershgorin interval, widened by 1
    radius = np.zeros(len(d))
    radius[:-1] += e
    radius[1:] += e
    return spectra._certified(lambda xs: spectra._sturm_counts(d, e, xs),
                              vals, float(np.min(d - radius)) - 1.0,
                              float(np.max(d + radius)) + 1.0, len(d), 1e-14)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf,
                     -math.inf, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True)), max_size=40))
def test_candidates_are_deduped_with_the_bits_of_np_unique(values):
    # the certificate's dedupe, which leaves numpy.ma unimported: every
    # value, which of two equal candidates survives (0.0 or -0.0) and
    # where the one NaN goes, as np.unique has them
    x = np.array(values, dtype=float)
    assert spectra._distinct(x).tobytes() == np.unique(x).tobytes()


def test_certified_repairs_wrong_lists_near_a_planted_pair():
    d, e = _twin_blocks(1e-6)
    vals = eig_sym_tridiag(JacobiParams(e, d), len(d))
    oracle = np.linalg.eigvalsh(tridiagonal_dense(d, e))
    assert np.max(np.abs(vals - oracle)) < 1e-12
    gaps = np.diff(vals)
    j = int(np.argmin(gaps))
    assert 1e-12 < gaps[j] < 1e-6  # the planted near-duplicate pair
    assert np.array_equal(_sturm_certified(d, e, vals), vals)
    collapsed = vals.copy()
    collapsed[j + 1] = collapsed[j]
    assert np.max(np.abs(_sturm_certified(d, e, collapsed) - oracle)) < 1e-12
    # both values of the pair below its lower member: one bracket empty,
    # the next one holding two eigenvalues
    perturbed = vals.copy()
    perturbed[j:j + 2] = vals[j] - np.array([0.2, 0.1]) * gaps[j]
    assert np.max(np.abs(_sturm_certified(d, e, perturbed) - oracle)) < 1e-12


def test_failed_brackets_are_refined_by_bisection(monkeypatch):
    d, e = _twin_blocks(1e-6)
    oracle = np.linalg.eigvalsh(tridiagonal_dense(d, e))
    j = int(np.argmin(np.diff(oracle)))
    wrong = oracle.copy()
    wrong[j + 1] = wrong[j]
    wrong[0] -= 0.5
    monkeypatch.setattr(spectra._flapack, "dsterf",
                        lambda *args, **kw: (wrong.copy(), 0))
    # trace_square takes the wrong list as it comes, so its formula side
    # no longer matches; eig_sym_tridiag repairs it
    J = JacobiParams(e, d)
    f, via_eigs = trace_square(J, len(d))
    assert via_eigs == math.fsum((wrong ** 2).tolist()) / len(d)
    assert abs(f - via_eigs) > 0.1
    fixed = eig_sym_tridiag(J, len(d))
    assert np.max(np.abs(fixed - oracle)) < 1e-12


def test_a_failed_sterf_raises(monkeypatch):
    # sterf is called directly, so its info is checked here, not by scipy
    monkeypatch.setattr(spectra._flapack, "dsterf",
                        lambda d, e, **kw: (np.array(d), 3))
    J = JacobiParams(np.ones(4), np.arange(5.0))
    for solve in (trace_square, eig_sym_tridiag):
        with pytest.raises(spectra.NoConvergence, match="info=3"):
            solve(J, 5)


def test_the_loaded_lapack_routines_give_scipys_bits():
    # spectra loads the four routines from scipy's extension without the
    # scipy.linalg package; on sample inputs each gives the bits and the
    # info code of scipy.linalg.lapack's
    ours, scipys = spectra._flapack, sla.lapack
    rng = np.random.default_rng(39)
    d, e = rng.standard_normal(300), rng.standard_normal(299)
    pd_d, pd_e = 3.0 + rng.uniform(0.0, 1.0, 300), rng.uniform(-1.0, 1.0, 299)
    N, kd = 400, 2
    band = np.zeros((kd + 1, N), dtype=complex)
    band[kd] = rng.standard_normal(N)
    for k in range(1, kd + 1):
        band[kd - k, k:] = (rng.standard_normal(N - k)
                            + 1j * rng.standard_normal(N - k))
    calls = [
        ("dsterf", (d, e), {}),
        ("dstebz", (d, e, 0, 0.0, 0.0, 0, 0, 0.0, b"E"), {}),
        ("dstebz", (d, e, 1, -0.5, 0.5, 1, 1, 1e-12, b"E"), {}),
        ("dpteqr", (pd_d, pd_e, np.zeros((1, 1))), {"compute_z": 0}),
        ("zhbevd", (band,), {"compute_v": 0}),
    ]
    for name, args, kw in calls:
        got = getattr(ours, name)(*args, **kw)
        want = getattr(scipys, name)(*args, **kw)
        assert len(got) == len(want), name
        for x, y in zip(got, want):
            x, y = np.asarray(x), np.asarray(y)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
        assert int(got[-1]) == 0, name   # the info code


def test_a_failed_hbevd_raises(monkeypatch):
    # the circle's band solver is called directly too
    monkeypatch.setattr(spectra._flapack, "zhbevd",
                        lambda band, **kw: (np.zeros(band.shape[1]), None, 2))
    with pytest.raises(spectra.NoConvergence, match="hbevd.*info=2"):
        eig_unitary(_random_cmv(3, 50), 50)


@pytest.mark.parametrize("route", ["bisect", "ql", "zero_diagonal"])
def test_coincident_eigenvalues_warn(route):
    d, e = _twin_blocks(1e-20, zero_diagonal=route == "zero_diagonal")
    J = JacobiParams(e, d)
    if route != "ql":
        with pytest.warns(DuplicateEigenvalues):
            w = eig_sym_tridiag(J, len(d))
    else:
        # the raw sterf values trace_square takes, checked by its formula
        w = sla.eigvalsh_tridiagonal(d, e, lapack_driver="sterf")
        f, via_eigs = trace_square(J, len(d))
        assert f == pytest.approx(via_eigs, rel=1e-12)
    assert np.max(np.abs(w - np.linalg.eigvalsh(tridiagonal_dense(d, e)))) \
        < 1e-12


def _spy(monkeypatch, module, name):
    """Record the calls to module.name, results unchanged."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kw):
        calls.append(real(*args, **kw))
        return calls[-1]

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("n", [24, 25])
@pytest.mark.parametrize("seed", range(10))
def test_zero_diagonal_matches_40_digit_oracle(n, seed, monkeypatch):
    sterf = _spy(monkeypatch, spectra._flapack, "dsterf")
    rng = np.random.default_rng(seed)
    d, e = np.zeros(n), np.exp(rng.uniform(-1.0, 1.0, n - 1))
    oracle = tridiagonal_eigvals_mp(d, e)
    err = np.max(np.abs(eig_sym_tridiag(JacobiParams(e, d), n) - oracle))
    assert not sterf  # the values come from pteqr
    # measured over these 20 cases (numpy 2.4.6, scipy 1.17.1): at most
    # 34 eps max|x| at n = 24 and 1.7 eps max|x| at n = 25 (sterf: 7.9
    # and 9.8); 128 eps leaves a margin of 3.7.  Over 100 seeds at
    # n = 48 the route reached 483 eps, within the 1e-13 of the
    # Gershgorin bound that its check near 0 enforces
    assert err <= 128 * np.finfo(float).eps * np.max(np.abs(oracle))


@pytest.mark.parametrize("a", [[0.7], [1.3e-5], [0.6, 1.9], [2.0, 1e-3]])
def test_two_and_three_site_zero_diagonal_spectra(a):
    a = np.array(a)
    w = eig_sym_tridiag(JacobiParams(a, np.zeros(len(a) + 1)), len(a) + 1)
    if len(a) == 1:
        assert np.array_equal(w, [-a[0], a[0]])
    else:
        r = math.hypot(*a)
        assert w[1] == 0.0
        assert np.allclose(w[[0, 2]], [-r, r], rtol=2.3e-16, atol=0.0)


def test_zero_diagonal_falls_back_to_sterf_when_pteqr_fails(monkeypatch):
    # a graded a across 1e-3 .. 10 on which the Cholesky step of pteqr
    # breaks down; its weak links leave pairs of eigenvalues closer than
    # 1e-16, which the warning reports
    rng = np.random.default_rng(1)
    d, e = np.zeros(600), 10.0 ** rng.uniform(-3.0, 1.0, 599)
    oracle = np.linalg.eigvalsh(tridiagonal_dense(d, e))
    assert np.min(np.diff(oracle)) < 1e-16
    pteqr = _spy(monkeypatch, spectra._flapack, "dpteqr")
    sterf = _spy(monkeypatch, spectra._flapack, "dsterf")
    with pytest.warns(DuplicateEigenvalues):
        w = eig_sym_tridiag(JacobiParams(e, d), 600)
    assert [r[3] for r in pteqr] == [296] and len(sterf) == 1
    assert np.max(np.abs(w - oracle)) < 1e-14 * np.max(np.abs(oracle))


def test_certified_repairs_a_wrong_pteqr_list(monkeypatch):
    d, e = _twin_blocks(1e-6, zero_diagonal=True)
    oracle = np.linalg.eigvalsh(tridiagonal_dense(d, e))
    s = oracle[5:]  # the five values above 0, ascending
    assert s[0] < 1e-6 < 0.1 < s[1]
    wrong = s[::-1] ** 2  # pteqr's order: descending
    wrong[1] = wrong[0]  # the top pair collapsed
    wrong[2] += 0.5  # a value moved into the next bracket up
    sterf = _spy(monkeypatch, spectra._flapack, "dsterf")
    monkeypatch.setattr(spectra._flapack, "dpteqr",
                        lambda d, e, z, **kw: (wrong.copy(), e, z, 0))
    assert np.max(np.abs(eig_sym_tridiag(JacobiParams(e, d), len(d))
                         - oracle)) < 1e-12
    assert not sterf


def test_a_wrong_pteqr_value_near_zero_falls_back_to_sterf(monkeypatch):
    # the small pair of the twin blocks sits at +-2.75e-7; a list that
    # puts it at +-1e-6 passes the counts, but not the check near 0
    d, e = _twin_blocks(1e-6, zero_diagonal=True)
    oracle = np.linalg.eigvalsh(tridiagonal_dense(d, e))
    wrong = np.append(oracle[:5:-1], 1e-6) ** 2
    sterf = _spy(monkeypatch, spectra._flapack, "dsterf")
    monkeypatch.setattr(spectra._flapack, "dpteqr",
                        lambda d, e, z, **kw: (wrong.copy(), e, z, 0))
    assert np.max(np.abs(eig_sym_tridiag(JacobiParams(e, d), len(d))
                         - oracle)) < 1e-12
    assert len(sterf) == 1


@pytest.mark.parametrize("diag", [np.zeros(6),
                                  np.array([0.3, -0.4, 1.1, 0.2, -0.9, 0.5])],
                         ids=["zero_diagonal", "general"])
@pytest.mark.parametrize("s", [2.0 ** 600, 2.0 ** -600, 1e160, 1e-170],
                         ids=["2^600", "2^-600", "1e160", "1e-170"])
def test_extreme_scales_are_scaled_exactly(s, diag):
    a = np.array([1.0, 0.5, 2.0, 1.0, 0.7])
    w0 = eig_sym_tridiag(JacobiParams(a, diag), 6)
    w = eig_sym_tridiag(JacobiParams(s * a, s * diag), 6)
    # a power of two scales exactly; 1e160 and 1e-170 round each entry
    assert np.max(np.abs(w / s - w0)) <= 4 * np.finfo(float).eps * np.max(
        np.abs(w0))
    if math.frexp(s)[0] == 0.5:
        assert np.array_equal(w, s * w0)


def test_an_off_diagonal_below_the_scaled_range_stays_positive():
    # scaling 2^600 down to 1/2 takes 2^-700 below the least subnormal:
    # the link is kept at that subnormal, so the two blocks decouple
    a = np.array([2.0 ** 600, 2.0 ** 599, 2.0 ** -700, 2.0 ** 600])
    w = eig_sym_tridiag(JacobiParams(a, np.zeros(5)), 5)
    r = math.sqrt(1.25)
    expect = 2.0 ** 600 * np.array([-r, -1.0, 0.0, 1.0, r])
    assert np.allclose(w, expect, rtol=4e-16, atol=0.0)


@pytest.mark.parametrize("n", [24, 25, 400, 401, 1024, 2048])
@pytest.mark.parametrize("chain", ["graded", "free"])
@pytest.mark.parametrize("route", ["any", "sterf"])
def test_zero_diagonal_spectra_are_exactly_symmetric(n, chain, route,
                                                     monkeypatch):
    # a = e^U(-1, 1) takes either route, depending on the draw; the free
    # chain keeps pteqr's values.  A failing pteqr forces the sterf
    # route, whose values are not symmetric.
    rng = np.random.default_rng(n)
    a = (np.exp(rng.uniform(-1.0, 1.0, n - 1)) if chain == "graded"
         else np.ones(n - 1))
    d = np.zeros(n)
    oracle = np.linalg.eigvalsh(tridiagonal_dense(d, a))
    # the graded draw at n = 2048 has two eigenvalues 1.2e-15 apart,
    # which the warning reports
    close = np.min(np.diff(oracle)) < 1e-12 * np.max(np.abs(oracle))
    if route == "sterf":
        monkeypatch.setattr(spectra._flapack, "dpteqr",
                            lambda d, e, z, **kw: (d, e, z, 1))
    sterf = _spy(monkeypatch, spectra._flapack, "dsterf")
    with (pytest.warns(DuplicateEigenvalues) if close
          else contextlib.nullcontext()):
        w = eig_sym_tridiag(JacobiParams(a, d), n)
    assert close == (chain == "graded" and n == 2048)
    if route == "sterf" or chain == "free":
        assert bool(sterf) == (route == "sterf")
    assert np.array_equal(w, -w[::-1])
    # measured (numpy 2.4.6, scipy 1.17.1): at most 1.8e-14 at n = 2048
    assert np.max(np.abs(w - oracle)) < 1e-13 * np.max(np.abs(oracle))


def test_a_bisected_zero_diagonal_pair_is_mirrored():
    # the pair at +-1e-20, below the 1e-13 tolerance, comes back as -x and
    # x, not as one value x twice
    d, e = _twin_blocks(1e-20, zero_diagonal=True)
    with pytest.warns(DuplicateEigenvalues):
        w = eig_sym_tridiag(JacobiParams(e, d), len(d))
    assert np.array_equal(w, -w[::-1])
    assert w[4] < 0.0 < w[5]
    assert np.max(np.abs(w - np.linalg.eigvalsh(tridiagonal_dense(d, e)))) \
        < 1e-12


_B = spectra._BLOCK


def _stepwise_pivots(d, e, x):
    """The pivots of the count sweep at the one shift x, each before the
    guard that the next step applies."""
    e2 = e ** 2
    pivmin = spectra._SAFMIN * float(np.max(e2, initial=1.0))
    q = [d[0] - x]
    for k in range(1, len(d)):
        prev = q[-1]
        if abs(prev) < pivmin:
            prev = -pivmin if prev < 0.0 else pivmin
        q.append(d[k] - x - e2[k - 1] / prev)
    return np.array(q), pivmin


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B + 1])
@pytest.mark.parametrize("zero", [False, True],
                         ids=["general", "zero_diagonal"])
@pytest.mark.parametrize("m", [0, 1, 60])
def test_blocked_sturm_counts_match_the_stepwise_sweep(n, zero, m):
    rng = np.random.default_rng(1000 * n + 10 * m + zero)
    d = np.zeros(n) if zero else rng.uniform(-2.0, 2.0, n)
    e = np.exp(rng.uniform(-1.0, 1.0, n - 1))
    # random shifts, and half of them at eigenvalues, where counts tip
    xs = rng.uniform(-5.0, 5.0, m)
    xs[:m // 2] = np.linalg.eigvalsh(tridiagonal_dense(d, e))[:m // 2]
    counts = spectra._sturm_counts(d, e, xs)
    assert counts.dtype == np.int64 and counts.shape == (m,)
    assert np.array_equal(counts, sturm_counts_stepwise(d, e, xs))


@pytest.mark.parametrize("n", [_B - 1, _B, _B + 1, 2 * _B + 1])
@pytest.mark.parametrize("zero", [False, True],
                         ids=["general", "zero_diagonal"])
@pytest.mark.parametrize("plant", ["zero", "below_pivmin"])
def test_blocked_sturm_counts_match_at_planted_small_pivots(n, zero, plant):
    # sites at the start, the middle and the end of the first block, in
    # the second and at the last site
    sites = sorted({1, _B // 2, _B, _B + 3, n - 1} & set(range(1, n)))
    rng = np.random.default_rng(n)
    d = np.zeros(n) if zero else rng.uniform(-2.0, 2.0, n)
    e = np.exp(rng.uniform(-1.0, 1.0, n - 1))
    x = 0.0
    if zero and plant == "zero":
        # the leading 2 x 2 block of the free chain has the eigenvalue 1,
        # so at x = 1 every third pivot from site 1 on is exactly 0
        e[:] = 1.0
        sites = list(range(1, n, 3))
        x = 1.0
    elif zero:
        # at x = 0 the first pivot is 0, and each even one is
        # pivmin a_{k-1}^2 / a_{k-2}^2 after a guarded one: below pivmin,
        # and not 0, on a decreasing chain
        e = np.linspace(2.0, 1.0, n - 1)
        sites = list(range(2, n, 2))
    elif plant == "zero":
        # d_k = a_{k-1}^2 / q_{k-1} makes the pivot at site k exactly 0
        for k in sites:
            q, pivmin = _stepwise_pivots(d, e, x)
            prev = q[k - 1] if abs(q[k - 1]) >= pivmin else pivmin
            d[k] = e[k - 1] ** 2 / prev
    else:
        # a link of 1e-160 squares to a subnormal: at x = 0 the pivot
        # after it is -1e-320 / q, nonzero and below pivmin
        d[sites] = 0.0
        e[np.array(sites) - 1] = 1e-160
    q, pivmin = _stepwise_pivots(d, e, x)
    if plant == "zero":
        assert np.all(q[sites] == 0.0)
    else:
        assert np.all((q[sites] != 0.0) & (np.abs(q[sites]) < pivmin))
    assert sites[0] <= 2 and sites[-1] >= n - 3
    xs = np.concatenate([[x, 0.0, 1.0], rng.uniform(-5.0, 5.0, 20)])
    for shifts in (xs, xs[:1]):
        assert np.array_equal(spectra._sturm_counts(d, e, shifts),
                              sturm_counts_stepwise(d, e, shifts))


@pytest.mark.parametrize("points, domain, message", [
    ([0.0, math.nan], "line", "point_1 = nan must be finite"),
    ([math.inf, 0.0], "line", "point_0 = inf must be finite"),
    ([0.5, -math.inf], "circle", "point_1 = -inf must be finite"),
    ([0.0, 1.0, 4.0], "circle", "point_2 = 4.0 must be in (-pi, pi]"),
    ([-math.pi, 0.0], "circle", "must be in (-pi, pi]"),
])
def test_empirical_measure_refuses_bad_points(points, domain, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        EmpiricalMeasure(points, domain)


def test_circle_sample_may_hold_pi():
    assert np.array_equal(EmpiricalMeasure([math.pi, 0.0], "circle").points,
                          [0.0, math.pi])


def test_trace_square_two_routes_agree():
    J = JacobiParams([1.1, 0.9, 1.3], [0.2, -0.5, 0.0, 0.7])
    f, e = trace_square(J, 4)
    assert f == pytest.approx(e, rel=1e-12)
    # oracle: explicit dense trace of J^2
    m = tridiagonal_dense([0.2, -0.5, 0.0, 0.7], [1.1, 0.9, 1.3])
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
    # alpha_{N-1} = 0.5 gives the boundary phase 1 exactly
    V = VerblunskyParams(np.append(raw[:N - 1], 0.5))
    alpha, beta, _ = spectra._cmv(V, N)
    assert beta == 1.0
    D = cmv_sparse(alpha, beta).toarray()
    assert np.max(np.abs(D.conj().T @ D - np.eye(N))) < 1e-12
    mine = np.exp(1j * eig_unitary(V, N).points)
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
    V = VerblunskyParams(raw)
    th = eig_unitary(V, N).points
    assert np.all((th > -math.pi) & (th <= math.pi))
    mine = np.exp(1j * th)
    oracle = sla.eigvals(cmv_sparse(*spectra._cmv(V, N)[:2]).toarray())
    dist = np.abs(mine[:, None] - oracle[None, :])
    assert np.max(dist.min(axis=1)) < 1e-11
    assert np.max(dist.min(axis=0)) < 1e-11


@pytest.mark.parametrize("kind", ("real", "complex"))
@pytest.mark.parametrize("N", (1, 2, 3, 64, 257))
def test_cmv_band_has_the_bits_of_the_sparse_product(N, kind):
    rng = np.random.default_rng(N)
    if kind == "real":
        # zeros leave entries out of the sparse factors; alpha_{N-1} =
        # -0.5 gives the boundary phase -1 exactly
        alpha = rng.uniform(-0.9, 0.9, N - 1)
        alpha[::5] = 0.0
        tail = -0.5
    else:
        alpha = rng.uniform(0.0, 0.9, N - 1) \
            * np.exp(1j * rng.uniform(-math.pi, math.pi, N - 1))
        tail = 0.5 * np.exp(1j * rng.uniform(-math.pi, math.pi))
    alpha, beta, band = spectra._cmv(VerblunskyParams(np.append(alpha, tail)),
                                     N)
    if kind == "real":
        assert beta == -1.0
    S = cmv_sparse(alpha, beta)
    rows, cols = S.nonzero()
    assert np.all(np.abs(cols - rows) <= 2)
    for k in range(-2, 3):
        assert band.diagonal(k).tobytes() == S.diagonal(k).tobytes()


def _generated(values):
    """A generator-backed sequence with alpha_j = values[j], and the
    indices it is asked for, one array per call."""
    asked = []
    values = np.asarray(values, dtype=complex)
    return VerblunskyParams.from_function(
        lambda j: asked.append(j.copy()) or values[j]), asked


def test_the_circle_solver_reads_the_truncation_off_the_sequence():
    rng = np.random.default_rng(4)
    values = 0.6 * rng.uniform(size=12) * np.exp(2j * math.pi
                                                * rng.uniform(size=12))
    for n in (1, 2, 5, 12):
        V, asked = _generated(values)
        th = eig_unitary(V, n).points
        assert np.array_equal(np.concatenate(asked), np.arange(n))
        assert len(th) == n
        dense = cmv_sparse(values[:n - 1],
                           values[n - 1] / abs(values[n - 1])).toarray()
        oracle = sla.eigvals(dense)
        dist = np.abs(np.exp(1j * th)[:, None] - oracle[None, :])
        assert np.max(dist.min(axis=1)) < 1e-12
    # one site: the 1 x 1 truncation -beta
    V, _ = _generated([0.5j])
    assert np.allclose(eig_unitary(V, 1).points, [-math.pi / 2],
                       rtol=0.0, atol=1e-13)
    with pytest.raises(ValueError, match="N >= 1 required"):
        eig_unitary(V, 0)
    # the boundary coefficient is read, and so checked, like the others
    V, _ = _generated([0.5, 0.2, 1.5])
    with pytest.raises(ValueError, match=re.escape("|alpha_2| = 1.5")):
        eig_unitary(V, 3)


def test_eig_unitary_rejects_coefficients_off_the_disk():
    for values in ([0.5, 1.0, 0.5], [0.3j, -0.6 - 0.8j, 0.5]):
        V, _ = _generated(values)
        with pytest.raises(ValueError, match=re.escape("|alpha_1|")):
            eig_unitary(V, 3)


def test_cmv_zero_coefficients_give_uniform_angles():
    # alpha_{N-1} = 0.5 gives the boundary phase 1 exactly
    for N, tail in [(32, 0.5), (2048, 0.5), (2048, 0.5 * np.exp(0.3j))]:
        V = VerblunskyParams(np.append(np.zeros(N - 1), tail))
        beta = spectra._cmv(V, N)[1]
        th = eig_unitary(V, N).points
        # oracle: the N roots of z^N = -beta, exactly spaced
        exact = np.exp(1j * (np.angle(-beta) + 2.0 * math.pi * np.arange(N))
                       / N)
        dist = np.abs(np.exp(1j * th)[:, None] - exact[None, :])
        assert np.max(dist.min(axis=1)) < 1e-12
        assert np.max(dist.min(axis=0)) < 1e-12


def test_eigenangle_at_pi_matches_dense_oracle():
    # alternating coefficients, and alpha_26 = 0.5 gives the boundary
    # phase 1 exactly
    V = VerblunskyParams(np.append(0.5 * (-1.0) ** np.arange(26), 0.5))
    alpha, beta, _ = spectra._cmv(V, 27)
    assert beta == 1.0
    oracle = sla.eigvals(cmv_sparse(alpha, beta).toarray())
    assert np.min(np.abs(oracle + 1.0)) < 1e-14  # an eigenvalue at -1
    mine = np.exp(1j * eig_unitary(V, 27).points)
    dist = np.abs(mine[:, None] - oracle[None, :])
    assert np.max(dist.min(axis=1)) < 1e-12
    assert np.max(dist.min(axis=0)) < 1e-12


def _random_cmv(seed, N, radius=0.9):
    """A random sequence of N coefficients, the last of which sets only
    a random boundary phase."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.0, radius, N - 1) \
        * np.exp(1j * rng.uniform(-math.pi, math.pi, N - 1))
    tail = 0.5 * np.exp(1j * rng.uniform(-math.pi, math.pi))
    return VerblunskyParams(np.append(alpha, tail))


@pytest.mark.parametrize("seed", range(5))
def test_phase_counts_match_dense_oracle(seed):
    alpha, beta, _ = spectra._cmv(_random_cmv(seed, 40), 40)
    rng = np.random.default_rng(100 + seed)
    cut = rng.uniform(-math.pi, math.pi)
    xs = cut + rng.uniform(0.0, 2.0 * math.pi, 500)
    dense = cmv_sparse(alpha, beta).toarray()
    lifted = np.remainder(np.angle(sla.eigvals(dense)) - cut, 2.0 * math.pi)
    expect = np.sum(lifted[None, :] <= (xs - cut)[:, None], axis=1)
    assert np.array_equal(spectra._phase_counts(alpha, beta, cut, xs), expect)


def test_certified_repairs_wrong_angle_lists():
    alpha, beta, _ = spectra._cmv(_random_cmv(7, 30), 30)
    dense = cmv_sparse(alpha, beta).toarray()
    ring = np.sort(np.angle(sla.eigvals(dense)))
    gaps = np.diff(np.append(ring, ring[0] + 2.0 * math.pi))
    k = int(np.argmax(gaps))
    cut = ring[k] + 0.5 * gaps[k]
    oracle = np.sort(cut + np.remainder(ring - cut, 2.0 * math.pi))

    def certified(cand):
        return spectra._certified(
            lambda xs: spectra._phase_counts(alpha, beta, cut, xs), cand,
            cut, cut + 2.0 * math.pi, 30, 1e-14)

    assert np.array_equal(certified(oracle), oracle)
    j = 10
    # angle j moved onto its neighbour, into that neighbour's bracket
    moved = oracle.copy()
    moved[j] = oracle[j + 1]
    assert np.max(np.abs(certified(moved) - oracle)) < 1e-12
    below = oracle.copy()
    below[j:j + 2] = oracle[j] - np.array([0.2, 0.1]) * (oracle[j + 1]
                                                          - oracle[j])
    assert np.max(np.abs(certified(below) - oracle)) < 1e-12


def test_eig_unitary_bisects_when_the_band_solver_is_wrong(monkeypatch):
    V = _random_cmv(3, 50)
    oracle = sla.eigvals(cmv_sparse(*spectra._cmv(V, 50)[:2]).toarray())
    # every cosine and sine 0: four candidates, every bracket crowded
    monkeypatch.setattr(spectra._flapack, "zhbevd",
                        lambda band, **kw: (np.zeros(band.shape[1]), None, 0))
    mine = np.exp(1j * eig_unitary(V, 50).points)
    dist = np.abs(mine[:, None] - oracle[None, :])
    assert np.max(dist.min(axis=1)) < 1e-12
    assert np.max(dist.min(axis=0)) < 1e-12


def test_cmv_default_boundary_follows_last_coefficient():
    V = VerblunskyParams(np.full(8, 0.3 * np.exp(0.4j)))
    beta = spectra._cmv(V, 8)[1]
    tail = 0.3 * np.exp(0.4j)
    assert beta == pytest.approx(tail / abs(tail))


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
    m = spectra._block_dense(Jb, 3)
    assert np.array_equal(m, block_dense(Jb, 3))
    assert m.shape == (6, 6)
    assert np.array_equal(m[0:2, 0:2], Jb.B[0])
    assert np.array_equal(m[0:2, 2:4], Jb.A[0])
    assert np.array_equal(m[2:4, 0:2], Jb.A[0].conj().T)
    assert np.max(np.abs(m - m.conj().T)) == 0.0


@pytest.mark.parametrize("ell, K", [(1, 1), (1, 4), (2, 2), (3, 5)])
def test_block_dense_places_every_block(ell, K):
    rng = np.random.default_rng(ell * 10 + K)
    Jb = _sample_block_params(rng, ell, K + 1)
    assert np.array_equal(spectra._block_dense(Jb, K), block_dense(Jb, K))


def test_block_trace_square_needs_a_block():
    Jb = _sample_block_params(np.random.default_rng(1), 2, 3)
    with pytest.raises(ValueError, match="K >= 1 required"):
        block_trace_square(Jb, 0)


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
    beta = spectra._cmv(V, 3)[1]
    scaled = np.complex128(tail) * 2.0 ** 600  # exact, far from underflow
    assert beta == scaled / abs(scaled)
    assert abs(abs(beta) - 1.0) < 1e-15


@pytest.mark.parametrize("tail", [0.3 + 0.4j, -0.7, 1e-300j, 2.5e-308])
def test_cmv_normal_tail_phase_is_unchanged(tail):
    V = VerblunskyParams(np.array([0.3, -0.2j, tail]))
    tail = np.complex128(tail)
    assert spectra._cmv(V, 3)[1] == tail / abs(tail)
