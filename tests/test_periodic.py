import itertools
import math
import operator
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from opspectra import periodic, scenarios, sequences
from opspectra.periodic import (_GRID_POINTS, GapClosed, PeriodicJacobi,
                                _DirichletMap, bands, d_to_torus_batch,
                                delta_of_J, discriminant, dm_weights,
                                normalize_type1, normalize_type3, torus_point)
from opspectra.potential import capacity, equilibrium_measure
from opspectra.rng import SplitMix64
from opspectra.scenarios import _is_pow2, _periodic_as_params, _random_blocks
from opspectra.sequences import BlockJacobiParams, JacobiParams, validate_blocks
from oracles import (block_map_sparse, d_m, product_trace_stepwise,
                     sequential_pattern_search)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def d_to_torus(J, m, J0):
    """The torus distance at the one offset m."""
    return float(d_to_torus_batch(J, np.array([m]), J0)[0])


def _monomial_coeffs(J0):
    """Ascending monomial coefficients of D: the one-period transfer
    product with polynomial entries.  A small-p oracle; at large p the
    coefficients lose D's accuracy."""
    T = [[np.array([1.0]), np.array([0.0])],
         [np.array([0.0]), np.array([1.0])]]
    a_prev = J0.a[-1]
    for an, bn in zip(J0.a, J0.b):
        step = [[np.array([-bn / an, 1.0 / an]), np.array([-a_prev / an])],
                [np.array([1.0]), np.array([0.0])]]
        T = [[npp.polyadd(npp.polymul(step[i][0], T[0][j]),
                          npp.polymul(step[i][1], T[1][j]))
              for j in range(2)] for i in range(2)]
        a_prev = an
    return npp.polyadd(T[0][0], T[1][1])


X = np.linspace(-3.0, 3.0, 61)


@pytest.mark.parametrize("a, b, message", [
    ((1.0, -0.5), (0.0, 0.0), "a_2 = -0.5 must be > 0 and finite"),
    ((0.0, 1.0), (0.0, 0.0), "a_1 = 0.0 must be > 0 and finite"),
    ((1.0, math.inf), (0.0, 0.0), "a_2 = inf must be > 0 and finite"),
    ((1.0, 1.0), (0.0, math.nan), "b_2 = nan must be finite"),
])
def test_a_pattern_is_checked_like_a_jacobi_sequence(a, b, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PeriodicJacobi(a, b)


def test_period_one_discriminant_is_linear():
    J0 = PeriodicJacobi((2.0,), (0.5,))
    # (x - b) / a
    assert discriminant(J0, X) == pytest.approx(npp.polyval(X, (-0.25, 0.5)))
    assert capacity(bands(J0)) == pytest.approx(2.0)


def test_period_two_discriminant_closed_form():
    a1, a2, b1, b2 = 1.0, 0.5, 0.2, -0.3
    J0 = PeriodicJacobi((a1, a2), (b1, b2))
    den = a1 * a2
    expect = ((b1 * b2 - a1 * a1 - a2 * a2) / den, -(b1 + b2) / den, 1.0 / den)
    assert _monomial_coeffs(J0) == pytest.approx(expect, abs=1e-14)
    assert discriminant(J0, X) == pytest.approx(npp.polyval(X, expect),
                                                abs=1e-13)


def test_discriminant_matches_numeric_transfer_product():
    # oracle: product of one-step transfer matrices at sample energies
    J0 = PeriodicJacobi((1.1, 0.7, 0.9), (0.2, 0.0, -0.4))
    p = J0.p
    for x in (-2.3, -0.5, 0.1, 1.7, 3.0):
        T = np.eye(2)
        for n in range(p):
            an = J0.a[n]
            prev = J0.a[(n - 1) % p]
            step = np.array([[(x - J0.b[n]) / an, -prev / an], [1.0, 0.0]])
            T = step @ T
        assert discriminant(J0, x) == pytest.approx(T[0, 0] + T[1, 1],
                                                    abs=1e-10)


def _exact_discriminant(J0, x):
    """D(x) as the trace of the one-period transfer product in exact
    rational arithmetic."""
    a = [Fraction(v) for v in J0.a]
    x = Fraction(x)
    T = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for n in range(J0.p):
        step = (((x - Fraction(J0.b[n])) / a[n], -a[n - 1] / a[n]),
                (Fraction(1), Fraction(0)))
        T = tuple(tuple(step[i][0] * T[0][j] + step[i][1] * T[1][j]
                        for j in range(2)) for i in range(2))
    return T[0][0] + T[1][1]


def _random_pattern(p):
    rng = np.random.default_rng(p)
    return PeriodicJacobi(tuple(rng.uniform(0.7, 1.3, p)),
                          tuple(rng.uniform(-0.3, 0.3, p)))


@pytest.mark.parametrize("p", (2, 4, 8, 16, 24, 32))
def test_discriminant_matches_the_exact_transfer_product(p):
    # relative to max(|D|, 1): D passes near 0 between its extrema.  The
    # monomial coefficients miss by 2.1e-9 at p = 16 and by 2.8e-2 at
    # p = 32 here
    J0 = _random_pattern(p)
    x = np.linspace(-2.4, 2.4, 50)
    exact = np.array([float(_exact_discriminant(J0, v)) for v in x])
    assert np.all(np.abs(discriminant(J0, x) - exact)
                  <= 1e-12 * np.maximum(np.abs(exact), 1.0))


FIXED = [((2.0,), (0.3,)), ((1.0, 0.5), (0.0, 0.0)),
         ((1.0, 0.5), (0.2, -0.3)), ((1.1, 0.7, 0.9), (0.2, 0.0, -0.4))]
RANDOM_PERIODS = (1, 2, 3, 4, 8, 16, 32)


@pytest.mark.parametrize(
    "J0", [PeriodicJacobi(*pattern) for pattern in FIXED]
    + [_random_pattern(p) for p in RANDOM_PERIODS],
    ids=[f"pattern{i}" for i in range(len(FIXED))]
    + [f"p{p}" for p in RANDOM_PERIODS])
def test_band_edges_are_bracketed_by_the_exact_discriminant(J0):
    # every gap of these patterns is open, and D - 2 or D + 2 changes
    # sign within 1e-12 (relative) of each edge
    fg = bands(J0)
    assert fg.n_bands == J0.p
    assert fg.generator == J0
    for e in (x for band in fg.bands for x in band):
        level = 2 if _exact_discriminant(J0, e) > 0 else -2
        delta = 1e-12 * max(1.0, abs(e))
        lo = _exact_discriminant(J0, e - delta) - level
        hi = _exact_discriminant(J0, e + delta) - level
        assert lo * hi < 0, e


def test_free_pattern_merges_to_single_band():
    fg = bands(PeriodicJacobi((1.0, 1.0), (0.0, 0.0)))
    assert fg.n_bands == 1
    assert fg.bands[0] == pytest.approx((-2.0, 2.0), abs=1e-9)


@pytest.mark.parametrize("a, b, n_bands", [
    ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 1),
    ((0.932,) * 3, (0.188,) * 3, 1),
    ((1.0, 0.5, 1.0, 0.5), (0.1, -0.2, 0.1, -0.2), 2),
], ids=["free", "constant", "repeated"])
def test_closed_gaps_merge_their_bands(a, b, n_bands):
    # a constant pattern read as period 3 has one band, and a period-2
    # pattern read as period 4 has the two bands of period 2
    fg = bands(PeriodicJacobi(a, b))
    assert fg.n_bands == n_bands


# -- equilibrium measure of a band set ---------------------------------


def _bisect_exact(J0, lo, hi, target):
    """Float bisection for D(x) = target on [lo, hi], with every sign
    taken from the exact discriminant."""
    target = Fraction(target)
    rising = _exact_discriminant(J0, lo) < target
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (_exact_discriminant(J0, mid) < target) == rising:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("p", (1, 2, 3, 4, 8))
def test_equilibrium_quantiles_match_a_bisection_of_the_exact_discriminant(p):
    # band j holds mass 1/p, spread as arccos(D(x) / D(lo_j)) / pi from
    # its lower edge lo_j, so level j/p + v/p solves D = D(lo_j) cos(pi v)
    J0 = _random_pattern(p)
    fg = bands(J0)
    us = (np.arange(6 * p) + 0.5) / (6 * p)
    q = equilibrium_measure(fg).quantiles(us)
    for u, x in zip(us, q):
        j = int(u * p)
        lo, hi = fg.bands[j]
        sign = 1.0 if _exact_discriminant(J0, lo) > 0 else -1.0
        target = 2.0 * sign * math.cos(math.pi * (u * p - j))
        assert abs(x - _bisect_exact(J0, lo, hi, target)) <= 1e-13, u


def _exact_moments(J0, kmax=8):
    """(1/p) tr J^k over one period, k = 0..kmax, read off the diagonal
    of J^k on the middle period of a Fraction truncation with kmax
    padding sites on each side (no closed path of length kmax from the
    middle period reaches an end)."""
    p = J0.p
    n = p + 2 * kmax
    a = [Fraction(J0.a[i % p]) for i in range(n - 1)]
    b = [Fraction(J0.b[i % p]) for i in range(n)]
    sums = [Fraction(0)] * (kmax + 1)
    for s in range(kmax, kmax + p):
        v = [Fraction(int(i == s)) for i in range(n)]
        for k in range(kmax + 1):
            sums[k] += v[s]
            v = [b[i] * v[i] + (a[i - 1] * v[i - 1] if i > 0 else 0)
                 + (a[i] * v[i + 1] if i < n - 1 else 0) for i in range(n)]
    return [x / p for x in sums]


CLOSED_GAP = ((1.0, 0.5, 1.0, 0.5), (0.1, -0.2, 0.1, -0.2))


@pytest.mark.parametrize("J0", [_random_pattern(p) for p in (2, 3, 5)]
                         + [PeriodicJacobi(*CLOSED_GAP)],
                         ids=["p2", "p3", "p5", "closed_gap"])
def test_equilibrium_moments_match_exact_traces(J0):
    em = equilibrium_measure(bands(J0))
    for k, exact in enumerate(_exact_moments(J0)):
        assert em.moment(k) == pytest.approx(
            float(exact), rel=1e-13, abs=1e-13), k


def test_closed_gap_pattern_has_the_equilibrium_measure_of_its_period():
    # read at period 4, the pattern has a closed gap inside each of its
    # two bands; its measure is still the period-2 one
    us = (np.arange(2000) + 0.5) / 2000
    q = {}
    for a, b in (CLOSED_GAP, (CLOSED_GAP[0][:2], CLOSED_GAP[1][:2])):
        J0 = PeriodicJacobi(a, b)
        q[len(a)] = equilibrium_measure(bands(J0)).quantiles(us)
    assert np.all(np.diff(q[4]) >= 0.0)
    assert np.max(np.abs(q[4] - q[2])) <= 1e-12


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from opspectra.periodic import PeriodicJacobi, bands
from opspectra.potential import equilibrium_measure
J0 = PeriodicJacobi((1.0, 0.6, 0.8, 1.2), (0.1, -0.2, 0.0, 0.3))
em = equilibrium_measure(bands(J0))
q = em.quantiles((np.arange(20000) + 0.5) / 20000)
m = np.array([em.moment(k) for k in range(9)])
print(hashlib.sha256(q.tobytes() + m.tobytes()).hexdigest())
"""


def test_equilibrium_measure_does_not_depend_on_the_blas_thread_count():
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


# -- block map of a periodic generator ---------------------------------


def test_block_map_matches_dense_matrix_polynomial():
    for J0 in (PeriodicJacobi((1.2, 0.8), (0.1, -0.3)),
               PeriodicJacobi((1.0, 0.6, 0.8, 1.2), (0.1, -0.2, 0.0, 0.3))):
        K = 6
        J = _periodic_as_params(J0, lambda n: 0.05 * np.sin(1.3 * n))
        blocks = delta_of_J(J0, J, K)
        p = J0.p
        n_sites = (K + 2) * p + p
        a = J.a_window(n_sites - 1)
        b = J.b_window(n_sites)
        dense = np.diag(b) + np.diag(a, 1) + np.diag(a, -1)
        # oracle: Horner-free evaluation through explicit matrix powers
        S = np.zeros_like(dense)
        P = np.eye(n_sites)
        for c in _monomial_coeffs(J0):
            S += c * P
            P = P @ dense
        for k in range(K + 1):
            sl = slice(k * p, (k + 1) * p)
            assert np.max(np.abs(blocks.B[k] - S[sl, sl])) < 1e-10
        for k in range(K):
            sl = slice(k * p, (k + 1) * p)
            sr = slice((k + 1) * p, (k + 2) * p)
            oracle_A = np.tril(S[sl, sr])  # bandwidth kills the upper part
            assert np.max(np.abs(np.triu(S[sl, sr], k=1))) < 1e-10
            assert np.max(np.abs(blocks.A[k] - oracle_A)) < 1e-10


def test_block_map_of_generator_is_magic():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    blocks = delta_of_J(J0, _periodic_as_params(J0), 16)
    eye = np.eye(2)
    for k in range(1, 17):
        assert np.max(np.abs(blocks.B[k])) < 1e-12
    for k in range(1, 16):
        assert np.max(np.abs(blocks.A[k] - eye)) < 1e-12
    assert blocks.type_tag == "type3"
    validate_blocks(blocks)


@pytest.mark.parametrize("K", (2, 7, 512))
@pytest.mark.parametrize("p", range(1, 7))
def test_block_map_has_the_bits_of_the_sparse_block_map(p, K):
    # a shifted b_n inside the map, and a smooth perturbation everywhere
    J0 = _random_pattern(p)
    for db in (lambda n: np.where(n == 3 * p + 1, 0.3, 0.0),
               lambda n: 0.05 * np.sin(1.3 * n)):
        J = _periodic_as_params(J0, db)
        blocks = delta_of_J(J0, J, K)
        A, B = block_map_sparse(J0, J, K)
        # the complex copies keep the sign of every zero of the real parts
        assert blocks.A.tobytes() == A.astype(complex).tobytes()
        assert blocks.B.tobytes() == B.astype(complex).tobytes()


@pytest.mark.parametrize("p", range(1, 7))
def test_the_transfer_product_has_the_bits_of_the_four_entry_loop(p):
    # the block map is held to the same loop on CSR matrices by
    # test_block_map_has_the_bits_of_the_sparse_block_map
    J0 = _random_pattern(p)
    x = np.linspace(-3.0, 3.0, 61)
    D = product_trace_stepwise(J0, x)
    assert discriminant(J0, x).tobytes() == D.tobytes()
    X = np.zeros((len(x), 2, 2))
    X[:, 0, 0] = X[:, 1, 1] = x
    X[:, 0, 1] = 1.0
    R = product_trace_stepwise(J0, X, np.eye(2), operator.matmul)
    value, slope = J0.transfer_trace(x)
    assert value.tobytes() == R[:, 0, 0].tobytes() == D.tobytes()
    assert slope.tobytes() == R[:, 0, 1].tobytes()


@pytest.mark.parametrize("p", (16, 24))
def test_block_map_of_a_long_generator_keeps_its_interior_blocks(p):
    # Horner on the monomial coefficients left Frobenius norms up to
    # 6.0e-10 at p = 16 and 5.2e-7 at p = 24 in these blocks
    J0 = _random_pattern(p)
    blocks = delta_of_J(J0, _periodic_as_params(J0), 16)
    assert np.max(np.linalg.norm(blocks.B[1:], axis=(1, 2))) <= 1e-10
    assert np.max(np.linalg.norm(blocks.A[1:] - np.eye(p),
                                 axis=(1, 2))) <= 1e-10


# -- normal forms ------------------------------------------------------


def _blocks(rng, ell, nA, nB):
    """General block data with nA off-diagonal and nB diagonal blocks."""
    A = np.eye(ell) + 0.3 * (rng.standard_normal((nA, ell, ell))
                             + 1j * rng.standard_normal((nA, ell, ell)))
    H = (rng.standard_normal((nB, ell, ell))
         + 1j * rng.standard_normal((nB, ell, ell)))
    return BlockJacobiParams(ell, A, (H + H.conj().swapaxes(1, 2)) / 2)


@given(st.integers(1, 4), st.integers(2, 8), st.integers(0, 2**32))
@settings(max_examples=30, deadline=None)
def test_type1_blocks_are_hermitian_positive_definite_and_obey_hadamard(
        ell, K, seed):
    # the normalize_type1 docstring: each A_j is exactly Hermitian and
    # positive definite, so det A_j <= prod diag A_j up to rounding
    [(t1, _)] = normalize_type1([_blocks(np.random.default_rng(seed),
                                         ell, K - 1, K)])
    A = t1.A
    assert np.array_equal(A, A.conj().swapaxes(1, 2))
    assert np.all(np.linalg.eigvalsh(A)[:, 0] > 0.0)
    det = np.linalg.det(A).real
    diag = np.prod(np.diagonal(A, axis1=1, axis2=2).real, axis=1)
    assert np.all(det <= diag + 1e-12)


@given(st.integers(1, 3), st.integers(2, 6), st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_normal_forms_preserve_data_and_have_structure(ell, K, seed):
    rng = np.random.default_rng(seed)
    Jb = _blocks(rng, ell, K - 1, K)
    [(t3, c3)] = normalize_type3([Jb])
    [(t1, c1)] = normalize_type1([Jb])
    for Ablk in t3.A:
        assert np.max(np.abs(np.triu(Ablk, k=1))) == 0.0
        d = np.diagonal(Ablk)
        assert np.all(d.imag == 0.0) and np.all(d.real > 0.0)
    for Ablk in t1.A:
        assert np.max(np.abs(Ablk - Ablk.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh((Ablk + Ablk.conj().T) / 2)) > 0.0
    # the chains actually realize the normal forms
    for t, c in ((t3, c3), (t1, c1)):
        redone = c.apply(Jb)
        worst = max(max(np.max(np.abs(x - y)) for x, y in zip(redone.A, t.A))
                    if len(t.A) else 0.0,
                    max(np.max(np.abs(x - y)) for x, y in zip(redone.B, t.B)))
        assert worst < 1e-12


def test_normalizing_a_normal_form_is_the_identity():
    rng = np.random.default_rng(77)
    Jb = _blocks(rng, 3, 4, 5)
    [(t3, _)] = normalize_type3([Jb])
    [(again, chain)] = normalize_type3([t3])
    assert all(np.array_equal(x, y) for x, y in zip(again.A, t3.A))
    assert all(np.array_equal(u, np.eye(3)) for u in chain.u)


def _bits(params, chain):
    return (params.type_tag, params.A.tobytes(), params.B.tobytes(),
            chain.u.tobytes())


@pytest.mark.parametrize("normalize", [normalize_type3, normalize_type1])
def test_a_list_normalizes_bit_for_bit_as_each_input_alone(normalize):
    # block sizes 1-4, len(A) = len(B) and len(B) - 1, 2-40 blocks, and
    # one input already in each form: the stacked steps pad the shorter
    # inputs of a size group with identity blocks
    rng = np.random.default_rng(15)
    inputs = [_blocks(rng, ell, nA, nB) for ell, nA, nB in
              ((2, 39, 40), (1, 2, 2), (3, 16, 17), (4, 9, 9), (2, 4, 5),
               (1, 33, 33), (3, 1, 2), (2, 12, 12))]
    [(t3, _)] = normalize_type3([_blocks(rng, 3, 7, 8)])
    [(t1, _)] = normalize_type1([_blocks(rng, 2, 6, 6)])
    inputs[3:3] = [t3, t1]
    batch = normalize(inputs)
    assert len(batch) == len(inputs)
    for Jb, got in zip(inputs, batch):
        [alone] = normalize([Jb])
        assert _bits(*got) == _bits(*alone)
    # the input already in the requested form comes back as it is
    exact = t3 if normalize is normalize_type3 else t1
    params, chain = batch[inputs.index(exact)]
    assert params.A.tobytes() == exact.A.tobytes()
    assert params.B.tobytes() == exact.B.tobytes()
    assert np.array_equal(chain.u, np.broadcast_to(np.eye(exact.block_size),
                                                   chain.u.shape))


def test_an_empty_list_normalizes_to_an_empty_list():
    assert normalize_type3([]) == [] and normalize_type1([]) == []


@pytest.mark.parametrize("normalize", [normalize_type3, normalize_type1])
def test_normal_forms_are_scale_covariant_bit_for_bit(normalize):
    # blocks scaled by 2^-45 pass the relative nonsingularity rule of
    # their construction; a power of two scales every step exactly, so
    # the chains are the same and the forms are the scaled forms
    scale = 2.0 ** -45
    inputs = [_random_blocks(SplitMix64(40 + i), 1 + i % 3, 12)
              for i in range(6)]
    small = [BlockJacobiParams(Jb.block_size, scale * Jb.A, scale * Jb.B)
             for Jb in inputs]
    for (t, c), (ts, cs) in zip(normalize(inputs), normalize(small)):
        assert cs.u.tobytes() == c.u.tobytes()
        assert ts.A.tobytes() == (scale * t.A).tobytes()
        assert ts.B.tobytes() == (scale * t.B).tobytes()
        assert ts.type_tag == t.type_tag


@pytest.mark.parametrize("normalize", [normalize_type3, normalize_type1])
def test_normal_forms_check_each_output_once(normalize, monkeypatch):
    # the outputs' joint construction is their one check: no intermediate
    # parameter set is built, an input already in form is checked once
    # too, and the per-block rule sees every output block exactly once
    rng = np.random.default_rng(17)
    inputs = [_blocks(rng, ell, nA, nB) for ell, nA, nB in
              ((2, 9, 10), (1, 4, 4), (3, 5, 6), (2, 3, 3))]
    [(exact, _)] = normalize([_blocks(rng, 2, 6, 7)])
    inputs.append(exact)
    checked, ruled = [], []
    real, rule = sequences.validate_blocks, sequences._block_rule
    monkeypatch.setattr(sequences, "validate_blocks",
                        lambda *Jbs: checked.extend(Jbs) or real(*Jbs))
    monkeypatch.setattr(sequences, "_block_rule",
                        lambda A, B, tag: ruled.append((A, B)) or rule(A, B, tag))
    out = normalize(inputs)
    assert sorted(map(id, checked)) == sorted(id(t) for t, _ in out)
    for part in (0, 1):
        seen = sorted(blk.tobytes() for stacks in ruled for blk in stacks[part])
        assert seen == sorted(blk.tobytes() for t, _ in out
                              for blk in (t.A, t.B)[part])


# -- isospectral torus -------------------------------------------------


def test_torus_point_theta_zero_returns_reference(monkeypatch):
    J0 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
    calls = []
    real = periodic.discriminant
    monkeypatch.setattr(periodic, "discriminant",
                        lambda *args: calls.append(1) or real(*args))
    assert torus_point(J0, (0.0,)) is J0
    # nothing to compare: J0's discriminant is J0's
    assert calls == []
    torus_point(J0, (0.7,))
    assert calls


@pytest.mark.parametrize("theta", [0.4, 1.5, math.pi, 4.0, 6.0])
def test_torus_points_share_the_discriminant(theta):
    J0 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
    pt = torus_point(J0, (theta,))
    back = _monomial_coeffs(pt)
    assert np.max(np.abs(back - _monomial_coeffs(J0))) < 1e-9
    # conserved elementary combinations
    assert pt.a[0] * pt.a[1] == pytest.approx(0.5, abs=1e-10)
    assert sum(pt.b) == pytest.approx(-0.1, abs=1e-10)


def test_a_torus_point_off_the_family_raises(monkeypatch):
    # plant a Dirichlet map whose generator has b_1 moved by 0.1: its
    # discriminant is no longer J0's
    J0 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
    real = _DirichletMap.__call__

    def planted(self, theta):
        a, b = real(self, theta)
        return a, b + np.array([0.1, 0.0])

    monkeypatch.setattr(_DirichletMap, "__call__", planted)
    with pytest.raises(ValueError, match="discriminant mismatch"):
        torus_point(J0, (0.7,))


def test_closed_gap_family_is_degenerate():
    with pytest.raises(GapClosed):
        torus_point(PeriodicJacobi((1.0, 1.0), (0.0, 0.0)), (0.7,))


def test_period_three_torus_point():
    J0 = PeriodicJacobi((1.0, 0.8, 1.1), (0.2, -0.1, 0.3))
    pt = torus_point(J0, (0.9, -0.6))
    back = _monomial_coeffs(pt)
    assert np.max(np.abs(back - _monomial_coeffs(J0))) < 1e-9


def test_dm_weights_are_geometric():
    w = dm_weights(5.0)
    assert len(w) >= 41
    assert w[0] == 1.0
    ratios = w[1:] / w[:-1]
    assert np.max(np.abs(ratios - math.exp(-1.0))) < 1e-15


def test_distance_to_torus_vanishes_on_the_family():
    J0 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
    pt = torus_point(J0, (1.1,))
    J = _periodic_as_params(pt)
    for m in (1, 2, 7):
        assert d_to_torus(J, m, J0) < 1e-6


def test_distance_is_bounded_by_reference_offset():
    # the minimized distance cannot exceed the weighted distance to any
    # single family member, e.g. the reference itself
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.1))
    J = _periodic_as_params(J0, lambda n: 0.3 / n)
    w = dm_weights(10.0)
    K = len(w) - 1
    for m in (1, 3):
        hi = m + K
        da = np.abs(J.a_window(hi)[m - 1:]
                    - np.array([J0.a[(n - 1) % 2] for n in range(m, hi + 1)]))
        db = np.abs(J.b_window(hi)[m - 1:]
                    - np.array([J0.b[(n - 1) % 2] for n in range(m, hi + 1)]))
        manual = float((da + db) @ w)
        assert d_to_torus(J, m, J0) <= manual + 1e-9


def test_batch_distances_agree_with_single_calls():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.1))
    J = _periodic_as_params(J0, lambda n: 0.2 / n)
    ms = np.array([1, 2, 5, 9, 40, 41])
    batch = d_to_torus_batch(J, ms, J0)
    singles = np.array([d_to_torus(J, int(m), J0) for m in ms])
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("amp", [0.5, 400.0])
def test_generator_and_its_finite_prefix_give_the_same_distances(amp):
    # the weights are cut where the sup of the coefficients read says, so
    # a generator-backed J and the array of its first values share them:
    # 41 weights at amp = 0.5, 43 at amp = 400
    J = _periodic_as_params(P3, lambda n: amp / n)
    F = JacobiParams(J.a_window(199), J.b_window(200))
    ms = np.arange(1, 41)
    assert (d_to_torus_batch(J, ms, P3).tobytes()
            == d_to_torus_batch(F, ms, P3).tobytes())


# the torus inputs of thm6_1 and conjecture5_1_explore at the default
# pattern; the first two repeat a few windows at every offset
DEFAULT = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
SCENARIO_INPUTS = {
    "torus_point": lambda: _periodic_as_params(
        torus_point(DEFAULT, (1.3,))),
    "sparse_bumps": lambda: _periodic_as_params(
        DEFAULT, lambda n: np.where((n > 1) & _is_pow2(n), 0.4, 0.0)),
    "harmonic": lambda: _periodic_as_params(
        DEFAULT, lambda n: 1.0 / n),
}


@pytest.mark.parametrize("name, n, distinct",
                         [("torus_point", 300, 2), ("sparse_bumps", 600, 70)])
def test_offsets_sharing_a_window_get_the_single_call_distance(
        name, n, distinct, monkeypatch):
    J = SCENARIO_INPUTS[name]()
    ms = np.arange(1, n + 1)
    searched = []
    real = periodic._distinct_rows

    def spy(rows):
        reps, share = real(rows)
        searched.append(len(reps))
        return reps, share

    monkeypatch.setattr(periodic, "_distinct_rows", spy)
    batch = d_to_torus_batch(J, ms, DEFAULT)
    assert searched == [distinct]
    singles = np.array([d_to_torus(J, int(m), DEFAULT) for m in ms])
    assert np.array_equal(batch, singles)


@pytest.mark.parametrize("name", ["torus_point", "sparse_bumps"])
def test_colliding_row_keys_leave_the_distances_unchanged(name, monkeypatch):
    J = SCENARIO_INPUTS[name]()
    ms = np.arange(1, 201)
    expected = d_to_torus_batch(J, ms, DEFAULT)
    # one key for every row of every block: only the bitwise check can
    # tell rows apart
    keyed = []

    def collide(A, B, phase):
        keyed.append(len(A))
        return np.zeros(len(A), dtype=np.uint64)

    monkeypatch.setattr(periodic, "_row_keys", collide)
    assert np.array_equal(d_to_torus_batch(J, ms, DEFAULT), expected)
    assert sum(keyed) == len(ms)


def _harmonic_batch_peak(n):
    """tracemalloc peak of one d_to_torus_batch call over offsets 1..n
    of the harmonic input."""
    J = SCENARIO_INPUTS["harmonic"]()
    ms = np.arange(1, n + 1)
    tracemalloc.start()
    try:
        d_to_torus_batch(J, ms, DEFAULT)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_search_memory_stays_near_one_copy_of_the_rows():
    # every offset of the harmonic input has its own window, so nothing
    # is shared; the search holds O(1) numbers per offset (1.81 MiB
    # here) and gathers windows one block of rows at a time, so rows of
    # L sites for every offset at once (8.4 MiB) cross the bound
    assert _harmonic_batch_peak(4096) <= 3.0 * 2 ** 20


def test_batch_search_memory_grows_by_o1_per_offset():
    # twice the offsets of the test above: 3.03 MiB here, where rows of
    # L sites for every offset would take 16.7 MiB
    assert _harmonic_batch_peak(2 ** 13) <= 4.0 * 2 ** 20


def _finite_unbounded():
    """A finite J with no declared deviation bound."""
    rng = np.random.default_rng(11)
    return JacobiParams(1.0 + 0.1 * rng.standard_normal(1100),
                        0.2 * rng.standard_normal(1100))


@pytest.mark.parametrize("n", [511, 512, 513, 1025])
@pytest.mark.parametrize("name", ["harmonic", "no_bound"])
def test_row_blocks_leave_the_distances_unchanged(name, n, monkeypatch):
    # the distance kernel gathers at most _BLOCK (512) rows at a time;
    # these row counts end a block one row early, exactly, one row late
    # and one row into a third block, and at n = 1025 the last of the
    # 513 odd offsets (phase 0) shares the second block with the even ones
    J = (_finite_unbounded() if name == "no_bound"
         else SCENARIO_INPUTS["harmonic"]())
    ms = np.arange(1, n + 1)
    batch = d_to_torus_batch(J, ms, DEFAULT)
    with monkeypatch.context() as patch:
        patch.setattr(periodic, "_BLOCK", 10 ** 9)
        assert np.array_equal(d_to_torus_batch(J, ms, DEFAULT), batch)
    # offsets next to the block edges, each searched alone
    near = np.unique(np.clip([1, 2, 509, 510, 511, 512, 513, 1022, 1023,
                              1024, 1025, n - 1, n], 1, n))
    singles = np.array([d_to_torus(J, int(m), DEFAULT) for m in near])
    assert np.array_equal(batch[near - 1], singles)


@pytest.mark.parametrize("p", [2, 3])
def test_distance_kernel_gives_the_bits_of_full_rows(p):
    # the weighted distance of gathered blocks, weighted phase run by
    # phase run, against full (rows, L) coefficient and weight matrices;
    # the rows come unsorted and repeated, over three blocks
    J = _finite_unbounded()
    rng = np.random.default_rng(p)
    ms = rng.integers(1, 1000, 1100)
    rows = periodic._Rows(J, ms, dm_weights(8.0), p)
    L = rows.w.shape[1]
    idx = rng.integers(0, len(ms), 1300)
    sites = (rows.period[idx] * p)[:, None] + np.arange(L)
    a_pad, b_pad = (np.concatenate([x, np.zeros(2 * L)])
                    for x in (J.a_window(len(J) - 1), J.b_window(len(J))))
    W = rows.w[rows.phase[idx]]
    a = rng.uniform(0.5, 1.5, (len(idx), p))
    b = rng.uniform(-1.0, 1.0, (len(idx), p))
    full = np.einsum("ij,ij->i", W,
                     np.abs(a_pad[sites] - np.tile(a, L // p))
                     + np.abs(b_pad[sites] - np.tile(b, L // p)))
    assert np.array_equal(periodic._weighted_dist(rows, idx, a, b), full)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_row_windows_hold_each_site_in_its_period_phase(p):
    # unsorted and repeated offsets; the windows at shift s start at
    # every position of a chunk row, so many run into the next one
    J = _finite_unbounded()
    rng = np.random.default_rng(40 + p)
    ms = rng.integers(1, 1000, 300)
    ms = np.concatenate([ms, ms[::7]])
    rows = periodic._Rows(J, ms, dm_weights(8.0), p)
    a, b = J.a_window(len(J) - 1), J.b_window(len(J))
    for s in range(p):
        wa, wb = rows.windows(s)
        assert wa.shape == wb.shape == (len(ms), p)
        for i, m in enumerate(ms):
            for n in range(m + s, m + s + p):
                q = (n - 1) % p
                assert wa[i, q] == a[n - 1] and wb[i, q] == b[n - 1]


def test_distance_calls_allocate_no_coefficient_block():
    # a block's coefficients and patterns go into buffers that the first
    # call sizes, so a later full-block call allocates a small share of
    # one (512, L) block (its output and the phase runs), where fresh
    # gathered and tiled arrays would hold three such blocks at once
    J = _finite_unbounded()
    rng = np.random.default_rng(39)
    ms = rng.integers(1, 1000, 600)
    rows = periodic._Rows(J, ms, dm_weights(8.0), 2)
    idx = np.arange(512)
    a = rng.uniform(0.5, 1.5, (512, 2))
    b = rng.uniform(-1.0, 1.0, (512, 2))
    first = periodic._weighted_dist(rows, idx, a, b)
    tracemalloc.start()
    try:
        for _ in range(5):
            assert np.array_equal(periodic._weighted_dist(rows, idx, a, b),
                                  first)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 512 * rows.w.shape[1] * 8


@pytest.mark.parametrize("block", [3, 7])
def test_row_pairs_in_odd_blocks_leave_the_distances_unchanged(
        block, monkeypatch):
    # with every key equal, the bitwise check gathers each row next to
    # its group's first row, whole pairs per gather, also when a block
    # holds an odd number of rows
    J = SCENARIO_INPUTS["sparse_bumps"]()
    ms = np.arange(1, 201)
    expected = d_to_torus_batch(J, ms, DEFAULT)
    monkeypatch.setattr(periodic, "_row_keys",
                        lambda A, B, phase: np.zeros(len(A), dtype=np.uint64))
    monkeypatch.setattr(periodic, "_BLOCK", block)
    assert np.array_equal(d_to_torus_batch(J, ms, DEFAULT), expected)


# -- the Dirichlet-data map for every period ---------------------------

P2 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
P3 = PeriodicJacobi((1.0, 0.6, 0.8), (0.1, -0.2, 0.0))
P4 = PeriodicJacobi((1.0, 0.6, 0.8, 1.2), (0.1, -0.2, 0.0, 0.3))


P1 = PeriodicJacobi((2.0,), (0.5,))


@pytest.mark.parametrize("J0", [P1, P2, P3, P4], ids=["p1", "p2", "p3", "p4"])
def test_transfer_trace_is_the_discriminant_and_its_derivative(J0):
    x = np.linspace(-3.0, 3.0, 61)
    D, slope = J0.transfer_trace(x)
    coeffs = _monomial_coeffs(J0)
    assert np.array_equal(D, discriminant(J0, x))
    assert np.allclose(D, npp.polyval(x, coeffs), rtol=1e-12, atol=1e-12)
    assert np.allclose(slope, npp.polyval(x, npp.polyder(coeffs)),
                       rtol=1e-12, atol=1e-12)
    if J0.p == 1:
        # D(x) = (x - b) / a, so D' = 1 / a exactly
        assert np.all(slope == 0.5)


@pytest.mark.parametrize("J0", [P2, P3, P4], ids=["p2", "p3", "p4"])
def test_torus_map_keeps_the_discriminant_and_anchors_the_source(J0):
    family = _DirichletMap(J0)
    a0, b0 = family(np.zeros((1, J0.p - 1)))
    assert np.max(np.abs(a0[0] - J0.a)) < 1e-12
    assert np.max(np.abs(b0[0] - J0.b)) < 1e-12
    rng = np.random.default_rng(J0.p)
    a, b = family(rng.uniform(0.0, 2.0 * math.pi, (200, J0.p - 1)))
    for ai, bi in zip(a, b):
        back = _monomial_coeffs(PeriodicJacobi(tuple(ai), tuple(bi)))
        assert np.max(np.abs(back - _monomial_coeffs(J0))) < 1e-9


def _p2_closed_form(coeffs, t, sheet):
    """Period-2 generator with a_1^2 = t matching the discriminant with
    monomial ``coeffs``: a_1 a_2 = P, b_1 + b_2 = S and b_1 b_2 - a_1^2 -
    a_2^2 = Q fix everything but the b-assignment, chosen by ``sheet``."""
    P = 1.0 / coeffs[2]
    S = -coeffs[1] * P
    Q = coeffs[0] * P
    a1 = math.sqrt(t)
    d = max(S * S - 4.0 * (Q + t + P * P / t), 0.0)
    b1 = 0.5 * S + 0.5 * sheet * math.sqrt(d)
    return np.array([a1, P / a1]), np.array([b1, S - b1])


def test_period_two_map_sweeps_the_closed_form_family():
    coeffs = _monomial_coeffs(P2)
    P = 1.0 / coeffs[2]
    S = -coeffs[1] * P
    R = (S * S - 4.0 * coeffs[0] * P) / 4.0
    root = math.sqrt(R * R - 4.0 * P * P)
    t_lo, t_hi = (R - root) / 2.0, (R + root) / 2.0
    a, b = _DirichletMap(P2)(2.0 * math.pi * np.arange(64)[:, None] / 64)
    t = a[:, 0] ** 2
    assert t.min() >= t_lo - 1e-12 and t.max() <= t_hi + 1e-12
    for ai, bi, ti in zip(a, b, t):
        gap = min(max(np.max(np.abs(ai - ca)), np.max(np.abs(bi - cb)))
                  for ca, cb in (_p2_closed_form(coeffs, ti, s)
                                 for s in (1.0, -1.0)))
        assert gap < 1e-9
    # the sweep covers the whole family: both ends of [t_lo, t_hi]
    assert t.min() - t_lo < 0.01 * (t_hi - t_lo)
    assert t_hi - t.max() < 0.01 * (t_hi - t_lo)


@pytest.mark.parametrize("J0", [P2, P3, P4], ids=["p2", "p3", "p4"])
def test_torus_points_of_a_batch_share_one_map_call(J0, monkeypatch):
    p = J0.p
    theta = np.repeat(2.0 * math.pi * np.arange(64)[:, None] / 64, p - 1,
                      axis=1)
    built, called = [], []
    init, call = _DirichletMap.__init__, _DirichletMap.__call__
    monkeypatch.setattr(_DirichletMap, "__init__",
                        lambda self, J: built.append(J) or init(self, J))
    monkeypatch.setattr(_DirichletMap, "__call__", lambda self, th:
                        called.append(len(th)) or call(self, th))
    a, b = periodic._torus_points(J0, theta)
    assert built == [J0] and called == [63]
    assert a.shape == b.shape == (64, p)
    # a row of zeros carries J0's bits, and a batch of them builds no map
    pattern = np.array(J0.a + J0.b)
    assert np.concatenate([a[0], b[0]]).tobytes() == pattern.tobytes()
    za, zb = periodic._torus_points(J0, np.zeros((3, p - 1)))
    assert np.hstack([za, zb]).tobytes() == np.tile(pattern, (3, 1)).tobytes()
    assert len(built) == 1
    monkeypatch.undo()
    # every member has the bits of its own torus_point call
    for th, ai, bi in zip(theta[1:], a[1:], b[1:]):
        alone = torus_point(J0, th)
        assert np.concatenate([ai, bi]).tobytes() == \
            np.array(alone.a + alone.b).tobytes()


def test_a_torus_sample_off_the_family_raises(monkeypatch):
    # only the last row of the batch is planted off the family
    real = _DirichletMap.__call__

    def planted(self, theta):
        a, b = real(self, theta)
        b[-1, 0] += 0.1
        return a, b

    monkeypatch.setattr(_DirichletMap, "__call__", planted)
    theta = np.linspace(0.0, 6.0, 16)[:, None]
    with pytest.raises(ValueError, match="discriminant mismatch"):
        periodic._torus_points(P2, theta)
    monkeypatch.undo()
    a, b = periodic._torus_points(P2, theta)
    assert a.shape == b.shape == (16, 2)


def _alone_error(J0, a, b):
    """The error that the sample (a, b) raises when it is checked on its
    own: its PeriodicJacobi construction, then its discriminant against
    J0's at the p + 1 Chebyshev-Lobatto points of J0's Gershgorin
    interval."""
    try:
        J = PeriodicJacobi(tuple(a), tuple(b))
    except ValueError as exc:
        return str(exc)
    lo, hi = min(J0.b) - 2.0 * max(J0.a), max(J0.b) + 2.0 * max(J0.a)
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(
        math.pi * np.arange(J0.p + 1) / J0.p)
    want = discriminant(J0, x)
    diff = float(np.max(np.abs(discriminant(J, x) - want)))
    assert diff > 1e-9 * max(1.0, float(np.max(np.abs(want))))
    return f"discriminant mismatch {diff} for torus point"


def _nan_a(a, b):
    a[1] = math.nan


def _inf_b(a, b):
    b[0] = math.inf


def _off_family(a, b):
    b[0] += 0.1


def _negative_a(a, b):
    # two sign flips leave the discriminant as it was
    a[:2] *= -1.0


@pytest.mark.parametrize("first, later", [
    (_nan_a, _inf_b), (_inf_b, _nan_a), (_off_family, _nan_a),
    (_negative_a, _off_family), (_nan_a, _off_family)])
def test_the_first_failing_torus_sample_raises_its_own_error(first, later,
                                                             monkeypatch):
    # a fault planted at a middle sample, and a later sample with another
    # fault: the middle one raises, with the error it raises alone
    real = _DirichletMap.__call__
    planted = {}

    def plant(self, theta):
        a, b = real(self, theta)
        first(a[6], b[6])
        later(a[10], b[10])
        planted["row"] = a[6].copy(), b[6].copy()
        return a, b

    monkeypatch.setattr(_DirichletMap, "__call__", plant)
    with pytest.raises(ValueError) as err:
        periodic._torus_points(P3, np.linspace(0.0, 6.0, 16)[:, None]
                               * np.array([1.0, -0.5]))
    assert str(err.value) == _alone_error(P3, *planted["row"])
    if first is _nan_a:
        assert str(err.value) == "a_2 = nan must be > 0 and finite"


def test_a_large_torus_batch_builds_no_pattern_and_one_discriminant(
        monkeypatch):
    n, p = 2 ** 14, P3.p
    built, calls = [], []
    post_init, real = PeriodicJacobi.__post_init__, periodic.discriminant
    monkeypatch.setattr(PeriodicJacobi, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(periodic, "discriminant", lambda J, x:
                        calls.append(np.shape(x)) or real(J, x))
    theta = np.repeat(2.0 * math.pi * np.arange(n)[:, None] / n, p - 1,
                      axis=1)
    a, b = periodic._torus_points(P3, theta)
    assert a.shape == b.shape == (n, p)
    assert built == []
    # the map's two, at J0's own Dirichlet points when it is built and at
    # every sample's in its one call, and one for J0's values at the
    # p + 1 points that every sample is compared at
    assert calls == [(1, p - 1), (n - 1, p - 1), (p + 1,)]


@pytest.mark.parametrize("p", range(1, 7))
def test_the_stacked_transfer_product_has_the_bits_of_each_pattern(p):
    rng = np.random.default_rng(100 + p)
    a = rng.uniform(0.5, 1.5, (40, p))
    b = rng.uniform(-0.5, 0.5, (40, p))
    x = np.linspace(-3.0, 3.0, 61)
    D = periodic._product_trace(np.hsplit(a, p), np.hsplit(b, p), x)
    assert D.shape == (40, len(x))
    for ai, bi, Di in zip(a, b, D):
        alone = product_trace_stepwise(PeriodicJacobi(tuple(ai), tuple(bi)), x)
        assert Di.tobytes() == alone.tobytes()


def test_the_parser_and_the_torus_refuse_a_closed_gap_alike():
    closed = PeriodicJacobi((1.0, 1.0), (0.0, 0.0))
    message = "period 2 needs 2 bands (every gap open), found 1"
    with pytest.raises(GapClosed, match=re.escape(message)):
        _DirichletMap(closed)
    with pytest.raises(GapClosed, match=re.escape(message)):
        scenarios._pattern("1,1,0,0")


@pytest.mark.parametrize("J0", [P2, P3, P4], ids=["p2", "p3", "p4"])
def test_inverse_map_gives_the_coefficients_back(J0):
    family = _DirichletMap(J0)
    rng = np.random.default_rng(J0.p)
    theta = rng.uniform(0.0, 2.0 * math.pi, (200, J0.p - 1))
    # and angles 1e-2 .. 1e-8 from both gap edges of the first coordinate
    near = 10.0 ** -np.arange(2, 9)
    near = np.concatenate([near, -near])
    edge = np.ones((2 * len(near), J0.p - 1))
    edge[:, 0] = np.concatenate([near, near + math.pi])
    theta = np.concatenate([theta, edge - family.shift])
    a, b = family(theta)
    a2, b2 = family(family.angles(a, b))
    err = np.maximum(np.max(np.abs(a2 - a), axis=1),
                     np.max(np.abs(b2 - b), axis=1))
    # the angle is ill-conditioned in the Dirichlet point near a gap edge
    sin = np.min(np.abs(np.sin(theta + family.shift)), axis=1)
    assert np.all(err <= np.where(sin >= 1e-2, 1e-12, 1e-14 / sin))


def _search_starts(family, J, m):
    """The search's starts at offset m: the grid, and the inverse-map
    angles of the windows at sites m + s .. m + s + p - 1 read into
    period phase."""
    p = family.p
    grid = 2.0 * math.pi / _GRID_POINTS * np.array(
        list(itertools.product(range(_GRID_POINTS), repeat=p - 1)),
        dtype=float)
    a, b = J.a_window(m + 2 * p), J.b_window(m + 2 * p)
    phase = [[n - 1 + (q - n + 1) % p for q in range(p)]
             for n in range(m, m + p)]
    return np.concatenate([grid, family.angles(a[phase], b[phase])])


def test_the_map_is_single_valued_and_the_search_beats_its_starts():
    family = _DirichletMap(P3)
    idx = np.array(list(itertools.product(range(12), repeat=2)), dtype=float)
    a12, b12 = family(2.0 * math.pi / 12 * idx)
    a24, b24 = family(2.0 * math.pi / 24 * (2.0 * idx))
    assert np.max(np.abs(a12 - a24)) < 1e-12
    assert np.max(np.abs(b12 - b24)) < 1e-12

    for J0 in (P2, P3):
        family = _DirichletMap(J0)
        J = _periodic_as_params(J0, lambda n: 0.5 / n)
        for m in range(1, 7):
            a, b = family(_search_starts(family, J, m))
            best_start = min(
                d_m(J, _periodic_as_params(PeriodicJacobi(tuple(x), tuple(y))),
                    m)
                for x, y in zip(a, b))
            d = d_to_torus(J, m, J0)
            assert d <= best_start + 1e-12
            assert d <= d_m(J, _periodic_as_params(J0), m) + 1e-12
    # a 64 x 64 grid with the same pattern search reaches 0.15962122898648104
    assert d_to_torus(_periodic_as_params(P3, lambda n: 0.5 / n),
                      2, P3) <= 0.15962122898648104 + 1e-12


@pytest.mark.parametrize("block", [1, 35, 10 ** 9],
                         ids=["one_generator", "uneven", "whole_grid"])
def test_grid_chunks_leave_the_distances_unchanged(block, monkeypatch):
    # five distinct rows take max(1, _BLOCK // 5) of the 64 grid
    # generators per distance call: one at a time, as in a loop over the
    # grid; chunks of 7, the last one short; or the whole grid at once
    J = _periodic_as_params(P3, lambda n: 0.5 / n)
    ms = np.arange(1, 6)
    expected = d_to_torus_batch(J, ms, P3)
    monkeypatch.setattr(periodic, "_BLOCK", block)
    assert np.array_equal(d_to_torus_batch(J, ms, P3), expected)


def test_period_three_torus_point_is_found_at_every_offset():
    J = _periodic_as_params(torus_point(P3, (0.9, -0.6)))
    d = d_to_torus_batch(J, np.arange(1, 201), P3)
    assert np.max(d) <= 1e-12


@pytest.mark.parametrize("J0", [P2, P4], ids=["p2", "p4"])
def test_period_two_and_four_torus_points_are_found_at_every_offset(J0):
    J = _periodic_as_params(torus_point(J0, (1.3,) * (J0.p - 1)))
    d = d_to_torus_batch(J, np.arange(1, 201), J0)
    assert np.max(d) <= 1e-12


def test_a_torus_point_batch_makes_no_map_call_after_its_starts(monkeypatch):
    # thm6_1's torus point at 2^12 offsets: both distinct rows are at
    # distance 0 after the starts, so the search has nothing to try
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    J = _periodic_as_params(torus_point(J0, (1.3,)))
    calls, call = [], _DirichletMap.__call__
    monkeypatch.setattr(_DirichletMap, "__call__",
                        lambda self, th: calls.append(1) or call(self, th))
    search, counts = periodic._pattern_search, []

    def spied(*args):
        counts.append(len(calls))
        search(*args)
        counts.append(len(calls))

    monkeypatch.setattr(periodic, "_pattern_search", spied)
    d = d_to_torus_batch(J, np.arange(1, 4097), J0)
    assert np.all(d == 0.0)
    assert counts[0] > 0 and counts[1] == counts[0]


# -- look-ahead rounds of the pattern search ---------------------------

TORUS_INPUTS = {
    "harmonic": lambda J0: _periodic_as_params(J0, lambda n: 1.0 / n),
    "half_over_n": lambda J0: _periodic_as_params(J0, lambda n: 0.5 / n),
    "sparse_bumps": lambda J0: _periodic_as_params(
        J0, lambda n: np.where((n > 1) & _is_pow2(n), 0.4, 0.0)),
    "torus_point": lambda J0: _periodic_as_params(
        torus_point(J0, (1.3,) * (J0.p - 1))),
}


def _sequential(J, ms, J0, monkeypatch):
    """d_to_torus_batch with the pattern search run one move at a time."""
    with monkeypatch.context() as patch:
        patch.setattr(periodic, "_pattern_search", sequential_pattern_search)
        return d_to_torus_batch(J, ms, J0)


@pytest.mark.parametrize("name", list(TORUS_INPUTS))
@pytest.mark.parametrize("J0", [P2, P3, P4], ids=["p2", "p3", "p4"])
def test_look_ahead_search_gives_the_sequential_bits(J0, name, monkeypatch):
    J = TORUS_INPUTS[name](J0)
    ms = np.arange(1, 201)
    assert np.array_equal(d_to_torus_batch(J, ms, J0),
                          _sequential(J, ms, J0, monkeypatch))
    for m in (1, 2, 7):
        assert np.array_equal(d_to_torus_batch(J, [m], J0),
                              _sequential(J, [m], J0, monkeypatch))


@pytest.mark.parametrize("rows", [1, 10 ** 9], ids=["none", "full"])
@pytest.mark.parametrize("J0", [P2, P3, P4], ids=["p2", "p3", "p4"])
def test_the_look_ahead_size_leaves_the_distances_unchanged(J0, rows,
                                                            monkeypatch):
    # one row budget runs every search one move at a time, the other (with
    # rounds of any size allowed) puts every move of every row into the
    # first round of an iteration, at p = 2 too
    J = TORUS_INPUTS["half_over_n"](J0)
    ms = np.arange(1, 65)
    expected = _sequential(J, ms, J0, monkeypatch)
    monkeypatch.setattr(periodic, "_LOOKAHEAD_ROWS", rows)
    monkeypatch.setattr(periodic, "_MIN_LOOKAHEAD", 1)
    assert np.array_equal(d_to_torus_batch(J, ms, J0), expected)


def test_a_one_offset_search_makes_a_third_of_the_sequential_map_calls(
        monkeypatch):
    J = TORUS_INPUTS["half_over_n"](P3)
    calls = []
    real = _DirichletMap.__call__
    monkeypatch.setattr(_DirichletMap, "__call__",
                        lambda self, th: calls.append(1) or real(self, th))
    fast = d_to_torus_batch(J, [1], P3)
    n_fast = len(calls)
    slow = _sequential(J, [1], P3, monkeypatch)
    assert np.array_equal(fast, slow)
    assert 3 * n_fast <= len(calls) - n_fast


def test_look_ahead_memory_stays_near_the_sequential_search():
    # the search peaks at 0.64 MiB here one move at a time and at 0.70
    # MiB in rounds, most of it one gathered block of 512 (row, grid
    # generator) pairs; a round gathers at most _LOOKAHEAD_ROWS rows
    J = TORUS_INPUTS["harmonic"](P4)
    ms = np.arange(1, 129)
    tracemalloc.start()
    try:
        d_to_torus_batch(J, ms, P4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.07 * 2 ** 20


def test_an_empty_batch_gives_an_empty_array():
    d = d_to_torus_batch(TORUS_INPUTS["harmonic"](P2), [], P2)
    assert d.shape == (0,) and d.dtype == float
