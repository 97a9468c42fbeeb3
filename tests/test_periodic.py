import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opspectra.periodic import (_GRID_POINTS, ComplexRoots, Discriminant,
                                GapClosed, PeriodicJacobi, _DirichletMap,
                                bands, d_to_torus, d_to_torus_batch,
                                delta_of_J, discriminant, dm_weights,
                                normalize_type1, normalize_type3, torus_point)
from opspectra.regularity import d_m
from opspectra.sequences import BlockJacobiParams, JacobiParams, validate_blocks


def test_period_one_discriminant_is_linear():
    disc = discriminant(PeriodicJacobi((2.0,), (0.5,)))
    # (x - b) / a
    assert disc.coeffs == pytest.approx((-0.25, 0.5))
    assert disc.cap == pytest.approx(2.0)


def test_period_two_discriminant_closed_form():
    a1, a2, b1, b2 = 1.0, 0.5, 0.2, -0.3
    disc = discriminant(PeriodicJacobi((a1, a2), (b1, b2)))
    den = a1 * a2
    expect = ((b1 * b2 - a1 * a1 - a2 * a2) / den, -(b1 + b2) / den, 1.0 / den)
    assert disc.coeffs == pytest.approx(expect, abs=1e-14)


def test_discriminant_matches_numeric_transfer_product():
    # oracle: product of one-step transfer matrices at sample energies
    J0 = PeriodicJacobi((1.1, 0.7, 0.9), (0.2, 0.0, -0.4))
    disc = discriminant(J0)
    p = J0.p
    for x in (-2.3, -0.5, 0.1, 1.7, 3.0):
        T = np.eye(2)
        for n in range(p):
            an = J0.a[n]
            prev = J0.a[(n - 1) % p]
            step = np.array([[(x - J0.b[n]) / an, -prev / an], [1.0, 0.0]])
            T = step @ T
        assert disc.value(x) == pytest.approx(T[0, 0] + T[1, 1], abs=1e-10)


def _twisted_edges(J0):
    """Band edges as eigenvalues of the theta = 0 and theta = pi
    twisted one-period blocks."""
    p = J0.p
    out = []
    for sgn in (1.0, -1.0):
        m = np.zeros((p, p))
        for i in range(p):
            m[i, i] = J0.b[i]
        for i in range(p - 1):
            m[i, i + 1] = m[i + 1, i] = J0.a[i]
        if p == 1:
            m[0, 0] += 2.0 * sgn * J0.a[0]
        elif p == 2:
            m[0, 1] += sgn * J0.a[1]
            m[1, 0] += sgn * J0.a[1]
        else:
            m[0, p - 1] += sgn * J0.a[p - 1]
            m[p - 1, 0] += sgn * J0.a[p - 1]
        out.extend(np.linalg.eigvalsh(m).tolist())
    return np.sort(np.array(out))


@pytest.mark.parametrize("pattern", [
    ((2.0,), (0.3,)),
    ((1.0, 0.5), (0.0, 0.0)),
    ((1.0, 0.5), (0.2, -0.3)),
    ((1.1, 0.7, 0.9), (0.2, 0.0, -0.4)),
])
def test_bands_match_twisted_block_eigenvalues(pattern):
    J0 = PeriodicJacobi(*pattern)
    fg = bands(discriminant(J0))
    edges = np.sort(np.array([e for band in fg.bands for e in band]))
    oracle = _twisted_edges(J0)
    assert len(edges) == len(oracle)
    assert np.max(np.abs(edges - oracle)) < 1e-8
    assert fg.period_a == pytest.approx(J0.a)


def test_free_pattern_merges_to_single_band():
    fg = bands(discriminant(PeriodicJacobi((1.0, 1.0), (0.0, 0.0))))
    assert fg.n_bands == 1
    assert fg.bands[0] == pytest.approx((-2.0, 2.0), abs=1e-9)


def test_hand_built_discriminant_with_complex_roots_rejected():
    disc = Discriminant((1.0, 0.0, 1.0))  # x^2 + 1; x^2 + 3 has no real roots
    with pytest.raises(ComplexRoots):
        bands(disc)


# -- block map of a periodic generator ---------------------------------


def _periodic_params(J0, db=None, bound_extra=0.0):
    dev = max(abs(x - 1.0) for x in J0.a) + max(abs(x) for x in J0.b) \
        + bound_extra
    shift = db if db is not None else (lambda n: 0.0)
    a, b = np.array(J0.a), np.array(J0.b)
    return JacobiParams.from_functions(
        lambda n: a[(n - 1) % J0.p],
        lambda n: b[(n - 1) % J0.p] + shift(n), bound=dev)


def test_block_map_matches_dense_matrix_polynomial():
    J0 = PeriodicJacobi((1.2, 0.8), (0.1, -0.3))
    disc = discriminant(J0)
    K = 6
    J = _periodic_params(J0, lambda n: 0.05 * np.sin(1.3 * n),
                         bound_extra=0.05)
    blocks = delta_of_J(J0, J, K)
    p = J0.p
    n_sites = (K + 2) * p + p
    a = J.a_window(n_sites - 1)
    b = J.b_window(n_sites)
    dense = np.diag(b) + np.diag(a, 1) + np.diag(a, -1)
    # oracle: Horner-free evaluation through explicit matrix powers
    S = np.zeros_like(dense)
    P = np.eye(n_sites)
    for c in disc.coeffs:
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
    blocks = delta_of_J(J0, _periodic_params(J0), 16)
    eye = np.eye(2)
    for k in range(1, 17):
        assert np.max(np.abs(blocks.B[k])) < 1e-12
    for k in range(1, 16):
        assert np.max(np.abs(blocks.A[k] - eye)) < 1e-12
    assert blocks.type_tag == "type3"
    validate_blocks(blocks)


# -- normal forms ------------------------------------------------------


def _random_general_blocks(rng, ell, K):
    A = tuple((np.eye(ell) + 0.3 * (rng.standard_normal((ell, ell))
                                    + 1j * rng.standard_normal((ell, ell))))
              for _ in range(K - 1))
    H = [rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
         for _ in range(K)]
    B = tuple((h + h.conj().T) / 2 for h in H)
    return BlockJacobiParams(ell, A, B, "general")


@given(st.integers(1, 3), st.integers(2, 6), st.integers(0, 2**32))
@settings(max_examples=20, deadline=None)
def test_normal_forms_preserve_data_and_have_structure(ell, K, seed):
    rng = np.random.default_rng(seed)
    Jb = _random_general_blocks(rng, ell, K)
    t3, c3 = normalize_type3(Jb)
    t1, c1 = normalize_type1(Jb)
    for Ablk in t3.A:
        assert np.max(np.abs(np.triu(Ablk, k=1))) == 0.0
        d = np.diagonal(Ablk)
        assert np.all(d.imag == 0.0) and np.all(d.real > 0.0)
    for Ablk in t1.A:
        assert np.max(np.abs(Ablk - Ablk.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh((Ablk + Ablk.conj().T) / 2)) > 0.0
    # the chains actually realize the normal forms
    for t, c in ((t3, c3), (t1, c1)):
        redone = c.apply(Jb, t.type_tag)
        worst = max(max(np.max(np.abs(x - y)) for x, y in zip(redone.A, t.A))
                    if t.A else 0.0,
                    max(np.max(np.abs(x - y)) for x, y in zip(redone.B, t.B)))
        assert worst < 1e-12


def test_normalizing_a_normal_form_is_the_identity():
    rng = np.random.default_rng(77)
    Jb = _random_general_blocks(rng, 3, 5)
    t3, _ = normalize_type3(Jb)
    again, chain = normalize_type3(t3)
    assert all(np.array_equal(x, y) for x, y in zip(again.A, t3.A))
    assert all(np.array_equal(u, np.eye(3)) for u in chain.u)


# -- isospectral torus -------------------------------------------------


def test_torus_point_theta_zero_returns_reference():
    J0 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
    disc = discriminant(J0)
    pt = torus_point(disc, (0.0,))
    assert pt.jacobi.a == J0.a
    assert pt.jacobi.b == J0.b


@pytest.mark.parametrize("theta", [0.4, 1.5, math.pi, 4.0, 6.0])
def test_torus_points_share_the_discriminant(theta):
    J0 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
    disc = discriminant(J0)
    pt = torus_point(disc, (theta,))
    back = discriminant(pt.jacobi)
    assert np.max(np.abs(np.array(back.coeffs) - disc.coeffs)) < 1e-9
    # conserved elementary combinations
    assert pt.jacobi.a[0] * pt.jacobi.a[1] == pytest.approx(0.5, abs=1e-10)
    assert sum(pt.jacobi.b) == pytest.approx(-0.1, abs=1e-10)


def test_closed_gap_family_is_degenerate():
    disc = discriminant(PeriodicJacobi((1.0, 1.0), (0.0, 0.0)))
    with pytest.raises(GapClosed):
        torus_point(disc, (0.7,))


def test_period_three_torus_point():
    J0 = PeriodicJacobi((1.0, 0.8, 1.1), (0.2, -0.1, 0.3))
    disc = discriminant(J0)
    pt = torus_point(disc, (0.9, -0.6))
    back = discriminant(pt.jacobi)
    assert np.max(np.abs(np.array(back.coeffs) - disc.coeffs)) < 1e-9


def test_dm_weights_are_geometric():
    w = dm_weights(5.0)
    assert len(w) >= 41
    assert w[0] == 1.0
    ratios = w[1:] / w[:-1]
    assert np.max(np.abs(ratios - math.exp(-1.0))) < 1e-15


def test_distance_to_torus_vanishes_on_the_family():
    J0 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
    disc = discriminant(J0)
    pt = torus_point(disc, (1.1,))
    J = _periodic_params(pt.jacobi)
    for m in (1, 2, 7):
        assert d_to_torus(J, m, disc) < 1e-6


def test_distance_is_bounded_by_reference_offset():
    # the minimized distance cannot exceed the weighted distance to any
    # single family member, e.g. the reference itself
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.1))
    disc = discriminant(J0)
    J = _periodic_params(J0, lambda n: 0.3 / n, bound_extra=0.3)
    w = dm_weights(10.0)
    K = len(w) - 1
    for m in (1, 3):
        hi = m + K
        da = np.abs(J.a_window(hi)[m - 1:]
                    - np.array([J0.a[(n - 1) % 2] for n in range(m, hi + 1)]))
        db = np.abs(J.b_window(hi)[m - 1:]
                    - np.array([J0.b[(n - 1) % 2] for n in range(m, hi + 1)]))
        manual = float((da + db) @ w)
        assert d_to_torus(J, m, disc) <= manual + 1e-9


def test_batch_distances_agree_with_single_calls():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.1))
    disc = discriminant(J0)
    J = _periodic_params(J0, lambda n: 0.2 / n, bound_extra=0.2)
    ms = np.array([1, 2, 5, 9])
    batch = d_to_torus_batch(J, ms, disc)
    singles = np.array([d_to_torus(J, int(m), disc) for m in ms])
    assert np.max(np.abs(batch - singles)) < 1e-9


# -- the Dirichlet-data map for every period ---------------------------

P2 = PeriodicJacobi((1.0, 0.5), (0.2, -0.3))
P3 = PeriodicJacobi((1.0, 0.6, 0.8), (0.1, -0.2, 0.0))
P4 = PeriodicJacobi((1.0, 0.6, 0.8, 1.2), (0.1, -0.2, 0.0, 0.3))


@pytest.mark.parametrize("J0", [P2, P3, P4], ids=["p2", "p3", "p4"])
def test_torus_map_keeps_the_discriminant_and_anchors_the_source(J0):
    disc = discriminant(J0)
    family = _DirichletMap(disc)
    a0, b0 = family(np.zeros((1, J0.p - 1)))
    assert np.max(np.abs(a0[0] - J0.a)) < 1e-12
    assert np.max(np.abs(b0[0] - J0.b)) < 1e-12
    rng = np.random.default_rng(J0.p)
    a, b = family(rng.uniform(0.0, 2.0 * math.pi, (200, J0.p - 1)))
    for ai, bi in zip(a, b):
        back = discriminant(PeriodicJacobi(tuple(ai), tuple(bi)))
        assert np.max(np.abs(back.coeffs - disc.coeffs)) < 1e-9


def _p2_closed_form(disc, t, sheet):
    """Period-2 generator with a_1^2 = t matching disc: a_1 a_2 = P,
    b_1 + b_2 = S and b_1 b_2 - a_1^2 - a_2^2 = Q fix everything but the
    b-assignment, chosen by ``sheet``."""
    P = 1.0 / disc.coeffs[2]
    S = -disc.coeffs[1] * P
    Q = disc.coeffs[0] * P
    a1 = math.sqrt(t)
    d = max(S * S - 4.0 * (Q + t + P * P / t), 0.0)
    b1 = 0.5 * S + 0.5 * sheet * math.sqrt(d)
    return np.array([a1, P / a1]), np.array([b1, S - b1])


def test_period_two_map_sweeps_the_closed_form_family():
    disc = discriminant(P2)
    P = 1.0 / disc.coeffs[2]
    S = -disc.coeffs[1] * P
    R = (S * S - 4.0 * disc.coeffs[0] * P) / 4.0
    root = math.sqrt(R * R - 4.0 * P * P)
    t_lo, t_hi = (R - root) / 2.0, (R + root) / 2.0
    a, b = _DirichletMap(disc)(2.0 * math.pi * np.arange(64)[:, None] / 64)
    t = a[:, 0] ** 2
    assert t.min() >= t_lo - 1e-12 and t.max() <= t_hi + 1e-12
    for ai, bi, ti in zip(a, b, t):
        gap = min(max(np.max(np.abs(ai - ca)), np.max(np.abs(bi - cb)))
                  for ca, cb in (_p2_closed_form(disc, ti, s)
                                 for s in (1.0, -1.0)))
        assert gap < 1e-9
    # the sweep covers the whole family: both ends of [t_lo, t_hi]
    assert t.min() - t_lo < 0.01 * (t_hi - t_lo)
    assert t_hi - t.max() < 0.01 * (t_hi - t_lo)


@pytest.mark.parametrize("J0", [P2, P3, P4], ids=["p2", "p3", "p4"])
def test_inverse_map_gives_the_coefficients_back(J0):
    family = _DirichletMap(discriminant(J0))
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
    disc = discriminant(P3)
    family = _DirichletMap(disc)
    idx = np.array(list(itertools.product(range(12), repeat=2)), dtype=float)
    a12, b12 = family(2.0 * math.pi / 12 * idx)
    a24, b24 = family(2.0 * math.pi / 24 * (2.0 * idx))
    assert np.max(np.abs(a12 - a24)) < 1e-12
    assert np.max(np.abs(b12 - b24)) < 1e-12

    for J0 in (P2, P3):
        disc = discriminant(J0)
        family = _DirichletMap(disc)
        J = _periodic_params(J0, lambda n: 0.5 / n, bound_extra=0.5)
        for m in range(1, 7):
            a, b = family(_search_starts(family, J, m))
            best_start = min(
                d_m(J, _periodic_params(PeriodicJacobi(tuple(x), tuple(y))), m)
                for x, y in zip(a, b))
            d = d_to_torus(J, m, disc)
            assert d <= best_start + 1e-12
            assert d <= d_m(J, _periodic_params(J0), m) + 1e-12
    # a 64 x 64 grid with the same pattern search reaches 0.15962122898648104
    assert d_to_torus(_periodic_params(P3, lambda n: 0.5 / n, bound_extra=0.5),
                      2, discriminant(P3)) <= 0.15962122898648104 + 1e-12


def test_period_three_torus_point_is_found_at_every_offset():
    disc = discriminant(P3)
    J = _periodic_params(torus_point(disc, (0.9, -0.6)).jacobi)
    d = d_to_torus_batch(J, np.arange(1, 201), disc)
    assert np.max(d) <= 1e-12


@pytest.mark.parametrize("J0", [P2, P4], ids=["p2", "p4"])
def test_period_two_and_four_torus_points_are_found_at_every_offset(J0):
    disc = discriminant(J0)
    J = _periodic_params(torus_point(disc, (1.3,) * (J0.p - 1)).jacobi)
    d = d_to_torus_batch(J, np.arange(1, 201), disc)
    assert np.max(d) <= 1e-12
