"""Second routes that the tests hold the library to.

Each function here recomputes something the package computes (or
consumes) by a different method; no program calls them.
"""

import itertools
import math
import operator

import numpy as np
import scipy.sparse as sp
from mpmath import mp
from scipy.linalg import eigh_tridiagonal

from opspectra.measures import BreakdownAtStep, DiscreteMeasure
from opspectra.periodic import (_FINAL_STEP, PeriodicJacobi, _deviation_bound,
                                _weighted_dist, dm_weights)
from opspectra.sequences import (BlockJacobiParams, JacobiParams,
                                 VerblunskyParams)
from opspectra.spectra import _SAFMIN, eig_block


def tridiagonal_dense(d, e) -> np.ndarray:
    """The dense symmetric matrix with diagonal d and off-diagonal e,
    built entry by entry."""
    m = np.diag(np.asarray(d, dtype=float))
    idx = np.arange(len(d) - 1)
    m[idx, idx + 1] = e
    m[idx + 1, idx] = e
    return m


def tridiagonal_eigvals_mp(d, e, dps: int = 40) -> np.ndarray:
    """The eigenvalues of the tridiagonal matrix with diagonal d and
    off-diagonal e, ascending, from mpmath's symmetric solver at ``dps``
    digits, each rounded once to the nearest double."""
    with mp.workdps(dps):
        m = mp.matrix(tridiagonal_dense(d, e).tolist())
        return np.array(sorted(float(x) for x in
                               mp.eigsy(m, eigvals_only=True)))


def sturm_counts_stepwise(d, e, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift in xs of the tridiagonal
    matrix with diagonal d and off-diagonal e, via the signs of the
    LDL^T pivots q_k = d_k - x - e_{k-1}^2 / q_{k-1}, with the pivmin
    guard checked at every step: the count sweep as it ran before it ran
    in blocks."""
    e2 = np.asarray(e) ** 2
    pivmin = _SAFMIN * float(np.max(e2, initial=1.0))
    counts = np.zeros(len(xs), dtype=np.int64)
    q = d[0] - xs
    counts += q < 0.0
    for k in range(1, len(d)):
        small = np.abs(q) < pivmin
        if small.any():
            q = np.where(small, np.where(q < 0.0, -pivmin, pivmin), q)
        q = d[k] - xs - e2[k - 1] / q
        counts += q < 0.0
    return counts


def moment(m: DiscreteMeasure, k: int) -> float:
    """Power moment of a line measure, with compensated summation."""
    return math.fsum((m.weights * m.nodes ** k).tolist())


def gauss_rule(params: JacobiParams, N: int) -> DiscreteMeasure:
    """Gauss quadrature of the measure behind the given recurrence data.

    Nodes are the eigenvalues of the N-point truncation, weights the
    squared first components of the normalized eigenvectors: the
    moment-fidelity oracle for round trips through jacobi_from_measure.
    """
    b = params.b_window(N)
    a = params.a_window(N - 1) if N > 1 else np.empty(0)
    vals, vecs = eigh_tridiagonal(b, a)
    w = vecs[0, :] ** 2
    return DiscreteMeasure(vals, w / w.sum())


def verblunsky_from_measure(theta, weights, N: int) -> VerblunskyParams:
    """First N Verblunsky coefficients alpha_0..alpha_{N-1} of the circle
    measure with positive ``weights`` at the angles ``theta``, by the
    isometric Arnoldi process on the nodes: the O(M N^2) route that
    measures.szego_image is held to on symmetric measures.

    Arnoldi on diag(z), z_k = e^{i theta_k}, started from u_0 = sqrt(w),
    builds the vectors u_n = sqrt(w) phi_n of the orthonormal
    polynomials; each new vector is orthogonalized against all its
    predecessors twice, and every inner product is a pairwise ``np.sum``
    along the node axis.  Then alpha_n = -<z phi_n, phi_n^*> = -sum_k
    z_k^{1-n} u_{n,k}^2 with phi_n^* = z^n conj(phi_n): the sign of the
    recursion Phi_{n+1} = z Phi_n + alpha_n Phi_n^* used throughout the
    package, so alpha_0 = -integral of z (Gragg, J. Comput. Appl. Math.
    46 (1993); Simon, OPUC Part 1, 2005).  Unlike a recursion on moments
    it stays accurate on measures with a gap.

    The nodes must resolve degree N: 200 equispaced angles give
    |alpha_n| < 2e-14 for every n <= 198.  A measure on M points has
    M - 1 coefficients inside the disc; asking for more, or a squared
    norm rho_n^2 = 1 - |alpha_n|^2 below 1e-13, raises BreakdownAtStep.
    """
    th = np.asarray(theta, dtype=float)
    w = np.asarray(weights, dtype=float)
    if len(th) <= N:
        raise BreakdownAtStep(len(th) + 1, 0.0)
    z = np.exp(1j * th)
    U = np.empty((N + 1, len(th)), dtype=complex)
    U[0] = np.sqrt(w / np.sum(w))
    alpha = np.empty(N, dtype=complex)
    for n in range(N):
        alpha[n] = -np.sum(np.exp(1j * (1 - n) * th) * U[n] * U[n])
        q = z * U[n]
        for _ in range(2):
            c = np.sum(np.conj(U[:n + 1]) * q, axis=1)
            q -= np.sum(c[:, None] * U[:n + 1], axis=0)
        norm2 = float(np.sum(q.real ** 2 + q.imag ** 2))
        if norm2 <= 1e-13:
            raise BreakdownAtStep(n + 2, norm2)
        U[n + 1] = q / math.sqrt(norm2)
    return VerblunskyParams(alpha)


def d_m(J: JacobiParams, Jt: JacobiParams, m: int) -> float:
    """Exponentially weighted one-sided coefficient distance starting at
    site m: sum_{k>=0} e^{-k}(|a_{m+k} - a'_{m+k}| + |b_{m+k} - b'_{m+k}|).

    The series is truncated where the geometric tail of the combined
    deviation bound drops below 1e-15, so doubling the truncation
    changes nothing at 1e-12 scale.  Symmetric in its arguments.  The
    single-offset twin of the distance periodic.d_to_torus_batch
    minimizes over a torus.
    """
    if m < 1:
        raise ValueError("site index is 1-based")
    probe = m + 64
    bound = 2.0 * (2.0 + _deviation_bound(J, probe)
                   + _deviation_bound(Jt, probe))
    w = dm_weights(bound)
    hi = m + len(w) - 1
    terms = (np.abs(J.a_window(hi)[m - 1:] - Jt.a_window(hi)[m - 1:])
             + np.abs(J.b_window(hi)[m - 1:] - Jt.b_window(hi)[m - 1:]))
    return float(terms @ w)


def prefix_means_of(terms, Ns):
    """(1/N) sum of the first N terms for each N, from one extended
    precision cumulative sum over all the terms at once: the sums that
    regularity._prefix_sums forms chunk by chunk."""
    cs = np.cumsum(np.array(terms), dtype=np.longdouble)
    return tuple(float(cs[n - 1] / n) for n in Ns)


def sequential_pattern_search(family, rows, theta, best, span):
    """periodic._pattern_search one move at a time: every live row tries
    each move in turn from its current angles, through one map call per
    move, and takes every improvement as it comes.  The look-ahead rounds
    of the library must give the same bits."""
    p = family.p
    moves = [np.array(d, dtype=float) for d in
             itertools.product((-1, 0, 1), repeat=p - 1) if any(d)]
    step = np.full(len(best), span)
    live = np.arange(len(best))
    while True:
        keep = step > _FINAL_STEP
        if not keep.all():
            live, theta, step = (x[keep] for x in (live, theta, step))
        if not len(live):
            break
        moved = np.zeros(len(live), dtype=bool)
        for d in moves:
            cand = theta + step[:, None] * d
            vals = _weighted_dist(rows, live, *family(cand))
            better = vals < best[live]
            theta[better] = cand[better]
            best[live[better]] = vals[better]
            moved |= better
        step[~moved] *= 0.5


def block_dense(params: BlockJacobiParams, K: int) -> np.ndarray:
    """The dense Hermitian K-block truncation, built block by block:
    B_k on the diagonal, A_k above it and A_k^* below."""
    ell = params.block_size
    m = np.zeros((K * ell, K * ell), dtype=complex)
    for k in range(K):
        s = slice(k * ell, (k + 1) * ell)
        m[s, s] = params.B[k]
        if k + 1 < K:
            t = slice((k + 1) * ell, (k + 2) * ell)
            m[s, t] = params.A[k]
            m[t, s] = params.A[k].conj().T
    return m


def block_trace_square(params: BlockJacobiParams, K: int):
    """Mean squared eigenvalue of the K-block truncation, both ways:
    (1/(K ell))[sum Tr B_k^2 + 2 sum Tr A_k^* A_k] versus the sum over
    the eigenvalues of spectra.eig_block."""
    if K < 1:
        raise ValueError("K >= 1 required")
    ell, B, A = params.block_size, params.b_blocks(K), params.a_blocks(K - 1)
    s = np.trace(B @ B, axis1=1, axis2=2).real.sum()
    s += 2.0 * np.sum(np.abs(A) ** 2)
    via_formula = float(s) / (K * ell)
    eigs = eig_block(params, K)
    via_eigs = float(np.sum(eigs ** 2)) / (K * ell)
    return via_formula, via_eigs



def arc_stats_one_shot(alpha: np.ndarray, a: float, k: int, Ns):
    """The modulus, step and block averages of ``regularity.arc_stats``
    from full-length terms: the block sums as differences of one
    cumulative sum over all N + max(1, k) coefficients."""
    n = Ns[-1]
    al = np.asarray(alpha)[:n + max(1, k)]
    mod_terms = (np.abs(al[:n]) - a) ** 2
    step_terms = np.abs(al[1:n + 1] - al[:n]) ** 2
    cs = np.concatenate([[0.0], np.cumsum(al)])
    block_sum = cs[1 + k:n + k + 1] - cs[1:n + 1]
    cs2 = np.concatenate([[0.0], np.cumsum(np.abs(al) ** 2)])
    block_sq = cs2[1 + k:n + k + 1] - cs2[1:n + 1]
    block_terms = block_sq + k * a * a - 2.0 * a * np.abs(block_sum)
    return tuple(prefix_means_of(t, Ns)
                 for t in (mod_terms, step_terms, block_terms))


def product_trace_stepwise(J0: PeriodicJacobi, x, one=1.0,
                           mul=operator.mul):
    """The trace of the one-period transfer product of
    periodic._product_trace by the plain four-entry loop: every step,
    the last included, forms all four entries of S_n times the product
    so far, and the trace adds the diagonal entries of the last."""
    c = [a_prev / an for a_prev, an in zip(J0.a[-1:] + J0.a[:-1], J0.a)]
    t = ((x - J0.b[0] * one) / J0.a[0], -c[0] * one, one, 0.0 * one)
    for an, bn, cn in zip(J0.a[1:], J0.b[1:], c[1:]):
        s = (x - bn * one) / an
        t = (mul(s, t[0]) - cn * t[2], mul(s, t[1]) - cn * t[3], t[0], t[1])
    return t[0] + t[3]


def block_map_sparse(J0: PeriodicJacobi, J: JacobiParams, K: int):
    """The blocks (A, B) of periodic.delta_of_J from the four-entry
    transfer loop (product_trace_stepwise) run on CSR matrices, cut by
    one scatter of the result's upper-triangle entries: K off-diagonal
    and K + 1 diagonal blocks."""
    p = J0.p
    n_sites = (K + 3) * p
    a = J.a_window(n_sites - 1)
    T = sp.diags_array([a, J.b_window(n_sites), a], offsets=(-1, 0, 1),
                       format="csr")
    R = product_trace_stepwise(J0, T, sp.eye_array(n_sites, format="csr"),
                               operator.matmul).tocoo()
    upper = R.col >= R.row
    i, j, v = R.row[upper], R.col[upper], R.data[upper]
    k, d = i // p, j // p - i // p
    keep = k + d <= K
    cut = np.zeros((K + 1, 2, p, p))
    cut[k[keep], d[keep], i[keep] % p, j[keep] % p] = v[keep]
    return cut[:K, 1], cut[:, 0] + np.triu(cut[:, 0], 1).transpose(0, 2, 1)


def cmv_sparse(alpha, boundary: complex):
    """The CMV truncation L M of spectra._cmv as the product of two
    CSR factors: L with the rotors [[-a_j, rho_j], [rho_j, conj(a_j)]] at
    even j, M with a leading 1 and the rotors at odd j, and -beta where a
    rotor would straddle the last index."""
    alpha = np.asarray(alpha, dtype=complex)
    eff = np.append(alpha, boundary)
    rho = np.sqrt(1.0 - np.abs(alpha) ** 2)
    n = len(eff)
    factors = []
    for start in (0, 1):
        d = np.ones(n, dtype=complex)
        off = np.zeros(n - 1)
        for j in range(start, n, 2):
            d[j] = -eff[j]
            if j < n - 1:
                d[j + 1] = np.conj(eff[j])
                off[j] = rho[j]
        factors.append(sp.diags([off, d, off], [-1, 0, 1], format="csr"))
    return factors[0] @ factors[1]
