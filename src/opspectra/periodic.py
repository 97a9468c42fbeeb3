"""Periodic recurrence data: discriminants, band sets, the block map,
type-1/type-3 normalization, and the isospectral torus.

The discriminant D of a period-p generator is the trace of its
one-period transfer-matrix product, evaluated by running the transfer
recursion step by step for every x at once; this keeps D accurate at
large p, where monomial coefficients do not.  The same recursion run
on the 2 x 2 Jordan blocks [[x, 1], [0, x]] gives D(x) and D'(x)
together.  The band edges, where D is +-2, are the eigenvalues of the
generator's periodic and antiperiodic p x p matrices (Floquet theory).
Evaluating D on a one-sided tridiagonal matrix produces a
block-tridiagonal matrix with p x p blocks whose off-diagonal blocks are
lower triangular with positive diagonal: this block map is the same
recursion run on sparse matrices, so the bandwidth (and hence the block
structure) is exact and no dense intermediate ever exists.

The type-3 and type-1 normal forms take a list of block parameter sets.
Each is built block index by block index, one unitary at a time; the
inputs of one block size share those steps, one stacked QR or SVD per
block index for all of them, and each input comes out bit for bit as it
would alone.

The isospectral torus of a band set with all gaps open is parametrized
by p - 1 angles through Dirichlet data, for every period: angle j
places one Dirichlet point in gap j and picks its sheet, and an
explicit map (p - 1 Stieltjes steps plus the product of the generator's
a and the sum of its b) turns those data into the generator (Teschl,
*Jacobi Operators and Completely Integrable Nonlinear Lattices*,
ch. 7-8).  The same map run backward reads the angles off any
one-period window.  Distance from a coefficient sequence to the torus
starts from the best of a fixed coarse grid of angles and the
inverse-map angles of the sequence's own windows, then refines it by a
pattern search along the axes and the diagonals, several moves per map
call when few windows are left.  A batch of offsets searches each
distinct window once: offsets whose windows (coefficients and weights
on whole periods) are bitwise equal share one search and its result.
The batch holds O(1) numbers per offset; each distance call gathers the
windows it compares one block of rows at a time.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np
import scipy.sparse as sp

from .potential import FiniteGapSet
from .sequences import (BlockJacobiParams, JacobiParams, SingularBlock,
                        UnitaryChain, _herm, sup_deviation, validate_blocks)


class GapClosed(ValueError):
    """Torus construction asked for a band set with a closed gap."""


class BandwidthExceeded(ValueError):
    """Input sequence too short for the requested number of blocks."""


class NotType3(ArithmeticError):
    """Block map output failed its guaranteed structure check; this
    signals an implementation error, not bad input."""


@dataclass(frozen=True)
class PeriodicJacobi:
    """Period-p coefficient pattern: a = (a_1..a_p) positive, b likewise."""

    a: Tuple[float, ...]
    b: Tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = tuple(float(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b) or len(a) == 0:
            raise ValueError("need matching nonempty a and b patterns")
        if any(x <= 0 for x in a):
            raise ValueError("off-diagonal pattern must be positive")

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def deviation_bound(self) -> float:
        """max|a_k - 1| + max|b_k|, a bound on |a_n - 1| + |b_n| over the
        periodic extension."""
        return max(abs(x - 1.0) for x in self.a) + max(abs(x) for x in self.b)

    def floquet(self, z) -> np.ndarray:
        """One-period Floquet matrices, an (n, p, p) stack for the n
        values of z: b on the diagonal, a on the off-diagonals, z a_p in
        the lower-left corner and conj(z) a_p in the upper-right (both on
        the diagonal at p = 1).  The stack has the dtype of z.  On
        |z| = 1 the matrix is Hermitian and its eigenvalues are the x
        with D(x) = z + 1/z: z = 1 gives the periodic matrix, z = -1 the
        antiperiodic one."""
        z = np.atleast_1d(np.asarray(z))
        m = np.empty((len(z), self.p, self.p), dtype=np.result_type(z, float))
        m[:] = (np.diag(self.b) + np.diag(self.a[:-1], 1)
                + np.diag(self.a[:-1], -1))
        m[:, 0, -1] += np.conj(z) * self.a[-1]
        m[:, -1, 0] += z * self.a[-1]
        return m

    def transfer_trace(self, x):
        """The discriminant D(x) and its derivative D'(x): the transfer
        product of discriminant (bit for bit its D) run on the Jordan
        blocks [[x, 1], [0, x]], as f([[x, 1], [0, x]]) = [[f(x), f'(x)],
        [0, f(x)]] for every polynomial f."""
        x = np.asarray(x, dtype=float)
        X = np.zeros(x.shape + (2, 2))
        X[..., 0, 0] = X[..., 1, 1] = x
        X[..., 0, 1] = 1.0
        R = _product_trace(self, X, np.eye(2), operator.matmul)
        return R[..., 0, 0], R[..., 0, 1]


def _product_trace(J0: PeriodicJacobi, x, one=1.0, mul=operator.mul):
    """Trace of the one-period transfer product S_p ... S_1 of J0 at x,
    where S_n = [[(x - b_n) / a_n, -a_{n-1} / a_n], [1, 0]] and a_0 =
    a_p: numbers (``one`` = 1.0), or square matrices with ``one`` their
    identity and ``mul`` operator.matmul.  Every entry is a polynomial
    in x, so the entries commute either way."""
    c = [a_prev / an for a_prev, an in zip(J0.a[-1:] + J0.a[:-1], J0.a)]
    # S_1 times the identity
    t = ((x - J0.b[0] * one) / J0.a[0], -c[0] * one, one, 0.0 * one)
    for an, bn, cn in zip(J0.a[1:], J0.b[1:], c[1:]):
        s = (x - bn * one) / an
        t = (mul(s, t[0]) - cn * t[2], mul(s, t[1]) - cn * t[3], t[0], t[1])
    return t[0] + t[3]


def discriminant(J0: PeriodicJacobi, x):
    """The discriminant D(x) of J0 for every x at once: the trace of the
    one-period transfer product S_p ... S_1 (see _product_trace), a
    polynomial of degree p with leading coefficient 1 / prod(a).  It is
    carried through the product step by step, never through its monomial
    coefficients, which lose accuracy at large p."""
    return _product_trace(J0, np.asarray(x, dtype=float))


def bands(J0: PeriodicJacobi) -> FiniteGapSet:
    """Band set: closure of the preimage of [-2, 2] under the
    discriminant of J0, carrying J0 as its generator.

    The 2p edges, where D = +-2, are the eigenvalues of the generator's
    Floquet matrices at z = 1 and z = -1 (periodic and antiperiodic).  A
    closed gap is a double eigenvalue of one of them; touching
    proto-bands are merged.
    """
    edges = np.linalg.eigvalsh(J0.floquet([1.0, -1.0]))
    edges = np.sort(edges, axis=None).tolist()
    proto = [(edges[2 * i], edges[2 * i + 1]) for i in range(len(edges) // 2)]
    span = max(1.0, abs(edges[0]), abs(edges[-1]))
    merged = [list(proto[0])]
    for lo, hi in proto[1:]:
        if lo - merged[-1][1] <= 1e-8 * span:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return FiniteGapSet(tuple((lo, hi) for lo, hi in merged), generator=J0)


def delta_of_J(J0: PeriodicJacobi, J: JacobiParams, K: int) -> BlockJacobiParams:
    """Evaluate the discriminant of J0 on the one-sided matrix T of J
    and cut the result into p x p blocks: K + 1 diagonal blocks and K
    off-diagonal blocks.

    The evaluation is the transfer product of discriminant run on
    sparse matrices, with (T - b_n) / a_n multiplied in by matrix
    products, and one scatter of the result's upper-triangle entries
    cuts every block (the diagonal blocks are mirrored from it, so they
    are exactly symmetric).  The result bandwidth equals p exactly, so
    the off-diagonal blocks are lower triangular by construction with
    diagonal entries that are ratios of p-fold products of J's
    off-diagonals to the period product.  The returned parameters carry
    the type3 tag after verification; failure of that structure is an
    implementation bug and raises NotType3.
    """
    if K < 1:
        raise ValueError("K >= 1 required")
    p = J0.p
    n_sites = (K + 2) * p + p
    if J.is_finite and len(J) < n_sites:
        raise BandwidthExceeded(
            f"need {n_sites} sites for K={K} blocks of size {p}"
        )
    a_arr = J.a_window(n_sites - 1)
    T = sp.diags_array([a_arr, J.b_window(n_sites), a_arr], offsets=(-1, 0, 1),
                       format="csr")
    R = _product_trace(J0, T, sp.eye_array(n_sites, format="csr"),
                       operator.matmul).tocoo()
    upper = R.col >= R.row
    i, j, v = R.row[upper], R.col[upper], R.data[upper]
    k, d = i // p, j // p - i // p
    keep = k + d <= K
    cut = np.zeros((K + 1, 2, p, p))
    cut[k[keep], d[keep], i[keep] % p, j[keep] % p] = v[keep]
    B = cut[:, 0] + np.triu(cut[:, 0], 1).transpose(0, 2, 1)
    out = BlockJacobiParams(p, cut[:K, 1], B, "type3")
    try:
        validate_blocks(out)
    except (ValueError, TypeError) as exc:
        raise NotType3(str(exc)) from exc
    return out


# -- equivalence-class representatives ---------------------------------


def _normal_forms(inputs, tag: str, exact, step, snap):
    """Each input, in input order, with its chain u_1 = I, u_{j+1} =
    step(u_j^* A_j, A_j), padded with identities, and the input
    transformed by it, its A stack ``snap``-ped; ``exact`` input comes
    back retagged, with the identity chain.

    The other inputs are grouped by block size, their A stacks padded
    with identity blocks to the group's longest, and each block index j
    takes one stacked ``step`` for the whole group; a stacked LAPACK call
    gives each matrix the bits of a call on it alone.  ``step`` returns
    the next unitaries and, per input, whether the block is singular,
    its smallest singular value and the threshold.  A singular block is
    raised at its input's turn, so the error is the one a loop over the
    inputs would raise first."""
    inputs = list(inputs)
    groups, chains, singular = {}, {}, {}
    for i, Jb in enumerate(inputs):
        if not exact(Jb.A):
            groups.setdefault(Jb.block_size, []).append(i)
    for ell, idx in groups.items():
        eye = np.eye(ell, dtype=complex)
        nA = [len(inputs[i].A) for i in idx]
        A = np.tile(eye, (len(idx), max(nA), 1, 1))
        for row, i in enumerate(idx):
            A[row, :nA[row]] = inputs[i].A
        us = [np.tile(eye, (len(idx), 1, 1))]
        for j in range(A.shape[1]):
            u, bad, sigma, threshold = step(_herm(us[-1]) @ A[:, j], A[:, j])
            for row in np.flatnonzero(bad):
                if j < nA[row]:
                    singular.setdefault(idx[row], SingularBlock(
                        j + 1, float(sigma[row]), float(threshold[row])))
            us.append(u)
        us = np.stack(us, axis=1)
        for row, i in enumerate(idx):
            n = max(len(inputs[i].B), nA[row] + 1)
            chains[i] = np.concatenate(
                [us[row, :nA[row] + 1], np.tile(eye, (n - nA[row] - 1, 1, 1))])
    out = []
    for i, Jb in enumerate(inputs):
        ell = Jb.block_size
        if i in singular:
            raise singular[i]
        if i not in chains:
            n = max(len(Jb.B), len(Jb.A) + 1)
            out.append((BlockJacobiParams(ell, Jb.A, Jb.B, tag),
                        UnitaryChain(np.tile(np.eye(ell), (n, 1, 1)))))
            continue
        chain = UnitaryChain(chains[i])
        moved = chain.apply(Jb)
        out.append((validate_blocks(BlockJacobiParams(ell, snap(moved.A),
                                                      moved.B, tag)), chain))
    return out


def _exactly_type3(A: np.ndarray) -> bool:
    d = np.diagonal(A, axis1=1, axis2=2)
    return (not np.any(np.triu(A, k=1)) and not np.any(d.imag)
            and bool(np.all(d.real > 0.0)))


def _qr_step(M: np.ndarray, A: np.ndarray):
    q, r = np.linalg.qr(_herm(M))
    rd = np.diagonal(r, axis1=1, axis2=2)
    size = np.abs(rd)
    scale = np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
    bad = np.any(size <= 1e-12 * scale[:, None], axis=1)
    # q @ diag(phase) as a matmul: an elementwise scaling can round
    # differently.  A singular block's row divides by 1, not by its 0.
    phase = np.zeros_like(q)
    i = np.arange(q.shape[1])
    phase[:, i, i] = rd / np.where(bad[:, None], 1.0, size)
    return q @ phase, bad, size.min(axis=1), np.zeros(len(q))


def _snap_type3(A: np.ndarray) -> np.ndarray:
    # snap the roundoff dust off the structural zeros so the result is
    # exactly in form (idempotent under re-normalization)
    A = np.tril(A)
    i = np.arange(A.shape[1])
    A[:, i, i] = A[:, i, i].real
    return A


def normalize_type3(inputs):
    """For each block parameter set in ``inputs``, in order, the pair
    (equivalent parameters whose off-diagonal blocks are lower
    triangular with positive diagonal, the realizing unitary chain).

    Built left to right: each u_{j+1} is the Q factor (phase-fixed) of
    the QR factorization of (u_j^* A_j)^*, one stacked QR per block
    index j over the inputs of one block size.  Applying the returned
    chain to the original input reproduces the returned parameters.
    Input that is already exactly in form comes back unchanged with the
    identity chain.
    """
    return _normal_forms(inputs, "type3", _exactly_type3, _qr_step, _snap_type3)


def _exactly_type1(A: np.ndarray) -> bool:
    return (np.array_equal(A, _herm(A))
            and bool(np.all(np.linalg.eigvalsh(A)[:, 0] > 0.0)))


def _polar_step(M: np.ndarray, A: np.ndarray):
    uu, s, vh = np.linalg.svd(M)
    bad = s[:, -1] <= 1e-12 * np.maximum(s[:, 0], 1.0)
    return _herm(uu @ vh), bad, s[:, -1], 1e-12 * s[:, 0]


def _snap_type1(A: np.ndarray) -> np.ndarray:
    # make the polar factors exactly Hermitian
    return (A + _herm(A)) / 2.0


def normalize_type1(inputs):
    """For each block parameter set in ``inputs``, in order, the pair
    (equivalent parameters whose off-diagonal blocks are exactly
    Hermitian and positive definite (polar factors), the realizing
    chain), with one stacked SVD per block index j over the inputs of
    one block size.  Being positive definite, each output block
    satisfies Hadamard's inequality det A_j <= prod diag A_j (up to
    rounding)."""
    return _normal_forms(inputs, "type1", _exactly_type1, _polar_step, _snap_type1)


# -- isospectral torus -------------------------------------------------


class _DirichletMap:
    """Explicit map from angles to the generators sharing J0's
    discriminant, through Dirichlet data, and its inverse.

    Angle j puts the Dirichlet point mu_j = m_j + h_j cos(theta_j) in gap
    j (midpoint m_j, half-width h_j) on the sheet sigma_j =
    sign(sin theta_j).  The transfer product T over one period has
    T_21(mu_j) = 0, so T_11 T_22 = 1 there and T_11 = (D + sigma_j
    sqrt(D^2 - 4)) / 2 at D = D(mu_j).  The mu_j are the eigenvalues of
    the (p - 1)-site truncation and -T_22(mu_j) / prod_{k != j}(mu_j -
    mu_k) are its spectral weights (positive), so p - 1 Stieltjes steps
    give b_1..b_{p-1} and a_1..a_{p-2}.  The leading coefficient of T_22
    is -a_p^2 / prod(a), and prod(a) and sum(b) are J0's (the top two
    coefficients of D are 1 / prod(a) and -sum(b) / prod(a)), which gives
    a_p, a_{p-1} and b_p.

    The angles are shifted so that theta = 0 is J0.
    """

    def __init__(self, J0: PeriodicJacobi):
        self.p = p = J0.p
        self.J0 = J0
        self.prod_a = math.prod(J0.a)
        self.sum_b = math.fsum(J0.b)
        self.shift = np.zeros(p - 1)
        if p == 1:
            return
        fgs = bands(J0)
        if fgs.n_bands < p:
            raise GapClosed(f"period-{p} torus needs {p} bands (every gap "
                            f"open), found {fgs.n_bands}")
        lo = np.array([band[1] for band in fgs.bands[:-1]])
        hi = np.array([band[0] for band in fgs.bands[1:]])
        self.mid = 0.5 * (lo + hi)
        self.half = 0.5 * (hi - lo)
        self.shift = self.angles(np.array([J0.a]), np.array([J0.b]))[0]

    def angles(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Angles, an (n, p - 1) array, of the one-period windows (a, b),
        each of shape (n, p) and in period phase: the inverse of the map
        on the family.  The map's steps run backward: the mu_j and the
        first eigenvector components v_j of the (p - 1)-site truncation
        give T_22(mu_j) = -(a_p^2 / prod(a)) v_j^2 prod_{k != j}(mu_j -
        mu_k), the sheet is + exactly when (|T_22| <= 1) == (D(mu_j) >=
        0), and theta_j = +-arccos((mu_j - m_j) / h_j) minus the shift.

        A window off the family gets the member with its Dirichlet
        points (each clipped into its gap) and its sheets.  Near a gap
        edge the angle is ill-conditioned in mu_j: an error e in mu_j
        moves theta_j by about e / (h_j |sin theta_j|)."""
        p = self.p
        j = np.arange(p - 1)
        trunc = np.zeros((len(a), p - 1, p - 1))
        trunc[:, j, j] = b[:, :p - 1]
        trunc[:, j[1:], j[:-1]] = a[:, :p - 2]
        mu, vec = np.linalg.eigh(trunc)
        diffs = mu[:, :, None] - mu[:, None, :]
        diffs[:, j, j] = 1.0
        scale = a[:, p - 1] ** 2 / np.prod(a, axis=1)
        t22 = -scale[:, None] * vec[:, 0, :] ** 2 * np.prod(diffs, axis=2)
        D = discriminant(self.J0, mu)
        sheet = np.where((np.abs(t22) <= 1.0) == (D >= 0.0), 1.0, -1.0)
        cos = np.clip((mu - self.mid) / self.half, -1.0, 1.0)
        return sheet * np.arccos(cos) - self.shift

    def __call__(self, theta: np.ndarray):
        """Patterns (a, b), each of shape (n, p), at an (n, p - 1) array
        of angles."""
        p = self.p
        n = len(theta)
        a = np.empty((n, p))
        b = np.empty((n, p))
        if p == 1:
            a[:] = self.prod_a
            b[:] = self.sum_b
            return a, b
        th = theta + self.shift
        mu = self.mid + self.half * np.cos(th)
        D = discriminant(self.J0, mu)
        # the root of z^2 - D z + 1 away from 0, free of cancellation
        root = np.sqrt(np.maximum(D * D - 4.0, 0.0))
        outer = 0.5 * (D + np.copysign(root, D))
        t22 = np.where((np.sin(th) >= 0.0) == (D >= 0.0), 1.0 / outer, outer)
        diffs = mu[:, :, None] - mu[:, None, :]
        j = np.arange(p - 1)
        diffs[:, j, j] = 1.0
        w = -t22 / np.prod(diffs, axis=2)
        norm = np.sum(w, axis=1)
        a[:, p - 1] = np.sqrt(self.prod_a * norm)
        prev, cur, a2 = np.zeros_like(mu), np.ones_like(mu), 0.0
        for k in range(p - 1):
            b[:, k] = np.sum(w * mu * cur * cur, axis=1) / norm
            if k == p - 2:
                break
            prev, cur = cur, (mu - b[:, k, None]) * cur - a2 * prev
            nxt = np.sum(w * cur * cur, axis=1)
            a2 = (nxt / norm)[:, None]
            a[:, k] = np.sqrt(a2[:, 0])
            norm = nxt
        a[:, p - 2] = self.prod_a / (a[:, p - 1] * np.prod(a[:, :p - 2], axis=1))
        b[:, p - 1] = self.sum_b - np.sum(b[:, :p - 1], axis=1)
        return a, b


def torus_point(J0: PeriodicJacobi, theta) -> PeriodicJacobi:
    """Member of the isospectral family of the generator J0 at angle
    coordinates theta (length p - 1), through the Dirichlet-data map;
    theta = 0 is J0 itself, returned as is.  Every period is covered; all
    gaps must be open (GapClosed otherwise).

    Off theta = 0 the two discriminants, polynomials of degree p, are
    compared at the p + 1 Chebyshev-Lobatto points of J0's Gershgorin
    interval, which holds its bands; a mismatch raises ValueError.
    """
    theta = tuple(np.atleast_1d(np.asarray(theta, dtype=float)).tolist())
    p = J0.p
    if len(theta) != p - 1:
        raise ValueError(f"period {p} needs {p - 1} torus coordinates")
    if not any(theta):
        return J0
    a, b = _DirichletMap(J0)(np.array(theta).reshape(1, p - 1))
    J = PeriodicJacobi(tuple(a[0]), tuple(b[0]))
    lo, hi = min(J0.b) - 2.0 * max(J0.a), max(J0.b) + 2.0 * max(J0.a)
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(
        math.pi * np.arange(p + 1) / p)
    want = discriminant(J0, x)
    diff = float(np.max(np.abs(discriminant(J, x) - want)))
    if diff > 1e-9 * max(1.0, float(np.max(np.abs(want)))):
        raise ValueError(f"discriminant mismatch {diff} for torus point")
    return J


# -- distance to the torus ---------------------------------------------

#: grid starts per torus coordinate, the step that ends the search, the
#: (row, move) pairs one look-ahead round may hold, the fewest moves per
#: row for which a round is worth its gather, and the rows whose
#: coefficients a distance call gathers at a time (a block's few (512, L)
#: arrays stay in a core's L2 cache; 256 and 128 were slower)
_GRID_POINTS = 8
_FINAL_STEP = 1e-7
_LOOKAHEAD_ROWS = 256
_MIN_LOOKAHEAD = 3
_BLOCK = 512


def dm_weights(bound: float) -> np.ndarray:
    """Geometric weights e^{-k}, k = 0..K, with K chosen so the dropped
    tail of a series with terms bounded by ``bound`` stays below 1e-15."""
    K = max(40, int(math.ceil(math.log(max(bound, 1.0) / 1e-15))))
    return np.exp(-np.arange(K + 1, dtype=float))


def _deviation_bound(J: JacobiParams, probe: int) -> float:
    """The sup of |a_n - 1| + |b_n| over the first ``probe`` sites (all
    of them for a shorter finite J)."""
    return sup_deviation(J, min(probe, len(J)) if J.is_finite else probe)


class _Rows(NamedTuple):
    """Aligned rows, each held as two numbers: row i covers the L sites
    from the first site of its offset's period on (L a multiple of p),
    so its coefficients are a[period[i]] and b[period[i]], and its
    distance weights are w[phase[i]], phase = (m - 1) % p: the weight of
    site m + k is w_k and every other weight is 0."""

    a: np.ndarray       # (periods, L) views of the padded coefficient
    b: np.ndarray       # windows, one row per period
    w: np.ndarray       # (p, L), one weight row per period phase
    period: np.ndarray
    phase: np.ndarray


def _aligned_rows(J: JacobiParams, ms: np.ndarray, w: np.ndarray,
                  p: int) -> _Rows:
    """The aligned rows of J at the offsets ``ms``, with the weights
    ``w`` (see _Rows)."""
    K = len(w) - 1
    L = p * -(-(K + p) // p)
    r = (ms - 1) % p
    hi = int(ms.max()) + K
    # rows reach past site hi only where their weight is 0
    pad = np.zeros(L - K)
    a, b = (np.lib.stride_tricks.sliding_window_view(
        np.concatenate([seq, pad]), L)[::p] for seq in (J.a_window(hi),
                                                        J.b_window(hi)))
    wz = np.concatenate([np.zeros(p - 1), w, np.zeros(L)])
    W = np.lib.stride_tricks.sliding_window_view(wz, L)[p - 1 - np.arange(p)]
    return _Rows(a, b, W, (ms - 1) // p, r)


def _gather(rows: _Rows, idx: np.ndarray):
    """(lo, A, B) for each block of at most _BLOCK of the rows ``idx``:
    A and B are fresh (n, L) copies of the coefficients of rows
    idx[lo:lo + n]."""
    for lo in range(0, len(idx), _BLOCK):
        t = rows.period[idx[lo:lo + _BLOCK]]
        yield lo, rows.a[t], rows.b[t]


def _weighted_dist(rows: _Rows, idx: np.ndarray, a, b) -> np.ndarray:
    """Weighted distance of each of the rows ``idx`` to the periodic
    extension of its pattern: row idx[i] against (a[i], b[i]).  A
    block's rows are weighted phase run by phase run with that phase's
    weight row, which gives the bits of one full weight matrix; rows in
    phase order make one run per phase."""
    reps = rows.w.shape[1] // a.shape[-1]
    phase = rows.phase[idx]
    runs = [0, *((phase[1:] != phase[:-1]).nonzero()[0] + 1).tolist(),
            len(idx)]
    out = np.empty(len(idx))
    for lo, A, B in _gather(rows, idx):
        n = len(A)
        for X, x in ((A, a), (B, b)):
            np.subtract(X, np.tile(x[lo:lo + n], reps), out=X)
            np.abs(X, out=X)
        np.add(A, B, out=A)
        for i, j in zip(runs[:-1], runs[1:]):
            i, j = max(i, lo), min(j, lo + n)
            if i < j:
                out[i:j] = np.einsum("j,ij->i", rows.w[phase[i]],
                                     A[i - lo:j - lo])
    return out


def _row_keys(A, B, phase) -> np.ndarray:
    """A uint64 key of each aligned row: the wrapping dot product of the
    bits of its A and B (their uint64 views) and its phase with fixed
    odd multipliers.  Bitwise equal rows get equal keys; unequal rows
    may collide, so a key only proposes a group."""
    L = A.shape[1]
    mult = (np.arange(1, 4 * L + 2, 2, dtype=np.uint64)
            * np.uint64(0x9E3779B97F4A7C15))
    return (A.view(np.uint64) @ mult[:L] + B.view(np.uint64) @ mult[L:2 * L]
            + phase.astype(np.uint64) * mult[2 * L])


def _distinct_rows(rows: _Rows):
    """Indices of one representative per distinct aligned row, in row
    order, and each row's position among them.  Rows sharing a key are
    checked bit for bit against the first row with that key; a row that
    differs from it stays its own representative.  The phase stands in
    for the weights, which it fixes."""
    n = len(rows.phase)
    every = np.arange(n)
    keys = np.empty(n, dtype=np.uint64)
    for lo, A, B in _gather(rows, every):
        keys[lo:lo + len(A)] = _row_keys(A, B, rows.phase[lo:lo + len(A)])
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    rep = first[group]
    shared = np.flatnonzero(rep != every)
    differ = rows.phase[shared] != rows.phase[rep[shared]]
    for (lo, A, B), (_, A0, B0) in zip(_gather(rows, shared),
                                       _gather(rows, rep[shared])):
        k = slice(lo, lo + len(A))
        for X, X0 in ((A, A0), (B, B0)):
            differ[k] |= np.any(X.view(np.uint64) != X0.view(np.uint64),
                                axis=1)
    rep[shared[differ]] = shared[differ]
    return np.unique(rep, return_inverse=True)


def _window_starts(family: _DirichletMap, rows: _Rows):
    """Inverse-map angles of the p one-period windows at sites m + s ..
    m + s + p - 1, s = 0..p - 1, of each aligned row, read into period
    phase; none at p = 1."""
    p = family.p
    if p == 1:
        return
    q = np.arange(p)
    t = rows.period[:, None]
    for s in range(p):
        c = (rows.phase + s)[:, None]
        cols = c + (q - c) % p
        yield family.angles(rows.a[t, cols], rows.b[t, cols])


def _pattern_search(family: _DirichletMap, rows: _Rows, theta, best, span):
    """Refine the angles ``theta`` and the distances ``best`` of the
    aligned rows in place, from step ``span`` down to _FINAL_STEP; see
    d_to_torus_batch for the search and its rounds.  theta is
    overwritten."""
    p = family.p
    moves = [d for d in itertools.product((-1, 0, 1), repeat=p - 1) if any(d)]
    moves = np.array(moves, dtype=float).reshape(len(moves), p - 1)
    step = np.full(len(best), span)
    live = np.arange(len(best))
    while True:
        keep = step > _FINAL_STEP
        if not keep.all():
            live, theta, step = live[keep], theta[keep], step[keep]
        if not len(live):
            break
        moved = np.zeros(len(live), dtype=bool)
        if min(len(moves), _LOOKAHEAD_ROWS // len(live)) < _MIN_LOOKAHEAD:
            # each move in turn for every row at once
            for d in moves:
                cand = theta + step[:, None] * d
                vals = _weighted_dist(rows, live, *family(cand))
                better = vals < best[live]
                theta[better] = cand[better]
                best[live[better]] = vals[better]
                moved |= better
        else:
            cur = best[live]
            nxt = np.zeros(len(live), dtype=int)   # next untried move
            act = np.arange(len(live))
            while len(act):
                h = min(len(moves), _LOOKAHEAD_ROWS // len(act))
                # past a row's last move its pairs repeat that move
                j = np.minimum(nxt[act, None] + np.arange(h), len(moves) - 1)
                row = np.repeat(act, h)
                cand = theta[row] + step[row, None] * moves[j.ravel()]
                vals = _weighted_dist(rows, live[row], *family(cand))
                better = vals.reshape(-1, h) < cur[act, None]
                first = better.argmax(axis=1)
                k = np.arange(len(act))
                hit = better[k, first]
                nxt[act] = j[k, np.where(hit, first, h - 1)] + 1
                pick = k[hit] * h + first[hit]
                took = act[hit]
                theta[took] = cand[pick]
                cur[took] = vals[pick]
                moved[took] = True
                act = act[nxt[act] < len(moves)]
            best[live] = cur
        step[~moved] *= 0.5


def d_to_torus_batch(J: JacobiParams, ms: np.ndarray,
                     J0: PeriodicJacobi) -> np.ndarray:
    """Distance at each offset m in ``ms`` from J to the isospectral
    family of the generator J0: the exponentially weighted coefficient
    distance minimized over the family.  The search starts from the best
    of two kinds of starts: a fixed grid of 8 angles per coordinate, and
    the inverse-map angles of J's p one-period windows from site m on.
    A pattern search then refines it: try a step along every direction
    in {-1, 0, 1}^{p-1} (the axes and the diagonals; the objective has
    kinks that stall pure axis moves), keep any improvement, and halve
    the step when none helps, from the grid spacing down to 1e-7.  The
    result is an upper bound on the true infimum and no worse than the
    best start; it can stop in a local minimum.  On the family it is
    exact up to rounding, since a window of a family member maps back to
    its own angles.

    The weights are dm_weights(2 (s + s0 + 2)), s the sup of |a_n - 1|
    + |b_n| over J's first max(ms) sites (all of a shorter finite J) and
    s0 that of J0: a generator-backed J and the array of its first
    values get the same distances.

    Each row tries the moves of an iteration in a fixed order, each from
    its current angles.  With few live rows this runs in look-ahead
    rounds: every row with moves left evaluates its next h of them, all
    from its current angles, through one map call and one distance call
    for all rows; it takes the first that improves its distance and
    goes on after that move.  Until that first improvement the angles
    are the ones a move-by-move order would start from, so the rounds
    take the same moves and compute every distance from the same
    operands by the same elementwise steps: the result is bit for bit
    that of one move at a time.  h = min(number of moves, R // rows with
    moves left), R = _LOOKAHEAD_ROWS (256), so a round holds at most R
    (row, move) pairs; a row's pairs past its last move repeat that
    move.  An iteration with h below 3 at its start (more than R / 3
    live rows, or p = 2 with its two moves) tries each move in turn for
    every row at once: a two-move round saves a map call only when no
    row improves on the first move.

    Offsets whose aligned rows (the coefficients and weights from the
    start of the offset's period on, see _Rows) are bitwise equal share
    one search, since the search reads nothing but the row and the
    offset's period phase, which the weights fix: each distinct row is
    searched once and its distance goes to every offset that has it.
    An input of period p has p distinct rows and a sparse one few, so a
    long batch of them costs about as much as its distinct rows.  The
    grid goes through the map once, and each distance call compares
    every distinct row with max(1, _BLOCK // rows) grid generators, the
    first of equal minima winning as in a loop over the generators; each
    row's window starts are compared with the row itself, and the
    refinement moves all rows together, in rounds or move by move.

    Memory is O(1) per offset: a row is held as the index of its first
    period and its period phase, beside its angles, its best distance and
    its step, and J's coefficients up to the last offset are read once
    into two windows.  Every distance call gathers the coefficients of
    its rows block by block, at most _BLOCK (512) rows of L sites at a
    time, so nothing of shape (rows, L) outlives a block.  At p = 2 this
    is about 280 bytes per offset (18 MiB traced at 2^16 offsets), where
    one copied row of coefficients and weights takes 24 L bytes.  The
    rows are kept in period-phase order (stably, so each phase keeps its
    offsets' order), which makes each phase one run of a block, weighted
    by that phase's one weight row; rows are searched independently, so
    the order changes no result.
    """
    ms = np.asarray(ms, dtype=int)
    if np.any(ms < 1):
        raise ValueError("offsets are 1-based")
    p = J0.p
    family = _DirichletMap(J0)
    if not len(ms):
        return np.empty(0)
    bound = 2.0 * (_deviation_bound(J, int(ms.max()))
                   + J0.deviation_bound + 2.0)
    order = np.argsort((ms - 1) % p, kind="stable")
    rows = _aligned_rows(J, ms[order], dm_weights(bound), p)
    reps, share = _distinct_rows(rows)
    rows = rows._replace(period=rows.period[reps], phase=rows.phase[reps])
    every = np.arange(len(reps))

    span = 2.0 * math.pi / _GRID_POINTS
    pts = list(itertools.product(range(_GRID_POINTS), repeat=p - 1))
    grid = span * np.array(pts, dtype=float).reshape(len(pts), p - 1)
    ga, gb = family(grid)
    n = len(reps)
    best = np.full(n, np.inf)
    theta = np.zeros((n, p - 1))
    # k grid generators per distance call, so that few rows still make
    # a block of (row, generator) pairs; the first of equal minima wins,
    # as in a loop over the generators in order
    k = max(1, _BLOCK // n)
    for g in range(0, len(grid), k):
        pa, pb = ga[g:g + k], gb[g:g + k]
        vals = _weighted_dist(rows, np.repeat(every, len(pa)),
                              np.tile(pa, (n, 1)), np.tile(pb, (n, 1)))
        vals = vals.reshape(n, len(pa))
        first = vals.argmin(axis=1)
        vals = vals[every, first]
        better = vals < best
        best[better] = vals[better]
        theta[better] = grid[g + first[better]]
    for start in _window_starts(family, rows):
        vals = _weighted_dist(rows, every, *family(start))
        better = vals < best
        best[better] = vals[better]
        theta[better] = start[better]

    _pattern_search(family, rows, theta, best, span)
    out = np.empty(len(ms))
    out[order] = best[share]
    return out
