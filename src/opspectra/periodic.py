"""Periodic recurrence data: discriminants, band sets, the block map,
type-1/type-3 normalization, and the isospectral torus.

The discriminant D of a period-p generator is the trace of its
one-period transfer-matrix product, evaluated by running the transfer
recursion step by step for every x at once (and for every pattern of
a stack at once, its coefficients held as columns); this keeps D
accurate at large p, where monomial coefficients do not.  The same
recursion run on the 2 x 2 Jordan blocks [[x, 1], [0, x]] gives D(x)
and D'(x) together.  The band edges, where D is +-2, are the eigenvalues of the
generator's periodic and antiperiodic p x p matrices (Floquet theory).
Evaluating D on a one-sided tridiagonal matrix produces a
block-tridiagonal matrix with p x p blocks whose off-diagonal blocks are
lower triangular with positive diagonal: this block map is the same
recursion run on banded matrices held by their diagonals
(``spectra._Banded``), so the bandwidth (and hence the block structure)
is exact and no dense intermediate ever exists.

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
The batch holds O(1) numbers per offset in one row store: a distance
call gathers the rows it compares from it one block at a time, into
buffers made once per search, and the start angles read their
one-period windows from it too.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .potential import FiniteGapSet
from .sequences import (BlockJacobiParams, JacobiParams, UnitaryChain,
                        _built_together, _check_a, _check_b, _herm,
                        sup_deviation)
from .spectra import _Banded


class GapClosed(ValueError):
    """A band set with a closed gap where every gap must be open (the
    isospectral torus, a scenario's input pattern)."""


class BandwidthExceeded(ValueError):
    """Input sequence too short for the requested number of blocks."""


class NotType3(ArithmeticError):
    """Block map output failed its guaranteed structure check; this
    signals an implementation error, not bad input."""


@dataclass(frozen=True)
class PeriodicJacobi:
    """Period-p coefficient pattern a = (a_1..a_p), b = (b_1..b_p), each
    entry checked like a Jacobi sequence's: a_n finite and > 0, b_n
    finite."""

    a: Tuple[float, ...]
    b: Tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(x) for x in self.a)
        b = tuple(float(x) for x in self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b) or len(a) == 0:
            raise ValueError("need matching nonempty a and b patterns")
        _check_a(np.array(a), 1)
        _check_b(np.array(b), 1)

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
        R = _product_trace(self.a, self.b, X, np.eye(2), operator.matmul)
        return R[..., 0, 0], R[..., 0, 1]


def _product_trace(a, b, x, one=1.0, mul=operator.mul):
    """Trace of the one-period transfer product S_p ... S_1 of the
    pattern columns a = (a_1..a_p), b = (b_1..b_p) at x, where S_n =
    [[(x - b_n) / a_n, -a_{n-1} / a_n], [1, 0]] and a_0 = a_p: numbers
    (``one`` = 1.0), or square matrices with ``one`` their identity and
    ``mul`` operator.matmul.  Each a_n and b_n is a number or an (n, 1)
    column of a stack of patterns, against which x broadcasts, so one
    recursion gives the trace of every pattern of the stack, each with
    the bits of its own.  Every entry is a polynomial in x, so the
    entries commute either way.  The last step forms only the diagonal
    entries, the ones the trace reads."""
    c = [a_prev / an for a_prev, an in zip(a[-1:] + a[:-1], a)]
    # S_1 times the identity
    t = ((x - b[0] * one) / a[0], -c[0] * one, one, 0.0 * one)
    if len(a) == 1:
        return t[0] + t[3]
    for an, bn, cn in zip(a[1:-1], b[1:-1], c[1:-1]):
        s = (x - bn * one) / an
        t = (mul(s, t[0]) - cn * t[2], mul(s, t[1]) - cn * t[3], t[0], t[1])
    s = (x - b[-1] * one) / a[-1]
    return (mul(s, t[0]) - c[-1] * t[2]) + t[1]


def discriminant(J0: PeriodicJacobi, x):
    """The discriminant D(x) of J0 for every x at once: the trace of the
    one-period transfer product S_p ... S_1 (see _product_trace), a
    polynomial of degree p with leading coefficient 1 / prod(a).  It is
    carried through the product step by step, never through its monomial
    coefficients, which lose accuracy at large p."""
    return _product_trace(J0.a, J0.b, np.asarray(x, dtype=float))


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


def _open_bands(J0: PeriodicJacobi) -> FiniteGapSet:
    """bands(J0), which must have p bands: GapClosed otherwise."""
    fgs = bands(J0)
    if fgs.n_bands < J0.p:
        raise GapClosed(f"period {J0.p} needs {J0.p} bands (every gap "
                        f"open), found {fgs.n_bands}")
    return fgs


def delta_of_J(J0: PeriodicJacobi, J: JacobiParams, K: int) -> BlockJacobiParams:
    """Evaluate the discriminant of J0 on the one-sided matrix T of J
    and cut the result into p x p blocks: K + 1 diagonal blocks and K
    off-diagonal blocks.

    The evaluation is the transfer product of discriminant run on
    banded matrices held by their diagonals (``spectra._Banded``), with
    (T - b_n) / a_n multiplied in by matrix products, and the result's
    diagonals 0..p, read row by row, cut every block (the diagonal blocks
    are mirrored from their upper triangles, so they are exactly
    symmetric).  Every entry has the bits of the same recursion on
    sparse (CSR) matrices.  The result bandwidth equals p exactly, so
    the off-diagonal blocks are lower triangular by construction with
    diagonal entries that are ratios of p-fold products of J's
    off-diagonals to the period product.  The returned parameters carry
    the type3 tag, which their construction checks; failure of that
    structure is an implementation bug and raises NotType3.
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
    T = _Banded.tridiagonal(J.b_window(n_sites), a_arr)
    one = _Banded({0: np.ones(n_sites)})
    R = _product_trace(J0.a, J0.b, T, one, operator.matmul).diags
    # rows[k, r, t] is the entry (kp + r, kp + t): blocks k and k + 1 of
    # row r of block row k, read off the diagonals m = t - r = 0 .. p
    rows = np.zeros((K + 1, p, 2 * p))
    r = np.arange(p)
    for m in range(p + 1):
        rows[:, r, r + m] = R[m][:(K + 1) * p].reshape(K + 1, p)
    cut = rows.reshape(K + 1, p, 2, p)
    B = cut[:, :, 0] + np.triu(cut[:, :, 0], 1).transpose(0, 2, 1)
    try:
        return BlockJacobiParams(p, cut[:K, :, 1], B, "type3")
    except (ValueError, TypeError) as exc:
        raise NotType3(str(exc)) from exc


# -- equivalence-class representatives ---------------------------------


def _normal_forms(inputs, tag: str, exact, step, snap):
    """Each input, in input order, with its chain u_1 = I, u_{j+1} =
    step(u_j^* A_j), padded with identities, and the input transformed
    by it, its A stack ``snap``-ped; ``exact`` input comes back
    retagged, with the identity chain.

    The other inputs are grouped by block size, their A stacks padded
    with identity blocks to the group's longest, and each block index j
    takes one stacked ``step`` for the whole group; a stacked LAPACK call
    gives each matrix the bits of a call on it alone.  Every input was
    checked nonsingular when it was built, so every step has a unitary
    to give.  The chains, and then the outputs, are built together
    (``sequences._built_together``): each is checked once, by one pass
    of its construction check per block size, and an output's stacks
    are conjugated as ``UnitaryChain.apply`` does, with no intermediate
    parameter set."""
    inputs = list(inputs)
    groups, chains = {}, {}
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
            us.append(step(_herm(us[-1]) @ A[:, j]))
        us = np.stack(us, axis=1)
        for row, i in enumerate(idx):
            n = max(len(inputs[i].B), nA[row] + 1)
            chains[i] = np.concatenate(
                [us[row, :nA[row] + 1], np.tile(eye, (n - nA[row] - 1, 1, 1))])
    built = _built_together(UnitaryChain, [
        (chains[i] if i in chains else np.tile(
            np.eye(Jb.block_size), (max(len(Jb.B), len(Jb.A) + 1), 1, 1)),)
        for i, Jb in enumerate(inputs)])
    rows = []
    for i, (Jb, chain) in enumerate(zip(inputs, built)):
        if i in chains:
            A, B = chain._moved(Jb)
            rows.append((Jb.block_size, snap(A), B, tag))
        else:
            rows.append((Jb.block_size, Jb.A, Jb.B, tag))
    return list(zip(_built_together(BlockJacobiParams, rows), built))


def _exactly_type3(A: np.ndarray) -> bool:
    d = np.diagonal(A, axis1=1, axis2=2)
    return (not np.any(np.triu(A, k=1)) and not np.any(d.imag)
            and bool(np.all(d.real > 0.0)))


def _qr_step(M: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(_herm(M))
    rd = np.diagonal(r, axis1=1, axis2=2)
    # q @ diag(phase) as a matmul: an elementwise scaling can round
    # differently
    phase = np.zeros_like(q)
    i = np.arange(q.shape[1])
    phase[:, i, i] = rd / np.abs(rd)
    return q @ phase


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


def _polar_step(M: np.ndarray) -> np.ndarray:
    uu, _, vh = np.linalg.svd(M)
    return _herm(uu @ vh)


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
        edges = np.array(_open_bands(J0).bands)
        lo, hi = edges[:-1, 1], edges[1:, 0]
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


def _torus_points(J0: PeriodicJacobi, theta: np.ndarray) -> tuple:
    """The members of the isospectral family of J0 at the rows of the
    (n, p - 1) array of angles ``theta``, as the rows of two (n, p)
    arrays a and b: a row of zeros gives J0's pattern, and the other
    rows take one Dirichlet map and one map call for all of them.  Each
    member is checked as its own PeriodicJacobi and torus_point would
    check it, all of them in one stacked pass: its entries, then its
    discriminant against J0's; the first member that fails raises its
    own error."""
    n, p = len(theta), J0.p
    a, b = np.tile(J0.a, (n, 1)), np.tile(J0.b, (n, 1))
    off = np.flatnonzero(theta.any(axis=1))
    if not len(off):
        return a, b
    a[off], b[off] = am, bm = _DirichletMap(J0)(theta[off])
    lo, hi = min(J0.b) - 2.0 * max(J0.a), max(J0.b) + 2.0 * max(J0.a)
    x = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(
        math.pi * np.arange(p + 1) / p)
    want = discriminant(J0, x)
    # a sample with a nonfinite or zero entry fails its entry check below
    with np.errstate(divide="ignore", invalid="ignore"):
        D = _product_trace(np.hsplit(am, p), np.hsplit(bm, p), x)
    diff = np.max(np.abs(D - want), axis=1)
    fails = ((diff > 1e-9 * max(1.0, float(np.max(np.abs(want)))))
             | ~(np.isfinite(am) & (am > 0.0) & np.isfinite(bm)).all(axis=1))
    if fails.any():
        # the first failing sample's own construction names a bad entry
        i = int(np.argmax(fails))
        PeriodicJacobi(tuple(am[i]), tuple(bm[i]))
        raise ValueError(f"discriminant mismatch {diff[i]} for torus point")
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
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if len(theta) != J0.p - 1:
        raise ValueError(f"period {J0.p} needs {J0.p - 1} torus coordinates")
    if not theta.any():
        return J0
    a, b = _torus_points(J0, theta[None])
    return PeriodicJacobi(tuple(a[0]), tuple(b[0]))


# -- distance to the torus ---------------------------------------------

#: grid starts per torus coordinate, the step that ends the search, the
#: (row, move) pairs one look-ahead round may hold, the fewest moves per
#: row for which a round is worth its gather, the rows whose
#: coefficients a distance call gathers at a time (a block's few (512, L)
#: arrays stay in a core's L2 cache; 256 and 128 were slower), and the
#: most sites in one chunk of a gathered row (take copies chunk by
#: chunk, so longer chunks gather faster, but chunks of g periods hold
#: every coefficient g times: at 16 sites a thm6_1 run made 237 minor
#: faults against 153 at 6, and the memory per offset grew by 112 bytes)
_GRID_POINTS = 8
_FINAL_STEP = 1e-7
_LOOKAHEAD_ROWS = 256
_MIN_LOOKAHEAD = 3
_BLOCK = 512
_CHUNK_SITES = 6


def dm_weights(bound: float) -> np.ndarray:
    """Geometric weights e^{-k}, k = 0..K, with K chosen so the dropped
    tail of a series with terms bounded by ``bound`` stays below 1e-15."""
    K = max(40, int(math.ceil(math.log(max(bound, 1.0) / 1e-15))))
    return np.exp(-np.arange(K + 1, dtype=float))


def _deviation_bound(J: JacobiParams, probe: int) -> float:
    """The sup of |a_n - 1| + |b_n| over the first ``probe`` sites (all
    of them for a shorter finite J)."""
    return sup_deviation(J, min(probe, len(J)) if J.is_finite else probe)


class _Rows:
    """The aligned rows of a torus search, each held as two numbers, and
    the buffers that the distance kernel gathers them into, made once
    per search.

    Row i covers the L sites from the first site of its offset m's
    period on (L a multiple of p): its period index is period[i] = (m -
    1) // p, and its distance weights are w[phase[i]], phase = (m - 1) %
    p, one of the (p, L) weight rows: the weight of site m + k is w_k and
    every other weight is 0.

    A row's L sites are read as R chunks of g periods each, g the
    largest divisor of L / p with g p <= _CHUNK_SITES: chunk row u of
    ``a`` and ``b`` holds sites u p .. (u + g) p - 1 of J's coefficients,
    padded with zeros past the last weighted site, so the row with
    period index t is chunk rows t, t + g, .., t + (R - 1) g, and numpy's
    take copies them straight into a buffer.  The buffers hold the most
    rows one gather has passed and every later gather reuses them, so a
    gather allocates nothing of size (rows, L)."""

    def __init__(self, J: JacobiParams, ms: np.ndarray, w: np.ndarray,
                 p: int):
        K = len(w) - 1
        L = p * -(-(K + p) // p)
        self.phase = (ms - 1) % p
        hi = int(ms.max()) + K
        # rows reach past site hi only where their weight is 0
        pad = np.zeros(L - K)
        a, b = (np.concatenate([seq, pad]) for seq in (J.a_window(hi),
                                                       J.b_window(hi)))
        wz = np.concatenate([np.zeros(p - 1), w, np.zeros(L)])
        self.w = sliding_window_view(wz, L)[p - 1 - np.arange(p)]
        self.period = (ms - 1) // p
        reps = L // p
        g = max(d for d in range(1, max(1, _CHUNK_SITES // p) + 1)
                if reps % d == 0)
        self.a, self.b = (np.ascontiguousarray(sliding_window_view(
            x, g * p)[::p]) for x in (a, b))
        self.chunk = (reps // g, g * p)
        self.offsets = g * np.arange(reps // g)
        self.first = np.zeros(reps // g, dtype=np.intp)
        self.repeat = np.zeros((p, L))
        self.repeat[np.arange(L) % p, np.arange(L)] = 1.0
        self.p, self.L, self.held = p, L, 0

    def gather(self, idx: np.ndarray):
        """(X, Y, T): the coefficients of the rows ``idx``, of a and of
        b, and a buffer for their patterns, each (len(idx), L) and
        overwritten by the next gather.  Every index is in range by
        construction; mode="clip" keeps take from first copying into a
        temporary, as it does under the default mode."""
        t = self.period[idx]
        n = len(t)
        if n > self.held:
            self.held = n
            self.X, self.Y, self.T = (np.empty((n, self.L))
                                      for _ in range(3))
            self.starts = np.tile(self.offsets, (n, 1))
            self.I = np.empty_like(self.starts)
        # t along each row, then the chunk offsets added: a ufunc with a
        # broadcast operand would allocate its iterator's buffers
        I, X, Y = self.I[:n], self.X[:n], self.Y[:n]
        np.take(t[:, None], self.first, axis=1, out=I, mode="clip")
        np.add(I, self.starts[:n], out=I)
        for D, src in ((X, self.a), (Y, self.b)):
            np.take(src, I, axis=0, out=D.reshape(n, *self.chunk),
                    mode="clip")
        return X, Y, self.T[:n]

    def tile(self, x: np.ndarray, T: np.ndarray) -> None:
        """Write the patterns ``x`` ((n, p)), each repeated along its
        row, into T, as the product with ``repeat``, the (p, L) matrix
        with a 1 at (k % p, k) and 0 elsewhere.  Entry k of a row sums
        x[k % p] times 1 and zeros, which is x[k % p] itself for finite
        x (a zero may change sign, which |a - T| cannot show); twice as
        fast as take's copy, with nothing allocated."""
        np.matmul(x, self.repeat, out=T)

    def windows(self, s: int):
        """The one-period windows (a, b) of every row at sites m + s ..
        m + s + p - 1, each (rows, p) and read into period phase: column
        q holds the site n with (n - 1) % p = q."""
        p, q = self.p, np.arange(self.p)
        c = (self.phase + s)[:, None]
        cols = c + (q - c) % p
        # site k of a row is entry k % p of its chunk row k // p on
        u = self.period[:, None] + cols // p
        return self.a[u, cols % p], self.b[u, cols % p]


def _weighted_dist(rows: _Rows, idx: np.ndarray, a, b) -> np.ndarray:
    """Weighted distance of each of the rows ``idx`` to the periodic
    extension of its pattern: row idx[i] against (a[i], b[i]).  A
    block's rows are gathered into the buffers of ``rows`` and
    weighted phase run by phase run with that phase's weight row, which
    gives the bits of one full weight matrix; rows in phase order make
    one run per phase."""
    phase = rows.phase[idx]
    runs = [0, *((phase[1:] != phase[:-1]).nonzero()[0] + 1).tolist(),
            len(idx)]
    out = np.empty(len(idx))
    for lo in range(0, len(idx), _BLOCK):
        X, Y, T = rows.gather(idx[lo:lo + _BLOCK])
        n = len(X)
        for D, x in ((X, a), (Y, b)):
            rows.tile(x[lo:lo + n], T)
            np.subtract(D, T, out=D)
            np.abs(D, out=D)
        np.add(X, Y, out=X)
        for i, j in zip(runs[:-1], runs[1:]):
            i, j = max(i, lo), min(j, lo + n)
            if i < j:
                out[i:j] = np.einsum("j,ij->i", rows.w[phase[i]],
                                     X[i - lo:j - lo])
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
    for lo in range(0, n, _BLOCK):
        A, B, _ = rows.gather(every[lo:lo + _BLOCK])
        keys[lo:lo + len(A)] = _row_keys(A, B, rows.phase[lo:lo + len(A)])
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    rep = first[group]
    shared = np.flatnonzero(rep != every)
    differ = rows.phase[shared] != rows.phase[rep[shared]]
    # each shared row next to its group's first, whole pairs per block
    pairs = np.stack([shared, rep[shared]], axis=1).ravel()
    step = 2 * max(1, _BLOCK // 2)
    for lo in range(0, len(pairs), step):
        A, B, _ = rows.gather(pairs[lo:lo + step])
        k = slice(lo // 2, (lo + len(A)) // 2)
        for X in (A, B):
            bits = X.view(np.uint64)
            differ[k] |= np.any(bits[0::2] != bits[1::2], axis=1)
    rep[shared[differ]] = shared[differ]
    return np.unique(rep, return_inverse=True)


def _pattern_search(family: _DirichletMap, rows: _Rows, theta, best, span):
    """Refine the distances ``best`` of the aligned rows in place, from
    their angles ``theta`` and from step ``span`` down to _FINAL_STEP
    (see d_to_torus_batch).  A row at distance exactly 0 is final, since
    no distance is below 0: it would take no move, so it is not
    searched.

    Each row tries the moves of an iteration in a fixed order, each from
    its current angles.  With few live rows this runs in look-ahead
    rounds: every row with moves left evaluates its next h of them, h =
    min(moves, _LOOKAHEAD_ROWS // rows with moves left), through one map
    call and one distance call for all rows, and takes the first that
    improves; its pairs past its last move repeat that move.  Until that
    first improvement its angles are the ones a move-by-move order would
    start from, so a round takes the same moves from the same operands.
    An iteration with h below _MIN_LOOKAHEAD at its start tries each
    move in turn for every row at once."""
    p = family.p
    moves = [d for d in itertools.product((-1, 0, 1), repeat=p - 1) if any(d)]
    moves = np.array(moves, dtype=float).reshape(len(moves), p - 1)
    live = np.flatnonzero(best != 0.0)
    theta = theta[live]
    step = np.full(len(live), span)
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

    Each distance has the bits of a search of its offset alone, one
    move at a time.  The batch searches each distinct aligned row (see
    _Rows) once, gathers rows _BLOCK at a time, and, with few live
    rows, tries several moves per map call in look-ahead rounds; none
    of these changes a bit (the tests in tests/test_periodic.py that
    hold it: test_look_ahead_search_gives_the_sequential_bits,
    test_the_look_ahead_size_leaves_the_distances_unchanged,
    test_offsets_sharing_a_window_get_the_single_call_distance,
    test_colliding_row_keys_leave_the_distances_unchanged,
    test_row_pairs_in_odd_blocks_leave_the_distances_unchanged,
    test_row_blocks_leave_the_distances_unchanged and
    test_grid_chunks_leave_the_distances_unchanged).  Memory is O(1)
    per offset, about 310 bytes at p = 2, 48 of them the chunk rows,
    which hold each coefficient of 42-site rows three times (see _Rows;
    test_batch_search_memory_grows_by_o1_per_offset).
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
    rows = _Rows(J, ms[order], dm_weights(bound), p)
    reps, share = _distinct_rows(rows)
    rows.period, rows.phase = rows.period[reps], rows.phase[reps]
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
    # the windows' own angles; at p = 1 the grid's one point is the family
    for s in range(p) if p > 1 else ():
        start = family.angles(*rows.windows(s))
        vals = _weighted_dist(rows, every, *family(start))
        better = vals < best
        best[better] = vals[better]
        theta[better] = start[better]

    _pattern_search(family, rows, theta, best, span)
    out = np.empty(len(ms))
    out[order] = best[share]
    return out
