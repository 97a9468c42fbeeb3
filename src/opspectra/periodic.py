"""Periodic recurrence data: discriminants, band sets, the polynomial
block map, type-1/type-3 normalization, and the isospectral torus.

The discriminant of a period-p generator is the trace of its one-period
transfer-matrix product, computed in exact polynomial-coefficient
arithmetic.  Evaluating that degree-p polynomial on a one-sided
tridiagonal matrix produces a block-tridiagonal matrix with p x p
blocks whose off-diagonal blocks are lower triangular with positive
diagonal; the evaluation here runs Horner directly on banded diagonal
storage, so the bandwidth (and hence the block structure) is tracked
exactly and no dense intermediate ever exists.

The isospectral torus of a band set with all gaps open is parametrized
by p - 1 angles through Dirichlet data, for every period: angle j
places one Dirichlet point in gap j and picks its sheet, and an
explicit map (p - 1 Stieltjes steps plus the top coefficients of the
discriminant) turns those data into the generator (Teschl, *Jacobi
Operators and Completely Integrable Nonlinear Lattices*, ch. 7-8).
Distance from a coefficient sequence to the torus is a minimum over a
grid of angles refined by a pattern search along the axes and the
diagonals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial import polynomial as npp

from .potential import FiniteGapSet
from .sequences import (BlockJacobiParams, JacobiParams, SingularBlock,
                        UnitaryChain, _freeze, sup_deviation,
                        validate_blocks)


class ComplexRoots(ValueError):
    """Band-edge polynomial has genuinely nonreal roots: the coefficients
    do not come from a valid periodic generator."""


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


@dataclass(frozen=True)
class Discriminant:
    """Degree-p polynomial (ascending coefficients) with positive leading
    coefficient equal to the reciprocal off-diagonal product of its
    generator.

    ``t21`` and ``t22`` carry the lower row of the transfer product
    (degrees p - 1 and p - 2): the roots of ``t21`` are the generator's
    one-per-gap Dirichlet points and the sign of T_11 - T_22 there is
    its sheet, which anchors theta = 0 of the torus map at the
    generator.  ``source`` remembers the generator when the
    discriminant was built from one.
    """

    coeffs: np.ndarray
    t21: Optional[np.ndarray] = None
    source: Optional[PeriodicJacobi] = None
    t22: Optional[np.ndarray] = None

    def __post_init__(self):
        c = _freeze(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", c)
        for name in ("t21", "t22"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _freeze(
                    np.asarray(getattr(self, name), dtype=float)))
        if len(c) < 2 or c[-1] <= 0.0:
            raise ValueError("discriminant needs degree >= 1 and a positive "
                             "leading coefficient")

    @property
    def p(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        return float(self.coeffs[-1])

    @property
    def cap(self) -> float:
        """Geometric mean of the generator off-diagonals."""
        return float(self.leading ** (-1.0 / self.p))

    def value(self, x):
        return npp.polyval(x, self.coeffs)

    def derivative(self, x):
        return npp.polyval(x, npp.polyder(self.coeffs))

    def bands(self) -> FiniteGapSet:
        return bands(self)

    def to_csv(self) -> str:
        lines = ["k,coeff"]
        lines += [f"{k},{repr(float(v))}" for k, v in enumerate(self.coeffs)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "Discriminant":
        rows = [r.split(",") for r in text.strip().splitlines()]
        if rows[0] != ["k", "coeff"]:
            raise ValueError("expected header k,coeff")
        coeffs = np.zeros(len(rows) - 1)
        for k, v in rows[1:]:
            coeffs[int(k)] = float(v)
        return cls(coeffs)


def _poly_mat_mul(x, y):
    """Product of 2x2 matrices with polynomial (ascending-coefficient)
    entries."""
    out = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            out[i][j] = npp.polyadd(npp.polymul(x[i][0], y[0][j]),
                                    npp.polymul(x[i][1], y[1][j]))
    return out


def discriminant(J0: PeriodicJacobi) -> Discriminant:
    """Trace of the one-period transfer product of J0.

    The n-th one-step matrix is [[(x - b_n)/a_n, -a_{n-1}/a_n], [1, 0]]
    with a_0 = a_p; the product runs n = 1..p applied left to right, so
    the result is A_p ... A_1 and its trace is the discriminant.
    """
    p = J0.p
    T = [[np.array([1.0]), np.array([0.0])],
         [np.array([0.0]), np.array([1.0])]]
    a_prev = J0.a[-1]
    for n in range(p):
        an, bn = J0.a[n], J0.b[n]
        step = [[np.array([-bn / an, 1.0 / an]), np.array([-a_prev / an])],
                [np.array([1.0]), np.array([0.0])]]
        T = _poly_mat_mul(step, T)
        a_prev = an
    delta = npp.polyadd(T[0][0], T[1][1])
    coeffs = np.zeros(p + 1)
    coeffs[: len(delta)] = delta
    lead = 1.0
    for x in J0.a:
        lead /= x
    if abs(coeffs[-1] - lead) > 1e-12 * lead:
        raise ArithmeticError("transfer product lost the leading coefficient")
    t21 = np.zeros(p)
    t21[: len(T[1][0])] = T[1][0]
    t22 = np.zeros(max(p - 1, 1))
    t22[: len(T[1][1])] = T[1][1]
    return Discriminant(coeffs, t21=t21, t22=t22, source=J0)


def bands(disc: Discriminant) -> FiniteGapSet:
    """Band set: closure of the preimage of [-2, 2] under the
    discriminant.

    Edges are the roots of D(x) -+ 2 via companion matrices.  A closed
    gap shows up as a (numerically split) double root; roots whose small
    imaginary part comes from that splitting are accepted through a
    residual check, while genuinely complex roots raise ComplexRoots.
    Touching proto-bands are merged.
    """
    edges = []
    cscale = float(np.max(np.abs(disc.coeffs))) + 2.0
    for sign in (-2.0, 2.0):
        shifted = disc.coeffs.copy()
        shifted[0] -= sign
        roots = npp.polyroots(shifted)
        for r in roots:
            x = float(np.real(r))
            im = abs(float(np.imag(r)))
            scale = max(1.0, abs(x))
            if im > 1e-9 * scale:
                resid = abs(float(disc.value(x)) - sign)
                if resid > 1e-7 * cscale or im > 1e-5 * scale:
                    raise ComplexRoots(
                        f"root {r} of discriminant {'-' if sign > 0 else '+'} 2 "
                        "is not real"
                    )
            edges.append(x)
    edges.sort()
    proto = [(edges[2 * i], edges[2 * i + 1]) for i in range(len(edges) // 2)]
    span = max(1.0, abs(edges[0]), abs(edges[-1]))
    merged = [list(proto[0])]
    for lo, hi in proto[1:]:
        if lo - merged[-1][1] <= 1e-8 * span:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    if disc.source is not None:
        pattern = tuple(disc.source.a)
    else:
        pattern = (disc.cap,) * disc.p
    return FiniteGapSet(tuple((lo, hi) for lo, hi in merged), period_a=pattern)


# -- polynomial of a tridiagonal matrix on banded storage ---------------


def _band_mul_tridiag(R: dict, w: int, a: np.ndarray, b: np.ndarray,
                      n: int) -> dict:
    """One Horner step: symmetric banded R (diagonals 0..w) times the
    tridiagonal matrix with diagonal b and off-diagonal a."""
    out = {}
    for dp in range(w + 2):
        m = n - dp
        if m <= 0:
            continue
        j = np.arange(dp, n)
        acc = np.zeros(m)
        if dp <= w:
            acc += R[dp][:m] * b[j]
        if dp >= 1 and dp - 1 <= w:
            acc += R[dp - 1][:m] * a[j - 1]
        elif dp == 0 and w >= 1:
            acc[1:] += R[1][: m - 1] * a[: m - 1]
        if dp + 1 <= w:
            acc[: m - 1] += R[dp + 1][: m - 1] * a[j[: m - 1]]
        out[dp] = acc
    return out


def _poly_of_tridiag(coeffs: np.ndarray, a: np.ndarray, b: np.ndarray,
                     n: int):
    """Banded evaluation of a polynomial (ascending coeffs) of the
    tridiagonal matrix with diagonal b[0..n-1], off-diagonal a[0..n-2].
    Returns (diagonals dict, bandwidth); entry (i, i+d) = diags[d][i]."""
    deg = len(coeffs) - 1
    R = {0: np.full(n, float(coeffs[deg]))}
    w = 0
    for k in range(deg - 1, -1, -1):
        R = _band_mul_tridiag(R, w, a, b, n)
        w += 1
        R[0] = R[0] + coeffs[k]
    return R, w


def delta_of_J(J0: PeriodicJacobi, J: JacobiParams, K: int) -> BlockJacobiParams:
    """Evaluate the discriminant of J0 on the one-sided matrix of J and
    cut the result into p x p blocks: K + 1 diagonal blocks and K
    off-diagonal blocks.

    The result bandwidth equals p exactly, so the off-diagonal blocks
    are lower triangular by construction with diagonal entries that are
    ratios of p-fold products of J's off-diagonals to the period
    product.  The returned parameters carry the type3 tag after
    verification; failure of that structure is an implementation bug and
    raises NotType3.
    """
    if K < 1:
        raise ValueError("K >= 1 required")
    p = J0.p
    n_sites = (K + 2) * p + p
    if J.is_finite and not J.available(n_sites - 1, n_sites):
        raise BandwidthExceeded(
            f"need {n_sites} sites for K={K} blocks of size {p}"
        )
    b_arr = J.b_window(n_sites)
    a_arr = J.a_window(n_sites - 1)
    disc = discriminant(J0)
    R, w = _poly_of_tridiag(disc.coeffs, a_arr, b_arr, n_sites)
    B_blocks = []
    for k in range(K + 1):
        base = k * p
        blk = np.zeros((p, p))
        for r in range(p):
            for s in range(r, p):
                blk[r, s] = R[s - r][base + r]
                blk[s, r] = blk[r, s]
        B_blocks.append(_freeze(blk.astype(complex)))
    A_blocks = []
    for k in range(K):
        base = k * p
        blk = np.zeros((p, p))
        for r in range(p):
            for s in range(0, r + 1):
                d = p + s - r
                blk[r, s] = R[d][base + r]
        A_blocks.append(_freeze(blk.astype(complex)))
    out = BlockJacobiParams(block_size=p, A=tuple(A_blocks),
                            B=tuple(B_blocks), type_tag="type3")
    try:
        validate_blocks(out)
    except (ValueError, TypeError) as exc:
        raise NotType3(str(exc)) from exc
    return out


# -- equivalence-class representatives ---------------------------------


def _phase_diag(d: np.ndarray) -> np.ndarray:
    out = np.ones_like(d)
    nz = np.abs(d) > 0.0
    out[nz] = d[nz] / np.abs(d[nz])
    return out


def _exactly_type3(M: np.ndarray) -> bool:
    d = np.diagonal(M)
    return (not np.any(np.triu(M, k=1)) and not np.any(d.imag)
            and bool(np.all(d.real > 0.0)))


def _exactly_type1(M: np.ndarray) -> bool:
    if not np.array_equal(M, M.conj().T):
        return False
    return bool(np.linalg.eigvalsh(M)[0] > 0.0)


def _identity_chain(params: BlockJacobiParams, tag: str):
    ell = params.block_size
    eye = _freeze(np.eye(ell, dtype=complex))
    chain = UnitaryChain((eye,) * max(len(params.B), len(params.A) + 1))
    out = BlockJacobiParams(ell, params.A, params.B, tag)
    return out, chain


def normalize_type3(Jb: BlockJacobiParams):
    """Equivalent parameter set whose off-diagonal blocks are lower
    triangular with positive diagonal, plus the realizing unitary chain.

    Built left to right: each u_{j+1} is the Q factor (phase-fixed) of
    the QR factorization of (u_j^* A_j)^*.  Applying the returned chain
    to the original input reproduces the returned parameters.  Input
    that is already exactly in form comes back unchanged with the
    identity chain.
    """
    if all(_exactly_type3(A) for A in Jb.A):
        return _identity_chain(Jb, "type3")
    ell = Jb.block_size
    u = [np.eye(ell, dtype=complex)]
    for j, A in enumerate(Jb.A, start=1):
        M = u[-1].conj().T @ A
        q, r = np.linalg.qr(M.conj().T)
        rd = np.diagonal(r).copy()
        if np.any(np.abs(rd) <= 1e-12 * max(1.0, float(np.max(np.abs(A))))):
            raise SingularBlock(j, float(np.min(np.abs(rd))), 0.0)
        u.append(q @ np.diag(_phase_diag(rd)))
    while len(u) < len(Jb.B):
        u.append(np.eye(ell, dtype=complex))
    chain = UnitaryChain(tuple(_freeze(m) for m in u))
    out = chain.apply(Jb, type_tag="type3")
    # snap the roundoff dust off the structural zeros so the result is
    # exactly in form (idempotent under re-normalization)
    A = []
    for blk in out.A:
        blk = np.tril(blk)
        np.fill_diagonal(blk, np.diagonal(blk).real)
        A.append(_freeze(blk))
    out = BlockJacobiParams(out.block_size, tuple(A), out.B, "type3")
    validate_blocks(out)
    return out, chain


def normalize_type1(Jb: BlockJacobiParams):
    """Equivalent parameter set whose off-diagonal blocks are positive
    definite (polar factors), plus the realizing chain.  Each output
    block is checked against the determinant-versus-diagonal-product
    inequality for positive definite matrices."""
    if all(_exactly_type1(A) for A in Jb.A):
        return _identity_chain(Jb, "type1")
    ell = Jb.block_size
    u = [np.eye(ell, dtype=complex)]
    for j, A in enumerate(Jb.A, start=1):
        M = u[-1].conj().T @ A
        uu, s, vh = np.linalg.svd(M)
        if s[-1] <= 1e-12 * max(s[0], 1.0):
            raise SingularBlock(j, float(s[-1]), float(1e-12 * s[0]))
        u.append((uu @ vh).conj().T)
    while len(u) < len(Jb.B):
        u.append(np.eye(ell, dtype=complex))
    chain = UnitaryChain(tuple(_freeze(m) for m in u))
    out = chain.apply(Jb, type_tag="type1")
    # make the polar factors exactly Hermitian
    A = tuple(_freeze((blk + blk.conj().T) / 2.0) for blk in out.A)
    out = BlockJacobiParams(out.block_size, A, out.B, "type1")
    validate_blocks(out)
    for j, A in enumerate(out.A, start=1):
        det = float(np.linalg.det(A).real)
        diag_prod = float(np.prod(np.diagonal(A).real))
        if det > diag_prod + 1e-12:
            raise ArithmeticError(
                f"determinant bound violated on block {j}: {det} > {diag_prod}"
            )
    return out, chain


# -- isospectral torus -------------------------------------------------


@dataclass(frozen=True)
class TorusPoint:
    """A periodic generator sharing a reference discriminant, tagged with
    its angle coordinates."""

    jacobi: PeriodicJacobi
    theta: Tuple[float, ...]
    reference: Discriminant

    def __post_init__(self):
        own = discriminant(self.jacobi)
        diff = float(np.max(np.abs(own.coeffs - self.reference.coeffs)))
        if diff > 1e-9 * max(1.0, float(np.max(np.abs(self.reference.coeffs)))):
            raise ValueError(f"discriminant mismatch {diff} for torus point")


class _DirichletMap:
    """Explicit map from angles to the generators sharing dref's
    discriminant, through Dirichlet data.

    Angle j puts the Dirichlet point mu_j = m_j + h_j cos(theta_j) in gap
    j (midpoint m_j, half-width h_j) on the sheet sigma_j =
    sign(sin theta_j).  The transfer product T over one period has
    T_21(mu_j) = 0, so T_11 T_22 = 1 there and T_11 = (D + sigma_j
    sqrt(D^2 - 4)) / 2 at D = D(mu_j).  The mu_j are the eigenvalues of
    the (p - 1)-site truncation and -T_22(mu_j) / prod_{k != j}(mu_j -
    mu_k) are its spectral weights (positive), so p - 1 Stieltjes steps
    give b_1..b_{p-1} and a_1..a_{p-2}.  The leading coefficient of T_22
    is -a_p^2 / prod(a), and the top two coefficients of D fix prod(a)
    and sum(b), which gives a_p, a_{p-1} and b_p.

    The angles are shifted so that theta = 0 is the source generator when
    dref carries its T_21 and T_22.
    """

    def __init__(self, dref: Discriminant):
        self.p = p = dref.p
        self.coeffs = dref.coeffs
        self.prod_a = 1.0 / dref.leading
        self.sum_b = -float(dref.coeffs[-2]) / dref.leading
        self.shift = np.zeros(p - 1)
        if p == 1:
            return
        fgs = dref.bands()
        if fgs.n_bands < p:
            raise GapClosed(f"period-{p} torus needs {p} bands (every gap "
                            f"open), found {fgs.n_bands}")
        lo = np.array([band[1] for band in fgs.bands[:-1]])
        hi = np.array([band[0] for band in fgs.bands[1:]])
        self.mid = 0.5 * (lo + hi)
        self.half = 0.5 * (hi - lo)
        if dref.t21 is not None and dref.t22 is not None:
            mu = np.sort(npp.polyroots(dref.t21).real)
            split = dref.value(mu) - 2.0 * npp.polyval(mu, dref.t22)
            cos = np.clip((mu - self.mid) / self.half, -1.0, 1.0)
            self.shift = np.where(split >= 0.0, 1.0, -1.0) * np.arccos(cos)

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
        D = npp.polyval(mu, self.coeffs)
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


def torus_point(dref: Discriminant, theta) -> TorusPoint:
    """Member of the isospectral family of dref at angle coordinates
    theta (length p - 1), through the Dirichlet-data map; theta = 0 is
    the generator itself.  Every period is covered; all gaps must be open
    (GapClosed otherwise).
    """
    theta = tuple(np.atleast_1d(np.asarray(theta, dtype=float)).tolist())
    p = dref.p
    if len(theta) != p - 1:
        raise ValueError(f"period {p} needs {p - 1} torus coordinates")
    if all(t == 0.0 for t in theta) and dref.source is not None:
        return TorusPoint(dref.source, theta, dref)
    a, b = _DirichletMap(dref)(np.array(theta).reshape(1, p - 1))
    return TorusPoint(PeriodicJacobi(tuple(a[0]), tuple(b[0])), theta, dref)


# -- distance to the torus ---------------------------------------------

def dm_weights(bound: float) -> np.ndarray:
    """Geometric weights e^{-k}, k = 0..K, with K chosen so the dropped
    tail of a series with terms bounded by ``bound`` stays below 1e-15."""
    K = max(40, int(math.ceil(math.log(max(bound, 1.0) / 1e-15))))
    return np.exp(-np.arange(K + 1, dtype=float))


def _deviation_bound(J: JacobiParams, probe: int) -> float:
    """Bound on |a_n - 1| + |b_n|: the declared one, else the sup over
    the first ``probe`` sites (all of them for a shorter finite J)."""
    if J.declared_bound is not None:
        return float(J.declared_bound)
    if J.is_finite:
        return sup_deviation(J, min(probe, len(J._a)))
    return sup_deviation(J, probe)


def d_to_torus(J: JacobiParams, m: int, dref: Discriminant,
               grid_points: int = 64, refine_step: float = 1e-7) -> float:
    """Distance at offset m from J to the isospectral family of dref:
    the exponentially weighted coefficient distance minimized over the
    family.  Minimum over the grid of grid_points^{p-1} angles of the
    Dirichlet-data map, refined by a pattern search: from the best grid
    sample, try a step along every direction in {-1, 0, 1}^{p-1} (the
    axes and the diagonals; the objective has kinks that stall pure
    axis moves), keep any improvement, and halve the step when none
    helps, from the grid spacing down to ``refine_step``.  The result is
    an upper bound on the true infimum and no worse than the best grid
    sample; it can stop in a local minimum."""
    return float(d_to_torus_batch(J, np.array([m]), dref, grid_points,
                                  refine_step)[0])


def _aligned_windows(J: JacobiParams, ms: np.ndarray, w: np.ndarray, p: int):
    """Coefficients of J and distance weights on whole periods: row i
    covers the L sites from the first site of m_i's period on, L a
    multiple of p; the weight of site m_i + k is w[k] and every other
    weight is 0."""
    K = len(w) - 1
    L = p * -(-(K + p) // p)
    r = (ms - 1) % p
    hi = int(ms.max()) + K
    # rows reach past site hi only where their weight is 0
    pad = np.zeros(L - K)
    A, B = (np.lib.stride_tricks.sliding_window_view(
        np.concatenate([seq, pad]), L)[ms - r - 1]
        for seq in (J.a_window(hi), J.b_window(hi)))
    wz = np.concatenate([np.zeros(p - 1), w, np.zeros(L)])
    W = np.lib.stride_tricks.sliding_window_view(wz, L)[p - 1 - r]
    return A, B, W


def _weighted_dist(A, B, W, a, b, work) -> np.ndarray:
    """Weighted distance of each aligned row to the periodic extension
    of pattern (a, b) (one pattern, or one per row).  ``work`` is a
    reused (2, >= rows, L) buffer: fresh temporaries of this size would
    each cost page faults."""
    reps = A.shape[1] // a.shape[-1]
    x, y = work[0, :len(A)], work[1, :len(A)]
    np.abs(np.subtract(A, np.tile(a, reps), out=x), out=x)
    np.abs(np.subtract(B, np.tile(b, reps), out=y), out=y)
    return np.einsum("ij,ij->i", W, np.add(x, y, out=x))


def d_to_torus_batch(J: JacobiParams, ms: np.ndarray, dref: Discriminant,
                     grid_points: int = 64,
                     refine_step: float = 1e-7) -> np.ndarray:
    """Vectorized d_to_torus over a set of offsets (see d_to_torus).

    The grid goes through the map once; each grid generator is compared
    with every offset at once, and the refinement moves all offsets
    together.
    """
    ms = np.asarray(ms, dtype=int)
    if np.any(ms < 1):
        raise ValueError("offsets are 1-based")
    p = dref.p
    family = _DirichletMap(dref)
    if dref.source is not None:
        ref_dev = dref.source.deviation_bound
    else:
        ref_dev = abs(dref.cap - 1.0)
    bound = 2.0 * (_deviation_bound(J, int(ms.max())) + ref_dev + 2.0)
    A, B, W = _aligned_windows(J, ms, dm_weights(bound), p)
    work = np.empty((2,) + A.shape)

    span = 2.0 * math.pi / grid_points
    pts = list(itertools.product(range(grid_points), repeat=p - 1))
    grid = span * np.array(pts, dtype=float).reshape(len(pts), p - 1)
    ga, gb = family(grid)
    best = np.full(len(ms), np.inf)
    best_g = np.zeros(len(ms), dtype=int)
    for g in range(len(grid)):
        vals = _weighted_dist(A, B, W, ga[g], gb[g], work)
        better = vals < best
        best = np.where(better, vals, best)
        best_g = np.where(better, g, best_g)

    moves = [np.array(d, dtype=float) for d in
             itertools.product((-1, 0, 1), repeat=p - 1) if any(d)]
    theta, step = grid[best_g], np.full(len(ms), span)
    live = np.arange(len(ms))
    while True:
        keep = step > refine_step
        if not keep.all():
            live, theta, step, A, B, W = (x[keep] for x in
                                          (live, theta, step, A, B, W))
        if not len(live):
            break
        moved = np.zeros(len(live), dtype=bool)
        for d in moves:
            cand = theta + step[:, None] * d
            vals = _weighted_dist(A, B, W, *family(cand), work)
            better = vals < best[live]
            theta[better] = cand[better]
            best[live[better]] = vals[better]
            moved |= better
        step[~moved] *= 0.5
    return best
