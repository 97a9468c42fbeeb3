"""Finite truncations and their spectra.

Three matrix shapes: symmetric tridiagonal truncations of scalar
recurrence data, Hermitian block-tridiagonal truncations, and unitary
five-diagonal truncations of circle recurrence data.  Only eigenvalues
are ever needed downstream.  The tridiagonal path takes them from
LAPACK's root-free QL iteration and certifies them with one vectorized
Sturm-count sweep (Sylvester inertia), falling back to Sturm bisection
for any value the sweep cannot certify.  The unitary path solves a
Hermitian Cayley transform of the matrix and checks every eigenpair
residual.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from .sequences import BlockJacobiParams, JacobiParams, VerblunskyParams, _freeze


class NoConvergence(ArithmeticError):
    """Eigenvalue iteration failed to meet tolerance; indicates a bug or
    a violated input invariant, not a property of valid data."""

    def __init__(self, detail: str):
        super().__init__(detail)


class NotUnitary(ValueError):
    """Matrix handed to a unitary eigensolver fails the unitarity check."""

    def __init__(self, defect: float):
        super().__init__(f"unitarity defect {defect} exceeds tolerance")
        self.defect = defect


class DuplicateEigenvalues(UserWarning):
    """Numerically coincident eigenvalues where simplicity is guaranteed;
    points at an invariant violation upstream."""


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix: diagonal of length N, positive
    off-diagonal of length N-1."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = _freeze(np.asarray(self.diag, dtype=float))
        e = _freeze(np.asarray(self.offdiag, dtype=float))
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if d.ndim != 1 or e.ndim != 1 or len(e) != len(d) - 1:
            raise ValueError("need len(offdiag) == len(diag) - 1")
        if np.any(e <= 0):
            raise ValueError("off-diagonal entries must be positive")

    @property
    def n(self) -> int:
        return len(self.diag)

    def gershgorin(self):
        """Enclosing interval for the spectrum."""
        d, e = self.diag, self.offdiag
        pad = np.zeros(len(d))
        pad[:-1] += e
        pad[1:] += e
        return float(np.min(d - pad)), float(np.max(d + pad))

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        m[idx, idx + 1] = self.offdiag
        m[idx + 1, idx] = self.offdiag
        return m


class EmpiricalMeasure:
    """Sorted sample points with equal weights 1/N.

    ``domain`` is "line" for real points or "circle" for angles in
    (-pi, pi].
    """

    def __init__(self, points, domain: str = "line"):
        points = np.sort(np.asarray(points, dtype=float))
        if domain not in ("line", "circle"):
            raise ValueError("domain must be 'line' or 'circle'")
        if len(points) == 0:
            raise ValueError("empty sample")
        self.points = _freeze(points)
        self.domain = domain

    def __len__(self) -> int:
        return len(self.points)

    def mean_power(self, k: int) -> float:
        """(1/N) sum x^k for line samples."""
        return math.fsum((self.points ** k).tolist()) / len(self.points)

    def mean_phase(self) -> complex:
        """(1/N) sum e^{i theta} for circle samples."""
        z = np.exp(1j * self.points)
        return complex(math.fsum(z.real.tolist()),
                       math.fsum(z.imag.tolist())) / len(self.points)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["index", "point"])
        for i, x in enumerate(self.points):
            w.writerow([i, repr(float(x))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, domain: str = "line") -> "EmpiricalMeasure":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["index", "point"]:
            raise ValueError("expected header index,point")
        return cls(np.array([float(r[1]) for r in rows[1:]]), domain)


def truncate(params: JacobiParams, N: int) -> TridiagonalMatrix:
    """N-point truncation: diag b_1..b_N, offdiag a_1..a_{N-1}."""
    if N < 1:
        raise ValueError("N >= 1 required")
    b = params.b_window(N)
    a = params.a_window(N - 1) if N > 1 else np.empty(0)
    return TridiagonalMatrix(b, a)


_SAFMIN = np.finfo(float).tiny


def _sturm_counts(T: TridiagonalMatrix, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of T below each shift in xs, via the signs
    of the LDL^T pivots q_k = d_k - x - e_{k-1}^2 / q_{k-1}."""
    d = T.diag
    e2 = T.offdiag ** 2
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


def _sturm_certificate(T: TridiagonalMatrix, vals: np.ndarray) -> np.ndarray:
    """Indices of the ascending eigenvalue list ``vals`` that one Sturm
    sweep fails to certify.

    The shifts are a point below the Gershgorin interval, the N-1
    midpoints of consecutive values and a point above it.  By Sylvester's
    law of inertia, a count of j below shift j and of j+1 below shift
    j+1 puts exactly one eigenvalue, the j-th, in the bracket between
    them, so vals[j] is within that bracket's width of it.  Value j is
    certified when both counts hold and it lies strictly inside its
    bracket (a tie with a neighbour puts a shift on the value itself).
    """
    gl, gu = T.gershgorin()
    pad = 1e-13 * max(abs(gl), abs(gu))
    xs = np.concatenate([[gl - pad], 0.5 * (vals[:-1] + vals[1:]), [gu + pad]])
    ok = _sturm_counts(T, xs) == np.arange(T.n + 1)
    inside = (xs[:-1] < vals) & (vals < xs[1:])
    return np.flatnonzero(~(ok[:-1] & ok[1:] & inside))


def _bisect(T: TridiagonalMatrix, idx: np.ndarray) -> np.ndarray:
    """Eigenvalues number ``idx`` (ascending, 0-based) by Sturm-count
    bisection from the Gershgorin interval, each refined to 1e-13
    relative to the Gershgorin bound in at most 200 sweeps."""
    gl, gu = T.gershgorin()
    tol = 1e-13 * max(abs(gl), abs(gu))
    lo = np.full(len(idx), gl)
    hi = np.full(len(idx), gu)
    need = idx + 1  # eigenvalue i has count >= i+1 above it
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = _sturm_counts(T, mid) >= need
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if float(np.max(hi - lo)) <= tol:
            return 0.5 * (lo + hi)
    raise NoConvergence(
        f"bisection stalled: residual interval {float(np.max(hi - lo))}"
    )


def eig_sym_tridiag(T: TridiagonalMatrix, method: str = "bisect") -> np.ndarray:
    """All eigenvalues of T, ascending.

    Both methods compute the values with LAPACK's root-free QL/QR
    iteration (``sterf``).  method "bisect" (the default) then certifies
    them with one vectorized Sturm-count sweep: exactly one eigenvalue
    between consecutive midpoints, none outside the Gershgorin bounds.
    Only the values the sweep cannot certify are recomputed by
    Sturm-count bisection (at most 200 sweeps), so a valid input
    never fails.  method "ql" returns the uncertified ``sterf`` values,
    for callers that check themselves (the trace identity of
    trace_square).

    Positive off-diagonals force simple eigenvalues; numerically
    coincident ones trigger a DuplicateEigenvalues warning.
    """
    if method not in ("bisect", "ql"):
        raise ValueError(f"unknown method {method!r}")
    n = T.n
    if n == 1:
        return np.array([float(T.diag[0])])
    vals = sla.eigvalsh_tridiagonal(T.diag, T.offdiag, lapack_driver="sterf")
    if method == "bisect":
        bad = _sturm_certificate(T, vals)
        if len(bad):
            vals[bad] = _bisect(T, bad)
            vals = np.sort(vals)
    gaps = np.diff(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if len(gaps) and float(gaps.min()) < 1e-12 * scale:
        warnings.warn(
            "numerically duplicate eigenvalues in a simple-spectrum matrix",
            DuplicateEigenvalues,
        )
    return vals


def zero_counting(params: JacobiParams, N: int) -> EmpiricalMeasure:
    """Normalized counting measure of the N-truncation eigenvalues."""
    return EmpiricalMeasure(eig_sym_tridiag(truncate(params, N)), "line")


def trace_square(params: JacobiParams, N: int, method: str = "bisect"):
    """Mean squared eigenvalue of the N-truncation, both ways.

    Returns (via_formula, via_eigs): the coefficient-side expression
    (1/N)(sum b^2 + 2 sum a^2) and the spectral side (1/N) sum x_j^2.
    The two agree to roundoff; keeping both routes is the point.
    """
    b = params.b_window(N)
    a = params.a_window(N - 1) if N > 1 else np.empty(0)
    via_formula = (math.fsum((b ** 2).tolist())
                   + 2.0 * math.fsum((a ** 2).tolist())) / N
    eigs = eig_sym_tridiag(truncate(params, N), method)
    via_eigs = math.fsum((eigs ** 2).tolist()) / N
    return via_formula, via_eigs


class CmvMatrix:
    """Unitary five-diagonal truncation built from circle recurrence
    coefficients.

    The matrix is the product of two block-diagonal unitaries: one made
    of the 2x2 rotors [[-a_j, rho_j], [rho_j, conj(a_j)]] at even j, one
    with a leading 1 and the rotors at odd j.  The rotor signs follow
    the recursion Phi_{n+1} = z Phi_n + alpha_n Phi_n^* used by the
    moment machinery, under which the constant sequence alpha_j = a > 0
    is the gap-around-1 arc measure with nothing in the gap.  The rotor
    that would straddle the truncation boundary degenerates to the
    single entry -beta with a unimodular boundary phase beta standing in
    for the N-th coefficient; eigenvalues are then the zeros of
    z Phi_{N-1} + beta Phi_{N-1}^*.

    By default beta = alpha_{N-1}/|alpha_{N-1}| (beta = 1 when that
    coefficient vanishes), which for constant positive coefficient
    sequences parks the boundary-controlled zero inside the essential
    arc instead of mid-gap; any fixed unimodular choice is legitimate,
    and this one is pinned down by the spectrum-location tests.
    """

    def __init__(self, mat: np.ndarray, boundary: complex):
        self.mat = _freeze(np.asarray(mat, dtype=complex))
        self.boundary = complex(boundary)

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def unitarity_defect(self) -> float:
        c = self.mat
        return float(np.max(np.abs(c.conj().T @ c - np.eye(self.n))))


def cmv(params: VerblunskyParams, N: int, boundary=None) -> CmvMatrix:
    """Assemble the N x N unitary truncation from alpha_0..alpha_{N-2}
    plus a boundary phase (see CmvMatrix docstring for the default)."""
    if N < 1:
        raise ValueError("N >= 1 required")
    alpha = np.array(params.alpha_window(N), dtype=complex)
    if boundary is None:
        tail = alpha[N - 1]
        if 0.0 < abs(tail) < _SAFMIN:
            tail = tail * 2.0 ** 600  # exact; keeps 1 / |tail| finite
        boundary = tail / abs(tail) if abs(tail) > 0 else 1.0 + 0.0j
    boundary = complex(boundary)
    if abs(abs(boundary) - 1.0) > 1e-12:
        raise ValueError("boundary phase must be unimodular")
    eff = alpha.copy()
    eff[N - 1] = boundary
    rho = np.zeros(N)
    rho[: N - 1] = np.sqrt(1.0 - np.abs(alpha[: N - 1]) ** 2)

    def factor(start: int) -> np.ndarray:
        f = np.zeros((N, N), dtype=complex)
        for i in range(start):
            f[i, i] = 1.0
        j = start
        while j < N:
            if j + 1 < N:
                f[j, j] = -eff[j]
                f[j, j + 1] = rho[j]
                f[j + 1, j] = rho[j]
                f[j + 1, j + 1] = np.conj(eff[j])
            else:
                f[j, j] = -eff[j]
            j += 2
        return f

    mat = factor(0) @ factor(1)
    out = CmvMatrix(mat, boundary)
    defect = out.unitarity_defect()
    if defect > 1e-12:
        raise NotUnitary(defect)
    return out


_RESIDUAL_BLOCK = 64


def eig_unitary(C: CmvMatrix) -> EmpiricalMeasure:
    """Eigenvalue angles of a unitary matrix, sorted in (-pi, pi].

    Solves the Hermitian Cayley transform H = i(I - U)(I + U)^{-1} of
    U = conj(w) C with ``eigh``; an eigenvalue t of H is the angle
    arg w + 2 arctan t of C, with the same eigenvector.  The pole -w sits
    mid-way across the widest gap of the angles +-arccos of the
    eigenvalues of (C + C^*)/2, a set that contains every eigenangle of
    the normal matrix C; so the pole is at least pi/(2N) from the
    spectrum and I + U is well conditioned.

    Checks the unitarity invariant on entry, and on exit that every
    residual ||Cv - zv|| is below 1e-9.  No modulus check is needed: the
    angles come from the real eigenvalues of a Hermitian matrix, so every
    z = e^{i theta} is on the circle by construction.
    """
    defect = C.unitarity_defect()
    if defect > 1e-10:
        raise NotUnitary(defect)
    c = C.mat
    n = C.n
    diag = np.diag_indices(n)
    herm = c.conj().T
    herm += c
    herm *= 0.5
    cosines = np.clip(sla.eigvalsh(herm, overwrite_a=True, check_finite=False),
                      -1.0, 1.0)
    del herm
    arcs = np.arccos(cosines)
    ring = np.sort(np.concatenate([-arcs, arcs]))
    gaps = np.diff(np.concatenate([ring, [ring[0] + 2.0 * math.pi]]))
    k = int(np.argmax(gaps))
    shift = ring[k] + 0.5 * gaps[k] - math.pi  # arg w, pole at -w
    plus = c * complex(math.cos(shift), -math.sin(shift))
    minus = -plus
    plus[diag] += 1.0
    minus[diag] += 1.0
    # LAPACK is column-major, so factor and solve the transposed system
    # (I + U)^T Y = (I - U)^T in place on the row-major arrays.  As
    # (I + U)^{-1} commutes with I - U, iY is H^T = conj(H), whose
    # eigenvectors are the conjugates of those of H.
    lu = sla.lu_factor(plus.T, overwrite_a=True, check_finite=False)
    hc = sla.lu_solve(lu, minus.T, overwrite_b=True, check_finite=False)
    del plus, minus, lu
    hc *= 1j
    hc += hc.conj().T
    hc *= 0.5
    # MRRR needs O(N) workspace where divide and conquer needs O(N^2)
    lam, vecs = sla.eigh(hc, overwrite_a=True, check_finite=False,
                         driver="evr")
    del hc
    angles = shift + 2.0 * np.arctan(lam)
    angles = np.remainder(angles + math.pi, 2.0 * math.pi) - math.pi
    # the remainder lies in [-pi, pi); -pi is the same point as pi
    angles[angles <= -math.pi] += 2.0 * math.pi
    z = np.exp(1j * angles)
    worst = 0.0
    for s in range(0, n, _RESIDUAL_BLOCK):
        v = vecs[:, s:s + _RESIDUAL_BLOCK].conj()
        resid = c @ v
        resid -= v * z[s:s + _RESIDUAL_BLOCK]
        worst = max(worst, float(np.max(np.abs(resid))))
    if worst > 1e-9:
        raise NoConvergence(f"eigenpair residual {worst}")
    return EmpiricalMeasure(angles, "circle")


def block_dense(params: BlockJacobiParams, K: int) -> np.ndarray:
    """Dense Hermitian K-block truncation."""
    ell = params.block_size
    B = params.b_blocks(K)
    A = params.a_blocks(K - 1) if K > 1 else []
    m = np.zeros((K * ell, K * ell), dtype=complex)
    for k in range(K):
        m[k * ell:(k + 1) * ell, k * ell:(k + 1) * ell] = B[k]
    for k in range(K - 1):
        m[k * ell:(k + 1) * ell, (k + 1) * ell:(k + 2) * ell] = A[k]
        m[(k + 1) * ell:(k + 2) * ell, k * ell:(k + 1) * ell] = A[k].conj().T
    return m


def eig_block(params: BlockJacobiParams, K: int) -> np.ndarray:
    """All K*ell eigenvalues of the Hermitian block truncation,
    ascending.  Dense Hermitian solve; the trace identities in
    block_trace_square are the independent check on it."""
    if K < 1:
        raise ValueError("K >= 1 required")
    return np.linalg.eigvalsh(block_dense(params, K))


def block_trace_square(params: BlockJacobiParams, K: int):
    """Mean squared eigenvalue of the K-block truncation, both ways:
    (1/(K ell))[sum Tr B_k^2 + 2 sum Tr A_k^dag A_k] versus the
    eigenvalue sum."""
    ell = params.block_size
    B = params.b_blocks(K)
    A = params.a_blocks(K - 1) if K > 1 else []
    s = sum(float(np.trace(b @ b).real) for b in B)
    s += 2.0 * sum(float(np.trace(a.conj().T @ a).real) for a in A)
    via_formula = s / (K * ell)
    eigs = eig_block(params, K)
    via_eigs = float(np.sum(eigs ** 2)) / (K * ell)
    return via_formula, via_eigs
