"""Finite truncations and their spectra.

Three matrix shapes: symmetric tridiagonal truncations of scalar
recurrence data, Hermitian block-tridiagonal truncations, and unitary
five-diagonal (CMV) truncations of circle recurrence data.  Only
eigenvalues are ever needed downstream.  Every solver takes the
recurrence data and a size (``eig_sym_tridiag(params, N)``,
``eig_unitary(params, N)``, ``eig_block(params, K)``) and reads its
truncation off the sequence: b_1..b_N and a_1..a_{N-1} on the line,
alpha_0..alpha_{N-1} on the circle, B_1..B_K and A_1..A_{K-1} of the
blocks.  The scalar sequences check every entry they return and block
data is checked on construction, so no entry is checked again here.
The tridiagonal and the unitary path share one route: LAPACK gives
candidate values, one vectorized count sweep at their midpoints keeps
every candidate whose bracket holds exactly one eigenvalue, and
bisection on the count runs only inside the brackets that hold more.  The line counts with
Sturm sequences (Sylvester inertia), in blocks of pivots with the pivot
guard checked once per block (Marques, Riedy and Voemel, SIAM J. Sci.
Comput. 28, 2006).  It takes its candidates from root-free QL, or, when the
diagonal is zero, as +-sqrt of the values dqds finds for the even-site
block of T^2 at half the size (Golub and Kahan, SIAM J. Numer. Anal. 2,
1965; Fernando and Parlett, Numer. Math. 67, 1994), with QL as the
fallback when that fails; a zero-diagonal spectrum is certified on its
positive half and mirrored.  A matrix with an entry beyond 2^+-500 is
scaled by a power of two first.  The circle counts with the phase of a
Blaschke product and takes its candidates from the banded Hermitian
parts of the paraorthogonal CMV truncation, held by its five diagonals
(``_Banded``, the type that also runs the block map of ``periodic``).
Only trace_square takes the QL values uncertified: its
coefficient-side formula is their check.  Both tridiagonal routes call
QL (LAPACK's ``dsterf``) directly through ``_sterf``, and the circle
calls the Hermitian band solver (``zhbevd``) directly, with no scipy
wrapper around either to check again what the sequence has checked.
The four LAPACK routines (``dsterf``, ``dpteqr``, ``dstebz`` and
``zhbevd``) come from scipy's compiled wrappers, the extension
``scipy/linalg/_flapack``, loaded by its extension loader without the
``scipy.linalg`` package, whose import loads some 330 modules
(``_load_flapack``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import warnings

import numpy as np

from .sequences import (BlockJacobiParams, JacobiParams, VerblunskyParams,
                        _freeze, _herm, _refuse)


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy/linalg/_flapack``, loaded
    by their extension loader under their own name, so their routines
    are the objects ``scipy.linalg.lapack`` hands out.  Any import from
    ``scipy.linalg`` runs that package's ``__init__``, which doubles the
    modules and the memory of a process that needs only four routines.
    There is no other route: where the file is not where scipy >= 1.12
    puts it, this raises one ImportError that names scipy's version."""
    name = "scipy.linalg._flapack"
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("opspectra needs scipy >= 1.12, which is not "
                          "installed")
    where = os.path.join(scipy.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(where, "_flapack" + suffix)
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    from scipy import __version__
    raise ImportError(f"opspectra needs LAPACK from scipy's extension "
                      f"linalg/_flapack, which scipy >= 1.12 installs, and "
                      f"scipy {__version__} has none in {where}")


_flapack = _load_flapack()


class NoConvergence(ArithmeticError):
    """Eigenvalue iteration failed to meet tolerance; indicates a bug or
    a violated input invariant, not a property of valid data."""

    def __init__(self, detail: str):
        super().__init__(detail)


class DuplicateEigenvalues(UserWarning):
    """Numerically coincident eigenvalues where simplicity is guaranteed;
    points at an invariant violation upstream."""


class EmpiricalMeasure:
    """Sorted sample points with equal weights 1/N.

    ``domain`` is "line" for real points or "circle" for angles in
    (-pi, pi].  A non-finite point, or an angle outside (-pi, pi], is
    refused with a ValueError naming its index.
    """

    def __init__(self, points, domain: str = "line"):
        points = np.asarray(points, dtype=float)
        if domain not in ("line", "circle"):
            raise ValueError("domain must be 'line' or 'circle'")
        if len(points) == 0:
            raise ValueError("empty sample")
        _refuse(~np.isfinite(points), points, 0, "point", "finite")
        if domain == "circle":
            _refuse((points <= -math.pi) | (points > math.pi), points, 0,
                    "point", "in (-pi, pi]")
        self.points = _freeze(np.sort(points))
        self.domain = domain

    def __len__(self) -> int:
        return len(self.points)

    def mean_phase(self) -> complex:
        """(1/N) sum e^{i theta} for circle samples."""
        z = np.exp(1j * self.points)
        return complex(math.fsum(z.real.tolist()),
                       math.fsum(z.imag.tolist())) / len(self.points)


def _truncation(params: JacobiParams, N: int):
    """(d, e) = (b_1..b_N, a_1..a_{N-1}): the diagonal and the
    off-diagonal of the N-site truncation, as read from the sequence,
    which checks them."""
    if N < 1:
        raise ValueError("N >= 1 required")
    d = params.b_window(N)
    return d, params.a_window(N - 1) if N > 1 else np.empty(0)


def _sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of the tridiagonal (d, e), ascending, from
    LAPACK's root-free QL/QR iteration, called directly: the entries were
    checked by the sequence they came from.  At one site the value is
    d itself (the wrapper refuses an empty e)."""
    if len(d) == 1:
        return np.array(d)
    vals, info = _flapack.dsterf(d, e)
    if info != 0:
        raise NoConvergence(f"sterf failed (LAPACK info={info})")
    return vals


_SAFMIN = np.finfo(float).tiny
_SUBMIN = np.nextafter(0.0, 1.0)
_EPS = np.finfo(float).eps


_BLOCK = 64  # pivot rows per guard check: 512 KiB at 1024 shifts


def _sturm_counts(d: np.ndarray, e: np.ndarray,
                  xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift in xs of the tridiagonal
    matrix with diagonal d and off-diagonal e, via the signs of the LDL^T
    pivots q_k = d_k - x - e_{k-1}^2 / q_{k-1}.

    A pivot below pivmin in magnitude is replaced by +-pivmin before it
    divides, with the sign it had (+pivmin for a zero).  The sweep runs
    in blocks of ``_BLOCK`` pivots, unguarded, and checks the block once:
    when every |pivot| in it is at least pivmin the guard changed
    nothing, and otherwise the block is run again with the guard at every
    step, from the same entering pivot.  So every pivot and count has the
    bits of a sweep guarded at every step (LAPACK's ``dlaneg`` checks its
    pivots in the same way: Marques, Riedy and Voemel, SIAM J. Sci.
    Comput. 28, 2006).  Signs are counted before the guard, which keeps
    them.
    """
    zero = not d.any()
    e2 = e ** 2
    pivmin = _SAFMIN * float(np.max(e2, initial=1.0))
    d, e2 = d.tolist(), e2.tolist()
    n = len(d)
    counts = np.zeros(len(xs), dtype=np.int64)
    if len(xs) == 0:
        return counts

    def guarded(q):
        small = np.abs(q) < pivmin
        if small.any():
            q = np.where(small, np.where(q < 0.0, -pivmin, pivmin), q)
        return q

    q = d[0] - xs
    counts += q < 0.0
    enter = guarded(q)
    rows = np.empty((min(_BLOCK, n - 1), len(xs)))
    neg = np.empty(rows.shape, dtype=bool)
    last = np.empty(len(xs))
    # d_k - x, the same at every k for a zero diagonal: a -0.0 entry
    # could change only the sign of a zero pivot, which the check redoes
    shifted = 0.0 - xs if zero else np.empty(len(xs))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k0 in range(1, n, _BLOCK):
            block = rows[:min(_BLOCK, n - k0)]
            sites = range(k0, k0 + len(block))
            q = enter
            for k, row in zip(sites, block):
                if not zero:
                    np.subtract(d[k], xs, out=shifted)
                np.divide(e2[k - 1], q, out=row)
                np.subtract(shifted, row, out=row)
                q = row
            sign = neg[:len(block)]
            np.less(block, 0.0, out=sign)
            np.copyto(last, block[-1])
            # the block holds its magnitudes from here on; a NaN, which
            # only follows a pivot below pivmin, fails the test too
            if not np.abs(block, out=block).min() >= pivmin:
                q = enter
                for k, row in zip(sites, block):
                    np.subtract(d[k] - xs, e2[k - 1] / guarded(q), out=row)
                    q = row
                np.less(block, 0.0, out=sign)
                np.copyto(last, guarded(block[-1]))
            counts += np.count_nonzero(sign, axis=0)
            enter, last = last, enter
    return counts


def _certified(count, cand: np.ndarray, lo: float, hi: float, n: int,
               tol: float) -> np.ndarray:
    """The n eigenvalues in (lo, hi], ascending, from candidate values.

    ``count(xs)`` is the number of eigenvalues between lo and each shift
    x.  One sweep counts at the midpoints of the distinct sorted
    candidates; the counts at lo and hi are 0 and n.  A bracket between
    consecutive shifts whose count rises by exactly 1 holds one
    eigenvalue, and its candidate is within the bracket's width of it.
    The counts are made nondecreasing by a running max: rounding can only
    dip a count at a shift within rounding distance of an eigenvalue.
    Inside a bracket whose count rises by more than 1, every eigenvalue
    it holds is bisected on the count to width ``tol``, in at most 200
    sweeps.
    """
    cand = np.unique(cand)
    mids = 0.5 * (cand[:-1] + cand[1:])
    k = np.maximum.accumulate(np.concatenate([[0], count(mids), [n]]))
    edges = np.concatenate([[lo], mids, [hi]])
    rise = np.diff(k)
    out = np.empty(n)
    one = rise == 1
    out[k[:-1][one]] = cand[one]
    many = np.flatnonzero(rise > 1)
    if len(many) == 0:
        return out
    idx = np.concatenate([np.arange(k[i], k[i + 1]) for i in many])
    brk = np.repeat(many, rise[many])
    left, right = edges[brk], edges[brk + 1]
    for _ in range(200):
        if float(np.max(right - left)) <= tol:
            out[idx] = 0.5 * (left + right)
            return out
        mid = 0.5 * (left + right)
        above = count(mid) > idx  # eigenvalue idx lies below mid
        right = np.where(above, mid, right)
        left = np.where(above, left, mid)
    raise NoConvergence(
        f"bisection stalled: residual interval {float(np.max(right - left))}"
    )


def _zero_diagonal_candidates(d: np.ndarray, e: np.ndarray, bound: float,
                              tol: float):
    """Candidates for the positive eigenvalues of the tridiagonal T with
    zero diagonal d and off-diagonal e, from dqds on the even-site block
    of T^2; None when pteqr fails or a value near 0 fails its check.

    That block has diagonal a_{2k-1}^2 + a_{2k}^2 and off-diagonal
    a_{2k} a_{2k+1} (a_N := 0); it is B^T B for the bidiagonal B of the
    a_n, positive definite since every a_n > 0, and the spectrum of T is
    the +-sqrt of its eigenvalues, plus 0 at odd N.  Forming and
    factoring the block moves each of its eigenvalues lam by a few ulp
    of bound^2 (``bound`` >= |T|), so s = sqrt(lam) by up to about
    8 eps bound^2 / s.  Each s for which that exceeds ``tol`` must have
    an eigenvalue of T within ``tol``, by LAPACK's Sturm count
    (``stebz``): a graded or nearly singular T can otherwise get a small
    s wrong by orders of magnitude, which the midpoint brackets of
    ``_certified`` do not see.
    """
    m = len(d) // 2
    a = np.concatenate([e, [0.0, 0.0]])  # a_1 .. a_{N+1}
    even = a[1:2 * m:2]
    sq_d = a[0:2 * m:2] ** 2 + even ** 2
    sq_e = even * a[2:2 * m + 1:2]  # its last entry is 0
    # the wrapper wants len(sq_e) = 1, not 0, at m = 1
    lam, _, _, info = _flapack.dpteqr(sq_d, sq_e[:max(m - 1, 1)],
                                      np.zeros((1, 1)), compute_z=0)
    if info != 0:
        return None
    s = np.sqrt(lam)
    # the spectrum is symmetric, so checking +s checks -s too
    for x in s[s * tol < 8.0 * _EPS * bound * bound]:
        if _flapack.dstebz(d, e, 1, x - tol, x + tol, 1, 1, 2.0 * tol,
                           b"E")[0] < 1:
            return None
    return s


def eig_sym_tridiag(params: JacobiParams, N: int) -> np.ndarray:
    """All eigenvalues of the N-site truncation T of J, ascending.

    T has diagonal b_1..b_N and off-diagonal a_1..a_{N-1}, read from the
    sequence, which checks them (``_truncation``).  When the diagonal of
    T is identically zero, its spectrum is +-sigma(B) for the bidiagonal
    B of the off-diagonal (plus 0 at odd N; Golub and Kahan, SIAM J.
    Numer. Anal. 2, 1965), and the candidates for its positive half are
    the sqrt of the eigenvalues that LAPACK's dqds (``pteqr``; Fernando
    and Parlett, Numer. Math. 67, 1994) finds for the even-site block of
    T^2, at half the size (``_zero_diagonal_candidates``).  Every other T takes them from
    LAPACK's root-free QL/QR iteration (``sterf``), and so does a
    zero-diagonal T when pteqr fails or a candidate near 0 fails its
    check.  The candidates are certified by one vectorized Sturm-count
    sweep at their midpoints (``_certified``; the sweep runs in blocks
    of pivots, see ``_sturm_counts``): a value is kept when its bracket
    holds exactly one eigenvalue, and only brackets that hold more are
    refined by Sturm-count bisection (at most 200 sweeps), to 1e-13
    relative to the Gershgorin bound.  A zero-diagonal T is similar to
    -T (by diag(+-1)), so only its N//2 positive eigenvalues are
    certified, on the positive candidates with the count above 0, and
    the rest are their negatives and, at odd N, an exact 0: its spectrum
    comes back exactly symmetric, at half the lanes.  A T whose largest
    entry lies outside [2^-500, 2^500] is first scaled by an exact power
    of two, so that no square in pteqr or the Sturm pivots overflows or
    underflows, and the values are scaled back.

    Positive off-diagonals force simple eigenvalues; numerically
    coincident ones trigger a DuplicateEigenvalues warning.
    """
    d, e = _truncation(params, N)
    if N == 1:
        return np.array([float(d[0])])
    big = max(float(np.max(np.abs(d))), float(np.max(e)))
    shift = 0
    if not 2.0 ** -500 <= big <= 2.0 ** 500:
        shift = math.frexp(big)[1]
        # an off-diagonal entry below 2^-1074 of the largest one stays at
        # the least subnormal: the scaled T keeps positive off-diagonals
        d = np.ldexp(d, -shift)
        e = np.maximum(np.ldexp(e, -shift), _SUBMIN)
    # the Gershgorin interval
    radius = np.zeros(N)
    radius[:-1] += e
    radius[1:] += e
    gl, gu = float(np.min(d - radius)), float(np.max(d + radius))
    bound = max(abs(gl), abs(gu))
    pad = 1e-13 * bound
    zero = not d.any()
    pos = _zero_diagonal_candidates(d, e, bound, pad) if zero else None
    if pos is None:
        vals = _sterf(d, e)
        pos = vals[vals > 0] if zero else None
    if zero:
        # (N + 1) // 2 eigenvalues lie at or below 0
        pos = _certified(lambda xs: _sturm_counts(d, e, xs) - (N + 1) // 2,
                         pos, 0.0, gu + pad, N // 2, pad)
        vals = np.concatenate([-pos[::-1], [0.0] * (N % 2), pos])
    else:
        vals = _certified(lambda xs: _sturm_counts(d, e, xs), vals, gl - pad,
                          gu + pad, N, pad)
    gaps = np.diff(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if len(gaps) and float(gaps.min()) < 1e-12 * scale:
        warnings.warn(
            "numerically duplicate eigenvalues in a simple-spectrum matrix",
            DuplicateEigenvalues,
        )
    return np.ldexp(vals, shift)


def zero_counting(params: JacobiParams, N: int) -> EmpiricalMeasure:
    """Normalized counting measure of the N-truncation eigenvalues."""
    return EmpiricalMeasure(eig_sym_tridiag(params, N), "line")


def trace_square(params: JacobiParams, N: int):
    """Mean squared eigenvalue of the N-truncation, both ways.

    Returns (via_formula, via_eigs): the coefficient-side expression
    (1/N)(sum b^2 + 2 sum a^2) and the spectral side (1/N) sum x_j^2.
    The two agree to roundoff; keeping both routes is the point, so the
    eigenvalues are LAPACK's uncertified ``sterf`` values, from one
    direct call (``_sterf``) per identity, and the formula side is
    their check.
    """
    d, e = _truncation(params, N)
    via_formula = (math.fsum((d ** 2).tolist())
                   + 2.0 * math.fsum((e ** 2).tolist())) / N
    eigs = _sterf(d, e)
    via_eigs = math.fsum((eigs ** 2).tolist()) / N
    return via_formula, via_eigs


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y entrywise; a complex product is (xr yr - xi yi) + (xr yi +
    xi yr) i with each operation rounded on its own, where numpy's
    complex multiply may fuse a multiply with an add."""
    if not np.iscomplexobj(x):
        return x * y
    out = np.empty(len(x), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


class _Banded:
    """A square matrix held by its diagonals: ``diags[k][i]`` is the
    entry (i, i + k), and the places of a diagonal past the matrix's edge
    hold 0.  It has only the arithmetic that the transfer recursion of
    ``periodic._product_trace`` and the CMV product need: ``+`` and
    ``-``, a scalar ``*`` and ``/``, and ``@``.  An entry of a product
    adds its terms (``_times``) onto 0 in ascending inner index, and
    ``/`` multiplies by the reciprocal, so every nonzero entry has the
    bits of the sparse (CSR) arithmetic that the tests hold it to; a
    zero entry may carry either sign."""

    def __init__(self, diags):
        self.diags = diags

    @classmethod
    def tridiagonal(cls, d: np.ndarray, e: np.ndarray) -> "_Banded":
        """Diagonal d, and e on both off-diagonals, in the dtype of d."""
        pad = np.zeros(1, dtype=d.dtype)
        return cls({-1: np.concatenate([pad, e]), 0: d,
                    1: np.concatenate([e, pad])})

    def diagonal(self, k: int) -> np.ndarray:
        """The n - |k| entries of the k-th diagonal."""
        v = self.diags[k]
        return v[:len(v) - k] if k >= 0 else v[-k:]

    def _combine(self, other: "_Banded", op) -> "_Banded":
        return _Banded({k: op(self.diags.get(k, 0.0), other.diags.get(k, 0.0))
                        for k in self.diags.keys() | other.diags.keys()})

    def __add__(self, other: "_Banded") -> "_Banded":
        return self._combine(other, np.add)

    def __sub__(self, other: "_Banded") -> "_Banded":
        return self._combine(other, np.subtract)

    def __mul__(self, c) -> "_Banded":
        return _Banded({k: v * c for k, v in self.diags.items()})

    __rmul__ = __mul__

    def __truediv__(self, c) -> "_Banded":
        return self * (1.0 / c)

    def __matmul__(self, other: "_Banded") -> "_Banded":
        out = {}
        for i, a in sorted(self.diags.items()):
            n = len(a)
            lo, hi = max(0, -i), min(n, n - i)  # rows r with 0 <= r + i < n
            for j, b in other.diags.items():
                c = out.setdefault(i + j, np.zeros(n, np.result_type(a, b)))
                c[lo:hi] += _times(a[lo:hi], b[lo + i:hi + i])
        return _Banded(out)


def _rotors(eff: np.ndarray, rho: np.ndarray, start: int) -> _Banded:
    """The tridiagonal CMV factor with the rotors at j = start, start + 2,
    ... and a leading 1 when start = 1."""
    n = len(eff)
    d = np.ones(n, dtype=complex)
    off = np.zeros(n - 1)
    j = np.arange(start, n, 2)
    d[j] = -eff[j]
    j = j[j < n - 1]
    d[j + 1] = np.conj(eff[j])
    off[j] = rho[j]
    return _Banded.tridiagonal(d, off)


def _cmv(params: VerblunskyParams, N: int):
    """(alpha, beta, band) of the N x N unitary CMV truncation, as read
    from the sequence, which checks alpha_0..alpha_{N-1}: alpha is
    alpha_0..alpha_{N-2}, and beta the boundary phase
    alpha_{N-1}/|alpha_{N-1}|, or 1 when that coefficient vanishes (a
    subnormal one is scaled by 2^600 first, exactly, so that its modulus
    stays finite and nonzero).

    The truncation is the product L M of two block-diagonal unitaries
    (Cantero, Moral and Velazquez, 2003): L made of the 2x2 rotors
    [[-a_j, rho_j], [rho_j, conj(a_j)]] at even j, M with a leading 1
    and the rotors at odd j.  The rotor signs follow the recursion
    Phi_{n+1} = z Phi_n + alpha_n Phi_n^*, the sign of
    ``measures.szego_image`` and of the tests' isometric Arnoldi oracle
    (``oracles.verblunsky_from_measure``), under which the constant
    sequence alpha_j = a > 0 is the gap-around-1 arc measure with
    nothing in the gap.  The rotor that would straddle the truncation
    boundary degenerates to the single entry -beta, so the truncation is
    paraorthogonal (Simon, OPUC Part 1, 2005): its eigenvalues are the
    zeros of z Phi_{N-1} + beta Phi_{N-1}^*.  For constant positive
    sequences this beta parks the boundary-controlled zero inside the
    essential arc instead of mid-gap.  ``band`` holds the five diagonals
    of L M, each entry a single product of an entry of L and one of M,
    since the blocks of L and M overlap in at most one index.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    window = params.alpha_window(N)
    alpha, tail = window[:N - 1], window[N - 1]
    if 0.0 < abs(tail) < _SAFMIN:
        tail = tail * 2.0 ** 600  # exact; keeps 1 / |tail| finite
    beta = complex(tail / abs(tail)) if abs(tail) > 0 else 1.0 + 0.0j
    eff = np.append(alpha, beta)
    rho = np.sqrt(1.0 - np.abs(alpha) ** 2)
    return alpha, beta, _rotors(eff, rho, 0) @ _rotors(eff, rho, 1)


def _phase_counts(alpha: np.ndarray, beta: complex, cut: float,
                  xs: np.ndarray) -> np.ndarray:
    """Number of eigenangles of the CMV truncation of (alpha, beta) in
    (cut, x] for each x in xs, with cut < x <= cut + 2 pi.

    b = z Phi_{N-1} / Phi_{N-1}^* is a Blaschke product of degree N, built
    by b <- z (b + alpha_n) / (1 + conj(alpha_n) b) from b = z, and the
    eigenangles are where it crosses -beta.  On the circle that step adds
    x + 2 arg(1 + alpha_n conj(b)) to arg b, a principal value because
    |alpha_n| < 1, so the sum is the continuous, increasing phase, and
    floor((phase - arg(-beta)) / 2 pi) jumps by one at each eigenangle
    (Simon, OPUC Part 1, 2005; Cantero-Moral-Velazquez, 2003).
    """
    x = np.concatenate([[cut], xs])
    z = np.exp(1j * x)
    b = z.copy()
    phase = (len(alpha) + 1) * x
    for a in alpha:
        w = 1.0 + a * b.conj()
        phase += 2.0 * np.angle(w)
        b *= z * (w / w.conj())
    # phase - arg(-beta) = 2 pi turns + psi: the rounding of the long sum
    # only ever picks the integer, and psi is read off b itself
    psi = np.angle(b * -np.conj(beta))
    turns = np.round((phase - np.angle(-beta) - psi) / (2.0 * math.pi))
    k = turns - (psi < 0.0)
    return (k[1:] - k[0]).astype(np.int64)


def eig_unitary(params: VerblunskyParams, N: int) -> EmpiricalMeasure:
    """Eigenvalue angles of the N x N CMV truncation of the sequence,
    sorted in (-pi, pi].

    The truncation is read from alpha_0..alpha_{N-1}, its boundary phase
    taken from alpha_{N-1} (``_cmv``, which gives the rotor and sign
    conventions).  It is normal, so the eigenvalues of its Hermitian
    parts (C + C^*)/2 and (C - C^*)/2i, both of bandwidth 2, are the
    cosines and the sines of its eigenangles.  The candidates +-arccos c,
    arcsin s and pi - arcsin s give every angle one well-conditioned
    candidate, near 0 and pi too.  ``_certified`` picks the angles among
    them with the phase count of ``_phase_counts``, started mid-way
    across the widest gap between candidates, and bisects any bracket
    that holds more than one angle to 1e-13.  The angles are real, so
    every e^{i theta} is on the circle by construction.
    """
    alpha, beta, c = _cmv(params, N)
    kd = min(2, N - 1)  # a band wider than the matrix gives 0 at N = 1
    parts = []
    for scale, op in ((0.5, np.add), (-0.5j, np.subtract)):
        band = np.zeros((kd + 1, N), dtype=complex)
        for k in range(kd + 1):
            h = op(c.diagonal(k), np.conj(c.diagonal(-k)))
            band[kd - k, k:] = scale * h
        vals, _, info = _flapack.zhbevd(band, compute_v=0)
        if info != 0:
            raise NoConvergence(f"hbevd failed (LAPACK info={info})")
        parts.append(np.clip(vals, -1.0, 1.0))
    cos_arc, sin_arc = np.arccos(parts[0]), np.arcsin(parts[1])
    cand = np.concatenate([cos_arc, -cos_arc, sin_arc, math.pi - sin_arc])
    ring = np.sort(np.remainder(cand, 2.0 * math.pi))
    gaps = np.diff(np.append(ring, ring[0] + 2.0 * math.pi))
    k = int(np.argmax(gaps))
    cut = ring[k] + 0.5 * gaps[k]
    cand = cut + np.remainder(cand - cut, 2.0 * math.pi)
    angles = _certified(lambda xs: _phase_counts(alpha, beta, cut, xs), cand,
                        cut, cut + 2.0 * math.pi, N, 1e-13)
    angles = np.remainder(angles + math.pi, 2.0 * math.pi) - math.pi
    # the remainder lies in [-pi, pi); -pi is the same point as pi
    angles[angles <= -math.pi] += 2.0 * math.pi
    return EmpiricalMeasure(angles, "circle")


def _block_dense(params: BlockJacobiParams, K: int) -> np.ndarray:
    """The dense Hermitian K-block truncation, read off B_1..B_K and
    A_1..A_{K-1}: the block reader of ``eig_block``, as ``_truncation``
    and ``_cmv`` are of the other two solvers."""
    ell, k = params.block_size, np.arange(K)
    m = np.zeros((K, ell, K, ell), dtype=complex)
    m[k, :, k, :] = params.b_blocks(K)
    A = params.a_blocks(max(K - 1, 0))
    m[k[:-1], :, k[1:], :] = A
    m[k[1:], :, k[:-1], :] = _herm(A)
    return m.reshape(K * ell, K * ell)


def eig_block(params: BlockJacobiParams, K: int) -> np.ndarray:
    """All K*ell eigenvalues of the Hermitian block truncation,
    ascending, from one dense Hermitian solve.  Its independent check is
    the block trace identity sum x_j^2 = sum Tr B_k^2 + 2 sum
    Tr A_k^* A_k, which the test oracles hold it to."""
    if K < 1:
        raise ValueError("K >= 1 required")
    return np.linalg.eigvalsh(_block_dense(params, K))
