"""Windowed scalar diagnostics: root tests, Cesaro deviation averages
for scalar, unitary, and block recurrence data, concavity functionals,
arc statistics, and the torus-distance average.

Every diagnostic is reported as a :class:`StatSeries` over a ladder of
window lengths.  All windowed averages share one code path: a prefix
sum of per-site terms in extended precision, divided by the window
length, so the algebraic identities between related statistics hold to
1e-12 even at the largest windows.

Sequence indexing follows the underlying data: Jacobi windows cover
sites 1..N, Verblunsky windows cover indices 0..N-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import periodic as _periodic
from .sequences import (BlockJacobiParams, JacobiParams, VerblunskyParams,
                        WrongType)

#: default geometric ladder of window lengths for limit-style claims
DEFAULT_LADDER = tuple(2 ** k for k in range(5, 14))


@dataclass(frozen=True)
class StatSeries:
    """A labelled statistic evaluated over increasing window lengths."""

    label: str
    Ns: Tuple[int, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        Ns = tuple(int(n) for n in self.Ns)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "Ns", Ns)
        object.__setattr__(self, "values", vals)
        if len(Ns) != len(vals):
            raise ValueError("Ns and values must align")
        if len(Ns) == 0 or Ns[0] < 1:
            raise ValueError("need at least one window of length >= 1")
        if any(Ns[i] >= Ns[i + 1] for i in range(len(Ns) - 1)):
            raise ValueError("window lengths must be strictly increasing")

    def __len__(self) -> int:
        return len(self.Ns)

    @property
    def last(self) -> float:
        return self.values[-1]

    def decreasing(self, burn_in: int = 0, slack: float = 0.0) -> bool:
        """True when values are nonincreasing (up to slack) once
        N >= burn_in."""
        kept = [v for n, v in zip(self.Ns, self.values) if n >= burn_in]
        return all(kept[i + 1] <= kept[i] + slack for i in range(len(kept) - 1))

    def csv_rows(self) -> list:
        """The ``label,N,value`` lines of this series, without header."""
        return [f"{self.label},{n},{repr(v)}"
                for n, v in zip(self.Ns, self.values)]

    def to_csv(self) -> str:
        return "\n".join(["label,N,value"] + self.csv_rows()) + "\n"


def _check_ladder(Ns) -> Tuple[int, ...]:
    Ns = tuple(int(n) for n in Ns)
    if not Ns or any(n < 1 for n in Ns):
        raise ValueError("window ladder must contain positive lengths")
    if any(Ns[i] >= Ns[i + 1] for i in range(len(Ns) - 1)):
        raise ValueError("window ladder must be strictly increasing")
    return Ns


def _prefix_means(terms: np.ndarray, Ns: Tuple[int, ...]) -> Tuple[float, ...]:
    """(1/N) sum of the first N terms for each ladder entry, accumulated
    in extended precision."""
    cs = np.cumsum(np.asarray(terms), dtype=np.longdouble)
    return tuple(float(cs[n - 1] / n) for n in Ns)


# -- root tests --------------------------------------------------------


def root_test(seq, Ns=DEFAULT_LADDER, label: str = "root_test") -> StatSeries:
    """Geometric mean of the off-diagonal data over each window, in log
    space: exp((1/N) sum log a_n), exp((1/N) sum log rho_j), or
    exp((1/(N ell)) sum log |det A_n|) depending on the sequence kind.

    For regular data these converge to the capacity of the essential
    spectrum, which is what makes them a practical regularity probe.
    """
    Ns = _check_ladder(Ns)
    n_max = Ns[-1]
    if isinstance(seq, JacobiParams):
        a = seq.a_window(n_max)
        if np.any(a <= 0.0):
            raise ValueError("off-diagonal entries must be positive")
        logs = np.log(a)
    elif isinstance(seq, VerblunskyParams):
        rho = seq.rho_window(n_max)
        if np.any(rho <= 0.0):
            raise ValueError("rho must be positive (|alpha| < 1)")
        logs = np.log(rho)
    elif isinstance(seq, BlockJacobiParams):
        blocks = seq.a_blocks(n_max)
        ell = seq.block_size
        logs = np.array([np.linalg.slogdet(blk)[1] / ell for blk in blocks])
    else:
        raise TypeError(f"unsupported sequence type {type(seq).__name__}")
    means = _prefix_means(logs, Ns)
    return StatSeries(label, Ns, tuple(math.exp(v) for v in means))


# -- Cesaro deviation averages ----------------------------------------


def cn_stat_oprl(J: JacobiParams, Ns=DEFAULT_LADDER,
                 label: str = "cn_oprl") -> StatSeries:
    """(1/N) sum over sites 1..N of |a_n - 1| + |b_n|: zero exactly on a
    free window, and its vanishing in the limit defines the scalar
    Cesaro-Nevai condition."""
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    dev = np.abs(J.a_window(n) - 1.0) + np.abs(J.b_window(n))
    return StatSeries(label, Ns, _prefix_means(dev, Ns))


def cn_sq_stat_oprl(J: JacobiParams, Ns=DEFAULT_LADDER,
                    label: str = "cn_sq_oprl") -> StatSeries:
    """Companion mean-square form: (1/N) sum of (a_n - 1)^2 + b_n^2."""
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    dev = (J.a_window(n) - 1.0) ** 2 + J.b_window(n) ** 2
    return StatSeries(label, Ns, _prefix_means(dev, Ns))


def cn_stat_windowed(J: JacobiParams, starts, n: int) -> np.ndarray:
    """Off-origin windowed averages (1/n) sum_{j=s}^{s+n-1}
    (|a_j - 1| + |b_j|) for each 1-based start s.

    Exposed as an exploratory diagnostic (shifted windows of a bounded
    regular J are expected to flatten); no threshold is attached.
    """
    starts = np.asarray(starts, dtype=int)
    if n < 1 or np.any(starts < 1):
        raise ValueError("need n >= 1 and 1-based starts")
    hi = int(starts.max()) + n - 1
    dev = np.abs(J.a_window(hi) - 1.0) + np.abs(J.b_window(hi))
    cs = np.concatenate([[0.0], np.cumsum(dev, dtype=np.longdouble)])
    return ((cs[starts + n - 1] - cs[starts - 1]) / n).astype(float)


def lemma21_stats(a, Ns=DEFAULT_LADDER):
    """Four windowed functionals of a positive sequence: geometric mean,
    mean, mean square, and mean square deviation from 1.

    The four are linked by concavity of the logarithm (geometric mean
    below mean) and by the exact expansion
    mean_sq_dev = mean_square - 2 mean + 1, which holds here to 1e-12
    per window because all four share one extended-precision prefix sum
    pass.  Returned in that order as StatSeries.
    """
    Ns = _check_ladder(Ns)
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or len(a) < Ns[-1]:
        raise ValueError(f"need a 1-d positive sequence of length >= {Ns[-1]}")
    if np.any(a <= 0.0):
        raise ValueError("sequence must be positive")
    geo = StatSeries("geo_mean", Ns,
                     tuple(math.exp(v) for v in _prefix_means(np.log(a), Ns)))
    mean = StatSeries("mean", Ns, _prefix_means(a, Ns))
    mean_sq = StatSeries("mean_square", Ns, _prefix_means(a * a, Ns))
    msd = StatSeries("mean_sq_dev", Ns, _prefix_means((a - 1.0) ** 2, Ns))
    return geo, mean, mean_sq, msd


def trace_stat(J, Ns=DEFAULT_LADDER, label: str = "trace_stat") -> StatSeries:
    """Normalized second moment of the N-site truncation:
    (1/N)(2 sum_{n<N} a_n^2 + sum_{n<=N} b_n^2) for scalar data, and
    (1/(N ell))(2 sum_{n<N} tr A_n^* A_n + sum_{n<=N} tr B_n^2) for
    block data.  Tends to 2 in the regular free-like cases.
    """
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    if isinstance(J, JacobiParams):
        a2 = J.a_window(n - 1) ** 2 if n > 1 else np.empty(0)
        b2 = J.b_window(n) ** 2
        csa = np.concatenate([[0.0], np.cumsum(a2, dtype=np.longdouble)])
        csb = np.cumsum(b2, dtype=np.longdouble)
        vals = tuple(float((2.0 * csa[N - 1] + csb[N - 1]) / N) for N in Ns)
        return StatSeries(label, Ns, vals)
    if isinstance(J, BlockJacobiParams):
        ell = J.block_size
        ta = np.array([float(np.sum(np.abs(blk) ** 2))
                       for blk in J.a_blocks(n - 1)]) if n > 1 else np.empty(0)
        tb = np.array([float(np.real(np.trace(blk @ blk)))
                       for blk in J.b_blocks(n)])
        csa = np.concatenate([[0.0], np.cumsum(ta, dtype=np.longdouble)])
        csb = np.cumsum(tb, dtype=np.longdouble)
        vals = tuple(float((2.0 * csa[N - 1] + csb[N - 1]) / (N * ell))
                     for N in Ns)
        return StatSeries(label, Ns, vals)
    raise TypeError(f"unsupported sequence type {type(J).__name__}")


def cn_stat_matrix(Jb: BlockJacobiParams, Ns=DEFAULT_LADDER):
    """Block Cesaro averages: the type form
    (1/N) sum (||A_n - 1|| + ||B_n||) and the invariant form
    (1/N) sum (||A_n^* A_n - 1|| + ||B_n||), Hilbert-Schmidt norms.

    The type form only means anything on a type-1 or type-3 tagged
    representative (WrongType otherwise); the invariant form gives the
    same value on every equivalent parameter set, since A^* A and the
    norm of B are untouched by the chain conjugation.
    """
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    if Jb.type_tag not in ("type1", "type3"):
        raise WrongType(
            "type form of the block average needs a type-1 or type-3 "
            f"representative, got tag {Jb.type_tag!r}"
        )
    eye = np.eye(Jb.block_size)
    terms = np.array([_hs(A - eye) + _hs(B)
                      for A, B in zip(Jb.a_blocks(n), Jb.b_blocks(n))])
    return (StatSeries("cn_matrix_type", Ns, _prefix_means(terms, Ns)),
            cn_stat_matrix_invariant(Jb, Ns))


def _hs(M: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(M) ** 2)))


def cn_stat_matrix_invariant(Jb: BlockJacobiParams,
                             Ns=DEFAULT_LADDER) -> StatSeries:
    """The invariant form alone, valid for any tag."""
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    eye = np.eye(Jb.block_size)
    terms = np.array([_hs(A.conj().T @ A - eye) + _hs(B)
                      for A, B in zip(Jb.a_blocks(n), Jb.b_blocks(n))])
    return StatSeries("cn_matrix_invariant", Ns, _prefix_means(terms, Ns))


def cn_stat_opuc(alpha: VerblunskyParams, Ns=DEFAULT_LADDER,
                 label: str = "cn_opuc") -> StatSeries:
    """(1/N) sum over indices 0..N-1 of |alpha_j|."""
    Ns = _check_ladder(Ns)
    mod = np.abs(alpha.alpha_window(Ns[-1]))
    return StatSeries(label, Ns, _prefix_means(mod, Ns))


# -- arc statistics ----------------------------------------------------


def arc_stats(alpha: VerblunskyParams, a: float, k: int,
              Ns=DEFAULT_LADDER):
    """Three windowed averages probing approach to the constant-modulus
    family {a e^{i theta}} associated with the symmetric circular arc:

    * modulus:  (1/N) sum_j (|alpha_j| - a)^2,
    * step:     (1/N) sum_j |alpha_{j+1} - alpha_j|^2,
    * block:    (1/N) sum_j min_theta sum_{l=1..k}
                |alpha_{j+l} - a e^{i theta}|^2.

    The inner minimum is evaluated in closed form (the optimal phase is
    the argument of the block sum):
    sum |alpha_{j+l}|^2 + k a^2 - 2 a |sum alpha_{j+l}|.
    The step and block averages read ahead of the window, so the
    sequence must supply N + max(1, k) coefficients for a window of
    length N.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("arc parameter must lie in (0, 1)")
    if k < 1:
        raise ValueError("block length k >= 1 required")
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    al = alpha.alpha_window(n + max(1, k))
    mod_terms = (np.abs(al[:n]) - a) ** 2
    step_terms = np.abs(al[1:n + 1] - al[:n]) ** 2
    cs = np.concatenate([[0.0], np.cumsum(al)])
    block_sum = cs[1 + k:n + k + 1] - cs[1:n + 1]          # sum_{l=1..k} alpha_{j+l}
    cs2 = np.concatenate([[0.0], np.cumsum(np.abs(al) ** 2)])
    block_sq = cs2[1 + k:n + k + 1] - cs2[1:n + 1]
    block_terms = block_sq + k * a * a - 2.0 * a * np.abs(block_sum)
    return (StatSeries("arc_modulus", Ns, _prefix_means(mod_terms, Ns)),
            StatSeries("arc_step", Ns, _prefix_means(step_terms, Ns)),
            StatSeries("arc_block", Ns, _prefix_means(block_terms, Ns)))


# -- torus distances ---------------------------------------------------


def d_m(J: JacobiParams, Jt: JacobiParams, m: int) -> float:
    """Exponentially weighted one-sided coefficient distance starting at
    site m: sum_{k>=0} e^{-k}(|a_{m+k} - a'_{m+k}| + |b_{m+k} - b'_{m+k}|).

    The series is truncated where the geometric tail of the combined
    deviation bound drops below 1e-15, so doubling the truncation
    changes nothing at 1e-12 scale.  Symmetric in its arguments.
    """
    if m < 1:
        raise ValueError("site index is 1-based")
    probe = m + 64
    bound = 2.0 * (2.0 + _periodic._deviation_bound(J, probe)
                   + _periodic._deviation_bound(Jt, probe))
    w = _periodic.dm_weights(bound)
    K = len(w) - 1
    hi = m + K
    terms = (np.abs(J.a_window(hi)[m - 1:] - Jt.a_window(hi)[m - 1:])
             + np.abs(J.b_window(hi)[m - 1:] - Jt.b_window(hi)[m - 1:]))
    return float(terms @ w)


def cn_stat_torus(J: JacobiParams, torus, Ns=DEFAULT_LADDER,
                  label: str = "cn_torus") -> StatSeries:
    """Cesaro average (1/N) sum_{m=1..N} of the distance from J at
    offset m to the isospectral family of the discriminant ``torus``.

    Every period is supported (all gaps open, GapClosed otherwise).  All
    offsets up to the last window are searched in one vectorized batch;
    see periodic.d_to_torus for the search, its starts and its
    guarantees.
    """
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    ds = _periodic.d_to_torus_batch(J, np.arange(1, n + 1), torus)
    return StatSeries(label, Ns, _prefix_means(ds, Ns))
