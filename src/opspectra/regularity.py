"""Windowed scalar diagnostics: root tests, Cesaro deviation averages
for scalar, unitary, and block recurrence data, concavity functionals,
arc statistics, and the torus-distance average.

Every diagnostic is reported as a :class:`StatSeries` over a ladder of
window lengths.  All windowed averages share one code path: a prefix
sum of per-site terms in extended precision, divided by the window
length, so the algebraic identities between related statistics hold to
1e-12 even at the largest windows.  The sum runs over the window in
chunks of ``_CHUNK`` sites, carrying its running total from chunk to
chunk, so it has the bits of one cumulative sum over the whole window
while the terms exist one chunk at a time.  A scalar or Verblunsky
sequence is read by runs of the same chunks (``a_runs``,
``alpha_runs``), which keep nothing, so such a statistic needs
O(_CHUNK) memory at any N; statistics reported together over one
sequence (:func:`root_and_cesaro`, :func:`arc_stats`,
:func:`lemma21_stats`) stack their terms and share one pass.  Block
statistics read their stored blocks; the torus average reads the
distances of all N offsets, one array from one torus search that holds
O(1) numbers per offset (``periodic.d_to_torus_batch``).

Sequence indexing follows the underlying data: Jacobi windows cover
sites 1..N, Verblunsky windows cover indices 0..N-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import periodic as _periodic
from .sequences import (_CHUNK, BlockJacobiParams, JacobiParams,
                        VerblunskyParams, WrongType, _herm, _rho)

#: the terms of sites lo..hi-1 along the last axis, given (lo, hi)
Terms = Callable[[int, int], np.ndarray]

@dataclass(frozen=True)
class StatSeries:
    """A labelled statistic evaluated over increasing window lengths."""

    label: str
    Ns: Tuple[int, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "Ns", _check_ladder(self.Ns))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.Ns) != len(self.values):
            raise ValueError("Ns and values must align")

    def __len__(self) -> int:
        return len(self.Ns)

    @property
    def last(self) -> float:
        return self.values[-1]

    def decreasing(self, burn_in: int = 0) -> bool:
        """True when values are nonincreasing once N >= burn_in."""
        kept = [v for n, v in zip(self.Ns, self.values) if n >= burn_in]
        return all(kept[i + 1] <= kept[i] for i in range(len(kept) - 1))


def _check_ladder(Ns) -> Tuple[int, ...]:
    Ns = tuple(int(n) for n in Ns)
    if not Ns or any(n < 1 for n in Ns):
        raise ValueError("window ladder must contain positive lengths")
    if any(Ns[i] >= Ns[i + 1] for i in range(len(Ns) - 1)):
        raise ValueError("window ladder must be strictly increasing")
    return Ns


def _prefix_sums(terms: Terms, ends) -> np.ndarray:
    """The sum of the first e terms for each e >= 0 of ``ends``, in
    extended precision, with the series on the last axis (leading axes
    of the terms are separate series).

    ``terms`` is called on consecutive chunks (0, C), (C, 2C), ... up to
    max(ends), with C = ``_CHUNK``.  Each chunk's cumulative sum starts
    from the running total of the chunks before it, so every sum has the
    bits of one ``np.cumsum(..., dtype=np.longdouble)`` over all terms.
    The empty sum is -0.0, the exact identity of floating-point addition.
    One buffer per pass, of C + 1 sums per series, serves every chunk:
    its first slot takes the carry, the rest the chunk's terms, and sums
    are read out only at the ladder ends that the chunk holds.
    """
    ends = np.asarray(ends, dtype=np.intp)
    n = int(ends.max())
    for lo in range(0, n, _CHUNK) or (0,):
        hi = min(lo + _CHUNK, n)
        t = terms(lo, hi)
        if lo == 0:
            cs = np.empty(t.shape[:-1] + (min(n, _CHUNK) + 1,), np.longdouble)
            sums = np.empty(t.shape[:-1] + ends.shape, np.longdouble)
            cs[..., 0] = -0.0
        else:
            cs[..., 0] = cs[..., m]     # the carry, before t overwrites it
        m = hi - lo
        run = cs[..., :m + 1]
        run[..., 1:] = t
        np.add.accumulate(run, axis=-1, out=run)
        held = (ends <= hi) & ((ends > lo) | (lo == 0))
        sums[..., held] = run[..., ends[held] - lo]
    return sums


def _prefix_means(terms: Terms, Ns: Tuple[int, ...]) -> Tuple[float, ...]:
    """(1/N) sum of the first N terms for each ladder entry, accumulated
    in extended precision by :func:`_prefix_sums`."""
    return tuple(float(s / n) for s, n in zip(_prefix_sums(terms, Ns), Ns))


def _means(sums: np.ndarray, Ns: Tuple[int, ...]) -> List[Tuple[float, ...]]:
    """The ladder means of each row of stacked prefix sums."""
    return [tuple(float(s / n) for s, n in zip(row, Ns)) for row in sums]


def _run_means(reads: Sequence[Terms], rows: Sequence[Callable],
               Ns: Tuple[int, ...]) -> List[Tuple[float, ...]]:
    """Ladder means of several statistics from one prefix-sum pass: each
    chunk reads one run from each of ``reads`` (run readers, or
    :func:`_slices`), and each of ``rows`` maps those runs to the terms
    of one statistic; the rows are stacked on a leading axis.  A row
    sums the same bits whether it runs alone or with others."""
    def terms(lo, hi):
        runs = [read(lo, hi) for read in reads]
        return np.stack([row(*runs) for row in rows])
    return _means(_prefix_sums(terms, Ns), Ns)


def _slices(values: np.ndarray) -> Terms:
    """Terms already held in one array, handed out by slicing."""
    return lambda lo, hi: values[lo:hi]


def _log_rho(alpha: np.ndarray) -> np.ndarray:
    """log rho_j of a run of Verblunsky coefficients; the store has
    checked |alpha_j| < 1, which leaves 1 - |alpha_j|^2 >= 2^-52."""
    return np.log(_rho(alpha))


def _dev(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Cesaro deviation |a_n - 1| + |b_n| of runs of a and b."""
    return np.abs(a - 1.0) + np.abs(b)


# -- root tests --------------------------------------------------------


def root_test(seq, Ns, label: str = "root_test") -> StatSeries:
    """Geometric mean of the off-diagonal data over each window, in log
    space: exp((1/N) sum log a_n), exp((1/N) sum log rho_j), or
    exp((1/(N ell)) sum log |det A_n|) depending on the sequence kind.

    For regular data these converge to the capacity of the essential
    spectrum, which is what makes them a practical regularity probe.
    """
    Ns = _check_ladder(Ns)
    n_max = Ns[-1]
    if isinstance(seq, JacobiParams):
        means, = _run_means((seq.a_runs(n_max),), (np.log,), Ns)
    elif isinstance(seq, VerblunskyParams):
        means, = _run_means((seq.alpha_runs(n_max),), (_log_rho,), Ns)
    elif isinstance(seq, BlockJacobiParams):
        A, ell = seq.a_blocks(n_max), seq.block_size
        means = _prefix_means(
            lambda lo, hi: np.linalg.slogdet(A[lo:hi])[1] / ell, Ns)
    else:
        raise TypeError(f"unsupported sequence type {type(seq).__name__}")
    return StatSeries(label, Ns, tuple(math.exp(v) for v in means))


def root_and_cesaro(seq, Ns, root_label: str = "root_test",
                    cn_label: str = "cn"):
    """The root test and the Cesaro deviation average of one scalar
    sequence from one pass over it: for Jacobi data :func:`root_test`
    and :func:`cn_stat_oprl`, for Verblunsky data :func:`root_test` and
    :func:`cn_stat_opuc`, each with the bits of its own call.  Returned
    in that order as StatSeries.
    """
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    if isinstance(seq, JacobiParams):
        root, cn = _run_means(_ab_runs(seq, n),
                              (lambda a, b: np.log(a), _dev), Ns)
    elif isinstance(seq, VerblunskyParams):
        root, cn = _run_means((seq.alpha_runs(n),), (_log_rho, np.abs), Ns)
    else:
        raise TypeError(f"unsupported sequence type {type(seq).__name__}")
    return (StatSeries(root_label, Ns, tuple(math.exp(v) for v in root)),
            StatSeries(cn_label, Ns, cn))


# -- Cesaro deviation averages ----------------------------------------


def cn_stat_oprl(J: JacobiParams, Ns, label: str = "cn_oprl") -> StatSeries:
    """(1/N) sum over sites 1..N of |a_n - 1| + |b_n|: zero exactly on a
    free window, and its vanishing in the limit defines the scalar
    Cesaro-Nevai condition."""
    Ns = _check_ladder(Ns)
    means, = _run_means(_ab_runs(J, Ns[-1]), (_dev,), Ns)
    return StatSeries(label, Ns, means)


def _ab_runs(J: JacobiParams, n: int) -> Tuple[Terms, Terms]:
    """The run readers of a_1..a_n and b_1..b_n."""
    return J.a_runs(n), J.b_runs(n)


def cn_sq_stat_oprl(J: JacobiParams, Ns, label: str = "cn_sq_oprl") -> StatSeries:
    """Companion mean-square form: (1/N) sum of (a_n - 1)^2 + b_n^2."""
    Ns = _check_ladder(Ns)
    means, = _run_means(_ab_runs(J, Ns[-1]),
                        (lambda a, b: (a - 1.0) ** 2 + b ** 2,), Ns)
    return StatSeries(label, Ns, means)


def cn_stat_windowed(J: JacobiParams, starts, n: int) -> np.ndarray:
    """Off-origin windowed averages (1/n) sum_{j=s}^{s+n-1}
    (|a_j - 1| + |b_j|) for each 1-based start s.

    Exposed as an exploratory diagnostic (shifted windows of a bounded
    regular J are expected to flatten); no threshold is attached.
    """
    starts = np.asarray(starts, dtype=int)
    if n < 1 or np.any(starts < 1):
        raise ValueError("need n >= 1 and 1-based starts")
    read_a, read_b = _ab_runs(J, int(starts.max()) + n - 1)
    cs = _prefix_sums(lambda lo, hi: _dev(read_a(lo, hi), read_b(lo, hi)),
                      np.stack([starts - 1, starts + n - 1]))
    return ((cs[1] - cs[0]) / n).astype(float)


def lemma21_stats(a, Ns):
    """Four windowed functionals of a positive sequence: geometric mean,
    mean, mean square, and mean square deviation from 1.

    The four are linked by concavity of the logarithm (geometric mean
    below mean) and by the exact expansion
    mean_sq_dev = mean_square - 2 mean + 1, which holds here to 1e-12
    per window because all four share one extended-precision prefix sum
    pass over a (4, chunk) block of terms.  Returned in that order as
    StatSeries.
    """
    Ns = _check_ladder(Ns)
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or len(a) < Ns[-1]:
        raise ValueError(f"need a 1-d positive sequence of length >= {Ns[-1]}")
    if np.any(a <= 0.0):
        raise ValueError("sequence must be positive")
    geo, mean, mean_sq, msd = _run_means(
        (_slices(a),), (np.log, lambda x: x, lambda x: x * x,
                        lambda x: (x - 1.0) ** 2), Ns)
    return (StatSeries("geo_mean", Ns, tuple(math.exp(v) for v in geo)),
            StatSeries("mean", Ns, mean),
            StatSeries("mean_square", Ns, mean_sq),
            StatSeries("mean_sq_dev", Ns, msd))


def trace_stat(J, Ns, label: str = "trace_stat") -> StatSeries:
    """Normalized second moment of the N-site truncation:
    (1/N)(2 sum_{n<N} a_n^2 + sum_{n<=N} b_n^2) for scalar data, and
    (1/(N ell))(2 sum_{n<N} tr A_n^* A_n + sum_{n<=N} tr B_n^2) for
    block data.  Tends to 2 in the regular free-like cases.
    """
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    if isinstance(J, JacobiParams):
        ell, read_a, read_b = 1, J.a_runs(n - 1), J.b_runs(n)

        def ta(lo, hi):
            return read_a(lo, hi) ** 2

        def tb(lo, hi):
            return read_b(lo, hi) ** 2
    elif isinstance(J, BlockJacobiParams):
        ell, A, B = J.block_size, J.a_blocks(n - 1), J.b_blocks(n)

        def ta(lo, hi):
            return _hs2(A[lo:hi])

        def tb(lo, hi):
            return np.trace(B[lo:hi] @ B[lo:hi], axis1=1, axis2=2).real
    else:
        raise TypeError(f"unsupported sequence type {type(J).__name__}")
    sa = _prefix_sums(ta, np.subtract(Ns, 1))
    sb = _prefix_sums(tb, Ns)
    return StatSeries(label, Ns, tuple(
        float((2.0 * x + y) / (N * ell)) for x, y, N in zip(sa, sb, Ns)))


def cn_stat_matrix(Jb: BlockJacobiParams, Ns):
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
    A, B, eye = Jb.a_blocks(n), Jb.b_blocks(n), np.eye(Jb.block_size)
    return (StatSeries("cn_matrix_type", Ns, _prefix_means(
        lambda lo, hi: (np.sqrt(_hs2(A[lo:hi] - eye))
                        + np.sqrt(_hs2(B[lo:hi]))), Ns)),
            cn_stat_matrix_invariant(Jb, Ns))


def _hs2(M: np.ndarray) -> np.ndarray:
    """Squared Hilbert-Schmidt norm of every block of a stack."""
    return np.sum(np.abs(M) ** 2, axis=(1, 2))


def cn_stat_matrix_invariant(Jb: BlockJacobiParams, Ns) -> StatSeries:
    """The invariant form alone, valid for any tag."""
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    A, B, eye = Jb.a_blocks(n), Jb.b_blocks(n), np.eye(Jb.block_size)

    def terms(lo, hi):
        Ak = A[lo:hi]
        return np.sqrt(_hs2(_herm(Ak) @ Ak - eye)) + np.sqrt(_hs2(B[lo:hi]))

    return StatSeries("cn_matrix_invariant", Ns, _prefix_means(terms, Ns))


def cn_stat_opuc(alpha: VerblunskyParams, Ns, label: str = "cn_opuc") -> StatSeries:
    """(1/N) sum over indices 0..N-1 of |alpha_j|."""
    Ns = _check_ladder(Ns)
    means, = _run_means((alpha.alpha_runs(Ns[-1]),), (np.abs,), Ns)
    return StatSeries(label, Ns, means)


# -- arc statistics ----------------------------------------------------


def arc_stats(alpha: VerblunskyParams, a: float, k: int, Ns,
              label: str = "arc"):
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
    length N.  The three series are labelled ``<label>_modulus``,
    ``<label>_step`` and ``<label>_block``, and come from one pass that
    reads the coefficients by runs: the block sums are differences of a
    trailing and a leading running sum, k apart, each carried from run
    to run, so memory depends on neither N nor k.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("arc parameter must lie in (0, 1)")
    if k < 1:
        raise ValueError("block length k >= 1 required")
    Ns = _check_ladder(Ns)
    read = alpha.alpha_runs(Ns[-1] + max(1, k))
    # sum_{l=1..k} alpha_{j+l} = S_{j+k+1} - S_{j+1}, S_m the sum of the
    # first m coefficients
    trail, lead = _RunningSums(), _RunningSums()
    for lo in range(0, k, _CHUNK):
        lead.add(read(lo, min(lo + _CHUNK, k)))

    def terms(lo, hi):
        al = read(lo, hi + 1)
        s, s2 = trail.add(al[:-1])
        t, t2 = lead.add(read(lo + k, hi + k))
        return np.stack([(np.abs(al[:-1]) - a) ** 2,
                         np.abs(al[1:] - al[:-1]) ** 2,
                         (t2 - s2) + k * a * a - 2.0 * a * np.abs(t - s)])

    return tuple(StatSeries(f"{label}_{name}", Ns, means)
                 for name, means in zip(("modulus", "step", "block"),
                                        _means(_prefix_sums(terms, Ns), Ns)))


class _RunningSums:
    """Running sums S_m of alpha_0, alpha_1, ... and of |alpha_j|^2, fed
    by consecutive runs.  Each run's sums are one sequential float64
    pass starting from the total before it (first -0.0, the exact
    identity of addition), so they have the bits of one ``np.cumsum``
    over all the runs."""

    def __init__(self):
        self.total = np.array([complex(-0.0, -0.0)])
        self.total_sq = np.array([-0.0])

    def add(self, run: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """S_{m+1}..S_{m+len(run)} of both series, m the length fed so far."""
        s = np.add.accumulate(np.concatenate([self.total, run]))
        s2 = np.add.accumulate(np.concatenate([self.total_sq,
                                               np.abs(run) ** 2]))
        self.total, self.total_sq = s[-1:], s2[-1:]
        return s[1:], s2[1:]


# -- torus distances ---------------------------------------------------


def cn_stat_torus(J: JacobiParams, J0, Ns, label: str = "cn_torus") -> StatSeries:
    """Cesaro average (1/N) sum_{m=1..N} of the distance from J at
    offset m to the isospectral family of the periodic generator J0.

    Every period is supported (all gaps open, GapClosed otherwise).  All
    offsets up to the last window go to one periodic.d_to_torus_batch
    call, which holds O(1) numbers per offset and gathers coefficient
    windows one block of rows at a time; see it for the search, its
    starts and its guarantees.  The distances, 8 bytes per offset, are
    then averaged like every other windowed statistic.
    """
    Ns = _check_ladder(Ns)
    n = Ns[-1]
    ds = _periodic.d_to_torus_batch(J, np.arange(1, n + 1), J0)
    return StatSeries(label, Ns, _prefix_means(_slices(ds), Ns))
