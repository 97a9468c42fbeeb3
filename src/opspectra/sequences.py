"""Recurrence-coefficient sequences and their elementary functionals.

Three families of coefficient data appear throughout the toolkit:

* Jacobi parameters ``{a_n, b_n}`` (1-indexed) of a real tridiagonal
  recurrence, with ``a_n > 0``;
* Verblunsky coefficients ``{alpha_j}`` (0-indexed) in the open unit
  disc, with companion ``rho_j = sqrt(1 - |alpha_j|^2)``;
* block Jacobi parameters ``{A_j, B_j}`` of square complex blocks with
  ``A_j`` nonsingular and ``B_j`` Hermitian, each block checked on
  construction.

Sequences are either finite arrays or unbounded ones given by index-array
functions: called on an integer array of indices, such a function returns
the values there (a scalar is broadcast).  It may be called on any split
of the indices into consecutive runs, so its value at an index must not
depend on which other indices share the call.  Every downstream
statistic asks for an explicit window length, so an unbounded sequence
is never generated beyond the largest window requested.  Every window
is read-only, and every sequence is an immutable value.

A sequence keeps nothing it generates: each read of an unbounded
sequence calls its function on exactly the indices it returns and
checks the values there, naming the first bad index.  The statistics in
``regularity`` read by runs (``a_runs``, ``alpha_runs``, ...), one chunk
at a time, so a statistic over n values needs O(_CHUNK) memory whatever
n is.  The matrix consumers read a window (``a_window``,
``alpha_window``, ...): a fresh array filled from runs of ``_CHUNK``
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: an index-array function: integer indices -> values there, or a scalar
IndexFn = Callable[[np.ndarray], object]

#: indices per run of a window fill and of a prefix-sum pass; bounds the
#: work memory of both.  One run of a pass holds its generated values,
#: the stacked float64 terms and the long-double sums, about 48 bytes per
#: site and row: 1.5 MiB for the two rows of a root test and its Cesaro
#: average, which fits in a 2 MiB L2 cache (2^15 sites would not)
_CHUNK = 1 << 14


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


def _fill(obj, **fields) -> None:
    """Set the fields of a frozen dataclass instance being constructed."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class _Store:
    """The values of one coefficient sequence from index ``first`` on.  A
    finite sequence is ``values``, a frozen copy of the given array; an
    unbounded one is ``fn``, an index-array function, with ``values``
    empty and only giving the dtype.  ``check(values, index)``, with
    ``index`` that of ``values[0]``, vets the finite array and every
    generated run."""

    values: np.ndarray
    first: int
    fn: Optional[IndexFn] = None
    check: Optional[Callable[[np.ndarray, int], None]] = None

    def __post_init__(self):
        if self.check is not None:
            self.check(self.values, self.first)
        _fill(self, values=_freeze(np.array(self.values)))

    def __len__(self) -> int:
        if self.fn is not None:
            raise TypeError("generator-backed sequence has no length")
        return len(self.values)

    def run(self, lo: int, hi: int) -> np.ndarray:
        """The values at positions lo..hi-1: a slice of a finite sequence,
        or generated and checked, and not kept."""
        if self.fn is None:
            return self.values[lo:hi]
        idx = np.arange(self.first + lo, self.first + hi)
        new = np.broadcast_to(
            np.asarray(self.fn(idx), dtype=self.values.dtype), idx.shape)
        if self.check is not None:
            self.check(new, self.first + lo)
        return new

    def _require(self, n: int, name: str) -> None:
        """ValueError unless the first n values exist."""
        if n < 0:
            raise ValueError("window length must be >= 0")
        if self.fn is None and n > len(self.values):
            raise ValueError(f"requested {name}_{self.first}..{name}_"
                             f"{self.first + n - 1}, have {len(self.values)}")

    def window(self, n: int, name: str) -> np.ndarray:
        """Exactly the first n values, read-only: a slice of a finite
        sequence, or a fresh array filled by runs of at most ``_CHUNK``;
        ValueError past a finite end."""
        self._require(n, name)
        if self.fn is None:
            return self.run(0, n)
        out = np.empty(n, dtype=self.values.dtype)
        for lo in range(0, n, _CHUNK):
            out[lo:lo + _CHUNK] = self.run(lo, min(lo + _CHUNK, n))
        return _freeze(out)

    def runs(self, n: int, name: str) -> Callable[[int, int], np.ndarray]:
        """``run``, once the first n values are known to exist (the
        ValueError of ``window`` otherwise)."""
        self._require(n, name)
        return self.run


def _refuse(bad: np.ndarray, values: np.ndarray, first: int, name: str,
            rule: str) -> None:
    """ValueError naming the first ``bad`` value, ``first`` the index of
    values[0]."""
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"{name}_{first + j} = {values[j]} must be {rule}")


def _check_a(a: np.ndarray, first: int) -> None:
    _refuse(~(a > 0.0) | np.isinf(a), a, first, "a", "> 0 and finite")


def _check_b(b: np.ndarray, first: int) -> None:
    _refuse(~np.isfinite(b), b, first, "b", "finite")


@dataclass(frozen=True, eq=False, init=False)
class JacobiParams:
    """Jacobi parameters a_1, a_2, ... (> 0) and b_1, b_2, ...

    Backed either by finite arrays or by index-array functions of n >= 1.
    Every a_n is checked to be finite and > 0 and every b_n to be
    finite: a finite array on construction, generated values on each
    read.  A generated value is not kept: each window or run generates
    the values it returns.
    """

    _a: _Store
    _b: _Store

    def __init__(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("a and b must be one-dimensional")
        if len(b) == 0:
            raise ValueError("empty coefficient sequences")
        if len(a) not in (len(b), len(b) - 1):
            raise ValueError("need len(a) == len(b) or len(b) - 1")
        _fill(self, _a=_Store(a, 1, check=_check_a),
              _b=_Store(b, 1, check=_check_b))

    @classmethod
    def from_functions(cls, a_fn: IndexFn, b_fn: IndexFn) -> "JacobiParams":
        """Unbounded sequence from index-array functions: each is called
        on an integer array of consecutive 1-based indices n (any split
        of the window) and returns a_n (b_n) there, or one scalar for
        all of them."""
        self = cls.__new__(cls)
        _fill(self, _a=_Store(np.empty(0), 1, a_fn, _check_a),
              _b=_Store(np.empty(0), 1, b_fn, _check_b))
        return self

    @classmethod
    def free(cls, n: Optional[int] = None) -> "JacobiParams":
        """The free case a == 1, b == 0 (finite length n, or unbounded)."""
        if n is None:
            return cls.from_functions(lambda k: 1.0, lambda k: 0.0)
        return cls(np.ones(n), np.zeros(n))

    @property
    def is_finite(self) -> bool:
        return self._b.fn is None

    def __len__(self) -> int:
        """The number of sites N (b_1..b_N) of a finite sequence."""
        return len(self._b)

    def a_window(self, n: int) -> np.ndarray:
        """a_1..a_n as a read-only array."""
        return self._a.window(n, "a")

    def b_window(self, n: int) -> np.ndarray:
        """b_1..b_n as a read-only array."""
        return self._b.window(n, "b")

    def a_runs(self, n: int) -> Callable[[int, int], np.ndarray]:
        """Reader of a_1..a_n by runs: (lo, hi) -> a_{lo+1}..a_hi,
        generated and checked on each call."""
        return self._a.runs(n, "a")

    def b_runs(self, n: int) -> Callable[[int, int], np.ndarray]:
        """Reader of b_1..b_n by runs, as ``a_runs``."""
        return self._b.runs(n, "b")


def sup_deviation(params: JacobiParams, n: int) -> float:
    """max over the first n sites of |a_k - 1| + |b_k| (just |b_N| where
    a finite a stops at N - 1), read in runs of _CHUNK sites, so in
    O(_CHUNK) memory whatever n is.

    Monotone nondecreasing in n; zero exactly on a free window.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    b = params.b_runs(n)
    out = 0.0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        a = params._a.run(lo, hi)
        dev = np.abs(b(lo, hi))
        dev[: len(a)] += np.abs(a - 1.0)
        out = max(out, float(dev.max()))
    return out


def _rho(alpha: np.ndarray) -> np.ndarray:
    """rho_j = sqrt(1 - |alpha_j|^2) of every coefficient given."""
    return np.sqrt(1.0 - np.abs(alpha) ** 2)


def _check_alpha(alpha: np.ndarray, first: int) -> None:
    mod = np.abs(alpha)
    bad = ~(mod < 1.0)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"|alpha_{first + j}| = {mod[j]} must be < 1")


@dataclass(frozen=True, eq=False, init=False)
class VerblunskyParams:
    """Verblunsky coefficients alpha_0, alpha_1, ... with |alpha_j| < 1.

    ``rho`` is the derived sequence sqrt(1 - |alpha_j|^2) in (0, 1].
    """

    _alpha: _Store

    def __init__(self, alpha):
        alpha = np.asarray(alpha, dtype=complex)
        if alpha.ndim != 1:
            raise ValueError("alpha must be one-dimensional")
        _fill(self, _alpha=_Store(alpha, 0, check=_check_alpha))

    @classmethod
    def from_function(cls, alpha_fn: IndexFn) -> "VerblunskyParams":
        """Unbounded sequence from an index-array function: called on an
        integer array of consecutive 0-based indices j (any split of the
        window), it returns alpha_j there, or one scalar for all of them.
        Each generated value is checked for |alpha_j| < 1."""
        self = cls.__new__(cls)
        _fill(self, _alpha=_Store(np.empty(0, dtype=complex), 0, alpha_fn,
                                  _check_alpha))
        return self

    def __len__(self) -> int:
        return len(self._alpha)

    def alpha_window(self, n: int) -> np.ndarray:
        """alpha_0..alpha_{n-1} as a read-only array."""
        return self._alpha.window(n, "alpha")

    def alpha_runs(self, n: int) -> Callable[[int, int], np.ndarray]:
        """Reader of alpha_0..alpha_{n-1} by runs: (lo, hi) ->
        alpha_lo..alpha_{hi-1}, generated and checked on each call."""
        return self._alpha.runs(n, "alpha")

    def rho_window(self, n: int) -> np.ndarray:
        """rho_0..rho_{n-1} with rho_j^2 + |alpha_j|^2 = 1, read-only."""
        return _freeze(_rho(self.alpha_window(n)))


class SingularBlock(ValueError):
    """An off-diagonal block failed the nonsingularity threshold."""

    def __init__(self, index: int, sigma_min: float, threshold: float):
        super().__init__(
            f"A_{index}: smallest singular value {sigma_min} <= {threshold}"
        )
        self.index = index


class WrongType(TypeError):
    """Operation requires a type-1 or type-3 tagged block sequence."""


#: the type tags, with what an A block of a wrongly tagged sequence is not
_TYPE_TAGS = {"general": "", "type1": "is not positive definite",
              "type3": "is not lower triangular with positive diagonal"}


def _stack(obj, name: str, ell: int) -> None:
    """Replace field ``name`` of the frozen dataclass ``obj`` by a
    read-only complex copy of its blocks as an (n, ell, ell) array."""
    arr = np.array(getattr(obj, name), dtype=complex)
    if arr.size == 0:
        arr = arr.reshape(0, ell, ell)
    if arr.ndim != 3 or arr.shape[1:] != (ell, ell):
        raise ValueError(f"{name} has shape {arr.shape}, expected (n, {ell}, {ell})")
    object.__setattr__(obj, name, _freeze(arr))


def _herm(M: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every block of a stack."""
    return M.conj().swapaxes(-1, -2)


def _built_together(cls, rows) -> list:
    """``[cls(*row) for row in rows]`` with one construction check for
    all of them: each member is built and its blocks stacked as its own
    construction would, and ``cls._check_all`` then checks the lot, one
    pass of the per-block rule per group of members that share a block
    size (``_check_grouped``).  The error, if any, is the one the first
    failing member's own construction raises."""
    members = []
    for row in rows:
        obj = object.__new__(cls)
        _fill(obj, **dict(zip(cls.__dataclass_fields__, row)))
        try:
            obj._stack_fields()
        except (ValueError, TypeError):
            # an earlier member's check may fail first
            return [cls(*row) for row in rows]
        members.append(obj)
    cls._check_all(members)
    return members


def _check_grouped(members, key, group_rule, alone) -> None:
    """``alone(m)`` for every member m, in order, run as one
    ``group_rule(k, group)`` per group of the members with equal ``key``
    (the rule over the group's concatenated stacks).  A member whose key
    is None, or a group whose rule raises, sends every member through
    ``alone`` in order, so the error is the first failing member's own."""
    groups = {}
    for m in members:
        groups.setdefault(key(m), []).append(m)
    if len(members) > 1 and None not in groups:
        try:
            for k, group in groups.items():
                group_rule(k, group)
            return
        except (ValueError, TypeError):
            pass
    for m in members:
        alone(m)


@dataclass(frozen=True, eq=False)
class BlockJacobiParams:
    """Block Jacobi parameters: off-diagonal blocks A_j, diagonal blocks B_j.

    ``A`` and ``B`` are read-only complex (n, ell, ell) arrays, copied on
    construction from any stack of ell x ell blocks, such as a tuple of
    arrays.  ``A`` has one block fewer than ``B`` or the same count (it
    may be empty).  ``type_tag`` is "general", "type1" (each A_j positive
    definite) or "type3" (each A_j lower triangular with positive
    diagonal).  The blocks are checked on construction by
    :func:`validate_blocks`, like scalar data, so a parameter set it
    refuses cannot exist.
    """

    block_size: int
    A: np.ndarray
    B: np.ndarray
    type_tag: str = "general"

    def __post_init__(self):
        self._stack_fields()
        validate_blocks(self)

    def _stack_fields(self) -> None:
        for name in ("A", "B"):
            _stack(self, name, self.block_size)

    @staticmethod
    def _check_all(members) -> None:
        validate_blocks(*members)

    def a_blocks(self, n: int) -> np.ndarray:
        """A_1..A_n as a read-only (n, ell, ell) array."""
        return _head(self.A, n, "A")

    def b_blocks(self, n: int) -> np.ndarray:
        """B_1..B_n as a read-only (n, ell, ell) array."""
        return _head(self.B, n, "B")


def _head(blocks: np.ndarray, n: int, name: str) -> np.ndarray:
    """The first n blocks; ValueError for a negative n or past the end,
    as a window of a scalar sequence."""
    if n < 0:
        raise ValueError("window length must be >= 0")
    if n > len(blocks):
        raise ValueError(f"requested {n} {name}-blocks, have {len(blocks)}")
    return blocks[:n]


def _block_rule(A: np.ndarray, B: np.ndarray, tag: str) -> None:
    """The per-block rule of ``validate_blocks`` on an A and a B stack
    under a known tag; an error names the first failing block by its
    position in the stack."""
    singular_rtol, hermitian_rtol, type_rtol = 1e-12, 1e-12, 1e-10
    for name, X in (("B", B), ("A", A)):
        bad = ~np.isfinite(X).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"{name}_{int(np.argmax(bad)) + 1} has a non-finite entry")
    bad = (np.abs(B - _herm(B)).max(axis=(1, 2))
           > hermitian_rtol * np.abs(B).max(axis=(1, 2)))
    if bad.any():
        raise ValueError(f"B_{int(np.argmax(bad)) + 1} is not Hermitian to tolerance")
    s = np.linalg.svd(A, compute_uv=False)
    singular = s[:, -1] <= singular_rtol * s[:, 0]
    tol = type_rtol * s[:, 0]
    wrong = np.zeros(len(A), dtype=bool)
    if tag == "type1":
        wrong = ((np.abs(A - _herm(A)).max(axis=(1, 2)) > tol)
                 | (np.linalg.eigvalsh((A + _herm(A)) / 2.0)[:, 0] <= 0.0))
    elif tag == "type3":
        d = np.diagonal(A, axis1=1, axis2=2)
        wrong = ((np.abs(np.triu(A, 1)).max(axis=(1, 2)) > tol)
                 | (np.abs(d.imag).max(axis=1) > tol) | (d.real.min(axis=1) <= 0.0))
    if np.any(singular | wrong):
        k = int(np.argmax(singular | wrong))
        if singular[k]:
            raise SingularBlock(k + 1, float(s[k, -1]), float(singular_rtol * s[k, 0]))
        raise WrongType(f"A_{k + 1} {_TYPE_TAGS[tag]} ({tag} tag)")


def _lengths_fit(params: BlockJacobiParams) -> bool:
    return len(params.A) in (len(params.B), len(params.B) - 1)


def _validate_alone(params: BlockJacobiParams) -> None:
    if params.type_tag not in _TYPE_TAGS:
        raise ValueError(f"unknown type tag {params.type_tag!r}, "
                         f"expected one of {tuple(_TYPE_TAGS)}")
    if not _lengths_fit(params):
        raise ValueError("need len(A) == len(B) or len(B) - 1")
    _block_rule(params.A, params.B, params.type_tag)


def validate_blocks(*params: BlockJacobiParams) -> None:
    """The check every ``BlockJacobiParams`` passes on construction: the
    type tag, len(A) == len(B) or len(B) - 1, and the per-block rule:
    finiteness of every entry, Hermiticity of the B's, nonsingularity of
    the A's and the declared type structure; an error names the first
    failing block.

    Every tolerance is relative to the block, with no absolute floor, so
    a scaled block passes exactly when the unscaled one does.  The
    nonsingularity threshold is 1e-12 times the spectral norm sigma_max
    of the block (the theory only demands nonsingular), the one such
    rule: the normal forms take every block it passes.  Hermiticity is
    checked to 1e-12 max|B_j|; the type structure to 1e-10 sigma_max:
    the anti-Hermitian part (type 1), and the strictly upper part and
    the diagonal's imaginary part (type 3).

    Several parameter sets (``_built_together``) are checked in one call:
    the per-block rule runs once over the concatenated stacks of all the
    sets of one block size and tag, and only when that pass fails is
    each set checked alone, in order, so the error is the first failing
    set's own, as if each had been built by itself.
    """
    _check_grouped(
        params,
        lambda p: ((p.block_size, p.type_tag)
                   if p.type_tag in _TYPE_TAGS and _lengths_fit(p) else None),
        lambda key, group: _block_rule(np.concatenate([p.A for p in group]),
                                       np.concatenate([p.B for p in group]),
                                       key[1]),
        _validate_alone)


def _identity_head(u: np.ndarray) -> bool:
    return np.max(np.abs(u[0] - np.eye(len(u[0])))) == 0.0


def _unitary_rule(u: np.ndarray) -> None:
    bad = np.abs(_herm(u) @ u - np.eye(u.shape[-1])).max(axis=(1, 2)) > 1e-12
    if bad.any():
        raise ValueError(f"u_{int(np.argmax(bad)) + 1} is not unitary to tolerance")


def _chain_alone(chain: UnitaryChain) -> None:
    if not _identity_head(chain.u):
        raise ValueError("u_1 must be the identity exactly")
    _unitary_rule(chain.u)


@dataclass(frozen=True, eq=False)
class UnitaryChain:
    """Unitaries u_1 = I, u_2, u_3, ... realizing a block-parameter
    equivalence: B~_j = u_j^* B_j u_j, A~_j = u_j^* A_j u_{j+1}.  ``u``
    is a read-only complex (n, ell, ell) array, copied on construction,
    and checked: u_1 exactly the identity, every u_j unitary to 1e-12."""

    u: np.ndarray

    def __post_init__(self):
        self._stack_fields()
        self._check_all([self])

    def _stack_fields(self) -> None:
        _stack(self, "u", len(self.u[0]))

    @staticmethod
    def _check_all(members) -> None:
        # one unitarity pass per block size over the concatenated stacks
        _check_grouped(
            members,
            lambda c: c.u.shape[-1] if _identity_head(c.u) else None,
            lambda ell, group: _unitary_rule(np.concatenate([c.u for c in group])),
            _chain_alone)

    def _moved(self, params: BlockJacobiParams):
        """The stacks u_j^* A_j u_{j+1} and u_j^* B_j u_j (needs one
        unitary per B block plus a trailing one for the last A block)."""
        nA, nB = len(params.A), len(params.B)
        if len(self.u) < max(nB, nA + 1):
            raise ValueError("chain shorter than block sequence")
        uh = _herm(self.u)
        return (uh[:nA] @ params.A @ self.u[1:nA + 1],
                uh[:nB] @ params.B @ self.u[:nB])

    def apply(self, params: BlockJacobiParams) -> BlockJacobiParams:
        """Transform block parameters by this chain; the result has the
        general tag."""
        return BlockJacobiParams(params.block_size, *self._moved(params))
