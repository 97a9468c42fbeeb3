"""Recurrence-coefficient sequences and their elementary functionals.

Three families of coefficient data appear throughout the toolkit:

* Jacobi parameters ``{a_n, b_n}`` (1-indexed) of a real tridiagonal
  recurrence, with ``a_n > 0``;
* Verblunsky coefficients ``{alpha_j}`` (0-indexed) in the open unit
  disc, with companion ``rho_j = sqrt(1 - |alpha_j|^2)``;
* block Jacobi parameters ``{A_j, B_j}`` of square complex blocks with
  ``A_j`` nonsingular and ``B_j`` Hermitian.

Sequences are either finite arrays or unbounded ones given by index-array
functions: called on an integer array of indices, such a function returns
the values there (a scalar is broadcast).  Unbounded Jacobi parameters
carry a declared deviation bound.  Every downstream statistic asks for an
explicit window length, so an unbounded sequence is never materialized
beyond the largest window requested.  Every window is read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: an index-array function: integer indices -> values there, or a scalar
IndexFn = Callable[[np.ndarray], object]


class NonPositiveA(ValueError):
    """An off-diagonal coefficient a_n <= 0 was found (1-based index stored)."""

    def __init__(self, index: int, value: float):
        super().__init__(f"a_{index} = {value} must be > 0")
        self.index = index
        self.value = value


class UnboundedDeviation(ValueError):
    """sup_n(|a_n - 1| + |b_n|) exceeded a declared bound."""

    def __init__(self, index: int, value: float, bound: float):
        super().__init__(
            f"deviation |a-1|+|b| = {value} at n = {index} exceeds bound {bound}"
        )
        self.index = index
        self.value = value
        self.bound = bound


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    arr.setflags(write=False)
    return arr


class _Store:
    """The values of one coefficient sequence from index ``first`` on, as
    a frozen array.  An unbounded sequence also keeps ``extend``, an
    index-array function called on the next indices; the array grows by
    doubling.  ``check(values, index)``, with ``index`` that of
    ``values[0]``, vets the initial values and every extension."""

    def __init__(self, values: np.ndarray, first: int,
                 extend: Optional[IndexFn] = None,
                 check: Optional[Callable[[np.ndarray, int], None]] = None):
        if check is not None:
            check(values, first)
        self.values = _freeze(np.array(values))
        self.first = first
        self.extend = extend
        self.check = check

    def __len__(self) -> int:
        if self.extend is not None:
            raise TypeError("generator-backed sequence has no length")
        return len(self.values)

    def head(self, n: int) -> np.ndarray:
        """The first n values, or all of a shorter finite sequence."""
        have = len(self.values)
        if n > have and self.extend is not None:
            idx = np.arange(self.first + have, self.first + max(n, 2 * have, 64))
            new = np.broadcast_to(
                np.asarray(self.extend(idx), dtype=self.values.dtype), idx.shape)
            if self.check is not None:
                self.check(new, self.first + have)
            self.values = _freeze(np.concatenate([self.values, new]))
        return self.values[:n]

    def window(self, n: int, name: str) -> np.ndarray:
        """Exactly the first n values; ValueError past a finite end."""
        if n < 0:
            raise ValueError("window length must be >= 0")
        out = self.head(n)
        if len(out) < n:
            raise ValueError(f"requested {name}_{self.first}..{name}_"
                             f"{self.first + n - 1}, have {len(out)}")
        return out


class JacobiParams:
    """Jacobi parameters a_1, a_2, ... (> 0) and b_1, b_2, ...

    Backed either by finite arrays or by index-array functions of n >= 1
    with a declared deviation bound.  Generated values are kept, so
    repeated statistics over a ladder of N's stay cheap.
    """

    def __init__(self, a, b, bound: Optional[float] = None):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("a and b must be one-dimensional")
        if len(b) == 0:
            raise ValueError("empty coefficient sequences")
        if len(a) not in (len(b), len(b) - 1):
            raise ValueError("need len(a) == len(b) or len(b) - 1")
        self._a = _Store(a, 1)
        self._b = _Store(b, 1)
        self.declared_bound = bound

    @classmethod
    def from_functions(cls, a_fn: IndexFn, b_fn: IndexFn,
                       bound: float) -> "JacobiParams":
        """Unbounded sequence from index-array functions: each is called
        on an integer array of 1-based indices n and returns a_n (b_n)
        there, or one scalar for all of them.  ``bound`` is a declared
        bound on |a_n - 1| + |b_n|."""
        self = cls.__new__(cls)
        self._a = _Store(np.empty(0), 1, a_fn)
        self._b = _Store(np.empty(0), 1, b_fn)
        self.declared_bound = float(bound)
        return self

    @classmethod
    def free(cls, n: Optional[int] = None) -> "JacobiParams":
        """The free case a == 1, b == 0 (finite length n, or unbounded)."""
        if n is None:
            return cls.from_functions(lambda k: 1.0, lambda k: 0.0, bound=0.0)
        return cls(np.ones(n), np.zeros(n), bound=0.0)

    @property
    def is_finite(self) -> bool:
        return self._b.extend is None

    def __len__(self) -> int:
        """The number of sites N (b_1..b_N) of a finite sequence."""
        return len(self._b)

    def a_window(self, n: int) -> np.ndarray:
        """a_1..a_n as a read-only array."""
        return self._a.window(n, "a")

    def b_window(self, n: int) -> np.ndarray:
        """b_1..b_n as a read-only array."""
        return self._b.window(n, "b")


def _site_deviations(params: JacobiParams, n: int) -> np.ndarray:
    """|a_k - 1| + |b_k| for k = 1..n; just |b_N| where a finite a stops
    at N - 1."""
    a = params._a.head(n)
    dev = np.abs(params.b_window(n))
    dev[: len(a)] += np.abs(a - 1.0)
    return dev


def validate_jacobi(params: JacobiParams,
                    bound: Optional[float] = None) -> JacobiParams:
    """Check positivity of the a's and (optionally) a deviation bound.

    Finite sequences are checked in full; generator-backed ones over the
    first 1024 indices.  On success the checked params are returned
    and ``params.sup_deviation_checked`` records the windowed sup of
    |a_n - 1| + |b_n|.
    """
    n = len(params) if params.is_finite else 1024
    a = params._a.head(n)
    if np.any(a <= 0.0):
        i = int(np.argmax(a <= 0.0))
        raise NonPositiveA(i + 1, float(a[i]))
    dev = _site_deviations(params, n)
    sup = float(dev.max())
    if bound is not None and sup > bound:
        raise UnboundedDeviation(int(np.argmax(dev)) + 1, sup, bound)
    params.sup_deviation_checked = sup
    return params


def sup_deviation(params: JacobiParams, n: int) -> float:
    """max over the first n sites of |a_k - 1| + |b_k|.

    Monotone nondecreasing in n; zero exactly on a free window.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    return float(_site_deviations(params, n).max())


def rayleigh_cesaro(params: JacobiParams, n: int) -> float:
    """Quadratic form of the tridiagonal matrix on the normalized
    indicator of the first n sites: (1/n)(sum b_1..b_n + 2 sum a_1..a_{n-1}).

    Always bounded by the operator norm of the n-site truncation, which
    is how it constrains coefficient averages when the spectrum is known.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    b = params.b_window(n)
    a = params.a_window(n - 1) if n > 1 else np.empty(0)
    return (math.fsum(b) + 2.0 * math.fsum(a)) / n


def _check_alpha(alpha: np.ndarray, first: int) -> None:
    mod = np.abs(alpha)
    if np.any(mod >= 1.0):
        j = int(np.argmax(mod >= 1.0))
        raise ValueError(f"|alpha_{first + j}| = {mod[j]} must be < 1")


class VerblunskyParams:
    """Verblunsky coefficients alpha_0, alpha_1, ... with |alpha_j| < 1.

    ``rho`` is the derived sequence sqrt(1 - |alpha_j|^2) in (0, 1].
    """

    def __init__(self, alpha):
        alpha = np.asarray(alpha, dtype=complex)
        if alpha.ndim != 1:
            raise ValueError("alpha must be one-dimensional")
        self._alpha = _Store(alpha, 0, check=_check_alpha)

    @classmethod
    def from_function(cls, alpha_fn: IndexFn) -> "VerblunskyParams":
        """Unbounded sequence from an index-array function: called on an
        integer array of 0-based indices j, it returns alpha_j there, or
        one scalar for all of them.  Each new value is checked for
        |alpha_j| < 1."""
        self = cls.__new__(cls)
        self._alpha = _Store(np.empty(0, dtype=complex), 0, alpha_fn,
                             _check_alpha)
        return self

    def __len__(self) -> int:
        return len(self._alpha)

    def alpha_window(self, n: int) -> np.ndarray:
        """alpha_0..alpha_{n-1} as a read-only array."""
        return self._alpha.window(n, "alpha")

    def rho_window(self, n: int) -> np.ndarray:
        """rho_0..rho_{n-1} with rho_j^2 + |alpha_j|^2 = 1, read-only."""
        a = self.alpha_window(n)
        return _freeze(np.sqrt(1.0 - np.abs(a) ** 2))


class SingularBlock(ValueError):
    """An off-diagonal block failed the nonsingularity threshold."""

    def __init__(self, index: int, sigma_min: float, threshold: float):
        super().__init__(
            f"A_{index}: smallest singular value {sigma_min} <= {threshold}"
        )
        self.index = index


class WrongType(TypeError):
    """Operation requires a type-1 or type-3 tagged block sequence."""


@dataclass(frozen=True)
class BlockJacobiParams:
    """Block Jacobi parameters: off-diagonal blocks A_j, diagonal blocks B_j.

    ``A`` has one block fewer than ``B`` or the same count; blocks are
    ell x ell.  ``type_tag`` is one of "general", "type1" (each A_j
    positive definite), "type3" (each A_j lower triangular with positive
    diagonal).  Validation happens in :func:`validate_blocks`.
    """

    block_size: int
    A: tuple
    B: tuple
    type_tag: str = "general"

    def a_blocks(self, n: int) -> list:
        if n > len(self.A):
            raise ValueError(f"requested {n} A-blocks, have {len(self.A)}")
        return list(self.A[:n])

    def b_blocks(self, n: int) -> list:
        if n > len(self.B):
            raise ValueError(f"requested {n} B-blocks, have {len(self.B)}")
        return list(self.B[:n])


def validate_blocks(params: BlockJacobiParams) -> BlockJacobiParams:
    """Check block shapes, nonsingularity of the A's, Hermiticity of the
    B's, and the declared type tag.

    The nonsingularity threshold is 1e-12 times the spectral norm of the
    block (the theory only demands nonsingular); Hermiticity is checked
    to 1e-12 and the type structure to 1e-10, relative to the block.
    """
    singular_rtol, hermitian_tol, type_tol = 1e-12, 1e-12, 1e-10
    ell = params.block_size
    if len(params.A) not in (len(params.B), len(params.B) - 1):
        raise ValueError("need len(A) == len(B) or len(B) - 1")
    for k, blk in enumerate(params.B, start=1):
        if blk.shape != (ell, ell):
            raise ValueError(f"B_{k} has shape {blk.shape}, expected ({ell},{ell})")
        if np.max(np.abs(blk - blk.conj().T)) > hermitian_tol * max(1.0, np.max(np.abs(blk))):
            raise ValueError(f"B_{k} is not Hermitian to tolerance")
    for k, blk in enumerate(params.A, start=1):
        if blk.shape != (ell, ell):
            raise ValueError(f"A_{k} has shape {blk.shape}, expected ({ell},{ell})")
        s = np.linalg.svd(blk, compute_uv=False)
        if s[-1] <= singular_rtol * s[0]:
            raise SingularBlock(k, float(s[-1]), float(singular_rtol * s[0]))
        if params.type_tag == "type1":
            h = np.max(np.abs(blk - blk.conj().T))
            w = np.linalg.eigvalsh((blk + blk.conj().T) / 2.0)
            if h > type_tol * s[0] or w[0] <= 0.0:
                raise WrongType(f"A_{k} is not positive definite (type1 tag)")
        elif params.type_tag == "type3":
            upper = np.triu(blk, k=1)
            if np.max(np.abs(upper)) > type_tol * max(1.0, s[0]):
                raise WrongType(f"A_{k} has upper-triangular mass (type3 tag)")
            d = np.diagonal(blk)
            if np.max(np.abs(d.imag)) > type_tol or np.min(d.real) <= 0.0:
                raise WrongType(f"A_{k} diagonal not strictly positive (type3 tag)")
    return params


@dataclass(frozen=True)
class UnitaryChain:
    """Unitaries u_1 = I, u_2, u_3, ... realizing a block-parameter
    equivalence: B~_j = u_j^* B_j u_j, A~_j = u_j^* A_j u_{j+1}."""

    u: tuple

    def __post_init__(self):
        ell = self.u[0].shape[0]
        if np.max(np.abs(self.u[0] - np.eye(ell))) != 0.0:
            raise ValueError("u_1 must be the identity exactly")
        for k, m in enumerate(self.u, start=1):
            if np.max(np.abs(m.conj().T @ m - np.eye(ell))) > 1e-12:
                raise ValueError(f"u_{k} is not unitary to tolerance")

    def apply(self, params: BlockJacobiParams, type_tag: str = "general") -> BlockJacobiParams:
        """Transform block parameters by this chain (needs one unitary per
        B block plus a trailing one for the last A block)."""
        if len(self.u) < max(len(params.B), len(params.A) + 1):
            raise ValueError("chain shorter than block sequence")
        B = tuple(_freeze(self.u[j].conj().T @ params.B[j] @ self.u[j])
                  for j in range(len(params.B)))
        A = tuple(_freeze(self.u[j].conj().T @ params.A[j] @ self.u[j + 1])
                  for j in range(len(params.A)))
        return BlockJacobiParams(params.block_size, A, B, type_tag)

    def inverse(self) -> "UnitaryChain":
        return UnitaryChain(tuple(_freeze(m.conj().T) for m in self.u))
