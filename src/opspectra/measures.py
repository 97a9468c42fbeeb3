"""Declarative probability measures on the line and the unit circle, and
the constructive measure -> recurrence-coefficient procedures.

The line presets that matter here live on [-2, 2]: the arcsine density
(4 - x^2)^{-1/2}/pi, the semicircle-type density sqrt(4 - x^2)/(2 pi),
and a flat density.  Endpoint singularities are never integrated head
on; the x = 2 cos(theta) substitution turns both Chebyshev-type presets
into smooth integrands in theta, and composite Gauss-Legendre does the
rest.

Recurrence extraction is the Stieltjes procedure (discrete inner
products, explicit reorthogonalization against the two preceding
polynomials, compensated sums).  On the circle the route goes through
trigonometric moments and the monic recursion in coefficient space.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.linalg import eigh_tridiagonal

from .sequences import JacobiParams, VerblunskyParams, _freeze


class DensityNegative(ValueError):
    """A user-supplied density evaluated to a negative value."""

    def __init__(self, x: float, value: float):
        super().__init__(f"density({x}) = {value} < 0")
        self.x = x
        self.value = value


class BreakdownAtStep(ArithmeticError):
    """Stieltjes recursion hit a nonpositive candidate a_n^2: the measure
    behaves as if supported on fewer points than requested."""

    def __init__(self, step: int, norm2: float = 0.0):
        super().__init__(f"recurrence breakdown at step {step} (norm^2 = {norm2})")
        self.step = step
        self.norm2 = norm2


class MomentIllConditioned(ArithmeticError):
    """Toeplitz moment problem lost positivity at the given order."""

    def __init__(self, order: int, value: float):
        super().__init__(
            f"moment determinant ratio {value} at order {order} below threshold"
        )
        self.order = order
        self.value = value


_LINE_KINDS = ("chebyshev-t", "chebyshev-u", "legendre-flat",
               "angle-pushforward", "tabulated")
_CIRCLE_KINDS = ("uniform", "tabulated")


@dataclass(frozen=True)
class DensityPart:
    """One absolutely continuous piece of a measure spec.

    ``weight`` is the relative mass of the piece before global
    normalization.  ``data`` depends on the kind: a callable g(theta)
    for "angle-pushforward", an (xs, values) pair for "tabulated",
    unused otherwise.
    """

    lo: float
    hi: float
    kind: str
    weight: float = 1.0
    data: object = None


def _check_parts(parts, kinds, lo_min, hi_max):
    if any(p.kind not in kinds for p in parts):
        bad = next(p.kind for p in parts if p.kind not in kinds)
        raise ValueError(f"unknown density kind {bad!r}")
    for p in parts:
        if not (lo_min - 1e-12 <= p.lo < p.hi <= hi_max + 1e-12):
            raise ValueError(f"interval [{p.lo},{p.hi}] out of range or empty")
        if p.weight <= 0:
            raise ValueError("part weight must be positive")
    spans = sorted((p.lo, p.hi) for p in parts)
    for (l1, h1), (l2, h2) in zip(spans, spans[1:]):
        if l2 < h1 - 1e-12:
            raise ValueError(f"intervals [{l1},{h1}] and [{l2},{h2}] overlap")


class LineMeasureSpec:
    """Measure on the real line: a.c. pieces plus atoms, total mass 1.

    Parameters
    ----------
    parts : sequence of DensityPart
        Kinds: "chebyshev-t" ((4-x^2)^{-1/2}/pi, interval must be
        [-2,2]), "chebyshev-u" (sqrt(4-x^2)/(2 pi), interval [-2,2]),
        "legendre-flat" (constant), "angle-pushforward" (density
        g(theta) d theta on theta in [0, pi] pushed through
        x = 2 cos theta; ``data`` is the callable g), "tabulated"
        (piecewise-linear through the (xs, values) samples in ``data``).
    atoms : sequence of (location, mass)
        Point masses; masses must be positive.

    Relative weights (part weights, atom masses) are scaled so the total
    mass is 1.
    """

    def __init__(self, parts: Sequence[DensityPart] = (),
                 atoms: Sequence[Tuple[float, float]] = ()):
        parts = tuple(parts)
        _check_parts(parts, _LINE_KINDS, -np.inf, np.inf)
        for p in parts:
            if p.kind in ("chebyshev-t", "chebyshev-u") and (p.lo, p.hi) != (-2.0, 2.0):
                raise ValueError(f"{p.kind} preset lives on [-2,2]")
        if any(mass <= 0 for _, mass in atoms):
            raise ValueError("atom masses must be positive")
        total = sum(p.weight for p in parts) + sum(m for _, m in atoms)
        if total <= 0:
            raise ValueError("measure must have positive total mass")
        self.parts = tuple(
            DensityPart(p.lo, p.hi, p.kind, p.weight / total, p.data) for p in parts
        )
        self.atoms = tuple((float(x), m / total) for x, m in atoms)

    @classmethod
    def chebyshev_t(cls) -> "LineMeasureSpec":
        return cls([DensityPart(-2.0, 2.0, "chebyshev-t")])

    @classmethod
    def chebyshev_u(cls) -> "LineMeasureSpec":
        return cls([DensityPart(-2.0, 2.0, "chebyshev-u")])

    @classmethod
    def legendre_flat(cls, lo: float = -2.0, hi: float = 2.0) -> "LineMeasureSpec":
        return cls([DensityPart(lo, hi, "legendre-flat")])


class CircleMeasureSpec:
    """Measure on the unit circle: densities w(theta) d theta / (2 pi) on
    angle intervals inside [-pi, pi], plus atoms at angles.

    Kinds: "uniform" (w constant on the interval) and "tabulated"
    (piecewise-linear w through ``data`` = (thetas, values)).
    """

    def __init__(self, parts: Sequence[DensityPart] = (),
                 atoms: Sequence[Tuple[float, float]] = ()):
        parts = tuple(parts)
        _check_parts(parts, _CIRCLE_KINDS, -math.pi, math.pi)
        if any(mass <= 0 for _, mass in atoms):
            raise ValueError("atom masses must be positive")
        for th, _ in atoms:
            if not -math.pi <= th <= math.pi:
                raise ValueError("atom angle outside [-pi, pi]")
        total = sum(p.weight for p in parts) + sum(m for _, m in atoms)
        if total <= 0:
            raise ValueError("measure must have positive total mass")
        self.parts = tuple(
            DensityPart(p.lo, p.hi, p.kind, p.weight / total, p.data) for p in parts
        )
        self.atoms = tuple((float(th), m / total) for th, m in atoms)

    @classmethod
    def uniform(cls) -> "CircleMeasureSpec":
        """Normalized Lebesgue measure d theta / (2 pi)."""
        return cls([DensityPart(-math.pi, math.pi, "uniform")])


class DiscreteMeasure:
    """Finitely supported measure: sorted nodes, positive weights, mass 1.

    ``domain`` is "line" (nodes are reals) or "circle" (nodes are angles
    in [-pi, pi)).
    """

    def __init__(self, nodes, weights, domain: str = "line"):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if domain not in ("line", "circle"):
            raise ValueError("domain must be 'line' or 'circle'")
        if nodes.shape != weights.shape or nodes.ndim != 1 or len(nodes) == 0:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        order = np.argsort(nodes, kind="stable")
        nodes, weights = nodes[order], weights[order]
        # merge exactly coincident nodes (atom placed on a quadrature node)
        keep = np.concatenate([[True], np.diff(nodes) > 0.0])
        if not keep.all():
            idx = np.cumsum(keep) - 1
            merged = np.zeros(int(keep.sum()))
            np.add.at(merged, idx, weights)
            nodes, weights = nodes[keep], merged
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        s = math.fsum(weights.tolist())
        if abs(s - 1.0) > 1e-12:
            weights = weights / s
        self.nodes = _freeze(nodes)
        self.weights = _freeze(weights)
        self.domain = domain

    def __len__(self) -> int:
        return len(self.nodes)

    def moment(self, k: int) -> float:
        """Power moment (line) with compensated summation."""
        return math.fsum((self.weights * self.nodes ** k).tolist())

    def trig_moment(self, k: int) -> complex:
        """c_k = integral of e^{-i k theta}; nodes are angles."""
        vals = self.weights * np.exp(-1j * k * self.nodes)
        return complex(math.fsum(vals.real.tolist()),
                       math.fsum(vals.imag.tolist()))


@functools.lru_cache(maxsize=None)
def _leggauss(n: int):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1];
    cached, since the toolkit asks for a handful of orders many times."""
    t, w = npleg.leggauss(n)
    return _freeze(t), _freeze(w)


def _gl_nodes(lo: float, hi: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    t, w = _leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (t + 1.0), half * w


def _tabulated_rule(xs, vals, order: int):
    """Per-segment Gauss rule against a piecewise-linear density.

    Exact for polynomial moments up to degree 2*order - 2, which covers
    everything the toolkit asks of tabulated parts.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if xs.ndim != 1 or xs.shape != vals.shape or len(xs) < 2:
        raise ValueError("tabulated data needs matching xs, values arrays")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("tabulated xs must be strictly increasing")
    neg = np.nonzero(vals < 0.0)[0]
    if len(neg):
        i = int(neg[0])
        raise DensityNegative(float(xs[i]), float(vals[i]))
    nodes, weights = [], []
    for i in range(len(xs) - 1):
        t, w = _gl_nodes(xs[i], xs[i + 1], order)
        dens = np.interp(t, xs, vals)
        nodes.append(t)
        weights.append(w * dens)
    return np.concatenate(nodes), np.concatenate(weights)


def _line_part_rule(part: DensityPart, n: int):
    if part.kind == "chebyshev-t":
        # d mu = f(2 cos theta) d theta / pi, theta in (0, pi)
        th, w = _gl_nodes(0.0, math.pi, n)
        return 2.0 * np.cos(th), w / math.pi
    if part.kind == "chebyshev-u":
        th, w = _gl_nodes(0.0, math.pi, n)
        return 2.0 * np.cos(th), w * (2.0 / math.pi) * np.sin(th) ** 2
    if part.kind == "legendre-flat":
        x, w = _gl_nodes(part.lo, part.hi, n)
        return x, w / (part.hi - part.lo)
    if part.kind == "angle-pushforward":
        g = part.data
        th_lo = math.acos(min(1.0, max(-1.0, part.hi / 2.0)))
        th_hi = math.acos(min(1.0, max(-1.0, part.lo / 2.0)))
        th, w = _gl_nodes(th_lo, th_hi, n)
        dens = np.asarray([float(g(t)) for t in th])
        neg = np.nonzero(dens < 0.0)[0]
        if len(neg):
            i = int(neg[0])
            raise DensityNegative(2.0 * math.cos(th[i]), float(dens[i]))
        return 2.0 * np.cos(th), w * dens
    if part.kind == "tabulated":
        xs, vals = part.data
        return _tabulated_rule(xs, vals, min(n, 12))
    raise ValueError(part.kind)


def _circle_part_rule(part: DensityPart, n: int):
    if part.kind == "uniform":
        th, w = _gl_nodes(part.lo, part.hi, n)
        return th, w / (part.hi - part.lo)
    if part.kind == "tabulated":
        ths, vals = part.data
        return _tabulated_rule(ths, vals, min(n, 12))
    raise ValueError(part.kind)


def discretize(spec, points_per_interval: int = 200) -> DiscreteMeasure:
    """Quadrature discretization of a measure spec.

    Each a.c. part becomes a mapped Gauss-Legendre rule carrying the
    part's share of the mass; atoms pass through verbatim.  Moments of
    polynomial-density parts are reproduced to near machine precision
    for orders below twice the point count.
    """
    if points_per_interval < 2:
        raise ValueError("points_per_interval must be >= 2")
    if isinstance(spec, LineMeasureSpec):
        rule, domain = _line_part_rule, "line"
    elif isinstance(spec, CircleMeasureSpec):
        rule, domain = _circle_part_rule, "circle"
    else:
        raise TypeError("expected LineMeasureSpec or CircleMeasureSpec")
    nodes, weights = [], []
    for part in spec.parts:
        x, w = rule(part, points_per_interval)
        raw = math.fsum(w.tolist())
        nodes.append(x)
        weights.append(w * (part.weight / raw))
    for loc, mass in spec.atoms:
        nodes.append(np.array([loc]))
        weights.append(np.array([mass]))
    return DiscreteMeasure(np.concatenate(nodes), np.concatenate(weights), domain)


def _dot(w: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Compensated discrete inner product sum w*u*v."""
    return math.fsum((w * u * v).tolist())


def jacobi_from_measure(m: DiscreteMeasure, N: int) -> JacobiParams:
    """First N recurrence rows of the orthonormal polynomials of m.

    Returns b_1..b_N and a_1..a_{N-1} (the data of the N-point
    truncation).  Stieltjes procedure: at each step the new polynomial
    is built from the three-term recurrence and then explicitly
    reorthogonalized against its two predecessors in the discrete inner
    product; sums are compensated, which keeps coefficient error near
    1e-12 out to N ~ 60 on smooth densities.

    Raises BreakdownAtStep(n) when the candidate a_n^2 falls below 1e-13
    times max(1, max|node|^2): the measure cannot support an n-th
    orthonormal polynomial.
    """
    if m.domain != "line":
        raise ValueError("jacobi_from_measure needs a line measure")
    if N < 1:
        raise ValueError("N >= 1 required")
    x, w = m.nodes, m.weights
    if len(x) < N:
        raise BreakdownAtStep(len(x) + 1, 0.0)
    scale = max(1.0, float(np.max(np.abs(x))) ** 2)
    p_prev = np.zeros_like(x)
    p_cur = np.full_like(x, 1.0 / math.sqrt(math.fsum(w.tolist())))
    a_list, b_list = [], []
    a_prev = 0.0
    for n in range(1, N + 1):
        xp = x * p_cur
        bn = _dot(w, xp, p_cur)
        b_list.append(bn)
        if n == N:
            break
        q = xp - bn * p_cur - a_prev * p_prev
        q -= _dot(w, q, p_cur) * p_cur + _dot(w, q, p_prev) * p_prev
        norm2 = _dot(w, q, q)
        if norm2 <= 1e-13 * scale:
            raise BreakdownAtStep(n + 1, norm2)
        an = math.sqrt(norm2)
        a_list.append(an)
        p_prev, p_cur, a_prev = p_cur, q / an, an
    return JacobiParams(np.array(a_list), np.array(b_list))


def gauss_rule(params: JacobiParams, N: int) -> DiscreteMeasure:
    """Gauss quadrature of the measure behind the given recurrence data.

    Nodes are the eigenvalues of the N-point truncation, weights the
    squared first components of the normalized eigenvectors.  Used as
    the moment-fidelity oracle for round trips through
    jacobi_from_measure.
    """
    b = params.b_window(N)
    a = params.a_window(N - 1) if N > 1 else np.empty(0)
    vals, vecs = eigh_tridiagonal(b, a)
    w = vecs[0, :] ** 2
    return DiscreteMeasure(vals, w / w.sum(), "line")


def trig_moments(spec: CircleMeasureSpec, K: int) -> np.ndarray:
    """c_0..c_K with c_k = integral of e^{-i k theta} d mu.

    Uniform parts use the closed-form interval integral; tabulated parts
    and atoms go through the discretization, with 400 points per
    interval.
    """
    c = np.zeros(K + 1, dtype=complex)
    for part in spec.parts:
        if part.kind == "uniform":
            c[0] += part.weight
            ks = np.arange(1, K + 1)
            c[1:] += part.weight * (
                np.exp(-1j * ks * part.hi) - np.exp(-1j * ks * part.lo)
            ) / (-1j * ks * (part.hi - part.lo))
        else:
            sub = CircleMeasureSpec([DensityPart(part.lo, part.hi, part.kind,
                                                 1.0, part.data)])
            d = discretize(sub, 400)
            for k in range(K + 1):
                c[k] += part.weight * d.trig_moment(k)
    for th, mass in spec.atoms:
        c += mass * np.exp(-1j * np.arange(K + 1) * th)
    return c


def verblunsky_from_moments(c: np.ndarray, N: int) -> VerblunskyParams:
    """Recurrence coefficients from trigonometric moments c_0..c_N.

    Runs the monic recursion Phi_{n+1}(z) = z Phi_n(z) + alpha_n
    Phi_n^*(z) in coefficient space (the sign convention used throughout
    this package: the constant sequence alpha_j = a > 0 is then the
    measure on the symmetric arc around z = 1 with no mass point in the
    gap); the coefficient at each step is the unique value making
    Phi_{n+1} orthogonal to 1, with both inner products taken against
    the moment functional.  The running squared norm of Phi_n equals the
    ratio of consecutive Toeplitz determinants, so positivity of the
    moment problem is monitored for free; when it drops to 1e-13 the
    recursion stops with MomentIllConditioned.
    """
    c = np.asarray(c, dtype=complex)
    if len(c) < N + 1:
        raise ValueError(f"need moments c_0..c_{N}, got {len(c)}")
    if abs(c[0] - 1.0) > 1e-9:
        raise ValueError("c_0 must be 1 (probability measure)")
    # m[k] = integral of z^k for k = -N..N, stored with offset N
    m = np.empty(2 * N + 1, dtype=complex)
    m[N:] = np.conj(c[: N + 1])
    m[:N] = c[1 : N + 1][::-1]

    def pair(pc: np.ndarray, qc: np.ndarray) -> complex:
        # <P, Q> = sum_j sum_k p_j conj(q_k) m[j - k]
        acc = 0.0 + 0.0j
        for j, pj in enumerate(pc):
            if pj == 0.0:
                continue
            acc += pj * np.sum(np.conj(qc) * m[N + j - len(qc) + 1 : N + j + 1][::-1])
        return acc

    phi = np.array([1.0 + 0.0j])  # monic Phi_0
    alphas = []
    for n in range(N):
        norm2 = pair(phi, phi)
        if norm2.real <= 1e-13 or abs(norm2.imag) > 1e-9 * abs(norm2):
            raise MomentIllConditioned(n, float(norm2.real))
        star = np.conj(phi[::-1])
        zphi = np.concatenate([[0.0], phi])
        one = np.array([1.0 + 0.0j])
        denom = pair(star, one)
        alpha = -pair(zphi, one) / denom
        if abs(alpha) >= 1.0:
            raise MomentIllConditioned(n, 1.0 - abs(alpha) ** 2)
        phi = zphi + alpha * np.concatenate([star, [0.0]])
        alphas.append(alpha)
    return VerblunskyParams(np.array(alphas, dtype=complex))


def verblunsky_from_measure(spec: CircleMeasureSpec, N: int) -> VerblunskyParams:
    """First N recurrence coefficients of a circle measure, via its
    trigonometric moments."""
    c = trig_moments(spec, N)
    return verblunsky_from_moments(c, N)
