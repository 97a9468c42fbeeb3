"""Declarative probability measures on the line, the constructive
measure -> recurrence-coefficient procedure, and the Szego map that
carries line coefficients to the circle.

The line density kinds that matter here live on [-2, 2]: the arcsine
density (4 - x^2)^{-1/2}/pi, the semicircle-type density
sqrt(4 - x^2)/(2 pi), and a flat density.  Endpoint singularities are
never integrated head on; the x = 2 cos(theta) substitution turns both
Chebyshev-type kinds into smooth integrands in theta, and composite
Gauss-Legendre does the rest.

Recurrence extraction is the Stieltjes procedure on arrays: it carries
the square-root-weighted values sqrt(w) p_n of the orthonormal
polynomials at the nodes, so every discrete inner product is one
pairwise sum (never a BLAS dot, whose result depends on the thread
count), with explicit reorthogonalization against the two preceding
polynomials.  Circle coefficients come from the line: a circle measure
symmetric under conjugation is the Szego image of a line measure under
x = 2 cos(theta), and ``szego_image`` takes its Verblunsky coefficients
from that line measure's Jacobi parameters in O(N).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from numpy.polynomial import legendre as npleg

from .sequences import JacobiParams, VerblunskyParams, _freeze, _refuse


class DensityNegative(ValueError):
    """A user-supplied density evaluated to a negative value."""

    def __init__(self, x: float, value: float):
        super().__init__(f"density({x}) = {value} < 0")
        self.x = x
        self.value = value


class BreakdownAtStep(ArithmeticError):
    """A recurrence hit a vanishing squared norm a_n^2: the measure
    behaves as if supported on fewer points than requested."""

    def __init__(self, step: int, norm2: float = 0.0):
        super().__init__(f"recurrence breakdown at step {step} (norm^2 = {norm2})")
        self.step = step
        self.norm2 = norm2


_LINE_KINDS = ("chebyshev-t", "chebyshev-u", "legendre-flat", "tabulated")


@dataclass(frozen=True)
class DensityPart:
    """One absolutely continuous piece of a measure spec.

    ``weight`` is the relative mass of the piece before global
    normalization.  ``data`` is the (xs, values) pair of a "tabulated"
    part, unused otherwise.
    """

    lo: float
    hi: float
    kind: str
    weight: float = 1.0
    data: object = None


def _check_parts(parts):
    """ValueError for an unknown kind, ends not finite with lo < hi, a
    weight not finite and > 0, or overlapping parts; a non-finite end or
    a bad weight names the first part with one."""
    spans = [(p.lo, p.hi) for p in parts]
    ends = np.array(spans, dtype=float).reshape(-1, 2)
    _refuse(~np.isfinite(ends).all(axis=1), spans, 0, "part", "finite")
    w = np.array([p.weight for p in parts], dtype=float)
    _refuse(~(w > 0.0) | np.isinf(w), w, 0, "part_weight", "> 0 and finite")
    for p in parts:
        if p.kind not in _LINE_KINDS:
            raise ValueError(f"unknown density kind {p.kind!r}")
        if not p.lo < p.hi:
            raise ValueError(f"interval [{p.lo},{p.hi}] is empty")
    spans.sort()
    for (l1, h1), (l2, h2) in zip(spans, spans[1:]):
        if l2 < h1 - 1e-12:
            raise ValueError(f"intervals [{l1},{h1}] and [{l2},{h2}] overlap")


def _normalized(parts, atoms):
    """The parts and the (location, mass) atoms, scaled to total mass 1;
    ValueError names the first atom with a non-finite location or a mass
    that is not finite and > 0."""
    x = np.array([x for x, _ in atoms], dtype=float)
    m = np.array([m for _, m in atoms], dtype=float)
    _refuse(~np.isfinite(x), x, 0, "atom", "finite")
    _refuse(~(m > 0.0) | np.isinf(m), m, 0, "atom_mass", "> 0 and finite")
    total = sum(p.weight for p in parts) + sum(m for _, m in atoms)
    if not 0.0 < total < math.inf:
        raise ValueError("measure must have positive, finite total mass")
    return (tuple(DensityPart(p.lo, p.hi, p.kind, p.weight / total, p.data)
                  for p in parts),
            tuple((float(x), m / total) for x, m in atoms))


class LineMeasureSpec:
    """Measure on the real line: a.c. pieces plus atoms, total mass 1.

    Parameters
    ----------
    parts : sequence of DensityPart
        Kinds: "chebyshev-t" ((4-x^2)^{-1/2}/pi, interval must be
        [-2,2]), "chebyshev-u" (sqrt(4-x^2)/(2 pi), interval [-2,2]),
        "legendre-flat" (constant), "tabulated" (piecewise-linear
        through the (xs, values) samples in ``data``).
    atoms : sequence of (location, mass)
        Point masses; masses must be positive.

    Relative weights (part weights, atom masses) are scaled so the total
    mass is 1.
    """

    def __init__(self, parts: Sequence[DensityPart] = (),
                 atoms: Sequence[Tuple[float, float]] = ()):
        parts = tuple(parts)
        _check_parts(parts)
        for p in parts:
            if p.kind in ("chebyshev-t", "chebyshev-u") and (p.lo, p.hi) != (-2.0, 2.0):
                raise ValueError(f"{p.kind} preset lives on [-2,2]")
        self.parts, self.atoms = _normalized(parts, atoms)

    @classmethod
    def legendre_flat(cls, lo: float = -2.0, hi: float = 2.0) -> "LineMeasureSpec":
        return cls([DensityPart(lo, hi, "legendre-flat")])


class DiscreteMeasure:
    """Finitely supported measure on the line: sorted nodes, positive
    weights, mass 1.  ValueError names the first non-finite node or
    weight, in input order.
    """

    def __init__(self, nodes, weights):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or len(nodes) == 0:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        _refuse(~np.isfinite(nodes), nodes, 0, "node", "finite")
        _refuse(~np.isfinite(weights), weights, 0, "weight", "finite")
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

    def __len__(self) -> int:
        return len(self.nodes)


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
    everything the toolkit asks of tabulated parts.  ValueError names
    the first non-finite x or value.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if xs.ndim != 1 or xs.shape != vals.shape or len(xs) < 2:
        raise ValueError("tabulated data needs matching xs, values arrays")
    _refuse(~np.isfinite(xs), xs, 0, "xs", "finite")
    _refuse(~np.isfinite(vals), vals, 0, "values", "finite")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("tabulated xs must be strictly increasing")
    neg = np.nonzero(vals < 0.0)[0]
    if len(neg):
        i = int(neg[0])
        raise DensityNegative(float(xs[i]), float(vals[i]))
    t, w = _leggauss(order)
    half = 0.5 * (xs[1:] - xs[:-1])[:, None]
    nodes = (xs[:-1, None] + half * (t + 1.0)).ravel()
    return nodes, (half * w).ravel() * np.interp(nodes, xs, vals)


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
    if part.kind == "tabulated":
        xs, vals = part.data
        return _tabulated_rule(xs, vals, min(n, 12))
    raise ValueError(part.kind)


def discretize(spec, points_per_interval: int = 200) -> DiscreteMeasure:
    """Quadrature discretization of a line measure spec.

    Each a.c. part becomes a mapped Gauss-Legendre rule carrying the
    part's share of the mass; atoms pass through verbatim.  Moments of
    polynomial-density parts are reproduced to near machine precision
    for orders below twice the point count.
    """
    if points_per_interval < 2:
        raise ValueError("points_per_interval must be >= 2")
    if not isinstance(spec, LineMeasureSpec):
        raise TypeError("expected LineMeasureSpec")
    nodes, weights = [], []
    for part in spec.parts:
        x, w = _line_part_rule(part, points_per_interval)
        raw = math.fsum(w.tolist())
        nodes.append(x)
        weights.append(w * (part.weight / raw))
    for loc, mass in spec.atoms:
        nodes.append(np.array([loc]))
        weights.append(np.array([mass]))
    return DiscreteMeasure(np.concatenate(nodes), np.concatenate(weights))


def jacobi_from_measure(m: DiscreteMeasure, N: int) -> JacobiParams:
    """First N recurrence rows of the orthonormal polynomials of m.

    Returns b_1..b_N and a_1..a_{N-1} (the data of the N-point
    truncation).  Stieltjes procedure on the vectors u_n = sqrt(w) p_n:
    each new polynomial is built from the three-term recurrence and then
    explicitly reorthogonalized against its two predecessors, and every
    inner product is a pairwise ``np.sum`` of products, so the result
    does not depend on the BLAS thread count.  On smooth densities the
    coefficients agree with a compensated-sum Stieltjes loop to 1e-14 at
    N ~ 100, and the flat density's a_n are exact to 1e-12 at N = 1000.

    Raises BreakdownAtStep(n) when the candidate a_n^2 falls below 1e-13
    times max(1, max|node|^2): the measure cannot support an n-th
    orthonormal polynomial.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    x, w = m.nodes, m.weights
    if len(x) < N:
        raise BreakdownAtStep(len(x) + 1, 0.0)
    scale = max(1.0, float(np.max(np.abs(x))) ** 2)
    u_prev = np.zeros_like(x)
    u_cur = np.sqrt(w / np.sum(w))
    a, b = np.empty(N - 1), np.empty(N)
    for n in range(N):
        xu = x * u_cur
        b[n] = np.sum(xu * u_cur)
        if n == N - 1:
            break
        q = xu - b[n] * u_cur - (a[n - 1] if n else 0.0) * u_prev
        q -= np.sum(q * u_cur) * u_cur + np.sum(q * u_prev) * u_prev
        norm2 = float(np.sum(q * q))
        if norm2 <= 1e-13 * scale:
            raise BreakdownAtStep(n + 2, norm2)
        a[n] = math.sqrt(norm2)
        u_prev, u_cur = u_cur, q / a[n]
    return JacobiParams(a, b)




def szego_image(J: JacobiParams, N: int) -> VerblunskyParams:
    """First N Verblunsky coefficients alpha_0..alpha_{N-1} of the Szego
    image of J's measure mu on [-2, 2]: the circle measure nu, symmetric
    under conjugation, with integral g(2 cos theta) d nu = integral g
    d mu.

    The coefficients are real and follow from the Geronimus relations,
    solved forward in O(N) with no quadrature (Simon, OPUC Part 2, 2005,
    Thm 13.1.7; Killip and Nenciu, IMRN 2004, for the form used here).
    In Simon's sign, with alpha_{-1} = -1, for n >= 0:

        a_{n+1}^2 = (1 - alpha_{2n-1}) (1 - alpha_{2n}^2) (1 + alpha_{2n+1})
        b_{n+1} = (1 - alpha_{2n-1}) alpha_{2n} - (1 + alpha_{2n-1}) alpha_{2n-2}

    This package's alpha_n is the negative of Simon's, from the
    recursion Phi_{n+1} = z Phi_n + alpha_n Phi_n^*, so alpha_0 = -b_1/2
    is minus the integral of z.  b_{n+1} gives alpha_{2n} and a_{n+1}
    gives alpha_{2n+1}, so exactly b_1..b_{ceil(N/2)} and
    a_1..a_{floor(N/2)} are read.  The arcsine law of [-2, 2] maps to
    the uniform measure (every alpha_n = 0), and that of [-2, 2 - 4a^2]
    to the equilibrium measure of the arc {|theta| >= 2 arcsin a}, with
    alpha_0 = a^2 and alpha_n -> a.

    A measure with mass outside [-2, 2] has no Szego image: ValueError
    names the first coefficient outside the open unit disc, and none
    past it is computed.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    b = J.b_window((N + 1) // 2).tolist()
    a = J.a_window(N // 2).tolist()
    alpha = []
    # alpha_{-1} = 1 in this sign; alpha_{-2} enters with weight 1 - alpha_{-1} = 0
    odd, even = 1.0, 0.0
    for n, bn in enumerate(b):
        even = ((1.0 - odd) * even - bn) / (1.0 + odd)
        alpha.append(even)
        if not abs(even) < 1.0 or n == len(a):
            break
        odd = 1.0 - a[n] * a[n] / ((1.0 + odd) * (1.0 - even * even))
        alpha.append(odd)
        if not abs(odd) < 1.0:
            break
    return VerblunskyParams(alpha)
