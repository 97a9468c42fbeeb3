"""Equilibrium measures, capacities, and weak-convergence distances.

Three supported geometries:

* a single interval [c - 2r, c + 2r], whose equilibrium measure is the
  arcsine law (pushforward of d theta / pi under c + 2r cos theta) and
  whose capacity is r;
* the circular arc of points e^{i theta} with pi >= |theta| > 2 arcsin(a),
  handled by pulling the arcsine law of the interval [-2, 2 - 4a^2]
  back through x = 2 cos theta onto each half of the arc;
* band sets of a periodic recurrence, where the density is
  |D'(x)| / (p pi sqrt(4 - D(x)^2)) for the degree-p discriminant D.

None of the densities is ever integrated against its inverse-square-root
endpoint singularities directly: every band is reparametrized by
x = mid + half * cos(phi), which turns the quadrature into a smooth one.

Capacity of the arc: the value sqrt(1 - a^2) used here is the one
consistent with the root test, since the constant-coefficient model of
the arc has rho_j = sqrt(1 - a^2) identically and root-test limits equal
capacities for regular systems.  It also matches the classical formula
sin(L/2) for an arc of angular length 2L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .measures import _gl_nodes, _leggauss
from .spectra import EmpiricalMeasure


class BandMismatch(ValueError):
    """Discriminant band set disagrees with the requested set."""


class Unsupported(ValueError):
    """Requested quantity is outside the implemented geometry classes."""


class DomainMismatch(TypeError):
    """Line and circle objects mixed in one comparison."""


@dataclass(frozen=True)
class FiniteGapSet:
    """Union of disjoint closed intervals (bands), strictly ordered.

    ``period_a`` optionally records the off-diagonal pattern of a
    periodic generator whose essential spectrum this set is; capacity is
    only defined here when that pattern is known.
    """

    bands: Tuple[Tuple[float, float], ...]
    period_a: Optional[Tuple[float, ...]] = None

    def __post_init__(self):
        if len(self.bands) == 0:
            raise ValueError("at least one band required")
        flat = [x for band in self.bands for x in band]
        if any(flat[i] >= flat[i + 1] for i in range(len(flat) - 1)):
            raise ValueError("band endpoints must be strictly increasing")

    @property
    def n_bands(self) -> int:
        return len(self.bands)

    def close_to(self, other: "FiniteGapSet", tol: float = 1e-9) -> bool:
        if self.n_bands != other.n_bands:
            return False
        return all(abs(a - c) <= tol and abs(b - d) <= tol
                   for (a, b), (c, d) in zip(self.bands, other.bands))


@dataclass(frozen=True)
class CircleArcSet:
    """The arc {e^{i theta} : pi >= |theta| > 2 arcsin(a)}, a in (0,1):
    the unit circle with a symmetric gap around z = 1."""

    a: float

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise ValueError("arc parameter must lie in (0, 1)")

    @property
    def gap_angle(self) -> float:
        """Half-width of the missing angular sector around theta = 0."""
        return 2.0 * math.asin(self.a)


def _fold_gl(n: int):
    """Gauss-Legendre rule on (0, pi/2) for the folded substitution
    integral (1/pi) int_0^pi f(cos phi) d phi
    = (1/pi) int_0^{pi/2} [f(cos phi) + f(-cos phi)] d phi."""
    t, w = _leggauss(n)
    quarter = math.pi / 4.0
    return quarter * (t + 1.0) + 0.0, w * quarter / math.pi


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x**k by repeated multiplication, which is odd-symmetric in x
    exactly (array ``**`` need not be: numpy's vectorized float power can
    give (-x)**3 != -(x**3) in the last bit)."""
    out = np.ones_like(x)
    for _ in range(k):
        out = out * x
    return out


class EquilibriumMeasure:
    """Equilibrium (minimal logarithmic energy) measure of a supported
    geometry, with moment and quantile evaluation.

    Construct through :func:`equilibrium_measure`.  ``domain`` is "line"
    for interval and band sets, "circle" for arcs (moments are then
    complex, quantiles are angles).
    """

    def __init__(self, tag: str, payload, order: int = 64):
        self.tag = tag
        self.order = order
        if tag == "interval":
            self.lo, self.hi = payload
            self.domain = "line"
        elif tag == "arc":
            self.arc = payload
            self.domain = "circle"
            a = self.arc.a
            # arcsine interval the arc pulls back to under x = 2 cos theta
            self._lo, self._hi = -2.0, 2.0 - 4.0 * a * a
        elif tag == "periodic":
            self.set, self.disc = payload
            self.domain = "line"
            if self.set.n_bands != self.disc.p:
                raise Unsupported(
                    "periodic equilibrium form needs all gaps open "
                    f"({self.set.n_bands} bands for period {self.disc.p})"
                )
            masses = self.band_masses()
            total = math.fsum(masses)
            if abs(total - 1.0) > 1e-10:
                raise ArithmeticError(
                    f"pullback mass {total} not 1; inconsistent discriminant"
                )
        else:
            raise ValueError(f"unknown tag {tag!r}")

    # -- densities ---------------------------------------------------

    def density(self, x):
        """Density at interior points of the support (d theta for arcs)."""
        x = np.asarray(x, dtype=float)
        if self.tag == "interval":
            return 1.0 / (math.pi * np.sqrt((x - self.lo) * (self.hi - x)))
        if self.tag == "arc":
            a = self.arc.a
            s = np.sin(np.abs(x) / 2.0)
            return s / (2.0 * math.pi * np.sqrt(s * s - a * a))
        d = self.disc.value(x)
        return np.abs(self.disc.derivative(x)) / (
            self.disc.p * math.pi * np.sqrt(4.0 - d * d)
        )

    def density_samples(self, n: int = 200) -> np.ndarray:
        """(x, density) rows sampled strictly inside the support; for
        arcs the first column is the angle."""
        rows = []
        if self.tag == "interval":
            spans = [(self.lo, self.hi)]
        elif self.tag == "periodic":
            spans = list(self.set.bands)
        else:
            g = self.arc.gap_angle
            spans = [(-math.pi, -g), (g, math.pi)]
        for lo, hi in spans:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            phi = np.linspace(0.0, math.pi, n // len(spans) + 2)[1:-1]
            x = mid + half * np.cos(phi)[::-1]
            rows.append(np.column_stack([x, self.density(x)]))
        return np.vstack(rows)

    # -- moments -----------------------------------------------------

    def moment(self, k: int):
        """k-th power moment; complex (trigonometric, int z^k) on the
        circle.  Odd moments of symmetric line geometries cancel
        pairwise to an exact 0.0."""
        if not 0 <= k <= 8:
            raise ValueError("moments implemented for 0 <= k <= 8")
        if self.tag == "interval":
            c = 0.5 * (self.lo + self.hi)
            h = 0.5 * (self.hi - self.lo)
            phi, w = _fold_gl(self.order)
            t = h * np.cos(phi)
            vals = w * (_power(c + t, k) + _power(c - t, k))
            return math.fsum(vals.tolist())
        if self.tag == "arc":
            # int z^k d rho = int T_k(x/2) d nu over the pullback
            # interval; conjugation symmetry kills the imaginary part.
            c = 0.5 * (self._lo + self._hi)
            h = 0.5 * (self._hi - self._lo)
            phi, w = _gl_nodes(0.0, math.pi, self.order)
            x = c + h * np.cos(phi)
            vals = (w / math.pi) * np.cos(k * np.arccos(np.clip(x / 2.0, -1.0, 1.0)))
            return complex(math.fsum(vals.tolist()), 0.0)
        total = []
        for lo, hi in self.set.bands:
            x, w = self._band_rule(lo, hi)
            total.extend((w * x ** k).tolist())
        return math.fsum(total)

    def _band_rule(self, lo: float, hi: float):
        """Smooth quadrature for one band of a periodic set.

        Writes 4 - D(x)^2 = (x - lo)(hi - x) S(x) with S positive on the
        band (a product over the other band edges), so the substituted
        integrand |D'| / (p pi sqrt(S)) has no endpoint singularity.
        An even node count keeps nodes off possible interior zeros of S
        (which are removable but evaluate 0/0).
        """
        edges = [e for band in self.set.bands for e in band]
        others = [e for e in edges if e not in (lo, hi)]
        lc = self.disc.leading
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        n = self.order + (self.order % 2)
        phi, w = _gl_nodes(0.0, math.pi, n)
        x = mid + half * np.cos(phi)
        s = np.full_like(x, lc * lc)
        for e in others:
            s = s * (x - e)
        dens = np.abs(self.disc.derivative(x)) / (self.disc.p * math.pi * np.sqrt(s))
        return x, w * dens

    def band_masses(self) -> list:
        """Quadrature mass of each band (periodic tag only); the theory
        says each equals 1/p."""
        if self.tag != "periodic":
            raise Unsupported("band masses defined for periodic sets")
        out = []
        for lo, hi in self.set.bands:
            _, w = self._band_rule(lo, hi)
            out.append(math.fsum(w.tolist()))
        return out

    # -- quantiles ---------------------------------------------------

    def quantiles(self, us: np.ndarray) -> np.ndarray:
        """Quantile function on a vector of levels in (0, 1).

        Line geometries return points; the arc returns angles lifted to
        (0, 2 pi) (cut at the gap around angle 0), matching the lift
        used by :func:`w1_distance`.
        """
        us = np.asarray(us, dtype=float)
        if self.tag == "interval":
            c = 0.5 * (self.lo + self.hi)
            h = 0.5 * (self.hi - self.lo)
            return c - h * np.cos(math.pi * us)
        if self.tag == "arc":
            c = 0.5 * (self._lo + self._hi)
            h = 0.5 * (self._hi - self._lo)
            out = np.empty_like(us)
            left = us <= 0.5
            xq = c - h * np.cos(math.pi * (1.0 - 2.0 * us[left]))
            out[left] = np.arccos(np.clip(xq / 2.0, -1.0, 1.0))
            xq = c - h * np.cos(math.pi * (2.0 * us[~left] - 1.0))
            out[~left] = 2.0 * math.pi - np.arccos(np.clip(xq / 2.0, -1.0, 1.0))
            return out
        return self._periodic_quantiles(us)

    def _periodic_quantiles(self, us: np.ndarray) -> np.ndarray:
        """Invert arcsin(D(x)/2) band by band; D is strictly monotone on
        each band, so a bracketed root find per level suffices."""
        p = self.disc.p
        out = np.empty_like(us)
        rising = [self.disc.value(hi) > 0.0 for lo, hi in self.set.bands]
        for i, u in enumerate(us.ravel()):
            j = min(int(u * p), p - 1)
            v = min(max(u * p - j, 1e-12), 1.0 - 1e-12)
            lo, hi = self.set.bands[j]
            target = -2.0 * math.cos(math.pi * v)
            if not rising[j]:
                target = -target
            f = lambda x: self.disc.value(x) - target
            flo, fhi = f(lo), f(hi)
            if flo == 0.0 or flo * fhi > 0.0:
                out.flat[i] = lo if abs(flo) < abs(fhi) else hi
            else:
                out.flat[i] = brentq(f, lo, hi, xtol=1e-13)
        return out


def equilibrium_measure(target, discriminant=None, order: int = 64) -> EquilibriumMeasure:
    """Equilibrium measure of an interval, an arc, or a periodic band set.

    ``target`` may be an (lo, hi) pair, a one-band FiniteGapSet (both
    give the arcsine law), a CircleArcSet, or a multi-band FiniteGapSet
    together with the discriminant of its periodic generator.  The band
    set computed from the discriminant must agree with ``target`` to
    1e-9, else BandMismatch.
    """
    if isinstance(target, CircleArcSet):
        return EquilibriumMeasure("arc", target, order)
    if isinstance(target, tuple) and len(target) == 2 and np.isscalar(target[0]):
        lo, hi = float(target[0]), float(target[1])
        if not lo < hi:
            raise ValueError("empty interval")
        return EquilibriumMeasure("interval", (lo, hi), order)
    if isinstance(target, FiniteGapSet):
        if discriminant is None:
            if target.n_bands == 1:
                return EquilibriumMeasure("interval", target.bands[0], order)
            raise Unsupported(
                "multi-band sets need the discriminant of a periodic generator"
            )
        own = discriminant.bands()
        if not target.close_to(own, 1e-9):
            raise BandMismatch(
                f"discriminant bands {own.bands} vs requested {target.bands}"
            )
        return EquilibriumMeasure("periodic", (target, discriminant), order)
    raise TypeError("unrecognized target for equilibrium_measure")


def capacity(target) -> float:
    """Logarithmic capacity: (hi-lo)/4 for an interval, sqrt(1-a^2) for
    the arc with gap parameter a, geometric mean of the generator's
    off-diagonal pattern for a periodic band set."""
    if isinstance(target, CircleArcSet):
        return math.sqrt(1.0 - target.a ** 2)
    if isinstance(target, tuple) and len(target) == 2 and np.isscalar(target[0]):
        return (float(target[1]) - float(target[0])) / 4.0
    if isinstance(target, FiniteGapSet):
        if target.period_a is not None:
            logs = [math.log(a) for a in target.period_a]
            return math.exp(math.fsum(logs) / len(logs))
        if target.n_bands == 1:
            lo, hi = target.bands[0]
            return (hi - lo) / 4.0
        raise Unsupported("capacity of a band set needs its periodic generator")
    raise TypeError("unrecognized target for capacity")


def eq_moment(m: EquilibriumMeasure, k: int):
    """k-th moment of an equilibrium measure (complex on the circle)."""
    return m.moment(k)


def w1_distance(emp: EmpiricalMeasure, ref: EquilibriumMeasure) -> float:
    """Order-1 Wasserstein distance, empirical sample versus reference,
    by quantile matching on a grid of 10 N midpoint levels.

    Circle samples are lifted to (0, 2 pi) by cutting at angle 0 before
    matching; the circle geometries here keep their mass away from that
    cut, so the lift is metrically faithful.
    """
    if emp.domain != ref.domain:
        raise DomainMismatch(f"{emp.domain} sample vs {ref.domain} reference")
    n = len(emp)
    grid = 10 * n
    us = (np.arange(grid) + 0.5) / grid
    if emp.domain == "circle":
        pts = np.sort(np.mod(emp.points, 2.0 * math.pi))
    else:
        pts = emp.points
    emp_q = pts[np.minimum((us * n).astype(int), n - 1)]
    ref_q = ref.quantiles(us)
    return float(np.mean(np.abs(emp_q - ref_q)))
