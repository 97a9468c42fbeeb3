"""Equilibrium measures, capacities, and weak-convergence distances.

Three supported geometries:

* a single interval [c - 2r, c + 2r], whose equilibrium measure is the
  arcsine law (pushforward of d theta / pi under c + 2r cos theta) and
  whose capacity is r;
* the circular arc of points e^{i theta} with pi >= |theta| > 2 arcsin(a),
  handled by pulling the arcsine law of the interval [-2, 2 - 4a^2]
  back through x = 2 cos theta onto each half of the arc;
* band sets of a periodic recurrence, each carrying its period-p
  generator, where the density is |D'(x)| / (p pi sqrt(4 - D(x)^2)) for
  the discriminant D of that generator, with D and D' from the one
  transfer recursion of ``periodic`` (which also gives the block map)
  run on Jordan blocks.

The periodic equilibrium measure is the density of states of the
generator: the mean over kappa of the eigenvalue counting measure of its
one-period Floquet matrix J(e^{i kappa}), divided by p.  Each band j
carries the j-th eigenvalue, monotone in kappa on [0, pi], so band j
holds mass 1/p and its quantiles are eigenvalues at one kappa each;
closed gaps need no special case.

No density is ever integrated against its inverse-square-root endpoint
singularities.  Every moment is an equal-weight mean over equispaced
midpoint angles in (0, pi) of a cosine polynomial: (c + h cos phi)^k on
an interval (folded, so odd moments of a symmetric interval cancel
exactly), T_k(x / 2) at x = c + h cos phi on the arc, and tr J(kappa)^k
/ p on a band set.  Each has degree at most k, and the mean of _ANGLES
midpoints is exact below degree 2 _ANGLES.

Capacity of the arc: the value sqrt(1 - a^2) used here is the one
consistent with the root test, since the constant-coefficient model of
the arc has rho_j = sqrt(1 - a^2) identically and root-test limits equal
capacities for regular systems.  It also matches the classical formula
sin(L/2) for an arc of angular length 2L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .spectra import EmpiricalMeasure

#: midpoint angles in (0, pi) of every moment rule (even, so the
#: interval rule folds them in pairs); exact for every k <= 8
_ANGLES = 8
_PHI = (np.arange(_ANGLES) + 0.5) * (math.pi / _ANGLES)


class Unsupported(ValueError):
    """Requested quantity is outside the implemented geometry classes."""


class DomainMismatch(TypeError):
    """Line and circle objects mixed in one comparison."""


@dataclass(frozen=True)
class FiniteGapSet:
    """Union of disjoint closed intervals (bands), strictly ordered.

    ``generator`` optionally records the periodic generator (a
    periodic.PeriodicJacobi, as ``periodic.bands`` attaches it) whose
    essential spectrum this set is.  The capacity and the equilibrium
    measure of a set with more than one band are only defined here
    through it.
    """

    bands: Tuple[Tuple[float, float], ...]
    generator: object = None

    def __post_init__(self):
        if len(self.bands) == 0:
            raise ValueError("at least one band required")
        flat = [x for band in self.bands for x in band]
        if any(flat[i] >= flat[i + 1] for i in range(len(flat) - 1)):
            raise ValueError("band endpoints must be strictly increasing")

    @property
    def n_bands(self) -> int:
        return len(self.bands)


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

    def __init__(self, tag: str, payload):
        self.tag = tag
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
            self.set, self.generator = payload, payload.generator
            self.domain = "line"
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
        d, slope = self.generator.transfer_trace(x)
        return np.abs(slope) / (self.generator.p * math.pi
                                * np.sqrt(4.0 - d * d))

    def density_samples(self) -> np.ndarray:
        """About 200 (x, density) rows sampled strictly inside the
        support; for arcs the first column is the angle."""
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
            phi = np.linspace(0.0, math.pi, 200 // len(spans) + 2)[1:-1]
            x = mid + half * np.cos(phi)[::-1]
            rows.append(np.column_stack([x, self.density(x)]))
        return np.vstack(rows)

    # -- moments -----------------------------------------------------

    def moment(self, k: int):
        """k-th power moment; complex (trigonometric, int z^k) on the
        circle.  Odd moments of a symmetric interval cancel pairwise to
        an exact 0.0."""
        if not 0 <= k <= 8:
            raise ValueError("moments implemented for 0 <= k <= 8")
        if self.tag == "interval":
            c = 0.5 * (self.lo + self.hi)
            t = 0.5 * (self.hi - self.lo) * np.cos(_PHI[:_ANGLES // 2])
            vals = _power(c + t, k) + _power(c - t, k)
            return math.fsum(vals.tolist()) / _ANGLES
        if self.tag == "arc":
            # int z^k d rho = int T_k(x/2) d nu over the pullback
            # interval; conjugation symmetry kills the imaginary part.
            c = 0.5 * (self._lo + self._hi)
            h = 0.5 * (self._hi - self._lo)
            x = c + h * np.cos(_PHI)
            vals = np.cos(k * np.arccos(np.clip(x / 2.0, -1.0, 1.0)))
            return complex(math.fsum(vals.tolist()) / _ANGLES, 0.0)
        lam = self._floquet_eigs(_PHI)
        return (math.fsum(_power(lam, k).ravel().tolist())
                / (_ANGLES * self.generator.p))

    def _floquet_eigs(self, kappa: np.ndarray) -> np.ndarray:
        """Ascending eigenvalues of J(e^{i kappa}), one row per kappa.
        The matrices are built in slices of at most 2^20 entries (16 MB),
        since a stack of all 10 N levels of w1_distance grows as p^2."""
        J0 = self.generator
        parts = max(1, -(-len(kappa) * J0.p ** 2 // 2 ** 20))
        return np.concatenate([np.linalg.eigvalsh(J0.floquet(np.exp(1j * k)))
                               for k in np.array_split(kappa, parts)])

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
        # band j carries the j-th Floquet eigenvalue, which falls from
        # kappa = 0 to pi when p - 1 - j is even and rises otherwise
        p = self.generator.p
        j = np.clip(np.floor(us * p), 0, p - 1).astype(int)
        v = us * p - j
        kappa = math.pi * np.where((p - 1 - j) % 2 == 0, 1.0 - v, v)
        lam = self._floquet_eigs(kappa.ravel())
        return lam[np.arange(lam.shape[0]), j.ravel()].reshape(us.shape)


def _parse(target):
    """Resolve a target to the tag and payload of its EquilibriumMeasure:
    ("arc", CircleArcSet), ("periodic", FiniteGapSet) for a band set with
    its generator, or ("interval", (lo, hi)) for a finite lo < hi (else
    ValueError), which a band set without one resolves to if it has one
    band (else Unsupported)."""
    if isinstance(target, CircleArcSet):
        return "arc", target
    if isinstance(target, FiniteGapSet):
        if target.generator is not None:
            return "periodic", target
        if target.n_bands > 1:
            raise Unsupported("a multi-band set needs its periodic generator")
        target = target.bands[0]
    if isinstance(target, tuple) and len(target) == 2 and np.isscalar(target[0]):
        lo, hi = float(target[0]), float(target[1])
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"interval ({lo}, {hi}) is empty, reversed or "
                             "not finite")
        return "interval", (lo, hi)
    raise TypeError(f"unrecognized target {target!r}")


def equilibrium_measure(target) -> EquilibriumMeasure:
    """Equilibrium measure of an interval, an arc, or a periodic band set.

    ``target`` may be an (lo, hi) pair, a CircleArcSet, or a
    FiniteGapSet.  A band set with a generator gets the generator's
    density of states; one without gets the arcsine law of its one band,
    and Unsupported if it has more.
    """
    return EquilibriumMeasure(*_parse(target))


def capacity(target) -> float:
    """Logarithmic capacity: (hi-lo)/4 for an interval, sqrt(1-a^2) for
    the arc with gap parameter a, geometric mean of the off-diagonal
    pattern of a band set's generator."""
    kind, target = _parse(target)
    if kind == "arc":
        return math.sqrt(1.0 - target.a ** 2)
    if kind == "periodic":
        logs = [math.log(a) for a in target.generator.a]
        return math.exp(math.fsum(logs) / len(logs))
    lo, hi = target
    return (hi - lo) / 4.0


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
