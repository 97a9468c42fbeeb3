"""Periodic background, its band set, and distance to the isospectral torus.

The period-2 pattern a = (1, 1/2), b = (0, 0) has a two-band essential
spectrum, where its discriminant lies in [-2, 2].  Any Jacobi data can be
compared against the whole isospectral family of that spectrum: the block map
relative to the background vanishes identically on the background itself,
and the averaged torus distance separates decaying perturbations from
genuinely different data.
"""

import numpy as np

from opspectra import (PeriodicJacobi, bands, capacity, cn_stat_torus,
                       delta_of_J, discriminant, torus_point)
from opspectra.scenarios import _periodic_as_params


def main():
    J0 = PeriodicJacobi((1.0, 0.5), (0.0, 0.0))
    fgs = bands(J0)
    edges = [x for band in fgs.bands for x in band]
    print("pattern a=(1, 1/2), b=(0, 0)")
    print("  bands: " + ", ".join(f"[{lo:+.4f}, {hi:+.4f}]"
                                  for lo, hi in fgs.bands))
    print("  discriminant at the band edges: "
          + ", ".join(f"{d:+.4f}" for d in discriminant(J0, edges)))
    print(f"  capacity of the band set: {capacity(fgs):.6f}"
          f"  (closed form sqrt(a1 a2) = {np.sqrt(0.5):.6f})")

    blocks = delta_of_J(J0, _periodic_as_params(J0), 32)
    wA = max(float(np.max(np.abs(blk - np.eye(2)))) for blk in blocks.A[1:])
    wB = max(float(np.max(np.abs(blk))) for blk in blocks.B[1:])
    print(f"  block map on the background: interior |A-I| {wA:.2e},"
          f" interior |B| {wB:.2e}")

    lad = (64, 256, 1024)
    Jh = _periodic_as_params(J0, db=lambda n: 1.0 / n)
    cn_h = cn_stat_torus(Jh, J0, lad)
    Jt = torus_point(J0, (2.0,))
    cn_t = cn_stat_torus(_periodic_as_params(Jt), J0, lad)
    print("  averaged torus distance:")
    for N, h, t in zip(lad, cn_h.values, cn_t.values):
        print(f"    N={N:5d}  b_n += 1/n: {h:.5f}   torus point: {t:.2e}")


if __name__ == "__main__":
    main()
