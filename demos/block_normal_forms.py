"""Normal forms for block Jacobi data and what they leave unchanged.

Block Jacobi parameters are only determined up to conjugation by a chain
of block-diagonal unitaries.  Two standard representatives pin the gauge
down: type 3 makes every off-diagonal block lower triangular with a
positive diagonal, type 1 makes it positive definite.  Either way the
truncation spectra, the off-diagonal determinant moduli, and the
gauge-invariant Cesaro statistic must come through untouched.
"""

import numpy as np

from opspectra import (SplitMix64, cn_stat_matrix_invariant, eig_block,
                       normalize_type1, normalize_type3)
from opspectra.scenarios import _random_blocks, _random_chain


def main():
    rng = SplitMix64(41)
    Jb = _random_blocks(rng, ell=3, K=24)
    w0 = eig_block(Jb, len(Jb.B))

    [(t3, _)] = normalize_type3([Jb])
    [(t1, _)] = normalize_type1([Jb])

    print("block size 3, 24 diagonal blocks, random bounded data")
    for tag, t in (("type3", t3), ("type1", t1)):
        wt = eig_block(t, len(t.B))
        spec = float(np.max(np.abs(wt - w0)))
        det = max(abs(abs(np.linalg.det(x)) - abs(np.linalg.det(y)))
                  for x, y in zip(Jb.A, t.A))
        print(f"  {tag}: spectra shift {spec:.2e},"
              f" |det| shift {det:.2e}")

    # Hadamard for positive definite blocks: det A <= prod of diagonal.
    worst = max(float(np.linalg.det(blk).real
                      - np.prod(np.diagonal(blk).real))
                for blk in t1.A)
    print(f"  hadamard slack on type-1 blocks (should be <= 0): {worst:.2e}")

    lad = (6, 12, 23)
    base = cn_stat_matrix_invariant(Jb, lad)
    moved = cn_stat_matrix_invariant(_random_chain(rng, 3, 25).apply(Jb), lad)
    shift = max(abs(x - y) for x, y in zip(base.values, moved.values))
    print(f"  invariant statistic shift under a random gauge: {shift:.2e}")


if __name__ == "__main__":
    main()
