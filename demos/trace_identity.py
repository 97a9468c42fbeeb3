"""Cross-check the closed form for the averaged trace of a squared truncation.

A size-N truncation of a Jacobi matrix satisfies

    Tr(J_N^2) = sum_{n<=N} b_n^2 + 2 sum_{n<N} a_n^2,

so (1/N) Tr(J_N^2) is computable without any linear algebra.  Summing
squared eigenvalues of the same truncation must reproduce it to rounding
error, which exercises the formula and the eigensolver against each other.
"""

import numpy as np

from opspectra import JacobiParams, SplitMix64, trace_square


def main():
    # Free case first: eigenvalues are 2 cos(k pi / (N+1)), and the
    # averaged trace works out to exactly 2 - 2/N.
    free = JacobiParams.free()
    print("free Jacobi matrix, (1/N) Tr(J_N^2) vs 2 - 2/N:")
    for N in (10, 100, 1000):
        formula, eigs = trace_square(free, N)
        print(f"  N={N:5d}  formula={formula:.12f}  eigs={eigs:.12f}"
              f"  closed={2.0 - 2.0 / N:.12f}")

    print()
    print("random bounded perturbations, relative gap between routes:")
    worst = 0.0
    for s in range(8):
        rng = SplitMix64(3000 + s)
        a = 1.0 + 0.4 * (rng.uniforms(200) - 0.5)
        b = 0.8 * (rng.uniforms(200) - 0.5)
        J = JacobiParams(a[:199], b, bound=0.6)
        formula, eigs = trace_square(J, 200)
        gap = abs(formula - eigs) / abs(formula)
        worst = max(worst, gap)
        print(f"  seed {3000 + s}: formula={formula:+.10f}  rel gap={gap:.2e}")
    print(f"worst relative gap over 8 draws: {worst:.2e}")


if __name__ == "__main__":
    main()
