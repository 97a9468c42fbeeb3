"""Orthogonal polynomial recurrence data, spectra, and regularity
diagnostics.

The package is organized around one loop: build recurrence coefficients
(from formulas, measures, or periodic generators), truncate to finite
matrices and diagonalize, compare the resulting spectral data against
potential-theoretic references (equilibrium measures, capacities,
isospectral tori), and track windowed Cesaro averages of coefficient
deviations as the window grows.  The ``opspectra`` command line runs
named end-to-end experiments; see ``opspectra list-scenarios``.
"""

from .measures import (DensityPart, DiscreteMeasure, LineMeasureSpec,
                       discretize, jacobi_from_measure, szego_image)
from .periodic import (PeriodicJacobi, bands, d_to_torus_batch, delta_of_J,
                       discriminant, normalize_type1, normalize_type3,
                       torus_point)
from .potential import (CircleArcSet, EquilibriumMeasure, FiniteGapSet,
                        capacity, equilibrium_measure, w1_distance)
from .regularity import (StatSeries, arc_stats, cn_stat_matrix,
                         cn_stat_matrix_invariant, cn_stat_oprl, cn_stat_opuc,
                         cn_stat_torus, cn_stat_windowed, cn_sq_stat_oprl,
                         lemma21_stats, root_and_cesaro, root_test,
                         trace_stat)
from .rng import SplitMix64
from .sequences import (BlockJacobiParams, JacobiParams, UnitaryChain,
                        VerblunskyParams, sup_deviation)
from .spectra import (EmpiricalMeasure, eig_block, eig_sym_tridiag,
                      eig_unitary, trace_square, zero_counting)

__version__ = "0.1.0"

__all__ = [
    "BlockJacobiParams", "CircleArcSet", "DensityPart", "DiscreteMeasure",
    "EmpiricalMeasure", "EquilibriumMeasure", "FiniteGapSet", "JacobiParams",
    "LineMeasureSpec", "PeriodicJacobi", "SplitMix64", "StatSeries",
    "UnitaryChain", "VerblunskyParams",
    "arc_stats", "bands", "capacity",
    "cn_sq_stat_oprl", "cn_stat_matrix", "cn_stat_matrix_invariant",
    "cn_stat_oprl", "cn_stat_opuc", "cn_stat_torus", "cn_stat_windowed",
    "d_to_torus_batch", "delta_of_J", "discretize", "discriminant",
    "eig_block", "eig_sym_tridiag", "eig_unitary",
    "equilibrium_measure", "jacobi_from_measure", "lemma21_stats",
    "normalize_type1", "normalize_type3", "root_and_cesaro", "root_test",
    "sup_deviation", "szego_image", "torus_point", "trace_square",
    "trace_stat", "w1_distance", "zero_counting",
]
