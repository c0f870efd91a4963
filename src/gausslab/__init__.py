"""Incomplete Gauss sums at desk scale.

Exact direct summation, closed forms, functional-equation fast paths,
Kloosterman/Salie diagnostics, and empirical limit-distribution
experiments for quadratic exponential sums with periodic weights.
"""

from .arith import (
    Modulus,
    analyze_modulus,
    epsilon,
    jacobi,
    mod_inverse,
    units,
)
from .distlab import (
    EmpiricalBatch,
    Histogram,
    MomentReport,
    discrete_factor_counts,
    empirical_batch,
    empirical_moment,
    histogram,
    ks_distance,
    limit_moment,
    sample_limit_law,
)
from .expsums import (
    ExpSumReport,
    class_counts,
    expsum_report,
    kloosterman,
    salie,
    twisted_kloosterman,
    weil_bound,
)
from .gauss_sums import (
    G_FULL,
    G_MINUS,
    G_PLUS,
    ModulusCase,
    gauss_sum_closed,
    gauss_sum_direct,
    gauss_sum_fast,
    limit_series,
    modulus_case,
    reduce_noncoprime,
    sigma_class,
)
from .weights import (
    WeightFunction,
    as_fourier_series,
    constant_weight,
    evaluate,
    fourier_weight,
    indicator_coefficients,
    interval_indicator,
    reduce_weight,
)

__version__ = "0.1.0"
