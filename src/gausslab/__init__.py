"""Incomplete Gauss sums at desk scale.

Exact direct summation, closed forms, functional-equation fast paths,
Kloosterman/Salie diagnostics, and empirical limit-distribution
experiments for quadratic exponential sums with periodic weights.
"""

from .distlab import (
    empirical_batch,
    ks_distance,
    moment_reports,
    sample_limit_law,
)
from .expsums import (
    kloosterman,
    weil_bound,
)
from .gauss_sums import (
    gauss_sum_closed,
    gauss_sum_direct,
    gauss_sum_fast,
)
from .weights import (
    as_fourier_series,
    constant_weight,
    interval_indicator,
)

__version__ = "0.1.0"
