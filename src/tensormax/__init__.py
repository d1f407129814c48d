"""Largest off-diagonal entry of sample random tensors.

For n observations of p coordinates, the order-m sample product tensor
has entries sum_k x[k,i_1]*...*x[k,i_m]; this package computes the
maximum off-diagonal entry statistic at scale, applies its Gumbel-type
limit law (normalization, p-values, independence test), and verifies the
limit and its proof-level ingredients by reproducible Monte Carlo.
"""

from .asymptotics import (
    ONE_SIDED,
    TWO_SIDED,
    GumbelLimit,
    lambda_limit,
    log_rate_constant,
    normalize,
    nu_p,
    ratio_target,
)
from .diagnostics import (
    PairTailSpec,
    RatioReport,
    SteinChenReport,
    TailEstimate,
    b1_bound,
    estimate_lambda,
    estimate_pair_tail,
    estimate_single_tail,
    moderate_deviation_ratio,
    normal_upper_tail,
    stein_chen_report,
)
from .hypotest import LEVELS, TestResult, test_independence, test_independence_multi
from .lab import (
    CellConfig,
    CellReport,
    ExperimentConfig,
    ExperimentReport,
    ReplicateRecord,
    ks_distance,
    load_report,
    persist,
    run_experiment,
)
from .populations import (
    FAMILIES,
    PopulationSpec,
    RegimeReport,
    SeedSpec,
    check_regime,
    sample_matrix,
    sample_values,
)
from .statcore import (
    BudgetError,
    EnumerationCost,
    StatResult,
    enumeration_cost,
    load_matrix_csv,
    max_entry,
    max_entry_bruteforce,
    max_entry_multi,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CellConfig",
    "CellReport",
    "EnumerationCost",
    "ExperimentConfig",
    "ExperimentReport",
    "FAMILIES",
    "GumbelLimit",
    "LEVELS",
    "ONE_SIDED",
    "PairTailSpec",
    "PopulationSpec",
    "RatioReport",
    "RegimeReport",
    "ReplicateRecord",
    "SeedSpec",
    "StatResult",
    "SteinChenReport",
    "TWO_SIDED",
    "TailEstimate",
    "TestResult",
    "b1_bound",
    "check_regime",
    "enumeration_cost",
    "estimate_lambda",
    "estimate_pair_tail",
    "estimate_single_tail",
    "ks_distance",
    "lambda_limit",
    "load_matrix_csv",
    "load_report",
    "log_rate_constant",
    "max_entry",
    "max_entry_bruteforce",
    "max_entry_multi",
    "moderate_deviation_ratio",
    "normal_upper_tail",
    "normalize",
    "nu_p",
    "persist",
    "ratio_target",
    "run_experiment",
    "sample_matrix",
    "sample_values",
    "stein_chen_report",
    "test_independence",
    "test_independence_multi",
]
