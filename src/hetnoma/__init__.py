"""Downlink coverage of two-user NOMA in multi-tier Poisson cellular networks.

Closed-form near/far coverage probabilities (non-cooperative and
void-cell-cooperative schemes), a full-network Monte Carlo SIR simulator
that validates them, and a search for the coverage-maximizing power
allocation.
"""

from .config import ScenarioConfig
from .coverage import (
    BetaOptimum,
    CoveragePair,
    DecodingThresholds,
    LoadModel,
    NetworkParams,
    TierParams,
    average_coverage,
    cell_load_model,
    coverage_coop,
    coverage_noncoop,
    decoding_thresholds,
    optimize_beta,
    user_count_pmf,
)
from .geometry import Window, associate, default_window, sample_ppp
from .kernels import KernelEvaluator, base_integral
from .simulate import (
    CoverageEstimate,
    NetworkSnapshot,
    SirSample,
    TaggedCell,
    build_snapshot,
    cell_census,
    evaluate_coop,
    evaluate_noncoop,
    run_trials,
    schedule_noma_users,
)
from .sweeps import ComparisonRow, run_beta_scan, run_sweep, table1_params

__version__ = "0.1.0"

__all__ = [
    "BetaOptimum", "ComparisonRow", "CoverageEstimate", "CoveragePair",
    "DecodingThresholds", "KernelEvaluator",
    "LoadModel", "NetworkParams", "NetworkSnapshot",
    "ScenarioConfig", "SirSample", "TaggedCell",
    "TierParams", "Window",
    "associate", "average_coverage", "base_integral", "build_snapshot",
    "cell_census", "cell_load_model", "coverage_coop", "coverage_noncoop",
    "decoding_thresholds", "default_window", "evaluate_coop",
    "evaluate_noncoop", "optimize_beta", "run_beta_scan",
    "run_sweep", "run_trials", "sample_ppp", "schedule_noma_users",
    "table1_params", "user_count_pmf",
]
