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
    coverage_curve,
    decoding_thresholds,
    optimize_beta,
    user_count_pmf,
)
from .geometry import Window, associate, default_window, sample_ppp
from .kernels import KernelEvaluator
from .simulate import (
    CoverageEstimate,
    NetworkSnapshot,
    build_snapshot,
    cell_census,
    run_trials,
)
from .sweeps import ComparisonRow, run_beta_scan, run_sweep, table1_params

__version__ = "0.1.0"

__all__ = [
    "BetaOptimum", "ComparisonRow", "CoverageEstimate", "CoveragePair",
    "DecodingThresholds", "KernelEvaluator",
    "LoadModel", "NetworkParams", "NetworkSnapshot",
    "ScenarioConfig",
    "TierParams", "Window",
    "associate", "average_coverage", "build_snapshot",
    "cell_census", "cell_load_model", "coverage_curve",
    "decoding_thresholds", "default_window",
    "optimize_beta", "run_beta_scan",
    "run_sweep", "run_trials", "sample_ppp",
    "table1_params", "user_count_pmf",
]
