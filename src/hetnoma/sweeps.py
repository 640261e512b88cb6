"""Validation experiments: closed form vs Monte Carlo over parameter sweeps.

The stock two-tier scenario (20 W macro BSs at 1e-6 /m^2, 2 W pico BSs,
mu = 5e-4 users/m^2, theta = 1, alpha = 4, beta = 3/4) is provided by
table1_params(); the pico intensity can be either published endpoint,
0.1*mu (default) or mu.  The default user-intensity sweep covers
[5e-5, 1e-3] with 8 log-spaced points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import ConfigError
from .coverage import NetworkParams, TierParams, coverage_curve, scan_beta
# perfbench traces these two by name
from .coverage import average_coverage, optimize_beta  # noqa: F401
from .kernels import KernelEvaluator
from .simulate import ROLES, SCHEMES, estimates_from_totals, run_trial_sets
from .simulate import run_trials  # noqa: F401  (perfbench traces sweeps.run_trials by name)

SWEEP_VARIABLES = ("user_intensity", "beta", "pico_intensity")

TABLE1_USER_INTENSITY = 5e-4
PICO_INTENSITY_LOW = 0.1 * TABLE1_USER_INTENSITY   # sparse-pico endpoint, 5e-5
PICO_INTENSITY_HIGH = TABLE1_USER_INTENSITY        # dense-pico endpoint, 5e-4


def table1_params(pico_intensity=PICO_INTENSITY_LOW, user_intensity=TABLE1_USER_INTENSITY):
    """Stock two-tier macro/pico simulation scenario."""
    return NetworkParams(
        tiers=(
            TierParams(power_watts=20.0, intensity=1e-6),
            TierParams(power_watts=2.0, intensity=pico_intensity),
        ),
        user_intensity=user_intensity,
        pathloss_exponent=4.0,
        sir_threshold=1.0,
        beta=(0.75, 0.75),
    )


DEFAULT_USER_INTENSITY_GRID = tuple(float(v) for v in np.geomspace(5e-5, 1e-3, 8))


def apply_sweep_value(params, variable, value):
    if variable == "user_intensity":
        return replace(params, user_intensity=value)
    if variable == "beta":
        return params.with_beta(value)
    if variable == "pico_intensity":
        if params.n_tiers < 2:
            raise ConfigError("sweep.variable", "pico_intensity sweep requires at least two tiers")
        macro, pico, *rest = params.tiers
        return replace(params, tiers=(macro, replace(pico, intensity=value), *rest))
    raise ConfigError("sweep.variable", f"unknown sweep variable {variable!r}")


@dataclass(frozen=True)
class ComparisonRow:
    """One (sweep point, tier, role, scheme) analytic vs simulated record."""

    sweep_value: float
    tier: int           # 1-based tier number
    role: str
    scheme: str
    analytic: float
    simulated: float
    ci_halfwidth: float
    n_samples: int
    flags: str = ""

    @property
    def abs_gap(self):
        return abs(self.analytic - self.simulated)


def analytic_pairs(params, schemes=SCHEMES):
    """CoveragePair per (tier, scheme) from the closed forms, each at the
    tier's configured beta."""
    ev = KernelEvaluator.from_params(params)
    return {(tier, scheme): coverage_curve(params, tier, scheme, (params.beta[tier],), ev)[0]
            for tier in range(params.n_tiers) for scheme in schemes}


def comparison_rows(params, sweep_value, totals, schemes=SCHEMES):
    """Flagged analytic vs simulated rows of one scenario point.

    Rows come out in (tier, role, scheme) order.  A row is flagged
    low_samples when its estimate rests on fewer than 100 tagged cells,
    and extrapolated_beta when its closed form is used outside its exact
    range.
    """
    pairs = analytic_pairs(params, schemes)
    estimates = {(e.tier, e.scheme, e.role): e for e in estimates_from_totals(totals, schemes)}
    rows = []
    for tier in range(params.n_tiers):
        for role in ROLES:
            for scheme in schemes:
                pair = pairs[(tier, scheme)]
                est = estimates[(tier, scheme, role)]
                flags = []
                if est.low_samples:
                    flags.append("low_samples")
                if pair.extrapolated:
                    flags.append("extrapolated_beta")
                rows.append(
                    ComparisonRow(
                        sweep_value=sweep_value, tier=tier + 1, role=role, scheme=scheme,
                        analytic=getattr(pair, role), simulated=est.p_hat,
                        ci_halfwidth=est.ci_halfwidth, n_samples=est.n_samples,
                        flags=";".join(flags),
                    )
                )
    return rows


def run_sweep(cfg):
    """Analytic and simulated coverage at every grid point of a ScenarioConfig.

    Rows come out in deterministic order (grid point, tier, role, scheme).
    Every point's trial t is keyed on (seed, t) alone, with no point
    index, and the points that share a layout (tiers and path loss: every
    point of a user_intensity or beta sweep) share one tessellated
    snapshot per trial (simulate.run_trial_sets).  A point's rows are the
    same in any grid that holds it.  The rows of one sweep share common
    random numbers: each CI holds for its own point, and the differences
    between points are correlated.  The trials run on at most cfg.n_jobs
    workers, this process and the children it forks, and each point's
    totals merge in trial order, so the rows do not depend on n_jobs.
    """
    grid = [apply_sweep_value(cfg.params, cfg.sweep_variable, value) for value in cfg.sweep_grid]
    totals = run_trial_sets(grid, cfg.window, cfg.n_trials, cfg.seed,
                            cfg.max_cells_per_tier, cfg.n_jobs)
    rows = []
    for value, params, point_totals in zip(cfg.sweep_grid, grid, totals):
        rows.extend(comparison_rows(params, value, point_totals, cfg.schemes))
    return rows


def max_abs_gap(rows):
    """Largest |analytic - simulated| over rows with samples (nan if none has)."""
    return max((row.abs_gap for row in rows if row.n_samples > 0), default=math.nan)


@dataclass(frozen=True)
class BetaScan:
    """Average coverage over a beta grid plus the refined optimum."""

    tier: int
    scheme: str
    grid: tuple
    averages: tuple
    optimum: object


def run_beta_scan(params, tier, scheme, grid):
    """Average coverage on a beta grid and the golden-section optimum."""
    averages, optimum = scan_beta(params, tier, scheme, grid)
    return BetaScan(
        tier=tier, scheme=scheme, grid=tuple(float(b) for b in grid),
        averages=averages, optimum=optimum,
    )
