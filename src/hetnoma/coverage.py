"""Closed-form downlink coverage of two-user NOMA in a multi-tier HetNet.

A tier-m cell that schedules two users splits its power P_m between them:
the far user gets beta*P_m, the near user (1-beta)*P_m.  The near user
must first decode the far user's signal, cancel it, then decode its own.
Both decoding events reduce to a threshold on the near user's own-signal
SIR, and averaging over the Rayleigh fading and the Poisson geometry
(non-void interferers thinned to intensity q*lambda_total) gives

    near coverage = 2 / (2 + q*l_m(threshold_near))
    far  coverage = 2 / ((1 + q*l_m(threshold_far)) * (2 + q*l_m(threshold_far)))

with l_m the interference kernel and, for SIR threshold theta,

    threshold_far  = theta / (beta*(1+theta) - theta)
    threshold_near = max(threshold_far, theta/(1-beta)).

Both users fail almost surely when beta <= theta/(1+theta): the far
user's signal is undecodable even without interference, so coverage is
reported as zero (with a validity flag) rather than as an error.

In the cooperative scheme every void cell retransmits the far user's
signal.  The near user's first decoding stage then succeeds whenever its
own-signal SIR clears theta (exactly for beta >= (1+theta)/(2+theta)),
and the far user's exponent becomes the combined kernel with the void
gain subtracted, clamped at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from scipy.special import gammaln

from .kernels import KernelEvaluator

# optimize_beta: coarse grid size, then golden-section bracket width
BETA_GRID_POINTS = 64
BETA_TOL = 1e-4


def _require_finite(obj, *names):
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TierParams:
    """One base-station tier: transmit power (W) and intensity (BSs per m^2)."""

    power_watts: float
    intensity: float

    def __post_init__(self):
        _require_finite(self, "power_watts", "intensity")
        if not self.power_watts > 0:
            raise ValueError("power_watts must be positive")
        if not self.intensity > 0:
            raise ValueError("intensity must be positive")


@dataclass(frozen=True)
class NetworkParams:
    """Full scenario description of the M-tier downlink NOMA network."""

    tiers: tuple
    user_intensity: float
    pathloss_exponent: float
    sir_threshold: float
    beta: tuple

    def __post_init__(self):
        if not self.tiers:
            raise ValueError("tiers must contain at least one tier")
        object.__setattr__(self, "tiers", tuple(self.tiers))
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        _require_finite(self, "user_intensity", "pathloss_exponent", "sir_threshold")
        if self.user_intensity < 0:
            raise ValueError("user_intensity must be nonnegative")
        if not self.pathloss_exponent > 2:
            raise ValueError("pathloss_exponent must exceed 2")
        if not self.sir_threshold > 0:
            raise ValueError("sir_threshold must be positive")
        if len(self.beta) != len(self.tiers):
            raise ValueError("beta must have one entry per tier")
        if any(not 0.0 <= b <= 1.0 for b in self.beta):
            raise ValueError("beta entries must lie in [0, 1]")

    @property
    def n_tiers(self):
        return len(self.tiers)

    @property
    def total_intensity(self):
        return sum(t.intensity for t in self.tiers)

    @property
    def intensity_fractions(self):
        lam = self.total_intensity
        return tuple(t.intensity / lam for t in self.tiers)

    def with_beta(self, beta):
        """Set the power allocation factor, one value broadcast to all tiers."""
        return replace(self, beta=(float(beta),) * self.n_tiers)


@dataclass(frozen=True)
class LoadModel:
    """Cell load L (mean users per BS) and the non-void probability q."""

    cell_load: float
    nonvoid_prob: float


def cell_load_model(params):
    """L = mu/lambda_total; q = 1 - (1 + 2L/7)^(-7/2) (zero load -> q = 0)."""
    load = params.user_intensity / params.total_intensity
    q = 1.0 - (1.0 + 2.0 * load / 7.0) ** -3.5
    return LoadModel(cell_load=load, nonvoid_prob=q)


def user_count_pmf(load, n):
    """P[a cell serves exactly n users] under the Gamma-mixed Poisson cell model.

    P[N=n] = Gamma(n+7/2)/(n! Gamma(7/2)) * (2L/7)^n * (1+2L/7)^-(n+7/2),
    evaluated in log space so large n does not overflow.
    """
    if not n >= 0:
        raise ValueError("n must be nonnegative")
    L = load.cell_load
    if L == 0.0:
        return 1.0 if n == 0 else 0.0
    r = 2.0 * L / 7.0
    log_p = (
        gammaln(n + 3.5)
        - gammaln(n + 1.0)
        - gammaln(3.5)
        + n * math.log(r)
        - (n + 3.5) * math.log1p(r)
    )
    return float(math.exp(log_p))


@dataclass(frozen=True)
class DecodingThresholds:
    """SIR-equivalent thresholds of the two NOMA decoding events.

    valid is False when beta <= theta/(1+theta); the thresholds are then
    infinite (no power split can satisfy the far user's condition).
    At beta = 1 the near user gets zero power and near_threshold is +inf
    by continuous extension.
    """

    near_threshold: float
    far_threshold: float
    valid: bool


def decoding_thresholds(theta, beta_m):
    if not theta > 0:
        raise ValueError("sir_threshold must be positive")
    if not 0.0 <= beta_m <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    margin = beta_m * (1.0 + theta) - theta
    if margin <= 0.0:
        return DecodingThresholds(math.inf, math.inf, False)
    far = theta / margin
    own = math.inf if beta_m == 1.0 else theta / (1.0 - beta_m)
    return DecodingThresholds(max(far, own), far, True)


@dataclass(frozen=True)
class CoveragePair:
    """Near/far coverage probabilities of one tier under one scheme.

    extrapolated marks cooperative results computed below the
    beta >= (1+theta)/(2+theta) range for which the cooperative closed
    form is exact.
    """

    near: float
    far: float
    extrapolated: bool = False


def _coop_extrapolated(theta, beta_m):
    """Whether the cooperative closed form is used below its exact range."""
    return beta_m < (1.0 + theta) / (2.0 + theta)


def coverage_noncoop(params, tier, evaluator=None):
    """Near/far coverage of a tier-`tier` cell without BS cooperation."""
    return coverage_pair(params, tier, "noncoop", evaluator)


def coverage_coop(params, tier, evaluator=None):
    """Near/far coverage when void cells jointly transmit the far signal."""
    return coverage_pair(params, tier, "coop", evaluator)


def coverage_pair(params, tier, scheme, evaluator=None):
    """Near/far coverage of one tier under the scheme named "noncoop" or "coop".

    The schemes differ in two places only: the near user's threshold,
    max(far, theta/(1-beta)) without cooperation and theta/(1-beta) with
    it, and the far exponent, from which cooperation subtracts the void
    cells' gain.
    """
    if scheme not in ("noncoop", "coop"):
        raise ValueError(f"unknown scheme {scheme!r}")
    theta = params.sir_threshold
    beta = params.beta[tier]
    thr = decoding_thresholds(theta, beta)
    if not thr.valid:
        return CoveragePair(0.0, 0.0)
    ev = evaluator if evaluator is not None else KernelEvaluator.from_params(params)
    q = cell_load_model(params).nonvoid_prob
    if scheme == "coop":
        near_arg = math.inf if beta == 1.0 else theta / (1.0 - beta)
        far_exp = ev.combined_kernel(tier, thr.far_threshold, thr.far_threshold / theta, q)
    else:
        near_arg = thr.near_threshold
        far_exp = q * ev.interference_kernel(tier, thr.far_threshold)
    k_near = ev.interference_kernel(tier, near_arg)
    near = 0.0 if math.isinf(k_near) else 2.0 / (2.0 + q * k_near)
    far = 2.0 / ((1.0 + far_exp) * (2.0 + far_exp))
    return CoveragePair(near, far, scheme == "coop" and _coop_extrapolated(theta, beta))


def average_coverage(params, tier, scheme, evaluator=None):
    """Mean of the near and far coverage probabilities for one scheme."""
    pair = coverage_pair(params, tier, scheme, evaluator)
    return 0.5 * (pair.near + pair.far)


@dataclass(frozen=True)
class BetaOptimum:
    """extrapolated marks a cooperative optimum below (1+theta)/(2+theta),
    where the closed form it maximizes is not exact."""

    beta_star: float
    value: float
    at_boundary: bool
    extrapolated: bool


def optimize_beta(params, tier, scheme):
    """Power split maximizing the average coverage of one tier.

    The admissible interval is (theta/(1+theta), 1].  A coarse grid of
    BETA_GRID_POINTS brackets the maximizer first (unimodality is not
    guaranteed), then golden-section search refines the bracket to width
    BETA_TOL.  at_boundary reports a maximizer within BETA_TOL of beta = 1;
    extrapolated a cooperative one below (1+theta)/(2+theta).
    """
    theta = params.sir_threshold
    lo = theta / (1.0 + theta)
    ev = KernelEvaluator.from_params(params)

    def objective(beta):
        return average_coverage(params.with_beta(beta), tier, scheme, ev)

    grid = [lo + (1.0 - lo) * i / BETA_GRID_POINTS for i in range(1, BETA_GRID_POINTS + 1)]
    values = [objective(b) for b in grid]
    best = max(range(len(grid)), key=values.__getitem__)
    left = grid[best - 1] if best > 0 else lo + (1.0 - lo) * 1e-12
    right = grid[best + 1] if best + 1 < len(grid) else 1.0

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = left, right
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > BETA_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d)
    beta_star = 0.5 * (a + b)
    value = objective(beta_star)
    # keep the endpoint if refinement did not beat the coarse grid
    if values[best] > value:
        beta_star, value = grid[best], values[best]
    return BetaOptimum(beta_star, value, at_boundary=beta_star >= 1.0 - BETA_TOL,
                       extrapolated=scheme == "coop" and _coop_extrapolated(theta, beta_star))
