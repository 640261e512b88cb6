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
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .checks import ConfigError, number
from .kernels import KernelEvaluator

# optimize_beta: coarse grid size, then golden-section bracket width
BETA_GRID_POINTS = 64
BETA_TOL = 1e-4

SCHEMES = ("noncoop", "coop")


@dataclass(frozen=True)
class TierParams:
    """One base-station tier: transmit power (W) and intensity (BSs per m^2)."""

    power_watts: float
    intensity: float

    def __post_init__(self):
        set_field = object.__setattr__
        set_field(self, "power_watts", number(self.power_watts, "power_watts", 0.0, strict=True))
        set_field(self, "intensity", number(self.intensity, "intensity", 0.0, strict=True))


def check_beta(value, field):
    """One power split as a float in [0, 1]; a ConfigError names `field` or "beta"."""
    value = number(value, field, 0.0)
    if value > 1.0:
        raise ConfigError("beta", "entries must lie in [0, 1]")
    return value


@dataclass(frozen=True)
class NetworkParams:
    """Full scenario description of the M-tier downlink NOMA network."""

    tiers: tuple
    user_intensity: float
    pathloss_exponent: float
    sir_threshold: float
    beta: tuple

    def __post_init__(self):
        if (not isinstance(self.tiers, (list, tuple)) or not self.tiers
                or not all([isinstance(t, TierParams) for t in self.tiers])):
            raise ConfigError("tiers", "expected a nonempty array of tier objects")
        if not isinstance(self.beta, (list, tuple)) or len(self.beta) != len(self.tiers):
            raise ConfigError("beta", "must have one entry per tier")
        set_field = object.__setattr__
        set_field(self, "tiers", tuple(self.tiers))
        set_field(self, "beta",
                  tuple([check_beta(b, f"beta[{i}]") for i, b in enumerate(self.beta)]))
        set_field(self, "user_intensity", number(self.user_intensity, "user_intensity", 0.0))
        set_field(self, "pathloss_exponent",
                  number(self.pathloss_exponent, "pathloss_exponent", 2.0, strict=True))
        set_field(self, "sir_threshold",
                  number(self.sir_threshold, "sir_threshold", 0.0, strict=True))

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
        return NetworkParams(self.tiers, self.user_intensity, self.pathloss_exponent,
                             self.sir_threshold, (beta,) * self.n_tiers)


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
        math.lgamma(n + 3.5)
        - math.lgamma(n + 1.0)
        - math.lgamma(3.5)
        + n * math.log(r)
        - (n + 3.5) * math.log1p(r)
    )
    return float(math.exp(log_p))


class DecodingThresholds(NamedTuple):
    """SIR-equivalent thresholds of the two NOMA decoding events.

    valid is False when beta <= theta/(1+theta); the thresholds are then
    infinite (no power split can satisfy the far user's condition).
    At beta = 1 the near user gets zero power and near_threshold is +inf
    by continuous extension.
    """

    near_threshold: float
    far_threshold: float
    valid: bool


def _thresholds(theta, beta):
    """(near, far, own) thresholds of a power split beta in [0, 1], where own
    = theta/(1-beta) (+inf at beta = 1) is the near user's own-signal
    threshold and near = max(far, own); None when beta <= theta/(1+theta)."""
    margin = beta * (1.0 + theta) - theta
    if margin <= 0.0:
        return None
    far = theta / margin
    own = math.inf if beta == 1.0 else theta / (1.0 - beta)
    return max(far, own), far, own


def decoding_thresholds(theta, beta_m):
    if not theta > 0:
        raise ValueError("sir_threshold must be positive")
    if not 0.0 <= beta_m <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    split = _thresholds(theta, beta_m)
    if split is None:
        return DecodingThresholds(math.inf, math.inf, False)
    return DecodingThresholds(split[0], split[1], True)


class CoveragePair(NamedTuple):
    """Near/far coverage probabilities of one tier under one scheme.

    extrapolated marks cooperative results computed below the
    beta >= (1+theta)/(2+theta) range for which the cooperative closed
    form is exact.
    """

    near: float
    far: float
    extrapolated: bool = False

    @property
    def average(self):
        return 0.5 * (self.near + self.far)


def _coop_extrapolated(theta, beta_m):
    """Whether the cooperative closed form is used below its exact range."""
    return beta_m < (1.0 + theta) / (2.0 + theta)


def coverage_noncoop(params, tier, evaluator=None):
    """Near/far coverage of a tier-`tier` cell without BS cooperation."""
    return coverage_pair(params, tier, "noncoop", evaluator)


def coverage_coop(params, tier, evaluator=None):
    """Near/far coverage when void cells jointly transmit the far signal."""
    return coverage_pair(params, tier, "coop", evaluator)


def check_schemes(schemes):
    """schemes as a tuple: a nonempty list or tuple of names from SCHEMES."""
    if not isinstance(schemes, (list, tuple)) or not schemes:
        raise ConfigError("schemes", "expected a nonempty array")
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError("schemes", f"unknown scheme {s!r} (choose from {list(SCHEMES)})")
    return tuple(schemes)


def coverage_curve(params, tier, scheme, betas, evaluator=None):
    """Near/far coverage of one tier under the scheme named "noncoop" or
    "coop", as a list of CoveragePair, one per power split in betas.

    Each pair equals the one of params.with_beta(beta), bit for bit, and a
    bad beta raises the ConfigError that with_beta raises.  theta, q and
    the kernel evaluator are set up once per call (_curve), and the kernel
    arguments of all betas go to one interference_kernel call (noncoop),
    or to one interference_kernel and one combined_kernel call (coop).
    """
    curve = _curve(params, tier, scheme, evaluator)
    # each beta is checked as the first of the entries with_beta broadcasts it to
    return curve([check_beta(beta, "beta[0]") for beta in betas])


def _curve(params, tier, scheme, evaluator=None):
    """coverage_curve's set-up: a function of a list of checked betas that
    gives their CoveragePairs (_pairs)."""
    check_schemes((scheme,))
    theta = params.sir_threshold
    if not theta > 0:
        raise ValueError("sir_threshold must be positive")
    q = cell_load_model(params).nonvoid_prob
    ev = evaluator if evaluator is not None else KernelEvaluator.from_params(params)
    return partial(_pairs, ev, tier, scheme == "coop", theta, q)


def _pairs(ev, tier, coop, theta, q, betas):
    """CoveragePair per beta of betas, floats in [0, 1].

    The schemes differ in two places only: the near user's threshold,
    max(far, theta/(1-beta)) without cooperation and theta/(1-beta) with
    it, and the far exponent, from which cooperation subtracts the void
    cells' gain.
    """
    splits = [_thresholds(theta, beta) for beta in betas]
    valid = [split for split in splits if split]
    far_args = [far for _, far, _ in valid]
    if coop:
        k_nears = ev.interference_kernel(tier, [own for _, _, own in valid])
        far_exps = ev.combined_kernel(tier, far_args, [x / theta for x in far_args], q)
    else:
        kernels = ev.interference_kernel(tier, [near for near, _, _ in valid] + far_args)
        k_nears = kernels[:len(valid)]
        # no interferer at q = 0, even where a kernel overflowed to inf
        far_exps = [q * k if q else 0.0 for k in kernels[len(valid):]]
    exponents = iter(zip(k_nears, far_exps))
    pairs = []
    for beta, split in zip(betas, splits):
        if split is None:
            pairs.append(CoveragePair(0.0, 0.0))
            continue
        k_near, far_exp = next(exponents)
        near = 0.0 if math.isinf(k_near) else 2.0 / (2.0 + q * k_near)
        far = 2.0 / ((1.0 + far_exp) * (2.0 + far_exp))
        pairs.append(CoveragePair(near, far, coop and _coop_extrapolated(theta, beta)))
    return pairs


def coverage_pair(params, tier, scheme, evaluator=None):
    """Near/far coverage of one tier under one scheme at the configured beta."""
    return coverage_curve(params, tier, scheme, (params.beta[tier],), evaluator)[0]


def average_coverage(params, tier, scheme, evaluator=None):
    """Mean of the near and far coverage probabilities for one scheme."""
    return coverage_pair(params, tier, scheme, evaluator).average


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
    return scan_beta(params, tier, scheme, ())[1]


def scan_beta(params, tier, scheme, betas):
    """(averages, optimum): the average coverage at each of betas, as a
    tuple, and optimize_beta's optimum.

    The scheme, theta and q are set up, and each of betas checked, once
    per call (_curve).  One evaluation then covers betas and the coarse
    grid together, each float once: a coarse grid point that betas holds
    too is not evaluated again.  Each golden-section step evaluates its
    own beta.  The values are those of separate coverage_curve calls, bit
    for bit.
    """
    curve = _curve(params, tier, scheme)
    betas = [check_beta(beta, "beta[0]") for beta in betas]
    theta = params.sir_threshold
    lo = theta / (1.0 + theta)
    grid = [lo + (1.0 - lo) * i / BETA_GRID_POINTS for i in range(1, BETA_GRID_POINTS + 1)]
    shared = set(betas)
    union = betas + [beta for beta in grid if beta not in shared]
    averages = [pair.average for pair in curve(union)]
    value_at = dict(zip(union, averages))
    values = [value_at[beta] for beta in grid]

    def objective(beta):
        return curve([beta])[0].average

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
    optimum = BetaOptimum(beta_star, value, at_boundary=beta_star >= 1.0 - BETA_TOL,
                          extrapolated=scheme == "coop" and _coop_extrapolated(theta, beta_star))
    return tuple(averages[:len(betas)]), optimum
