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

coverage_pair, coverage_curve and scan_beta share one routine (_pairs)
that takes a float64 array of power splits and evaluates each split
elementwise, with one interference_kernel call for the whole array.  So
a split's coverage is the same, bit for bit, whether it is evaluated
alone or with others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .checks import ConfigError, number
from .kernels import KernelEvaluator

# optimize_beta: coarse grid size, then golden-section bracket width, and
# the golden-section steps one evaluation looks ahead
BETA_GRID_POINTS = 64
BETA_TOL = 1e-4
GOLDEN_LOOKAHEAD = 4

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


def _thresholds(theta, betas):
    """(valid, far, own): the decoding thresholds of a float64 array of
    power splits in [0, 1], under the caller's np.errstate (beta = 1
    divides by zero).  valid marks the splits above theta/(1+theta), and
    far and own are arrays over those splits alone, where own =
    theta/(1-beta) (+inf at beta = 1) is the near user's own-signal
    threshold; the near user's threshold is max(far, own)."""
    margin = betas * (1.0 + theta) - theta
    valid = margin > 0.0
    if np.count_nonzero(valid) < len(valid):
        betas, margin = betas[valid], margin[valid]
    return valid, theta / margin, theta / (1.0 - betas)


def decoding_thresholds(theta, beta_m):
    if not theta > 0:
        raise ValueError("sir_threshold must be positive")
    if not 0.0 <= beta_m <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        valid, far, own = _thresholds(theta, np.array([beta_m], dtype=float))
    if not valid[0]:
        return DecodingThresholds(math.inf, math.inf, False)
    return DecodingThresholds(max(float(far[0]), float(own[0])), float(far[0]), True)


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
    the kernel evaluator are set up once per call (_curve), and all betas
    are evaluated as one array (_pairs).
    """
    curve = _curve(params, tier, scheme, evaluator)
    # each beta is checked as the first of the entries with_beta broadcasts it to
    betas = np.array([check_beta(beta, "beta[0]") for beta in betas], dtype=float)
    with _PAIRS_ERRSTATE():
        near, far, valid = curve(betas)
    extrapolated = [False] * len(betas)
    if scheme == "coop":
        extrapolated = (valid & _coop_extrapolated(params.sir_threshold, betas)).tolist()
    return list(map(CoveragePair, near.tolist(), far.tolist(), extrapolated))


def _curve(params, tier, scheme, evaluator=None):
    """coverage_curve's set-up: a function of a float64 array of checked
    betas that gives their coverage as arrays (_pairs)."""
    check_schemes((scheme,))
    theta = params.sir_threshold
    if not theta > 0:
        raise ValueError("sir_threshold must be positive")
    q = cell_load_model(params).nonvoid_prob
    ev = evaluator if evaluator is not None else KernelEvaluator.from_params(params)
    return partial(_pairs, ev, tier, scheme == "coop", theta, q)


# _pairs' callers hold these: beta = 1 divides by zero (own = inf), q*inf is
# NaN at q = 0, and a far exponent near 1e154 or above squares to inf
_PAIRS_ERRSTATE = partial(np.errstate, divide="ignore", invalid="ignore", over="ignore")


def _pairs(ev, tier, coop, theta, q, betas):
    """(near, far, valid) over a float64 array of betas: the near and far
    coverage, floats in [0, 1], and the mask of the splits above
    theta/(1+theta) (the others get 0 and 0), under _PAIRS_ERRSTATE.

    Every beta's kernel arguments go to one interference_kernel call: its
    near and far thresholds without cooperation, and with it its near
    threshold theta/(1-beta) and the thresholds x and x/theta of the
    combined far exponent (KernelEvaluator.void_exponent).  The schemes
    differ in these two places only.  Each value is elementwise in the
    array, so an array of betas gives the values of one call per beta,
    bit for bit.
    """
    valid, far_args, own_args = _thresholds(theta, betas)
    n = len(far_args)
    if coop:
        # the void cells' threshold x/theta is x itself at theta = 1
        args = [own_args, far_args] + ([far_args / theta] if theta != 1.0 else [])
        kernels = ev.interference_kernel(tier, np.concatenate(args))
        far_exps = ev.void_exponent(far_args, args[-1], kernels[n:2 * n], kernels[-n:], q)
    else:
        near_args = np.maximum(far_args, own_args)
        kernels = ev.interference_kernel(tier, np.concatenate([near_args, far_args]))
        # no interferer at q = 0, even where a kernel overflowed to inf
        far_exps = q * kernels[n:] if q else np.zeros(n)
    k_nears = kernels[:n]
    nears = 2.0 / (2.0 + q * k_nears)
    fars = 2.0 / ((1.0 + far_exps) * (2.0 + far_exps))
    if not q:
        # an infinite kernel leaves no coverage
        nears[np.isinf(k_nears)] = 0.0
    if n == len(betas):
        return nears, fars, valid
    near, far = np.zeros(len(betas)), np.zeros(len(betas))
    near[valid], far[valid] = nears, fars
    return near, far, valid


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
    per call (_curve).  One array evaluation then covers betas and the
    coarse grid together, each float once: a coarse grid point that betas
    holds too is not evaluated again.  The golden section then takes its
    steps in batches (_golden_section).  The values are those of separate
    coverage_curve calls, bit for bit.
    """
    curve = _curve(params, tier, scheme)
    betas = np.array([check_beta(beta, "beta[0]") for beta in betas], dtype=float)
    theta = params.sir_threshold
    lo = theta / (1.0 + theta)
    grid = lo + (1.0 - lo) * np.arange(1.0, BETA_GRID_POINTS + 1.0) / BETA_GRID_POINTS
    # a beta that is a grid point, bit for bit, takes that point's value
    at = np.minimum(np.searchsorted(grid, betas), BETA_GRID_POINTS - 1)
    off_grid = grid[at] != betas
    at[off_grid] = np.arange(BETA_GRID_POINTS, BETA_GRID_POINTS + np.count_nonzero(off_grid))
    value_at = {}

    def average(points):
        near, far, _ = curve(points)
        return 0.5 * (near + far)

    def evaluate(points):
        value_at.update(zip(points, average(np.array(points, dtype=float)).tolist()))

    with _PAIRS_ERRSTATE():
        averages = average(np.concatenate([grid, betas[off_grid]]))
        grid, grid_values = grid.tolist(), averages[:BETA_GRID_POINTS].tolist()
        best = grid_values.index(max(grid_values))
        left = grid[best - 1] if best > 0 else lo + (1.0 - lo) * 1e-12
        right = grid[best + 1] if best + 1 < len(grid) else 1.0
        beta_star = _golden_section(left, right, value_at, evaluate)
    value = value_at[beta_star]
    # keep the endpoint if refinement did not beat the coarse grid
    if grid_values[best] > value:
        beta_star, value = grid[best], grid_values[best]
    optimum = BetaOptimum(beta_star, value, at_boundary=beta_star >= 1.0 - BETA_TOL,
                          extrapolated=scheme == "coop" and _coop_extrapolated(theta, beta_star))
    return tuple(averages[at].tolist()), optimum


INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(a, b, value_at, evaluate):
    """The midpoint of the golden-section bracket on [a, b] narrowed to
    width BETA_TOL, with its value in value_at (a dict beta -> value that
    evaluate(list of betas) fills).

    The search replays its comparisons from value_at.  Where a value is
    missing, one evaluate call takes every point that the next
    GOLDEN_LOOKAHEAD steps could need (_lookahead).  The points come from
    the same float operations as a search that evaluates one point per
    step, so the search visits the same points and ends on the same
    midpoint.
    """
    c, d = b - INV_PHI * (b - a), a + INV_PHI * (b - a)
    while True:
        while b - a > BETA_TOL and c in value_at and d in value_at:
            if value_at[c] < value_at[d]:
                a, c, d = c, d, c + INV_PHI * (b - c)
            else:
                b, d, c = d, c, d - INV_PHI * (d - a)
        if b - a <= BETA_TOL and 0.5 * (a + b) in value_at:
            return 0.5 * (a + b)
        wanted = {}
        _lookahead(a, b, c, d, GOLDEN_LOOKAHEAD, wanted)
        evaluate([beta for beta in wanted if beta not in value_at])


def _lookahead(a, b, c, d, steps, wanted):
    """Add to wanted (a dict used as an ordered set) the points that the
    next `steps` golden-section steps from the bracket [a, b] with inner
    points c < d could need: both inner points of each comparison still
    open (2**steps - 1 new points at most), and the final midpoint of each
    bracket those steps narrow to width BETA_TOL."""
    if b - a <= BETA_TOL:
        wanted[0.5 * (a + b)] = None
    elif steps:
        wanted[c] = wanted[d] = None
        # after f(c) >= f(d), then after f(c) < f(d)
        _lookahead(a, d, d - INV_PHI * (d - a), c, steps - 1, wanted)
        _lookahead(c, b, d, c + INV_PHI * (b - c), steps - 1, wanted)
