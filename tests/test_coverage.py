"""Closed-form coverage, load model, thresholds, and the beta optimizer.

Frozen expected values were computed with an arbitrary-precision oracle:
L = mu/lambda_total and q = 1-(1+2L/7)^(-7/2) directly; single-tier
alpha = 4 coverages through l(x) = sqrt(x)*atan(sqrt(x)); the beta
optimum by exhaustive search on a 1e-3 grid.
"""

import math
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest

from hetnoma import coverage, kernels
from hetnoma.checks import ConfigError
from hetnoma.coverage import (
    BETA_GRID_POINTS,
    BETA_TOL,
    GOLDEN_LOOKAHEAD,
    BetaOptimum,
    CoveragePair,
    LoadModel,
    NetworkParams,
    TierParams,
    average_coverage,
    cell_load_model,
    coverage_coop,
    coverage_curve,
    coverage_noncoop,
    coverage_pair,
    decoding_thresholds,
    optimize_beta,
    scan_beta,
    user_count_pmf,
)
from hetnoma.kernels import KernelEvaluator
from hetnoma.sweeps import table1_params

TABLE1_Q = 0.99066080830888229


def single_tier(beta=0.75, mu=1e8, lam=1e-4, theta=1.0, alpha=4.0):
    """Single-tier scenario; the default huge load makes q exactly 1.0."""
    return NetworkParams(
        tiers=(TierParams(power_watts=1.0, intensity=lam),),
        user_intensity=mu,
        pathloss_exponent=alpha,
        sir_threshold=theta,
        beta=(beta,),
    )


def two_tier(mu=5e-4, beta=0.75, alpha=4.0):
    return NetworkParams(
        tiers=(TierParams(20.0, 1e-6), TierParams(2.0, 5e-5)),
        user_intensity=mu,
        pathloss_exponent=alpha,
        sir_threshold=1.0,
        beta=(beta, beta),
    )


class TestLoadModel:
    def test_no_users(self):
        lm = cell_load_model(two_tier(mu=0.0))
        assert lm.cell_load == 0.0
        assert lm.nonvoid_prob == 0.0

    def test_table1_point(self):
        lm = cell_load_model(two_tier())
        assert lm.cell_load == pytest.approx(9.803921568627451, rel=1e-12)
        assert lm.nonvoid_prob == pytest.approx(TABLE1_Q, abs=1e-12)

    def test_saturates_at_one(self):
        lm = cell_load_model(two_tier(mu=1e6))
        assert lm.nonvoid_prob == pytest.approx(1.0, abs=1e-9)


class TestUserCountPmf:
    def test_empty_network(self):
        lm = LoadModel(cell_load=0.0, nonvoid_prob=0.0)
        assert user_count_pmf(lm, 0) == 1.0
        assert user_count_pmf(lm, 3) == 0.0

    def test_void_probability_table1(self):
        lm = cell_load_model(two_tier())
        assert user_count_pmf(lm, 0) == pytest.approx(0.00933919169111771, abs=1e-12)
        assert user_count_pmf(lm, 0) == pytest.approx(1.0 - lm.nonvoid_prob, rel=1e-10)

    @pytest.mark.parametrize("load", [0.3, 1.0, 9.803921568627451, 40.0])
    def test_normalization(self, load):
        lm = LoadModel(cell_load=load, nonvoid_prob=0.0)
        total = sum(user_count_pmf(lm, n) for n in range(6000))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_log_gamma_path_survives_large_n(self):
        lm = LoadModel(cell_load=100.0, nonvoid_prob=0.0)
        value = user_count_pmf(lm, 500)
        assert math.isfinite(value) and value > 0

    @pytest.mark.parametrize("load", [1e-3, 0.3, 1.0, 9.803921568627451, 40.0, 1e4])
    def test_equals_the_scipy_gammaln_form(self, load):
        from scipy.special import gammaln

        lm = LoadModel(cell_load=load, nonvoid_prob=0.0)
        r = 2.0 * load / 7.0
        for n in range(6001):
            terms = (gammaln(n + 3.5), -gammaln(n + 1.0), -gammaln(3.5),
                     n * math.log(r), -(n + 3.5) * math.log1p(r))
            expected = math.exp(sum(terms))
            # 1e-12, or where the log-space terms are large (n above about
            # 400) the rounding of their sum, which both forms carry
            tol = max(1e-12, 4.0 * sys.float_info.epsilon * sum(abs(t) for t in terms))
            assert user_count_pmf(lm, n) == pytest.approx(expected, rel=tol, abs=0.0), n

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            user_count_pmf(LoadModel(1.0, 0.5), -1)

    @pytest.mark.parametrize("load", [0.0, 1.0])
    def test_rejects_nan_n(self, load):
        # a NaN count fails the same guard as a negative one, on the
        # empty-network path as well as the log-gamma one
        with pytest.raises(ValueError, match="n must be nonnegative"):
            user_count_pmf(LoadModel(load, 0.5), math.nan)


class TestDecodingThresholds:
    def test_reference_point(self):
        thr = decoding_thresholds(1.0, 0.75)
        assert thr.valid
        assert thr.near_threshold == pytest.approx(4.0, rel=1e-15)
        assert thr.far_threshold == pytest.approx(2.0, rel=1e-15)

    def test_boundary_is_invalid(self):
        thr = decoding_thresholds(1.0, 0.5)
        assert not thr.valid

    def test_all_power_to_far_user(self):
        thr = decoding_thresholds(1.0, 1.0)
        assert thr.valid
        assert thr.far_threshold == pytest.approx(1.0)
        assert math.isinf(thr.near_threshold)

    def test_near_dominates_below_crossover(self):
        # below (1+theta)/(2+theta) the SIC stage is not the bottleneck
        theta = 1.0
        thr = decoding_thresholds(theta, 0.6)
        assert thr.near_threshold == pytest.approx(theta / (0.6 * 2 - 1))
        thr = decoding_thresholds(theta, 0.8)
        assert thr.near_threshold == pytest.approx(theta / (1 - 0.8))

    def test_far_threshold_over_theta_at_least_one(self):
        # y = far_threshold/theta = 1/(beta*(1+theta) - theta) >= 1 for every
        # valid beta <= 1, so the serving tier's lower limit y^(-2/alpha) of the
        # exponential-moment void integral int dt/(t^(alpha/2) - 1) is <= 1 and
        # that integral diverges at t = 1 whenever q < 1; only the subtracted
        # interference kernel of combined_kernel is finite.  Equality at beta = 1
        # holds up to the rounding of (1+theta) - theta.
        valid = 0
        for theta in np.geomspace(1e-3, 1e3, 121):
            for beta in np.linspace(0.0, 1.0, 201):
                thr = decoding_thresholds(float(theta), float(beta))
                if thr.valid:
                    valid += 1
                    assert thr.far_threshold / theta >= 1.0 - 1e-14
        assert valid > 10_000


class TestCoverageNoncoop:
    def test_reference_values(self):
        cov = coverage_noncoop(single_tier(), 0)
        assert cov.near == pytest.approx(0.47457495123878555, abs=1e-9)
        assert cov.far == pytest.approx(0.25386107350497854, abs=1e-9)

    def test_invalid_beta_gives_zero(self):
        cov = coverage_noncoop(single_tier(beta=0.4), 0)
        assert cov == CoveragePair(0.0, 0.0)

    def test_all_power_to_far_kills_near_user(self):
        cov = coverage_noncoop(single_tier(beta=1.0), 0)
        assert cov.near == 0.0
        assert cov.far > 0.0

    def test_near_geq_far_on_grid(self):
        # near-user superiority above the (1+theta)/(2+theta) crossover;
        # checked on the lower half of the admissible range (it provably
        # reverses as beta -> 1, where the near user's power vanishes)
        for theta in (0.5, 1.0, 2.0):
            low = (1 + theta) / (2 + theta)
            for frac in (0.05, 0.25, 0.5):
                beta = low + frac * (1.0 - low)
                for mu in (1e-2, 2e-4, 5e-5):  # q ~ 1, 0.56, 0.23
                    for alpha in (3.0, 4.0):
                        p = NetworkParams(
                            tiers=(TierParams(1.0, 1e-4),), user_intensity=mu,
                            pathloss_exponent=alpha, sir_threshold=theta, beta=(beta,),
                        )
                        cov = coverage_noncoop(p, 0)
                        assert cov.near >= cov.far

    def test_near_superiority_reverses_at_extreme_beta(self):
        # with beta = 0.98 the near user keeps 2% of the power and its
        # own-signal stage dominates; the ordering flips
        cov = coverage_noncoop(single_tier(beta=0.98), 0)
        assert cov.near < cov.far

    def test_decreasing_in_q(self):
        values = []
        for mu in (1e-5, 1e-4, 1e-3, 1e-2):
            p = single_tier(mu=mu)
            values.append(coverage_noncoop(p, 0))
        nears = [v.near for v in values]
        fars = [v.far for v in values]
        assert all(b < a for a, b in zip(nears, nears[1:]))
        assert all(b < a for a, b in zip(fars, fars[1:]))

    def test_bounds_and_power_scale_invariance(self):
        p = two_tier()
        scaled = NetworkParams(
            tiers=tuple(TierParams(t.power_watts * 37.0, t.intensity) for t in p.tiers),
            user_intensity=p.user_intensity, pathloss_exponent=p.pathloss_exponent,
            sir_threshold=p.sir_threshold, beta=p.beta,
        )
        for tier in (0, 1):
            cov = coverage_noncoop(p, tier)
            cov2 = coverage_noncoop(scaled, tier)
            assert 0.0 <= cov.far <= cov.near <= 1.0
            assert cov.near == pytest.approx(cov2.near, rel=1e-12)
            assert cov.far == pytest.approx(cov2.far, rel=1e-12)

    def test_two_tier_frozen_values(self):
        p = two_tier()
        macro = coverage_noncoop(p, 0)
        pico = coverage_noncoop(p, 1)
        assert macro.near == pytest.approx(0.83702266109, abs=1e-9)
        assert macro.far == pytest.approx(0.748966310994, abs=1e-9)
        assert pico.near == pytest.approx(0.462500788299, abs=1e-9)
        assert pico.far == pytest.approx(0.240038290541, abs=1e-9)

    def test_collapse_near_admissibility_boundary(self):
        cov = coverage_noncoop(single_tier(beta=0.5 + 1e-4), 0)
        assert cov.near + cov.far < 0.02


class TestCoverageCoop:
    def test_near_coincides_with_noncoop_in_exact_range(self):
        # for beta >= (1+theta)/(2+theta) both reduce to the theta/(1-beta) kernel
        p = single_tier(beta=0.75)
        assert coverage_coop(p, 0).near == pytest.approx(
            coverage_noncoop(p, 0).near, rel=1e-12
        )

    def test_far_improves_when_cells_are_void(self):
        p = single_tier()  # q = 1 exactly
        ev = KernelEvaluator.from_params(p)
        # with q = 1 the schemes coincide
        assert coverage_coop(p, 0, evaluator=ev).far == pytest.approx(
            coverage_noncoop(p, 0, evaluator=ev).far, rel=1e-12
        )
        # q < 1 across a mu grid: appendix-mode coop beats noncoop
        for mu in (1e-5, 5e-5, 2e-4):
            p = single_tier(mu=mu)
            coop = coverage_coop(p, 0)
            non = coverage_noncoop(p, 0)
            assert coop.far > non.far

    def test_two_tier_frozen_values(self):
        p = two_tier(mu=1e-4)
        macro = coverage_coop(p, 0)
        pico = coverage_coop(p, 1)
        assert macro.far == pytest.approx(0.840054685782, abs=1e-9)
        assert pico.far == pytest.approx(0.384569673352, abs=1e-9)
        assert not macro.extrapolated

    def test_single_tier_frozen_values_at_q_080(self):
        # load solving (1+2L/7)^-3.5 = 0.2 makes q = 0.8; frozen oracle:
        # coop far = 2/((1+0.6*l(2))(2+0.6*l(2))), noncoop with 0.8*l(2)
        L = 3.5 * (0.2 ** (-1.0 / 3.5) - 1.0)
        p = single_tier(mu=L * 1e-4)
        assert cell_load_model(p).nonvoid_prob == pytest.approx(0.8, abs=1e-12)
        coop = coverage_coop(p, 0)
        non = coverage_noncoop(p, 0)
        assert coop.far == pytest.approx(0.39300972642466862, abs=1e-9)
        assert non.far == pytest.approx(0.31198238618102402, abs=1e-9)
        assert coop.far > non.far

    def test_full_void_cancellation_point(self):
        # q = 0.5 and x = y: the combined exponent clamps to zero, far = 1
        theta = 1.0
        # choose mu so that q = 0.5: (1+2L/7)^-3.5 = 0.5
        L = 3.5 * (2 ** (1 / 3.5) - 1.0)
        p = single_tier(mu=L * 1e-4, beta=0.75)
        q = cell_load_model(p).nonvoid_prob
        assert q == pytest.approx(0.5, abs=1e-12)
        cov = coverage_coop(p, 0)
        assert cov.far == pytest.approx(1.0, rel=1e-12)

    def test_extrapolation_flag(self):
        theta = 1.0
        inside = coverage_coop(single_tier(beta=0.75), 0)
        outside = coverage_coop(single_tier(beta=0.6), 0)  # (1+1)/(2+1) = 2/3 > 0.6
        assert not inside.extrapolated
        assert outside.extrapolated
        assert 0.0 <= outside.near <= 1.0 and 0.0 <= outside.far <= 1.0

    def test_invalid_beta_gives_zero(self):
        assert coverage_coop(single_tier(beta=0.3), 0) == CoveragePair(0.0, 0.0)


class TestCoverageCurve:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5, "0.7", True])
    def test_bad_grid_beta_raises_as_with_beta(self, bad):
        p = two_tier()
        with pytest.raises(ConfigError) as expected:
            p.with_beta(bad)
        for scheme in ("noncoop", "coop"):
            with pytest.raises(ConfigError) as raised:
                coverage_curve(p, 1, scheme, [0.6, bad, 0.8])
            assert (raised.value.field, raised.value.message) == (
                expected.value.field, expected.value.message)
            assert "beta" in raised.value.field

    @pytest.mark.parametrize("powers", [(20.0, 1e-320), (1e308, 2.0)])
    @pytest.mark.parametrize("mu", [0.0, 5e-5, 5e-4])
    def test_extreme_power_ratio_gives_no_nan(self, powers, mu):
        # a kernel that overflows to inf must not turn q*inf - (1-q)*inf, or
        # 0*inf at q = 0, into a NaN coverage
        p = NetworkParams(
            tiers=(TierParams(powers[0], 1e-6), TierParams(powers[1], 5e-5)),
            user_intensity=mu, pathloss_exponent=4.0, sir_threshold=1.0, beta=(0.75, 0.75),
        )
        for tier in (0, 1):
            for scheme in ("noncoop", "coop"):
                for pair in coverage_curve(p, tier, scheme, [0.55, 0.75, 1.0]):
                    assert 0.0 <= pair.near <= 1.0 and 0.0 <= pair.far <= 1.0, (tier, scheme)
        if powers[1] == 1e-320:
            # pico users see macro interference 2e321 times their own signal,
            # and q > 1/2 makes the void cells' gain the smaller term: the far
            # user is never covered, unless no BS is active (q = 0)
            for scheme in ("noncoop", "coop"):
                assert coverage_pair(p, 1, scheme).far == (1.0 if mu == 0.0 else 0.0)

    @pytest.mark.parametrize("alpha", [3.5, 4.0])
    def test_power_scale_invariance_across_the_normal_range(self, alpha):
        # 20 W and 2 W times 10^k stay normal floats for k in [-307, 306]; at
        # the top, x*P_k overflows for the kernel arguments of beta = 0.55
        p = two_tier(alpha=alpha)
        betas = [0.55, 0.75, 0.95]
        for k in (-307, -150, -1, 1, 150, 300, 306):
            scaled = NetworkParams(
                tiers=tuple(TierParams(t.power_watts * 10.0**k, t.intensity) for t in p.tiers),
                user_intensity=p.user_intensity, pathloss_exponent=p.pathloss_exponent,
                sir_threshold=p.sir_threshold, beta=p.beta,
            )
            for tier in (0, 1):
                for scheme in ("noncoop", "coop"):
                    base = coverage_curve(p, tier, scheme, betas)
                    other = coverage_curve(scaled, tier, scheme, betas)
                    for a, b in zip(base, other):
                        assert b.near == pytest.approx(a.near, rel=1e-12), (k, tier, scheme)
                        assert b.far == pytest.approx(a.far, rel=1e-12), (k, tier, scheme)


class TestAverageCoverage:
    def test_reference_values(self):
        p = single_tier()
        assert average_coverage(p, 0, "noncoop") == pytest.approx(0.364218012372, abs=1e-9)
        p23 = single_tier(beta=2.0 / 3.0)
        assert average_coverage(p23, 0, "noncoop") == pytest.approx(0.355391366105, abs=1e-9)

    def test_invalid_beta(self):
        assert average_coverage(single_tier(beta=0.4), 0, "noncoop") == 0.0

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match=r"unknown scheme 'other' \(choose from"):
            average_coverage(single_tier(), 0, "other")


class TestOptimizeBeta:
    def test_single_tier_reference_optimum(self):
        # exhaustive 1e-3-grid oracle: beta* = 0.766, value = 0.3644737
        opt = optimize_beta(single_tier(), 0, "noncoop")
        assert opt.beta_star == pytest.approx(0.766, abs=2e-3)
        assert opt.value == pytest.approx(0.3644737, abs=1e-5)
        assert not opt.at_boundary

    def test_dominates_fixed_choices(self):
        for p in (single_tier(), two_tier()):
            for tier in range(p.n_tiers):
                opt = optimize_beta(p, tier, "noncoop")
                for beta in (0.75, 2.0 / 3.0):
                    assert opt.value >= average_coverage(p.with_beta(beta), tier, "noncoop") - 1e-12

    def test_zero_threshold_limit(self):
        p = single_tier(theta=1e-9)
        assert average_coverage(p.with_beta(0.5), 0, "noncoop") == pytest.approx(1.0, abs=1e-4)
        opt = optimize_beta(p, 0, "noncoop")
        assert opt.value == pytest.approx(1.0, abs=1e-4)

    def test_extrapolated_coop_optimum_is_flagged(self):
        # alpha = 3 pushes the pico coop optimum to the lower end of the
        # search range, below (1+theta)/(2+theta) = 2/3
        p = two_tier(alpha=3.0)
        opt = optimize_beta(p, 1, "coop")
        assert opt.beta_star < 2.0 / 3.0
        assert opt.extrapolated
        # noncoop is exact at every beta; the stock alpha = 4 optima lie in range
        assert not optimize_beta(p, 1, "noncoop").extrapolated
        for tier in (0, 1):
            assert not optimize_beta(two_tier(), tier, "coop").extrapolated

    def test_coop_optimum_not_larger_than_noncoop(self):
        # joint transmission lets the far user tolerate a smaller share
        p = single_tier(mu=5e-5)  # q < 1
        non = optimize_beta(p, 0, "noncoop")
        coop = optimize_beta(p, 0, "coop")
        assert coop.beta_star <= non.beta_star + 1e-3
        assert coop.value >= non.value


def reference_search(params, tier, scheme, betas):
    """scan_beta's (averages, optimum) with every value taken from its own
    coverage_pair call: the coarse grid, then golden section."""
    def objective(beta):
        return coverage_pair(params.with_beta(beta), tier, scheme).average

    theta = params.sir_threshold
    lo = theta / (1.0 + theta)
    grid = [lo + (1.0 - lo) * i / BETA_GRID_POINTS for i in range(1, BETA_GRID_POINTS + 1)]
    values = [objective(beta) for beta in grid]
    best = values.index(max(values))
    a = grid[best - 1] if best > 0 else lo + (1.0 - lo) * 1e-12
    b = grid[best + 1] if best + 1 < len(grid) else 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
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
    if values[best] > value:
        beta_star, value = grid[best], values[best]
    optimum = BetaOptimum(beta_star, value, beta_star >= 1.0 - BETA_TOL,
                          scheme == "coop" and beta_star < (1.0 + theta) / (2.0 + theta))
    return tuple(objective(beta) for beta in betas), optimum


def hex_floats(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestScanBeta:
    # the optimize-beta CLI grid
    GRID = [0.5 + 0.5 * i / 32 for i in range(1, 33)]

    @pytest.mark.parametrize("alpha", [3.0, 3.5, 5.0])
    @pytest.mark.parametrize("scheme", ["noncoop", "coop"])
    @pytest.mark.parametrize("tier", [0, 1])
    def test_equals_a_search_over_separate_calls(self, alpha, scheme, tier):
        # the hyp2f1 kernels (alpha != 4), bit for bit
        params = replace(table1_params(), pathloss_exponent=alpha)
        averages, optimum = scan_beta(params, tier, scheme, self.GRID)
        ref_averages, ref_optimum = reference_search(params, tier, scheme, self.GRID)
        assert hex_floats(averages) == hex_floats(ref_averages)
        assert hex_floats(astuple(optimum)) == hex_floats(astuple(ref_optimum))

    @pytest.mark.parametrize("scheme", ["noncoop", "coop"])
    def test_sets_up_once(self, monkeypatch, scheme):
        # one load model per scan, and one check per caller beta: the coarse
        # grid and the golden-section steps repeat neither
        params = replace(table1_params(), pathloss_exponent=3.5)
        calls = {"cell_load_model": 0, "check_beta": 0}
        for name in calls:
            real = getattr(coverage, name)

            def counting(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(coverage, name, counting)
        scan_beta(params, 1, scheme, self.GRID)
        assert calls == {"cell_load_model": 1, "check_beta": len(self.GRID)}

    @pytest.mark.parametrize("scheme", ["noncoop", "coop"])
    @pytest.mark.parametrize("tier", [0, 1])
    def test_hyp2f1_calls_per_scan(self, monkeypatch, tier, scheme):
        # one call for the scan and coarse grid, one per GOLDEN_LOOKAHEAD
        # golden-section evaluations, and one to spare; a search over
        # separate calls makes one per beta
        params = replace(table1_params(), pathloss_exponent=3.5)
        calls = []
        hyp2f1 = kernels._hyp2f1
        monkeypatch.setattr(kernels, "_hyp2f1", lambda: calls.append(None) or hyp2f1())
        reference_search(params, tier, scheme, self.GRID)
        steps = len(calls) - BETA_GRID_POINTS - len(self.GRID)
        assert steps >= 10
        calls.clear()
        scan_beta(params, tier, scheme, self.GRID)
        assert len(calls) <= 1 + math.ceil(steps / GOLDEN_LOOKAHEAD) + 1

    def test_lower_bracket_optimum(self):
        # alpha = 3, pico coop: the best coarse point is the lowest, and the
        # golden section ends on the bracket's lower side, at 0.50004
        params = replace(table1_params(), pathloss_exponent=3.0)
        _, optimum = scan_beta(params, 1, "coop", self.GRID)
        assert 0.5 < optimum.beta_star < 0.5 + 0.5 / BETA_GRID_POINTS
        assert optimum.beta_star == pytest.approx(0.50004, abs=1e-5)


class TestParamsValidation:
    def test_field_errors(self):
        with pytest.raises(ValueError, match="power_watts"):
            TierParams(power_watts=0.0, intensity=1.0)
        with pytest.raises(ValueError, match="intensity"):
            TierParams(power_watts=1.0, intensity=-1.0)
        with pytest.raises(ValueError, match="pathloss_exponent"):
            single_tier(alpha=2.0)
        with pytest.raises(ValueError, match="beta"):
            NetworkParams(
                tiers=(TierParams(1.0, 1.0),), user_intensity=1.0,
                pathloss_exponent=4.0, sir_threshold=1.0, beta=(0.5, 0.5),
            )

    @pytest.mark.parametrize("field, value", [
        ("user_intensity", math.nan),
        ("user_intensity", math.inf),
        ("pathloss_exponent", math.inf),
        ("pathloss_exponent", math.nan),
        ("sir_threshold", math.inf),
        ("intensity", math.inf),
        ("intensity", math.nan),
        ("power_watts", math.inf),
    ])
    def test_non_finite_values_rejected(self, field, value):
        tier = {"power_watts": 1.0, "intensity": 1e-4}
        scenario = {"user_intensity": 1e-4, "pathloss_exponent": 4.0, "sir_threshold": 1.0}
        (tier if field in tier else scenario)[field] = value
        with pytest.raises(ConfigError) as info:
            NetworkParams(tiers=(TierParams(**tier),), beta=(0.75,), **scenario)
        assert info.value.field == field

    def test_tiers_must_be_tier_params(self):
        with pytest.raises(ConfigError) as info:
            NetworkParams(tiers=[{"power_watts": 1.0, "intensity": 1e-4}], user_intensity=1e-4,
                          pathloss_exponent=4.0, sir_threshold=1.0, beta=(0.75,))
        assert info.value.field == "tiers"

    def test_intensity_fractions(self):
        p = two_tier()
        assert sum(p.intensity_fractions) == pytest.approx(1.0, rel=1e-15)
        assert p.intensity_fractions[0] == pytest.approx(1.0 / 51.0, rel=1e-12)
