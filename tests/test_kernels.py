"""Interference-kernel and adaptive-quadrature contracts.

Expected values for alpha = 4 come from the arctan closed forms:
    base integral   int_0^b dt/(1+t^2)        = atan(b)
    kernel          l(x) (single tier)        = sqrt(x) * atan(sqrt(x))
evaluated with an arbitrary-precision library and frozen below.  At other
alpha the kernels use 2F1 forms, checked against QUADPACK (TestQuadOracle).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hetnoma.coverage import decoding_thresholds
from hetnoma.kernels import (
    KernelEvaluator,
    QuadratureError,
    _hyp2f1_form,
    base_integral,
    full_line_integral,
    integrate_adaptive,
    tail_integral,
)

ATAN = {
    0.01: 0.0099996666866652382,
    0.1: 0.099668652491162027,
    0.5: 0.46364760900080612,
    1.0: 0.78539816339744831,
    2.0: 1.1071487177940905,
    10.0: 1.4711276743037346,
    100.0: 1.5607966601082314,
}


def single_tier(alpha=4.0, **kw):
    return KernelEvaluator(powers=(1.0,), fractions=(1.0,), alpha=alpha, **kw)


class TestBaseIntegral:
    def test_empty_interval(self):
        assert base_integral(0.0, 4.0) == 0.0
        assert base_integral(0.0, 3.0) == 0.0

    def test_quarter_circle(self):
        assert base_integral(1.0, 4.0) == pytest.approx(math.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("b,expected", sorted(ATAN.items()))
    def test_adaptive_matches_closed_form(self, b, expected):
        assert base_integral(b, 4.0) == pytest.approx(expected, abs=1e-12)
        assert _hyp2f1_form("base", b, 4.0) == pytest.approx(expected, abs=1e-12)
        adaptive = integrate_adaptive(lambda t: 1.0 / (1.0 + t * t), 0.0, b)
        assert adaptive == pytest.approx(expected, abs=1e-9)

    def test_full_line_identity(self):
        # int_0^inf dt/(1+t^2) = pi/2 = (2*pi/4)/sin(2*pi/4)
        assert full_line_integral(4.0) == pytest.approx(math.pi / 2, abs=1e-15)
        big = base_integral(1e8, 4.0)
        assert big == pytest.approx(math.pi / 2, abs=1e-7)

    def test_alpha_three_consistency(self):
        # 2F1 result vs independent high-resolution Simpson oracle
        t = np.linspace(0.0, 2.0, 20001)
        f = 1.0 / (1.0 + t**1.5)
        from scipy.integrate import simpson

        oracle = simpson(f, x=t)
        assert base_integral(2.0, 3.0) == pytest.approx(oracle, abs=1e-8)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            base_integral(-1.0, 4.0)
        with pytest.raises(ValueError):
            base_integral(1.0, 2.0)
        with pytest.raises(ValueError):
            tail_integral(1.0, 2.0)


class TestAdaptiveIntegrator:
    def test_tolerance_failure_is_reported(self):
        # integrable singularity plus an absurdly small budget
        with pytest.raises(QuadratureError) as info:
            integrate_adaptive(
                lambda t: 1.0 / np.sqrt(np.abs(t)), 0.0, 1.0,
                abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=4,
            )
        assert info.value.error_estimate > 0

    def test_smooth_integrand(self):
        assert integrate_adaptive(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, abs=1e-12)


class TestTailIntegral:
    def test_matches_complement(self):
        for b in (0.3, 1.0, 4.0, 50.0):
            assert tail_integral(b, 4.0) == pytest.approx(math.atan(1.0 / b), abs=1e-12)
            direct = full_line_integral(3.0) - base_integral(b, 3.0)
            assert tail_integral(b, 3.0) == pytest.approx(direct, abs=1e-13)


# Relative tolerance of the 2F1 forms against QUADPACK; every oracle value
# must carry a QUADPACK error estimate 100x below it.
QUAD_REL = 1e-10
QUAD_ALPHAS = (2.05, 2.5, 3.0, 3.5, 5.0, 8.0)
QUAD_BOUNDS = tuple(np.geomspace(1e-6, 1e6, 13))


def _quad(f, lo, hi, **kw):
    return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200, **kw)


def _quad_inverted(b, alpha, sign):
    """int_b^inf dt/(t^(alpha/2) + sign), b >= 1, with t = 1/u: the algebraic
    weight u^(alpha/2-2) on [0, 1/b] goes to QUADPACK's QAWS rule."""
    half = alpha / 2.0
    return _quad(lambda u: 1.0 / (1.0 + sign * u**half), 0.0, 1.0 / b,
                 weight="alg", wvar=(half - 2.0, 0.0))


def _quad_log(lo, hi, alpha):
    """int_lo^hi dt/(1+t^(alpha/2)) with t = e^s (smooth, bounded integrand)."""
    half = alpha / 2.0
    return _quad(lambda s: math.exp(s) / (1.0 + math.exp(half * s)), math.log(lo), math.log(hi))


def _sum(*parts):
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


def quad_tail(b, alpha):
    if b >= 1.0:
        return _quad_inverted(b, alpha, 1.0)
    return _sum(_quad_log(b, 1.0, alpha), _quad_inverted(1.0, alpha, 1.0))


def quad_base(b, alpha):
    head = _quad(lambda t: 1.0 / (1.0 + t ** (alpha / 2.0)), 0.0, min(b, 1.0))
    return head if b <= 1.0 else _sum(head, _quad_log(1.0, b, alpha))


def assert_matches_quad(value, oracle):
    expected, err = oracle
    assert err <= 0.01 * QUAD_REL * abs(expected)
    assert value == pytest.approx(expected, rel=QUAD_REL, abs=0.0)


class TestQuadOracle:
    """The alpha != 4 kernels against QUADPACK, which shares no code with 2F1."""

    @pytest.mark.parametrize("alpha", QUAD_ALPHAS)
    def test_base_and_tail(self, alpha):
        for b in QUAD_BOUNDS:
            assert_matches_quad(base_integral(b, alpha), quad_base(b, alpha))
            assert_matches_quad(tail_integral(b, alpha), quad_tail(b, alpha))

    @pytest.mark.parametrize("alpha", QUAD_ALPHAS)
    def test_two_tier_interference_kernel(self, alpha):
        powers, frac = (20.0, 2.0), (1 / 51, 50 / 51)
        ev = KernelEvaluator(powers=powers, fractions=frac, alpha=alpha)
        for m in (0, 1):
            for x in QUAD_BOUNDS:
                terms = []
                for p_k, f_k in zip(powers, frac):
                    ratio = x * p_k / powers[m]
                    value, err = quad_tail(ratio ** (-2.0 / alpha), alpha)
                    scale = f_k * ratio ** (2.0 / alpha)
                    terms.append((scale * value, scale * err))
                assert_matches_quad(ev.interference_kernel(m, x), _sum(*terms))

    def test_extreme_bounds_stay_finite(self):
        # where the 2F1 argument would overflow, base + tail = C(alpha) takes over
        for alpha in (3.0, 600.0):
            for b in (1e-300, 0.09, 1e300):
                assert base_integral(b, alpha) + tail_integral(b, alpha) == pytest.approx(
                    full_line_integral(alpha), rel=1e-15
                )
        assert tail_integral(1e-300, 3.0) == full_line_integral(3.0)
        assert base_integral(1e-300, 3.0) == 1e-300


def test_hyp2f1_forms_match_closed_forms_at_alpha4():
    # 241 + 241 points
    bounds = np.geomspace(1e-6, 1e6, 241)
    for b in bounds:
        assert _hyp2f1_form("base", b, 4.0) == pytest.approx(math.atan(b), rel=1e-14, abs=0.0)
        assert _hyp2f1_form("tail", b, 4.0) == pytest.approx(math.atan(1.0 / b), rel=1e-14, abs=0.0)


class TestInterferenceKernel:
    def test_zero_and_infinite_thresholds(self):
        ev = single_tier()
        assert ev.interference_kernel(0, 0.0) == 0.0
        assert ev.interference_kernel(0, math.inf) == math.inf

    @pytest.mark.parametrize("x,expected", [
        (1.0, 0.78539816339744831),
        (2.0, 1.3510217177120799),
        (4.0, 2.214297435588181),
    ])
    def test_single_tier_alpha4_oracle(self, x, expected):
        ev = single_tier()
        assert ev.interference_kernel(0, x) == pytest.approx(expected, abs=1e-9)
        assert x**0.5 * _hyp2f1_form("tail", x**-0.5, 4.0) == pytest.approx(expected, abs=1e-9)

    def test_monotone_and_continuous(self):
        ev = single_tier(alpha=3.2)
        xs = np.geomspace(1e-3, 1e3, 40)
        vals = [ev.interference_kernel(0, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # continuity probe: small input change, small output change
        for x in (0.5, 1.0, 7.0):
            lo = ev.interference_kernel(0, x * (1 - 1e-7))
            hi = ev.interference_kernel(0, x * (1 + 1e-7))
            assert hi - lo == pytest.approx(0.0, abs=1e-5)

    def test_power_scale_invariance(self):
        base = KernelEvaluator(powers=(20.0, 2.0), fractions=(0.3, 0.7), alpha=4.0)
        scaled = KernelEvaluator(powers=(20e3, 2e3), fractions=(0.3, 0.7), alpha=4.0)
        for m in (0, 1):
            for x in (0.5, 2.0, 9.0):
                assert base.interference_kernel(m, x) == pytest.approx(
                    scaled.interference_kernel(m, x), rel=1e-12
                )

    def test_two_tier_is_fraction_weighted_sum(self):
        frac = (1 / 51, 50 / 51)
        ev = KernelEvaluator(powers=(20.0, 2.0), fractions=frac, alpha=4.0)
        for x in (0.7, 2.0, 4.0):
            expected = frac[0] * math.sqrt(x) * math.atan(math.sqrt(x)) + frac[1] * math.sqrt(
                x / 10
            ) * math.atan(math.sqrt(x / 10))
            assert ev.interference_kernel(0, x) == pytest.approx(expected, abs=1e-12)

    def test_validates_fractions(self):
        with pytest.raises(ValueError):
            KernelEvaluator(powers=(1.0, 1.0), fractions=(0.6, 0.6), alpha=4.0)
        with pytest.raises(ValueError):
            KernelEvaluator(powers=(1.0,), fractions=(1.0,), alpha=1.5)


NAN = math.nan


@pytest.mark.parametrize("call, message", [
    (lambda: decoding_thresholds(NAN, 0.75), "sir_threshold must be positive"),
    (lambda: base_integral(NAN, 3.5), "bound b must be nonnegative"),
    (lambda: base_integral(NAN, 4.0), "bound b must be nonnegative"),
    (lambda: tail_integral(NAN, 3.5), "bound b must be nonnegative"),
    (lambda: tail_integral(NAN, 4.0), "bound b must be nonnegative"),
    (lambda: base_integral(1.0, NAN), "pathloss_exponent must exceed 2"),
    (lambda: full_line_integral(NAN), "pathloss_exponent must exceed 2"),
    (lambda: single_tier().interference_kernel(0, NAN), "kernel argument must be nonnegative"),
    (lambda: single_tier(alpha=NAN), "pathloss_exponent must exceed 2"),
    (lambda: KernelEvaluator(powers=(NAN,), fractions=(1.0,), alpha=4.0),
     "tier powers must be positive"),
    (lambda: KernelEvaluator(powers=(1.0, 1.0), fractions=(NAN, 1.0), alpha=4.0),
     "intensity fractions must be nonnegative"),
], ids=["theta", "base_b", "base_b_alpha4", "tail_b", "tail_b_alpha4", "base_alpha",
        "full_line_alpha", "kernel_x", "evaluator_alpha", "evaluator_power", "evaluator_fraction"])
def test_nan_input_rejected(call, message):
    # each range check is written so that NaN fails it like an out-of-range value
    with pytest.raises(ValueError, match=message):
        call()


class TestCombinedKernel:
    def test_q_one_is_mode_independent(self):
        ev = single_tier()
        assert ev.combined_kernel(0, 2.0, 2.0, 1.0) == pytest.approx(
            ev.interference_kernel(0, 2.0), rel=1e-12
        )

    def test_appendix_oracle(self):
        ev = single_tier()
        assert ev.combined_kernel(0, 2.0, 2.0, 0.8) == pytest.approx(
            0.81061303062724796, abs=1e-12
        )

    def test_half_void_cancellation(self):
        ev = single_tier()
        assert ev.combined_kernel(0, 2.0, 2.0, 0.5) == 0.0
        # deeper void fraction stays clamped at zero
        assert ev.combined_kernel(0, 2.0, 2.0, 0.3) == 0.0

    def test_appendix_nonincreasing_in_q(self):
        ev = single_tier()
        qs = np.linspace(0.2, 1.0, 9)
        vals = [ev.combined_kernel(0, 2.0, 2.0, q) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_mode_and_q(self):
        ev = single_tier()
        with pytest.raises(ValueError):
            ev.combined_kernel(0, 1.0, 1.0, 1.5)
