"""Interference-kernel and adaptive-quadrature contracts.

Expected values for alpha = 4 come from the arctan closed forms:
    tail integral   int_b^inf dt/(1+t^2)      = atan(1/b)
    kernel          l(x) (single tier)        = sqrt(x) * atan(sqrt(x))
evaluated with an arbitrary-precision library and frozen below.  At other
alpha the kernels use 2F1 forms, checked against QUADPACK (TestQuadOracle).
The array kernel is also checked against a scalar loop over Python floats
(libm_kernel), at extreme arguments and power ratios.
"""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hyp2f1

from hetnoma.coverage import decoding_thresholds
from hetnoma.kernels import (
    KernelEvaluator,
    QuadratureError,
    _series_tail,
    _tails,
    full_line_integral,
    integrate_adaptive,
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


def tail(b, alpha, form=_tails):
    """int_b^inf dt/(1+t^(alpha/2)) at one bound b from the kernels' tail
    routine `form`: _tails (arctan at alpha = 4, else 2F1), or _series_tail
    (the 2F1 form at any alpha).  Runs under the np.errstate the kernels
    hold around it."""
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return float(form(np.array([b], dtype=float), alpha)[0])


def kernel_at(ev, m, x):
    """ev.interference_kernel of tier m at the one threshold x, from a
    one-element float64 array."""
    return float(ev.interference_kernel(m, np.array([x], dtype=float))[0])


def combined_at(ev, m, x, y, q):
    """ev.combined_kernel of tier m at the one pair of thresholds (x, y),
    from one-element float64 arrays."""
    return float(ev.combined_kernel(m, np.array([x], dtype=float), np.array([y], dtype=float),
                                    q)[0])


def base(b, alpha):
    """int_0^b dt/(1+t^(alpha/2)) as C(alpha) minus the 2F1 tail."""
    return full_line_integral(alpha) - tail(b, alpha, _series_tail)


class TestBaseIntegral:
    def test_empty_interval(self):
        assert base(0.0, 4.0) == 0.0
        assert base(0.0, 3.0) == 0.0

    def test_quarter_circle(self):
        assert base(1.0, 4.0) == pytest.approx(math.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("b,expected", sorted(ATAN.items()))
    def test_adaptive_matches_closed_form(self, b, expected):
        assert math.atan(b) == pytest.approx(expected, abs=1e-12)
        assert base(b, 4.0) == pytest.approx(expected, abs=1e-12)
        adaptive = integrate_adaptive(lambda t: 1.0 / (1.0 + t * t), 0.0, b)
        assert adaptive == pytest.approx(expected, abs=1e-9)

    def test_full_line_identity(self):
        # int_0^inf dt/(1+t^2) = pi/2 = (2*pi/4)/sin(2*pi/4)
        assert full_line_integral(4.0) == pytest.approx(math.pi / 2, abs=1e-15)
        big = base(1e8, 4.0)
        assert big == pytest.approx(math.pi / 2, abs=1e-7)

    def test_alpha_three_consistency(self):
        # 2F1 result vs independent high-resolution Simpson oracle
        t = np.linspace(0.0, 2.0, 20001)
        f = 1.0 / (1.0 + t**1.5)
        from scipy.integrate import simpson

        oracle = simpson(f, x=t)
        assert base(2.0, 3.0) == pytest.approx(oracle, abs=1e-8)


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
            assert tail(b, 4.0) == pytest.approx(math.atan(1.0 / b), abs=1e-12)


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
            assert_matches_quad(tail(b, alpha), quad_tail(b, alpha))
            # base + tail = C(alpha), to the tail's accuracy relative to C
            assert base(b, alpha) == pytest.approx(
                quad_base(b, alpha)[0], rel=0.0, abs=QUAD_REL * full_line_integral(alpha))

    @pytest.mark.parametrize("alpha", QUAD_ALPHAS)
    def test_two_tier_interference_kernel(self, alpha):
        powers, frac = (20.0, 2.0), (1 / 51, 50 / 51)
        ev = KernelEvaluator(powers=powers, fractions=frac, alpha=alpha)
        for m in (0, 1):
            kernels = ev.interference_kernel(m, np.array(QUAD_BOUNDS))
            for x, kernel in zip(QUAD_BOUNDS, kernels.tolist()):
                terms = []
                for p_k, f_k in zip(powers, frac):
                    ratio = x * p_k / powers[m]
                    value, err = quad_tail(ratio ** (-2.0 / alpha), alpha)
                    scale = f_k * ratio ** (2.0 / alpha)
                    terms.append((scale * value, scale * err))
                assert_matches_quad(kernel, _sum(*terms))

    def test_extreme_bounds_stay_finite(self):
        # where b^(alpha/2) < 1e-300 the 2F1 argument would overflow, and the
        # tail is C(alpha) - b: int_0^b is b to double precision there
        for alpha in QUAD_ALPHAS + (600.0,):
            for b in (0.0, 1e-300):
                assert tail(b, alpha) == full_line_integral(alpha) - b
        assert tail(0.09, 600.0) == full_line_integral(600.0) - 0.09
        for alpha in (3.0, 600.0):
            for b in (1e-300, 0.09, 1e300):
                assert 0.0 <= tail(b, alpha) <= full_line_integral(alpha)


def test_hyp2f1_forms_match_closed_forms_at_alpha4():
    # 241 points
    bounds = np.geomspace(1e-6, 1e6, 241)
    for b in bounds:
        assert tail(b, 4.0, _series_tail) == pytest.approx(math.atan(1.0 / b), rel=1e-14, abs=0.0)


class TestInterferenceKernel:
    def test_zero_and_infinite_thresholds(self):
        ev = single_tier()
        assert ev.interference_kernel(0, np.array([0.0, math.inf])).tolist() == [0.0, math.inf]

    @pytest.mark.parametrize("x,expected", [
        (1.0, 0.78539816339744831),
        (2.0, 1.3510217177120799),
        (4.0, 2.214297435588181),
    ])
    def test_single_tier_alpha4_oracle(self, x, expected):
        ev = single_tier()
        assert kernel_at(ev, 0, x) == pytest.approx(expected, abs=1e-9)
        assert x**0.5 * tail(x**-0.5, 4.0, _series_tail) == pytest.approx(expected, abs=1e-9)

    def test_monotone_and_continuous(self):
        ev = single_tier(alpha=3.2)
        xs = np.geomspace(1e-3, 1e3, 40)
        vals = ev.interference_kernel(0, xs).tolist()
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # continuity probe: small input change, small output change
        for x in (0.5, 1.0, 7.0):
            lo, hi = ev.interference_kernel(0, np.array([x * (1 - 1e-7), x * (1 + 1e-7)]))
            assert hi - lo == pytest.approx(0.0, abs=1e-5)

    def test_power_scale_invariance(self):
        base = KernelEvaluator(powers=(20.0, 2.0), fractions=(0.3, 0.7), alpha=4.0)
        scaled = KernelEvaluator(powers=(20e3, 2e3), fractions=(0.3, 0.7), alpha=4.0)
        xs = np.array([0.5, 2.0, 9.0])
        for m in (0, 1):
            assert base.interference_kernel(m, xs) == pytest.approx(
                scaled.interference_kernel(m, xs), rel=1e-12
            )

    def test_two_tier_is_fraction_weighted_sum(self):
        frac = (1 / 51, 50 / 51)
        ev = KernelEvaluator(powers=(20.0, 2.0), fractions=frac, alpha=4.0)
        for x in (0.7, 2.0, 4.0):
            expected = frac[0] * math.sqrt(x) * math.atan(math.sqrt(x)) + frac[1] * math.sqrt(
                x / 10
            ) * math.atan(math.sqrt(x / 10))
            assert kernel_at(ev, 0, x) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_list_equals_each_threshold_alone(self, alpha):
        ev = KernelEvaluator(powers=(20.0, 2.0, 1e-3), fractions=(0.1, 0.0, 0.9), alpha=alpha)
        xs = np.array([0.0, 1e-300, 0.3, 2.0, 1e250, math.inf, 7.0])
        for m in range(3):
            assert ev.interference_kernel(m, xs).tolist() == [kernel_at(ev, m, x) for x in xs]
            assert ev.interference_kernel(m, np.array([])).tolist() == []

    @pytest.mark.parametrize("alpha, x", [(3.5, 1e-323), (4.0, 1e-323), (2.01, 1e-309)])
    def test_vanishing_ratio_term_is_zero(self, alpha, x):
        # x*P_1/P_0 underflows to 0 (or, near alpha = 2, its bound overflows):
        # that term is 0, its x -> 0 limit, and the tier-0 term stands alone
        ev = KernelEvaluator(powers=(20.0, 2.0), fractions=(0.5, 0.5), alpha=alpha)
        up = 2.0 / alpha
        assert kernel_at(ev, 0, x) == 0.5 * x**up * tail(x**-up, alpha)
        assert 0.0 <= kernel_at(ev, 1, x) < 1e-300

    def test_validates_fractions(self):
        with pytest.raises(ValueError):
            KernelEvaluator(powers=(1.0, 1.0), fractions=(0.6, 0.6), alpha=4.0)
        with pytest.raises(ValueError):
            KernelEvaluator(powers=(1.0,), fractions=(1.0,), alpha=1.5)


NAN = math.nan


@pytest.mark.parametrize("call, message", [
    (lambda: decoding_thresholds(NAN, 0.75), "sir_threshold must be positive"),
    (lambda: full_line_integral(NAN), "pathloss_exponent must exceed 2"),
    (lambda: kernel_at(single_tier(), 0, NAN), "kernel argument must be nonnegative"),
    (lambda: single_tier(alpha=NAN), "pathloss_exponent must exceed 2"),
    (lambda: KernelEvaluator(powers=(NAN,), fractions=(1.0,), alpha=4.0),
     "tier powers must be positive"),
    (lambda: KernelEvaluator(powers=(1.0, 1.0), fractions=(NAN, 1.0), alpha=4.0),
     "intensity fractions must be nonnegative"),
], ids=["theta", "full_line_alpha", "kernel_x", "evaluator_alpha", "evaluator_power",
        "evaluator_fraction"])
def test_nan_input_rejected(call, message):
    # each range check is written so that NaN fails it like an out-of-range value
    with pytest.raises(ValueError, match=message):
        call()


class TestCombinedKernel:
    def test_q_one_is_mode_independent(self):
        ev = single_tier()
        assert combined_at(ev, 0, 2.0, 2.0, 1.0) == pytest.approx(
            kernel_at(ev, 0, 2.0), rel=1e-12
        )

    def test_appendix_oracle(self):
        ev = single_tier()
        assert combined_at(ev, 0, 2.0, 2.0, 0.8) == pytest.approx(
            0.81061303062724796, abs=1e-12
        )

    def test_half_void_cancellation(self):
        ev = single_tier()
        assert combined_at(ev, 0, 2.0, 2.0, 0.5) == 0.0
        # deeper void fraction stays clamped at zero
        assert combined_at(ev, 0, 2.0, 2.0, 0.3) == 0.0

    def test_appendix_nonincreasing_in_q(self):
        ev = single_tier()
        qs = np.linspace(0.2, 1.0, 9)
        vals = [combined_at(ev, 0, 2.0, 2.0, q) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_list_equals_each_pair_alone(self):
        ev = KernelEvaluator(powers=(20.0, 2.0), fractions=(0.3, 0.7), alpha=3.5)
        xs, ys = np.array([0.5, 2.0, 4.0, 9.0]), np.array([0.5, 1.0, 8.0, 3.0])
        for q in (0.0, 0.4, 0.8, 1.0):
            assert ev.combined_kernel(1, xs, ys, q).tolist() == [
                combined_at(ev, 1, x, y, q) for x, y in zip(xs, ys)]

    @pytest.mark.parametrize("alpha", [3.5, 4.0])
    def test_both_kernels_overflowing_give_their_limit(self, alpha):
        # P_0/P_1 overflows: both kernels of tier 1 are inf, and q*inf - (1-q)*inf
        # is NaN; the limit is inf where q*x^(2/a) > (1-q)*y^(2/a), else 0
        ev = KernelEvaluator(powers=(20.0, 1e-320), fractions=(0.02, 0.98), alpha=alpha)
        assert kernel_at(ev, 1, 2.0) == math.inf
        assert combined_at(ev, 1, 2.0, 2.0, 0.99) == math.inf
        assert combined_at(ev, 1, 2.0, 2.0, 0.5) == 0.0
        assert combined_at(ev, 1, 2.0, 2.0, 0.0) == 0.0
        assert combined_at(ev, 1, 2.0, 1.0, 0.45) == math.inf
        assert combined_at(ev, 1, 1.0, 4.0, 0.6) == 0.0

    def test_rejects_bad_mode_and_q(self):
        ev = single_tier()
        with pytest.raises(ValueError):
            combined_at(ev, 0, 1.0, 1.0, 1.5)


def libm_tail(b, alpha):
    """One tail as the scalar kernels took it: math.atan at alpha = 4,
    else libm powers around a scalar hyp2f1 call."""
    if alpha == 4.0:
        return math.pi / 2.0 if b == 0.0 else math.atan(1.0 / b)
    half = alpha / 2.0
    c = 1.0 - 1.0 / half
    if b < 1.0 and b**half < 1e-300:
        return full_line_integral(alpha) - b
    series = float(hyp2f1(1.0, c, 1.0 + c, -(b**-half)))
    return 2.0 * b**(1.0 - half) / (alpha - 2.0) * series


def libm_kernel(ev, m, x):
    """interference_kernel as the scalar per-element loop computed it, with
    Python floats, libm powers and arctan: the reference of the array
    kernel, which uses numpy's float64 power and arctan."""
    if not x >= 0:
        raise ValueError("kernel argument must be nonnegative")
    if x == math.inf:
        return math.inf
    kernel = 0.0
    p_m = ev.powers[m]
    up, down = 2.0 / ev.alpha, -2.0 / ev.alpha
    for p_k, frac_k in zip(ev.powers, ev.fractions):
        if not frac_k or x == 0.0:
            continue
        product = x * p_k
        ratio = product / p_m if sys.float_info.min <= product < math.inf else x * (p_k / p_m)
        try:
            bound = ratio**down
        except (ZeroDivisionError, OverflowError):
            # the term's x -> 0 limit
            continue
        kernel += frac_k * ratio**up * libm_tail(bound, ev.alpha)
    return kernel


REFERENCE_ARGS = ([0.0, math.inf, 1e-320, 1e308, 0.37, 1.9, 2.0, 7.3, 41.0]
                  + [10.0**k for k in range(-300, 301, 10)])


@pytest.mark.parametrize("powers", [(20.0, 2.0), (20.0, 1e-320), (1e308, 2.0)])
@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0, 5.0])
def test_array_kernel_matches_the_libm_loop(alpha, powers):
    ev = KernelEvaluator(powers=powers, fractions=(1 / 51, 50 / 51), alpha=alpha)
    for m in (0, 1):
        values = ev.interference_kernel(m, np.array(REFERENCE_ARGS))
        for x, value in zip(REFERENCE_ARGS, values.tolist()):
            expected = libm_kernel(ev, m, x)
            if expected in (0.0, math.inf):
                assert value == expected, (m, x)
            else:
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0), (m, x)
        for bad in (-1.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match="kernel argument must be nonnegative"):
                ev.interference_kernel(m, np.array([1.0, bad, 2.0]))
