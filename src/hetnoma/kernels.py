"""Interference kernels of the multi-tier Poisson coverage model.

The closed-form coverage probabilities compress the whole downlink
interference field into one-dimensional integrals of the form

    interference kernel:  sum_k frac_k * (x*P_k/P_m)^(2/a) *
                          int_{(P_m/(x*P_k))^(2/a)}^inf dt/(1+t^(a/2))

with pathloss exponent a > 2, tier powers P_k and tier intensity
fractions frac_k.  The full-line integral int_0^inf dt/(1+t^(a/2)) is
C(a) = (2*pi/a)/sin(2*pi/a).

The cooperative scheme subtracts the void cells' gain, the same kernel
at the threshold y = far_threshold/theta, and clamps the result at zero
(KernelEvaluator.combined_kernel).

The tail integral is exact: arctan at a = 4, and at any other a a Gauss
hypergeometric function 2F1(1, p; 1+p; z) (the Andrews-Baccelli-Ganti
kernel), evaluated by scipy.special.hyp2f1.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import hyp2f1

# No kernel calls the adaptive quadrature below; perfbench traces integrate_adaptive by name.
DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-8
MAX_SUBDIVISIONS = 2**20


class QuadratureError(RuntimeError):
    """Adaptive integration could not reach the requested tolerance."""

    def __init__(self, message, error_estimate):
        super().__init__(message)
        self.error_estimate = error_estimate


@lru_cache(maxsize=8)
def _gauss_rule(n):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def _panel(f, a, b):
    """Integrate f over [a, b] with the embedded 10/21-node Gauss pair.

    Returns (value, error_estimate) where the estimate is the difference
    between the two rules.  Endpoints are never evaluated, so integrable
    endpoint singularities are tolerated.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x_hi, w_hi = _gauss_rule(21)
    hi = half * float(np.dot(w_hi, f(mid + half * x_hi)))
    x_lo, w_lo = _gauss_rule(10)
    lo = half * float(np.dot(w_lo, f(mid + half * x_lo)))
    return hi, abs(hi - lo)


def integrate_adaptive(f, a, b, abs_tol=DEFAULT_ABS_TOL, rel_tol=DEFAULT_REL_TOL,
                       max_subdivisions=MAX_SUBDIVISIONS):
    """Adaptive bisection quadrature of a vectorized integrand on [a, b].

    The interval with the largest error estimate is split until the summed
    estimate meets max(abs_tol, rel_tol*|integral|).  Raises
    QuadratureError (carrying the achieved estimate) if the budget of
    subdivisions is exhausted first.
    """
    if b <= a:
        return 0.0
    value, err = _panel(f, a, b)
    # heap entries: (-error, tiebreak, a, b, value, error)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    total = value
    total_err = err
    splits = 0
    while total_err > max(abs_tol, rel_tol * abs(total)):
        if splits >= max_subdivisions:
            raise QuadratureError(
                f"adaptive quadrature used {splits} subdivisions without reaching "
                f"tolerance (achieved error estimate {total_err:.3e})",
                total_err,
            )
        _, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        splits += 1
    return total


def full_line_integral(alpha):
    """int_0^inf dt/(1+t^(alpha/2)) = (2*pi/alpha)/sin(2*pi/alpha) for alpha > 2."""
    if not alpha > 2:
        raise ValueError("pathloss_exponent must exceed 2")
    u = 2.0 * math.pi / alpha
    return u / math.sin(u)


def _hyp2f1_tail(b, alpha):
    """int_b^inf dt/(1+t^(alpha/2)) = s * 2F1(1, 1-2/alpha; 2-2/alpha; -b^(-alpha/2))

    at any alpha > 2, with s = 2*b^(1-alpha/2)/(alpha-2): the integrand's
    geometric series in t^(-alpha/2) integrated term by term.  b is one
    bound or a list of them; a list gives a list, from one hyp2f1 call.
    """
    if not alpha > 2:
        raise ValueError("pathloss_exponent must exceed 2")
    bounds = b if isinstance(b, list) else [b]
    half = alpha / 2.0
    c = 1.0 - 1.0 / half
    rise, drop, span = -half, 1.0 - half, alpha - 2.0
    full = full_line_integral(alpha)
    # where b^(alpha/2) < 1e-300 the 2F1 argument would overflow; int_0^b is
    # then b to double precision, and the 2F1 call gets 0 in its place
    direct = [v < 1.0 and v**half < 1e-300 for v in bounds]
    series = hyp2f1(1.0, c, 1.0 + c, [0.0 if d else -(v**rise) for v, d in zip(bounds, direct)])
    tails = [full - v if d else 2.0 * v**drop / span * s
             for v, d, s in zip(bounds, direct, series.tolist())]
    return tails if bounds is b else tails[0]


def tail_integral(b, alpha):
    """int_b^inf dt/(1+t^(alpha/2)) for b >= 0, alpha > 2 (arctan at alpha = 4).

    b is one bound or a list of them (then a list, from one hyp2f1 call).
    Small tails (large b) are evaluated directly, so they keep their
    relative accuracy.  Where b^(alpha/2) < 1e-300 (b = 0 included) the
    tail is C(alpha) - b.
    """
    bounds = b if isinstance(b, list) else [b]
    if not all([v >= 0 for v in bounds]):
        raise ValueError("integration bound b must be nonnegative")
    if alpha == 4.0:
        tails = [math.pi / 2.0 if v == 0.0 else math.atan(1.0 / v) for v in bounds]
        return tails if bounds is b else tails[0]
    return _hyp2f1_tail(b, alpha)


@dataclass(frozen=True)
class KernelEvaluator:
    """Evaluates the per-tier interference kernels of an M-tier network.

    powers[k] is the tier-k transmit power and fractions[k] its share of
    the total base-station intensity (the fractions must sum to one).
    Only power ratios enter the kernels, so scaling every power by a
    common constant changes nothing.
    """

    powers: tuple
    fractions: tuple
    alpha: float

    def __post_init__(self):
        if len(self.powers) != len(self.fractions) or not self.powers:
            raise ValueError("powers and fractions must be equal-length, nonempty")
        if not self.alpha > 2:
            raise ValueError("pathloss_exponent must exceed 2")
        if any(not p > 0 for p in self.powers):
            raise ValueError("tier powers must be positive")
        if any(not f >= 0 for f in self.fractions):
            raise ValueError("intensity fractions must be nonnegative")
        if not abs(sum(self.fractions) - 1.0) <= 1e-9:
            raise ValueError("intensity fractions must sum to 1")

    @classmethod
    def from_params(cls, params):
        return cls(
            powers=tuple(t.power_watts for t in params.tiers),
            fractions=params.intensity_fractions,
            alpha=params.pathloss_exponent,
        )

    def interference_kernel(self, m, x):
        """Mean-interference kernel of tier m at normalized threshold x.

        Nonnegative, zero at x = 0, strictly increasing, and +inf in the
        x -> inf limit.  x is one threshold or a list of them; a list gives
        a list, and the terms of all its entries come from one
        tail_integral call (one hyp2f1 call at alpha != 4).
        """
        xs = x if isinstance(x, list) else [x]
        if not all([v >= 0 for v in xs]):
            raise ValueError("kernel argument must be nonnegative")
        p_m = self.powers[m]
        up, down = 2.0 / self.alpha, -2.0 / self.alpha
        terms = [(p_k, frac_k) for p_k, frac_k in zip(self.powers, self.fractions) if frac_k]
        kernels = [math.inf if v == math.inf else 0.0 for v in xs]
        where, weights, bounds = [], [], []
        for i, v in enumerate(xs):
            if not 0.0 < v < math.inf:
                continue
            for p_k, frac_k in terms:
                ratio = v * p_k / p_m
                try:
                    bound = ratio**down
                except (ZeroDivisionError, OverflowError):
                    # ratio is 0 or so near it that its bound overflows: the
                    # term takes its x -> 0 limit, 0 (it is below 1e-290)
                    continue
                where.append(i)
                weights.append(frac_k * ratio**up)
                bounds.append(bound)
        for i, weight, tail in zip(where, weights, tail_integral(bounds, self.alpha)):
            kernels[i] += weight * tail
        return kernels if xs is x else kernels[0]

    def combined_kernel(self, m, x, y, nonvoid_prob):
        """Coverage exponent of tier m with void-cell cooperation:

            max(q*interference_kernel(x) - (1-q)*interference_kernel(y), 0)

        and interference_kernel(x) at q = 1.  x and y are one threshold
        each, or two lists of equal length (then a list, from one
        interference_kernel call).  Never NaN: where the difference is
        inf - inf (both kernels overflowed) or 0*inf (q = 0), the kernels'
        leading terms, in proportion q*x^(2/alpha) and (1-q)*y^(2/alpha),
        decide between inf and 0.
        """
        q = nonvoid_prob
        if not 0.0 <= q <= 1.0:
            raise ValueError("nonvoid_prob must lie in [0, 1]")
        if q == 1.0:
            return self.interference_kernel(m, x)
        xs, ys = (x, y) if isinstance(x, list) else ([x], [y])
        kernels = self.interference_kernel(m, xs + ys)
        n = len(xs)
        up = 2.0 / self.alpha
        values = []
        for vx, vy, kx, ky in zip(xs, ys, kernels[:n], kernels[n:]):
            value = q * kx - (1.0 - q) * ky
            if math.isnan(value):
                value = math.inf if q * vx**up > (1.0 - q) * vy**up else 0.0
            values.append(max(value, 0.0))
        return values if xs is x else values[0]
