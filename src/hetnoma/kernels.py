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
(KernelEvaluator.combined_kernel and void_exponent).

The tail integral is exact: arctan at a = 4, and at any other a a Gauss
hypergeometric function 2F1(1, p; 1+p; z) (the Andrews-Baccelli-Ganti
kernel), evaluated by scipy.special.hyp2f1.

The kernels take float64 numpy arrays and work elementwise: one
np.arctan or hyp2f1 call per kernel call (_tails), whatever the number
of thresholds, and an element's value does not depend on the other
elements.  Overflow, underflow and division by zero are expected at the
extremes (a threshold of 0 or inf, a power ratio past the float range);
they run under np.errstate and reach the limits 0 and inf, and no
warning escapes.  numpy's float64 power and arctan may round an ulp
away from libm's (Python's math), so the values can differ from a
Python-float evaluation in the last bits.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


@lru_cache(maxsize=1)
def _hyp2f1():
    """scipy.special.hyp2f1, imported on the first call; a cached call is
    about ten times cheaper than an import statement."""
    from scipy.special import hyp2f1

    return hyp2f1


def _series_tail(bounds, alpha):
    """int_b^inf dt/(1+t^(alpha/2)) = s * 2F1(1, 1-2/alpha; 2-2/alpha; -b^(-alpha/2))

    over an array of bounds b at any alpha > 2, with s =
    2*b^(1-alpha/2)/(alpha-2): the integrand's geometric series in
    t^(-alpha/2) integrated term by term, from one hyp2f1 call.  Runs
    under the caller's np.errstate: b = 0 and b = inf reach their limits
    through powers that are inf or 0.  scipy.special is loaded on the
    first call (_hyp2f1), so the alpha = 4 arctan path and `import
    hetnoma` never load it.
    """
    half = alpha / 2.0
    c = 1.0 - 1.0 / half
    args = -(bounds**-half)
    # where b^(alpha/2) < 1e-300 (the 2F1 argument is below -1e300, or -inf)
    # int_0^b is b to double precision, and the 2F1 call gets 0 in its place
    direct = args < -1e300
    some_direct = np.count_nonzero(direct)
    if some_direct:
        args[direct] = 0.0
    tails = 2.0 / (alpha - 2.0) * bounds**(1.0 - half) * _hyp2f1()(1.0, c, 1.0 + c, args)
    if some_direct:
        tails[direct] = full_line_integral(alpha) - bounds[direct]
    return tails


def _tails(bounds, alpha):
    """int_b^inf dt/(1+t^(alpha/2)) over an array of nonnegative bounds b
    of any shape, unchecked, under the caller's np.errstate: one np.arctan
    call at alpha = 4 and one hyp2f1 call elsewhere (_series_tail).  Where
    b^(alpha/2) < 1e-300 (b = 0 included) the tail is C(alpha) - b, and
    at b = inf it is 0."""
    if alpha == 4.0:
        # 1/0 = inf: the tail at b = 0 is pi/2
        return np.arctan(1.0 / bounds)
    return _series_tail(bounds, alpha)


@dataclass(frozen=True)
class KernelEvaluator:
    """Evaluates the per-tier interference kernels of an M-tier network.

    powers[k] is the tier-k transmit power and fractions[k] its share of
    the total base-station intensity (the fractions must sum to one).
    Only power ratios enter the kernels, so scaling every power by a
    common constant changes nothing.

    Both kernels take 1-D float64 arrays of thresholds and return an
    array of their values.  They work elementwise, and an element's value
    does not depend on the others, so one call over many thresholds
    equals one call per threshold, bit for bit.
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
        # P_k and frac_k as columns over the tiers k with a nonzero
        # fraction, in tier order
        present = np.array([(p, f) for p, f in zip(self.powers, self.fractions) if f])
        object.__setattr__(self, "_columns", (present[:, :1], present[:, 1:]))

    @classmethod
    def from_params(cls, params):
        return cls(
            powers=tuple(t.power_watts for t in params.tiers),
            fractions=params.intensity_fractions,
            alpha=params.pathloss_exponent,
        )

    def interference_kernel(self, m, x):
        """Mean-interference kernel of tier m at each normalized threshold in x.

        Nonnegative, zero at x = 0, strictly increasing, and +inf in the
        x -> inf limit.  The terms of every threshold and tier come from
        one tail evaluation (one hyp2f1 call at alpha != 4).  A
        negative or NaN threshold raises ValueError.
        """
        p_m = self.powers[m]
        p_k, frac_k = self._columns
        up = 2.0 / self.alpha
        # 0*inf in P_k/P_m*x is NaN where x is 0 or inf, and never selected
        with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
            product = p_k * x
            ratio = product / p_m
            # a negative or NaN x leaves no product in the normal range either
            normal = (product >= sys.float_info.min) & (product < math.inf)
            if np.count_nonzero(normal) < normal.size:
                if np.count_nonzero(x >= 0.0) < x.size:
                    raise ValueError("kernel argument must be nonnegative")
                # where x*P_k overflows or leaves the normal range, divide the
                # powers first (x = 0 and x = inf keep their limits 0 and
                # inf); elsewhere keep the left-to-right bits
                odd = ~normal & (x > 0.0) & (x < math.inf)
                ratio[odd] = (p_k / p_m * x)[odd]
            # a ratio of 0, or one so near it that its bound overflows, gets
            # the bound inf and the tail 0: the term's x -> 0 limit
            terms = frac_k * ratio**up * _tails(ratio**-up, self.alpha)
        kernels = terms[0]
        for term in terms[1:]:
            kernels = kernels + term
        return kernels

    def combined_kernel(self, m, x, y, nonvoid_prob):
        """Coverage exponent of tier m with void-cell cooperation:

            max(q*interference_kernel(x) - (1-q)*interference_kernel(y), 0)

        and interference_kernel(x) at q = 1, elementwise over two 1-D
        float64 arrays x and y of equal length; both kernels come from one
        interference_kernel call (void_exponent).
        """
        q = nonvoid_prob
        if not 0.0 <= q <= 1.0:
            raise ValueError("nonvoid_prob must lie in [0, 1]")
        if q == 1.0:
            return self.interference_kernel(m, x)
        kernels = self.interference_kernel(m, np.concatenate([x, y]))
        with np.errstate(invalid="ignore"):
            return self.void_exponent(x, y, kernels[:len(x)], kernels[len(x):], q)

    def void_exponent(self, x, y, kernel_x, kernel_y, q):
        """max(q*kernel_x - (1-q)*kernel_y, 0) over arrays, and kernel_x at
        q = 1, where kernel_x and kernel_y are the interference kernels at
        the thresholds x and y, under the caller's np.errstate (inf - inf
        is invalid).  Never NaN: where the difference is inf - inf (both
        kernels overflowed) or 0*inf (q = 0), the kernels' leading terms,
        in proportion q*x^(2/alpha) and (1-q)*y^(2/alpha), decide between
        inf and 0.
        """
        if q == 1.0:
            return kernel_x
        values = q * kernel_x - (1.0 - q) * kernel_y
        undecided = np.isnan(values)
        if np.count_nonzero(undecided):
            up = 2.0 / self.alpha
            leading = q * x[undecided]**up > (1.0 - q) * y[undecided]**up
            values[undecided] = np.where(leading, math.inf, 0.0)
        return np.maximum(values, 0.0)
