"""Invariants of the closed forms, as hypothesis properties.

Each property runs on a bounded, derandomized set of examples, so the
suite stays fast and a failure reproduces on every run.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetnoma.coverage import (
    NetworkParams,
    TierParams,
    coverage_curve,
    decoding_thresholds,
)
from hetnoma.simulate import SCHEMES
from hetnoma.sweeps import analytic_pairs

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def scenarios(draw):
    """1-3 tiers, alpha in [2.1, 6], theta in [0.1, 10], any beta in [0, 1]."""
    n = draw(st.integers(1, 3))
    tiers = tuple(
        TierParams(power_watts=draw(st.floats(0.1, 100.0)), intensity=draw(st.floats(1e-7, 1e-3)))
        for _ in range(n)
    )
    return NetworkParams(
        tiers=tiers,
        user_intensity=draw(st.floats(0.0, 1e-2)),
        pathloss_exponent=draw(st.floats(2.1, 6.0)),
        sir_threshold=draw(st.floats(0.1, 10.0)),
        beta=tuple(draw(st.floats(0.0, 1.0)) for _ in range(n)),
    )


@PROPERTY
@given(scenarios(), st.floats(1e-3, 1e3))
def test_common_power_scale_changes_no_coverage(params, scale):
    scaled = NetworkParams(
        tiers=tuple(TierParams(t.power_watts * scale, t.intensity) for t in params.tiers),
        user_intensity=params.user_intensity,
        pathloss_exponent=params.pathloss_exponent,
        sir_threshold=params.sir_threshold,
        beta=params.beta,
    )
    base, other = analytic_pairs(params), analytic_pairs(scaled)
    for key in base:
        for role in ("near", "far"):
            a, b = getattr(base[key], role), getattr(other[key], role)
            assert abs(a - b) <= 1e-12 * abs(a), (key, role, a, b)


@PROPERTY
@given(scenarios())
def test_coop_never_below_noncoop(params):
    # combined_kernel <= q*l(x) and theta/(1-beta) <= threshold_near, so
    # cooperation can only lower both exponents
    pairs = analytic_pairs(params)
    for tier in range(params.n_tiers):
        if not decoding_thresholds(params.sir_threshold, params.beta[tier]).valid:
            continue
        coop, non = pairs[(tier, "coop")], pairs[(tier, "noncoop")]
        assert coop.near >= non.near
        assert coop.far >= non.far


@st.composite
def beta_curves(draw):
    """A scenario and a beta grid for coverage_curve.

    alpha is 3, 3.5, 4 (the arctan tail) or any value in [2.05, 8].  A
    power scale of 1e305 on the last tier takes the other tiers' ratios
    x*P_k/P_m past 1e300, where the tail is C(alpha) - b (b^(alpha/2) <
    1e-300).  The grid holds 0, theta/(1+theta) and values below it (no
    admissible split), 1 (no power for the near user) and random splits.
    """
    n = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e305]))
    tiers = tuple(
        TierParams(power_watts=draw(st.floats(0.1, 100.0)) * (scale if k == n - 1 else 1.0),
                   intensity=draw(st.floats(1e-7, 1e-3)))
        for k in range(n)
    )
    theta = draw(st.floats(0.1, 10.0))
    params = NetworkParams(
        tiers=tiers,
        user_intensity=draw(st.floats(0.0, 1e-2)),
        pathloss_exponent=draw(st.sampled_from([3.0, 3.5, 4.0]) | st.floats(2.05, 8.0)),
        sir_threshold=theta,
        beta=(0.75,) * n,
    )
    lo = theta / (1.0 + theta)
    betas = [0.0, lo, draw(st.floats(0.0, lo)), 1.0]
    betas += draw(st.lists(st.floats(0.0, 1.0), max_size=12))
    return params, draw(st.permutations(betas))


def bits(pairs):
    return [(pair.near.hex(), pair.far.hex(), pair.extrapolated) for pair in pairs]


STOCK = NetworkParams(tiers=(TierParams(20.0, 1e-6), TierParams(2.0, 5e-5)),
                      user_intensity=5e-4, pathloss_exponent=3.5, sir_threshold=1.0,
                      beta=(0.75, 0.75))
STOCK_BETAS = [0.0, 0.25, 0.5, 0.55, 2.0 / 3.0, 0.75, 0.9, 1.0]
# macro kernel arguments x >= theta, so x*P_1/P_0 >= 5e304 > 1e300: the direct tail
DIRECT_TAIL = NetworkParams(tiers=(TierParams(1.0, 1e-4), TierParams(1e305, 1e-5)),
                            user_intensity=1e-4, pathloss_exponent=3.0, sir_threshold=0.5,
                            beta=(0.75, 0.75))


@PROPERTY
@given(beta_curves())
@example((STOCK, STOCK_BETAS))
@example((replace(STOCK, pathloss_exponent=4.0), STOCK_BETAS))
@example((replace(STOCK, pathloss_exponent=3.0), STOCK_BETAS))
@example((DIRECT_TAIL, [0.2, 1.0 / 3.0, 0.5, 0.8, 1.0]))
def test_curve_equals_each_beta_alone(case):
    params, betas = case
    for tier in range(params.n_tiers):
        for scheme in SCHEMES:
            alone = [coverage_curve(params.with_beta(b), tier, scheme, [b])[0] for b in betas]
            assert bits(coverage_curve(params, tier, scheme, betas)) == bits(alone)
