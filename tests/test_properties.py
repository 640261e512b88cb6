"""Invariants of the closed forms and the config format, as hypothesis properties.

Each property runs on a bounded, derandomized set of examples, so the
suite stays fast and a failure reproduces on every run.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hetnoma.config import dump_config, parse_config
from hetnoma.coverage import (
    NetworkParams,
    TierParams,
    coverage_coop,
    coverage_noncoop,
    decoding_thresholds,
)
from hetnoma.simulate import SCHEMES

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
    for tier in range(params.n_tiers):
        for coverage in (coverage_noncoop, coverage_coop):
            base, other = coverage(params, tier), coverage(scaled, tier)
            for role in ("near", "far"):
                a, b = getattr(base, role), getattr(other, role)
                assert abs(a - b) <= 1e-12 * abs(a), (coverage.__name__, tier, role, a, b)


@PROPERTY
@given(scenarios())
def test_coop_never_below_noncoop(params):
    # combined_kernel <= q*l(x) and theta/(1-beta) <= threshold_near, so
    # cooperation can only lower both exponents
    for tier in range(params.n_tiers):
        if not decoding_thresholds(params.sir_threshold, params.beta[tier]).valid:
            continue
        coop, non = coverage_coop(params, tier), coverage_noncoop(params, tier)
        assert coop.near >= non.near
        assert coop.far >= non.far


@st.composite
def config_dicts(draw):
    n = draw(st.integers(1, 3))
    data = {
        "tiers": [
            {"power_watts": draw(st.floats(0.1, 100.0)), "intensity": draw(st.floats(1e-6, 1e-4))}
            for _ in range(n)
        ],
        # at most 100 users per BS keeps every point within the sampling budget
        "user_intensity": draw(st.floats(0.0, 1e-4)),
        "pathloss_exponent": draw(st.floats(2.1, 6.0)),
        "sir_threshold": draw(st.floats(0.1, 10.0)),
        "beta": draw(st.floats(0.0, 1.0) | st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        "schemes": draw(st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=2,
                                 unique=True)),
        "sweep": {"variable": "beta",
                  "grid": sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=1, max_size=4)))},
        "seed": draw(st.integers(0, 2**63)),
        "n_trials": draw(st.integers(1, 10**6)),
        "n_jobs": draw(st.integers(1, 8)),
    }
    if draw(st.booleans()):
        data["window"] = {"half_width": draw(st.floats(2000.0, 1e4)),
                          "margin": draw(st.floats(1.0, 1000.0))}
    if draw(st.booleans()):
        data["max_cells_per_tier"] = draw(st.integers(1, 1000))
    if draw(st.booleans()):
        data["output"] = draw(st.text(min_size=1, max_size=20))
    if draw(st.booleans()):
        data["kernel_mode"] = "appendix"
    return data


@PROPERTY
@given(config_dicts())
def test_config_round_trip(data):
    cfg = parse_config(data)
    assert parse_config(json.loads(dump_config(cfg))) == cfg
