"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is fixed here; the Monte Carlo budgets are sized
so each check clears its tolerance with at least ~4 sigma of margin at
the frozen seed.
"""

import math
import time

import numpy as np
import pytest

from hetnoma.coverage import (
    NetworkParams,
    TierParams,
    average_coverage,
    cell_load_model,
    optimize_beta,
    user_count_pmf,
)
from hetnoma.kernels import KernelEvaluator, _hyp2f1_tail
from hetnoma.simulate import cell_census, estimates_from_totals, run_trials
from hetnoma.sweeps import DEFAULT_USER_INTENSITY_GRID, analytic_pairs, table1_params

SEED = 20260810
ROLES = ("near", "far")


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def single_tier_q1(beta=0.75, theta=1.0):
    """Single tier with a load so large that q is exactly 1.0."""
    return NetworkParams(
        tiers=(TierParams(power_watts=1.0, intensity=1e-4),),
        user_intensity=1e8,
        pathloss_exponent=4.0,
        sir_threshold=theta,
        beta=(beta,),
    )


def ell_oracle(x):
    """Independent single-tier alpha=4 kernel: sqrt(x)*(pi/2 - atan(1/sqrt(x)))."""
    return math.sqrt(x) * (math.pi / 2.0 - math.atan(1.0 / math.sqrt(x)))


# ---------------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def table1_run():
    """Stock scenario at mu = 5e-4 (criterion 3; also criterion 4's
    saturated-load point, q = 0.9907 >= 0.99)."""
    params = table1_params()
    t0 = time.perf_counter()
    totals = run_trials(params, None, n_trials=380, seed=SEED, max_cells_per_tier=120)
    return params, totals, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sparse_run():
    """Stock scenario at mu = 1e-4, where q = 0.789 leaves many void cells."""
    params = table1_params(user_intensity=1e-4)
    totals = run_trials(params, None, n_trials=120, seed=SEED, max_cells_per_tier=150)
    return params, totals


# ----------------------------------------------------------------- criteria

def test_criterion_1_kernel_oracle():
    ev = KernelEvaluator(powers=(1.0,), fractions=(1.0,), alpha=4.0)
    t0 = time.perf_counter()
    worst = 0.0
    for x in (0.1, 0.5, 1.0, 2.0, 4.0, 10.0, 100.0):
        expected = ell_oracle(x)
        worst = max(worst, abs(ev.interference_kernel(0, x) - expected))
        # the 2F1 form that serves alpha != 4, forced at alpha = 4
        worst = max(worst, abs(x**0.5 * _hyp2f1_tail(x**-0.5, 4.0) - expected))
    elapsed = time.perf_counter() - t0
    report(1, "kernel oracle equivalence",
           worst <= 1e-9 and elapsed < 1.0,
           f"max |delta| = {worst:.2e} (tol 1e-9), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_2_fixed_point_coverages():
    from hetnoma.coverage import coverage_noncoop

    cov = coverage_noncoop(single_tier_q1(), 0)
    err_near = abs(cov.near - 0.474575)
    err_far = abs(cov.far - 0.253861)
    report(2, "closed-form fixed points",
           err_near <= 1e-6 and err_far <= 1e-6,
           f"near = {cov.near:.8f} (|err| {err_near:.1e}), "
           f"far = {cov.far:.8f} (|err| {err_far:.1e}), tol 1e-6")


def test_criterion_3_analytic_vs_monte_carlo(table1_run):
    params, totals, elapsed = table1_run
    pairs = analytic_pairs(params, ("noncoop",))
    gaps = {}
    for est in estimates_from_totals(totals, ("noncoop",)):
        analytic = getattr(pairs[(est.tier, "noncoop")], est.role)
        gaps[(est.tier + 1, est.role)] = abs(analytic - est.p_hat)
    enough = totals.samples.min() >= 10_000
    worst = max(gaps.values())
    report(3, "analytic vs Monte Carlo at stock parameters",
           worst <= 0.03 and enough and elapsed <= 600.0,
           f"max |gap| = {worst:.4f} (tol 0.03), per-tier samples "
           f"{totals.samples.tolist()} (>= 1e4), runtime {elapsed:.0f}s (<= 600s)")


def test_criterion_4_cooperative_improvement(table1_run, sparse_run):
    _, sparse_totals = sparse_run
    est = {(e.tier, e.scheme, e.role): e for e in estimates_from_totals(sparse_totals)}
    non = est[(1, "noncoop", "far")]
    coop = est[(1, "coop", "far")]
    gain = coop.p_hat - non.p_hat
    separated = non.p_hat + non.ci_halfwidth < coop.p_hat - coop.ci_halfwidth

    _, dense_totals, _ = table1_run
    q_dense = cell_load_model(table1_params()).nonvoid_prob
    dense = {(e.tier, e.scheme, e.role): e for e in estimates_from_totals(dense_totals)}
    max_conv = max(
        abs(dense[(t, "coop", r)].p_hat - dense[(t, "noncoop", r)].p_hat)
        for t in (0, 1) for r in ROLES
    )
    report(4, "cooperative far-user improvement and saturation",
           gain >= 0.05 and separated and q_dense >= 0.99 and max_conv <= 0.02,
           f"pico far gain at mu=1e-4: {gain:.4f} (>= 0.05, CIs disjoint: {separated}); "
           f"at q = {q_dense:.4f}, max per-role |coop - noncoop| = {max_conv:.4f} (<= 0.02)")


def test_criterion_5_qualitative_orderings():
    grid = DEFAULT_USER_INTENSITY_GRID
    failures = []
    for point, mu in enumerate(grid):
        params = table1_params(user_intensity=mu)
        # budget: ~1250 macro cells per point regardless of load
        load = cell_load_model(params)
        p_two = 1.0 - user_count_pmf(load, 0) - user_count_pmf(load, 1)
        n_trials = max(40, math.ceil(1250.0 / (29.9 * p_two)))
        totals = run_trials(params, None, n_trials=n_trials, seed=(SEED, point),
                            max_cells_per_tier=120)
        pairs = analytic_pairs(params, ("noncoop",))
        est = {(e.tier, e.role): e.p_hat
               for e in estimates_from_totals(totals, ("noncoop",))}
        for tier in (0, 1):
            if not pairs[(tier, "noncoop")].near >= pairs[(tier, "noncoop")].far:
                failures.append(f"analytic near<far tier{tier+1} mu={mu:.2e}")
            if not est[(tier, "near")] >= est[(tier, "far")]:
                failures.append(f"simulated near<far tier{tier+1} mu={mu:.2e}")
        for role in ROLES:
            if not getattr(pairs[(0, "noncoop")], role) > getattr(pairs[(1, "noncoop")], role):
                failures.append(f"analytic macro<=pico {role} mu={mu:.2e}")
            if not est[(0, role)] > est[(1, role)]:
                failures.append(f"simulated macro<=pico {role} mu={mu:.2e}")
    report(5, "near/far and macro/pico orderings across the sweep",
           not failures,
           f"all orderings hold at {len(grid)} sweep points"
           if not failures else "; ".join(failures))


def test_criterion_6_void_model_consistency():
    params = table1_params()
    census = cell_census(params, None, n_snapshots=100, seed=SEED)
    load = cell_load_model(params)
    void_err = abs(census.void_fraction - (1.0 - load.nonvoid_prob))
    empirical = census.count_histogram / census.count_histogram.sum()
    model = np.array([user_count_pmf(load, n) for n in range(empirical.size)])
    tv = 0.5 * np.abs(empirical - model).sum() + 0.5 * (1.0 - model.sum())
    report(6, "void fraction and cell-load histogram",
           void_err <= 0.01 and tv <= 0.03,
           f"|void - (1-q)| = {void_err:.5f} (tol 0.01), "
           f"TV distance = {tv:.4f} (tol 0.03), {census.n_bs} cells")


def test_criterion_7_scheduled_user_distances():
    # mu chosen inside the stock sweep range where the exponential
    # distance approximation is accurate (see README on its load bias)
    params = table1_params(user_intensity=1.05e-4)
    totals = run_trials(params, None, n_trials=48, seed=SEED)
    lam = params.total_intensity
    n = totals.samples.sum()
    mean_near = totals.sum_near_dist_sq.sum() / n
    mean_far = totals.sum_far_dist_sq.sum() / n
    err_near = abs(mean_near * 2.0 * math.pi * lam - 1.0)
    err_far = abs(mean_far * 2.0 * math.pi * lam / 3.0 - 1.0)
    report(7, "scheduled-user distance moments",
           err_near <= 0.10 and err_far <= 0.10 and n >= 10_000,
           f"E[near^2] off by {err_near:.1%}, E[far^2] off by {err_far:.1%} "
           f"(tol 10%), n = {n} tagged cells (>= 1e4)")


def test_criterion_8_beta_optimizer():
    params = single_tier_q1()
    opt = optimize_beta(params, 0, "noncoop")

    def grid_oracle():
        best_beta, best_val = None, -1.0
        for i in range(501, 1001):
            beta = i / 1000.0
            margin = beta * 2.0 - 1.0
            t_far = 1.0 / margin
            t_near = max(t_far, 1.0 / (1.0 - beta)) if beta < 1.0 else math.inf
            near = 0.0 if math.isinf(t_near) else 2.0 / (2.0 + ell_oracle(t_near))
            k = ell_oracle(t_far)
            val = 0.5 * (near + 2.0 / ((1.0 + k) * (2.0 + k)))
            if val > best_val:
                best_beta, best_val = beta, val
        return best_beta, best_val

    oracle_beta, oracle_val = grid_oracle()
    boundary_avg = average_coverage(single_tier_q1(beta=0.5 + 1e-4), 0, "noncoop")
    ok = (
        abs(opt.beta_star - 0.77) <= 0.02
        and abs(oracle_beta - 0.77) <= 0.02
        and abs(opt.beta_star - oracle_beta) <= 2e-3
        and opt.value >= oracle_val - 1e-9
        and boundary_avg < 0.01
    )
    report(8, "power-allocation optimizer",
           ok,
           f"beta* = {opt.beta_star:.4f} vs grid oracle {oracle_beta:.3f} "
           f"(0.77 +- 0.02); boundary average {boundary_avg:.5f} (< 0.01)")


def test_criterion_9_byte_identical_reruns(tmp_path):
    import json

    from hetnoma.cli import main

    cfg = {
        "tiers": [
            {"power_watts": 20.0, "intensity": 2e-5},
            {"power_watts": 2.0, "intensity": 1.8e-4},
        ],
        "user_intensity": 8e-4,
        "beta": 0.75,
        "seed": SEED,
        "n_trials": 3,
        "window": {"half_width": 500.0},
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("first.csv", "second.csv"):
        out_path = tmp_path / name
        import io

        code = main(["sim", "--config", str(cfg_path), "--out", str(out_path)],
                    out=io.StringIO())
        assert code == 0
        outputs.append(out_path.read_bytes())
    reports = []
    for _ in range(2):
        import io

        buf = io.StringIO()
        assert main(["analytic", "--config", str(cfg_path)], out=buf) == 0
        reports.append(buf.getvalue())
    ok = outputs[0] == outputs[1] and reports[0] == reports[1]
    report(9, "determinism of command re-runs",
           ok,
           f"sim CSV bytes identical: {outputs[0] == outputs[1]}; "
           f"analytic report identical: {reports[0] == reports[1]}")
