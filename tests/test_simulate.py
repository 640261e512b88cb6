"""Monte Carlo core: snapshots, scheduling, SIR events, estimators.

Structural tests run on a scaled-down single-tier network (the physics
is scale-free); the full stock-scenario validation lives in
test_acceptance.py.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from hetnoma.coverage import NetworkParams, TierParams, cell_load_model
from hetnoma import simulate
from hetnoma.geometry import Window
from hetnoma.simulate import (
    _STREAM_CELL,
    SCHEMES,
    CoverageEstimate,
    SimulationError,
    TrialTotals,
    _stream,
    build_snapshot,
    cell_census,
    check_point_budget,
    estimate_coverage,
    estimates_from_totals,
    evaluate_coop,
    evaluate_noncoop,
    run_single_trial,
    run_trials,
    schedule_noma_users,
    snapshot_from_points,
)
from hetnoma.sweeps import table1_params

TOY_WINDOW = Window(half_width=500.0, margin=120.0)


def toy_params(mu=8e-4, beta=0.75, theta=1.0):
    """~200 BSs per snapshot; defaults give cell load L = 4."""
    return NetworkParams(
        tiers=(TierParams(power_watts=1.0, intensity=2e-4),),
        user_intensity=mu,
        pathloss_exponent=4.0,
        sir_threshold=theta,
        beta=(beta,),
    )


def lone_cell_snapshot(beta=0.75, extra_bs=(), n_users=2, theta=1.0):
    """One serving BS at the origin with users nearby; optional far-away
    BSs that no user selects (they stay void)."""
    params = NetworkParams(
        tiers=(TierParams(power_watts=1.0, intensity=1e-4),),
        user_intensity=1e-4,
        pathloss_exponent=4.0,
        sir_threshold=theta,
        beta=(beta,),
    )
    users = [[10.0 + 5.0 * k, 0.0] for k in range(n_users)]
    bs = [[0.0, 0.0]] + [list(b) for b in extra_bs]
    window = Window(half_width=4000.0, margin=10.0)
    return params, snapshot_from_points(params, window, [bs], users)


class TestBuildSnapshot:
    def test_deterministic(self):
        p = toy_params()
        a = build_snapshot(p, TOY_WINDOW, seed=5, trial=3)
        b = build_snapshot(p, TOY_WINDOW, seed=5, trial=3)
        assert np.array_equal(a.bs_xy, b.bs_xy)
        assert np.array_equal(a.users.xy, b.users.xy)
        assert np.array_equal(a.assoc.serving, b.assoc.serving)
        c = build_snapshot(p, TOY_WINDOW, seed=5, trial=4)
        assert not np.array_equal(a.bs_xy, c.bs_xy)

    def test_no_users_all_void(self):
        snap = build_snapshot(toy_params(mu=0.0), TOY_WINDOW, seed=1, trial=0)
        assert not snap.nonvoid.any()
        assert len(snap.tagged_cells()) == 0

    def test_empty_window_fails(self):
        p = NetworkParams(
            tiers=(TierParams(1.0, 1e-12),), user_intensity=0.0,
            pathloss_exponent=4.0, sir_threshold=1.0, beta=(1.0,),
        )
        with pytest.raises(SimulationError):
            build_snapshot(p, Window(10.0, 1.0), seed=0, trial=0)

    def test_oversized_scenario_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the point count")

        monkeypatch.setattr(simulate, "sample_ppp", no_sampling)
        # 10 users/m^2 on the 1e6 m^2 toy window: 1e7 expected points
        with pytest.raises(ValueError, match="1e\\+07 points in expectation"):
            build_snapshot(toy_params(mu=10.0), TOY_WINDOW, seed=0, trial=0)
        with pytest.raises(ValueError, match="above the simulator's limit"):
            check_point_budget(table1_params(user_intensity=1.0))
        check_point_budget(table1_params(user_intensity=2e-3))  # 78k points: allowed

    def test_void_fraction_tracks_load_model(self):
        p = toy_params()
        q = cell_load_model(p).nonvoid_prob
        void = total = 0
        for trial in range(60):
            snap = build_snapshot(p, TOY_WINDOW, seed=9, trial=trial)
            inner = snap.window.contains(snap.bs_xy, inner=True)
            counts = snap.assoc.counts[inner]
            void += int((counts == 0).sum())
            total += counts.size
        assert void / total == pytest.approx(1.0 - q, abs=0.02)


class TestScheduleNomaUsers:
    def test_orders_near_before_far(self):
        _, snap = lone_cell_snapshot(n_users=2)
        cell = schedule_noma_users(snap, 0)
        assert cell.distances[0] == pytest.approx(10.0)
        assert cell.distances[1] == pytest.approx(15.0)
        assert cell.distances[0] < cell.distances[1]

    def test_too_few_users_gives_none(self):
        _, snap = lone_cell_snapshot(n_users=1)
        assert schedule_noma_users(snap, 0) is None
        _, snap0 = lone_cell_snapshot(n_users=2, extra_bs=[[3000.0, 0.0]])
        assert schedule_noma_users(snap0, 1) is None  # void BS

    def test_deterministic_per_cell(self):
        _, snap = lone_cell_snapshot(n_users=6)
        a = schedule_noma_users(snap, 0)
        b = schedule_noma_users(snap, 0)
        assert np.array_equal(a.user_indices, b.user_indices)
        assert np.array_equal(a.link_gains, b.link_gains)

    def test_received_powers_match_reference_loop(self):
        # sum each BS's contribution at each receiver one by one: the
        # serving BS is skipped, the rest split by whether they transmit;
        # the serving fades are redrawn from the cell's own substream.
        # Squared link distances are the same float operations in plain
        # Python, so they must agree exactly.
        p = toy_params(mu=2e-4)
        snap = build_snapshot(p, TOY_WINDOW, seed=11, trial=0)
        alpha = p.pathloss_exponent
        for b in snap.tagged_cells()[:10]:
            cell = schedule_noma_users(snap, b)
            rng = _stream(snap.seed, snap.trial, _STREAM_CELL, int(b))
            rng.choice(int(snap.assoc.counts[b]), size=2, replace=False)
            fades = rng.standard_exponential(2)
            for r in range(2):
                ux, uy = snap.users.xy[cell.user_indices[r]].tolist()
                interference = void_signal = 0.0
                for j in range(snap.n_bs):
                    bx, by = snap.bs_xy[j].tolist()
                    assert cell.link_dist_sq[r, j] == (bx - ux) * (bx - ux) + (by - uy) * (by - uy)
                    if j == b:
                        continue
                    power = (snap.bs_power[j] * cell.link_gains[r, j]
                             * cell.link_dist_sq[r, j] ** (-alpha / 2.0))
                    if snap.nonvoid[j]:
                        interference += power
                    else:
                        void_signal += power
                d = math.dist(snap.users.xy[cell.user_indices[r]], snap.bs_xy[b])
                desired = p.tiers[0].power_watts * fades[r] * d ** (-alpha)
                assert cell.desired[r] == pytest.approx(desired, rel=1e-12)
                assert cell.interference[r] == pytest.approx(interference, rel=1e-12)
                assert cell.void_signal[r] == pytest.approx(void_signal, rel=1e-12)

    def test_pair_choice_uniform(self):
        # 5 users -> 10 unordered pairs, chi-square over 1e4 independent draws
        _, snap = lone_cell_snapshot(n_users=5)
        counts = {}
        for trial in range(10_000):
            cell = schedule_noma_users(dataclasses.replace(snap, trial=trial), 0)
            key = tuple(sorted(cell.user_indices.tolist()))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        result = chisquare(list(counts.values()))
        assert result.pvalue > 0.01


class TestEvaluateEvents:
    def test_interference_free_good_beta(self):
        _, snap = lone_cell_snapshot(beta=0.75)
        cell = schedule_noma_users(snap, 0)
        s = evaluate_noncoop(cell, theta=1.0, beta_m=0.75)
        assert np.all(cell.interference == 0.0)
        assert s.near_first_stage_ok and s.near_sic_ok and s.near_covered
        assert s.far_covered

    def test_interference_free_bad_beta(self):
        # beta below theta/(1+theta): the far signal is undecodable even
        # with zero interference, at both users
        _, snap = lone_cell_snapshot(beta=0.4)
        cell = schedule_noma_users(snap, 0)
        s = evaluate_noncoop(cell, theta=1.0, beta_m=0.4)
        assert not s.far_covered
        assert not s.near_first_stage_ok
        assert not s.near_covered

    def test_void_bs_cooperation_rescues_far_user(self):
        # a ring of void BSs just outside the far user's association radius:
        # noncoop far fails at beta=0.4, coop far succeeds once the joint
        # signal dominates
        ring = [
            [15.0 + 16.2 * np.cos(a), 16.2 * np.sin(a)]
            for a in np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
        ]
        _, snap = lone_cell_snapshot(beta=0.4, extra_bs=ring)
        cell = schedule_noma_users(snap, 0)
        non = evaluate_noncoop(cell, theta=1.0, beta_m=0.4)
        coop = evaluate_coop(cell, theta=1.0, beta_m=0.4)
        assert not non.far_covered
        assert cell.void_signal[1] > 0.0  # void signal at the far user
        assert coop.far_covered

    def test_coop_dominates_per_sample(self):
        p = toy_params(mu=2e-4)  # q ~ 0.56, plenty of void cells
        snap = build_snapshot(p, TOY_WINDOW, seed=11, trial=0)
        cells = snap.tagged_cells()
        assert len(cells) > 10
        for b in cells:
            cell = schedule_noma_users(snap, b)
            non = evaluate_noncoop(cell, 1.0, 0.75)
            coop = evaluate_coop(cell, 1.0, 0.75)
            assert coop.near_covered >= non.near_covered
            assert coop.far_covered >= non.far_covered
            assert non.near_covered == (non.near_first_stage_ok and non.near_sic_ok)
            assert cell.interference[0] > 0.0  # non-void interferers exist here
            assert cell.void_signal[0] >= 0.0

    def test_same_serving_fade_for_both_signal_shares(self):
        # the near user's two decoding stages share one serving-link fade:
        # with no interference the first stage outcome is fading-free
        for trial in range(25):
            _, snap = lone_cell_snapshot(beta=0.55)
            cell = schedule_noma_users(dataclasses.replace(snap, trial=trial), 0)
            s = evaluate_noncoop(cell, theta=1.0, beta_m=0.55)
            assert s.near_first_stage_ok  # 0.55/0.45 > 1 deterministically


class TestRunTrials:
    def test_deterministic_and_parallel_equivalence(self):
        p = toy_params()
        a = run_trials(p, TOY_WINDOW, n_trials=4, seed=21)
        b = run_trials(p, TOY_WINDOW, n_trials=4, seed=21)
        assert np.array_equal(a.successes, b.successes)
        assert np.array_equal(a.samples, b.samples)
        c = run_trials(p, TOY_WINDOW, n_trials=4, seed=21, n_jobs=2)
        assert np.array_equal(a.successes, c.successes)
        assert a.sum_near_dist_sq == pytest.approx(c.sum_near_dist_sq, rel=1e-12)

    # Exact counts at fixed seeds, recorded before the received powers moved
    # into schedule_noma_users.  A change to the draws must update them.
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_pinned_counts_toy(self, n_jobs):
        totals = run_trials(toy_params(mu=2e-4), TOY_WINDOW, n_trials=6, seed=17, n_jobs=n_jobs)
        assert totals.successes.tolist() == [[[110, 75], [110, 118]]]
        assert totals.samples.tolist() == [184]

    def test_pinned_counts_stock(self):
        totals = run_trials(table1_params(), n_trials=6, seed=(501, 0), max_cells_per_tier=120)
        assert totals.successes.tolist() == [[[148, 139], [148, 139]], [[343, 178], [343, 190]]]
        assert totals.samples.tolist() == [174, 720]

    def test_merge_is_associative(self):
        p = toy_params()
        t0 = run_single_trial(p, TOY_WINDOW, seed=3, trial=0)
        t1 = run_single_trial(p, TOY_WINDOW, seed=3, trial=1)
        merged = TrialTotals.zeros(1).merge(t0).merge(t1)
        direct = run_trials(p, TOY_WINDOW, n_trials=2, seed=3)
        assert np.array_equal(merged.successes, direct.successes)
        assert np.array_equal(merged.samples, direct.samples)

    def test_cap_subsamples_without_changing_draws(self):
        # capped run's per-cell outcomes are a subset of the uncapped run's
        p = toy_params()
        full = run_single_trial(p, TOY_WINDOW, seed=13, trial=0)
        capped = run_single_trial(p, TOY_WINDOW, seed=13, trial=0, max_cells_per_tier=20)
        assert capped.samples[0] == 20
        assert full.samples[0] > 20
        assert (capped.successes <= full.successes).all()

    def test_coop_counts_dominate(self):
        totals = run_trials(toy_params(mu=2e-4), TOY_WINDOW, n_trials=6, seed=17)
        noncoop, coop = totals.successes[0, 0], totals.successes[0, 1]
        assert (coop >= noncoop).all()

    def test_q_one_schemes_coincide(self):
        # no void cells: the cooperative signal is exactly zero everywhere
        totals = run_trials(toy_params(mu=8e-3), TOY_WINDOW, n_trials=2, seed=23)
        assert np.array_equal(totals.successes[0, 0], totals.successes[0, 1])

    def test_monotone_in_user_intensity(self):
        estimates = {}
        for i, mu in enumerate((2e-4, 4e-4, 8e-4, 1.6e-3, 3.2e-3)):
            p = toy_params(mu=mu)
            est = estimate_coverage(p, "noncoop", TOY_WINDOW, n_trials=10, seed=31)
            estimates[i] = {e.role: e for e in est}
        for role in ("near", "far"):
            for i in range(4):
                hi, lo = estimates[i][role], estimates[i + 1][role]
                slack = hi.ci_halfwidth + lo.ci_halfwidth
                assert lo.p_hat <= hi.p_hat + slack

    def test_zero_threshold_covers_everyone(self):
        p = toy_params(theta=1e-12)
        est = estimate_coverage(p, SCHEMES, TOY_WINDOW, n_trials=2, seed=37)
        assert all(e.p_hat == 1.0 for e in est)


class TestEstimates:
    def test_ci_formula_and_ordering(self):
        p = toy_params()
        est = estimate_coverage(p, ("noncoop", "coop"), TOY_WINDOW, n_trials=3, seed=41)
        assert [(e.tier, e.scheme, e.role) for e in est] == [
            (0, "noncoop", "near"), (0, "noncoop", "far"),
            (0, "coop", "near"), (0, "coop", "far"),
        ]
        for e in est:
            expect = 1.96 * np.sqrt(e.p_hat * (1 - e.p_hat) / e.n_samples)
            assert e.ci_halfwidth == pytest.approx(expect, rel=1e-12)

    def test_ci_shrinks_with_more_trials(self):
        p = toy_params()
        small = estimate_coverage(p, "noncoop", TOY_WINDOW, n_trials=3, seed=43)[0]
        big = estimate_coverage(p, "noncoop", TOY_WINDOW, n_trials=6, seed=43)[0]
        assert big.n_samples == pytest.approx(2 * small.n_samples, rel=0.25)
        assert big.ci_halfwidth < small.ci_halfwidth

    def test_low_sample_flag(self):
        p = toy_params()
        est = estimate_coverage(p, "noncoop", TOY_WINDOW, n_trials=1, seed=47,
                                max_cells_per_tier=10)
        assert all(e.low_samples for e in est)
        assert all(e.n_samples == 10 for e in est)

    def test_zero_samples(self):
        e = CoverageEstimate.from_counts("noncoop", 0, "near", 0, 0)
        assert np.isnan(e.p_hat) and e.low_samples

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            estimate_coverage(toy_params(), "other", TOY_WINDOW, n_trials=1)


class TestCellCensus:
    def test_void_fraction_and_histogram(self):
        p = toy_params()
        census = cell_census(p, TOY_WINDOW, n_snapshots=40, seed=51)
        q = cell_load_model(p).nonvoid_prob
        assert census.void_fraction == pytest.approx(1.0 - q, abs=0.02)
        assert census.count_histogram.sum() == census.n_bs
        assert census.count_histogram[0] == census.n_void
