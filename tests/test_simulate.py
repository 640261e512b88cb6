"""Monte Carlo core: snapshots, scheduling, SIR events, estimators.

Structural tests run on a scaled-down single-tier network (the physics
is scale-free); the full stock-scenario validation lives in
test_acceptance.py.
"""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.stats import chi2_contingency, chisquare

from hetnoma.checks import ConfigError
from hetnoma.config import ScenarioConfig
from hetnoma.coverage import NetworkParams, TierParams, cell_load_model
from hetnoma import simulate
from hetnoma.geometry import Window, associate, clipped_voronoi, sample_ppp
from hetnoma.simulate import (
    _STREAM_FADES,
    _STREAM_PAIRS,
    _STREAM_POINTS,
    SCHEMES,
    CoverageEstimate,
    SimulationError,
    TrialTotals,
    _stream,
    build_snapshot,
    cell_census,
    check_point_budget,
    estimates_from_totals,
    evaluate_coop,
    evaluate_noncoop,
    run_single_trial,
    run_trial_sets,
    run_trials,
    schedule_noma_users,
    snapshot_from_points,
    tessellates,
)
from hetnoma.sweeps import analytic_pairs, table1_params

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


def lone_cell_snapshot(beta=0.75, extra_bs=(), n_users=2, theta=1.0, trial=0):
    """One serving BS at the origin with users on the x axis at 10, 15, 20,
    ... m; optional far-away BSs that no user selects (they stay void)."""
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
    return params, snapshot_from_points(params, window, [bs], users, trial=trial)


def assert_pairs_near_first(snap, expected):
    """snap.pair_xy holds each BS's pair of `expected`, near user first.

    expected is (n_bs, 2, 2) in draw order; NaN rows stand for BSs without
    a pair.
    """
    drawn = (snap.pair_xy == expected).all(axis=(1, 2))
    swapped = (snap.pair_xy == expected[:, ::-1]).all(axis=(1, 2))
    paired = ~np.isnan(expected).any(axis=(1, 2))
    assert (drawn | swapped)[paired].all()
    assert np.isnan(snap.pair_xy[~paired]).all()
    dist_sq = ((snap.pair_xy[paired] - snap.bs_xy[paired, None]) ** 2).sum(axis=-1)
    assert (dist_sq[:, 0] <= dist_sq[:, 1]).all()


def assert_cell_draws_independent_of_block_and_cap(snap):
    """A cell's pair, fades and received powers are the same bits when it
    is computed alone, at any position of a block of any size, or among
    any subset of the trial's cells (as a cap leaves)."""
    cells = snap.tagged_cells(0)
    assert len(cells) > 20
    alone = {int(b): schedule_noma_users(snap, b) for b in cells}
    subsets = [cells, cells[1::3], np.sort(np.random.default_rng(0).choice(cells, 9, False))]
    for subset in subsets:
        for size in (None, 1, 4, 7):
            blocks = simulate._CellBlocks(snap, size=size)
            for start in range(0, len(subset), blocks.size):
                part = subset[start:start + blocks.size]
                serving_sq, desired, interference, void = blocks.powers(part)
                for m, b in enumerate(part.tolist()):
                    cell = alone[b]
                    assert np.array_equal(np.sqrt(serving_sq[m]), cell.distances)
                    assert np.array_equal(blocks.fades[m], cell.link_gains)
                    assert np.array_equal(blocks.dist_sq[m], cell.link_dist_sq)
                    assert np.array_equal(desired[m], cell.desired)
                    assert np.array_equal(interference[m], cell.interference)
                    assert np.array_equal(void[m], cell.void_signal)


class TestBuildSnapshot:
    def test_deterministic(self):
        p = toy_params()
        a = build_snapshot(p, TOY_WINDOW, seed=5, trial=3)
        b = build_snapshot(p, TOY_WINDOW, seed=5, trial=3)
        assert np.array_equal(a.bs_xy, b.bs_xy)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.pair_xy, b.pair_xy, equal_nan=True)
        c = build_snapshot(p, TOY_WINDOW, seed=5, trial=4)
        assert not np.array_equal(a.bs_xy, c.bs_xy)

    def test_no_users_all_void(self):
        snap = build_snapshot(toy_params(mu=0.0), TOY_WINDOW, seed=1, trial=0)
        assert not snap.nonvoid.any()
        assert len(snap.tagged_cells(0)) == 0

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
        # the stock tiers on a 4e5 m wide window: 8.16e6 BSs, plus 8e7 users
        # where they are placed
        wide = Window(half_width=2e5, margin=100.0)
        with pytest.raises(ValueError, match="8.82e\\+07 points in expectation"):
            build_snapshot(table1_params(), wide, seed=0, trial=0)
        with pytest.raises(ValueError, match="8.16e\\+06 points .* above the simulator's limit"):
            check_point_budget(table1_params(user_intensity=2e-3), wide)
        check_point_budget(table1_params(user_intensity=5e-4))  # 2.2e4 points: allowed

    def test_point_budget_counts_only_placed_points(self, monkeypatch):
        # 5e4 users per BS: the tessellation places none of the 1.5e7 users
        check_point_budget(table1_params(user_intensity=1.0))
        sampled = []

        def recording(intensity, window, rng):
            sampled.append(intensity)
            return sample_ppp(intensity, window, rng)

        monkeypatch.setattr(simulate, "sample_ppp", recording)
        snap = build_snapshot(toy_params(mu=10.0), TOY_WINDOW, seed=0, trial=0)
        assert sampled == [2e-4]  # the one tier's BSs, no users
        assert 100 < snap.n_bs < 400
        assert snap.counts.sum() > 1e6

    def test_void_fraction_tracks_load_model(self):
        p = toy_params()
        q = cell_load_model(p).nonvoid_prob
        void = total = 0
        for trial in range(60):
            snap = build_snapshot(p, TOY_WINDOW, seed=9, trial=trial)
            inner = snap.window.contains(snap.bs_xy, inner=True)
            counts = snap.counts[inner]
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
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.link_gains, b.link_gains)

    def test_received_powers_match_reference_loop(self):
        # sum each BS's contribution at each receiver one by one: the
        # serving BS gives the desired signal, the rest split by whether
        # they transmit.  Squared link distances are the same float
        # operations in plain Python, so they must agree exactly.
        p = toy_params(mu=2e-4)
        snap = build_snapshot(p, TOY_WINDOW, seed=11, trial=0)
        alpha = p.pathloss_exponent
        for b in snap.tagged_cells(0)[:10]:
            cell = schedule_noma_users(snap, b)
            for r in range(2):
                ux, uy = snap.pair_xy[b, r].tolist()
                interference = void_signal = 0.0
                for j in range(snap.n_bs):
                    bx, by = snap.bs_xy[j].tolist()
                    assert cell.link_dist_sq[r, j] == (bx - ux) * (bx - ux) + (by - uy) * (by - uy)
                    power = (snap.bs_power[j] * cell.link_gains[r, j]
                             * cell.link_dist_sq[r, j] ** (-alpha / 2.0))
                    if j == b:
                        assert cell.desired[r] == pytest.approx(power, rel=1e-12)
                    elif snap.nonvoid[j]:
                        interference += power
                    else:
                        void_signal += power
                d = math.dist(snap.pair_xy[b, r], snap.bs_xy[b])
                assert cell.distances[r] == pytest.approx(d, rel=1e-12)
                assert cell.interference[r] == pytest.approx(interference, rel=1e-12)
                assert cell.void_signal[r] == pytest.approx(void_signal, rel=1e-12)

    def test_cell_draws_independent_of_block_and_cap(self):
        assert not tessellates(toy_params(mu=2e-4))
        snap = build_snapshot(toy_params(mu=2e-4), TOY_WINDOW, seed=19, trial=2)
        assert_cell_draws_independent_of_block_and_cap(snap)

    def test_draw_layout(self):
        # points: the BS tier, then the users; pairs: two ranks per BS from
        # the trial's pair stream, in the BS's user list; fades: BS b's
        # 2 * n_bs outputs of the fade stream, near user's links first
        p = toy_params(mu=2e-4)
        snap = build_snapshot(p, TOY_WINDOW, seed=19, trial=3)
        rng = _stream(19, 3, _STREAM_POINTS)
        bs_xy = sample_ppp(p.tiers[0].intensity, TOY_WINDOW, rng)
        user_xy = sample_ppp(p.user_intensity, TOY_WINDOW, rng)
        assert np.array_equal(snap.bs_xy, bs_xy)
        assoc = associate(bs_xy, user_xy)
        assert np.array_equal(snap.counts, assoc.counts)
        c = np.maximum(assoc.counts, 2)
        rng = _stream(19, 3, _STREAM_PAIRS)
        i, j = rng.integers(0, c), rng.integers(0, c - 1)
        j += j >= i
        expected = np.full((snap.n_bs, 2, 2), np.nan)
        for b in np.flatnonzero(assoc.counts >= 2):
            expected[b] = user_xy[assoc.user_at(b, np.array([i[b], j[b]]))]
        assert_pairs_near_first(snap, expected)
        span = 2 * snap.n_bs
        for b in snap.tagged_cells(0)[:8].tolist():
            cell = schedule_noma_users(snap, b)
            fade_stream = _stream(snap.seed, snap.trial, _STREAM_FADES)
            fade_stream.bit_generator.advance(span * b)
            u = fade_stream.random(span).reshape(2, snap.n_bs)
            assert np.array_equal(cell.link_gains, -np.log1p(-u))

    def test_pair_choice_uniform(self):
        # 5 users -> 10 unordered pairs, chi-square over 1e4 independent draws
        counts = {}
        for trial in range(10_000):
            _, snap = lone_cell_snapshot(n_users=5, trial=trial)
            key = tuple(snap.pair_xy[0, :, 0].tolist())
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
        cells = snap.tagged_cells(0)
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
            _, snap = lone_cell_snapshot(beta=0.55, trial=trial)
            cell = schedule_noma_users(snap, 0)
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
        # trials merge in trial order, so the float sums agree exactly too
        assert np.array_equal(a.sum_near_dist_sq, c.sum_near_dist_sq)
        assert np.array_equal(a.sum_far_dist_sq, c.sum_far_dist_sq)

    @pytest.mark.parametrize("n_trials, n_jobs, cpus, pools", [
        (6, 5000, 8, [6]),
        (6, 5000, 4, [4]),
        (6, 3, 8, [3]),
        (1, 5000, 8, []),
        (2, 5000, None, []),
    ])
    def test_pool_sized_by_trials_and_cpus(self, monkeypatch, recording_pool, n_trials, n_jobs,
                                           cpus, pools):
        # n_jobs above the trial or CPU count must not reach the pool
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        p = toy_params(mu=2e-4)
        pooled = run_trials(p, TOY_WINDOW, n_trials=n_trials, seed=17, n_jobs=n_jobs)
        assert recording_pool == pools
        serial = run_trials(p, TOY_WINDOW, n_trials=n_trials, seed=17)
        assert np.array_equal(pooled.successes, serial.successes)
        assert np.array_equal(pooled.sum_near_dist_sq, serial.sum_near_dist_sq)
        assert np.array_equal(pooled.sum_far_dist_sq, serial.sum_far_dist_sq)

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_rejects_n_jobs_below_one(self, monkeypatch, recording_pool, n_jobs):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before n_jobs was rejected")

        monkeypatch.setattr(simulate, "run_single_trial", no_trial)
        with pytest.raises(ValueError, match="n_jobs"):
            run_trials(toy_params(), TOY_WINDOW, n_trials=2, n_jobs=n_jobs)
        with pytest.raises(ValueError, match="n_jobs"):
            run_trial_sets([(toy_params(), TOY_WINDOW, 1)], 2, n_jobs=n_jobs)
        assert recording_pool == []

    @pytest.mark.parametrize("value", [True, 2.5, 0, -1])
    @pytest.mark.parametrize("budget", ["n_trials", "n_jobs", "max_cells_per_tier"])
    def test_rejects_budget_not_an_integer_from_one(self, monkeypatch, recording_pool, budget,
                                                    value):
        def no_trial(*args, **kwargs):
            raise AssertionError(f"a trial ran before {budget} was rejected")

        monkeypatch.setattr(simulate, "run_single_trial", no_trial)
        with pytest.raises(ConfigError) as info:
            run_trials(toy_params(), TOY_WINDOW, **{"n_trials": 2, budget: value})
        assert info.value.field == budget
        assert recording_pool == []

    def test_trial_sets_share_one_pool(self, monkeypatch, recording_pool):
        # the trials of all points go to one pool sized by the whole run;
        # each point's totals equal its own run_trials call exactly
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        points = [(toy_params(mu=2e-4), TOY_WINDOW, (17, 0)),
                  (toy_params(mu=8e-4, beta=0.6), TOY_WINDOW, (17, 1)),
                  (toy_params(mu=4e-4), None, 3)]
        sets = run_trial_sets(points, 2, max_cells_per_tier=20, n_jobs=5000)
        assert recording_pool == [6]
        for (params, window, seed), totals in zip(points, sets):
            alone = run_trials(params, window, n_trials=2, seed=seed, max_cells_per_tier=20)
            assert np.array_equal(totals.successes, alone.successes)
            assert np.array_equal(totals.samples, alone.samples)
            assert np.array_equal(totals.sum_near_dist_sq, alone.sum_near_dist_sq)
            assert np.array_equal(totals.sum_far_dist_sq, alone.sum_far_dist_sq)

    # Exact counts and squared-distance sums (as float hex) at fixed seeds,
    # recorded when the pairs and fades moved to the per-trial pair stream
    # and the fade stream keyed by BS position.  Any change to the draws,
    # or to the float operations of the per-cell path, must update them.
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_pinned_counts_toy(self, n_jobs):
        totals = run_trials(toy_params(mu=2e-4), TOY_WINDOW, n_trials=6, seed=17, n_jobs=n_jobs)
        assert totals.successes.tolist() == [[[111, 64], [111, 118]]]
        assert totals.samples.tolist() == [184]
        assert [x.hex() for x in totals.sum_near_dist_sq] == ["0x1.36b21bb9387c9p+17"]
        assert [x.hex() for x in totals.sum_far_dist_sq] == ["0x1.ae286ab087135p+18"]

    def test_pinned_counts_stock(self):
        totals = run_trials(table1_params(), n_trials=6, seed=(501, 0), max_cells_per_tier=120)
        assert totals.successes.tolist() == [[[150, 132], [150, 132]], [[338, 181], [338, 185]]]
        assert totals.samples.tolist() == [174, 720]
        assert [x.hex() for x in totals.sum_near_dist_sq] == [
            "0x1.07baba0239260p+19", "0x1.f5987e2f3b89ap+20"]
        assert [x.hex() for x in totals.sum_far_dist_sq] == [
            "0x1.3273922794666p+20", "0x1.47f9fc630ebdap+22"]

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
            totals = run_trials(p, TOY_WINDOW, n_trials=10, seed=31)
            est = estimates_from_totals(totals, ("noncoop",))
            estimates[i] = {e.role: e for e in est}
        for role in ("near", "far"):
            for i in range(4):
                hi, lo = estimates[i][role], estimates[i + 1][role]
                slack = hi.ci_halfwidth + lo.ci_halfwidth
                assert lo.p_hat <= hi.p_hat + slack

    def test_zero_threshold_covers_everyone(self):
        p = toy_params(theta=1e-12)
        est = estimates_from_totals(run_trials(p, TOY_WINDOW, n_trials=2, seed=37), SCHEMES)
        assert all(e.p_hat == 1.0 for e in est)



class TestExtrapolatedCoopForm:
    def test_simulator_pins_extrapolated_coop_near(self):
        # beta = 0.55 < (1+theta)/(2+theta) = 2/3: the cooperative closed
        # form treats the near user's first SIC stage as free there, so its
        # pico near coverage overstates what whole networks give
        p = table1_params().with_beta(0.55)
        pair = analytic_pairs(p, ("coop",))[(1, "coop")]
        assert pair.extrapolated
        assert pair.near == pytest.approx(0.5644, abs=1e-4)
        totals = run_trials(p, n_trials=20, seed=55, max_cells_per_tier=120)
        est = {(e.tier, e.role): e for e in estimates_from_totals(totals, ("coop",))}
        near = est[(1, "near")]
        assert near.n_samples >= 2000
        assert near.p_hat + 3.0 * near.ci_halfwidth < pair.near


class TestEstimates:
    def test_ci_formula_and_ordering(self):
        p = toy_params()
        est = estimates_from_totals(run_trials(p, TOY_WINDOW, n_trials=3, seed=41), SCHEMES)
        assert [(e.tier, e.scheme, e.role) for e in est] == [
            (0, "noncoop", "near"), (0, "noncoop", "far"),
            (0, "coop", "near"), (0, "coop", "far"),
        ]
        for e in est:
            expect = 1.96 * np.sqrt(e.p_hat * (1 - e.p_hat) / e.n_samples)
            assert e.ci_halfwidth == pytest.approx(expect, rel=1e-12)

    def test_ci_shrinks_with_more_trials(self):
        p = toy_params()
        small = estimates_from_totals(run_trials(p, TOY_WINDOW, n_trials=3, seed=43))[0]
        big = estimates_from_totals(run_trials(p, TOY_WINDOW, n_trials=6, seed=43))[0]
        assert big.n_samples == pytest.approx(2 * small.n_samples, rel=0.25)
        assert big.ci_halfwidth < small.ci_halfwidth

    def test_low_sample_flag(self):
        p = toy_params()
        totals = run_trials(p, TOY_WINDOW, n_trials=1, seed=47, max_cells_per_tier=10)
        est = estimates_from_totals(totals, ("noncoop",))
        assert all(e.low_samples for e in est)
        assert all(e.n_samples == 10 for e in est)

    @pytest.mark.parametrize("schemes, message", [
        (("other",), "unknown scheme 'other' (choose from ['noncoop', 'coop'])"),
        ("coop", "expected a nonempty array"),
    ], ids=["unknown_name", "bare_string"])
    def test_bad_schemes_named_as_in_a_config(self, schemes, message):
        for build in (lambda: estimates_from_totals(TrialTotals.zeros(1), schemes),
                      lambda: ScenarioConfig(params=toy_params(), schemes=schemes)):
            with pytest.raises(ConfigError) as info:
                build()
            assert (info.value.field, info.value.message) == ("schemes", message)

    def test_zero_samples(self):
        e = CoverageEstimate.from_counts("noncoop", 0, "near", 0, 0)
        assert np.isnan(e.p_hat) and e.low_samples


class TestCellCensus:
    def test_void_fraction_and_histogram(self):
        p = toy_params()
        census = cell_census(p, TOY_WINDOW, n_snapshots=40, seed=51)
        q = cell_load_model(p).nonvoid_prob
        assert census.void_fraction == pytest.approx(1.0 - q, abs=0.02)
        assert census.count_histogram.sum() == census.n_bs
        assert census.count_histogram[0] == census.n_void

    @pytest.mark.parametrize("n_snapshots", [0, -3, -1, True, 2.5])
    def test_rejects_no_snapshots(self, monkeypatch, n_snapshots):
        def no_snapshot(*args, **kwargs):
            raise AssertionError("sampled before n_snapshots was rejected")

        monkeypatch.setattr(simulate, "build_snapshot", no_snapshot)
        with pytest.raises(ValueError, match="n_snapshots"):
            cell_census(toy_params(), TOY_WINDOW, n_snapshots=n_snapshots)


@pytest.fixture
def tessellated(monkeypatch):
    """Every build_snapshot takes its counts from clipped Voronoi cell areas."""
    monkeypatch.setattr(simulate, "TESSELLATION_MIN_USERS_PER_BS", 0.0)


def z_score(a, b, n_a, n_b):
    """Two-sample z of the proportions a and b (pooled variance)."""
    pooled = (a * n_a + b * n_b) / (n_a + n_b)
    return (a - b) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))


class TestTessellationSampler:
    def test_chosen_by_load(self):
        lam = table1_params().total_intensity
        assert not tessellates(table1_params())  # 9.8 users per BS
        assert tessellates(table1_params(user_intensity=2e-3))  # 39
        assert not tessellates(toy_params())  # 4
        at = simulate.TESSELLATION_MIN_USERS_PER_BS
        assert tessellates(table1_params(user_intensity=at * lam))
        assert not tessellates(table1_params(user_intensity=0.999 * at * lam))

    def test_draw_layout(self):
        # points: the BS tiers, then Poisson(mu x clipped cell area) per BS;
        # pairs: three uniforms per user of every BS, in global BS order
        p = toy_params(mu=8e-3)
        assert tessellates(p)
        snap = build_snapshot(p, TOY_WINDOW, seed=19, trial=3)
        rng = _stream(19, 3, _STREAM_POINTS)
        bs_xy = sample_ppp(p.tiers[0].intensity, TOY_WINDOW, rng)
        assert np.array_equal(snap.bs_xy, bs_xy)
        cells = clipped_voronoi(bs_xy, TOY_WINDOW)
        assert np.array_equal(snap.counts, rng.poisson(p.user_intensity * cells.areas))
        u = _stream(19, 3, _STREAM_PAIRS).random((snap.n_bs, 2, 3))
        assert_pairs_near_first(snap, cells.sample(np.arange(snap.n_bs)[:, None], u))

    def test_pair_points_are_served_by_their_bs(self, tessellated):
        snap = build_snapshot(toy_params(), TOY_WINDOW, seed=7, trial=0)
        points = snap.pair_xy.reshape(-1, 2)
        assert snap.window.contains(points).all()
        serving = np.repeat(np.arange(snap.n_bs), 2)
        assert np.array_equal(cKDTree(snap.bs_xy).query(points)[1], serving)

    def test_cell_draws_independent_of_block_and_cap(self, tessellated):
        assert tessellates(toy_params(mu=2e-4))
        snap = build_snapshot(toy_params(mu=2e-4), TOY_WINDOW, seed=19, trial=2)
        assert_cell_draws_independent_of_block_and_cap(snap)

    def test_deterministic_and_parallel_equivalence(self, tessellated):
        p = toy_params()
        a = run_trials(p, TOY_WINDOW, n_trials=4, seed=21)
        b = run_trials(p, TOY_WINDOW, n_trials=4, seed=21, n_jobs=2)
        assert np.array_equal(a.successes, b.successes)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.sum_near_dist_sq, b.sum_near_dist_sq)
        assert np.array_equal(a.sum_far_dist_sq, b.sum_far_dist_sq)
        assert (a.successes[0, 1] >= a.successes[0, 0]).all()

    @pytest.mark.parametrize("mu", [2e-4, 8e-4])
    def test_census_agrees_with_association(self, monkeypatch, mu):
        # same seed, so the same BSs: only the user counts differ in law
        p = toy_params(mu=mu)
        associated = cell_census(p, TOY_WINDOW, n_snapshots=40, seed=61)
        monkeypatch.setattr(simulate, "TESSELLATION_MIN_USERS_PER_BS", 0.0)
        tessellated = cell_census(p, TOY_WINDOW, n_snapshots=40, seed=61)
        assert tessellated.n_bs == associated.n_bs
        z = z_score(tessellated.void_fraction, associated.void_fraction,
                    tessellated.n_bs, associated.n_bs)
        assert abs(z) <= 3.0
        # counts 0..7 and a pooled tail, as a 2 x 9 contingency table
        table = np.zeros((2, 9), dtype=np.int64)
        for row, census in enumerate((associated, tessellated)):
            hist = census.count_histogram
            table[row, :8] = np.pad(hist, (0, max(0, 8 - hist.size)))[:8]
            table[row, 8] = hist[8:].sum()
        table = table[:, table.min(axis=0) > 0]
        assert chi2_contingency(table).pvalue > 0.001

    def test_coverage_agrees_with_association(self, monkeypatch):
        p = toy_params()
        associated = run_trials(p, TOY_WINDOW, n_trials=8, seed=63)
        monkeypatch.setattr(simulate, "TESSELLATION_MIN_USERS_PER_BS", 0.0)
        tessellated = run_trials(p, TOY_WINDOW, n_trials=8, seed=63)
        n_a, n_t = associated.samples[0], tessellated.samples[0]
        assert n_t == pytest.approx(n_a, rel=0.1)
        for s in range(2):
            for r in range(2):
                z = z_score(tessellated.successes[0, s, r] / n_t,
                            associated.successes[0, s, r] / n_a, n_t, n_a)
                assert abs(z) <= 3.0
