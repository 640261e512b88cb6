"""Monte Carlo core: snapshots, scheduling, SIR events, estimators.

Structural tests run on a scaled-down single-tier network (the physics
is scale-free); the full stock-scenario validation lives in
test_acceptance.py.
"""

import concurrent.futures
import math
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.stats import chi2_contingency, poisson

from hetnoma.checks import ConfigError
from hetnoma.config import ScenarioConfig
from hetnoma.coverage import NetworkParams, TierParams, cell_load_model
from hetnoma import simulate
from hetnoma.geometry import Association, Window, default_window, periodic_voronoi, sample_ppp
from hetnoma.simulate import (
    _STREAM_COUNTS,
    _STREAM_FADES,
    _STREAM_PAIRS,
    _STREAM_POINTS,
    SCHEMES,
    CellCensus,
    CoverageEstimate,
    NetworkSnapshot,
    SimulationError,
    TrialTotals,
    _count_classes,
    _link_sums,
    _link_weights,
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
)
from hetnoma.sweeps import analytic_pairs, table1_params

TOY_WINDOW = Window(half_width=500.0)


def toy_params(mu=8e-4, beta=0.75, theta=1.0):
    """~200 BSs per snapshot; defaults give cell load L = 4."""
    return NetworkParams(
        tiers=(TierParams(power_watts=1.0, intensity=2e-4),),
        user_intensity=mu,
        pathloss_exponent=4.0,
        sir_threshold=theta,
        beta=(beta,),
    )


class PlacedPairs:
    """Stand-in for a snapshot's cells (its _voronoi): cell b places
    the pair pair_xy[b] whatever its uniforms, in the order given (the
    snapshot puts the near user first)."""

    def __init__(self, pair_xy):
        self.pair_xy = np.asarray(pair_xy, dtype=float)

    def sample(self, cells, draws):
        return self.pair_xy[cells[:, 0]]


def lone_cell_snapshot(beta=0.75, extra_bs=(), n_users=2, theta=1.0, trial=0):
    """One serving BS at the origin with n_users users, whose pair is the
    users at 10 and 15 m on the x axis (placed far user first); optional
    far-away BSs without users (they stay void)."""
    params = NetworkParams(
        tiers=(TierParams(power_watts=1.0, intensity=1e-4),),
        user_intensity=1e-4,
        pathloss_exponent=4.0,
        sir_threshold=theta,
        beta=(beta,),
    )
    bs_xy = np.array([[0.0, 0.0], *extra_bs], dtype=float)
    n_bs = len(bs_xy)
    pair_xy = np.full((n_bs, 2, 2), np.nan)
    pair_xy[0] = [[15.0, 0.0], [10.0, 0.0]]
    return params, NetworkSnapshot(
        params=params, window=Window(half_width=4000.0), seed=0, trial=trial,
        counts=np.array([n_users] + [0] * (n_bs - 1)), bs_xy=bs_xy,
        bs_tier=np.zeros(n_bs, dtype=np.intp), bs_power=np.ones(n_bs),
        _voronoi=PlacedPairs(pair_xy), _pair_draws=np.zeros((n_bs, 2, 3)),
    )


def torus_dist_sq(a, b, window):
    """Squared minimum-image distances between the points a and b (arrays
    of shape (..., 2) that broadcast) on the window's torus."""
    d = np.abs(a - b) % window.period
    d = np.minimum(d, window.period - d)
    return (d * d).sum(axis=-1)


def every_pair(snap):
    """The pairs of all BSs of snap, of shape (n_bs, 2, 2)."""
    return snap.pairs(np.arange(snap.n_bs))


def assert_pairs_near_first(snap, expected):
    """snap's pairs are each BS's pair of `expected`, near user first.

    expected is (n_bs, 2, 2) in draw order; NaN rows stand for BSs without
    a pair.
    """
    pair_xy = every_pair(snap)
    drawn = (pair_xy == expected).all(axis=(1, 2))
    swapped = (pair_xy == expected[:, ::-1]).all(axis=(1, 2))
    paired = ~np.isnan(expected).any(axis=(1, 2))
    assert (drawn | swapped)[paired].all()
    assert np.isnan(pair_xy[~paired]).all()
    dist_sq = torus_dist_sq(pair_xy[paired], snap.bs_xy[paired, None], snap.window)
    assert (dist_sq[:, 0] <= dist_sq[:, 1]).all()


def assert_cell_draws_independent_of_block_and_cap(snap):
    """A cell's pair, fades and received powers are the same bits when it
    is computed alone, at any position of a block of any size, or among
    any subset of the trial's cells (as a cap leaves)."""
    cells = snap.tagged_cells(0)
    assert len(cells) > 20
    alone = {int(b): schedule_noma_users(snap, b) for b in cells}
    weights = _link_weights(snap.nonvoid)
    subsets = [cells, cells[1::3], np.sort(np.random.default_rng(0).choice(cells, 9, False))]
    for subset in subsets:
        for size in (None, 1, 4, 7):
            blocks = simulate._CellBlocks(snap, size=size)
            for start in range(0, len(subset), blocks.size):
                part = subset[start:start + blocks.size]
                serving_sq, desired, power = blocks.powers(part, snap.pairs(part))
                interference, void = _link_sums(power, weights)
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
        assert np.array_equal(every_pair(a), every_pair(b), equal_nan=True)
        c = build_snapshot(p, TOY_WINDOW, seed=5, trial=4)
        assert not np.array_equal(a.bs_xy, c.bs_xy)

    def test_no_window_is_the_default_window(self):
        p = toy_params()
        a = build_snapshot(p, None, seed=5, trial=3)
        b = build_snapshot(p, default_window(p), seed=5, trial=3)
        assert a.window == b.window
        assert np.array_equal(a.bs_xy, b.bs_xy)
        assert np.array_equal(a.counts, b.counts)

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
            build_snapshot(p, Window(10.0), seed=0, trial=0)

    def test_oversized_scenario_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the point count")

        monkeypatch.setattr(simulate, "sample_ppp", no_sampling)
        # the stock tiers on a 4e5 m wide window: 8.16e6 BSs
        wide = Window(half_width=2e5)
        with pytest.raises(ValueError, match="8.16e\\+06 points in expectation, above the"):
            build_snapshot(table1_params(), wide, seed=0, trial=0)
        with pytest.raises(ValueError, match="8.16e\\+06 points .* above the simulator's limit"):
            check_point_budget(table1_params(user_intensity=2e-3), wide)
        # a 1.4e5 m wide window: 1e6 BSs, and no user placed at any load
        window = Window(half_width=7e4)
        for mu in (3e-4, 5e-4, 1.0):
            check_point_budget(table1_params(user_intensity=mu), window)

    def test_point_budget_counts_only_placed_points(self, monkeypatch):
        # 5e4 users per BS: a snapshot places none of the 1.5e7 users
        check_point_budget(table1_params(user_intensity=1.0))
        sampled = []

        def recording(intensity, window, rng):
            sampled.append(intensity)
            return sample_ppp(intensity, window, rng)

        monkeypatch.setattr(simulate, "sample_ppp", recording)
        snap = build_snapshot(toy_params(mu=10.0), TOY_WINDOW, seed=0, trial=0)
        assert sampled == [2e-4]  # the one tier's BSs, no users
        assert 100 < snap.n_bs < 400
        # about 2.5e4 users per cell: every count class is "two or more"
        assert (snap.counts == 2).all()

    def test_void_fraction_tracks_load_model(self):
        p = toy_params()
        q = cell_load_model(p).nonvoid_prob
        void = total = 0
        for trial in range(60):
            snap = build_snapshot(p, TOY_WINDOW, seed=9, trial=trial)
            void += int((snap.counts == 0).sum())
            total += snap.n_bs
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
        # operations in plain Python (each difference taken to its minimum
        # image on the torus), so they must agree exactly.
        p = toy_params(mu=2e-4)
        snap = build_snapshot(p, TOY_WINDOW, seed=11, trial=0)
        alpha = p.pathloss_exponent
        hw, period = TOY_WINDOW.half_width, TOY_WINDOW.period
        pair_xy = every_pair(snap)

        def image(d):
            return period - abs(d) if abs(d) > hw else abs(d)

        for b in snap.tagged_cells(0)[:10]:
            cell = schedule_noma_users(snap, b)
            for r in range(2):
                ux, uy = pair_xy[b, r].tolist()
                interference = void_signal = 0.0
                for j in range(snap.n_bs):
                    bx, by = snap.bs_xy[j].tolist()
                    dx, dy = image(bx - ux), image(by - uy)
                    assert cell.link_dist_sq[r, j] == dx * dx + dy * dy
                    power = (snap.bs_power[j] * cell.link_gains[r, j]
                             * cell.link_dist_sq[r, j] ** (-alpha / 2.0))
                    if j == b:
                        assert cell.desired[r] == pytest.approx(power, rel=1e-12)
                    elif snap.nonvoid[j]:
                        interference += power
                    else:
                        void_signal += power
                d = math.sqrt(torus_dist_sq(pair_xy[b, r], snap.bs_xy[b], TOY_WINDOW))
                assert cell.distances[r] == pytest.approx(d, rel=1e-12)
                assert cell.interference[r] == pytest.approx(interference, rel=1e-12)
                assert cell.void_signal[r] == pytest.approx(void_signal, rel=1e-12)

    def test_cell_draws_independent_of_block_and_cap(self):
        snap = build_snapshot(toy_params(), TOY_WINDOW, seed=19, trial=2)
        assert_cell_draws_independent_of_block_and_cap(snap)


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


class TestCountClasses:
    # a sweep trial reads min(count, 2) of a Poisson count from one uniform
    MEANS = [1e-12, 0.5, 9.8, 39.0, 800.0, 1e12]

    def test_equal_the_capped_poisson_quantile(self):
        u = np.array([0.0, 1e-300, 1e-12, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 2.0**-53])
        mean, u = np.meshgrid(self.MEANS, u)
        quantile = poisson.ppf(u, mean)
        # scipy's quantile search returns NaN at some u > 0 for the mean
        # 1e12, where P[N <= 1] underflows to 0, so that the quantile is >= 2
        failed = np.isnan(quantile)
        assert (mean[failed] == 1e12).all() and (u[failed] > 0.0).all()
        assert poisson.cdf(1, 1e12) == 0.0
        quantile[failed] = 2
        # scipy gives the quantile at 0 as -1, below the support: the count
        # there is 0
        expected = np.clip(quantile, 0, 2)
        assert np.array_equal(_count_classes(mean, u), expected)
        assert set(_count_classes(mean, u).ravel().tolist()) == {0, 1, 2}

    def test_never_fall_as_the_load_rises(self):
        g = np.random.default_rng(3)
        areas, u = g.exponential(2e4, size=5000), g.random(5000)
        loads = np.geomspace(1e-7, 1.0, 80)
        classes = np.array([_count_classes(mu * areas, u) for mu in loads])
        assert (np.diff(classes, axis=0) >= 0).all()
        assert (classes[0] == 0).mean() > 0.99 and (classes[-1] == 2).all()
        # an infinite mean is a count of at least 2
        assert _count_classes(np.array([np.inf]), np.array([0.5])).tolist() == [2]


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

    def test_totals_do_not_depend_on_the_block_size(self, monkeypatch):
        # the distance sums too: each point sums its cells' distances at once
        params = table1_params()
        window = default_window(params)
        default = run_single_trial(params, window, seed=5, trial=0, max_cells_per_tier=120)
        monkeypatch.setattr(simulate, "BLOCK_BYTES", 2**15)
        small = run_single_trial(params, window, seed=5, trial=0, max_cells_per_tier=120)
        assert_same_totals(default, small)

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
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        p = toy_params(mu=2e-4)
        pooled = run_trials(p, TOY_WINDOW, n_trials=n_trials, seed=17, n_jobs=n_jobs)
        assert recording_pool == pools
        serial = run_trials(p, TOY_WINDOW, n_trials=n_trials, seed=17)
        assert np.array_equal(pooled.successes, serial.successes)
        assert np.array_equal(pooled.sum_near_dist_sq, serial.sum_near_dist_sq)
        assert np.array_equal(pooled.sum_far_dist_sq, serial.sum_far_dist_sq)

    def test_one_cpu_mask_runs_without_a_pool(self, monkeypatch, recording_pool):
        # a run counts the CPUs its affinity mask allows, not the machine's
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        run_trials(toy_params(mu=2e-4), TOY_WINDOW, n_trials=2, seed=17, n_jobs=2)
        assert recording_pool == []

    def test_stop_signal_waits_until_the_pool_holds_every_trial(self, monkeypatch):
        # a SIGTERM that comes while the pool takes the trials raises only
        # once it holds them all, and the pool then cancels them; the
        # workers start with the handlers the run found
        class Stopped(Exception):
            pass

        def stop(signum, frame):
            raise Stopped

        events = []

        class SignalledPool:
            def __init__(self, max_workers, initializer, initargs):
                [handlers] = initargs
                events.append(handlers[signal.SIGTERM])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                signal.raise_signal(signal.SIGTERM)
                events.append("taken")
                return map(fn, jobs)

            def shutdown(self, cancel_futures=False):
                events.append(("shutdown", cancel_futures))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SignalledPool)
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        monkeypatch.setattr(simulate, "run_coupled_trial", lambda *job: events.append("trial"))
        previous = signal.signal(signal.SIGTERM, stop)
        try:
            with pytest.raises(Stopped):
                run_trials(toy_params(), TOY_WINDOW, n_trials=2, n_jobs=2)
            assert signal.getsignal(signal.SIGTERM) is stop
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert events == [stop, "taken", ("shutdown", True)]

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_rejects_n_jobs_below_one(self, monkeypatch, recording_pool, n_jobs):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before n_jobs was rejected")

        monkeypatch.setattr(simulate, "run_coupled_trial", no_trial)
        with pytest.raises(ValueError, match="n_jobs"):
            run_trials(toy_params(), TOY_WINDOW, n_trials=2, n_jobs=n_jobs)
        with pytest.raises(ValueError, match="n_jobs"):
            run_trial_sets((toy_params(),), TOY_WINDOW, 2, 1, n_jobs=n_jobs)
        assert recording_pool == []

    @pytest.mark.parametrize("value", [True, 2.5, 0, -1])
    @pytest.mark.parametrize("budget", ["n_trials", "n_jobs", "max_cells_per_tier"])
    def test_rejects_budget_not_an_integer_from_one(self, monkeypatch, recording_pool, budget,
                                                    value):
        def no_trial(*args, **kwargs):
            raise AssertionError(f"a trial ran before {budget} was rejected")

        monkeypatch.setattr(simulate, "run_coupled_trial", no_trial)
        with pytest.raises(ConfigError) as info:
            run_trials(toy_params(), TOY_WINDOW, **{"n_trials": 2, budget: value})
        assert info.value.field == budget
        assert recording_pool == []

    def test_trial_sets_share_one_pool(self, monkeypatch, recording_pool):
        # the trials of all groups go to one pool sized by the whole run;
        # the first two points share their tiers, so one snapshot per trial
        # serves both, the third has tiers of its own, and each point's
        # totals equal those of a run of that point alone exactly
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 8)
        denser = replace(toy_params(mu=4e-4), tiers=(TierParams(power_watts=1.0, intensity=3e-4),))
        grid = [toy_params(mu=2e-4), toy_params(mu=8e-4, beta=0.6), denser]
        sets = run_trial_sets(grid, TOY_WINDOW, 2, (17, 0), max_cells_per_tier=20, n_jobs=5000)
        assert recording_pool == [4]
        for point, totals in zip(grid, sets):
            [alone] = run_trial_sets((point,), TOY_WINDOW, 2, (17, 0), max_cells_per_tier=20)
            assert totals.samples.sum() > 0
            assert np.array_equal(totals.successes, alone.successes)
            assert np.array_equal(totals.samples, alone.samples)
            assert np.array_equal(totals.sum_near_dist_sq, alone.sum_near_dist_sq)
            assert np.array_equal(totals.sum_far_dist_sq, alone.sum_far_dist_sq)

    # Exact counts, and squared-distance sums (as float hex), at fixed seeds.
    # The pairs come from periodic Voronoi cells, whose fan corners may move
    # by an ulp with the triangulation, so the sums are pinned to a relative
    # 1e-12.  Any change to the draws, or to the float operations of the
    # per-cell path, must update them.
    @staticmethod
    def assert_pinned(totals, successes, samples, near_hex, far_hex):
        assert totals.successes.tolist() == successes
        assert totals.samples.tolist() == samples
        for sums, pinned in ((totals.sum_near_dist_sq, near_hex), (totals.sum_far_dist_sq, far_hex)):
            assert sums.tolist() == pytest.approx([float.fromhex(x) for x in pinned], rel=1e-12)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_pinned_counts_toy(self, n_jobs):
        totals = run_trials(toy_params(mu=2e-4), TOY_WINDOW, n_trials=6, seed=17, n_jobs=n_jobs)
        self.assert_pinned(totals, [[[212, 132], [212, 208]]], [310],
                           ["0x1.065f63f8dadf1p+18"], ["0x1.64a1d0942143ep+19"])

    def test_pinned_counts_stock(self):
        # 9.8 users per BS
        totals = run_trials(table1_params(), n_trials=6, seed=(501, 0), max_cells_per_tier=120)
        self.assert_pinned(totals, [[[141, 121], [141, 121]], [[348, 167], [348, 174]]], [168, 720],
                           ["0x1.0bb3f76c4dc77p+19", "0x1.0697c9ff8fbd1p+21"],
                           ["0x1.43f58637b9e5cp+20", "0x1.60c7ff1bd4dbbp+22"])

    def test_pinned_counts_sparse(self):
        # 3.9 users per BS, a point of the stock sweep grid
        totals = run_trials(table1_params(user_intensity=2e-4), n_trials=6, seed=(501, 0),
                            max_cells_per_tier=120)
        self.assert_pinned(totals, [[[115, 99], [115, 101]], [[370, 191], [370, 220]]], [136, 720],
                           ["0x1.daa4377a247dap+18", "0x1.14af5f378087ap+21"],
                           ["0x1.147da72b61a6ep+20", "0x1.79d9e536a27b6p+22"])

    def test_pinned_counts_dense(self):
        # 39 users per BS
        totals = run_trials(table1_params(user_intensity=2e-3), n_trials=6, seed=(501, 0),
                            max_cells_per_tier=120)
        self.assert_pinned(totals, [[[147, 123], [147, 123]], [[344, 163], [344, 163]]], [174, 720],
                           ["0x1.0e2cc0a1b3a59p+19", "0x1.023c16fa6446fp+21"],
                           ["0x1.491327b2fcf48p+20", "0x1.5b34034a9c63ep+22"])

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

    def test_trial_without_tagged_cells_counts_nothing(self):
        # at 1e-6 users/m^2 no cell has two users: the tier evaluates no
        # cell, and the trial adds no sample instead of failing
        totals = run_trials(toy_params(mu=1e-6), TOY_WINDOW, n_trials=1, seed=0)
        assert totals.samples.tolist() == [0]
        assert not totals.successes.any()
        assert totals.sum_near_dist_sq.tolist() == [0.0]


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
        assert CellCensus(4, 1, np.array([1, 3])).void_fraction == 0.25

    @pytest.mark.parametrize("n_snapshots", [0, -3, -1, True, 2.5])
    def test_rejects_no_snapshots(self, monkeypatch, n_snapshots):
        def no_snapshot(*args, **kwargs):
            raise AssertionError("sampled before n_snapshots was rejected")

        monkeypatch.setattr(simulate, "_sample_tiers", no_snapshot)
        with pytest.raises(ValueError, match="n_snapshots"):
            cell_census(toy_params(), TOY_WINDOW, n_snapshots=n_snapshots)

    def test_counts_continue_the_points_stream(self):
        # snapshot t: trial t's BSs, then Poisson(mu x cell area) per BS
        # from the same points stream; every BS is counted
        p = toy_params()
        census = cell_census(p, TOY_WINDOW, n_snapshots=2, seed=53)
        counts = []
        for trial in range(2):
            rng = _stream(53, trial, _STREAM_POINTS)
            bs_xy = sample_ppp(p.tiers[0].intensity, TOY_WINDOW, rng)
            counts.append(rng.poisson(p.user_intensity * periodic_voronoi(bs_xy, TOY_WINDOW).areas))
        hist = np.bincount(np.concatenate(counts))
        assert np.array_equal(census.count_histogram, hist)


class TestCoupledTrial:
    def test_run_trials_is_the_sweep_trial(self):
        # one trial definition: run_trials gives the bits of a one-point
        # run_trial_sets, and build_snapshot holds that trial's count classes
        lam = table1_params().total_intensity
        for params, cap in ((table1_params(), 120), (table1_params(user_intensity=2.0 * lam), None)):
            for n_jobs in (1, 2):
                alone = run_trials(params, None, 3, 5, cap, n_jobs)
                [point] = run_trial_sets((params,), None, 3, 5, cap, n_jobs)
                assert alone.samples.min() > 0
                assert_same_totals(alone, point)
            window = default_window(params)
            snap = build_snapshot(params, window, 5, 2)
            areas = periodic_voronoi(snap.bs_xy, window).areas
            u = _stream(5, 2, _STREAM_COUNTS).random(snap.n_bs)
            assert np.array_equal(snap.counts, _count_classes(params.user_intensity * areas, u))

    def test_point_budget_counts_only_base_stations(self, monkeypatch):
        # the stock tiers on a 1.4e5 m wide window: 1e6 BSs, and at 3e-4
        # users/m^2 5.88e6 users that no trial places; 8.16e6 BSs on a
        # 4e5 m window are refused
        class Sampled(Exception):
            pass

        def sampled(*args):
            raise Sampled

        monkeypatch.setattr(simulate, "_sample_tiers", sampled)
        placing = table1_params(user_intensity=3e-4)
        check_point_budget(placing, Window(half_width=7e4))
        for window, raised in ((Window(half_width=7e4), Sampled),
                               (Window(half_width=2e5), ConfigError)):
            with pytest.raises(raised):
                run_trial_sets((placing,), window, 1, 1)
            with pytest.raises(raised):
                run_trials(placing, window, n_trials=1)


def z_score(a, b, n_a, n_b):
    """Two-sample z of the proportions a and b (pooled variance)."""
    pooled = (a * n_a + b * n_b) / (n_a + n_b)
    return (a - b) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b))


# A test-local reference for the law of a trial's counts and pairs, by
# association: the trial's BSs, every user of the PPP placed (from a
# stream of purpose 99, which the program does not use) and attached to
# its nearest BS on the torus, and each BS with two users or more
# scheduling two of them uniformly.  Trials evaluate its snapshots as the
# program evaluates its own, so the two differ only in how the counts and
# pairs are drawn.

def torus_association(bs_xy, user_xy, window):
    """geometry.associate's Association on the window's torus: each user
    attached to its nearest BS at minimum-image distance."""
    hw, period, n_bs = window.half_width, window.period, len(bs_xy)
    serving = cKDTree((bs_xy + hw) % period, boxsize=period).query((user_xy + hw) % period)[1]
    counts = np.bincount(serving, minlength=n_bs)
    starts = np.zeros(n_bs + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    return Association(serving, counts, np.argsort(serving, kind="stable"), starts)


def associated_snapshot(params, window, seed, trial):
    bs_per_tier, _ = simulate._sample_tiers(params, window, seed, trial)
    [snap] = simulate._snapshots((params,), window, seed, trial, bs_per_tier)
    rng = _stream(seed, trial, 99)
    user_xy = sample_ppp(params.user_intensity, window, rng)
    assoc = torus_association(snap.bs_xy, user_xy, window)
    c = np.maximum(assoc.counts, 2)
    i = rng.integers(0, c)
    j = rng.integers(0, c - 1)
    j += j >= i
    pair_xy = np.full((snap.n_bs, 2, 2), np.nan)
    has = np.flatnonzero(assoc.counts >= 2)
    pair_xy[has] = user_xy[assoc.user_at(has[:, None], np.stack([i, j], axis=1)[has])]
    return replace(snap, counts=assoc.counts, _voronoi=PlacedPairs(pair_xy))


def associated_census(params, window, n_snapshots, seed):
    counts = []
    for trial in range(n_snapshots):
        counts.append(associated_snapshot(params, window, seed, trial).counts)
    hist = np.bincount(np.concatenate(counts), minlength=1)
    return CellCensus(n_bs=int(hist.sum()), n_void=int(hist[0]), count_histogram=hist)


def associated_totals(params, window, n_trials, seed, cap=None):
    """run_trials on associated snapshots; a cap keeps a uniform subsample."""
    totals = TrialTotals.zeros(params.n_tiers)
    for trial in range(n_trials):
        snap = associated_snapshot(params, window, seed, trial)
        rng = _stream(seed, trial, 98)
        cells = [snap.tagged_cells(tier) for tier in range(params.n_tiers)]
        cells = [c if cap is None or len(c) <= cap else rng.choice(c, cap, replace=False)
                 for c in cells]
        member = np.zeros((1, snap.n_bs), dtype=bool)
        member[0, np.concatenate(cells)] = True
        totals.merge(simulate._evaluate([snap], member)[0])
    return totals


def assert_census_agrees(census, reference, bins):
    """The same cells; void fractions within 3 sigma; the count histograms
    (counts 0 .. bins - 2 and a pooled tail) pass a chi-square test."""
    assert census.n_bs == reference.n_bs
    z = z_score(census.void_fraction, reference.void_fraction, census.n_bs, reference.n_bs)
    assert abs(z) <= 3.0
    table = np.zeros((2, bins), dtype=np.int64)
    for row, c in enumerate((reference, census)):
        hist = np.pad(c.count_histogram, (0, bins))
        table[row, :-1], table[row, -1] = hist[:bins - 1], hist[bins - 1:].sum()
    assert chi2_contingency(table[:, table.min(axis=0) > 0]).pvalue > 0.001


def assert_classes_agree(params, window, n_snapshots, seed):
    """The count classes min(count, 2) of the BSs of trials' snapshots pass
    a chi-square test against the reference's."""
    table = np.zeros((2, 3), dtype=np.int64)
    for trial in range(n_snapshots):
        for row, snap in enumerate((build_snapshot(params, window, seed, trial),
                                    associated_snapshot(params, window, seed, trial))):
            table[row] += np.bincount(np.minimum(snap.counts, 2), minlength=3)
    assert chi2_contingency(table[:, table.min(axis=0) > 0]).pvalue > 0.001


def assert_coverage_agrees(totals, reference, cells_rel=0.1):
    """Per tier: tagged cells within cells_rel (None: within 3 sigma of a
    difference of Poisson counts), and every coverage within 3 sigma."""
    for tier in range(len(totals.samples)):
        n_t, n_a = totals.samples[tier], reference.samples[tier]
        if cells_rel is None:
            assert abs(n_t - n_a) <= 3.0 * math.sqrt(n_t + n_a)
        else:
            assert n_t == pytest.approx(n_a, rel=cells_rel)
        for s in range(2):
            for r in range(2):
                z = z_score(totals.successes[tier, s, r] / n_t,
                            reference.successes[tier, s, r] / n_a, n_t, n_a)
                assert abs(z) <= 3.0


class TestTessellationSampler:
    def test_draw_layout(self):
        # points: the BS tiers; counts: one uniform per BS, whose Poisson(mu
        # x cell area) quantile's class is the count; pairs: three
        # uniforms per user of every BS, in global BS order; fades: BS b's
        # 2 * n_bs outputs of the fade stream, near user's links first
        p = toy_params(mu=8e-3)
        snap = build_snapshot(p, TOY_WINDOW, seed=19, trial=3)
        rng = _stream(19, 3, _STREAM_POINTS)
        bs_xy = sample_ppp(p.tiers[0].intensity, TOY_WINDOW, rng)
        assert np.array_equal(snap.bs_xy, bs_xy)
        cells = periodic_voronoi(bs_xy, TOY_WINDOW)
        u = _stream(19, 3, _STREAM_COUNTS).random(snap.n_bs)
        assert np.array_equal(snap.counts, _count_classes(p.user_intensity * cells.areas, u))
        u = _stream(19, 3, _STREAM_PAIRS).random((snap.n_bs, 2, 3))
        assert_pairs_near_first(snap, cells.sample(np.arange(snap.n_bs)[:, None], u))
        span = 2 * snap.n_bs
        for b in snap.tagged_cells(0)[:8].tolist():
            cell = schedule_noma_users(snap, b)
            fade_stream = _stream(snap.seed, snap.trial, _STREAM_FADES)
            fade_stream.bit_generator.advance(span * b)
            u = fade_stream.random(span).reshape(2, snap.n_bs)
            assert np.array_equal(cell.link_gains, -np.log1p(-u))

    def test_pair_points_are_served_by_their_bs(self):
        snap = build_snapshot(toy_params(), TOY_WINDOW, seed=7, trial=0)
        points = every_pair(snap).reshape(-1, 2)
        assert (np.abs(points) <= snap.window.half_width).all()
        serving = np.repeat(np.arange(snap.n_bs), 2)
        assert np.array_equal(torus_association(snap.bs_xy, points, snap.window).serving,
                              serving)

    def test_cell_draws_independent_of_block_and_cap(self):
        snap = build_snapshot(toy_params(mu=2e-4), TOY_WINDOW, seed=19, trial=2)
        assert_cell_draws_independent_of_block_and_cap(snap)

    def test_capped_trial_keeps_the_pairs_of_its_cells(self, monkeypatch):
        # the stock two tiers: a cell kept by the cap gets the same pair as
        # in the uncapped trial, and both are the snapshot's pairs
        p = table1_params()
        evaluated = []
        screen = simulate._CellBlocks.screen

        def recording(blocks, cells, pair_xy, start):
            evaluated.append((cells.copy(), pair_xy.copy()))
            return screen(blocks, cells, pair_xy, start)

        monkeypatch.setattr(simulate._CellBlocks, "screen", recording)
        seen = []
        for cap in (None, 12):
            evaluated.clear()
            totals = run_single_trial(p, default_window(p), seed=71, trial=0,
                                      max_cells_per_tier=cap)
            cells = np.concatenate([cells for cells, _ in evaluated])
            assert len(cells) == totals.samples.sum()
            seen.append((cells, np.concatenate([pair_xy for _, pair_xy in evaluated])))
        (every, every_pairs), (kept, kept_pairs) = seen
        assert kept.size == 24 and every.size > 1000
        assert np.array_equal(kept_pairs, every_pairs[np.searchsorted(every, kept)])
        snap = build_snapshot(p, default_window(p), seed=71, trial=0)
        assert np.array_equal(every_pairs, snap.pairs(every))

    def test_deterministic_and_parallel_equivalence(self):
        # 1 user per BS, capped
        p = toy_params(mu=2e-4)
        a = run_trials(p, TOY_WINDOW, n_trials=4, seed=21, max_cells_per_tier=25)
        b = run_trials(p, TOY_WINDOW, n_trials=4, seed=21, max_cells_per_tier=25, n_jobs=2)
        assert_same_totals(a, b)
        assert (a.successes[0, 1] >= a.successes[0, 0]).all()

    @pytest.mark.parametrize("mu", [2e-4, 8e-4])
    def test_census_agrees_with_association(self, mu):
        # 1 and 4 users per BS; same seed, so the same BSs: only the user
        # counts differ in law, the census's and the trials' classes
        p = toy_params(mu=mu)
        assert_census_agrees(cell_census(p, TOY_WINDOW, n_snapshots=40, seed=61),
                             associated_census(p, TOY_WINDOW, 40, seed=61), bins=9)
        assert_classes_agree(p, TOY_WINDOW, 40, seed=61)

    def test_stock_agrees_with_association(self):
        # the stock two tiers at 9.8 users per BS; same seeds, so the same
        # BSs on the default window
        p = table1_params()
        window = default_window(p)
        assert_census_agrees(cell_census(p, n_snapshots=8, seed=65),
                             associated_census(p, window, 8, seed=65), bins=21)
        assert_classes_agree(p, window, 8, seed=65)
        assert_coverage_agrees(run_trials(p, n_trials=8, seed=67, max_cells_per_tier=120),
                               associated_totals(p, window, 8, seed=67, cap=120))

    def test_coverage_agrees_with_association(self):
        p = toy_params()
        assert_coverage_agrees(run_trials(p, TOY_WINDOW, n_trials=8, seed=63),
                               associated_totals(p, TOY_WINDOW, 8, seed=63))

    @pytest.mark.parametrize("per_bs", [1.0, 2.0, 3.9])
    def test_low_load_agrees_with_association(self, per_bs):
        # the stock two tiers at loads that the sweep grid's low points hold;
        # at 1 user per BS the macro tier tags about 7 cells per trial, too
        # few for a 10% bound on their count
        p = table1_params(user_intensity=per_bs * table1_params().total_intensity)
        assert_coverage_agrees(run_trials(p, n_trials=8, seed=69, max_cells_per_tier=120),
                               associated_totals(p, default_window(p), 8, seed=69, cap=120),
                               cells_rel=None)


def screened_blocks(snap, cells):
    """Per block of cells: the screened (interference, void_signal), their
    error bound and the float64 sums, each of shape (cells, 2, 2), after
    checking that the screen's serving links are powers' bits."""
    screen = simulate._CellBlocks(snap, dtype=np.float32)
    exact = simulate._CellBlocks(snap)
    weights = simulate._screen_weights([snap.nonvoid], screen.bs_power32)
    pairs = snap.pairs(cells)
    screen.start_tier(len(cells))
    screened = []
    for start in range(0, len(cells), screen.size):
        block = slice(start, start + screen.size)
        power = screen.screen(cells[block], pairs[block], start)
        sums = -(power.reshape(2 * len(power), -1) @ weights).reshape(len(power), 2, 2)
        exact_sq, exact_desired, exact_power = exact.powers(cells[block], pairs[block])
        exact_sums = np.stack(_link_sums(exact_power, _link_weights(snap.nonvoid)), -1)
        screened.append((block, sums.astype(float), exact_sq, exact_desired, exact_sums))
    serving_sq, desired, kappa, floor = screen.serving_links(cells, pairs)
    for block, sums, exact_sq, exact_desired, exact_sums in screened:
        assert np.array_equal(serving_sq[block], exact_sq)
        assert np.array_equal(desired[block], exact_desired)
        errors = np.stack([simulate._sum_error(sums[..., j], kappa[block], floor[block])
                           for j in range(2)], -1)
        yield sums, errors, exact_sums


def scaled_power(params, scale):
    return replace(params, tiers=tuple(replace(t, power_watts=t.power_watts * scale)
                                       for t in params.tiers))


def far_cluster_snapshot():
    """100 hand-placed BSs about 3 m apart, 1e6 m from the origin, with
    about 2 users in each cell inside the cluster (so some are void):
    float32 coordinates there are 0.0625 m apart, so the screen's link
    distances are off by up to about 1%."""
    g = np.random.default_rng(5)
    grid = np.stack(np.meshgrid(np.arange(10.0), np.arange(10.0)), -1).reshape(-1, 2)
    bs = 1e6 + 3.0 * grid + g.uniform(-0.5, 0.5, grid.shape)
    params = NetworkParams(tiers=(TierParams(1.0, 1e-4),), user_intensity=0.25,
                           pathloss_exponent=4.0, sir_threshold=1.0, beta=(0.75,))
    window = Window(half_width=1.2e6)
    [snap] = simulate._snapshots((params,), window, 3, 0, [bs])
    return snap


def every_cell_exact(monkeypatch):
    """Leave every screened decision uncertain, so that every cell goes
    through the float64 path."""
    monkeypatch.setattr(simulate, "_sum_error",
                        lambda sums, kappa, floor: np.full_like(sums, np.inf))


def record_fallback(monkeypatch):
    """The cells that the float64 path evaluates, as a list (the block loop
    screens; only the fallback calls powers)."""
    cells = []
    powers = simulate._CellBlocks.powers

    def recording(blocks, part, pair_xy):
        cells.extend(part.tolist())
        return powers(blocks, part, pair_xy)

    monkeypatch.setattr(simulate._CellBlocks, "powers", recording)
    return cells


def assert_same_totals(a, b):
    assert np.array_equal(a.successes, b.successes)
    assert np.array_equal(a.samples, b.samples)
    assert a.sum_near_dist_sq.tolist() == b.sum_near_dist_sq.tolist()
    assert a.sum_far_dist_sq.tolist() == b.sum_far_dist_sq.tolist()


class TestFloat32Screen:
    def test_bound_is_infinite_wherever_kappa_is(self):
        # a sum of exactly 0 included (a receiver with no void BS), where
        # inf x 0 would give nan
        sums = np.array([[0.0, 3.0], [2.0, 0.0]])
        kappa = np.array([[np.inf, np.inf], [0.5, 0.5]])
        floor = np.full((2, 2), 0.25)
        error = simulate._sum_error(sums, kappa, floor)
        assert error.tolist() == [[np.inf, np.inf], [1.25, 0.25]]

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.5, 3.7])
    def test_bound_covers_the_float32_error(self, alpha):
        # 3.7 / 2 is not a float32, so its rounded exponent adds to the bound
        params = replace(table1_params(), pathloss_exponent=alpha)
        relative = []
        for trial in (0, 1):
            snap = build_snapshot(params, default_window(params), seed=5, trial=trial)
            cells = np.concatenate([snap.tagged_cells(t) for t in range(params.n_tiers)])
            for sums, errors, exact in screened_blocks(snap, cells):
                assert (np.abs(sums - exact) <= errors).all()
                relative.append(errors.sum(axis=-1) / sums.sum(axis=-1))
        # the bound is not vacuous: it holds the sums of 99% of the
        # receivers to 2e-3 (the observed error stays below 5e-5)
        relative = np.concatenate(relative).ravel()
        assert relative.size > 3000 and np.mean(relative <= 2e-3) >= 0.99

    def test_bound_covers_coordinates_far_from_the_origin(self):
        snap = far_cluster_snapshot()
        cells = snap.tagged_cells(0)
        assert len(cells) > 50
        worst = 0.0
        for sums, errors, exact in screened_blocks(snap, cells):
            assert (np.abs(sums - exact) <= errors).all()
            worst = max(worst, (np.abs(sums - exact) / exact).max())
        assert worst > 1e-3  # the rounded coordinates do move the sums

    @staticmethod
    def edge_receivers(snap):
        """Receivers on the window's edges and corners, within 1e-3 to 3 m
        of them, 5 to 9 m across an edge from the BS nearest it (links that
        wrap in x, in y and in both), and half a period from a BS in x (where
        the float32 and the exact differences may wrap apart), two per cell."""
        hw = snap.window.half_width
        g = np.random.default_rng(7)
        t = g.uniform(-hw, hw, 8)
        receivers = [[hw, t[0]], [-hw, t[1]], [t[2], hw], [t[3], -hw],
                     [hw, hw], [-hw, -hw], [hw, -hw], [-hw, hw]]
        for inset in (1e-3, 0.5, 3.0):
            receivers += [[hw - inset, t[4]], [-hw + inset, t[5]], [t[6], hw - inset],
                          [t[7], -hw + inset]]
        bs = snap.bs_xy
        left, bottom = bs[np.argmin(bs[:, 0])], bs[np.argmin(bs[:, 1])]
        corner = bs[np.argmin(bs.sum(axis=1))]
        receivers += [[hw - 3.0, left[1] + 5.0], [bottom[0] - 5.0, hw - 3.0],
                      [hw - 4.0, hw - 4.0], [corner[0] + 5.0, hw - 3.0]]
        for b in range(4):
            x, y = bs[b]
            receivers += [[x - hw if x > 0 else x + hw, y + 10.0]]
        return np.array(receivers, dtype=float)

    @staticmethod
    def placed(snap, receivers):
        """snap with its first tagged pico cells' pairs set to receivers,
        two per cell, and those cells."""
        cells = snap.tagged_cells(1)[:len(receivers) // 2]
        pair_xy = np.full((snap.n_bs, 2, 2), np.nan)
        pair_xy[cells] = receivers[:2 * len(cells)].reshape(-1, 2, 2)
        return replace(snap, _voronoi=PlacedPairs(pair_xy)), cells

    def test_bound_covers_receivers_at_the_window_edge(self):
        # every sum screened at the edge lies within its bound of the float64
        # sum, whose link distances are the minimum-image ones; the bound is
        # finite wherever a receiver is at least 5 m from every BS
        snap = build_snapshot(table1_params(), None, seed=5, trial=0)
        receivers = self.edge_receivers(snap)
        snap, cells = self.placed(snap, receivers)
        wrapped = 0
        for b in cells[:6]:
            cell = schedule_noma_users(snap, b)
            for r, u in enumerate(snap.pairs(np.array([b]))[0]):
                dist_sq = torus_dist_sq(snap.bs_xy, u, snap.window)
                assert np.allclose(cell.link_dist_sq[r], dist_sq, rtol=1e-9, atol=0.0)
                wrapped += (dist_sq < ((snap.bs_xy - u) ** 2).sum(axis=-1)).sum()
        assert wrapped > 100
        nearest = np.array([torus_dist_sq(snap.bs_xy, u, snap.window).min()
                            for u in snap.pairs(cells).reshape(-1, 2)]).reshape(-1, 2)
        assert (nearest >= 25.0).mean() > 0.8
        start = 0
        for sums, errors, exact in screened_blocks(snap, cells):
            assert (np.abs(sums - exact) <= errors).all()
            far = nearest[start:start + len(sums)] >= 25.0
            assert np.isfinite(errors[far]).all()
            start += len(sums)
        assert start == len(cells)

    def test_bound_refuses_receivers_beyond_the_window_edge(self):
        # a receiver 5 m past an edge (trials place none: pairs are moved
        # into the window) puts h above half_width: the bound is infinite,
        # so every cell of the tier takes the float64 path
        snap = build_snapshot(table1_params(), None, seed=5, trial=0)
        hw = snap.window.half_width
        receivers = self.edge_receivers(snap)
        receivers[:3] = [[hw + 5.0, 10.0], [-20.0, -hw - 5.0], [hw + 5.0, hw + 5.0]]
        snap, cells = self.placed(snap, receivers)
        cell = schedule_noma_users(snap, cells[0])
        for r, u in enumerate(snap.pairs(cells[:1])[0]):
            dist_sq = torus_dist_sq(snap.bs_xy, u, snap.window)
            assert np.allclose(cell.link_dist_sq[r], dist_sq, rtol=1e-9, atol=0.0)
        for sums, errors, exact in screened_blocks(snap, cells):
            assert np.isinf(errors).all()

    @pytest.mark.parametrize("far", [False, True], ids=["stock", "far_cluster"])
    def test_squared_distances_are_the_float32_differences_squared(self, far):
        # each difference bs - u is one product by BLAS: rounded once, the
        # bits of a float32 broadcast subtraction, then taken to its
        # minimum image with the float32 period
        snap = far_cluster_snapshot() if far else build_snapshot(table1_params(), None, 5, 0)
        blocks = simulate._CellBlocks(snap, dtype=np.float32)
        cells = np.concatenate([snap.tagged_cells(t) for t in range(snap.params.n_tiers)])
        pair_xy = snap.pairs(cells[:blocks.size])
        bs_x, bs_y = snap.bs_xy.astype(np.float32).T
        ux, uy = (pair_xy[..., c, None].astype(np.float32) for c in (0, 1))
        hw = np.float32(snap.window.half_width)
        dx, dy = (np.where(np.abs(d) > hw, 2 * hw - np.abs(d), np.abs(d))
                  for d in (bs_x - ux, bs_y - uy))
        assert (np.abs(bs_x - ux) > hw).any()
        assert np.array_equal(blocks._squared_distances(pair_xy), dx * dx + dy * dy)

    @pytest.mark.parametrize("scale", [2.0**-1061, 8.5e306])
    def test_bound_covers_extreme_powers(self, scale):
        params = scaled_power(toy_params(mu=2e-4), scale)
        snap = build_snapshot(params, TOY_WINDOW, seed=19, trial=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for sums, errors, exact in screened_blocks(snap, snap.tagged_cells(0)):
                assert np.isfinite(errors).all()
                assert (np.abs(sums - exact) <= errors).all()

    @pytest.mark.parametrize("alpha", [3.0, 4.0, 5.5])
    @pytest.mark.parametrize("theta", [0.1, 1.0, 10.0])
    def test_stock_totals_are_the_float64_totals(self, monkeypatch, alpha, theta):
        params = replace(table1_params(), pathloss_exponent=alpha, sir_threshold=theta)
        screened = run_trials(params, n_trials=2, seed=(81, 0), max_cells_per_tier=40)
        every_cell_exact(monkeypatch)
        fallback = record_fallback(monkeypatch)
        exact = run_trials(params, n_trials=2, seed=(81, 0), max_cells_per_tier=40)
        assert len(fallback) == exact.samples.sum() > 0
        assert_same_totals(screened, exact)

    @pytest.mark.parametrize("mu, cap", [(2e-3, 16), (2 * 5.1e-5, 40)],
                             ids=["dense", "two_per_bs"])
    def test_dense_and_associated_totals_are_the_float64_totals(self, monkeypatch, mu, cap):
        params = table1_params(user_intensity=mu)
        screened = run_trials(params, n_trials=2, seed=(82, 0), max_cells_per_tier=cap)
        every_cell_exact(monkeypatch)
        assert_same_totals(screened,
                           run_trials(params, n_trials=2, seed=(82, 0), max_cells_per_tier=cap))

    def test_coupled_sweep_totals_are_the_float64_totals(self, monkeypatch):
        grid = [table1_params(user_intensity=mu) for mu in (5e-5, 1e-4, 2e-4, 5e-4, 1e-3)]
        screened = run_trial_sets(grid, None, 2, 1, max_cells_per_tier=120)
        every_cell_exact(monkeypatch)
        for a, b in zip(screened, run_trial_sets(grid, None, 2, 1, max_cells_per_tier=120)):
            assert_same_totals(a, b)

    def test_zero_margin_cell_defers_to_float64(self, monkeypatch):
        # theta at one cell's exact float64 SIR of the near user's SIC stage:
        # the screen cannot certify that decision, so the cell takes the
        # float64 path, and the totals are the float64 path's
        base = table1_params()
        snap = build_snapshot(base, default_window(base), seed=83, trial=0)
        b = int(snap.tagged_cells(1)[7])
        cell = schedule_noma_users(snap, b)
        theta = (1.0 - 0.75) * cell.desired[0] / cell.interference[0]
        params = replace(base, sir_threshold=theta)
        fallback = record_fallback(monkeypatch)
        screened = run_single_trial(params, default_window(params), seed=83, trial=0)
        assert b in fallback and len(fallback) < 0.01 * screened.samples.sum()
        every_cell_exact(monkeypatch)
        assert_same_totals(screened,
                           run_single_trial(params, default_window(params), seed=83, trial=0))

    def test_fallback_share_on_stock_under_one_percent(self, monkeypatch):
        fallback = record_fallback(monkeypatch)
        totals = run_trials(table1_params(), n_trials=10, seed=(84, 0), max_cells_per_tier=120)
        assert len(fallback) < 0.01 * totals.samples.sum()
        assert len(set(fallback)) == len(fallback)  # a cell goes through float64 once

    def test_float32_log_and_power_within_the_bound_constants(self):
        # the bound allows numpy's float32 log 8u and its power 4u relative
        # error (u = 2^-24); the screen's logs take float32 values in
        # [2^-53, 1].  Every float32 of the binades next to 1 and 2^-53,
        # and a sample of the others
        u = 2.0**-24
        bits = [np.arange(*np.array([lo, 2 * lo], dtype=np.float32).view(np.int32),
                          dtype=np.int32) for lo in (0.5, 2.0**-53)]
        x = np.concatenate(bits).view(np.float32)
        x = np.append(x, np.float32(1.0))
        sample = np.random.default_rng(0).uniform(-53.0, 0.0, 10**6)
        x = np.concatenate([x, np.exp2(sample).astype(np.float32)])
        exact = np.log(x.astype(float))
        nonzero = exact != 0.0
        assert np.log(x)[~nonzero].tolist() == [0.0]
        err = np.abs(np.log(x).astype(float) - exact)[nonzero] / np.abs(exact[nonzero])
        assert err.max() <= 8.0 * u
        d = np.exp2(np.random.default_rng(1).uniform(-40.0, 60.0, 10**6)).astype(np.float32)
        for half in (1.5, 1.75, 2.75, 1.85):
            exponent = np.float32(-half)
            exact = np.power(d.astype(float), float(exponent))
            normal = (exact >= 2.0**-126) & (exact < 2.0**128)  # the bound's floor takes the rest
            err = np.abs(np.power(d, exponent)[normal] / exact[normal] - 1.0)
            assert normal.mean() > 0.5 and err.max() <= 4.0 * u

    def test_counts_do_not_depend_on_the_power_scale(self):
        # powers scaled by 2^-1061 (8.1e-319 and 8.1e-320 W) used to underflow
        # to a tie won by every user, and at 1.7e308 W to overflow; a
        # power-of-two scale is exact, and 8.5e306 rounds no decision here
        base = table1_params()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            runs = [run_trials(scaled_power(base, scale), n_trials=30, seed=(9, 0),
                               max_cells_per_tier=120) for scale in (1.0, 2.0**-1061, 8.5e306)]
        assert runs[0].successes.tolist()[0][0] == [703, 630]
        for totals in runs[1:]:
            assert_same_totals(totals, runs[0])
