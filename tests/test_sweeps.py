"""Sweep orchestration: analytic vs simulated rows, beta scans, presets."""

import io

import numpy as np
import pytest

from hetnoma import cli, coverage, simulate
from hetnoma.config import ConfigError, ScenarioConfig
from hetnoma.coverage import NetworkParams, TierParams, cell_load_model
from hetnoma.geometry import Window
from hetnoma.sweeps import (
    DEFAULT_USER_INTENSITY_GRID,
    PICO_INTENSITY_HIGH,
    PICO_INTENSITY_LOW,
    ComparisonRow,
    analytic_pairs,
    apply_sweep_value,
    max_abs_gap,
    run_beta_scan,
    run_sweep,
    table1_params,
)

TOY_WINDOW = Window(half_width=500.0)


def toy_two_tier(mu=8e-4):
    return NetworkParams(
        tiers=(TierParams(20.0, 2e-5), TierParams(2.0, 1.8e-4)),
        user_intensity=mu,
        pathloss_exponent=4.0,
        sir_threshold=1.0,
        beta=(0.75, 0.75),
    )


def toy_config(**kw):
    defaults = dict(
        params=toy_two_tier(), sweep_variable="user_intensity",
        sweep_grid=(4e-4, 8e-4, 4e-3), schemes=("noncoop", "coop"),
        n_trials=4, seed=7, window=TOY_WINDOW,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestPresets:
    def test_table1_values(self):
        p = table1_params()
        assert p.tiers[0].power_watts == 20.0
        assert p.tiers[0].intensity == 1e-6
        assert p.tiers[1].power_watts == 2.0
        assert p.tiers[1].intensity == PICO_INTENSITY_LOW == 5e-5
        assert p.user_intensity == 5e-4
        assert p.sir_threshold == 1.0
        assert p.pathloss_exponent == 4.0
        assert p.beta == (0.75, 0.75)
        dense = table1_params(pico_intensity=PICO_INTENSITY_HIGH)
        assert dense.tiers[1].intensity == 5e-4

    def test_default_grid(self):
        grid = DEFAULT_USER_INTENSITY_GRID
        assert len(grid) == 8
        assert grid[0] == pytest.approx(5e-5) and grid[-1] == pytest.approx(1e-3)
        assert all(lo < hi for lo, hi in zip(grid, grid[1:]))


class TestApplySweepValue:
    def test_variables(self):
        p = toy_two_tier()
        assert apply_sweep_value(p, "user_intensity", 1e-3).user_intensity == 1e-3
        assert apply_sweep_value(p, "beta", 0.7).beta == (0.7, 0.7)
        assert apply_sweep_value(p, "pico_intensity", 9e-5).tiers[1].intensity == 9e-5
        with pytest.raises(ConfigError) as info:
            apply_sweep_value(p, "powers", 1.0)
        assert info.value.field == "sweep.variable"

    def test_pico_sweep_needs_two_tiers(self):
        single = NetworkParams(
            tiers=(TierParams(1.0, 1e-4),), user_intensity=1e-4,
            pathloss_exponent=4.0, sir_threshold=1.0, beta=(0.75,),
        )
        with pytest.raises(ConfigError) as info:
            apply_sweep_value(single, "pico_intensity", 1e-5)
        assert info.value.field == "sweep.variable"


class TestScenarioConfig:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            toy_config(sweep_grid=())
        with pytest.raises(ValueError):
            toy_config(sweep_grid=(2e-4, 2e-4))
        with pytest.raises(ValueError):
            toy_config(sweep_variable="nope")
        with pytest.raises(ValueError):
            toy_config(schemes=("noncoop", "other"))


@pytest.fixture(scope="module")
def rows():
    return run_sweep(toy_config())


class TestRunSweep:
    def test_row_count_and_order(self, rows):
        cfg = toy_config()
        assert len(rows) == len(cfg.sweep_grid) * 2 * 2 * len(cfg.schemes)
        keys = [(r.sweep_value, r.tier, r.role, r.scheme) for r in rows]
        grid = cfg.sweep_grid
        expected = [
            (v, tier, role, scheme)
            for v in grid
            for tier in (1, 2)
            for role in ("near", "far")
            for scheme in ("noncoop", "coop")
        ]
        assert keys == expected

    def test_deterministic(self, rows):
        again = run_sweep(toy_config())
        assert rows == again

    def test_analytic_near_exceeds_far(self, rows):
        for r in rows:
            if r.scheme == "noncoop" and r.role == "near":
                far = next(
                    x for x in rows
                    if x.sweep_value == r.sweep_value and x.tier == r.tier
                    and x.scheme == "noncoop" and x.role == "far"
                )
                assert r.analytic > far.analytic

    def test_simulated_nonincreasing_in_mu(self, rows):
        for tier in (1, 2):
            for role in ("near", "far"):
                series = [
                    r for r in rows
                    if r.tier == tier and r.role == role and r.scheme == "noncoop"
                ]
                for hi, lo in zip(series, series[1:]):
                    assert lo.simulated <= hi.simulated + lo.ci_halfwidth + hi.ci_halfwidth

    def test_schemes_agree_when_saturated(self, rows):
        # highest grid point has q ~ 0.997: coop degenerates to noncoop
        top = [r for r in rows if r.sweep_value == toy_config().sweep_grid[-1]]
        for role in ("near", "far"):
            for tier in (1, 2):
                non = next(r for r in top if r.tier == tier and r.role == role
                           and r.scheme == "noncoop")
                coop = next(r for r in top if r.tier == tier and r.role == role
                            and r.scheme == "coop")
                assert abs(coop.simulated - non.simulated) <= 2 * (
                    non.ci_halfwidth + coop.ci_halfwidth
                ) + 1e-12

    def test_gap_fields(self, rows):
        for r in rows:
            assert r.abs_gap == abs(r.analytic - r.simulated)
        assert max_abs_gap(rows) < 0.5

    def test_gap_ignores_zero_sample_rows_wherever_they_fall(self):
        def row(simulated, n_samples):
            return ComparisonRow(sweep_value=1.0, tier=1, role="near", scheme="noncoop",
                                 analytic=0.5, simulated=simulated,
                                 ci_halfwidth=0.01, n_samples=n_samples)

        empty, small, large = row(np.nan, 0), row(0.45, 10), row(0.2, 10)
        assert max_abs_gap([empty, small, large]) == pytest.approx(0.3)
        assert max_abs_gap([small, large, empty]) == pytest.approx(0.3)
        assert np.isnan(max_abs_gap([empty, empty]))

    def test_low_sample_flag_propagates(self):
        cfg = toy_config(n_trials=1, sweep_grid=(4e-4,), max_cells_per_tier=5)
        rows = run_sweep(cfg)
        assert all("low_samples" in r.flags for r in rows)

    def test_parallel_rows_equal_serial(self, rows):
        # float fields compare exactly: each point's trials merge in trial
        # order whatever worker ran them
        assert run_sweep(toy_config(n_jobs=2)) == rows

    @pytest.mark.parametrize("n_trials, n_jobs, cpus, pools", [
        (4, 5000, 8, [8]),
        (4, 5000, 64, [12]),
        (4, 3, 8, [3]),
        (1, 5000, 8, [3]),
        (1, 1, 8, []),
    ])
    def test_one_pool_for_the_whole_sweep(self, monkeypatch, recording_pool,
                                          n_trials, n_jobs, cpus, pools):
        # each point of a pico_intensity sweep has its own layout: one set
        # of workers, min(n_jobs, points x trials, CPUs) of them, runs every
        # trial of the sweep; a sweep of one trial per point forks too
        monkeypatch.setattr(simulate, "_cpu_count", lambda: cpus)
        run_sweep(toy_config(sweep_variable="pico_intensity", sweep_grid=(9e-5, 1.8e-4, 3.6e-4),
                             n_trials=n_trials, n_jobs=n_jobs))
        assert recording_pool == pools

    @pytest.mark.parametrize("n_trials, pools", [(4, [4]), (1, [])])
    def test_one_snapshot_per_trial_serves_a_user_intensity_sweep(
            self, monkeypatch, recording_pool, n_trials, pools):
        # the three grid points share one layout: one job per trial
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 8)
        run_sweep(toy_config(n_trials=n_trials, n_jobs=5000))
        assert recording_pool == pools


class TestAnalyticPairs:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            analytic_pairs(table1_params(), ("noncoop", "bogus"))

    @pytest.mark.parametrize("mu", [5e-4, 0.0])
    def test_equals_coverage_curve_at_the_configured_beta(self, mu):
        # tier 1 below theta/(1+theta) = 1/2 (no admissible split), tier 2
        # below the coop crossover 2/3, tier 3 inside the exact range; at
        # mu = 0 no BS is active (q = 0)
        p = NetworkParams(
            tiers=(TierParams(20.0, 1e-6), TierParams(2.0, 5e-5), TierParams(0.5, 1e-4)),
            user_intensity=mu, pathloss_exponent=3.5, sir_threshold=1.0,
            beta=(0.4, 0.55, 0.8),
        )
        pairs = analytic_pairs(p)
        assert list(pairs) == [(t, s) for t in range(3) for s in simulate.SCHEMES]
        for (tier, scheme), pair in pairs.items():
            alone = coverage.coverage_curve(p, tier, scheme, (p.beta[tier],))[0]
            assert (pair.near.hex(), pair.far.hex(), pair.extrapolated) == (
                alone.near.hex(), alone.far.hex(), alone.extrapolated)
        assert pairs[(0, "noncoop")] == pairs[(0, "coop")] == (0.0, 0.0, False)
        assert pairs[(1, "coop")].extrapolated and not pairs[(2, "coop")].extrapolated


class TestRunBetaScan:
    def test_grid_argmax_near_reference(self):
        p = NetworkParams(
            tiers=(TierParams(1.0, 1e-4),), user_intensity=1e8,
            pathloss_exponent=4.0, sir_threshold=1.0, beta=(0.75,),
        )
        grid = np.round(np.arange(0.52, 1.0001, 0.01), 4)
        scan = run_beta_scan(p, 0, "noncoop", grid)
        best = scan.grid[int(np.argmax(scan.averages))]
        assert best == pytest.approx(0.77, abs=0.011)
        assert scan.optimum.beta_star == pytest.approx(0.766, abs=2e-3)

    def test_inadmissible_grid_is_zero(self):
        p = toy_two_tier()
        scan = run_beta_scan(p, 0, "noncoop", (0.1, 0.3, 0.5))
        assert scan.averages == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("scheme", ["noncoop", "coop"])
    def test_scan_evaluates_each_beta_once(self, scheme, monkeypatch):
        # the optimize-beta grid i/32 holds every other point of the
        # optimizer's coarse grid j/64, bit for bit: each is evaluated once,
        # and no golden-section batch repeats a beta evaluated before
        p = table1_params()
        lo = p.sir_threshold / (1.0 + p.sir_threshold)
        grid = [lo + (1.0 - lo) * i / 32 for i in range(1, 33)]
        evaluated = []
        thresholds = coverage._thresholds

        def recording(theta, betas):
            evaluated.extend(betas.tolist())
            return thresholds(theta, betas)

        monkeypatch.setattr(coverage, "_thresholds", recording)
        scan = run_beta_scan(p, 1, scheme, grid)
        assert set(grid) <= set(evaluated)
        assert len(set(evaluated)) == len(evaluated)
        monkeypatch.undo()
        pairs = coverage.coverage_curve(p, 1, scheme, grid)
        assert scan.averages == tuple(pair.average for pair in pairs)
        assert scan.optimum == coverage.optimize_beta(p, 1, scheme)

    def test_coop_optimum_not_above_noncoop(self):
        # logged observation: joint transmission shifts power toward the
        # near user (q < 1)
        p = toy_two_tier(mu=2e-4)
        assert cell_load_model(p).nonvoid_prob < 0.9
        non = run_beta_scan(p, 1, "noncoop", (0.7, 0.8)).optimum
        coop = run_beta_scan(p, 1, "coop", (0.7, 0.8)).optimum
        assert coop.beta_star <= non.beta_star + 1e-3


def csv_bytes(rows):
    """The CSV bytes the sweep command writes for rows."""
    out = io.StringIO()
    cli._write_rows(rows, None, out)
    return out.getvalue().encode()


# the README config's scenario and grid, at the benchmark's cap
README_SWEEP = dict(params=table1_params(), sweep_grid=(5e-5, 1e-4, 2e-4, 5e-4, 1e-3),
                    n_trials=2, seed=1, max_cells_per_tier=120)


class TestCoupledSweep:
    @pytest.fixture(scope="class")
    def readme_rows(self):
        return run_sweep(ScenarioConfig(**README_SWEEP))

    def test_point_rows_do_not_depend_on_the_grid(self, readme_rows):
        for value in README_SWEEP["sweep_grid"]:
            alone = run_sweep(ScenarioConfig(**dict(README_SWEEP, sweep_grid=(value,))))
            assert csv_bytes(alone) == csv_bytes(
                [r for r in readme_rows if r.sweep_value == value])

    def test_point_totals_do_not_depend_on_the_grid(self):
        # the distance sums too, bit for bit, though a point's cells share
        # blocks with those of the other points
        grid = [table1_params(user_intensity=v) for v in README_SWEEP["sweep_grid"]]
        sets = simulate.run_trial_sets(grid, None, 1, 1, max_cells_per_tier=120)
        for point, totals in zip(grid, sets):
            [alone] = simulate.run_trial_sets((point,), None, 1, 1, max_cells_per_tier=120)
            assert np.array_equal(totals.successes, alone.successes)
            assert np.array_equal(totals.samples, alone.samples)
            assert totals.sum_near_dist_sq.tolist() == alone.sum_near_dist_sq.tolist()
            assert totals.sum_far_dist_sq.tolist() == alone.sum_far_dist_sq.tolist()

    def test_parallel_bytes_equal_serial(self, readme_rows):
        pooled = run_sweep(ScenarioConfig(**dict(README_SWEEP, n_jobs=2)))
        assert csv_bytes(pooled) == csv_bytes(readme_rows)

    def test_coop_covers_at_least_noncoop_at_every_point(self, readme_rows):
        # both schemes run on the same draws, cell by cell
        rows = {(r.sweep_value, r.tier, r.role, r.scheme): r for r in readme_rows}
        for (value, tier, role, scheme), row in rows.items():
            if scheme == "coop":
                noncoop = rows[(value, tier, role, "noncoop")]
                assert row.n_samples == noncoop.n_samples > 0
                assert row.simulated >= noncoop.simulated

    def test_points_with_equal_void_flags_share_their_sums(self, monkeypatch):
        # the points of a beta sweep have the same load, so the same void
        # flags: each block's screened product has the 2 columns of one
        # group, not 6; each point of a user_intensity sweep has its own
        columns = []
        init = simulate._CellBlocks.__init__

        def recording(blocks, layout, flags):
            init(blocks, layout, flags)
            columns.append(blocks.weights.shape[1])

        monkeypatch.setattr(simulate._CellBlocks, "__init__", recording)
        beta = dict(README_SWEEP, sweep_variable="beta", sweep_grid=(0.6, 0.75, 0.9))
        run_sweep(ScenarioConfig(**beta))
        assert columns == [2, 2]  # one per trial
        columns.clear()
        run_sweep(ScenarioConfig(**README_SWEEP))
        assert columns == [10, 10]

    def test_beta_sweep_rows_equal_one_point_sweeps(self):
        beta = dict(README_SWEEP, sweep_variable="beta", sweep_grid=(0.6, 0.75, 0.9))
        rows = run_sweep(ScenarioConfig(**beta))
        for value in beta["sweep_grid"]:
            alone = run_sweep(ScenarioConfig(**dict(beta, sweep_grid=(value,))))
            assert csv_bytes(alone) == csv_bytes([r for r in rows if r.sweep_value == value])
        assert csv_bytes(run_sweep(ScenarioConfig(**dict(beta, n_jobs=2)))) == csv_bytes(rows)
