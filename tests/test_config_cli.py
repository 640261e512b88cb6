"""Config parsing and command-line behavior (exit codes, CSV)."""

import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hetnoma
from hetnoma import simulate, sweeps
from hetnoma.cli import main
from hetnoma.config import (
    ConfigError,
    ScenarioConfig,
    load_config,
    parse_config,
)
from hetnoma.coverage import NetworkParams, TierParams
from hetnoma.geometry import Window
from hetnoma.kernels import KernelEvaluator

TOY_CONFIG = {
    "tiers": [
        {"power_watts": 20.0, "intensity": 2e-5},
        {"power_watts": 2.0, "intensity": 1.8e-4},
    ],
    "user_intensity": 8e-4,
    "pathloss_exponent": 4.0,
    "sir_threshold": 1.0,
    "beta": [0.75, 0.75],
    "schemes": ["noncoop", "coop"],
    "sweep": {"variable": "user_intensity", "grid": [4e-4, 8e-4]},
    "seed": 7,
    "n_trials": 2,
    "window": {"half_width": 500.0},
    "kernel_mode": "appendix",
}

STOCK_TIERS = [
    {"power_watts": 20.0, "intensity": 1e-6},
    {"power_watts": 2.0, "intensity": 5e-5},
]
# the stock scenario on a 4e5 m wide window: 8.16e6 BSs
OVERSIZED_CONFIG = {"tiers": STOCK_TIERS, "user_intensity": 5e-4,
                    "window": {"half_width": 2e5}}


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        data = dict(TOY_CONFIG)
        data["powr"] = 3
        with pytest.raises(ConfigError, match="powr"):
            parse_config(data)
        data = dict(TOY_CONFIG)
        data["window"] = {"half_width": 500.0, "shape": "disk"}
        with pytest.raises(ConfigError, match="window.shape"):
            parse_config(data)

    def test_window_margin_exits_2(self, tmp_path, capsys):
        # the window is a torus, with no edge to keep cells away from: a
        # margin is an unknown key
        data = dict(TOY_CONFIG, window={"half_width": 500.0, "margin": 120.0})
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        assert info.value.field == "window.margin"
        code, text = run_cli(["sim", "--config", write_config(tmp_path, data)])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == "error: config field 'window.margin': unknown key\n"

    def test_missing_tiers_named(self):
        data = dict(TOY_CONFIG)
        del data["tiers"]
        with pytest.raises(ConfigError, match="tiers"):
            parse_config(data)

    def test_field_paths_in_errors(self):
        data = json.loads(json.dumps(TOY_CONFIG))
        data["tiers"][1]["intensity"] = 0.0
        with pytest.raises(ConfigError, match=r"tiers\[1\].intensity"):
            parse_config(data)
        data = dict(TOY_CONFIG)
        data["sweep"] = {"variable": "user_intensity", "grid": [2e-4, 1e-4]}
        with pytest.raises(ConfigError, match="sweep.grid"):
            parse_config(data)
        data = dict(TOY_CONFIG)
        data["kernel_mode"] = "both"
        with pytest.raises(ConfigError, match="kernel_mode"):
            parse_config(data)

    @pytest.mark.parametrize("update, field, message", [
        ({"pathloss_exponent": 2.0}, "pathloss_exponent", "must be greater than 2.0"),
        ({"sir_threshold": 0}, "sir_threshold", "must be greater than 0.0"),
        ({"user_intensity": -1}, "user_intensity", "must be at least 0.0"),
        ({"user_intensity": None}, "user_intensity", "missing required key"),
        ({"window": {"half_width": 0}}, "window.half_width",
         "must be greater than 0.0"),
    ], ids=["pathloss_exponent", "sir_threshold", "user_intensity_negative",
            "user_intensity_missing", "window_half_width"])
    def test_scenario_number_errors_name_their_field(self, tmp_path, capsys, update, field,
                                                     message):
        data = {k: v for k, v in dict(TOY_CONFIG, **update).items() if v is not None}
        with pytest.raises(ConfigError) as info:
            parse_config(data)
        assert info.value.field == field
        code, text = run_cli(["analytic", "--config", write_config(tmp_path, data)])
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: config field '{field}': {message}\n"

    def test_scalar_beta_broadcasts(self):
        data = dict(TOY_CONFIG)
        data["beta"] = 0.8
        cfg = parse_config(data)
        assert cfg.params.beta == (0.8, 0.8)

    def test_defaults(self):
        cfg = parse_config({
            "tiers": [{"power_watts": 1.0, "intensity": 1e-4}],
            "user_intensity": 1e-4,
        })
        assert cfg.params.sir_threshold == 1.0
        assert cfg.params.pathloss_exponent == 4.0
        assert cfg.seed == 1 and cfg.n_trials == 20
        assert len(cfg.sweep_grid) == 8

    def test_minimal_config_equals_dataclass_defaults(self):
        cfg = parse_config({
            "tiers": [{"power_watts": 20.0, "intensity": 1e-6},
                      {"power_watts": 2.0, "intensity": 5e-5}],
            "user_intensity": 5e-4,
        })
        params = NetworkParams(
            tiers=(TierParams(20.0, 1e-6), TierParams(2.0, 5e-5)), user_intensity=5e-4,
            pathloss_exponent=4.0, sir_threshold=1.0, beta=(0.75, 0.75),
        )
        assert cfg == ScenarioConfig(params=params)


def _errors_in_both_forms(field, value):
    """ConfigErrors of a one-tier scenario with `value` in `field`, built in
    code and parsed from JSON.  beta is a one-entry list in both forms, so
    that both reach its per-entry rule."""
    tier = {"power_watts": 20.0, "intensity": 1e-4}
    window = {"half_width": 500.0}
    scenario = {"user_intensity": 5e-4, "pathloss_exponent": 4.0, "sir_threshold": 1.0,
                "beta": [0.75]}
    owner = tier if field in tier else window if field in window else scenario
    owner[field] = [value] if field == "beta" else value

    def in_code():
        tiers = (TierParams(**tier),)
        Window(**window)
        return NetworkParams(**{"tiers": tiers, **scenario})

    errors = []
    for build in (in_code, lambda: parse_config({"tiers": [tier], "window": window, **scenario})):
        with pytest.raises(ConfigError) as info:
            build()
        errors.append(info.value)
    return errors


STRICT_FIELDS = ("power_watts", "intensity", "tiers", "pathloss_exponent", "sir_threshold",
                 "half_width")
NON_STRICT_FIELDS = ("user_intensity", "beta")
JSON_PATH = {"power_watts": "tiers[0].", "intensity": "tiers[0].", "half_width": "window."}


@pytest.mark.parametrize("field, value", [
    (field, value) for field in STRICT_FIELDS + NON_STRICT_FIELDS
    for value in (-1.0, math.nan, math.inf, True, "1")
] + [(field, 0.0) for field in STRICT_FIELDS])
def test_one_rule_per_field(field, value):
    # the type that owns a field and parse_config raise the same error; the
    # parser's field adds the JSON path of the object the field is in
    in_code, parsed = _errors_in_both_forms(field, value)
    name = "beta[0]" if field == "beta" else field
    assert (in_code.field, in_code.message) == (name, parsed.message)
    assert parsed.field == JSON_PATH.get(field, "") + name


class TestCliAnalytic:
    def test_report_values(self, tmp_path):
        # single tier with q = 1: frozen near/far at beta = 3/4
        path = write_config(tmp_path, {
            "tiers": [{"power_watts": 1.0, "intensity": 1e-4}],
            "user_intensity": 1e8,
            "beta": 0.75,
        })
        code, text = run_cli(["analytic", "--config", path])
        assert code == 0
        assert "near 0.474575" in text and "far 0.253861" in text
        assert "non-void probability q = 1.000000" in text

    def test_stock_two_tier_report(self, tmp_path):
        path = write_config(tmp_path, {
            "tiers": [
                {"power_watts": 20.0, "intensity": 1e-6},
                {"power_watts": 2.0, "intensity": 5e-5},
            ],
            "user_intensity": 5e-4,
            "beta": 0.75,
        })
        code, text = run_cli(["analytic", "--config", path])
        assert code == 0
        assert "cell load L = 9.803922" in text
        assert "non-void probability q = 0.990661" in text
        assert "near 0.837023" in text and "far 0.748966" in text  # macro
        assert "near 0.462501" in text and "far 0.240038" in text  # pico

    def test_invalid_beta_flagged(self, tmp_path):
        path = write_config(tmp_path, {
            "tiers": [{"power_watts": 1.0, "intensity": 1e-4}],
            "user_intensity": 1e8,
            "beta": 0.5,
        })
        code, text = run_cli(["analytic", "--config", path])
        assert code == 0
        assert "invalid power allocation: beta <= theta/(1+theta)" in text

    @pytest.mark.parametrize("change", [
        {"sir_threshold": 1e-323},
        {"sir_threshold": 1e-310, "pathloss_exponent": 2.01},
        {"tiers": [STOCK_TIERS[0], {"power_watts": 1e-320, "intensity": 5e-5}]},
        {"tiers": [{"power_watts": 1e308, "intensity": 1e-6}, STOCK_TIERS[1]]},
        {"tiers": [STOCK_TIERS[0], {"power_watts": 1e-320, "intensity": 5e-5}],
         "user_intensity": 0.0},
    ], ids=["subnormal_theta", "subnormal_theta_alpha_2.01", "tiny_pico_power",
            "huge_macro_power", "tiny_pico_power_no_users"])
    def test_extreme_inputs_report_numbers(self, tmp_path, change):
        data = {"tiers": STOCK_TIERS, "user_intensity": 5e-4, "beta": 0.75, **change}
        code, text = run_cli(["analytic", "--config", write_config(tmp_path, data)])
        assert code == 0
        assert text.count("coop[appendix] : near") == 2
        assert "nan" not in text

    def test_missing_tiers_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"user_intensity": 1e-4})
        code, _ = run_cli(["analytic", "--config", path])
        assert code == 2
        assert "tiers" in capsys.readouterr().err

    def test_kernel_mode_other_than_appendix_exits_2(self, tmp_path, capsys):
        data = {
            "tiers": [{"power_watts": 1.0, "intensity": 1e-4}],
            "user_intensity": 1e-4,   # q < 1
            "beta": 0.75,
        }
        code, text = run_cli(["analytic", "--config", write_config(tmp_path, data)])
        assert code == 0 and "coop[appendix]" in text
        for mode in ("theorem", "both"):
            path = write_config(tmp_path, dict(data, kernel_mode=mode))
            code, text = run_cli(["analytic", "--config", path])
            assert code == 2
            assert text == ""
            assert capsys.readouterr().err == (
                f"error: config field 'kernel_mode': only 'appendix' is accepted, got {mode!r}\n"
            )
        # the flag is gone: argparse rejects it
        with pytest.raises(SystemExit) as info:
            run_cli(["analytic", "--config", write_config(tmp_path, data),
                     "--kernel-mode", "theorem"])
        assert info.value.code == 2
        assert "--kernel-mode" in capsys.readouterr().err


class TestCliSim:
    def test_csv_contract_and_determinism(self, tmp_path):
        import time

        cfg = dict(TOY_CONFIG)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        path = write_config(tmp_path, cfg)
        t0 = time.perf_counter()
        code, _ = run_cli(["sim", "--config", path, "--out", out1])
        assert code == 0
        assert time.perf_counter() - t0 < 60.0  # smoke-scale budget
        code, _ = run_cli(["sim", "--config", path, "--out", out2])
        assert code == 0
        data1 = open(out1, "rb").read()
        assert hashlib.sha256(data1).digest() == hashlib.sha256(open(out2, "rb").read()).digest()
        lines = data1.decode().splitlines()
        assert lines[0] == "sweep_value,tier,role,scheme,analytic,simulated,ci_halfwidth,n_samples,flags"
        # 1 grid point x 2 tiers x 2 roles x 2 schemes
        assert len(lines) == 1 + 4 * len(cfg["schemes"])

    def test_seed_override_changes_output(self, tmp_path):
        path = write_config(tmp_path, TOY_CONFIG)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli(["sim", "--config", path, "--out", out1, "--seed", "7"])
        run_cli(["sim", "--config", path, "--out", out2, "--seed", "8"])
        assert open(out1).read() != open(out2).read()

    def test_noncoop_only_row_count(self, tmp_path):
        cfg = dict(TOY_CONFIG)
        cfg["schemes"] = ["noncoop"]
        out = str(tmp_path / "n.csv")
        path = write_config(tmp_path, cfg)
        code, _ = run_cli(["sim", "--config", path, "--out", out])
        assert code == 0
        assert len(open(out).read().splitlines()) == 1 + 4

    @pytest.mark.parametrize("flag, value, field", [
        ("--trials", "0", "n_trials"),
        ("--seed", "-1", "seed"),
    ])
    def test_invalid_override_exits_2_naming_field(self, tmp_path, capsys, flag, value, field):
        path = write_config(tmp_path, TOY_CONFIG)
        code, text = run_cli(["sim", "--config", path, flag, value])
        assert code == 2
        assert text == ""
        assert f"config field '{field}'" in capsys.readouterr().err

    def test_oversized_scenario_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the point count")

        monkeypatch.setattr(simulate, "sample_ppp", no_sampling)
        path = write_config(tmp_path, OVERSIZED_CONFIG)
        # the config is refused as a whole, also by the commands that do not simulate
        for command in ("sim", "analytic", "sweep", "optimize-beta"):
            code, text = run_cli([command, "--config", path])
            assert code == 2
            assert text == ""
            assert "config field 'window': a snapshot would hold" in capsys.readouterr().err

    def test_dense_scenario_on_default_window_simulates(self, tmp_path):
        # 1 user/m^2 on the stock tiers: 2e4 users per BS, none of them placed
        path = write_config(tmp_path, {"tiers": STOCK_TIERS, "user_intensity": 1.0})
        code, text = run_cli(["sim", "--config", path, "--trials", "1"])
        assert code == 0
        assert len(text.splitlines()) == 1 + 8

    def test_unwritable_output_reports_path(self, tmp_path, capsys):
        path = write_config(tmp_path, TOY_CONFIG)
        bad = str(tmp_path / "no_such_dir" / "x.csv")
        code, _ = run_cli(["sim", "--config", path, "--out", bad])
        assert code == 1
        assert "no_such_dir" in capsys.readouterr().err


class TestCliSweep:
    def test_sweep_csv(self, tmp_path):
        cfg = dict(TOY_CONFIG)
        cfg["n_trials"] = 1
        out = str(tmp_path / "sweep.csv")
        path = write_config(tmp_path, cfg)
        code, text = run_cli(["sweep", "--config", path, "--out", out])
        assert code == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2 * 2  # grid x tiers x roles x schemes
        assert "max |analytic - simulated|" in text

    def test_summary_skips_tier_without_cells(self, tmp_path):
        # at user_intensity 1e-6 no cell has two users: the first point's
        # rows carry no samples and must not turn the summary into nan
        cfg = dict(TOY_CONFIG, n_trials=1, sweep={"variable": "user_intensity",
                                                  "grid": [1e-6, 8e-4]})
        out = str(tmp_path / "sweep.csv")
        code, text = run_cli(["sweep", "--config", write_config(tmp_path, cfg), "--out", out])
        assert code == 0
        assert open(out).read().splitlines()[1].split(",")[7] == "0"
        gap = float(text.splitlines()[-1].rsplit(": ", 1)[1])
        assert 0.0 <= gap < 1.0

    def test_trials_override(self, tmp_path):
        cfg = dict(TOY_CONFIG)
        out = str(tmp_path / "s.csv")
        path = write_config(tmp_path, cfg)
        code, _ = run_cli(["sweep", "--config", path, "--out", out, "--trials", "1"])
        assert code == 0
        row = open(out).read().splitlines()[1].split(",")
        n_samples = int(row[7])
        assert n_samples < 400  # one toy trial collects far fewer cells

    @pytest.mark.parametrize("update, field", [
        ({"sweep": {"variable": "beta", "grid": [0.75, 1.5]}}, "sweep.grid[1]"),
        ({"sweep": {"variable": "user_intensity", "grid": [-1e-4, 8e-4]}}, "sweep.grid[0]"),
        ({"sweep": {"variable": "pico_intensity", "grid": [1e-4, 2e-4]},
          "tiers": TOY_CONFIG["tiers"][:1], "beta": 0.75}, "sweep.grid[0]"),
        # the stock tiers on a 4e5 m wide window: 8.16e6 BSs at every load,
        # so the scenario point is over the limit too, and is named
        ({"sweep": {"variable": "user_intensity", "grid": [5e-4, 2e-3]},
          "tiers": STOCK_TIERS, "user_intensity": 5e-4,
          "window": {"half_width": 2e5}}, "window"),
        # 1.5e7 BSs on the toy window
        ({"sweep": {"variable": "pico_intensity", "grid": [1.8e-4, 10.0]}}, "sweep.grid[1]"),
    ], ids=["beta_above_1", "negative_user_intensity", "pico_on_one_tier",
            "user_intensity_over_point_limit", "pico_intensity_over_point_limit"])
    def test_grid_value_the_variable_cannot_take_exits_2(self, tmp_path, capsys, monkeypatch,
                                                          update, field):
        def no_trials(*args, **kwargs):
            raise AssertionError("simulated before rejecting the grid")

        monkeypatch.setattr(sweeps, "run_trial_sets", no_trials)
        cfg = dict(TOY_CONFIG, **update)
        code, text = run_cli(["sweep", "--config", write_config(tmp_path, cfg)])
        assert code == 2
        assert text == ""
        assert f"config field '{field}'" in capsys.readouterr().err

    def test_grid_point_counts_only_its_base_stations(self):
        # the stock tiers on a 1.4e5 m wide window hold 1e6 BSs; at 3e-4
        # users/m^2 (5.9 users per BS) a snapshot would hold 5.88e6 users
        # too, but it places none, as a grid point and as the scenario point
        # that sim samples alike
        window = {"half_width": 7e4}
        sweep = {"tiers": STOCK_TIERS, "user_intensity": 1e-4, "window": window,
                 "sweep": {"variable": "user_intensity", "grid": [1e-4, 3e-4]}}
        assert parse_config(sweep).sweep_grid == (1e-4, 3e-4)
        assert parse_config(dict(sweep, user_intensity=3e-4)).params.user_intensity == 3e-4

    def test_sigterm_ends_the_sweep_and_its_workers(self, tmp_path):
        # SIGTERM mid-run: the command exits nonzero, and the child forked
        # beside it (n_jobs 2: the sweep's own process and one child) exits
        # with it instead of living on with parent PID 1
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("the worker processes are found through /proc")
        if (simulate._cpu_count() or 1) < 2:
            pytest.skip("a one-CPU machine runs the trials without forking")
        cfg = {"tiers": TOY_CONFIG["tiers"], "user_intensity": 8e-4, "beta": 0.75,
               "n_trials": 10_000, "n_jobs": 2}
        env = dict(os.environ, PYTHONPATH=str(Path(hetnoma.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hetnoma.cli", "sweep", "--config",
             write_config(tmp_path, cfg), "--out", str(tmp_path / "sweep.csv")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while not workers and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _children(proc.pid)
            assert len(workers) == 1, "the sweep never forked its one child"
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) != 0
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            for pid in [proc.pid] + workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()

    def test_sigkill_of_the_sweep_ends_its_workers(self, tmp_path):
        # a parent killed outright kills no child: the child watches its
        # parent and exits once it is gone, instead of running its share
        # of the trials for good
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("the worker processes are found through /proc")
        if (simulate._cpu_count() or 1) < 2:
            pytest.skip("a one-CPU machine runs the trials without forking")
        cfg = {"tiers": TOY_CONFIG["tiers"], "user_intensity": 8e-4, "beta": 0.75,
               "n_trials": 10_000, "n_jobs": 2}
        env = dict(os.environ, PYTHONPATH=str(Path(hetnoma.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "hetnoma.cli", "sweep", "--config",
             write_config(tmp_path, cfg), "--out", str(tmp_path / "sweep.csv")],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while not workers and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _children(proc.pid)
            assert len(workers) == 1, "the sweep never forked its one child"
            time.sleep(0.3)
            proc.send_signal(signal.SIGKILL)
            assert proc.wait(timeout=10) == -signal.SIGKILL
            time.sleep(5.0)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            for pid in [proc.pid] + workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()


def _stat(pid):
    """(state, parent pid) of a process from /proc, or None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    state, ppid = text[text.rindex(")") + 2:].split()[:2]
    return state, int(ppid)


def _children(pid):
    found = []
    for entry in os.listdir("/proc"):
        stat = _stat(entry) if entry.isdigit() else None
        if stat is not None and stat[1] == pid:
            found.append(int(entry))
    return found


def _running(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


class TestCliOptimizeBeta:
    def test_report_and_scan_csv(self, tmp_path):
        out = str(tmp_path / "beta.csv")
        path = write_config(tmp_path, {
            "tiers": [{"power_watts": 1.0, "intensity": 1e-4}],
            "user_intensity": 1e8,
            "beta": 0.75,
            "schemes": ["noncoop"],
        })
        code, text = run_cli(["optimize-beta", "--config", path, "--out", out])
        assert code == 0
        assert "beta* = 0.766" in text
        assert "beta,tier,scheme,avg_coverage" in text
        lines = open(out).read().splitlines()
        assert lines[0] == "beta,tier,scheme,avg_coverage"
        assert len(lines) == 1 + 32

    def test_extrapolated_coop_optimum_is_noted(self, tmp_path):
        path = write_config(tmp_path, {
            "tiers": [{"power_watts": 20.0, "intensity": 1e-6},
                      {"power_watts": 2.0, "intensity": 5e-5}],
            "user_intensity": 5e-4,
            "pathloss_exponent": 3.0,
            "beta": 0.75,
            "schemes": ["coop"],
        })
        code, text = run_cli(["optimize-beta", "--config", path])
        assert code == 0
        macro, pico = text.splitlines()[:2]
        assert macro.startswith("tier 1 coop: beta* = 0.78")
        assert not macro.endswith("]")
        assert pico.startswith("tier 2 coop: beta* = 0.5000")
        assert pico.endswith("  [extrapolated below (1+theta)/(2+theta)]")

    def test_out_file_equals_stdout_scan(self, tmp_path):
        out = str(tmp_path / "beta.csv")
        path = write_config(tmp_path, dict(TOY_CONFIG, user_intensity=1e8))
        code, text = run_cli(["optimize-beta", "--config", path, "--out", out])
        assert code == 0
        start = text.index("beta,tier,scheme,avg_coverage\n")
        end = text.index(f"wrote beta scan to {out}\n")
        with open(out, "rb") as fh:
            assert fh.read() == text[start:end].encode()

    def test_one_evaluator_for_every_scan(self, tmp_path, monkeypatch):
        # the kernels depend on the tiers and alpha alone: one evaluator
        # serves the 4 scans of a two-tier, two-scheme run
        built = []
        from_params = KernelEvaluator.from_params.__func__
        monkeypatch.setattr(KernelEvaluator, "from_params", classmethod(
            lambda cls, params: built.append(params) or from_params(cls, params)))
        path = write_config(tmp_path, dict(TOY_CONFIG, pathloss_exponent=3.5))
        code, text = run_cli(["optimize-beta", "--config", path])
        assert code == 0
        assert text.count(": beta* = ") == 4
        assert len(built) == 1

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_1_without_traceback(self, tmp_path, unbuffered):
        # the report and scan (about 4.9 kB) overfill a one-page pipe, so
        # the command is still writing when the reader closes after one line
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("pipe capacity cannot be set on this platform")
        path = write_config(tmp_path, TOY_CONFIG)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = str(Path(hetnoma.__file__).resolve().parents[1])
        read_fd, write_fd = os.pipe()
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-m", "hetnoma.cli", "optimize-beta", "--config", path],
            stdout=write_fd, stderr=subprocess.PIPE, env=env,
        )
        os.close(write_fd)
        line = b""
        while not line.endswith(b"\n"):
            byte = os.read(read_fd, 1)
            assert byte, "the command closed its output before a full line"
            line += byte
        os.close(read_fd)
        _, stderr = proc.communicate(timeout=300)
        assert line.startswith(b"tier 1 noncoop: beta* = ")
        assert proc.returncode == 1
        assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr


# The scenario config of the README, run with --trials 2.  sim runs the
# trial of its scenario point, 5e-4 users/m^2 (9.8 users per BS); the sweep
# tessellates one snapshot per trial for all five grid points.
README_CONFIG = {
    "tiers": STOCK_TIERS,
    "user_intensity": 5e-4,
    "pathloss_exponent": 4.0,
    "sir_threshold": 1.0,
    "beta": 0.75,
    "schemes": ["noncoop", "coop"],
    "sweep": {"variable": "user_intensity", "grid": [5e-5, 1e-4, 2e-4, 5e-4, 1e-3]},
    "seed": 1,
    "n_trials": 100,
}

# sha256 of (stdout, --out file) per (command, with --out).  Like the float
# hex pins of test_simulate, these hold for numpy 2.4.6 and scipy 1.17.1:
# another version may draw or round differently.
CLI_DIGESTS = {
    ("analytic", False): ("551c5127ee2e79adc81c9232b3d92c32f64083d37939613d9000c14ab54e4de7", None),
    ("analytic", True): ("551c5127ee2e79adc81c9232b3d92c32f64083d37939613d9000c14ab54e4de7", None),
    ("sim", False): ("3a400f5e2a9ad94cf9294d057b007ef1c504cf6c745fccdd2b1038f772e3247e", None),
    ("sim", True): ("b6cd70dfa19cb0fee31ec02dd2bd43bcf9debfc1048e3ce55602255420f5b960",
                    "3a400f5e2a9ad94cf9294d057b007ef1c504cf6c745fccdd2b1038f772e3247e"),
    ("sweep", False): ("d3c02b4c103f57258ee7b90c5ef99c8f67cfe8bb67b6ed448cfe37cd12e3ddbc", None),
    ("sweep", True): ("f2de29b9c86adecee713455fd9293bd3b4512f7a447bd68b8d948d2c9f0f9725",
                      "5a99518bbbad30fac6281682e33bd99b84b5aaecd7022b30c63526494e43a0d0"),
    ("optimize-beta", False): ("4eebc2f830d0980e1264b669d682addedbffa577896958923321cb74bd943e79",
                               None),
    ("optimize-beta", True): ("5fb391573a0fce763eae22ea6d92bd071e417f1b716af777b241e6d846bb4d10",
                              "929a4eaaf3e820967818c5e09291cb04e4c08557c3e5672cdf72dbdd69376d43"),
}


# The stock two tiers at alpha = 3.5 (the 2F1 tail), theta = 0.5 and beta =
# 0.55, below the coop crossover (1+theta)/(2+theta) = 0.6: the analytic
# report prints the extrapolated note.  Digests as in CLI_DIGESTS.
ALPHA35_CONFIG = {
    "tiers": STOCK_TIERS,
    "user_intensity": 5e-4,
    "pathloss_exponent": 3.5,
    "sir_threshold": 0.5,
    "beta": 0.55,
    "schemes": ["noncoop", "coop"],
}
ALPHA35_DIGESTS = {
    ("analytic", False): ("1f1fe706808ff9af2e371b0880df44e971b278135b576a6da2e5aaa55f64745e", None),
    ("analytic", True): ("1f1fe706808ff9af2e371b0880df44e971b278135b576a6da2e5aaa55f64745e", None),
    ("optimize-beta", False): ("4f62b29c31b647d8419283a28adc67f0e4559635740e0f75f9ec6b2e613e8900",
                               None),
    ("optimize-beta", True): ("740f49e8cf94717dd82f4c4c5c53a3a8f512c413a46b827679668caf06be0c6c",
                              "fcf5425c304c32c0c84e8b98d2d60681caaa168ceb5d7c95849c2ab27875cfac"),
}


def pinned_runs(config, digests, tag=""):
    return [pytest.param(config, c, f, d, id=f"{c}{tag}-{'out' if f else 'stdout'}")
            for (c, f), d in digests.items()]


@pytest.mark.parametrize("config, command, to_file, expected",
                         pinned_runs(README_CONFIG, CLI_DIGESTS)
                         + pinned_runs(ALPHA35_CONFIG, ALPHA35_DIGESTS, "-alpha35"))
def test_cli_bytes_pinned(tmp_path, monkeypatch, config, command, to_file, expected):
    # relative paths, so that the "wrote ... to out.csv" line is the same in any directory
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, config)
    args = [command, "--config", "scenario.json", "--trials", "2"]
    code, text = run_cli(args + (["--out", "out.csv"] if to_file else []))
    assert code == 0
    written = (tmp_path / "out.csv").read_bytes() if (tmp_path / "out.csv").exists() else None
    digests = (hashlib.sha256(text.encode()).hexdigest(),
               None if written is None else hashlib.sha256(written).hexdigest())
    assert digests == expected
