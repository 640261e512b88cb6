"""Scenario configuration: the one description of a run, and its JSON form.

ScenarioConfig checks its own fields, so a config built in code is held
to the same rules as one read from a file.  parse_config only maps a
decoded JSON object onto it: it rejects unknown keys and builds the
tier, beta, sweep and window objects; every other key is passed through
only when present, so each default lives in the dataclass.  Every error
names the offending field.  parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .coverage import NetworkParams, TierParams
from .geometry import Window
from .simulate import SCHEMES, check_point_budget
from .sweeps import DEFAULT_USER_INTENSITY_GRID, SWEEP_VARIABLES, apply_sweep_value

_TOP_KEYS = {
    "tiers", "user_intensity", "pathloss_exponent", "sir_threshold", "beta",
    "schemes", "sweep", "seed", "n_trials", "window", "kernel_mode",
    "max_cells_per_tier", "n_jobs", "output",
}
_PASSED_KEYS = ("schemes", "seed", "n_trials", "max_cells_per_tier", "n_jobs", "output")
_TIER_KEYS = {"power_watts", "intensity"}
_WINDOW_KEYS = {"half_width", "margin"}
_SWEEP_KEYS = {"variable", "grid"}


class ConfigError(ValueError):
    """Invalid scenario config; `field` names the offending entry."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


@dataclass(frozen=True)
class ScenarioConfig:
    """One run: base scenario, swept variable and grid, schemes, simulation budget.

    Invalid fields raise ConfigError naming the config field.  Every grid
    value must be one the swept variable can take in this scenario.  The
    scenario point ("window") and every grid point must be one the
    simulator can sample (simulate.check_point_budget, on the configured
    window or the point's default one).
    """

    params: NetworkParams
    schemes: tuple = SCHEMES
    sweep_variable: str = "user_intensity"
    sweep_grid: tuple = DEFAULT_USER_INTENSITY_GRID
    seed: int = 1
    n_trials: int = 20
    window: Window = None
    max_cells_per_tier: int = None
    n_jobs: int = 1
    output: str = None

    def __post_init__(self):
        if not isinstance(self.schemes, (list, tuple)) or not self.schemes:
            raise ConfigError("schemes", "expected a nonempty array")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError("schemes", f"unknown scheme {s!r} (choose from {list(SCHEMES)})")
        object.__setattr__(self, "schemes", tuple(self.schemes))

        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError("sweep.variable", f"unknown variable {self.sweep_variable!r} "
                                                f"(choose from {list(SWEEP_VARIABLES)})")
        if not isinstance(self.sweep_grid, (list, tuple)) or not self.sweep_grid:
            raise ConfigError("sweep.grid", "expected a nonempty array of numbers")
        grid = tuple(_number(v, f"sweep.grid[{i}]") for i, v in enumerate(self.sweep_grid))
        if any(lo >= hi for lo, hi in zip(grid, grid[1:])):
            raise ConfigError("sweep.grid", "must be strictly increasing")
        try:
            check_point_budget(self.params, self.window)
        except ValueError as exc:
            raise ConfigError("window", str(exc)) from exc
        for i, value in enumerate(grid):
            try:
                check_point_budget(apply_sweep_value(self.params, self.sweep_variable, value),
                                   self.window)
            except ValueError as exc:
                raise ConfigError(f"sweep.grid[{i}]", str(exc)) from exc
        object.__setattr__(self, "sweep_grid", grid)

        if self.max_cells_per_tier is not None:
            _integer(self.max_cells_per_tier, "max_cells_per_tier", 1)
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError("output", "expected a string path")
        _integer(self.seed, "seed", 0)
        _integer(self.n_trials, "n_trials", 1)
        _integer(self.n_jobs, "n_jobs", 1)


def _reject_unknown(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{where}{key}", "unknown key")


def _require(mapping, key, where=""):
    if key not in mapping:
        raise ConfigError(f"{where}{key}", "missing required key")
    return mapping[key]


def _number(value, field, minimum=None, strict=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(field, f"expected a finite number, got {value!r}")
    value = float(value)
    if minimum is not None and (value <= minimum if strict else value < minimum):
        bound = "greater than" if strict else "at least"
        raise ConfigError(field, f"must be {bound} {minimum}")
    return value


def _integer(value, field, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(field, f"must be at least {minimum}")
    return value


def parse_config(data):
    """Build a ScenarioConfig from a decoded JSON object.

    A "kernel_mode" key is accepted only with the value "appendix", the
    one cooperative kernel, and is then ignored.
    """
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "")
    if data.get("kernel_mode", "appendix") != "appendix":
        raise ConfigError("kernel_mode",
                          f"only 'appendix' is accepted, got {data['kernel_mode']!r}")

    raw_tiers = _require(data, "tiers")
    if not isinstance(raw_tiers, list) or not raw_tiers:
        raise ConfigError("tiers", "expected a nonempty array of tier objects")
    tiers = []
    for i, entry in enumerate(raw_tiers):
        where = f"tiers[{i}]."
        if not isinstance(entry, dict):
            raise ConfigError(f"tiers[{i}]", "expected an object")
        _reject_unknown(entry, _TIER_KEYS, where)
        tiers.append(
            TierParams(
                power_watts=_number(_require(entry, "power_watts", where),
                                    where + "power_watts", 0.0, strict=True),
                intensity=_number(_require(entry, "intensity", where),
                                  where + "intensity", 0.0, strict=True),
            )
        )

    raw_beta = data.get("beta", 0.75)
    if isinstance(raw_beta, list):
        if len(raw_beta) != len(tiers):
            raise ConfigError("beta", "must have one entry per tier")
        beta = tuple(_number(b, f"beta[{i}]", 0.0) for i, b in enumerate(raw_beta))
    else:
        beta = (_number(raw_beta, "beta", 0.0),) * len(tiers)
    if any(b > 1.0 for b in beta):
        raise ConfigError("beta", "entries must lie in [0, 1]")

    params = NetworkParams(
        tiers=tuple(tiers),
        user_intensity=_number(_require(data, "user_intensity"), "user_intensity", 0.0),
        pathloss_exponent=_number(data.get("pathloss_exponent", 4.0),
                                  "pathloss_exponent", 2.0, strict=True),
        sir_threshold=_number(data.get("sir_threshold", 1.0), "sir_threshold", 0.0, strict=True),
        beta=beta,
    )

    fields = {key: data[key] for key in _PASSED_KEYS if key in data}
    if "sweep" in data:
        sweep = data["sweep"]
        if not isinstance(sweep, dict):
            raise ConfigError("sweep", "expected an object")
        _reject_unknown(sweep, _SWEEP_KEYS, "sweep.")
        if "variable" in sweep:
            fields["sweep_variable"] = sweep["variable"]
        if "grid" in sweep:
            fields["sweep_grid"] = sweep["grid"]

    if "window" in data:
        raw = data["window"]
        if not isinstance(raw, dict):
            raise ConfigError("window", "expected an object")
        _reject_unknown(raw, _WINDOW_KEYS, "window.")
        half_width = _number(_require(raw, "half_width", "window."),
                             "window.half_width", 0.0, strict=True)
        margin = _number(_require(raw, "margin", "window."), "window.margin", 0.0, strict=True)
        try:
            fields["window"] = Window(half_width=half_width, margin=margin)
        except ValueError as exc:
            raise ConfigError("window", str(exc)) from exc

    return ScenarioConfig(params=params, **fields)


def load_config(path, overrides=None):
    """Parse the JSON config at `path`.

    overrides maps top-level config keys to values that replace the
    file's before parsing, so they are validated like the file's own.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    if overrides and isinstance(data, dict):
        data = {**data, **overrides}
    return parse_config(data)


def config_to_dict(cfg):
    data = {
        "tiers": [
            {"power_watts": t.power_watts, "intensity": t.intensity}
            for t in cfg.params.tiers
        ],
        "user_intensity": cfg.params.user_intensity,
        "pathloss_exponent": cfg.params.pathloss_exponent,
        "sir_threshold": cfg.params.sir_threshold,
        "beta": list(cfg.params.beta),
        "schemes": list(cfg.schemes),
        "sweep": {"variable": cfg.sweep_variable, "grid": list(cfg.sweep_grid)},
        "seed": cfg.seed,
        "n_trials": cfg.n_trials,
        "n_jobs": cfg.n_jobs,
    }
    if cfg.window is not None:
        data["window"] = {"half_width": cfg.window.half_width, "margin": cfg.window.margin}
    if cfg.max_cells_per_tier is not None:
        data["max_cells_per_tier"] = cfg.max_cells_per_tier
    if cfg.output is not None:
        data["output"] = cfg.output
    return data


def dump_config(cfg):
    """Serialize to JSON text; floats round-trip exactly."""
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"
