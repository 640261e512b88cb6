"""Scenario configuration: the one description of a run, and its JSON form.

Each input is checked once, by the type that takes it, with the rules of
hetnoma.checks, so a config built in code meets the same rules as a file.
parse_config only maps a decoded JSON object onto those types: it checks
the JSON shape and keys, supplies the defaults of pathloss_exponent,
sir_threshold and beta (ScenarioConfig holds the others), and puts the
JSON path before the field that a type's ConfigError names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .checks import ConfigError, integer, number
from .coverage import SCHEMES, NetworkParams, TierParams, check_schemes
from .geometry import Window
from .simulate import check_point_budget
from .sweeps import DEFAULT_USER_INTENSITY_GRID, SWEEP_VARIABLES, apply_sweep_value

_PASSED_KEYS = ("schemes", "seed", "n_trials", "max_cells_per_tier", "n_jobs", "output")
_TOP_KEYS = {"tiers", "user_intensity", "pathloss_exponent", "sir_threshold", "beta", "sweep",
             "window", "kernel_mode", *_PASSED_KEYS}
_TIER_KEYS = {"power_watts", "intensity"}
_WINDOW_KEYS = {"half_width"}
_SWEEP_KEYS = {"variable", "grid"}


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
        object.__setattr__(self, "schemes", check_schemes(self.schemes))

        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError("sweep.variable", f"unknown variable {self.sweep_variable!r} "
                                                f"(choose from {list(SWEEP_VARIABLES)})")
        if not isinstance(self.sweep_grid, (list, tuple)) or not self.sweep_grid:
            raise ConfigError("sweep.grid", "expected a nonempty array of numbers")
        grid = tuple(number(v, f"sweep.grid[{i}]") for i, v in enumerate(self.sweep_grid))
        if any(lo >= hi for lo, hi in zip(grid, grid[1:])):
            raise ConfigError("sweep.grid", "must be strictly increasing")
        check_point_budget(self.params, self.window)
        for i, value in enumerate(grid):
            try:
                check_point_budget(apply_sweep_value(self.params, self.sweep_variable, value),
                                   self.window)
            except ConfigError as exc:
                raise ConfigError(f"sweep.grid[{i}]", exc.message) from exc
        object.__setattr__(self, "sweep_grid", grid)

        if self.max_cells_per_tier is not None:
            integer(self.max_cells_per_tier, "max_cells_per_tier", 1)
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError("output", "expected a string path")
        integer(self.seed, "seed", 0)
        integer(self.n_trials, "n_trials", 1)
        integer(self.n_jobs, "n_jobs", 1)


def _reject_unknown(mapping, allowed, where):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"{where}{key}", "unknown key")


def _require(mapping, key, where=""):
    if key not in mapping:
        raise ConfigError(f"{where}{key}", "missing required key")
    return mapping[key]


def _within(where, build, *args):
    """build(*args), with the JSON path `where` put before the field of its ConfigError."""
    try:
        return build(*args)
    except ConfigError as exc:
        raise ConfigError(where + exc.field, exc.message) from exc


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
    if not isinstance(raw_tiers, list):
        raise ConfigError("tiers", "expected a nonempty array of tier objects")
    tiers = []
    for i, entry in enumerate(raw_tiers):
        where = f"tiers[{i}]."
        if not isinstance(entry, dict):
            raise ConfigError(f"tiers[{i}]", "expected an object")
        _reject_unknown(entry, _TIER_KEYS, where)
        tiers.append(_within(where, TierParams, _require(entry, "power_watts", where),
                             _require(entry, "intensity", where)))

    beta = data.get("beta", 0.75)
    if not isinstance(beta, list):
        beta = (number(beta, "beta", 0.0),) * len(tiers)
    params = NetworkParams(
        tiers=tiers,
        user_intensity=_require(data, "user_intensity"),
        pathloss_exponent=data.get("pathloss_exponent", 4.0),
        sir_threshold=data.get("sir_threshold", 1.0),
        beta=beta,
    )

    fields = {key: data[key] for key in _PASSED_KEYS if key in data}
    if "sweep" in data:
        sweep = data["sweep"]
        if not isinstance(sweep, dict):
            raise ConfigError("sweep", "expected an object")
        _reject_unknown(sweep, _SWEEP_KEYS, "sweep.")
        fields.update({f"sweep_{key}": value for key, value in sweep.items()})

    if "window" in data:
        raw = data["window"]
        if not isinstance(raw, dict):
            raise ConfigError("window", "expected an object")
        _reject_unknown(raw, _WINDOW_KEYS, "window.")
        fields["window"] = _within("window.", Window, _require(raw, "half_width", "window."))

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
