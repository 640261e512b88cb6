"""The benchmark's workloads: inputs built from a seed, one op, output checks.

Each workload is a fixed list of distinct ops.  A pass runs every op once,
in order, and every pass repeats the same ops, so a repeat at one seed
must reproduce the first result exactly; that is one of the checks.

Importing this module imports hetnoma from the checkout's `src/`
directory and nowhere else.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "hetnoma" / "__init__.py").is_file():
    raise ImportError(f"hetnoma sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import hetnoma  # noqa: E402
from hetnoma import cli, simulate, sweeps  # noqa: E402

if Path(hetnoma.__file__).resolve().parent != SRC / "hetnoma":
    raise ImportError(f"hetnoma was imported from {hetnoma.__file__}, not from {SRC}")

NAMES = ("mc_stock", "mc_dense_users", "beta_search", "sweep_cli")

# Acceptance criterion 3: |analytic - simulated| <= 0.03 at >= 1e4 cells per
# tier.  A pass has far fewer cells, so the check also allows the sampling
# error: the gap beyond 0.03 must stay within GAP_CI_UNITS CI half-widths.
ACCEPTANCE_GAP = 0.03
GAP_CI_UNITS = 2.0
BETA_TOL = 1e-9


class MonteCarlo:
    """op i = run_trials(params, n_trials=TRIALS_PER_OP, seed=(seed, i), cap, n_jobs=1)."""

    OPS = 8
    TRIALS_PER_OP = 2
    n_jobs = 1

    def __init__(self, seed, params, cap):
        self.seed = seed
        self.params = params
        self.cap = cap
        self.keys = list(range(self.OPS))
        self.analytic = sweeps.analytic_pairs(params)
        self._first = {}

    def run(self, i):
        return simulate.run_trials(
            self.params, n_trials=self.TRIALS_PER_OP, seed=(self.seed, i),
            max_cells_per_tier=self.cap, n_jobs=1,
        )

    def inspect(self, i, totals):
        errors = []
        if (totals.successes > totals.samples[:, None, None]).any():
            errors.append(f"op {i}: successes exceed samples")
        if (totals.successes[:, 1, :] < totals.successes[:, 0, :]).any():
            errors.append(f"op {i}: coop covers fewer users than noncoop on shared draws")
        first = self._first.setdefault(i, totals)
        if first is not totals:
            if not (first.samples == totals.samples).all():
                errors.append(f"op {i}: cells per trial changed on a repeat at one seed")
            if not (first.successes == totals.successes).all():
                errors.append(f"op {i}: success counts changed on a repeat at one seed")
        return int(totals.samples.sum()), errors

    def finish_pass(self, results):
        """Analytic-vs-simulated gap of the pass's pooled counts, in CI units."""
        pooled = simulate.TrialTotals.zeros(self.params.n_tiers)
        for totals in results.values():
            pooled.merge(totals)
        errors = []
        for est in simulate.estimates_from_totals(pooled):
            analytic = getattr(self.analytic[(est.tier, est.scheme)], est.role)
            excess = abs(analytic - est.p_hat) - ACCEPTANCE_GAP
            if not excess <= GAP_CI_UNITS * est.ci_halfwidth:
                errors.append(
                    f"tier {est.tier + 1} {est.scheme} {est.role}: analytic {analytic:.4f}, "
                    f"simulated {est.p_hat:.4f} +- {est.ci_halfwidth:.4f}"
                )
        return errors

    def close(self):
        pass


class BetaSearch:
    """op = run_beta_scan(params, tier, scheme, grid) at alpha = 3.5.

    The scan has no randomness; the seed only fixes the order of the ops.
    """

    ALPHA = 3.5
    n_jobs = 1

    def __init__(self, seed):
        base = sweeps.table1_params()
        theta = base.sir_threshold
        self.lower = theta / (1.0 + theta)
        # the grid cmd_optimize_beta scans
        self.grid = [self.lower + (1.0 - self.lower) * i / 32 for i in range(1, 33)]
        self.params = {
            pico: replace(sweeps.table1_params(pico_intensity=pico), pathloss_exponent=self.ALPHA)
            for pico in (sweeps.PICO_INTENSITY_LOW, sweeps.PICO_INTENSITY_HIGH)
        }
        self.keys = [(pico, tier, scheme) for pico in self.params
                     for tier in range(base.n_tiers) for scheme in simulate.SCHEMES]
        random.Random(seed).shuffle(self.keys)
        self._first = {}

    def run(self, key):
        pico, tier, scheme = key
        return sweeps.run_beta_scan(self.params[pico], tier, scheme, self.grid)

    def inspect(self, key, scan):
        errors = []
        opt = scan.optimum
        if not self.lower < opt.beta_star <= 1.0:
            errors.append(f"{key}: beta* = {opt.beta_star!r} outside ({self.lower}, 1]")
        if opt.value < max(scan.averages) - BETA_TOL:
            errors.append(f"{key}: optimum {opt.value!r} below its own scan {max(scan.averages)!r}")
        first = self._first.setdefault(key, scan)
        if first is not scan and (first.optimum, first.averages) != (opt, scan.averages):
            errors.append(f"{key}: result changed on a repeat")
        return len(scan.grid), errors

    def finish_pass(self, results):
        return []

    def close(self):
        pass


class SweepCli:
    """op = cli.main(["sweep", "--config", <README config>, "--seed", seed, "--out", csv]).

    The README scenario with max_cells_per_tier = 120 and n_jobs = 2; the
    trial count is cut to TRIALS so that one op takes about a second.
    """

    TRIALS = 6
    n_jobs = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.config_path = workdir / f"sweep_cli-{os.getpid()}.json"
        self.csv_path = workdir / f"sweep_cli-{os.getpid()}.csv"
        config = {
            "tiers": [
                {"power_watts": 20.0, "intensity": 1e-6},
                {"power_watts": 2.0, "intensity": 5e-5},
            ],
            "user_intensity": 5e-4,
            "pathloss_exponent": 4.0,
            "sir_threshold": 1.0,
            "beta": 0.75,
            "schemes": ["noncoop", "coop"],
            "sweep": {"variable": "user_intensity", "grid": [5e-5, 1e-4, 2e-4, 5e-4, 1e-3]},
            "seed": 1,
            "n_trials": self.TRIALS,
            "kernel_mode": "appendix",
            "max_cells_per_tier": 120,
            "n_jobs": self.n_jobs,
        }
        self.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        # grid points x tiers x roles x schemes
        self.expected_rows = 5 * 2 * 2 * 2
        self.keys = [0]
        self._first = None

    def run(self, key):
        argv = ["sweep", "--config", str(self.config_path), "--seed", str(self.seed),
                "--out", str(self.csv_path)]
        return cli.main(argv, out=io.StringIO())

    def inspect(self, key, returncode):
        if returncode != 0:
            return 0, [f"hetnoma sweep exited with {returncode}"]
        data = self.csv_path.read_bytes()
        self.csv_path.unlink()
        errors = []
        if self._first is None:
            self._first = data
        elif data != self._first:
            errors.append("CSV bytes changed on a repeat at one seed")
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if len(rows) != self.expected_rows:
            errors.append(f"CSV has {len(rows)} rows, expected {self.expected_rows}")
        # tagged cells: one n_samples per (grid point, tier), repeated per role/scheme
        cells = sum(int(r["n_samples"]) for r in rows
                    if r["role"] == "near" and r["scheme"] == "noncoop")
        return cells, errors

    def finish_pass(self, results):
        return []

    def close(self):
        self.config_path.unlink(missing_ok=True)
        self.csv_path.unlink(missing_ok=True)


def make(name, seed, workdir):
    """Build the inputs of workload `name` from `seed`."""
    if name == "mc_stock":
        return MonteCarlo(seed, sweeps.table1_params(), cap=120)
    if name == "mc_dense_users":
        # about 39 users per cell and 78k users per snapshot
        return MonteCarlo(seed, sweeps.table1_params(user_intensity=2e-3), cap=16)
    if name == "beta_search":
        return BetaSearch(seed)
    if name == "sweep_cli":
        return SweepCli(seed, workdir)
    raise ValueError(f"unknown workload {name!r} (choose from {list(NAMES)})")
