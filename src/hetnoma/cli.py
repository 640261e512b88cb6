"""Command-line interface.

Subcommands:
    analytic       closed-form coverage report for a scenario
    sim            Monte Carlo estimates at the scenario point -> CSV
    sweep          analytic vs simulated coverage over a grid -> CSV
    optimize-beta  power-allocation search per tier and scheme

Exit codes: 0 success, 1 runtime error (such as an unwritable output
file, or a standard output closed by its reader), 2 configuration error,
143 (128 + SIGTERM) when terminated: a SIGTERM raises SystemExit, so a
run unwinds and kills the worker processes it forked.
All commands honor --seed and are bit-reproducible: identical config and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import os
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import replace

from .config import ConfigError, load_config
from .coverage import cell_load_model, decoding_thresholds
from .kernels import KernelEvaluator
from .sweeps import analytic_pairs, max_abs_gap, run_beta_scan, run_sweep

CSV_HEADER = ("sweep_value", "tier", "role", "scheme", "analytic",
              "simulated", "ci_halfwidth", "n_samples", "flags")
SCAN_HEADER = ("beta", "tier", "scheme", "avg_coverage")
EXTRAPOLATED_NOTE = "  [extrapolated below (1+theta)/(2+theta)]"


def _write_csv(header, records, path, out, written):
    """Write a CSV table to `out`, or to the file `path` and then report `written` on `out`."""

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)

    if path is None:
        emit(out)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    except OSError as exc:
        raise RuntimeError(f"cannot write output file {path}: {exc}") from exc
    print(f"wrote {written} to {path}", file=out)


def _write_rows(rows, path, out):
    """Comparison rows as CSV; floats in shortest round-trip form."""
    records = [
        [repr(float(r.sweep_value)), int(r.tier), r.role, r.scheme,
         repr(float(r.analytic)), repr(float(r.simulated)),
         repr(float(r.ci_halfwidth)), int(r.n_samples), r.flags]
        for r in rows
    ]
    _write_csv(CSV_HEADER, records, path, out, f"{len(rows)} rows")


def cmd_analytic(cfg, out):
    params = cfg.params
    load = cell_load_model(params)
    theta = params.sir_threshold
    pairs = analytic_pairs(params)
    print(f"cell load L = {load.cell_load:.6f} users/BS", file=out)
    print(f"non-void probability q = {load.nonvoid_prob:.6f}", file=out)
    for tier in range(params.n_tiers):
        t = params.tiers[tier]
        beta = params.beta[tier]
        print(f"tier {tier + 1}: power {t.power_watts:g} W, intensity {t.intensity:g} /m^2, "
              f"beta {beta:g}", file=out)
        thr = decoding_thresholds(theta, beta)
        if not thr.valid:
            print(f"  invalid power allocation: beta <= theta/(1+theta) "
                  f"(beta={beta:g}, theta={theta:g}); coverage is zero", file=out)
            continue
        near_txt = "inf" if thr.near_threshold == float("inf") else f"{thr.near_threshold:.6f}"
        print(f"  thresholds: near {near_txt}, far {thr.far_threshold:.6f} (valid)", file=out)
        non, coop = pairs[(tier, "noncoop")], pairs[(tier, "coop")]
        print(f"  noncoop        : near {non.near:.6f}  far {non.far:.6f}", file=out)
        note = EXTRAPOLATED_NOTE if coop.extrapolated else ""
        print(f"  coop[appendix] : near {coop.near:.6f}  far {coop.far:.6f}{note}", file=out)
    return 0


def cmd_sim(cfg, out):
    """Monte Carlo estimates at the configured scenario point: a one-point
    user_intensity sweep at its user_intensity."""
    point = replace(cfg, sweep_variable="user_intensity", sweep_grid=(cfg.params.user_intensity,))
    _write_rows(run_sweep(point), cfg.output, out)
    return 0


def cmd_sweep(cfg, out):
    rows = run_sweep(cfg)
    _write_rows(rows, cfg.output, out)
    print(f"max |analytic - simulated| over sweep: {max_abs_gap(rows):.6f}", file=out)
    return 0


def cmd_optimize_beta(cfg, out):
    params = cfg.params
    theta = params.sir_threshold
    lo = theta / (1.0 + theta)
    grid = [lo + (1.0 - lo) * i / 32 for i in range(1, 33)]
    # the kernels depend only on the tiers and alpha: one evaluator serves every scan
    evaluator = KernelEvaluator.from_params(params)
    records = []
    for tier in range(params.n_tiers):
        for scheme in cfg.schemes:
            scan = run_beta_scan(params, tier, scheme, grid, evaluator)
            opt = scan.optimum
            boundary = "  [maximizer at beta = 1 boundary]" if opt.at_boundary else ""
            note = EXTRAPOLATED_NOTE if opt.extrapolated else ""
            print(f"tier {tier + 1} {scheme}: beta* = {opt.beta_star:.4f}, "
                  f"average coverage = {opt.value:.6f}{boundary}{note}", file=out)
            records.extend([repr(b), tier + 1, scheme, repr(v)]
                           for b, v in zip(scan.grid, scan.averages))
    print("beta scan (plot data):", file=out)
    _write_csv(SCAN_HEADER, records, None, out, "beta scan")
    if cfg.output is not None:
        _write_csv(SCAN_HEADER, records, cfg.output, out, "beta scan")
    return 0


_COMMANDS = {
    "analytic": (cmd_analytic, "closed-form coverage report"),
    "sim": (cmd_sim, "Monte Carlo coverage estimates (CSV)"),
    "sweep": (cmd_sweep, "analytic vs simulated coverage over a grid (CSV)"),
    "optimize-beta": (cmd_optimize_beta, "coverage-maximizing power allocation per tier/scheme"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hetnoma",
        description="Two-user NOMA downlink coverage in a multi-tier Poisson network: "
                    "closed forms, Monte Carlo validation, power-allocation search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--trials", type=int, default=None, help="override config n_trials")
        p.add_argument("--out", default=None, help="override config output path")
    return parser


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


@contextmanager
def _sigterm_exits():
    """Turn SIGTERM into SystemExit while the block runs (main thread only).

    The exception unwinds a parallel run like any other: the run kills and
    reaps every child it forked, so none outlives it.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        overrides = {"seed": args.seed, "n_trials": args.trials, "output": args.out}
        cfg = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
        with _sigterm_exits():
            code = _COMMANDS[args.command][0](cfg, out)
        out.flush()
        return code
    except BrokenPipeError:
        # the reader closed our output (as `| head` does): point it at
        # devnull so that the interpreter's exit flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
