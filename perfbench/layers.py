"""Where the traced run records spans, and the per-layer metrics it reports.

Every span wraps a public hetnoma function at the attribute it is called
through, so a wrapper sees exactly the calls the program makes.  All
per-layer figures are per op (calls/op, s/op) unless the name says
otherwise, so they do not depend on how many passes fit in a run.
"""

from __future__ import annotations

import workloads  # noqa: F401  (imports hetnoma from the checkout's src/)
from hetnoma import cli, coverage, kernels, simulate, sweeps

MODULES = ("geometry", "simulate", "kernels", "coverage", "sweeps", "config", "cli")


def _count_users(tracer, args, assoc):
    tracer.counters["users"] += len(args[1])


def _count_links(tracer, args, cell):
    if cell is not None:
        tracer.counters["cells"] += 1
        tracer.counters["link_bytes"] += cell.link_gains.nbytes + cell.link_dist_sq.nbytes


# (span name, [(owner, attribute it is called through)], counter hook)
TRACE_POINTS = (
    ("geometry.sample_ppp", [(simulate, "sample_ppp")], None),
    ("geometry.associate", [(simulate, "associate")], _count_users),
    ("simulate.build_snapshot", [(simulate, "build_snapshot")], None),
    ("simulate.run_single_trial", [(simulate, "run_single_trial")], None),
    ("simulate.schedule_noma_users", [(simulate, "schedule_noma_users")], _count_links),
    ("simulate.evaluate_noncoop", [(simulate, "evaluate_noncoop")], None),
    ("simulate.evaluate_coop", [(simulate, "evaluate_coop")], None),
    ("simulate.run_trials", [(simulate, "run_trials"), (sweeps, "run_trials")], None),
    ("kernels.integrate_adaptive", [(kernels, "integrate_adaptive")], None),
    ("kernels.interference_kernel", [(kernels.KernelEvaluator, "interference_kernel")], None),
    ("kernels.combined_kernel", [(kernels.KernelEvaluator, "combined_kernel")], None),
    ("coverage.average_coverage",
     [(coverage, "average_coverage"), (sweeps, "average_coverage")], None),
    ("coverage.optimize_beta", [(sweeps, "optimize_beta")], None),
    ("sweeps.run_beta_scan", [(sweeps, "run_beta_scan")], None),
    ("sweeps.run_sweep", [(cli, "run_sweep")], None),
    ("sweeps.analytic_pairs", [(sweeps, "analytic_pairs")], None),
    ("config.load_config", [(cli, "load_config")], None),
    ("cli.main", [(cli, "main")], None),
)

FIELDS = (("calls", "calls/op"), ("self_s", "s/op"), ("total_s", "s/op"))

DERIVED = (
    ("geometry.associate.users_per_s", "1/s", "higher"),
    ("simulate.schedule_noma_users.us_per_cell", "us", "lower"),
    ("simulate.evaluate_calls_per_cell", "count", "lower"),
    ("simulate.link_bytes_per_cell", "bytes_computed", "lower"),
    ("simulate.cells_per_trial", "count", "higher"),
    ("coverage.average_coverage.calls_per_search", "count", "lower"),
    ("trace.self_cover_frac", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def declared():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for name, _, _ in TRACE_POINTS:
        out.extend((f"{name}.{field}", unit, "lower") for field, unit in FIELDS)
    out.extend((f"{module}.self_frac", "fraction", "lower") for module in MODULES)
    out.extend(DERIVED)
    return out


def install(tracer):
    for name, targets, hook in TRACE_POINTS:
        for owner, attr in targets:
            tracer.patch(owner, attr, name, hook)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, n_ops, traced_wall_s, untraced_pass_s, traced_pass_s):
    """Per-layer values from the spans of `n_ops` traced ops.

    traced_wall_s is the summed measured time of the traced ops; the two
    pass times are the median untraced and traced pass times of one run,
    at the reference speed.
    """
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    stat = {name: summary.get(name, zero) for name, _, _ in TRACE_POINTS}
    values = {}
    for name, entry in stat.items():
        for field, _ in FIELDS:
            values[f"{name}.{field}"] = entry[field] / n_ops
    for module in MODULES:
        self_s = sum(e["self_s"] for n, e in stat.items() if n.split(".")[0] == module)
        values[f"{module}.self_frac"] = self_s / traced_wall_s
    cells = tracer.counters["cells"]
    evaluate_calls = stat["simulate.evaluate_noncoop"]["calls"] + stat["simulate.evaluate_coop"]["calls"]
    per_cell_evals = _ratio(evaluate_calls, cells)
    values["geometry.associate.users_per_s"] = _ratio(
        tracer.counters["users"], stat["geometry.associate"]["self_s"])
    values["simulate.schedule_noma_users.us_per_cell"] = 1e6 * _ratio(
        stat["simulate.schedule_noma_users"]["self_s"], cells)
    values["simulate.evaluate_calls_per_cell"] = per_cell_evals
    # computed from array shapes: the (2, n_bs) float64 link arrays are
    # written once by schedule_noma_users and read once per evaluator call
    values["simulate.link_bytes_per_cell"] = _ratio(
        tracer.counters["link_bytes"], cells) * (1.0 + per_cell_evals)
    values["simulate.cells_per_trial"] = _ratio(cells, stat["simulate.run_single_trial"]["calls"])
    values["coverage.average_coverage.calls_per_search"] = _ratio(
        stat["coverage.average_coverage"]["calls"], stat["sweeps.run_beta_scan"]["calls"])
    values["trace.self_cover_frac"] = sum(e["self_s"] for e in stat.values()) / traced_wall_s
    values["trace.overhead_frac"] = traced_pass_s / untraced_pass_s - 1.0
    return values
