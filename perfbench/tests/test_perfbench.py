"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

They check that tracing changes no result, that every metric the
benchmark prints is declared in BENCHMARK.json with a well-formed name,
and that the benchmark refuses to run without the hetnoma sources.
"""

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from hetnoma import kernels, simulate  # noqa: E402  (on the path once workloads is imported)

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _first_op(name, tmp_path, tracer=None):
    """Result of the workload's first op, as comparable plain data."""
    wl = workloads.make(name, 7, tmp_path)
    try:
        if tracer is not None:
            layers.install(tracer)
        try:
            result = wl.run(wl.keys[0])
        finally:
            if tracer is not None:
                tracer.restore()
        if name.startswith("mc_"):
            return result.samples.tolist(), result.successes.tolist()
        if name == "beta_search":
            return result.optimum, result.averages
        assert result == 0
        return wl.csv_path.read_bytes()
    finally:
        wl.close()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tracing_changes_no_result(name, tmp_path):
    plain = _first_op(name, tmp_path)
    tracer = Tracer()
    traced = _first_op(name, tmp_path, tracer)
    assert traced == plain
    assert tracer.spans, "the traced op recorded no spans"
    assert all(span is not None for span in tracer.spans)
    # the wrappers are gone again
    assert not hasattr(simulate.run_trials, "__wrapped__")
    assert not hasattr(kernels.integrate_adaptive, "__wrapped__")


def test_self_time_excludes_children():
    def inner():
        time.sleep(0.02)

    def outer():
        ns.inner()
        time.sleep(0.01)

    ns = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    tracer.patch(ns, "inner", "m.inner")
    tracer.patch(ns, "outer", "m.outer")
    ns.outer()
    tracer.restore()
    summary = tracer.summary()
    outer_s, inner_s = summary["m.outer"], summary["m.inner"]
    assert outer_s["calls"] == inner_s["calls"] == 1
    assert outer_s["self_s"] == pytest.approx(outer_s["total_s"] - inner_s["total_s"])
    assert inner_s["self_s"] == inner_s["total_s"]
    assert ns.inner is inner and ns.outer is outer


def test_op_times_are_scaled_by_the_measured_slowdown(monkeypatch, tmp_path):
    monkeypatch.setattr(run.speed, "slowdown", lambda: 2.0)
    runner = run.Runner(workloads.make("beta_search", 7, tmp_path))
    measured, at_reference, _ = runner.run_pass()
    assert at_reference == pytest.approx(measured / 2.0)
    for key in runner.workload.keys:
        assert runner.latency[key] == pytest.approx([t / 2.0 for t in runner.measured[key]])


def test_declared_metrics_match_the_code():
    declared_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared_e2e == dict(run.END_TO_END)
    assert declared_layer == {n: (u, b) for n, u, b in layers.declared()}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_printed_metrics_are_declared(name, trace, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = result["metrics"]
    assert set(printed) == set(declared)
    for metric, entry in printed.items():
        assert NAME.fullmatch(metric), metric
        assert entry["unit"] == declared[metric]
        assert isinstance(entry["value"], (int, float))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mc_stock", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
