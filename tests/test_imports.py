"""Which scipy modules each entry point loads, each in a fresh interpreter.

scipy is imported only where it is called: `import hetnoma` and the
closed forms at alpha = 4 load none of it, alpha != 4 loads
scipy.special (hyp2f1) and nothing of scipy.spatial, and run_trial_sets
loads scipy.spatial before it forks its worker processes, so they
inherit it.  `import hetnoma` loads no multiprocessing either: the
simulator imports it only to fork.  The last test checks that every name
the benchmark harness (perfbench/layers.py) patches is still a callable
of the program.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hetnoma

SRC = str(Path(hetnoma.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# runs `body` in a fresh interpreter (sys.argv[1:] are its arguments), then
# prints the scipy modules loaded as the last line
PROBE = """
import io, json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

CLI = """
from hetnoma.cli import main
assert main(sys.argv[1:], out=io.StringIO()) == 0
"""

# the fork point records which scipy modules its parent holds when it
# starts, then runs the jobs in this process
PREFORK = """
from hetnoma import simulate
from hetnoma.coverage import NetworkParams, TierParams
from hetnoma.geometry import Window

at_start = []

def run_forked(jobs, workers, context):
    at_start.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    return [simulate.run_coupled_trial(*job) for job in jobs]

simulate._run_forked = run_forked
simulate._cpu_count = lambda: 2
params = NetworkParams(tiers=(TierParams(1.0, 2e-4),), user_intensity=8e-4,
                       pathloss_exponent=4.0, sir_threshold=1.0, beta=(0.75,))
simulate.run_trial_sets((params,), Window(half_width=300.0), 2, 1, n_jobs=2)
print(json.dumps(at_start))
"""


def probe(body, *args):
    """Run PROBE with body in a fresh interpreter; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def write_config(tmp_path, alpha):
    path = tmp_path / f"alpha{alpha}.json"
    path.write_text(json.dumps({
        "tiers": [{"power_watts": 20.0, "intensity": 1e-6},
                  {"power_watts": 2.0, "intensity": 5e-5}],
        "user_intensity": 5e-4,
        "pathloss_exponent": alpha,
        "beta": 0.75,
    }))
    return str(path)


def test_import_loads_no_scipy():
    assert json.loads(probe("import hetnoma")[-1]) == []


# prints the multiprocessing modules loaded, before PROBE's scipy line
NO_POOL = """
import hetnoma
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "multiprocessing"]))
"""


def test_import_loads_no_multiprocessing():
    # the simulator imports multiprocessing only to fork
    assert json.loads(probe(NO_POOL)[-2]) == []


def test_analytic_at_alpha4_loads_no_scipy(tmp_path):
    lines = probe(CLI, "analytic", "--config", write_config(tmp_path, 4.0))
    assert json.loads(lines[-1]) == []


def test_optimize_beta_at_alpha35_loads_special_not_spatial(tmp_path):
    lines = probe(CLI, "optimize-beta", "--config", write_config(tmp_path, 3.5))
    loaded = json.loads(lines[-1])
    assert "scipy.special" in loaded
    assert "scipy.spatial" not in loaded


def test_run_trial_sets_loads_spatial_before_the_pool_starts():
    lines = probe(PREFORK)
    [at_start] = json.loads(lines[-2])
    assert "scipy.spatial" in at_start


@pytest.mark.skipif(not (PERFBENCH / "layers.py").is_file(), reason="no perfbench/ here")
def test_every_benchmark_trace_point_is_a_callable(monkeypatch):
    # the traced benchmark runs patch each (owner, attribute) of TRACE_POINTS;
    # a name gone from the program fails here, not only in those runs.
    # perfbench/ is read only: no bytecode is written there, and its modules
    # leave sys.modules and sys.path as they were
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    names = ("layers", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        layers = importlib.import_module("layers")
        missing = [f"{owner.__name__}.{attr}" for _, targets, _ in layers.TRACE_POINTS
                   for owner, attr in targets if not callable(getattr(owner, attr, None))]
    finally:
        for name in names:
            sys.modules.pop(name, None)
    assert len(layers.TRACE_POINTS) > 0
    assert missing == []
