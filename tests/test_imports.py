"""Which scipy modules each entry point loads, each in a fresh interpreter.

scipy is imported only where it is called: `import hetnoma` and the
closed forms at alpha = 4 load none of it, alpha != 4 loads
scipy.special (hyp2f1) and nothing of scipy.spatial, and run_trial_sets
loads scipy.spatial before its process pool forks, so the workers
inherit it.  `import hetnoma` loads no multiprocessing either: the pool
is imported only to start one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hetnoma

SRC = str(Path(hetnoma.__file__).resolve().parents[1])

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

# the pool records which scipy modules its parent holds when it starts,
# then maps in this process
PREFORK = """
import concurrent.futures
from hetnoma import simulate
from hetnoma.coverage import NetworkParams, TierParams
from hetnoma.geometry import Window

at_start = []

class RecordingPool:
    def __init__(self, max_workers, **options):
        at_start.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)

concurrent.futures.ProcessPoolExecutor = RecordingPool
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
    # the simulator imports its process pool only to start one
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
