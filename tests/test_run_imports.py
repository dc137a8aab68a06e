"""A simulation run loads the simulator and NumPy, never SciPy.

SciPy more than doubles a process's memory, and no simulation calls it:
only a confidence interval (``analysis/confidence.py``) and the Che
solvers' ``fsolve`` fallbacks (``analysis/cachemodel.py``) do, and they
import it when they run.  Nor does a serial run load the process-pool
modules (``multiprocessing``, ``concurrent.futures``, 1.5 MB):
``ReplicationExecutor.map`` imports them only when it starts a pool.  The
benchmark's rounds fork from a process that has imported everything they
use, so whatever that process loads sets every round's peak RSS.

The check runs in a fresh interpreter in which SciPy cannot be imported:
it imports what ``perfbench/run.py`` imports, then builds, runs and
checks one quick round of every benchmark workload, so neither a
module-level import nor a lazy one on the run path can bring SciPy back.
The pool modules stay unloaded until decoupled-tier, the one workload on
the parallel node backend, runs last.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None  # any import of it raises
    sys.path[0:0] = [sys.argv[1], sys.argv[1] + "/src"]

    import perfbench.run  # everything a benchmark round runs with

    # Loaded with the simulator, not inside a round's timed build.
    assert "numpy.random" in sys.modules

    from perfbench import checks
    from perfbench.workloads import WORKLOADS
    from repro.sim.simulation import Simulation

    for name, workload in WORKLOADS.items():
        # After the imports and after every serial workload's round.
        pool = [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]
        assert not pool, (name, pool)
        runs = []
        for make_config in workload(7, True):
            sim = Simulation(make_config())
            runs.append((sim, sim.run()))
        errors = checks.check_round(runs)
        assert not errors, (name, errors)
        print(name)
    loaded = sorted(m for m in sys.modules if m.startswith("scipy."))
    assert not loaded, loaded
    """
)


def test_benchmark_rounds_run_without_scipy():
    # The pool check covers every workload before the parallel one.
    assert list(WORKLOADS)[-1] == "decoupled-tier"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(WORKLOADS)
