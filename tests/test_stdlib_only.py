"""The simulation runs on a bare interpreter: numpy stays off its path.

Only the §8 variance objective (``repro.core.variance``) and the
simplex it runs on (``repro.core.simplex``) import numpy.  A child
process with numpy made unimportable imports the package, its
experiments and its baselines, then builds each of the benchmark's
workloads and runs one measured interval of it.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = textwrap.dedent(
    """
    import sys
    sys.modules["numpy"] = None  # any "import numpy" now raises
    sys.path.insert(0, {perf!r})
    import repro, repro.experiments, repro.baselines
    import bench
    from workloads import WORKLOADS
    for name in sorted(WORKLOADS):
        rep = bench.run_rep(WORKLOADS[name], 0, intervals=1)
        assert rep["problems"] == [], (name, rep["problems"])
        assert rep["accesses"] > 0, name
        print(name)
    """
).format(perf=os.path.join(ROOT, "perf"))


def test_package_and_workloads_run_without_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "evict-16n", "figure2", "hot-64n", "multiclass-rw",
    ]


def test_variance_objective_is_the_numpy_import():
    """numpy is loaded by the variance module, not by the package."""
    code = (
        "import sys, repro, repro.core, repro.experiments; "
        "assert 'numpy' not in sys.modules; "
        "import repro.core.variance; "
        "assert 'numpy' in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
