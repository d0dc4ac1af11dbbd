"""The benchmark's own contract, run in-process: at seed 0 every job of
every workload in ``perfbench/workloads.py`` runs, and its check finds
nothing but documented known defects.  The traced benchmark's ``install``
must still find every name it wraps.  Nothing under ``perfbench/`` is
changed; it is only read."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_job_passes_its_check(name, tmp_path):
    jobs = workloads.WORKLOADS[name](0)
    outputs = {job.name: job.run(tmp_path) for job in jobs}
    problems = [f"{job.name}: {finding}" for job in jobs
                for finding in job.check(outputs)
                if not isinstance(finding, workloads.KnownDefect)]
    assert not problems


def test_tracer_installs_on_the_package():
    # in a child interpreter: install patches the package for good
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    code = "import tracing; tracing.install(tracing.Tracer('t'))"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
