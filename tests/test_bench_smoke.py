"""The benchmark's in-process workloads still run against the package.

``perfbench/test_harness.py`` drives the whole harness through subprocesses
and lies outside the default test paths.  This loads
``perfbench/workloads.py`` directly and runs the first ops of the two
in-process workloads, so a package name the benchmark imports, or a result
it checks, cannot break unnoticed.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", ["VerifySuite", "DiagramStream"])
def test_first_ops_are_delivered(name):
    workload = getattr(workloads, name)()
    workload.setup(0)
    assert [workloads.classify(workload, i) for i in range(3)] == ["ok"] * 3
