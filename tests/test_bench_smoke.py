"""The benchmark's in-process workloads and its tracer still run against
the package.

``perfbench/test_harness.py`` drives the whole harness through subprocesses
and lies outside the default test paths.  This loads
``perfbench/workloads.py`` and ``perfbench/tracer.py`` directly, runs the
first ops of the two in-process workloads and traces one forward map, so a
package name the benchmark imports or patches, or a result it checks,
cannot break unnoticed.
"""

import importlib.util
from pathlib import Path

import pytest

import spectral_pair.spectral as spectral
from spectral_pair import MatrixPair, spectral_data
from spectral_pair.linalg import Mat3

from conftest import FIXTURE_A, FIXTURE_B

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")


@pytest.mark.parametrize("name", ["VerifySuite", "DiagramStream"])
def test_first_ops_are_delivered(name):
    workload = getattr(workloads, name)()
    workload.setup(0)
    assert [workloads.classify(workload, i) for i in range(3)] == ["ok"] * 3


def test_tracer_counts_constructions_and_restores_the_package():
    tracer_module = load("tracer")
    post_init, eig3 = Mat3.__post_init__, spectral.eig3
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        spectral_data(MatrixPair(FIXTURE_A, FIXTURE_B))
        tracer.end_op(0)
    finally:
        tracer.uninstall()
    assert tracer.mat3_new > 0
    names = {tracer_module.SPAN_NAMES[i] for i in tracer.names}
    assert {"spectral.spectral_data", "linalg.eig3"} <= names
    assert Mat3.__post_init__ is post_init
    assert spectral.eig3 is eig3
