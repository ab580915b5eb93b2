"""Self-test of the benchmark harness: tiny runs, no timing claims.

    python3 -m pytest perfbench/test_harness.py -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run

run.import_package()

import workloads  # noqa: E402  (needs the package on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LISTED_WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def result_of(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds",
                 "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", LISTED_WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_outcome_counts_sum_to_ops_attempted():
    workload = run.make_workload("boundary-mix")
    workload.setup(5)
    outcomes, wall, ref, _ = run.op_loop(workload, 0.2, workload.count_ops)
    assert len(outcomes) == len(wall) == len(ref) >= workload.count_ops
    assert set(outcomes) <= set(workloads.OUTCOMES)
    # this mix reaches rejections and failures as well as deliveries
    kinds = Counter(o.split(".")[0] for o in outcomes)
    assert kinds["ok"] and kinds["rejected"] and kinds["failed"]

    metrics = result_of("boundary-mix", 1, seed=5)["metrics"]
    assert sum(m["value"] for k, m in metrics.items()
               if k.startswith("outcome.")) == workload.count_ops


def test_counts_repeat_exactly_for_a_seed():
    def counts():
        return {k: m["value"]
                for k, m in result_of("diagram-stream", 1, seed=11)[
                    "metrics"].items() if m["unit"] == "count"}

    first = counts()
    assert first["linalg.eig3.calls_per_op"] > 0
    assert first["gl2z.verify_commutation.calls_per_op"] == 3
    assert first == counts()


def test_cli_output_matches_in_process_document_byte_for_byte():
    workload = run.make_workload("cli-docs")
    workload.setup(2)
    try:
        for command in workload.commands:
            argv, (kind, expected) = workload.cases[0][command]
            assert kind == "ok"
            proc = workload._run(argv)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == expected, command
        # the op's own check notices a changed byte
        argv, (kind, expected) = workload.cases[0]["spectral"]
        workload.cases[0]["spectral"] = (argv, (kind, expected + " "))
        assert workloads.classify(workload, 0) == "failed.cli_mismatch"
    finally:
        workload.close()


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", LISTED_WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
