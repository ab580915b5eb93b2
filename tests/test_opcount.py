"""The bytecode count of ``tests/opcount.py`` repeats exactly, and its
harness summary counts every run."""

import json

from opcount import LAYERS, ROOT, WORKLOADS, count_ops, harness_summary


def test_two_ops_counted_twice_give_equal_counts():
    for name, cls in WORKLOADS.items():
        workload = cls()
        workload.setup(1)
        first, second = count_ops(workload, 2), count_ops(workload, 2)
        assert first == second, name
        assert first["total"] > 0
        assert set(first["layers"]) == set(LAYERS)
        assert all(0 <= n <= first["total"]
                   for n in first["layers"].values())
        assert first["layers"]["eigenvalues"] > 0 and first["layers"]["kernels"] > 0


def test_harness_summary_pairs_runs_that_repeat_a_seed(tmp_path):
    """Three alternating pairs all on seed 1 are three pairs of three runs
    each, not one pair whose later runs overwrote the first."""
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    lines = []
    for k in range(3):
        for side, value in ("parent", 10.0 + k), ("change", 11.0 + 2 * k):
            metrics = {name: {"value": value} for name in names}
            lines.append(json.dumps({
                "side": side, "workload": "w", "seed": 1,
                "result": {"metrics": metrics}}))
    path = tmp_path / "runs.jsonl"
    path.write_text("\n".join(lines) + "\n")
    row = harness_summary(str(path))["w"]["op_p50_ms"]
    assert row["pairs"] == 3
    assert row["parent"] == {"runs": 3, "median": 11.0, "q1": 10.0, "q3": 12.0}
    assert row["change"]["runs"] == 3 and row["change"]["median"] == 13.0
    # lower is better: the change is slower on every pair
    assert row["change_wins"] == 0
    assert harness_summary(str(path))["w"]["goodput_ops_per_s"][
        "change_wins"] == 3
