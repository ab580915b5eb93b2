"""The bytecode count of ``tests/opcount.py`` repeats exactly."""

from opcount import LAYERS, WORKLOADS, count_ops


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
        assert first["layers"]["eig3"] > 0 and first["layers"]["kernels"] > 0
