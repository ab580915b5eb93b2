"""Outcome counts of the benchmark's ``boundary-mix`` ops on seeds 201-210.

Each seed's setup draws 60 inputs in each of four families (real, rescaled,
near-gap and plain complex pairs) and shuffles them; every input is run
once through ``perfbench/workloads.classify``.  The script prints one
markdown table row per family and general-position report result (pass
or fail), with the count of each outcome: ``ok``, a rejection's code, or
``failed`` and the failure's kind.

The family of an input is its place in the setup's list before the final
shuffle, which the script records by wrapping ``random.Random.shuffle``
while the setup runs; the benchmark's files are imported unchanged from
``perfbench`` and ``src`` next to this directory.

    python tests/boundary_outcomes.py

The name does not match ``test_*.py``, so pytest does not collect it.
"""

import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from spectral_pair import general_position_report  # noqa: E402
from workloads import BoundaryMix, classify  # noqa: E402

SEEDS = range(201, 211)
FAMILIES = ("real", "rescaled", "near-gap", "complex")


def setup_with_families(workload: BoundaryMix, seed: int) -> list[str]:
    """Set ``workload`` up for ``seed``; the family of each of its inputs."""
    shuffled = []
    original = random.Random.shuffle

    def recording(rng, x):
        shuffled.append((x, list(x)))
        original(rng, x)

    random.Random.shuffle = recording
    try:
        workload.setup(seed)
    finally:
        random.Random.shuffle = original
    before = next(order for x, order in shuffled if x is workload.inputs)
    family = {id(item): FAMILIES[k // workload.per_kind]
              for k, item in enumerate(before)}
    return [family[id(item)] for item in workload.inputs]


def outcome_label(outcome: str) -> str:
    kind, _, code = outcome.partition(".")
    if kind == "ok":
        return "ok"
    return f"`{code}`" if kind == "rejected" else f"failed `{code}`"


def main() -> None:
    counts = Counter()
    workload = BoundaryMix()
    for seed in SEEDS:
        families = setup_with_families(workload, seed)
        for i, ((pair, _), family) in enumerate(zip(workload.inputs,
                                                    families)):
            passed = general_position_report(pair).passed
            counts[family, passed, classify(workload, i)] += 1
    print("| family | report | outcomes |")
    print("|---|---|---|")
    for family in FAMILIES:
        for passed in (True, False):
            row = sorted(((o, n) for (f, p, o), n in counts.items()
                          if (f, p) == (family, passed)),
                         key=lambda item: (item[0] != "ok", item[0]))
            if not row:
                continue
            cells = ", ".join(f"{outcome_label(o)} {n}" for o, n in row)
            print(f"| {family} | {'pass' if passed else 'fail'} | {cells} |")


if __name__ == "__main__":
    main()
