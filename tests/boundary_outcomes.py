"""Outcome counts of the benchmark's ``boundary-mix`` ops on seeds 201-210.

Each seed's setup draws 60 inputs in each of four families (real, rescaled,
near-gap and plain complex pairs) and shuffles them; every input is run
once through ``perfbench/workloads.classify``.  The script prints one
markdown table row per family and general-position report result (pass
or fail), with the count of each outcome: ``ok``, a rejection's code, or
``failed`` and the failure's kind.  Its last column counts the row's ops
whose axis-point separation, the margin of the report's retired seventh
check, is below that check's threshold 1e-3: the warnings that check would
add.  In a row of passing reports with no ``failed`` outcome, none of them
is a failure the report misses.

The family of an input is its place in the setup's list before the final
shuffle, which the script records by wrapping ``random.Random.shuffle``
while the setup runs; the benchmark's files are imported unchanged from
``perfbench`` and ``src`` next to this directory.

    python tests/boundary_outcomes.py

The name does not match ``test_*.py``, so pytest does not collect it.
"""

import math
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from spectral_pair import CubicPoly, solve_cubic  # noqa: E402
from spectral_pair import _kernels_py as kernels  # noqa: E402
from spectral_pair.errors import GeneralPositionError  # noqa: E402
from spectral_pair.spectral import SpectralData, forward  # noqa: E402
from workloads import BoundaryMix, classify  # noqa: E402

SEEDS = range(201, 211)
FAMILIES = ("real", "rescaled", "near-gap", "complex")
#: the threshold of the retired ``axis_point_separation`` report check
AXIS_MARGIN = 1e-3


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


def axis_roots(sd: SpectralData):
    """(h, xi, s), the roots where the curve meets the coordinate lines:
    xi from B's characteristic polynomial and s from the axis-Z cubic, as
    the retired check solved them; None if either cubic is degenerate."""
    c = sd.coeffs
    try:
        xi = solve_cubic(CubicPoly(1.0, -c.q_plus, c.q_minus, -c.d2))
        s = solve_cubic(CubicPoly(c.d1, c.r_plus, c.r_minus, c.d2))
    except GeneralPositionError:
        return None
    return sd.h, xi, s


def axis_point_separation(h, xi, s) -> float:
    """Smallest |P x Q| / (|P| |Q|) over the points P = (h : -1 : 0),
    X = (xi : 0 : -1) and Z = (0 : s : 1) where the curve meets the axes:
    |P|^2 = |h|^2 + 1, |P_i x P_j| = |h_j - h_i| (likewise for X and Z),
    |P x X|^2 = 1 + |h|^2 + |xi|^2, |P x Z|^2 = 1 + |h|^2 + |hs|^2 and
    |X x Z|^2 = |s|^2 + |xi|^2 + |xi s|^2.  Squares are summed in
    ``vec_norm``'s order, a square that overflows reading inf, and ``min``
    takes the 36 pairs of the list P, X, Z in order, written out, so the
    bits, a NaN included, are the generic cross product's."""
    r, q = math.sqrt, kernels.square_modulus
    (h1, h2, h3), (x1, x2, x3), (s1, s2, s3) = h, xi, s
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = v = tuple(map(q, (*h, *xi, *s)))
    n1, n2, n3, m1, m2, m3, k1, k2, k3 = map(r, map((1.0).__add__, v))
    return min(
        r(q(h2 - h1)) / (n1 * n2), r(q(h3 - h1)) / (n1 * n3),
        r(1.0 + a1 + b1) / (n1 * m1), r(1.0 + a1 + b2) / (n1 * m2),
        r(1.0 + a1 + b3) / (n1 * m3), r(1.0 + a1 + q(h1 * s1)) / (n1 * k1),
        r(1.0 + a1 + q(h1 * s2)) / (n1 * k2), r(1.0 + a1 + q(h1 * s3)) / (n1 * k3),
        r(q(h3 - h2)) / (n2 * n3), r(1.0 + a2 + b1) / (n2 * m1),
        r(1.0 + a2 + b2) / (n2 * m2), r(1.0 + a2 + b3) / (n2 * m3),
        r(1.0 + a2 + q(h2 * s1)) / (n2 * k1), r(1.0 + a2 + q(h2 * s2)) / (n2 * k2),
        r(1.0 + a2 + q(h2 * s3)) / (n2 * k3), r(1.0 + a3 + b1) / (n3 * m1),
        r(1.0 + a3 + b2) / (n3 * m2), r(1.0 + a3 + b3) / (n3 * m3),
        r(1.0 + a3 + q(h3 * s1)) / (n3 * k1), r(1.0 + a3 + q(h3 * s2)) / (n3 * k2),
        r(1.0 + a3 + q(h3 * s3)) / (n3 * k3), r(q(x2 - x1)) / (m1 * m2),
        r(q(x3 - x1)) / (m1 * m3), r(c1 + b1 + q(x1 * s1)) / (m1 * k1),
        r(c2 + b1 + q(x1 * s2)) / (m1 * k2), r(c3 + b1 + q(x1 * s3)) / (m1 * k3),
        r(q(x3 - x2)) / (m2 * m3), r(c1 + b2 + q(x2 * s1)) / (m2 * k1),
        r(c2 + b2 + q(x2 * s2)) / (m2 * k2), r(c3 + b2 + q(x2 * s3)) / (m2 * k3),
        r(c1 + b3 + q(x3 * s1)) / (m3 * k1), r(c2 + b3 + q(x3 * s2)) / (m3 * k2),
        r(c3 + b3 + q(x3 * s3)) / (m3 * k3), r(q(s2 - s1)) / (k1 * k2),
        r(q(s3 - s1)) / (k1 * k3), r(q(s3 - s2)) / (k2 * k3))


def axis_warns(sd) -> bool:
    """Whether the retired check would have failed: its margin is below
    ``AXIS_MARGIN`` or NaN, or a cubic of its roots is degenerate.  A pair
    whose ``spectral_data`` raises has no ``sd`` and is not counted."""
    if sd is None:
        return False
    roots = axis_roots(sd)
    return roots is None or not axis_point_separation(*roots) >= AXIS_MARGIN


def outcome_label(outcome: str) -> str:
    kind, _, code = outcome.partition(".")
    if kind == "ok":
        return "ok"
    return f"`{code}`" if kind == "rejected" else f"failed `{code}`"


def main() -> None:
    counts, axis = Counter(), Counter()
    workload = BoundaryMix()
    for seed in SEEDS:
        families = setup_with_families(workload, seed)
        for i, ((pair, _), family) in enumerate(zip(workload.inputs,
                                                    families)):
            drawn = forward(pair)
            passed = drawn.report.passed
            counts[family, passed, classify(workload, i)] += 1
            axis[family, passed] += axis_warns(drawn.sd)
    print("| family | report | outcomes | axis < 1e-3 |")
    print("|---|---|---|---|")
    for family in FAMILIES:
        for passed in (True, False):
            row = sorted(((o, n) for (f, p, o), n in counts.items()
                          if (f, p) == (family, passed)),
                         key=lambda item: (item[0] != "ok", item[0]))
            if not row:
                continue
            cells = ", ".join(f"{outcome_label(o)} {n}" for o, n in row)
            print(f"| {family} | {'pass' if passed else 'fail'} | {cells} "
                  f"| {axis[family, passed]} |")


if __name__ == "__main__":
    main()
