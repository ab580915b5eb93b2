"""Batch verification: round trips, commuting diagrams, conjugation
invariance and word consistency over seeded random pairs.

Each property yields one residual per seed; a seed whose intermediate data
leaves general position is skipped with a note rather than failed, since
the properties are only claimed on the general-position stratum.
"""

from __future__ import annotations

import math
import random

from . import _kernels_py as kernels
from .errors import GeneralPositionError
from .gl2z import (
    Generator,
    act_word_on_pair,
    act_word_spectral,
    commutation_residuals,
)
from .linalg import Mat3
from .randgen import _well_conditioned_with_inverse, random_forward
from .reconstruct import reconstruct
from .spectral import (
    MatrixPair,
    relative_difference,
    spectral_data,
    spectral_residuals,
    worst_residual,
)

DEFAULT_TOLERANCE = 1e-6

#: per-property slack multipliers on the base tolerance; a word chains up
#: to six generator formulas, with nothing re-derived between steps.
TOLERANCE_MULTIPLIERS = {"word_consistency": 10.0}


class PropertyResult:
    """One property's running maximum residual and skip list over a run."""

    def __init__(self, operation: str, tolerance: float):
        self.operation = operation
        self.max_residual = 0.0
        self.per_component: dict[str, float] = {}
        self.seeds_run = 0
        self.skipped: list[dict] = []
        self.worst_seed: int | None = None
        self.tolerance = tolerance

    @property
    def passed(self) -> bool:
        return self.seeds_run > 0 and self.max_residual <= self.tolerance

    def record(self, seed: int, residuals: dict[str, float]) -> None:
        """Fold one seed's residuals into the maxima.  A component enters
        ``per_component`` when it first exceeds 0.  A NaN residual is worse
        than any number and stays: it fails the property, its component
        reads NaN, and the first seed that gave one is ``worst_seed``."""
        self.seeds_run += 1
        worst = worst_residual(residuals.values())
        if math.isnan(worst):
            if not math.isnan(self.max_residual):
                self.max_residual, self.worst_seed = worst, seed
        elif worst >= self.max_residual:
            self.max_residual, self.worst_seed = worst, seed
        per_component = self.per_component
        for k, v in residuals.items():
            if v > per_component.get(k, 0.0) or math.isnan(v):
                per_component[k] = v

    def skip(self, seed: int, code: str) -> None:
        self.skipped.append({"seed": seed, "code": code})


#: the components of a normalized pair, flattened: h, then U row by row
_PAIR_KEYS = ("h1", "h2", "h3",
              *(f"u{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)))


def _pair_residuals(lhs, rhs) -> dict[str, float]:
    return dict(zip(_PAIR_KEYS, map(relative_difference,
                                    (*lhs.h, *lhs.u.entries),
                                    (*rhs.h, *rhs.u.entries))))


def _rebuilt(rebuilt):
    """The seed's reconstruction, or the error it raised, raised again."""
    if isinstance(rebuilt, GeneralPositionError):
        raise rebuilt
    return rebuilt


def _prop_round_trip_forward(drawn, rebuilt, seed):
    return _pair_residuals(drawn.np, _rebuilt(rebuilt))


def _prop_round_trip_backward(drawn, rebuilt, seed):
    again = spectral_data(_rebuilt(rebuilt).as_pair())
    return spectral_residuals(drawn.sd, again)


def _make_commute(generator: Generator):
    def prop(drawn, rebuilt, seed):
        return commutation_residuals(generator, drawn.pair, drawn.sd,
                                     drawn.eigen)
    return prop


def _prop_conjugation_invariance(drawn, rebuilt, seed):
    rng = random.Random((seed << 16) ^ 0x5BD1)
    g, g_inv = _well_conditioned_with_inverse(rng)
    # g M g^-1 for M = A, B, each built as one Mat3
    conjugated = MatrixPair(*(
        Mat3(kernels.matmul3(kernels.matmul3(g, m.entries), g_inv))
        for m in drawn.pair))
    return spectral_residuals(drawn.sd, spectral_data(conjugated))


def _prop_word_consistency(drawn, rebuilt, seed):
    rng = random.Random((seed << 16) ^ 0xC0FF)
    word = tuple(rng.choice(list(Generator))
                 for _ in range(rng.randint(1, 6)))
    lhs = act_word_spectral(word, drawn.sd)
    rhs = spectral_data(act_word_on_pair(word, drawn.pair))
    return spectral_residuals(lhs, rhs)


PROPERTIES = {
    "round_trip_forward": _prop_round_trip_forward,
    "round_trip_backward": _prop_round_trip_backward,
    "commute_swap": _make_commute(Generator.SWAP),
    "commute_invert": _make_commute(Generator.INVERT),
    "commute_shear": _make_commute(Generator.SHEAR),
    "conjugation_invariance": _prop_conjugation_invariance,
    "word_consistency": _prop_word_consistency,
}


def run_suite(seeds: int, tolerance: float = DEFAULT_TOLERANCE,
              base_seed: int = 0) -> list[PropertyResult]:
    """Every property over the same seeds, one result per property in
    ``PROPERTIES`` order.  Each seed's pair is drawn once, and the forward
    pass that accepted it supplies its normalized form, its spectral data
    and A's eigendecomposition to every property, together with one
    reconstruction of that data, or the ``GeneralPositionError`` it raised,
    which the round trips share.  A seed whose forward map raised is
    skipped by every property."""
    results = [PropertyResult(
        name, tolerance * TOLERANCE_MULTIPLIERS.get(name, 1.0))
        for name in PROPERTIES]
    for seed in range(base_seed, base_seed + seeds):
        drawn = random_forward(seed)
        if drawn.error is not None:
            for result in results:
                result.skip(seed, drawn.error.code)
            continue
        try:
            rebuilt = reconstruct(drawn.sd)
        except GeneralPositionError as exc:
            rebuilt = exc
        for result, prop in zip(results, PROPERTIES.values()):
            try:
                result.record(seed, prop(drawn, rebuilt, seed))
            except GeneralPositionError as exc:
                result.skip(seed, exc.code)
    return results
