"""Deterministic seeded generation of general-position matrix pairs.

The first matrix is built with prescribed well-separated eigenvalues and a
well-conditioned random eigenbasis; the second is a plain random matrix.
Candidates are rejected until the full general-position report passes, so
every emitted pair is safe for the whole pipeline.
"""

from __future__ import annotations

import random

from .linalg import Mat3, det3, inv3
from .spectral import Forward, MatrixPair, forward

_MAX_ATTEMPTS = 1000
_DISK_RADIUS = 1.0       # entries are drawn from this disk
_MAX_CONDITION = 30.0    # bound on |g| |g^-1| for well_conditioned_matrix


def _complex_in_disk(rng: random.Random) -> complex:
    while True:
        z = complex(rng.uniform(-_DISK_RADIUS, _DISK_RADIUS),
                    rng.uniform(-_DISK_RADIUS, _DISK_RADIUS))
        if abs(z) <= _DISK_RADIUS:
            return z


def _eigenvalue_triple(rng: random.Random) -> tuple[complex, complex, complex]:
    """Three values in the annulus 0.5 <= |h| <= 2 with pairwise gaps >= 0.3."""
    while True:
        triple = []
        for _ in range(3):
            while True:
                z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                if 0.5 <= abs(z) <= 2.0:
                    triple.append(z)
                    break
        if (abs(triple[0] - triple[1]) >= 0.3
                and abs(triple[0] - triple[2]) >= 0.3
                and abs(triple[1] - triple[2]) >= 0.3):
            return tuple(triple)


def _random_matrix(rng: random.Random) -> Mat3:
    return Mat3(tuple(_complex_in_disk(rng) for _ in range(9)))


def well_conditioned_matrix(rng: random.Random) -> Mat3:
    """Random unit-disk matrix with a bounded condition estimate."""
    return _well_conditioned_with_inverse(rng)[0]


def _well_conditioned_with_inverse(rng: random.Random) -> tuple[Mat3, Mat3]:
    """``well_conditioned_matrix`` and the inverse its condition estimate
    took."""
    for _ in range(_MAX_ATTEMPTS):
        g = _random_matrix(rng)
        f = g.norm()
        if f == 0.0 or abs(det3(g)) <= 1e-3 * f ** 3:
            continue
        g_inv = inv3(g)
        if f * g_inv.norm() <= _MAX_CONDITION:
            return g, g_inv
    raise RuntimeError("could not draw a well-conditioned matrix")


def _random_pair_with_attempts(seed: int) -> tuple[Forward, int]:
    rng = random.Random(seed)
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        h = _eigenvalue_triple(rng)
        v, v_inv = _well_conditioned_with_inverse(rng)
        a = v @ Mat3.diagonal(*h) @ v_inv
        b = _random_matrix(rng)
        drawn = forward(MatrixPair(a, b))
        if drawn.report.passed:
            return drawn, attempt
    raise RuntimeError(f"no general-position pair found for seed {seed} "
                       f"within {_MAX_ATTEMPTS} attempts")


def random_forward(seed: int) -> Forward:
    """``random_pair(seed)`` with the forward pass that accepted it, so the
    pair need not be mapped forward again."""
    return _random_pair_with_attempts(seed)[0]


def random_pair(seed: int) -> MatrixPair:
    """General-position pair for this seed; identical across runs."""
    return random_forward(seed).pair


def generation_attempts(seed: int) -> int:
    """How many candidates the seed burned before one passed every check;
    informational, for tracking the empirical rejection rate."""
    return _random_pair_with_attempts(seed)[1]
