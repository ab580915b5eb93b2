"""Deterministic seeded generation of general-position matrix pairs.

The first matrix is built with prescribed well-separated eigenvalues and a
well-conditioned random eigenbasis; the second is a plain random matrix.
Candidates are rejected until the full general-position report passes, so
every emitted pair is safe for the whole pipeline.
"""

from __future__ import annotations

import random

from . import _kernels_py as kernels
from .linalg import Mat3, inverse_entries
from .spectral import Forward, MatrixPair, forward

_MAX_ATTEMPTS = 1000
_MAX_CONDITION = 30.0    # bound on |g| |g^-1| for well_conditioned_matrix


def _eigenvalue_triple(rng: random.Random) -> tuple[complex, complex, complex]:
    """Three values in the annulus 0.5 <= |h| <= 2 with pairwise gaps >= 0.3."""
    r = rng.random
    while True:
        triple = []
        for _ in range(3):
            while True:
                # ``rng.uniform(a, b)`` is a + (b - a) * rng.random(),
                # written out so that each draw keeps its bits without
                # the call
                z = complex(-2.0 + 4.0 * r(), -2.0 + 4.0 * r())
                if 0.5 <= abs(z) <= 2.0:
                    triple.append(z)
                    break
        if (abs(triple[0] - triple[1]) >= 0.3
                and abs(triple[0] - triple[2]) >= 0.3
                and abs(triple[1] - triple[2]) >= 0.3):
            return tuple(triple)


def _random_matrix(rng: random.Random) -> tuple[complex, ...]:
    """The flat entries of a matrix, each drawn from the closed unit disk."""
    # ``rng.uniform(-1.0, 1.0)``, as in ``_eigenvalue_triple``
    r = rng.random
    entries = []
    while len(entries) < 9:
        z = complex(-1.0 + 2.0 * r(), -1.0 + 2.0 * r())
        if abs(z) <= 1.0:
            entries.append(z)
    return tuple(entries)


def well_conditioned_matrix(rng: random.Random) -> Mat3:
    """Random unit-disk matrix with a bounded condition estimate."""
    return Mat3(_well_conditioned_with_inverse(rng)[0])


def _well_conditioned_with_inverse(
        rng: random.Random) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The flat entries of ``well_conditioned_matrix`` and of the inverse
    its condition estimate took."""
    for _ in range(_MAX_ATTEMPTS):
        g = _random_matrix(rng)
        f = kernels.frob3(g)
        d = kernels.det3(g)
        if f == 0.0 or abs(d) <= 1e-3 * f ** 3:
            continue
        g_inv = inverse_entries(g, d)
        if f * kernels.frob3(g_inv) <= _MAX_CONDITION:
            return g, g_inv
    raise RuntimeError("could not draw a well-conditioned matrix")


def _random_pair_with_attempts(seed: int) -> tuple[Forward, int]:
    rng = random.Random(seed)
    for attempt in range(1, _MAX_ATTEMPTS + 1):
        h1, h2, h3 = _eigenvalue_triple(rng)
        v, v_inv = _well_conditioned_with_inverse(rng)
        # V diag(h) V^-1, built as one Mat3
        a = Mat3(kernels.matmul3(
            kernels.matmul3(v, (h1, 0j, 0j, 0j, h2, 0j, 0j, 0j, h3)), v_inv))
        b = Mat3(_random_matrix(rng))
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
    """General-position pair for this seed; identical across runs.
    ``random.Random`` seeds by |seed|, so ``seed`` and ``-seed`` draw the
    same pair."""
    return random_forward(seed).pair


def generation_attempts(seed: int) -> int:
    """How many candidates the seed burned before one passed every check;
    informational, for tracking the empirical rejection rate."""
    return _random_pair_with_attempts(seed)[1]
