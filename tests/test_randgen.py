import hashlib
import random

from spectral_pair import general_position_report, generation_attempts, random_pair
from spectral_pair.randgen import _well_conditioned_with_inverse

#: sha256 of the draws that ``test_draws_keep_their_bits`` lists
DRAWS_DIGEST = "c1ac6c4983933e0e88bd682f630c20e695ca98bd650add19d3c7b729a5a03539"


def test_hundred_consecutive_seeds_pass(seeded_pairs):
    assert len(seeded_pairs) == 100
    for pair in seeded_pairs[:10]:  # spot re-check; generation enforced all
        assert general_position_report(pair).passed


def test_same_seed_same_pair():
    p1 = random_pair(42)
    p2 = random_pair(42)
    assert p1.a.entries == p2.a.entries
    assert p1.b.entries == p2.b.entries


def test_rejection_rate_informational():
    attempts = [generation_attempts(seed) for seed in range(30)]
    rate = sum(a - 1 for a in attempts) / len(attempts)
    print(f"empirical rejection rate: {rate:.3f} rejected candidates per seed "
          f"(max attempts {max(attempts)})")
    assert max(attempts) < 50


def test_draws_keep_their_bits():
    """Every entry's repr of the pairs of seeds 0-49, with their attempt
    counts, and of the conjugations that ``verify`` draws for seeds 0-9,
    against their digest: a change to the generator that moves one bit of
    one draw fails here."""
    lines = []
    for seed in range(50):
        pair = random_pair(seed)
        lines += [repr(pair.a.entries), repr(pair.b.entries),
                  repr(generation_attempts(seed))]
    for seed in range(10):
        g, g_inv = _well_conditioned_with_inverse(
            random.Random((seed << 16) ^ 0x5BD1))
        lines += [repr(g), repr(g_inv)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == DRAWS_DIGEST
