import math
import random
import sys

import pytest

import spectral_pair.spectral as spectral
import spectral_pair.verify as verify
from spectral_pair import (
    GaugeDegenerate,
    Generator,
    Mat3,
    SingularMatrix,
    random_pair,
    act_spectral,
    spectral_data,
    verify_commutation,
)
from spectral_pair._kernels_py import canonical_order

from conftest import recording_validations
from oracles import record_by_loop


def recording_eig3(monkeypatch) -> list:
    """The matrices that ``eig3`` decomposes from now on, in order."""
    calls = []
    original = spectral.eig3

    def recording(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(spectral, "eig3", recording)
    return calls


def recording_draws(monkeypatch) -> list:
    """The forward passes that ``run_suite`` draws from now on, in order."""
    drawn = []
    original = verify.random_forward

    def recording(seed):
        drawn.append(original(seed))
        return drawn[-1]

    monkeypatch.setattr(verify, "random_forward", recording)
    return drawn


def test_run_suite_draws_each_pair_once(monkeypatch):
    drawn = []
    original = verify.random_forward

    def counting_random_forward(seed):
        drawn.append(seed)
        return original(seed)

    monkeypatch.setattr(verify, "random_forward", counting_random_forward)
    results = verify.run_suite(3, base_seed=10)
    assert drawn == [10, 11, 12]
    assert [r.operation for r in results] == list(verify.PROPERTIES)
    assert all(r.seeds_run + len(r.skipped) == 3 for r in results)


def test_run_suite_maps_the_drawn_pair_forward_once(monkeypatch):
    """With the properties replaced by a probe, the only eigendecomposition
    of each drawn A is the one in the forward pass that accepted the pair,
    and the probe receives that pass's data."""
    drawn = recording_draws(monkeypatch)
    decomposed = recording_eig3(monkeypatch)
    probed = []

    def probe(accepted, rebuilt, seed):
        probed.append((accepted.pair, accepted.np, accepted.sd))
        return {"probe": 0.0}

    monkeypatch.setattr(verify, "PROPERTIES", {"probe": probe})
    verify.run_suite(3, base_seed=10)
    assert len(drawn) == 3
    assert [sum(a is d.pair.a for a in decomposed) for d in drawn] == [1, 1, 1]
    assert all(p is d.pair and n is d.np and s is d.sd
               for (p, n, s), d in zip(probed, drawn, strict=True))
    assert [s for _, _, s in probed] == [spectral_data(d.pair) for d in drawn]


def test_forward_map_failure_skips_every_property(monkeypatch):
    original = verify.random_forward

    def degenerate(seed):
        return original(seed)._replace(np=None, sd=None,
                                       error=GaugeDegenerate("forced"))

    monkeypatch.setattr(verify, "random_forward", degenerate)
    for result in verify.run_suite(2, base_seed=5):
        assert result.seeds_run == 0
        assert result.skipped == [{"seed": 5, "code": "gauge_degenerate"},
                                  {"seed": 6, "code": "gauge_degenerate"}]


def summaries(results) -> dict:
    """Each result's maximum, seeds run and skips, by operation."""
    return {r.operation: (repr(r.max_residual), r.seeds_run, r.skipped)
            for r in results}


ROUND_TRIPS = ("round_trip_forward", "round_trip_backward")


def test_a_reconstruction_error_skips_both_round_trips(monkeypatch):
    """The seed's one reconstruction raised: both round trips skip the
    seed with its code, and every other property runs as before."""
    def singular(sd):
        raise SingularMatrix("forced", which=None)

    before = summaries(verify.run_suite(3))
    monkeypatch.setattr(verify, "reconstruct", singular)
    after = summaries(verify.run_suite(3))
    for name in ROUND_TRIPS:
        assert after[name] == (
            "0.0", 0, [{"seed": s, "code": "singular_matrix"} for s in range(3)])
    assert {k: v for k, v in after.items() if k not in ROUND_TRIPS} == {
        k: v for k, v in before.items() if k not in ROUND_TRIPS}


def test_a_property_error_skips_that_property_and_seed_only(monkeypatch):
    original = verify.PROPERTIES["commute_shear"]

    def degenerate_on_seed_1(drawn, rebuilt, seed):
        if seed == 1:
            raise GaugeDegenerate("forced")
        return original(drawn, rebuilt, seed)

    before = summaries(verify.run_suite(3))
    monkeypatch.setitem(verify.PROPERTIES, "commute_shear",
                        degenerate_on_seed_1)
    after = summaries(verify.run_suite(3))
    assert after.pop("commute_shear")[1:] == (
        2, [{"seed": 1, "code": "gauge_degenerate"}])
    del before["commute_shear"]
    assert after == before


def test_run_suite_decomposes_at_most_six_matrices(monkeypatch):
    calls = recording_eig3(monkeypatch)
    verify.run_suite(1)
    # 8 when run_suite mapped the drawn pair again, 7 when the shear
    # diagram decomposed the drawn A again
    assert len(calls) <= 6


def test_run_suite_decomposes_the_drawn_a_once_per_seed(monkeypatch):
    """Over seeds 0-99 the drawn A is decomposed by the forward pass that
    accepted it, and again only where a word's image starts with it (as
    T or S,S leave it): 109 times, where the shear diagram's second
    decomposition made it 209."""
    calls = recording_eig3(monkeypatch)
    drawn = recording_draws(monkeypatch)
    images = []
    original_act = verify.act_word_on_pair

    def recording_act_word_on_pair(word, pair):
        images.append(original_act(word, pair))
        return images[-1]

    monkeypatch.setattr(verify, "act_word_on_pair", recording_act_word_on_pair)
    verify.run_suite(100)
    assert len(drawn) == 100
    decomposed = [sum(a is d.pair.a for a in calls) for d in drawn]
    starts_with_a = [sum(image.a is d.pair.a for image in images)
                     for d in drawn]
    assert decomposed == [1 + n for n in starts_with_a]
    assert sum(decomposed) == 109


def test_verify_commutation_decomposes_a_once_for_the_shear(monkeypatch):
    pair = random_pair(1)
    calls = recording_eig3(monkeypatch)
    report = verify_commutation(Generator.SHEAR, pair)
    assert len(calls) == 1 and calls[0] is pair.a
    assert report.max_residual <= verify.DEFAULT_TOLERANCE


def test_run_suite_builds_each_matrix_once(monkeypatch):
    built = []
    original = Mat3.__post_init__

    def counting_post_init(m):
        built.append(1)
        original(m)

    monkeypatch.setattr(Mat3, "__post_init__", counting_post_init)
    verify.run_suite(1)
    assert len(built) <= 120   # 253 with whole-matrix products


def test_run_suite_relists_five_times_and_reconstructs_once(monkeypatch):
    """One relisting per diagram and two per word: the forward map's side
    of each comparison is already canonical.  Every relisting, public
    ``canonical_form`` or not, goes through ``reconstruct._relisted``.
    Only the round trips reconstruct on this seed, and they share one
    reconstruction: a relisting that keeps the first eigenvalue in place
    passes the divisor point through."""
    calls = {"_relisted": 0, "reconstruct": 0}
    for name in calls:
        original = getattr(sys.modules["spectral_pair.reconstruct"], name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in list(sys.modules.values()):
            if (module.__name__.startswith("spectral_pair.")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    verify.run_suite(1)
    # 13 and 15 on this seed when both sides of every comparison, and every
    # step of the word, were relisted; 7 reconstructions when each
    # relisting reconstructed, 2 when each round trip did
    assert calls["_relisted"] <= 5
    assert calls["reconstruct"] <= 1


def test_word_consistency_holds_at_seed_653207699():
    """The seed draws the word I,I,I,S,S,S; re-deriving the coefficients
    after every step put its residual at 6.3e-5."""
    results = {r.operation: r for r in verify.run_suite(1, base_seed=653207699)}
    word = results["word_consistency"]
    assert word.seeds_run == 1 and word.passed, word.max_residual


def test_run_suite_validates_seventeen_times_on_seed_0(monkeypatch):
    """Each action validates its output, and relisting it in the same
    order does not validate it again: 20 validations when it did."""
    validated = recording_validations(monkeypatch)
    verify.run_suite(1)
    assert len(validated) == 17


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("g", list(Generator))
def test_a_diagram_validates_its_relisting_only_when_permuted(
        seed, g, monkeypatch):
    """One diagram validates the pair's data, the action's output and the
    image's data; the relisting of the action's output adds a fourth only
    when it permutes the eigenvalues (I on seed 0)."""
    pair = random_pair(seed)
    image = act_spectral(g, spectral_data(pair))
    permuted = canonical_order(image.h) != image.h
    validated = recording_validations(monkeypatch)
    verify_commutation(g, pair)
    assert len(validated) == 3 + permuted
    assert permuted == (seed == 0 and g is Generator.INVERT)


def results_equal(a, b) -> bool:
    """Two results hold the same maxima, bit for bit and NaN included, and
    the same components in the same order."""
    return (repr(a.max_residual) == repr(b.max_residual)
            and a.worst_seed == b.worst_seed and a.seeds_run == b.seeds_run
            and repr(list(a.per_component.items()))
            == repr(list(b.per_component.items())))


def test_a_nan_residual_fails_its_property():
    """A NaN residual fails the property and names its seed and its
    component, first or not (``max`` keeps a NaN only when it comes
    first), and it stays when later seeds are finite."""
    result = verify.PropertyResult("x", 1e-6)
    result.record(0, {"a": math.nan, "b": 0.0})
    assert math.isnan(result.max_residual) and not result.passed
    assert result.worst_seed == 0
    assert repr(result.per_component) == "{'a': nan}"
    for residuals in ({"a": math.nan, "b": 0.0}, {"a": 0.0, "b": math.nan}):
        result = verify.PropertyResult("x", 1e-6)
        result.record(0, {"a": 1e-9, "b": 0.0})
        result.record(3, residuals)
        result.record(4, {"a": 2e-9, "b": 5e-9})
        result.record(5, {"a": math.nan})
        assert math.isnan(result.max_residual) and not result.passed
        assert result.worst_seed == 3
        nan_key = "a" if math.isnan(residuals["a"]) else "b"
        assert list(result.per_component) == ["a", "b"]
        assert math.isnan(result.per_component[nan_key])


def test_record_matches_the_plain_loop():
    """Seeded residual dicts with zeros, ties, keys that come and go and
    NaNs after the first value: ``record`` keeps the oracle's maxima, worst
    seed and components, in the oracle's order."""
    rng = random.Random("record")
    keys = [f"k{i}" for i in range(12)]
    levels = (0.0, 0.0, 1e-12, 1e-9, 1e-9, 3e-7, 2e-6)
    for trial in range(200):
        got = verify.PropertyResult("x", 1e-6)
        want = verify.PropertyResult("x", 1e-6)
        nan_seed = rng.randrange(12) if trial % 2 else None
        for seed in range(10):
            chosen = rng.sample(keys, rng.randint(0, len(keys)))
            residuals = {k: rng.choice(levels) if rng.random() < 0.7
                         else rng.random() * 1e-6 for k in chosen}
            if seed == nan_seed and len(chosen) > 1:
                residuals[rng.choice(chosen[1:])] = math.nan
            got.record(seed, residuals)
            record_by_loop(want, seed, residuals)
            assert results_equal(got, want), (trial, seed)
