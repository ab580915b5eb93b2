import sys

import spectral_pair.spectral as spectral
import spectral_pair.verify as verify
from spectral_pair import GaugeDegenerate, Mat3, spectral_data


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
    drawn, decomposed, probed = [], [], []
    original_draw = verify.random_forward
    original_eig3 = spectral.eig3

    def recording_random_forward(seed):
        drawn.append(original_draw(seed))
        return drawn[-1]

    def recording_eig3(a):
        decomposed.append(a)
        return original_eig3(a)

    def probe(pair, np, sd, seed):
        probed.append((pair, np, sd))
        return {"probe": 0.0}

    monkeypatch.setattr(verify, "random_forward", recording_random_forward)
    monkeypatch.setattr(spectral, "eig3", recording_eig3)
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


def test_run_suite_decomposes_at_most_seven_matrices(monkeypatch):
    calls = []
    original = spectral.eig3

    def counting_eig3(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(spectral, "eig3", counting_eig3)
    verify.run_suite(1)
    assert len(calls) <= 7   # 8 when run_suite mapped the drawn pair again


def test_run_suite_builds_each_matrix_once(monkeypatch):
    built = []
    original = Mat3.__post_init__

    def counting_post_init(m):
        built.append(1)
        original(m)

    monkeypatch.setattr(Mat3, "__post_init__", counting_post_init)
    verify.run_suite(1)
    assert len(built) <= 120   # 253 with whole-matrix products


def test_run_suite_relists_five_times_and_reconstructs_twice(monkeypatch):
    """One ``canonical_form`` per diagram and two per word: the forward
    map's side of each comparison is already canonical.  Only the two round
    trips reconstruct on this seed: a relisting that keeps the first
    eigenvalue in place passes the divisor point through."""
    calls = {"canonical_form": 0, "reconstruct": 0}
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
    # relisting reconstructed
    assert calls["canonical_form"] <= 5
    assert calls["reconstruct"] <= 2


def test_word_consistency_holds_at_seed_653207699():
    """The seed draws the word I,I,I,S,S,S; re-deriving the coefficients
    after every step put its residual at 6.3e-5."""
    results = {r.operation: r for r in verify.run_suite(1, base_seed=653207699)}
    word = results["word_consistency"]
    assert word.seeds_run == 1 and word.passed, word.max_residual
