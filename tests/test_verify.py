import spectral_pair.spectral as spectral
import spectral_pair.verify as verify
from spectral_pair import GaugeDegenerate, Mat3


def test_run_suite_draws_each_pair_once(monkeypatch):
    drawn = []
    original = verify.random_pair

    def counting_random_pair(seed, *args, **kwargs):
        drawn.append(seed)
        return original(seed, *args, **kwargs)

    monkeypatch.setattr(verify, "random_pair", counting_random_pair)
    results = verify.run_suite(3, base_seed=10)
    assert drawn == [10, 11, 12]
    assert [r.operation for r in results] == list(verify.PROPERTIES)
    assert all(r.seeds_run + len(r.skipped) == 3 for r in results)


def test_run_suite_maps_the_drawn_pair_forward_once(monkeypatch):
    drawn = []
    normalized = []
    original_draw = verify.random_pair
    original_normalize = spectral.normalize_pair

    def recording_random_pair(*args, **kwargs):
        drawn.append(original_draw(*args, **kwargs))
        return drawn[-1]

    def counting_normalize_pair(pair, *args, **kwargs):
        normalized.append(pair)
        return original_normalize(pair, *args, **kwargs)

    monkeypatch.setattr(verify, "random_pair", recording_random_pair)
    for module in (spectral, verify):
        monkeypatch.setattr(module, "normalize_pair", counting_normalize_pair)
    verify.run_suite(1)
    assert len(drawn) == 1
    assert sum(pair is drawn[0] for pair in normalized) == 1


def test_forward_map_failure_skips_every_property(monkeypatch):
    def degenerate(pair, *args, **kwargs):
        raise GaugeDegenerate("forced")

    monkeypatch.setattr(verify, "normalize_pair", degenerate)
    for result in verify.run_suite(2, base_seed=5):
        assert result.seeds_run == 0
        assert result.skipped == [{"seed": 5, "code": "gauge_degenerate"},
                                  {"seed": 6, "code": "gauge_degenerate"}]


def test_run_suite_builds_each_matrix_once(monkeypatch):
    built = []
    original = Mat3.__post_init__

    def counting_post_init(m):
        built.append(1)
        original(m)

    monkeypatch.setattr(Mat3, "__post_init__", counting_post_init)
    verify.run_suite(1)
    assert len(built) <= 120   # 253 with whole-matrix products
