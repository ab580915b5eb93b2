import spectral_pair.verify as verify


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
