import json
import math

import numpy as np
import pytest

from graphqec import search
from graphqec.errors import CompositeModulus, ParamOutOfRange, TooManyErrors
from graphqec.search import (
    SearchConfig,
    failure_bound_log2,
    run_search,
    sample_graph,
    singular_fraction_experiment,
    trial_rng,
)

from conftest import entropy_oracle


def test_sample_graph_is_reproducible():
    a = sample_graph(2, 1, 2, trial_rng(42, 0))
    b = sample_graph(2, 1, 2, trial_rng(42, 0))
    assert np.array_equal(a.gamma.entries, b.gamma.entries)
    c = sample_graph(2, 1, 2, trial_rng(42, 1))
    # a different substream; the sampled 3x3 graph is fixed by the scheme
    assert a.gamma.entries.shape == c.gamma.entries.shape == (3, 3)


def test_sample_graph_structure():
    rng = trial_rng(7, 0)
    for _ in range(50):
        code = sample_graph(3, 2, 4, rng)
        g = code.gamma.entries
        assert np.array_equal(g, g.T)
        assert not np.any(np.diag(g))
        assert g.min() >= 0 and g.max() < 3


def test_sample_graph_rejects_composite():
    with pytest.raises(CompositeModulus):
        sample_graph(4, 1, 2, trial_rng(0, 0))


def test_sample_graph_marginal_is_uniform():
    # chi-square style check on one off-diagonal entry over many samples
    d, samples = 3, 100_000
    rng = trial_rng(2024, 0)
    counts = np.zeros(d, dtype=int)
    for _ in range(samples):
        code = sample_graph(d, 1, 2, rng)
        counts[code.gamma.entries[1, 0]] += 1
    expected = samples / d
    sigma = math.sqrt(samples * (1 / d) * (1 - 1 / d))
    assert np.abs(counts - expected).max() <= 4 * sigma


def test_failure_bound_example_value():
    value = failure_bound_log2(2, 3, 30, 1)
    oracle = 30 * ((3 / 30 + 4 / 30 - 1) * 1.0 + entropy_oracle(2 / 30))
    assert abs(value - oracle) < 1e-12
    assert abs(value - (-12.39)) < 0.01


def test_failure_bound_vacuous_when_m_plus_4f_is_n():
    # first term vanishes, leaving n H2(2f/n) >= 0
    value = failure_bound_log2(2, 6, 10, 1)
    assert abs(value - 10 * entropy_oracle(0.2)) < 1e-12
    assert value >= 0


def test_failure_bound_f_zero():
    value = failure_bound_log2(3, 2, 5, 0)
    assert abs(value - 5 * (2 / 5 - 1) * math.log2(3)) < 1e-12
    assert value < 0


def test_failure_bound_guards():
    with pytest.raises(CompositeModulus):
        failure_bound_log2(4, 1, 10, 1)
    with pytest.raises(ParamOutOfRange):
        failure_bound_log2(2, 1, 4, 2)


def test_search_config_validation():
    with pytest.raises(CompositeModulus):
        SearchConfig(d=6, m=1, n=5, f=1, trials=1, seed=0)
    with pytest.raises(TooManyErrors):
        SearchConfig(d=2, m=1, n=4, f=2, trials=1, seed=0)
    with pytest.raises(ParamOutOfRange):
        SearchConfig(d=2, m=1, n=5, f=1, trials=0, seed=0)


def test_run_search_all_pass_in_favourable_regime():
    cfg = SearchConfig(d=2, m=3, n=30, f=1, trials=100, seed=7)
    report = run_search(cfg)
    assert report.successes == 100
    assert report.failures == 0
    assert report.best_code is not None
    assert report.bound_log2 < 0
    # empirical failure fraction respects the analytic bound + 3 sigma
    bound = min(1.0, 2.0**report.bound_log2)
    sigma = math.sqrt(bound / cfg.trials)
    assert report.empirical_failure_fraction <= bound + 3 * sigma


def test_run_search_mixed_regime_records_witness():
    cfg = SearchConfig(d=2, m=1, n=5, f=1, trials=1000, seed=3)
    report = run_search(cfg)
    assert report.successes > 0
    assert report.failures > 0
    assert report.first_failure_trial is not None
    assert report.first_failure_witness is not None
    assert report.successes + report.failures == cfg.trials
    # the analytic bound is vacuous here (>= 1) but still respected
    bound = min(1.0, 2.0**report.bound_log2)
    sigma = math.sqrt(bound / cfg.trials)
    assert report.empirical_failure_fraction <= bound + 3 * sigma


def test_run_search_single_trial_samples_the_wheel_code(wheel):
    # seed found by scanning: substream (38688, 0) reproduces the wheel graph
    cfg = SearchConfig(d=2, m=1, n=5, f=1, trials=1, seed=38688)
    report = run_search(cfg)
    assert report.successes == 1
    assert np.array_equal(report.best_code.gamma.entries, wheel.gamma.entries)


def test_run_search_reports_are_byte_identical():
    cfg = SearchConfig(d=2, m=3, n=30, f=1, trials=40, seed=123)
    a = json.dumps(run_search(cfg).to_dict(), sort_keys=True)
    b = json.dumps(run_search(cfg).to_dict(), sort_keys=True)
    assert a == b


def test_singular_fraction_qubit_case():
    emp, bound = singular_fraction_experiment(2, 10, 5, 20_000, 99)
    assert abs(bound - 2.0**-5) < 1e-15
    assert emp <= bound + 3 * math.sqrt(bound / 20_000)


def test_singular_fraction_qutrit_case():
    emp, bound = singular_fraction_experiment(3, 4, 2, 20_000, 5)
    assert abs(bound - 3.0**-2) < 1e-15
    assert emp <= bound + 3 * math.sqrt(bound / 20_000)


def test_singular_fraction_zero_columns():
    emp, bound = singular_fraction_experiment(2, 4, 0, 100, 1)
    assert emp == 0.0
    assert abs(bound - 2.0**-4) < 1e-15


@pytest.mark.parametrize("d", [3, 1_000_000_000_000_000_003])
def test_singular_fraction_chunks_within_entry_budget(monkeypatch, d):
    unbudgeted = singular_fraction_experiment(d, 6, 4, 500, 11)
    entries = []
    rank = search.rank_prime_batch

    def recording(mats, p):
        entries.append(mats.size)
        return rank(mats, p)

    monkeypatch.setattr(search, "rank_prime_batch", recording)
    monkeypatch.setattr(search, "_CHUNK_ENTRIES", 7 * 24)  # 7 matrices of 6 x 4
    assert singular_fraction_experiment(d, 6, 4, 500, 11) == unbudgeted
    assert len(entries) == 72 and max(entries) <= 7 * 24


def test_singular_fraction_guards():
    with pytest.raises(ParamOutOfRange):
        singular_fraction_experiment(2, 5, 5, 10, 0)
    with pytest.raises(CompositeModulus):
        singular_fraction_experiment(4, 5, 2, 10, 0)


@pytest.mark.parametrize("seed", [-5, 2**64, 2**76])
def test_every_seeded_entry_point_refuses_seeds_beyond_64_bits(seed):
    for call in (
        lambda: SearchConfig(d=2, m=1, n=5, f=1, trials=1, seed=seed),
        lambda: trial_rng(seed, 0),
        lambda: singular_fraction_experiment(2, 4, 2, 10, seed),
        lambda: singular_fraction_experiment(2, 4, 0, 10, seed),
    ):
        with pytest.raises(ParamOutOfRange, match="seed must fit in 64 bits"):
            call()


def test_two_f_at_least_n_raises_one_type():
    # TooManyErrors is a ParamOutOfRange, so callers may catch either
    from graphqec.graphs import find_uncorrectable_subset, wheel_code

    for call in (
        lambda: SearchConfig(d=2, m=1, n=4, f=2, trials=1, seed=0),
        lambda: failure_bound_log2(2, 1, 4, 2),
        lambda: find_uncorrectable_subset(wheel_code(), 3),
    ):
        with pytest.raises(TooManyErrors, match="need 2f < n"):
            call()
