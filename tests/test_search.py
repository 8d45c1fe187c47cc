import json
import math
import threading
import time

import numpy as np
import pytest

from graphqec import graphs, search
from graphqec.errors import CompositeModulus, ParamOutOfRange, TooManyErrors
from graphqec.graphs import find_uncorrectable_subset
from graphqec.search import (
    SearchConfig,
    failure_bound_log2,
    run_search,
    sample_graph,
    singular_fraction_experiment,
    trial_rng,
)

from conftest import entropy_oracle, loop_search


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
    assert type(value) is float
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


def test_failure_bound_is_negative_exactly_on_the_achievable_region():
    # the existence bound and achievable_pair read the same random-graph rate
    from graphqec.rates import achievable_pair

    for d in (2, 3, 5, 7, 11, 13):
        for n in range(1, 60):
            for m in range(1, n + 1):
                for f in range((n + 1) // 2):
                    negative = failure_bound_log2(d, m, n, f) < 0
                    assert negative == achievable_pair(d, m / n, f / n), (d, m, n, f)


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


# (d, m, n, f, trials, seed): all-pass, mixed and all-fail searches at d = 2, 3, 5 and 7
_SEARCHES = [
    (2, 3, 30, 1, 40, 5), (2, 1, 5, 1, 60, 3), (2, 2, 6, 0, 30, 4), (3, 2, 8, 1, 40, 9),
    (3, 1, 10, 2, 30, 2), (5, 1, 6, 1, 40, 1), (5, 2, 12, 2, 20, 8), (7, 1, 5, 2, 20, 6),
    (7, 2, 9, 1, 30, 7), (7, 3, 4, 0, 30, 1),
]


@pytest.mark.parametrize("cap", ["default", "three-codes"])
def test_run_search_matches_the_per_trial_loop(monkeypatch, cap):
    scan, stacks = search._first_failing_stack, []

    def recording(gammas, d, m, max_size):
        stacks.append(len(gammas))
        return scan(gammas, d, m, max_size)

    monkeypatch.setattr(search, "_first_failing_stack", recording)
    regimes = set()
    for d, m, n, f, trials, seed in _SEARCHES:
        cfg = SearchConfig(d=d, m=m, n=n, f=f, trials=trials, seed=seed)
        want = loop_search(cfg)
        stack = trials
        with monkeypatch.context() as patch:
            if cap == "three-codes":  # the trial stack and the scan's table of three codes
                stack = 3
                patch.setattr(graphs, "DEFAULT_AMPLITUDE_CAP", 3 * max((m + n) ** 2, n * (m + 2 * n)))
            stacks.clear()
            assert run_search(cfg).to_dict() == want, cfg
        assert stacks == [min(stack, trials - start) for start in range(0, trials, stack)]
        regimes.add((want["successes"] > 0, want["failures"] > 0))
    assert regimes == {(True, False), (True, True), (False, True)}


def test_run_search_memory_does_not_grow_with_trials():
    import tracemalloc

    peaks = []
    for trials in (600, 1800):  # stacks of at most 554 codes at the default cap
        tracemalloc.start()
        try:
            run_search(SearchConfig(d=2, m=3, n=30, f=1, trials=trials, seed=1))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0], peaks


def test_best_code_and_first_witness_come_from_sample_graph_of_their_trials():
    mixed = [(2, 1, 8, 1, 100, 3), (3, 1, 7, 1, 60, 2), (5, 1, 6, 1, 40, 2), (7, 1, 7, 1, 40, 4)]
    for d, m, n, f, trials, seed in mixed:
        report = run_search(SearchConfig(d=d, m=m, n=n, f=f, trials=trials, seed=seed))
        codes = [sample_graph(d, m, n, trial_rng(seed, t)) for t in range(trials)]
        passing = next(t for t, code in enumerate(codes) if find_uncorrectable_subset(code, f) is None)
        assert np.array_equal(report.best_code.gamma.entries, codes[passing].gamma.entries)
        witness = find_uncorrectable_subset(codes[report.first_failure_trial], f)
        assert witness is not None and report.first_failure_witness == witness


@pytest.mark.parametrize("flaw", ["asymmetric", "self-loop", "out-of-range"])
def test_run_search_checks_the_graph_code_rules_on_its_stack(monkeypatch, flaw):
    sample = search._sample_gammas

    def flawed(d, size, rngs):
        gammas = sample(d, size, rngs)
        if flaw == "asymmetric":
            gammas[1, 0, 1] = (gammas[1, 0, 1] + 1) % d
        elif flaw == "self-loop":
            gammas[1, 2, 2] = 1
        else:
            gammas[1, 0, 1] = gammas[1, 1, 0] = d
        return gammas

    monkeypatch.setattr(search, "_sample_gammas", flawed)
    message = {"asymmetric": "symmetric", "self-loop": "self-loops", "out-of-range": "lie in"}[flaw]
    with pytest.raises(ValueError, match=message):
        run_search(SearchConfig(d=3, m=1, n=5, f=1, trials=4, seed=0))


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


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 101, 46349, 2**31 - 1, 2**31 + 11, 4294967291, 4294967311])
def test_singular_fraction_draws_are_the_int64_stream(monkeypatch, d):
    # numpy draws uint32 and int64 below 2**32 through one 32-bit routine, so the narrow
    # draws are the int64 values, and leave the generator where int64 draws would; over
    # several chunks the helper thread draws them, and the chunks are ranked in stream order
    drawn = []
    rank = search.rank_prime_batch

    def recording(mats, p):
        drawn.append(mats.copy())
        return rank(mats, p)

    monkeypatch.setattr(search, "rank_prime_batch", recording)
    # 20 matrices of 3 x 2 in one chunk, two, three (7, 7 and 6), twenty of one matrix,
    # and twenty past the budget, each drawn as it is ranked
    for budget, takes in [(120, [20]), (60, [10, 10]), (42, [7, 7, 6]), (6, [1] * 20), (5, [1] * 20)]:
        drawn.clear()
        monkeypatch.setattr(search, "_CHUNK_ENTRIES", budget)
        singular_fraction_experiment(d, 3, 2, 20, 17)
        assert [m.shape[0] for m in drawn] == takes
        assert {m.dtype for m in drawn} == {np.dtype(np.uint32 if d < 2**32 else np.int64)}
        reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence((17,))))
        for mats in drawn:
            assert np.array_equal(mats, reference.integers(0, d, size=mats.shape))
    if d < 2**32:  # odd and even draw sizes, with the state compared after each
        narrow, wide = (np.random.Generator(np.random.PCG64(np.random.SeedSequence((17,)))) for _ in range(2))
        for size in (7, 6, 1, 1, 5, 8):
            assert np.array_equal(narrow.integers(0, d, size=size, dtype=np.uint32), wide.integers(0, d, size=size))
            assert narrow.bit_generator.state == wide.bit_generator.state


def _logged_pipeline(monkeypatch, fail=None):
    """Log each draw of singular_fraction_experiment's generator as it begins, and each
    chunk once rank_prime_batch has ranked it, as (kind, thread, draws begun, threads
    alive); fail = (kind, k) raises in the k-th draw or rank, counted from 0."""
    events = []
    rank = search.rank_prime_batch

    def log(kind):
        count = sum(event[0] == kind for event in events)
        begun = sum(event[0] == "draw" for event in events) + (kind == "draw")
        events.append((kind, threading.get_ident(), begun, threading.active_count()))
        if fail == (kind, count):
            raise RuntimeError(f"{kind} {count} failed")

    class Logged(np.random.Generator):
        def integers(self, *args, **kwargs):
            log("draw")
            return super().integers(*args, **kwargs)

    def ranked(mats, p):
        ranks = rank(mats, p)
        time.sleep(0.01)  # time for a pipeline that runs ahead to show it
        log("rank")
        return ranks

    monkeypatch.setattr(np.random, "Generator", Logged)
    monkeypatch.setattr(search, "rank_prime_batch", ranked)
    return events


def test_singular_fraction_draws_on_one_helper_thread_at_most_one_chunk_ahead(monkeypatch):
    events = _logged_pipeline(monkeypatch)
    monkeypatch.setattr(search, "_CHUNK_ENTRIES", 6)  # twenty chunks of one 3 x 2 matrix
    singular_fraction_experiment(5, 3, 2, 20, 17)
    draws = [event for event in events if event[0] == "draw"]
    ranks = [event for event in events if event[0] == "rank"]
    assert len(draws) == len(ranks) == 20
    assert {event[1] for event in ranks} == {threading.get_ident()}
    assert len({event[1] for event in draws}) == 1 and draws[0][1] != threading.get_ident()
    # once chunk k is ranked, chunk k + 1 may be drawn, but not chunk k + 2
    assert all(begun <= k + 2 for k, (_, _, begun, _) in enumerate(ranks)), ranks


@pytest.mark.parametrize(
    "fail", [("draw", 0), ("draw", 1), ("draw", 19), ("rank", 0), ("rank", 7), ("rank", 19)],
    ids=lambda fail: f"{fail[0]}-{fail[1]}",
)
def test_singular_fraction_raises_from_either_thread_and_leaves_no_thread_behind(monkeypatch, fail):
    threads = threading.active_count()
    _logged_pipeline(monkeypatch, fail)
    monkeypatch.setattr(search, "_CHUNK_ENTRIES", 6)
    with pytest.raises(RuntimeError, match=f"^{fail[0]} {fail[1]} failed$"):
        singular_fraction_experiment(5, 3, 2, 20, 17)
    assert threading.active_count() == threads


@pytest.mark.parametrize("budget", [120, 2**20, 5])  # one chunk; one; 20 matrices past the budget
def test_singular_fraction_starts_no_thread_for_one_chunk_or_an_oversized_matrix(monkeypatch, budget):
    threads = threading.active_count()
    events = _logged_pipeline(monkeypatch)
    monkeypatch.setattr(search, "_CHUNK_ENTRIES", budget)
    singular_fraction_experiment(5, 3, 2, 20, 17)
    assert len(events) == (2 if budget > 5 else 40)
    assert {(event[1], event[3]) for event in events} == {(threading.get_ident(), threads)}


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
    from graphqec.graphs import wheel_code

    for call in (
        lambda: SearchConfig(d=2, m=1, n=4, f=2, trials=1, seed=0),
        lambda: failure_bound_log2(2, 1, 4, 2),
        lambda: find_uncorrectable_subset(wheel_code(), 3),
    ):
        with pytest.raises(TooManyErrors, match="need 2f < n"):
            call()


def test_failure_fraction_upper_limit_is_the_beta_quantile():
    from scipy.stats import beta  # the reference only; the library does not import scipy.stats

    failures = []
    for d, n, trials, seed in [(5, 6, 1, 3), (5, 6, 7, 1), (5, 6, 40, 2), (5, 6, 200, 5), (2, 5, 7, 1)]:
        report = run_search(SearchConfig(d=d, m=1, n=n, f=1, trials=trials, seed=seed))
        failures.append(report.failures)
        if report.failures == trials:
            want = 1.0
        else:
            want = float(beta.ppf(0.99, report.failures + 1, trials - report.failures))
        assert report.failure_fraction_upper99 == want
    assert failures == [0, 2, 20, 117, 7]  # none, some and all trials failing
