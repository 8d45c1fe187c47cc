"""Seeded random graph-code sampling and Monte Carlo correctability statistics.

Sampling follows the random-coding argument: strictly-lower adjacency
entries are i.i.d. uniform residues, mirrored to the upper triangle,
zero diagonal.  Reproducibility contract: every trial draws from its
own substream derived from (master_seed, trial_index), so reports are
byte-identical no matter how trials would be scheduled; sample_graph and
run_search both draw through _sample_gammas.  run_search certifies a
stack of trials in one walk of the subset scan (graphs._first_failing_stack).
singular_fraction_experiment draws its matrices from one generator in
chunks; over several chunks one helper thread makes every draw, in order,
at most one chunk ahead of the chunk the calling thread ranks, so the
values drawn and the report are those of one thread drawing as it ranks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .errors import ParamOutOfRange
from .graphs import (
    GraphCode,
    _codes_per_stack,
    _first_failing_stack,
    _require_adjacency,
    _require_budget,
    _require_int64_modulus,
    _require_residue_table,
    _require_shape,
    graph_to_dict,
)
from .modular import ModMatrix, _require_prime, rank_prime_batch
from .rates import _random_graph_rate

__all__ = [
    "SearchConfig",
    "SearchReport",
    "trial_rng",
    "sample_graph",
    "failure_bound_log2",
    "run_search",
    "singular_fraction_experiment",
]

# Most matrix entries singular_fraction_experiment draws and eliminates at once.
_CHUNK_ENTRIES = 2**20


def _require_trials(trials: int) -> None:
    if not trials >= 1:
        raise ParamOutOfRange(f"trials must be >= 1, got {trials}")


def _require_seed(seed: int) -> None:
    """The seed rule of every seeded entry point: 0 <= seed < 2**64."""
    if not 0 <= seed < 2**64:
        raise ParamOutOfRange(f"seed must fit in 64 bits (0 <= seed < 2**64), got {seed}")


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of one reproducible random-code search."""

    d: int
    m: int
    n: int
    f: int
    trials: int
    seed: int

    def __post_init__(self):
        _require_prime(self.d)
        _require_shape(self.m, self.n, self.f)
        _require_trials(self.trials)
        _require_seed(self.seed)


@dataclass
class SearchReport:
    """Outcome of run_search; serializes via to_dict for the CLI."""

    config: SearchConfig
    successes: int
    failures: int
    bound_log2: float
    best_code: Optional[GraphCode]
    per_trial_seeds: dict = field(default_factory=dict)
    first_failure_trial: Optional[int] = None
    first_failure_witness: Optional[tuple[int, ...]] = None
    failure_fraction_upper99: float = 0.0

    @property
    def empirical_failure_fraction(self) -> float:
        return self.failures / self.config.trials

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "successes": self.successes,
            "failures": self.failures,
            "empirical_failure_fraction": self.empirical_failure_fraction,
            "failure_fraction_upper99": self.failure_fraction_upper99,
            "bound_log2": self.bound_log2,
            "bound": 2.0**self.bound_log2,
            "best_code": None if self.best_code is None else graph_to_dict(self.best_code),
            "per_trial_seeds": self.per_trial_seeds,
            "first_failure_trial": self.first_failure_trial,
            "first_failure_witness": (
                None
                if self.first_failure_witness is None
                else list(self.first_failure_witness)
            ),
        }


def trial_rng(master_seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial, derived from the master seed."""
    _require_seed(master_seed)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, trial))))


def sample_graph(d: int, m: int, n: int, rng: np.random.Generator) -> GraphCode:
    """Uniform random graph code: i.i.d. lower-triangle entries, zero diagonal."""
    return GraphCode(d, m, n, ModMatrix(d, _sample_gammas(d, m + n, [rng])[0]))


def _sample_gammas(d: int, size: int, rngs: list) -> np.ndarray:
    """A (T, size, size) stack of adjacency matrices over Z_d, one per generator: each
    draws its strictly-lower entries, row by row, mirrored to the upper triangle."""
    _require_prime(d)
    _require_int64_modulus(d)
    _require_budget(len(rngs) * size * size, "adjacency matrix")
    gammas = np.zeros((len(rngs), size, size), dtype=np.int64)
    rows, cols = np.tril_indices(size, k=-1)
    for gamma, rng in zip(gammas, rngs):
        gamma[rows, cols] = rng.integers(0, d, size=len(rows))
    gammas += gammas.swapaxes(1, 2)
    return gammas


def failure_bound_log2(d: int, m: int, n: int, f: int) -> float:
    """log2 upper bound on the probability a random code fails to correct f.

    Returns n log2 d (m/n - R(f/n)) = n [ (m/n + 4f/n - 1) log2 d + H2(2f/n) ],
    R the random-graph rate of rates; negative proves a correcting code exists.
    """
    _require_prime(d)
    _require_shape(m, n, f)
    return n * math.log2(d) * (m / n - _random_graph_rate(d, f / n))


def run_search(cfg: SearchConfig) -> SearchReport:
    """Sample cfg.trials random codes and test each for corrects_f.

    best_code is the first passing code in trial order; the witness of
    the first failing trial is kept for debugging.  Trials are sampled and
    scanned a stack at a time (graphs._codes_per_stack), so memory does not
    grow with cfg.trials.
    """
    d, m, n = cfg.d, cfg.m, cfg.n
    take = min(cfg.trials, _codes_per_stack(m, n))
    successes = 0
    best: Optional[GraphCode] = None
    first_failure_trial: Optional[int] = None
    first_failure_witness = None
    for start in range(0, cfg.trials, take):
        trials = range(start, min(start + take, cfg.trials))
        gammas = _sample_gammas(d, m + n, [trial_rng(cfg.seed, t) for t in trials])
        _require_adjacency(gammas, d)
        witnesses = _first_failing_stack(gammas, d, m, 2 * cfg.f)
        passed = [k for k, witness in enumerate(witnesses) if witness is None]
        successes += len(passed)
        if best is None and passed:
            best = GraphCode(d, m, n, ModMatrix(d, gammas[passed[0]]))
        if first_failure_trial is None and len(passed) < len(trials):
            k = next(k for k, witness in enumerate(witnesses) if witness is not None)
            first_failure_trial, first_failure_witness = trials[k], witnesses[k]
        del gammas  # so the next stack is sampled without this one held
    failures = cfg.trials - successes
    # exact (Clopper-Pearson) one-sided 99% upper confidence limit: the 0.99
    # quantile of Beta(failures + 1, trials - failures); scipy.special is
    # imported here so that only this command pays for it
    if failures == cfg.trials:
        upper = 1.0
    else:
        from scipy.special import betaincinv

        upper = float(betaincinv(failures + 1, cfg.trials - failures, 0.99))
    return SearchReport(
        config=cfg,
        successes=successes,
        failures=failures,
        bound_log2=failure_bound_log2(cfg.d, cfg.m, cfg.n, cfg.f),
        best_code=best,
        per_trial_seeds={
            "scheme": "numpy SeedSequence((master_seed, trial_index)) -> PCG64",
            "master_seed": cfg.seed,
            "trials": cfg.trials,
        },
        first_failure_trial=first_failure_trial,
        first_failure_witness=first_failure_witness,
        failure_fraction_upper99=upper,
    )


def singular_fraction_experiment(
    d: int, big_n: int, small_m: int, trials: int, seed: int
) -> tuple[float, float]:
    """Fraction of random N x M matrices over Z_d with non-trivial kernel.

    Returns (empirical fraction, the analytic bound d^{-(N-M)}).  The matrices are
    drawn from one generator seeded with (seed,), in chunks of at most
    _CHUNK_ENTRIES entries (or one matrix), and ranked by rank_prime_batch.  Over
    several chunks one helper thread draws chunk k + 1 while the calling thread
    ranks chunk k: it makes every draw, in order, so the values and the report do
    not depend on the thread, and it is never more than one chunk ahead.  A run of
    one chunk, or of matrices past _CHUNK_ENTRIES, draws each as it is ranked and
    starts no thread.
    """
    _require_prime(d)
    _require_int64_modulus(d)
    if not 0 <= small_m < big_n:
        raise ParamOutOfRange(f"need 0 <= M < N, got N={big_n}, M={small_m}")
    _require_trials(trials)
    _require_seed(seed)
    bound = float(d) ** (-(big_n - small_m))
    if small_m == 0:
        return 0.0, bound  # no columns: the kernel condition holds vacuously
    _require_residue_table(big_n * small_m, "random matrix", d)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    # below 2**32 numpy draws int64 and uint32 through one 32-bit routine: the same
    # values and generator state, in half the bytes
    draw = np.uint32 if d <= 2**32 else np.int64
    chunk = max(1, min(trials, 20_000, _CHUNK_ENTRIES // (big_n * small_m)))
    takes = (min(chunk, trials - start) for start in range(0, trials, chunk))

    def drawn(take: int) -> np.ndarray:
        return rng.integers(0, d, size=(take, big_n, small_m), dtype=draw)

    def singular(mats: np.ndarray) -> int:
        return int((rank_prime_batch(mats, d) < small_m).sum())

    if chunk == trials or chunk * big_n * small_m > _CHUNK_ENTRIES:
        # one chunk, or one matrix past the chunk budget: each drawn as it is ranked
        return sum(singular(drawn(take)) for take in takes) / trials, bound
    # numpy draws without the GIL, so the draw of the next chunk runs beside the
    # kernel; concurrent.futures is imported here so that only this command pays for it
    from concurrent.futures import ThreadPoolExecutor

    found = 0
    with ThreadPoolExecutor(max_workers=1) as helper:
        ahead = helper.submit(drawn, next(takes))
        for take in takes:
            mats = ahead.result()
            ahead = helper.submit(drawn, take)
            found += singular(mats)
        found += singular(ahead.result())
    return found / trials, bound
