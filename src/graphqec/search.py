"""Seeded random graph-code sampling and Monte Carlo correctability statistics.

Sampling follows the random-coding argument: strictly-lower adjacency
entries are i.i.d. uniform residues, mirrored to the upper triangle,
zero diagonal.  Reproducibility contract: every trial draws from its
own substream derived from (master_seed, trial_index), so reports are
byte-identical no matter how trials would be scheduled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.stats import beta

from .errors import ParamOutOfRange
from .graphs import GraphCode, _require_shape, find_uncorrectable_subset, graph_to_dict
from .modular import ModMatrix, _require_prime, rank_prime_batch
from .noise import binary_entropy

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
    _require_prime(d)
    size = m + n
    gamma = np.zeros((size, size), dtype=np.int64)
    idx = np.tril_indices(size, k=-1)
    gamma[idx] = rng.integers(0, d, size=len(idx[0]))
    gamma = gamma + gamma.T
    return GraphCode(d, m, n, ModMatrix(d, gamma))


def failure_bound_log2(d: int, m: int, n: int, f: int) -> float:
    """log2 upper bound on the probability a random code fails to correct f.

    Returns n [ (m/n + 4f/n - 1) log2 d + H2(2f/n) ]; a negative value
    proves at least one correcting code exists at these parameters.
    """
    _require_prime(d)
    _require_shape(m, n, f)
    return n * (
        (m / n + 4.0 * f / n - 1.0) * math.log2(d) + binary_entropy(2.0 * f / n)
    )


def run_search(cfg: SearchConfig) -> SearchReport:
    """Sample cfg.trials random codes and test each for corrects_f.

    best_code is the first passing code in trial order; the witness of
    the first failing trial is kept for debugging.
    """
    successes = 0
    failures = 0
    best: Optional[GraphCode] = None
    first_failure_trial: Optional[int] = None
    first_failure_witness = None
    for trial in range(cfg.trials):
        code = sample_graph(cfg.d, cfg.m, cfg.n, trial_rng(cfg.seed, trial))
        witness = find_uncorrectable_subset(code, cfg.f)
        if witness is None:
            successes += 1
            if best is None:
                best = code
        else:
            failures += 1
            if first_failure_trial is None:
                first_failure_trial = trial
                first_failure_witness = witness
    # exact (Clopper-Pearson) one-sided 99% upper confidence limit
    if failures == cfg.trials:
        upper = 1.0
    else:
        upper = float(beta.ppf(0.99, failures + 1, cfg.trials - failures))
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

    Returns (empirical fraction, the analytic bound d^{-(N-M)}).
    """
    _require_prime(d)
    if not 0 <= small_m < big_n:
        raise ParamOutOfRange(f"need 0 <= M < N, got N={big_n}, M={small_m}")
    _require_trials(trials)
    _require_seed(seed)
    bound = float(d) ** (-(big_n - small_m))
    if small_m == 0:
        return 0.0, bound  # no columns: the kernel condition holds vacuously
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    singular = 0
    chunk = max(1, min(trials, 20_000, _CHUNK_ENTRIES // (big_n * small_m)))
    remaining = trials
    while remaining:
        take = min(chunk, remaining)
        mats = rng.integers(0, d, size=(take, big_n, small_m))
        ranks = rank_prime_batch(mats, d)
        singular += int((ranks < small_m).sum())
        remaining -= take
    return singular / trials, bound
