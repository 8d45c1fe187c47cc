"""Seeded inputs for the benchmark workloads: graph files plus the op list.

Every random choice comes from numpy's SeedSequence((seed, trial)) ->
PCG64 substreams, the same scheme graphqec documents for its own search,
with trial = slot * TRIALS_PER_SLOT + attempt.  Codes are picked by
rejection sampling against the kernel-enumeration oracle, so each slot
gets a code of a fixed kind (passing, or failing with a witness inside a
fixed window of the scan order).  The windows keep the work per op
nearly the same from seed to seed; verdicts and witnesses still vary.

The program only ever sees the graph files written here and CLI flags.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from certify_oracle import first_failing_subset, subset_rank

TRIALS_PER_SLOT = 100_000
MAX_ATTEMPTS = 2_000

WORKLOADS = {
    "certify-prime": (
        "subset extraction plus batched GF(p) elimination do nearly all the work; "
        "channels is idle, so site-local Choi propagation predicts no change here"
    ),
    "certify-ring": (
        "the same subset scan through Smith normal form (composite d) and a large-prime "
        "inverse table; closed-form bounds keep the CSV-byte contract checked"
    ),
    "simulate": (
        "dense error bases, decoder synthesis and Choi propagation dominate, with noise on "
        "<= f and > f sites; certification takes under 1% here"
    ),
}


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))


def sample_gamma(d: int, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Symmetric adjacency over Z_d with i.i.d. uniform lower triangle, zero diagonal."""
    size = m + n
    gamma = np.zeros((size, size), dtype=np.int64)
    idx = np.tril_indices(size, k=-1)
    gamma[idx] = rng.integers(0, d, size=len(idx[0]))
    return gamma + gamma.T


@dataclass
class Code:
    name: str
    d: int
    m: int
    n: int
    gamma: np.ndarray
    # first failing subset of size <= checked_size (None: all such subsets pass)
    first_bad: Optional[tuple[int, ...]] = None
    checked_size: int = -1
    path: str = ""

    def graph_dict(self) -> dict:
        size = self.m + self.n
        edges = [
            [a, b, int(self.gamma[a, b])]
            for a in range(size)
            for b in range(a + 1, size)
            if self.gamma[a, b]
        ]
        return {"d": self.d, "m": self.m, "n": self.n, "edges": edges}


@dataclass
class Op:
    id: int
    command: str
    argv: list[str]
    code: Optional[Code] = None


def _pick(seed: int, slot: int, name: str, d: int, m: int, n: int,
          accept: Callable[[np.ndarray], Optional[tuple]]) -> Code:
    """First candidate of the slot's substreams that the acceptance test takes.

    accept returns None to reject, or (first_bad, checked_size).
    """
    for attempt in range(MAX_ATTEMPTS):
        gamma = sample_gamma(d, m, n, trial_rng(seed, slot * TRIALS_PER_SLOT + attempt))
        verdict = accept(gamma)
        if verdict is not None:
            first_bad, checked = verdict
            return Code(name, d, m, n, gamma, first_bad, checked)
    raise RuntimeError(f"no acceptable {name} code within {MAX_ATTEMPTS} attempts (seed {seed})")


def _passes(d, m, n, max_size):
    """Accept codes with no failing subset up to max_size."""
    def accept(gamma):
        return (None, max_size) if first_failing_subset(gamma, d, m, n, max_size) is None else None
    return accept


def _late_witness(d, m, n, size, lo, hi):
    """Accept codes whose first failing subset has the given size (so every
    smaller subset passes) and a scan position in [lo, hi]."""
    def accept(gamma):
        bad = first_failing_subset(gamma, d, m, n, size)
        if bad is not None and len(bad) == size and lo <= subset_rank(bad, n) <= hi:
            return bad, size
        return None
    return accept


def _any(gamma):
    return None, -1


def build(workload: str, seed: int) -> list[Op]:
    """The op list of one pass; codes are not yet written to disk."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = trial_rng(seed, 0)  # slot 0: sites, flag values and CLI seeds
    cli_seed = int(rng.integers(0, 2**31))
    ops: list[Op] = []

    def op(command, *args, code=None):
        argv = [command] + ([code.name] if code is not None else []) + [str(a) for a in args]
        ops.append(Op(len(ops), command, argv + ["--json", "--no-timing"], code))

    if workload == "certify-prime":
        p30 = _pick(seed, 1, "p30", 2, 3, 30, _passes(2, 3, 30, 4))
        b16 = _pick(seed, 2, "b16", 3, 2, 16, _passes(3, 2, 16, 4))
        b16late = _pick(seed, 3, "b16late", 3, 2, 16, _late_witness(3, 2, 16, 4, 1100, 1400))
        m20 = _pick(seed, 4, "m20", 2, 3, 20, _late_witness(2, 3, 20, 4, 1400, 1700))
        op("verify", "--f", 1, code=p30)
        op("verify", "--f", 2, code=p30)
        op("verify", "--f", 2, code=b16)
        op("verify", "--f", 2, code=b16late)
        op("maxf", code=b16late)
        op("maxf", code=m20)
        op("search", "--d", 2, "--m", 3, "--n", 30, "--f", 1, "--trials", 100, "--seed", cli_seed)
        op("singular-mc", "--d", 2, "--N", 10, "--M", 5, "--trials", 50_000, "--seed", cli_seed + 1)
        op("singular-mc", "--d", 5, "--N", 8, "--M", 6, "--trials", 50_000, "--seed", cli_seed + 2)
    elif workload == "certify-ring":
        c9 = _pick(seed, 1, "c9", 9, 1, 14, _late_witness(9, 1, 14, 5, 1500, 1800))
        c4 = _pick(seed, 2, "c4", 4, 1, 16, _late_witness(4, 1, 16, 4, 1100, 1400))
        c6 = _pick(seed, 3, "c6", 6, 1, 16, _late_witness(6, 1, 16, 4, 950, 1250))
        big = _pick(seed, 4, "p100003", 100003, 2, 10, _any)
        for code in (c9, c4, c6):
            op("verify", "--f", 2, code=code)
            op("maxf", code=code)
        op("verify", "--f", 2, code=big)
        for fig in ("threshold", "region", "exponent"):
            op("bounds", "--fig", fig)
        d = int(rng.choice([2, 3, 5, 7]))
        eps = round(float(rng.uniform(0.005, 0.05)), 6)
        op("capacity", "--d", d, "--eps", eps)
        p, k = int(rng.choice([2, 3, 5])), int(rng.integers(1, 9))
        delta = round(float(10 ** rng.uniform(-4, -2)), 9)
        op("capacity", "--p", p, "--k", k, "--delta", delta)
    else:
        s7 = _pick(seed, 1, "s7", 2, 1, 7, _passes(2, 1, 7, 2))
        s8 = _pick(seed, 2, "s8", 2, 1, 8, _passes(2, 1, 8, 2))
        s9 = _pick(seed, 3, "s9", 2, 1, 9, _passes(2, 1, 9, 2))
        q5 = _pick(seed, 4, "q5", 3, 1, 5, _passes(3, 1, 5, 2))
        for code in (s7, s8, s9):
            op("kl-check", "--f", 1, code=code)

        def sites(code, count):
            return ",".join(str(s) for s in sorted(rng.choice(code.n, size=count, replace=False)))

        op("simulate", "--f", 1, "--noise", "depolarizing:0.3", "--sites", sites(s8, 1), code=s8)
        op("simulate", "--f", 1, "--noise", "depolarizing:0.3", "--sites", sites(s8, 2), code=s8)
        op("simulate", "--f", 1, "--noise", "unitary-rotation:0.3", "--sites", sites(s8, 1), code=s8)
        op("simulate", "--f", 1, "--noise", "depolarizing:0.3", "--sites", sites(s9, 1), code=s9)
        op("simulate", "--f", 1, "--noise", "depolarizing:0.3", "--sites", sites(q5, 1), code=q5)
    return ops


def write_graphs(ops: list[Op], directory: str) -> None:
    """Write each op's code to directory and point the op's argv at the file."""
    for o in ops:
        if o.code is None:
            continue
        if not o.code.path:
            o.code.path = os.path.join(directory, f"{o.code.name}.json")
            with open(o.code.path, "w", encoding="utf-8") as fh:
                json.dump(o.code.graph_dict(), fh)
        o.argv[1] = o.code.path
