"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they check:
kernel triviality by exhaustive enumeration or by sympy's integer Smith
normal form, the largest correctable f by a minimum symplectic weight over
vectors, binomial tails by exact integer sums, roots by scipy's brentq, error
words by a loop over supports and letters, their images of an encoder by a
row gather per word, the scan's projected table by one elimination per code,
the narrow accumulators' eliminations in Python integers, a seeded search by
one scan per trial, the bound figures by their formulas on one float at a
time with math and one formatted cell at a time.
"""

from __future__ import annotations

import itertools
import math
from math import comb, gcd, log2

import numpy as np
import pytest

from graphqec.channels import weyl_operator
from graphqec.graphs import GraphCode, find_uncorrectable_subset, first_failing_subset, prism_code, wheel_code
from graphqec.modular import ModMatrix
from graphqec.search import SearchReport, failure_bound_log2, sample_graph, trial_rng


def brute_force_kernel_trivial(entries, d: int) -> bool:
    """Check M h = 0 => h = 0 by enumerating all d**cols vectors."""
    arr = np.asarray(entries, dtype=np.int64)
    cols = arr.shape[1]
    assert d**cols <= 10_000, "oracle is gated to small search spaces"
    for h in itertools.product(range(d), repeat=cols):
        if all(v == 0 for v in h):
            continue
        if not np.any((arr @ np.array(h, dtype=np.int64)) % d):
            return False
    return True


def smith_kernel_trivial(block, d: int) -> bool:
    """Trivial kernel mod d from sympy's Smith form of the integer lift:
    every invariant factor, zero included, must be a unit mod d."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import smith_normal_form

    rows, cols = np.shape(block)
    if rows < cols:
        return False
    snf = smith_normal_form(DomainMatrix.from_list(np.asarray(block).tolist(), ZZ)).to_Matrix()
    return all(gcd(int(snf[i, i]), d) == 1 for i in range(cols))


def smith_first_failing(code, max_size: int):
    """First subset in (size, lex) order whose block fails smith_kernel_trivial."""
    gamma = code.gamma.entries
    for size in range(max_size + 1):
        for subset in itertools.combinations(range(code.n), size):
            rows = [code.m + j for j in range(code.n) if j not in subset]
            cols = list(range(code.m)) + [code.m + z for z in subset]
            if not smith_kernel_trivial(gamma[rows][:, cols], code.d):
                return subset
    return None


def site_table(gamma, m: int, p: int):
    """The projected rows of [gamma[Y, X u Y] | 1] mod the prime p in Python integers, or
    None when A = gamma[Y, X] lacks rank m: each column of A pivots on its first nonzero
    free row, and the n - m rows left without a pivot are kept, without A's columns."""
    n = len(gamma) - m
    table = np.hstack([np.asarray(gamma[m:]).astype(object) % p, np.eye(n, dtype=int).astype(object)])
    free = np.ones(n, dtype=bool)
    for col in range(m):
        candidates = np.flatnonzero(free & (table[:, col] != 0))
        if not candidates.size:
            return None
        free[candidates[0]] = False
        pivot = table[candidates[0]] * pow(int(table[candidates[0], col]), -1, p) % p
        table[free] = (table[free] - table[free, col][:, None] * pivot) % p
    return table[free, m:]


def exact_reduce_against(field, basis, *vectors):
    """modular._reduce_against over the residue field `field` in Python integers, reduced
    after every elimination: the oracle of the narrow accumulators."""
    reduced = []
    for x in vectors:
        x = x.astype(object) % field.p
        for b, (row, negated_inverse) in basis:
            c = x[row.astype(np.intp), np.arange(x.shape[-1])] * negated_inverse.astype(object)
            x = (x + b.astype(object) * (c % field.p)) % field.p
        reduced.append(x)
    return reduced


def symplectic_max_f(code) -> int:
    """max_f = (w_min - 1) // 2 from the least symplectic weight of the code.

    w_min is the minimum of |supp h_Y u supp (gamma h)_Y| over nonzero
    h in Z_d^(m+n).  Such an h with weight w is a kernel vector of the block
    of the w sites it touches, and a kernel vector of a failing block of Z
    has weight at most |Z|, so w_min is the smallest failing subset size.
    Enumerates vectors, not subsets, in chunks of one leading digit.
    """
    d, m, n = code.d, code.m, code.n
    gamma = np.asarray(code.gamma.entries, dtype=np.int64)
    size = m + n
    tail = np.indices((d,) * (size - 1)).reshape(size - 1, -1).T
    w_min = n
    for lead in range(d):
        h = np.hstack([np.full((len(tail), 1), lead), tail])[1 if lead == 0 else 0:]
        image = h @ gamma % d  # gamma is symmetric
        weight = ((h[:, m:] != 0) | (image[:, m:] != 0)).sum(axis=1)
        w_min = min(w_min, int(weight.min()))
    return (w_min - 1) // 2


def subset_words(n: int, d: int, subsets, letters):
    """(shift, clock), each (K, n) of Python integers, of every Weyl word with a letter from
    letters on each site of each subset, identity elsewhere, in the order of
    channels._error_basis: subset by subset, then the letters q = a + d*b of X^a Z^b on the
    subset, its first site slowest."""
    rows = []
    for support in subsets:
        for word_letters in itertools.product(letters, repeat=len(support)):
            word = [0] * n
            for site, q in zip(support, word_letters):
                word[site] = q
            rows.append(word)
    words = np.array(rows, dtype=object).reshape(len(rows), n)
    return words % d, words // d


def error_words(n: int, d: int, f: int):
    """(shift, clock), each (K, n) int64, of every Weyl word on at most f of n sites in the
    order of channels.error_space_basis: by support size, supports lexicographically, then
    the letters q = a + d*b of X^a Z^b on the support, its first site slowest, q >= 1."""
    supports = [z for size in range(f + 1) for z in itertools.combinations(range(n), size)]
    return tuple(part.astype(np.int64) for part in subset_words(n, d, supports, range(1, d * d)))


def word_images(v, d, shift, clock):
    """[F_1 V | ... | F_K V] of the words F_k = X^shift[k] Z^clock[k], a (dim_out, K, dim_in)
    array, one word at a time: X^a Z^b maps |j> to w^(b.j) |j + a>, so each image is the
    row gather (F V)[i] = w^(b.(i-a)) V[i-a], with i - a digit by digit mod d, times
    phases read off the diagonal of weyl_operator's Z."""
    dim_out, dim_in = v.shape
    count, n = shift.shape
    rows = np.arange(dim_out)
    place = d ** np.arange(n - 1, -1, -1)
    phases = np.diag(weyl_operator(d, 0, 1))
    out = np.empty((dim_out, count, dim_in), dtype=np.complex128)
    for k in range(count):
        source, power = rows, 0
        for s in np.flatnonzero(shift[k] | clock[k]):
            digit = rows // place[s] % d
            moved = (digit - shift[k, s]) % d
            source = source + (moved - digit) * place[s]
            power = power + clock[k, s] * moved
        np.multiply(phases[power % d, None], v[source], out=out[:, k])
    return out


def loop_search(cfg) -> dict:
    """run_search(cfg).to_dict() one trial at a time: sample_graph on the trial's own
    substream, then find_uncorrectable_subset on that code."""
    from scipy.stats import beta

    best, first_trial, first_witness = None, None, None
    successes = 0
    for trial in range(cfg.trials):
        code = sample_graph(cfg.d, cfg.m, cfg.n, trial_rng(cfg.seed, trial))
        witness = find_uncorrectable_subset(code, cfg.f)
        if witness is None:
            successes += 1
            if best is None:
                best = code
        elif first_trial is None:
            first_trial, first_witness = trial, witness
    failures = cfg.trials - successes
    upper = 1.0 if successes == 0 else float(beta.ppf(0.99, failures + 1, successes))
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
        first_failure_trial=first_trial,
        first_failure_witness=first_witness,
        failure_fraction_upper99=upper,
    ).to_dict()


def exact_binomial_tail(n: int, start: int, x: float) -> float:
    """Sum_{k=start}^{n} C(n,k) x^k with exact binomial coefficients."""
    return float(sum(comb(n, k) * x**k for k in range(start, n + 1)))


def exact_log2_binomial_tail(n: int, start: int, x: float) -> float:
    return log2(exact_binomial_tail(n, start, x))


def entropy_oracle(r: float) -> float:
    """Binary Shannon entropy, written independently of the library."""
    if r in (0.0, 1.0):
        return 0.0
    return -r * log2(r) - (1.0 - r) * log2(1.0 - r)


def threshold_oracle(eps: float) -> tuple[float, float]:
    """(2^(-H2(eps)/eps), eps/e) on one float."""
    return 2.0 ** (-entropy_oracle(eps) / eps), eps / math.e


def region_oracle(d: int, eps: float) -> tuple:
    """The region boundaries (singleton, Hamming, random graph) in units of log2 d on
    one float; the random-graph rate is None beyond eps = 1/2."""
    singleton = 1.0 - d * eps
    hamming = 1.0 - (entropy_oracle(eps) + eps * log2(d**2 - 1)) / log2(d)
    random_graph = None if eps > 0.5 else 1.0 - 4.0 * eps - entropy_oracle(2.0 * eps) / log2(d)
    return singleton, hamming, random_graph


def exponent_oracle(p: int, k: int, delta: float, eps: float) -> tuple[float, float]:
    """(c, lambda in nats) of the error-exponent curve on one float."""
    c = (log2(p) / k) * (1.0 - 4.0 * eps - entropy_oracle(2.0 * eps) / log2(p))
    lam = -(eps / k) * (math.log(delta) + math.log(2.0) * entropy_oracle(eps) / eps)
    return c, lam


def reference_curves(kind: str, *, d: int = 2, p: int = 2, k: int = 1, deltas=(1e-3, 1e-4, 1e-5, 1e-6)) -> str:
    """rates.emit_curves on valid input, row by row: the oracle formulas on one float
    at a time over the same grids, each cell formatted on its own."""

    def cell(x):
        return "" if x is None else f"{x:.12g}"

    lines = []
    if kind == "threshold-fig":
        lines.append("eps,strict_threshold,simple_bound")
        for j in range(1, 501):
            eps = j / 1000.0
            lines.append(",".join(map(cell, (eps, *threshold_oracle(eps)))))
    elif kind == "rate-region-fig":
        lines.append("eps,mu_singleton,mu_hamming,mu_random_graph")
        for j in range(101):
            eps = j * 0.005
            bounds = [x if x is not None and 0.0 <= x <= 1.0 else None for x in region_oracle(d, eps)]
            lines.append(",".join(map(cell, (eps, *bounds))))
    else:
        lines.append("c,lambda_nats,lambda_bits,delta")
        for delta in deltas:
            lo = math.e * delta
            step = (0.5 - lo) / 199
            for j in range(200):
                c, lam = exponent_oracle(p, k, delta, min(lo + j * step, 0.5))
                lines.append(",".join(map(cell, (c, lam, lam / math.log(2.0), delta))))
    return "\n".join(lines) + "\n"


def seeded_code(d, m, n, seed, f):
    """First code of a seeded stream that corrects f errors (f = 0: whose V is an isometry)."""
    rng = np.random.default_rng(seed)
    while True:
        g = np.triu(rng.integers(0, d, size=(m + n, m + n)), 1)
        code = GraphCode(d, m, n, ModMatrix(d, g + g.T))
        if first_failing_subset(code, 2 * f) is None:
            return code


def degenerate_wheel():
    """The wheel with a sixth, isolated output: X on it acts trivially on the code, so
    19 words on at most one site fall into 17 syndrome classes, and the block of the
    isolated site alone has a kernel vector."""
    edges = [[0, k, 1] for k in range(1, 6)] + [[1, 2, 1], [2, 3, 1], [3, 5, 1], [5, 4, 1], [4, 1, 1]]
    return GraphCode.from_edges(2, 1, 6, edges)


@pytest.fixture(scope="session")
def wheel():
    return wheel_code()


@pytest.fixture(scope="session")
def prism():
    return prism_code()
