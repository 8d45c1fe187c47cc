"""Rate regions, capacity lower bounds, error exponents, and figure data.

All rates are in bits (base-2 logarithms).  The error exponent is the
one place natural logs appear; curve samples therefore carry the value
in nats per channel use alongside the bits-per-use conversion.

Each boundary of the rate region is one private function of (d, eps)
giving mu in units of log2 d (random graph, Hamming, weaker singleton
1 - d eps).  The predicates compare mu with it, the region figure prints
it, and the capacity bounds, the exponent curve's c and
search.failure_bound_log2 (the existence bound, its "log" read as log2)
scale the random-graph rate.  The textbook singleton 1 - mu >= 4 eps and
the qubit GV region are kept for comparison.

The module also holds the scalar formulas the bounds are built from:
binary_entropy, error_threshold (the strict correctability threshold),
the binomial tail bounds that turn "corrects f errors" into a cb-norm
error bound, and delta_exponent.  It imports no channel code, so a
command that only evaluates formulas never loads any.

binary_entropy and error_threshold take a float, and return floats, or an
array, and return arrays of its shape, and so do the boundaries and the
exponent curve's c and lambda: a figure computes each CSV column in one
call and a scalar caller gets a float.  On an array the arithmetic runs as
numpy float64 ufuncs, which round exactly as Python floats do, but every
log2 and power of two is still math's (libm's), one entry at a time
(_libm): numpy's SIMD log and power loops can differ from libm in the
last bit, and the CSV bytes are a contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DeltaTooLarge, ParamOutOfRange, PreconditionViolated, UnsupportedDimension
from .modular import _require_modulus, _require_prime

__all__ = [
    "binary_entropy",
    "error_threshold",
    "binomial_error_bound",
    "truncated_binomial_bound",
    "delta_exponent",
    "RatePoint",
    "ideal_capacity",
    "achievable_pair",
    "hamming_allows",
    "singleton_allows",
    "singleton_standard_allows",
    "gv_allows",
    "capacity_lower_bound_small_noise",
    "capacity_from_finite_coding",
    "error_exponent_curve",
    "region_boundaries",
    "emit_curves",
]

FloatOrArray = Union[float, np.ndarray]

LOG2_3 = math.log2(3.0)


def _libm(fn, x: FloatOrArray) -> FloatOrArray:
    """fn, a function of one Python float, of x or of each entry of the array
    x: how math.log2 and powers of two meet an array (module docstring)."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def _where(cond, a, b):
    """a where cond holds, else b: np.where on arrays, a conditional on a number."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _require_each(ok, x, message: str) -> None:
    """ParamOutOfRange(message.format(entry)) for the first entry of x where
    ok is False; a number x is named as given, and NaN fails every test."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        bad = x if np.ndim(x) == 0 else np.asarray(x, dtype=object).flat[int(np.argmin(ok))]
        raise ParamOutOfRange(message.format(bad))


def binary_entropy(r: FloatOrArray) -> FloatOrArray:
    """H2(r) = -r log2 r - (1-r) log2 (1-r), with H2(0) = H2(1) = 0.

    r is a float, or an array whose every entry is taken, each logarithm by
    math.log2 (see the module docstring).
    """
    _require_each((0.0 <= r) & (r <= 1.0), r, "binary entropy needs r in [0, 1], got {}")
    end = (r == 0.0) | (r == 1.0)
    x = _where(end, 0.5, r)  # no logarithm of 0 is taken
    y = 1.0 - x
    return _where(end, 0.0, -x * _libm(math.log2, x) - y * _libm(math.log2, y))


def binomial_error_bound(n: int, f: int, eps: float) -> float:
    """eps^{f+1} 2^{n H2((f+1)/n)}, dominating the exact binomial tail.

    Valid when eps <= (f+1)/(n-f-1); the threshold travels with the
    exception when the precondition fails.
    """
    if not f + 1 <= n:
        raise ParamOutOfRange(f"need f + 1 <= n, got f={f}, n={n}")
    if not eps >= 0.0:
        raise ParamOutOfRange(f"eps must be non-negative, got {eps}")
    threshold = math.inf if n == f + 1 else (f + 1) / (n - f - 1)
    if eps > threshold:
        raise PreconditionViolated(
            f"eps={eps} exceeds (f+1)/(n-f-1)={threshold}", threshold
        )
    return eps ** (f + 1) * 2.0 ** (n * binary_entropy((f + 1) / n))


def truncated_binomial_bound(n: int, r: float, a: float) -> float:
    """n (r log2 a + H2(r)) in bits, bounding log2 of sum_{k>=rn} C(n,k) a^k."""
    if not 0.0 <= r <= 1.0:
        raise ParamOutOfRange(f"need r in [0, 1], got {r}")
    if not a > 0.0:
        raise ParamOutOfRange(f"need a > 0, got {a}")
    threshold = math.inf if r == 1.0 else r / (1.0 - r)
    if a > threshold:
        raise PreconditionViolated(f"a={a} exceeds r/(1-r)={threshold}", threshold)
    return n * (r * math.log2(a) + binary_entropy(r))


def error_threshold(eps: FloatOrArray) -> tuple[FloatOrArray, FloatOrArray]:
    """(2^{-H2(eps)/eps}, eps/e): the strict correctability threshold and
    its first-order-exact simplification.

    eps is a float, or an array whose every entry is taken; each power of
    two is Python's 2.0 ** x (see the module docstring).
    """
    _require_each((0.0 < eps) & (eps <= 0.5), eps, "need 0 < eps <= 1/2, got {}")
    return _libm(partial(pow, 2.0), -binary_entropy(eps) / eps), eps / math.e


def delta_exponent(eps: float, cb_dist: float) -> float:
    """Per-use factor 2^{H2(eps)} cb_dist^{eps}; the n-use error bound is
    this value to the n-th power."""
    if not 0.0 < eps <= 0.5:
        raise ParamOutOfRange(f"need 0 < eps <= 1/2, got {eps}")
    if not cb_dist > 0.0:
        raise ParamOutOfRange(f"need cb_dist > 0, got {cb_dist}")
    return 2.0 ** binary_entropy(eps) * cb_dist**eps


@dataclass(frozen=True)
class RatePoint:
    """One sample of an error-exponent curve."""

    eps: float
    c: float
    lambda_nats: float
    lambda_bits: float
    vacuous: bool


def _check_rates(mu: float, eps: float, d: Optional[int] = None) -> None:
    if d is not None:
        _require_modulus(d)
    if not (0.0 <= mu <= 1.0 and 0.0 <= eps <= 1.0):
        raise ParamOutOfRange(f"rates must lie in [0, 1], got mu={mu}, eps={eps}")


def ideal_capacity(d: int) -> float:
    """Quantum capacity of the noiseless channel on a d-level system."""
    _require_modulus(d)
    return math.log2(d)


def _random_graph_rate(d: int, eps: FloatOrArray) -> FloatOrArray:
    """Random-graph coding rate in units of log2 d: 1 - 4 eps - H2(2 eps) / log2 d,
    for eps <= 1/2; beyond, 2 eps is no probability and binary_entropy refuses it."""
    return 1.0 - 4.0 * eps - binary_entropy(2.0 * eps) / math.log2(d)


def _singleton_rate(d: int, eps: FloatOrArray) -> FloatOrArray:
    """Weaker singleton boundary: 1 - d eps."""
    return 1.0 - d * eps


def _hamming_rate(d: int, eps: FloatOrArray) -> FloatOrArray:
    """Quantum Hamming boundary: 1 - (H2(eps) + eps log2(d^2 - 1)) / log2 d."""
    return 1.0 - (binary_entropy(eps) + eps * math.log2(d**2 - 1)) / math.log2(d)


def achievable_pair(d: int, mu: float, eps: float) -> bool:
    """Random-graph coding region: (1 - mu - 4 eps) log2 d > H2(2 eps)."""
    _check_rates(mu, eps, d)
    return eps <= 0.5 and mu < _random_graph_rate(d, eps)


def hamming_allows(d: int, mu: float, eps: float) -> bool:
    """mu log2 d + H2(eps) + eps log2(d^2 - 1) <= log2 d."""
    _check_rates(mu, eps, d)
    return mu <= _hamming_rate(d, eps)


def singleton_allows(d: int, mu: float, eps: float) -> bool:
    """Weaker singleton form with a dimension-weighted error term: 1 - mu >= d eps."""
    _check_rates(mu, eps, d)
    return mu <= _singleton_rate(d, eps)


def singleton_standard_allows(mu: float, eps: float) -> bool:
    """Textbook quantum singleton bound n - m >= 4f, i.e. 1 - mu >= 4 eps."""
    _check_rates(mu, eps)
    return 1.0 - mu >= 4.0 * eps


def gv_allows(mu: float, eps: float, d: int = 2) -> bool:
    """Qubit Gilbert-Varshamov region: 1 - mu - 2 eps log2 3 > H2(2 eps)."""
    if d != 2:
        raise UnsupportedDimension("the GV bound is stated for qubits only")
    _check_rates(mu, eps)
    if eps > 0.5:
        return False
    return 1.0 - mu - 2.0 * eps * LOG2_3 > binary_entropy(2.0 * eps)


def _require_coding_error(delta: float) -> None:
    """The finite-coding rule on a scheme's residual error: 0 <= delta < 1/(2e)."""
    if not 0.0 <= delta < 1.0 / (2.0 * math.e):
        raise DeltaTooLarge(f"need 0 <= delta < 1/(2e) ~ {1/(2*math.e):.6f}, got {delta}")


def _require_block_code(p: int, k: int) -> None:
    """A prime p-level system coded through k >= 1 channel uses."""
    _require_prime(p, "code dimension p")
    if not k >= 1:
        raise ParamOutOfRange(f"block length must be >= 1, got {k}")


def capacity_lower_bound_small_noise(d: int, eps: float) -> tuple[float, float]:
    """(threshold, q_lower): channels with cb-distance from the identity
    below the threshold have capacity at least q_lower.

    threshold = 2^{-H2(eps)/eps}; q_lower = (1 - 4 eps) log2 d - H2(2 eps), the
    random-graph rate times log2 d, returned as-is even when non-positive.
    """
    _require_prime(d)
    if not 0.0 < eps < 0.5:
        raise ParamOutOfRange(f"need 0 < eps < 1/2, got {eps}")
    return error_threshold(eps)[0], math.log2(d) * _random_graph_rate(d, eps)


def capacity_from_finite_coding(p: int, k: int, delta: float) -> float:
    """Certified capacity lower bound from one concrete coding scheme.

    Given channels E, D coding a p-level system through k parallel uses
    with residual error delta < 1/(2e), the capacity is at least
    (log2 p / k)(1 - 4 e delta) - H2(2 e delta) / k.
    """
    _require_block_code(p, k)
    _require_coding_error(delta)
    return (math.log2(p) / k) * _random_graph_rate(p, math.e * delta)


def _exponent_columns(p: int, k: int, delta: float, eps_grid) -> tuple[np.ndarray, ...]:
    """(c, lambda in nats, lambda in bits), each an array over eps_grid, of the
    exponent curve, after its checks on p, k, delta and every grid point."""
    _require_block_code(p, k)
    if not delta > 0.0:
        raise ParamOutOfRange(f"coding error must be positive, got {delta}")
    _require_coding_error(delta)
    eps = np.asarray(eps_grid, dtype=float)
    lo = math.e * delta
    outside = f"grid point eps={{}} outside [e*delta, 1/2] = [{lo}, 0.5]"
    _require_each((lo <= eps) & (eps <= 0.5), eps_grid, outside)
    c = (math.log2(p) / k) * _random_graph_rate(p, eps)
    lam = -(eps / k) * (math.log(delta) + math.log(2.0) * binary_entropy(eps) / eps)
    return c, lam, lam / math.log(2.0)


def error_exponent_curve(
    p: int, k: int, delta: float, eps_grid: Sequence[float]
) -> list[RatePoint]:
    """Parametric lower-bound curve (c, lambda) of the error exponent, 0 < delta < 1/(2e).

    For each error rate eps in [e delta, 1/2]:
        c      = (log2 p / k) (1 - 4 eps - H2(2 eps) / log2 p)
        lambda = -(eps / k) (ln delta + ln 2 * H2(eps) / eps)   [nats]
    Samples with non-positive lambda are kept, with RatePoint.vacuous set;
    the exponent CSV has no column for that flag.
    """
    eps_grid = list(eps_grid)  # read twice: for the columns, and as each point's eps
    c, lam, bits = _exponent_columns(p, k, delta, eps_grid)
    return [
        RatePoint(eps=e, c=ci, lambda_nats=li, lambda_bits=bi, vacuous=li <= 0.0)
        for e, ci, li, bi in zip(eps_grid, c.tolist(), lam.tolist(), bits.tolist())
    ]


def region_boundaries(
    d: int, eps: float
) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """Boundary coding rates (mu_singleton, mu_hamming, mu_random_graph)
    at a given error rate; None where the boundary leaves [0, 1]."""
    _require_modulus(d)
    if not 0.0 <= eps <= 1.0:
        raise ParamOutOfRange(f"need eps in [0, 1], got {eps}")
    rates = (
        _singleton_rate(d, eps),
        _hamming_rate(d, eps),
        _random_graph_rate(d, eps) if eps <= 0.5 else None,
    )
    return tuple(x if x is not None and 0.0 <= x <= 1.0 else None for x in rates)


# ---------------------------------------------------------------------------
# CSV emission (12 significant digits, '.' decimal separator, '\n' endings)


def _default_threshold_grid() -> np.ndarray:
    return np.arange(1, 501) / 1000.0


def _default_region_grid() -> np.ndarray:
    return np.arange(101) * 0.005


def _default_exponent_grid(delta: float) -> np.ndarray:
    """200 points from e*delta to 1/2; lo + 199 step may round above 1/2, so it is clamped."""
    lo = math.e * delta
    step = (0.5 - lo) / 199
    return np.minimum(lo + np.arange(200) * step, 0.5)


def _region_cells(column: np.ndarray) -> list[str]:
    """A region boundary's cells: empty where it leaves [0, 1]."""
    return ["%.12g" % x if 0.0 <= x <= 1.0 else "" for x in column.tolist()]


def emit_curves(
    kind: str,
    *,
    d: int = 2,
    p: int = 2,
    k: int = 1,
    deltas: Sequence[float] = (1e-3, 1e-4, 1e-5, 1e-6),
) -> str:
    """Deterministic CSV data for the three bound figures.

    kind is one of "threshold-fig" (columns eps,strict_threshold,
    simple_bound), "rate-region-fig" (eps,mu_singleton,mu_hamming,
    mu_random_graph with empty cells where undefined) or "exponent-fig"
    (long format c,lambda_nats,lambda_bits,delta, one block per delta).
    d, p and k are checked whatever the figure, so a flag the figure does
    not read is still refused when it is out of range.

    Each column comes from one call of its formula on the figure's whole
    eps grid (one exponent block at a time), and the rows from one format
    string; the formulas take every logarithm with math, so the bytes are
    those of the same formulas on one float at a time.
    """
    _require_modulus(d)
    _require_block_code(p, k)
    if kind == "threshold-fig":
        eps = _default_threshold_grid()
        strict, simple = error_threshold(eps)
        rows = map("%.12g,%.12g,%.12g\n".__mod__, zip(eps.tolist(), strict.tolist(), simple.tolist()))
        return "eps,strict_threshold,simple_bound\n" + "".join(rows)
    if kind == "rate-region-fig":
        eps = _default_region_grid()
        columns = (_singleton_rate(d, eps), _hamming_rate(d, eps), _random_graph_rate(d, eps))
        rows = map("%.12g,%s,%s,%s\n".__mod__, zip(eps.tolist(), *map(_region_cells, columns)))
        return "eps,mu_singleton,mu_hamming,mu_random_graph\n" + "".join(rows)
    if kind == "exponent-fig":
        blocks = ["c,lambda_nats,lambda_bits,delta\n"]
        for delta in deltas:
            columns = _exponent_columns(p, k, delta, _default_exponent_grid(delta))
            cells = zip(*(x.tolist() for x in columns), [f"{delta:.12g}"] * len(columns[0]))
            blocks.extend(map("%.12g,%.12g,%.12g,%s\n".__mod__, cells))
        return "".join(blocks)
    raise ParamOutOfRange(f"unknown figure kind {kind!r}")
