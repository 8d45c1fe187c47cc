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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import DeltaTooLarge, ParamOutOfRange, UnsupportedDimension
from .modular import _require_modulus, _require_prime
from .noise import binary_entropy, error_threshold

__all__ = [
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

LOG2_3 = math.log2(3.0)


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


def _random_graph_rate(d: int, eps: float) -> Optional[float]:
    """Random-graph coding rate in units of log2 d: 1 - 4 eps - H2(2 eps) / log2 d;
    None beyond eps > 1/2, where 2 eps is no probability."""
    return None if eps > 0.5 else 1.0 - 4.0 * eps - binary_entropy(2.0 * eps) / math.log2(d)


def _singleton_rate(d: int, eps: float) -> float:
    """Weaker singleton boundary: 1 - d eps."""
    return 1.0 - d * eps


def _hamming_rate(d: int, eps: float) -> float:
    """Quantum Hamming boundary: 1 - (H2(eps) + eps log2(d^2 - 1)) / log2 d."""
    return 1.0 - (binary_entropy(eps) + eps * math.log2(d**2 - 1)) / math.log2(d)


def achievable_pair(d: int, mu: float, eps: float) -> bool:
    """Random-graph coding region: (1 - mu - 4 eps) log2 d > H2(2 eps)."""
    _check_rates(mu, eps, d)
    rate = _random_graph_rate(d, eps)
    return rate is not None and mu < rate


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
    _require_block_code(p, k)
    if not delta > 0.0:
        raise ParamOutOfRange(f"coding error must be positive, got {delta}")
    _require_coding_error(delta)
    points = []
    for eps in eps_grid:
        if not math.e * delta <= eps <= 0.5:
            raise ParamOutOfRange(
                f"grid point eps={eps} outside [e*delta, 1/2] = "
                f"[{math.e * delta}, 0.5]"
            )
        c = (math.log2(p) / k) * _random_graph_rate(p, eps)
        lam = -(eps / k) * (math.log(delta) + math.log(2.0) * binary_entropy(eps) / eps)
        points.append(
            RatePoint(
                eps=eps,
                c=c,
                lambda_nats=lam,
                lambda_bits=lam / math.log(2.0),
                vacuous=lam <= 0.0,
            )
        )
    return points


def region_boundaries(
    d: int, eps: float
) -> tuple[Optional[float], Optional[float], Optional[float]]:
    """Boundary coding rates (mu_singleton, mu_hamming, mu_random_graph)
    at a given error rate; None where the boundary leaves [0, 1]."""
    _require_modulus(d)
    if not 0.0 <= eps <= 1.0:
        raise ParamOutOfRange(f"need eps in [0, 1], got {eps}")
    rates = (_singleton_rate(d, eps), _hamming_rate(d, eps), _random_graph_rate(d, eps))
    return tuple(x if x is not None and 0.0 <= x <= 1.0 else None for x in rates)


# ---------------------------------------------------------------------------
# CSV emission (12 significant digits, '.' decimal separator, '\n' endings)


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.12g}"


def _default_threshold_grid() -> list[float]:
    return [k / 1000.0 for k in range(1, 501)]


def _default_region_grid() -> list[float]:
    return [k * 0.005 for k in range(0, 101)]


def _default_exponent_grid(delta: float) -> list[float]:
    lo = math.e * delta
    step = (0.5 - lo) / 199
    return [lo + j * step for j in range(200)]


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
    """
    _require_modulus(d)
    _require_block_code(p, k)
    out = io.StringIO()
    if kind == "threshold-fig":
        out.write("eps,strict_threshold,simple_bound\n")
        for eps in _default_threshold_grid():
            strict, simple = error_threshold(eps)
            out.write(f"{_fmt(eps)},{_fmt(strict)},{_fmt(simple)}\n")
    elif kind == "rate-region-fig":
        out.write("eps,mu_singleton,mu_hamming,mu_random_graph\n")
        for eps in _default_region_grid():
            s, h, r = region_boundaries(d, eps)
            out.write(f"{_fmt(eps)},{_fmt(s)},{_fmt(h)},{_fmt(r)}\n")
    elif kind == "exponent-fig":
        out.write("c,lambda_nats,lambda_bits,delta\n")
        for delta in deltas:
            for point in error_exponent_curve(p, k, delta, _default_exponent_grid(delta)):
                out.write(
                    f"{_fmt(point.c)},{_fmt(point.lambda_nats)},"
                    f"{_fmt(point.lambda_bits)},{_fmt(delta)}\n"
                )
    else:
        raise ParamOutOfRange(f"unknown figure kind {kind!r}")
    return out.getvalue()
