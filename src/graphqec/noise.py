"""Noise families, cb-norm witnesses, and binomial error bounds.

The completely bounded norm of a channel difference is never computed
exactly here.  Instead the module offers certified lower bounds (one
member of the defining supremum family, evaluated on a concrete witness
operator) and analytic upper bounds (2 ||U - 1|| for unitary noise),
plus the discrete-to-continuous tail estimates that convert "corrects f
errors" into cb-norm error bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .channels import Channel, weyl_operator
from .errors import (
    DimensionMismatch,
    NotUnitary,
    ParamOutOfRange,
    PreconditionViolated,
)

__all__ = [
    "binary_entropy",
    "NoiseDescriptor",
    "phase_rotation",
    "make_unitary_channel",
    "make_depolarizing",
    "cb_lower_witness",
    "transposition_map",
    "zero_map",
    "binomial_error_bound",
    "truncated_binomial_bound",
    "error_threshold",
    "delta_exponent",
]


def binary_entropy(r: float) -> float:
    """H2(r) = -r log2 r - (1-r) log2 (1-r), with H2(0) = H2(1) = 0."""
    if not 0.0 <= r <= 1.0:
        raise ParamOutOfRange(f"binary entropy needs r in [0, 1], got {r}")
    if r in (0.0, 1.0):
        return 0.0
    return -r * math.log2(r) - (1.0 - r) * math.log2(1.0 - r)


def phase_rotation(d: int, theta: float) -> np.ndarray:
    """diag(1, e^{i theta}, ..., e^{i (d-1) theta}), a small rotation for small theta."""
    return np.diag(np.exp(1j * theta * np.arange(d)))


def make_unitary_channel(u) -> tuple[Channel, float]:
    """Single-Kraus channel rho -> U rho U* plus the bound 2 ||U - 1|| on
    its cb-distance from the identity."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitary(f"expected a square matrix, got shape {u.shape}")
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > 1e-9:
        raise NotUnitary("U*U deviates from identity beyond 1e-9")
    bound = 2.0 * float(np.linalg.norm(u - np.eye(u.shape[0]), 2))
    return Channel((u,)), bound


def make_depolarizing(d: int, q: float) -> Channel:
    """rho -> (1-q) rho + q 1/d via uniformly weighted Weyl words.

    The identity word absorbs the (1-q) part, so the Kraus set is
    sqrt(1 - q + q/d^2) 1 together with sqrt(q)/d W for the d^2 - 1
    nontrivial words.
    """
    if not 0.0 <= q <= 1.0:
        raise ParamOutOfRange(f"depolarizing weight must be in [0, 1], got {q}")
    kraus = [np.sqrt(1.0 - q + q / d**2) * np.eye(d, dtype=np.complex128)]
    for a in range(d):
        for b in range(d):
            if a == b == 0:
                continue
            kraus.append(np.sqrt(q) / d * weyl_operator(d, a, b))
    return Channel(tuple(kraus))


@dataclass(frozen=True)
class NoiseDescriptor:
    """Declarative description of a single-site noise channel.

    family is one of "unitary-rotation" (params: theta), "depolarizing"
    (params: q) or "custom-kraus" (params: kraus, a list of site_dim x site_dim
    matrices; any other shape raises DimensionMismatch).
    """

    family: str
    site_dim: int
    params: dict = field(default_factory=dict)

    def make_channel(self) -> Channel:
        if self.family == "unitary-rotation":
            channel, _ = make_unitary_channel(
                phase_rotation(self.site_dim, float(self.params["theta"]))
            )
            return channel
        if self.family == "depolarizing":
            return make_depolarizing(self.site_dim, float(self.params["q"]))
        if self.family == "custom-kraus":
            kraus = tuple(np.asarray(k) for k in self.params["kraus"])
            expected = (self.site_dim, self.site_dim)
            for index, op in enumerate(kraus):
                if op.shape != expected:
                    raise DimensionMismatch(
                        f"custom-kraus operator {index} has shape {op.shape}; "
                        f"expected {expected} for site dimension {self.site_dim}"
                    )
            return Channel(kraus)
        raise ParamOutOfRange(f"unknown noise family {self.family!r}")


LinearMap = Union[Channel, Callable[[np.ndarray], np.ndarray]]


def _heisenberg_apply(op_map: LinearMap, a: np.ndarray) -> np.ndarray:
    """Apply a map to an observable: sum F* A F for channels, or call through."""
    if isinstance(op_map, Channel):
        return sum(f.conj().T @ a @ f for f in op_map.kraus)
    return op_map(a)


def transposition_map(a: np.ndarray) -> np.ndarray:
    """Matrix transposition, the standard example of a non-CP positive map."""
    return a.T


def zero_map(a: np.ndarray) -> np.ndarray:
    return np.zeros_like(a)


def cb_lower_witness(
    l1: LinearMap, l2: LinearMap, witness, dim: Optional[int] = None
) -> float:
    """|| ((L1 - L2) (x) Id)(A) || / ||A||, a certified cb-norm lower bound.

    The maps act in the Heisenberg picture on the first tensor factor
    of A; channels and plain callables are both accepted (the
    transposition witness needs the latter, since it is not completely
    positive).  dim fixes the first-factor dimension when neither
    argument is a Channel.
    """
    a = np.asarray(witness, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"witness must be square, got shape {a.shape}")
    for op_map in (l1, l2):
        if isinstance(op_map, Channel):
            if op_map.dim_in != op_map.dim_out:
                raise DimensionMismatch("witness maps must preserve the space")
            if dim is None:
                dim = op_map.dim_out
            elif dim != op_map.dim_out:
                raise DimensionMismatch("the two maps act on different spaces")
    if dim is None:
        raise DimensionMismatch("pass dim= when neither map is a Channel")
    if a.shape[0] % dim:
        raise DimensionMismatch(
            f"witness dimension {a.shape[0]} is not a multiple of {dim}"
        )
    anc = a.shape[0] // dim
    blocks = a.reshape(dim, anc, dim, anc)
    out = np.zeros_like(blocks)
    for k in range(anc):
        for l in range(anc):
            block = blocks[:, k, :, l]
            out[:, k, :, l] = _heisenberg_apply(l1, block) - _heisenberg_apply(l2, block)
    norm_a = np.linalg.norm(a, 2)
    return float(np.linalg.norm(out.reshape(a.shape), 2) / norm_a)


def binomial_error_bound(n: int, f: int, eps: float) -> float:
    """eps^{f+1} 2^{n H2((f+1)/n)}, dominating the exact binomial tail.

    Valid when eps <= (f+1)/(n-f-1); the threshold travels with the
    exception when the precondition fails.
    """
    if f + 1 > n:
        raise ParamOutOfRange(f"need f + 1 <= n, got f={f}, n={n}")
    if eps < 0:
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
    if a <= 0.0:
        raise ParamOutOfRange(f"need a > 0, got {a}")
    threshold = math.inf if r == 1.0 else r / (1.0 - r)
    if a > threshold:
        raise PreconditionViolated(f"a={a} exceeds r/(1-r)={threshold}", threshold)
    return n * (r * math.log2(a) + binary_entropy(r))


def error_threshold(eps: float) -> tuple[float, float]:
    """(2^{-H2(eps)/eps}, eps/e): the strict correctability threshold and
    its first-order-exact simplification."""
    if not 0.0 < eps <= 0.5:
        raise ParamOutOfRange(f"need 0 < eps <= 1/2, got {eps}")
    strict = 2.0 ** (-binary_entropy(eps) / eps)
    return strict, eps / math.e


def delta_exponent(eps: float, cb_dist: float) -> float:
    """Per-use factor 2^{H2(eps)} cb_dist^{eps}; the n-use error bound is
    this value to the n-th power."""
    if not 0.0 < eps <= 0.5:
        raise ParamOutOfRange(f"need 0 < eps <= 1/2, got {eps}")
    if cb_dist <= 0.0:
        raise ParamOutOfRange(f"need cb_dist > 0, got {cb_dist}")
    return 2.0 ** binary_entropy(eps) * cb_dist**eps
