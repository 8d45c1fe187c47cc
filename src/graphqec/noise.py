"""Noise families, cb-norm witnesses, and binomial error bounds.

The completely bounded norm of a channel difference is never computed
exactly here.  Instead the module offers certified lower bounds (one
member of the defining supremum family, evaluated on a concrete witness
operator) and analytic upper bounds (2 ||U - 1|| for unitary noise),
plus the discrete-to-continuous tail estimates that convert "corrects f
errors" into cb-norm error bounds.

binary_entropy and error_threshold take a float, and return floats, or an
array, and return arrays of its shape; the bound figures of rates pass a
whole grid in one call.  On an array the arithmetic runs as numpy float64
ufuncs, which round exactly as Python floats do, but every log2 and power
of two is still math's (libm's), one entry at a time (_libm): numpy's SIMD
log and power loops can differ from libm in the last bit, and the
figures' CSV bytes are a contract.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional, Union

import numpy as np

from .channels import Channel, _require_isometry, _weyl_letters
from .errors import (
    DimensionMismatch,
    NotUnitary,
    ParamOutOfRange,
    PreconditionViolated,
)
from .graphs import _require_budget

__all__ = [
    "binary_entropy",
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


FloatOrArray = Union[float, np.ndarray]


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


def phase_rotation(d: int, theta: float) -> np.ndarray:
    """diag(1, e^{i theta}, ..., e^{i (d-1) theta}), a small rotation for small theta.
    Budgeted (d^2 amplitudes) before it is formed."""
    if not math.isfinite(theta):
        raise ParamOutOfRange(f"rotation angle theta must be finite, got {theta}")
    _require_budget(d * d, "site operator")
    return np.diag(np.exp(1j * theta * np.arange(d)))


def make_unitary_channel(u) -> tuple[Channel, float]:
    """Single-Kraus channel rho -> U rho U* plus the bound 2 ||U - 1|| on
    its cb-distance from the identity."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise NotUnitary(f"expected a square matrix, got shape {u.shape}")
    _require_isometry(u, NotUnitary, "U*U")
    bound = 2.0 * float(np.linalg.norm(u - np.eye(u.shape[0]), 2))
    return Channel((u,)), bound


def make_depolarizing(d: int, q: float) -> Channel:
    """rho -> (1-q) rho + q 1/d via uniformly weighted Weyl words.

    The identity word absorbs the (1-q) part, so the Kraus set is the
    d^2 letters of channels._weyl_letters in their order q = a + d*b
    (X^a Z^b), each scaled by one weight: sqrt(1 - q + q/d^2) for the
    identity (q = 0) and sqrt(q)/d for the d^2 - 1 nontrivial words.
    Budgeted (d^4 amplitudes) before any d-sized array.
    """
    if not 0.0 <= q <= 1.0:
        raise ParamOutOfRange(f"depolarizing weight must be in [0, 1], got {q}")
    letters = _weyl_letters(d)  # the gate runs before any d-sized array
    letters *= np.where(np.arange(d * d), np.sqrt(q) / d, np.sqrt(1.0 - q + q / d**2))[:, None, None]
    return Channel(letters)


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
    argument is a Channel.  The witness must be finite and nonzero, and dim positive.
    """
    a = np.asarray(witness, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"witness must be square, got shape {a.shape}")
    if not (np.isfinite(a).all() and a.any()):
        raise ParamOutOfRange("witness must be finite and nonzero")
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
    if not dim >= 1:
        raise DimensionMismatch(f"dim must be positive, got {dim}")
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
