"""Noise families and cb-norm witnesses.

The completely bounded norm of a channel difference is never computed
exactly here.  Instead the module offers certified lower bounds (one
member of the defining supremum family, evaluated on a concrete witness
operator) and analytic upper bounds (2 ||U - 1|| for unitary noise).
The scalar formulas that turn "corrects f errors" into cb-norm error
bounds (binary entropy, the correctability threshold, the binomial tails
and the per-use factor) live in rates, which loads no channel code.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

import numpy as np

from .channels import Channel, _require_isometry, _weyl_letters
from .errors import DimensionMismatch, NotUnitary, ParamOutOfRange
from .graphs import _require_budget

__all__ = [
    "phase_rotation",
    "make_unitary_channel",
    "make_depolarizing",
    "cb_lower_witness",
    "transposition_map",
    "zero_map",
]


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
