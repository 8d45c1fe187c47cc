"""Dense complex Hilbert-space numerics in the Schroedinger convention.

Channels are lists of Kraus operators acting as rho -> sum_j F_j rho F_j*.
On top of that sit the Weyl (clock-and-shift) error bases, numerical
verification of the Knill-Laflamme condition, synthesis of an explicit
decoding channel from the Gram form of a verified error set, and the
Choi-state distance used to certify encode/noise/decode pipelines.

Everything is dense numpy; operators refuse to materialize beyond
DEFAULT_AMPLITUDE_CAP entries rather than silently degrade.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    InvalidSubset,
    KLViolated,
    NotIsometry,
)
from .graphs import DEFAULT_AMPLITUDE_CAP

__all__ = [
    "Channel",
    "KLReport",
    "KL_TOLERANCE",
    "GRAM_EIGENVALUE_CUTOFF",
    "identity_channel",
    "apply_channel",
    "tensor_channels",
    "weyl_operator",
    "localized_error_basis",
    "error_space_basis",
    "kl_verify",
    "synthesize_decoder",
    "choi_state",
    "verify_etd",
]

logger = logging.getLogger(__name__)

KL_TOLERANCE = 1e-9
GRAM_EIGENVALUE_CUTOFF = 1e-10
_COMPLETENESS_TOL = 1e-9


def _as_operator(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise DimensionMismatch(f"operator must be 2-D, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive trace-preserving map given by Kraus operators.

    Each Kraus operator maps the input space (dim_in columns) to the
    output space (dim_out rows); completeness sum F* F = 1 is enforced
    at construction.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_as_operator(f) for f in self.kraus)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(f.shape != shape for f in ops):
            raise DimensionMismatch("all Kraus operators must share one shape")
        total = sum(f.conj().T @ f for f in ops)
        if np.abs(total - np.eye(shape[1])).max() > _COMPLETENESS_TOL:
            raise ValueError(
                "Kraus completeness violated: sum F*F differs from identity by "
                f"{np.abs(total - np.eye(shape[1])).max():.3e}"
            )
        object.__setattr__(self, "kraus", ops)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]


def identity_channel(dim: int) -> Channel:
    return Channel((np.eye(dim, dtype=np.complex128),))


def apply_channel(channel: Channel, rho) -> np.ndarray:
    """Schroedinger action sum_j F_j rho F_j*."""
    rho = _as_operator(rho)
    d = channel.dim_in
    if rho.shape != (d, d):
        raise DimensionMismatch(f"state must be {d}x{d}, got {rho.shape}")
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=np.complex128)
    for f in channel.kraus:
        out += f @ rho @ f.conj().T
    return out


def tensor_channels(first: Channel, second: Channel) -> Channel:
    """Independent parallel use: Kraus set of all pairwise tensor products."""
    ops = tuple(np.kron(f, g) for f in first.kraus for g in second.kraus)
    return Channel(ops)


def weyl_operator(d: int, a: int, b: int) -> np.ndarray:
    """Clock-and-shift unitary X^a Z^b on C^d.

    X|j> = |j+1 mod d>, Z|j> = w^j |j> with w = exp(2 pi i / d); for
    d = 2 these are the Pauli words I, X, Z, XZ.
    """
    a, b = a % d, b % d
    omega = np.exp(2j * np.pi / d)
    w = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        w[(k + a) % d, k] = omega ** (b * k)
    return w


def _word_operator(n: int, d: int, sites: Sequence[int], pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    by_site = dict(zip(sites, pairs))
    op = np.ones((1, 1), dtype=np.complex128)
    for site in range(n):
        factor = weyl_operator(d, *by_site[site]) if site in by_site else np.eye(d)
        op = np.kron(op, factor)
    return op


def _check_site_subset(n: int, sites: Sequence[int]) -> tuple[int, ...]:
    out = tuple(sorted(int(s) for s in sites))
    if len(set(out)) != len(out) or any(not (0 <= s < n) for s in out):
        raise InvalidSubset(f"sites {out} are not a subset of [0, {n})")
    return out


def localized_error_basis(
    n: int, d: int, sites: Iterable[int], cap: int = DEFAULT_AMPLITUDE_CAP
) -> list[np.ndarray]:
    """All d^{2|Z|} Weyl words supported on Z, tensored with identity elsewhere.

    The all-zero word comes first, so element 0 is the global identity.
    Per-site words are ordered I, X, Z, XZ, ... (shift power before
    clock power).
    """
    z = _check_site_subset(n, sites)
    if d ** (2 * len(z)) > cap or (d**n) ** 2 > cap:
        raise DimensionOverflow(
            f"error basis needs {d ** (2 * len(z))} operators of {d**n}x{d**n} amplitudes"
        )
    basis = []
    for word in itertools.product(range(d * d), repeat=len(z)):
        pairs = [(q % d, q // d) for q in word]  # q = a + d*b -> X^a Z^b
        basis.append(_word_operator(n, d, z, pairs))
    return basis


def error_space_basis(
    n: int, d: int, f: int, cap: int = DEFAULT_AMPLITUDE_CAP
) -> list[np.ndarray]:
    """A duplicate-free basis of the span of all words on at most f sites.

    Identity first, then for each subset Z with 1 <= |Z| <= f the words
    acting nontrivially on every site of Z.
    """
    if (d**n) ** 2 > cap:
        raise DimensionOverflow(f"operators would need {(d**n)**2} amplitudes")
    basis = [np.eye(d**n, dtype=np.complex128)]
    for size in range(1, f + 1):
        for z in itertools.combinations(range(n), size):
            for word in itertools.product(range(1, d * d), repeat=size):
                pairs = [(q % d, q // d) for q in word]
                basis.append(_word_operator(n, d, z, pairs))
    return basis


@dataclass
class KLReport:
    """Result of numerical Knill-Laflamme verification.

    gram holds the sesquilinear form w(F_a* F_b); max_deviation is the
    largest entry of any V* F_a* F_b V - w ab * identity.
    """

    gram: np.ndarray
    max_deviation: float

    @property
    def correcting(self) -> bool:
        return self.max_deviation <= KL_TOLERANCE


def _require_isometry(v: np.ndarray) -> None:
    gap = np.abs(v.conj().T @ v - np.eye(v.shape[1])).max()
    if gap > KL_TOLERANCE:
        raise NotIsometry(f"V*V deviates from identity by {gap:.3e}")


def kl_verify(v, errors: Sequence) -> KLReport:
    """Check <V phi1, F_a* F_b V phi2> = <phi1, phi2> w_ab over all pairs.

    The code corrects the span of `errors` iff the returned deviation
    is at most KL_TOLERANCE.
    """
    v = _as_operator(v)
    _require_isometry(v)
    dim_in = v.shape[1]
    ops = [_as_operator(f) for f in errors]
    if any(f.shape != (v.shape[0], v.shape[0]) for f in ops):
        raise DimensionMismatch("error operators must act on the output space")
    w = np.stack([f @ v for f in ops])  # (K, dim_out, dim_in)
    gram_blocks = np.einsum("aji,bjk->abik", w.conj(), w)
    gram = np.trace(gram_blocks, axis1=2, axis2=3) / dim_in
    deviation = gram_blocks - gram[:, :, None, None] * np.eye(dim_in)
    max_dev = float(np.abs(deviation).max())
    return KLReport(gram=gram, max_deviation=max_dev)


def synthesize_decoder(v, errors: Sequence, rho0=None) -> Channel:
    """Build the explicit decoding channel for a verified error set.

    Steps: orthonormalize the error set through the eigenbasis of the
    Gram form (eigenvalues below GRAM_EIGENVALUE_CUTOFF span the
    degenerate directions and are dropped), assemble the isometry
    U(phi (x) e_k) = G_k V phi, and return the partial-trace decoder

        D(rho) = tr_bad(U* rho U) + tr[(1 - UU*) rho] rho0

    as an explicit Kraus channel.  rho0 defaults to the first basis
    state of the logical space.
    """
    v = _as_operator(v)
    ops = [_as_operator(f) for f in errors]
    report = kl_verify(v, ops)
    if not report.correcting:
        raise KLViolated(
            f"Knill-Laflamme deviation {report.max_deviation:.3e} exceeds {KL_TOLERANCE}"
        )
    dim_out, dim_in = v.shape
    vals, vecs = np.linalg.eigh(report.gram)
    keep = vals > GRAM_EIGENVALUE_CUTOFF
    rank = int(keep.sum())
    if rank < len(ops):
        logger.info(
            "degenerate Gram form: rank %d < error-set size %d", rank, len(ops)
        )
    coeff = vecs[:, keep] / np.sqrt(vals[keep])  # columns give G_k weights
    g_ops = np.einsum("ak,aij->kij", coeff, np.stack(ops))
    # U columns ordered phi-major: column i*rank + k is G_k V e_i
    gv = np.einsum("kij,jl->kil", g_ops, v)  # (rank, dim_out, dim_in)
    u = np.transpose(gv, (1, 2, 0)).reshape(dim_out, dim_in * rank)
    udag = u.conj().T
    kraus = [udag[np.arange(dim_in) * rank + k, :] for k in range(rank)]
    # complement of range(U): route it into rho0 to make D unit preserving
    projector = np.eye(dim_out) - u @ udag
    pvals, pvecs = np.linalg.eigh(projector)
    complement = pvecs[:, pvals > 0.5]
    if complement.shape[1]:
        if rho0 is None:
            rho0 = np.zeros((dim_in, dim_in), dtype=np.complex128)
            rho0[0, 0] = 1.0
        rho0 = _as_operator(rho0)
        if rho0.shape != (dim_in, dim_in):
            raise DimensionMismatch(
                f"rho0 must be {dim_in}x{dim_in}, got {rho0.shape}"
            )
        weights, states = np.linalg.eigh(rho0)
        for p, w_vec in zip(weights, states.T):
            if p <= 1e-12:
                continue
            for j in range(complement.shape[1]):
                kraus.append(
                    np.sqrt(p) * np.outer(w_vec, complement[:, j].conj())
                )
    return Channel(tuple(kraus))


def _max_entangled(d: int) -> np.ndarray:
    omega = np.zeros((d * d,), dtype=np.complex128)
    omega[:: d + 1] = 1 / np.sqrt(d)
    return np.outer(omega, omega.conj())


def _propagate(state: np.ndarray, stage: Channel, d0: int) -> np.ndarray:
    """Apply stage (x) id_{d0} to a state on the stage input and a d0-level reference."""
    eye = np.eye(d0, dtype=np.complex128)
    out = np.zeros((stage.dim_out * d0,) * 2, dtype=np.complex128)
    for f in stage.kraus:
        k = np.kron(f, eye)
        out += k @ state @ k.conj().T
    return out


def choi_state(channel: Channel) -> np.ndarray:
    """Normalized Choi state: feed half of a maximally entangled pair through."""
    return _propagate(_max_entangled(channel.dim_in), channel, channel.dim_in)


def verify_etd(encoder: Channel, noise: Channel, decoder: Channel) -> float:
    """Choi trace distance between decode(noise(encode(.))) and the identity.

    Zero (within tolerance) certifies exact correction; any positive
    value lower-bounds the cb-norm distance of the composite from the
    identity up to normalization.
    """
    if encoder.dim_out != noise.dim_in or noise.dim_out != decoder.dim_in:
        raise DimensionMismatch("channels do not compose: E -> T -> D")
    if decoder.dim_out != encoder.dim_in:
        raise DimensionMismatch("composite must return to the encoder input space")
    d0 = encoder.dim_in
    reference = _max_entangled(d0)
    state = reference
    for stage in (encoder, noise, decoder):
        state = _propagate(state, stage, d0)
    gaps = np.linalg.eigvalsh(state - reference)
    return float(0.5 * np.abs(gaps).sum())
