"""Dense complex Hilbert-space numerics in the Schroedinger convention.

A channel is one (count, dim_out, dim_in) array of Kraus operators acting
as rho -> sum_j F_j rho F_j*.
On top of that sit the Weyl (clock-and-shift) error bases, numerical
verification of the Knill-Laflamme condition, synthesis of an explicit
decoding channel from the Gram form of a verified error set, and the
Choi-state distance used to certify encode/noise/decode pipelines.

Operators and error bases are dense numpy, built by one batched Kronecker
product; rather than silently degrade, error bases refuse to materialize
beyond DEFAULT_AMPLITUDE_CAP entries per operator or TOTAL_AMPLITUDE_CAP in
all, and tensor_channels beyond TOTAL_AMPLITUDE_CAP in all.  Choi
states are propagated in factored form: a state W W* on (system) (x)
(d0-level reference) is carried as its factor W, pushed through every
stage with one stacked product, so the (d^n d0)^2 dense state of the
encoded register is never formed.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionOverflow,
    KLViolated,
    NotIsometry,
)
from .graphs import DEFAULT_AMPLITUDE_CAP, _normalize_subset, _require_error_count

__all__ = [
    "Channel",
    "KLReport",
    "KL_TOLERANCE",
    "GRAM_EIGENVALUE_CUTOFF",
    "TOTAL_AMPLITUDE_CAP",
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
# Largest entry of |V*V - 1| an isometry, a unitary or a Kraus set sum F*F may show
_ISOMETRY_TOL = 1e-9

# Most amplitudes of an error basis or tensor_channels result: 1 GiB of complex128
TOTAL_AMPLITUDE_CAP = 64 * DEFAULT_AMPLITUDE_CAP


def _as_operator(a, shape: Optional[tuple] = None, what: str = "operator") -> np.ndarray:
    """a as a complex128 matrix; DimensionMismatch unless it is 2-D, of the given shape if any."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or shape not in (None, arr.shape):
        raise DimensionMismatch(f"{what} must be {shape or '2-D'}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Channel:
    """A completely positive trace-preserving map given by Kraus operators.

    kraus is one complex128 array of shape (count, dim_out, dim_in): each
    operator maps the input space (dim_in columns) to the output space
    (dim_out rows).  A sequence of equal-shape matrices is stacked into
    that array; a complex128 array is kept as given, without a copy.
    Completeness sum F* F = 1 is enforced at construction.
    """

    kraus: np.ndarray

    def __post_init__(self):
        if not len(self.kraus):
            raise ValueError("a channel needs at least one Kraus operator")
        try:
            kraus = np.asarray(self.kraus, dtype=np.complex128)
        except ValueError:  # a ragged sequence
            raise DimensionMismatch("all Kraus operators must share one shape") from None
        if kraus.ndim != 3:
            raise DimensionMismatch(f"Kraus operators must be 2-D, got shape {kraus.shape[1:]}")
        rows = kraus.reshape(-1, kraus.shape[2])  # F_1 over F_2 over ...: rows* rows = sum F*F
        _require_isometry(rows, ValueError, "Kraus completeness violated: sum F*F")
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]


def identity_channel(dim: int) -> Channel:
    return Channel((np.eye(dim, dtype=np.complex128),))


def apply_channel(channel: Channel, rho) -> np.ndarray:
    """Schroedinger action sum_j F_j rho F_j*."""
    rho = _as_operator(rho, (channel.dim_in, channel.dim_in), "state")
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=np.complex128)
    for f in channel.kraus:
        out += f @ rho @ f.conj().T
    return out


def tensor_channels(*channels: Channel) -> Channel:
    """Independent parallel use: the Kraus set of all products F_1 (x) F_2 (x) ...

    The first channel's index varies slowest, so the Kraus list equals a
    chain of two-channel products entry for entry.  DimensionOverflow
    before allocating when it would exceed TOTAL_AMPLITUDE_CAP.
    """
    stacks = [channel.kraus for channel in channels]
    _require_budget(np.prod([s.size for s in stacks], dtype=object), "tensor product")
    return Channel(_kron_stacks(stacks))


def _kron_stacks(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Every K_1[i_1] (x) K_2[i_2] (x) ... of (count, rows, cols) stacks, i_1 slowest.

    Each entry is the same left-to-right product as a chain of np.kron.
    """
    out = np.ones((1, 1, 1), dtype=np.complex128)
    for stack in stacks:
        shape = [a * b for a, b in zip(out.shape, stack.shape)]
        out = (out[:, None, :, None, :, None] * stack[None, :, None, :, None, :]).reshape(shape)
    return out


def _require_isometry(v: np.ndarray, error: type = NotIsometry, what: str = "V*V") -> None:
    """Raise error unless V*V = 1 within _ISOMETRY_TOL; a non-finite V never passes."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf or nan entries give a nan gap
        gap = np.abs(v.conj().T @ v - np.eye(v.shape[1])).max()
    if not gap <= _ISOMETRY_TOL:
        raise error(f"{what} deviates from identity by {gap:.3e}")


def _require_budget(amplitudes: int, what: str) -> None:
    if amplitudes > TOTAL_AMPLITUDE_CAP:
        raise DimensionOverflow(f"{what} needs {amplitudes} amplitudes > {TOTAL_AMPLITUDE_CAP}")


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


def _error_basis(n: int, d: int, subsets: Iterable[tuple], words: range) -> list[np.ndarray]:
    """Every word with a factor from `words` (q = a + d*b -> X^a Z^b) on each site of
    each subset, identity elsewhere: views into one Kronecker stack per subset."""
    amplitudes = (d**n) ** 2
    if amplitudes > DEFAULT_AMPLITUDE_CAP:
        raise DimensionOverflow(f"each error operator would need {amplitudes} amplitudes")
    subsets = list(subsets)
    _require_budget(sum(len(words) ** len(z) for z in subsets) * amplitudes, "error basis")
    weyl = np.stack([weyl_operator(d, q % d, q // d) for q in words])
    identity = np.eye(d, dtype=np.complex128)[None]
    stacks = (_kron_stacks([weyl if site in z else identity for site in range(n)]) for z in subsets)
    return [op for stack in stacks for op in stack]


def localized_error_basis(n: int, d: int, sites: Iterable[int]) -> list[np.ndarray]:
    """All d^{2|Z|} Weyl words supported on Z, tensored with identity elsewhere.

    The all-zero word comes first, so element 0 is the global identity.
    Per-site words are ordered I, X, Z, XZ, ... (shift power before
    clock power), the lowest site varying slowest.  InvalidSubset for
    repeated or out-of-range sites; DimensionOverflow when one operator
    exceeds DEFAULT_AMPLITUDE_CAP or all exceed TOTAL_AMPLITUDE_CAP.
    """
    return _error_basis(n, d, [_normalize_subset(n, sites)], range(d * d))


def error_space_basis(n: int, d: int, f: int) -> list[np.ndarray]:
    """A duplicate-free basis of the span of all words on at most f sites.

    Identity first, then for each subset Z with 1 <= |Z| <= f the words
    acting nontrivially on every site of Z.  ParamOutOfRange (a ValueError)
    for negative f; DimensionOverflow before allocating when one operator
    exceeds DEFAULT_AMPLITUDE_CAP or all exceed TOTAL_AMPLITUDE_CAP.
    """
    _require_error_count(f)
    subsets = (z for size in range(f + 1) for z in itertools.combinations(range(n), size))
    return _error_basis(n, d, subsets, range(1, d * d))


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


def _kl_images(v, errors: Sequence) -> tuple[KLReport, np.ndarray]:
    """The Knill-Laflamme report together with the images F_a V, stacked (K, dim_out, dim_in)."""
    v = _as_operator(v)
    _require_isometry(v)
    dim_out, dim_in = v.shape
    ops = [_as_operator(f, (dim_out, dim_out), "error operator") for f in errors]
    w = np.stack([f @ v for f in ops])  # (K, dim_out, dim_in)
    gram_blocks = np.einsum("aji,bjk->abik", w.conj(), w)
    gram = np.trace(gram_blocks, axis1=2, axis2=3) / dim_in
    deviation = gram_blocks - gram[:, :, None, None] * np.eye(dim_in)
    max_dev = float(np.abs(deviation).max())
    return KLReport(gram=gram, max_deviation=max_dev), w


def kl_verify(v, errors: Sequence) -> KLReport:
    """Check <V phi1, F_a* F_b V phi2> = <phi1, phi2> w_ab over all pairs.

    The code corrects the span of `errors` iff the returned deviation
    is at most KL_TOLERANCE.
    """
    return _kl_images(v, errors)[0]


def synthesize_decoder(v, errors: Sequence, rho0=None) -> Channel:
    """Build the explicit decoding channel for a verified error set.

    Steps: orthonormalize the error set through the eigenbasis of the
    Gram form (eigenvalues below GRAM_EIGENVALUE_CUTOFF span the
    degenerate directions and are dropped), assemble the isometry
    U(phi (x) e_k) = G_k V phi from the images F_a V (G_k itself is never
    formed), and return the partial-trace decoder

        D(rho) = tr_bad(U* rho U) + tr[(1 - UU*) rho] rho0

    as an explicit Kraus channel: the rank operators (G_k V)*, then one
    rank-1 operator per eigenvector of rho0 and complement vector of
    range(U).  rho0 defaults to the first basis state of the logical space.
    """
    report, images = _kl_images(v, errors)
    if not report.correcting:
        raise KLViolated(
            f"Knill-Laflamme deviation {report.max_deviation:.3e} exceeds {KL_TOLERANCE}"
        )
    count, dim_out, dim_in = images.shape
    vals, vecs = np.linalg.eigh(report.gram)
    keep = vals > GRAM_EIGENVALUE_CUTOFF
    rank = int(keep.sum())
    if rank < count:
        logger.info(
            "degenerate Gram form: rank %d < error-set size %d", rank, count
        )
    coeff = vecs[:, keep] / np.sqrt(vals[keep])  # columns give G_k weights
    gv = np.tensordot(coeff, images, axes=(0, 0))  # (rank, dim_out, dim_in): G_k V
    kraus = gv.conj().transpose(0, 2, 1)  # (G_k V)*, one per k
    # complement of range(U): route it into rho0 to make D unit preserving
    u = gv.transpose(1, 0, 2).reshape(dim_out, rank * dim_in)
    complement = np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]  # u has orthonormal columns
    if complement.shape[1]:
        if rho0 is None:
            rho0 = np.zeros((dim_in, dim_in), dtype=np.complex128)
            rho0[0, 0] = 1.0
        rho0 = _as_operator(rho0, (dim_in, dim_in), "rho0")
        weights, states = np.linalg.eigh(rho0)
        used = weights > 1e-12
        scaled = states[:, used] * np.sqrt(weights[used])  # columns sqrt(p) w
        # sqrt(p) |w><c_j| for each eigenpair (p, w) of rho0 and complement vector c_j
        routes = np.einsum("ip,kj->pjik", scaled, complement.conj()).reshape(-1, dim_in, dim_out)
        kraus = np.concatenate([kraus, routes])
    return Channel(kraus)


def _max_entangled(d: int) -> np.ndarray:
    """Factor (d^2, 1) of the maximally entangled state on C^d (x) C^d."""
    omega = np.zeros((d * d, 1), dtype=np.complex128)
    omega[:: d + 1] = 1 / np.sqrt(d)
    return omega


def _propagate(factor: np.ndarray, stage: Channel, d0: int) -> np.ndarray:
    """Apply stage (x) id_{d0} to the state W W* given by its factor W.

    W has rows indexed (stage input, d0-level reference) and r columns.
    The result is the factor [(F_1 (x) 1) W | ... | (F_K (x) 1) W] of the
    output state, computed as one tensordot of the stacked Kraus operators
    against W reshaped to (dim_in, d0 r).  When it has more columns than
    rows it is replaced by the square root of its state (from eigh), so a
    factor never holds more entries than the dense state would.
    """
    rank = factor.shape[1]
    images = np.tensordot(stage.kraus, factor.reshape(stage.dim_in, d0 * rank), axes=(2, 0))
    rows = stage.dim_out * d0
    # (K, dim_out, d0 r) -> rows (out, ref), columns (k, col)
    out = images.reshape(-1, rows, rank).transpose(1, 0, 2).reshape(rows, -1)
    if out.shape[1] > rows:
        vals, vecs = np.linalg.eigh(out @ out.conj().T)
        out = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return out


def choi_state(channel: Channel) -> np.ndarray:
    """Normalized Choi state: feed half of a maximally entangled pair through."""
    factor = _propagate(_max_entangled(channel.dim_in), channel, channel.dim_in)
    return factor @ factor.conj().T


def verify_etd(encoder: Channel, noise: Channel, decoder: Channel) -> float:
    """Choi trace distance between decode(noise(encode(.))) and the identity.

    Zero (within tolerance) certifies exact correction; any positive
    value lower-bounds the cb-norm distance of the composite from the
    identity up to normalization.  The Choi state travels as a factor
    through the three stages (see _propagate); the only dense state
    formed is the final one on the (d0 d0)-dimensional logical pair.
    """
    if encoder.dim_out != noise.dim_in or noise.dim_out != decoder.dim_in:
        raise DimensionMismatch("channels do not compose: E -> T -> D")
    if decoder.dim_out != encoder.dim_in:
        raise DimensionMismatch("composite must return to the encoder input space")
    d0 = encoder.dim_in
    reference = _max_entangled(d0)
    factor = reference
    for stage in (encoder, noise, decoder):
        factor = _propagate(factor, stage, d0)
    gaps = np.linalg.eigvalsh(factor @ factor.conj().T - reference @ reference.conj().T)
    return float(0.5 * np.abs(gaps).sum())
