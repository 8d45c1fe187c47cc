"""Dense complex Hilbert-space numerics in the Schroedinger convention.

A channel is one (count, dim_out, dim_in) array of Kraus operators acting
as rho -> sum_j F_j rho F_j*.
On top of that sit the Weyl (clock-and-shift) error sets, numerical
verification of the Knill-Laflamme condition, synthesis of an explicit
decoding channel from the Gram form of a verified error set, and the
Choi-state distance used to certify encode/noise/decode pipelines.

The Knill-Laflamme condition has two routes, each for one kind of input.
kl_verify and synthesize_decoder take a sequence of dense operators (the
public error bases build them by one batched Kronecker product); their
images F_a V feed one Gram routine, which forms M*M for
M = [F_1 V | ... | F_K V] one band of rows at a time.  A graph code's
error space on at most f sites needs neither V nor the images: _graph_kl
enumerates the words as integer (shift, clock) digits (_error_words) and
evaluates the Gram blocks in closed form from the adjacency matrix
(Schlingemann and Werner's character sums).  Its report keeps each
syndrome class as sigma = Gamma_YY s - c and tau = Gamma_XY s of a word
X^s Z^c in it, and simulate's decoded logical channel reads the classes
from there on both routes: the syndrome table (_table_decoded), where
V* F_k* W V is a phase times a shift of the logical levels and the Kraus
index sums out into the noise's Weyl process matrix, with no d^n-sized
array; and past the table's budget (noise on many sites) the
register-sized route (_dense_decoded), whose class images are phases of
V, F V = w^(-sigma.y - tau.x) V up to a phase (_class_images).  Every
input-sized array passes the gate graphs._require_budget.
Choi states are propagated by one routine, _propagate: a state W W* on
(system) (x) (d0-level reference) is carried as its factor W, and a stage
acts on one axis of W's rows (left, stage input, right) with one stacked
product: the whole register for verify_etd's stages, one site for the
register-sized route's site-local noise.  Only when a stage would make W
wider than tall is the dense state formed, and a dense state goes through
later stages by their superoperators while these are no larger than it
(one site, or a decoder).  simulate's decoder stays implicit on both
routes (_local_etd), and the resulting d0-level logical channel is
certified by verify_etd.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, DimensionOverflow, KLViolated, NotIsometry
from .graphs import (
    DEFAULT_AMPLITUDE_CAP,
    GraphCode,
    _digit_table,
    _normalize_subset,
    _prime_tables,
    _require_budget,
    _require_error_count,
    build_isometry,
)
from .modular import _prime_factors, _residue_dtype

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
# Largest entry of |V*V - 1| an isometry, a unitary or a Kraus set sum F*F may show
_ISOMETRY_TOL = 1e-9

# Most amplitudes of Gram blocks the Knill-Laflamme check holds at once (beyond one row)
_GRAM_BAND = 4 * DEFAULT_AMPLITUDE_CAP
# Most amplitudes of rows the isometry check copies at once (beyond one row)
_ISOMETRY_BAND = 2**16


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
    chain of two-channel products entry for entry.  Budgeted as a whole.
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


def _isometry_gap(v: np.ndarray) -> float:
    """The largest entry of V*V - 1; nan when V has inf or nan entries.

    V*V is summed over bands of at most _ISOMETRY_BAND amplitudes of rows,
    so V (or a stacked Kraus set) is never copied whole.
    """
    rows, cols = v.shape
    _require_budget(cols * cols, "isometry Gram form")
    step = max(1, min(rows, _ISOMETRY_BAND // max(cols, 1)))
    gram = np.zeros((cols, cols), dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, rows, step):
            band = v[lo : lo + step]
            gram += band.conj().T @ band
        gram[np.diag_indices(cols)] -= 1.0
        return float(np.abs(gram).max())


def _require_isometry(v: np.ndarray, error: type = NotIsometry, what: str = "V*V") -> None:
    """Raise error unless V*V = 1 within _ISOMETRY_TOL; a non-finite V never passes."""
    gap = _isometry_gap(v)
    if not gap <= _ISOMETRY_TOL:
        raise error(f"{what} deviates from identity by {gap:.3e}")


def weyl_operator(d: int, a: int, b: int) -> np.ndarray:
    """Clock-and-shift unitary X^a Z^b on C^d.

    X|j> = |j+1 mod d>, Z|j> = w^j |j> with w = exp(2 pi i / d); for
    d = 2 these are the Pauli words I, X, Z, XZ.
    """
    a, b = a % d, b % d
    w = np.zeros((d, d), dtype=np.complex128)
    k = np.arange(d)
    w[(k + a) % d, k] = _clock_phases(d, b)
    return w


def _clock_phases(d: int, b: int = 1) -> np.ndarray:
    """w^(b k) for k = 0..d-1, w = exp(2 pi i / d): the diagonal of Z^b."""
    omega = np.exp(2j * np.pi / d)
    return np.array([omega ** (b * k) for k in range(d)], dtype=np.complex128)


def _error_basis(n: int, d: int, subsets: Iterable[tuple], letters: range) -> list[np.ndarray]:
    """Every word with a letter from `letters` (q = a + d*b -> X^a Z^b) on each site of
    each subset, identity elsewhere: views into one Kronecker stack per subset."""
    _require_budget(d ** (2 * n), "each error operator", DEFAULT_AMPLITUDE_CAP)
    subsets = list(subsets)
    _require_budget(sum(len(letters) ** len(z) for z in subsets) * (d**n) ** 2, "error basis")
    weyl = np.stack([weyl_operator(d, q % d, q // d) for q in letters])
    identity = np.eye(d, dtype=np.complex128)[None]
    stacks = (_kron_stacks([weyl if site in z else identity for site in range(n)]) for z in subsets)
    return [op for stack in stacks for op in stack]


def localized_error_basis(n: int, d: int, sites: Iterable[int]) -> list[np.ndarray]:
    """All d^{2|Z|} Weyl words supported on Z, tensored with identity elsewhere.

    The all-zero word comes first, so element 0 is the global identity.
    Per-site words are ordered I, X, Z, XZ, ... (shift power before
    clock power), the lowest site varying slowest.  InvalidSubset for
    repeated or out-of-range sites.  Budgeted per operator and as a whole.
    """
    return _error_basis(n, d, [_normalize_subset(n, sites)], range(d * d))


def error_space_basis(n: int, d: int, f: int) -> list[np.ndarray]:
    """A duplicate-free basis of the span of all words on at most f sites.

    Identity first, then for each subset Z with 1 <= |Z| <= f the words
    acting nontrivially on every site of Z.  ParamOutOfRange (a ValueError)
    for negative f.  Budgeted per operator and as a whole.
    """
    _require_error_count(f)
    subsets = (z for size in range(f + 1) for z in itertools.combinations(range(n), size))
    return _error_basis(n, d, subsets, range(1, d * d))


def _error_words(n: int, d: int, f: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, shift, clock) of the words of error_space_basis(n, d, f), in its order:
    word k is X^shift[k, s] Z^clock[k, s] on each site s, with letters q = a + d*b.
    count is a Python int.  Budgeted before any word is enumerated: shift, clock and
    their syndromes.  ParamOutOfRange (a ValueError) for negative f."""
    _require_error_count(f)
    count = sum(math.comb(n, size) * (d * d - 1) ** size for size in range(f + 1))
    _require_budget(3 * count * n, "error words")
    words, row = np.zeros((count, n), dtype=np.int64), 0
    for size in range(f + 1):
        # the first site varies slowest, as in the Kronecker stacks of _error_basis
        block = list(itertools.product(range(1, d * d), repeat=size))
        for z in itertools.combinations(range(n), size):
            words[row : row + len(block), list(z)] = block
            row += len(block)
    return count, words % d, words // d


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


def _images(v, errors: Sequence) -> np.ndarray:
    """M = [F_1 V | ... | F_K V] as a (dim_out, K, dim_in) array, for an isometry V and
    a sequence of dim_out x dim_out operators.  Budgeted before any product: the images,
    and the K x K Gram form or its smallest band (one row of K dim_in x dim_in blocks)."""
    v = _as_operator(v)
    _require_isometry(v)
    dim_out, dim_in = v.shape
    errors = [_as_operator(f, (dim_out, dim_out), "error operator") for f in errors]
    _require_budget(len(errors) * dim_out * dim_in, "error images")
    _require_budget(len(errors) * max(len(errors), dim_in * dim_in), "Gram form")
    return np.stack([f @ v for f in errors], axis=1)


def _kl_report(images: np.ndarray) -> KLReport:
    """The Knill-Laflamme report of M = [F_1 V | ... | F_K V], shaped (dim_out, K, dim_in).

    The Gram blocks (F_a V)*(F_b V) are M*M, formed one band of a-rows at
    a time against b >= the band's first row (the rest follows by
    Hermitian symmetry), and the deviation is reduced band by band, so at
    most one band of blocks is ever held.
    """
    dim_out, count, dim_in = images.shape
    flat = images.reshape(dim_out, count * dim_in)
    band = max(1, _GRAM_BAND // (count * dim_in * dim_in))
    gram = np.empty((count, count), dtype=np.complex128)
    diagonal = np.arange(dim_in)
    max_dev = 0.0
    for lo in range(0, count, band):
        hi = min(lo + band, count)
        blocks = flat[:, lo * dim_in : hi * dim_in].conj().T @ flat[:, lo * dim_in :]
        blocks = blocks.reshape(hi - lo, dim_in, count - lo, dim_in)
        gram[lo:hi, lo:] = np.trace(blocks, axis1=1, axis2=3) / dim_in
        blocks[:, diagonal, :, diagonal] -= gram[lo:hi, lo:]
        max_dev = max(max_dev, float(np.abs(blocks).max()))
    lower = np.tril_indices(count, -1)
    gram[lower] = gram.T[lower].conj()
    return KLReport(gram=gram, max_deviation=max_dev)


def kl_verify(v, errors: Sequence) -> KLReport:
    """Check <V phi1, F_a* F_b V phi2> = <phi1, phi2> w_ab over all pairs.

    errors are dense operators on V's output space; the code corrects their span iff
    the deviation is at most KL_TOLERANCE.  The images F_a V and the Gram form are budgeted.
    """
    return _kl_report(_images(v, errors))


@dataclass(frozen=True)
class _GraphKL:
    """The Knill-Laflamme report of a graph code's error space, from _graph_kl.

    words counts the space.  Row k of syndrome (rank x n) and dual (rank x m) holds
    sigma = Gamma_YY s - c and tau = Gamma_XY s mod d of the first word X^s Z^c of
    syndrome class k in the order of _error_words; both are None when V is no isometry.
    """

    words: int
    max_deviation: float
    syndrome: Optional[np.ndarray] = None
    dual: Optional[np.ndarray] = None

    @property
    def correcting(self) -> bool:
        return self.max_deviation <= KL_TOLERANCE


def _graph_kl(code: GraphCode, f: int) -> _GraphKL:
    """The Knill-Laflamme report of all words on at most f sites, from the code and f alone.

    With V[y, x] = d^(-n/2) w^(S_XX(x) + x.Gamma_XY y + S_YY(y)) and
    S(y) = sum_{i<j} Gamma_ij y_i y_j, the character sum over y collapses:
    T(a, b) = V* X^a Z^b V has T[x', x] = w^c when
    Gamma_YX (x - x') = Gamma_YY a - b (mod d) and 0 otherwise, with
    c = S_XX(x) - S_XX(x') - x'.Gamma_XY a - S_YY(a), for every d >= 2; and
    V* F_a* F_b V = w^(-c_a.(s_b - s_a)) T(s_b - s_a, c_b - c_a) for
    F = X^s Z^c.  So:
    - V is an isometry exactly when Gamma_YX has a trivial kernel mod d;
      otherwise T(0, 0) - 1 has unit entries off its diagonal, a gap of 1.
    - Two words of different syndromes Gamma_YY s - c whose difference is
      Gamma_YX delta have a block of unit entries at x = x' + delta, and
      trace 0: a deviation of 1.  Blocks of other syndrome pairs are 0.
    - Two words of one syndrome have the diagonal block
      w^(phase - x.Gamma_XY (s_b - s_a)): a scalar when Gamma_XY s agrees,
      otherwise of trace 0 and deviation 1.
    So the deviation is 0 or 1, and a correcting class of g words has the
    rank-one Gram block u u*, |u_a| = 1; the report keeps each class's sigma
    and tau.  Words are grouped by their syndromes projected mod every p | d
    through the scan's tables (graphs._prime_tables): distinct groups differ
    outside the column module, and within a group _share_a_coset decides
    exactly.  Budgeted: the words and their syndromes (_error_words); no
    d^n-sized, no K x K array.
    """
    d, m, n = code.d, code.m, code.n
    count, shift, clock = _error_words(n, d, f)
    tables, full = _prime_tables(code.gamma.entries[None], d, m, 1)
    if not full[0]:
        return _GraphKL(count, 1.0)
    syndromes = _syndromes(code, shift, clock)
    first, label = _row_classes(syndromes)
    dual = _mod_matmul(shift, code.gamma.entries[m:, :m], d)  # Gamma_XY s
    split = bool((dual != dual[first][label]).any())
    syndromes, dual = syndromes[first], dual[first]
    keys = np.column_stack([_projected_syndromes(v, p, syndromes) for p, (_, _, v) in tables.items()])
    group = _row_classes(keys)[1]
    deviation = 1.0 if split or _share_a_coset(code, syndromes, group) else 0.0
    return _GraphKL(count, deviation, syndromes, dual)


def _syndromes(code: GraphCode, shift: np.ndarray, clock: np.ndarray) -> np.ndarray:
    """Gamma_YY s - c mod d of each word X^s Z^c, rows of shift and clock."""
    return (_mod_matmul(shift, code.gamma.entries[code.m :, code.m :], code.d) - clock) % code.d


def _row_classes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, label) of the equal rows of a 2-D integer array: the index of each class's
    first row, and each row's class, classes in lexicographic order of their rows."""
    # stable, so a run of equal rows starts at its first; rows without entries are all equal
    order = np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    label = np.empty(len(rows), dtype=np.intp)
    label[order] = np.cumsum(starts) - 1
    return order[starts], label


def _mod_matmul(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """a @ b mod d as int64 for residue arrays a and b, in Python integers when int64
    cannot hold the sums."""
    if _residue_dtype(d, a.shape[-1]) is object:
        return (a.astype(object) @ b.astype(object) % d).astype(np.int64)
    return a.astype(np.int64) @ b.astype(np.int64) % d


def _projected_syndromes(v, p: int, syndromes: np.ndarray) -> np.ndarray:
    """sum_i sigma_i v_i mod p of each syndrome sigma, from the vectors v of one code's
    projected table mod p (graphs._prime_tables), whose projection maps e_i to v_i: the
    syndrome modulo the columns of Gamma_YX, as a (K, width) int64 array."""
    sigma = syndromes % p
    if v.dtype == np.uint64:  # one GF(2) word per site
        terms = np.where(sigma == 1, v, np.uint64(0))
        return np.bitwise_xor.reduce(terms, axis=1).view(np.int64)[:, None]
    return _mod_matmul(sigma, v.T, p)


def _share_a_coset(code: GraphCode, syndromes: np.ndarray, group: np.ndarray) -> bool:
    """Whether two of the distinct syndromes differ by some Gamma_YX delta mod d.

    Only syndromes of one group (equal projections mod every p | d) can.
    For square-free d the projections are exact, so any group of two does;
    otherwise each pair of a group is compared with all d^m columns
    Gamma_YX delta, one syndrome against the later ones at a time.
    """
    d = code.d
    crowded = np.flatnonzero(np.bincount(group) > 1)
    if not crowded.size or math.prod(_prime_factors(d)) == d:
        return bool(crowded.size)
    _require_budget(d**code.m * code.n, "column module")
    module = _column_module(code)[1]
    for index in crowded:
        members = syndromes[group == index]
        _require_budget(len(members) * module.size, "column module comparison")
        for i in range(len(members) - 1):
            gaps = (members[i + 1 :] - members[i]) % d
            if (gaps[:, None, :] == module).all(axis=2).any():
                return True
    return False


def _column_module(code: GraphCode) -> tuple[np.ndarray, np.ndarray]:
    """(deltas, module): every delta of Z_d^m as a row of digits, digit 0 most
    significant, and the rows (Gamma_YX delta)^T mod d.  The caller budgets d^m n."""
    deltas = _digit_table(code.d**code.m, code.d, code.m)
    return deltas, _mod_matmul(deltas, code.gamma.entries[: code.m, code.m :], code.d)


def _require_correcting(deviation: float) -> None:
    if not deviation <= KL_TOLERANCE:
        raise KLViolated(f"Knill-Laflamme deviation {deviation:.3e} exceeds {KL_TOLERANCE}")


def _log_rank(rank: int, count: int) -> None:
    if rank < count:
        logger.info("degenerate Gram form: rank %d < error-set size %d", rank, count)


def _gram_isometry(images: np.ndarray) -> np.ndarray:
    """U = [G_1 V | ... | G_r V], a (dim_out, rank, dim_in) array, of a verified error set
    from its images M = [F_1 V | ... | F_K V], shaped (dim_out, K, dim_in): the report of M
    (KLViolated unless the code corrects the set), the eigenbasis of its Gram form
    (eigenvalues below GRAM_EIGENVALUE_CUTOFF span the degenerate directions and are
    dropped), and G_k V = sum_a c_ak F_a V with the weights c that make U an isometry."""
    report = _kl_report(images)
    _require_correcting(report.max_deviation)
    vals, vecs = np.linalg.eigh(report.gram)
    keep = vals > GRAM_EIGENVALUE_CUTOFF
    _log_rank(int(keep.sum()), images.shape[1])
    coeff = vecs[:, keep] / np.sqrt(vals[keep])  # columns give G_k weights
    return np.tensordot(images, coeff, axes=(1, 0)).transpose(0, 2, 1)


def _class_images(code: GraphCode, v: np.ndarray, report: _GraphKL) -> np.ndarray:
    """U of _gram_isometry for the error space of a correcting graph code's _graph_kl
    report, up to a phase per class: U[y, k, x] = w^(-sigma_k.y - tau_k.x) V[y, x].

    The Gram form is a rank-one block per syndrome class, so G_k V is the
    image of any word X^s Z^c of class k up to a phase, which leaves the
    decoding channel as it is; with V of _graph_kl that image is
    w^(S_YY(s) - c.s) U[:, k].  Budgeted as the images.
    """
    d, rank = code.d, len(report.syndrome)
    _require_budget(rank * v.size, "error images")
    phases = []
    for weights in (report.syndrome, report.dual):  # w^(-sigma.y) of each row y, w^(-tau.x) of each x
        exponent = np.zeros((1, rank), dtype=np.int64)
        for column in weights.T:  # one digit at a time, digit 0 most significant
            exponent = ((exponent[:, None, :] - np.outer(np.arange(d), column)) % d).reshape(-1, rank)
        phases.append(_clock_phases(d)[exponent])
    images = phases[0][:, :, None] * phases[1].T[None]
    images *= v[:, None, :]
    return images


def synthesize_decoder(v, errors: Sequence, rho0=None) -> Channel:
    """Build the explicit decoding channel for a verified error set of dense operators.

    With the isometry U(phi (x) e_k) = G_k V phi of _gram_isometry
    (G_k orthonormalizes the error set through the eigenbasis of its Gram
    form), return the partial-trace decoder

        D(rho) = tr_bad(U* rho U) + tr[(1 - UU*) rho] rho0

    as an explicit Kraus channel (_decoder_channel).  rho0 defaults to the
    first basis state of the logical space.  Budgeted as _images, then the
    complete QR's Q (one register operator) and the routes.
    """
    return _decoder_channel(_gram_isometry(_images(v, errors)), rho0)


def _decoder_channel(gv: np.ndarray, rho0=None) -> Channel:
    """synthesize_decoder's channel for U = gv, a (dim_out, rank, dim_in) array: the rank
    operators (G_k V)*, then one rank-1 operator per eigenvector of rho0 and complement
    vector of range(U)."""
    dim_out, rank, dim_in = gv.shape
    u = gv.reshape(dim_out, rank * dim_in)  # columns (k, j)
    kraus = u.conj().T.reshape(rank, dim_in, dim_out)  # (G_k V)*, one per k
    # complement of range(U): route it into rho0 to make D unit preserving
    _require_budget(dim_out * dim_out, "register operator", DEFAULT_AMPLITUDE_CAP)
    complement = np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]  # u has orthonormal columns
    if complement.shape[1]:
        if rho0 is None:
            rho0 = _ground_state(dim_in)
        rho0 = _as_operator(rho0, (dim_in, dim_in), "rho0")
        weights, states = np.linalg.eigh(rho0)
        used = weights > 1e-12
        scaled = states[:, used] * np.sqrt(weights[used])  # columns sqrt(p) w
        _require_budget(scaled.shape[1] * complement.size * dim_in, "complement routes")
        # sqrt(p) |w><c_j| for each eigenpair (p, w) of rho0 and complement vector c_j
        routes = np.einsum("ip,kj->pjik", scaled, complement.conj()).reshape(-1, dim_in, dim_out)
        kraus = np.concatenate([kraus, routes])
    return Channel(kraus)


def _ground_state(dim: int) -> np.ndarray:
    """rho0 = |0><0| on C^dim."""
    rho0 = np.zeros((dim, dim), dtype=np.complex128)
    rho0[0, 0] = 1.0
    return rho0


def _max_entangled(d: int) -> np.ndarray:
    """Factor (d^2, 1) of the maximally entangled state on C^d (x) C^d."""
    omega = np.zeros((d * d, 1), dtype=np.complex128)
    omega[:: d + 1] = 1 / np.sqrt(d)
    return omega


@dataclass(frozen=True)
class _Choi:
    """A state on (system) (x) (reference), carried as its factor W (the state is W W*)
    or, once dense, as the state itself."""

    array: np.ndarray
    dense: bool = False

    def state(self) -> np.ndarray:
        return self.array if self.dense else self.array @ self.array.conj().T


def _stage_route(dense: bool, cols: int, shape: tuple, left: int, right: int) -> tuple[bool, bool, int]:
    """(through the superoperator, dense after, columns after) of the _propagate stage of a
    (count, dim_out, dim_in) Kraus stack on a state with `cols` columns (its rows when
    dense), from the shapes alone.  The stage's allocations pass _require_budget here."""
    count, dim_out, dim_in = shape
    rows, rows_in = left * dim_out * right, left * dim_in * right
    if dim_out * dim_in <= rows_in and (dense or count * cols > rows >= rows_in):
        # the state, the superoperator and the product, each with the reordered copy
        # that tensordot or moveaxis makes of it
        _require_budget(2 * (rows_in**2 + (dim_out * dim_in) ** 2 + rows**2), "dense Choi stage")
        return True, True, rows
    cols = rows_in if dense else cols  # a dense state goes back to its eigh factor
    # the tensordot images and their reordered copy
    _require_budget(2 * rows * count * cols, "Choi factor")
    if count * cols > rows:
        _require_budget(rows * rows, "Choi state")
        return False, True, rows
    return False, False, count * cols


def _propagate(choi: _Choi, kraus: np.ndarray, left: int, right: int) -> _Choi:
    """Apply 1_left (x) F (x) 1_right to a state whose rows are (left, stage input, right).

    kraus is a (count, dim_out, dim_in) stack; a whole-register stage is
    left = 1, right = d0 (the reference), one site of a register is the
    site's axis.  A factor W becomes [(1 (x) F_1 (x) 1) W | ... ], one
    tensordot of the stack against W with the Kraus index joined to the
    columns; when that is wider than tall, the state is formed after the
    stage.  A stage whose superoperator sum_k F_k (x) conj(F_k) is no larger
    than the state (one site, or a decoder) acts on a dense state through
    it, on both sides at once, and a site stage that would make the factor
    wider than tall forms the state W W* before it.  A dense state meeting
    a larger stage goes back to a factor, its square root from eigh.  The
    route and its budget are _stage_route's.
    """
    count, dim_out, dim_in = kraus.shape
    rows = left * dim_out * right
    superoperator, dense, _ = _stage_route(choi.dense, choi.array.shape[1], kraus.shape, left, right)
    if superoperator:
        sup = np.tensordot(kraus, kraus.conj(), axes=(0, 0))  # (out, in, out', in')
        rho = choi.state().reshape(left, dim_in, right, left, dim_in, right)
        out = np.tensordot(rho, sup, axes=([1, 4], [1, 3]))  # (left, right, left', right', out, out')
        return _Choi(np.moveaxis(out, (4, 5), (1, 4)).reshape(rows, rows), dense=True)
    if choi.dense:
        vals, vecs = np.linalg.eigh(choi.array)
        choi = _Choi(vecs * np.sqrt(np.clip(vals, 0.0, None)))
    cols = choi.array.shape[1]
    images = np.tensordot(kraus, choi.array.reshape(left, dim_in, right * cols), axes=(2, 1))
    # (K, out, left, right, col) -> rows (left, out, right), columns (k, col)
    out = images.reshape(count, dim_out, left, right, cols).transpose(2, 1, 3, 0, 4)
    out = out.reshape(rows, count * cols)
    if dense:
        return _Choi(out @ out.conj().T, dense=True)
    return _Choi(out)


def choi_state(channel: Channel) -> np.ndarray:
    """Normalized Choi state: feed half of a maximally entangled pair through."""
    d0 = channel.dim_in
    return _propagate(_Choi(_max_entangled(d0)), channel.kraus, 1, d0).state()


def verify_etd(encoder: Channel, noise: Channel, decoder: Channel) -> float:
    """Choi trace distance between decode(noise(encode(.))) and the identity.

    Zero (within tolerance) certifies exact correction; any positive
    value lower-bounds the cb-norm distance of the composite from the
    identity up to normalization.  The Choi state travels as a factor
    through the three stages (see _propagate) until a stage would make
    it wider than tall.
    """
    if encoder.dim_out != noise.dim_in or noise.dim_out != decoder.dim_in:
        raise DimensionMismatch("channels do not compose: E -> T -> D")
    if decoder.dim_out != encoder.dim_in:
        raise DimensionMismatch("composite must return to the encoder input space")
    d0 = encoder.dim_in
    choi = _Choi(_max_entangled(d0))
    for stage in (encoder, noise, decoder):
        choi = _propagate(choi, stage.kraus, 1, d0)
    reference = _max_entangled(d0)
    gaps = np.linalg.eigvalsh(choi.state() - reference @ reference.conj().T)
    return float(0.5 * np.abs(gaps).sum())


def _local_etd(
    code: GraphCode, report: _GraphKL, noise: Optional[Channel], sites: Sequence[int]
) -> float:
    """verify_etd(Channel((V,)), T, synthesize_decoder(V, error_space_basis(n, d, f))) for
    the code's isometry V and report = _graph_kl(code, f), with T the site channel `noise`
    on each of `sites` of the n-site register and identity elsewhere, without forming
    that basis.

    The decoder stays implicit: with Y = (U* (x) 1) rho (U (x) 1) for the
    class images U of _class_images, the decoded state is
    tr_k Y + rho0 (x) (1 / d0 - tr_{k,sys} Y), rho0 = |0><0|, since every
    stage preserves the trace.  tr_k Y comes from the syndrome table
    (_table_decoded) whenever its word pairs fit the budget, otherwise from
    the register-sized route (_dense_decoded), which alone admits noise on
    many sites.  That state is the Choi state of the logical channel D T E;
    its Kraus operators, read off the eigenvectors, go through verify_etd
    with identity noise and decoder.
    """
    d0 = code.d**code.m
    # the state, eigh's copy of it and its eigenvectors, the Kraus operators read off them
    _require_budget(4 * d0**4, "logical Choi state")
    _require_correcting(report.max_deviation)
    _log_rank(len(report.syndrome), report.words)
    try:  # the table's budgets come first, so a refusal allocates nothing of it
        kept = _table_decoded(code, report, noise, sites)
    except DimensionOverflow:
        kept = _dense_decoded(code, report, noise, sites)
    lost = np.eye(d0) / d0 - np.trace(kept, axis1=0, axis2=2)  # tr_sys[(1 - UU*) rho]
    state = kept.reshape(d0 * d0, d0 * d0) + np.kron(_ground_state(d0), lost)
    vals, vecs = np.linalg.eigh(state)
    keep = vals > 0
    logical = Channel((vecs[:, keep] * np.sqrt(d0 * vals[keep])).T.reshape(-1, d0, d0))
    identity = identity_channel(d0)
    return verify_etd(logical, identity, identity)


def _dense_decoded(
    code: GraphCode, report: _GraphKL, noise: Optional[Channel], sites: Sequence[int]
) -> np.ndarray:
    """tr_k Y of _local_etd, shaped (d0, d0, d0, d0), from V.

    The Choi state rho of T E is propagated from V, each noisy site's d x d
    Kraus stack acting on that site's axis (see _propagate), and contracted
    with the class images U of _class_images.  Every stage's route and budget
    are fixed from the shapes before the first runs.
    """
    v = build_isometry(code)
    u = _class_images(code, v, report)
    dim_out, _, d0 = u.shape
    n, d = code.n, code.d
    stages = [(v[None], 1, d0)] + [(noise.kraus, d**site, d ** (n - 1 - site) * d0) for site in sites]
    dense, cols = False, 1  # the shapes first: an oversized stage is refused before any runs
    for kraus, left, right in stages:
        dense, cols = _stage_route(dense, cols, kraus.shape, left, right)[1:]
    # (U* (x) 1) applied to the state's rows: (rank d0) x (columns of W or rho, times d0)
    _require_budget(u.size // dim_out * d0 * cols, "decoded state")
    choi = _Choi(_max_entangled(d0))
    for kraus, left, right in stages:
        choi = _propagate(choi, kraus, left, right)
    u_conj = u.conj()
    if choi.dense:
        rho = choi.array.reshape(dim_out, d0, dim_out, d0)
        half = np.tensordot(u_conj, rho, axes=(0, 0))  # (U* (x) 1) rho: (k, j, a, i, b)
        return np.einsum("kjaib,ikl->jalb", half, u)
    w = choi.array.reshape(dim_out, d0, -1)
    z = np.tensordot(u_conj, w, axes=(0, 0))  # (U* (x) 1) W: (k, j, a, col)
    return np.einsum("kjac,klbc->jalb", z, z.conj())


def _table_decoded(
    code: GraphCode, report: _GraphKL, noise: Optional[Channel], sites: Sequence[int]
) -> np.ndarray:
    """tr_k Y of _dense_decoded from the adjacency matrix and the report's sigma_k and
    tau_k alone: no V, no image and no d^n-sized array.

    Each site Kraus operator is a sum of the site's d^2 Weyl words W_q with
    weights kappa[j, q] = tr(W_q* K_j) / d, so a product of site Kraus
    operators is a sum of the words W_w = X^a Z^b on the noisy sites.  Up to
    a phase, class k's image is Z^(-sigma_k) V w^(-tau_k.x) (_class_images),
    so A_kw = w^(sigma_k.a + tau_k.x') T(a, b + sigma_k) with T of _graph_kl:
    nonzero only when W_w's syndrome lies in sigma_k's coset modulo the
    columns of Gamma_YX, and then the phase w^(sigma_k.a - S_YY(a) + S_XX(x)
    - S_XX(x') - x'.(Gamma_XY a - tau_k)) on the entries x = x' + delta for
    the unique delta with Gamma_YX delta = syndrome(W_w) - sigma_k.  The
    classes of a correcting code lie in distinct cosets, so each word meets
    at most one class, found exactly among the rank d^m shifted syndromes.
    The Kraus index sums out into the noise's process matrix
    chi[w, w'] = prod over the sites of sum_j kappa[j, q_w] conj(kappa[j, q_w']),
    so tr_k Y = sum_k sum_{w, w' meeting k} chi[w, w'] |A_kw>><<A_kw'| / d0.
    Budgeted first from the shapes: the d^(2 |sites|) words and their
    syndromes, the rank d^m cosets, and the word pairs, at most words^2 of
    d0^2 entries.
    """
    d, m, n = code.d, code.m, code.n
    d0, rank, count = d**m, len(report.syndrome), d ** (2 * len(sites))
    _require_budget(3 * count * n, "noise words")
    _require_budget(rank * d0 * n, "syndrome cosets")
    _require_budget(3 * count * count * d0 * d0, "noise word pairs")
    gamma = code.gamma.entries
    letters = _digit_table(count, d * d, len(sites))  # q = a + d*b per noisy site, the first slowest
    shift, clock = np.zeros((count, n), dtype=np.int64), np.zeros((count, n), dtype=np.int64)
    shift[:, list(sites)], clock[:, list(sites)] = letters % d, letters // d
    deltas, module = _column_module(code)
    cosets = ((report.syndrome[:, None, :] + module) % d).reshape(rank * d0, n)  # row k d0 + delta
    label = _row_classes(np.vstack([cosets, _syndromes(code, shift, clock)]))[1]
    coset_of = np.full(len(cosets) + count, -1)
    coset_of[label[: len(cosets)]] = np.arange(len(cosets))
    hit = coset_of[label[len(cosets) :]]
    meet = np.flatnonzero(hit >= 0)
    k, delta = np.divmod(hit[meet], d0)
    a = shift[meet]  # A_kw[x', x' + delta] = w^phase[x'] for W_w = X^a Z^b
    # sigma_k.a - S_YY(a), with S(y) = y.Gamma y / 2 exactly: Gamma is symmetric with a zero diagonal
    scalar = np.einsum("ij,ij->i", a, 2 * report.syndrome[k] - a @ gamma[m:, m:]) // 2
    inputs = np.einsum("ij,jk,ik->i", deltas, gamma[:m, :m], deltas) // 2  # S_XX(x) for x = deltas
    place = d ** np.arange(m - 1, -1, -1)
    column = (deltas[None] + deltas[:, None]) % d @ place  # x' + delta: (delta, x')
    linear = (a @ gamma[m:, :m] - report.dual[k]) @ deltas.T  # x'.(Gamma_XY a - tau_k)
    phase = scalar[:, None] + (inputs[column] - inputs)[delta] - linear
    entries = np.arange(d0) * d0 + column[delta]  # vec(A) index x' d0 + x of each nonzero
    values = _clock_phases(d)[phase % d]
    # the pairs of words meeting one class, grouped by class
    order = np.argsort(k, kind="stable")
    grouped = k[order]
    size = np.bincount(k)[grouped]
    left = np.repeat(order, size)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(size) - size, size)
    right = order[np.repeat(np.searchsorted(grouped, grouped), size) + offset]
    weight = np.ones(len(left), dtype=np.complex128)
    if len(sites):
        weyl = np.stack([weyl_operator(d, q % d, q // d) for q in range(d * d)])
        kappa = np.einsum("qyx,jyx->jq", weyl.conj(), noise.kraus) / d
        chi = kappa.T @ kappa.conj()
        for site_letters in letters[meet].T:
            weight *= chi[site_letters[left], site_letters[right]]
    flat = entries[left][:, :, None] * (d0 * d0) + entries[right][:, None, :]
    terms = (weight / d0)[:, None, None] * values[left][:, :, None] * values[right].conj()[:, None, :]
    kept = np.bincount(flat.ravel(), terms.real.ravel(), d0**4) + 1j * np.bincount(
        flat.ravel(), terms.imag.ravel(), d0**4
    )
    return kept.reshape(d0, d0, d0, d0)
