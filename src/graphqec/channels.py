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
evaluates the Gram blocks in closed form from the adjacency matrix
(Schlingemann and Werner's character sums), which needs of each word
X^s Z^c only its row [Gamma_XY s | Gamma_YY s - c] mod d.  One routine
(_words) writes those rows for any word set given as the error bases
give theirs (subsets and per-site letters), from the rows of Gamma at
each word's own sites, so no product with an n x n block is formed; the
error space and the syndrome table's noise words both pass through it.
Two syndrome classes interfere exactly when they share a coset of the
columns of Gamma_YX, which their keys mod every p^k || d decide
(graphs._projection); every class lookup sorts rows packed into int64
words (_row_classes).  The
report keeps each class as sigma = Gamma_YY s - c and tau = Gamma_XY s
of a word X^s Z^c in it, and simulate's decoded logical channel reads
the classes from there on both routes: the syndrome table
(_table_decoded), where V* F_k* W V is a phase times a logical Weyl
operator Z^b X^(-delta), so each noise word that meets a class carries
its label (delta, b) and one phase, and the same-class word pairs add the
noise's Weyl process matrix, read off its Choi state, into one
d0^2 x d0^2 logical process matrix, with no d^n-sized and no per-word
array; and past the table's budget (noise on many sites) the
register-sized route (_dense_decoded), whose class images are phases of
V, F V = w^(-sigma.y - tau.x) V up to a phase (_class_images).  The d^2
Weyl letters of a site, X^a Z^b at q = a + d*b, are built in one place
(_weyl_letters), which the error bases, noise.make_depolarizing and the
table's process matrix read.  Every input-sized array passes the gate
graphs._require_budget.
Choi states are contracted by one routine, _propagate, and every pipeline
starts in one driver (_propagate_stages), which fixes each stage's route
and budget from the shapes before the first runs.  A state W W* on
(system) (x) (d0-level reference) is carried as its factor W, and a stage
acts on one axis of W's rows (left, stage input, right): the whole register
for verify_etd's stages, one site for the register-sized route's noise.
Only when a stage would make W wider than tall is the dense state formed;
it meets a site stage through the superoperator, any other stage one side
at a time.  simulate's decoder stays implicit on both routes (_local_etd),
and the resulting d0-level logical channel is certified by verify_etd.
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
    _projection,
    _require_budget,
    _require_error_count,
    _require_residue_table,
    build_isometry,
)
from .modular import _prime_factors, _residue_dtype, _residues

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
    """Schroedinger action sum_j F_j rho F_j*: one _propagate stage on rho, budgeted there."""
    rho = _as_operator(rho, (channel.dim_in, channel.dim_in), "state")
    return _propagate(_Choi(rho, dense=True), channel.kraus, 1, 1).array


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


def _weyl_letters(d: int) -> np.ndarray:
    """Every weyl_operator(d, a, b) as one (d^2, d, d) stack, letter q = a + d*b, each
    bitwise equal to weyl_operator's.  Budgeted (d^4 amplitudes) before any d-sized array."""
    _require_budget(d**4, "Weyl letters")
    letters, k = np.zeros((d, d, d, d), dtype=np.complex128), np.arange(d)  # (b, a, row, column)
    letters[:, k[:, None], (k + k[:, None]) % d, k] = np.array([_clock_phases(d, b) for b in range(d)])[:, None]
    return letters.reshape(d * d, d, d)


def _error_basis(n: int, d: int, subsets: Iterable[tuple], letters: range) -> list[np.ndarray]:
    """Every word with a letter from `letters` (q = a + d*b -> X^a Z^b of _weyl_letters) on
    each site of each subset, identity elsewhere: views into one Kronecker stack per subset.
    The letters are read only when some subset is non-empty."""
    _require_budget(d ** (2 * n), "each error operator", DEFAULT_AMPLITUDE_CAP)
    subsets = list(subsets)
    _require_budget(sum(len(letters) ** len(z) for z in subsets) * (d**n) ** 2, "error basis")
    weyl = _weyl_letters(d)[letters] if any(subsets) else None
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
    return _error_basis(n, d, *_error_space(n, d, f))


def _error_space(n: int, d: int, f: int) -> tuple[Iterable[tuple], range]:
    """(subsets, letters) of _error_basis for the words on at most f of n sites: the subsets by
    size, each size in lexicographic order, and the letters q >= 1.  ParamOutOfRange (a
    ValueError) for negative f."""
    _require_error_count(f)
    return (z for size in range(f + 1) for z in itertools.combinations(range(n), size)), range(1, d * d)


def _words(code: GraphCode, ways: dict, subsets: Iterable[tuple], letters: range, what: str) -> np.ndarray:
    """[Gamma_XY s | Gamma_YY s - c] mod d of each word X^s Z^c of
    _error_basis(code.n, code.d, subsets, letters), in its order: one (words, m + n) int64
    array, filled size by size.  The words on the subsets of one size are their shift
    digits times the rows of Gamma at each subset's sites, (subsets x size x (m + n)),
    less their clock digits at those sites.  An empty subset's identity word keeps its
    zero row, so its letters are never read.  ways[size] counts the subsets of each size,
    so the peak passes the gate, as `what`, before any subset is read: the rows, and the
    largest size's gathered rows of Gamma and product."""
    d, m, gamma = code.d, code.m, code.gamma.entries
    base = letters.stop - letters.start  # len() cannot hold d^2 - 1 past 2^63
    count = sum(w * base**size for size, w in ways.items())
    _require_budget((count + max(size and w * (size + base**size) for size, w in ways.items())) * len(gamma), what)
    rows, row = np.zeros((count, len(gamma)), dtype=np.int64), 0
    for size, group in itertools.groupby(subsets, len):
        sites = m + np.array(list(group), dtype=np.intp, ndmin=2)
        if size:  # letter q = start + t is X^(q mod d) Z^(q div d), the first site slowest
            clock, shift = np.divmod(letters.start + _digit_table(base**size, base, size), d)
            product = _mod_matmul(shift, gamma[sites], d)
            product.transpose(0, 2, 1)[np.arange(len(sites))[:, None], sites] -= clock.T
            np.remainder(product, d, out=rows[row : row + product.shape[0] * product.shape[1]].reshape(product.shape))
        row += len(sites) * base**size
    return rows


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
    syndrome class k in the order of error_space_basis (its word row of _words); both are
    None when V is no isometry.
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
    and tau.  By the Chinese remainder theorem two classes share a coset of
    Gamma_YX's columns exactly when their keys, the rows without a pivot of
    [Gamma_YX | sigma^T] row-reduced mod q (graphs._projection), agree mod
    every q = p^k || d.  The words are the subsets and letters of
    error_space_basis, each read as its row of _words.  Budgeted: the word
    rows at their peak (in _words, before any word is enumerated), and the
    key table by what it holds (graphs._require_residue_table), so the
    subset scan's smaller table of a failing code admitted here fits its
    own gate; no d^n-sized, no K x K array.
    """
    d, m, n = code.d, code.m, code.n
    rows = _words(code, {size: math.comb(n, size) for size in range(f + 1)}, *_error_space(n, d, f), "error words")
    if m > n:  # Gamma_YX has more columns than rows
        return _GraphKL(len(rows), 1.0)
    first, label = _row_classes(rows[:, m:], d)
    split = bool((rows[:, :m] != rows[first, :m][label]).any())
    syndromes, dual = rows[first, m:], rows[first, :m]
    moduli = {p: math.gcd(d, p ** d.bit_length()) for p in _prime_factors(d)}  # p^k || d
    _require_residue_table(n * (m + len(syndromes)), "coset keys", *moduli.values())
    table, keys = np.hstack([code.gamma.entries[m:, :m], syndromes.T]), []
    for p, q in moduli.items():
        kept, full = _projection(_residues(table[None], q, _residue_dtype(q)), m, q, p)
        if not full[0]:
            return _GraphKL(len(rows), 1.0)
        keys.append(kept[0, :, m:].T)
    shared = len(_row_classes(np.hstack(keys), d)[0]) < len(syndromes)
    return _GraphKL(len(rows), 1.0 if split or shared else 0.0, syndromes, dual)


def _row_classes(rows: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, label) of the equal rows of a 2-D array of residues mod d: the index of each
    class's first row, and each row's class, classes in lexicographic order of their rows.
    Each row packs into int64 words of up to 63 // bits(d - 1) entries, its first entry most
    significant, so the words compare and sort as the rows do, one sort key a word."""
    count, width = rows.shape
    bits = (d - 1).bit_length()
    per = max(1, min(63 // bits, width))
    words = max(1, -(-width // per))
    padded = np.zeros((count, words * per), dtype=np.int64)
    padded[:, :width] = rows  # trailing zeros: the same in every row
    packed = padded.reshape(count, words, per) @ (1 << bits * np.arange(per - 1, -1, -1, dtype=np.int64))
    order = np.lexsort(packed.T[::-1])  # stable, so a run of equal rows starts at its first
    ordered = packed[order]
    starts = np.ones(count, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    label = np.empty(count, dtype=np.intp)
    label[order] = np.cumsum(starts) - 1
    return order[starts], label


def _mod_matmul(a: np.ndarray, b: np.ndarray, d: int) -> np.ndarray:
    """a @ b mod d as int64 for residue arrays a and b, in Python integers when int64
    cannot hold the sums."""
    if _residue_dtype(d, a.shape[-1]) is object:
        return (a.astype(object) @ b.astype(object) % d).astype(np.int64)
    product = a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)
    return np.remainder(product, d, out=product)


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
    d, phases = code.d, []
    _require_budget(len(report.syndrome) * v.size, "error images")
    # w^(-sigma.y) of each row y, w^(-tau.x) of each column x; the digit table is V's own
    for weights, count in zip((report.syndrome, report.dual), v.shape):
        exponent = _digit_table(count, d, weights.shape[1]) @ -weights.T
        exponent %= d
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
    dense), from the shapes alone: only a site stage (dim_out dim_in < rows_in) goes through
    its superoperator.  The stage's allocations pass _require_budget here."""
    count, dim_out, dim_in = shape
    rows, rows_in = left * dim_out * right, left * dim_in * right
    if dim_out * dim_in < rows_in and (dense or count * cols > rows >= rows_in):
        # the state, the superoperator and the product, each with the reordered copy
        # that tensordot or moveaxis makes of it
        _require_budget(2 * (rows_in**2 + (dim_out * dim_in) ** 2 + rows**2), "dense Choi stage")
        return True, True, rows
    if dense:  # the state, its one-sided images and their reordered copy, the product
        _require_budget(rows_in**2 + 2 * count * rows * rows_in + rows**2, "dense Choi stage")
        return False, True, rows
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
    stage.  A site stage acts on a dense state through its superoperator
    sum_k F_k (x) conj(F_k), on both sides at once, and a site stage that
    would make the factor wider than tall forms the state W W* before it.
    Any other stage meets a dense state rho one side at a time: the same
    tensordot gives (1 (x) F_k (x) 1) rho, and a second sums its products
    with (1 (x) F_k* (x) 1) over k.  The route and its budget are
    _stage_route's.
    """
    count, dim_out, dim_in = kraus.shape
    rows = left * dim_out * right
    superoperator, dense, _ = _stage_route(choi.dense, choi.array.shape[1], kraus.shape, left, right)
    if superoperator:
        sup = np.tensordot(kraus, kraus.conj(), axes=(0, 0))  # (out, in, out', in')
        rho = choi.state().reshape(left, dim_in, right, left, dim_in, right)
        out = np.tensordot(rho, sup, axes=([1, 4], [1, 3]))  # (left, right, left', right', out, out')
        return _Choi(np.moveaxis(out, (4, 5), (1, 4)).reshape(rows, rows), dense=True)
    cols = choi.array.shape[1]
    images = np.tensordot(kraus, choi.array.reshape(left, dim_in, right * cols), axes=(2, 1))
    if choi.dense:  # images (k, out, left, right, left', in', right'), times conj(F_k) on in'
        images = images.reshape(count, dim_out, left, right, left, dim_in, right)
        out = np.tensordot(images, kraus.conj(), axes=([0, 5], [0, 2]))  # (out, left, right, left', right', out')
        return _Choi(np.moveaxis(out, (0, 5), (1, 4)).reshape(rows, rows), dense=True)
    # (K, out, left, right, col) -> rows (left, out, right), columns (k, col)
    out = images.reshape(count, dim_out, left, right, cols).transpose(2, 1, 3, 0, 4)
    out = out.reshape(rows, count * cols)
    if dense:
        return _Choi(out @ out.conj().T, dense=True)
    return _Choi(out)


def _propagate_stages(stages: Sequence[tuple], d0: int) -> _Choi:
    """The state after each (kraus, left, right) stage of _propagate in turn, from the
    maximally entangled state on C^d0 (x) C^d0.  Every stage's route and budget are fixed
    from the shapes first, so an oversized stage is refused before any stage runs."""
    dense, cols = False, 1
    for kraus, left, right in stages:
        dense, cols = _stage_route(dense, cols, kraus.shape, left, right)[1:]
    choi = _Choi(_max_entangled(d0))
    for kraus, left, right in stages:
        choi = _propagate(choi, kraus, left, right)
    return choi


def choi_state(channel: Channel) -> np.ndarray:
    """Normalized Choi state: feed half of a maximally entangled pair through."""
    d0 = channel.dim_in
    return _propagate_stages([(channel.kraus, 1, d0)], d0).state()


def _weyl_process_matrix(channel: Channel) -> np.ndarray:
    """chi of a channel T on C^d in the letters W_q of _weyl_letters, q = a + d*b:
    T(rho) = sum chi[q, q'] W_q rho W_q'*.  Read off the Choi state J of choi_state as
    chi[q, q'] = vec(W_q)* J vec(W_q') / d, so it depends on T alone, not on its Kraus set."""
    weyl = _weyl_letters(channel.dim_in).reshape(channel.dim_in**2, -1)
    return weyl.conj() @ choi_state(channel) @ weyl.T / channel.dim_in


def verify_etd(encoder: Channel, noise: Channel, decoder: Channel) -> float:
    """Choi trace distance between decode(noise(encode(.))) and the identity.

    Zero (within tolerance) certifies exact correction; any positive
    value lower-bounds the cb-norm distance of the composite from the
    identity up to normalization.  The Choi state travels as a factor
    through the three stages (see _propagate) until a stage would make
    it wider than tall; an oversized stage is refused before any runs.
    """
    if encoder.dim_out != noise.dim_in or noise.dim_out != decoder.dim_in:
        raise DimensionMismatch("channels do not compose: E -> T -> D")
    if decoder.dim_out != encoder.dim_in:
        raise DimensionMismatch("composite must return to the encoder input space")
    d0 = encoder.dim_in
    choi = _propagate_stages([(stage.kraus, 1, d0) for stage in (encoder, noise, decoder)], d0)
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
    (_table_decoded), a d0^2 x d0^2 logical process matrix in the logical
    Weyl basis, whenever its word pairs fit the budget (one scalar a pair),
    otherwise from the register-sized route (_dense_decoded), which alone
    admits noise on many sites.  The logical Choi state budget, checked
    first, also covers the table's 4 d0^4 amplitudes at its peak, so a d0
    it refuses is refused on either route with the same message.  The
    decoded state is the Choi state of the logical channel D T E; its Kraus
    operators, read off the eigenvectors, go through verify_etd with
    identity noise and decoder.  The smallest eigenvalues, while their sum
    stays at most 1e-13, are roundoff and give no operator: the state moves
    by at most 1e-13 in trace norm, and verify_etd meets the channel's rank,
    not the state's d0^2.
    """
    d0 = code.d**code.m
    # the state, eigh's copy of it and its eigenvectors, the Kraus operators read off them;
    # also the table's logical process matrix, its change of basis and result
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
    keep = np.cumsum(np.maximum(vals, 0.0)) > 1e-13  # the smallest, summing to <= 1e-13: roundoff
    logical = Channel((vecs[:, keep] * np.sqrt(d0 * vals[keep])).T.reshape(-1, d0, d0))
    identity = identity_channel(d0)
    return verify_etd(logical, identity, identity)


def _dense_decoded(
    code: GraphCode, report: _GraphKL, noise: Optional[Channel], sites: Sequence[int]
) -> np.ndarray:
    """tr_k Y of _local_etd, shaped (d0, d0, d0, d0), from V.

    The Choi state goes from V through each noisy site's d x d Kraus stack,
    on that site's axis, and last through the adjoints U_k* of the class
    images U of _class_images, in one _propagate_stages.  Since
    rank d0 <= d^n, that last stage needs no more than those before it.
    """
    v = build_isometry(code)
    u = _class_images(code, v, report)
    n, d, d0 = code.n, code.d, v.shape[1]
    noisy = [(noise.kraus, d**site, d ** (n - 1 - site) * d0) for site in sites]
    stages = [(v[None], 1, d0), *noisy, (u.conj().transpose(1, 2, 0), 1, d0)]
    return _propagate_stages(stages, d0).state().reshape(d0, d0, d0, d0)


def _table_decoded(
    code: GraphCode, report: _GraphKL, noise: Optional[Channel], sites: Sequence[int]
) -> np.ndarray:
    """tr_k Y of _dense_decoded from the adjacency matrix and the report's sigma_k and
    tau_k alone: no V, no image, no d^n-sized array, and per noise word a label and a
    phase, not a register row.

    Each site Kraus operator is a sum of the site's d^2 Weyl letters W_q
    (_weyl_letters), so a product of site Kraus operators is a sum of the
    words W_w = X^a Z^b on the noisy sites.  Up to a phase, class k's
    image is Z^(-sigma_k) V w^(-tau_k.x) (_class_images), so
    A_kw = w^(sigma_k.a + tau_k.x') T(a, b + sigma_k) with T of _graph_kl:
    nonzero only when W_w's syndrome lies in sigma_k's coset modulo the
    columns of Gamma_YX, and then the phase w^(sigma_k.a - S_YY(a) + S_XX(x)
    - S_XX(x') - x'.(Gamma_XY a - tau_k)) on the entries x = x' + delta for
    the unique delta with Gamma_YX delta = syndrome(W_w) - sigma_k.  The
    words are those of localized_error_basis(n, d, sites), and each is read
    as its row [Gamma_XY a | Gamma_YY a - b] of _words.  The
    classes of a correcting code lie in distinct cosets, so each word meets
    at most one class, read off the coset row that starts its _row_classes
    class (the rank d^m shifted syndromes come first).  Gamma is symmetric
    with a zero diagonal, so S_XX(x' + delta) - S_XX(x') = x'.Gamma_XX delta
    + S_XX(delta): the phase is affine in x', and A_kw = w^(c/2) Z^b X^(-delta)
    on the logical levels, a Weyl operator with the label (delta, b),
    b = Gamma_XX delta - Gamma_XY a + tau_k, Gamma_XY a from the word's row,
    and the even exponent c = 2 sigma_k.a - a.Gamma_YY a + delta.Gamma_XX delta,
    in exact integers, since c / 2 is needed mod d: a lies on the noisy
    sites, so a.Gamma_YY a reads the |sites| x |sites| block of Gamma.  The
    Kraus index sums out into the process matrix chi[w, w'] = prod over the sites of the
    noise's chi[q_w, q_w'] (_weyl_process_matrix, read off its Choi state, so
    every Kraus set of one channel gives one chi), so each pair of words meeting
    one class adds the scalar chi[w, w'] w^((c_w - c_w')/2) / d0 at
    [(delta, b), (delta', b')] of a d0^2 x d0^2 logical process matrix P, and
    tr_k Y = sum P[L, L'] vec(W_L) vec(W_L')* for W_(delta, b) = Z^b X^(-delta),
    whose vec is w^(b.x') at x' d0 + x' + delta: one change of basis, the
    characters w^(b.x') on each (delta, delta') block.  Budgeted first from
    the shapes: the rank d^m cosets, the word pairs, at most words^2 of one
    scalar each, and the d^(2 |sites|) word rows at their peak (in _words);
    the noise's d^2 letters (d^4 amplitudes) in _weyl_letters.  P, the
    change of basis's intermediate product, its blocks and the gathered
    result (4 d0^4 amplitudes) lie within _local_etd's logical Choi state budget.
    """
    d, m, n = code.d, code.m, code.n
    d0, rank, count = d**m, len(report.syndrome), d ** (2 * len(sites))
    _require_budget(rank * d0 * n, "syndrome cosets")
    _require_budget(3 * count * count, "noise word pairs")
    words = _words(code, {len(sites): 1}, [tuple(sites)], range(d * d), "noise words")
    gamma, near = code.gamma.entries, m + np.array(sites, dtype=np.intp)
    deltas = _digit_table(d0, d, m)  # every delta of Z_d^m, digit 0 most significant
    module = _mod_matmul(deltas, gamma[:m, m:], d)  # (Gamma_YX delta)^T
    cosets = ((report.syndrome[:, None, :] + module) % d).reshape(rank * d0, n)  # row k d0 + delta
    first, label = _row_classes(np.vstack([cosets, words[:, m:]]), d)
    hit = first[label[len(cosets) :]]  # a coset's row exactly when one holds the word's syndrome
    meet = np.flatnonzero(hit < len(cosets))
    k, delta = np.divmod(hit[meet], d0)
    letters = _digit_table(count, d * d, len(sites))[meet]  # q = a + d*b per noisy site, the first slowest
    a, e = letters % d, deltas[delta]  # A_kw = w^(c/2) Z^b X^(-e) for W_w = X^a Z^b, a on the sites
    place = d ** np.arange(m - 1, -1, -1)
    b = (e @ gamma[:m, :m] - words[meet, :m] + report.dual[k]) % d @ place
    # c = 2 sigma_k.a - a.Gamma_YY a + e.Gamma_XX e in exact integers, even: Gamma is symmetric
    # with a zero diagonal
    c = (a * (2 * report.syndrome[:, near - m][k] - a @ gamma[near][:, near])).sum(1) + (e @ gamma[:m, :m] * e).sum(1)
    left, right = np.nonzero(k[:, None] == k)  # the pairs of words meeting one class
    weight = _clock_phases(d)[(c[left] - c[right]) // 2 % d] / d0
    chi = _weyl_process_matrix(noise) if len(sites) else None
    for site_letters in letters.T:
        weight *= chi[site_letters[left], site_letters[right]]
    pairs = (delta[left] * d0 + delta[right]) * d0 * d0 + b[left] * d0 + b[right]  # (delta, delta', b, b')
    process = np.bincount(pairs, weight.real, d0**4) + 1j * np.bincount(pairs, weight.imag, d0**4)
    # the change of basis: vec(Z^b X^(-delta)) is w^(b.x') at x' d0 + x' + delta
    characters = _clock_phases(d)[deltas @ deltas.T % d]  # w^(b.x'), symmetric
    blocks = characters @ process.reshape(d0, d0, d0, d0) @ characters.conj()  # (delta, delta', x', y')
    x, offset = np.arange(d0), (deltas[None] - deltas[:, None]) % d @ place  # x - x': (x', x)
    return blocks[offset[:, :, None, None], offset[None, None], x[:, None, None, None], x[None, None, :, None]]
