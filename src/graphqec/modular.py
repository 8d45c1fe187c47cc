"""Exact linear algebra over the residue rings Z_d.

The two questions answered here are the rank of a matrix over a prime
field GF(p) and, for arbitrary d >= 2, whether a matrix has trivial
kernel mod d (M h = 0 implies h = 0).  Both go through one batched
kernel, rank_prime_batch: kernel_trivial answers the second question by
running it once for each prime divisor of d.  The kernel reduces each
column of every matrix against a basis of the earlier columns, and a
matrix's rank is the number of its columns that stay nonzero.  Each
column is one batched vector, the batch on the long axis: at d = 2 with
at most 64 rows one uint64 word per matrix (as in M4RI, _Gf2Words), and
otherwise an (N, B) residue array whose dtype, the narrowest of int16,
int32 and int64 that holds the sums of a run of eliminations, follows
from d and the most eliminations a vector takes (_BatchResidues); Python
integers take over above MAX_BATCH_MODULUS, so every modulus gets an
exact answer.  The subset scan of graphs shares its fields (_field),
reduction loop (_reduce_against) and inverses (_inverses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import CompositeModulus, ParamOutOfRange

__all__ = [
    "ModMatrix",
    "MAX_BATCH_MODULUS",
    "is_prime",
    "rank_prime",
    "rank_prime_batch",
    "kernel_trivial",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Residues below d are multiplied in the narrowest of int16, int32 and int64 that
# holds (d - 1) + (d - 1)^2, a residue plus a product of two, so no sum wraps;
# int64 holds it up to this d, and Python integers take over above it
_INT64_MAX = 2**63 - 1
MAX_BATCH_MODULUS = isqrt(_INT64_MAX)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test with the first 13 primes as bases.

    Deterministic for n < 3.3e24, which covers every 64-bit modulus;
    beyond that only a strong pseudoprime to all 13 bases is misjudged.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_modulus(d: int, what: str = "site dimension d") -> None:
    """The ring rule: Z_d needs d >= 2."""
    if not d >= 2:
        raise ParamOutOfRange(f"{what} must be >= 2, got {d}")


def _require_prime(d: int, what: str = "site dimension d") -> None:
    """The field rule: GF(d) and the random-coding arguments need prime d."""
    if not is_prime(d):
        raise CompositeModulus(f"{what} must be prime, got {d}")


@lru_cache(maxsize=64)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct prime divisors of n >= 1, ascending.

    A Miller-Rabin base that divides n splits it first; Pollard's rho
    splits what is left.  Cached: every subset scan and subset check asks.
    """
    if n == 1:
        return ()
    if is_prime(n):
        return (n,)
    divisor = next((p for p in _MR_BASES if n % p == 0), None) or _pollard_rho(n)
    return tuple(sorted(set(_prime_factors(divisor) + _prime_factors(n // divisor))))


def _pollard_rho(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below 43.

    Floyd's cycle search on x -> x^2 + c; when the cycle closes mod n
    itself, the next c is tried.
    """
    for c in itertools.count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(abs(x - y), n)
        if g != n:
            return g


@dataclass(frozen=True, eq=False)
class ModMatrix:
    """A rectangular matrix with entries reduced into [0, modulus).

    entries is stored as a read-only int64 array of shape (rows, cols).
    Zero-column (or zero-row) matrices are allowed; they arise as edge
    cases of submatrix extraction.
    """

    modulus: int
    entries: np.ndarray

    def __post_init__(self):
        _require_modulus(self.modulus, "modulus")
        arr = np.asarray(self.entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"entries must be 2-D, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.modulus):
            raise ValueError("entries must lie in [0, modulus)")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def reduce(cls, modulus: int, entries) -> "ModMatrix":
        """Build a ModMatrix by reducing arbitrary integers mod d."""
        arr = np.mod(np.asarray(entries, dtype=np.int64), modulus)
        return cls(modulus, arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _reduce(x: np.ndarray, d: int) -> np.ndarray:
    """x mod d in place, returned.  A long fixed-width x takes x - (x // d) d:
    numpy divides by a scalar about ten times faster than it takes the
    remainder, which pays for the two extra passes from about a thousand
    entries on.  Shorter arrays and Python integers take one remainder."""
    if x.dtype.kind == "O" or x.size < 1024:
        return np.remainder(x, d, out=x)
    x -= x // d * d
    return x


def _inverses(x: np.ndarray, d: int) -> np.ndarray:
    """x^(d-2) mod prime d elementwise: the inverse of every nonzero x, and 0 for 0 if d > 2."""
    result = np.ones_like(x)
    base, power = x, d - 2
    while power:
        if power & 1:
            result = _reduce(result * base, d)
        base = _reduce(base * base, d)
        power >>= 1
    return result


def _residues(a: np.ndarray, d: int, dtype) -> np.ndarray:
    """a mod d stored as dtype in a's memory order, reduced in a type that holds
    every entry and d."""
    if a.dtype.kind == "O" or dtype is object:  # Python integers: exact at any size
        return np.mod(a.astype(object), d).astype(dtype)
    if d == 2 and a.dtype.kind != "f":  # the low bit, also of a negative entry
        return np.bitwise_and(a, 1, out=np.empty_like(a, dtype), casting="unsafe")
    if a.dtype.kind in "biu" and (not a.size or a.min() >= 0 and a.max() < d):  # residues already
        return a.astype(dtype)
    divisor = np.uint64(d) if a.dtype.kind == "u" else np.int64(d)
    return np.remainder(a, divisor, out=np.empty_like(a, dtype), casting="unsafe")


def _residue_dtype(d: int, steps: int = 1):
    """The narrowest of int16, int32 and int64 that holds (d - 1) + steps (d - 1)^2,
    a residue plus `steps` products of two residues, else object."""
    bound = (d - 1) + steps * (d - 1) ** 2
    return next((t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max), object)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """0/1 vectors of length <= 64 along the last axis as uint64 words, entry j as bit j."""
    padded = np.zeros(bits.shape[:-1] + (64,), dtype=np.uint8)
    padded[..., : bits.shape[-1]] = bits
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")[..., 0].astype(np.uint64)


class _Gf2Words:
    """Vectors over GF(2) of length <= 64, each one uint64 word (see _pack_bits).

    A vector's pivot is its lowest set bit, and every operand of the word
    arithmetic is a np.uint64 array, so no Python integer promotes it.  A
    word is always reduced, so reduce is the identity.
    """

    interval = 2**62  # reduce is the identity, so never needed between eliminations

    @staticmethod
    def vectors(a):
        """The (..., N, B) array a, N <= 64, as a (..., B) array of words."""
        return _pack_bits(_residues(a, 2, np.uint8).swapaxes(-1, -2))

    @staticmethod
    def pivot(x):
        return x & (~x + np.uint64(1))

    @staticmethod
    def eliminate(x, b, pivot):
        return x ^ b * ((x & pivot) != 0)

    @staticmethod
    def reduce(x):
        return x

    @staticmethod
    def zero(x):
        return x == 0


class _BatchResidues:
    """Vectors over GF(p) as (N, B) arrays of residues, the batch on the long,
    contiguous, last axis.

    An elimination adds c b to a vector x, where c = -x[pivot] / b[pivot] is
    reduced on its own, a (B,) array, so x grows by at most (p - 1)^2.  x
    itself is reduced after every `interval`-th elimination and once at its
    end (_reduce_against).  interval is `steps`, the most eliminations a
    vector takes, so no vector is reduced partway, unless int64 cannot hold
    that many products; then it is as many as int64 holds, 1 near
    MAX_BATCH_MODULUS and for Python integers above it.  dtype is the
    narrowest that holds (p - 1) + interval (p - 1)^2 (_residue_dtype).  A
    pivot is a (2, B) array: the last nonzero row of each reduced vector,
    and the negated inverse of the entry there.
    """

    def __init__(self, p: int, steps: int):
        self.p = p
        self.interval = max(1, min(steps, (_INT64_MAX - (p - 1)) // (p - 1) ** 2))
        self.dtype = _residue_dtype(p, self.interval)
        self._columns = {}

    def vectors(self, a):
        """The (..., N, B) array a as residues, contiguous."""
        return np.ascontiguousarray(_residues(a, self.p, self.dtype))

    def pivot(self, x):
        rows = np.arange(len(x), dtype=np.min_scalar_type(-len(x)))[:, None]
        row = ((x != 0) * rows).max(axis=0)
        negated_inverse = _reduce(self.p - _inverses(self._at(x, row), self.p), self.p)
        return np.stack([row, negated_inverse])

    def eliminate(self, x, b, pivot):
        row, negated_inverse = pivot
        x += b * _reduce(_reduce(self._at(x, row), self.p) * negated_inverse, self.p)
        return x

    def _at(self, x, row):
        """x[row[j], j] for every j; the column offsets are built once per batch width."""
        count = x.shape[-1]
        columns = self._columns.get(count)
        if columns is None:
            columns = self._columns[count] = np.arange(count)
        return x.ravel().take(row.astype(np.intp) * count + columns)

    def reduce(self, x):
        return _reduce(x, self.p)

    def zero(self, x):
        return ~(x != 0).any(axis=0)


def _field(p: int, rows: int, steps: int):
    """The field of vectors of `rows` entries over GF(p) that take at most
    `steps` eliminations: words at p = 2 with rows <= 64, else residues."""
    return _Gf2Words() if p == 2 and rows <= 64 else _BatchResidues(p, steps)


def _reduce_against(field, basis, *vectors) -> list:
    """The vectors, each reduced against basis, an iterable of (vector, pivot)
    pairs with distinct pivots: every elimination reduces only its
    coefficient, and a vector is reduced after every field.interval-th
    elimination before the last, and at the end."""
    vectors, basis = list(vectors), list(basis)
    for step, (b, pivot) in enumerate(basis, 1):
        for i, x in enumerate(vectors):
            vectors[i] = field.eliminate(x, b, pivot)
        if step % field.interval == 0 and step < len(basis):
            vectors = [field.reduce(x) for x in vectors]
    return [field.reduce(x) for x in vectors]


def rank_prime_batch(mats: np.ndarray, d: int) -> np.ndarray:
    """Ranks over GF(d) of a batch of matrices, vectorized over the batch.

    Each column is reduced against a basis of the earlier columns, whose
    vectors have distinct pivots; a matrix's rank is the number of its
    columns that stay nonzero.  A column that is zero in every matrix of
    the batch is left out of the basis.

    The representation follows from d and the row count N.  At d = 2 with
    N <= 64 each column of a matrix is one uint64 word, and an elimination
    is one XOR (_Gf2Words).  Otherwise each column is an (N, B) array of
    residues with the batch on the long axis (_BatchResidues): its dtype
    is the narrowest of int16, int32 and int64 that holds the sum of the
    eliminations between two reductions, which follows from d and the
    column count, with int64 reducing after every elimination as d nears
    MAX_BATCH_MODULUS.  Above that the same elimination runs on Python
    integers (dtype object), which is slower but exact.

    Parameters
    ----------
    mats : array of shape (B, N, M), integer entries of any sign, size and
        dtype (reduced mod d internally).
    d : prime modulus.

    Returns
    -------
    array of shape (B,) with the GF(d) rank of each matrix.
    """
    _require_prime(d, "modulus d")
    a = np.asarray(mats)
    if a.ndim != 3:
        raise ValueError(f"expected batch of matrices, got shape {a.shape}")
    count, rows, cols = a.shape
    rank = np.zeros(count, dtype=np.int64)
    if 0 in a.shape:
        return rank
    field = _field(d, rows, cols - 1)
    basis = []
    for x in field.vectors(a.transpose(2, 1, 0)):
        (x,) = _reduce_against(field, basis, x)
        independent = ~field.zero(x)
        rank += independent
        if independent.any():
            basis.append((x, field.pivot(x)))
    return rank


def rank_prime(matrix: ModMatrix) -> int:
    """Rank of a ModMatrix over the prime field GF(d); CompositeModulus otherwise."""
    return int(rank_prime_batch(matrix.entries[None, :, :], matrix.modulus)[0])


def kernel_trivial(matrix: ModMatrix) -> bool:
    """True iff M h = 0 (mod d) implies h = 0 (mod d).

    By the Chinese remainder theorem that holds iff M has full column rank
    over GF(p) for every prime p | d: a kernel vector h mod p gives the
    kernel vector p^(e-1) h mod p^e.  So each prime divisor is one
    rank_prime_batch call.
    """
    rows, cols = matrix.entries.shape
    return rows >= cols and all(
        rank_prime_batch(matrix.entries[None], p)[0] == cols for p in _prime_factors(matrix.modulus)
    )
