"""Exact linear algebra over the residue rings Z_d.

The two questions answered here are the rank of a matrix over a prime
field GF(p) and, for arbitrary d >= 2, whether a matrix has trivial
kernel mod d (M h = 0 implies h = 0).  Both go through one batched
Gaussian elimination, rank_prime_batch: first_singular answers the
second question by running it once for each prime divisor of d.  The
elimination multiplies residues in int64 up to MAX_BATCH_MODULUS and in
Python integers above it, so every modulus gets an exact answer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import Optional

import numpy as np

from .errors import CompositeModulus, ParamOutOfRange

__all__ = [
    "ModMatrix",
    "MAX_BATCH_MODULUS",
    "is_prime",
    "rank_prime",
    "rank_prime_batch",
    "kernel_trivial",
    "first_singular",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# rank_prime_batch multiplies residues below d in int64 while (d - 1)^2 fits,
# and in Python integers above this
MAX_BATCH_MODULUS = isqrt(2**63 - 1)


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
    splits what is left.  Cached: a subset scan asks once per chunk.
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


def _inverses(x: np.ndarray, d: int) -> np.ndarray:
    """x^(d-2) mod prime d elementwise: the inverse of every nonzero x."""
    result = np.ones_like(x)
    base, power = x, d - 2
    while power:
        if power & 1:
            result = result * base % d
        base = base * base % d
        power >>= 1
    return result


def rank_prime_batch(mats: np.ndarray, d: int) -> np.ndarray:
    """Ranks over GF(d) of a batch of matrices, vectorized over the batch.

    Each column takes the first row with a nonzero entry as its pivot and
    clears that column from every row, the pivot row included, so a used
    row becomes zero and is never picked again; a matrix whose column is
    already zero is left unchanged.  No rows are swapped.

    Parameters
    ----------
    mats : array of shape (B, N, M), integer entries (reduced internally).
    d : prime modulus.  Up to MAX_BATCH_MODULUS the elimination runs on
        int64 residues; above it, the same elimination runs on arrays of
        Python integers (dtype object), which is slower but exact.

    Returns
    -------
    array of shape (B,) with the GF(d) rank of each matrix.
    """
    _require_prime(d, "modulus d")
    dtype = np.int64 if d <= MAX_BATCH_MODULUS else object
    a = np.mod(np.asarray(mats, dtype=dtype), d)
    if a.ndim != 3:
        raise ValueError(f"expected batch of matrices, got shape {a.shape}")
    batch = np.arange(a.shape[0])
    rank = np.zeros(a.shape[0], dtype=np.int64)
    for col in range(a.shape[2]):
        nonzero = a[:, :, col] != 0
        has = nonzero.any(axis=1)
        if not has.any():
            continue
        pivot_row = a[batch, np.argmax(nonzero, axis=1), :]
        pivot_row = pivot_row * _inverses(pivot_row[:, col], d)[:, None] % d
        a = (a - a[:, :, col, None] * pivot_row[:, None, :]) % d
        rank += has
    return rank


def rank_prime(matrix: ModMatrix) -> int:
    """Rank of a ModMatrix over the prime field GF(d); CompositeModulus otherwise."""
    return int(rank_prime_batch(matrix.entries[None, :, :], matrix.modulus)[0])


def kernel_trivial(matrix: ModMatrix) -> bool:
    """True iff M h = 0 (mod d) implies h = 0 (mod d)."""
    return first_singular(matrix.entries[None], matrix.modulus) is None


def first_singular(mats: np.ndarray, d: int) -> Optional[int]:
    """Index of the first matrix in a (B, N, M) stack with nontrivial kernel mod d.

    Returns None when every kernel is trivial.  By the Chinese remainder
    theorem a matrix has trivial kernel mod d iff it has full column rank
    over GF(p) for every prime p | d: a kernel vector h mod p gives the
    kernel vector p^(e-1) h mod p^e.  So each prime divisor is one batched
    rank_prime_batch call, and later primes only look at the matrices
    before the first failure found so far.
    """
    count, nrows, ncols = mats.shape
    if ncols == 0 or count == 0:
        return None
    if nrows < ncols:
        return 0
    end = count
    for p in _prime_factors(d):
        singular = np.flatnonzero(rank_prime_batch(mats[:end], p) < ncols)
        if singular.size:
            end = int(singular[0])
    return end if end < count else None
