"""Exact linear algebra over the residue rings Z_d.

The two questions answered here are the rank of a matrix over a prime
field GF(d) and, for arbitrary d >= 2, whether a matrix has trivial
kernel mod d (M h = 0 implies h = 0).  first_singular is the one place
that picks the algorithm for the second question: batched Gaussian
elimination for prime d; for composite d, which elimination cannot
settle, the Smith normal form of the integer lift, one matrix at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional

import numpy as np

from .errors import CompositeModulus, DimensionOverflow

__all__ = [
    "ModMatrix",
    "MAX_BATCH_MODULUS",
    "is_prime",
    "rank_prime",
    "rank_prime_batch",
    "kernel_trivial",
    "first_singular",
    "smith_normal_form",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# rank_prime_batch multiplies residues below d in int64: (d - 1)^2 must fit
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
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
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

    Parameters
    ----------
    mats : array of shape (B, N, M), integer entries (reduced internally).
    d : prime modulus, at most MAX_BATCH_MODULUS (DimensionOverflow beyond).

    Returns
    -------
    array of shape (B,) with the GF(d) rank of each matrix.
    """
    if not is_prime(d):
        raise CompositeModulus(f"rank over GF(d) needs prime d, got {d}")
    if d > MAX_BATCH_MODULUS:
        raise DimensionOverflow(
            f"prime modulus {d} exceeds {MAX_BATCH_MODULUS}: int64 residue products would overflow"
        )
    a = np.mod(np.asarray(mats, dtype=np.int64), d)
    if a.ndim != 3:
        raise ValueError(f"expected batch of matrices, got shape {a.shape}")
    nb, nrows, ncols = a.shape
    if nrows == 0 or ncols == 0:
        return np.zeros(nb, dtype=np.int64)
    batch = np.arange(nb)
    all_rows = np.arange(nrows)[None, :]
    row = np.zeros(nb, dtype=np.int64)  # next pivot row per matrix
    for col in range(ncols):
        eligible = (all_rows >= row[:, None]) & (a[:, :, col] != 0)
        has = eligible.any(axis=1)
        if not has.any():
            continue
        piv = np.where(has, np.argmax(eligible, axis=1), 0)
        # swap the pivot row into position via a per-matrix permutation
        perm = np.tile(np.arange(nrows), (nb, 1))
        perm[batch[has], row[has]] = piv[has]
        perm[batch[has], piv[has]] = row[has]
        a = np.take_along_axis(a, perm[:, :, None], axis=1)
        safe_row = np.minimum(row, nrows - 1)  # exhausted matrices gather garbage,
        pivot_val = a[batch, safe_row, col]  # masked out below via `has`
        scale = _inverses(pivot_val, d)  # garbage without a pivot, masked the same way
        pivot_row = (a[batch, safe_row, :] * scale[:, None]) % d
        a[batch[has], row[has], :] = pivot_row[has]
        below = (all_rows > row[:, None]) & has[:, None]
        factor = a[:, :, col] * below
        a = (a - factor[:, :, None] * pivot_row[:, None, :]) % d
        row = row + has
    return row


def rank_prime(matrix: ModMatrix) -> int:
    """Rank of a ModMatrix over the prime field GF(d)."""
    if not is_prime(matrix.modulus):
        raise CompositeModulus(
            f"rank is only defined over a field; modulus {matrix.modulus} is composite"
        )
    return int(rank_prime_batch(matrix.entries[None, :, :], matrix.modulus)[0])


def kernel_trivial(matrix: ModMatrix) -> bool:
    """True iff M h = 0 (mod d) implies h = 0 (mod d)."""
    return first_singular(matrix.entries[None], matrix.modulus) is None


def first_singular(mats: np.ndarray, d: int) -> Optional[int]:
    """Index of the first matrix in a (B, N, M) stack with nontrivial kernel mod d.

    Returns None when every kernel is trivial.  For prime d this is full
    column rank over GF(d), decided for the whole batch at once.  For
    composite d the integer lift's Smith normal form decides it, one
    matrix at a time up to the first failure: the kernel is trivial iff
    all M invariant factors are coprime to d (a zero factor never is).
    """
    count, nrows, ncols = mats.shape
    if ncols == 0 or count == 0:
        return None
    if nrows < ncols:
        return 0
    if is_prime(d):
        singular = np.flatnonzero(rank_prime_batch(mats, d) < ncols)
        return int(singular[0]) if singular.size else None
    for index, mat in enumerate(mats):
        if any(gcd(s, d) != 1 for s in smith_normal_form(mat)):
            return index
    return None


def smith_normal_form(matrix) -> list[int]:
    """Invariant factors of an integer matrix.

    Returns the diagonal of the Smith normal form as a list of
    min(rows, cols) non-negative integers with each factor dividing the
    next; trailing zeros pad the list when the rank is deficient.
    Arithmetic uses Python integers, so entries may grow without
    overflow.
    """
    a = [[int(x) for x in row] for row in np.asarray(matrix)]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    k = min(nrows, ncols)
    factors: list[int] = []
    t = 0
    while t < k:
        pivot = _smallest_nonzero(a, t, nrows, ncols)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]
        while True:
            _clear_column(a, t, nrows, ncols)
            _clear_row(a, t, nrows, ncols)
            # column swaps inside _clear_row may dirty column t again
            if any(a[i][t] for i in range(t + 1, nrows)):
                continue
            # the pivot must divide the remaining block; if not, pull the
            # offending row up and reduce again (pivot shrinks to a gcd)
            offender = _non_multiple(a, t, nrows, ncols)
            if offender is None:
                break
            for j in range(t, ncols):
                a[t][j] += a[offender][j]
        factors.append(abs(a[t][t]))
        t += 1
    factors.extend([0] * (k - len(factors)))
    return factors


def _smallest_nonzero(a, t, nrows, ncols):
    best = None
    for i in range(t, nrows):
        for j in range(t, ncols):
            v = abs(a[i][j])
            if v and (best is None or v < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def _clear_column(a, t, nrows, ncols):
    """Euclidean reduction until column t is zero below the pivot."""
    while True:
        done = True
        for i in range(t + 1, nrows):
            if a[i][t] == 0:
                continue
            q = a[i][t] // a[t][t]
            for j in range(t, ncols):
                a[i][j] -= q * a[t][j]
            if a[i][t]:
                a[t], a[i] = a[i], a[t]
                done = False
        if done:
            return


def _clear_row(a, t, nrows, ncols):
    """Euclidean reduction until row t is zero right of the pivot."""
    while True:
        done = True
        for j in range(t + 1, ncols):
            if a[t][j] == 0:
                continue
            q = a[t][j] // a[t][t]
            for i in range(t, nrows):
                a[i][j] -= q * a[i][t]
            if a[t][j]:
                for i in range(nrows):
                    a[i][t], a[i][j] = a[i][j], a[i][t]
                done = False
        if done:
            return


def _non_multiple(a, t, nrows, ncols):
    for i in range(t + 1, nrows):
        for j in range(t + 1, ncols):
            if a[i][j] % a[t][t]:
                return i
    return None
