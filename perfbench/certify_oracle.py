"""Independent certification oracle: kernel enumeration, cross-checked with sympy.

A graph code fails on the output subset Z when some nonzero vector h on
X u Z has Gamma[Y \\ Z, X u Z] h = 0 (mod d).  Instead of testing subsets
one by one, this module enumerates the kernel candidates h directly:
for each h, S(h) = supp(h_Y) u supp((Gamma h)_Y) is the smallest output
subset that h defeats, and Z fails iff it contains some S(h).  For
composite d, Z has a nontrivial kernel mod d iff it has one modulo some
prime p dividing d (lift p^(k-1) h' for d = p^k, then CRT), so the
enumeration runs once per prime factor.  None of this shares code or
method with the program's rank / Smith-normal-form scan.
"""

from __future__ import annotations

import itertools
from math import comb, gcd
from typing import Optional

import numpy as np

# Largest number of candidate vectors h enumerated per (p, |supp h_Y|) block.
_CHUNK_VECTORS = 1 << 18
# Refuse enumerations beyond this many candidates (large moduli go to sympy).
MAX_ENUMERATION = 20_000_000


def prime_factors(d: int) -> list[int]:
    out, p = [], 2
    while p * p <= d:
        if d % p == 0:
            out.append(p)
            while d % p == 0:
                d //= p
        p += 1
    if d > 1:
        out.append(d)
    return out


def _min_support_mod_p(gamma: np.ndarray, m: int, n: int, p: int, max_size: int):
    """(size, key) of the smallest S(h) with |S(h)| <= max_size, mod prime p.

    key encodes the subset as a big-endian bit mask (site 0 most
    significant), so among subsets of one size the largest key is the
    lexicographically first sorted tuple.  Returns (max_size + 1, -1)
    when every S(h) is larger than max_size.
    """
    visited = 0
    g = np.asarray(gamma, dtype=np.int64) % p
    g_yx, g_yy = g[m:, :m], g[m:, m:]
    if p**m > MAX_ENUMERATION:
        raise ValueError(f"kernel enumeration too large for p={p}, m={m}")
    hx = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)
    base = (hx @ g_yx.T) % p  # (p^m, n): syndrome of the input part
    weights = np.left_shift(np.int64(1), np.arange(n - 1, -1, -1, dtype=np.int64))
    best_size, best_key = max_size + 1, -1
    for j in range(max_size + 1):
        if j > best_size:
            break
        visited += comb(n, j) * (p - 1) ** j * p**m
        if visited > MAX_ENUMERATION:
            raise ValueError(f"kernel enumeration too large for p={p}, m={m}, n={n}")
        values = np.array(list(itertools.product(range(1, p), repeat=j)), dtype=np.int64)
        values = values.reshape(len(values), j)
        combos = np.array(list(itertools.combinations(range(n), j)), dtype=np.int64)
        combos = combos.reshape(len(combos), j)
        per_combo = len(values) * len(hx)
        step = max(1, _CHUNK_VECTORS // per_combo)
        for start in range(0, len(combos), step):
            t = combos[start : start + step]  # (c, j)
            cols = g_yy.T[t]  # (c, j, n): column y of gamma restricted to Y
            contrib = np.einsum("vj,cjn->cvn", values, cols)  # (c, v, n)
            synd = (contrib[:, :, None, :] + base[None, None, :, :]) % p
            support = synd != 0
            tmask = np.zeros((len(t), n), dtype=bool)
            tmask[np.arange(len(t))[:, None], t] = True
            support |= tmask[:, None, None, :]
            support = support.reshape(-1, n)
            if j == 0:
                support = support[1:]  # drop h = 0 (hx row 0 is the zero vector)
            if not len(support):
                continue
            sizes = support.sum(axis=1)
            low = sizes.min()
            if low > best_size:
                continue
            keys = support[sizes == low].astype(np.int64) @ weights
            key = int(keys.max())
            if low < best_size or key > best_key:
                best_size, best_key = int(low), key
    return best_size, best_key


def first_failing_subset(gamma, d: int, m: int, n: int, max_size: int) -> Optional[tuple[int, ...]]:
    """The first output subset Z with |Z| <= max_size that fails, in the scan
    order cardinality-then-lexicographic; None when every such Z passes."""
    best_size, best_key = max_size + 1, -1
    for p in prime_factors(d):
        size, key = _min_support_mod_p(gamma, m, n, p, max_size)
        if size < best_size or (size == best_size and key > best_key):
            best_size, best_key = size, key
    if best_size > max_size:
        return None
    return tuple(i for i in range(n) if best_key >> (n - 1 - i) & 1)


def max_f_from_first_bad(first_bad: Optional[int], n: int) -> int:
    """max correctable f given the size of the first failing subset."""
    cap = (n - 1) // 2
    if first_bad is None:
        return cap
    if first_bad == 0:
        return -1
    return min((first_bad - 1) // 2, cap)


def subset_rank(subset: tuple[int, ...], n: int) -> int:
    """Position of subset in the scan order (all smaller sizes first, then
    lexicographic within its size); the number of subsets checked before it."""
    k = len(subset)
    before = sum(comb(n, s) for s in range(k))
    prev = -1
    for i, z in enumerate(subset):
        for v in range(prev + 1, z):
            before += comb(n - v - 1, k - i - 1)
        prev = z
    return before


def subsets_up_to(n: int, max_size: int) -> int:
    return sum(comb(n, s) for s in range(max_size + 1))


# ---------------------------------------------------------------------------
# sympy confirmations: rank over GF(p) for prime d, Smith normal form plus a
# gcd test for composite d


def _block(gamma, m: int, n: int, subset) -> list[list[int]]:
    zset = set(subset)
    rows = [m + j for j in range(n) if j not in zset]
    cols = list(range(m)) + [m + j for j in subset]
    g = np.asarray(gamma)
    return [[int(g[r, c]) for c in cols] for r in rows]


def sympy_kernel_trivial(gamma, d: int, m: int, n: int, subset) -> bool:
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import smith_normal_form

    block = _block(gamma, m, n, subset)
    ncols = m + len(subset)
    if len(block) < ncols:
        return False
    dm = DomainMatrix.from_list(block, ZZ)
    if len(prime_factors(d)) == 1 and prime_factors(d)[0] == d:
        return dm.convert_to(GF(d)).rank() == ncols
    snf = smith_normal_form(dm).to_Matrix()
    factors = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    return all(s != 0 and gcd(s, d) == 1 for s in factors[:ncols])


def brute_force_kernel_trivial(gamma, d: int, m: int, n: int, subset) -> bool:
    """Enumerate every vector of Z_d^(m+|Z|); only for tiny blocks."""
    block = np.array(_block(gamma, m, n, subset), dtype=np.int64).reshape(-1, m + len(subset))
    ncols = block.shape[1]
    if d**ncols > 200_000:
        raise ValueError("brute force is gated to small search spaces")
    vecs = np.array(list(itertools.product(range(d), repeat=ncols)), dtype=np.int64)[1:]
    return bool(np.all(((vecs @ block.T) % d).any(axis=1)))
