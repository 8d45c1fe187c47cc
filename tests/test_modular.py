import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqec import graphs, modular
from graphqec.errors import CompositeModulus
from graphqec.graphs import GraphCode, first_failing_subset, max_correctable_f
from graphqec.modular import (
    MAX_BATCH_MODULUS,
    ModMatrix,
    _prime_factors,
    is_prime,
    kernel_trivial,
    rank_prime,
    rank_prime_batch,
)

from conftest import brute_force_kernel_trivial, smith_first_failing, smith_kernel_trivial


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in primes)
    assert not is_prime(0)
    assert not is_prime(1)


def test_is_prime_matches_sympy():
    from sympy import isprime

    rng = np.random.default_rng(17)
    values = list(range(0, 3000))
    for bits in (16, 31, 32, 48, 62, 63):
        values += [int(x) for x in rng.integers(2 ** (bits - 1), 2**bits, size=200, dtype=np.uint64)]
    values += [
        561, 1105, 1729,  # Carmichael numbers
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 23
        318665857834031151167461,  # strong pseudoprime to every prime base up to 37
        10**18 + 3, 10**18 + 9, 2**61 - 1, 2**64 - 59, 2**64 + 13,
    ]
    for n in values:
        assert is_prime(n) == isprime(n), n


def test_modmatrix_validates_entry_range():
    with pytest.raises(ValueError):
        ModMatrix(2, np.array([[0, 2]]))
    with pytest.raises(ValueError):
        ModMatrix(1, np.array([[0]]))
    m = ModMatrix.reduce(3, np.array([[-1, 7]]))
    assert m.entries.tolist() == [[2, 1]]


def test_modmatrix_is_immutable():
    m = ModMatrix(5, np.array([[1, 2], [3, 4]]))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 0


def test_rank_prime_identity():
    assert rank_prime(ModMatrix(2, np.eye(2, dtype=int))) == 2


def test_rank_prime_zero_matrix():
    assert rank_prime(ModMatrix(3, np.zeros((3, 3), dtype=int))) == 0


def test_rank_prime_dependent_rows():
    # second row eliminates against the first over Z_2
    assert rank_prime(ModMatrix(2, np.array([[1, 1], [1, 1]]))) == 1


def test_rank_prime_rejects_composite():
    with pytest.raises(CompositeModulus):
        rank_prime(ModMatrix(4, np.array([[1]])))


def test_rank_prime_row_swap_and_scaling_invariance():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        a = rng.integers(0, d, size=(6, 4))
        base = rank_prime(ModMatrix(d, a))
        swapped = a[[1, 0, 2, 3, 4, 5], :]
        assert rank_prime(ModMatrix(d, swapped)) == base
        for scale in range(1, d):
            scaled = a.copy()
            scaled[2] = (scaled[2] * scale) % d
            assert rank_prime(ModMatrix(d, scaled)) == base


def test_rank_prime_batch_matches_scalar():
    rng = np.random.default_rng(7)
    for d in (2, 3, 7):
        mats = rng.integers(0, d, size=(50, 5, 4))
        batch = rank_prime_batch(mats, d)
        for i in range(50):
            assert batch[i] == rank_prime(ModMatrix(d, mats[i]))


def _sympy_rank(mat, p):
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    rows = [[int(x) for x in row] for row in np.asarray(mat).tolist()]
    return DomainMatrix.from_list(rows, ZZ).convert_to(GF(p)).rank()


def _low_rank_batch(rng, p, count, rows, cols):
    """Products B C mod p with inner dimension 0..cols, in exact integers."""
    mats = []
    for index in range(count):
        inner = index % (cols + 1)
        b = rng.integers(0, p, size=(rows, inner)).astype(object)
        c = rng.integers(0, p, size=(inner, cols)).astype(object)
        product = b @ c if inner else np.zeros((rows, cols), dtype=object)
        mats.append(np.array(product % p, dtype=np.int64))
    return np.stack(mats)


@pytest.mark.parametrize("p", [999999937, 1000000007, 3037000493])
def test_rank_prime_batch_matches_sympy_large_prime(p):
    assert p <= MAX_BATCH_MODULUS
    rng = np.random.default_rng(p % 1000)
    # int64 holds a residue plus 9 products near 1e9, and 1 near 3e9, so at 38 columns
    # a column is reduced partway through its eliminations, and 37 unreduced ones would wrap
    assert modular._BatchResidues(p, 37).interval == (9 if p < 2 * 10**9 else 1)
    for rows, cols in [(6, 4), (4, 4), (3, 5), (40, 38)]:
        mats = _low_rank_batch(rng, p, 40, rows, cols)
        ranks = rank_prime_batch(mats, p)
        assert sorted(set(ranks.tolist())) == list(range(min(rows, cols) + 1))
        assert ranks.tolist() == [_sympy_rank(m, p) for m in mats]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_prime_batch_matches_sympy_small_primes(p):
    rng = np.random.default_rng(40 + p)
    for rows, cols in [(7, 3), (3, 7), (5, 5), (1, 4), (4, 1)]:
        mats = rng.integers(0, p, size=(60, rows, cols))
        mats[::4, rng.integers(rows)] = 0  # a zero row
        mats[1::4, -1] = mats[1::4, 0]  # a repeated row
        mats[2::4] = _low_rank_batch(rng, p, 15, rows, cols)
        mats[3::4, :, -1] = mats[3::4, :, :-1].sum(axis=2) % p  # dependent only at the last column
        assert rank_prime_batch(mats, p).tolist() == [_sympy_rank(m, p) for m in mats]
    # column 0 has a pivot in some matrices and none in others, in a different
    # row each time; in the second matrix the first pivot clears all of column 1
    mixed = np.array([
        [[0, 1, 2], [0, 0, 1], [0, 1, 1]],
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[0, 0, 1], [1, 2, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 2], [1, 0, 0]],
        [[2, 1, 0], [1, 0, 0], [0, 0, 1]],
    ])
    mixed %= p
    assert rank_prime_batch(mixed, p).tolist() == [_sympy_rank(m, p) for m in mixed]
    assert rank_prime_batch(np.zeros((3, 0, 4)), p).tolist() == [0, 0, 0]
    assert rank_prime_batch(np.zeros((2, 4, 0)), p).tolist() == [0, 0]


# each switch of representation (packed bits, int16, int32, int64) from both sides
_BOUNDARY_PRIMES = [2, 3, 5, 7, 181, 191, 46337, 46349]

# the most columns whose eliminations still sum within the narrower accumulator:
# (p - 1) + (cols - 1) (p - 1)^2 fits int16 (p <= 181) or int32 (46337)
_ACCUMULATOR_SWITCH = {3: 8192, 5: 2048, 7: 911, 181: 2, 46337: 2}


@pytest.mark.parametrize("p", _BOUNDARY_PRIMES)
def test_rank_prime_batch_matches_sympy_at_representation_boundaries(p):
    rng = np.random.default_rng(p)
    shapes = [(7, 3), (3, 7), (6, 6)]
    if p in _ACCUMULATOR_SWITCH:  # the column counts on both sides of the dtype switch
        cols = _ACCUMULATOR_SWITCH[p]
        dtypes = [modular._BatchResidues(p, c - 1).dtype for c in (cols, cols + 1)]
        assert dtypes in ([np.int16, np.int32], [np.int32, np.int64])
        rows = 7 if cols < 7 else 2  # few rows keep the wide sympy oracle fast
        shapes += [(rows, cols), (rows, cols + 1)]
    for rows, cols in shapes:
        # every entry p - 1, then p - 1 off a zero diagonal: the largest products
        worst = np.full((2, rows, cols), p - 1)
        worst[1, np.arange(min(rows, cols)), np.arange(min(rows, cols))] = 0
        mats = np.concatenate([
            rng.integers(0, p, size=(10, rows, cols)),
            _low_rank_batch(rng, p, 14, rows, cols),
            worst,
        ])
        ranks = rank_prime_batch(mats, p)
        assert ranks.tolist() == [_sympy_rank(m, p) for m in mats]
        assert set(ranks.tolist()) == set(range(min(rows, cols) + 1))
    for shape in [(3, 0, 4), (2, 4, 0), (0, 4, 3), (2, 0, 70), (0, 0, 0)]:
        assert rank_prime_batch(np.zeros(shape, dtype=np.int64), p).tolist() == [0] * shape[0]


@pytest.mark.parametrize("width", [63, 64, 65])
def test_rank_prime_batch_matches_sympy_at_the_packed_word_width(width):
    # up to 64 rows a GF(2) column is one uint64 word, beyond that int16 residues
    rng = np.random.default_rng(width)
    for rows, cols in [(width - 5, width), (width + 5, width), (width, 5), (width, width)]:
        mats = np.concatenate([
            rng.integers(0, 2, size=(3, rows, cols)),
            _low_rank_batch(rng, 2, 3, rows, cols),
        ])
        mats[0, :, -1] = mats[0, :, 0]  # a dependency found only at the last column
        mats[1, :-1, -1] = mats[1, :-1, 0]  # columns that differ only at the last row
        mats[1, -1, -1] = 1 - mats[1, -1, 0]
        ranks = rank_prime_batch(mats, 2)
        assert ranks.tolist() == [_sympy_rank(m, 2) for m in mats]
        padded = np.concatenate([mats, np.zeros((len(mats), rows, 1), dtype=mats.dtype)], axis=2)
        assert rank_prime_batch(padded, 2).tolist() == ranks.tolist()


_RAW_ENTRIES = {
    "negative-and-large": lambda rng, shape: rng.integers(-(2**62), 2**62, size=shape),
    "bool": lambda rng, shape: rng.integers(0, 2, size=shape).astype(bool),
    "int8": lambda rng, shape: rng.integers(-128, 128, size=shape, dtype=np.int8),
    "uint8": lambda rng, shape: rng.integers(0, 256, size=shape, dtype=np.uint8),
    "uint64": lambda rng, shape: rng.integers(0, 2**64 - 1, size=shape, dtype=np.uint64),
    "object": lambda rng, shape: (
        rng.integers(-(2**62), 2**62, size=shape).astype(object) * 2**40
        + rng.integers(0, 2**40, size=shape)
    ),
}


@pytest.mark.parametrize("kind", list(_RAW_ENTRIES))
def test_rank_prime_batch_reduces_any_integer_input_exactly(kind):
    for p in _BOUNDARY_PRIMES:
        rng = np.random.default_rng(p)
        raw = _RAW_ENTRIES[kind](rng, (12, 6, 4))
        raw[::2, 1] = raw[::2, 0]  # repeated rows and columns vary the rank
        raw[::3, :, 3] = raw[::3, :, 0]
        ranks = rank_prime_batch(raw, p)
        assert ranks.tolist() == [_sympy_rank(m, p) for m in raw], p
        assert len(set(ranks.tolist())) > 1


def test_rank_prime_batch_matches_sympy_beyond_int64():
    # above the cap the same elimination runs on Python integers
    assert MAX_BATCH_MODULUS == 3037000499  # isqrt(2**63 - 1)
    for p in (3037000507, 4294967311, 10**18 + 3):
        assert p > MAX_BATCH_MODULUS and is_prime(p)
        rng = np.random.default_rng(p % 1000)
        mats = _low_rank_batch(rng, p, 20, 5, 3)
        ranks = rank_prime_batch(mats, p)
        assert sorted(set(ranks.tolist())) == [0, 1, 2, 3]
        assert ranks.tolist() == [_sympy_rank(m, p) for m in mats]
        assert kernel_trivial(ModMatrix(p, np.eye(2, dtype=np.int64)))
        assert not kernel_trivial(ModMatrix(p, np.array([[1, 2], [p - 1, p - 2]])))


def test_prime_factors_matches_sympy():
    from sympy import factorint, nextprime, prevprime

    rng = np.random.default_rng(23)
    values = list(range(1, 2000))
    values += [int(x) for x in rng.integers(2, 2**63, size=150, dtype=np.uint64)]
    values += [int(x) for x in rng.integers(2, 2**62, size=150, dtype=np.uint64)]
    values += [2**62, 2**63 - 1, 2 * 4294967311]
    values += [nextprime(int(x)) ** 2 for x in rng.integers(43, 3 * 10**9, size=20)]
    below = prevprime(MAX_BATCH_MODULUS)
    above = nextprime(MAX_BATCH_MODULUS)
    values += [below * prevprime(below), below * above, above * nextprime(above)]
    for n in values:
        assert _prime_factors(n) == tuple(sorted(factorint(n))), n


def _crt(parts):
    """Entries congruent to parts[q] mod q for each coprime modulus q."""
    d = int(np.prod(list(parts)))
    total = 0
    for q, part in parts.items():
        rest = d // q
        total = total + part.astype(object) * (rest * pow(rest, -1, q))
    return np.array(total % d, dtype=np.int64)


# composite moduli with a prime factor above MAX_BATCH_MODULUS
_BIG_COMPOSITES = [(2, 4294967311), (3, 3037000507), (4, 4294967311)]


@pytest.mark.parametrize("moduli", _BIG_COMPOSITES, ids=lambda q: "x".join(map(str, q)))
def test_kernel_trivial_large_prime_factor_matches_smith_oracle(moduli):
    # small 0/1 residues make every factor of d singular now and then
    rng = np.random.default_rng(sum(moduli) % 1000)
    d = int(np.prod(moduli))
    verdicts = set()
    for _ in range(60):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        parts = {q: rng.integers(0, 2, size=(rows, cols)) for q in moduli}
        block = _crt(parts)
        expected = smith_kernel_trivial(block, d)
        assert kernel_trivial(ModMatrix(d, block)) == expected
        verdicts.add((expected, tuple(smith_kernel_trivial(p % q, q) for q, p in parts.items())))
    # both verdicts occur, and so does failure mod each factor alone
    assert {v[0] for v in verdicts} == {True, False}
    assert {v[1] for v in verdicts} >= {(True, False), (False, True)}


@pytest.mark.parametrize("moduli", _BIG_COMPOSITES, ids=lambda q: "x".join(map(str, q)))
def test_scan_large_prime_factor_matches_smith_oracle(monkeypatch, moduli):
    rng = np.random.default_rng(sum(moduli) % 997)
    d = int(np.prod(moduli))
    witnesses = set()
    for m, n in itertools.product([1, 2], [5, 6]):
        for _ in range(3):
            parts = {}
            for q in moduli:
                g = rng.integers(0, 2, size=(m + n, m + n)) * (rng.random((m + n, m + n)) < 0.7)
                parts[q] = np.triu(g, 1) + np.triu(g, 1).T
            code = GraphCode(d, m, n, ModMatrix(d, _crt(parts)))
            f_cap = (n - 1) // 2
            expected = smith_first_failing(code, 2 * f_cap)
            for columns in (1, 3, graphs._SLICE_COLUMNS):  # columns a slice extends into
                monkeypatch.setattr(graphs, "_SLICE_COLUMNS", columns)
                assert first_failing_subset(code, 2 * f_cap) == expected
                assert max_correctable_f(code) == (f_cap if expected is None else (len(expected) - 1) // 2)
            witnesses.add(expected)
    assert len(witnesses) > 2


def test_kernel_trivial_unit_entry():
    assert kernel_trivial(ModMatrix(2, np.array([[1]])))


def test_kernel_trivial_zero_divisor():
    # 2 * 2 = 0 mod 4, so h = 2 is a nonzero kernel vector
    assert not kernel_trivial(ModMatrix(4, np.array([[2]])))


def test_kernel_trivial_composite_example():
    m = ModMatrix(6, np.array([[1, 0], [0, 1], [1, 1]]))
    assert kernel_trivial(m)
    assert brute_force_kernel_trivial(m.entries, 6)


def test_kernel_trivial_zero_columns():
    assert kernel_trivial(ModMatrix(2, np.zeros((3, 0), dtype=int)))


def test_kernel_trivial_wide_matrix_always_fails():
    assert not kernel_trivial(ModMatrix(5, np.ones((1, 2), dtype=int)))


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18]),
    rows=st.integers(1, 5),
    cols=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_trivial_matches_brute_force(d, rows, cols, seed):
    if d**cols > 10_000:
        return
    rng = np.random.default_rng(seed)
    m = ModMatrix(d, rng.integers(0, d, size=(rows, cols)))
    assert kernel_trivial(m) == brute_force_kernel_trivial(m.entries, d)
