import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphqec.errors import CompositeModulus, DimensionOverflow
from graphqec.modular import (
    MAX_BATCH_MODULUS,
    ModMatrix,
    is_prime,
    kernel_trivial,
    rank_prime,
    rank_prime_batch,
    smith_normal_form,
)

from conftest import brute_force_kernel_trivial


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

    return DomainMatrix.from_list(mat.tolist(), ZZ).convert_to(GF(p)).rank()


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
    mats = _low_rank_batch(rng, p, 40, 6, 4)
    ranks = rank_prime_batch(mats, p)
    assert sorted(set(ranks.tolist())) == [0, 1, 2, 3, 4]
    assert ranks.tolist() == [_sympy_rank(m, p) for m in mats]


def test_rank_prime_batch_refuses_overflowing_modulus():
    assert MAX_BATCH_MODULUS == 3037000499  # isqrt(2**63 - 1)
    mats = np.ones((1, 2, 2), dtype=np.int64)
    for p in (3037000507, 4294967311, 10**18 + 3):
        with pytest.raises(DimensionOverflow):
            rank_prime_batch(mats, p)
    with pytest.raises(DimensionOverflow):
        kernel_trivial(ModMatrix(3037000507, np.eye(2, dtype=np.int64)))


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
    d=st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]),
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


def test_smith_normal_form_identity():
    assert smith_normal_form(np.eye(2, dtype=int)) == [1, 1]


def test_smith_normal_form_diagonal():
    assert smith_normal_form(np.array([[2, 0], [0, 4]])) == [2, 4]


def test_smith_normal_form_dense_example():
    # det = -8, gcd of entries = 2 -> invariant factors (2, 4)
    assert smith_normal_form(np.array([[2, 4], [6, 8]])) == [2, 4]


def test_smith_normal_form_zero_matrix_and_rectangles():
    assert smith_normal_form(np.zeros((2, 3), dtype=int)) == [0, 0]
    assert smith_normal_form(np.array([[0, 3], [0, 0], [0, 0]])) == [3, 0]


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_smith_normal_form_matches_sympy(rows, cols, seed):
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = np.random.default_rng(seed)
    a = rng.integers(-9, 10, size=(rows, cols))
    ours = smith_normal_form(a)
    ref = sympy_snf(Matrix(a.tolist()))
    ref_diag = [abs(int(ref[i, i])) for i in range(min(ref.shape))]
    ref_diag += [0] * (min(rows, cols) - len(ref_diag))
    assert ours == ref_diag


def test_smith_normal_form_divisibility_chain():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.integers(-20, 21, size=(4, 4))
        f = smith_normal_form(a)
        for x, y in zip(f, f[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
