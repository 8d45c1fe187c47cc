import itertools
import json
import tracemalloc
import warnings
from collections import defaultdict
from math import comb

import numpy as np
import pytest

import graphqec.graphs as graphs
import graphqec.modular as modular
from graphqec.cli import main
from graphqec.errors import DimensionOverflow, InvalidSubset, TooManyErrors
from graphqec.graphs import (
    GraphCode,
    build_isometry,
    check_subset,
    corrects_f,
    dump_graph,
    find_uncorrectable_subset,
    first_failing_subset,
    graph_to_dict,
    load_graph,
    loads_graph,
    max_correctable_f,
    prism_code,
    wheel_code,
)
from graphqec.modular import ModMatrix
from graphqec.search import sample_graph, trial_rng

from conftest import brute_force_kernel_trivial, site_table, smith_first_failing, symplectic_max_f


def test_constructor_rejects_asymmetric_gamma():
    g = np.zeros((2, 2), dtype=int)
    g[0, 1] = 1
    with pytest.raises(ValueError):
        GraphCode(2, 1, 1, ModMatrix(2, g))


def test_constructor_rejects_self_loops():
    g = np.zeros((2, 2), dtype=int)
    g[0, 0] = 1
    with pytest.raises(ValueError):
        GraphCode(2, 1, 1, ModMatrix(2, g))


def test_from_edges_sums_duplicates_mod_d():
    code = GraphCode.from_edges(3, 1, 1, [[0, 1, 2], [1, 0, 2]])
    assert code.gamma.entries[0, 1] == 1


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        GraphCode.from_edges(2, 1, 1, [[0, 0, 1]])


def test_check_subset_empty_on_wheel(wheel):
    # the 5x1 all-ones column over Z_2 has trivial kernel
    assert check_subset(wheel, ())


def test_check_subset_all_pairs_on_wheel(wheel):
    for pair in itertools.combinations(range(5), 2):
        assert check_subset(wheel, pair)


def test_check_subset_fails_when_more_columns_than_rows(wheel):
    # |X u Z| = 4 > |Y \ Z| = 2
    assert not check_subset(wheel, (0, 1, 2))


def test_check_subset_rejects_bad_indices(wheel):
    with pytest.raises(InvalidSubset):
        check_subset(wheel, (5,))
    with pytest.raises(InvalidSubset):
        check_subset(wheel, (1, 1))


def test_corrects_f_on_five_qubit_codes(wheel, prism):
    for code in (wheel, prism):
        assert corrects_f(code, 1)
        assert not corrects_f(code, 2)


def test_corrects_f_zero_equals_empty_subset(wheel):
    assert corrects_f(wheel, 0) == check_subset(wheel, ())


def test_corrects_f_rejects_too_many_errors(wheel):
    with pytest.raises(TooManyErrors):
        corrects_f(wheel, 3)


def test_corrects_f_is_monotone_in_f():
    rng = np.random.default_rng(5)
    for _ in range(20):
        size = 8
        g = rng.integers(0, 2, size=(size, size))
        g = np.triu(g, 1)
        g = g + g.T
        code = GraphCode(2, 1, 7, ModMatrix(2, g))
        results = [corrects_f(code, f) for f in range(0, 4)]
        for earlier, later in zip(results, results[1:]):
            if later:
                assert earlier


def test_witness_is_smallest_failing_subset(wheel):
    witness = find_uncorrectable_subset(wheel, 2)
    assert witness is not None
    assert len(witness) == 3
    # every smaller subset passes, and no size-3 subset earlier in lex order fails
    for size in range(0, 3):
        for subset in itertools.combinations(range(5), size):
            assert check_subset(wheel, subset)
    for subset in itertools.combinations(range(5), 3):
        if subset == witness:
            break
        assert check_subset(wheel, subset)


def _oracle_first_failing(code, max_size):
    """First subset in (size, lex) order whose block has a nontrivial kernel.

    A block with fewer rows than columns cannot be injective (counting);
    every other block is decided by enumerating its kernel.
    """
    gamma = code.gamma.entries
    inputs = list(range(code.m))
    for size in range(max_size + 1):
        for subset in itertools.combinations(range(code.n), size):
            rows = [code.m + j for j in range(code.n) if j not in subset]
            cols = inputs + [code.m + z for z in subset]
            if len(rows) < len(cols):
                return subset
            block = gamma[rows][:, cols]
            if not brute_force_kernel_trivial(block, code.d):
                return subset
    return None


def _engine_corpus():
    rng = np.random.default_rng(20021)
    for d, m, n in itertools.product([2, 3, 4, 6], [1, 2], [5, 6, 7]):
        for trial in range(4):
            g = rng.integers(0, d, size=(m + n, m + n))
            if trial % 2:  # sparse draws push witnesses later in the scan
                g = g * (rng.random(g.shape) < 0.4)
            g = np.triu(g, 1)
            yield GraphCode(d, m, n, ModMatrix(d, g + g.T))
    # the five-qubit graphs lifted to Z_d, with +-1 edges: mostly f = 1 codes
    for base, d in itertools.product([wheel_code(), prism_code()], [2, 3, 4, 6]):
        signs = np.triu(rng.choice([1, d - 1], size=(6, 6)), 1)
        yield GraphCode(d, 1, 5, ModMatrix(d, (base.gamma.entries * (signs + signs.T)) % d))


def _record_slices(monkeypatch) -> list:
    """Every slice the walk extends into, as (parent columns extended, slice), in order."""
    extend, built = graphs._extend, []

    def recording(parent, start, stop, keep):
        piece = extend(parent, start, stop, keep)
        built.append((stop - start, piece))
        return piece

    monkeypatch.setattr(graphs, "_extend", recording)
    return built


def _entries(piece) -> int:
    """The entries a slice holds mod its widest prime: two vectors a column and code."""
    return max(2 * u.size for _, u, *_ in piece.vectors.values())


def _first_leaf(piece) -> tuple:
    """(size, sites) of a slice's first leaf, the (size, lex) key of the walk."""
    leaf = tuple(piece.prefixes[0].tolist()) + (int(piece.sites[0]),)
    return len(leaf), leaf


@pytest.mark.parametrize(
    "columns, block_cap",
    [(1, False), (3, False), (graphs._SLICE_COLUMNS, False), (graphs._SLICE_COLUMNS, True)],
    ids=["1", "3", "default", "block-cap"],
)
def test_scan_matches_brute_force_oracle(monkeypatch, columns, block_cap):
    monkeypatch.setattr(graphs, "_SLICE_COLUMNS", columns)
    built = _record_slices(monkeypatch)
    for code in _engine_corpus():
        f_cap = (code.n - 1) // 2
        if block_cap:  # the cap admits the projected table alone: about one block per slice
            monkeypatch.setattr(graphs, "DEFAULT_AMPLITUDE_CAP", code.n * (code.m + 2 * code.n))
        expected = [_oracle_first_failing(code, 2 * f) for f in range(f_cap + 1)]
        for f in range(f_cap + 1):
            assert find_uncorrectable_subset(code, f) == expected[f], (code.d, code.m, code.n, f)
        assert first_failing_subset(code, 2 * f_cap) == expected[f_cap]
        assert first_failing_subset(code, code.n) == _oracle_first_failing(code, code.n)
        passing = [f for f in range(f_cap + 1) if expected[f] is None]
        assert max_correctable_f(code) == max(passing, default=-1)
        for spans, piece in built:  # past one parent column only within the bound
            assert spans == 1 or piece.sites.size <= columns
            assert _entries(piece) <= graphs.DEFAULT_AMPLITUDE_CAP
        built.clear()


def _random_code(d, m, n, seed):
    rng = np.random.default_rng((d, m, n, seed))
    g = np.tril(rng.integers(0, d, size=(m + n, m + n)), -1)
    return GraphCode(d, m, n, ModMatrix(d, g + g.T))


def _lifted_five_qubit_codes(ds, seed):
    """The wheel and the prism lifted to Z_d with +-1 edges: mostly f = 1 codes."""
    rng = np.random.default_rng(seed)
    for base, d in itertools.product([wheel_code(), prism_code()], ds):
        signs = np.triu(rng.choice([1, d - 1], size=(6, 6)), 1)
        yield GraphCode(d, 1, 5, ModMatrix(d, (base.gamma.entries * (signs + signs.T)) % d))


def test_max_correctable_f_matches_symplectic_weight_oracle():
    codes = [
        _random_code(d, m, n, seed)
        for d, m, n, seed in itertools.product([2, 3, 4, 6], [1, 2], range(3, 7), range(2))
    ]
    codes += _lifted_five_qubit_codes([2, 3, 4, 6], 4)
    seen = set()
    for code in codes:
        expected = symplectic_max_f(code)
        assert max_correctable_f(code) == expected, (code.d, code.m, code.n)
        seen.add(expected)
    assert seen == {-1, 0, 1}


# kl-check reads the graph alone: its cost grows with the K error words and their n-site
# syndromes, not with d^n, so the whole grid runs, d = 6 and n = 6 included
def _schlingemann_werner_slice():
    for d, m, n in itertools.product([2, 3, 4, 5, 6], [1, 2], range(3, 7)):
        for f in range((n - 1) // 2 + 1):
            yield from ((_random_code(d, m, n, seed), f) for seed in range(3))
    for seed in (6, 7):  # seed 7 lifts the prism to a d = 6 code that corrects one error
        yield from ((code, 1) for code in _lifted_five_qubit_codes([2, 3, 4, 5, 6], seed))


# (d, m, n) per ring, small enough that symplectic_max_f's d^(m+n) vectors stay cheap
_ORACLE_SHAPES = [
    (2, 1, 9), (2, 3, 9), (3, 1, 7), (3, 2, 6), (4, 1, 6), (5, 1, 5),
    (5, 2, 5), (6, 1, 5), (9, 1, 4), (12, 1, 4),
]
_BIG_PRIME = 4294967311  # above MAX_BATCH_MODULUS: its residues are Python integers


def _sparse_code(d, m, n, rng, entries, density):
    g = rng.choice(entries, size=(m + n, m + n)) * (rng.random((m + n, m + n)) < density)
    return GraphCode(d, m, n, ModMatrix(d, np.triu(g, 1) + np.triu(g, 1).T))


def test_projected_table_scan_matches_smith_and_symplectic_oracles():
    rng = np.random.default_rng(14001)
    codes = [
        _sparse_code(d, m, n, rng, np.arange(1, d), density)
        for d, m, n in _ORACLE_SHAPES
        for density in (0.6, 1.0, 1.0)
    ]
    codes += _lifted_five_qubit_codes([2, 3, 4, 5, 6, 9, 12], 14001)
    sizes, max_fs = set(), set()
    for code in codes:
        f_cap = (code.n - 1) // 2
        expected = smith_first_failing(code, 2 * f_cap)
        for max_size in range(2 * f_cap + 1):  # a shorter scan stops before a later witness
            within = expected if expected is not None and len(expected) <= max_size else None
            assert first_failing_subset(code, max_size) == within, (code.d, code.m, code.n, max_size)
        max_f = symplectic_max_f(code)
        assert max_correctable_f(code) == max_f, (code.d, code.m, code.n)
        sizes.add(len(expected))
        max_fs.add(max_f)
    assert sizes >= {0, 1, 2, 3} and max_fs >= {-1, 0, 1}, (sizes, max_fs)
    # d = 2q: entries 0, 1, q, q + 1 are (0, 0), (1, 1), (1, 0), (0, 1) mod (2, q), so
    # blocks fail mod either factor alone; mod q the residues are Python integers
    d = 2 * _BIG_PRIME
    for m, n in [(1, 5), (1, 6), (2, 6)]:
        for density in (0.6, 1.0, 1.0):
            code = _sparse_code(d, m, n, rng, [1, _BIG_PRIME, _BIG_PRIME + 1], density)
            assert first_failing_subset(code, n) == smith_first_failing(code, n), (m, n)


# the accumulator switches of the scan's residue vectors, whose dtype holds a residue
# plus two products, the most eliminations a vector takes in one step of the walk:
# int16 -> int32 between 127 and 131 and int32 -> int64 between 32749 and 32771, and
# int64 at prevprime(MAX_BATCH_MODULUS), where a vector is reduced after every
# elimination; 181 and 191, 46337 and 46349 are the switches of a one-product run
_TOP_BATCH_PRIME = 3037000493
_SCAN_SWITCH_DTYPES = {
    127: np.int16, 131: np.int32, 181: np.int32, 191: np.int32, 32749: np.int32,
    32771: np.int64, 46337: np.int64, 46349: np.int64, _TOP_BATCH_PRIME: np.int64,
}


def _exact_reduce_against(field, basis, *vectors):
    """modular._reduce_against in Python integers, reduced after every elimination."""
    reduced = []
    for x in vectors:
        x = x.astype(object) % field.p
        for b, (row, negated_inverse) in basis:
            c = x[row.astype(np.intp), np.arange(x.shape[-1])] * negated_inverse.astype(object)
            x = (x + b.astype(object) * (c % field.p)) % field.p
        reduced.append(x)
    return reduced


@pytest.mark.parametrize("p", sorted(_SCAN_SWITCH_DTYPES))
def test_scan_matches_smith_oracle_at_accumulator_switch_primes(monkeypatch, p):
    from sympy import prevprime

    assert prevprime(modular.MAX_BATCH_MODULUS) == _TOP_BATCH_PRIME
    reduce_against, eliminations = graphs._reduce_against, []

    def exact(field, basis, *vectors):  # every reduced vector of the scan, entry by entry
        basis = list(basis)
        expected = _exact_reduce_against(field, basis, *vectors)
        reduced = reduce_against(field, basis, *vectors)
        assert all(np.array_equal(x.astype(object), y) for x, y in zip(reduced, expected))
        eliminations.append(len(basis))
        return reduced

    monkeypatch.setattr(graphs, "_reduce_against", exact)
    rng = np.random.default_rng(p % 10007)
    # every nonzero entry p - 1, so the largest products meet; the sparse n = 9 and 10
    # draws include f = 1 codes, whose size-3 leaves are a depth extended twice
    codes = [GraphCode.from_edges(p, 1, 2, [[0, 1, p - 1], [0, 2, p - 1], [1, 2, p - 1]])]
    for base in (wheel_code(), prism_code()):
        codes.append(GraphCode(p, 1, 5, ModMatrix(p, base.gamma.entries * (p - 1))))
    for m, n, densities in [(1, 6, (0.6, 0.8, 1)), (2, 7, (0.6, 0.8, 1)), (1, 9, (0.5, 0.6, 0.7))]:
        codes += [_sparse_code(p, m, n, rng, [p - 1], density) for density in densities]
    codes += [_sparse_code(p, 1, 10, rng, [p - 1], density) for density in (0.5, 0.6, 0.7)]
    sizes = set()
    for code in codes:
        field, u, v, full = graphs._site_vectors(code.gamma.entries[None], code.m, p, 1)
        if full[0]:  # at the top, each of a step's eliminations is one interval
            assert u.dtype == v.dtype == _SCAN_SWITCH_DTYPES[p]
            assert field.interval == (1 if p == _TOP_BATCH_PRIME else 2)
        expected = smith_first_failing(code, code.n)  # every subset of more than n - m sites fails
        for max_size in range(code.n + 1):
            within = expected if len(expected) <= max_size else None
            assert first_failing_subset(code, max_size) == within, (code.m, code.n, max_size)
        max_f = min((code.n - 1) // 2, (len(expected) - 1) // 2)
        if p ** (code.m + code.n) <= 10**7:  # symplectic_max_f enumerates p^(m+n) vectors
            assert symplectic_max_f(code) == max_f
        assert max_correctable_f(code) == max_f, (code.m, code.n)
        sizes.add(len(expected))
    assert sizes >= {1, 2, 3} and max(eliminations) == 2, sizes


@pytest.mark.parametrize("d", [4, 6])
def test_check_subset_matches_brute_force_on_lifted_five_qubit_codes(d):
    for code in _lifted_five_qubit_codes([d], 14002):
        for size in range(code.n + 1):
            for subset in itertools.combinations(range(code.n), size):
                assert check_subset(code, subset) == _oracle_block_passes(code, subset), subset


def _oracle_block_passes(code, subset):
    """Whether the block of subset has trivial kernel, by counting or kernel enumeration."""
    rows = [code.m + j for j in range(code.n) if j not in subset]
    cols = list(range(code.m)) + [code.m + z for z in subset]
    return len(rows) >= len(cols) and brute_force_kernel_trivial(code.gamma.entries[rows][:, cols], code.d)


def test_check_subset_fails_when_its_prefix_already_fails():
    # sites 0 and 1 meet nothing, so every subset holding both fails, also when its
    # last site's two vectors are independent of the rest
    edges = [[0, 4, 1], [0, 5, 1], [2, 3, 1], [3, 6, 1], [4, 7, 1], [5, 6, 1], [6, 7, 1], [2, 7, 1]]
    code = GraphCode.from_edges(2, 1, 7, edges)
    verdicts = set()
    for size in range(4):
        for subset in itertools.combinations(range(code.n), size):
            expected = _oracle_block_passes(code, subset)
            assert check_subset(code, subset) == expected, subset
            verdicts.add((subset[:2] == (0, 1), expected))
    assert verdicts == {(True, False), (False, True), (False, False)}


def test_later_prime_finds_an_earlier_witness_in_a_later_slice(monkeypatch):
    # over Z_6 a leaf fails when it fails mod 2 or mod 3; here the witness mod 3 comes
    # before the witness mod 2, at the same size but not in its depth's first slice
    monkeypatch.setattr(graphs, "_SLICE_COLUMNS", 1)
    rng = np.random.default_rng(14004)
    seen = 0
    for _ in range(300):
        parts = [np.triu(rng.random((9, 9)) < 0.5, 1).astype(np.int64) for _ in range(2)]
        gamma = (3 * parts[0] + 4 * parts[1]) % 6  # parts[0] mod 2, parts[1] mod 3
        code = GraphCode(6, 1, 8, ModMatrix(6, gamma + gamma.T))
        mod2, mod3 = (
            smith_first_failing(GraphCode(p, 1, 8, ModMatrix(p, (gamma + gamma.T) % p)), 4) for p in (2, 3)
        )
        if mod2 is None or mod3 is None or len(mod2) != len(mod3) or mod3[:-1] >= mod2[:-1]:
            continue
        if mod3[:-1] == tuple(range(len(mod3) - 1)):  # in the first slice
            continue
        assert first_failing_subset(code, 4) == mod3 == smith_first_failing(code, 4)
        seen += 1
        if seen == 3:
            break
    assert seen == 3


def test_every_prime_reduces_each_slice_and_none_past_the_witness(monkeypatch):
    # over Z_6 each slice of one parent column holds its leaves mod 2 and mod 3, the
    # same columns, and no slice after the one holding the witness is built, also
    # when the witness mod 2 alone would come later
    monkeypatch.setattr(graphs, "_SLICE_COLUMNS", 1)
    make, calls = graphs._slice, []

    def recording(codes, prefixes, sites, later, reduced):
        piece = make(codes, prefixes, sites, later, reduced)
        widths = {p: (u.shape[-1], v.shape[-1]) for p, (_, u, v) in reduced.items()}
        calls.append((widths, _first_leaf(piece)))
        return piece

    monkeypatch.setattr(graphs, "_slice", recording)
    rng = np.random.default_rng(22001)
    later_mod2 = 0
    for _ in range(40):
        parts = [np.triu(rng.random((9, 9)) < 0.5, 1).astype(np.int64) for _ in range(2)]
        gamma = (3 * parts[0] + 4 * parts[1]) % 6  # parts[0] mod 2, parts[1] mod 3
        code = GraphCode(6, 1, 8, ModMatrix(6, gamma + gamma.T))
        calls.clear()
        witness = first_failing_subset(code, 4)
        assert witness == smith_first_failing(code, 4)
        for widths, _ in calls:
            assert list(widths) == [2, 3] and widths[2] == widths[3], widths
        if witness is None:
            continue
        assert max(first for _, first in calls) <= (len(witness), witness)
        mod2 = smith_first_failing(GraphCode(2, 1, 8, ModMatrix(2, (gamma + gamma.T) % 2)), 4)
        later_mod2 += mod2 is None or (len(mod2), mod2[:-1]) > (len(witness), witness[:-1])
    assert later_mod2 >= 3, later_mod2


def _stack_corpus():
    """Stacks of five codes per (d, m): dense draws, and sparse ones whose A often lacks
    rank m.  n - m = 3 reaches the 2s > n - m shortcut at size 2; at d = 6, 15 and 30
    every leaf is reduced mod two or three primes, and a code's witness is its first
    leaf that fails mod any of them."""
    rng = np.random.default_rng(21001)
    for d, m, rows in itertools.product([2, 3, 5, 6, 7, 15, 30], [1, 2, 3, 4], [3, 6]):
        size = 2 * m + rows
        lower = np.tril(rng.integers(0, d, size=(5, size, size)), -1)
        lower *= rng.random(lower.shape) < np.array([1.0, 1.0, 0.6, 0.3, 0.15])[:, None, None]
        yield d, m, m + rows, lower + lower.swapaxes(1, 2)


@pytest.mark.parametrize("cap", ["default", "table"])
def test_stacked_scan_matches_smith_oracle_per_code(monkeypatch, cap):
    built = _record_slices(monkeypatch)
    seen, sliced = set(), False  # (n - m, f, witness); some depth built in several slices
    for d, m, n, gammas in _stack_corpus():
        expected = [smith_first_failing(GraphCode(d, m, n, ModMatrix(d, g)), 4) for g in gammas]
        if cap == "table":  # the cap admits the stack's table alone: few blocks per slice
            monkeypatch.setattr(graphs, "DEFAULT_AMPLITUDE_CAP", len(gammas) * n * (m + 2 * n))
        for f in (0, 1, 2):
            within = [w if w is not None and len(w) <= 2 * f else None for w in expected]
            built.clear()
            assert graphs._first_failing_stack(gammas, d, m, 2 * f) == within, (d, m, n, f)
            assert max(map(_entries, (piece for _, piece in built)), default=0) <= graphs.DEFAULT_AMPLITUDE_CAP
            depths = [piece.prefixes.shape[1] for _, piece in built]
            sliced |= any(depths.count(depth) > 1 for depth in depths)
            seen.update((n - m, f, w) for w in within)
    # rank-deficient A; at n - m = 3 every size-2 witness is the shortcut's; f = 1 passers
    assert {(3, 0, ()), (6, 0, ()), (3, 1, (0, 1)), (6, 1, None)} <= seen
    assert {len(w) for *_, w in seen if w is not None} == {0, 1, 2, 3}
    assert sliced or cap == "default"


def test_leaf_work_stays_flat_as_the_size_grows(monkeypatch):
    # a qutrit code that passes every subset of up to 6 of its 20 sites, each depth
    # in one slice: size s costs the eliminated columns of its comb(20, s) leaves only
    monkeypatch.setattr(graphs, "DEFAULT_AMPLITUDE_CAP", 2**22)
    monkeypatch.setattr(graphs, "_SLICE_COLUMNS", 2**16, raising=False)
    reduce_against, work = graphs._reduce_against, [0]

    def counting(field, basis, *vectors):
        basis = list(basis)
        work[0] += len(basis) * len(vectors) * vectors[0].shape[-1]
        return reduce_against(field, basis, *vectors)

    monkeypatch.setattr(graphs, "_reduce_against", counting)
    code, totals = _random_code(3, 1, 20, 22), []
    for size in range(7):
        work[0] = 0
        assert first_failing_subset(code, size) is None
        totals.append(work[0])
    per_leaf = [(totals[s] - totals[s - 1]) / comb(code.n, s) for s in range(2, 7)]
    assert max(per_leaf) <= 5, per_leaf  # two vectors against two, then v against u


def test_sliced_walk_builds_nothing_past_the_witness(monkeypatch):
    built = _record_slices(monkeypatch)
    rng = np.random.default_rng(23001)
    codes = [_sparse_code(d, m, n, rng, np.arange(1, d), density)
             for d, m, n in [(3, 1, 8), (6, 1, 8), (5, 2, 9)] for density in (0.5, 0.7, 1.0)]
    over_cap, default_cap = 0, graphs.DEFAULT_AMPLITUDE_CAP  # witnesses whose whole depth exceeds the cap
    for code in codes:
        expected = smith_first_failing(code, code.n)  # some subset of more than n - m sites fails
        table = code.n * (code.m + 2 * code.n)  # a cap that admits the projected table alone
        for columns, cap in [(1, None), (3, None), (graphs._SLICE_COLUMNS, table)]:
            monkeypatch.setattr(graphs, "_SLICE_COLUMNS", columns)
            monkeypatch.setattr(graphs, "DEFAULT_AMPLITUDE_CAP", cap or default_cap)
            built.clear()
            assert first_failing_subset(code, code.n) == expected, (code.d, code.m, code.n, columns)
            assert max((_first_leaf(piece) for _, piece in built), default=()) <= (len(expected), expected)
            assert max(map(_entries, (piece for _, piece in built)), default=0) <= graphs.DEFAULT_AMPLITUDE_CAP
            over_cap += 2 * (code.n - code.m) * comb(code.n, len(expected)) > graphs.DEFAULT_AMPLITUDE_CAP
    assert over_cap >= 5, over_cap
    # a frontier code: its size-7 depth alone holds 657800 columns of 24 rows, 30 times the cap
    monkeypatch.undo()
    built = _record_slices(monkeypatch)
    code = sample_graph(3, 2, 26, trial_rng(7, 0))
    assert first_failing_subset(code, 7) == (3, 5, 6, 8, 12, 19, 25)
    assert max(map(_entries, (piece for _, piece in built))) <= graphs.DEFAULT_AMPLITUDE_CAP


def test_stacked_tables_are_each_codes_own_table():
    # entry for entry, with each code's own first-nonzero pivots, in every field
    stacks = [(d, m, n, gammas) for d, m, n, gammas in _stack_corpus()]
    rng = np.random.default_rng(21002)
    for m, n in [(1, 5), (2, 6)]:  # Python-integer residues, some A of rank below m
        lower = np.tril(rng.choice([0, 1, _BIG_PRIME - 1], size=(3, m + n, m + n)), -1)
        stacks.append((_BIG_PRIME, m, n, lower + lower.swapaxes(1, 2)))
    deficient = 0
    for d, m, n, gammas in stacks:
        for p in modular._prime_factors(d):
            field, u, v, full = graphs._site_vectors(gammas, m, p, 1)
            for t, gamma in enumerate(gammas):
                table = site_table(gamma, m, p)
                assert full[t] == (table is not None), (d, m, n, t)
                if table is None:
                    deficient += 1
                    continue
                for got, want in ((u, table[:, :n]), (v, table[:, n:])):
                    assert np.array_equal(got[..., t * n : (t + 1) * n], field.vectors(want)), (d, m, n, t)
    assert deficient > 10


@pytest.mark.parametrize("free_rows", [64, 65], ids=["packed", "int16"])
def test_scan_keeps_the_top_bit_of_a_full_word(free_rows):
    # n - m = 64 vectors fill a uint64 word (65 take the int16 path); the input meets
    # site 0 only, so the projected rows are sites 1..n-1 and site n-1 is the last
    # entry, bit 63 of a word.  Site n-1 joins site n-2 alone: {n-1} passes only if
    # e_{n-1} keeps that entry
    n = free_rows + 1
    rng = np.random.default_rng(14003)
    edges = [[0, 1, 1], [n - 1, n, 1]]
    edges += [[1 + a, 1 + b, 1] for a, b in itertools.combinations(range(n - 1), 2) if rng.random() < 0.06]
    code = GraphCode.from_edges(2, 1, n, edges)
    field, u, v, _ = graphs._site_vectors(code.gamma.entries[None], code.m, 2, 1)
    # the class rank_prime_batch picks for p = 2 and that row count
    assert isinstance(field, modular._Gf2Words if free_rows == 64 else modular._BatchResidues)
    if free_rows == 64:
        assert u.dtype == v.dtype == np.uint64 and v[n - 1] == np.uint64(1) << np.uint64(63)
    assert check_subset(code, [n - 1])
    for max_size in (1, 2):
        assert first_failing_subset(code, max_size) == _oracle_first_failing(code, max_size)


def test_exact_verdict_matches_kl_check_verdict(tmp_path, capsys):
    # Schlingemann-Werner: a graph code corrects f errors exactly when every
    # |Z| <= 2f block has a trivial kernel, i.e. when Knill-Laflamme holds
    path = tmp_path / "code.json"
    verdicts = defaultdict(set)
    for code, f in _schlingemann_werner_slice():
        dump_graph(code, path)
        status = main(["kl-check", str(path), "--f", str(f), "--json", "--no-timing"])
        capsys.readouterr()
        assert status in (0, 1)
        exact = find_uncorrectable_subset(code, f) is None
        assert (status == 0) == exact, (code.d, code.m, code.n, f)
        verdicts[code.d].add((f, exact))
    for d in (2, 3, 4, 5, 6):
        assert {exact for _, exact in verdicts[d]} == {True, False}, d
        assert (1, True) in verdicts[d], d


def test_max_correctable_f(wheel, prism):
    assert max_correctable_f(wheel) == 1
    assert max_correctable_f(prism) == 1
    zero = GraphCode(2, 1, 2, ModMatrix(2, np.zeros((3, 3), dtype=int)))
    assert max_correctable_f(zero) == -1
    single = GraphCode.from_edges(2, 1, 1, [[0, 1, 1]])
    assert max_correctable_f(single) == 0


def test_isometry_hand_example_single_edge():
    code = GraphCode.from_edges(2, 1, 1, [[0, 1, 1]])
    v = build_isometry(code)
    expect = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(v, expect, atol=1e-12)


def test_isometry_zero_graph_columns_equal():
    code = GraphCode.from_edges(2, 1, 1, [])
    v = build_isometry(code)
    expect = np.full((2, 2), 1 / np.sqrt(2))
    assert np.allclose(v, expect, atol=1e-12)
    assert not np.allclose(v.conj().T @ v, np.eye(2), atol=1e-9)


def test_isometry_wheel_is_isometric(wheel):
    v = build_isometry(wheel)
    assert v.shape == (32, 2)
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12


def test_isometry_iff_empty_subset_passes():
    rng = np.random.default_rng(9)
    for _ in range(25):
        d = int(rng.choice([2, 3]))
        m, n = 1, 3
        g = rng.integers(0, d, size=(m + n, m + n))
        g = np.triu(g, 1)
        g = g + g.T
        code = GraphCode(d, m, n, ModMatrix(d, g))
        v = build_isometry(code)
        isometric = np.abs(v.conj().T @ v - np.eye(d**m)).max() < 1e-9
        assert isometric == check_subset(code, ())


def test_isometry_invariant_under_entry_shift_by_d(wheel):
    shifted = wheel.gamma.entries.copy().astype(np.int64)
    shifted[0, 1] += 2
    shifted[1, 0] += 2
    # rebuild via the raw phase formula: entries are reduced mod d on input,
    # and the phase has period 2d in the exponent, so adding d leaves V fixed
    code2 = GraphCode(2, 1, 5, ModMatrix.reduce(2, shifted))
    assert np.allclose(build_isometry(wheel), build_isometry(code2), atol=1e-12)


def test_isometry_dimension_cap(monkeypatch):
    def fail(*args):
        raise AssertionError("the digit tables were built")

    monkeypatch.setattr(graphs, "_digit_table", fail)
    code = GraphCode.from_edges(2, 1, 21, [[0, 1, 1]])
    with pytest.raises(DimensionOverflow):  # 2^21 rows exceed 2^20 amplitudes
        build_isometry(code)
    # 2^20 rows and 2^10 columns pass one by one, but V would hold 2^30 amplitudes
    code = GraphCode.from_edges(2, 10, 20, [[0, 10, 1]])
    with pytest.raises(DimensionOverflow, match="isometry needs 1073741824 amplitudes > 67108864"):
        build_isometry(code)


def test_isometry_holds_only_itself_and_its_exponent():
    rng = np.random.default_rng(7)
    g = np.tril(rng.integers(0, 2, size=(14, 14)), -1)
    code = GraphCode(2, 4, 10, ModMatrix(2, g + g.T))
    tracemalloc.start()
    try:
        v = build_isometry(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 B of complex128 V and 8 B of int64 exponent per amplitude, plus the digit tables
    assert peak <= 40 * v.size, peak / v.size


def test_graph_roundtrip_through_file(tmp_path, wheel):
    path = tmp_path / "wheel.json"
    dump_graph(wheel, path)
    loaded = load_graph(path)
    assert np.array_equal(loaded.gamma.entries, wheel.gamma.entries)
    assert (loaded.d, loaded.m, loaded.n) == (2, 1, 5)


def test_graph_dict_fields(wheel):
    obj = graph_to_dict(wheel)
    assert set(obj) == {"d", "m", "n", "edges"}
    assert len(obj["edges"]) == 10


def test_loads_graph_sums_multiplicities_exactly():
    # 2**63 - 25 is the largest prime below 2**63: 2 * 2**62 = 25 mod d
    d = 2**63 - 25
    edges = [[0, 1, 2**62], [1, 0, 2**62], [0, 2, 2**70], [0, 2, -(2**70) + 4], [1, 2, -3 * d - 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = loads_graph(json.dumps({"d": d, "m": 1, "n": 2, "edges": edges}))
    assert code.gamma.entries[0, 1] == 25
    assert code.gamma.entries[0, 2] == 4
    assert code.gamma.entries[1, 2] == d - 1
    assert np.array_equal(code.gamma.entries, code.gamma.entries.T)


def test_loads_graph_refuses_site_dimension_beyond_int64():
    for d in (2**63, 2**64 + 13, 10**30):
        with pytest.raises(ValueError, match=r"2\*\*63"):
            loads_graph(json.dumps({"d": d, "m": 1, "n": 1, "edges": [[0, 1, 1]]}))
    largest = loads_graph(json.dumps({"d": 2**63 - 1, "m": 1, "n": 1, "edges": [[0, 1, -1]]}))
    assert largest.gamma.entries[0, 1] == 2**63 - 2


def test_loads_graph_rejects_malformed():
    with pytest.raises(ValueError):
        loads_graph(json.dumps({"d": 2, "m": 1, "n": 1}))
    with pytest.raises(ValueError):
        loads_graph(json.dumps({"d": 2, "m": 1, "n": 1, "edges": [[0, 0, 1]]}))
    with pytest.raises(ValueError):
        loads_graph(json.dumps([1, 2, 3]))
    # non-integers are refused, not truncated by int()
    for fields in (
        {"d": 2.7},
        {"d": 3.0},
        {"m": True},
        {"n": "5"},
        {"edges": [[0, 1, 1.9]]},
        {"edges": [[0.0, 1, 1]]},
        {"edges": [[0, 1, False]]},
        {"edges": [7]},
        {"edges": 7},
    ):
        obj = dict({"d": 2, "m": 1, "n": 5, "edges": [[0, 1, 1]]}, **fields)
        with pytest.raises(ValueError):
            loads_graph(json.dumps(obj))
