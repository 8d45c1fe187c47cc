"""Weyl word images, the banded Gram form and the graph's closed form
against the dense path.

The oracle is the straightforward algorithm: every error word as a dense
d^n x d^n operator from the public error_space_basis, the images F_a V as
matrix products, the Gram blocks from one einsum with a deviation array
of the same size, and an explicit decoder built from the dense operators
G_k = sum_a c_ak F_a.  The word images of conftest.word_images, a row
gather per word, are checked against those products and feed the same
Gram routine (_kl_report) and decoder (_gram_isometry, _decoder_channel)
as kl_verify and synthesize_decoder.  The word rows of a graph code
(channels._words: each word's Gamma_XY s and Gamma_YY s - c) are checked
against products of conftest's words with Gamma in Python integers.  The
closed-form Knill-Laflamme report of a graph code (channels._graph_kl) is
checked against the dense path and against the exact verdict of verify,
and the class images that simulate
forms from that report (channels._class_images) against the gathered
image of each class's first word up to a phase, and of every word of its
class times the closed-form phase w^(S_YY(s) - c.s).  The syndrome classes
behind both (channels._row_classes, which sorts rows packed into int64
words) are checked against a dict grouping of the rows.  It all lives
only here.
"""

import itertools
from math import comb

import numpy as np
import pytest

from graphqec import channels, graphs
from graphqec.channels import (
    GRAM_EIGENVALUE_CUTOFF,
    KL_TOLERANCE,
    Channel,
    _decoder_channel,
    _error_space,
    _graph_kl,
    _gram_isometry,
    _isometry_gap,
    _kl_report,
    _words,
    _require_isometry,
    error_space_basis,
    identity_channel,
    kl_verify,
    localized_error_basis,
    synthesize_decoder,
    tensor_channels,
    verify_etd,
    weyl_operator,
)
from graphqec.errors import DimensionOverflow, NotIsometry
from graphqec.graphs import GraphCode, build_isometry, first_failing_subset, prism_code, wheel_code
from graphqec.modular import ModMatrix, _prime_factors
from graphqec.noise import make_depolarizing, make_unitary_channel, phase_rotation

from conftest import degenerate_wheel, error_words, seeded_code, subset_words, word_images

# (d, m, n, f): prime and composite d, one and two errors, one and two inputs
CASES = [
    (2, 1, 5, 1), (2, 1, 6, 2), (2, 2, 5, 1),
    (3, 1, 5, 1), (3, 1, 4, 2), (3, 2, 4, 1),
    (4, 1, 4, 1), (4, 1, 2, 2),
    (5, 1, 3, 1), (6, 1, 3, 1),
]
# cases whose second code is drawn to correct f, so both verdicts occur
CORRECTING = {(2, 1, 5, 1), (3, 1, 5, 1)}


def corpus():
    """Per case two isometric codes, the second correcting f for the CORRECTING cases."""
    for index, (d, m, n, f) in enumerate(CASES):
        yield d, f, seeded_code(d, m, n, 100 * index, 0)
        yield d, f, seeded_code(d, m, n, 100 * index + 1, f if (d, m, n, f) in CORRECTING else 0)


def word_report(v, d, n, f):
    """kl_verify of every word on at most f of n sites, from the gathered images."""
    _require_isometry(v)
    return _kl_report(word_images(v, d, *error_words(n, d, f)))


def word_decoder(v, d, n, f):
    """synthesize_decoder of every word on at most f of n sites, from the gathered images."""
    return _decoder_channel(_gram_isometry(word_images(v, d, *error_words(n, d, f))))


def dense_images(v, basis):
    return np.stack([op @ v for op in basis], axis=1)


def einsum_report(v, basis):
    """(gram, max deviation) with all K x K Gram blocks held at once."""
    w = np.stack([op @ v for op in basis])
    blocks = np.einsum("aji,bjk->abik", w.conj(), w)
    gram = np.trace(blocks, axis1=2, axis2=3) / v.shape[1]
    deviation = blocks - gram[:, :, None, None] * np.eye(v.shape[1])
    return gram, float(np.abs(deviation).max())


def explicit_decoder(v, basis):
    """The decoder as dense Kraus operators (G_k V)*, with the complement routed to |0><0|."""
    dim_out, dim_in = v.shape
    gram, deviation = einsum_report(v, basis)
    assert deviation <= KL_TOLERANCE
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > GRAM_EIGENVALUE_CUTOFF
    coeff = vecs[:, keep] / np.sqrt(vals[keep])
    g_ops = np.einsum("ak,aij->kij", coeff, np.stack(basis))
    kraus = [(g @ v).conj().T for g in g_ops]
    u = np.concatenate([g @ v for g in g_ops], axis=1)
    pvals, pvecs = np.linalg.eigh(np.eye(dim_out) - u @ u.conj().T)
    for c in pvecs[:, pvals > 0.5].T:
        route = np.zeros((dim_in, dim_out), dtype=np.complex128)
        route[0] = c.conj()
        kraus.append(route)
    return Channel(tuple(kraus))


def expected_rows(code, subsets, letters):
    """[Gamma_XY s | Gamma_YY s - c] mod d of conftest's words, in Python integers."""
    d, m = code.d, code.m
    shift, clock = subset_words(code.n, d, subsets, letters)
    gamma = code.gamma.entries.astype(object)
    return np.hstack([shift @ gamma[m:, :m] % d, (shift @ gamma[m:, m:] - clock) % d])


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9, 4294967311])
def test_word_rows_are_each_words_dual_and_syndrome(d):
    # past 3 * 10^9 the products take Python integers; there the d^2 - 1 letters of the error
    # space cannot be enumerated, and four stand in: X^(d-2), X^(d-1), Z and XZ
    rng = np.random.default_rng(d % 10007)
    for m, n in [(1, 4), (2, 3), (1, 5)]:
        g = np.triu(rng.integers(0, d, size=(m + n, m + n)), 1)
        code = GraphCode(d, m, n, ModMatrix(d, g + g.T))
        for f in range(3):
            if d**f > 81 or (n == 5 and d > 2):  # about 10^4 words at most
                continue
            subsets, letters = _error_space(n, d, f)
            ways = {size: comb(n, size) for size in range(f + 1)}
            if d > 2**31:
                letters = range(d - 2, d + 2)
            subsets = list(subsets)
            rows = _words(code, ways, iter(subsets), letters, "error words")
            count = sum(len(letters) ** len(z) for z in subsets)
            assert rows.dtype == np.int64 and rows.shape == (count, m + n)
            if count * d ** (2 * n) <= 2**20:  # the dense basis is small
                assert count == len(error_space_basis(n, d, f))
            assert np.array_equal(rows, expected_rows(code, subsets, letters).astype(np.int64)), (m, n, f)
        # the syndrome table's words: one subset, every letter, the identity included
        for size in range(4):
            if d ** (2 * size) > 4096 or d > 2**31 and size:
                continue
            sites = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            letters = range(d * d)
            rows = _words(code, {size: 1}, [sites], letters, "noise words")
            assert rows.shape == (d ** (2 * size), m + n)
            if len(rows) * d ** (2 * n) <= 2**20:
                assert len(rows) == len(localized_error_basis(n, d, sites))
            assert np.array_equal(rows, expected_rows(code, [sites], letters).astype(np.int64)), (m, n, sites)


def test_word_images_match_dense_products():
    for d, f, code in corpus():
        v = build_isometry(code)
        got = word_images(v, d, *error_words(code.n, d, f))
        want = dense_images(v, error_space_basis(code.n, d, f))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15, (d, f, code.n)
        if d == 2 and f == 1:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def graph_kl_corpus():
    """(code, f): seeded codes at prime, prime-power and mixed d, sparse draws included,
    so that non-isometric encoders, passing codes and failing ones occur; every f with
    2f < n whose dense Gram form costs at most about 10^8 multiply-adds."""
    rng = np.random.default_rng(17001)
    for d in (2, 3, 4, 5, 6, 9):
        for m, n in [(1, 3), (1, 4), (1, 5), (2, 4), (2, 5)]:
            for density in (0.4, 0.7, 1.0):
                g = np.triu(rng.integers(0, d, size=(m + n, m + n)) * (rng.random((m + n, m + n)) < density), 1)
                code = GraphCode(d, m, n, ModMatrix(d, g + g.T))
                for f in range((n - 1) // 2 + 1):
                    words = sum(comb(n, size) * (d * d - 1) ** size for size in range(f + 1))
                    if words**2 * d ** (2 * m + n) <= 10**8:
                        yield code, f


def test_graph_kl_matches_dense_kl_verify_and_verify():
    seen = set()
    for code, f in graph_kl_corpus():
        report = _graph_kl(code, f)
        v = build_isometry(code)
        try:
            dense = word_report(v, code.d, code.n, f).max_deviation
        except NotIsometry:  # what kl-check reported before: the gap of V*V
            dense = _isometry_gap(v)
            seen.add("non-isometric")
        assert abs(report.max_deviation - dense) <= 1e-12, (code.d, code.m, code.n, f)
        assert report.correcting == (first_failing_subset(code, 2 * f) is None), (code.d, code.n, f)
        if report.syndrome is not None and len(report.syndrome) < report.words:
            seen.add("multi-word classes")
        seen.add((code.d, report.correcting))
    assert {"non-isometric", "multi-word classes"} <= seen
    assert {(d, verdict) for d in (2, 3, 4, 5, 6) for verdict in (True, False)} <= seen


def coset_keys(code, syndromes, q, p):
    """Each syndrome's key mod q = p^k: its rows without a pivot in [Gamma_YX | sigma^T]
    row-reduced mod q."""
    table = np.hstack([code.gamma.entries[code.m :, : code.m], syndromes.T]) % q
    kept, full = graphs._projection(table[None], code.m, q, p)
    assert full[0]
    return kept[0, :, code.m :].T


def distinct_rows(*arrays):
    return len(np.unique(np.hstack(arrays), axis=0))


def test_graph_kl_verdicts_at_prime_power_d_decide_shared_cosets_exactly():
    # at d = p^k two classes can agree mod p and still lie in distinct cosets of the
    # columns Gamma_YX delta mod d; only their keys mod p^k tell whether their blocks vanish
    outcomes = set()

    def observe(code, f):
        report = _graph_kl(code, f)
        if report.syndrome is not None:
            (p,) = _prime_factors(code.d)
            mod_q = coset_keys(code, report.syndrome, code.d, p)
            mod_p = coset_keys(code, report.syndrome, p, p)
            if distinct_rows(mod_p) < distinct_rows(mod_p, mod_q):
                outcomes.add((code.d, "agree mod p only"))
            if distinct_rows(mod_q) < len(report.syndrome):
                outcomes.add((code.d, "agree mod p^k"))
                assert not report.correcting
        return report

    rng = np.random.default_rng(17002)
    for d, m, n in [(4, 1, 4), (4, 1, 5), (4, 2, 5), (9, 1, 4), (9, 1, 5), (8, 1, 5)]:
        for density in (0.4, 0.7, 1.0):
            g = np.triu(rng.integers(0, d, size=(m + n, m + n)) * (rng.random((m + n, m + n)) < density), 1)
            code = GraphCode(d, m, n, ModMatrix(d, g + g.T))
            for f in range((n - 1) // 2 + 1):
                assert observe(code, f).correcting == (first_failing_subset(code, 2 * f) is None), (d, n, f)
    # the five-qubit graphs at d = p^k correct one error: the identity and each Z_z^p
    # share their syndromes mod p but no coset of the column module mod d
    for base, d in itertools.product([wheel_code(), prism_code()], [4, 8, 9]):
        assert observe(GraphCode(d, 1, 5, ModMatrix(d, base.gamma.entries)), 1).correcting
    assert {(d, kind) for d in (4, 9) for kind in ("agree mod p only", "agree mod p^k")} <= outcomes, outcomes


def dict_classes(rows):
    """(first, label) of _row_classes by a dict of row tuples, classes sorted as tuples."""
    groups = {}
    for index, row in enumerate(map(tuple, rows.tolist())):
        groups.setdefault(row, []).append(index)
    keys = sorted(groups)
    rank = {key: k for k, key in enumerate(keys)}
    return [groups[key][0] for key in keys], [rank[row] for row in map(tuple, rows.tolist())]


@pytest.mark.parametrize("d", [2, 3, 4, 6, 2**31 - 1, 2**62 + 135])
def test_row_classes_match_a_dict_grouping_in_lexicographic_order(d):
    per = 63 // (d - 1).bit_length()  # entries to a packed word
    rng = np.random.default_rng(d % 1009)
    for width in sorted({0, 1, per - 1, per, per + 1, 2 * per + 3}):
        distinct = rng.integers(0, d, size=(9, width), dtype=np.int64)
        distinct[rng.random((9, width)) < 0.3] = d - 1  # the widest entry a word holds
        distinct[rng.random((9, width)) < 0.3] = 0
        rows = distinct[rng.integers(0, 9, size=60)]  # with duplicates
        first, label = channels._row_classes(rows, d)
        assert (first.tolist(), label.tolist()) == dict_classes(rows), width
    if d == 2:  # rows that agree on the first word of 63 entries and differ only in the second
        rows = np.tile(rng.integers(0, 2, size=70), (40, 1))
        rows[:, 63:] = rng.integers(0, 2, size=(40, 7))
        rows[5, 62] = 1 - rows[5, 62]  # and one that differs at the first word's last entry
        first, label = channels._row_classes(rows, d)
        assert (first.tolist(), label.tolist()) == dict_classes(rows)
        assert len(first) > 2


def test_class_images_are_the_first_words_images_up_to_a_phase():
    seen = set()
    for code, f in itertools.chain(graph_kl_corpus(), [(degenerate_wheel(), 1)]):
        report = _graph_kl(code, f)
        if report.syndrome is None:  # no isometry, so no images
            continue
        d, m = code.d, code.m
        shift, clock = error_words(code.n, d, f)
        syndromes = (shift @ code.gamma.entries[m:, m:] - clock) % d
        first = [np.flatnonzero((syndromes == sigma).all(axis=1))[0] for sigma in report.syndrome]
        assert len(first) == len(np.unique(syndromes, axis=0))
        v = build_isometry(code)
        got = channels._class_images(code, v, report)
        want = word_images(v, d, shift[first], clock[first])
        phase = got[0, :, 0] / want[0, :, 0]  # V has no zero entry
        assert np.abs(np.abs(phase) - 1).max() <= 1e-14
        assert np.abs(got - phase[None, :, None] * want).max() <= 1e-14, (d, m, code.n, f)
        seen.add((d, m, f))
    assert {(d, m) for d, m, _ in seen} == {(d, m) for d in (2, 3, 4, 5, 6, 9) for m in (1, 2)}
    assert {f for _, _, f in seen} == {0, 1, 2}


def test_class_images_take_their_phases_from_the_exact_clock_powers():
    # U[y, k, x] = w^(-sigma_k.y) w^(-tau_k.x) V[y, x], its exponents summed digit by digit
    # in Python integers: the same phases and products, so the same bits
    for code, f in itertools.islice(graph_kl_corpus(), 0, None, 7):
        report = _graph_kl(code, f)
        if report.syndrome is None:
            continue
        d, clock = code.d, np.diag(weyl_operator(code.d, 0, 1))
        phases = [
            clock[[[-sum(int(a) * int(b) for a, b in zip(digits, row)) % d for row in weights]
                   for digits in itertools.product(range(d), repeat=weights.shape[1])]]
            for weights in (report.syndrome, report.dual)
        ]
        v = build_isometry(code)
        want = phases[0][:, :, None] * phases[1].T[None] * v[:, None, :]
        assert np.array_equal(channels._class_images(code, v, report), want), (d, code.m, code.n, f)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_every_words_image_is_its_class_image_times_its_closed_form_phase(d):
    # X^s Z^c V = w^(S_YY(s) - c.s) U[:, k] for every word of class k, not only the first
    rng = np.random.default_rng(d)
    checked = set()
    for m, n in [(1, 5), (2, 4)] if d < 4 else [(1, 3), (2, 3)]:
        g = np.triu(rng.integers(0, d, size=(m + n, m + n)), 1)
        code = GraphCode(d, m, n, ModMatrix(d, g + g.T))
        for f in (0, 1, 2):
            shift, clock = error_words(n, d, f)
            report = _graph_kl(code, f)
            if report.syndrome is None or len(shift) * d ** (n + m) > 2**21:  # no images, or large
                continue
            gamma_yy = code.gamma.entries[m:, m:]
            syndromes = (shift @ gamma_yy - clock) % d
            match = (syndromes[:, None, :] == report.syndrome[None]).all(axis=2)
            assert (match.sum(axis=1) == 1).all(), (m, n, f)
            label = match.argmax(axis=1)
            # a word whose Gamma_XY s differs from its class's leaves the code uncorrecting
            same = ((shift @ code.gamma.entries[m:, :m] - report.dual[label]) % d == 0).all(axis=1)
            assert same.all() or not report.correcting, (m, n, f)
            s_yy = np.einsum("ki,ij,kj->k", shift, np.triu(gamma_yy, 1), shift)
            phase = np.diag(weyl_operator(d, 0, 1))[(s_yy - (clock * shift).sum(axis=1)) % d]
            v = build_isometry(code)
            got = phase[None, same, None] * channels._class_images(code, v, report)[:, label[same]]
            want = word_images(v, d, shift[same], clock[same])
            assert np.abs(got - want).max() <= 1e-14, (m, n, f)
            checked.add(int(same.sum()) > len(report.syndrome))
    assert True in checked


def test_graph_kl_and_decoder_of_a_degenerate_code_match_the_dense_path():
    code = degenerate_wheel()
    v = build_isometry(code)
    report = _graph_kl(code, 1)
    assert (len(report.syndrome), report.words) == (17, 19)
    dense = word_report(v, 2, 6, 1)
    assert report.correcting and abs(report.max_deviation - dense.max_deviation) <= 1e-12
    assert np.linalg.matrix_rank(dense.gram, tol=GRAM_EIGENVALUE_CUTOFF) == 17
    encoder, decoder = Channel((v,)), word_decoder(v, 2, 6, 1)
    for sites in [(), (5,), (0,), (1, 5)]:
        noise = tensor_channels(*(make_depolarizing(2, 0.3) if s in sites else identity_channel(2) for s in range(6)))
        want = verify_etd(encoder, noise, decoder)
        assert abs(channels._local_etd(code, report, make_depolarizing(2, 0.3), sites) - want) <= 1e-12, sites


def test_max_deviation_matches_the_einsum_oracle():
    verdicts = set()
    for d, f, code in corpus():
        v = build_isometry(code)
        basis = error_space_basis(code.n, d, f)
        gram, deviation = einsum_report(v, basis)
        for report in (word_report(v, d, code.n, f), kl_verify(v, basis)):
            assert abs(report.max_deviation - deviation) <= 1e-12, (d, f, code.n)
            assert report.correcting == (deviation <= KL_TOLERANCE)
            assert np.abs(report.gram - gram).max() <= 1e-12
        verdicts.add(report.correcting)
    assert verdicts == {True, False}


def test_gram_bands_agree_with_one_band(monkeypatch):
    for d, f, code in corpus():
        v = build_isometry(code)
        whole = word_report(v, d, code.n, f)
        monkeypatch.setattr(channels, "_GRAM_BAND", 1)  # one a-row per band
        banded = word_report(v, d, code.n, f)
        monkeypatch.undo()
        assert abs(banded.max_deviation - whole.max_deviation) <= 1e-14
        assert np.abs(banded.gram - whole.gram).max() <= 1e-14


@pytest.mark.parametrize("d, n, seed", [(2, 5, 1), (2, 5, 2), (2, 7, 3), (3, 5, 4)])
def test_decoder_choi_distances_match_the_explicit_decoder(d, n, seed):
    code = seeded_code(d, 1, n, seed, 1)
    v = build_isometry(code)
    encoder = Channel((v,))
    decoder = word_decoder(v, d, n, 1)
    oracle = explicit_decoder(v, error_space_basis(n, d, 1))
    depolarizing, rotation = make_depolarizing(d, 0.3), make_unitary_channel(phase_rotation(d, 0.4))[0]
    for single, sites in [(depolarizing, (1,)), (rotation, (2,)), (depolarizing, (0, 3))]:
        noise = tensor_channels(*(single if s in sites else identity_channel(d) for s in range(n)))
        got, want = verify_etd(encoder, noise, decoder), verify_etd(encoder, noise, oracle)
        assert abs(got - want) <= 1e-12, (sites, got, want)


def test_image_and_gram_budgets_refuse_before_allocating(monkeypatch, wheel):
    v = build_isometry(wheel)  # 32 x 2
    basis = error_space_basis(5, 2, 2)  # 106 words: 6,784 image amplitudes, a 106 x 106 Gram form
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 106 * 106)
    assert len(kl_verify(v, basis).gram) == 106

    def fail(*args, **kwargs):
        raise AssertionError("the images were formed")

    with monkeypatch.context() as patch:
        patch.setattr(np, "stack", fail)  # the images F_a V are stacked only past both budgets
        patch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 106 * 106 - 1)
        with pytest.raises(DimensionOverflow, match="Gram form needs 11236 amplitudes"):
            kl_verify(v, basis)
        patch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 106 * 64 - 1)
        with pytest.raises(DimensionOverflow, match="error images needs 6784 amplitudes"):
            synthesize_decoder(v, basis)
    # more operators than dim_in^2 = 4: the Gram form, not the images, meets the cap
    identities = [np.eye(32)] * 100
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 100 * 100)
    assert kl_verify(v, identities).correcting
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 100 * 100 - 1)
    with pytest.raises(DimensionOverflow, match="Gram form needs 10000 amplitudes"):
        kl_verify(v, identities)


def test_decoder_register_budget_refuses_before_the_complete_qr(monkeypatch, wheel):
    v = build_isometry(wheel)  # 32 x 2: the complete Q is one 32 x 32 register operator
    basis = error_space_basis(5, 2, 1)
    monkeypatch.setattr(channels, "DEFAULT_AMPLITUDE_CAP", 32 * 32)
    assert synthesize_decoder(v, basis).dim_out == 2

    def fail(*args, **kwargs):
        raise AssertionError("the complete QR was reached")

    monkeypatch.setattr(np.linalg, "qr", fail)
    monkeypatch.setattr(channels, "DEFAULT_AMPLITUDE_CAP", 32 * 32 - 1)
    with pytest.raises(DimensionOverflow, match="register operator needs 1024 amplitudes > 1023"):
        synthesize_decoder(v, basis)
