import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from graphqec import channels, graphs
from graphqec.channels import (
    Channel,
    _weyl_letters,
    apply_channel,
    choi_state,
    error_space_basis,
    identity_channel,
    kl_verify,
    localized_error_basis,
    synthesize_decoder,
    tensor_channels,
    verify_etd,
    weyl_operator,
)
from graphqec.errors import (
    DimensionMismatch,
    DimensionOverflow,
    InvalidSubset,
    KLViolated,
    NotIsometry,
)
from graphqec.graphs import GraphCode, build_isometry, check_subset
from graphqec.modular import ModMatrix
from graphqec.noise import make_depolarizing
from graphqec.search import sample_graph, trial_rng


def rand_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_channel_keeps_one_kraus_array():
    stack = make_depolarizing(2, 0.3).kraus
    assert (stack.dtype, stack.shape) == (np.complex128, (4, 2, 2))
    assert np.shares_memory(Channel(stack).kraus, stack)
    assert Channel([np.eye(2)]).kraus.shape == (1, 2, 2)


def test_channel_requires_completeness():
    with pytest.raises(ValueError):
        Channel((0.5 * np.eye(2),))


def test_channel_refuses_no_operator_and_operators_that_are_not_matrices():
    with pytest.raises(ValueError) as err:
        Channel(())
    assert str(err.value) == "a channel needs at least one Kraus operator"
    with pytest.raises(DimensionMismatch) as err:
        Channel((np.ones(2),))
    assert str(err.value) == "Kraus operators must be 2-D, got shape (2,)"


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300], ids=["nan", "inf", "overflow"])
def test_isometry_checks_refuse_non_finite_gaps(bad):
    # filterwarnings = error: an invalid-value or overflow warning would fail here
    with pytest.raises(ValueError, match="Kraus completeness"):
        Channel((np.diag([1.0, bad]),))
    with pytest.raises(NotIsometry):
        kl_verify(np.array([[1.0], [bad]]), [np.eye(2)])


def test_isometry_check_copies_one_band_of_v():
    v = build_isometry(sample_graph(2, 4, 14, trial_rng(3, 0)))  # 2^14 x 2^4, four bands
    band = channels._ISOMETRY_BAND * v.itemsize
    result = v.shape[1] ** 2 * v.itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        channels._isometry_gap(v)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the band's conjugate, the dim_in^2 sum and one product of it, and numpy's fixed
    # ufunc buffer; V * V from the whole of V would hold a conjugate copy of V
    assert v.nbytes == 4 * band
    assert extra < band + 2 * result + np.getbufsize() * v.itemsize


def test_error_bases_are_views_into_per_subset_stacks():
    for basis in (error_space_basis(3, 2, 2), localized_error_basis(3, 3, (0, 2))):
        assert all(op.base is not None for op in basis)
    basis = error_space_basis(3, 2, 1)  # identity, then 3 words on each of 3 sites
    assert basis[1].base is basis[3].base and basis[3].base is not basis[4].base


def test_channel_requires_matching_shapes():
    with pytest.raises(DimensionMismatch):
        Channel((np.eye(2), np.eye(3)))


def test_apply_identity_channel():
    rng = np.random.default_rng(0)
    rho = rand_state(rng, 4)
    assert np.allclose(apply_channel(identity_channel(4), rho), rho)


def test_apply_completely_depolarizing():
    rng = np.random.default_rng(1)
    rho = rand_state(rng, 2)
    out = apply_channel(make_depolarizing(2, 1.0), rho)
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_apply_unitary_channel_hand_example():
    u = np.diag([1.0, 1.0j])
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = apply_channel(Channel((u,)), plus)
    expect = 0.5 * np.array([[1, -1j], [1j, 1]])
    assert np.allclose(out, expect, atol=1e-12)


def test_apply_channel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_channel(identity_channel(2), np.eye(3))


def test_apply_channel_is_one_budgeted_stage(monkeypatch):
    # four 2 x 2 Kraus operators on a 2 x 2 state: the state, the four one-sided images
    # and their reordered copy, and the product
    channel, rho = make_depolarizing(2, 0.3), np.eye(2) / 2
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 4 + 2 * 4 * 2 * 2 + 4)
    assert np.allclose(apply_channel(channel, rho), rho)
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 39)
    with pytest.raises(DimensionOverflow, match="dense Choi stage needs 40 amplitudes > 39"):
        apply_channel(channel, rho)


def test_channel_preserves_trace_and_positivity():
    rng = np.random.default_rng(2)
    channels = [
        make_depolarizing(2, 0.3),
        make_depolarizing(3, 0.7),
        tensor_channels(make_depolarizing(2, 0.2), identity_channel(2)),
    ]
    for ch in channels:
        for _ in range(100):
            rho = rand_state(rng, ch.dim_in)
            out = apply_channel(ch, rho)
            assert abs(np.trace(out) - 1.0) < 1e-9
            assert np.linalg.eigvalsh(out).min() > -1e-9
            assert np.abs(out - out.conj().T).max() < 1e-9


def test_tensor_channels_identity():
    t = tensor_channels(identity_channel(2), identity_channel(3))
    rng = np.random.default_rng(3)
    rho = rand_state(rng, 6)
    assert np.allclose(apply_channel(t, rho), rho)


def test_tensor_channels_factorizes():
    rng = np.random.default_rng(4)
    t = make_depolarizing(2, 0.4)
    combo = tensor_channels(t, identity_channel(2))
    rho, sigma = rand_state(rng, 2), rand_state(rng, 2)
    out = apply_channel(combo, np.kron(rho, sigma))
    assert np.allclose(out, np.kron(apply_channel(t, rho), sigma), atol=1e-12)


def test_tensor_channels_kraus_count_multiplies():
    t1 = make_depolarizing(2, 0.5)
    t2 = make_depolarizing(2, 0.25)
    assert len(tensor_channels(t1, t2).kraus) == len(t1.kraus) * len(t2.kraus)


def _kron_chain(factors):
    """Reference: a left-to-right chain of np.kron starting from the 1x1 identity."""
    op = np.ones((1, 1), dtype=np.complex128)
    for factor in factors:
        op = np.kron(op, factor)
    return op


def _chain_word(n, d, sites, word):
    by_site = dict(zip(sites, word))  # q = a + d*b -> X^a Z^b
    return _kron_chain(
        weyl_operator(d, by_site[s] % d, by_site[s] // d) if s in by_site else np.eye(d)
        for s in range(n)
    )


def _bit_equal(got, expect):
    got, expect = np.asarray(got), np.asarray(expect)
    return got.shape == expect.shape and np.array_equal(got.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("d, n, f", [(2, 1, 1), (2, 4, 2), (2, 6, 2), (3, 2, 2), (3, 4, 2), (3, 5, 1)])
def test_error_space_basis_matches_kron_chain(d, n, f):
    expect = [np.eye(d**n, dtype=np.complex128)]
    for size in range(1, f + 1):
        for z in itertools.combinations(range(n), size):
            for word in itertools.product(range(1, d * d), repeat=size):
                expect.append(_chain_word(n, d, z, word))
    assert _bit_equal(error_space_basis(n, d, f), expect)


@pytest.mark.parametrize("d, n", [(2, 1), (2, 4), (2, 6), (3, 3), (3, 4)])
def test_localized_error_basis_matches_kron_chain(d, n):
    for size in range(3):
        for z in itertools.combinations(range(n), size):
            expect = [_chain_word(n, d, z, word) for word in itertools.product(range(d * d), repeat=size)]
            assert _bit_equal(localized_error_basis(n, d, z), expect), z


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_weyl_letters_are_the_weyl_operators_and_depolarizing_weights_each_once(d):
    letters, kraus, p = _weyl_letters(d), make_depolarizing(d, 0.3).kraus, 0.3
    assert letters.shape == kraus.shape == (d * d, d, d)
    for q in range(d * d):  # q = a + d*b -> X^a Z^b
        letter = weyl_operator(d, q % d, q // d)
        weight = np.sqrt(1.0 - p + p / d**2) if q == 0 else np.sqrt(p) / d
        assert _bit_equal(letters[q], letter) and _bit_equal(kraus[q], weight * letter), q


def test_an_error_basis_of_empty_subsets_reads_no_letter_within_three_gib():
    # the answer is one 1000 x 1000 identity; the 10^6 letters of d = 1000 would not fit
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))\n"
        "import numpy as np\n"
        "from graphqec.channels import error_space_basis, localized_error_basis\n"
        "for basis in (error_space_basis(1, 1000, 0), localized_error_basis(1, 1000, ())):\n"
        "    assert len(basis) == 1 and np.array_equal(basis[0], np.eye(1000))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr


def test_tensor_channels_matches_kron_chain():
    rng = np.random.default_rng(23)
    v = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))[0]
    isometry = Channel((v,))
    unitaries = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(2)]
    mixed = Channel((np.sqrt(0.3) * unitaries[0], np.sqrt(0.7) * unitaries[1]))
    depolarizing = [make_depolarizing(2, 0.3), make_depolarizing(3, 0.5)]
    for parts in (
        [isometry],
        [mixed, isometry, depolarizing[0]],
        [depolarizing[1], isometry, mixed, identity_channel(2)],
        [identity_channel(2), depolarizing[0], identity_channel(2), depolarizing[0], identity_channel(2)],
    ):
        expect = [_kron_chain(ops) for ops in itertools.product(*(ch.kraus for ch in parts))]
        assert _bit_equal(tensor_channels(*parts).kraus, expect)
    chained = tensor_channels(tensor_channels(mixed, isometry), depolarizing[0])
    assert _bit_equal(tensor_channels(mixed, isometry, depolarizing[0]).kraus, chained.kraus)


def test_total_budget_refuses_before_allocating(monkeypatch):
    # 2 qubits: each operator holds 16 amplitudes
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 16 * 16)
    assert len(localized_error_basis(2, 2, (0,))) == 4
    assert len(error_space_basis(2, 2, 1)) == 7
    assert len(tensor_channels(make_depolarizing(2, 0.3), make_depolarizing(2, 0.3)).kraus) == 16
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 16 * 16 - 1)
    with pytest.raises(DimensionOverflow, match="amplitudes"):
        localized_error_basis(2, 2, (0, 1))
    with pytest.raises(DimensionOverflow, match="amplitudes"):
        error_space_basis(2, 2, 2)
    with pytest.raises(DimensionOverflow, match="amplitudes"):
        tensor_channels(make_depolarizing(2, 0.3), make_depolarizing(2, 0.3))


def test_choi_factor_gate_counts_the_images_and_their_reordered_copy(monkeypatch):
    # four 2x2 Kraus operators on a (4, 1) factor: images of 4 x 4 amplitudes, and the copy
    channel = make_depolarizing(2, 0.3)
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 2 * 16)
    assert choi_state(channel).shape == (4, 4)
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 2 * 16 - 1)
    with pytest.raises(DimensionOverflow, match="Choi factor needs 32 amplitudes"):
        choi_state(channel)


def test_total_budget_at_ten_qubits(monkeypatch):
    built = []

    def record(stacks):  # admits without allocating the 2^20-amplitude operators
        count = int(np.prod([s.shape[0] for s in stacks]))
        built.append(count)
        return np.zeros((count, 0, 0), dtype=np.complex128)

    def fail(stacks):
        raise AssertionError("the Kronecker product was reached")

    monkeypatch.setattr(channels, "_kron_stacks", record)
    assert len(error_space_basis(10, 2, 1)) == 31  # 31 x 2^20 amplitudes
    assert len(localized_error_basis(10, 2, (0, 1, 2))) == 64  # exactly 2^26
    assert sum(built) == 31 + 64
    monkeypatch.setattr(channels, "_kron_stacks", fail)
    with pytest.raises(DimensionOverflow):
        error_space_basis(10, 2, 2)  # 436 operators, about 7.3 GB
    with pytest.raises(DimensionOverflow):
        localized_error_basis(10, 2, (0, 1, 2, 3))
    noisy = [make_depolarizing(2, 0.3) if s < 5 else identity_channel(2) for s in range(10)]
    with pytest.raises(DimensionOverflow):
        tensor_channels(*noisy)  # 1,024 Kraus operators of 2^20 amplitudes


def test_weyl_qubit_words():
    eye, x, z, xz = (weyl_operator(2, a, b) for a, b in [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert np.allclose(eye, np.eye(2))
    assert np.allclose(x, np.array([[0, 1], [1, 0]]))
    assert np.allclose(z, np.diag([1, -1]))
    assert np.allclose(xz, x @ z)


def test_weyl_words_are_unitary_and_trace_orthogonal():
    for d in (2, 3, 5):
        words = [weyl_operator(d, a, b) for a in range(d) for b in range(d)]
        for w in words:
            assert np.allclose(w.conj().T @ w, np.eye(d), atol=1e-12)
        for i, wi in enumerate(words):
            for j, wj in enumerate(words):
                overlap = np.trace(wi.conj().T @ wj)
                assert abs(overlap - (d if i == j else 0.0)) < 1e-9


def test_localized_basis_empty_subset():
    basis = localized_error_basis(3, 2, ())
    assert len(basis) == 1
    assert np.allclose(basis[0], np.eye(8))


def test_localized_basis_single_qubit_site():
    basis = localized_error_basis(1, 2, (0,))
    labels = [np.eye(2), weyl_operator(2, 1, 0), weyl_operator(2, 0, 1), weyl_operator(2, 1, 1)]
    assert len(basis) == 4
    for got, expect in zip(basis, labels):
        assert np.allclose(got, expect)


def test_localized_basis_acts_only_on_given_site():
    basis = localized_error_basis(2, 2, (1,))
    assert len(basis) == 4
    for op in basis:
        # blocks of I (x) P structure: top-left equals bottom-right, off-blocks zero
        assert np.allclose(op[:2, :2], op[2:, 2:])
        assert np.allclose(op[:2, 2:], 0)


def test_localized_basis_counts_and_identity_first():
    basis = localized_error_basis(2, 3, (0, 1))
    assert len(basis) == 3**4
    assert np.allclose(basis[0], np.eye(9))


def test_localized_basis_cap(monkeypatch):
    def fail(stacks):
        raise AssertionError("the Kronecker product was reached")

    monkeypatch.setattr(channels, "_kron_stacks", fail)
    with pytest.raises(DimensionOverflow):  # 2^11 x 2^11 operators exceed 2^20 amplitudes
        localized_error_basis(11, 2, (0, 1))


@pytest.mark.parametrize("sites", [(0, 0), (2,), (-1,)])
def test_localized_basis_refuses_invalid_sites(sites):
    with pytest.raises(InvalidSubset):
        localized_error_basis(2, 2, sites)


def test_error_space_basis_counts():
    assert len(error_space_basis(5, 2, 1)) == 1 + 5 * 3
    assert len(error_space_basis(5, 2, 2)) == 1 + 5 * 3 + 10 * 9


def test_error_space_basis_refuses_negative_f():
    # the same refusal as find_uncorrectable_subset, not an identity-only basis
    with pytest.raises(ValueError, match="error count must be non-negative, got -1"):
        error_space_basis(5, 2, -1)


def test_kl_verify_identity_error():
    v = np.eye(4)[:, :2]
    report = kl_verify(v, [np.eye(4)])
    assert report.max_deviation == 0.0
    assert np.allclose(report.gram, [[1.0]])
    assert report.correcting


def test_kl_verify_requires_isometry():
    with pytest.raises(NotIsometry):
        kl_verify(np.ones((4, 2)), [np.eye(4)])


def test_kl_verify_rejects_wrong_error_dims(wheel):
    v = build_isometry(wheel)
    with pytest.raises(DimensionMismatch):
        kl_verify(v, [np.eye(4)])


def test_wheel_single_site_traceless_maps_to_zero(wheel):
    v = build_isometry(wheel)
    for site in range(5):
        for op in localized_error_basis(5, 2, (site,))[1:]:
            assert np.abs(v.conj().T @ op @ v).max() < 1e-9


def test_wheel_kl_over_full_two_site_products(wheel):
    v = build_isometry(wheel)
    report = kl_verify(v, error_space_basis(5, 2, 1))
    assert report.max_deviation < 1e-9
    gram = report.gram
    assert np.abs(gram - gram.conj().T).max() < 1e-9
    assert np.linalg.eigvalsh(gram).min() > -1e-9


def test_localized_errors_act_as_scalars_on_passing_subsets():
    # cross-module property: V* F V = d^{-n} tr(F) 1 whenever Z passes
    rng = np.random.default_rng(6)
    for d in (2, 3):
        g = rng.integers(0, d, size=(4, 4))
        g = np.triu(g, 1)
        g = g + g.T
        code = GraphCode(d, 1, 3, ModMatrix(d, g))
        v = build_isometry(code)
        for size in (0, 1):
            for z in itertools.combinations(range(3), size):
                if not check_subset(code, z):
                    continue
                for op in localized_error_basis(3, d, z):
                    expect = d ** (-3) * np.trace(op) * np.eye(d)
                    assert np.abs(v.conj().T @ op @ v - expect).max() < 1e-9


def test_decoder_for_identity_error_inverts_encoding(wheel):
    v = build_isometry(wheel)
    decoder = synthesize_decoder(v, [np.eye(32)])
    encoder = Channel((v,))
    assert verify_etd(encoder, identity_channel(32), decoder) < 1e-12


def test_decoder_kraus_completeness(wheel):
    v = build_isometry(wheel)
    decoder = synthesize_decoder(v, error_space_basis(5, 2, 1))
    total = sum(k.conj().T @ k for k in decoder.kraus)
    assert np.abs(total - np.eye(32)).max() < 1e-9


def test_decoder_handles_degenerate_gram(wheel):
    v = build_isometry(wheel)
    decoder = synthesize_decoder(v, [np.eye(32), np.eye(32)])
    encoder = Channel((v,))
    assert verify_etd(encoder, identity_channel(32), decoder) < 1e-12


def test_decoder_rejects_uncorrectable_error_set(wheel):
    v = build_isometry(wheel)
    with pytest.raises(KLViolated):
        synthesize_decoder(v, error_space_basis(5, 2, 2))


def test_decoder_corrects_single_site_noise(wheel):
    v = build_isometry(wheel)
    decoder = synthesize_decoder(v, error_space_basis(5, 2, 1))
    encoder = Channel((v,))
    noise = identity_channel(1)
    for site in range(5):
        stage = make_depolarizing(2, 0.3) if site == 2 else identity_channel(2)
        noise = tensor_channels(noise, stage)
    assert verify_etd(encoder, noise, decoder) < 1e-9


def test_decoder_fails_on_two_depolarized_sites(wheel):
    v = build_isometry(wheel)
    decoder = synthesize_decoder(v, error_space_basis(5, 2, 1))
    encoder = Channel((v,))
    noise = identity_channel(1)
    for site in range(5):
        stage = make_depolarizing(2, 0.3) if site in (1, 3) else identity_channel(2)
        noise = tensor_channels(noise, stage)
    assert verify_etd(encoder, noise, decoder) >= 0.01


def test_verify_etd_identity_pipeline():
    idq = identity_channel(2)
    assert verify_etd(idq, idq, idq) == 0.0


def test_verify_etd_completely_depolarizing_hand_value():
    idq = identity_channel(2)
    # Choi of the completely depolarizing channel is 1/4; trace distance
    # to the maximally entangled projector is 3/4
    assert abs(verify_etd(idq, make_depolarizing(2, 1.0), idq) - 0.75) < 1e-12


def test_verify_etd_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_etd(identity_channel(2), identity_channel(3), identity_channel(2))
    # the stages compose, but the composite ends in a qutrit, not in the encoder's qubit
    with pytest.raises(DimensionMismatch) as err:
        verify_etd(identity_channel(2), identity_channel(2), Channel((np.eye(3, 2),)))
    assert str(err.value) == "composite must return to the encoder input space"


def test_choi_state_of_identity_is_max_entangled():
    choi = choi_state(identity_channel(3))
    omega = np.zeros(9, dtype=complex)
    omega[::4] = 1 / np.sqrt(3)
    assert np.allclose(choi, np.outer(omega, omega.conj()), atol=1e-12)
