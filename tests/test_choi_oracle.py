"""Factored Choi propagation against a dense np.kron reference.

The reference below is the straightforward algorithm: it carries the
full (dim d0)^2 Choi state, applies every Kraus operator as F (x) 1 on
both sides, and builds the decoder from the dense operators
G_k = sum_a c_ak F_a.  It lives only here, as the oracle for
channels.choi_state, channels.verify_etd and channels.synthesize_decoder.
The site-local, implicit-decoder distance behind `simulate`
(channels._local_etd) is checked against verify_etd, and with noise on
every site against this reference.  Its decoded state from the syndrome
table (channels._table_decoded) is checked entry by entry against the
register-sized route (channels._dense_decoded).
"""

import functools
import itertools

import numpy as np
import pytest

from graphqec import channels, graphs
from graphqec.channels import (
    Channel,
    GRAM_EIGENVALUE_CUTOFF,
    _Choi,
    _decoder_channel,
    _dense_decoded,
    _graph_kl,
    _gram_isometry,
    _local_etd,
    _max_entangled,
    _propagate,
    _table_decoded,
    _weyl_process_matrix,
    choi_state,
    error_space_basis,
    identity_channel,
    kl_verify,
    synthesize_decoder,
    tensor_channels,
    verify_etd,
    weyl_operator,
)
from graphqec.errors import DimensionOverflow
from graphqec.graphs import GraphCode, build_isometry
from graphqec.modular import ModMatrix
from graphqec.noise import make_depolarizing, make_unitary_channel, phase_rotation

from conftest import degenerate_wheel, error_words, seeded_code, word_images

TOL = 1e-12


def dense_max_entangled(d):
    omega = np.zeros(d * d, dtype=np.complex128)
    omega[:: d + 1] = 1 / np.sqrt(d)
    return np.outer(omega, omega.conj())


def dense_propagate(state, stage, d0):
    eye = np.eye(d0, dtype=np.complex128)
    out = np.zeros((stage.dim_out * d0,) * 2, dtype=np.complex128)
    for f in stage.kraus:
        k = np.kron(f, eye)
        out += k @ state @ k.conj().T
    return out


def dense_choi_state(channel):
    return dense_propagate(dense_max_entangled(channel.dim_in), channel, channel.dim_in)


def dense_verify_etd(encoder, noise, decoder):
    d0 = encoder.dim_in
    reference = dense_max_entangled(d0)
    state = reference
    for stage in (encoder, noise, decoder):
        state = dense_propagate(state, stage, d0)
    return float(0.5 * np.abs(np.linalg.eigvalsh(state - reference)).sum())


def dense_decoder(v, errors, rho0=None):
    dim_out, dim_in = v.shape
    gram = kl_verify(v, errors).gram
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > GRAM_EIGENVALUE_CUTOFF
    rank = int(keep.sum())
    coeff = vecs[:, keep] / np.sqrt(vals[keep])
    g_ops = np.einsum("ak,aij->kij", coeff, np.stack(errors))
    gv = np.einsum("kij,jl->kil", g_ops, v)
    u = np.transpose(gv, (1, 2, 0)).reshape(dim_out, dim_in * rank)
    udag = u.conj().T
    kraus = [udag[np.arange(dim_in) * rank + k, :] for k in range(rank)]
    pvals, pvecs = np.linalg.eigh(np.eye(dim_out) - u @ udag)
    complement = pvecs[:, pvals > 0.5]
    if rho0 is None:
        rho0 = np.zeros((dim_in, dim_in), dtype=np.complex128)
        rho0[0, 0] = 1.0
    weights, states = np.linalg.eigh(rho0)
    for p, w_vec in zip(weights, states.T):
        if p <= 1e-12:
            continue
        for j in range(complement.shape[1]):
            kraus.append(np.sqrt(p) * np.outer(w_vec, complement[:, j].conj()))
    return Channel(tuple(kraus))


def rand_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def rand_channel(rng, dim_in, dim_out, count):
    """count Kraus operators cut from a random (count dim_out) x dim_in isometry."""
    a = rng.normal(size=(count * dim_out, dim_in)) + 1j * rng.normal(size=(count * dim_out, dim_in))
    q, _ = np.linalg.qr(a)
    return Channel(tuple(q.reshape(count, dim_out, dim_in)))


def site_noise(n, d, sites, single):
    noise = identity_channel(1)
    for site in range(n):
        noise = tensor_channels(noise, single if site in sites else identity_channel(d))
    return noise


CODES = {
    "wheel": lambda wheel, prism: wheel,
    "prism": lambda wheel, prism: prism,
    "d2n7": lambda wheel, prism: seeded_code(2, 1, 7, 21, 1),
    "d2n8": lambda wheel, prism: seeded_code(2, 1, 8, 22, 1),
    "d3n5": lambda wheel, prism: seeded_code(3, 1, 5, 23, 1),
}


@pytest.mark.parametrize("name", sorted(CODES))
@pytest.mark.parametrize("sites", [(1,), (0, 3)])
def test_verify_etd_matches_dense_reference(name, sites, wheel, prism):
    code = CODES[name](wheel, prism)
    rng = np.random.default_rng(len(name) * 10 + len(sites))
    v = build_isometry(code)
    errors = error_space_basis(code.n, code.d, 1)
    # qubits: depolarizing (16 Kraus operators on two sites); qutrits: a
    # random two-operator channel, which keeps the dense reference cheap
    single = make_depolarizing(2, 0.3) if code.d == 2 else rand_channel(rng, 3, 3, 2)
    noise = site_noise(code.n, code.d, sites, single)
    encoder = Channel((v,))
    decoder = synthesize_decoder(v, errors)
    got = verify_etd(encoder, noise, decoder)
    assert abs(got - dense_verify_etd(encoder, noise, decoder)) < TOL
    assert abs(got - dense_verify_etd(encoder, noise, dense_decoder(v, errors))) < TOL
    if len(sites) == 1:
        assert got < 1e-9


def test_verify_etd_degenerate_gram_and_mixed_rho0(wheel):
    rng = np.random.default_rng(5)
    v = build_isometry(wheel)
    errors = error_space_basis(5, 2, 1)
    errors = errors + [errors[0], errors[3]]  # duplicated identity and X word
    assert kl_verify(v, errors).gram.shape == (18, 18)
    rho0 = rand_state(rng, 2)
    encoder = Channel((v,))
    decoder = synthesize_decoder(v, errors, rho0=rho0)
    reference = dense_decoder(v, errors, rho0=rho0)
    assert len(decoder.kraus) == len(reference.kraus)
    for sites in ((2,), (1, 4)):
        noise = site_noise(5, 2, sites, make_depolarizing(2, 0.4))
        got = verify_etd(encoder, noise, decoder)
        assert abs(got - dense_verify_etd(encoder, noise, decoder)) < TOL
        assert abs(got - dense_verify_etd(encoder, noise, reference)) < TOL


def test_verify_etd_qutrit_mixed_rho0_rotation_noise():
    rng = np.random.default_rng(6)
    code = seeded_code(3, 1, 5, 24, 1)
    v = build_isometry(code)
    errors = error_space_basis(5, 3, 1)
    rho0 = rand_state(rng, 3)
    rotation, _ = make_unitary_channel(phase_rotation(3, 0.3))
    noise = site_noise(5, 3, (0, 2), rotation)
    encoder = Channel((v,))
    decoder = synthesize_decoder(v, errors, rho0=rho0)
    got = verify_etd(encoder, noise, decoder)
    assert abs(got - dense_verify_etd(encoder, noise, dense_decoder(v, errors, rho0))) < TOL


def test_verify_etd_redundant_encoder_state_meets_a_wider_stage(wheel, monkeypatch):
    # 65 Kraus operators V / sqrt(65) make the 2^6-row factor wider than tall at the
    # encoder; the register noise stage and the decoder then meet the dense state one
    # side at a time, with no square root of it
    v = build_isometry(wheel)
    noise = site_noise(5, 2, (0, 3), make_depolarizing(2, 0.3))
    decoder = synthesize_decoder(v, error_space_basis(5, 2, 1))
    redundant = Channel(np.repeat(v[None], 65, axis=0) / np.sqrt(65))
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", _no_eigh)
        got = verify_etd(redundant, noise, decoder)
    assert abs(got - dense_verify_etd(Channel((v,)), noise, decoder)) < TOL
    assert got > 0.01


def _no_eigh(*args):
    raise AssertionError("eigh was reached")


def test_verify_etd_refuses_an_oversized_stage_before_any_stage_runs(monkeypatch):
    code = seeded_code(2, 1, 7, 21, 1)
    v = build_isometry(code)
    noise = identity_channel(128)
    decoder = synthesize_decoder(v, error_space_basis(7, 2, 1))
    assert decoder.kraus.shape == (106, 2, 128)
    calls, propagate = [], channels._propagate

    def spy(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(channels, "_propagate", spy)
    # the factor's images and their copy: 2 x 2^8 amplitudes at the encoder and the noise,
    # 2 x 2^2 x 106 at the decoder
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 2 * 4 * 106 - 1)
    with pytest.raises(DimensionOverflow, match=r"^Choi factor needs 848 amplitudes > 847$"):
        verify_etd(Channel((v,)), noise, decoder)
    assert calls == []


def path_code(d, n):
    """The path input - output 1 - ... - output n with unit weights: it corrects no error."""
    gamma = np.zeros((n + 1, n + 1), dtype=np.int64)
    gamma[np.arange(n), np.arange(1, n + 1)] = gamma[np.arange(1, n + 1), np.arange(n)] = 1
    return GraphCode(d, 1, n, ModMatrix(d, gamma))


@pytest.mark.parametrize("d", [2, 3, 6])
def test_a_decoder_stage_meets_a_dense_state_one_side_at_a_time(d, wheel, monkeypatch):
    # the qubit wheel and a qutrit code correct one error; at d = 6 a decoder of f = 0
    code, f = {2: (wheel, 1), 3: (seeded_code(3, 1, 5, 23, 1), 1), 6: (path_code(6, 3), 0)}[d]
    v = build_isometry(code)
    decoder = synthesize_decoder(v, error_space_basis(code.n, d, f))
    dim_out, d0 = v.shape
    state = rand_state(np.random.default_rng(d), dim_out * d0)
    routes, stage_route = [], channels._stage_route

    def spy(dense, *args):
        route = stage_route(dense, *args)
        routes.append((dense, route[0]))
        return route

    monkeypatch.setattr(channels, "_stage_route", spy)
    got = _propagate(_Choi(state, dense=True), decoder.kraus, 1, d0)
    assert routes == [(True, False)]  # a dense state, not through the superoperator
    assert got.dense and got.array.shape == (d0 * d0, d0 * d0)
    assert np.abs(got.array - dense_propagate(state, decoder, d0)).max() < TOL


def test_verify_etd_duplicated_identity_only(wheel):
    v = build_isometry(wheel)
    errors = [np.eye(32), np.eye(32)]
    encoder = Channel((v,))
    noise = identity_channel(32)
    got = verify_etd(encoder, noise, synthesize_decoder(v, errors))
    assert abs(got - dense_verify_etd(encoder, noise, dense_decoder(v, errors))) < TOL


@pytest.mark.parametrize(
    "dim_in,dim_out,count", [(2, 3, 8), (3, 2, 7), (2, 2, 5), (3, 3, 1), (2, 4, 2)]
)
def test_choi_state_matches_dense_reference(dim_in, dim_out, count):
    # count > dim_in * dim_out makes the factor wider than tall, so its state is formed
    channel = rand_channel(np.random.default_rng(dim_in * 100 + count), dim_in, dim_out, count)
    got = choi_state(channel)
    assert np.abs(got - dense_choi_state(channel)).max() < TOL
    assert abs(np.trace(got) - 1.0) < TOL
    rows = dim_out * dim_in
    choi = _propagate(_Choi(_max_entangled(dim_in)), channel.kraus, 1, dim_in)
    assert choi.dense == (count > rows)
    assert choi.array.shape == (rows, rows if choi.dense else count)


def test_choi_state_of_named_channels_matches_dense_reference():
    for channel in (
        identity_channel(3),
        make_depolarizing(2, 1.0),
        make_depolarizing(3, 0.4),
        tensor_channels(make_depolarizing(2, 0.3), make_depolarizing(2, 0.6)),
    ):
        assert np.abs(choi_state(channel) - dense_choi_state(channel)).max() < TOL


def amplitude_damping(d, gamma):
    """Decay of every level to |0> with probability gamma: a non-unital channel."""
    kraus = [np.diag([1.0] + [np.sqrt(1 - gamma)] * (d - 1)).astype(np.complex128)]
    for level in range(1, d):
        op = np.zeros((d, d), dtype=np.complex128)
        op[0, level] = np.sqrt(gamma)
        kraus.append(op)
    return Channel(tuple(kraus))


SITE_CHANNELS = {
    "depolarizing": lambda d: make_depolarizing(d, 0.3),
    "rotation": lambda d: make_unitary_channel(phase_rotation(d, 0.3))[0],
    "damping": lambda d: amplitude_damping(d, 0.3),
}


def weyl_trace_chi(channel):
    """chi[q, q'] = sum_j kappa_j[q] conj(kappa_j[q']), kappa_j[q] = tr(W_q* K_j) / d for the
    letters W_q = weyl_operator(d, q % d, q // d)."""
    d = channel.dim_in
    words = [weyl_operator(d, q % d, q // d) for q in range(d * d)]
    kappa = np.array([[np.trace(w.conj().T @ k) / d for w in words] for k in channel.kraus])
    return kappa.T @ kappa.conj()


@pytest.mark.parametrize("name", sorted(SITE_CHANNELS))
@pytest.mark.parametrize("d", [2, 3, 5])
def test_weyl_process_matrix_of_the_choi_state_matches_the_weyl_traces(name, d):
    channel = SITE_CHANNELS[name](d)
    # each Kraus operator twice, scaled by 1/sqrt(2): the same channel, another Kraus set
    doubled = Channel(np.concatenate([channel.kraus, channel.kraus]) / np.sqrt(2))
    want = weyl_trace_chi(channel)
    assert np.abs(_weyl_process_matrix(channel) - want).max() <= 1e-14
    assert np.abs(_weyl_process_matrix(doubled) - want).max() <= 1e-14


def test_simulate_drops_the_roundoff_eigenvalues_of_the_logical_choi_state(monkeypatch):
    # a rotation on sites 1, 2 of a d = 4, m = 2 code: 17 eigenvalues above 1e-2, the others
    # roundoff of at most 1e-15, which the cut drops before verify_etd
    code, single, sites = seeded_code(4, 2, 4, 1, 0), make_unitary_channel(phase_rotation(4, 0.3))[0], (1, 2)
    v = build_isometry(code)
    decoder, noise = synthesize_decoder(v, error_space_basis(4, 4, 0)), site_noise(4, 4, sites, single)
    state = dense_choi_state(Channel(np.stack([k @ t @ v for k in decoder.kraus for t in noise.kraus])))
    kept = int((np.cumsum(np.maximum(np.linalg.eigvalsh(state), 0.0)) > 1e-13).sum())
    want = 0.5 * np.abs(np.linalg.eigvalsh(state - dense_max_entangled(16))).sum()
    seen = []
    monkeypatch.setattr(channels, "verify_etd", lambda e, t, dd: seen.append(len(e.kraus)) or verify_etd(e, t, dd))
    got = _local_etd(code, _graph_kl(code, 0), single, sites)
    assert (kept, seen) == (17, [17])
    assert abs(got - want) <= 1e-12


LOCAL_CODES = dict(
    CODES,
    d2n10=lambda wheel, prism: seeded_code(2, 1, 10, 25, 1),
    d3n6=lambda wheel, prism: seeded_code(3, 1, 6, 26, 1),
)
# f = 1 codes with noise on none, <= f and > f sites; the full-register oracle holds
# prod(Kraus counts) x d^2n amplitudes, so the larger codes take the lighter channels
LOCAL_CASES = [
    (code, channel, sites)
    for code in ("wheel", "prism", "d2n7", "d2n8", "d3n5")
    for channel in SITE_CHANNELS
    for sites in ((), (1,), (0, 3), (0, 2, 4))
    if (code, channel, len(sites)) != ("d3n5", "depolarizing", 3)
] + [
    ("d2n10", "rotation", (0, 2, 4)),
    ("d2n10", "damping", (1,)),
    ("d2n10", "damping", (0, 3)),
    ("d3n6", "depolarizing", (1,)),
    ("d3n6", "damping", (0, 3)),
]


@pytest.mark.parametrize("name, channel, sites", LOCAL_CASES)
def test_local_etd_matches_verify_etd(name, channel, sites, wheel, prism):
    code = LOCAL_CODES[name](wheel, prism)
    v = build_isometry(code)
    single = SITE_CHANNELS[channel](code.d)
    # the dense Gram route's decoder of the error space, from the gathered word images
    decoder = _decoder_channel(_gram_isometry(word_images(v, code.d, *error_words(code.n, code.d, 1))))
    got = _local_etd(code, _graph_kl(code, 1), single, sites)
    noise = tensor_channels(*(single if s in sites else identity_channel(code.d) for s in range(code.n)))
    assert abs(got - verify_etd(Channel((v,)), noise, decoder)) < TOL
    if len(sites) <= 1:
        assert got < 1e-9


# composite d, where a register-sized noise operator is out of reach: the graph route's
# decoder against the dense Gram route of the same error space (images, Gram form, eigh);
# at d = 6 the 7776-row images make each case take seconds, so two cases run
COMPOSITE_CASES = [
    (4, channel, sites) for channel in SITE_CHANNELS for sites in ((), (1,), (0, 3), (0, 2, 4))
] + [(6, "rotation", (1,)), (6, "damping", (0, 3))]


@pytest.mark.parametrize("d, channel, sites", COMPOSITE_CASES)
def test_local_etd_at_composite_d_matches_the_dense_gram_decoder(d, channel, sites, wheel, monkeypatch):
    code = seeded_code(4, 1, 5, 27, 1) if d == 4 else GraphCode(6, 1, 5, ModMatrix(6, wheel.gamma.entries))
    single = SITE_CHANNELS[channel](d)
    got = _local_etd(code, _graph_kl(code, 1), single, sites)
    words = error_words(code.n, d, 1)
    monkeypatch.setattr(channels, "_class_images", lambda code, v, report: _gram_isometry(word_images(v, code.d, *words)))
    monkeypatch.setattr(channels, "_table_decoded", _past_the_table)
    assert abs(got - _local_etd(code, _graph_kl(code, 1), single, sites)) < TOL
    if len(sites) <= 1:
        assert got < 1e-9


def _past_the_table(*args):
    raise DimensionOverflow("the syndrome table is refused here")


def _no_dense_route(*args):
    raise AssertionError("the register-sized route ran")


def assert_routes_agree(code, f, single, sites, monkeypatch):
    """The decoded state tr_k Y and _local_etd's distance from the syndrome table,
    admitted past its pair budget, against those of the register-sized route."""
    report = _graph_kl(code, f)
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 2**36)
        patch.setattr(channels, "_dense_decoded", _no_dense_route)
        table = _table_decoded(code, report, single, sites), _local_etd(code, report, single, sites)
    with monkeypatch.context() as patch:
        patch.setattr(channels, "_table_decoded", _past_the_table)
        dense = _dense_decoded(code, report, single, sites), _local_etd(code, report, single, sites)
    assert np.abs(table[0] - dense[0]).max() < TOL
    assert abs(table[1] - dense[1]) < TOL
    return table[1]


def all_word_channel(d, count, seed):
    """count Kraus operators cut from a random isometry: each has all d^2 Weyl words."""
    channel = rand_channel(np.random.default_rng(seed), d, d, count)
    words = np.stack([weyl_operator(d, q % d, q // d) for q in range(d * d)])
    assert (np.abs(np.einsum("qyx,jyx->jq", words.conj(), channel.kraus)) > 1e-3).all()
    return channel


# the table against the register-sized route, beyond the cases above: two-input codes
# (d0 = 4 and 9), Kraus operators with every Weyl word, and a degenerate code
ROUTE_CASES = {
    "d2m2n8-depolarizing": (lambda: seeded_code(2, 2, 8, 1, 1), lambda d: make_depolarizing(d, 0.3), (0, 5)),
    "d2m2n8-damping": (lambda: seeded_code(2, 2, 8, 1, 1), lambda d: amplitude_damping(d, 0.3), (1, 2, 7)),
    "d3m2n6-rotation": (lambda: seeded_code(3, 2, 6, 21, 1), SITE_CHANNELS["rotation"], (2,)),
    "d3m2n6-damping": (lambda: seeded_code(3, 2, 6, 21, 1), lambda d: amplitude_damping(d, 0.3), (0, 4)),
    "d2n7-all-words": (lambda: seeded_code(2, 1, 7, 21, 1), lambda d: all_word_channel(d, 3, 5), (0, 3, 6)),
    "d3n5-all-words": (lambda: seeded_code(3, 1, 5, 23, 1), lambda d: all_word_channel(d, 4, 6), (0, 2, 4)),
    "degenerate-wheel-one-site": (degenerate_wheel, SITE_CHANNELS["depolarizing"], (5,)),
    "degenerate-wheel-two-sites": (degenerate_wheel, SITE_CHANNELS["depolarizing"], (1, 5)),
    "degenerate-wheel-three-sites": (degenerate_wheel, lambda d: all_word_channel(d, 2, 7), (0, 3, 5)),
}


@pytest.mark.parametrize("name, channel, sites", LOCAL_CASES)
def test_table_route_matches_the_dense_route_on_the_local_cases(name, channel, sites, wheel, prism, monkeypatch):
    code = LOCAL_CODES[name](wheel, prism)
    assert_routes_agree(code, 1, SITE_CHANNELS[channel](code.d), sites, monkeypatch)


@pytest.mark.parametrize("d, channel, sites", COMPOSITE_CASES)
def test_table_route_matches_the_dense_route_at_composite_d(d, channel, sites, wheel, monkeypatch):
    code = seeded_code(4, 1, 5, 27, 1) if d == 4 else GraphCode(6, 1, 5, ModMatrix(6, wheel.gamma.entries))
    assert_routes_agree(code, 1, SITE_CHANNELS[channel](d), sites, monkeypatch)


@pytest.mark.parametrize("case", list(ROUTE_CASES))
def test_table_route_matches_the_dense_route(case, monkeypatch):
    make_code, make_channel, sites = ROUTE_CASES[case]
    code = make_code()
    distance = assert_routes_agree(code, 1, make_channel(code.d), sites, monkeypatch)
    if len(sites) <= 1:
        assert distance < 1e-9


def test_the_table_decodes_weyl_noise_on_three_sites_of_a_d4_code_under_the_default_caps(monkeypatch):
    # 4^6 noise words: 3 x 4^12 pair scalars fit the budget, where d0^2 entries a pair did not
    code, single, sites = seeded_code(4, 1, 5, 27, 1), make_depolarizing(4, 0.3), (0, 2, 4)
    report = _graph_kl(code, 1)
    with monkeypatch.context() as patch:
        patch.setattr(channels, "_dense_decoded", _no_dense_route)
        table = _table_decoded(code, report, single, sites), _local_etd(code, report, single, sites)
    with monkeypatch.context() as patch:
        patch.setattr(channels, "_table_decoded", _past_the_table)
        dense = _dense_decoded(code, report, single, sites), _local_etd(code, report, single, sites)
    assert np.abs(table[0] - dense[0]).max() < TOL
    assert abs(table[1] - dense[1]) < TOL


@pytest.mark.parametrize(
    "make_code, admitted, refusal",
    [
        (lambda: seeded_code(2, 1, 7, 21, 1), 6, "noise word pairs needs 805306368 amplitudes > 67108864"),
        (lambda: seeded_code(4, 1, 5, 27, 1), 3, "noise word pairs needs 12884901888 amplitudes > 67108864"),
    ],
    ids=["d2n7", "d4n5"],
)
def test_the_pair_budget_admits_the_table_up_to_one_noisy_site_count(make_code, admitted, refusal, monkeypatch):
    code = make_code()
    report, single = _graph_kl(code, 1), make_depolarizing(code.d, 0.3)
    monkeypatch.setattr(channels, "_dense_decoded", _no_dense_route)
    _local_etd(code, report, single, range(admitted))
    with pytest.raises(DimensionOverflow) as caught:
        _table_decoded(code, report, single, range(admitted + 1))
    assert str(caught.value) == refusal


def logical_weyl_basis(d, m):
    """Columns vec(W) / sqrt(d^m), row-major, of the d^(2m) Weyl words W on the m logical digits."""
    words = [
        functools.reduce(np.kron, (weyl_operator(d, q % d, q // d) for q in letters))
        for letters in itertools.product(range(d * d), repeat=m)
    ]
    return np.stack([w.reshape(-1) for w in words], axis=1) / np.sqrt(d**m)


def random_weyl_channel(d, seed):
    """Each Weyl word with a random probability: a channel whose Weyl process matrix is diagonal."""
    p = np.random.default_rng(seed).dirichlet(np.ones(d * d))
    return Channel(tuple(np.sqrt(p[q]) * weyl_operator(d, q % d, q // d) for q in range(d * d)))


def bell_off_diagonal(code, kept):
    """The largest off-diagonal entry of tr_k Y in the logical Bell basis."""
    basis = logical_weyl_basis(code.d, code.m)
    bell = basis.conj().T @ kept.reshape(basis.shape) @ basis
    return np.abs(bell - np.diag(np.diag(bell))).max()


@pytest.mark.parametrize("channel", ["depolarizing", "random-weyl"])
@pytest.mark.parametrize(
    "make_code, sites",
    [
        (lambda: seeded_code(2, 1, 7, 21, 1), (0, 3, 6)),
        (lambda: seeded_code(3, 1, 5, 3, 1), (1, 4)),
        (lambda: seeded_code(3, 1, 5, 3, 1), (0, 2, 4)),
        (lambda: seeded_code(2, 2, 8, 1, 1), (1, 2, 7)),
    ],
    ids=["d2n7", "d3n5-two-sites", "d3n5-three-sites", "d2m2n8"],
)
def test_weyl_noise_leaves_the_decoded_state_diagonal_in_the_logical_bell_basis(make_code, sites, channel):
    code = make_code()
    single = make_depolarizing(code.d, 0.3) if channel == "depolarizing" else random_weyl_channel(code.d, 11)
    assert bell_off_diagonal(code, _table_decoded(code, _graph_kl(code, 1), single, sites)) < TOL


def test_amplitude_damping_leaves_the_decoded_state_off_the_logical_bell_diagonal():
    code = seeded_code(2, 1, 7, 21, 1)
    kept = _dense_decoded(code, _graph_kl(code, 1), amplitude_damping(2, 0.3), range(7))
    assert bell_off_diagonal(code, kept) > 1e-5


def dense_site_propagate(state, single, left, right):
    out = np.zeros_like(state)
    for f in single.kraus:
        k = np.kron(np.kron(np.eye(left), f), np.eye(right))
        out += k @ state @ k.conj().T
    return out


@pytest.mark.parametrize("channel", ["depolarizing", "damping"])
def test_local_etd_with_noise_on_every_site_matches_dense_reference(channel, monkeypatch):
    code = seeded_code(2, 1, 7, 21, 1)
    v = build_isometry(code)
    single = SITE_CHANNELS[channel](2)
    dense, propagate = [], channels._propagate

    def spy(choi, kraus, left, right):
        out = propagate(choi, kraus, left, right)
        dense.append(out.dense)
        return out

    monkeypatch.setattr(channels, "_propagate", spy)
    got = _local_etd(code, _graph_kl(code, 1), single, range(7))
    # 2^8 rows: 4^5 depolarizing columns switch to the dense state, 2^7 damping ones do not;
    # verify_etd's three stages of the d0-level logical channel follow
    assert dense[:8] == [False] * 5 + [channel == "depolarizing"] * 3
    state = dense_propagate(dense_max_entangled(2), Channel((v,)), 2)
    for site in range(7):
        state = dense_site_propagate(state, single, 2**site, 2 ** (6 - site) * 2)
    state = dense_propagate(state, dense_decoder(v, error_space_basis(7, 2, 1)), 2)
    reference = float(0.5 * np.abs(np.linalg.eigvalsh(state - dense_max_entangled(2))).sum())
    assert abs(got - reference) < TOL
    assert got > 0.1


def test_verify_etd_with_a_register_noise_stage_wider_than_the_state(monkeypatch):
    code = seeded_code(2, 1, 7, 21, 1)
    v = build_isometry(code)
    single = SITE_CHANNELS["depolarizing"](2)
    # 4^5 Kraus operators of 2^7 x 2^7 against 2^8 rows: a 2^28-amplitude superoperator
    noise = tensor_channels(*(single if s < 5 else identity_channel(2) for s in range(7)))
    decoder = synthesize_decoder(v, error_space_basis(7, 2, 1))
    routes, propagate = [], channels._propagate

    def spy(choi, kraus, left, right):
        out = propagate(choi, kraus, left, right)
        routes.append((choi.dense, out.dense))
        return out

    monkeypatch.setattr(channels, "_propagate", spy)
    got = verify_etd(Channel((v,)), noise, decoder)
    # the noise stage widens the factor and forms the 2^8 x 2^8 state after it
    assert routes == [(False, False), (False, True), (True, True)]
    state = dense_propagate(dense_max_entangled(2), Channel((v,)), 2)
    for site in range(5):
        state = dense_site_propagate(state, single, 2**site, 2 ** (6 - site) * 2)
    state = dense_propagate(state, dense_decoder(v, error_space_basis(7, 2, 1)), 2)
    reference = float(0.5 * np.abs(np.linalg.eigvalsh(state - dense_max_entangled(2))).sum())
    assert abs(got - reference) < TOL
    assert got > 0.1
