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
from graphqec.graphs import GraphCode, build_isometry, find_uncorrectable_subset
from graphqec.modular import ModMatrix
from graphqec.noise import make_depolarizing, make_unitary_channel, phase_rotation

from conftest import degenerate_wheel, error_words, word_images

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


def seeded_code(d, n, seed, m=1):
    """First code of a seeded stream that corrects one error."""
    rng = np.random.default_rng(seed)
    while True:
        g = np.triu(rng.integers(0, d, size=(n + m, n + m)), 1)
        code = GraphCode(d, m, n, ModMatrix(d, g + g.T))
        if find_uncorrectable_subset(code, 1) is None:
            return code


def site_noise(n, d, sites, single):
    noise = identity_channel(1)
    for site in range(n):
        noise = tensor_channels(noise, single if site in sites else identity_channel(d))
    return noise


CODES = {
    "wheel": lambda wheel, prism: wheel,
    "prism": lambda wheel, prism: prism,
    "d2n7": lambda wheel, prism: seeded_code(2, 7, 21),
    "d2n8": lambda wheel, prism: seeded_code(2, 8, 22),
    "d3n5": lambda wheel, prism: seeded_code(3, 5, 23),
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
    code = seeded_code(3, 5, 24)
    v = build_isometry(code)
    errors = error_space_basis(5, 3, 1)
    rho0 = rand_state(rng, 3)
    rotation, _ = make_unitary_channel(phase_rotation(3, 0.3))
    noise = site_noise(5, 3, (0, 2), rotation)
    encoder = Channel((v,))
    decoder = synthesize_decoder(v, errors, rho0=rho0)
    got = verify_etd(encoder, noise, decoder)
    assert abs(got - dense_verify_etd(encoder, noise, dense_decoder(v, errors, rho0))) < TOL


def test_verify_etd_redundant_encoder_state_meets_a_wider_stage(wheel):
    # 65 Kraus operators V / sqrt(65) make the 2^6-row factor wider than tall at the
    # encoder; the register noise stage then meets the dense state and, being wider
    # than it, takes the state's square root as its factor
    v = build_isometry(wheel)
    noise = site_noise(5, 2, (0, 3), make_depolarizing(2, 0.3))
    decoder = synthesize_decoder(v, error_space_basis(5, 2, 1))
    redundant = Channel(np.repeat(v[None], 65, axis=0) / np.sqrt(65))
    got = verify_etd(redundant, noise, decoder)
    assert abs(got - dense_verify_etd(Channel((v,)), noise, decoder)) < TOL
    assert got > 0.01


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
LOCAL_CODES = dict(
    CODES,
    d2n10=lambda wheel, prism: seeded_code(2, 10, 25),
    d3n6=lambda wheel, prism: seeded_code(3, 6, 26),
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
    code = seeded_code(4, 5, 27) if d == 4 else GraphCode(6, 1, 5, ModMatrix(6, wheel.gamma.entries))
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
    "d2m2n8-depolarizing": (lambda: seeded_code(2, 8, 1, m=2), lambda d: make_depolarizing(d, 0.3), (0, 5)),
    "d2m2n8-damping": (lambda: seeded_code(2, 8, 1, m=2), lambda d: amplitude_damping(d, 0.3), (1, 2, 7)),
    "d3m2n6-rotation": (lambda: seeded_code(3, 6, 21, m=2), SITE_CHANNELS["rotation"], (2,)),
    "d3m2n6-damping": (lambda: seeded_code(3, 6, 21, m=2), lambda d: amplitude_damping(d, 0.3), (0, 4)),
    "d2n7-all-words": (lambda: seeded_code(2, 7, 21), lambda d: all_word_channel(d, 3, 5), (0, 3, 6)),
    "d3n5-all-words": (lambda: seeded_code(3, 5, 23), lambda d: all_word_channel(d, 4, 6), (0, 2, 4)),
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
    code = seeded_code(4, 5, 27) if d == 4 else GraphCode(6, 1, 5, ModMatrix(6, wheel.gamma.entries))
    assert_routes_agree(code, 1, SITE_CHANNELS[channel](d), sites, monkeypatch)


@pytest.mark.parametrize("case", list(ROUTE_CASES))
def test_table_route_matches_the_dense_route(case, monkeypatch):
    make_code, make_channel, sites = ROUTE_CASES[case]
    code = make_code()
    distance = assert_routes_agree(code, 1, make_channel(code.d), sites, monkeypatch)
    if len(sites) <= 1:
        assert distance < 1e-9


def dense_site_propagate(state, single, left, right):
    out = np.zeros_like(state)
    for f in single.kraus:
        k = np.kron(np.kron(np.eye(left), f), np.eye(right))
        out += k @ state @ k.conj().T
    return out


@pytest.mark.parametrize("channel", ["depolarizing", "damping"])
def test_local_etd_with_noise_on_every_site_matches_dense_reference(channel, monkeypatch):
    code = seeded_code(2, 7, 21)
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
    code = seeded_code(2, 7, 21)
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
