import math

import numpy as np
import pytest

from graphqec.channels import Channel, apply_channel, identity_channel
from graphqec.errors import (
    DimensionMismatch,
    NotUnitary,
    ParamOutOfRange,
    PreconditionViolated,
)
from graphqec.noise import (
    cb_lower_witness,
    make_depolarizing,
    make_unitary_channel,
    phase_rotation,
    transposition_map,
    zero_map,
)
from graphqec.rates import (
    binary_entropy,
    binomial_error_bound,
    delta_exponent,
    error_threshold,
    truncated_binomial_bound,
)

from conftest import entropy_oracle, exact_binomial_tail, exact_log2_binomial_tail

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    for r in (0.1, 0.25, 0.42):
        assert abs(binary_entropy(r) - binary_entropy(1 - r)) < 1e-12
        assert abs(binary_entropy(r) - entropy_oracle(r)) < 1e-12
        assert type(binary_entropy(r)) is float
    # a refusal names the value as given, or an array's first entry outside [0, 1]
    for r, shown in ((1.2, "1.2"), (-0.1, "-0.1"), (math.nan, "nan"), (2, "2"), (np.array([[0.5, 1.5], [-1.0, 0.2]]), "1.5")):
        with pytest.raises(ParamOutOfRange) as err:
            binary_entropy(r)
        assert str(err.value) == f"binary entropy needs r in [0, 1], got {shown}"


def test_make_unitary_channel_identity_bound():
    _, bound = make_unitary_channel(np.eye(3))
    assert bound == 0.0


def test_make_unitary_channel_phase_bound():
    theta = 0.1
    channel, bound = make_unitary_channel(phase_rotation(2, theta))
    assert abs(bound - 2 * abs(np.exp(1j * theta) - 1)) < 1e-12
    assert abs(bound - 0.19991667708) < 1e-9
    assert len(channel.kraus) == 1


def test_make_unitary_channel_bit_flip_bound_is_vacuous_but_valid():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    _, bound = make_unitary_channel(x)
    assert abs(bound - 4.0) < 1e-12


def test_make_unitary_channel_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        make_unitary_channel(np.array([[1, 1], [0, 1]], dtype=complex))


def test_depolarizing_limits():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    assert np.allclose(apply_channel(make_depolarizing(2, 0.0), rho), rho)
    assert np.allclose(apply_channel(make_depolarizing(2, 1.0), rho), np.eye(2) / 2)


def test_depolarizing_half_on_ground_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = apply_channel(make_depolarizing(2, 0.5), rho)
    assert np.allclose(out, np.diag([0.75, 0.25]), atol=1e-12)


def test_depolarizing_rejects_bad_weight():
    with pytest.raises(ParamOutOfRange):
        make_depolarizing(2, 1.5)


def test_depolarizing_qudit_action():
    rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
    out = apply_channel(make_depolarizing(3, 0.6), rho)
    assert np.allclose(out, 0.4 * rho + 0.6 * np.eye(3) / 3, atol=1e-12)


def test_cb_witness_zero_for_equal_channels():
    ch = make_depolarizing(2, 0.3)
    assert cb_lower_witness(ch, ch, SWAP) == 0.0


def test_cb_witness_transposition_equals_dimension():
    value = cb_lower_witness(transposition_map, zero_map, SWAP, dim=2)
    assert abs(value - 2.0) < 1e-12


def test_cb_witness_depolarizing_matches_choi_trace_norm():
    # oracle: trace norm of the Choi-state difference, computed directly
    for q in (0.1, 0.35, 0.8):
        dep = make_depolarizing(2, q)
        omega = np.zeros(4, dtype=complex)
        omega[::3] = 1 / np.sqrt(2)
        ref = np.outer(omega, omega.conj())
        choi = sum(
            np.kron(f, np.eye(2)) @ ref @ np.kron(f, np.eye(2)).conj().T
            for f in dep.kraus
        )
        oracle = np.abs(np.linalg.eigvalsh(choi - ref)).sum()
        witness = cb_lower_witness(dep, identity_channel(2), SWAP)
        assert abs(oracle - 1.5 * q) < 1e-12
        assert abs(witness - oracle) < 1e-12


def test_cb_witness_never_beats_unitary_upper_bound():
    rng = np.random.default_rng(8)
    for theta in (0.05, 0.4, 1.1):
        channel, upper = make_unitary_channel(phase_rotation(2, theta))
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            value = cb_lower_witness(channel, identity_channel(2), a)
            assert value <= upper + 1e-9


def test_cb_witness_dimension_handling():
    with pytest.raises(DimensionMismatch):
        cb_lower_witness(transposition_map, zero_map, SWAP)
    with pytest.raises(DimensionMismatch):
        cb_lower_witness(make_depolarizing(2, 0.2), identity_channel(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        cb_lower_witness(make_depolarizing(2, 0.2), identity_channel(3), SWAP)
    with pytest.raises(DimensionMismatch) as err:
        cb_lower_witness(identity_channel(2), identity_channel(2), np.ones((2, 4)))
    assert str(err.value) == "witness must be square, got shape (2, 4)"
    with pytest.raises(DimensionMismatch) as err:  # a qubit into a qutrit
        cb_lower_witness(Channel((np.eye(3, 2),)), identity_channel(2), SWAP)
    assert str(err.value) == "witness maps must preserve the space"


def test_cb_witness_refuses_a_zero_or_nan_witness_and_a_dimension_below_one():
    for witness in (np.zeros((4, 4)), np.full((4, 4), np.nan), np.diag([1, np.inf, 1, 1])):
        with pytest.raises(ParamOutOfRange, match="witness must be finite and nonzero"):
            cb_lower_witness(make_depolarizing(2, 0.3), identity_channel(2), witness)
    for dim in (0, -2):
        with pytest.raises(DimensionMismatch, match=f"dim must be positive, got {dim}"):
            cb_lower_witness(transposition_map, zero_map, SWAP, dim=dim)


def test_binomial_error_bound_edge_equals_power():
    assert abs(binomial_error_bound(4, 3, 0.3) - 0.3**4) < 1e-15


def test_binomial_error_bound_example_n5():
    bound = binomial_error_bound(5, 1, 0.01)
    expect = 1e-4 * 2 ** (5 * entropy_oracle(0.4))
    assert abs(bound - expect) < 1e-12
    exact = exact_binomial_tail(5, 2, 0.01)
    assert exact <= bound
    assert abs(exact - 9.9e-4) < 5e-5


def test_binomial_error_bound_dominates_exact_tail():
    for n in (5, 12, 27, 40):
        for f in range(0, n, 3):
            if f + 1 > n:
                continue
            threshold = math.inf if n == f + 1 else (f + 1) / (n - f - 1)
            for eps in (threshold * 0.2, threshold * 0.9):
                eps = min(eps, 1.0)
                if eps <= 0:
                    continue
                bound = binomial_error_bound(n, f, eps)
                assert exact_binomial_tail(n, f + 1, eps) <= bound * (1 + 1e-12)


def test_binomial_error_bound_precondition_carries_threshold():
    with pytest.raises(PreconditionViolated) as err:
        binomial_error_bound(10, 1, 0.9)
    assert abs(err.value.threshold - 2 / 8) < 1e-12


def test_truncated_binomial_bound_equality_at_r_one():
    bound = truncated_binomial_bound(7, 1.0, 0.35)
    assert abs(bound - 7 * math.log2(0.35)) < 1e-12
    assert abs(exact_log2_binomial_tail(7, 7, 0.35) - bound) < 1e-12


def test_truncated_binomial_bound_majority_sum():
    bound = truncated_binomial_bound(20, 0.5, 1.0)
    assert abs(bound - 20.0) < 1e-12
    exact = exact_log2_binomial_tail(20, 10, 1.0)
    assert exact <= bound
    assert abs(exact - 19.2341298) < 1e-6


def test_truncated_binomial_bound_general_point():
    bound = truncated_binomial_bound(30, 0.2, 0.25)
    exact = exact_log2_binomial_tail(30, 6, 0.25)
    assert exact <= bound


def test_truncated_binomial_bound_precondition():
    with pytest.raises(PreconditionViolated):
        truncated_binomial_bound(10, 0.2, 0.3)


def test_error_threshold_at_half():
    strict, simple = error_threshold(0.5)
    assert abs(strict - 0.25) < 1e-12
    assert abs(simple - 0.5 / math.e) < 1e-12
    assert simple <= strict


def test_error_threshold_at_tenth():
    strict, simple = error_threshold(0.1)
    assert type(strict) is float and type(simple) is float
    assert abs(strict - 2 ** (-entropy_oracle(0.1) / 0.1)) < 1e-12
    assert abs(strict - 0.03874205) < 1e-7
    assert simple <= strict


def test_error_threshold_rejects_out_of_range():
    for eps, shown in ((0.0, "0.0"), (-0.1, "-0.1"), (0.6, "0.6"), (math.nan, "nan"), (np.array([0.1, 0.7, 0.0]), "0.7")):
        with pytest.raises(ParamOutOfRange) as err:
            error_threshold(eps)
        assert str(err.value) == f"need 0 < eps <= 1/2, got {shown}"


def test_simple_bound_below_strict_on_full_grid():
    for k in range(1, 501):
        eps = k / 1000
        strict, simple = error_threshold(eps)
        assert simple <= strict + 1e-15


def test_delta_exponent_at_threshold_is_one():
    for eps in (0.05, 0.2, 0.5):
        strict, _ = error_threshold(eps)
        assert abs(delta_exponent(eps, strict) - 1.0) < 1e-12


def test_delta_exponent_values():
    value = delta_exponent(0.1, 0.01)
    expect = 2 ** entropy_oracle(0.1) * 0.01**0.1
    assert abs(value - expect) < 1e-12
    assert value < 1.0
    assert delta_exponent(0.1, 0.2) > 1.0


def test_delta_exponent_rejects_bad_params():
    with pytest.raises(ParamOutOfRange):
        delta_exponent(0.0, 0.1)
    with pytest.raises(ParamOutOfRange):
        delta_exponent(0.1, 0.0)


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_phase_rotation_refuses_non_finite_angle(theta):
    # filterwarnings = error: computing exp(1j * inf) first would raise a RuntimeWarning
    with pytest.raises(ParamOutOfRange, match="theta"):
        phase_rotation(2, theta)


def test_make_unitary_channel_refuses_non_finite_matrix():
    with pytest.raises(NotUnitary, match="nan"):
        make_unitary_channel(np.diag([1.0, math.nan]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: binomial_error_bound(5, 1, math.nan),
        lambda: truncated_binomial_bound(10, 0.3, math.nan),
        lambda: delta_exponent(0.1, math.nan),
    ],
    ids=["binomial-eps", "truncated-a", "delta-cb-dist"],
)
def test_bounds_refuse_nan(call):
    with pytest.raises(ParamOutOfRange):
        call()


@pytest.mark.parametrize("u", [np.ones(3), np.ones((2, 3))], ids=["vector", "rectangle"])
def test_make_unitary_channel_refuses_a_non_square_matrix(u):
    with pytest.raises(NotUnitary) as err:
        make_unitary_channel(u)
    assert str(err.value) == f"expected a square matrix, got shape {u.shape}"


def test_binomial_bounds_refuse_parameters_outside_their_domain():
    with pytest.raises(ParamOutOfRange) as err:
        binomial_error_bound(3, 3, 0.1)
    assert str(err.value) == "need f + 1 <= n, got f=3, n=3"
    with pytest.raises(ParamOutOfRange) as err:
        truncated_binomial_bound(10, 1.5, 0.5)
    assert str(err.value) == "need r in [0, 1], got 1.5"
