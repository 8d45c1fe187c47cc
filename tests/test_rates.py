import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from graphqec.errors import (
    CompositeModulus,
    DeltaTooLarge,
    ParamOutOfRange,
    UnsupportedDimension,
)
from graphqec.rates import (
    LOG2_3,
    _default_exponent_grid,
    _default_threshold_grid,
    _exponent_columns,
    _hamming_rate,
    _random_graph_rate,
    _singleton_rate,
    achievable_pair,
    binary_entropy,
    capacity_from_finite_coding,
    capacity_lower_bound_small_noise,
    emit_curves,
    error_exponent_curve,
    error_threshold,
    gv_allows,
    hamming_allows,
    ideal_capacity,
    _default_region_grid,
    region_boundaries,
    singleton_allows,
    singleton_standard_allows,
)

from conftest import entropy_oracle, exponent_oracle, region_oracle, threshold_oracle


def test_ideal_capacity():
    assert ideal_capacity(2) == 1.0
    assert abs(ideal_capacity(5) - math.log2(5)) < 1e-12


def test_achievable_pair_simple_points():
    assert achievable_pair(2, 0.5, 0.0)
    assert not achievable_pair(2, 1.0, 0.1)
    assert not achievable_pair(2, 0.2, 0.7)


def test_achievable_pair_boundary_at_mu_zero():
    # oracle: root of H2(2 eps) - (1 - 4 eps) via brentq
    root = brentq(lambda e: entropy_oracle(2 * e) - (1 - 4 * e), 1e-6, 0.2, xtol=1e-12)
    assert abs(root - 0.0852678) < 1e-6
    assert achievable_pair(2, 0.0, root - 1e-4)
    assert not achievable_pair(2, 0.0, root + 1e-4)


def test_hamming_simple_points():
    assert hamming_allows(2, 1.0, 0.0)
    assert not hamming_allows(2, 1.0, 0.01)


def test_hamming_boundary_at_mu_half():
    root = brentq(
        lambda e: entropy_oracle(e) + e * LOG2_3 - 0.5, 1e-6, 0.4, xtol=1e-12
    )
    assert hamming_allows(2, 0.5, root - 1e-4)
    assert not hamming_allows(2, 0.5, root + 1e-4)


def test_singleton_points():
    # five-qubit parameters: 1 - 1/5 >= 2 * 1/5
    assert singleton_allows(2, 0.2, 0.2)
    assert singleton_allows(2, 0.7, 0.0)
    assert not singleton_allows(2, 1.0, 0.1)


def test_singleton_standard_is_tighter_for_qubits():
    assert singleton_standard_allows(0.2, 0.2)
    assert not singleton_standard_allows(0.5, 0.2)
    assert singleton_allows(2, 0.5, 0.2)


def test_gv_points_and_dimension_guard():
    assert gv_allows(0.5, 0.0)
    assert not gv_allows(1.0, 0.0)
    assert not gv_allows(1.0, 0.2)
    with pytest.raises(UnsupportedDimension):
        gv_allows(0.1, 0.1, d=3)


def test_gv_strictly_contains_random_graph_region():
    # GV is "slightly better": find a grid point with gv true, eq-8 false
    found = False
    for i in range(0, 201):
        for j in range(0, 101):
            mu, eps = i * 0.005, j * 0.005
            if gv_allows(mu, eps) and not achievable_pair(2, mu, eps):
                found = True
                break
        if found:
            break
    assert found


def test_region_nesting_on_grid():
    for i in range(0, 201):
        for j in range(0, 101):
            mu, eps = i * 0.005, j * 0.005
            ach = achievable_pair(2, mu, eps)
            gv = gv_allows(mu, eps)
            ham = hamming_allows(2, mu, eps)
            if ach:
                assert gv
            if gv:
                assert ham


def test_reverse_nesting_fails_somewhere():
    hits = 0
    for j in range(0, 101):
        eps = j * 0.005
        for mu in (0.0, 0.25, 0.5):
            if hamming_allows(2, mu, eps) and not gv_allows(mu, eps):
                hits += 1
                break
    assert hits > 0


def test_capacity_small_noise_example():
    threshold, q_lower = capacity_lower_bound_small_noise(2, 0.01)
    assert type(threshold) is float and type(q_lower) is float
    assert abs(threshold - 2 ** (-entropy_oracle(0.01) / 0.01)) < 1e-12
    assert abs(q_lower - (0.96 - entropy_oracle(0.02))) < 1e-12
    assert abs(q_lower - 0.8186) < 1e-4


def test_capacity_small_noise_approaches_ideal():
    _, q_lower = capacity_lower_bound_small_noise(2, 1e-7)
    assert abs(q_lower - ideal_capacity(2)) < 1e-5
    for eps in (0.01, 0.1, 0.3, 0.49):
        _, q = capacity_lower_bound_small_noise(2, eps)
        assert q <= ideal_capacity(2)


def test_capacity_small_noise_can_go_negative():
    _, q_lower = capacity_lower_bound_small_noise(2, 0.25)
    assert abs(q_lower - (-1.0)) < 1e-12


def test_capacity_small_noise_guards():
    with pytest.raises(CompositeModulus):
        capacity_lower_bound_small_noise(4, 0.01)
    with pytest.raises(ParamOutOfRange):
        capacity_lower_bound_small_noise(2, 0.5)


def test_capacity_finite_coding_limit():
    assert abs(capacity_from_finite_coding(2, 1, 0.0) - 1.0) < 1e-12
    assert abs(capacity_from_finite_coding(3, 2, 0.0) - math.log2(3) / 2) < 1e-12


def test_capacity_finite_coding_example():
    value = capacity_from_finite_coding(2, 1, 1e-3)
    assert type(value) is float
    scaled = math.e * 1e-3
    oracle = (1.0 - 4.0 * scaled) - entropy_oracle(2.0 * scaled)
    assert abs(value - oracle) < 1e-12
    assert abs(value - 0.94040517) < 1e-6


def test_capacity_finite_coding_guards():
    with pytest.raises(DeltaTooLarge):
        capacity_from_finite_coding(2, 1, 1.0 / (2.0 * math.e))
    with pytest.raises(CompositeModulus):
        capacity_from_finite_coding(4, 1, 1e-3)


def test_exponent_curve_shape_and_flags():
    delta = 1e-3
    grid = [math.e * delta + j * 0.002 for j in range(150)]
    points = error_exponent_curve(2, 1, delta, grid)
    assert len(points) == 150
    positive = [p for p in points if not p.vacuous]
    assert positive
    for p in points:
        assert p.vacuous == (p.lambda_nats <= 0.0)
        assert abs(p.lambda_bits - p.lambda_nats / math.log(2.0)) < 1e-12


def test_exponent_curve_sign_at_grid_start():
    # at eps = e*delta the sign is fixed by delta vs the strict threshold
    for delta in (1e-3, 1e-2):
        eps = math.e * delta
        point = error_exponent_curve(2, 1, delta, [eps])[0]
        strict, _ = error_threshold(eps)
        assert (point.lambda_nats > 0) == (delta < strict)


def test_exponent_curve_monotone_in_delta_and_k():
    grid = [0.05, 0.1, 0.2]
    small = error_exponent_curve(2, 1, 1e-6, grid)
    large = error_exponent_curve(2, 1, 1e-3, grid)
    for ps, pl in zip(small, large):
        assert abs(ps.c - pl.c) < 1e-12  # c does not depend on delta
        assert ps.lambda_nats > pl.lambda_nats
    k1 = error_exponent_curve(2, 1, 1e-4, grid)
    k2 = error_exponent_curve(2, 2, 1e-4, grid)
    for a, b in zip(k1, k2):
        assert abs(b.lambda_nats - a.lambda_nats / 2.0) < 1e-12


def test_exponent_curve_guards():
    # below e*delta, NaN, above 1/2: the first grid point outside, as given
    for grid, shown in (([1e-4], "0.0001"), ([0.1, math.nan, 1e-4], "nan"), ([0.1, 1], "1")):
        with pytest.raises(ParamOutOfRange) as err:
            error_exponent_curve(2, 1, 1e-3, grid)
        assert str(err.value) == f"grid point eps={shown} outside [e*delta, 1/2] = [{math.e * 1e-3}, 0.5]"
    with pytest.raises(CompositeModulus):
        error_exponent_curve(6, 1, 1e-3, [0.1])
    # the finite-coding rule on delta, 1/(2e) itself included
    for delta in (0.2, 1.0 / (2.0 * math.e)):
        with pytest.raises(DeltaTooLarge, match=r"1/\(2e\)"):
            error_exponent_curve(2, 1, delta, [0.5])


def test_region_boundaries_ordering():
    for j in range(0, 101):
        eps = j * 0.005
        s, h, r = region_boundaries(2, eps)
        assert {type(x) for x in (s, h, r)} <= {float, type(None)}
        if s is not None and h is not None and r is not None:
            assert s >= h >= r


def test_emit_threshold_csv_delegates():
    csv = emit_curves("threshold-fig")
    lines = csv.strip().split("\n")
    assert lines[0] == "eps,strict_threshold,simple_bound"
    assert len(lines) == 501
    eps, strict, simple = (float(x) for x in lines[10].split(","))
    expect_strict, expect_simple = error_threshold(eps)
    assert abs(strict - expect_strict) < 1e-12
    assert abs(simple - expect_simple) < 1e-12


def test_emit_region_csv_has_empty_cells():
    csv = emit_curves("rate-region-fig", d=2)
    lines = csv.strip().split("\n")
    assert lines[0] == "eps,mu_singleton,mu_hamming,mu_random_graph"
    last = lines[-1].split(",")
    # at eps = 0.5 the singleton boundary sits exactly at mu = 0 while the
    # hamming and random-graph boundaries have left [0, 1]
    assert last[1] == "0" and last[2] == "" and last[3] == ""


def test_emit_exponent_csv_four_curves():
    csv = emit_curves("exponent-fig", p=2, k=1, deltas=(1e-3, 1e-4, 1e-5, 1e-6))
    lines = csv.strip().split("\n")
    assert lines[0] == "c,lambda_nats,lambda_bits,delta"
    deltas = {line.split(",")[3] for line in lines[1:]}
    assert len(deltas) == 4


def test_emit_curves_is_deterministic():
    assert emit_curves("threshold-fig") == emit_curves("threshold-fig")
    assert emit_curves("exponent-fig") == emit_curves("exponent-fig")


def test_emit_curves_unknown_kind():
    with pytest.raises(ParamOutOfRange):
        emit_curves("spectrum-fig")


@pytest.mark.parametrize("d", [1, 0, -3])
def test_region_boundaries_refuse_site_dimension_below_two(d):
    with pytest.raises(ParamOutOfRange, match="site dimension"):
        region_boundaries(d, 0.1)


def test_delta_rules_refuse_nan():
    with pytest.raises(DeltaTooLarge):
        capacity_from_finite_coding(2, 1, math.nan)
    with pytest.raises(ParamOutOfRange, match="coding error"):
        error_exponent_curve(2, 1, math.nan, [0.1])


def test_small_noise_threshold_is_the_strict_error_threshold():
    for eps in (1e-4, 0.01, 0.1, 0.25, 0.4999):
        assert capacity_lower_bound_small_noise(3, eps)[0] == error_threshold(eps)[0]


# Each boundary has one formula, so the predicates, the region figure,
# the capacity bounds and the exponent curve agree to the last bit.


def test_region_boundaries_lie_inside_their_predicates():
    for d in range(2, 50):
        for eps in _default_region_grid():
            s, h, _ = region_boundaries(d, eps)
            assert s is None or singleton_allows(d, s, eps), (d, eps, s)
            assert h is None or hamming_allows(d, h, eps), (d, eps, h)


def test_achievable_one_float_below_the_random_graph_boundary():
    for d in range(2, 50):
        for eps in _default_region_grid():
            r = region_boundaries(d, eps)[2]
            if r is not None and r > 0.0:
                assert achievable_pair(d, math.nextafter(r, 0.0), eps), (d, eps, r)
                assert not achievable_pair(d, r, eps)


@pytest.mark.parametrize("p, k", [(2, 1), (3, 4), (7, 2), (101, 3)])
def test_finite_coding_capacity_is_the_exponent_curve_c_at_e_delta(p, k):
    for delta in (1e-12, 1e-6, 1e-3, 3e-3, 0.01, 0.05, 0.1, 0.137, 0.18):
        curve = error_exponent_curve(p, k, delta, [math.e * delta])
        assert capacity_from_finite_coding(p, k, delta) == curve[0].c


@pytest.mark.parametrize("d", [2, 3, 5, 7, 13, 97])
def test_small_noise_capacity_is_log2_d_times_the_random_graph_rate(d):
    for eps in [j / 1000.0 for j in range(1, 500)]:
        r = region_boundaries(d, eps)[2]
        if r is not None:
            assert capacity_lower_bound_small_noise(d, eps)[1] == math.log2(d) * r, eps


# sha256 of emit_curves output; the CSV bytes are a contract of the figures
CSV_DIGESTS = {
    ("threshold-fig", ()): "d6f08d7fd2335dd20a233af7c40cbec493496463665a668783e33faf528b854c",
    ("rate-region-fig", (("d", 2),)): "26f758cba64879fbe348b4d888929e55e98ac4854db25a31781b576943ee81ae",
    ("rate-region-fig", (("d", 3),)): "e03169488a4ad6b442c4ec3343f64031c734ea7a54aed56a29069b9354c4dd40",
    ("rate-region-fig", (("d", 101),)): "3d12751cfcc6b1a38d2fd9f0315b3d2e19c71f44751f563c512e0e9f4cfb627e",
    ("exponent-fig", (("p", 2), ("k", 1))): "a47efd3c7133baf24bd5c2edbeb648a6482ef03ac386c9ad4fa59cd562f549fc",
    ("exponent-fig", (("p", 3), ("k", 4), ("deltas", (1e-2, 3e-3, 1e-5)))):
        "6b9782989cf34d0a6f02790254418acc761efa75810c6dafabc520b5a4b03ead",
    ("exponent-fig", (("p", 7), ("k", 2), ("deltas", (1e-2, 3e-3, 1e-5)))):
        "cd40f67aeca258f920f97a2d61bd292a78876e0860b418e19f325048ff531287",
}


@pytest.mark.parametrize("kind, options", list(CSV_DIGESTS))
def test_emit_curves_bytes_match_recorded_digests(kind, options):
    csv = emit_curves(kind, **dict(options))
    assert hashlib.sha256(csv.encode()).hexdigest() == CSV_DIGESTS[kind, options]


def test_rate_checks_refuse_rates_outside_the_unit_interval():
    with pytest.raises(ParamOutOfRange) as err:
        singleton_standard_allows(1.5, 0.1)
    assert str(err.value) == "rates must lie in [0, 1], got mu=1.5, eps=0.1"
    with pytest.raises(ParamOutOfRange) as err:
        region_boundaries(2, 1.5)
    assert str(err.value) == "need eps in [0, 1], got 1.5"


@pytest.mark.parametrize("eps", [0.6, 1.0])
def test_gv_refuses_error_rates_above_one_half(eps):
    # H2(2 eps) is undefined there, so the region is empty rather than an error
    assert gv_allows(0.0, eps) is False


def _bits(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("fig", ["threshold", "region", "exponent"])
def test_array_formulas_equal_the_scalar_libm_formulas_bit_for_bit(fig):
    # the figures' grids through the array formulas, entry by entry against the same
    # formulas on one float at a time with math: numpy's own log2, log or power loops
    # would differ from libm in the last bit on some entries on a CPU with SIMD loops
    if fig == "threshold":
        eps = _default_threshold_grid()
        assert _bits(binary_entropy(eps)) == _bits(map(entropy_oracle, eps.tolist()))
        assert _bits(binary_entropy(2.0 * eps[eps <= 0.5])) == _bits(entropy_oracle(2.0 * e) for e in eps.tolist() if e <= 0.5)
        strict, simple = error_threshold(eps)
        expected = [threshold_oracle(e) for e in eps.tolist()]
        assert _bits(strict) == _bits(s for s, _ in expected)
        assert _bits(simple) == _bits(t for _, t in expected)
    elif fig == "region":
        eps = _default_region_grid()
        for d in (2, 3, 4, 7, 101, 1009):
            columns = zip(*(region_oracle(d, e) for e in eps.tolist()))
            for formula, expected in zip((_singleton_rate, _hamming_rate, _random_graph_rate), columns):
                assert _bits(formula(d, eps)) == _bits(expected), (d, formula.__name__)
    else:
        deltas = (1e-3, 1e-4, 1e-5, 1e-6, 1e-12, 0.18, 0.1, 0.05, 0.0123)
        for p, k, delta in itertools.product((2, 3, 5, 7, 101, 1009), (1, 2, 3, 5, 9), deltas):
            grid = _default_exponent_grid(delta)
            c, lam, _ = _exponent_columns(p, k, delta, grid)
            expected = [exponent_oracle(p, k, delta, e) for e in grid.tolist()]
            assert _bits(c) == _bits(x for x, _ in expected), (p, k, delta)
            assert _bits(lam) == _bits(y for _, y in expected), (p, k, delta)
