"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Every expected value is either trivially forced, re-derived here by an
independent oracle (exact integer sums, brute-force enumeration,
separately coded scalar formulas), or checked against the library at
the stated tolerance.  Runtime caps are asserted with a wall clock.
"""

import itertools
import math
import time
from math import comb, log2

import numpy as np

from graphqec.channels import (
    Channel,
    error_space_basis,
    identity_channel,
    kl_verify,
    localized_error_basis,
    synthesize_decoder,
    tensor_channels,
    verify_etd,
)
from graphqec.graphs import build_isometry, corrects_f, prism_code, wheel_code
from graphqec.noise import (
    cb_lower_witness,
    make_depolarizing,
    make_unitary_channel,
    phase_rotation,
    transposition_map,
    zero_map,
)
from graphqec.rates import (
    achievable_pair,
    binomial_error_bound,
    capacity_from_finite_coding,
    capacity_lower_bound_small_noise,
    error_exponent_curve,
    error_threshold,
    gv_allows,
    hamming_allows,
    region_boundaries,
    truncated_binomial_bound,
)
from graphqec.search import (
    SearchConfig,
    failure_bound_log2,
    run_search,
    singular_fraction_experiment,
)


def entropy(r: float) -> float:
    if r in (0.0, 1.0):
        return 0.0
    return -r * log2(r) - (1.0 - r) * log2(1.0 - r)


def report(number: int, label: str, elapsed: float) -> None:
    print(f"\nACCEPTANCE {number}: PASS ({elapsed:.2f}s) - {label}")


def site_noise(channel_on_sites: dict, n: int, d: int) -> Channel:
    noise = identity_channel(1)
    for site in range(n):
        stage = channel_on_sites.get(site, identity_channel(d))
        noise = tensor_channels(noise, stage)
    return noise


def test_acceptance_01_five_qubit_codes():
    start = time.perf_counter()
    for code in (wheel_code(), prism_code()):
        assert corrects_f(code, 1)
        assert not corrects_f(code, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "both five-qubit graphs correct exactly one error", elapsed)


def test_acceptance_02_isometry_and_knill_laflamme():
    start = time.perf_counter()
    v = build_isometry(wheel_code())
    assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-9

    # the full <=2-site Weyl basis, counted per subset: C(5,2)*16 + 5*4 + 1
    two_site = []
    for pair in itertools.combinations(range(5), 2):
        two_site.extend(localized_error_basis(5, 2, pair))
    for site in range(5):
        two_site.extend(localized_error_basis(5, 2, (site,)))
    two_site.append(np.eye(32, dtype=complex))
    assert len(two_site) == comb(5, 2) * 16 + 5 * 4 + 1

    # scalar-action identity V* X V = 2^-5 tr(X) 1 for every listed operator
    max_dev = 0.0
    for op in two_site:
        gap = v.conj().T @ op @ v - 2.0**-5 * np.trace(op) * np.eye(2)
        max_dev = max(max_dev, float(np.abs(gap).max()))
    assert max_dev < 1e-9

    # pair-based verification: products of <=1-site words span the same space
    one_site = [np.eye(32, dtype=complex)]
    for site in range(5):
        one_site.extend(localized_error_basis(5, 2, (site,)))
    rep = kl_verify(v, one_site)
    assert rep.max_deviation < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"V*V = 1 and KL deviation {max_dev:.1e} over 181 operators", elapsed)


def test_acceptance_03_decoder_round_trip():
    start = time.perf_counter()
    code = wheel_code()
    v = build_isometry(code)
    encoder = Channel((v,))
    decoder = synthesize_decoder(v, error_space_basis(5, 2, 1))

    single_site_channels = [make_depolarizing(2, q) for q in (0.1, 0.3, 1.0)]
    single_site_channels.append(make_unitary_channel(phase_rotation(2, 0.3))[0])
    for chan in single_site_channels:
        noise = site_noise({2: chan}, 5, 2)
        assert verify_etd(encoder, noise, decoder) < 1e-9

    two_site = site_noise({1: make_depolarizing(2, 0.3), 3: make_depolarizing(2, 0.3)}, 5, 2)
    distance = verify_etd(encoder, two_site, decoder)
    assert distance >= 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, f"single-site noise corrected exactly; two-site leaves {distance:.3f}", elapsed)


def test_acceptance_04_random_matrix_lemma():
    start = time.perf_counter()
    trials = 100_000
    empirical, bound = singular_fraction_experiment(2, 10, 5, trials, 20_240_809)
    limit = bound + 3.0 * math.sqrt(bound / trials)
    assert abs(bound - 2.0**-5) < 1e-15
    assert empirical <= limit
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"singular fraction {empirical:.5f} <= {limit:.5f}", elapsed)


def test_acceptance_05_existence_bound_and_search():
    start = time.perf_counter()
    value = failure_bound_log2(2, 3, 30, 1)
    oracle = 30 * ((3 / 30 + 4 / 30 - 1) * log2(2) + entropy(2 / 30))
    assert abs(value - oracle) < 1e-12
    assert abs(value - (-12.39)) <= 0.01

    rep = run_search(SearchConfig(d=2, m=3, n=30, f=1, trials=100, seed=7))
    assert rep.successes == 100 and rep.failures == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"bound {value:.4f}; 100/100 random codes correct one error", elapsed)


def test_acceptance_06_binomial_bounds_dominate_exact_sums():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 41):
        for f in range(0, n):
            threshold = math.inf if n == f + 1 else (f + 1) / (n - f - 1)
            for frac in (0.25, 0.7, 1.0):
                eps = min(threshold, 1.0) * frac
                if eps <= 0.0 or eps > min(threshold, 1.0):
                    continue
                bound = binomial_error_bound(n, f, eps)
                exact = sum(comb(n, k) * eps**k for k in range(f + 1, n + 1))
                assert exact <= bound * (1 + 1e-12)
                checked += 1
    # Lemma 3: bound on log2 of the truncated sum
    for n in (5, 12, 20, 33, 40):
        for r in (0.2, 0.5, 0.8, 1.0):
            limit = math.inf if r == 1.0 else r / (1.0 - r)
            for a in (0.5 * min(limit, 2.0), min(limit, 1.0)):
                if a <= 0:
                    continue
                bound = truncated_binomial_bound(n, r, a)
                exact = log2(sum(comb(n, k) * a**k for k in range(math.ceil(r * n), n + 1)))
                assert exact <= bound + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(6, f"exact tails below bounds on {checked} grid points, n <= 40", elapsed)


def test_acceptance_07_threshold_figure():
    start = time.perf_counter()
    for k in range(1, 501):
        eps = k / 1000.0
        strict, simple = error_threshold(eps)
        assert simple <= strict + 1e-15
    strict, simple = error_threshold(1e-3)
    assert simple / strict > 0.99
    elapsed = time.perf_counter() - start
    report(7, f"eps/e below strict threshold on the full grid; ratio {simple / strict:.5f} at 1e-3", elapsed)


def test_acceptance_08_rate_region_figure():
    start = time.perf_counter()
    for j in range(0, 101):
        eps = j * 0.005
        singleton, hamming, random_graph = region_boundaries(2, eps)
        if None not in (singleton, hamming, random_graph):
            assert singleton >= hamming >= random_graph
    for i in range(0, 201):
        for j in range(0, 101):
            mu, eps = i * 0.005, j * 0.005
            if achievable_pair(2, mu, eps):
                assert gv_allows(mu, eps)
            if gv_allows(mu, eps):
                assert hamming_allows(2, mu, eps)
    elapsed = time.perf_counter() - start
    report(8, "boundary ordering and region nesting hold on the 0.005 grid", elapsed)


def test_acceptance_09_capacity_formulas():
    start = time.perf_counter()
    threshold, q_lower = capacity_lower_bound_small_noise(2, 0.01)
    assert abs(threshold - 2.0 ** (-entropy(0.01) / 0.01)) < 1e-6
    assert abs(q_lower - (0.96 - entropy(0.02))) < 1e-6

    value = capacity_from_finite_coding(2, 1, 1e-3)
    scaled = math.e * 1e-3
    assert abs(value - ((1.0 - 4.0 * scaled) - entropy(2.0 * scaled))) < 1e-6

    grid = [0.05 + 0.01 * j for j in range(30)]
    curves = [error_exponent_curve(2, 1, delta, grid) for delta in (1e-3, 1e-4, 1e-5, 1e-6)]
    for bigger, smaller in zip(curves, curves[1:]):
        for pb, ps in zip(bigger, smaller):
            assert abs(pb.c - ps.c) < 1e-12
            assert ps.lambda_nats > pb.lambda_nats
    elapsed = time.perf_counter() - start
    report(9, "capacity values match oracles; exponent curves ordered by delta", elapsed)


def test_acceptance_10_transposition_witness():
    start = time.perf_counter()
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    value = cb_lower_witness(transposition_map, zero_map, swap, dim=2)
    assert abs(value - 2.0) < 1e-9
    elapsed = time.perf_counter() - start
    report(10, f"SWAP witness for the transposition returns {value:.12f}", elapsed)
