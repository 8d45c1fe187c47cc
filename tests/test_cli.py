import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphqec import channels
from graphqec.cli import _parse_noise, main
from graphqec.graphs import dump_graph, graph_to_dict, loads_graph, wheel_code

from conftest import smith_first_failing


@pytest.fixture()
def wheel_file(tmp_path):
    path = tmp_path / "wheel.json"
    dump_graph(wheel_code(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys, wheel_file):
    code, out, _ = run_cli(capsys, "verify", wheel_file, "--f", "1", "--no-timing")
    assert code == 0
    assert "PASS" in out


def test_verify_fail_reports_witness(capsys, wheel_file):
    code, out, _ = run_cli(capsys, "verify", wheel_file, "--f", "2", "--no-timing")
    assert code == 1
    assert "FAIL" in out
    assert "failing subset" in out


def test_verify_timing_line_toggle(capsys, wheel_file):
    _, out, _ = run_cli(capsys, "verify", wheel_file, "--f", "1")
    assert "time:" in out
    _, out, _ = run_cli(capsys, "verify", wheel_file, "--f", "1", "--no-timing")
    assert "time:" not in out


def test_verify_json_mode(capsys, wheel_file):
    code, out, _ = run_cli(capsys, "verify", wheel_file, "--f", "1", "--json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["passes"] is True
    assert payload["witness"] is None
    assert "elapsed_s" not in payload


def test_verify_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    for text, message in (
        ('{"d": 2, "m": 1, "n": 1, "edges": [[0, 0, 1]]}', "self-loop"),
        # int() would truncate these to a code the file does not describe
        ('{"d": 2.7, "m": 1, "n": 5, "edges": []}', "must be an integer"),
        ('{"d": 2, "m": true, "n": 5, "edges": []}', "must be an integer"),
        ('{"d": 2, "m": 1, "n": 5, "edges": [[0, 1, 1.9]]}', "must be an integer"),
    ):
        bad.write_text(text)
        code, out, err = run_cli(capsys, "verify", str(bad), "--f", "0")
        assert code == 2
        assert out == ""
        assert message in err


def test_verify_exact_at_moduli_beyond_int64_products(capsys, tmp_path):
    # prime 10**18 + 3 and composite 2 * 4294967311 both need Python-int
    # elimination; each second graph fails only because a block's integer
    # determinant is a multiple of the large prime
    p, q = 10**18 + 3, 4294967311
    wheel = graph_to_dict(wheel_code())["edges"]
    cases = [
        (p, wheel),
        (p, [[0, 3, 1], [0, 4, 1], [1, 2, 2], [1, 4, (p + 1) // 2],
             [1, 5, 1], [2, 4, 1], [2, 5, 2], [3, 5, p - 1]]),
        (2 * q, wheel),
        (2 * q, [[0, 1, 3], [0, 4, 2], [1, 5, q], [3, 4, 1]]),
    ]
    verdicts = []
    for d, edges in cases:
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"d": d, "m": 1, "n": 5, "edges": edges}))
        expected = smith_first_failing(loads_graph(path.read_text()), 2)
        code, out, _ = run_cli(capsys, "verify", str(path), "--f", "1", "--json", "--no-timing")
        report = json.loads(out)
        assert code == (0 if expected is None else 1)
        assert report["passes"] == (expected is None)
        assert report["witness"] == (None if expected is None else list(expected))
        verdicts.append(report["witness"])
    assert verdicts == [None, [0, 1], None, [0]]


def test_verify_reduces_huge_multiplicities_exactly(capsys, tmp_path):
    # 2**63 - 25 is the largest prime below 2**63; 2 * 2**62 = 25 mod d, and
    # multiplicities beyond int64 reduce to the same residues
    d = 2**63 - 25
    reduced = [[0, 1, 25], [0, 2, 1], [0, 3, d - 1], [0, 4, 7], [0, 5, 1], [1, 2, 3], [2, 3, 1], [4, 5, 1]]
    split = [[0, 1, 2**62], [0, 1, 2**62], [0, 2, 1 + 2**70 * d], [0, 3, -1], [0, 4, 7 - 2**80 * d],
             [0, 5, 1], [1, 2, 3], [2, 3, 1], [4, 5, 1]]
    outputs = []
    for edges in (reduced, split):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"d": d, "m": 1, "n": 5, "edges": edges}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outputs.append(run_cli(capsys, "verify", str(path), "--f", "1", "--json", "--no-timing"))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 1)


def test_verify_refuses_site_dimension_beyond_int64(capsys, tmp_path):
    for d in (2**63, 2**64 + 13):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d": d, "m": 1, "n": 5, "edges": [[0, 1, 1]]}))
        code, out, err = run_cli(capsys, "verify", str(path), "--f", "1", "--no-timing")
        assert code == 2
        assert out == ""
        assert "2**63" in err


def test_verify_missing_file(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/graph.json", "--f", "1")
    assert code == 2
    assert err


def test_maxf(capsys, wheel_file):
    code, out, _ = run_cli(capsys, "maxf", wheel_file, "--no-timing")
    assert code == 0
    assert "max correctable f: 1" in out


def test_kl_check_pass_and_fail(capsys, wheel_file):
    code, out, _ = run_cli(capsys, "kl-check", wheel_file, "--f", "1", "--no-timing")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run_cli(capsys, "kl-check", wheel_file, "--f", "2", "--no-timing")
    assert code == 1
    assert "FAIL" in out


def test_ten_qubit_budget_exits_2_before_allocating(capsys, tmp_path, monkeypatch):
    kron_stacks = channels._kron_stacks

    def guarded(stacks):  # builds one identity operator, refuses anything larger
        assert np.prod([s.size for s in stacks]) <= 2**20, "a large Kronecker product was reached"
        return kron_stacks(stacks)

    monkeypatch.setattr(channels, "_kron_stacks", guarded)
    path = tmp_path / "ring10.json"
    edges = [[0, 1 + s, 1] for s in range(10)] + [[1 + s, 1 + (s + 1) % 10, 1] for s in range(10)]
    path.write_text(json.dumps({"d": 2, "m": 1, "n": 10, "edges": edges}))
    # 436 error operators of 2^20 amplitudes: about 7.3 GB
    code, out, err = run_cli(capsys, "kl-check", str(path), "--f", "2", "--no-timing")
    assert (code, out) == (2, "")
    assert "amplitudes" in err
    # depolarizing on 5 sites: 1,024 Kraus operators of 2^20 amplitudes
    code, out, err = run_cli(
        capsys, "simulate", str(path), "--f", "0",
        "--noise", "depolarizing:0.3", "--sites", "0,1,2,3,4", "--no-timing",
    )
    assert (code, out) == (2, "")
    assert "amplitudes" in err


def test_simulate_single_site(capsys, wheel_file):
    code, out, _ = run_cli(
        capsys,
        "simulate", wheel_file, "--f", "1",
        "--noise", "depolarizing:0.3", "--sites", "2",
        "--json", "--no-timing",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["choi_trace_distance"] < 1e-9
    assert payload["corrected"] is True


def test_simulate_two_sites_not_corrected(capsys, wheel_file):
    code, out, _ = run_cli(
        capsys,
        "simulate", wheel_file, "--f", "1",
        "--noise", "depolarizing:0.3", "--sites", "2,4",
        "--json", "--no-timing",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["choi_trace_distance"] >= 0.01
    assert payload["corrected"] is False


def test_simulate_no_noise_round_trip(capsys, wheel_file):
    code, out, _ = run_cli(
        capsys, "simulate", wheel_file, "--f", "1", "--json", "--no-timing"
    )
    assert code == 0
    assert json.loads(out)["choi_trace_distance"] < 1e-9


def test_simulate_unitary_rotation(capsys, wheel_file):
    code, out, _ = run_cli(
        capsys,
        "simulate", wheel_file, "--f", "1",
        "--noise", "unitary-rotation:0.3", "--sites", "4",
        "--json", "--no-timing",
    )
    assert code == 0
    assert json.loads(out)["choi_trace_distance"] < 1e-9


def test_simulate_custom_kraus(capsys, wheel_file, tmp_path):
    # bit-flip channel with probability 0.25 as explicit Kraus matrices
    p = 0.25
    kraus = [
        {"re": (np.sqrt(1 - p) * np.eye(2)).tolist(), "im": np.zeros((2, 2)).tolist()},
        {"re": (np.sqrt(p) * np.array([[0.0, 1.0], [1.0, 0.0]])).tolist(),
         "im": np.zeros((2, 2)).tolist()},
    ]
    path = tmp_path / "bitflip.json"
    path.write_text(json.dumps(kraus))
    code, out, _ = run_cli(
        capsys,
        "simulate", wheel_file, "--f", "1",
        "--noise", f"custom-kraus:{path}", "--sites", "0",
        "--json", "--no-timing",
    )
    assert code == 0
    assert json.loads(out)["choi_trace_distance"] < 1e-9


def test_simulate_refuses_missized_custom_kraus(capsys, wheel_file, tmp_path, monkeypatch):
    # a qutrit channel on a qubit code: refused when the file is read,
    # before any decoder is built
    path = tmp_path / "qutrit.json"
    path.write_text(json.dumps([{"re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}]))

    def no_decoder(*args, **kwargs):
        raise AssertionError("decoder built before the noise was checked")

    monkeypatch.setattr("graphqec.cli.synthesize_decoder", no_decoder)
    code, out, err = run_cli(
        capsys,
        "simulate", wheel_file, "--f", "1",
        "--noise", f"custom-kraus:{path}", "--sites", "0",
    )
    assert code == 2
    assert out == ""
    assert "expected (2, 2)" in err


@pytest.mark.parametrize(
    "content",
    [
        [{"re": np.eye(2).tolist()}],  # an operator without "im"
        {"re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()},  # an object, not a list
        ["identity"],  # a string entry
        [{"re": [["1", "0"], ["0", "1"]], "im": np.zeros((2, 2)).tolist()}],  # string matrix
        [{"re": np.eye(2).tolist(), "im": [0.0]}],  # re and im of different shapes
    ],
    ids=["missing-im", "top-level-object", "string-entry", "string-matrix", "shape-mismatch"],
)
def test_simulate_refuses_malformed_custom_kraus(capsys, wheel_file, tmp_path, content):
    path = tmp_path / "kraus.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(
        capsys,
        "simulate", wheel_file, "--f", "1",
        "--noise", f"custom-kraus:{path}", "--sites", "0",
    )
    assert code == 2
    assert out == ""
    assert "custom-kraus" in err


def test_parse_noise_families(tmp_path):
    assert len(_parse_noise("depolarizing:0.25", 2).kraus) == 4
    assert len(_parse_noise("unitary-rotation:0.2", 3).kraus) == 1
    path = tmp_path / "identity.json"
    path.write_text(json.dumps([{"re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()}]))
    custom = _parse_noise(f"custom-kraus:{path}", 2)
    assert (len(custom.kraus), custom.dim_in) == (1, 2)
    with pytest.raises(ValueError, match="unknown noise family"):
        _parse_noise("amplitude-damping:0.1", 2)


def test_simulate_rejects_uncorrectable_f(capsys, wheel_file):
    code, _, err = run_cli(
        capsys, "simulate", wheel_file, "--f", "2", "--no-timing"
    )
    assert code == 1
    assert "does not correct" in err


def test_simulate_bad_noise_token(capsys, wheel_file):
    code, _, err = run_cli(
        capsys,
        "simulate", wheel_file, "--f", "1",
        "--noise", "amplitude-damping:0.1", "--sites", "0",
    )
    assert code == 2
    assert "unknown noise family" in err


def test_search_cli_and_determinism(capsys):
    argv = ["search", "--d", "2", "--m", "3", "--n", "30", "--f", "1",
            "--trials", "10", "--seed", "7", "--json", "--no-timing"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["successes"] == 10
    assert payload["best_code"]["d"] == 2


def test_search_rejects_composite_dimension(capsys):
    code, _, err = run_cli(
        capsys,
        "search", "--d", "4", "--m", "3", "--n", "30", "--f", "1",
        "--trials", "5", "--seed", "7",
    )
    assert code == 2
    assert "prime" in err


def test_singular_mc(capsys):
    code, out, _ = run_cli(
        capsys,
        "singular-mc", "--d", "2", "--N", "8", "--M", "4",
        "--trials", "2000", "--seed", "11", "--json", "--no-timing",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["bound"] == 2.0**-4
    assert payload["empirical"] <= payload["bound"] + 3 * (payload["bound"] / 2000) ** 0.5


def test_bounds_threshold_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--fig", "threshold")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps,strict_threshold,simple_bound"
    assert len(lines) == 501


def test_bounds_region_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--fig", "region", "--d", "2")
    assert code == 0
    assert out.startswith("eps,mu_singleton,mu_hamming,mu_random_graph\n")


def test_bounds_exponent_four_curves_to_file(capsys, tmp_path):
    out_path = tmp_path / "exponent.csv"
    code, _, _ = run_cli(
        capsys,
        "bounds", "--fig", "exponent", "--p", "2", "--k", "1",
        "--delta", "1e-3,1e-4,1e-5,1e-6", "-o", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "c,lambda_nats,lambda_bits,delta"
    assert len({ln.split(",")[3] for ln in lines[1:]}) == 4


def test_bounds_output_is_byte_identical(capsys):
    code, out1, _ = run_cli(capsys, "bounds", "--fig", "threshold")
    code, out2, _ = run_cli(capsys, "bounds", "--fig", "threshold")
    assert out1 == out2


def test_capacity_small_noise(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--d", "2", "--eps", "0.01", "--json", "--no-timing"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["q_lower"] - 0.8185595) < 1e-6


def test_capacity_finite_coding(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--p", "2", "--k", "1", "--delta", "1e-3",
        "--json", "--no-timing",
    )
    assert code == 0
    assert abs(json.loads(out)["q_lower"] - 0.94040517) < 1e-6


def test_capacity_flags_vacuous_bound(capsys):
    code, out, _ = run_cli(
        capsys, "capacity", "--d", "2", "--eps", "0.25", "--no-timing"
    )
    assert code == 0
    assert "non-positive" in out


def test_capacity_needs_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "capacity", "--d", "2")
    assert code == 2
    assert "mode" in err


def test_unknown_flag_rejected(capsys, wheel_file):
    for extra in (["--bogus"], ["--threads", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", wheel_file, "--f", "1"] + extra)
        assert exc.value.code == 2


def test_simulate_sites_are_a_set(capsys, wheel_file):
    argv = ["simulate", wheel_file, "--f", "1", "--noise", "depolarizing:0.3", "--no-timing"]
    code, out, _ = run_cli(capsys, *argv, "--sites", "3,1")
    assert code == 0
    assert out.startswith("noise: depolarizing:0.3 on sites [1, 3]\n")
    unsorted, in_order = (json.loads(run_cli(capsys, *argv, "--sites", s, "--json")[1]) for s in ("3,1", "1,3"))
    assert unsorted["sites"] == [1, 3]
    assert unsorted["choi_trace_distance"] == in_order["choi_trace_distance"]


@pytest.mark.parametrize(
    "sites, message",
    [
        ("1,1", "subset (1, 1) has repeated sites"),
        ("7", "subset (7,) contains indices outside the output range [0, 5)"),
        ("1,x", "invalid literal for int()"),
    ],
    ids=["repeated", "out-of-range", "non-integer"],
)
def test_simulate_refuses_bad_sites(capsys, wheel_file, sites, message):
    code, out, err = run_cli(
        capsys, "simulate", wheel_file, "--f", "1", "--noise", "depolarizing:0.3", "--sites", sites
    )
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("command", ["verify", "kl-check", "simulate"])
def test_negative_f_refused(capsys, wheel_file, command):
    code, out, err = run_cli(capsys, command, wheel_file, "--f", "-1")
    assert (code, out) == (2, "")
    assert "error count must be non-negative, got -1" in err


_EMITTING = {
    "verify": (["verify", "WHEEL", "--f", "1"], 0),
    "verify-fail": (["verify", "WHEEL", "--f", "2"], 1),
    "maxf": (["maxf", "WHEEL"], 0),
    "kl-check": (["kl-check", "WHEEL", "--f", "1"], 0),
    "simulate": (["simulate", "WHEEL", "--f", "1", "--noise", "depolarizing:0.3", "--sites", "2"], 0),
    "search": (["search", "--d", "2", "--m", "1", "--n", "5", "--f", "1", "--trials", "3", "--seed", "1"], 0),
    "singular-mc": (["singular-mc", "--d", "2", "--N", "4", "--M", "2", "--trials", "100", "--seed", "1"], 0),
    "capacity": (["capacity", "--d", "2", "--eps", "0.01"], 0),
}


@pytest.mark.parametrize("argv, expected", list(_EMITTING.values()), ids=list(_EMITTING))
def test_every_command_emits_once_with_optional_timing(capsys, wheel_file, argv, expected):
    argv = [wheel_file if a == "WHEEL" else a for a in argv]
    code, timed, _ = run_cli(capsys, *argv)
    *report, last = timed.splitlines()
    assert code == expected
    assert re.fullmatch(r"time: \d+\.\d{3}s", last)
    code, untimed, _ = run_cli(capsys, *argv, "--no-timing")
    assert (code, untimed.splitlines()) == (expected, report)
    assert "time:" not in untimed
    code, out, _ = run_cli(capsys, *argv, "--json")
    payload = json.loads(out)
    assert code == expected
    assert isinstance(payload.pop("elapsed_s"), float)
    code, out, _ = run_cli(capsys, *argv, "--json", "--no-timing")
    assert (code, json.loads(out)) == (expected, payload)


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_bounds_prints_no_timing(capsys, extra):
    timed = run_cli(capsys, "bounds", "--fig", "region", *extra)
    assert timed == run_cli(capsys, "bounds", "--fig", "region", *extra, "--no-timing")
    assert "time:" not in timed[1]
    assert "elapsed_s" not in timed[1]


@pytest.mark.parametrize("f, expected", [("1", 0), ("2", 1), (None, 2)], ids=["pass", "fail", "missing-file"])
def test_module_entry_point_passes_exit_code(capsys, wheel_file, tmp_path, f, expected):
    graph = wheel_file if f else str(tmp_path / "missing.json")
    argv = ["verify", graph, "--f", f or "1", "--no-timing"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "graphqec.cli", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)
    assert proc.returncode == expected


def _refused(result, message):
    code, out, err = result
    assert (code, out) == (2, "")
    assert message in err, err


@pytest.mark.parametrize("d", ["1", "0", "-3"])
def test_bounds_region_refuses_site_dimension_below_two(capsys, d):
    _refused(run_cli(capsys, "bounds", "--fig", "region", "--d", d), f"site dimension d must be >= 2, got {d}")


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_singular_mc_refuses_seed_outside_64_bits(capsys, seed):
    argv = ["singular-mc", "--d", "2", "--N", "4", "--M", "2", "--trials", "10", "--seed", seed]
    _refused(run_cli(capsys, *argv), f"seed must fit in 64 bits (0 <= seed < 2**64), got {seed}")


_COMPOSITE = {
    "search": ["search", "--d", "4", "--m", "1", "--n", "5", "--f", "1", "--trials", "3", "--seed", "1"],
    "singular-mc": ["singular-mc", "--d", "4", "--N", "4", "--M", "2", "--trials", "10", "--seed", "1"],
    "capacity-small-noise": ["capacity", "--d", "4", "--eps", "0.01"],
    "capacity-finite": ["capacity", "--p", "4", "--k", "1", "--delta", "1e-3"],
    "bounds-exponent": ["bounds", "--fig", "exponent", "--p", "4"],
}


@pytest.mark.parametrize("argv", list(_COMPOSITE.values()), ids=list(_COMPOSITE))
def test_one_prime_rule_refuses_composite_dimension(capsys, argv):
    _refused(run_cli(capsys, *argv), "must be prime, got 4")


def test_simulate_refuses_nan_custom_kraus(capsys, wheel_file, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('[{"re": [[NaN, 0], [0, 1]], "im": [[0, 0], [0, 0]]}]')
    argv = ["simulate", wheel_file, "--f", "1", "--noise", f"custom-kraus:{path}", "--sites", "0"]
    _refused(run_cli(capsys, *argv), "Kraus completeness violated")


@pytest.mark.parametrize("theta", ["inf", "nan"])
def test_simulate_refuses_non_finite_rotation_under_warnings_as_errors(wheel_file, theta):
    argv = ["simulate", wheel_file, "--f", "1", "--noise", f"unitary-rotation:{theta}", "--sites", "0"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "graphqec.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: rotation angle theta must be finite, got {theta}\n"


def test_capacity_refuses_nan_delta_by_the_delta_rule(capsys):
    code, out, err = run_cli(capsys, "capacity", "--p", "2", "--k", "1", "--delta", "nan")
    _refused((code, out, err), "need 0 <= delta < 1/(2e)")
    assert "binary entropy" not in err
