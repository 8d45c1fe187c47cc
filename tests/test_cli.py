import json
import os
import re
import resource
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from graphqec import channels, graphs
from graphqec.channels import (
    Channel,
    error_space_basis,
    identity_channel,
    synthesize_decoder,
    tensor_channels,
    verify_etd,
)
from graphqec.cli import _parse_noise, main
from graphqec.graphs import (
    build_isometry,
    dump_graph,
    first_failing_subset,
    graph_to_dict,
    loads_graph,
    wheel_code,
)
from graphqec.noise import make_depolarizing
from graphqec.search import sample_graph, trial_rng

from conftest import degenerate_wheel, smith_first_failing


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


def _ring_graph(n):
    """A hub input joined to every output of an n-cycle, as a qubit graph."""
    edges = [[0, 1 + s, 1] for s in range(n)] + [[1 + s, 1 + (s + 1) % n, 1] for s in range(n)]
    return {"d": 2, "m": 1, "n": n, "edges": edges}


def _ring_file(tmp_path, n):
    path = tmp_path / f"ring{n}.json"
    path.write_text(json.dumps(_ring_graph(n)))
    return path


def test_kl_check_runs_ten_and_sixteen_qubits_at_f_2(capsys, tmp_path, monkeypatch):
    class_images, kron_stacks = channels._class_images, channels._kron_stacks

    def guarded_images(code, v, report):  # fills an image stack only within the total budget
        assert len(report.syndrome) * v.size <= graphs.TOTAL_AMPLITUDE_CAP, "an oversized image stack was reached"
        return class_images(code, v, report)

    def guarded_kron(stacks):  # builds one identity operator, refuses anything larger
        assert np.prod([s.size for s in stacks]) <= 2**20, "a large Kronecker product was reached"
        return kron_stacks(stacks)

    monkeypatch.setattr(channels, "_class_images", guarded_images)
    monkeypatch.setattr(channels, "_kron_stacks", guarded_kron)
    # 436 and 1129 error words: kl-check reads the graph alone, so the 1129 x 2^17
    # image amplitudes that 16 qubits would take (> 2^26) are never asked for
    for n, words in [(10, 436), (16, 1129)]:
        ring = _ring_file(tmp_path, n)
        code, out, _ = run_cli(capsys, "kl-check", str(ring), "--f", "2", "--json", "--no-timing")
        payload = json.loads(out)
        passes = first_failing_subset(loads_graph(ring.read_text()), 4) is None
        assert (code, payload["operators"], payload["passes"]) == (0 if passes else 1, words, passes)
    # depolarizing on 5 sites: each site's 4 Kraus operators act on its own axis of the Choi factor
    code, out, _ = run_cli(
        capsys, "simulate", str(_ring_file(tmp_path, 10)), "--f", "0",
        "--noise", "depolarizing:0.3", "--sites", "0,1,2,3,4", "--json", "--no-timing",
    )
    assert code == 0
    assert json.loads(out)["sites"] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("d, n, trial", [(2, 16, 303), (3, 12, 46)], ids=["qubit-n16", "qutrit-n12"])
def test_kl_check_passes_f_2_codes_from_the_graph_alone(capsys, tmp_path, monkeypatch, d, n, trial):
    def dense(*args, **kwargs):
        raise AssertionError("kl-check reached the isometry or the error images")

    for module, name in [(graphs, "build_isometry"), (channels, "build_isometry"), (channels, "_images"),
                         (channels, "_class_images"), (channels, "_kl_report")]:
        monkeypatch.setattr(module, name, dense)
    # the first f = 2 passers of sample_graph(d, 1, n, trial_rng(5, t)): 1129 and 4321 words,
    # whose images would hold 2^17 and 3^12 amplitudes each
    path = tmp_path / "passer.json"
    dump_graph(sample_graph(d, 1, n, trial_rng(5, trial)), path)
    assert first_failing_subset(loads_graph(path.read_text()), 4) is None
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kl-check", str(path), "--f", "2", "--no-timing")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "Knill-Laflamme: PASS"


@pytest.mark.parametrize("d, n, trial", [(2, 16, 303), (3, 12, 46)], ids=["qubit-n16", "qutrit-n12"])
def test_simulate_decodes_f_2_codes_from_the_syndrome_table(capsys, tmp_path, monkeypatch, d, n, trial):
    def dense(*args, **kwargs):
        raise AssertionError("simulate reached the isometry or the error images")

    for module, name in [(graphs, "build_isometry"), (channels, "build_isometry"), (channels, "_class_images")]:
        monkeypatch.setattr(module, name, dense)
    # the f = 2 passers of kl-check above, whose 1129 and 4321 class images the
    # register-sized route would gather at 2^17 and 3^13 amplitudes each
    path = tmp_path / "passer.json"
    dump_graph(sample_graph(d, 1, n, trial_rng(5, trial)), path)
    for sites in ["0", "3,9", "1,5,10"]:
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "simulate", str(path), "--f", "2", "--noise", "depolarizing:0.3", "--sites", sites,
            "--json", "--no-timing",
        )
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["sites"] == [int(s) for s in sites.split(",")]
        if len(payload["sites"]) <= 2:
            assert payload["corrected"] and payload["choi_trace_distance"] < 1e-9
        else:  # three depolarized sites exceed f = 2
            assert payload["choi_trace_distance"] > 1e-3


def test_simulate_runs_twelve_qubits_without_a_register_operator(capsys, tmp_path, monkeypatch):
    def no_register(*args, **kwargs):
        raise AssertionError("a register operator was built")

    # a complete QR of the decoder and dense noise would be the register-sized arrays
    monkeypatch.setattr(np.linalg, "qr", no_register)
    monkeypatch.setattr(channels, "_kron_stacks", no_register)
    # 2^12 x 2^12 register operators would exceed DEFAULT_AMPLITUDE_CAP = 2^20
    code, out, err = run_cli(capsys, "simulate", str(_ring_file(tmp_path, 12)), "--f", "0", "--no-timing")
    assert (code, err) == (0, "")
    assert "corrected: yes" in out


def test_simulate_runs_noise_on_all_ten_sites(capsys, tmp_path):
    # the largest all-site register the Choi factor and dense-stage gates admit
    sites = ",".join(map(str, range(10)))
    code, out, err = run_cli(
        capsys, "simulate", str(_ring_file(tmp_path, 10)), "--f", "0",
        "--noise", "depolarizing:0.3", "--sites", sites, "--json", "--no-timing",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["sites"] == list(range(10))


def test_simulate_refuses_twenty_qubits_at_the_image_budget(capsys, tmp_path):
    ring20 = _ring_file(tmp_path, 20)
    assert first_failing_subset(loads_graph(ring20.read_text()), 2) is None
    # noise on one site: 16 noise words, decoded from the syndrome table without V
    code, out, err = run_cli(
        capsys, "simulate", str(ring20), "--f", "1", "--noise", "depolarizing:0.3", "--sites", "0", "--no-timing"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "corrected: yes"
    # noise on all 20 sites takes the register-sized route: f = 1 on 20 qubits needs
    # 61 error words x 2^21 amplitudes of V, beyond TOTAL_AMPLITUDE_CAP = 2^26
    sites = ",".join(map(str, range(20)))
    result = run_cli(capsys, "simulate", str(ring20), "--f", "1", "--noise", "depolarizing:0.3", "--sites", sites)
    _refused(result, "error images needs 127926272 amplitudes > 67108864")


def _address_space_limit(gib):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (int(gib * 2**30), int(gib * 2**30)))

    return limit


_W8_EDGES = [[10 + s, 10 + (s + 1) % 20, 1] for s in range(20)] + [[i, 10 + 2 * i, 1] for i in range(10)]
# the upper triangle of np.random.default_rng(1).integers(0, 9, size=(6, 6)): an isometry
_D9_EDGES = [[a, b, w] for a, row in enumerate([[0, 4, 6, 8, 0, 1], [0, 0, 2, 2, 7, 3], [0, 0, 0, 3, 5, 4],
                                                [0, 0, 0, 0, 7, 4], [0, 0, 0, 0, 0, 2]]) for b, w in enumerate(row) if w]
_OVERSIZED = {  # graph file (or None), argv, the refused object and its count
    # 2,333,431 words on <= 4 of 30 sites, each with its shift, clock and syndrome rows
    "kl-check-words": (
        _ring_graph(30), ["kl-check", "--f", "4"], "error words needs 210008790 amplitudes",
    ),
    "verify-adjacency": (
        {"d": 2, "m": 1, "n": 100000, "edges": []}, ["verify", "--f", "1"],
        "adjacency matrix needs 10000200001 amplitudes",
    ),
    "search-adjacency": (
        None, ["search", "--d", "2", "--m", "1", "--n", "100000", "--f", "1", "--trials", "1", "--seed", "1"],
        "adjacency matrix needs 10000200001 amplitudes",
    ),
    "singular-mc-matrix": (
        None, ["singular-mc", "--d", "2", "--N", "100000000", "--M", "100000", "--trials", "1", "--seed", "1"],
        "random matrix needs 10000000000000 amplitudes",
    ),
    "verify-subset-chunk": (
        {"d": 2, "m": 2000, "n": 2000, "edges": [[i, 2000 + i, 1] for i in range(2000)]}, ["verify", "--f", "1"],
        "subset-scan table needs 12000000 amplitudes",
    ),
    # noise on all 11 sites: a 2^12 x 2^12 dense state, just above the budget with its copies
    "simulate-dense-stage-11": (
        _ring_graph(11), ["simulate", "--f", "0", "--noise", "depolarizing:0.3", "--sites", ",".join(map(str, range(11)))],
        "dense Choi stage needs 67108896 amplitudes",
    ),
    # d0 = 81 logical levels: the 81^2 x 81^2 logical Choi state and eigh's copies
    "simulate-logical-choi-state": (
        {"d": 9, "m": 2, "n": 4, "edges": _D9_EDGES}, ["simulate", "--f", "0"],
        "logical Choi state needs 172186884 amplitudes",
    ),
    # noise on all 12 sites: a 2^13 x 2^13 dense Choi state and the copies of a dense stage
    "simulate-dense-stage": (
        _ring_graph(12), ["simulate", "--f", "0", "--noise", "depolarizing:0.3", "--sites", ",".join(map(str, range(12)))],
        "dense Choi stage needs 268435488 amplitudes",
    ),
}


def _run_in_child(tmp_path, graph, argv, gib):
    """Run the CLI in a subprocess with gib GiB of address space; return the finished process."""
    if graph is not None:
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph))
        argv = [argv[0], str(path), *argv[1:]]
    # one BLAS thread, so that OpenBLAS reserves little address space of its own
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "graphqec.cli", *argv, "--no-timing"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_address_space_limit(gib),
    )


def _assert_refused_in_child(tmp_path, graph, argv, message, gib):
    """Expect exit 2 and message from the CLI run in a subprocess with gib GiB of address space."""
    proc = _run_in_child(tmp_path, graph, argv, gib)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr, proc.stderr


@pytest.mark.parametrize("graph, argv, message", list(_OVERSIZED.values()), ids=list(_OVERSIZED))
def test_oversized_inputs_exit_2_within_three_gib_of_address_space(tmp_path, graph, argv, message):
    _assert_refused_in_child(tmp_path, graph, argv, message, 3)


@pytest.mark.parametrize("f", [0, 1, 2])
def test_kl_check_answers_a_thirty_node_code_within_three_gib_of_address_space(capsys, tmp_path, f):
    # W8: its isometry would hold 2^20 x 2^10 amplitudes, but kl-check reads the graph alone
    graph = {"d": 2, "m": 10, "n": 20, "edges": _W8_EDGES}
    path = tmp_path / "w8.json"
    path.write_text(json.dumps(graph))
    passes = run_cli(capsys, "verify", str(path), "--f", str(f), "--no-timing")[0] == 0
    proc = _run_in_child(tmp_path, graph, ["kl-check", "--f", str(f)], 3)
    assert (proc.returncode, proc.stderr) == (0 if passes else 1, "")
    assert proc.stdout.splitlines()[-1] == f"Knill-Laflamme: {'PASS' if passes else 'FAIL'}"


def test_simulate_refuses_an_oversized_stage_before_any_stage_runs(tmp_path):
    # noise on all 12 sites: the stage shapes alone refuse the dense stage after the
    # sixth site, so the factor stages before it (2^25 amplitudes) are never allocated
    _assert_refused_in_child(tmp_path, *_OVERSIZED["simulate-dense-stage"], 0.5)


def test_simulate_fourteen_qubits_within_one_gib_of_address_space(tmp_path):
    ring14 = _ring_file(tmp_path, 14)
    # the child reports its own peak resident set after the command
    script = (
        "import resource, sys\n"
        "from graphqec.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    argv = ["simulate", str(ring14), "--f", "1", "--noise", "depolarizing:0.3", "--sites", "0,7", "--json"]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=_address_space_limit(1),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sites"] == [0, 7]
    assert int(proc.stderr.split()[-1]) < 512 * 1024  # ru_maxrss in KiB


def test_kl_check_reports_a_non_isometric_encoder_as_a_fail(capsys, tmp_path):
    # two inputs wired to the same output: the empty subset already fails
    path = tmp_path / "collapsed.json"
    path.write_text(json.dumps({"d": 2, "m": 2, "n": 3, "edges": [[0, 2, 1], [1, 2, 1]]}))
    assert run_cli(capsys, "verify", str(path), "--f", "0", "--no-timing")[0] == 1
    code, out, err = run_cli(capsys, "kl-check", str(path), "--f", "0", "--no-timing")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "error space: all words on <= 0 of 3 sites (1 operators)",
        "max deviation: 1.000e+00 (tolerance 1e-09)",
        "Knill-Laflamme: FAIL",
    ]
    code, out, err = run_cli(capsys, "kl-check", str(path), "--f", "1", "--json", "--no-timing")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert set(payload) == {"f", "operators", "max_deviation", "tolerance", "passes"}
    assert (payload["operators"], payload["passes"]) == (10, False)
    assert 0.5 < payload["max_deviation"] < 2.0


def test_kl_check_refuses_f_with_2f_not_below_n(capsys, wheel_file):
    _refused(run_cli(capsys, "kl-check", wheel_file, "--f", "3"), "need 2f < n, got f=3, n=5")


def test_kl_check_fourteen_qubits_is_admitted(capsys, tmp_path):
    path = tmp_path / "hub14.json"
    dump_graph(sample_graph(2, 1, 14, trial_rng(5, 0)), path)
    code, out, _ = run_cli(capsys, "kl-check", str(path), "--f", "1", "--json", "--no-timing")
    payload = json.loads(out)
    assert payload["operators"] == 1 + 14 * 3
    passes = first_failing_subset(loads_graph(path.read_text()), 2) is None
    assert (code, payload["passes"]) == (0 if passes else 1, passes)


def test_kl_check_answers_f_0_beyond_int64_products_and_budgets_the_words(capsys, tmp_path):
    # d = 2q, q above MAX_BATCH_MODULUS: d^2 - 1 letters per site overflow len(), and the
    # syndromes take Python integers; f = 0 has the identity word alone
    d = 2 * 4294967311
    path = tmp_path / "big.json"
    for edges in ([[0, 1, 1], [1, 2, d - 1], [2, 3, 4294967312], [0, 3, 3]], [[1, 2, 1]]):
        path.write_text(json.dumps({"d": d, "m": 1, "n": 3, "edges": edges}))
        passes = run_cli(capsys, "verify", str(path), "--f", "0", "--no-timing")[0] == 0
        code, out, err = run_cli(capsys, "kl-check", str(path), "--f", "0", "--no-timing")
        assert (code, err) == (0 if passes else 1, "")
        assert out.splitlines()[-1] == f"Knill-Laflamme: {'PASS' if passes else 'FAIL'}"
    _refused(run_cli(capsys, "kl-check", str(path), "--f", "1"), "error words needs")


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

    monkeypatch.setattr(channels, "_class_images", no_decoder)
    monkeypatch.setattr(channels, "_table_decoded", no_decoder)
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


def test_simulate_accepts_a_degenerate_code_that_verify_refuses(capsys, tmp_path, monkeypatch):
    code = degenerate_wheel()
    path = tmp_path / "degenerate.json"
    dump_graph(code, path)
    # verify's kernel criterion still reports the isolated site
    status, out, _ = run_cli(capsys, "verify", str(path), "--f", "1", "--no-timing")
    assert status == 1
    assert out.splitlines()[1:] == ["corrects f=1: FAIL", "failing subset Z: [5]"]
    # simulate asks the closed-form Knill-Laflamme check, which passes, and decodes
    v = build_isometry(code)
    encoder, decoder = Channel((v,)), synthesize_decoder(v, error_space_basis(6, 2, 1))
    for sites in [(), (5,), (0,), (1, 5)]:
        argv = ["simulate", str(path), "--f", "1", "--json", "--no-timing"]
        if sites:
            argv += ["--noise", "depolarizing:0.3", "--sites", ",".join(map(str, sites))]
        status, out, err = run_cli(capsys, *argv)
        assert (status, err) == (0, "")
        noise = tensor_channels(*(make_depolarizing(2, 0.3) if s in sites else identity_channel(2) for s in range(6)))
        assert abs(json.loads(out)["choi_trace_distance"] - verify_etd(encoder, noise, decoder)) <= 1e-12, sites
    # when the closed form's word budget (19 words x 6 sites x 3 arrays) refuses, the refusal stands
    monkeypatch.setattr(graphs, "TOTAL_AMPLITUDE_CAP", 3 * 19 * 6 - 1)
    status, out, err = run_cli(capsys, "simulate", str(path), "--f", "1", "--no-timing")
    assert (status, out, err) == (1, "", "code does not correct f=1 (failing subset [5])\n")


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


# singular matrices among `trials` seeded draws, per (d, N, M, trials) and seed
_SINGULAR_COUNTS = {
    (2, 10, 9, 3000): {15: 1302, 16: 1224},
    (2, 65, 64, 300): {15: 133, 16: 113},  # beyond one 64-bit word of rows
    (3, 6, 5, 3000): {15: 486, 16: 475},
    (5, 7, 6, 3000): {15: 160, 16: 143},
    (7, 5, 4, 3000): {15: 63, 16: 74},
    (181, 4, 3, 20000): {15: 2, 16: 2},
    (46349, 3, 2, 3000): {15: 0, 16: 0},
    (3037000507, 3, 2, 300): {15: 0, 16: 0},  # Python integers
}


@pytest.mark.parametrize("shape", list(_SINGULAR_COUNTS), ids=lambda s: "d{}-N{}-M{}".format(*s))
def test_singular_mc_json_is_pinned(capsys, shape):
    # seeded reproducibility: the draw and the rank kernel fix every byte of the report
    d, big_n, small_m, trials = shape
    for seed, singular in _SINGULAR_COUNTS[shape].items():
        argv = ["--d", d, "--N", big_n, "--M", small_m, "--trials", trials, "--seed", seed]
        code, out, err = run_cli(capsys, "singular-mc", *map(str, argv), "--json", "--no-timing")
        payload = {
            "d": d, "N": big_n, "M": small_m, "trials": trials, "seed": seed,
            "empirical": singular / trials, "bound": float(d) ** -(big_n - small_m),
        }
        assert (code, out, err) == (0, json.dumps(payload, indent=2, sort_keys=True) + "\n", "")


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


_HUGE_PRIME = "18446744073709551629"  # a prime above 2**64: it passes the prime rule
_BEYOND_INT64 = {
    "search": ["search", "--d", _HUGE_PRIME, "--m", "1", "--n", "3", "--f", "1", "--trials", "2", "--seed", "1"],
    "singular-mc": ["singular-mc", "--d", _HUGE_PRIME, "--N", "3", "--M", "2", "--trials", "10", "--seed", "1"],
}


@pytest.mark.parametrize("argv", list(_BEYOND_INT64.values()), ids=list(_BEYOND_INT64))
def test_sampling_commands_refuse_prime_dimension_beyond_int64(capsys, argv):
    _refused(run_cli(capsys, *argv), f"site dimension must be below 2**63 (int64 residues), got {_HUGE_PRIME}")


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


@pytest.mark.parametrize("delta", ["0.2", "1e-3,0.2"])
def test_bounds_exponent_refuses_delta_by_the_delta_rule(capsys, delta):
    code, out, err = run_cli(capsys, "bounds", "--fig", "exponent", "--delta", delta)
    _refused((code, out, err), "need 0 <= delta < 1/(2e) ~ 0.183940, got 0.2")
    assert "grid point" not in err


def test_capacity_refuses_nan_delta_by_the_delta_rule(capsys):
    code, out, err = run_cli(capsys, "capacity", "--p", "2", "--k", "1", "--delta", "nan")
    _refused((code, out, err), "need 0 <= delta < 1/(2e)")
    assert "binary entropy" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--d", "2", "--eps", "0.01", "--p", "4", "--k", "0"],
        ["capacity", "--d", "2", "--eps", "0.01", "--k", "2"],
        ["capacity", "--d", "3", "--p", "3", "--k", "2", "--delta", "0.001"],
    ],
    ids=["eps-with-p-k", "eps-with-k", "delta-with-d"],
)
def test_capacity_refuses_flags_of_the_other_mode(capsys, argv):
    _refused(run_cli(capsys, *argv), "belong")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--fig", "threshold", "--d", "1"], "site dimension d must be >= 2, got 1"),
        (["--fig", "region", "--p", "4"], "code dimension p must be prime, got 4"),
        (["--fig", "threshold", "--k", "0"], "block length must be >= 1, got 0"),
    ],
    ids=["threshold-d", "region-p", "threshold-k"],
)
def test_bounds_checks_flags_the_figure_does_not_read(capsys, argv, message):
    _refused(run_cli(capsys, "bounds", *argv), message)


def test_cli_import_leaves_scipy_stats_unloaded():
    probe = "import sys, graphqec.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n")
