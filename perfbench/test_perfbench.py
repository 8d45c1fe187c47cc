"""Tests of the benchmark itself: python3 -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import certify_oracle as co  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from graphqec.graphs import GraphCode, find_uncorrectable_subset, max_correctable_f  # noqa: E402
from graphqec.modular import ModMatrix  # noqa: E402

# (d, m, n): prime, prime-power and mixed composite moduli
CORPUS = [(2, 1, 6), (3, 1, 6), (5, 1, 5), (4, 1, 6), (6, 1, 5), (9, 1, 5), (2, 2, 7), (3, 2, 6)]


def _corpus(per_shape=12):
    for shape_index, (d, m, n) in enumerate(CORPUS):
        for attempt in range(per_shape):
            rng = workloads.trial_rng(2024, shape_index * 1000 + attempt)
            yield d, m, n, workloads.sample_gamma(d, m, n, rng)


def test_enumeration_oracle_matches_program_and_sympy():
    for d, m, n, gamma in _corpus():
        code = GraphCode(d, m, n, ModMatrix(d, gamma))
        for f in range(0, (n - 1) // 2 + 1):
            assert co.first_failing_subset(gamma, d, m, n, 2 * f) == find_uncorrectable_subset(code, f)
        first = co.first_failing_subset(gamma, d, m, n, n - 1)
        assert co.max_f_from_first_bad(None if first is None else len(first), n) == max_correctable_f(code)


def test_sympy_and_brute_force_agree_on_every_small_subset():
    for d, m, n, gamma in _corpus(per_shape=3):
        for size in range(0, 4):
            for subset in itertools.combinations(range(n), size):
                want = co.brute_force_kernel_trivial(gamma, d, m, n, subset)
                assert co.sympy_kernel_trivial(gamma, d, m, n, subset) == want, (d, m, n, subset)


def test_subset_rank_round_trips_the_scan_order():
    n, position = 7, 0
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            assert co.subset_rank(subset, n) == position
            assert oracle.subset_at(position, n) == subset
            position += 1


def _small_ops(tmp_path):
    code = workloads._pick(5, 1, "w5", 2, 1, 5, workloads._passes(2, 1, 5, 2))
    composite = workloads._pick(5, 2, "c6", 6, 1, 6, workloads._any)
    argvs = [
        (["verify", "w5", "--f", "1"], code),
        (["maxf", "w5"], code),
        (["verify", "c6", "--f", "1"], composite),
        (["maxf", "c6"], composite),
        (["kl-check", "w5", "--f", "1"], code),
        (["simulate", "w5", "--f", "1", "--noise", "depolarizing:0.2", "--sites", "1,3"], code),
        (["simulate", "w5", "--f", "1", "--noise", "unitary-rotation:0.4", "--sites", "2"], code),
        (["search", "--d", "3", "--m", "1", "--n", "6", "--f", "1", "--trials", "20", "--seed", "9"], None),
        (["singular-mc", "--d", "3", "--N", "5", "--M", "3", "--trials", "3000", "--seed", "9"], None),
        (["bounds", "--fig", "region"], None),
        (["capacity", "--p", "3", "--k", "2", "--delta", "0.001"], None),
    ]
    ops = [workloads.Op(i, a[0], a + ["--json", "--no-timing"], c) for i, (a, c) in enumerate(argvs)]
    workloads.write_graphs(ops, str(tmp_path))
    return ops


def test_traced_and_untraced_passes_agree_and_pass_the_oracle(tmp_path):
    ops = _small_ops(tmp_path)
    result = run.run_worker(ops, 0, True, str(tmp_path), str(tmp_path / "spans.jsonl"), run.program_env())
    kinds = [p["traced"] for p in result["passes"]]
    assert kinds == [False, True]
    untraced, traced = result["passes"]
    assert [r["digest"] for r in untraced["ops"]] == [r["digest"] for r in traced["ops"]]
    assert [r["rc"] for r in untraced["ops"]] == [r["rc"] for r in traced["ops"]]
    for op, rec in zip(ops, result["reference"]):
        assert oracle.check(op, rec) is None
    layers = traced["layers"]
    assert "graphs.find_uncorrectable_subset" in layers[str(ops[0].id)]
    assert "channels.verify_etd" in layers[str(ops[5].id)]
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0


def test_oracle_catches_a_wrong_answer(tmp_path):
    ops = _small_ops(tmp_path)
    result = run.run_worker(ops[:2], 0, False, str(tmp_path), "", run.program_env())
    rec = dict(result["reference"][0])
    payload = json.loads(rec["stdout"])
    payload["passes"] = not payload["passes"]
    rec["stdout"] = json.dumps(payload)
    assert oracle.check(ops[0], rec) is not None


def test_one_command_prints_every_metric_and_fails_on_disagreement(monkeypatch, capsys):
    real_check = oracle.check

    def wrong_on_first(op, record):
        return "injected disagreement" if op.id == 0 else real_check(op, record)

    monkeypatch.setattr(oracle, "check", wrong_on_first)
    code = run.main(["--workload", "certify-ring", "--seed", "3", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    for name, unit in run.END_TO_END:
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in out)
    assert any(line.startswith("failed_frac ") for line in out)
    summary = json.loads(out[-1])
    assert summary["correct"] is False and summary["failed"] >= 1
    assert set(summary["metrics"]) == {name for name, _ in run.END_TO_END}


def test_traced_run_reports_every_per_layer_metric(capsys):
    code = run.main(["--workload", "certify-ring", "--seed", "4", "--seconds", "0", "--trace", "1"])
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0 and summary["correct"] is True
    assert set(summary["metrics"]) == {name for name, _ in run.per_layer_units()}


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    argv = ["--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
