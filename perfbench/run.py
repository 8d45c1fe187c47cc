"""graphqec benchmark: seeded CLI workloads, an independent oracle, a layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify-prime --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): certify-prime, certify-ring, simulate.  Each
run is one fresh workload process (worker.py) driving graphqec.cli.main
in process with --json --no-timing, one op at a time (a closed loop with
one client), for --seconds seconds.  BLAS threads are capped at the CPUs
this process may use.  After the timed passes every distinct output is
checked against oracle.py; an op that raised, exited with the wrong code,
changed its output between passes or disagreed with the oracle counts as
failed.

--trace 0 reports the end-to-end metrics: wall_s, the summed time of one
pass (each op's median over the passes); setup_s, the median time for a
fresh interpreter to import graphqec.cli; peak_rss_mb, ru_maxrss of the
workload process.  Times are in reference seconds (calibration.py): the
machine's speed, read by a fixed kernel around each op and each spawn,
is divided out.  Raw seconds are printed alongside.
--trace 1 alternates untraced and traced passes and reports per-layer
metrics from the spans (tracing.py), per-command times from the untraced
passes, and the tracing overhead; the spans are written to
perfbench/out/trace-<workload>-seed<seed>.jsonl.

Every metric is printed as "name value unit"; the last stdout line is the
JSON summary.  The exit code is 1 when any op failed, 2 when the
repository to benchmark is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_SPAWNS = 3
WORKER_TIMEOUT_S = 150

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# CLI command -> per-command time metric (from the untraced passes of a traced run)
COMMAND_METRICS = {
    "verify": "verify_s",
    "maxf": "maxf_s",
    "search": "search_s",
    "singular-mc": "singular_mc_s",
    "kl-check": "kl_check_s",
    "simulate": "simulate_s",
}

# span name -> the .s / .self_s / .calls figures reported for it
SPAN_FIGURES = {
    "cli.main": (),  # reported as cli.self_s
    "graphs.load_graph": ("s",),
    "graphs.find_uncorrectable_subset": ("s", "self_s", "calls"),
    "graphs.max_correctable_f": ("s", "self_s"),
    "graphs.build_isometry": ("s",),
    "modular.rank_prime_batch": ("s", "calls"),
    "modular.kernel_trivial": ("s", "calls"),
    "modular.smith_normal_form": ("s", "calls"),
    "modular.is_prime": ("s", "calls"),
    "search.run_search": ("s", "self_s"),
    "search.sample_graph": ("s", "calls"),
    "search.singular_fraction_experiment": ("s",),
    "channels.error_space_basis": ("s",),
    "channels.kl_verify": ("s", "calls"),
    "channels.synthesize_decoder": ("s", "self_s"),
    "channels.tensor_channels": ("s",),
    "channels.verify_etd": ("s",),
    "rates.emit_curves": ("s",),
}

# counter -> (span it is recorded on, unit)
SPAN_COUNTERS = {
    "graphs.isometry_amplitudes": ("graphs.build_isometry", "isometry_amplitudes", "count"),
    "modular.rank_prime_batch.matrices": ("modular.rank_prime_batch", "matrices", "count"),
    "modular.rank_prime_batch.entries": ("modular.rank_prime_batch", "entries", "count"),
    "search.singular_matrices": ("search.singular_fraction_experiment", "singular_matrices", "count"),
    "channels.error_operators": ("channels.error_space_basis", "error_operators", "count"),
    "channels.error_basis_bytes": ("channels.error_space_basis", "error_basis_bytes", "B"),
    "channels.decoder_kraus": ("channels.synthesize_decoder", "decoder_kraus", "count"),
    "channels.noise_kraus": ("channels.verify_etd", "noise_kraus", "count"),
    "channels.kraus_applied": ("channels.verify_etd", "kraus_applied", "count"),
    "channels.choi_dense_bytes": ("channels.verify_etd", "choi_dense_bytes", "B"),
    "rates.csv_bytes": ("rates.emit_curves", "csv_bytes", "B"),
}


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    units = [("cli.self_s", "s")]
    for span, figures in SPAN_FIGURES.items():
        units += [(f"{span}.{fig}", "count" if fig == "calls" else "s") for fig in figures]
    units += [(name, unit) for name, (_, _, unit) in SPAN_COUNTERS.items()]
    units += [("graphs.subsets_to_verdict", "count"), ("graphs.us_per_subset", "us")]
    units += [(name, "s") for name in COMMAND_METRICS.values()]
    units.append(("trace.overhead_frac", "ratio"))
    return units


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def program_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn_seconds(code: str, env: dict) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to `import graphqec.cli` done,
    in reference and in raw seconds."""
    from calibration import REFERENCE_SPAWN, REFERENCE_SPAWN_S, scale

    ref, raw = [], []
    before = spawn_seconds(REFERENCE_SPAWN, env)
    for _ in range(SETUP_SPAWNS):
        elapsed = spawn_seconds("import graphqec.cli", env)
        after = spawn_seconds(REFERENCE_SPAWN, env)
        ref.append(scale(elapsed, before, after, REFERENCE_SPAWN_S))
        raw.append(elapsed)
        before = after
    return statistics.median(ref), statistics.median(raw)


def run_worker(ops, seconds: float, trace: bool, work: str, trace_path: str, env: dict) -> dict:
    job = {"seconds": seconds, "trace": trace, "trace_path": trace_path,
           "ops": [{"id": o.id, "argv": o.argv} for o in ops]}
    job_path, result_path = os.path.join(work, "job.json"), os.path.join(work, "result.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
                   env=env, cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def count_failures(ops, result, problems) -> tuple[int, int]:
    """(attempted, failed) over every op execution of every pass."""
    reference = result["reference"]
    attempted = failed = 0
    for entry in result["passes"]:
        for op, rec, ref in zip(ops, entry["ops"], reference):
            attempted += 1
            if (problems[op.id] or rec["error"] or rec["rc"] != ref["rc"]
                    or rec["digest"] != ref["digest"]):
                failed += 1
    return attempted, failed


def pass_time(passes, keep=lambda index: True, field="ref_s") -> float:
    """Summed time of one pass: each op's median over the passes, added up.

    Per-op medians shed the slow stretches a shared machine has better
    than the median of whole-pass sums does.
    """
    count = len(passes[0]["ops"])
    return sum(
        statistics.median(p["ops"][i][field] for p in passes) for i in range(count) if keep(i)
    )


def end_to_end(result, setup_s: float) -> dict:
    return {"wall_s": pass_time(result["passes"]), "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0}


def per_layer(ops, result) -> dict:
    from oracle import flag, maxf_expectation, verify_expectation
    from tracing import merge

    untraced = [p for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    subsets = 0
    for op in ops:
        if op.command == "verify":
            subsets += verify_expectation(op.code, int(flag(op.argv, "--f")))[1]
        elif op.command == "maxf":
            subsets += maxf_expectation(op.code)[2]

    def layer_metrics(entry) -> dict:
        totals: dict = {}
        for per_op in entry["layers"].values():
            for span, figures in per_op.items():
                merge(totals.setdefault(span, {}), figures)
        out = {"cli.self_s": totals.get("cli.main", {}).get("self_s", 0.0)}
        for span, figures in SPAN_FIGURES.items():
            for fig in figures:
                out[f"{span}.{fig}"] = totals.get(span, {}).get(fig, 0)
        for name, (span, key, _) in SPAN_COUNTERS.items():
            out[name] = totals.get(span, {}).get(key, 0)
        scan_s = 0.0
        for op in ops:
            figures = entry["layers"].get(str(op.id), {})
            if op.command == "verify":
                scan_s += figures.get("graphs.find_uncorrectable_subset", {}).get("s", 0.0)
            elif op.command == "maxf":
                scan_s += figures.get("graphs.max_correctable_f", {}).get("s", 0.0)
        out["graphs.subsets_to_verdict"] = subsets
        out["graphs.us_per_subset"] = scan_s / subsets * 1e6 if subsets else 0.0
        return out

    per_pass = [layer_metrics(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    for command, name in COMMAND_METRICS.items():
        metrics[name] = pass_time(untraced, lambda i, command=command: ops[i].command == command)
    metrics["trace.overhead_frac"] = pass_time(traced) / pass_time(untraced) - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "graphqec", "cli.py")):
        print(f"error: no graphqec sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import oracle
    import workloads

    env = program_env()
    ops = workloads.build(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        workloads.write_graphs(ops, work)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        result = run_worker(ops, args.seconds, bool(args.trace), work, trace_path, env)
        setup_s, setup_raw = (None, None) if args.trace else measure_setup(env)
        problems = {op.id: oracle.check(op, rec) for op, rec in zip(ops, result["reference"])}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = count_failures(ops, result, problems)
    if args.trace:
        metrics, units = per_layer(ops, result), dict(per_layer_units())
    else:
        metrics, units = end_to_end(result, setup_s), dict(END_TO_END)

    for op_id, problem in problems.items():
        if problem:
            print(f"FAILED op {op_id}: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(result['passes'])} passes of "
          f"{len(ops)} ops, one closed-loop client, blas_threads {blas_threads()}")
    print(f"raw seconds: one pass {pass_time(result['passes'], field='elapsed')!r}"
          + ("" if args.trace else f", set-up {setup_raw!r}"))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_frac {failed / attempted!r} ratio ({failed} of {attempted} ops)")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
