"""The workload process: runs the op list through graphqec.cli.main for a fixed time.

Usage: python3 worker.py JOB.json RESULT.json

One client, closed loop: each op starts when the previous one returns.
Ops run in process with stdout and stderr captured, and each is timed
from outside; the calibration kernel runs between consecutive ops, so
each op time is also kept in reference seconds.  Passes repeat until the
job's seconds are spent.  With tracing on, untraced and traced passes
alternate, starting untraced; every pass's output must equal the first
pass's.  The result holds per pass op times and exit codes, the first
pass's outputs, ru_maxrss taken after the last pass, and per-op span
totals of the traced passes.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback

import graphqec.cli

from calibration import REFERENCE_S, kernel_seconds, scale
from tracing import Tracer, aggregate


def run_op(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = graphqec.cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    return {"elapsed": elapsed, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def main(job_path: str, result_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    ops, seconds, trace = job["ops"], float(job["seconds"]), bool(job["trace"])
    tracer = Tracer() if trace else None
    reference: list[dict] = []
    passes: list[dict] = []
    begin = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        gc.collect()
        if traced:
            tracer.install()
        records = []
        try:
            before = kernel_seconds()
            for op in ops:
                if traced:
                    tracer.op_id = op["id"]
                rec = run_op(op["argv"])
                after = kernel_seconds()
                digest = hashlib.sha256(rec["stdout"].encode()).hexdigest()
                if not passes:
                    reference.append(dict(rec, digest=digest))
                ref_s = scale(rec["elapsed"], before, after, REFERENCE_S)
                records.append({"elapsed": rec["elapsed"], "ref_s": ref_s, "rc": rec["rc"],
                                "error": rec["error"], "digest": digest})
                before = after
        finally:
            if traced:
                tracer.uninstall()
        entry = {"traced": traced, "ops": records}
        if traced:
            entry["layers"] = aggregate(tracer.spans, first_span)
        passes.append(entry)
        spent = time.perf_counter() - begin
        kinds = {p["traced"] for p in passes}
        if spent >= seconds and (not trace or kinds == {False, True}):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(job["trace_path"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "reference": reference, "peak_rss_kb": peak_kb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
