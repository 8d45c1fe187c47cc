"""Command-line frontend: verification, simulation, search, and curve data.

Each handler only computes and returns (exit code, JSON payload, text
lines); the two that must print for themselves (the byte-clean text of
`bounds`, to stdout or -o, and the failing verdict of `simulate`, which
names the subset scan's witness: the scan's table fits wherever the
Knill-Laflamme check admitted the code) return a plain exit code.  `main`
alone parses, times the whole command (reading the graph file included),
prints the result and maps errors to exit codes: 0 on success/pass, 1 on
a semantic failure (a verification that ran and said no), 2 on usage or
input errors.  A reader that closes stdout early (`| head -1`) changes
neither the exit code nor stderr.  All output is deterministic given the
flags; --no-timing drops the timing line and `elapsed_s`.

The module imports only what every command needs: numpy, errors, graphs
and modular.  Each handler imports what it uses of channels, noise, rates
and search in its own body, so `verify` and `maxf` load none of the four,
`search`, `singular-mc`, `bounds` and `capacity` no channel code, and a
command's first call in a process times that import too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .errors import DimensionMismatch, GraphQECError
from .graphs import (
    _normalize_subset,
    _read_json_file,
    _require_shape,
    find_uncorrectable_subset,
    graph_to_dict,
    load_graph,
    max_correctable_f,
)

__all__ = ["main"]

Result = tuple[int, dict, list[str]]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphqec",
        description="qudit graph codes: verify, simulate, search, and bound curves",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        return p

    p = command("verify", _cmd_verify, "certify that a graph code corrects f errors")
    p.add_argument("graph", help="path to a graph file (JSON)")
    p.add_argument("--f", type=int, required=True, help="number of errors to correct")

    p = command("maxf", _cmd_maxf, "largest f the code corrects")
    p.add_argument("graph")

    p = command("kl-check", _cmd_kl_check, "numerical Knill-Laflamme verification")
    p.add_argument("graph")
    p.add_argument("--f", type=int, required=True)

    p = command("simulate", _cmd_simulate, "encode, apply noise, decode, report Choi distance")
    p.add_argument("graph")
    p.add_argument("--f", type=int, required=True)
    p.add_argument(
        "--noise",
        default=None,
        metavar="FAMILY:PARAMS",
        help="depolarizing:q, unitary-rotation:theta, or custom-kraus:file.json",
    )
    p.add_argument(
        "--sites",
        default=None,
        metavar="LIST",
        help="comma-separated output sites the noise acts on (default: none)",
    )

    p = command("search", _cmd_search, "random code search with existence bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("singular-mc", _cmd_singular_mc, "Monte Carlo singular-fraction experiment")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--N", type=int, required=True, help="rows")
    p.add_argument("--M", type=int, required=True, help="columns")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = command("bounds", _cmd_bounds, "CSV curve data for the bound figures")
    p.add_argument("--fig", required=True, choices=["threshold", "region", "exponent"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--delta", default="1e-3,1e-4,1e-5,1e-6", help="comma-separated list")
    p.add_argument("-o", "--out", default=None, help="output path (default: stdout)")

    p = command("capacity", _cmd_capacity, "capacity lower-bound formulas")
    p.add_argument("--d", type=int, default=None, help="with --eps: small-noise bound")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--p", type=int, default=None, help="with --k/--delta: finite-coding bound")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    for p in sub.choices.values():  # added last, so they close every option list
        p.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
        p.add_argument("--no-timing", action="store_true", help="suppress the timing line")
    return parser


def _read_kraus(path: str, site_dim: int) -> list[np.ndarray]:
    """site_dim x site_dim operators from a JSON list of {"re": [[...]], "im": [[...]]} objects."""
    data = _read_json_file(path, "custom-kraus")
    if not isinstance(data, list):
        raise ValueError("custom-kraus file must hold a JSON list of operators")
    kraus = []
    for index, item in enumerate(data):
        if not isinstance(item, dict):
            raise ValueError(f"custom-kraus operator {index} must be an object with 're' and 'im'")
        real, imag = np.asarray(item.get("re")), np.asarray(item.get("im"))
        if real.dtype.kind not in "iuf" or imag.dtype.kind not in "iuf" or real.shape != imag.shape:
            raise ValueError(
                f"custom-kraus operator {index} needs numeric 're' and 'im' arrays of one shape"
            )
        kraus.append(real + 1j * imag)
    # a second pass, so a malformed entry anywhere is reported before a mis-sized one
    expected = (site_dim, site_dim)
    for index, op in enumerate(kraus):
        if op.shape != expected:
            raise DimensionMismatch(
                f"custom-kraus operator {index} has shape {op.shape}; "
                f"expected {expected} for site dimension {site_dim}"
            )
    return kraus


def _parse_noise(token: str, site_dim: int):
    """The site channel (a channels.Channel) that a --noise token names."""
    from .channels import Channel
    from .noise import make_depolarizing, phase_rotation

    family, _, params = token.partition(":")
    if family == "depolarizing":
        return make_depolarizing(site_dim, float(params))
    if family == "unitary-rotation":
        return Channel((phase_rotation(site_dim, float(params)),))
    if family == "custom-kraus":
        return Channel(_read_kraus(params, site_dim))
    raise ValueError(
        f"unknown noise family {family!r}; use depolarizing, unitary-rotation, or custom-kraus"
    )


def _cmd_verify(args) -> Result:
    code = load_graph(args.graph)
    witness = find_uncorrectable_subset(code, args.f)
    passes = witness is None
    lines = [
        f"graph: d={code.d} m={code.m} n={code.n}",
        f"corrects f={args.f}: {'PASS' if passes else 'FAIL'}",
    ]
    if witness is not None:
        lines.append(f"failing subset Z: {list(witness)}")
    payload = {
        "d": code.d,
        "m": code.m,
        "n": code.n,
        "f": args.f,
        "passes": passes,
        "witness": None if witness is None else list(witness),
    }
    return (0 if passes else 1), payload, lines


def _cmd_maxf(args) -> Result:
    code = load_graph(args.graph)
    value = max_correctable_f(code)
    payload = {"d": code.d, "m": code.m, "n": code.n, "max_f": value}
    return 0, payload, [f"max correctable f: {value}"]


def _cmd_kl_check(args) -> Result:
    from .channels import KL_TOLERANCE, _graph_kl

    code = load_graph(args.graph)
    _require_shape(code.m, code.n, args.f)
    report = _graph_kl(code, args.f)
    deviation = report.max_deviation
    passes = report.correcting
    lines = [
        f"error space: all words on <= {args.f} of {code.n} sites ({report.words} operators)",
        f"max deviation: {deviation:.3e} (tolerance {KL_TOLERANCE:.0e})",
        f"Knill-Laflamme: {'PASS' if passes else 'FAIL'}",
    ]
    payload = {
        "f": args.f,
        "operators": report.words,
        "max_deviation": deviation,
        "tolerance": KL_TOLERANCE,
        "passes": passes,
    }
    return (0 if passes else 1), payload, lines


def _cmd_simulate(args) -> Result | int:
    from .channels import KL_TOLERANCE, _graph_kl, _local_etd

    code = load_graph(args.graph)
    _require_shape(code.m, code.n, args.f)
    report = _graph_kl(code, args.f)  # past its word budget the refusal stands, as in kl-check
    if not report.correcting:  # the scan passes only Knill-Laflamme codes, and its table fits: a witness exists
        witness = list(find_uncorrectable_subset(code, args.f))
        print(f"code does not correct f={args.f} (failing subset {witness})", file=sys.stderr)
        return 1
    tokens = (args.sites or "").split(",")
    sites = list(_normalize_subset(code.n, [int(tok) for tok in tokens if tok.strip() != ""]))
    if args.noise is None and sites:
        raise ValueError("--sites given without --noise")
    site_channel = None
    if args.noise is not None:
        site_channel = _parse_noise(args.noise, code.d)
        if not sites:
            raise ValueError("--noise given without --sites")
    distance = _local_etd(code, report, site_channel, sites)
    corrected = distance < KL_TOLERANCE
    lines = [
        f"noise: {args.noise or 'none'} on sites {sites}",
        f"Choi trace distance of decode(noise(encode)) from identity: {distance:.6e}",
        f"corrected: {'yes' if corrected else 'no'}",
    ]
    payload = {
        "f": args.f,
        "noise": args.noise,
        "sites": sites,
        "choi_trace_distance": distance,
        "corrected": corrected,
    }
    return 0, payload, lines


def _cmd_search(args) -> Result:
    from .search import SearchConfig, run_search

    cfg = SearchConfig(d=args.d, m=args.m, n=args.n, f=args.f, trials=args.trials, seed=args.seed)
    report = run_search(cfg)
    lines = [
        f"trials: {cfg.trials} (seed {cfg.seed})",
        f"successes: {report.successes}  failures: {report.failures}",
        f"empirical failure fraction: {report.empirical_failure_fraction:.6g} "
        f"(99% upper limit {report.failure_fraction_upper99:.6g})",
        f"analytic bound: log2 P <= {report.bound_log2:.6g} (P <= {2.0 ** report.bound_log2:.6g})",
    ]
    if report.first_failure_witness is not None:
        lines.append(
            f"first failure: trial {report.first_failure_trial}, "
            f"subset {list(report.first_failure_witness)}"
        )
    if report.best_code is not None:
        lines.append("best code (graph-file format):")
        lines.append(json.dumps(graph_to_dict(report.best_code)))
    return 0, report.to_dict(), lines


def _cmd_singular_mc(args) -> Result:
    from .search import singular_fraction_experiment

    empirical, bound = singular_fraction_experiment(
        args.d, args.N, args.M, args.trials, args.seed
    )
    lines = [
        f"empirical singular fraction: {empirical:.6g}",
        f"analytic bound d^-(N-M): {bound:.6g}",
    ]
    payload = {
        "d": args.d,
        "N": args.N,
        "M": args.M,
        "trials": args.trials,
        "seed": args.seed,
        "empirical": empirical,
        "bound": bound,
    }
    return 0, payload, lines


def _cmd_bounds(args) -> int:
    from .rates import emit_curves

    deltas = tuple(float(tok) for tok in args.delta.split(","))
    kind = {"threshold": "threshold-fig", "region": "rate-region-fig", "exponent": "exponent-fig"}[args.fig]
    text = emit_curves(kind, d=args.d, p=args.p, k=args.k, deltas=deltas)
    if args.json:
        text = json.dumps({"fig": args.fig, "csv": text}, indent=2, sort_keys=True) + "\n"
    if not args.out:
        sys.stdout.write(text)  # no timing line here: the CSV stream must stay byte-clean
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except BrokenPipeError as err:  # the -o file's reader left, not stdout's: nothing written
        raise OSError(f"cannot write {args.out}: {err}") from err
    return 0


def _cmd_capacity(args) -> Result:
    from .rates import capacity_from_finite_coding, capacity_lower_bound_small_noise

    small_noise = args.eps is not None
    finite = args.delta is not None
    if small_noise == finite:
        raise ValueError("choose one mode: --d/--eps or --p/--k/--delta")
    if small_noise:
        if args.d is None:
            raise ValueError("--eps needs --d")
        if args.p is not None or args.k is not None:
            raise ValueError("--p and --k belong to the --delta mode, not --eps")
        threshold, q_lower = capacity_lower_bound_small_noise(args.d, args.eps)
        lines = [
            f"cb-norm threshold: {threshold:.12g}",
            f"capacity lower bound: {q_lower:.12g} bits/use",
        ]
        if q_lower <= 0:
            lines.append("note: bound is non-positive (vacuous at this error rate)")
        payload = {
            "mode": "small-noise",
            "d": args.d,
            "eps": args.eps,
            "threshold": threshold,
            "q_lower": q_lower,
        }
    else:
        if args.p is None or args.k is None:
            raise ValueError("--delta needs --p and --k")
        if args.d is not None:
            raise ValueError("--d belongs to the --eps mode, not --delta")
        value = capacity_from_finite_coding(args.p, args.k, args.delta)
        lines = [f"capacity lower bound: {value:.12g} bits/use"]
        payload = {
            "mode": "finite-coding",
            "p": args.p,
            "k": args.k,
            "delta": args.delta,
            "q_lower": value,
        }
    return 0, payload, lines


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    start = time.perf_counter()
    code = 0  # a command that prints for itself has answered once it prints
    try:
        result = args.run(args)
        if isinstance(result, int):
            code = result
        else:
            code, payload, lines = result
            elapsed = time.perf_counter() - start
            if args.json:
                if not args.no_timing:
                    payload = dict(payload, elapsed_s=round(elapsed, 6))
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                print("\n".join(lines))
                if not args.no_timing:
                    print(f"time: {elapsed:.3f}s")
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say `| head -1`): the answer stands, and the
        # interpreter's own flush at exit goes to devnull rather than failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except (GraphQECError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
