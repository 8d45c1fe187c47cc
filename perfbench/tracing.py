"""Spans around the public functions of each graphqec layer, recorded from outside.

install() replaces each listed function at every graphqec.* module
attribute that refers to it (for example both cli.find_uncorrectable_subset
and search.find_uncorrectable_subset), so calls between modules are seen
too.  Spans live in memory as (name, start, end, parent, op id, counts)
and are written out once, after the last pass.  Untraced passes run with
the original functions in place.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# layer -> public functions whose spans make up the per-layer metrics
LAYERS = {
    "cli": ["main"],
    "graphs": ["load_graph", "find_uncorrectable_subset", "max_correctable_f", "build_isometry"],
    "modular": ["rank_prime_batch", "kernel_trivial", "smith_normal_form", "is_prime"],
    "search": ["run_search", "sample_graph", "singular_fraction_experiment"],
    "channels": ["error_space_basis", "kl_verify", "synthesize_decoder", "tensor_channels", "verify_etd"],
    "rates": ["emit_curves"],
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _rank_counts(args, kwargs, result):
    shape = getattr(_arg(args, kwargs, 0, "mats"), "shape", (0,))
    entries = 1
    for s in shape:
        entries *= int(s)
    return {"matrices": int(shape[0]) if shape else 0, "entries": entries}


def _choi_counts(args, kwargs, result):
    stages = [_arg(args, kwargs, i, k) for i, k in enumerate(("encoder", "noise", "decoder"))]
    d0 = stages[0].dim_in
    return {
        "noise_kraus": len(stages[1].kraus),
        "kraus_applied": sum(len(s.kraus) for s in stages),
        # largest dense Choi state held at once, complex128 (computed, not measured)
        "choi_dense_bytes": max(16 * (s.dim_out * d0) ** 2 for s in stages),
    }


# counters derived from each call's arguments or result
COUNTERS = {
    "graphs.build_isometry": lambda a, k, r: {"isometry_amplitudes": int(r.size)},
    "modular.rank_prime_batch": _rank_counts,
    "search.singular_fraction_experiment": lambda a, k, r: {
        "singular_matrices": int(_arg(a, k, 3, "trials"))
    },
    "channels.error_space_basis": lambda a, k, r: {
        "error_operators": len(r),
        "error_basis_bytes": sum(int(op.nbytes) for op in r),
    },
    "channels.synthesize_decoder": lambda a, k, r: {"decoder_kraus": len(r.kraus)},
    "channels.verify_etd": _choi_counts,
    "rates.emit_curves": lambda a, k, r: {"csv_bytes": len(r.encode("utf-8"))},
}


# counters that keep the largest value instead of the sum
PEAK_COUNTERS = {"choi_dense_bytes"}


def merge(into: dict, figures: dict) -> None:
    """Add one span's (or one op's) figures into a running total."""
    for key, value in figures.items():
        into[key] = max(into.get(key, 0), value) if key in PEAK_COUNTERS else into.get(key, 0) + value


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, op_id, counts)
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original)

    def _wrap(self, name, func):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, None)
            if counter is not None:
                spans[index] = (name, start, end, parent, self.op_id, counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "graphqec" or key.startswith("graphqec.")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"graphqec.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue  # a later version may drop or rename it
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, op_id, counts = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id, "counts": counts}) + "\n")


def aggregate(spans, first: int = 0) -> dict:
    """Per-op totals from spans[first:]: {op_id: {name: {s, self_s, calls, counts...}}}.

    self_s is a span's duration minus the durations of its direct children;
    calls are single-threaded, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op_id, counts in spans[first:]:
        if parent >= first:
            child_time[parent] += end - start
    out: dict = defaultdict(dict)
    for index in range(first, len(spans)):
        name, start, end, parent, op_id, counts = spans[index]
        figures = {"s": end - start, "self_s": end - start - child_time[index], "calls": 1}
        merge(out[op_id].setdefault(name, {}), dict(figures, **(counts or {})))
    return dict(out)
