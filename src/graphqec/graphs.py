"""Qudit graph codes: data model, correctability checks, and the encoding isometry.

A code is a symmetric adjacency matrix over Z_d on m input and n output
nodes.  Whether it corrects f errors reduces to an exact statement: for
every output subset Z with |Z| <= 2f, the (Y \\ Z) x (X u Z) submatrix
must have trivial kernel mod d.  One scan, first_failing_subset, checks
that statement for every caller: it visits subsets by increasing size,
lexicographically within a size, gathers at most _SUBSET_CHUNK blocks at
a time, and asks modular.first_singular, which decides any modulus
through its prime divisors.  The encoding isometry itself is a
quadratic-phase matrix; both views are implemented here and their
consistency is exercised by the tests.

Node numbering convention: inputs are 0..m-1, outputs are m..m+n-1.
Basis indices are base-d integers whose most-significant digit belongs
to the lowest node index.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DimensionOverflow,
    InvalidSubset,
    ParamOutOfRange,
    TooManyErrors,
)
from .modular import ModMatrix, _require_modulus, first_singular

__all__ = [
    "GraphCode",
    "check_subset",
    "first_failing_subset",
    "find_uncorrectable_subset",
    "corrects_f",
    "max_correctable_f",
    "build_isometry",
    "load_graph",
    "loads_graph",
    "graph_to_dict",
    "dump_graph",
    "wheel_code",
    "prism_code",
    "DEFAULT_AMPLITUDE_CAP",
]

# Dense objects refuse to materialize beyond this many amplitudes.
DEFAULT_AMPLITUDE_CAP = 2**20

# Most subsets whose blocks first_failing_subset holds in memory at once.
_SUBSET_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class GraphCode:
    """A graph code on m input and n output d-level systems.

    gamma is the full (m+n) x (m+n) adjacency matrix with edge
    multiplicities reduced mod d, symmetric with zero diagonal.
    """

    d: int
    m: int
    n: int
    gamma: ModMatrix

    def __post_init__(self):
        _require_shape(self.m, self.n, 0)
        size = self.m + self.n
        g = self.gamma
        if g.modulus != self.d:  # so d >= 2, the rule ModMatrix enforces
            raise ValueError("gamma modulus must equal the code dimension d")
        if g.rows != size or g.cols != size:
            raise ValueError(f"gamma must be {size}x{size}, got {g.rows}x{g.cols}")
        arr = g.entries
        if not np.array_equal(arr, arr.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(arr)):
            raise ValueError("self-loops are not allowed (zero diagonal required)")

    @classmethod
    def from_edges(
        cls, d: int, m: int, n: int, edges: Iterable[Sequence[int]]
    ) -> "GraphCode":
        """Build a code from [node_a, node_b, multiplicity] triples.

        Duplicate edges sum mod d, exactly in Python integers; self-loops
        are rejected.  d, m, n and every edge entry must be integers: bools
        and floats are refused rather than truncated.  d must lie below
        2**63, because gamma stores its residues in int64.
        """
        d, m, n = _require_int(d, "d"), _require_int(m, "m"), _require_int(n, "n")
        _require_modulus(d)
        _require_shape(m, n, 0)
        if d >= 2**63:
            raise ValueError(f"site dimension must be below 2**63 (int64 residues), got {d}")
        size = m + n
        gamma = np.zeros((size, size), dtype=object)
        for edge in edges:
            if not isinstance(edge, (list, tuple, np.ndarray)) or len(edge) != 3:
                raise ValueError(f"edge must be [node_a, node_b, multiplicity]: {edge!r}")
            a, b, w = (_require_int(x, "edge entry") for x in edge)
            if a == b:
                raise ValueError(f"self-loop on node {a} is not allowed")
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"edge ({a},{b}) references a node outside 0..{size - 1}")
            gamma[a, b] = (gamma[a, b] + w) % d
            gamma[b, a] = gamma[a, b]
        return cls(d, m, n, ModMatrix(d, gamma))


def _require_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_error_count(f: int) -> None:
    if not f >= 0:
        raise ParamOutOfRange(f"error count must be non-negative, got {f}")


def _require_shape(m: int, n: int, f: int) -> None:
    """The code-shape rule: m >= 1 inputs, n >= 1 outputs and f errors with 0 <= 2f < n."""
    if not (m >= 1 and n >= 1):
        raise ParamOutOfRange(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    _require_error_count(f)
    if not 2 * f < n:
        raise TooManyErrors(f"need 2f < n, got f={f}, n={n}")


def _normalize_subset(n: int, subset: Iterable[int]) -> tuple[int, ...]:
    """The sites of subset, sorted; InvalidSubset unless they are distinct in [0, n)."""
    sites = tuple(sorted(int(z) for z in subset))
    if any(not (0 <= z < n) for z in sites):
        raise InvalidSubset(f"subset {sites} contains indices outside the output range [0, {n})")
    if len(set(sites)) != len(sites):
        raise InvalidSubset(f"subset {sites} has repeated sites")
    return sites


def _blocks(code: GraphCode, subsets) -> np.ndarray:
    """Stacked (Y \\ Z) x (X u Z) blocks of gamma, one per equal-size subset Z."""
    zs = np.asarray(subsets, dtype=np.int64)
    count, size = zs.shape
    outside = np.ones((count, code.n), dtype=bool)
    outside[np.arange(count)[:, None], zs] = False
    rows = code.m + np.nonzero(outside)[1].reshape(count, code.n - size)
    inputs = np.broadcast_to(np.arange(code.m), (count, code.m))
    cols = np.concatenate([inputs, code.m + zs], axis=1)
    return code.gamma.entries[rows[:, :, None], cols[:, None, :]]


def check_subset(code: GraphCode, subset: Iterable[int]) -> bool:
    """True iff every error operator localized on Z is corrected.

    Z is given as output-site indices in [0, n).  The check is exact
    arithmetic over Z_d: the (Y \\ Z) x (X u Z) submatrix of gamma must
    have trivial kernel.
    """
    sites = _normalize_subset(code.n, subset)
    return first_singular(_blocks(code, [sites]), code.d) is None


def first_failing_subset(
    code: GraphCode, max_size: int
) -> Optional[tuple[int, ...]]:
    """First Z with |Z| <= max_size whose block has a nontrivial kernel, or None.

    Subsets are scanned by increasing cardinality and lexicographically
    within each cardinality, _SUBSET_CHUNK at a time, so the returned
    witness is the smallest counterexample under that order.
    """
    for size in range(min(max_size, code.n) + 1):
        subsets = itertools.combinations(range(code.n), size)
        while chunk := list(itertools.islice(subsets, _SUBSET_CHUNK)):
            bad = first_singular(_blocks(code, chunk), code.d)
            if bad is not None:
                return chunk[bad]
    return None


def find_uncorrectable_subset(
    code: GraphCode, f: int
) -> Optional[tuple[int, ...]]:
    """First failing Z with |Z| <= 2f, or None when the code corrects f errors."""
    _require_shape(code.m, code.n, f)
    return first_failing_subset(code, 2 * f)


def corrects_f(code: GraphCode, f: int) -> bool:
    """True iff check_subset passes for every Z with |Z| <= 2f."""
    return find_uncorrectable_subset(code, f) is None


def max_correctable_f(code: GraphCode) -> int:
    """Largest f with corrects_f true; -1 if even the empty subset fails."""
    f_cap = (code.n - 1) // 2  # 2f < n
    witness = first_failing_subset(code, 2 * f_cap)
    return f_cap if witness is None else (len(witness) - 1) // 2


def _digit_table(count: int, d: int, width: int) -> np.ndarray:
    """Rows are base-d digit expansions; digit 0 is most significant."""
    idx = np.arange(count)
    powers = d ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % d


def build_isometry(code: GraphCode) -> np.ndarray:
    """The d^n x d^m quadratic-phase encoding matrix of the code.

    Entry (j_Y, j_X) is d^{-n/2} exp(i pi / d * j . gamma . j) with j
    the combined digit vector over all nodes.  Whether the result is an
    isometry is exactly the empty-subset kernel condition.
    DimensionOverflow before allocating when d^n or d^m exceeds
    DEFAULT_AMPLITUDE_CAP.
    """
    d, m, n = code.d, code.m, code.n
    if d**n > DEFAULT_AMPLITUDE_CAP or d**m > DEFAULT_AMPLITUDE_CAP:
        raise DimensionOverflow(
            f"isometry would need {d}^{n} x {d}^{m} amplitudes (cap {DEFAULT_AMPLITUDE_CAP})"
        )
    gamma = code.gamma.entries
    a_xx = gamma[:m, :m]
    a_xy = gamma[:m, m:]
    a_yy = gamma[m:, m:]
    jx = _digit_table(d**m, d, m)
    jy = _digit_table(d**n, d, n)
    qx = np.einsum("ki,ij,kj->k", jx, a_xx, jx)
    qy = np.einsum("ri,ij,rj->r", jy, a_yy, jy)
    cross = 2 * (jx @ a_xy) @ jy.T  # (d^m, d^n)
    exponent = qx[:, None] + qy[None, :] + cross
    phases = np.exp(1j * np.pi / d * (exponent % (2 * d)))
    return d ** (-n / 2) * phases.T


# ---------------------------------------------------------------------------
# graph file format: {"d": int, "m": int, "n": int, "edges": [[a, b, w], ...]}


def graph_to_dict(code: GraphCode) -> dict:
    edges = []
    arr = code.gamma.entries
    size = code.m + code.n
    for a in range(size):
        for b in range(a + 1, size):
            if arr[a, b]:
                edges.append([a, b, int(arr[a, b])])
    return {"d": code.d, "m": code.m, "n": code.n, "edges": edges}


def _code_from_dict(obj: dict) -> GraphCode:
    if not isinstance(obj, dict):
        raise ValueError("graph file must hold a single JSON object")
    missing = {"d", "m", "n", "edges"} - obj.keys()
    if missing:
        raise ValueError(f"graph object is missing fields: {sorted(missing)}")
    if not isinstance(obj["edges"], list):
        raise ValueError("graph field 'edges' must be a list")
    return GraphCode.from_edges(obj["d"], obj["m"], obj["n"], obj["edges"])


def loads_graph(text: str) -> GraphCode:
    return _code_from_dict(json.loads(text))


def load_graph(path) -> GraphCode:
    with open(path, "r", encoding="utf-8") as fh:
        return _code_from_dict(json.load(fh))


def dump_graph(code: GraphCode, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(code), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# reference codes: the two five-qubit graphs encoding one qubit into five


def wheel_code() -> GraphCode:
    """Wheel graph: hub input 0 joined to outputs 1..5 forming a 5-cycle."""
    hub = [[0, k, 1] for k in range(1, 6)]
    cycle = [[1, 2, 1], [2, 3, 1], [3, 5, 1], [5, 4, 1], [4, 1, 1]]
    return GraphCode.from_edges(2, 1, 5, hub + cycle)


def prism_code() -> GraphCode:
    """Triangular prism with one vertex promoted to the input node.

    Two triangles joined by a perfect matching; correctability does not
    depend on which vertex carries the input.
    """
    triangles = [[0, 1, 1], [1, 2, 1], [2, 0, 1], [3, 4, 1], [4, 5, 1], [5, 3, 1]]
    matching = [[0, 5, 1], [1, 4, 1], [2, 3, 1]]
    return GraphCode.from_edges(2, 1, 5, triangles + matching)
