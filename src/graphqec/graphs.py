"""Qudit graph codes: data model, correctability checks, and the encoding isometry.

A code is a symmetric adjacency matrix over Z_d on m input and n output
nodes.  Whether it corrects f errors reduces to an exact statement: for
every output subset Z with |Z| <= 2f, the (Y \\ Z) x (X u Z) submatrix
must have trivial kernel mod d, that is full column rank over GF(p) for
every prime p | d.  Over GF(p) that holds exactly when the 2|Z| columns
gamma[Y, z] and e_z (z in Z) stay independent after projecting out the
columns of gamma[Y, X], so each prime row-reduces gamma[Y, X] once into a
table of two projected vectors per site (_site_vectors), in the field that
rank_prime_batch uses for n - m rows.  One scan, first_failing_subset,
checks the statement for every caller: it visits subsets by increasing
size, lexicographically within a size, reduces each (s-1)-prefix's
vectors once and then only the two new vectors of every site above the
prefix's last, at most _PREFIX_CHUNK prefixes at a time.
check_subset asks the same table about one subset.  The encoding
isometry itself is a quadratic-phase matrix; both views are implemented
here and their consistency is exercised by the tests.

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
from .modular import (
    ModMatrix,
    _field,
    _prime_factors,
    _reduce_against,
    _require_modulus,
    _residue_dtype,
    _residues,
)

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

# The caps of _require_budget, in array entries ("amplitudes") of any dtype: one
# operator, register dimension, subset-scan table or chunk, and any other input-sized array
DEFAULT_AMPLITUDE_CAP = 2**20
TOTAL_AMPLITUDE_CAP = 64 * DEFAULT_AMPLITUDE_CAP  # 1 GiB of complex128

# Most (s-1)-prefixes whose leaves first_failing_subset reduces at once.
_PREFIX_CHUNK = 256


def _require_budget(count: int, what: str, cap: Optional[int] = None) -> None:
    """The allocation gate: DimensionOverflow unless count entries fit cap, by default
    TOTAL_AMPLITUDE_CAP.  Called before the array is allocated."""
    cap = TOTAL_AMPLITUDE_CAP if cap is None else cap
    if count > cap:
        raise DimensionOverflow(f"{what} needs {count} amplitudes > {cap}")


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
        _require_int64_modulus(d)
        size = m + n
        _require_budget(size * size, "adjacency matrix")
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


def _require_int64_modulus(d: int) -> None:
    """The storage rule: gamma and sampled residues are int64, so d < 2**63."""
    if d >= 2**63:
        raise ParamOutOfRange(f"site dimension must be below 2**63 (int64 residues), got {d}")


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


def _site_vectors(code: GraphCode, p: int, size: int):
    """(field, u, v), the projected table mod the prime p for subsets of at
    most `size` sites, or None when A = gamma[Y, X] has rank below m over GF(p).

    Z fails mod p exactly when [A | a_z, e_z for z in Z] (a_z = gamma[Y, z],
    e_z the unit vector of site z) lacks full column rank.  Row-reducing
    [gamma[Y, X u Y] | 1] on A's columns and keeping the n - m rows without a
    pivot leaves u[..., z] and v[..., z], the images of a_z and e_z there, so
    Z fails exactly when its 2|Z| vectors are dependent.  They are vectors of
    modular._field for n - m rows and the 2 size - 1 eliminations a leaf
    takes, the sites on the last axis.  size 0 reduces A alone.
    """
    m, n = code.m, code.n
    if m > n:
        return None
    _require_budget(n * (m + 2 * n if size else m), "subset-scan table", DEFAULT_AMPLITUDE_CAP)
    dtype = _residue_dtype(p)
    gamma = code.gamma.entries[m:]  # rows Y; columns X, then Y
    table = _residues(gamma if size else gamma[:, :m], p, dtype)
    if size:
        table = np.hstack([table, np.eye(n, dtype=dtype)])
    free = np.ones(n, dtype=bool)
    for col in range(m):
        candidates = np.flatnonzero(free & (table[:, col] != 0))
        if not candidates.size:
            return None
        free[candidates[0]] = False
        pivot = table[candidates[0]] * pow(int(table[candidates[0], col]), -1, p) % p
        table[free] = (table[free] - table[free, col][:, None] * pivot) % p
    field = _field(p, n - m, 2 * size - 1)
    return field, field.vectors(table[free, m : m + n]), field.vectors(table[free, m + n :])


def _reduce_site(field, basis, u, v):
    """A site's two vectors reduced against basis, and v also against u; with u's pivot."""
    u, v = _reduce_against(field, basis, u, v)
    pivot = field.pivot(u)
    (v,) = _reduce_against(field, [(u, pivot)], v)
    return u, pivot, v


def _leaf_failures(field, u, v, prefixes, owner, sites) -> np.ndarray:
    """Mask of the leaves prefixes[owner] + (sites,) whose 2|Z| vectors are dependent.

    prefixes is a (count, k) site array, owner and sites one entry per leaf.
    The 2k vectors of each prefix are reduced once into a basis with
    distinct pivots; then only the two vectors of each leaf's new site are
    reduced against its prefix's basis, gathered one vector at a time, all
    leaves at once.
    """
    basis = []
    dependent = np.zeros(len(prefixes), dtype=bool)
    for column in prefixes.T:
        xu, pivot, xv = _reduce_site(field, basis, u.take(column, axis=-1), v.take(column, axis=-1))
        dependent |= field.zero(xu) | field.zero(xv)
        basis += [(xu, pivot), (xv, field.pivot(xv))]
    gathered = ((b.take(owner, axis=-1), pivot.take(owner, axis=-1)) for b, pivot in basis)
    lu, _, lv = _reduce_site(field, gathered, u.take(sites, axis=-1), v.take(sites, axis=-1))
    return field.zero(lu) | field.zero(lv) | dependent[owner]


def check_subset(code: GraphCode, subset: Iterable[int]) -> bool:
    """True iff every error operator localized on Z is corrected.

    Z is given as output-site indices in [0, n).  The check is exact
    arithmetic over Z_d: the (Y \\ Z) x (X u Z) submatrix of gamma must
    have trivial kernel, decided on the projected table of each prime p | d.
    """
    sites = _normalize_subset(code.n, subset)
    if 2 * len(sites) > code.n - code.m:  # fewer rows than columns
        return False
    head = np.array([sites[:-1]], dtype=np.intp)
    for p in _prime_factors(code.d):
        vectors = _site_vectors(code, p, len(sites))
        if vectors is None:
            return False
        if sites and _leaf_failures(*vectors, head, np.zeros(1, np.intp), np.array(sites[-1:]))[0]:
            return False
    return True


def first_failing_subset(
    code: GraphCode, max_size: int
) -> Optional[tuple[int, ...]]:
    """First Z with |Z| <= max_size whose block has a nontrivial kernel, or None.

    Subsets are scanned by increasing cardinality and lexicographically
    within each cardinality, so the returned witness is the smallest
    counterexample under that order.  Each prime p | d scans its projected
    table (_site_vectors); a later prime only looks at the subsets before
    the witness found so far.
    """
    if max_size < 0:  # not even the empty subset is asked about
        return None
    witness = None
    for p in _prime_factors(code.d):
        found = _first_dependent(code, p, min(max_size, code.n), witness)
        witness = witness if found is None else found
        if witness == ():
            break
    return witness


def _first_dependent(
    code: GraphCode, p: int, max_size: int, before: Optional[tuple[int, ...]]
) -> Optional[tuple[int, ...]]:
    """The first failing Z mod p in (size, lex) order with |Z| <= max_size, and before
    the witness `before` when one is given.

    A size s is walked by its (s-1)-prefixes in lex order, at most
    _PREFIX_CHUNK at a time; each leaf extends its prefix by a site above
    the prefix's last, so leaves come in lex order too.  Every prefix passed
    at size s - 1, so a leaf fails by its two new vectors.  Past 2s > n - m
    no s-subset has room for 2s independent vectors.
    """
    n, rows = code.n, code.n - code.m
    if before is not None:
        max_size = len(before)
    vectors = _site_vectors(code, p, max_size)
    if vectors is None:
        return ()
    width = vectors[1].size // n  # entries per vector: one word, or n - m residues
    for size in range(1, max_size + 1):
        if 2 * size > rows:
            return tuple(range(size))
        take = max(1, min(_PREFIX_CHUNK, DEFAULT_AMPLITUDE_CAP // (2 * n * width)))
        _require_budget(take * 2 * n * width, "subset-scan chunk", DEFAULT_AMPLITUDE_CAP)
        prefixes = itertools.combinations(range(n), size - 1)
        while chunk := list(itertools.islice(prefixes, take)):
            heads = np.array(chunk, dtype=np.intp).reshape(len(chunk), size - 1)
            low = heads[:, -1] + 1 if size > 1 else np.zeros(1, dtype=np.intp)
            owner = np.repeat(np.arange(len(chunk)), n - low)  # leaves z = low..n-1 of each head
            sites = np.arange(len(owner)) - (np.cumsum(n - low) - n)[owner]
            hit = np.flatnonzero(_leaf_failures(*vectors, heads, owner, sites))
            if hit.size:
                leaf = chunk[owner[hit[0]]] + (int(sites[hit[0]]),)
                return leaf if before is None or (size, leaf) < (len(before), before) else None
            if before is not None and size == len(before) and chunk[-1] >= before[:-1]:
                return None
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
    powers = d ** np.arange(width - 1, -1, -1, dtype=np.int64)
    table = np.arange(count)[:, None] // powers
    table %= d
    return table


def build_isometry(code: GraphCode) -> np.ndarray:
    """The d^n x d^m quadratic-phase encoding matrix of the code.

    Entry (j_Y, j_X) is d^{-n/2} exp(i pi / d * j . gamma . j) with j
    the combined digit vector over all nodes.  Whether the result is an
    isometry is exactly the empty-subset kernel condition.  Budgeted: d^n, d^m
    and V; besides V only its int64 phase exponent is held at V's size.
    """
    d, m, n = code.d, code.m, code.n
    _require_budget(d**n, "isometry rows", DEFAULT_AMPLITUDE_CAP)
    _require_budget(d**m, "isometry columns", DEFAULT_AMPLITUDE_CAP)
    _require_budget(d ** (n + m), "isometry")
    phases = 1j * np.pi / d * _phase_exponent(code)
    np.exp(phases, out=phases)
    return np.multiply(d ** (-n / 2), phases, out=phases).T


def _phase_exponent(code: GraphCode) -> np.ndarray:
    """j . gamma . j mod 2d as one (d^m, d^n) int64 array, built in place."""
    d, m, n = code.d, code.m, code.n
    gamma = code.gamma.entries
    jx = _digit_table(d**m, d, m)
    jy = _digit_table(d**n, d, n)
    qy = np.einsum("ri,ij,rj->r", jy, gamma[m:, m:], jy)  # its temporaries never meet the exponent
    exponent = 2 * (jx @ gamma[:m, m:]) @ jy.T
    exponent += np.einsum("ki,ij,kj->k", jx, gamma[:m, :m], jx)[:, None]
    exponent += qy
    exponent %= 2 * d
    return exponent


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
