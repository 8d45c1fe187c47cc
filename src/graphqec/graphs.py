"""Qudit graph codes: data model, correctability checks, and the encoding isometry.

A code is a symmetric adjacency matrix over Z_d on m input and n output
nodes.  It corrects f errors if, for every output subset Z with
|Z| <= 2f, the (Y \\ Z) x (X u Z) submatrix has trivial kernel mod d,
that is full column rank over GF(p) for every prime p | d.  This kernel
criterion is sufficient, and exact for non-degenerate codes; a degenerate
code (the wheel with an isolated output) can correct f errors and fail
it, and channels._graph_kl decides the Knill-Laflamme condition exactly.
Over GF(p) a block has full column rank exactly when the 2|Z| columns
gamma[Y, z] and e_z (z in Z) stay independent after projecting out the
columns of gamma[Y, X], so each prime row-reduces gamma[Y, X] once
(_projection) into a table of two projected vectors per site
(_site_vectors), in the field that rank_prime_batch uses for n - m rows,
for a whole stack of codes that share (d, m, n) at once.  One walk,
_first_failing_stack, keeps one table per prime and visits subsets by
size and lexicographically within a size.  Its depth s holds each
s-subset's last two vectors reduced against its prefix's basis, mod every
prime, so a leaf costs one elimination and the next depth two a vector
(_extend).  run_search walks a stack of trials and first_failing_subset a
stack of one.  check_subset decides one block on its own, apart from the
walk, with modular.kernel_trivial.  channels._graph_kl keys syndrome
classes by the same row reduction mod each p^k || d.  The encoding
isometry itself is a quadratic-phase matrix; both views are implemented
here and their consistency is exercised by the tests.

Node numbering convention: inputs are 0..m-1, outputs are m..m+n-1.
Basis indices are base-d integers whose most-significant digit belongs
to the lowest node index.
"""

from __future__ import annotations

import io
import json
import os
from collections import namedtuple
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
    kernel_trivial,
    _field,
    _inverses,
    _prime_factors,
    _reduce,
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
# operator, register dimension or table of Python-integer residues, and any other input-sized array
DEFAULT_AMPLITUDE_CAP = 2**20
TOTAL_AMPLITUDE_CAP = 64 * DEFAULT_AMPLITUDE_CAP  # 1 GiB of complex128

# Most bytes of a graph or Kraus file read (_read_json_file): json.loads peaked at 27 bytes
# of memory a byte on a list of empty lists, and load_graph at 23 on a dense d = 2 graph
# (ru_maxrss, 9 MB files), so a file at the cap parses within about 0.85 GiB
JSON_FILE_CAP = 2**25

# Most columns over all codes in a slice of the walk (larger slices outgrow the CPU
# caches: a d = 2, n = 36 scan ran 2.5x slower at 2**19 columns)
_SLICE_COLUMNS = 2**13


def _require_budget(count: int, what: str, cap: Optional[int] = None) -> None:
    """The allocation gate: DimensionOverflow unless count entries fit cap, by default
    TOTAL_AMPLITUDE_CAP.  Called before the array is allocated."""
    cap = TOTAL_AMPLITUDE_CAP if cap is None else cap
    if count > cap:
        try:
            needs = str(count)
        except ValueError:  # past the interpreter's int-to-str digit limit: its size instead
            needs = f"at least 2**{count.bit_length() - 1}"
        raise DimensionOverflow(f"{what} needs {needs} amplitudes > {cap}")


def _require_residue_table(count: int, what: str, *moduli: int) -> None:
    """The gate of a table of residues mod each of moduli, by what it holds: a fixed-width
    table (int8 to int64) passes TOTAL_AMPLITUDE_CAP like every other fixed-width array,
    and one that holds Python integers, each a heap object (some modulus above
    modular.MAX_BATCH_MODULUS), DEFAULT_AMPLITUDE_CAP."""
    _require_budget(count, what, DEFAULT_AMPLITUDE_CAP if object in map(_residue_dtype, moduli) else None)


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
        _require_adjacency(g.entries, self.d)

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
        weights: dict[tuple[int, int], int] = {}  # (a, b), a < b: the summed multiplicity
        for edge in edges:
            if not isinstance(edge, (list, tuple, np.ndarray)) or len(edge) != 3:
                raise ValueError(f"edge must be [node_a, node_b, multiplicity]: {edge!r}")
            a, b, w = edge
            if not type(a) is type(b) is type(w) is int:  # bool, float, numpy: the general rule
                a, b, w = (_require_int(x, "edge entry") for x in edge)
            if a == b:
                raise ValueError(f"self-loop on node {a} is not allowed")
            if not (0 <= a < size and 0 <= b < size):
                raise ValueError(f"edge ({a},{b}) references a node outside 0..{size - 1}")
            pair = (a, b) if a < b else (b, a)
            weights[pair] = weights.get(pair, 0) + w
        gamma = np.zeros((size, size), dtype=np.int64)
        if weights:
            gamma[tuple(np.array(list(weights)).T)] = [w % d for w in weights.values()]
        return cls(d, m, n, ModMatrix(d, gamma + gamma.T))


def _require_adjacency(gammas: np.ndarray, d: int) -> None:
    """GraphCode's rules for an adjacency matrix, or for each of a (..., size, size)
    stack: residues mod d, symmetric, zero diagonal."""
    if gammas.size and (gammas.min() < 0 or gammas.max() >= d):
        raise ValueError("entries must lie in [0, modulus)")
    if not np.array_equal(gammas, gammas.swapaxes(-1, -2)):
        raise ValueError("adjacency matrix must be symmetric")
    if np.any(np.diagonal(gammas, axis1=-2, axis2=-1)):
        raise ValueError("self-loops are not allowed (zero diagonal required)")


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


def _site_vectors(gammas: np.ndarray, m: int, p: int, size: int):
    """(field, u, v, full), the projected tables mod the prime p of a (T, m+n, m+n) stack
    of adjacency matrices, for subsets of at most `size` sites; full marks the codes
    whose A = gamma[Y, X] has rank m over GF(p).

    Z fails mod p exactly when [A | a_z, e_z for z in Z] (a_z = gamma[Y, z],
    e_z the unit vector of site z) lacks full column rank.  Row-reducing
    [gamma[Y, X u Y] | 1] on A's columns (_projection) leaves u[..., t n + z]
    and v[..., t n + z], the images of code t's a_z and e_z in the n - m rows
    without a pivot, so Z fails exactly when its 2|Z| vectors are dependent.
    They are vectors of modular._field for n - m rows and two eliminations a
    step (_extend).  size 0 reduces A alone.  The table, T n (m + 2n) entries
    while it is row-reduced, passes _require_residue_table before any residue
    of it exists: at m = 1 it admits n <= 5792 with fixed-width residues, and
    n <= 723 with Python integers.
    """
    count, n = len(gammas), gammas.shape[-1] - m
    if m > n:
        return None, None, None, np.zeros(count, dtype=bool)
    sites = n if size else 0  # columns of the a_z, then of the e_z
    _require_residue_table(count * n * (m + 2 * sites), "subset-scan table", p)
    dtype = _residue_dtype(p)
    table = np.zeros((count, n, m + 2 * sites), dtype=dtype)
    table[:, :, : m + sites] = _residues(gammas[:, m:, : m + sites], p, dtype)  # rows Y
    table[:, :, m + sites :] = np.eye(n, sites, dtype=dtype)
    kept, full = _projection(table, m, p, p)
    field, kept = _field(p, n - m, 2), kept.swapaxes(0, 1)  # (n - m, T, columns)
    u, v = (kept[:, :, m + k * sites : m + (k + 1) * sites].reshape(n - m, count * sites) for k in (0, 1))
    return field, field.vectors(u), field.vectors(v), full


def _projection(table: np.ndarray, m: int, q: int, p: int):
    """(kept, full) of a (T, N, columns) stack of residue tables mod q = p^k, N >= m, each
    row-reduced on its first m columns A: kept holds its N - m rows without a pivot, and
    full marks the tables whose A has rank m mod p.

    One pass per column of A pivots every table on its first free row that is
    a unit mod q (nonzero mod p).  The reduction is invertible and A
    unitriangular on the pivot rows, so a full table's kept rows of a column
    are zero exactly when it lies in A's column module mod q.  A table with
    no such row is not full and gives up its first free row instead.
    """
    count, rows, columns = table.shape
    codes, free, full = np.arange(count), np.ones((count, rows), dtype=bool), np.ones(count, dtype=bool)
    for col in range(m):
        unit = table[:, :, col] % p != 0
        row = (free * (1 + unit)).argmax(axis=1)  # the first free row, a unit if one is
        full &= unit[codes, row]
        free[codes, row] = False
        pivot = table[codes, row]
        # a pivot that is no unit leaves its table not full, whatever its "inverse"
        pivot = _reduce(pivot * _inverses(pivot[:, col], q, q - q // p - 1)[:, None], q)
        table -= (table[:, :, col] * free)[:, :, None] * pivot[:, None, :]
        table = _reduce(table, q)
    return table[free].reshape(count, rows - m, columns), full


# Lex-contiguous columns of a depth of the walk for the stack's codes `codes`: column j
# extends prefixes[j] by sites[j], and the later[j] columns after it share its prefix.
# vectors[p] is (field, u, u's pivot, v, v's pivot) mod each p | d, code after code,
# u and v reduced against the prefix's basis and v against u; failed marks failing leaves.
_Slice = namedtuple("_Slice", "codes prefixes sites later vectors failed")


def _slice(codes, prefixes, sites, later, reduced) -> _Slice:
    """The _Slice of columns with (field, u, v) `reduced` mod each p: a leaf fails when
    u is zero or v is zero once reduced against u, one elimination."""
    vectors, failed = {}, False
    for p, (field, u, v) in reduced.items():
        pivot = field.pivot(u)
        (v,) = _reduce_against(field, [(u, pivot)], v)
        vectors[p] = field, u, pivot, v, field.pivot(v)
        failed = failed | field.zero(u) | field.zero(v)
    return _Slice(codes, prefixes, sites, later, vectors, np.reshape(failed, (len(codes), -1)))


def _extend(parent: _Slice, start: int, stop: int, keep: np.ndarray) -> _Slice:
    """The next depth from parent's columns start..stop-1 and codes at positions `keep`:
    column j's later columns, reduced against j's two vectors, extend j's subset."""
    later = parent.later[start:stop]
    base = np.repeat(np.arange(start, stop), later)
    step = np.arange(len(base)) - np.repeat(np.cumsum(later) - later, later)  # 0 .. later[j] - 1
    at_base, at_src = ((keep[:, None] * len(parent.sites) + j).ravel() for j in (base, base + 1 + step))
    reduced = {}
    for p, (field, u, u_pivot, v, v_pivot) in parent.vectors.items():
        basis = [(x.take(at_base, axis=-1), pivot.take(at_base, axis=-1)) for x, pivot in ((u, u_pivot), (v, v_pivot))]
        reduced[p] = field, *_reduce_against(field, basis, u.take(at_src, axis=-1), v.take(at_src, axis=-1))
    prefixes = np.column_stack([parent.prefixes[base], parent.sites[base]])
    return _slice(parent.codes[keep], prefixes, parent.sites[base + 1 + step], later[base - start] - 1 - step, reduced)


def check_subset(code: GraphCode, subset: Iterable[int]) -> bool:
    """True iff the (Y \\ Z) x (X u Z) submatrix of gamma has trivial kernel mod d.

    Z is given as output-site indices in [0, n).  The check is exact
    arithmetic over Z_d: modular.kernel_trivial on the block itself, apart
    from the walk.  A trivial kernel for every |Z| <= 2f suffices for
    correcting f errors, and is necessary only for a non-degenerate code.
    """
    at, m = np.array(_normalize_subset(code.n, subset), dtype=np.intp), code.m
    block = code.gamma.entries[np.ix_(np.delete(np.arange(m, m + code.n), at), np.r_[:m, m + at])]
    return kernel_trivial(ModMatrix(code.d, block))


def first_failing_subset(
    code: GraphCode, max_size: int
) -> Optional[tuple[int, ...]]:
    """First Z with |Z| <= max_size whose block has a nontrivial kernel, or None.

    Subsets are scanned by increasing cardinality and lexicographically
    within each cardinality, so the returned witness is the smallest
    counterexample under that order: _first_failing_stack on a stack of one.
    """
    return _first_failing_stack(code.gamma.entries[None], code.d, code.m, max_size)[0]


def _codes_per_stack(m: int, n: int) -> int:
    """The most codes of shape (m, n), at least one, whose adjacency stack and scan table
    fit DEFAULT_AMPLITUDE_CAP: the walk's tile, not a gate.  A slice holds at most
    T (n - 1) 2 (n - m) entries a prime, fewer than the T n (m + 2n) of its table."""
    return max(1, DEFAULT_AMPLITUDE_CAP // max((m + n) ** 2, n * (m + 2 * n)))


def _first_failing_stack(gammas: np.ndarray, d: int, m: int, max_size: int) -> list:
    """first_failing_subset of every code of a (T, m+n, m+n) stack over Z_d, in one walk.

    Depth s holds the s-subsets in lex order, mod each p | d, for every code
    still walking; a code's first one that fails mod some p is its witness.
    Depth 1 is the projected tables (_site_vectors), and depth s + 1 is built
    from depth s (_extend) in slices, depth first and only while a code walks,
    from the deepest depth built as one slice, which is kept.  Past 2s > n - m
    no s-subset has room for 2s independent vectors.
    """
    count, n = len(gammas), gammas.shape[-1] - m
    if max_size < 0:  # not even the empty subset is asked about
        return [None] * count
    top = min(max_size, n)
    tables, alive = {}, np.ones(count, dtype=bool)
    for p in _prime_factors(d):  # a code walks while its A = gamma[Y, X] has rank m mod every p
        field, u, v, full = _site_vectors(gammas, m, p, top)
        tables[p] = field, u, v
        alive &= full
    found = [None if ok else () for ok in alive.tolist()]
    if not (top and alive.any()):
        return found
    width = 2 * max(v.size // v.shape[-1] for _, _, v in tables.values())  # a column's entries, widest p
    kept = 1, _slice(np.arange(count), np.zeros((n, 0), np.intp), np.arange(n), n - 1 - np.arange(n), tables)

    def depth(size):  # slices of at most _SLICE_COLUMNS columns over the codes, unless one block has more
        if size == kept[0]:
            yield kept[1]
            return
        for parent in depth(size - 1):
            ends, start = np.cumsum(np.r_[0, parent.later]), 0
            while start < len(parent.later) and (keep := np.flatnonzero(alive[parent.codes])).size:
                room = min(_SLICE_COLUMNS, DEFAULT_AMPLITUDE_CAP // width) // len(keep)
                stop = max(start + 1, int(np.searchsorted(ends, ends[start] + room, "right")) - 1)
                if ends[stop] > ends[start]:
                    yield _extend(parent, start, stop, keep)
                start = stop

    for size in range(1, top + 1):
        if 2 * size > n - m:
            return [tuple(range(size)) if walking else witness for walking, witness in zip(alive, found)]
        for slices, piece in enumerate(depth(size), 1):
            hit = piece.failed & alive[piece.codes][:, None]
            leaving = hit.any(axis=1)
            for k, j in zip(np.flatnonzero(leaving), hit[leaving].argmax(axis=1)):
                found[piece.codes[k]] = (*piece.prefixes[j].tolist(), int(piece.sites[j]))
            alive[piece.codes[leaving]] = False
            if not alive.any():
                return found
        kept = (size, piece) if slices == 1 else kept
    return found


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
    arr = code.gamma.entries
    edges = [[a, b, int(arr[a, b])] for a, b in np.argwhere(np.triu(arr, 1)).tolist()]
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


def _parse_json(text: str):
    """json.loads(text), with nesting too deep for the json module refused as a ValueError,
    not a RecursionError; the recursion limit stays as it is.  The depth json parses
    depends on the Python version: below the recursion limit (1000 by default) on 3.10
    and 3.11, below the C recursion limit (10000 on Linux) on 3.12."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nesting is too deep to parse") from None


def _read_json_file(path, kind: str):
    """_parse_json of the file at path, a kind file (graph, custom-kraus), read as UTF-8 text
    with universal newlines.  A file of more than JSON_FILE_CAP bytes is refused,
    DimensionOverflow: by its size before any of it is read, and since a pipe has no size,
    by reading at most JSON_FILE_CAP + 1 bytes of any file."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > JSON_FILE_CAP:
            raise DimensionOverflow(f"{kind} file has {size} bytes > {JSON_FILE_CAP}")
        data = fh.read(size + 1)  # all of a regular file, without a cap-sized buffer
        if len(data) > size:  # a pipe (size 0) or a file that grew: at most one byte past the cap
            data += fh.read(JSON_FILE_CAP + 1 - len(data))
    if len(data) > JSON_FILE_CAP:
        raise DimensionOverflow(f"{kind} file has at least {len(data)} bytes > {JSON_FILE_CAP}")
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    del data  # not held while the text parses
    return _parse_json(text)


def loads_graph(text: str) -> GraphCode:
    return _code_from_dict(_parse_json(text))


def load_graph(path) -> GraphCode:
    return _code_from_dict(_read_json_file(path, "graph"))


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
