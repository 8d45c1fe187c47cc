"""Expected outputs of every op, computed without graphqec and outside the timed region.

check(op, record) returns None when the program's output agrees with the
oracle, else a one-line description of the disagreement.  The oracles:

- verify / maxf: kernel enumeration (certify_oracle) for the first
  failing subset in scan order, confirmed with sympy (GF(p) rank for
  prime d, Smith normal form plus a gcd test for composite d) on the
  witness, its predecessor and a spread of earlier subsets; a scan with
  sympy alone for moduli too large to enumerate;
- search / singular-mc: the same seeded substreams, regenerated here,
  with an independent certification or batched GF(p) rank;
- kl-check: the certification verdict and the closed-form operator count;
- simulate: an independent Choi computation (recovery map in closed
  form through the pseudo-inverse of the Gram form of a matrix-unit
  spanning set, site-local noise); noise on <= f sites must be corrected;
- bounds: sha256 digests of the CSV bytes, stored beside this file;
- capacity: the closed-form formulas.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from math import comb
from typing import Optional

import numpy as np

from certify_oracle import (
    first_failing_subset,
    max_f_from_first_bad,
    prime_factors,
    subset_rank,
    subsets_up_to,
    sympy_kernel_trivial,
)
from workloads import Code, Op, sample_gamma, trial_rng

KL_TOLERANCE = 1e-9
CHOI_MATCH = 1e-9
REL_TOL = 1e-12
SYMPY_SAMPLES = 12  # earlier subsets confirmed with sympy per certification op
ENUMERATION_LIMIT = 1000  # larger moduli are scanned with sympy instead

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bounds_digests.json")


def flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _close(a, b, tol=REL_TOL) -> bool:
    return math.isclose(float(a), float(b), rel_tol=tol, abs_tol=tol)


def entropy2(r: float) -> float:
    if r in (0.0, 1.0):
        return 0.0
    return -r * math.log2(r) - (1.0 - r) * math.log2(1.0 - r)


# ---------------------------------------------------------------------------
# certification


def subset_at(position: int, n: int) -> tuple[int, ...]:
    """Inverse of subset_rank."""
    size = 0
    while position >= comb(n, size):
        position -= comb(n, size)
        size += 1
    out, start = [], 0
    for slot in range(size):
        for v in range(start, n):
            block = comb(n - v - 1, size - slot - 1)
            if position < block:
                out.append(v)
                start = v + 1
                break
            position -= block
    return tuple(out)


def _sympy_scan(code: Code, max_size: int) -> Optional[tuple[int, ...]]:
    for size in range(max_size + 1):
        for subset in itertools.combinations(range(code.n), size):
            if not sympy_kernel_trivial(code.gamma, code.d, code.m, code.n, subset):
                return subset
    return None


def first_bad(code: Code, max_size: int) -> Optional[tuple[int, ...]]:
    """First failing subset of size <= max_size, reusing what generation found."""
    if code.first_bad is not None:
        return code.first_bad if len(code.first_bad) <= max_size else None
    if max_size <= code.checked_size:
        return None
    if any(p > ENUMERATION_LIMIT for p in prime_factors(code.d)):
        return _sympy_scan(code, max_size)
    return first_failing_subset(code.gamma, code.d, code.m, code.n, max_size)


def _confirm_with_sympy(code: Code, bad: Optional[tuple[int, ...]], passing: int) -> Optional[str]:
    """sympy must reject the witness and accept the `passing` subsets scanned before it
    (the last of them and a spread of the others)."""
    if bad is not None and sympy_kernel_trivial(code.gamma, code.d, code.m, code.n, bad):
        return f"sympy finds no kernel on witness {bad}"
    positions = {passing - 1} | {passing * k // SYMPY_SAMPLES for k in range(SYMPY_SAMPLES)}
    for pos in sorted(p for p in positions if 0 <= p < passing):
        subset = subset_at(pos, code.n)
        if not sympy_kernel_trivial(code.gamma, code.d, code.m, code.n, subset):
            return f"sympy finds a kernel on {subset}, scanned before the verdict"
    return None


def verify_expectation(code: Code, f: int):
    """(witness or None, subsets in scan order up to the verdict)."""
    bad = first_bad(code, 2 * f)
    scanned = subset_rank(bad, code.n) + 1 if bad is not None else subsets_up_to(code.n, 2 * f)
    return bad, scanned


def maxf_expectation(code: Code):
    """(max_f, subsets in scan order up to the verdict)."""
    bad = first_bad(code, code.n - 1)
    scanned = subset_rank(bad, code.n) + 1 if bad is not None else subsets_up_to(code.n, code.n - 1)
    return max_f_from_first_bad(None if bad is None else len(bad), code.n), bad, scanned


def _check_verify(op: Op, out: dict, rc) -> Optional[str]:
    code, f = op.code, int(flag(op.argv, "--f"))
    bad, scanned = verify_expectation(code, f)
    want = {"d": code.d, "m": code.m, "n": code.n, "f": f, "passes": bad is None,
            "witness": None if bad is None else list(bad)}
    got = {k: out.get(k) for k in want}
    if got != want or rc != (0 if bad is None else 1):
        return f"verify {code.name} f={f}: got {got} rc={rc}, want {want}"
    # a confirmed witness has a nontrivial kernel and had only passing subsets before it
    return _confirm_with_sympy(code, bad, scanned - (bad is not None))


def _check_maxf(op: Op, out: dict, rc) -> Optional[str]:
    code = op.code
    value, bad, scanned = maxf_expectation(code)
    if out.get("max_f") != value or rc != 0:
        return f"maxf {code.name}: got {out.get('max_f')} rc={rc}, want {value}"
    return _confirm_with_sympy(code, bad, scanned - (bad is not None))


# ---------------------------------------------------------------------------
# search and singular-mc


def _clopper_pearson_upper(failures: int, trials: int, level: float = 0.99) -> float:
    """One-sided upper limit u with P(Bin(trials, u) <= failures) = 1 - level."""
    if failures == trials:
        return 1.0

    def cdf(u):
        return math.fsum(comb(trials, i) * u**i * (1 - u) ** (trials - i) for i in range(failures + 1))

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) > 1 - level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_search(op: Op, out: dict, rc) -> Optional[str]:
    keys = ("--d", "--m", "--n", "--f", "--trials", "--seed")
    d, m, n, f, trials, seed = (int(flag(op.argv, k)) for k in keys)
    successes, best, first_trial, first_witness = 0, None, None, None
    for trial in range(trials):
        gamma = sample_gamma(d, m, n, trial_rng(seed, trial))  # the documented substream
        bad = first_failing_subset(gamma, d, m, n, 2 * f)
        if bad is None:
            successes += 1
            if best is None:
                best = Code("best", d, m, n, gamma).graph_dict()
        elif first_trial is None:
            first_trial, first_witness = trial, list(bad)
    failures = trials - successes
    bound_log2 = n * ((m / n + 4.0 * f / n - 1.0) * math.log2(d) + entropy2(2.0 * f / n))
    want = {
        "config": {"d": d, "m": m, "n": n, "f": f, "trials": trials, "seed": seed},
        "successes": successes,
        "failures": failures,
        "best_code": best,
        "first_failure_trial": first_trial,
        "first_failure_witness": first_witness,
    }
    got = {k: out.get(k) for k in want}
    if got != want or rc != 0:
        return f"search: got {got}, want {want}"
    checks = {
        "empirical_failure_fraction": failures / trials,
        "failure_fraction_upper99": _clopper_pearson_upper(failures, trials),
        "bound_log2": bound_log2,
        "bound": 2.0**bound_log2,
    }
    for key, value in checks.items():
        if not _close(out.get(key, math.nan), value, 1e-9):
            return f"search: {key} = {out.get(key)}, want {value}"
    return None


def gf_rank_batch(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks over GF(p) by fraction-free elimination (no inverses needed)."""
    a = np.mod(mats.astype(np.int64), p)
    batch, rows, cols = a.shape
    used = np.zeros((batch, rows), dtype=bool)
    rank = np.zeros(batch, dtype=np.int64)
    every = np.arange(batch)
    for c in range(cols):
        candidates = (a[:, :, c] != 0) & ~used
        has = candidates.any(axis=1)
        pivot = np.argmax(candidates, axis=1)
        prow = a[every, pivot]  # (batch, cols)
        pval = prow[:, c]
        coeff = a[:, :, c]
        target = has[:, None] & ~used & (np.arange(rows)[None, :] != pivot[:, None])
        reduced = (pval[:, None, None] * a - coeff[:, :, None] * prow[:, None, :]) % p
        a = np.where(target[:, :, None], reduced, a)
        used[every[has], pivot[has]] = True
        rank += has
    return rank


def _check_singular(op: Op, out: dict, rc) -> Optional[str]:
    from sympy import GF, ZZ
    from sympy.polys.matrices import DomainMatrix

    d, rows, cols, trials, seed = (int(flag(op.argv, k)) for k in ("--d", "--N", "--M", "--trials", "--seed"))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed,))))
    chunk, remaining, singular = max(1, min(trials, 20_000)), trials, 0
    samples = {True: [], False: []}
    while remaining:
        take = min(chunk, remaining)
        mats = rng.integers(0, d, size=(take, rows, cols))
        deficient = gf_rank_batch(mats, d) < cols
        singular += int(deficient.sum())
        for flagged in (True, False):
            picks = np.flatnonzero(deficient == flagged)[: SYMPY_SAMPLES - len(samples[flagged])]
            samples[flagged].extend(mats[i] for i in picks)
        remaining -= take
    for flagged, group in samples.items():
        for mat in group:
            r = DomainMatrix.from_list(mat.tolist(), ZZ).convert_to(GF(d)).rank()
            if (r < cols) != flagged:
                return f"singular-mc oracle disagrees with sympy on {mat.tolist()}"
    want = {"d": d, "N": rows, "M": cols, "trials": trials, "seed": seed,
            "empirical": singular / trials, "bound": float(d) ** (-(rows - cols))}
    got = {k: out.get(k) for k in want}
    if got != want or rc != 0:
        return f"singular-mc: got {got}, want {want}"
    return None


# ---------------------------------------------------------------------------
# kl-check and simulate


def _check_kl(op: Op, out: dict, rc) -> Optional[str]:
    code, f = op.code, int(flag(op.argv, "--f"))
    passes = first_bad(code, 2 * f) is None
    count = 1 + sum(comb(code.n, s) * (code.d**2 - 1) ** s for s in range(1, f + 1))
    want = {"f": f, "operators": count, "tolerance": KL_TOLERANCE, "passes": passes}
    got = {k: out.get(k) for k in want}
    deviation = float(out.get("max_deviation", math.nan))
    if got != want or rc != (0 if passes else 1) or (deviation <= KL_TOLERANCE) != passes:
        return f"kl-check {code.name}: got {got} deviation={deviation} rc={rc}, want {want}"
    return None


def isometry(code: Code) -> np.ndarray:
    """V[j_Y, j_X] = d^(-n/2) w^(sum_{a<b} gamma_ab j_a j_b), w = exp(2 pi i / d)."""
    d, m, n = code.d, code.m, code.n
    digits = np.array(list(itertools.product(range(d), repeat=m + n)), dtype=np.int64)
    upper = np.triu(np.asarray(code.gamma, dtype=np.int64) % d, k=1)
    q = np.einsum("ka,ab,kb->k", digits, upper, digits) % d
    phases = np.exp(2j * np.pi * q / d) * d ** (-n / 2)
    return phases.reshape(d**m, d**n).T  # inputs are the most significant digits


def _error_images(v: np.ndarray, d: int, n: int, f: int) -> np.ndarray:
    """E V for a spanning set E of all operators on <= f sites (matrix units)."""
    d0 = v.shape[1]
    images = [v]
    for size in range(1, f + 1):
        for sites in itertools.combinations(range(n), size):
            for units in itertools.product(range(d * d), repeat=size):
                t = v.reshape((d,) * n + (d0,))
                for site, unit in zip(sites, units):
                    a, b = divmod(unit, d)  # |a><b| on this site
                    moved = np.zeros_like(t)
                    src = [slice(None)] * (n + 1)
                    src[site] = b
                    dst = list(src)
                    dst[site] = a
                    moved[tuple(dst)] = t[tuple(src)]
                    t = moved
                images.append(t.reshape(d**n, d0))
    return np.stack(images)


def _apply_noise(rho: np.ndarray, d: int, n: int, sites, family: str, param: float) -> np.ndarray:
    for s in sites:
        left, right = d**s, d ** (n - s - 1)
        t = rho.reshape(left, d, right, left, d, right)
        if family == "depolarizing":
            reduced = np.einsum("aibcid->abcd", t)
            mixed = reduced[:, None, :, :, None, :] * np.eye(d)[None, :, None, None, :, None] / d
            t = (1.0 - param) * t + param * mixed
        elif family == "unitary-rotation":
            u = np.exp(1j * param * np.arange(d))
            t = t * u[None, :, None, None, None, None] * u.conj()[None, None, None, None, :, None]
        else:
            raise ValueError(f"oracle has no model of noise family {family!r}")
        rho = t.reshape(rho.shape)
    return rho


def choi_distance(code: Code, f: int, sites, family: str, param: float) -> float:
    """Trace distance of the Choi state of decode(noise(encode)) from the identity's."""
    d, n = code.d, code.n
    v = isometry(code)
    d0 = v.shape[1]
    images = _error_images(v, d, n, f)
    flat = images.reshape(len(images), -1)
    gram = flat.conj() @ flat.T / d0
    weights = np.linalg.pinv(gram, rcond=1e-8, hermitian=True)

    def recover(rho):
        y = np.einsum("xy,byj->bxj", rho, images)
        blocks = np.einsum("axi,bxj->abij", images.conj(), y)
        part = np.einsum("ba,abij->ij", weights, blocks)
        rest = np.trace(rho) - np.trace(part)
        part[0, 0] += rest  # the complement of the recoverable range goes to |0><0|
        return part

    choi = np.zeros((d0 * d0, d0 * d0), dtype=np.complex128)
    ident = np.zeros_like(choi)
    for i in range(d0):
        for j in range(d0):
            unit = np.zeros((d0, d0))
            unit[i, j] = 1.0
            rho = _apply_noise(np.outer(v[:, i], v[:, j].conj()), d, n, sites, family, param)
            choi += np.kron(recover(rho), unit) / d0
            ident += np.kron(unit, unit) / d0
    return float(0.5 * np.abs(np.linalg.eigvalsh(choi - ident)).sum())


def _check_simulate(op: Op, out: dict, rc) -> Optional[str]:
    code, f = op.code, int(flag(op.argv, "--f"))
    noise = flag(op.argv, "--noise")
    sites = [int(s) for s in flag(op.argv, "--sites").split(",")]
    family, _, param = noise.partition(":")
    want_fields = {"f": f, "noise": noise, "sites": sites}
    got_fields = {k: out.get(k) for k in want_fields}
    distance = float(out.get("choi_trace_distance", math.nan))
    if got_fields != want_fields or rc != 0 or out.get("corrected") != (distance < KL_TOLERANCE):
        return f"simulate {code.name}: got {got_fields} rc={rc} corrected={out.get('corrected')}"
    expected = choi_distance(code, f, sites, family, float(param))
    if len(sites) <= f:
        if not (distance < KL_TOLERANCE and expected < KL_TOLERANCE):
            return f"simulate {code.name}: noise on {sites} not corrected ({distance}, oracle {expected})"
    elif abs(distance - expected) > CHOI_MATCH:
        return f"simulate {code.name}: distance {distance}, oracle {expected}"
    return None


# ---------------------------------------------------------------------------
# closed forms


def _check_bounds(op: Op, out: dict, rc) -> Optional[str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    fig = flag(op.argv, "--fig")
    digest = hashlib.sha256(str(out.get("csv", "")).encode("utf-8")).hexdigest()
    if out.get("fig") != fig or digest != digests[fig] or rc != 0:
        return f"bounds {fig}: csv sha256 {digest}, want {digests[fig]}"
    return None


def _check_capacity(op: Op, out: dict, rc) -> Optional[str]:
    if "--eps" in op.argv:
        d, eps = int(flag(op.argv, "--d")), float(flag(op.argv, "--eps"))
        want = {"mode": "small-noise", "d": d, "eps": eps,
                "threshold": 2.0 ** (-entropy2(eps) / eps),
                "q_lower": (1 - 4 * eps) * math.log2(d) - entropy2(2 * eps)}
    else:
        p, k, delta = int(flag(op.argv, "--p")), int(flag(op.argv, "--k")), float(flag(op.argv, "--delta"))
        x = math.e * delta
        want = {"mode": "finite-coding", "p": p, "k": k, "delta": delta,
                "q_lower": (math.log2(p) / k) * (1 - 4 * x) - entropy2(2 * x) / k}
    for key, value in want.items():
        got = out.get(key)
        numeric = isinstance(value, float) and isinstance(got, (int, float))
        if not (_close(got, value) if numeric else got == value):
            return f"capacity: {key} = {got}, want {value}"
    return None if rc == 0 else f"capacity: rc={rc}"


CHECKS = {
    "verify": _check_verify,
    "maxf": _check_maxf,
    "search": _check_search,
    "singular-mc": _check_singular,
    "kl-check": _check_kl,
    "simulate": _check_simulate,
    "bounds": _check_bounds,
    "capacity": _check_capacity,
}


def check(op: Op, record: dict) -> Optional[str]:
    """None when the op's output (stdout JSON plus exit code) is right."""
    if record.get("error"):
        return f"{op.command} raised: {record['error'].strip().splitlines()[-1]}"
    try:
        out = json.loads(record["stdout"])
    except json.JSONDecodeError:
        return f"{op.command}: stdout is not JSON (rc={record['rc']}, stderr={record['stderr'][:200]!r})"
    return CHECKS[op.command](op, out, record["rc"])
