"""Hot numeric kernels with numba-compiled and pure numpy implementations.

Every kernel exists twice: a loop body compiled with ``@njit`` and a
vectorized numpy fallback.  The module-level names (``ap_count_kernel``
and friends) point at the compiled path when numba imports cleanly and the
``APLAB_NO_NUMBA`` environment variable is unset; both paths stay
importable so equivalence tests and the benchmark can run them side by
side.  All kernels are exact integer computations except the operator-norm
scan, which works in float64.
"""
from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


USE_NUMBA = HAVE_NUMBA and os.environ.get("APLAB_NO_NUMBA", "") not in ("1", "true", "yes")

_CHUNK_BITS = 16


# ---------------------------------------------------------------------------
# progression counting


def _ap_count_body(mem, d, k):
    n = mem.shape[0]
    total = 0
    for x in range(n):
        p = x
        hit = 1
        for _ in range(k):
            if mem[p] == 0:
                hit = 0
                break
            p += d
            if p >= n:
                p -= n
        total += hit
    return total


ap_count_jit = njit(cache=True, nogil=True)(_ap_count_body)


def ap_count_numpy(mem, d, k):
    """Number of x with all of x, x+d, ..., x+(k-1)d inside the mask."""
    acc = mem.astype(bool)
    for step in range(1, k):
        acc &= np.roll(mem.astype(bool), -step * d)
    return int(acc.sum())


@njit(cache=True, nogil=True)
def _all_diffs_count_jit_body(mem, k):
    n = mem.shape[0]
    total = 0
    for d in range(n):
        for x in range(n):
            p = x
            hit = 1
            for _ in range(k):
                if mem[p] == 0:
                    hit = 0
                    break
                p += d
                if p >= n:
                    p -= n
            total += hit
    return total


all_diffs_count_jit = _all_diffs_count_jit_body


def all_diffs_count_numpy(mem, k):
    """Progression starts summed over every difference d in the group."""
    n = mem.shape[0]
    base = mem.astype(bool)
    total = 0
    for d in range(n):
        acc = base.copy()
        for step in range(1, k):
            acc &= np.roll(base, -step * d)
        total += int(acc.sum())
    return total


# ---------------------------------------------------------------------------
# exact sign enumeration (Gray-code walks)
#
# Terms are stored CSR-style: term t owns the vertex slice
# term_vtx[term_ptr[t]:term_ptr[t+1]] and an integer coefficient.  The
# walk visits all 2**nvert assignments flipping one vertex per step; a
# set bit in the reported mask means that vertex carries -1 (for the
# {-1,+1} walk) or 1 (for the {0,1} walk).


def _pm_enum_body(nvert, base, term_coef, term_ptr, term_vtx, v_ptr, v_terms):
    nt = term_coef.shape[0]
    termval = np.empty(nt, dtype=np.int64)
    total = base
    for t in range(nt):
        termval[t] = term_coef[t]
        total += termval[t]
    best = total if total >= 0 else -total
    best_mask = 0
    mask = 0
    steps = 1 << nvert
    for c in range(1, steps):
        v = 0
        cc = c
        while cc & 1 == 0:
            cc >>= 1
            v += 1
        mask ^= 1 << v
        for idx in range(v_ptr[v], v_ptr[v + 1]):
            t = v_terms[idx]
            total -= 2 * termval[t]
            termval[t] = -termval[t]
        mag = total if total >= 0 else -total
        if mag > best:
            best = mag
            best_mask = mask
    return best, best_mask


pm_enum_jit = njit(cache=True, nogil=True)(_pm_enum_body)


def pm_enum_numpy(nvert, base, term_coef, term_masks):
    """Max of |base + sum_t coef_t * prod_{v in t} z_v| over z in {-1,+1}^nvert."""
    best = np.int64(-1)
    best_mask = 0
    total = 1 << nvert
    chunk = 1 << min(nvert, _CHUNK_BITS)
    for start in range(0, total, chunk):
        codes = np.arange(start, start + chunk, dtype=np.uint64)
        acc = np.full(codes.shape[0], base, dtype=np.int64)
        for t in range(term_coef.shape[0]):
            par = (np.bitwise_count(codes & term_masks[t]) & np.uint64(1)).astype(np.int64)
            acc += term_coef[t] * (1 - 2 * par)
        np.abs(acc, out=acc)
        pos = int(np.argmax(acc))
        if acc[pos] > best:
            best = acc[pos]
            best_mask = int(codes[pos])
    return int(best), best_mask


def _z01_enum_body(nvert, base, term_coef, term_ptr, term_vtx, v_ptr, v_terms):
    nt = term_coef.shape[0]
    missing = np.empty(nt, dtype=np.int64)
    total = base
    for t in range(nt):
        missing[t] = term_ptr[t + 1] - term_ptr[t]
        if missing[t] == 0:
            total += term_coef[t]
    best = total if total >= 0 else -total
    best_mask = 0
    mask = 0
    steps = 1 << nvert
    for c in range(1, steps):
        v = 0
        cc = c
        while cc & 1 == 0:
            cc >>= 1
            v += 1
        bit = 1 << v
        entering = mask & bit == 0
        mask ^= bit
        for idx in range(v_ptr[v], v_ptr[v + 1]):
            t = v_terms[idx]
            if entering:
                missing[t] -= 1
                if missing[t] == 0:
                    total += term_coef[t]
            else:
                if missing[t] == 0:
                    total -= term_coef[t]
                missing[t] += 1
        mag = total if total >= 0 else -total
        if mag > best:
            best = mag
            best_mask = mask
    return best, best_mask


z01_enum_jit = njit(cache=True, nogil=True)(_z01_enum_body)


def z01_enum_numpy(nvert, base, term_coef, term_masks):
    """Max of |base + sum_t coef_t * [t subset of A]| over A in {0,1}^nvert."""
    best = np.int64(-1)
    best_mask = 0
    total = 1 << nvert
    chunk = 1 << min(nvert, _CHUNK_BITS)
    for start in range(0, total, chunk):
        codes = np.arange(start, start + chunk, dtype=np.uint64)
        acc = np.full(codes.shape[0], base, dtype=np.int64)
        for t in range(term_coef.shape[0]):
            hit = (codes & term_masks[t]) == term_masks[t]
            acc += term_coef[t] * hit.astype(np.int64)
        np.abs(acc, out=acc)
        pos = int(np.argmax(acc))
        if acc[pos] > best:
            best = acc[pos]
            best_mask = int(codes[pos])
    return int(best), best_mask


def _infone_enum_body(mat):
    d = mat.shape[0]
    w = np.zeros(d, dtype=np.float64)
    for j in range(d):
        for col in range(d):
            w[col] += mat[j, col]
    u = np.ones(d, dtype=np.float64)
    best = 0.0
    for col in range(d):
        best += abs(w[col])
    best_mask = 0
    mask = 0
    steps = 1 << d
    for c in range(1, steps):
        v = 0
        cc = c
        while cc & 1 == 0:
            cc >>= 1
            v += 1
        mask ^= 1 << v
        for col in range(d):
            w[col] -= 2.0 * u[v] * mat[v, col]
        u[v] = -u[v]
        val = 0.0
        for col in range(d):
            val += abs(w[col])
        if val > best:
            best = val
            best_mask = mask
    return best, best_mask


infone_enum_jit = njit(cache=True, nogil=True)(_infone_enum_body)


def infone_enum_numpy(mat):
    """Max of ||M^T u||_1 over u in {-1,+1}^d; a set mask bit means u = -1."""
    d = mat.shape[0]
    best = -1.0
    best_mask = 0
    total = 1 << d
    chunk = 1 << min(d, _CHUNK_BITS)
    shifts = np.arange(d, dtype=np.uint64)
    for start in range(0, total, chunk):
        codes = np.arange(start, start + chunk, dtype=np.uint64)
        bits = (codes[:, None] >> shifts[None, :]) & np.uint64(1)
        signs = 1.0 - 2.0 * bits.astype(np.float64)
        vals = np.abs(signs @ mat).sum(axis=1)
        pos = int(np.argmax(vals))
        if vals[pos] > best:
            best = float(vals[pos])
            best_mask = int(codes[pos])
    return best, best_mask


# ---------------------------------------------------------------------------
# hypergraph polynomial evaluation


def _poly_eval01_body(edge_ptr, edge_vtx, edge_mult, x):
    total = 0
    for e in range(edge_mult.shape[0]):
        hit = 1
        for idx in range(edge_ptr[e], edge_ptr[e + 1]):
            if x[edge_vtx[idx]] == 0:
                hit = 0
                break
        if hit == 1:
            total += edge_mult[e]
    return total


poly_eval01_jit = njit(cache=True, nogil=True)(_poly_eval01_body)


def poly_eval01_numpy(edge_ptr, edge_vtx, edge_mult, x):
    """Sum of multiplicities over edges fully inside the 0/1 vector x."""
    if edge_mult.shape[0] == 0:
        return 0
    vals = x[edge_vtx]
    hits = np.minimum.reduceat(vals, edge_ptr[:-1])
    return int(hits.astype(np.int64) @ edge_mult)


def _row_weight_body(u, d_i, good, r, n):
    total = 0
    for g in range(good.shape[0]):
        d_j = good[g]
        for x in range(n):
            ci = 0
            p = x
            for _ in range(2 * r):
                p += d_i
                if p >= n:
                    p -= n
                ci += u[p]
            if ci != r:
                continue
            cj = 0
            p = x
            for _ in range(2 * r):
                p += d_j
                if p >= n:
                    p -= n
                cj += u[p]
            if cj == r:
                total += 1
    return total


row_weight_jit = njit(cache=True, nogil=True)(_row_weight_body)


def row_weight_numpy(u, d_i, good, r, n):
    """Count (d_j, x) pairs whose two forward windows each meet u in r points."""
    xs = np.arange(n)
    steps = np.arange(1, 2 * r + 1)
    ci = u[(xs[:, None] + steps[None, :] * d_i) % n].sum(axis=1)
    hit_i = ci == r
    total = 0
    for d_j in good:
        cj = u[(xs[:, None] + steps[None, :] * int(d_j)) % n].sum(axis=1)
        total += int((hit_i & (cj == r)).sum())
    return total


# ---------------------------------------------------------------------------
# greedy independent-set search with swap passes
#
# Edges are forbidden vertex subsets.  A vertex can join the working set
# only if no edge would become fully included.  Each swap pass evicts one
# pseudo-random member and then greedily refills along the restart's
# permutation.  All randomness arrives through perms/removals, so both
# implementations trace identical states.


def _apfree_search_body(nvert, target, edge_ptr, edge_vtx, edge_size,
                        v_ptr, v_edges, perms, removals):
    best_size = 0
    best_mask = np.zeros(nvert, dtype=np.uint8)
    in_set = np.zeros(nvert, dtype=np.uint8)
    edge_in = np.zeros(edge_size.shape[0], dtype=np.int64)
    restarts = perms.shape[0]
    passes = removals.shape[1]
    for rs in range(restarts):
        for v in range(nvert):
            in_set[v] = 0
        for e in range(edge_size.shape[0]):
            edge_in[e] = 0
        size = 0
        for pos in range(nvert):
            v = perms[rs, pos]
            blocked = False
            for idx in range(v_ptr[v], v_ptr[v + 1]):
                e = v_edges[idx]
                if edge_in[e] == edge_size[e] - 1:
                    blocked = True
                    break
            if not blocked:
                in_set[v] = 1
                size += 1
                for idx in range(v_ptr[v], v_ptr[v + 1]):
                    edge_in[v_edges[idx]] += 1
        if size > best_size:
            best_size = size
            for v in range(nvert):
                best_mask[v] = in_set[v]
        if best_size >= target:
            return best_size, best_mask
        for sw in range(passes):
            if size == 0:
                break
            probe = removals[rs, sw] % nvert
            victim = -1
            for off in range(nvert):
                v = probe + off
                if v >= nvert:
                    v -= nvert
                if in_set[v] == 1:
                    victim = v
                    break
            in_set[victim] = 0
            size -= 1
            for idx in range(v_ptr[victim], v_ptr[victim + 1]):
                edge_in[v_edges[idx]] -= 1
            for pos in range(nvert):
                v = perms[rs, pos]
                if v == victim or in_set[v] == 1:
                    continue
                blocked = False
                for idx in range(v_ptr[v], v_ptr[v + 1]):
                    e = v_edges[idx]
                    if edge_in[e] == edge_size[e] - 1:
                        blocked = True
                        break
                if not blocked:
                    in_set[v] = 1
                    size += 1
                    for idx in range(v_ptr[v], v_ptr[v + 1]):
                        edge_in[v_edges[idx]] += 1
            if size > best_size:
                best_size = size
                for v in range(nvert):
                    best_mask[v] = in_set[v]
            if best_size >= target:
                return best_size, best_mask
    return best_size, best_mask


apfree_search_jit = njit(cache=True, nogil=True)(_apfree_search_body)
apfree_search_py = _apfree_search_body


# ---------------------------------------------------------------------------
# dispatch table

ap_count_kernel = ap_count_jit if USE_NUMBA else ap_count_numpy
all_diffs_count_kernel = all_diffs_count_jit if USE_NUMBA else all_diffs_count_numpy
poly_eval01_kernel = poly_eval01_jit if USE_NUMBA else poly_eval01_numpy
row_weight_kernel = row_weight_jit if USE_NUMBA else row_weight_numpy
apfree_search_kernel = apfree_search_jit if USE_NUMBA else apfree_search_py
