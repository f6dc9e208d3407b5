"""Hot numeric kernels, one implementation each.

The counting, enumeration and polynomial kernels are vectorized numpy;
the greedy free-set search is a plain Python loop over lists converted
once per call from the CSR arrays built by ``csr_incidence``, and each
of its swap passes rescans only the vertices an eviction can unblock.
``csr_incidence`` has two callers: the heuristic free-set search in
``intersectivity`` and ``HypergraphPoly`` in ``hyperpoly``.
Callers reach every kernel as a ``_kernels`` attribute at call time, so
a wrapper installed on the module sees every call.  All kernels are
exact integer computations except the operator-norm scan, which works
in float64.
"""
from __future__ import annotations

import numpy as np

# Kept for the machine-facts probe of perfbench/run.py, which reads it.
USE_NUMBA = False

# Largest vertex count or dimension the 2**n enumerations accept; the
# exact maxima in ``discrepancy``, ``norms`` and ``embedding`` read it
# at call time.
ENUM_LIMIT = 24

_CHUNK_BITS = 16


# ---------------------------------------------------------------------------
# set systems in CSR form


def csr_incidence(sets, nvert):
    """CSR arrays of an ordered list of vertex tuples over vertices 0..nvert-1.

    Returns ``(ptr, vtx, v_ptr, v_items)``: set i owns the vertex slice
    ``vtx[ptr[i]:ptr[i+1]]`` in its given order, and vertex v owns the
    set indices ``v_items[v_ptr[v]:v_ptr[v+1]]`` in increasing order.
    """
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    ptr = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    vtx = np.fromiter((v for s in sets for v in s), dtype=np.int64, count=int(ptr[-1]))
    v_ptr = np.zeros(nvert + 1, dtype=np.int64)
    np.cumsum(np.bincount(vtx, minlength=nvert), out=v_ptr[1:])
    owner = np.repeat(np.arange(len(sets), dtype=np.int64), sizes)
    v_items = owner[np.argsort(vtx, kind="stable")]
    return ptr, vtx, v_ptr, v_items


# ---------------------------------------------------------------------------
# progression counting


def ap_count_kernel(mem, d, k):
    """Number of x with all of x, x+d, ..., x+(k-1)d inside the mask."""
    acc = mem.astype(bool)
    for step in range(1, k):
        acc &= np.roll(mem.astype(bool), -step * d)
    return int(acc.sum())


def all_diffs_count_kernel(mem, k):
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
# exact enumeration over all 2**nvert assignments
#
# Assignments are scanned in chunks of consecutive codes; a set bit in a
# reported mask means that vertex carries -1 (over {-1,+1}) or 1 (over
# {0,1}).  Terms arrive as coefficients plus vertex bitmasks.


def pm_enum_kernel(nvert, base, term_coef, term_masks):
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


def z01_enum_kernel(nvert, base, term_coef, term_masks):
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


def infone_enum_kernel(mat):
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


def poly_eval01_kernel(edge_ptr, edge_vtx, edge_mult, x):
    """Sum of multiplicities over edges fully inside the 0/1 vector x."""
    if edge_mult.shape[0] == 0:
        return 0
    vals = x[edge_vtx]
    hits = np.minimum.reduceat(vals, edge_ptr[:-1])
    return int(hits.astype(np.int64) @ edge_mult)


def row_weight_kernel(u, d_i, good, r, n):
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
# only if no edge would become fully included; room[e] counts how many
# more members edge e can take, so a vertex is blocked exactly when one of
# its edges has no room left.  Each swap pass evicts one pseudo-random
# member and then greedily refills along the restart's permutation.  All
# randomness arrives through perms/removals, so the search is a
# deterministic function of its arguments.
#
# Refill invariant: after the greedy pass and after every refill, each
# non-member except the latest victim is blocked.  Adding members only
# takes room away, so a vertex blocked when a refill starts stays blocked
# through it, and a full scan of the permutation could add only vertices
# that were unblocked at the start.  Evicting the victim gives room back
# only to the victim's own edges.  The vertices unblocked at the start
# are therefore among the non-members sharing an edge with the victim,
# plus the previous victim, which the previous refill skipped.  Scanning
# just those, in permutation order and with the same membership and room
# checks at scan time, adds exactly the vertices the full scan would.


def _apfree_search_body(nvert, target, edge_ptr, edge_vtx, edge_size,
                        v_ptr, v_edges, perms, removals):
    ptr, vtx, incident, bounds = (a.tolist() for a in (edge_ptr, edge_vtx, v_edges, v_ptr))
    edge_verts = [vtx[ptr[e]:ptr[e + 1]] for e in range(len(ptr) - 1)]
    vert_edges = [incident[bounds[v]:bounds[v + 1]] for v in range(nvert)]
    empty_room = [s - 1 for s in edge_size.tolist()]
    best_size = 0
    best_mask = np.zeros(nvert, dtype=np.uint8)
    for order, probes in zip(perms.tolist(), removals.tolist()):
        in_set = [0] * nvert
        room = empty_room[:]
        size = 0
        for v in order:
            edges = vert_edges[v]
            if all(map(room.__getitem__, edges)):
                in_set[v] = 1
                size += 1
                for e in edges:
                    room[e] -= 1
        if size > best_size:
            best_size = size
            best_mask = np.array(in_set, dtype=np.uint8)
        if best_size >= target:
            return best_size, best_mask
        rank = [0] * nvert
        for pos, v in enumerate(order):
            rank[v] = pos
        victim = -1
        for probe in probes:
            if size == 0:
                break
            previous = victim
            victim = probe % nvert
            while not in_set[victim]:
                victim = (victim + 1) % nvert
            in_set[victim] = 0
            size -= 1
            candidates = set()
            for e in vert_edges[victim]:
                room[e] += 1
                candidates.update(edge_verts[e])
            candidates.discard(victim)
            if previous >= 0:
                candidates.add(previous)
            for v in sorted(candidates, key=rank.__getitem__):
                if in_set[v]:
                    continue
                edges = vert_edges[v]
                if all(map(room.__getitem__, edges)):
                    in_set[v] = 1
                    size += 1
                    for e in edges:
                        room[e] -= 1
            if size > best_size:
                best_size = size
                best_mask = np.array(in_set, dtype=np.uint8)
            if best_size >= target:
                return best_size, best_mask
    return best_size, best_mask


apfree_search_kernel = _apfree_search_body
