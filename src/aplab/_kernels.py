"""Hot numeric kernels, one implementation each.

The enumeration and polynomial kernels are vectorized numpy;
the greedy free-set search is a Python loop over an integer bitset of
members, with partner bitmasks for two-vertex edges and room counters
for the rest read from the CSR arrays built by ``csr_incidence``, and
each of its swap passes rescans only the vertices an eviction can
unblock.
``csr_incidence`` has two callers: the heuristic free-set search in
``intersectivity`` and ``HypergraphPoly`` in ``hyperpoly``.
Callers reach every kernel as a ``_kernels`` attribute at call time, so
a wrapper installed on the module sees every call.  All kernels are
exact integer computations except the operator-norm scan, which works
in float64 and is exact on integer-valued matrices.
"""
from __future__ import annotations

import numpy as np

# Kept for the machine-facts probe of perfbench/run.py, which reads it.
USE_NUMBA = False

# Largest vertex count or dimension the 2**n enumerations accept; the
# exact maxima in ``discrepancy``, ``norms`` and ``embedding`` read it
# at call time.
ENUM_LIMIT = 24

# The inf->1 scan indexes its signed-row-sum table by the low
# ``_TABLE_BITS`` bits of a code, and both enumerations hold at most
# ``_BATCH_ELEMS`` codes per vectorized step, so their working set stays
# under 2 MiB at ``ENUM_LIMIT``.  Both were chosen by timing d = 17..24:
# fewer table bits or smaller batches were slower, and larger ones grow
# the working set for little or no gain.
_TABLE_BITS = 12
_BATCH_ELEMS = 1 << 15


# ---------------------------------------------------------------------------
# set systems in CSR form, and bitsets as vectors


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


def bit_vector(members, nvert):
    """uint8 vector of the low ``nvert`` bits of the int ``members``."""
    packed = np.frombuffer(members.to_bytes((nvert + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=nvert, bitorder="little")


# ---------------------------------------------------------------------------
# exact enumeration over all 2**nvert assignments
#
# Assignments are scanned in chunks of at most ``_BATCH_ELEMS``
# consecutive codes; a set bit in a code means that vertex carries -1
# (over {-1,+1}) or 1 (over {0,1}).  The cube scan takes terms as vertex
# bitmasks plus one value row each, indexed by how many of the term's
# vertices a code sets, so one kernel serves both cubes, and it returns
# the maximum alone.  The inf->1 scan also reports the first maximizing
# code, which ``bit_vector`` decodes.
#
# The inf->1 scan uses the sign symmetry ||M^T u||_1 = ||M^T (-u)||_1 to
# visit only the codes with the top bit clear, and needs no matrix
# product per chunk: the signed sums of the rows under the low
# ``_TABLE_BITS`` bits form a table built once (d x 4096 float64, about
# 0.8 MB at ``ENUM_LIMIT``), and each block of codes sharing the high
# bits shifts every table column by one constant.  A batch stacks
# consecutive blocks up to ``_BATCH_ELEMS`` codes.  On integer-valued
# input these sums are exact, so the result equals the full 2**d scan.


def cube_enum_kernel(nvert, base, term_masks, term_table):
    """Max of |base + sum_t table_t[popcount(c & mask_t)]| over codes c < 2**nvert.

    Row t of ``term_table`` gives term t's value by how many of its
    vertices the code sets: c_t * (-1)**j on the {-1,+1} cube and
    c_t * [j = |t|] on the {0,1} cube.
    """
    best = 0
    total = 1 << nvert
    for start in range(0, total, _BATCH_ELEMS):
        codes = np.arange(start, min(start + _BATCH_ELEMS, total), dtype=np.uint64)
        acc = np.full(codes.shape[0], base, dtype=np.int64)
        for mask, row in zip(term_masks, term_table):
            acc += row[np.bitwise_count(codes & mask)]
        best = max(best, int(np.abs(acc, out=acc).max()))
    return best


def _signed_row_sums(rows):
    """Column-major table T with T[:, c] = sum_b s_b rows[b], s_b = -1 iff bit b of c."""
    table = np.zeros((rows.shape[1], 1 << rows.shape[0]))
    for b, row in enumerate(rows):
        n = 1 << b
        np.subtract(table[:, :n], row[:, None], out=table[:, n:2 * n])
        table[:, :n] += row[:, None]
    return table


def infone_enum_kernel(mat):
    """Max of ||M^T u||_1 over u in {-1,+1}^d; a set mask bit means u = -1.

    M has d >= 1 rows and any number of columns.  Returns the first
    maximizing code.  Since ||M^T u||_1 = ||M^T (-u)||_1
    and complementing a code with bit d-1 set gives a smaller one, that
    code has u_{d-1} = +1, so only the 2**(d-1) codes below 2**(d-1) are
    scanned.  Their low ``_TABLE_BITS`` bits index a table P of signed
    row sums of M built once; the codes sharing their high bits form a
    block with one offset row q.  Batches of consecutive blocks, at most
    ``_BATCH_ELEMS`` codes each, take sum_j |P[j] + q[:, j]| by
    broadcasting, one row per block, so the batch in row-major order is
    in code order and its flat argmax is the first maximizer in it.
    For integer-valued M with entry mass sum |M_ij| below 2**53 every
    partial sum is an exact integer, so the value and the mask are exact;
    other input gets the maximum up to float rounding.
    """
    d = mat.shape[0]
    low = min(d - 1, _TABLE_BITS)
    table = _signed_row_sums(mat[:low])
    offsets = (_signed_row_sums(mat[low:d - 1]) + mat[d - 1][:, None]).T
    rows = min(len(offsets), max(1, _BATCH_ELEMS >> low))
    vals = np.empty((rows, table.shape[1]))
    term = np.empty_like(vals)
    best = -1.0
    best_mask = 0
    for first in range(0, len(offsets), rows):
        q = offsets[first:first + rows]
        v, t = vals[:len(q)], term[:len(q)]
        np.add(table[0], q[:, :1], out=v)
        np.abs(v, out=v)
        for j in range(1, len(table)):
            np.add(table[j], q[:, j:j + 1], out=t)
            np.abs(t, out=t)
            v += t
        pos = int(np.argmax(v))
        if v.flat[pos] > best:
            best = float(v.flat[pos])
            best_mask = (first << low) + pos
    return best, best_mask


# ---------------------------------------------------------------------------
# hypergraph polynomial evaluation


def poly_eval01_kernel(edge_ptr, edge_vtx, edge_mult, x):
    """Sum of multiplicities over edges fully inside the 0/1 vector x.

    A 2-D x is a stack of 0/1 rows, and the result is one int64 per row.
    """
    if edge_mult.shape[0] == 0:
        return np.zeros(x.shape[:-1], dtype=np.int64)
    hits = np.minimum.reduceat(x[..., edge_vtx], edge_ptr[:-1], axis=-1)
    return hits.astype(np.int64) @ edge_mult


# ---------------------------------------------------------------------------
# greedy independent-set search with swap passes
#
# Edges are forbidden vertex subsets, and the working set is one Python
# int, bit v set when vertex v is a member.  A vertex can join only if no
# edge would become fully included.  A two-vertex edge blocks v exactly
# when its other end is a member, so those edges are folded into one
# partner bitmask per vertex and tested as ``members & partners[v]``.
# Every other edge keeps a room counter: room[e] counts how many more
# members edge e can take (none for a one-vertex edge), and v is blocked
# when one of its counted edges has no room left.  Each swap pass evicts
# the first member at or cyclically after a pseudo-random probe, found as
# the lowest set bit of the members shifted past the probe, and then
# greedily refills along the restart's permutation.  All randomness
# arrives through perms/removals, so the search is a deterministic
# function of its arguments.
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


def apfree_search_kernel(nvert, target, edge_ptr, edge_vtx, edge_size,
                         v_ptr, v_edges, perms, removals):
    """Best free set found by greedy restarts with swap passes.

    Returns ``(size, members)``, members an int with bit v set when vertex
    v is in the set; stops as soon as a set of size ``target`` is found.
    """
    ptr, vtx, incident, bounds = (a.tolist() for a in (edge_ptr, edge_vtx, v_edges, v_ptr))
    edge_verts = [vtx[ptr[e]:ptr[e + 1]] for e in range(len(ptr) - 1)]
    bits = [1 << v for v in range(nvert)]
    partners = [0] * nvert  # the other ends of v's two-vertex edges
    counted = [[] for _ in range(nvert)]  # v's other edges, each with a room counter
    for e, verts in enumerate(edge_verts):
        if len(verts) == 2:
            u, w = verts
            partners[u] |= bits[w]
            partners[w] |= bits[u]
        else:
            for v in verts:
                counted[v].append(e)
    near = [None] * nvert  # the vertices sharing an edge with v, built on v's first eviction
    empty_room = [s - 1 for s in edge_size.tolist()]
    ranks = np.empty_like(perms)  # ranks[i][v]: position of vertex v in restart i's order
    ranks[np.arange(len(perms))[:, None], perms] = np.arange(nvert)
    best_size = 0
    best = 0
    for order, rank, probes in zip(perms.tolist(), ranks.tolist(), removals.tolist()):
        members = 0
        room = empty_room[:]
        has_room = room.__getitem__
        for v in order:
            edges = counted[v]
            if not members & partners[v] and (not edges or all(map(has_room, edges))):
                members |= bits[v]
                for e in edges:
                    room[e] -= 1
        size = members.bit_count()
        if size > best_size:
            best_size, best = size, members
        if best_size >= target:
            return best_size, best
        victim = -1
        for probe in probes:
            if not members:
                break
            previous = victim
            p = probe % nvert
            pick = members >> p << p or members
            low = pick & -pick
            victim = low.bit_length() - 1
            members ^= low
            for e in counted[victim]:
                room[e] += 1
            reach = near[victim]
            if reach is None:
                reach = set().union(*map(edge_verts.__getitem__,
                                         incident[bounds[victim]:bounds[victim + 1]]))
                reach.discard(victim)
                reach = near[victim] = list(reach)
            for v in sorted(reach if previous < 0 else reach + [previous], key=rank.__getitem__):
                if members & bits[v]:
                    continue
                edges = counted[v]
                if not members & partners[v] and (not edges or all(map(has_room, edges))):
                    members |= bits[v]
                    for e in edges:
                        room[e] -= 1
            size = members.bit_count()
            if size > best_size:
                best_size, best = size, members
            if best_size >= target:
                return best_size, best
    return best_size, best
