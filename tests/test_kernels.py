"""Each kernel against a brute-force oracle or reference loop written out in this file."""
import tracemalloc
from itertools import product

import numpy as np

from aplab import _kernels as K
from aplab import norms
from aplab.counting import DifferenceSequence, RationalCount, ap_average
from aplab.intersectivity import minimal_forbidden_sets
from aplab.rng import stream


def random_terms(rng, nvert, nterms):
    coefs = []
    masks = []
    for _ in range(nterms):
        size = int(rng.integers(0, nvert + 1))
        vs = sorted(rng.choice(nvert, size=size, replace=False).tolist())
        coefs.append(int(rng.integers(-4, 5)))
        masks.append(vs)
    return coefs, masks


def to_kernel_args(coefs, masks, nvert, signed):
    """Bitmasks and value rows of ``cube_enum_kernel`` for one of the two cubes.

    Row t, indexed by the number j of t's vertices a code sets, is
    c_t * (-1)^j on the {-1,+1} cube and c_t * [j = |t|] on the {0,1} cube.
    """
    bitmasks = [sum(1 << v for v in vs) for vs in masks]
    table = [[c * (-1) ** j if signed else c * (j == len(vs)) for j in range(nvert + 1)]
             for c, vs in zip(coefs, masks)]
    return np.array(bitmasks, dtype=np.uint64), np.array(table, dtype=np.int64)


def brute_pm(base, coefs, masks, nvert):
    best = 0
    for signs in product((1, -1), repeat=nvert):
        tot = base + sum(c * int(np.prod([signs[v] for v in vs]))
                         for c, vs in zip(coefs, masks))
        best = max(best, abs(tot))
    return best


def brute_01(base, coefs, masks, nvert):
    best = 0
    for bits in product((0, 1), repeat=nvert):
        tot = base + sum(c for c, vs in zip(coefs, masks)
                         if all(bits[v] for v in vs))
        best = max(best, abs(tot))
    return best


def brute_progressions(member, d, k):
    n = len(member)
    return sum(all(member[(x + step * d) % n] for step in range(k)) for x in range(n))


def to_mask(member):
    """The int bitmask of a 0/1 vector: bit v set when member[v] is 1."""
    return sum(1 << v for v in range(len(member)) if member[v])


def plain_apfree_search(nvert, target, edge_ptr, edge_vtx, edge_size,
                        v_ptr, v_edges, perms, removals):
    """Reference: the greedy search with every refill scanning all vertices."""
    best_size = 0
    best_mask = 0
    in_set = np.zeros(nvert, dtype=np.uint8)
    edge_in = np.zeros(edge_size.shape[0], dtype=np.int64)

    def blocked(v):
        return any(edge_in[v_edges[idx]] == edge_size[v_edges[idx]] - 1
                   for idx in range(v_ptr[v], v_ptr[v + 1]))

    def add(v, step):
        in_set[v] = 1 if step > 0 else 0
        for idx in range(v_ptr[v], v_ptr[v + 1]):
            edge_in[v_edges[idx]] += step

    for rs in range(perms.shape[0]):
        in_set[:] = 0
        edge_in[:] = 0
        size = 0
        for pos in range(nvert):
            v = perms[rs, pos]
            if not blocked(v):
                add(v, 1)
                size += 1
        if size > best_size:
            best_size = size
            best_mask = to_mask(in_set)
        if best_size >= target:
            return best_size, best_mask
        for sw in range(removals.shape[1]):
            if size == 0:
                break
            probe = removals[rs, sw] % nvert
            victim = next((probe + off) % nvert for off in range(nvert)
                          if in_set[(probe + off) % nvert])
            add(victim, -1)
            size -= 1
            for pos in range(nvert):
                v = perms[rs, pos]
                if v != victim and not in_set[v] and not blocked(v):
                    add(v, 1)
                    size += 1
            if size > best_size:
                best_size = size
                best_mask = to_mask(in_set)
            if best_size >= target:
                return best_size, best_mask
    return best_size, best_mask


def search_grid(seed):
    """Seeded (nvert, edge arrays, perms, removals) instances of the free-set search.

    Moduli run from 1 to 140, and each gets random differences for every
    k from 1 to 5.  Further sequences hold 0 (every vertex banned by a
    size-1 edge), N/2 and N/3 (progressions that revisit a point, so edges
    shorter than k).  Restart and pass counts cycle through (1, 32) x (0, 8).
    """
    rng = stream(seed, 0)
    shapes = [(1, 0), (1, 8), (32, 0), (32, 8)]
    count = 0
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 17, 24, 30, 41, 60, 64, 97, 127, 140):
        specials = [n // j for j in (2, 3) if n % j == 0]
        for extra in [[]] * 5 + [specials, [0]]:
            k = count % 5 + 1
            restarts, passes = shapes[count % 4]
            count += 1
            entries = list(rng.integers(0, n, size=int(rng.integers(1, 4)))) + extra
            edges = minimal_forbidden_sets(DifferenceSequence(n, tuple(entries)), k)
            ptr, vtx, v_ptr, v_edges = K.csr_incidence(edges, n)
            perms = np.stack([rng.permutation(n) for _ in range(restarts)]).astype(np.int64)
            removals = rng.integers(0, n, size=(restarts, passes), dtype=np.int64)
            yield n, (ptr, vtx, np.diff(ptr), v_ptr, v_edges), perms, removals


def test_apfree_search_matches_full_scan():
    """The incremental refill returns what a refill scanning every vertex returns.

    Targets: N+1 (never reached), the first restart's greedy size (reached
    in the first greedy pass), and the best size and one below it, which
    on some instances only a swap pass reaches.
    """
    swap_only = 0
    for n, arrays, perms, removals in search_grid(61):
        best, _ = plain_apfree_search(n, n + 1, *arrays, perms, removals)
        greedy, _ = plain_apfree_search(n, n + 1, *arrays, perms[:1], removals[:1, :0])
        no_swap, _ = plain_apfree_search(n, n + 1, *arrays, perms, removals[:, :0])
        swap_only += best > no_swap
        for target in {n + 1, greedy, best, best - 1}:
            want = plain_apfree_search(n, target, *arrays, perms, removals)
            got = K.apfree_search_kernel(n, target, *arrays, perms, removals)
            assert got == want, (n, target, perms.shape, removals.shape)
            assert type(got[1]) is int
    assert swap_only > 0


def test_apfree_search_ignores_edge_order_and_repeats():
    """Shuffled edges, reordered edge vertices and repeated edges give the same result.

    The instances are the grid's with swap passes and N > 20, N up to 140,
    where a member bitmask spans more than one machine word.
    """
    rng = stream(61, 1)
    moduli = set()
    for n, arrays, perms, removals in search_grid(61):
        if removals.shape[1] == 0 or n <= 20:
            continue
        moduli.add(n)
        ptr, vtx, sizes = arrays[:3]
        edges = [vtx[ptr[e]:ptr[e + 1]].tolist() for e in range(len(sizes))]
        mixed = [edges[e] for e in rng.permutation(len(edges))]
        mixed += [edges[e] for e in rng.choice(len(edges), size=len(edges) // 3)]
        mixed = [rng.permutation(e).tolist() for e in mixed]
        m_ptr, m_vtx, m_vptr, m_vedges = K.csr_incidence(mixed, n)
        for target in (n // 3, n + 1):
            want = K.apfree_search_kernel(n, target, *arrays, perms, removals)
            got = K.apfree_search_kernel(n, target, m_ptr, m_vtx, np.diff(m_ptr),
                                         m_vptr, m_vedges, perms, removals)
            assert got == want, (n, target)
    assert max(moduli) > 128


def test_pm_enumeration_matches_brute_force():
    rng = stream(31, 0)
    for _ in range(25):
        nvert = int(rng.integers(1, 9))
        coefs, masks = random_terms(rng, nvert, int(rng.integers(1, 7)))
        base = int(rng.integers(-3, 4))
        want = brute_pm(base, coefs, masks, nvert)
        assert K.cube_enum_kernel(nvert, base, *to_kernel_args(coefs, masks, nvert, True)) == want
    # 17 vertices span several chunks of codes
    assert K.cube_enum_kernel(17, 2, *to_kernel_args([1], [[0]], 17, True)) == 3
    # 1 - (-1)^j3 - (-1)^j_top is 3 only with bits 3 and top set, past the first chunk
    for nvert in (16, 17, 20):
        assert 1 << nvert > K._BATCH_ELEMS
        top = nvert - 1
        assert K.cube_enum_kernel(nvert, 1, *to_kernel_args([-1, -1], [[3], [top]], nvert, True)) == 3


def test_01_enumeration_matches_brute_force():
    rng = stream(31, 1)
    for _ in range(25):
        nvert = int(rng.integers(1, 9))
        coefs, masks = random_terms(rng, nvert, int(rng.integers(1, 7)))
        base = int(rng.integers(-3, 4))
        want = brute_01(base, coefs, masks, nvert)
        assert K.cube_enum_kernel(nvert, base, *to_kernel_args(coefs, masks, nvert, False)) == want
    assert K.cube_enum_kernel(17, 2, *to_kernel_args([1], [[0]], 17, False)) == 3
    # 2 + [bits 3 and top set] is 3 only there, in the last chunk
    for nvert in (16, 17, 20):
        top = nvert - 1
        assert K.cube_enum_kernel(nvert, 2, *to_kernel_args([1], [[3, top]], nvert, False)) == 3


def brute_infone(mat):
    """Value and first maximizing code of ||M^T u||_1 over all 2**d codes."""
    d = mat.shape[0]
    best, best_code = -1.0, 0
    shifts = np.arange(d, dtype=np.uint64)
    for start in range(0, 1 << d, 1 << 14):
        codes = np.arange(start, min(start + (1 << 14), 1 << d), dtype=np.uint64)
        signs = 1.0 - 2.0 * ((codes[:, None] >> shifts) & np.uint64(1)).astype(np.float64)
        vals = np.abs(signs @ mat).sum(axis=1)
        pos = int(np.argmax(vals))
        if vals[pos] > best:
            best, best_code = float(vals[pos]), start + pos
    return best, best_code


def test_infone_enumeration_matches_brute_force():
    """Value and first maximizing code, on random and tie-heavy matrices.

    Dimensions 12 to 19 straddle the kernel's edges: up to 13 every
    scanned bit indexes the 12-bit table, 14 and 16 add high blocks that
    fill one batch partly or exactly, and 17 to 19 need several batches.
    The rank-one v v^T has value ||v||_1^2 and maximizers +/- sign(v) on
    the support of v: at the enumeration limit, and at dimension 19 with v
    zero on six low entries (64 ties) and negative on entries 15 to 17
    with v_18 > 0, so every tie with u_18 = +1 lies in the last batch.
    """
    rng = stream(31, 2)
    mats = [rng.integers(-3, 4, size=(d, d)).astype(np.float64)
            for d in list(rng.integers(1, 12, size=20)) + [12, 13, 14, 16, 17, 18, 19]]
    row = np.array(rng.integers(-2, 3, size=9), dtype=np.float64)
    mats += [np.zeros((1, 1)), np.array([[-2.0]]), np.zeros((7, 7)), np.eye(1),
             np.eye(6), np.eye(17), np.tile(row, (9, 1)),
             np.vstack([row, row, -row, np.eye(9)[:6]])]
    for mat in mats:
        got = K.infone_enum_kernel(mat)
        assert got == brute_infone(mat), mat.shape
        assert got[1] < 1 << (mat.shape[0] - 1)  # u and -u tie; the first has u_last = +1
    d = K.ENUM_LIMIT
    v = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=d)
    val, u = norms.inf_to_one_exact(np.outer(v, v))
    assert val == np.abs(v).sum() ** 2
    assert u.tolist() == (np.sign(v) * np.sign(v[-1])).tolist()
    d = 19
    v = np.array([0] * 6 + [2, -1, 3, 1, -2, 1, 1, -3, 2, -1, -2, -3, 1], dtype=np.float64)
    val, code = K.infone_enum_kernel(np.outer(v, v))
    assert (val, code) == brute_infone(np.outer(v, v))
    assert val == np.abs(v).sum() ** 2
    assert code == sum(1 << b for b in range(d) if v[b] < 0)
    assert 1 << (d - 1) > K._BATCH_ELEMS
    assert code >= (1 << (d - 1)) - K._BATCH_ELEMS


def test_enumeration_working_set_is_bounded():
    """Traced allocation peaks: under 3 MiB for the inf->1 scan at dimension
    ``ENUM_LIMIT``, under 1 MiB for the cube scan at 20 vertices.

    A table over 16 low bits, or chunks of 2**16 codes, breaks the bounds.
    """
    rng = stream(31, 8)
    d = K.ENUM_LIMIT
    mat = rng.integers(-3, 4, size=(d, d)).astype(np.float64)
    coefs, masks = random_terms(rng, 20, 6)
    cube_args = to_kernel_args(coefs, masks, 20, True)
    tracemalloc.start()
    try:
        K.infone_enum_kernel(mat)
        infone_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        K.cube_enum_kernel(20, 1, *cube_args)
        cube_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert infone_peak < 3 << 20, infone_peak
    assert cube_peak < 1 << 20, cube_peak


def test_single_difference_agrees_with_brute_force():
    """``ap_average`` of one difference on the bitmask and the brute-force count
    on the 0/1 vector agree."""
    rng = stream(31, 3)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        member = (rng.random(n) < 0.5).astype(np.uint8)
        d = int(rng.integers(0, n))
        k = int(rng.integers(2, 6))
        want = RationalCount(brute_progressions(member, d, k), n)
        assert ap_average(to_mask(member), DifferenceSequence(n, (d,)), k) == want


def test_all_diffs_kernel_paths_agree():
    """``ap_average`` over the sequence 0..N-1 and the brute-force count over
    every difference agree."""
    rng = stream(31, 4)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        member = (rng.random(n) < 0.6).astype(np.uint8)
        k = int(rng.integers(2, 5))
        want = sum(brute_progressions(member, d, k) for d in range(n))
        every = DifferenceSequence(n, tuple(range(n)))
        assert ap_average(to_mask(member), every, k) == RationalCount(want, n * n)


def test_poly_eval_kernel_paths_agree():
    """``poly_eval01_kernel`` and the brute-force path agree."""
    rng = stream(31, 5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        nedges = int(rng.integers(1, 8))
        edges = [sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                                   replace=False).tolist())
                 for _ in range(nedges)]
        mult = np.array(rng.integers(1, 4, size=nedges), dtype=np.int64)
        x = (rng.random(n) < 0.5).astype(np.uint8)
        ptr, vtx, _, _ = K.csr_incidence(edges, n)
        rows = np.stack([x, 1 - x, np.ones_like(x)])
        want = [sum(int(c) for c, e in zip(mult, edges) if all(row[v] for v in e))
                for row in rows]
        assert K.poly_eval01_kernel(ptr, vtx, mult, x) == want[0]
        # a stack of rows gives one value per row
        assert K.poly_eval01_kernel(ptr, vtx, mult, rows).tolist() == want


def test_csr_incidence_matches_lists():
    rng = stream(31, 7)
    for _ in range(20):
        n = int(rng.integers(1, 12))
        sets = [tuple(rng.permutation(n)[:int(rng.integers(0, n + 1))].tolist())
                for _ in range(int(rng.integers(0, 9)))]
        ptr, vtx, v_ptr, v_items = K.csr_incidence(sets, n)
        assert [tuple(vtx[ptr[i]:ptr[i + 1]].tolist()) for i in range(len(sets))] == sets
        want = [[i for i, s in enumerate(sets) if v in s] for v in range(n)]
        assert [v_items[v_ptr[v]:v_ptr[v + 1]].tolist() for v in range(n)] == want
        assert all(a.dtype == np.int64 for a in (ptr, vtx, v_ptr, v_items))
