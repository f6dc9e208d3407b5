"""Each kernel against a brute-force oracle written out in this file.

Witness vectors are not unique when several assignments tie, so the
enumeration tests check that the reported witness attains the value.
"""
from itertools import product

import numpy as np

from aplab import _kernels as K
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


def to_kernel_args(coefs, masks):
    bitmasks = [sum(1 << v for v in vs) for vs in masks]
    return np.array(coefs, dtype=np.int64), np.array(bitmasks, dtype=np.uint64)


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


def brute_ap_count(member, d, k):
    n = len(member)
    return sum(all(member[(x + step * d) % n] for step in range(k)) for x in range(n))


def brute_row_weight(u, d_i, good, r, n):
    def window(x, d):
        return sum(int(u[(x + step * d) % n]) for step in range(1, 2 * r + 1))

    return sum(1 for d_j in good for x in range(n)
               if window(x, d_i) == r and window(x, int(d_j)) == r)


def test_pm_enumeration_matches_brute_force():
    rng = stream(31, 0)
    for _ in range(25):
        nvert = int(rng.integers(1, 9))
        coefs, masks = random_terms(rng, nvert, int(rng.integers(1, 7)))
        base = int(rng.integers(-3, 4))
        want = brute_pm(base, coefs, masks, nvert)
        got, mask = K.pm_enum_kernel(nvert, base, *to_kernel_args(coefs, masks))
        assert got == want
        signs = [-1 if (int(mask) >> v) & 1 else 1 for v in range(nvert)]
        tot = base + sum(c * int(np.prod([signs[v] for v in vs]))
                         for c, vs in zip(coefs, masks))
        assert abs(tot) == want


def test_01_enumeration_matches_brute_force():
    rng = stream(31, 1)
    for _ in range(25):
        nvert = int(rng.integers(1, 9))
        coefs, masks = random_terms(rng, nvert, int(rng.integers(1, 7)))
        base = int(rng.integers(-3, 4))
        want = brute_01(base, coefs, masks, nvert)
        got, mask = K.z01_enum_kernel(nvert, base, *to_kernel_args(coefs, masks))
        assert got == want
        bits = [(int(mask) >> v) & 1 for v in range(nvert)]
        tot = base + sum(c for c, vs in zip(coefs, masks)
                         if all(bits[v] for v in vs))
        assert abs(tot) == want


def test_infone_enumeration_matches_brute_force():
    rng = stream(31, 2)
    for _ in range(20):
        d = int(rng.integers(1, 8))
        mat = rng.integers(-3, 4, size=(d, d)).astype(np.float64)
        want = 0.0
        for signs in product((1.0, -1.0), repeat=d):
            want = max(want, float(np.abs(np.array(signs) @ mat).sum()))
        got, _ = K.infone_enum_kernel(mat)
        assert got == want


def test_ap_count_kernel_paths_agree():
    """``ap_count_kernel`` and the brute-force path agree."""
    rng = stream(31, 3)
    for _ in range(30):
        n = int(rng.integers(2, 20))
        member = (rng.random(n) < 0.5).astype(np.uint8)
        d = int(rng.integers(0, n))
        k = int(rng.integers(2, 6))
        assert K.ap_count_kernel(member, d, k) == brute_ap_count(member, d, k)


def test_all_diffs_kernel_paths_agree():
    """``all_diffs_count_kernel`` and the brute-force path agree."""
    rng = stream(31, 4)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        member = (rng.random(n) < 0.6).astype(np.uint8)
        k = int(rng.integers(2, 5))
        want = sum(brute_ap_count(member, d, k) for d in range(n))
        assert K.all_diffs_count_kernel(member, k) == want


def test_poly_eval_kernel_paths_agree():
    """``poly_eval01_kernel`` and the brute-force path agree."""
    rng = stream(31, 5)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        nedges = int(rng.integers(1, 8))
        edges = [sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                                   replace=False).tolist())
                 for _ in range(nedges)]
        mult = rng.integers(1, 4, size=nedges).astype(np.int64)
        x = (rng.random(n) < 0.5).astype(np.uint8)
        ptr, vtx, _, _ = K.csr_incidence(edges, n)
        want = sum(int(c) for c, e in zip(mult, edges) if all(x[v] for v in e))
        assert K.poly_eval01_kernel(ptr, vtx, mult, x) == want


def test_row_weight_kernel_paths_agree():
    """``row_weight_kernel`` and the brute-force path agree."""
    rng = stream(31, 6)
    for _ in range(20):
        n = int(rng.integers(5, 14))
        m = int(rng.integers(2, 5))
        r = int(rng.integers(1, 3))
        diffs = rng.integers(0, n, size=m).astype(np.int64)
        good = np.arange(1, m, dtype=np.int64)
        u = (rng.random(n) < 0.3).astype(np.uint8)
        want = brute_row_weight(u, int(diffs[0]), diffs[good], r, n)
        assert K.row_weight_kernel(u, int(diffs[0]), diffs[good], r, n) == want


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
