"""Subset-pair matrix construction, identities, pruning, the bound chain."""
from itertools import combinations
from math import comb

import numpy as np
import pytest
from oracles import prune, row_weights

from aplab import _kernels, norms
from aplab import embedding as E
from aplab.counting import DifferenceSequence
from aplab.discrepancy import IndexPartition, is_good_pair
from aplab.groups import default_block_size
from aplab.rng import spawn_signs, stream


def colex_rank(sub):
    """Position of the sorted subset a_0 < a_1 < ... in colex order."""
    return sum(comb(a, i + 1) for i, a in enumerate(sub))


def test_indexer_is_colex_bijection():
    for n, s in ((6, 3), (9, 2), (5, 5), (4, 0), (7, 1), (0, 0), (1, 1), (12, 5)):
        subs = E.colex_subsets(n, s)
        assert len(subs) == len(set(subs)) == comb(n, s)
        for pos, sub in enumerate(subs):
            assert list(sub) == sorted(set(sub)) and all(0 <= a < n for a in sub)
            assert colex_rank(sub) == pos


def test_lift_signs_products():
    z = np.array([1, -1, 1, -1], dtype=np.int64)
    lift = E.lift_signs(z, 2)
    assert lift[colex_rank((1, 3))] == 1
    assert lift[colex_rank((0, 1))] == -1
    for sub in combinations(range(4), 2):
        assert lift[colex_rank(sub)] == z[list(sub)].prod()
    assert E.lift_signs(z, 0).tolist() == [1]  # the empty product
    assert E.lift_signs(z, 4).tolist() == [1]  # the one 4-subset
    assert E.lift_signs(z[:3], 3).tolist() == [-1]
    assert E.lift_signs(np.ones(0, dtype=np.int64), 0).tolist() == [1]
    with pytest.raises(ValueError):
        E.lift_signs([1, 0, -1], 2)


def _union_window_sum(seq, i, j, r, z):
    """Reference: sum_x of the product of z over the set union of both windows."""
    n = seq.n
    total = 0
    for x in range(n):
        union = {(x + step * d) % n for d in (seq.entries[i], seq.entries[j])
                 for step in range(1, 2 * r + 1)}
        total += int(np.prod([z[y] for y in union]))
    return total


def test_pair_window_sum_matches_union_window_loop():
    rng = stream(61, 3)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(5, 30))
        r = int(rng.integers(1, 3))
        seq = DifferenceSequence.sample(n, 3, rng)
        i, j = (int(v) for v in rng.choice(3, size=2, replace=False))
        if not is_good_pair(seq, i, j, r):
            continue
        z = spawn_signs(rng, n).astype(np.int64)
        assert E.pair_window_sum(seq, i, j, r, z) == _union_window_sum(seq, i, j, r, z)
        checked += 1


def test_good_pair():
    seq = DifferenceSequence(11, (1, 3))
    assert is_good_pair(seq, 0, 1, 1)  # {1,2} vs {3,6} disjoint
    seq2 = DifferenceSequence(7, (1, 2))
    assert not is_good_pair(seq2, 0, 1, 1)  # {1,2} meets {2,4}
    with pytest.raises(ValueError):
        E.pair_window_sum(seq2, 0, 1, 1, np.ones(7, dtype=np.int64))


def test_pair_embedding_totals():
    seq = DifferenceSequence(11, (1, 3))
    mat = E.pair_embedding(seq, 0, 1, 2, 1)
    assert mat.dim == comb(11, 2) == 55
    assert sum(mat.entries.values()) == 44
    assert E.embedding_scale(11, 2, 1) * 11 == 44
    assert E.embedding_scale(11, 2, 1) == comb(2, 1) ** 2 * comb(7, 0)
    dense = mat.to_dense()
    assert (dense == dense.T).all()
    # non-good pair gives the zero matrix
    bad = E.pair_embedding(DifferenceSequence(7, (1, 2)), 0, 1, 2, 1)
    assert bad.nnz() == 0


def test_pair_embedding_entries_brute_force():
    """Rebuild the matrix definition directly from set conditions."""
    n, s, r = 9, 3, 1
    seq = DifferenceSequence(n, (1, 4))
    assert is_good_pair(seq, 0, 1, r)
    mat = E.pair_embedding(seq, 0, 1, s, r)
    d_i, d_j = seq.entries
    direct = {}
    for x in range(n):
        wi = {(x + step * d_i) % n for step in range(1, 2 * r + 1)}
        wj = {(x + step * d_j) % n for step in range(1, 2 * r + 1)}
        union = wi | wj
        for sub_s in combinations(range(n), s):
            ss = set(sub_s)
            if len(ss & wi) != r or len(ss & wj) != r:
                continue
            tt = ss ^ union
            if len(tt) != s:
                continue
            if len(tt & wi) != r or len(tt & wj) != r:
                continue
            key = (colex_rank(sub_s), colex_rank(sorted(tt)))
            direct[key] = direct.get(key, 0) + 1
    assert dict(mat.entries) == direct


def test_embedding_identity_random_z():
    seq = DifferenceSequence(11, (1, 3))
    mat = E.pair_embedding(seq, 0, 1, 2, 1)
    rng = stream(61, 0)
    for _ in range(25):
        z = spawn_signs(rng, 11).astype(np.int64)
        quad, rhs = E.identity_sides(seq, 0, 1, mat, z)
        assert quad == rhs


def test_quadratic_and_bilinear_forms():
    seq = DifferenceSequence(11, (1, 3))
    mat = E.pair_embedding(seq, 0, 1, 2, 1)
    ones = np.ones(mat.dim, dtype=np.int64)
    assert mat.quadratic_form(ones) == sum(mat.entries.values())
    dense = mat.to_dense()
    v = spawn_signs(stream(61, 1), mat.dim).astype(np.int64)
    assert mat.quadratic_form(v) == int(v @ dense @ v)


def test_scale_add_and_aggregate():
    seq = DifferenceSequence(11, (1, 3, 5))
    m01 = E.pair_embedding(seq, 0, 1, 2, 1)
    m02 = E.pair_embedding(seq, 0, 2, 2, 1)
    agg = m01.scale_add([(-2, m02)])
    dense = m01.to_dense() - 2 * m02.to_dense()
    assert (agg.to_dense() == dense).all()
    tau = np.array([1, -1], dtype=np.int64)
    agg2 = E.aggregate_pair_embeddings(seq, 0, tau, (1, 2), 2, 1)
    assert agg2.entries == m01.scale_add([(-1, m02)]).entries


def test_prune_semantics():
    seq = DifferenceSequence(5, (1, 4))
    mat = E.pair_embedding(seq, 0, 1, 2, 1)
    weights = row_weights(mat)
    thr = float(weights.max())  # prune the heaviest rows
    pruned, zeroed = prune(mat, thr)
    assert zeroed == tuple(int(i) for i in np.flatnonzero(weights >= thr))
    surv = row_weights(pruned)
    assert (surv < thr).all()
    assert (pruned.to_dense() == pruned.to_dense().T).all()


def test_dimension_cap():
    seq = DifferenceSequence(30, (1, 7))
    assert comb(30, 5) > E.DIMENSION_CAP
    with pytest.raises(ValueError, match="dimension cap"):
        E.pair_embedding(seq, 0, 1, 5, 1)


def test_default_thresholds():
    assert default_block_size(27, 3) == 3  # cube root of 27


def test_lower_bound_chain_exact_instance():
    seq = DifferenceSequence(7, (1, 2, 3, 5))
    part = IndexPartition((0, 1), (2, 3))
    rng = stream(61, 2)
    sigma = spawn_signs(rng, 2)
    tau = spawn_signs(rng, 2)
    z = spawn_signs(rng, 7)
    report = E.verify_lower_bound_chain(seq, part, sigma, tau, 2, 1, z)
    assert report.identity_ok
    assert report.quadratic == report.closed_form
    assert report.ok
    assert report.norm_lower <= report.spectral_upper + 1e-6


def test_lower_bound_chain_exact_norm_can_fail(monkeypatch):
    seq = DifferenceSequence(7, (1, 2, 3, 5))
    part = IndexPartition((0, 1), (2, 3))
    signs = np.ones(2, dtype=np.int64)
    z = np.ones(7, dtype=np.int64)
    assert E.verify_lower_bound_chain(seq, part, signs, signs, 2, 1, z).ok
    monkeypatch.setattr(norms, "inf_to_one_exact",
                        lambda mat: (0.0, np.ones(mat.shape[0], dtype=np.int64)))
    report = E.verify_lower_bound_chain(seq, part, signs, signs, 2, 1, z)
    assert report.identity_ok and report.quadratic != 0
    assert not report.ok


def test_lower_bound_chain_dim_spectral_can_fail(monkeypatch):
    seq = DifferenceSequence(7, (1, 2, 3, 5))
    part = IndexPartition((0, 1), (2, 3))
    signs = np.ones(2, dtype=np.int64)
    z = np.ones(7, dtype=np.int64)
    monkeypatch.setattr(norms, "spectral_norm", lambda mat: 0.0)
    report = E.verify_lower_bound_chain(seq, part, signs, signs, 2, 1, z)
    assert report.identity_ok and report.quadratic != 0
    assert report.norm_lower >= abs(report.quadratic)
    assert not report.ok


def test_lower_bound_chain_above_enumeration_limit():
    """The chain enumerates the inf->1 norm, so dim comb(9, 2) = 36 is refused."""
    seq = DifferenceSequence(9, (1, 2, 3, 4))
    part = IndexPartition((0, 1), (2, 3))
    signs = np.ones(2, dtype=np.int64)
    assert comb(9, 2) > _kernels.ENUM_LIMIT
    with pytest.raises(ValueError, match="exact inf->1 limited"):
        E.verify_lower_bound_chain(seq, part, signs, signs, 2, 1, np.ones(9, dtype=np.int64))
