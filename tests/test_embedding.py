"""Subset-pair matrix construction, identities, pruning, the bound chain."""
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from aplab import embedding as E
from aplab import norms
from aplab.counting import DifferenceSequence
from aplab.discrepancy import IndexPartition
from aplab.groups import Group
from aplab.rng import spawn_signs, stream


def test_indexer_is_colex_bijection():
    for n, s in ((6, 3), (9, 2), (5, 5), (4, 0), (7, 1)):
        ix = E.SubsetIndexer(n, s)
        subs = list(ix.iter_subsets())
        assert len(subs) == comb(n, s)
        assert subs == sorted(subs, key=lambda t: t[::-1])  # colex order
        for rank, sub in enumerate(subs):
            assert ix.rank(sub) == rank
            assert ix.unrank(rank) == sub
    with pytest.raises(ValueError):
        E.SubsetIndexer(5, 2).rank((3, 3))
    with pytest.raises(ValueError):
        E.SubsetIndexer(5, 2).rank((0, 5))


def test_lift_signs_products():
    z = np.array([1, -1, 1, -1], dtype=np.int64)
    lift = E.lift_signs(z, 2)
    ix = E.SubsetIndexer(4, 2)
    assert lift[ix.rank((1, 3))] == 1
    assert lift[ix.rank((0, 1))] == -1
    for sub in ix.iter_subsets():
        assert lift[ix.rank(sub)] == z[list(sub)].prod()


def test_good_pair():
    seq = DifferenceSequence(Group(11), (1, 3))
    assert E.is_good_pair(seq, 0, 1, 1)  # {1,2} vs {3,6} disjoint
    seq2 = DifferenceSequence(Group(7), (1, 2))
    assert not E.is_good_pair(seq2, 0, 1, 1)  # {1,2} meets {2,4}


def test_pair_embedding_totals():
    seq = DifferenceSequence(Group(11), (1, 3))
    mat = E.pair_embedding(seq, 0, 1, 2, 1, 20000)
    assert mat.dim == comb(11, 2) == 55
    assert mat.total() == 44
    assert E.embedding_total_closed_form(11, 2, 1) == 44
    assert E.embedding_scale(11, 2, 1) == comb(2, 1) ** 2 * comb(7, 0)
    assert mat.is_symmetric()
    # non-good pair gives the zero matrix
    bad = E.pair_embedding(DifferenceSequence(Group(7), (1, 2)), 0, 1, 2, 1, 20000)
    assert bad.nnz() == 0


def test_pair_embedding_entries_brute_force():
    """Rebuild the matrix definition directly from set conditions."""
    n, s, r = 9, 3, 1
    g = Group(n)
    seq = DifferenceSequence(g, (1, 4))
    assert E.is_good_pair(seq, 0, 1, r)
    mat = E.pair_embedding(seq, 0, 1, s, r, 20000)
    ix = E.SubsetIndexer(n, s)
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
            key = (ix.rank(sub_s), ix.rank(tuple(sorted(tt))))
            direct[key] = direct.get(key, 0) + 1
    assert dict(mat.entries) == direct


def test_embedding_identity_random_z():
    seq = DifferenceSequence(Group(11), (1, 3))
    rng = stream(61, 0)
    for _ in range(25):
        z = spawn_signs(rng, 11).astype(np.int64)
        assert E.verify_embedding_identity(seq, 0, 1, 2, 1, z, 20000)


def test_quadratic_and_bilinear_forms():
    seq = DifferenceSequence(Group(11), (1, 3))
    mat = E.pair_embedding(seq, 0, 1, 2, 1, 20000)
    ones = np.ones(mat.dim, dtype=np.int64)
    assert mat.quadratic_form(ones) == mat.total()
    dense = mat.to_dense()
    v = spawn_signs(stream(61, 1), mat.dim).astype(np.int64)
    assert mat.quadratic_form(v) == int(v @ dense @ v)


def test_scale_add_and_aggregate():
    g = Group(11)
    seq = DifferenceSequence(g, (1, 3, 5))
    m01 = E.pair_embedding(seq, 0, 1, 2, 1, 20000)
    m02 = E.pair_embedding(seq, 0, 2, 2, 1, 20000)
    agg = m01.scale_add([(-2, m02)])
    dense = m01.to_dense() - 2 * m02.to_dense()
    assert np.array_equal(agg.to_dense(), dense)
    tau = np.array([1, -1], dtype=np.int64)
    agg2 = E.aggregate_pair_embeddings(seq, 0, tau, (1, 2), 2, 1, 20000)
    assert agg2 == m01.scale_add([(-1, m02)])


def test_prune_semantics():
    g = Group(5)
    seq = DifferenceSequence(g, (1, 4))
    mat = E.pair_embedding(seq, 0, 1, 2, 1, 20000)
    weights = mat.row_weights()
    thr = float(weights.max())  # prune the heaviest rows
    pruned, zeroed = mat.prune(thr)
    assert zeroed == tuple(int(i) for i in np.flatnonzero(weights >= thr))
    surv = pruned.row_weights()
    assert (surv < thr).all()
    assert pruned.is_symmetric()
    # removed mass bounds any operator norm of the difference
    dist = E.prune_distance(mat, pruned)
    diff = mat.to_dense() - pruned.to_dense()
    assert dist == np.abs(diff).sum()


def test_dimension_cap():
    seq = DifferenceSequence(Group(30), (1, 7))
    with pytest.raises(E.DimensionCapError):
        E.pair_embedding(seq, 0, 1, 5, 1, 1000)  # C(30,5) is way past 1000


def test_default_thresholds():
    assert E.default_block_size(27, 3) == 3  # cube root of 27
    thr = E.default_prune_threshold(11, 3, 4)
    assert thr == pytest.approx((np.log(11) ** 3) * 4 / 11 ** (1 / 3))


def test_lower_bound_chain_exact_instance():
    g = Group(7)
    seq = DifferenceSequence(g, (1, 2, 3, 5))
    part = IndexPartition((0, 1), (2, 3))
    rng = stream(61, 2)
    sigma = spawn_signs(rng, 2)
    tau = spawn_signs(rng, 2)
    z = spawn_signs(rng, 7)
    report = E.verify_lower_bound_chain(seq, part, sigma, tau, 2, 1, z,
                                        dimension_cap=20000)
    assert report.identity_ok
    assert report.quadratic == report.closed_form
    assert report.norm_is_exact  # dim 21 is inside the enumeration budget
    assert report.ok
    assert report.norm_lower <= report.spectral_upper + 1e-6


def test_lower_bound_chain_exact_norm_can_fail(monkeypatch):
    seq = DifferenceSequence(Group(7), (1, 2, 3, 5))
    part = IndexPartition((0, 1), (2, 3))
    signs = np.ones(2, dtype=np.int64)
    z = np.ones(7, dtype=np.int64)
    assert E.verify_lower_bound_chain(seq, part, signs, signs, 2, 1, z).ok
    monkeypatch.setattr(norms, "inf_to_one_exact",
                        lambda mat: (0.0, np.ones(mat.shape[0], dtype=np.int64)))
    report = E.verify_lower_bound_chain(seq, part, signs, signs, 2, 1, z)
    assert report.norm_is_exact and report.quadratic != 0
    assert not report.ok


def test_lower_bound_chain_above_enumeration_limit(monkeypatch):
    # dim comb(9, 2) = 36 is past the enumeration budget, so norm_lower is
    # |quadratic| and only the identity and dim * spectral can fail
    seq = DifferenceSequence(Group(9), (1, 2, 3, 4))
    part = IndexPartition((0, 1), (2, 3))
    signs = np.ones(2, dtype=np.int64)
    z = np.ones(9, dtype=np.int64)
    z[-1] = -1
    report = E.verify_lower_bound_chain(seq, part, signs, signs, 2, 1, z)
    assert not report.norm_is_exact
    assert report.quadratic == report.closed_form == 12
    assert report.norm_lower == abs(report.quadratic)
    assert report.ok
    monkeypatch.setattr(norms, "spectral_norm", lambda mat: (0.0, True))
    report = E.verify_lower_bound_chain(seq, part, signs, signs, 2, 1, z)
    assert report.identity_ok and not report.ok
