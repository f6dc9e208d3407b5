"""Operator norms: exact enumeration, dense spectral norm, bounds, sign sums."""
from itertools import product
from math import log, sqrt

import numpy as np
import pytest

from aplab import _kernels
from aplab import norms as N
from aplab.counting import DifferenceSequence
from aplab.embedding import pair_embedding
from aplab.rng import stream


def test_identity_matrix():
    eye = np.eye(8)
    assert N.spectral_norm(eye) == pytest.approx(1.0)
    val, u = N.inf_to_one_exact(eye)
    assert val == 8.0
    assert np.abs(eye @ u).sum() == 8.0
    assert N.one_to_one_norm(eye) == 1.0


def test_rank_one_and_diagonal():
    v = np.array([3.0, -4.0])
    mat = np.outer(v, v)  # spectral norm 25
    assert N.spectral_norm(mat) == pytest.approx(25.0)
    diag = np.diag([1.0, -7.0, 2.0])
    assert N.spectral_norm(diag) == pytest.approx(7.0)
    assert N.one_to_one_norm(diag) == 7.0
    val, _ = N.inf_to_one_exact(diag)
    assert val == 10.0  # signs select every diagonal magnitude


def test_inf_to_one_exact_matches_double_enumeration():
    """Value and first maximizer, also with zero rows, which are not enumerated."""
    rng = stream(83, 0)
    holes = stream(83, 11)
    for _ in range(25):
        d = int(rng.integers(1, 9))
        mat = rng.integers(-3, 4, size=(d, d)).astype(np.float64)
        zeroed = mat.copy()
        zeroed[holes.random(d) < 0.4] = 0.0
        for m in (mat, zeroed):
            val, u = N.inf_to_one_exact(m)
            values = [np.abs(np.array(us) @ m).sum()
                      for us in product((1.0, -1.0), repeat=d)]
            assert val == max(values)
            assert np.abs(u @ m).sum() == val
            # the first maximizer in code order, bit b set when u_b = -1
            codes = [sum(1 << b for b, s in enumerate(us) if s < 0)
                     for us in product((1.0, -1.0), repeat=d)]
            first = min(c for c, v in zip(codes, values) if v == val)
            assert sum(1 << b for b in range(d) if u[b] < 0) == first
            assert (u[~m.any(axis=1)] == 1).all()


def test_inf_to_one_exact_all_zero_at_limit():
    d = _kernels.ENUM_LIMIT
    val, u = N.inf_to_one_exact(np.zeros((d, d)))
    assert val == 0.0
    assert u.tolist() == [1] * d


def test_inf_to_one_bounds_sandwich():
    rng = stream(83, 1)
    for _ in range(15):
        d = int(rng.integers(2, 12))
        mat = rng.integers(-5, 6, size=(d, d)).astype(np.float64)
        exact, _ = N.inf_to_one_exact(mat)
        lo, up = N.inf_to_one_bounds(mat, N.spectral_norm(mat), rng)
        assert lo <= exact + 1e-9
        assert exact <= up + 1e-9
    dim = 600
    lo, up = N.inf_to_one_bounds(np.eye(dim), 1.0, rng)
    assert lo == dim
    assert lo <= up


def test_spectral_norm_on_embedding_matrix():
    seq = DifferenceSequence(11, (1, 3))
    dense = pair_embedding(seq, 0, 1, 2, 1).to_dense()
    assert N.spectral_norm(dense) == np.linalg.norm(dense, 2)
    assert N.spectral_norm(np.zeros((0, 0))) == 0.0
    with pytest.raises(ValueError):
        N.spectral_norm(np.ones((2, 3)))


def test_one_to_one_norm_is_max_column_mass():
    rng = stream(83, 3)
    mat = rng.integers(-4, 5, size=(7, 7)).astype(np.float64)
    want = np.abs(mat).sum(axis=0).max()
    assert N.one_to_one_norm(mat) == want
    seq = DifferenceSequence(11, (1, 3))
    emb = pair_embedding(seq, 0, 1, 2, 1)
    want = max(sum(abs(v) for (_, col), v in emb.entries.items() if col == c)
               for c in range(emb.dim))
    assert N.one_to_one_norm(emb.to_dense()) == want
    assert N.one_to_one_norm(np.zeros((0, 0))) == 0.0


def test_norm_report_consistency():
    rng = stream(83, 4)
    half = rng.integers(-3, 4, size=(10, 10))
    mat = (half + half.T).astype(np.float64)
    rep = N.norm_report(mat, rng)
    assert rep.dim == 10
    assert rep.inf_to_one_exact is not None
    assert rep.inf_to_one_lower == rep.inf_to_one_exact == rep.inf_to_one_upper
    assert rep.inf_to_one_exact <= rep.dim * rep.spectral + 1e-6
    assert rep.spectral <= rep.one_to_one + 1e-9
    big = rng.standard_normal((30, 30))
    rep2 = N.norm_report(big, rng)
    assert rep2.inf_to_one_exact is None
    assert rep2.inf_to_one_lower <= rep2.inf_to_one_upper


def test_norm_report_solves_the_spectral_norm_once(monkeypatch):
    calls = []
    solve = N.spectral_norm

    def counted(mat):
        calls.append(mat.shape)
        return solve(mat)

    monkeypatch.setattr(N, "spectral_norm", counted)
    big = stream(83, 9).standard_normal((30, 30))
    assert 30 > _kernels.ENUM_LIMIT  # the inf->1 bracket path
    rep = N.norm_report(big, stream(83, 10))
    assert calls == [(30, 30)]
    assert rep.spectral == pytest.approx(np.linalg.norm(big, 2))
    assert rep.inf_to_one_lower <= rep.inf_to_one_upper


def test_enumeration_limit_is_read_at_call_time(monkeypatch):
    mat = np.eye(5)
    assert N.inf_to_one_exact(mat)[0] == 5.0
    monkeypatch.setattr(_kernels, "ENUM_LIMIT", 4)
    with pytest.raises(ValueError):
        N.inf_to_one_exact(mat)
    rep = N.norm_report(mat, stream(83, 12))
    assert rep.inf_to_one_exact is None
    assert rep.inf_to_one_lower == 5.0


def test_khintchine_bound_formula():
    mats = [np.eye(4), 2 * np.eye(4)]
    want = 10.0 * sqrt(log(4)) * sqrt(1.0 + 4.0)
    assert N.khintchine_bound(mats) == pytest.approx(want)
    with pytest.raises(ValueError):
        N.khintchine_bound([])
    with pytest.raises(ValueError):
        N.khintchine_bound([np.eye(1)])  # log 1 = 0 makes the bound empty
    with pytest.raises(ValueError):
        N.khintchine_bound([np.eye(3), np.eye(4)])


def test_khintchine_bench_within_bound():
    rng = stream(83, 5)
    mats = [rng.standard_normal((12, 12)) for _ in range(6)]
    rep = N.khintchine_bench(mats, 200, stream(83, 6))
    assert rep.dim == 12 and rep.count == 6 and rep.trials == 200
    assert rep.mean_norm <= rep.max_norm <= rep.bound
    assert rep.mean_ratio == pytest.approx(rep.mean_norm / rep.bound)
    # ratios stay well inside 1 because the constant is generous
    assert rep.max_ratio < 0.5


def test_khintchine_bench_deterministic():
    mats = [stream(83, 7).standard_normal((8, 8)) for _ in range(4)]
    a = N.khintchine_bench(mats, 50, stream(83, 8))
    b = N.khintchine_bench(mats, 50, stream(83, 8))
    assert a.mean_norm == b.mean_norm and a.max_norm == b.max_norm
