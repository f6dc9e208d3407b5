"""Operator norms for subset-indexed matrices and the random sign-sum bench.

Three norms appear in the pruning argument: the spectral norm, the
inf->1 norm (max of u^T M v over sign vectors), and the 1->1 norm (max
column l1 weight).  They satisfy, for symmetric M of dimension d,

    inf_to_one(M) <= d * spectral(M)     and     spectral(M) <= one_to_one(M),

and the inf->1 norm never exceeds the total l1 mass of the entries.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt
from typing import Optional

import numpy as np

from . import _kernels
from .rng import spawn_signs, stream

# Dimensions up to this go through dense solves; read at call time.
DENSE_LIMIT = 512
POWER_TOL = 1e-10
POWER_MAX_ITER = 100000
ASCENT_RESTARTS = 16


def _as_dense_or_sparse(mat):
    """Normalize input to ('dense', ndarray) or ('sparse', csr)."""
    if hasattr(mat, "to_sparse") and hasattr(mat, "dim"):  # EmbeddingMatrix
        if mat.dim <= DENSE_LIMIT:
            return "dense", mat.to_dense()
        return "sparse", mat.to_sparse()
    arr = np.asarray(mat, dtype=np.float64) if not hasattr(mat, "tocsr") else mat
    if hasattr(arr, "tocsr"):
        sp = arr.tocsr()
        if sp.shape[0] <= DENSE_LIMIT:
            return "dense", sp.toarray()
        return "sparse", sp
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    if arr.shape[0] <= DENSE_LIMIT:
        return "dense", arr
    from scipy.sparse import csr_matrix

    return "sparse", csr_matrix(arr)


def spectral_norm(mat) -> tuple[float, bool]:
    """Largest singular value and a convergence flag.

    Matrices up to ``DENSE_LIMIT`` go through a dense solve (always
    converged).  Larger ones run power iteration on M^T M, never on M
    itself: when the spectrum straddles +/- the same magnitude the plain
    iteration alternates and its Rayleigh quotient freezes at a wrong
    value, while on the positive-semidefinite M^T M the quotient equals
    ||Mv||^2 and climbs monotonically to the squared norm.  It climbs
    from below, so the iterated value never exceeds the true norm.
    """
    kind, obj = _as_dense_or_sparse(mat)
    if kind == "dense":
        if obj.shape[0] == 0:
            return 0.0, True
        return float(np.linalg.norm(obj, 2)), True
    a = obj
    at = a.T.tocsr()
    dim = a.shape[0]
    rng = stream(0, 977)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    prev = None
    lam2 = 0.0
    for _ in range(POWER_MAX_ITER):
        av = a @ v
        lam2 = float(av @ av)  # Rayleigh quotient of M^T M at unit v
        w = at @ av
        nw = float(np.linalg.norm(w))
        if nw < 1e-300:
            return 0.0, True
        v = w / nw
        if prev is not None and abs(lam2 - prev) <= POWER_TOL * max(1.0, lam2):
            return sqrt(lam2), True
        prev = lam2
    return sqrt(lam2), False


def inf_to_one_exact(mat) -> tuple[float, np.ndarray]:
    """Exact max of u^T M v over sign vectors, with the maximizing u.

    Only u is enumerated; the optimal v is sign(M^T u) with ties going
    to +1, so the value is max over u of ||M^T u||_1.  Feasible for
    dimension <= ``_kernels.ENUM_LIMIT``.  For integer-valued M (every
    caller in the package) the value and u are exact: u is the first
    maximizer in code order, and its last entry is +1.  Other input gets
    the maximum up to float rounding.
    """
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    d = arr.shape[0]
    if d > _kernels.ENUM_LIMIT:
        raise ValueError(f"exact inf->1 limited to dimension {_kernels.ENUM_LIMIT}")
    if d == 0:
        return 0.0, np.ones(0, dtype=np.int64)
    best, mask = _kernels.infone_enum_kernel(arr)
    return float(best), 1 - 2 * _kernels.bit_vector(mask, d).astype(np.int64)


def _sign_plus(vec: np.ndarray) -> np.ndarray:
    out = np.ones(vec.shape[0], dtype=np.float64)
    out[vec < 0] = -1.0
    return out


def _inf_to_one_bracket(kind: str, a, spectral: float, rng) -> tuple[float, float]:
    """``inf_to_one_bounds`` on normalized input with its spectral norm given."""
    dim = a.shape[0]
    if dim == 0:
        return 0.0, 0.0
    at = a.T.tocsr() if kind == "sparse" else a.T
    if kind == "sparse":
        entry_mass = float(np.abs(a.data).sum()) if a.nnz else 0.0
        # power iteration undershoots ||M||; sqrt(||M||_1 ||M||_inf) does not
        norm_bound = sqrt(one_to_one_norm(a) * one_to_one_norm(at))
    else:
        entry_mass = float(np.abs(a).sum())
        norm_bound = spectral
    upper = min(dim * norm_bound, entry_mass)

    def ascend(u0: np.ndarray) -> float:
        u = u0
        val = -np.inf
        for _ in range(64):
            v = _sign_plus(at @ u)
            u = _sign_plus(a @ v)
            new = float(u @ (a @ v))
            if new <= val:
                break
            val = new
        return val

    lower = ascend(np.ones(dim, dtype=np.float64))
    if rng is not None:
        for _ in range(ASCENT_RESTARTS):
            lower = max(lower, ascend(spawn_signs(rng, dim).astype(np.float64)))
    return lower, upper


def inf_to_one_bounds(mat, rng=None) -> tuple[float, float]:
    """Bracket for the inf->1 norm of a large matrix.

    Lower bound: alternating ascent u -> sign(Mv), v -> sign(M^T u) from
    the all-ones start plus ``ASCENT_RESTARTS`` random starts when a
    generator is given; each iterate is a feasible sign pair, so the
    lower end is certified.  Upper end: the smaller of the total l1 mass
    of the entries and dim times a bound on ||M||.  Up to ``DENSE_LIMIT``
    that bound is the dense spectral norm.  Above it the power iteration
    approaches ||M|| from below, so the bound is instead
    sqrt(||M||_1 ||M||_inf), the geometric mean of the largest column
    and row l1 weights, which always dominates ||M||.  Either way the
    upper end holds up to rounding.
    """
    kind, obj = _as_dense_or_sparse(mat)
    spectral, _ = spectral_norm(obj)
    return _inf_to_one_bracket(kind, obj, spectral, rng)


def one_to_one_norm(mat) -> float:
    """Max column l1 weight; for symmetric M this dominates the spectral norm."""
    if hasattr(mat, "entries") and hasattr(mat, "dim"):  # EmbeddingMatrix
        cols = np.zeros(mat.dim, dtype=np.int64)
        for (_, col), v in mat.entries.items():
            cols[col] += abs(v)
        return float(cols.max(initial=0))
    if hasattr(mat, "tocsc"):
        sp = mat.tocsc()
        if sp.nnz == 0:
            return 0.0
        return float(np.asarray(np.abs(sp).sum(axis=0)).max())
    arr = np.asarray(mat, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.abs(arr).sum(axis=0).max())


@dataclass(frozen=True)
class NormReport:
    dim: int
    spectral: float
    spectral_converged: bool
    one_to_one: float
    inf_to_one_lower: float
    inf_to_one_upper: float
    inf_to_one_exact: Optional[float]  # set when the dimension allows enumeration


def norm_report(mat, *, rng=None) -> NormReport:
    """All three norms, with the inf->1 value exact when small enough.

    The input is normalized once and its spectral norm computed once;
    the inf->1 bracket reuses that value.
    """
    kind, obj = _as_dense_or_sparse(mat)
    dim = obj.shape[0]
    spec, conv = spectral_norm(obj)
    oto = one_to_one_norm(obj)
    exact = None
    if dim <= _kernels.ENUM_LIMIT:
        dense = obj if kind == "dense" else obj.toarray()
        exact, _ = inf_to_one_exact(dense)
        lower = upper = exact
    else:
        lower, upper = _inf_to_one_bracket(kind, obj, spec, rng)
    return NormReport(dim, spec, conv, oto, lower, upper, exact)


@dataclass(frozen=True)
class KhintchineReport:
    dim: int
    count: int
    trials: int
    bound: float  # 10 sqrt(log d) sqrt(sum of squared spectral norms)
    mean_norm: float
    max_norm: float

    @property
    def mean_ratio(self) -> float:
        return self.mean_norm / self.bound if self.bound else float("inf")

    @property
    def max_ratio(self) -> float:
        return self.max_norm / self.bound if self.bound else float("inf")


def khintchine_bound(mats: list[np.ndarray]) -> float:
    """10 sqrt(log d) (sum_i ||A_i||^2)^(1/2) for d x d matrices, natural log."""
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise ValueError("matrices must share a square shape")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    sq = sum(float(np.linalg.norm(m, 2)) ** 2 for m in mats)
    return 10.0 * sqrt(log(d)) * sqrt(sq)


def khintchine_bench(mats: list[np.ndarray], trials: int, rng) -> KhintchineReport:
    """Compare ||sum_i sigma_i A_i|| over random signs with the bound.

    The inequality is stated for the expectation; the report also tracks
    the per-draw maximum, which stays below the bound whenever the matrix
    count is at most 100 log d (Cauchy-Schwarz against the triangle
    inequality).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    bound = khintchine_bound(mats)
    arr = np.stack([np.asarray(m, dtype=np.float64) for m in mats])
    total = 0.0
    worst = 0.0
    for _ in range(trials):
        signs = spawn_signs(rng, arr.shape[0]).astype(np.float64)
        summed = np.tensordot(signs, arr, axes=1)
        val = float(np.linalg.norm(summed, 2))
        total += val
        worst = max(worst, val)
    return KhintchineReport(arr.shape[1], arr.shape[0], trials, bound,
                            total / trials, worst)
