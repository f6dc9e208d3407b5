"""Operator norms for subset-indexed matrices and the random sign-sum bench.

Three norms appear in the pruning argument: the spectral norm, the
inf->1 norm (max of u^T M v over sign vectors), and the 1->1 norm (max
column l1 weight).  They satisfy, for symmetric M of dimension d,

    inf_to_one(M) <= d * spectral(M)     and     spectral(M) <= one_to_one(M),

and the inf->1 norm never exceeds the total l1 mass of the entries.
"""
from __future__ import annotations

from math import log, sqrt
from typing import NamedTuple

import numpy as np

from . import _kernels
from .rng import spawn_signs

ASCENT_RESTARTS = 16
DENSE_DIM_CAP = 4096  # largest dense matrix side; read at call time


def _square(mat) -> np.ndarray:
    """The input as a square float64 array."""
    arr = np.asarray(mat, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix must be square")
    return arr


def spectral_norm(mat) -> float:
    """Largest singular value, by a dense solve; 0.0 for an empty matrix."""
    arr = _square(mat)
    if arr.shape[0] == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


def inf_to_one_exact(mat) -> tuple[float, np.ndarray]:
    """Exact max of u^T M v over sign vectors, with the maximizing u.

    Only u is enumerated; the optimal v is sign(M^T u) with ties going
    to +1, so the value is max over u of ||M^T u||_1.  A zero row of M
    adds nothing to M^T u, so u is enumerated on the nonzero rows only
    and is +1 on the rest; an all-zero M costs no enumeration.  Feasible
    for dimension <= ``_kernels.ENUM_LIMIT``.  For integer-valued M
    (every caller in the package) the value and u are exact: u is the
    first maximizer in code order, and its last entry is +1.  Other
    input gets the maximum up to float rounding.
    """
    arr = _square(mat)
    d = arr.shape[0]
    if d > _kernels.ENUM_LIMIT:
        raise ValueError(f"exact inf->1 limited to dimension {_kernels.ENUM_LIMIT}")
    u = np.ones(d, dtype=np.int64)
    live = np.flatnonzero(arr.any(axis=1))
    if live.size == 0:
        return 0.0, u
    best, mask = _kernels.infone_enum_kernel(arr[live])
    u[live] = 1 - 2 * _kernels.bit_vector(mask, live.size).astype(np.int64)
    return float(best), u


def _sign_plus(vec: np.ndarray) -> np.ndarray:
    out = np.ones(vec.shape[0], dtype=np.float64)
    out[vec < 0] = -1.0
    return out


def inf_to_one_bounds(mat, spectral: float, rng) -> tuple[float, float]:
    """Bracket for the inf->1 norm of a matrix with spectral norm ``spectral``.

    Lower bound: alternating ascent u -> sign(Mv), v -> sign(M^T u) from
    the all-ones start and ``ASCENT_RESTARTS`` random starts drawn from
    ``rng``; each iterate is a feasible sign pair, so the lower end is
    certified.  Upper end: the smaller of the total l1 mass of the
    entries and dim times the spectral norm, which holds up to rounding.
    """
    a = _square(mat)
    dim = a.shape[0]
    if dim == 0:
        return 0.0, 0.0
    upper = min(dim * spectral, float(np.abs(a).sum()))

    def ascend(u0: np.ndarray) -> float:
        u = u0
        val = -np.inf
        for _ in range(64):
            av = a @ _sign_plus(a.T @ u)
            u = _sign_plus(av)
            new = float(u @ av)
            if new <= val:
                break
            val = new
        return val

    lower = ascend(np.ones(dim, dtype=np.float64))
    for _ in range(ASCENT_RESTARTS):
        lower = max(lower, ascend(spawn_signs(rng, dim).astype(np.float64)))
    return lower, upper


def one_to_one_norm(mat) -> float:
    """Max column l1 weight; for symmetric M this dominates the spectral norm."""
    return float(np.abs(_square(mat)).sum(axis=0).max(initial=0.0))


class NormReport(NamedTuple):
    dim: int
    spectral: float
    one_to_one: float
    inf_to_one_lower: float
    inf_to_one_upper: float


def norm_report(mat, rng) -> NormReport:
    """All three norms, with the inf->1 norm bracketed.

    The spectral norm is solved once; the inf->1 bracket reuses it and
    draws its ascent starts from ``rng``.
    """
    arr = _square(mat)
    spec = spectral_norm(arr)
    lower, upper = inf_to_one_bounds(arr, spec, rng)
    return NormReport(arr.shape[0], spec, one_to_one_norm(arr), lower, upper)


class KhintchineReport(NamedTuple):
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
    sq = sum(spectral_norm(m) ** 2 for m in mats)
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
        val = spectral_norm(summed)
        total += val
        worst = max(worst, val)
    return KhintchineReport(arr.shape[1], arr.shape[0], trials, bound,
                            total / trials, worst)
