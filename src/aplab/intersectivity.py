"""Deciding intersectivity of a difference sequence and estimating the
critical sequence length.

A sequence D is (k-1, epsilon)-intersective in Z/N when every subset of
size at least ceil(epsilon * N) contains a full k-point progression with
some difference from D.  Deciding this is a hypergraph independent-set
problem: the forbidden sets are the progression supports, and D fails to
be intersective exactly when some subset of size ceil(epsilon * N) avoids
all of them.
"""
from __future__ import annotations

import os
from math import sqrt
from typing import NamedTuple, Optional

from .counting import DifferenceSequence, ap_average
from .groups import ApParams, density_target
from .rng import stream

EXACT_LIMIT = 40  # largest N decided exactly; read at call time
HEURISTIC_RESTARTS_DEFAULT = 32
HEURISTIC_PASSES_DEFAULT = 8
_STABILIZE_ROUNDS = 12
# the normal quantile NormalDist().inv_cdf(0.5 + 0.95 / 2) of every 95%
# Wilson interval, to the last bit
WILSON_Z = 1.9599639845400536


class IntersectivityVerdict(NamedTuple):
    intersective: bool
    witness: Optional[int]  # free set of at least the target size as a bitmask, when found
    method: str  # "exact" or "heuristic"


def _base_supports(seq: DifferenceSequence, k: int) -> set[frozenset[int]]:
    """The distinct supports {0, d, ..., (k-1)d} of the differences in seq."""
    n = seq.n
    return {frozenset(step * d % n for step in range(k)) for d in seq.distinct()}


def minimal_forbidden_sets(seq: DifferenceSequence, k: int) -> list[tuple[int, ...]]:
    """Distinct progression supports with supersets removed.

    A subset is progression-free iff it includes none of these vertex
    sets, so dropping supersets changes nothing while shrinking the
    search.  Deterministic order: by size, then lexicographic.

    Every support is a translate x + B_d of a base support
    B_d = {0, d, ..., (k-1)d}.  Translation preserves inclusion, so a
    support has a proper subset among the supports exactly when its base
    does, and each base is kept or dropped for all x together.  A
    translate y + B_c inside B_d must carry 0 of B_c onto a point y of
    B_d, so testing the shifts y in B_d of each smaller base decides it.
    The kept bases' translates are then the minimal supports.  With b the
    sorted base of s points (b[0] = 0), the translate x + b wraps exactly
    its points b[j:] past N when x lies in [N - b[j], N - b[j-1]) (read
    N - b[s] as 0), and there its sorted tuple is x - N + (b[j:] +
    (b[:j] + N)): one run of sorted translates per j = 1..s, zipped from
    ranges.  One set per size drops the translates that coincide, as they
    do when D holds N/2 or N/3, or both d and N - d.
    """
    n = seq.n
    bases = _base_supports(seq, k)
    kept = [b for b in bases
            if not any(len(c) < len(b) and all((y + z) % n in b for z in c)
                       for c in bases for y in b)]
    by_size: dict[int, set[tuple[int, ...]]] = {}
    for base in kept:
        b = sorted(base)
        size = len(b)
        ext = b + [v + n for v in b]
        found = by_size.setdefault(size, set())
        for j in range(1, size + 1):
            lo, hi = (n - b[j] if j < size else 0), n - b[j - 1]
            found.update(zip(*(range(e + lo - n, e + hi - n) for e in ext[j:j + size])))
    return [row for size in sorted(by_size) for row in sorted(by_size[size])]


def odd_cycle_certified(seq: DifferenceSequence, k: int, target: int) -> bool:
    """True when an averaging bound proves seq has no free set of ``target`` points.

    A one-point support {0} (d = 0) bans every vertex.  Otherwise the
    two-point supports {0, e} make every free set independent in the
    circulant graph Cay(Z/N, {+e, -e}).  If its shortest odd closed walk
    from 0 has length g, that walk is a g-cycle, and its N translates
    cover each vertex g times; a free set holds at most (g - 1)/2 points
    of each translate, so it has at most floor(N (g - 1) / (2g)) points
    (Albertson & Collins, Discrete Math. 54, 1985).  The bound grows with
    g, so the scan of odd lengths stops once it reaches the target, and
    at N, the longest cycle there is.  ``reach`` holds, as an N-bit int,
    the end points of the walks of length t from 0.  False only means
    that this bound proves nothing.
    """
    n = seq.n
    if target < 1:
        return False
    bases = _base_supports(seq, k)
    if any(len(b) == 1 for b in bases):
        return True
    shifts = {s for b in bases if len(b) == 2 for e in b if e for s in (e, n - e)}
    if not shifts:
        return False
    full = (1 << n) - 1
    reach = 1
    for t in range(1, n + 1):
        step = 0
        for s in shifts:
            step |= (reach << s | reach >> (n - s)) & full
        reach = step
        if t % 2:
            if n * (t - 1) // (2 * t) >= target:
                return False
            if reach & 1:
                return True
    return False


def exact_free_set(seq: DifferenceSequence, k: int, target: int) -> Optional[int]:
    """A progression-free subset of size exactly ``target`` as a bitmask, or None.

    Branch and bound over the vertices 0..N-1 in order, trying to include
    each vertex before excluding it; a vertex that would complete a
    forbidden set is only excluded.  Free subsets are downward closed,
    so searching at exactly the target size is complete.  Three rules prune
    the tree, and none removes a branch that holds a solution, so the
    include-first search still returns the same (first) witness:

    * Odd-cycle rule.  At the root, before any forbidden set is built,
      ``odd_cycle_certified`` may prove that no free set of the target
      size exists (always so when D holds 0); the answer is then None.
    * Vertex-0 rule.  The forbidden sets are invariant under translation,
      so every free set has a translate through vertex 0.  If including
      vertex 0 fails, no free set of the target size exists and its
      exclude branch is skipped.
    * Packing bound.  A forbidden set with no excluded vertex is live, and
      its undecided vertices form its residual; every live residual must
      lose at least one vertex.  The undecided count minus a greedy packing
      of pairwise disjoint live residuals bounds how many more vertices can
      join, and a node whose bound falls below the number still needed is
      pruned.
    """
    n = seq.n
    if target <= 0:
        return 0
    if target > n or odd_cycle_certified(seq, k, target):
        return None
    edges = minimal_forbidden_sets(seq, k)
    edge_masks = [sum(1 << v for v in e) for e in edges]
    vert_masks: list[list[int]] = [[] for _ in range(n)]
    for e, mask in zip(edges, edge_masks):
        for v in e:
            vert_masks[v].append(mask)
    full = (1 << n) - 1

    def descend(v: int, needed: int, chosen: int) -> Optional[int]:
        if needed == 0:
            return chosen
        slack = n - v - needed
        if slack < 0:
            return None
        rest = full >> v << v  # the undecided vertices v..N-1
        excluded = full ^ rest ^ chosen  # the decided vertices left out
        packed = 0
        for mask in edge_masks:
            if not mask & excluded:
                residual = mask & rest
                if not residual & packed:
                    packed |= residual
                    slack -= 1
                    if slack < 0:
                        return None
        with_v = chosen | 1 << v
        if all(mask & ~with_v for mask in vert_masks[v]):
            found = descend(v + 1, needed - 1, with_v)
            if found is not None or v == 0:
                return found
        return descend(v + 1, needed, chosen)

    return descend(0, target, 0)


def _heuristic_free_set(seq: DifferenceSequence, k: int, target: int,
                        rng) -> tuple[int, int]:
    """Greedy-plus-swaps search; returns (best size, member bitmask)."""
    import numpy as np

    from . import _kernels
    n = seq.n
    edges = minimal_forbidden_sets(seq, k)
    edge_ptr, edge_vtx, v_ptr, v_edges = _kernels.csr_incidence(edges, n)
    sizes = np.diff(edge_ptr)
    restarts, passes = HEURISTIC_RESTARTS_DEFAULT, HEURISTIC_PASSES_DEFAULT
    perms = rng.permuted(np.tile(np.arange(n, dtype=np.int64), (restarts, 1)), axis=1)
    removals = rng.integers(0, n, size=(restarts, passes), dtype=np.int64)
    return _kernels.apfree_search_kernel(
        n, target, edge_ptr, edge_vtx, sizes, v_ptr, v_edges, perms, removals)


def decide(seq: DifferenceSequence, params: ApParams, rng) -> IntersectivityVerdict:
    """Decide whether seq is intersective at the density target.

    Up to ``EXACT_LIMIT`` branch and bound settles the answer completely.
    Beyond it, a list that ``odd_cycle_certified`` proves intersective is
    an exact True with no draws from ``rng``.  Otherwise the heuristic
    searcher runs with draws from ``rng``: a free set it finds settles
    the answer (False) exactly, and when it finds none the verdict is
    True on heuristic evidence alone, which can overstate intersectivity
    but never understate it.  A witness is checked progression-free
    before it is returned.
    """
    target = density_target(seq.n, params)
    if seq.n <= EXACT_LIMIT:
        method = "exact"
        witness = exact_free_set(seq, params.k, target)
    elif odd_cycle_certified(seq, params.k, target):
        return IntersectivityVerdict(True, None, "exact")
    else:
        method = "heuristic"
        size, found = _heuristic_free_set(seq, params.k, target, rng)
        witness = found if size >= target else None
    if witness is None:
        return IntersectivityVerdict(True, None, method)
    if ap_average(witness, seq, params.k).numerator != 0:
        raise AssertionError("internal error: claimed witness contains a progression")
    return IntersectivityVerdict(False, witness, method)


def trial(n: int, params: ApParams, m: int, rng) -> bool:
    """Sample D of length m from the given generator and decide intersectivity."""
    if m < 1:
        raise ValueError("sequence length m must be at least 1")
    return decide(DifferenceSequence.sample(n, m, rng), params, rng).intersective


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% confidence."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    z = WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    # degenerate counts have exact endpoints; rounding would leave dust
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


# Kept for the machine-facts probe of perfbench/run.py, which reads it.
def worker_count() -> int:
    """Worker cap from APLAB_THREADS, defaulting to the machine's cores."""
    raw = os.environ.get("APLAB_THREADS", "")
    if raw:
        count = int(raw)
        if count < 1:
            raise ValueError("APLAB_THREADS must be a positive integer")
        return count
    return os.cpu_count() or 1


class ProbePoint(NamedTuple):
    m: int
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float


class CriticalSizeEstimate(NamedTuple):
    m_star: int
    curve: tuple[ProbePoint, ...]  # aggregated per probed m, ascending


def run_trials(n: int, params: ApParams, m: int, count: int, seed: int, *,
               offset: int = 0) -> int:
    """Number of intersective samples among trials offset..offset+count-1.

    Trial index t always uses the generator keyed by (seed, m, t), so the
    result is independent of the order and the ranges the trials run in.
    """
    if count < 1:
        raise ValueError("trial count must be at least 1")
    return sum(trial(n, params, m, stream(seed, m, t))
               for t in range(offset, offset + count))


def estimate_critical_size(n: int, params: ApParams, *,
                           trials_per_m: int = 200, seed: int = 0) -> CriticalSizeEstimate:
    """Estimate the smallest m whose intersectivity probability reaches 1/2.

    Search policy: double m until the empirical rate crosses 1/2, binary
    search the crossing, then re-test the boundary with four times the
    trial budget and probe both neighbors.  The estimate is the smallest
    probed m whose aggregated rate is at least 1/2 with Wilson lower bound
    at least 0.45; extra boundary rounds run until one qualifies.
    Repeat probes of the same m extend its trial-index range, so every
    trial is a fresh draw and aggregation stays unbiased.
    """
    if trials_per_m < 1:
        raise ValueError("trials_per_m must be at least 1")
    cap = max(64, 8 * n)
    curve: dict[int, list[int]] = {}

    def probe(m: int, count: int) -> float:
        """Run the next ``count`` trials at m; the aggregated rate at m."""
        entry = curve.setdefault(m, [0, 0])
        entry[1] += run_trials(n, params, m, count, seed, offset=entry[0])
        entry[0] += count
        return entry[1] / entry[0]

    def qualifier() -> Optional[int]:
        for m in sorted(curve):
            t, s = curve[m]
            if s / t >= 0.5 and wilson_interval(s, t)[0] >= 0.45:
                return m
        return None

    m = 1
    lo = 0
    while probe(m, trials_per_m) < 0.5:
        if m >= cap:
            raise RuntimeError(f"intersectivity rate stayed below 1/2 up to m={cap}")
        lo = m
        m = min(2 * m, cap)
    hi = m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid, trials_per_m) >= 0.5:
            hi = mid
        else:
            lo = mid
    cand = hi
    rate = probe(cand, 4 * trials_per_m)
    if cand > 1:
        probe(cand - 1, trials_per_m)
    probe(cand + 1, trials_per_m)
    chosen = qualifier()
    rounds = 0
    while chosen is None:
        rounds += 1
        if rounds > _STABILIZE_ROUNDS or cand > cap:
            raise RuntimeError("critical size estimate failed to stabilize")
        if rate < 0.5:
            cand += 1
        rate = probe(cand, 4 * trials_per_m)
        chosen = qualifier()
    points = tuple(
        ProbePoint(m, t, s, s / t, *wilson_interval(s, t))
        for m, (t, s) in sorted(curve.items()))
    return CriticalSizeEstimate(chosen, points)
