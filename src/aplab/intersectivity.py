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
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from statistics import NormalDist
from typing import NamedTuple, Optional

import numpy as np

from . import _kernels
from .counting import DifferenceSequence, SubsetMask, ap_average
from .groups import ApParams, Group, density_target
from .rng import stream

EXACT_LIMIT_DEFAULT = 40
HEURISTIC_RESTARTS_DEFAULT = 32
HEURISTIC_PASSES_DEFAULT = 8
_STABILIZE_ROUNDS = 12
CONFIDENCE = 0.95  # of every Wilson interval


class ExactLimitError(ValueError):
    """Raised when an exact decision is requested beyond the configured size."""


@dataclass(frozen=True)
class IntersectivityVerdict:
    intersective: bool
    witness: Optional[SubsetMask]  # progression-free set of target size, when one exists
    method: str  # "exact" or "heuristic"


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
    The kept bases' translates are then the minimal supports.
    """
    n = seq.group.modulus
    bases = {frozenset(step * d % n for step in range(k)) for d in seq.distinct()}
    kept = [b for b in bases
            if not any(len(c) < len(b) and all((y + z) % n in b for z in c)
                       for c in bases for y in b)]
    supports = {tuple(sorted((x + z) % n for z in b)) for b in kept for x in range(n)}
    return sorted(supports, key=lambda s: (len(s), s))


def exact_free_set(seq: DifferenceSequence, k: int, target: int) -> Optional[tuple[int, ...]]:
    """A progression-free subset of size exactly ``target``, or None.

    Branch and bound over vertices in decreasing-degree order, trying to
    include each vertex before excluding it; a vertex that would complete
    a forbidden set is only excluded.  Free subsets are downward closed,
    so searching at exactly the target size is complete.  Two rules prune
    the tree, and neither removes a branch that holds a solution, so the
    include-first search still returns the same (first) witness:

    * Vertex-0 rule.  The forbidden sets are invariant under translation,
      so when no vertex is banned every free set has a translate through
      the first vertex of the order (vertex 0, since translation also
      gives every vertex the same degree).  If including that vertex
      fails, no free set of the target size exists and its exclude branch
      is skipped.
    * Packing bound.  A forbidden set with no excluded vertex is live, and
      its undecided vertices form its residual; every live residual must
      lose at least one vertex.  The undecided count minus a greedy packing
      of pairwise disjoint live residuals bounds how many more vertices can
      join, and a node whose bound falls below the number still needed is
      pruned.
    """
    n = seq.group.modulus
    if target <= 0:
        return ()
    if target > n:
        return None
    edges = minimal_forbidden_sets(seq, k)
    banned = {e[0] for e in edges if len(e) == 1}
    edges = [e for e in edges if len(e) > 1]
    avail = [v for v in range(n) if v not in banned]
    if target > len(avail):
        return None
    edge_masks = [sum(1 << v for v in e) for e in edges]
    vert_masks: dict[int, list[int]] = {v: [] for v in avail}
    for e, mask in zip(edges, edge_masks):
        for v in e:
            vert_masks[v].append(mask)
    order = sorted(avail, key=lambda v: (-len(vert_masks[v]), v))
    # decided[pos] / undecided[pos]: vertex masks of order[:pos] / order[pos:]
    decided = [0]
    for v in order:
        decided.append(decided[-1] | 1 << v)
    undecided = [decided[-1] & ~d for d in decided]
    symmetric = not banned

    def descend(pos: int, needed: int, chosen: int) -> Optional[int]:
        if needed == 0:
            return chosen
        slack = len(order) - pos - needed
        if slack < 0:
            return None
        excluded = decided[pos] & ~chosen
        rest = undecided[pos]
        packed = 0
        for mask in edge_masks:
            if not mask & excluded:
                residual = mask & rest
                if not residual & packed:
                    packed |= residual
                    slack -= 1
                    if slack < 0:
                        return None
        v = order[pos]
        with_v = chosen | 1 << v
        if all(mask & ~with_v for mask in vert_masks[v]):
            found = descend(pos + 1, needed - 1, with_v)
            if found is not None or (pos == 0 and symmetric):
                return found
        return descend(pos + 1, needed, chosen)

    found = descend(0, target, 0)
    if found is None:
        return None
    return tuple(v for v in range(n) if found >> v & 1)


def is_intersective_exact(seq: DifferenceSequence, params: ApParams,
                          exact_limit: int = EXACT_LIMIT_DEFAULT) -> IntersectivityVerdict:
    """Complete decision by branch and bound; feasible for small N only."""
    group = seq.group
    if group.modulus > exact_limit:
        raise ExactLimitError(
            f"N={group.modulus} exceeds the exact decision limit {exact_limit}; "
            "use the heuristic searcher")
    target = density_target(group, params)
    found = exact_free_set(seq, params.k, target)
    if found is None:
        return IntersectivityVerdict(True, None, "exact")
    witness = SubsetMask.from_indices(group, found)
    if witness.cardinality > 0 and ap_average(witness, seq, params.k).numerator != 0:
        raise AssertionError("internal error: claimed witness contains a progression")
    return IntersectivityVerdict(False, witness, "exact")


def _heuristic_free_set(seq: DifferenceSequence, k: int, target: int,
                        rng) -> tuple[int, np.ndarray]:
    """Greedy-plus-swaps search; returns (best size, membership vector)."""
    n = seq.group.modulus
    edges = minimal_forbidden_sets(seq, k)
    edge_ptr, edge_vtx, v_ptr, v_edges = _kernels.csr_incidence(edges, n)
    sizes = np.diff(edge_ptr)
    restarts, passes = HEURISTIC_RESTARTS_DEFAULT, HEURISTIC_PASSES_DEFAULT
    perms = np.stack([rng.permutation(n) for _ in range(restarts)]).astype(np.int64)
    removals = rng.integers(0, n, size=(restarts, passes), dtype=np.int64)
    best_size, best_mask = _kernels.apfree_search_kernel(
        n, target, edge_ptr, edge_vtx, sizes, v_ptr, v_edges, perms, removals)
    return int(best_size), np.asarray(best_mask, dtype=np.uint8)


def max_free_heuristic(seq: DifferenceSequence, params: ApParams, rng) -> SubsetMask:
    """Best progression-free subset the randomized search can find.

    The result is always genuinely progression-free (asserted on return);
    only its maximality is heuristic.
    """
    size, mem = _heuristic_free_set(seq, params.k, seq.group.modulus + 1, rng)
    mask = SubsetMask(seq.group, mem)
    if mask.cardinality > 0 and ap_average(mask, seq, params.k).numerator != 0:
        raise AssertionError("internal error: heuristic returned a non-free set")
    return mask


def trial(group: Group, params: ApParams, m: int, rng,
          exact_limit: int = EXACT_LIMIT_DEFAULT) -> bool:
    """Sample D of length m from the given generator and decide intersectivity.

    Within the exact limit, branch and bound settles the answer
    completely.  Beyond it the heuristic searcher runs: any free set it
    finds settles the answer (False) exactly, and when it finds none the
    trial reports True on heuristic evidence alone, which can overstate
    intersectivity but never understate it.
    """
    if m < 1:
        raise ValueError("sequence length m must be at least 1")
    seq = DifferenceSequence.sample(group, m, rng)
    if group.modulus <= exact_limit:
        return is_intersective_exact(seq, params, exact_limit).intersective
    target = density_target(group, params)
    size, mem = _heuristic_free_set(seq, params.k, target, rng)
    if size >= target:
        mask = SubsetMask(group, mem)
        if ap_average(mask, seq, params.k).numerator != 0:
            raise AssertionError("internal error: heuristic returned a non-free set")
        return False
    return True


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at ``CONFIDENCE``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    z = NormalDist().inv_cdf(0.5 + CONFIDENCE / 2)
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


@dataclass(frozen=True)
class CriticalSizeEstimate:
    m_star: int
    curve: tuple[ProbePoint, ...]  # aggregated per probed m, ascending
    modulus: int
    k: int
    epsilon: Fraction
    trials_per_m: int
    seed: int


def run_trials(group: Group, params: ApParams, m: int, count: int, seed: int, *,
               offset: int = 0, exact_limit: int = EXACT_LIMIT_DEFAULT) -> int:
    """Number of intersective samples among trials offset..offset+count-1.

    Trial index t always uses the generator keyed by (seed, m, t), so the
    result is independent of the order and the ranges the trials run in.
    """
    if count < 1:
        raise ValueError("trial count must be at least 1")
    return sum(trial(group, params, m, stream(seed, m, t), exact_limit)
               for t in range(offset, offset + count))


def estimate_critical_size(group: Group, params: ApParams, *,
                           trials_per_m: int = 200, seed: int = 0,
                           exact_limit: int = EXACT_LIMIT_DEFAULT) -> CriticalSizeEstimate:
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
    cap = max(64, 8 * group.modulus)
    curve: dict[int, list[int]] = {}
    offsets: dict[int, int] = {}

    def probe(m: int, count: int):
        off = offsets.get(m, 0)
        got = run_trials(group, params, m, count, seed, offset=off,
                         exact_limit=exact_limit)
        offsets[m] = off + count
        entry = curve.setdefault(m, [0, 0])
        entry[0] += count
        entry[1] += got

    def p_hat(m: int) -> float:
        t, s = curve[m]
        return s / t

    def qualifier() -> Optional[int]:
        for m in sorted(curve):
            t, s = curve[m]
            if s / t >= 0.5 and wilson_interval(s, t)[0] >= 0.45:
                return m
        return None

    probe(1, trials_per_m)
    m = 1
    lo = 0
    while p_hat(m) < 0.5:
        if m >= cap:
            raise RuntimeError(f"intersectivity rate stayed below 1/2 up to m={cap}")
        lo = m
        m = min(2 * m, cap)
        probe(m, trials_per_m)
    hi = m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probe(mid, trials_per_m)
        if p_hat(mid) >= 0.5:
            hi = mid
        else:
            lo = mid
    cand = hi
    probe(cand, 4 * trials_per_m)
    if cand > 1:
        probe(cand - 1, trials_per_m)
    probe(cand + 1, trials_per_m)
    chosen = qualifier()
    rounds = 0
    while chosen is None:
        rounds += 1
        if rounds > _STABILIZE_ROUNDS or cand > cap:
            raise RuntimeError("critical size estimate failed to stabilize")
        if p_hat(cand) < 0.5:
            cand += 1
        probe(cand, 4 * trials_per_m)
        chosen = qualifier()
    points = tuple(
        ProbePoint(m, t, s, s / t, *wilson_interval(s, t))
        for m, (t, s) in sorted(curve.items()))
    return CriticalSizeEstimate(chosen, points, group.modulus, params.k,
                                params.epsilon, trials_per_m, seed)
