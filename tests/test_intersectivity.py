"""Exact decider, heuristic search, and the sampling layer."""
from itertools import combinations

import numpy as np
import pytest

from aplab import _kernels, intersectivity
from aplab.counting import DifferenceSequence, SubsetMask, ap_average
from aplab.groups import ApParams, Group, as_density, density_target
from aplab.intersectivity import (ExactLimitError, estimate_critical_size,
                                  exact_free_set, is_intersective_exact,
                                  max_free_heuristic, minimal_forbidden_sets,
                                  run_trials, trial, wilson_interval)
from aplab.rng import stream


def oracle_free_set(seq, k, target):
    """The lexicographically first progression-free subset of size target."""
    for combo in combinations(range(seq.group.modulus), target):
        mask = SubsetMask.from_indices(seq.group, combo)
        if ap_average(mask, seq, k).numerator == 0:
            return combo
    return None


def oracle_decide(seq, params):
    """Check every subset at the density target for progression freeness.

    A free set of exactly the target size certifies larger free sets are
    unnecessary to rule out intersectivity, and removing points never
    creates progressions, so testing one size settles every size above it.
    """
    target = density_target(seq.group, params)
    return oracle_free_set(seq, params.k, target) is None


def plain_forbidden_sets(seq, k):
    """Reference: every support built, then a quadratic scan for supersets."""
    n = seq.group.modulus
    supports = set()
    for d in seq.distinct():
        for x in range(n):
            supports.add(frozenset((x + step * d) % n for step in range(k)))
    kept = []
    for s in sorted(supports, key=lambda f: (len(f), sorted(f))):
        if not any(t <= s for t in kept):
            kept.append(s)
    return [tuple(sorted(s)) for s in kept]


def plain_free_set(seq, k, target):
    """Reference: the exact decider as plain branch and bound, no pruning rules.

    Include-first search over vertices in decreasing-degree order, pruned
    only when too few undecided vertices remain.
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
    vert_edges = {v: [ei for ei, e in enumerate(edges) if v in e] for v in avail}
    order = sorted(avail, key=lambda v: (-len(vert_edges[v]), v))
    edge_in = [0] * len(edges)
    chosen = []

    def descend(pos, needed):
        if needed == 0:
            return True
        if len(order) - pos < needed:
            return False
        v = order[pos]
        if all(edge_in[ei] < len(edges[ei]) - 1 for ei in vert_edges[v]):
            for ei in vert_edges[v]:
                edge_in[ei] += 1
            chosen.append(v)
            if descend(pos + 1, needed - 1):
                return True
            chosen.pop()
            for ei in vert_edges[v]:
                edge_in[ei] -= 1
        return descend(pos + 1, needed)

    return tuple(sorted(chosen)) if descend(0, target) else None


def decider_grid(seed, moduli, per_modulus):
    """Seeded (seq, k, target) instances, with banned and self-inverse differences.

    Each modulus gets random draws for every k in {2, 3, 4}, plus a sequence
    holding 0 (every vertex banned) and, for even N, one holding N/2, where
    2d = 0 makes a progression revisit its start.  Targets sit at the
    largest free set the heuristic finds or one above it, where the search
    is hardest and both verdicts occur.
    """
    rng = stream(seed, 0)
    for n in moduli:
        g = Group(n)
        for k in (2, 3, 4):
            seqs = [DifferenceSequence.sample(g, int(rng.integers(1, 4)), rng)
                    for _ in range(per_modulus)]
            if n % 2 == 0:
                seqs.append(DifferenceSequence(g, (n // 2, int(rng.integers(1, n)))))
            for seq in seqs:
                best = max_free_heuristic(seq, ApParams(k), rng).cardinality
                yield seq, k, best + int(rng.integers(0, 2))
            yield DifferenceSequence(g, (1, 0)), k, 2


def test_known_verdicts():
    g = Group(5)
    p = ApParams(3, as_density(0.6))
    v = is_intersective_exact(DifferenceSequence(g, (1,)), p)
    assert not v.intersective
    assert sorted(v.witness.indices()) == [0, 1, 3]
    assert v.method == "exact"
    # zero difference repeats a point, so every nonempty set is covered
    assert is_intersective_exact(DifferenceSequence(g, (0,)), p).intersective
    assert is_intersective_exact(DifferenceSequence(g, (1, 2, 3, 4)), p).intersective


def test_exact_matches_oracle_small():
    rng = stream(41, 0)
    for _ in range(60):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(1, 5))
        eps = float(rng.choice([0.4, 0.6]))
        g = Group(n)
        params = ApParams(3, as_density(eps))
        seq = DifferenceSequence.sample(g, m, rng)
        got = is_intersective_exact(seq, params)
        assert got.intersective == oracle_decide(seq, params)
        if got.witness is not None:
            assert ap_average(got.witness, seq, 3).numerator == 0
            assert got.witness.cardinality >= density_target(g, params)


def test_exact_free_set_matches_oracle_witness():
    # the include-first search over 0..N-1 finds the lexicographically first free set
    for seq, k, target in decider_grid(51, range(4, 13), 3):
        want = oracle_free_set(seq, k, target)
        assert exact_free_set(seq, k, target) == want, (seq.entries, k, target)


def test_exact_free_set_matches_plain_branch_and_bound():
    verdicts = set()
    for seq, k, target in decider_grid(52, range(13, 24), 2):
        want = plain_free_set(seq, k, target)
        assert exact_free_set(seq, k, target) == want, (seq.entries, k, target)
        verdicts.add(want is None)
    assert verdicts == {True, False}


def test_exact_limit_enforced():
    g = Group(50)
    seq = DifferenceSequence(g, (1,))
    with pytest.raises(ExactLimitError):
        is_intersective_exact(seq, ApParams(3), exact_limit=40)


def test_minimal_forbidden_sets():
    g = Group(7)
    seq = DifferenceSequence(g, (1, 1, 2))  # repeat collapses
    sets = minimal_forbidden_sets(seq, 3)
    assert all(len(s) in (1, 3) or len(s) == len(set(s)) for s in sets)
    # no forbidden set contains another
    for a in sets:
        for b in sets:
            if a is not b:
                assert not set(a) <= set(b)
    # d = 0 collapses to singletons which dominate everything
    single = minimal_forbidden_sets(DifferenceSequence(g, (0, 1)), 3)
    assert all(len(s) == 1 for s in single)
    assert len(single) == 7


def test_minimal_forbidden_sets_match_superset_scan():
    """Same list in the same order: edge indices and the decider's order depend on it."""
    rng = stream(41, 4)
    for n in (1, 2, 3, 4, 6, 9, 12, 15, 20, 27, 30, 45):
        specials = [0] + [n // j for j in (2, 3) if n % j == 0]
        for k in range(1, 6):
            for extra in [[]] + [[d] for d in specials]:
                entries = rng.integers(0, n, size=int(rng.integers(1, 4))).tolist() + extra
                seq = DifferenceSequence(Group(n), tuple(entries))
                assert minimal_forbidden_sets(seq, k) == plain_forbidden_sets(seq, k), entries


def test_heuristic_returns_free_set():
    rng = stream(41, 1)
    for _ in range(25):
        n = int(rng.integers(5, 30))
        m = int(rng.integers(1, 5))
        g = Group(n)
        seq = DifferenceSequence.sample(g, m, rng)
        free = max_free_heuristic(seq, ApParams(3), rng)
        if free.cardinality:
            assert ap_average(free, seq, 3).numerator == 0


def test_heuristic_finds_known_maximum():
    # N=7, D=(1): the largest progression-free set has 4 points
    g = Group(7)
    seq = DifferenceSequence(g, (1,))
    free = max_free_heuristic(seq, ApParams(3), stream(41, 2))
    assert free.cardinality == 4


def test_trial_agreement_with_exact():
    """Within the exact limit trial is exact; the heuristic branch is one-sided."""
    g = Group(9)
    params = ApParams(3, as_density(0.5))
    heuristic_free = 0
    for t in range(40):
        rng = stream(43, 3, t)
        seq = DifferenceSequence.sample(g, 2, rng)
        want = is_intersective_exact(seq, params).intersective
        got = trial(g, params, 2, stream(43, 3, t))
        assert got == want
        heuristic = trial(g, params, 2, stream(43, 3, t), exact_limit=0)
        assert heuristic or not want
        heuristic_free += not heuristic
    assert heuristic_free > 0


def test_trial_within_exact_limit_skips_the_heuristic(monkeypatch):
    """One forbidden-set build and no heuristic search per exact trial."""
    calls = {"forbidden": 0, "search": 0}
    build, search = intersectivity.minimal_forbidden_sets, _kernels.apfree_search_kernel

    def counted_build(*args):
        calls["forbidden"] += 1
        return build(*args)

    def counted_search(*args):
        calls["search"] += 1
        return search(*args)

    monkeypatch.setattr(intersectivity, "minimal_forbidden_sets", counted_build)
    monkeypatch.setattr(_kernels, "apfree_search_kernel", counted_search)
    g = Group(13)
    params = ApParams(3, as_density(0.5))
    for t in range(12):
        before = calls["forbidden"]
        trial(g, params, 2, stream(47, 1, t))
        assert calls["forbidden"] == before + 1
    assert calls["search"] == 0


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert 0.40 < lo < 0.5 < hi < 0.60
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)


def test_run_trials_scheduling_independent():
    """Trial t draws only from stream (seed, m, t), whatever range it runs in."""
    g = Group(5)
    p = ApParams(3, as_density(0.6))
    a = run_trials(g, p, 1, 64, 7)
    assert a == sum(trial(g, p, 1, stream(7, 1, t)) for t in range(64))
    # offset extends the index range rather than replaying draws
    c = run_trials(g, p, 1, 32, 7) + run_trials(g, p, 1, 32, 7, offset=32)
    assert c == a
    assert run_trials(g, p, 1, 32, 7, offset=32) == sum(
        trial(g, p, 1, stream(7, 1, t)) for t in range(32, 64))


def test_estimate_known_cases():
    est = estimate_critical_size(Group(5), ApParams(3, as_density(1.0)),
                                 trials_per_m=50, seed=2)
    assert est.m_star == 1  # the full set always carries a progression
    est2 = estimate_critical_size(Group(5), ApParams(3, as_density(0.6)),
                                  trials_per_m=100, seed=2)
    assert est2.m_star >= 2  # p(1) = 1/5 sits far below one half
    curve_m = [pt.m for pt in est2.curve]
    assert curve_m == sorted(curve_m)
    probed = {pt.m: pt for pt in est2.curve}
    assert probed[est2.m_star].p_hat >= 0.5
