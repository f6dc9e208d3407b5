"""Exact decider, heuristic search, and the sampling layer."""
from itertools import combinations
from statistics import NormalDist

import numpy as np
import pytest

from aplab import _kernels, intersectivity
from aplab.counting import DifferenceSequence, ap_average
from aplab.groups import ApParams, as_density, density_target
from aplab.intersectivity import (_heuristic_free_set, decide, estimate_critical_size,
                                  exact_free_set, minimal_forbidden_sets,
                                  odd_cycle_certified, run_trials, trial,
                                  wilson_interval)
from aplab.rng import stream


def bits(members) -> int:
    return sum(1 << v for v in members)


def oracle_free_set(seq, k, target):
    """The lexicographically first progression-free subset of size target, as a bitmask."""
    for combo in combinations(range(seq.n), target):
        mask = bits(combo)
        if ap_average(mask, seq, k).numerator == 0:
            return mask
    return None


def oracle_decide(seq, params):
    """Check every subset at the density target for progression freeness.

    A free set of exactly the target size certifies larger free sets are
    unnecessary to rule out intersectivity, and removing points never
    creates progressions, so testing one size settles every size above it.
    """
    target = density_target(seq.n, params)
    return oracle_free_set(seq, params.k, target) is None


def plain_forbidden_sets(seq, k):
    """Reference: every support built, then a quadratic scan for supersets."""
    n = seq.n
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
    """Reference: the exact decider as plain branch and bound, no pruning rules;
    a bitmask, or None.

    Include-first search over vertices in decreasing-degree order, pruned
    only when too few undecided vertices remain.
    """
    n = seq.n
    if target <= 0:
        return 0
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

    return bits(chosen) if descend(0, target) else None


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
        for k in (2, 3, 4):
            seqs = [DifferenceSequence.sample(n, int(rng.integers(1, 4)), rng)
                    for _ in range(per_modulus)]
            if n % 2 == 0:
                seqs.append(DifferenceSequence(n, (n // 2, int(rng.integers(1, n)))))
            for seq in seqs:
                best, _ = _heuristic_free_set(seq, k, n + 1, rng)
                yield seq, k, best + int(rng.integers(0, 2))
            yield DifferenceSequence(n, (1, 0)), k, 2


def test_known_verdicts():
    n = 5
    p = ApParams(3, as_density(0.6))
    rng = stream(41, 5)
    v = decide(DifferenceSequence(n, (1,)), p, rng)
    assert not v.intersective
    assert v.witness == bits([0, 1, 3])
    assert v.method == "exact"
    # zero difference repeats a point, so every nonempty set is covered
    assert decide(DifferenceSequence(n, (0,)), p, rng).intersective
    assert decide(DifferenceSequence(n, (1, 2, 3, 4)), p, rng).intersective


def test_exact_matches_oracle_small():
    rng = stream(41, 0)
    for _ in range(60):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(1, 5))
        eps = float(rng.choice([0.4, 0.6]))
        params = ApParams(3, as_density(eps))
        seq = DifferenceSequence.sample(n, m, rng)
        got = decide(seq, params, rng)
        assert got.intersective == oracle_decide(seq, params)
        if got.witness is not None:
            assert ap_average(got.witness, seq, 3).numerator == 0
            assert got.witness.bit_count() >= density_target(n, params)


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
    """Branch and bound up to EXACT_LIMIT, the heuristic one step above it."""
    params = ApParams(3)
    for n, method in ((intersectivity.EXACT_LIMIT, "exact"),
                      (intersectivity.EXACT_LIMIT + 1, "heuristic")):
        seq = DifferenceSequence(n, (1,))
        v = decide(seq, params, stream(41, 6))
        assert v.method == method
        assert not v.intersective
        assert v.witness.bit_count() >= density_target(seq.n, params)
        assert ap_average(v.witness, seq, 3).numerator == 0


def test_decide_refuses_a_corrupted_witness(monkeypatch):
    """A witness with one bit flipped into a progression trips the internal
    check, on the exact path and on the heuristic one."""
    def flipped(found, seq, k):
        return next(found | 1 << v for v in range(seq.n)
                    if ap_average(found | 1 << v, seq, k).numerator)

    exact, search = intersectivity.exact_free_set, _kernels.apfree_search_kernel
    small = DifferenceSequence(5, (1,))
    large = DifferenceSequence(intersectivity.EXACT_LIMIT + 1, (1,))

    def corrupted(*args):
        size, found = search(*args)
        return size, flipped(found, large, 3)

    monkeypatch.setattr(intersectivity, "exact_free_set",
                        lambda *args: flipped(exact(*args), small, 3))
    monkeypatch.setattr(_kernels, "apfree_search_kernel", corrupted)
    for seq, params in ((small, ApParams(3, as_density(0.6))), (large, ApParams(3))):
        with pytest.raises(AssertionError, match="internal error"):
            decide(seq, params, stream(41, 6))


def test_odd_cycle_certificate_is_sound():
    """A certified target has no free set, by exhaustive search.

    Free sets are downward closed and the certified targets of one list
    form an upward-closed range, so the search runs at its least element.
    Lists hold 0, N/2 and N/3 besides random draws; for k >= 3 the only
    two-point support is {0, N/2}, whose graph is bipartite.
    """
    rng = stream(61, 0)
    proper = 0
    for n in range(5, 26):
        specials = [0] + [n // j for j in (2, 3) if n % j == 0]
        for k in (2, 3, 4):
            seqs = [DifferenceSequence.sample(n, int(rng.integers(1, 4)), rng)
                    for _ in range(2)]
            seqs += [DifferenceSequence(n, (int(rng.integers(1, n)), d)) for d in specials]
            for seq in seqs:
                certified = [t for t in range(n + 2) if odd_cycle_certified(seq, k, t)]
                if not certified:
                    continue
                least = certified[0]
                assert certified == list(range(least, n + 2)), (seq.entries, k)
                assert plain_free_set(seq, k, least) is None, (seq.entries, k, least)
                proper += 0 not in seq.entries
    assert proper > 20


def test_odd_cycle_certificate_known_cases():
    # D = {1, 3} in Z/128 has only odd steps: the graph is bipartite, the
    # even classes are free, and the odd-length scan stops at t = N
    bipartite = DifferenceSequence(128, (1, 3))
    assert not any(odd_cycle_certified(bipartite, 2, t) for t in range(130))
    # 1 + 1 - 2 = 0 closes a triangle in Z/127, so a free set has at most
    # floor(127 * 2 / 6) = 42 points
    triangle = DifferenceSequence(127, (1, 2))
    assert odd_cycle_certified(triangle, 2, 51)
    assert odd_cycle_certified(triangle, 2, 43)
    assert not odd_cycle_certified(triangle, 2, 42)
    # the 5-cycle Z/5 with D = {1} has free sets of 2 points, none of 3
    pentagon = DifferenceSequence(5, (1,))
    assert [odd_cycle_certified(pentagon, 2, t) for t in range(5)] == [
        False, False, False, True, True]
    # k = 3 has two-point supports only from N/2; d = 0 bans every vertex
    assert not odd_cycle_certified(triangle, 3, 127)
    assert odd_cycle_certified(DifferenceSequence(9, (0, 4)), 3, 1)
    assert not odd_cycle_certified(DifferenceSequence(9, (0, 4)), 3, 0)


def test_decide_matches_uncertified_reference(monkeypatch):
    """Verdicts and witnesses are those of decide without the certificate."""
    rng = stream(61, 1)
    limit = intersectivity.EXACT_LIMIT
    cases = []
    for n, k, eps in ((limit, 2, 0.4), (limit + 1, 2, 0.4), (61, 2, 0.4),
                      (64, 2, 0.45), (127, 2, 0.4), (limit + 1, 3, 0.5)):
        specials = [0] + [n // j for j in (2, 3) if n % j == 0]
        seqs = [DifferenceSequence.sample(n, int(rng.integers(1, 4)), rng)
                for _ in range(6)]
        seqs += [DifferenceSequence(n, (int(rng.integers(1, n)), d)) for d in specials]
        cases += [(seq, ApParams(k, as_density(eps))) for seq in seqs]
    got = [decide(seq, params, stream(61, 2, i)) for i, (seq, params) in enumerate(cases)]
    monkeypatch.setattr(intersectivity, "odd_cycle_certified", lambda *args: False)
    for i, (seq, params) in enumerate(cases):
        want = decide(seq, params, stream(61, 2, i))
        assert got[i].intersective == want.intersective, (seq.entries, params)
        assert got[i].witness == want.witness
    above = [v for (seq, _), v in zip(cases, got) if seq.n > limit]
    assert {v.method for v in above} == {"exact", "heuristic"}
    assert all(v.intersective for v in above if v.method == "exact")
    assert any(not v.intersective for v in above)


def test_minimal_forbidden_sets():
    n = 7
    seq = DifferenceSequence(n, (1, 1, 2))  # repeat collapses
    sets = minimal_forbidden_sets(seq, 3)
    assert all(len(s) in (1, 3) or len(s) == len(set(s)) for s in sets)
    # no forbidden set contains another
    for a in sets:
        for b in sets:
            if a is not b:
                assert not set(a) <= set(b)
    # d = 0 collapses to singletons which dominate everything
    single = minimal_forbidden_sets(DifferenceSequence(n, (0, 1)), 3)
    assert all(len(s) == 1 for s in single)
    assert len(single) == 7


def test_minimal_forbidden_sets_match_superset_scan():
    """Same list in the same order: edge indices and the decider's packing depend on it.

    N = 61, 64, 127 and 128 lie above the default exact limit, where the
    heuristic search runs; at even N, N/2 in D makes translates of one
    base coincide, which the builder must drop.
    """
    rng = stream(41, 4)
    for n in (1, 2, 3, 4, 6, 9, 12, 15, 20, 27, 30, 45, 61, 64, 127, 128):
        specials = [0] + [n // j for j in (2, 3) if n % j == 0]
        for k in range(1, 6):
            for extra in [[]] + [[d] for d in specials]:
                entries = list(rng.integers(0, n, size=int(rng.integers(1, 4)))) + extra
                seq = DifferenceSequence(n, tuple(entries))
                assert minimal_forbidden_sets(seq, k) == plain_forbidden_sets(seq, k), entries


def test_minimal_forbidden_sets_give_every_vertex_one_degree():
    """Every vertex lies in equally many minimal forbidden sets.

    The sets are closed under translation, so the degree does not depend
    on the vertex; ``exact_free_set`` scans the vertices in plain order
    and its vertex-0 rule relies on this invariance.
    """
    rng = stream(41, 5)
    for n in range(1, 70):
        specials = [0] + [n // j for j in (2, 3) if n % j == 0]
        for k in range(1, 6):
            for extra in [[], [], specials]:
                entries = list(rng.integers(0, n, size=int(rng.integers(1, 5)))) + extra
                sets = minimal_forbidden_sets(DifferenceSequence(n, tuple(entries)), k)
                degrees = np.bincount([v for s in sets for v in s], minlength=n)
                assert degrees.min() == degrees.max(), (n, k, entries)


def test_heuristic_returns_free_set():
    rng = stream(41, 1)
    for _ in range(25):
        n = int(rng.integers(5, 30))
        m = int(rng.integers(1, 5))
        seq = DifferenceSequence.sample(n, m, rng)
        size, free = _heuristic_free_set(seq, 3, n + 1, rng)
        assert free.bit_count() == size
        if size:
            assert ap_average(free, seq, 3).numerator == 0


def test_heuristic_finds_known_maximum():
    # N=7, D=(1): the largest progression-free set has 4 points
    seq = DifferenceSequence(7, (1,))
    size, free = _heuristic_free_set(seq, 3, 8, stream(41, 2))
    assert size == free.bit_count() == 4


def test_heuristic_orders_match_per_row_permutations(monkeypatch):
    """The batched restart orders are the draws of one ``permutation`` per row.

    Pinned outputs rest on these draws, so a numpy release that changed
    ``permuted`` against ``permutation`` must fail here first.
    """
    drawn = []

    def capture(n, target, edge_ptr, edge_vtx, sizes, v_ptr, v_edges, perms, removals):
        drawn.append((perms, removals))
        return 0, 0

    monkeypatch.setattr(_kernels, "apfree_search_kernel", capture)
    restarts = intersectivity.HEURISTIC_RESTARTS_DEFAULT
    passes = intersectivity.HEURISTIC_PASSES_DEFAULT
    for seed, n in [(1012, 17), (1013, 31), (7919, 61), (3, 127)]:
        seq = DifferenceSequence(n, (1, 3))
        _heuristic_free_set(seq, 2, n + 1, stream(seed, 5, n))
        ref = stream(seed, 5, n)
        want = np.stack([ref.permutation(n) for _ in range(restarts)])
        perms, removals = drawn.pop()
        assert perms.dtype == np.int64 and perms.shape == (restarts, n)
        assert perms.tolist() == want.tolist()
        assert removals.tolist() == ref.integers(0, n, size=(restarts, passes)).tolist()


def test_trial_agreement_with_exact(monkeypatch):
    """Within the exact limit trial is exact; the heuristic branch is one-sided."""
    n = 9
    params = ApParams(3, as_density(0.5))
    heuristic_free = 0
    for t in range(40):
        rng = stream(43, 3, t)
        seq = DifferenceSequence.sample(n, 2, rng)
        want = decide(seq, params, rng).intersective
        got = trial(n, params, 2, stream(43, 3, t))
        assert got == want
        with monkeypatch.context() as patched:
            patched.setattr(intersectivity, "EXACT_LIMIT", 0)
            heuristic = trial(n, params, 2, stream(43, 3, t))
        assert heuristic or not want
        heuristic_free += not heuristic
    assert heuristic_free > 0


def test_trial_within_exact_limit_skips_the_heuristic(monkeypatch):
    """No heuristic search within the exact limit, and one forbidden-set
    build per trial that the odd-cycle certificate leaves open, none for a
    certified trial."""
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
    n = 13
    certified = set()
    for params in (ApParams(2, as_density(0.3)), ApParams(3, as_density(0.5))):
        target = density_target(n, params)
        for t in range(12):
            seq = DifferenceSequence.sample(n, 2, stream(47, 1, t))
            sure = odd_cycle_certified(seq, params.k, target)
            before = calls["forbidden"]
            trial(n, params, 2, stream(47, 1, t))
            assert calls["forbidden"] == before + (not sure), seq.entries
            certified.add(sure)
    assert certified == {True, False}
    assert calls["search"] == 0


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert 0.40 < lo < 0.5 < hi < 0.60
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)


def test_wilson_z_is_the_normal_quantile():
    """The stored z is the quantile at 95% confidence bit for bit, so no interval moves."""
    z = NormalDist().inv_cdf(0.5 + 0.95 / 2)
    assert intersectivity.WILSON_Z == z
    assert intersectivity.WILSON_Z.hex() == z.hex()


def test_run_trials_scheduling_independent():
    """Trial t draws only from stream (seed, m, t), whatever range it runs in."""
    n = 5
    p = ApParams(3, as_density(0.6))
    a = run_trials(n, p, 1, 64, 7)
    assert a == sum(trial(n, p, 1, stream(7, 1, t)) for t in range(64))
    # offset extends the index range rather than replaying draws
    c = run_trials(n, p, 1, 32, 7) + run_trials(n, p, 1, 32, 7, offset=32)
    assert c == a
    assert run_trials(n, p, 1, 32, 7, offset=32) == sum(
        trial(n, p, 1, stream(7, 1, t)) for t in range(32, 64))


def test_estimate_known_cases():
    est = estimate_critical_size(5, ApParams(3, as_density(1.0)),
                                 trials_per_m=50, seed=2)
    assert est.m_star == 1  # the full set always carries a progression
    est2 = estimate_critical_size(5, ApParams(3, as_density(0.6)),
                                  trials_per_m=100, seed=2)
    assert est2.m_star >= 2  # p(1) = 1/5 sits far below one half
    curve_m = [pt.m for pt in est2.curve]
    assert curve_m == sorted(curve_m)
    probed = {pt.m: pt for pt in est2.curve}
    assert probed[est2.m_star].p_hat >= 0.5
