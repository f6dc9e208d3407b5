"""Command-line driver for the experiment suite.

Each subcommand builds a structured payload (command, params, seed,
results, assertions, version), prints it to stdout as JSON or CSV, and
appends it with a wall-time field to the run ledger.  Payloads are
deterministic for a fixed (command, config, seed); wall time lives only
in the ledger copy.  Exit codes: 0 success, 1 failed assertion, 2 usage.
"""
from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

import numpy as np

from . import discrepancy, embedding, hyperpoly, norms
from .counting import DifferenceSequence
from .groups import ApParams, Group, as_density, density_target
from .intersectivity import (EXACT_LIMIT_DEFAULT, estimate_critical_size,
                             is_intersective_exact, max_free_heuristic)
from .records import VERSION, append_ledger, dumps_record, record_to_csv
from .rng import spawn_signs, stream

_LEDGER_DEFAULT = "./runs.ledger"


def _payload(command: str, params: dict, seed: int) -> dict:
    return {"command": command, "params": params, "seed": seed,
            "results": {}, "assertions": [], "version": VERSION}


def _assert_into(payload: dict, name: str, ok: bool, detail: str = "") -> None:
    payload["assertions"].append({"name": name, "pass": bool(ok), "detail": detail})


def _epsilon_str(eps: Fraction) -> str:
    return f"{eps.numerator}/{eps.denominator}"


def _finish(payload: dict, args, started: float) -> int:
    text = (record_to_csv(payload) if args.format == "csv"
            else dumps_record(payload) + "\n")
    sys.stdout.write(text)
    ledger_rec = dict(payload)
    ledger_rec["wall_time_s"] = time.monotonic() - started
    append_ledger(args.out, ledger_rec)
    return 0 if all(a["pass"] for a in payload["assertions"]) else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_critical_size(args) -> int:
    started = time.monotonic()
    group = Group(args.modulus)
    params = ApParams(args.k, as_density(args.epsilon))
    payload = _payload("critical-size", {
        "modulus": args.modulus, "k": args.k,
        "epsilon": _epsilon_str(params.epsilon), "trials": args.trials,
        "exact_limit": args.exact_limit,
    }, args.seed)
    est = estimate_critical_size(group, params, trials_per_m=args.trials,
                                 seed=args.seed, exact_limit=args.exact_limit)
    payload["results"] = {
        "m_star": est.m_star,
        "curve": [{"m": p.m, "trials": p.trials, "successes": p.successes,
                   "p_hat": p.p_hat, "ci_low": p.ci_low, "ci_high": p.ci_high}
                  for p in est.curve],
    }
    return _finish(payload, args, started)


def cmd_check(args) -> int:
    started = time.monotonic()
    group = Group(args.modulus)
    params = ApParams(args.k, as_density(args.epsilon))
    try:
        diffs = tuple(int(tok) for tok in args.differences.split(",") if tok.strip())
    except ValueError:
        raise SystemExit(2)
    if not diffs:
        print("no differences given", file=sys.stderr)
        return 2
    seq = DifferenceSequence(group, diffs)
    payload = _payload("check", {
        "modulus": args.modulus, "k": args.k,
        "epsilon": _epsilon_str(params.epsilon),
        "differences": list(diffs), "exact_limit": args.exact_limit,
    }, args.seed)
    target = density_target(group, params)
    if group.modulus <= args.exact_limit:
        verdict = is_intersective_exact(seq, params, args.exact_limit)
        intersective = verdict.intersective
        witness = verdict.witness
        method = verdict.method
    else:
        found = max_free_heuristic(seq, params, stream(args.seed, 1))
        intersective = found.cardinality < target
        witness = None if intersective else found
        method = "heuristic"
    payload["results"] = {
        "intersective": intersective,
        "method": method,
        "target_size": target,
        "witness": list(witness.indices()) if witness is not None else None,
    }
    return _finish(payload, args, started)


def _verify_embedding_identity(payload, seed, inject_fault: bool, dimension_cap: int):
    group = Group(11)
    s, r = 2, 1
    rng = stream(seed, 10)
    checked = 0
    for rep in range(3):
        seq = DifferenceSequence.sample(group, 4, rng)
        for i in range(4):
            for j in range(4):
                if i == j or not embedding.is_good_pair(seq, i, j, r):
                    continue
                mat = embedding.pair_embedding(seq, i, j, s, r, dimension_cap)
                if inject_fault and checked == 0:
                    key = min(mat.entries)
                    mat.entries[key] += 1
                for _ in range(3):
                    z = spawn_signs(rng, group.modulus).astype(np.int64)
                    quad = mat.quadratic_form(embedding.lift_signs(z, s))
                    rhs = (embedding.embedding_scale(group.modulus, s, r)
                           * embedding.pair_window_sum(seq, i, j, r, z))
                    checked += 1
                    if quad != rhs:
                        detail = (f"replay: N=11 s=2 r=1 D={list(seq.entries)} "
                                  f"pair=({i},{j}) Z={z.tolist()} "
                                  f"quadratic={quad} closed_form={rhs}")
                        _assert_into(payload, "embedding-identity", False, detail)
                        return
    _assert_into(payload, "embedding-identity", True, f"{checked} instances")


def _verify_cauchy_schwarz(payload, seed):
    rng = stream(seed, 12)
    for rep in range(50):
        n = int(rng.integers(5, 13))
        k = int(rng.choice([3, 5]))
        m = int(rng.integers(1, 5))
        group = Group(n)
        seq = DifferenceSequence.sample(group, m, rng)
        sigma = spawn_signs(rng, m)
        z = spawn_signs(rng, n)
        if not discrepancy.verify_cauchy_schwarz_step(seq, sigma, z, k):
            detail = (f"replay: N={n} k={k} D={list(seq.entries)} "
                      f"sigma={sigma.tolist()} Z={z.tolist()}")
            _assert_into(payload, "cauchy-schwarz-pointwise", False, detail)
            return
    _assert_into(payload, "cauchy-schwarz-pointwise", True, "50 instances")


def _verify_dominance(payload, seed):
    rng = stream(seed, 13)
    for rep in range(20):
        n = int(rng.integers(5, 11))
        m = int(rng.integers(1, 4))
        group = Group(n)
        seq = DifferenceSequence.sample(group, m, rng)
        sigma = spawn_signs(rng, m)
        if not discrepancy.multilinear_dominance(seq, sigma, 3):
            _assert_into(payload, "multilinear-dominance", False,
                         f"replay: N={n} D={list(seq.entries)} sigma={sigma.tolist()}")
            return
    _assert_into(payload, "multilinear-dominance", True, "20 instances")


def _verify_norm_chain(payload, seed):
    rng = stream(seed, 14)
    for rep in range(20):
        d = int(rng.integers(2, 13))
        half = rng.integers(-3, 4, size=(d, d))
        mat = (half + half.T).astype(np.float64)
        spec, _ = norms.spectral_norm(mat)
        infone, _ = norms.inf_to_one_exact(mat)
        oto = norms.one_to_one_norm(mat)
        tol = 1e-6 * max(1.0, abs(spec))
        if infone > d * spec + tol or spec > oto + tol:
            _assert_into(payload, "norm-inequalities", False,
                         f"replay: dim={d} matrix={mat.tolist()}")
            return
    _assert_into(payload, "norm-inequalities", True, "20 instances")


def _verify_chain(payload, seed, slack, dimension_cap):
    group = Group(7)
    params = ApParams(3)
    rng = stream(seed, 15)
    found = None
    for _ in range(50):
        try:
            cand = discrepancy.good_set_search(group, params, 4, rng, slack=slack)
        except discrepancy.GoodSetSearchError as err:
            _assert_into(payload, "lower-bound-chain", False,
                         f"no well-spread sequence: best={err.best}")
            return
        found = cand
        pairs = [(i, j) for i in cand.partition.left for j in cand.partition.right]
        if any(embedding.is_good_pair(cand.seq, i, j, 1) for i, j in pairs):
            break  # at least one non-colliding cross pair, matrix is nonzero
    seq, part = found.seq, found.partition
    report = None
    for _ in range(10):  # redraw signs if the aggregate matrix cancels
        sigma = spawn_signs(rng, len(part.left))
        tau = spawn_signs(rng, len(part.right))
        z = spawn_signs(rng, group.modulus)
        report = embedding.verify_lower_bound_chain(
            seq, part, sigma, tau, 2, 1, z, dimension_cap=dimension_cap)
        if not report.ok or report.norm_lower > 0:
            break
    detail = (f"quadratic={report.quadratic} closed={report.closed_form} "
              f"norm_lower={report.norm_lower:.6g}")
    _assert_into(payload, "lower-bound-chain", report.ok, detail)


def _verify_symmetrization(payload):
    for n, m in ((5, 1), (5, 2)):
        lhs, rhs = discrepancy.symmetrization_sides(Group(n), m, 3)
        if lhs > rhs:
            _assert_into(payload, "symmetrization", False,
                         f"N={n} m={m}: lhs={lhs} > rhs={rhs}")
            return
    _assert_into(payload, "symmetrization", True, "N=5, m in {1,2}, exact")


def cmd_verify(args) -> int:
    started = time.monotonic()
    payload = _payload("verify", {
        "collision_slack": args.collision_slack,
        "dimension_cap": args.dimension_cap,
        "inject_fault": bool(args.inject_fault),
    }, args.seed)
    _verify_embedding_identity(payload, args.seed, args.inject_fault,
                               args.dimension_cap)
    _verify_cauchy_schwarz(payload, args.seed)
    _verify_dominance(payload, args.seed)
    _verify_norm_chain(payload, args.seed)
    _verify_chain(payload, args.seed, args.collision_slack, args.dimension_cap)
    _verify_symmetrization(payload)
    payload["results"]["all_pass"] = all(a["pass"] for a in payload["assertions"])
    return _finish(payload, args, started)


def cmd_khintchine(args) -> int:
    started = time.monotonic()
    payload = _payload("khintchine", {
        "dim": args.dim, "count": args.count, "trials": args.trials,
    }, args.seed)
    rng = stream(args.seed, 21)
    mats = [rng.standard_normal((args.dim, args.dim)) for _ in range(args.count)]
    report = norms.khintchine_bench(mats, args.trials, rng)
    payload["results"] = {
        "bound": report.bound, "mean_norm": report.mean_norm,
        "max_norm": report.max_norm, "mean_ratio": report.mean_ratio,
        "max_ratio": report.max_ratio,
    }
    _assert_into(payload, "mean-below-bound", report.mean_norm <= report.bound,
                 f"ratio={report.mean_ratio:.6g}")
    _assert_into(payload, "max-below-bound", report.max_norm <= report.bound,
                 f"ratio={report.max_ratio:.6g}")
    return _finish(payload, args, started)


def cmd_kimvu(args) -> int:
    started = time.monotonic()
    n = args.modulus
    group = Group(n)
    if args.single_edge:
        p = as_density(args.prob) if args.prob is not None else Fraction(1, 2)
        h = hyperpoly.HypergraphPoly(n)
        h.add_edge((0,))
        profile = hyperpoly.mu_profile(h, p)
        payload = _payload("kimvu", {
            "modulus": n, "single_edge": True, "prob": _epsilon_str(p),
        }, args.seed)
        payload["results"] = {
            "mu": [_epsilon_str(v) for v in profile.mu],
            "mu_max": _epsilon_str(profile.mu_max),
            "mu_prime": _epsilon_str(profile.mu_prime),
        }
        _assert_into(payload, "single-edge-profile",
                     profile.mu[0] == p and profile.mu[1] == 1,
                     "mu_0 = p, mu_1 = 1")
        return _finish(payload, args, started)

    params = ApParams(args.k, Fraction(1, 2))
    r = params.r
    # default block size keeps the set-side average away from the trivial
    # zero case (t must exceed the largest edge minus one)
    s = args.s if args.s is not None else max(4 * r, embedding.default_block_size(n, args.k))
    t = args.t if args.t is not None else max(2 * r, s // 2)
    p = Fraction(s, n)
    payload = _payload("kimvu", {
        "modulus": n, "k": args.k, "m": args.m, "s": s, "t": t,
        "prob": _epsilon_str(p), "trials": args.trials,
    }, args.seed)
    rng = stream(args.seed, 20)
    seq = DifferenceSequence.sample(group, args.m, rng)
    right = [j for j in range(args.m) if j != 0]
    h = hyperpoly.build_pair_weight_hypergraph(seq, 0, right, r)
    profile = hyperpoly.mu_profile(h, p) if h.edge_count() else None
    results = {
        "differences": list(seq.entries),
        "edge_count": h.edge_count(),
        "mu": [_epsilon_str(v) for v in profile.mu] if profile else [],
    }
    if h.edge_count():
        report = hyperpoly.verify_set_vs_bernoulli(h, t, p)
        results["set_mean"] = _epsilon_str(report.set_mean)
        results["bernoulli_mean"] = _epsilon_str(report.bernoulli_mean)
        tails = {}
        for c in (0.5, 1.0, 2.0):
            tails[f"c={c:g}"] = hyperpoly.tail_probe(h, t, p, c, args.trials,
                                                     stream(args.seed, 22))
        results["tail"] = tails
        _assert_into(payload, "set-vs-bernoulli", report.holds,
                     f"set={report.set_mean} bernoulli={report.bernoulli_mean}")
    else:
        _assert_into(payload, "set-vs-bernoulli", True, "empty hypergraph")
    payload["results"] = results
    return _finish(payload, args, started)


def cmd_norms(args) -> int:
    started = time.monotonic()
    payload = _payload("norms", {"demo": args.demo, "dim": args.dim}, args.seed)
    if args.demo == "identity":
        mat = np.eye(args.dim)
    elif args.demo == "random":
        rng = stream(args.seed, 23)
        half = rng.integers(-3, 4, size=(args.dim, args.dim))
        mat = (half + half.T).astype(np.float64)
    else:  # window: an aggregated subset-pair matrix
        group = Group(11)
        rng = stream(args.seed, 24)
        seq = DifferenceSequence.sample(group, 4, rng)
        tau = spawn_signs(rng, 3)
        mat = embedding.aggregate_pair_embeddings(
            seq, 0, tau, (1, 2, 3), 2, 1, args.dimension_cap)
    report = norms.norm_report(mat, rng=stream(args.seed, 25))
    payload["results"] = {
        "dim": report.dim, "spectral": report.spectral,
        "spectral_converged": report.spectral_converged,
        "one_to_one": report.one_to_one,
        "inf_to_one_lower": report.inf_to_one_lower,
        "inf_to_one_upper": report.inf_to_one_upper,
        "inf_to_one_exact": report.inf_to_one_exact,
    }
    tol = 1e-6 * max(1.0, report.spectral)
    if report.inf_to_one_exact is not None:
        _assert_into(payload, "inf-to-one-below-dim-spectral",
                     report.inf_to_one_exact <= report.dim * report.spectral + tol)
    sym = (mat.is_symmetric() if isinstance(mat, embedding.EmbeddingMatrix)
           else np.array_equal(mat, mat.T))
    if sym:
        _assert_into(payload, "spectral-below-one-to-one",
                     report.spectral <= report.one_to_one + tol)
    return _finish(payload, args, started)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aplab",
        description="Experiments on progression-forcing random difference sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=_LEDGER_DEFAULT,
                       help="ledger path (append-only)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("critical-size", help="estimate the threshold length m*")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--epsilon", default="0.5")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--exact-limit", type=int, default=EXACT_LIMIT_DEFAULT)
    common(p)
    p.set_defaults(func=cmd_critical_size)

    p = sub.add_parser("check", help="decide intersectivity of explicit differences")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--epsilon", default="0.5")
    p.add_argument("--differences", required=True,
                   help="comma-separated difference list")
    p.add_argument("--exact-limit", type=int, default=EXACT_LIMIT_DEFAULT)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="run the identity and inequality suite")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one matrix entry to exercise failure reporting")
    p.add_argument("--collision-slack", type=float, default=4.0)
    p.add_argument("--dimension-cap", type=int, default=embedding.DIMENSION_CAP_DEFAULT)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("khintchine", help="random sign-sum spectral norm bench")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_khintchine)

    p = sub.add_parser("kimvu", help="hypergraph moment profiles and tails")
    p.add_argument("--modulus", type=int, default=11)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--prob", default=None)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--single-edge", action="store_true")
    common(p)
    p.set_defaults(func=cmd_kimvu)

    p = sub.add_parser("norms", help="norm report for a demo matrix")
    p.add_argument("--demo", choices=("identity", "random", "window"),
                   default="identity")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--dimension-cap", type=int, default=embedding.DIMENSION_CAP_DEFAULT)
    common(p)
    p.set_defaults(func=cmd_norms)
    return parser


def _validate(args) -> str | None:
    if args.seed < 0:
        return "seed must be non-negative"
    if getattr(args, "modulus", 1) < 1:
        return "modulus must be positive"
    if getattr(args, "trials", 1) < 1:
        return "trials must be positive"
    if getattr(args, "k", 2) < 2:
        return "k must be at least 2"
    if getattr(args, "dim", 1) < 1:
        return "dim must be positive"
    if getattr(args, "count", 1) < 1:
        return "count must be positive"
    eps = getattr(args, "epsilon", None)
    if eps is not None:
        try:
            val = as_density(eps)
        except (ValueError, ZeroDivisionError):
            return f"cannot parse epsilon {eps!r}"
        if not 0 < val <= 1:
            return "epsilon must lie in (0, 1]"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate(args)
    if problem is not None:
        parser.error(problem)  # exits 2
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
