"""Command-line driver for the experiment suite.

Each subcommand handler builds and returns a structured payload
(command, params, seed, results, assertions, version); ``main`` alone
appends it, with the wall time since dispatch and the peak RSS, to the
run ledger, and only then prints it to stdout as one line of JSON, so a
ledger that cannot be written leaves stdout empty.  Payloads are
deterministic for a fixed (command, config, seed); wall time and peak
RSS live only in the ledger copy.  Exit codes: 0 success, 1 failed
assertion, runtime error or unwritable ledger, 2 usage.

Every command runs in a fresh interpreter, where start-up is a large
share of a short run, so the module level holds only what every
subcommand uses, and no numpy; each handler imports the other layers it
calls.  ``critical-size`` and ``check`` at N up to ``EXACT_LIMIT`` run on
int bitmasks and the pure-Python stream and never load numpy; above it
the heuristic search loads numpy where it runs, and every other
subcommand loads it too.

BLAS runs on one thread unless the caller sets ``OPENBLAS_NUM_THREADS``:
an idle OpenBLAS pool spins on every core for no work in a short run,
and its size moves the last bits of dense spectral norms.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

# OpenBLAS reads this only when numpy loads, which here is later, in the
# handler that needs it; a process that loaded numpy first keeps its own
# policy, and its children inherit nothing new.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .counting import DifferenceSequence
from .groups import (MAX_PROGRESSION_LENGTH, ApParams, as_density, default_block_size,
                     density_target)
from .records import VERSION, append_ledger, dumps_record
from .rng import spawn_signs, stream

_LEDGER_DEFAULT = "./runs.ledger"


def _payload(command: str, params: dict, seed: int) -> dict:
    return {"command": command, "params": params, "seed": seed,
            "results": {}, "assertions": [], "version": VERSION}


def _assert_into(payload: dict, name: str, ok: bool, detail: str = "") -> None:
    payload["assertions"].append({"name": name, "pass": bool(ok), "detail": detail})


def _epsilon(text: str) -> Fraction:
    """The ``--epsilon`` value, an exact density in (0, 1]."""
    try:
        epsilon = as_density(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse epsilon {text!r}") from None
    if not 0 < epsilon <= 1:
        raise argparse.ArgumentTypeError("epsilon must lie in (0, 1]")
    return epsilon


def _difference_list(text: str) -> tuple[int, ...]:
    """The comma-separated ``--differences`` value, at least one integer."""
    try:
        diffs = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse differences {text!r}") from None
    if not diffs:
        raise argparse.ArgumentTypeError("no differences given")
    return diffs


def _peak_rss_kib() -> int:
    """This process's peak resident set in KiB.

    On Linux ``ru_maxrss`` also counts the image forked from the parent
    before exec, so ``VmHWM``, the high-water mark of this image alone, is
    read where ``/proc`` exists.  Elsewhere ``ru_maxrss`` is in KiB, except
    on macOS, which reports bytes.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak // 1024 if sys.platform == "darwin" else peak


def _finish(payload: dict, out: str, started: float) -> int:
    """Ledger ``payload`` with its run cost, then print it; return the exit code."""
    ledger_rec = dict(payload)
    ledger_rec["wall_time_s"] = time.monotonic() - started
    # MB here means MiB, as perfbench reports it
    ledger_rec["peak_rss_mb"] = _peak_rss_kib() / 1024.0
    append_ledger(out, ledger_rec)
    sys.stdout.write(dumps_record(payload) + "\n")
    return 0 if all(a["pass"] for a in payload["assertions"]) else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_critical_size(args) -> dict:
    from . import intersectivity
    params = ApParams(args.k, args.epsilon)
    payload = _payload("critical-size", {
        "modulus": args.modulus, "k": args.k,
        "epsilon": params.epsilon, "trials": args.trials,
        "exact_limit": intersectivity.EXACT_LIMIT,
    }, args.seed)
    est = intersectivity.estimate_critical_size(
        args.modulus, params, trials_per_m=args.trials, seed=args.seed)
    payload["results"] = {"m_star": est.m_star,
                          "curve": [p._asdict() for p in est.curve]}
    return payload


def cmd_check(args) -> dict:
    from . import intersectivity
    params = ApParams(args.k, args.epsilon)
    seq = DifferenceSequence(args.modulus, args.differences)
    payload = _payload("check", {
        "modulus": args.modulus, "k": args.k,
        "epsilon": params.epsilon,
        "differences": list(args.differences), "exact_limit": intersectivity.EXACT_LIMIT,
    }, args.seed)
    verdict = intersectivity.decide(seq, params, stream(args.seed, 1))
    w = verdict.witness
    payload["results"] = {
        "intersective": verdict.intersective,
        "method": verdict.method,
        "target_size": density_target(args.modulus, params),
        "witness": None if w is None else [v for v in range(args.modulus) if w >> v & 1],
    }
    return payload


def _verify_embedding_identity(payload, seed, inject_fault: bool):
    import numpy as np

    from . import discrepancy, embedding
    s, r = 2, 1
    rng = stream(seed, 10)
    checked = 0
    for rep in range(3):
        seq = DifferenceSequence.sample(11, 4, rng)
        for i in range(4):
            for j in range(4):
                if i == j or not discrepancy.is_good_pair(seq, i, j, r):
                    continue
                mat = embedding.pair_embedding(seq, i, j, s, r)
                if inject_fault and checked == 0:
                    key = min(mat.entries)
                    mat.entries[key] += 1
                for _ in range(3):
                    z = spawn_signs(rng, 11).astype(np.int64)
                    quad, rhs = embedding.identity_sides(seq, i, j, mat, z)
                    checked += 1
                    if quad != rhs:
                        detail = (f"replay: N=11 s=2 r=1 D={list(seq.entries)} "
                                  f"pair=({i},{j}) Z={z.tolist()} "
                                  f"quadratic={quad} closed_form={rhs}")
                        _assert_into(payload, "embedding-identity", False, detail)
                        return
    _assert_into(payload, "embedding-identity", True, f"{checked} instances")


def _verify_cauchy_schwarz(payload, seed):
    from . import discrepancy
    rng = stream(seed, 12)
    for rep in range(50):
        n = int(rng.integers(5, 13))
        k = int(rng.choice([3, 5]))
        m = int(rng.integers(1, 5))
        seq = DifferenceSequence.sample(n, m, rng)
        sigma = spawn_signs(rng, m)
        z = spawn_signs(rng, n)
        if not discrepancy.verify_cauchy_schwarz_step(seq, sigma, z, k):
            detail = (f"replay: N={n} k={k} D={list(seq.entries)} "
                      f"sigma={sigma.tolist()} Z={z.tolist()}")
            _assert_into(payload, "cauchy-schwarz-pointwise", False, detail)
            return
    _assert_into(payload, "cauchy-schwarz-pointwise", True, "50 instances")


def _verify_dominance(payload, seed):
    from . import discrepancy
    rng = stream(seed, 13)
    for rep in range(20):
        n = int(rng.integers(5, 11))
        m = int(rng.integers(1, 4))
        seq = DifferenceSequence.sample(n, m, rng)
        sigma = spawn_signs(rng, m)
        if not discrepancy.multilinear_dominance(seq, sigma, 3):
            _assert_into(payload, "multilinear-dominance", False,
                         f"replay: N={n} D={list(seq.entries)} sigma={sigma.tolist()}")
            return
    _assert_into(payload, "multilinear-dominance", True, "20 instances")


def _verify_norm_chain(payload, seed):
    import numpy as np

    from . import norms
    rng = stream(seed, 14)
    for rep in range(20):
        d = int(rng.integers(2, 13))
        half = rng.integers(-3, 4, size=(d, d))
        mat = (half + half.T).astype(np.float64)
        spec = norms.spectral_norm(mat)
        infone, _ = norms.inf_to_one_exact(mat)
        oto = norms.one_to_one_norm(mat)
        tol = 1e-6 * max(1.0, abs(spec))
        if infone > d * spec + tol or spec > oto + tol:
            _assert_into(payload, "norm-inequalities", False,
                         f"replay: dim={d} matrix={mat.tolist()}")
            return
    _assert_into(payload, "norm-inequalities", True, "20 instances")


def _verify_chain(payload, seed):
    from . import discrepancy, embedding
    params = ApParams(3)
    rng = stream(seed, 15)
    found = None
    for _ in range(50):
        try:
            cand = discrepancy.good_set_search(7, params, 4, rng)
        except discrepancy.GoodSetSearchError as err:
            best = err.best
            _assert_into(payload, "lower-bound-chain", False,
                         f"no well-spread sequence: best D={list(best.seq.entries)} "
                         f"collisions={best.collisions} multiplicity={best.multiplicity}")
            return
        found = cand
        pairs = [(i, j) for i in cand.partition.left for j in cand.partition.right]
        if any(discrepancy.is_good_pair(cand.seq, i, j, 1) for i, j in pairs):
            break  # at least one non-colliding cross pair, matrix is nonzero
    seq, part = found.seq, found.partition
    report = None
    for _ in range(10):  # redraw signs if the aggregate matrix cancels
        sigma = spawn_signs(rng, len(part.left))
        tau = spawn_signs(rng, len(part.right))
        z = spawn_signs(rng, 7)
        report = embedding.verify_lower_bound_chain(seq, part, sigma, tau, 2, 1, z)
        if not report.ok or report.norm_lower > 0:
            break
    detail = (f"quadratic={report.quadratic} closed={report.closed_form} "
              f"norm_lower={report.norm_lower:.6g}")
    _assert_into(payload, "lower-bound-chain", report.ok, detail)


def _verify_symmetrization(payload):
    from . import discrepancy
    for n, m in ((5, 1), (5, 2)):
        lhs, rhs = discrepancy.symmetrization_sides(n, m, 3)
        if lhs > rhs:
            _assert_into(payload, "symmetrization", False,
                         f"N={n} m={m}: lhs={lhs} > rhs={rhs}")
            return
    _assert_into(payload, "symmetrization", True, "N=5, m in {1,2}, exact")


def cmd_verify(args) -> dict:
    from . import discrepancy, embedding
    payload = _payload("verify", {
        "collision_slack": discrepancy.COLLISION_SLACK,
        "dimension_cap": embedding.DIMENSION_CAP,
        "inject_fault": bool(args.inject_fault),
    }, args.seed)
    _verify_embedding_identity(payload, args.seed, args.inject_fault)
    _verify_cauchy_schwarz(payload, args.seed)
    _verify_dominance(payload, args.seed)
    _verify_norm_chain(payload, args.seed)
    _verify_chain(payload, args.seed)
    _verify_symmetrization(payload)
    payload["results"]["all_pass"] = all(a["pass"] for a in payload["assertions"])
    return payload


def cmd_khintchine(args) -> dict:
    from . import norms
    if args.count * args.dim ** 2 > norms.DENSE_DIM_CAP ** 2:
        raise ValueError(f"count * dim^2 must be at most {norms.DENSE_DIM_CAP}^2, "
                         f"the size of one matrix at the dense cap")
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
    return payload


def _kimvu_sizes(args) -> tuple[int, int, int]:
    """Half-length r, set size s and fixed-set budget t of a kimvu run.

    s is at least 4r, so t = s // 2 is at least 2r, the size of every
    edge: the set-side average stays away from the trivial zero case.
    """
    r = ApParams(args.k).r
    s = max(4 * r, default_block_size(args.modulus, args.k))
    return r, s, s // 2


def cmd_kimvu(args) -> dict:
    from . import hyperpoly
    n = args.modulus
    r, s, t = _kimvu_sizes(args)
    p = Fraction(s, n)
    payload = _payload("kimvu", {
        "modulus": n, "k": args.k, "m": args.m, "s": s, "t": t,
        "prob": p, "trials": args.trials,
    }, args.seed)
    rng = stream(args.seed, 20)
    seq = DifferenceSequence.sample(n, args.m, rng)
    right = [j for j in range(args.m) if j != 0]
    h = hyperpoly.build_pair_weight_hypergraph(seq, 0, right, r)
    profile = hyperpoly.mu_profile(h, p) if h.edge_count() else None
    results = {
        "differences": list(seq.entries),
        "edge_count": h.edge_count(),
        "mu": profile.mu if profile else [],
    }
    if h.edge_count():
        report = hyperpoly.verify_set_vs_bernoulli(h, t, p)
        results["set_mean"] = report.set_mean
        results["bernoulli_mean"] = report.bernoulli_mean
        factors = (0.5, 1.0, 2.0)
        tails = hyperpoly.tail_probe(h, t, profile.mu_max, factors, args.trials,
                                     stream(args.seed, 22))
        results["tail"] = {f"c={c:g}": frac for c, frac in zip(factors, tails)}
        _assert_into(payload, "set-vs-bernoulli", report.holds,
                     f"set={report.set_mean} bernoulli={report.bernoulli_mean}")
    else:
        _assert_into(payload, "set-vs-bernoulli", True, "empty hypergraph")
    payload["results"] = results
    return payload


def cmd_norms(args) -> dict:
    from . import embedding, norms
    rng = stream(args.seed, 24)  # the 55 x 55 aggregated subset-pair matrix at N = 11
    for _ in range(10):  # redraw D and tau if the aggregate is zero
        seq = DifferenceSequence.sample(11, 4, rng)
        tau = spawn_signs(rng, 3)
        agg = embedding.aggregate_pair_embeddings(seq, 0, tau, (1, 2, 3), 2, 1)
        if agg.nnz():
            break
    mat = agg.to_dense()
    payload = _payload("norms", {}, args.seed)
    report = norms.norm_report(mat, stream(args.seed, 25))
    payload["results"] = {
        "dim": report.dim, "spectral": report.spectral,
        "one_to_one": report.one_to_one,
        "inf_to_one_lower": report.inf_to_one_lower,
        "inf_to_one_upper": report.inf_to_one_upper,
    }
    tol = 1e-6 * max(1.0, report.spectral)
    # the lower end is a certified sign-pair value, found without the spectral solve
    _assert_into(payload, "inf-to-one-below-dim-spectral",
                 report.inf_to_one_lower <= report.dim * report.spectral + tol)
    # S -> S xor U sends each entry to its transpose at the same start, so the
    # aggregate is symmetric and its 1->1 norm dominates the spectral norm
    _assert_into(payload, "spectral-below-one-to-one",
                 report.spectral <= report.one_to_one + tol)
    return payload


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aplab",
        description="Experiments on progression-forcing random difference sets",
        allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str) -> argparse.ArgumentParser:
        """A subcommand's parser, holding the flags that every subcommand takes."""
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=_LEDGER_DEFAULT,
                       help="ledger path (append-only)")
        p.set_defaults(func=func, parser=p)
        return p

    p = command("critical-size", cmd_critical_size, "estimate the threshold length m*")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--epsilon", type=_epsilon, default="0.5")
    p.add_argument("--trials", type=int, default=200)

    p = command("check", cmd_check, "decide intersectivity of explicit differences")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--epsilon", type=_epsilon, default="0.5")
    p.add_argument("--differences", type=_difference_list, required=True,
                   help="comma-separated difference list")

    p = command("verify", cmd_verify, "run the identity and inequality suite")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one matrix entry to exercise failure reporting")

    p = command("khintchine", cmd_khintchine, "random sign-sum spectral norm bench")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--trials", type=int, default=100)

    p = command("kimvu", cmd_kimvu, "hypergraph moment profiles and tails")
    p.add_argument("--modulus", type=int, default=11)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--trials", type=int, default=2000)

    command("norms", cmd_norms, "norm report for the aggregated window matrix")
    return parser


def _validate(args) -> str | None:
    if not 0 <= args.seed < 1 << 64:
        return "seed must lie in [0, 2^64)"
    if getattr(args, "modulus", 1) < 1:
        return "modulus must be positive"
    if getattr(args, "trials", 1) < 1:
        return "trials must be positive"
    if not 2 <= getattr(args, "k", 2) <= MAX_PROGRESSION_LENGTH:
        return f"k must lie in [2, {MAX_PROGRESSION_LENGTH}]"
    if args.command == "khintchine" and args.dim < 2:
        return "khintchine needs dim at least 2 (its bound has a log d factor)"
    if getattr(args, "count", 1) < 1:
        return "count must be positive"
    if getattr(args, "m", 1) < 1:
        return "m must be positive"
    diffs = getattr(args, "differences", ())
    if not all(0 <= d < args.modulus for d in diffs):
        return f"differences must lie in 0..{args.modulus - 1}"
    if args.command == "kimvu":
        # the preconditions of ApParams.r and verify_set_vs_bernoulli at p = s/N
        if args.k % 2 == 0:
            return "half-length r requires odd k"
        _, s, _ = _kimvu_sizes(args)
        if s >= args.modulus:
            return f"modulus must exceed the set size s={s}"
    return None


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # the subcommand's usage; argparse would print the top level's
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    problem = _validate(args)
    if problem is not None:
        args.parser.error(problem)  # the subcommand's usage; exits 2
    started = time.monotonic()
    try:
        return _finish(args.func(args), args.out, started)
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
