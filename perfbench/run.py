"""The aplab benchmark: end-to-end and per-module timings of CLI workloads.

    python3 perfbench/run.py --workload critical-exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

Run from the root of a source checkout; the package is imported from
``src``.  Every CLI operation runs in a fresh interpreter, sequentially,
with the caller's environment (``APLAB_THREADS`` and ``APLAB_NO_NUMBA``
are recorded, never set).  Workloads are defined in ``workloads.json``;
a pass is one run of a workload's operations, each given ``--seed s``
where ``s`` is taken from the workload's ``seed_pool``; a run cycles
through the pool from an offset derived from ``--seed``.

``--trace 0`` runs passes, the first at the default CLI seed, until
``--seconds`` have elapsed and every seed of the pool has had a pass.  It
reports the end-to-end metrics as medians over the pass seeds of each
seed's median, so every run weighs the pool's instances alike:
``wall_s`` (spawn to reap, summed over the pass's operations), ``cpu_s``
(user+system of those processes and their threads), ``trials_per_s``
(Monte Carlo trials in the payloads per pass wall second),
``peak_rss_mb`` (largest child RSS in the pass) and ``setup_s`` (a fresh
interpreter importing ``aplab.cli``, median of several spawns).

``--trace 1`` runs a fixed number of passes twice, once plainly and once
under ``traced.py``, which wraps each module's public functions with spans.
The per-layer metrics are totals over the traced passes, so counts repeat
exactly for a given seed; ``trace.overhead_s`` is the median of traced
minus plain pass wall time.

Both modes gate correctness.  Every operation must exit 0 with all payload
assertions passing and a consistent critical-size curve; in traced passes
the per-trial decisions must add up to the curve's trial and success
totals, and each traced stdout must be byte-identical to its untraced
repeat.  Every pass must print stdout matching the sha256 digests pinned
for its seed under ``digests`` in ``workloads.json``, which covers every
seed of the pool, the default CLI seed among them.
``verify --seed 3 --inject-fault`` runs once as a negative control and
must be rejected by the same gate.  Failed operations are counted in
``failed``; ``error_rate`` is failed/attempted.  ``correct`` is true only
when no operation failed and the negative control was rejected.

The last stdout line is the result JSON; the lines before it are a human
summary.  The full record (facts, samples, metrics) is written to
``perfbench/out/<workload>-s<seed>-t<trace>.json``.  ``--compare`` takes
two directories of such records and prints the change of every median
metric against its bound, or flags the pair when machine facts differ; it
also shows the largest share of host CPU time stolen by other guests
during any run, read from ``/proc/stat``, since that is what makes runs
on a shared machine noisy.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TRACED = os.path.join(HERE, "traced.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
with open(os.path.join(HERE, "workloads.json"), encoding="ascii") as _fh:
    WORKLOADS = json.load(_fh)

SETUP_SPAWNS = 7
OP_TIMEOUT_S = 150
NEGATIVE_CONTROL = ["verify", "--seed", "3", "--inject-fault"]
DECISIONS = ("heuristic_free", "exact_free", "exact_intersective",
             "assumed_intersective")
FACTS_SCRIPT = """
import json, os, platform
import numpy, scipy
from aplab import _kernels, intersectivity
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
print(json.dumps({
    "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
    "python": platform.python_version(), "numpy": numpy.__version__,
    "scipy": scipy.__version__, "numba": numba_version,
    "use_numba": _kernels.USE_NUMBA,
    "worker_count": intersectivity.worker_count(),
    "env": {k: v for k, v in sorted(os.environ.items())
            if k.startswith("APLAB_") or k in names}}, sort_keys=True))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Op:
    argv: list
    code: int
    stdout: bytes
    wall: float
    cpu: float
    rss_mb: float
    spans: list | None = None
    payload: dict | None = None
    problems: list = field(default_factory=list)


def spawn(cmd: list, workdir: str) -> tuple[int, bytes, float, float, float]:
    """Run ``cmd`` to completion: exit code, stdout, wall s, CPU s, peak RSS MB."""
    with open(os.path.join(workdir, "stderr.txt"), "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=workdir, env=child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def run_op(argv: list, workdir: str, traced: bool = False) -> Op:
    full = [*argv, "--out", os.path.join(workdir, "runs.ledger")]
    spans_path = os.path.join(workdir, "spans.json")
    if traced:
        cmd = [sys.executable, TRACED, spans_path, *full]
    else:
        cmd = [sys.executable, "-m", "aplab.cli", *full]
    op = Op(argv, *spawn(cmd, workdir))
    if traced:
        with open(spans_path, encoding="ascii") as fh:
            op.spans = json.load(fh)
        os.remove(spans_path)
    check(op)
    return op


def decisions(spans: list) -> dict:
    """How each traced trial was settled, from its result and its child spans."""
    exact = set()
    for span in spans:
        if span[0] == "intersectivity.exact_free_set":
            parent = span[3]
            while parent is not None and spans[parent][0] != "intersectivity.trial":
                parent = spans[parent][3]
            if parent is not None:
                exact.add(parent)
    counts = dict.fromkeys(DECISIONS, 0)
    for idx, span in enumerate(spans):
        if span[0] == "intersectivity.trial":
            how = "exact" if idx in exact else ("assumed" if span[6] else "heuristic")
            counts[f"{how}_{'intersective' if span[6] else 'free'}"] += 1
    return counts


def check(op: Op) -> None:
    """Fill ``op.payload`` and list in ``op.problems`` every failed check."""
    if op.code != 0:
        op.problems.append(f"exit code {op.code}")
    try:
        op.payload = json.loads(op.stdout)
        results = op.payload["results"]
        failed = [a["name"] for a in op.payload["assertions"] if not a["pass"]]
    except (ValueError, KeyError, TypeError):
        op.problems.append("stdout is not one aplab payload")
        return
    if failed:
        op.problems.append("failed assertions: " + ", ".join(failed))
    if op.payload["command"] == "verify" and results.get("all_pass") is not True:
        op.problems.append("verify all_pass is not true")
    curve = results.get("curve")
    if curve is None:
        return
    trials = sum(p["trials"] for p in curve)
    successes = sum(p["successes"] for p in curve)
    if (not curve or any(not 0 <= p["successes"] <= p["trials"] for p in curve)
            or results["m_star"] not in [p["m"] for p in curve]):
        op.problems.append("inconsistent critical-size curve")
    if op.spans is not None:
        got = decisions(op.spans)
        intersective = got["exact_intersective"] + got["assumed_intersective"]
        if sum(got.values()) != trials or intersective != successes:
            op.problems.append(f"decisions {got} do not add up to {trials} trials "
                               f"with {successes} successes")


def draws(payload: dict) -> int:
    """Monte Carlo trials a payload reports: decided trials, sign draws, tail draws."""
    results, params = payload["results"], payload["params"]
    if "curve" in results:
        return sum(p["trials"] for p in results["curve"])
    return params.get("trials", 0) * max(1, len(results.get("tail", {})))


@dataclass
class Pass:
    seed: int
    ops: list

    @property
    def wall(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def cpu(self) -> float:
        return sum(op.cpu for op in self.ops)

    @property
    def rss_mb(self) -> float:
        return max(op.rss_mb for op in self.ops)

    @property
    def trials(self) -> int:
        return sum(draws(op.payload) for op in self.ops if op.payload)


def run_pass(spec: dict, seed: int, workdir: str, traced: bool = False) -> Pass:
    ops = [run_op([*argv, "--seed", str(seed)], workdir, traced)
           for argv in spec["ops"]]
    for op, pinned in zip(ops, spec["digests"][str(seed)]):
        digest = hashlib.sha256(op.stdout).hexdigest()
        if digest != pinned:
            op.problems.append(f"stdout sha256 {digest} != pinned {pinned}")
    return Pass(seed, ops)


def pass_seed(workload: str, spec: dict, seed: int, index: int) -> int:
    """The CLI seed of pass ``index``: the seed pool, from an offset set by ``seed``."""
    pool = spec["seed_pool"]
    offset = hashlib.sha256(f"{workload}/{seed}".encode()).digest()[0]
    return pool[(offset + index) % len(pool)]


def percentile(values: list, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(values: list) -> tuple[int, float] | None:
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    for pct in (99, 90, 50):
        if len(values) * (100 - pct) >= 1000:
            return pct, percentile(values, pct)
    return None


def gate(spec: dict, workdir: str) -> tuple[Pass, dict]:
    """The default-seed pass against its pinned digests, and the negative control."""
    default = run_pass(spec, spec["default_cli_seed"], workdir)
    control = run_op(NEGATIVE_CONTROL, workdir)
    details = [a["detail"] for a in (control.payload or {}).get("assertions", [])
               if not a["pass"]]
    negative = {"argv": NEGATIVE_CONTROL, "exit_code": control.code,
                "rejected": bool(control.problems) and control.code == 1
                and any(d.startswith("replay:") for d in details),
                "problems": control.problems}
    return default, negative


def setup_time(workdir: str) -> float:
    code, _, wall, _, _ = spawn([sys.executable, "-c", "import aplab.cli"], workdir)
    if code != 0:
        raise RuntimeError("importing aplab.cli failed")
    return wall


def facts(workdir: str) -> dict:
    code, out, _, _, _ = spawn([sys.executable, "-c", FACTS_SCRIPT], workdir)
    if code != 0:
        raise RuntimeError("collecting machine facts failed")
    return json.loads(out)


def timing(values: list, seeds: list | None = None) -> dict:
    """Median, tail percentile and count; with ``seeds``, the median is taken
    over the seeds of each seed's median, so every run weighs the same
    instances equally however many times it repeated each."""
    by_seed = defaultdict(list)
    for value, seed in zip(values, seeds or range(len(values))):
        by_seed[seed].append(value)
    entry = {"median": statistics.median(statistics.median(v) for v in by_seed.values()),
             "n": len(values)}
    tail = tail_percentile(values)
    if tail is not None:
        entry[f"p{tail[0]}"] = tail[1]
    return entry


def end_to_end(passes: list, setups: list) -> tuple[dict, dict]:
    samples = {
        "wall_s": [p.wall for p in passes],
        "cpu_s": [p.cpu for p in passes],
        "trials_per_s": [p.trials / p.wall for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    seeds = [p.seed for p in passes]
    return samples, {name: timing(vals, None if name == "setup_s" else seeds)
                     for name, vals in samples.items()}


def span_table(span_lists: list) -> dict:
    """Per span name: durations, CPU s, self wall s, self CPU s and info values.

    A span's self time is its duration minus the part its child spans
    cover; children run on the parent's thread and do not overlap.
    """
    table = defaultdict(lambda: {"dur": [], "cpu": 0.0, "self": 0.0,
                                 "self_cpu": 0.0, "info": []})
    for spans in span_lists:
        covered = [0.0] * len(spans)
        covered_cpu = [0.0] * len(spans)
        for span in spans:
            if span[3] is not None:
                covered[span[3]] += span[2] - span[1]
                covered_cpu[span[3]] += span[5]
        for idx, (name, start, end, _, _, cpu, info) in enumerate(spans):
            row = table[name]
            row["dur"].append(end - start)
            row["cpu"] += cpu
            row["self"] += end - start - covered[idx]
            row["self_cpu"] += cpu - covered_cpu[idx]
            row["info"].append(info)
    return table


def per_layer(traced: list, plain: list) -> tuple[dict, dict]:
    span_lists = [op.spans for p in traced for op in p.ops]
    table = span_table(span_lists)

    def calls(name):
        return len(table[name]["dur"]) if name in table else 0

    def busy(name):
        return sum(table[name]["dur"]) if name in table else 0.0

    def infos(name):
        return table[name]["info"] if name in table else []

    def ms(name, pct):
        return 1000.0 * percentile(table[name]["dur"], pct) if name in table else 0.0

    def rate(hits, total):
        return hits / total if total else 0.0

    exact, trial = "intersectivity.exact_free_set", "intersectivity.trial"
    apfree, mfs = "kernels.apfree_search", "intersectivity.minimal_forbidden_sets"
    counts = dict.fromkeys(DECISIONS, 0)
    for spans in span_lists:
        for key, value in decisions(spans).items():
            counts[key] += value
    m = {
        f"{exact}.calls": calls(exact), f"{exact}.busy_s": busy(exact),
        f"{exact}.p90_ms": ms(exact, 90),
        f"{exact}.found_rate": rate(sum(infos(exact)), calls(exact)),
        f"{apfree}.calls": calls(apfree), f"{apfree}.busy_s": busy(apfree),
        f"{apfree}.restarts": sum(i[0] for i in infos(apfree)),
        f"{apfree}.hit_rate": rate(sum(i[1] for i in infos(apfree)), calls(apfree)),
        f"{mfs}.calls": calls(mfs), f"{mfs}.busy_s": busy(mfs),
        f"{mfs}.edges_kept": sum(infos(mfs)),
        f"{trial}.calls": calls(trial), f"{trial}.busy_s": busy(trial),
        f"{trial}.wait_s": busy(trial) - (table[trial]["cpu"] if trial in table else 0.0),
        f"{trial}.p50_ms": ms(trial, 50), f"{trial}.p90_ms": ms(trial, 90),
        **{f"intersectivity.decisions.{k}": v for k, v in counts.items()},
        "counting.ap_average.calls": calls("counting.ap_average"),
        "counting.ap_average.busy_s": busy("counting.ap_average"),
        "counting.sample.busy_s": busy("counting.sample"),
        "rng.stream.calls": calls("rng.stream"),
        "norms.inf_to_one_exact.calls": calls("norms.inf_to_one_exact"),
        "norms.inf_to_one_exact.busy_s": busy("norms.inf_to_one_exact"),
        "kernels.infone_enum.sign_vectors": sum(infos("norms.inf_to_one_exact")),
        "norms.spectral_norm.calls": calls("norms.spectral_norm"),
        "norms.spectral_norm.busy_s": busy("norms.spectral_norm"),
        "norms.khintchine_bench.busy_s": busy("norms.khintchine_bench"),
        "embedding.pair_embedding.calls": calls("embedding.pair_embedding"),
        "embedding.pair_embedding.busy_s": busy("embedding.pair_embedding"),
        "embedding.verify_lower_bound_chain.busy_s":
            busy("embedding.verify_lower_bound_chain"),
        **{f"discrepancy.{n}.busy_s": busy(f"discrepancy.{n}")
           for n in ("multilinear_dominance", "verify_cauchy_schwarz_step",
                     "symmetrization_sides", "good_set_search")},
        **{f"hyperpoly.{n}.busy_s": busy(f"hyperpoly.{n}")
           for n in ("build_pair_weight_hypergraph", "mu_profile", "tail_probe")},
        "records.busy_s": busy("records.dumps_record") + busy("records.append_ledger"),
        "trace.overhead_s": statistics.median(
            t.wall - p.wall for t, p in zip(traced, plain)),
    }
    cpu = sum(p.cpu for p in traced)
    by_module = defaultdict(float)
    for name, row in table.items():
        by_module[name.split(".")[0]] += row["self_cpu"]
    shares = {
        "traced_cpu_s": cpu,
        "self_wall_s_by_span": {name: row["self"] for name, row in
                                sorted(table.items(), key=lambda kv: -kv[1]["self"])},
        "self_cpu_share_by_span": {name: row["self_cpu"] / cpu for name, row in
                                   sorted(table.items(),
                                          key=lambda kv: -kv[1]["self_cpu"])},
        "self_cpu_share_by_module": {name: s / cpu for name, s in
                                     sorted(by_module.items(), key=lambda kv: -kv[1])},
    }
    return m, shares


def cpu_ticks() -> tuple[int, int] | None:
    """Host steal ticks and all ticks from /proc/stat, or None where absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def units(section: str) -> dict:
    with open(BENCHMARK_JSON, encoding="ascii") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def measure(args, workdir: str) -> dict:
    spec = WORKLOADS[args.workload]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "facts": facts(workdir)}
    ticks = cpu_ticks()
    if args.trace == 0:
        setups = [setup_time(workdir) for _ in range(SETUP_SPAWNS)]
        # the gate's default-seed pass is the first timed pass
        start = time.perf_counter()
        default, negative = gate(spec, workdir)
        passes = [default]
        # at least --seconds, and the whole seed pool at least once
        while (time.perf_counter() - start < args.seconds
               or set(spec["seed_pool"]) - {p.seed for p in passes}):
            passes.append(run_pass(spec, pass_seed(args.workload, spec, args.seed,
                                                   len(passes) - 1), workdir))
        ops = [op for p in passes for op in p.ops]
        samples, summary = end_to_end(passes, setups)
        record["pass_seeds"] = [p.seed for p in passes]
        record["samples"], record["summary"] = samples, summary
        values = {name: entry["median"] for name, entry in summary.items()}
        wanted = units("end_to_end")
    else:
        default, negative = gate(spec, workdir)
        plain, traced = [], []
        for idx in range(spec["traced_passes"]):
            seed = pass_seed(args.workload, spec, args.seed, idx)
            plain.append(run_pass(spec, seed, workdir))
            traced.append(run_pass(spec, seed, workdir, traced=True))
            for a, b in zip(plain[-1].ops, traced[-1].ops):
                if a.stdout != b.stdout:
                    b.problems.append("stdout differs from the untraced repeat")
        ops = [op for p in [default, *plain, *traced] for op in p.ops]
        record["pass_seeds"] = [p.seed for p in traced]
        values, record["layer_shares"] = per_layer(traced, plain)
        wanted = units("per_layer")
    record["negative_control"] = negative
    # CPU time the hypervisor gave to other guests during the run: a noisy
    # run shows here, not in any metric
    end = cpu_ticks()
    record["steal_share"] = (None if ticks is None or end is None or end[1] == ticks[1]
                             else (end[0] - ticks[0]) / (end[1] - ticks[1]))
    failures = [{"argv": op.argv, "problems": op.problems} for op in ops if op.problems]
    record["failures"] = failures
    record["attempted"], record["failed"] = len(ops), len(failures)
    record["error_rate"] = len(failures) / len(ops)
    record["result"] = {
        "correct": not failures and negative["rejected"],
        "attempted": len(ops), "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}")
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    neg = record["negative_control"]
    print(f"negative control {' '.join(neg['argv'])}: exit {neg['exit_code']}, "
          f"{'rejected by the gate' if neg['rejected'] else 'NOT REJECTED'}")
    print(f"operations {record['attempted']}, failed {record['failed']}, "
          f"error_rate {record['error_rate']:.4g}, host steal share "
          f"{record['steal_share']}")
    for failure in record["failures"]:
        print(f"  FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
    for name, entry in record.get("summary", {}).items():
        extra = "".join(f" {k} {v:.6g}" for k, v in entry.items()
                        if k not in ("median", "n"))
        print(f"  {name}: median {entry['median']:.6g}{extra} (n={entry['n']})")
    shares = record.get("layer_shares")
    if shares:
        print("  span self time (wall s) and share of the traced passes' "
              f"{shares['traced_cpu_s']:.3f} CPU s:")
        cpu_share = shares["self_cpu_share_by_span"]
        for name, self_s in list(shares["self_wall_s_by_span"].items())[:8]:
            print(f"    {name:<48} {self_s:9.3f} s {cpu_share[name]:7.2%}")


def compare(old_dir: str, new_dir: str) -> int:
    """Median of each metric per (workload, trace) in two record directories."""
    bounds = {}
    with open(BENCHMARK_JSON, encoding="ascii") as fh:
        bench = json.load(fh)
    for metric in bench["end_to_end"]:
        bounds[metric["name"]] = (metric["bound"], metric["better"])

    def load(directory):
        groups = defaultdict(list)
        for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
            with open(path, encoding="ascii") as fh:
                rec = json.load(fh)
            groups[(rec["workload"], rec["trace"])].append(rec)
        return groups

    old, new = load(old_dir), load(new_dir)
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        facts = {json.dumps(r["facts"], sort_keys=True) for r in a + b}
        print(f"{key[0]} trace {key[1]}: {len(a)} old runs "
              f"({sum(r['failed'] for r in a)} failed ops), {len(b)} new runs "
              f"({sum(r['failed'] for r in b)} failed ops); largest host steal share "
              f"{max((r['steal_share'] or 0.0) for r in a):.3f} old, "
              f"{max((r['steal_share'] or 0.0) for r in b):.3f} new")
        if len(facts) > 1:
            print("  FACTS DIFFER between runs; not comparable as a change:")
            for text in sorted(facts):
                print(f"    {text}")
            continue
        for name in a[0]["result"]["metrics"]:
            va = statistics.median(r["result"]["metrics"][name]["value"] for r in a)
            vb = statistics.median(r["result"]["metrics"][name]["value"] for r in b)
            line = f"  {name:<52} {va:12.6g} -> {vb:12.6g}"
            if name in bounds and va:
                bound, better = bounds[name]
                worse = (vb - va) / va if better == "lower" else (va - vb) / va
                verdict = "REGRESSION" if worse > bound else "within bound"
                line += (f"  {'worse' if worse > 0 else 'better'} by {abs(worse):.2%}"
                         f" ({verdict} {bound:.0%})")
            print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "aplab", "cli.py")):
        print(f"no aplab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["default_seed"]
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        record = measure(args, workdir)
    path = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
