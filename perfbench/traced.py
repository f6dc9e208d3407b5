"""Run one aplab CLI command with spans around each module's public functions.

    python3 perfbench/traced.py SPANS.json <aplab arguments...>

The wrappers live here, not in the package: each replaces a module
attribute, because the package looks its callees up at call time
(``_kernels.X``, ``norms.X`` and the globals of ``intersectivity``).  A
name a module pulled in with ``from``-import is patched in that module's
namespace as well.  Spans stay in memory and are written to SPANS.json
when the command returns; the exit code is the command's.

A span is ``[name, start, end, parent, thread, cpu, info]``: perf_counter
start and end, the index of the enclosing span on the same thread (or
null), the thread id, the thread's CPU seconds inside the span, and a
small value computed from the call's arguments or result.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from aplab import (_kernels, cli, counting, discrepancy, embedding,  # noqa: E402
                   hyperpoly, intersectivity, norms, rng)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, info=None):
        """``fn`` with a span per call; ``info(args, result)`` fills the last field."""
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    threading.get_ident(), 0.0, None]
            with self._lock:
                stack.append(len(self.spans))
                self.spans.append(span)
            cpu0 = time.thread_time()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[5] = time.thread_time() - cpu0
                stack.pop()
            if info is not None:
                span[6] = info(args, result)
            return result
        return traced

    def patch(self, owners, attr, name, info=None):
        """Replace ``attr`` by one traced function in every namespace that holds it."""
        traced = self.wrap(name, getattr(owners[0], attr), info)
        for owner in owners:
            setattr(owner, attr, traced)


def _apfree_info(args, result):
    # positional: nvert, target, edge_ptr, edge_vtx, sizes, v_ptr, v_edges, perms, removals
    return [int(args[7].shape[0]), int(result[0]) >= int(args[1])]


def install(tracer: Tracer) -> None:
    t = tracer
    t.patch([intersectivity], "trial", "intersectivity.trial",
            lambda args, result: bool(result))
    t.patch([intersectivity], "exact_free_set", "intersectivity.exact_free_set",
            lambda args, result: result is not None)
    t.patch([intersectivity], "minimal_forbidden_sets",
            "intersectivity.minimal_forbidden_sets", lambda args, result: len(result))
    t.patch([_kernels], "apfree_search_kernel", "kernels.apfree_search", _apfree_info)
    t.patch([counting, intersectivity], "ap_average", "counting.ap_average")
    sample = counting.DifferenceSequence.__dict__["sample"].__func__
    counting.DifferenceSequence.sample = classmethod(t.wrap("counting.sample", sample))
    t.patch([rng, intersectivity, cli, norms], "stream", "rng.stream")
    # the sign-vector count 2^d is computed from the returned maximiser's length
    t.patch([norms], "inf_to_one_exact", "norms.inf_to_one_exact",
            lambda args, result: (1 << len(result[1])) if len(result[1]) else 0)
    t.patch([norms], "spectral_norm", "norms.spectral_norm")
    t.patch([norms], "khintchine_bench", "norms.khintchine_bench")
    for attr in ("pair_embedding", "verify_lower_bound_chain"):
        t.patch([embedding], attr, f"embedding.{attr}")
    for attr in ("multilinear_dominance", "verify_cauchy_schwarz_step",
                 "symmetrization_sides", "good_set_search"):
        t.patch([discrepancy], attr, f"discrepancy.{attr}")
    for attr in ("build_pair_weight_hypergraph", "mu_profile", "tail_probe"):
        t.patch([hyperpoly], attr, f"hyperpoly.{attr}")
    for attr in ("dumps_record", "append_ledger"):
        t.patch([cli], attr, f"records.{attr}")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
