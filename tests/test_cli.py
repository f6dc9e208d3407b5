"""End-to-end subcommand behavior through main(argv)."""
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aplab import _kernels, cli, discrepancy, embedding, intersectivity, norms
from aplab.cli import _verify_dominance, main
from aplab.counting import DifferenceSequence
from aplab.rng import stream


def run_cli(capsys, tmp_path, *argv):
    code = main(list(argv) + ["--out", str(tmp_path / "runs.ledger")])
    out = capsys.readouterr().out
    return code, out


def test_critical_size_payload(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "critical-size", "--modulus", "5",
                        "--k", "3", "--epsilon", "0.6", "--trials", "200",
                        "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "params", "seed", "results",
                             "assertions", "version"]
    assert payload["command"] == "critical-size"
    assert payload["params"]["epsilon"] == "3/5"
    assert payload["results"]["m_star"] == 2
    curve = payload["results"]["curve"]
    assert curve[0]["m"] == 1
    assert abs(curve[0]["p_hat"] - 0.2) < 0.08  # true rate is 1/5
    assert "wall_time_s" not in payload


def test_ledger_carries_wall_time(capsys, tmp_path):
    """main alone prints and ledgers: one row per payload, none for a failed build."""
    runs = (["critical-size", "--modulus", "5", "--trials", "5"],
            ["check", "--modulus", "5", "--differences", "1"],
            ["verify"],
            ["khintchine", "--dim", "4", "--count", "2", "--trials", "5"],
            ["kimvu", "--trials", "20"],
            ["norms", "--demo", "identity", "--dim", "4"])
    for argv in runs:
        code, out = run_cli(capsys, tmp_path, *argv)
        assert code == 0, argv
        # stdout stays free of timing and memory so repeated runs compare byte-equal
        assert "wall_time_s" not in out and "peak_rss_mb" not in out, argv
    # a dimension past the dense cap fails before any payload exists
    code, out = run_cli(capsys, tmp_path, "norms", "--dim",
                        str(norms.DENSE_DIM_CAP + 1))
    assert (code, out) == (1, "")
    ledger = (tmp_path / "runs.ledger").read_text(encoding="ascii")
    rows = [json.loads(line) for line in ledger.splitlines()]
    assert [row["command"] for row in rows] == [argv[0] for argv in runs]
    for row in rows:
        assert row["wall_time_s"] >= 0.0
        assert row["peak_rss_mb"] > 0.0


def test_check_known_cases(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "check", "--modulus", "5",
                        "--epsilon", "0.6", "--differences", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["intersective"] is False
    assert payload["results"]["witness"] == [0, 1, 3]

    code, out = run_cli(capsys, tmp_path, "check", "--modulus", "5",
                        "--epsilon", "0.6", "--differences", "0")
    assert json.loads(out)["results"]["intersective"] is True

    code, out = run_cli(capsys, tmp_path, "check", "--modulus", "5",
                        "--epsilon", "0.6", "--differences", "1,2,3,4")
    assert json.loads(out)["results"]["intersective"] is True


def test_check_heuristic_branch(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "check", "--modulus", "61",
                        "--epsilon", "0.4", "--differences", "1,5,9",
                        "--seed", "2")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["method"] == "heuristic"
    assert payload["results"]["intersective"] is False
    assert len(payload["results"]["witness"]) >= payload["results"]["target_size"]


def test_check_certified_above_exact_limit(capsys, tmp_path, monkeypatch):
    """An odd cycle proves D = {1, 2} intersective in Z/61 with no search.

    With k = 2, 1 + 1 - 2 = 0 closes a triangle, so a free set has at most
    floor(61 * 2 / 6) = 20 < 25 points.
    """
    def no_search(*args):
        raise AssertionError("the search kernel ran")

    monkeypatch.setattr(_kernels, "apfree_search_kernel", no_search)
    code, out = run_cli(capsys, tmp_path, "check", "--modulus", "61", "--k", "2",
                        "--epsilon", "0.4", "--differences", "1,2")
    payload = json.loads(out)
    assert code == 0
    assert payload["params"]["exact_limit"] < 61
    assert payload["results"] == {"intersective": True, "method": "exact",
                                  "target_size": 25, "witness": None}


def test_verify_all_pass(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "verify", "--seed", "3")
    payload = json.loads(out)
    assert code == 0
    names = [a["name"] for a in payload["assertions"]]
    assert names == ["embedding-identity", "cauchy-schwarz-pointwise",
                     "multilinear-dominance", "norm-inequalities",
                     "lower-bound-chain", "symmetrization"]
    assert all(a["pass"] for a in payload["assertions"])
    assert payload["results"]["all_pass"] is True


def test_verify_dominance_passes_every_seed():
    # seeds such as 30 draw D holding 0 and N/2, where progressions repeat a point
    for seed in range(400):
        payload = {"assertions": []}
        _verify_dominance(payload, seed)
        assert payload["assertions"][0]["pass"], (seed, payload["assertions"])


def test_verify_inject_fault_fails(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "verify", "--seed", "3",
                        "--inject-fault")
    payload = json.loads(out)
    assert code == 1
    broken = [a for a in payload["assertions"] if not a["pass"]]
    assert len(broken) == 1
    assert broken[0]["name"] == "embedding-identity"
    assert "replay" in broken[0]["detail"]  # enough detail to reproduce


def test_chain_failure_names_the_best_attempt(capsys, tmp_path, monkeypatch):
    """When no sampled sequence is well spread, the chain's detail gives the
    best attempt's D, collision count and multiplicity, with no object repr."""
    monkeypatch.setattr(discrepancy, "COLLISION_SLACK", -1.0)  # no count is low enough
    monkeypatch.setattr(discrepancy, "GOOD_SET_ATTEMPTS", 3)
    rng = stream(3, 15)  # the chain's stream: the attempts' draws, replayed
    attempts = []
    for _ in range(3):
        seq = DifferenceSequence.sample(7, 4, rng)
        part = discrepancy.IndexPartition.random_balanced(4, rng)
        attempts.append((discrepancy.collision_count(seq, part, 1),
                         discrepancy.max_multiplicity(seq, 1), list(seq.entries)))
    coll, mult, entries = min(attempts, key=lambda a: a[:2])
    code, out = run_cli(capsys, tmp_path, "verify", "--seed", "3")
    assert code == 1
    chain = json.loads(out)["assertions"][4]
    assert chain == {"name": "lower-bound-chain", "pass": False,
                     "detail": f"no well-spread sequence: best D={entries} "
                               f"collisions={coll} multiplicity={mult}"}


def test_khintchine_ratio_below_one(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "khintchine", "--dim", "32",
                        "--count", "16", "--trials", "100", "--seed", "7")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["max_ratio"] <= 1.0
    assert payload["results"]["mean_norm"] <= payload["results"]["bound"]


def test_kimvu_instance(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "kimvu", "--modulus", "11",
                        "--m", "4", "--seed", "2", "--trials", "200")
    payload = json.loads(out)
    assert code == 0
    assert payload["assertions"][0]["name"] == "set-vs-bernoulli"
    assert payload["assertions"][0]["pass"] is True


def test_norms_identity_demo(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "norms", "--demo", "identity",
                        "--dim", "8")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["spectral"] == 1
    assert payload["results"]["inf_to_one_exact"] == 8
    assert payload["results"]["one_to_one"] == 1


def test_norms_random_demo_is_the_dense_spectral_norm(capsys, tmp_path):
    """Above dimension 512 the spectral norm is the dense solve, to the bit,
    and the inf->1 bracket's upper end is at most dim times it."""
    code, out = run_cli(capsys, tmp_path, "norms", "--demo", "random",
                        "--dim", "600", "--seed", "3")
    assert code == 0
    results = json.loads(out)["results"]
    half = stream(3, 23).integers(-3, 4, size=(600, 600))
    mat = (half + half.T).astype(np.float64)
    assert results["spectral"] == float(np.linalg.norm(mat, 2))
    assert "spectral_converged" not in results
    assert results["inf_to_one_exact"] is None
    assert (results["inf_to_one_lower"] <= results["inf_to_one_upper"]
            <= 600 * results["spectral"])


def test_usage_errors_exit_two(capsys, tmp_path):
    for argv in (["critical-size", "--modulus", "0"],
                 ["critical-size", "--modulus", "5", "--epsilon", "1.5"],
                 ["no-such-command"],
                 ["check", "--modulus", "7", "--differences", "1,x"],
                 ["check", "--modulus", "7", "--differences", "9"],
                 ["check", "--modulus", "7", "--differences", ","],
                 ["kimvu", "--m", "0"],
                 ["kimvu", "--k", "4"],
                 ["critical-size", "--modulus", "5", "--k", "21"],
                 ["kimvu", "--s", "1"],
                 ["check", "--modulus", "7", "--differences", "1", "--seed", "-1"],
                 ["check", "--modulus", "7", "--differences", "1",
                  "--seed", str(2**64 + 1)],
                 ["khintchine", "--dim", "1"],
                 ["norms", "--dim", "0"],
                 ["norms", "--demo", "window", "--dim", "8"],
                 ["norms", "--demo", "window", "--dim", "55"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "runs.ledger")])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.err.strip(), argv
        assert captured.out == "", argv
    assert not (tmp_path / "runs.ledger").exists()


def test_range_errors_report_their_subcommand_usage(capsys, tmp_path):
    """A value refused after parsing, such as a difference outside 0..N-1,
    and a flag the subcommand does not take print the subcommand's usage,
    not the top-level one."""
    for argv, message in ((["check", "--modulus", "7", "--differences", "9"],
                           "differences must lie in 0..6"),
                          (["critical-size", "--modulus", "0"], "modulus must be positive"),
                          (["kimvu", "--k", "4"], "half-length r requires odd k"),
                          (["norms", "--demo", "window", "--dim", "8"], "takes no dim"),
                          (["kimvu", "--s", "1"], "unrecognized arguments: --s 1"),
                          (["check", "--modulus", "7", "--differences", "1", "--bogus"],
                           "unrecognized arguments: --bogus")):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "runs.ledger")])
        captured = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert captured.out == "", argv
        assert captured.err.startswith(f"usage: aplab {argv[0]} "), argv
        assert message in captured.err, argv


def test_norms_window_demo_reports_its_own_size(capsys, tmp_path):
    """The window matrix is the fixed 55 x 55 aggregate; its params name no dim."""
    code, out = run_cli(capsys, tmp_path, "norms", "--demo", "window")
    payload = json.loads(out)
    assert code == 0
    assert payload["params"] == {"demo": "window"}
    assert payload["results"]["dim"] == 55
    _, out = run_cli(capsys, tmp_path, "norms", "--demo", "random")
    assert json.loads(out)["params"] == {"demo": "random", "dim": 8}


def test_norms_accepts_dim_one(capsys, tmp_path):
    """Only khintchine needs d >= 2; a 1 x 1 norm report is well defined."""
    code, out = run_cli(capsys, tmp_path, "norms", "--dim", "1")
    assert code == 0
    assert json.loads(out)["results"]["dim"] == 1


def test_norms_rejects_dim_above_dense_cap(capsys, tmp_path):
    """identity and random refuse a dimension past DENSE_DIM_CAP before building it."""
    dim = str(norms.DENSE_DIM_CAP + 1)
    for demo in ("identity", "random"):
        code = main(["norms", "--demo", demo, "--dim", dim,
                     "--out", str(tmp_path / "runs.ledger")])
        captured = capsys.readouterr()
        assert code == 1, demo
        assert captured.err.startswith("error:"), demo
        assert captured.out == "", demo
    assert not (tmp_path / "runs.ledger").exists()


def test_khintchine_refuses_more_than_one_capped_matrix(capsys, tmp_path, monkeypatch):
    """count * dim^2 above DENSE_DIM_CAP^2 fails before any matrix is drawn."""
    def no_draw(*args):
        raise AssertionError("khintchine drew matrices")

    monkeypatch.setattr(cli, "stream", no_draw)
    cap = norms.DENSE_DIM_CAP
    for dim, count in ((cap, 2), (cap // 2, 5), (cap + 1, 1)):
        code = main(["khintchine", "--dim", str(dim), "--count", str(count),
                     "--out", str(tmp_path / "runs.ledger")])
        captured = capsys.readouterr()
        assert code == 1, (dim, count)
        assert captured.err.startswith("error:"), (dim, count)
        assert captured.out == "", (dim, count)
    assert not (tmp_path / "runs.ledger").exists()


def test_unwritable_ledger_is_an_error_with_empty_stdout(capsys, tmp_path):
    """A ledger that cannot be written fails the run before anything is printed."""
    code = main(["check", "--modulus", "5", "--differences", "1",
                 "--out", str(tmp_path / "missing" / "x.ledger")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_flags_belong_to_their_subcommands(capsys, tmp_path, monkeypatch):
    """The exact limit, collision slack and dimension cap are constants, not flags,
    JSON is the only output format, kimvu derives s and t, and no flag may be
    abbreviated."""
    commands = (["critical-size", "--modulus", "5"],
                ["check", "--modulus", "7", "--differences", "1"],
                ["verify"], ["khintchine"], ["kimvu"], ["norms"])
    gone = [cmd + [flag, "5"] for cmd in commands
            for flag in ("--exact-limit", "--collision-slack", "--dimension-cap")]
    for argv in gone + [["critical-size", "--modulus", "5", "--exact-limit", "-5"],
                        ["check", "--modulus", "7", "--differences", "1",
                         "--exact-limit", "-1"],
                        ["verify", "--collision-slack", "-2"],
                        ["verify", "--dimension-cap", "-3"],
                        ["verify", "--dimension-cap", "0"],
                        ["norms", "--dimension-cap", "0"],
                        ["critical-size", "--modulus", "5", "--format", "csv"],
                        ["verify", "--format", "json"],
                        ["kimvu", "--single-edge"],
                        ["kimvu", "--prob", "0.3"],
                        ["kimvu", "--t", "3"],
                        ["critical-size", "--mod", "7", "--trials", "5"]]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "runs.ledger")])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.err.strip(), argv
        assert captured.out == "", argv
    assert not (tmp_path / "runs.ledger").exists()
    # N=5 is within the default limit; a limit of 0 forces the heuristic
    monkeypatch.setattr(intersectivity, "EXACT_LIMIT", 0)
    code, out = run_cli(capsys, tmp_path, "check", "--modulus", "5",
                        "--epsilon", "0.6", "--differences", "1")
    payload = json.loads(out)
    assert code == 0
    assert payload["params"]["exact_limit"] == 0
    assert payload["results"]["method"] == "heuristic"
    monkeypatch.setattr(embedding, "DIMENSION_CAP", 100)
    monkeypatch.setattr(discrepancy, "COLLISION_SLACK", 5.0)
    code, out = run_cli(capsys, tmp_path, "verify", "--seed", "3")
    assert code == 0
    params = json.loads(out)["params"]
    assert (params["dimension_cap"], params["collision_slack"]) == (100, 5.0)


def test_payload_determinism(capsys, tmp_path):
    argv = ["critical-size", "--modulus", "7", "--epsilon", "0.6",
            "--trials", "100", "--seed", "9"]
    _, first = run_cli(capsys, tmp_path, *argv)
    _, second = run_cli(capsys, tmp_path, *argv)
    assert first == second  # byte identical
    _, verify1 = run_cli(capsys, tmp_path, "verify", "--seed", "4")
    _, verify2 = run_cli(capsys, tmp_path, "verify", "--seed", "4")
    assert verify1 == verify2


def test_seeds_change_draws(capsys, tmp_path):
    _, a = run_cli(capsys, tmp_path, "khintchine", "--dim", "8", "--count",
                   "4", "--trials", "20", "--seed", "1")
    _, b = run_cli(capsys, tmp_path, "khintchine", "--dim", "8", "--count",
                   "4", "--trials", "20", "--seed", "2")
    assert json.loads(a)["results"] != json.loads(b)["results"]


def fresh_interpreter(args, **env) -> subprocess.CompletedProcess:
    """Run ``python *args`` on this checkout, with no BLAS thread setting unless given."""
    base = {name: value for name, value in os.environ.items()
            if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(base, PYTHONPATH=str(src), **env), check=True)


def test_ledger_peak_rss_leaves_out_the_launcher(tmp_path):
    """The ledger's ``peak_rss_mb`` is the command's own high-water mark: a
    launcher holding 64 MiB does not lift it (Linux ``ru_maxrss`` keeps the
    image forked from the parent across exec)."""
    ledger = tmp_path / "runs.ledger"
    argv = ["critical-size", "--modulus", "31", "--k", "2", "--epsilon", "0.45",
            "--trials", "8", "--out", str(ledger)]
    script = ("import subprocess, sys\n"
              "held = b'x' * (64 << 20)\n"
              f"subprocess.run([sys.executable, '-m', 'aplab.cli', *{argv!r}], check=True,\n"
              "               stdout=subprocess.DEVNULL)\n")
    fresh_interpreter(["-c", script])
    peak = json.loads(ledger.read_text(encoding="ascii"))["peak_rss_mb"]
    assert 0 < peak < 64


def modules_after_main(tmp_path, argv) -> tuple[int, set[str]]:
    """Exit code of ``main(argv)`` in a fresh interpreter, and the modules it loaded."""
    ledger = str(tmp_path / "runs.ledger")
    script = ("import json, sys\n"
              "import aplab.cli\n"
              f"code = aplab.cli.main({argv + ['--out', ledger]!r})\n"
              "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n")
    code, loaded = json.loads(fresh_interpreter(["-c", script]).stderr.splitlines()[-1])
    return code, set(loaded)


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "0"],
    ["critical-size", "--modulus", "7", "--trials", "5"],
    ["check", "--modulus", "7", "--differences", "1,2"],
    ["khintchine", "--dim", "4", "--count", "2", "--trials", "5"],
    ["kimvu", "--trials", "50"],
    ["norms", "--demo", "random", "--dim", "600"],
    ["norms", "--demo", "window"],
], ids=["verify", "critical-size", "check", "khintchine", "kimvu", "norms-random",
        "norms-window"])
def test_no_subcommand_imports_scipy(tmp_path, argv):
    """A fresh interpreter runs every subcommand without loading any scipy module.

    Every norm is a dense numpy solve, and importing scipy.sparse takes
    about as long as a short workload run.
    """
    code, loaded = modules_after_main(tmp_path, argv)
    assert code == 0
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []


@pytest.mark.parametrize("argv, used, unused", [
    (["critical-size", "--modulus", "7", "--trials", "5"], "intersectivity",
     ("discrepancy", "embedding", "hyperpoly", "norms")),
    (["check", "--modulus", "7", "--differences", "1,2"], "intersectivity",
     ("discrepancy", "embedding", "hyperpoly", "norms")),
    (["khintchine", "--dim", "4", "--count", "2", "--trials", "5"], "norms",
     ("intersectivity", "discrepancy", "embedding", "hyperpoly")),
    (["kimvu", "--trials", "50"], "hyperpoly",
     ("intersectivity", "embedding", "norms")),
])
def test_subcommands_load_only_their_layers(tmp_path, argv, used, unused):
    """Start-up is a large share of a short run, so a command loads no layer it never calls."""
    code, loaded = modules_after_main(tmp_path, argv)
    assert code == 0
    assert f"aplab.{used}" in loaded
    assert sorted(loaded & {f"aplab.{name}" for name in unused}) == []


needs_thread_count = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="counts threads in /proc/self/task, and OpenBLAS starts no pool on one core")


@needs_thread_count
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_cli_runs_blas_on_one_thread_unless_the_caller_says(env, threads):
    """numpy loaded after the CLI starts no idle BLAS pool; the caller's OpenBLAS
    setting wins.  The CLI itself loads no numpy at import."""
    script = "import os, aplab.cli, numpy\nprint(len(os.listdir('/proc/self/task')))\n"
    assert int(fresh_interpreter(["-c", script], **env).stdout) == threads


def test_cli_leaves_the_env_alone_once_numpy_is_loaded():
    """A library process keeps its own BLAS policy, and its children do too."""
    script = ("import os, numpy, aplab.cli\n"
              "print('OPENBLAS_NUM_THREADS' in os.environ)\n")
    assert fresh_interpreter(["-c", script]).stdout == "False\n"


def test_norms_stdout_does_not_depend_on_blas_threads(tmp_path):
    """A dense spectral norm at dimension 300 is byte-stable across hosts' core counts."""
    args = ["-m", "aplab.cli", "norms", "--demo", "random", "--dim", "300", "--seed", "3",
            "--out", str(tmp_path / "runs.ledger")]
    default = fresh_interpreter(args).stdout
    assert '"spectral":' in default
    assert default == fresh_interpreter(args, OPENBLAS_NUM_THREADS="1").stdout


WORKLOADS = json.loads((Path(__file__).resolve().parent.parent
                        / "perfbench" / "workloads.json").read_text(encoding="ascii"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_benchmark_pins_hold_at_the_default_seed(tmp_path, workload):
    """Each benchmark op prints the stdout pinned by digest for its default CLI seed."""
    spec = WORKLOADS[workload]
    seed = str(spec["default_cli_seed"])
    for argv, pinned in zip(spec["ops"], spec["digests"][seed], strict=True):
        stdout = fresh_interpreter(["-m", "aplab.cli", *argv, "--seed", seed,
                                    "--out", str(tmp_path / "runs.ledger")]).stdout
        assert hashlib.sha256(stdout.encode("ascii")).hexdigest() == pinned, argv


def test_trace_hooks_fit_the_package(tmp_path, monkeypatch):
    """Each workload's default-seed pass runs clean under ``perfbench/traced.py``.

    The tracer patches package functions by name and reads some kernel
    arguments by position, so a rename or a moved argument shows up here
    as a failed op: a nonzero exit, a changed digest or decision counts
    that no longer add up.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    for workload, wspec in sorted(run.WORKLOADS.items()):
        done = run.run_pass(wspec, wspec["default_cli_seed"], str(tmp_path), traced=True)
        assert [op.problems for op in done.ops] == [[] for _ in done.ops], workload
