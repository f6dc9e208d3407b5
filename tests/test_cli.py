"""End-to-end subcommand behavior through main(argv)."""
import json

import pytest

from aplab.cli import _verify_dominance, main
from aplab.records import iter_ledger


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
    run_cli(capsys, tmp_path, "norms", "--demo", "identity", "--dim", "4")
    rows = list(iter_ledger(str(tmp_path / "runs.ledger")))
    assert len(rows) == 1
    assert rows[0]["wall_time_s"] >= 0.0
    assert "command" in rows[0]
    # stdout stays free of timing so repeated runs compare byte-equal
    assert "wall_time_s" not in capsys.readouterr().out


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


def test_khintchine_ratio_below_one(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "khintchine", "--dim", "32",
                        "--count", "16", "--trials", "100", "--seed", "7")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["max_ratio"] <= 1.0
    assert payload["results"]["mean_norm"] <= payload["results"]["bound"]


def test_kimvu_single_edge(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "kimvu", "--single-edge")
    payload = json.loads(out)
    assert code == 0
    assert payload["results"]["mu"] == ["1/2", "1/1"]


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


def test_csv_output_format(capsys, tmp_path):
    code, out = run_cli(capsys, tmp_path, "critical-size", "--modulus", "5",
                        "--epsilon", "1.0", "--trials", "50", "--seed", "1",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,trials,successes,p_hat,ci_low,ci_high"
    assert len(lines) >= 2


def test_usage_errors_exit_two(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["critical-size", "--modulus", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["critical-size", "--modulus", "5", "--epsilon", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_flags_belong_to_their_subcommands(capsys, tmp_path):
    for argv in (["khintchine", "--exact-limit", "5"],
                 ["verify", "--exact-limit", "5"],
                 ["critical-size", "--modulus", "5", "--collision-slack", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()
    # N=5 is within the default limit; --exact-limit 0 forces the heuristic
    code, out = run_cli(capsys, tmp_path, "check", "--modulus", "5",
                        "--epsilon", "0.6", "--differences", "1",
                        "--exact-limit", "0")
    payload = json.loads(out)
    assert code == 0
    assert payload["params"]["exact_limit"] == 0
    assert payload["results"]["method"] == "heuristic"
    code, out = run_cli(capsys, tmp_path, "verify", "--seed", "3",
                        "--dimension-cap", "100")
    assert code == 0
    assert json.loads(out)["params"]["dimension_cap"] == 100


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
