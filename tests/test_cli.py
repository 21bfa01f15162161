import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cluster_dual import cli, evals, words

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(["verify", "PHI_REL", "--type", "A1", "--trials", "3",
                           "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["reports"][0]["name"] == "PHI_REL"
    assert payload["reports"][0]["failures"] == []


def test_verify_config_errors(capsys):
    assert run(["verify", "NOT_A_CHECK", "--type", "A1"], capsys)[0] == 2
    assert run(["verify", "PHI_REL", "--prime", "10"], capsys)[0] == 2
    assert run(["verify", "PHI_REL", "--prime", "97"], capsys)[0] == 2  # < 2^31
    code, _, err = run(["verify", "BRAID", "--type", "A3"], capsys)
    assert code == 2 and "BRAID has no desk instances for A3" in err
    code, _, err = run(["verify", "BRAID", "--type", "G2", "--trials", "1"], capsys)
    assert code == 2 and err == "error: BRAID has no desk instances for G2\n"
    assert run(["verify"], capsys)[0] == 2


def test_verify_rank_one_tables(monkeypatch, capsys):
    code, _, err = run(["verify", "PGL2_TABLE", "--type", "A2", "--trials", "1"], capsys)
    assert code == 2 and "PGL2_TABLE has no desk instances for A2" in err
    # under --all the rank-one tables are skipped on other types
    monkeypatch.setattr(evals, "CHECK_NAMES", ("PGL2_TABLE", "PHI_REL", "EVHAT_POISSON"))
    code, stdout, _ = run(["verify", "--all", "--type", "A2", "--trials", "1"], capsys)
    assert code == 0
    assert [r["name"] for r in json.loads(stdout)["reports"]] == ["PHI_REL"]


def test_verify_small_prime_override(capsys):
    code, _, _ = run(["verify", "PHI_REL", "--type", "A1", "--trials", "2",
                      "--prime", "97", "--allow-small-prime"], capsys)
    assert code == 0


def test_verify_braid_on_b2(capsys):
    assert run(["verify", "BRAID", "--type", "B2", "--trials", "3"], capsys)[0] == 0


def test_verify_all_on_b2_runs_its_map_level_checks(capsys):
    """B2 runs the checks that never reach the type-A matrix layer, and
    only those."""
    code, stdout, _ = run(["verify", "--all", "--type", "B2", "--trials", "3"], capsys)
    assert code == 0
    assert [r["name"] for r in json.loads(stdout)["reports"]] == ["T_LEMMA", "TORMUT", "BRAID"]
    code, _, err = run(["verify", "TWIST", "--type", "B2"], capsys)
    assert code == 2 and "TWIST has no desk instances for B2" in err


# sha256 of the `verify --all --type B2` payload at 3 trials, rng seed 0 and
# the default prime, with every elapsed_ms removed.
B2_REPORT_SHA256 = "fd9b6157f0b19156f5b4decbadfd4e07db19eb5bc48248638689bd389865bd8b"


def test_verify_all_on_b2_pinned(tmp_path, capsys):
    out = tmp_path / "B2.json"
    code, _, _ = run(["verify", "--all", "--type", "B2", "--trials", "3",
                      "--rng-seed", "0", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    for report in data["reports"]:
        del report["elapsed_ms"]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == B2_REPORT_SHA256


def test_verify_normalizes_the_type_label(capsys):
    """A lower-case label runs what its upper-case form runs, as
    ``compute`` accepts it, and the payload, config included, names the
    type by its normalized label."""
    payloads = []
    for label in ("a2", "A2"):
        code, stdout, _ = run(["verify", "--all", "--type", label, "--trials", "1"], capsys)
        assert code == 0
        payload = json.loads(stdout)
        for report in payload["reports"]:
            del report["elapsed_ms"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["config"]["type"] == "A2"
    assert {r["cartan_type"] for r in payloads[0]["reports"]} == {"A2"}
    assert run(["verify", "PHI_REL", "--type", "a1", "--trials", "1"], capsys)[0] == 0


@pytest.mark.parametrize("args", [["--type", "G2"], ["--type", "A3"], ["--type", "D4"]])
def test_verify_all_without_a_runnable_check_is_a_config_error(args, capsys):
    code, stdout, err = run(["verify", "--all", *args], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: no check runs on") and err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["verify", "PHI_REL", "--type", "A1", "--trials", "1"],
    ["compute", "seed", "--word", "1", "--type", "A1"]])
def test_unwritable_out_is_a_config_error(args, tmp_path, capsys):
    """An --out path that cannot be opened is a configuration error, not a
    failed identity: exit 2, one error line naming the path, no payload."""
    out = tmp_path / "missing" / "r.json"
    code, stdout, err = run([*args, "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: cannot write --out {out}") and err.count("\n") == 1


def test_verify_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code, _, _ = run(["verify", "PGL2_TABLE", "--type", "A1", "--trials", "3",
                          "--rng-seed", "7", "--out", str(f)], capsys)
        assert code == 0
    a = json.loads(f1.read_text())
    b = json.loads(f2.read_text())
    for rep in a["reports"] + b["reports"]:
        rep.pop("elapsed_ms")
    assert a == b


def test_module_entry_point_runs_once_without_warnings():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "cluster_dual.cli", "verify", "PHI_REL", "--type", "A1",
                           "--trials", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["reports"][0]["name"] == "PHI_REL"


def test_compute_seed(capsys):
    code, stdout, _ = run(["compute", "seed", "--word", "1,1", "--type", "A1"],
                          capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["bracket"]["epsilon"] == [[[0, 1], [-1, 1], [0, 1]],
                                             [[1, 1], [0, 1], [0, 1]],
                                             [[0, 1], [0, 1], [0, 1]]]


def test_compute_artin_t_example(capsys):
    code, stdout, _ = run(["compute", "artin-T", "--word", "1,1", "--type", "A1",
                           "--j", "1", "--point", "2,3,5"], capsys)
    assert code == 0
    assert json.loads(stdout)["point"] == ["9/64", "5/3", "5"]


@pytest.mark.parametrize("word, j, slot", [
    ("-1,-2,-1,1,2,1", 1, 7), ("-1,-2,-1,1,2,1", 2, 4),
    ("1,-2,2,-1,1,-2", 2, 7), ("2,1,-1,2,-2,-1", 1, 3),
])
def test_compute_artin_t_at_a_zero_frozen_coordinate(word, j, slot, capsys):
    """A zero right-frozen coordinate that the saltation core divides by is
    a singular point: an error line and exit code 2, not a traceback."""
    point = [2, 3, 5, 7, 11, 13, 17, 19]
    point[slot] = 0
    code, stdout, err = run(["compute", "artin-T", "--word", word, "--type", "A2",
                             "--j", str(j), "--point", ",".join(map(str, point))], capsys)
    assert code == 2 and stdout == ""
    assert err == "error: SingularPoint: zero right-frozen coordinate at the saltation core\n"


def test_compute_artin_t_refuses_a_generator_index_outside_the_rank(capsys):
    code, stdout, err = run(["compute", "artin-T", "--word", "1,2,1,1,2,1", "--type", "A2",
                             "--j", "3", "--point", "2,3,5,7,11,13,17,19"], capsys)
    assert code == 2 and stdout == ""
    assert err == "error: PreconditionFailed: generator index 3 outside 1..2\n"


def test_compute_ev_hat_example(capsys):
    code, stdout, _ = run(["compute", "ev-hat", "--word=-1,1", "--type", "A1",
                           "--point", "1,1,1"], capsys)
    assert code == 0
    assert json.loads(stdout)["matrix"] == [[[3, 1], [-1, 1]], [[4, 1], [-1, 1]]]


def test_compute_dimension_error(capsys):
    code, _, err = run(["compute", "ev", "--word", "1,1", "--type", "A1",
                        "--point", "1,2"], capsys)
    assert code == 2


def test_words_path_examples(capsys):
    code, stdout, _ = run(["words", "path", "--from=-1,1", "--to=1,-1",
                           "--type", "A1", "--moves", "mixed2"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["length"] == 1 and payload["path"][0]["kind"] == "mixed2"
    assert payload["path"][0]["letters_before"] == "-1,1"
    assert payload["path"][0]["letters_after"] == "1,-1"

    code, stdout, _ = run(["words", "path", "--from", "1,2,1", "--to", "2,1,2",
                           "--type", "A2", "--moves", "d"], capsys)
    assert code == 0
    assert json.loads(stdout)["length"] == 1

    code, stdout, _ = run(["words", "path", "--from=-1,1", "--to", "1,1",
                           "--type", "A1", "--moves", "dhat"], capsys)
    assert code == 0
    assert json.loads(stdout)["length"] == 2

    code, stdout, _ = run(["words", "path", "--from=-1,1", "--to=1,-1",
                           "--type", "A1", "--moves", "dual"], capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["length"] == 1 and payload["path"][0]["kind"] == "dual"

    code, _, err = run(["words", "path", "--from=-1,1", "--to=1,-1",
                        "--type", "A1", "--moves", "d"], capsys)
    assert code == 0  # the mixed 2-move is a generalized d-move

    code, _, err = run(["words", "path", "--from", "1", "--to=-1",
                        "--type", "A1", "--moves", "mixed2"], capsys)
    assert code == 1


def test_words_path_says_when_the_search_bound_stopped_it(monkeypatch, capsys):
    """A search that reaches the state bound is reported as such, not as
    a missing path; the exit code is 1 either way."""
    code, _, err = run(["words", "path", "--from", "1", "--to=-1",
                        "--type", "A1", "--moves", "mixed2"], capsys)
    assert (code, err) == (1, "no path: no ('mixed2',) path 1 -> -1\n")
    monkeypatch.setattr(words, "_MAX_STATES", 0)
    code, stdout, err = run(["words", "path", "--from", "1,2,1", "--to", "2,1,2",
                             "--type", "A2", "--moves", "d"], capsys)
    assert (code, stdout, err) == (1, "", "no path: search aborted after 0 states\n")


@pytest.mark.parametrize("spaced,glued", [
    (["compute", "ev", "--word", "-1,1", "--point", "2,3,5"],
     ["compute", "ev", "--word=-1,1", "--point=2,3,5"]),
    (["compute", "ev", "--word", "1,1", "--point", "-2,3,5"],
     ["compute", "ev", "--word=1,1", "--point=-2,3,5"]),
    (["compute", "ev-hat", "--word", "-1,-1", "--point", "-1/2,3,-5"],
     ["compute", "ev-hat", "--word=-1,-1", "--point=-1/2,3,-5"]),
    (["words", "path", "--from", "-1,1", "--to", "1,-1", "--moves", "mixed2"],
     ["words", "path", "--from=-1,1", "--to=1,-1", "--moves", "mixed2"]),
    (["words", "path", "--to", "-1,1", "--from", "-1,1"],
     ["words", "path", "--to=-1,1", "--from=-1,1"]),
])
def test_signed_values_take_the_spaced_spelling(spaced, glued, capsys):
    code, stdout, err = run(spaced + ["--type", "A1"], capsys)
    assert code == 0, err
    assert (code, stdout, err) == run(glued + ["--type", "A1"], capsys)


def test_words_path_help_lists_every_move_set(capsys):
    with pytest.raises(SystemExit):
        cli.main(["words", "--help"])
    moves_help = capsys.readouterr().out.rsplit("--moves MOVES", 1)[1].split()
    assert "dual" in cli.MOVE_SETS
    assert set(cli.MOVE_SETS) <= set(moves_help)


def test_env_seed_override(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("CLUSTER_DUAL_SEED", "99")
    out = tmp_path / "r.json"
    code, _, _ = run(["verify", "PHI_REL", "--type", "A1", "--trials", "2",
                      "--rng-seed", "3", "--out", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["config"]["rng_seed"] == 99


def test_compute_mutate(capsys):
    code, stdout, _ = run(["compute", "mutate", "--word", "1,1", "--type", "A1",
                           "--point", "2,3,5", "--direction", "1:1"], capsys)
    assert code == 0
    assert json.loads(stdout)["point"] == ["8", "1/3", "15/4"]
    code, _, _ = run(["compute", "mutate", "--word", "1,1", "--type", "A1",
                      "--point", "2,3,5"], capsys)
    assert code == 2


@pytest.mark.parametrize("args", [
    ["compute", "ev", "--word", "1,a", "--point", "1,2,3"],
    ["compute", "ev", "--word", "1,0", "--point", "1,2,3"],
    ["compute", "ev", "--word", "1,1", "--point", "1,x,3"],
    ["compute", "ev", "--word", "1,1", "--point", "1,1/0,3"],
    ["compute", "mutate", "--word", "1,1", "--point", "2,3,5", "--direction", "1-1"],
    ["compute", "mutate", "--word", "1,1", "--point", "2,3,5", "--direction", "1:1:1"],
    ["compute", "mutate", "--word", "1,1", "--point", "2,3,5", "--direction", "9:9"],
    ["words", "path", "--from", "1,,1", "--to", "1,1"],
    ["words", "path", "--from", "1,1", "--to", "0"],
    ["words", "path", "--from", "1,2,1", "--to", "2,1,2"],
])
def test_malformed_input_is_a_config_error(args, capsys):
    code, stdout, err = run(args + ["--type", "A1"], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


def test_malformed_env_seed_is_a_config_error(monkeypatch, capsys):
    monkeypatch.setenv("CLUSTER_DUAL_SEED", "seven")
    code, _, err = run(["verify", "PHI_REL", "--type", "A1", "--trials", "1"], capsys)
    assert code == 2
    assert err == "error: CLUSTER_DUAL_SEED must be an integer, got 'seven'\n"
