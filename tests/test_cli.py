"""CLI behavior: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from defset import cli, codes, cyclotomic, fields, verify
from defset.cli import EXIT_CAP, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from defset.closed_form import (_NB_LEMMA_ID, PredictedDistribution, classify,
                                first_of_each_class, predicted_distribution)
from defset.codes import (LemmaCheck, brute_weight_distribution, defining_set,
                          distribution_from_Nb, dual_distance_two, transform_Nc)
from defset.fields import FieldCtx, field
from defset.verify import gauss_checks, run_verification


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corrupt_prediction(monkeypatch):
    """Make every prediction's last row one codeword too many."""
    real = verify.predicted_distribution

    def off_by_one(p, m):
        pred = real(p, m)
        (w, a), rows = pred.rows[-1], pred.rows[:-1]
        return PredictedDistribution(rows + ((w, a + 1),), pred.n, pred.dimension)

    monkeypatch.setattr(verify, "predicted_distribution", off_by_one)


def test_build_header_and_enumerator(capsys):
    code, out, _ = run(capsys, "build", "--p", "3", "--m", "4")
    assert code == EXIT_OK
    assert "[29,4,18]" in out
    assert "1+44x^18+30x^21+6x^24" in out


def test_build_example_33(capsys):
    code, out, _ = run(capsys, "build", "--p", "3", "--m", "3")
    assert code == EXIT_OK
    assert "[8,3,4]" in out
    assert "1+6x^4+6x^5+8x^6+6x^7" in out


def test_build_csv_report(capsys):
    # the text report, with the distribution as a CSV block that includes the zero word
    code, out, _ = run(capsys, "build", "--p", "3", "--m", "3", "--format", "csv")
    assert code == EXIT_OK
    assert out == ("[8,3,4]\n1+6x^4+6x^5+8x^6+6x^7\n"
                   "weight,multiplicity\n0,1\n4,6\n5,6\n6,8\n7,6\n"
                   "defining set (c0,...,c_{m-1} per line):\n"
                   "1,0,0\n2,0,0\n2,0,1\n0,1,1\n0,2,1\n0,0,2\n2,1,2\n2,2,2\n")


def test_build_writes_defining_set(tmp_path, capsys):
    path = tmp_path / "d.txt"
    code, out, _ = run(capsys, "build", "--p", "3", "--m", "2", "--out", str(path))
    assert code == EXIT_OK
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 and len(lines[0].split(",")) == 2


def test_build_cap_exit(capsys):
    code, _, err = run(capsys, "build", "--p", "3", "--m", "9", "--max-q", "1000")
    assert code == EXIT_CAP
    assert "exceeds" in err


@pytest.mark.parametrize("p,m", [("3", "10000"), ("3", "9012"), ("3", "30000000"),
                                 ("10000000000000061", "2"), ("10000000000000062", "2")])
def test_oversize_field_is_refused_at_once(capsys, p, m):
    # neither p^m nor its digits are built, and a p above the cap is over it
    # whether or not it is prime
    for command in ("verify", "build", "gauss"):
        code, out, err = run(capsys, command, "--p", p, "--m", m)
        assert (code, out) == (EXIT_CAP, ""), command
        assert err == f"error: p^m = {p}^{m} exceeds the cap 20000\n"


def record_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each first argument."""
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda n: calls.append(n) or real(n))
    return calls


def test_prime_above_the_cap_is_not_trial_divided(capsys, monkeypatch):
    calls = record_calls(monkeypatch, fields, "is_prime")
    p = 10000000000000061
    assert run(capsys, "verify", "--p", str(p), "--m", "2")[0] == EXIT_CAP
    assert p not in calls
    # the recorder sees the primality test of a p under the cap
    assert run(capsys, "verify", "--p", "5", "--m", "2")[0] == EXIT_OK
    assert 5 in calls


def test_predict_proves_a_large_prime_without_factoring_it(capsys):
    fields.is_prime.cache_clear()
    p = 10000000000000061
    code, out, err = run(capsys, "predict", "--p", str(p), "--m", "3")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(f"p={p} m=3 ")
    # p^m - 1 sums the table's multiplicities, so the table is the closed form's
    rows = [line.split(",") for line in out.splitlines()[3:]]
    assert sum(int(a) for _, a in rows) == p ** 3 - 1


def test_predict_refuses_p_past_the_proved_primality_range(capsys):
    # MR_BOUND is composite, yet a strong probable prime to all 13 bases
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "predict", "--p", str(fields.MR_BOUND), "--m", "3",
                             "--format", fmt)
        assert (code, out) == (EXIT_CAP, "")
        assert err.count("\n") == 1 and str(fields.MR_BOUND) in err


def test_transform_past_its_exact_range_is_refused(capsys):
    # (1553, 2) needs l = 2431999, and 1553*l^2 >= 2^53; stdout stays empty
    code, out, err = run(capsys, "build", "--p", "1553", "--m", "2", "--max-q", "2500000")
    assert (code, out) == (EXIT_CAP, "")
    assert err == "error: the exact transform needs p*l^2 < 2^53, but p=1553 and l=2431999\n"


def test_build_cap_from_env(capsys, monkeypatch):
    monkeypatch.setenv("CAP", "100")
    code, _, _ = run(capsys, "build", "--p", "3", "--m", "6")
    assert code == EXIT_CAP
    # explicit flag wins over the environment
    monkeypatch.setenv("CAP", "100000000")
    code, _, _ = run(capsys, "build", "--p", "3", "--m", "6", "--max-q", "100")
    assert code == EXIT_CAP


def test_build_no_enumerate(capsys):
    code, out, _ = run(capsys, "build", "--p", "3", "--m", "4", "--no-enumerate")
    assert code == EXIT_OK
    assert "[29,4]" in out and "x^18" not in out


def test_build_past_default_cap(capsys):
    code, out, err = run(capsys, "build", "--p", "3", "--m", "10", "--max-q", "60000",
                         "--format", "json")
    assert code == EXIT_OK, err
    want = predicted_distribution(3, 10).with_zero_word()
    assert json.loads(out)["distribution"] == [[w, a] for w, a in want.items()]
    # pins the digits and the order of D as well as the layout
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "821e3f93477b8ffd9a28c2b31c70c30da46fa6851cd6df3f3f13ec92d343902b")


def test_dimension_at_3_2(capsys):
    # C_D at (3, 2) is one coordinate, and the b with c_b = 0 are 3 of the 9: k = 1
    code, out, _ = run(capsys, "predict", "--p", "3", "--m", "2")
    assert (code, out) == (EXIT_OK, "p=3 m=2 case=even_coprime theorem=2\n"
                           "length=1 dimension=1 rows=2\nweight,multiplicity\n0,2\n1,6\n")
    code, out, _ = run(capsys, "predict", "--p", "3", "--m", "2", "--format", "json")
    assert code == EXIT_OK and out == json.dumps(
        {"p": 3, "m": 2, "case": "even_coprime", "theorem": 2, "length": 1, "dimension": 1,
         "rows": [[0, 2], [1, 6]]}, indent=2) + "\n"
    code, out, _ = run(capsys, "build", "--p", "3", "--m", "2")
    assert (code, out) == (EXIT_OK, "[1,1,1]\n3+6x^1\n"
                           "defining set (c0,...,c_{m-1} per line):\n2,0\n")
    code, out, _ = run(capsys, "build", "--p", "3", "--m", "2", "--format", "json")
    assert code == EXIT_OK and out == json.dumps(
        {"p": 3, "m": 2, "n": 1, "k": 1, "d": 1, "enumerator": "3+6x^1",
         "distribution": [[0, 3], [1, 6]], "defining_set": ["2,0"]}, indent=2) + "\n"
    code, out, _ = run(capsys, "build", "--p", "3", "--m", "2", "--no-enumerate")
    assert (code, out.splitlines()[0]) == (EXIT_OK, "[1,1]")


def test_build_past_int16_characteristic(capsys):
    # every field table holds values up to p - 1, past int16 once p >= 32768;
    # at m = 1, tr(x^2 + x) = x^2 + x vanishes on F_p* only at x = -1
    code, out, err = run(capsys, "build", "--p", "32771", "--m", "1", "--max-q", "40000",
                         "--format", "json")
    assert code == EXIT_OK, err
    report = json.loads(out)
    assert report["n"] == 1
    assert report["defining_set"] == ["32770"]
    assert report["distribution"] == [[0, 1], [1, 32770]]


@pytest.mark.parametrize("p,m", [("1", "4"), ("9", "2"), ("25", "4"), ("2", "2"), ("-3", "2"),
                                 ("0", "2"), ("0", "3")])
def test_predict_rejects_p_not_an_odd_prime(capsys, p, m):
    # even m evaluates no Legendre symbol, so the table itself must check p
    code, out, err = run(capsys, "predict", "--p", p, "--m", m)
    assert code == EXIT_USAGE, out
    assert "not an odd prime" in err and not out


def test_predict_55(capsys):
    code, out, _ = run(capsys, "predict", "--p", "5", "--m", "5")
    assert code == EXIT_OK
    assert "length=624" in out
    assert "rows=5" in out


def test_predict_53_four_rows(capsys):
    code, out, _ = run(capsys, "predict", "--p", "5", "--m", "3", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["length"] == 19 and obj["theorem"] == 4
    assert obj["rows"] == [[14, 36], [15, 24], [16, 60], [19, 4]]
    assert out == json.dumps(obj, indent=2) + "\n"


def test_predict_36_rows(capsys):
    code, out, _ = run(capsys, "predict", "--p", "3", "--m", "6", "--format", "csv")
    assert code == EXIT_OK
    assert out == "weight,multiplicity\n162,98\n171,324\n180,306\n"
    code, out, _ = run(capsys, "predict", "--p", "3", "--m", "6")
    assert code == EXIT_OK
    assert out == ("p=3 m=6 case=even_divides theorem=1\nlength=260 dimension=6 rows=3\n"
                   "weight,multiplicity\n162,98\n171,324\n180,306\n")


def test_predict_past_the_integer_printing_limit(capsys, monkeypatch):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # the largest entry of the m = 9013 table has 4300 digits, so it still prints
        code, out, err = run(capsys, "predict", "--p", "3", "--m", "9013", "--format", "json")
        assert code == EXIT_OK and not err
        assert len(str(max(max(row) for row in json.loads(out)["rows"]))) == 4300
        for m in ("9014", "10000000"):
            for fmt in ("json", "text"):
                code, out, err = run(capsys, "predict", "--p", "3", "--m", m, "--format", fmt)
                assert (code, out) == (EXIT_CAP, "")
                assert err.count("\n") == 1 and "4300-digit" in err
        # a table that certainly cannot print is refused before it is built
        monkeypatch.setattr(cli, "predicted_distribution", None)
        assert run(capsys, "predict", "--p", "3", "--m", "10000000")[0] == EXIT_CAP
        monkeypatch.undo()
        # a limit of 0 is no limit
        sys.set_int_max_str_digits(0)
        assert run(capsys, "predict", "--p", "3", "--m", "9014")[0] == EXIT_OK
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_single_entry(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "5", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["checks"]["match"] is True
    assert obj["length"] == {"predicted": 71, "bruteforce": 71}


def test_verify_json_schema_keys(capsys):
    code, out, _ = run(capsys, "verify", "--p", "5", "--m", "3", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert list(obj) == ["p", "m", "case", "theorem", "length", "distribution",
                         "checks", "lemmas"]
    assert list(obj["checks"]) == ["match", "moments", "dual_distance_two", "ss_ratio"]
    assert set(obj["checks"]["ss_ratio"]) == {"wmin", "wmax", "passes"}
    assert obj["distribution"]["predicted"] == obj["distribution"]["bruteforce"]
    lemma = obj["lemmas"][0]
    assert list(lemma) == ["id", "params", "closed", "oracle", "match"]


def test_verify_grid(capsys):
    code, out, _ = run(capsys, "verify", "--grid", "3,3;3,4", "--format", "json")
    assert code == EXIT_OK
    arr = json.loads(out)
    assert [e["p"] for e in arr] == [3, 3] and [e["m"] for e in arr] == [3, 4]
    assert all(e["checks"]["match"] for e in arr)
    # an empty part between separators is skipped
    code, out, _ = run(capsys, "verify", "--grid", "3,3;;5,3", "--format", "json")
    assert code == EXIT_OK
    assert [(e["p"], e["m"]) for e in json.loads(out)] == [(3, 3), (5, 3)]


def test_verify_53_dual_reported_not_asserted(capsys):
    # four-weight degeneration: the dual distance is 3 there, so the dual check
    # is informational and everything else passes
    code, out, _ = run(capsys, "verify", "--p", "5", "--m", "3", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["checks"]["dual_distance_two"] is False
    assert obj["checks"]["ss_ratio"]["passes"] is False
    assert obj["checks"]["match"] is True


def test_verify_seven_entry_grid_exits_zero(capsys):
    code, _, _ = run(capsys, "verify", "--grid", "3,3;3,4;3,5;3,6;5,3;5,5;7,3")
    assert code == EXIT_OK


def test_verify_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "--grid", "3,3;3,4", "--format", "json")
    _, out2, _ = run(capsys, "verify", "--grid", "3,3;3,4", "--format", "json")
    assert out1 == out2
    assert "runtime_ms" not in out1


def test_verify_timestamps_flag(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "3", "--format", "json",
                       "--timestamps")
    assert code == EXIT_OK
    assert "runtime_ms" in out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_verify_corrupted_prediction_fails(capsys, monkeypatch):
    corrupt_prediction(monkeypatch)
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "4", "--format", "json")
    assert code == EXIT_MISMATCH
    obj = json.loads(out)
    assert obj["checks"]["match"] is False


def test_verify_checks_subset(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "4", "--format", "json",
                       "--checks", "distribution,moments")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["checks"]["match"] is True
    assert obj["lemmas"] == []
    assert obj["checks"]["dual_distance_two"] is None


def test_verify_m2_flagged_outside_hypothesis(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "2", "--format", "json")
    assert code == EXIT_OK  # distribution still matches; theorems make no claim
    obj = json.loads(out)
    assert obj["outside_theorem_hypothesis"] is True
    assert obj["checks"]["match"] is True


def test_verify_m2_lemma_mismatch_fails(capsys, monkeypatch):
    # outside the theorem hypotheses the lemma identities still gate the exit code
    real = verify.lemma8_value
    monkeypatch.setattr(verify, "lemma8_value", lambda p, m: real(p, m) + 1)
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "2")
    assert code == EXIT_MISMATCH
    assert "only distribution, lemmas, gauss gate the exit code" in out
    assert "MISMATCH lemma8" in out


@pytest.mark.parametrize("checks,note", [
    ("dual", "none of the selected checks gates"),
    ("dual,gauss", "only gauss gates"),
    ("ss-ratio,lemmas,moments,distribution", "only lemmas, distribution gate"),
    ("lemmas,lemmas,gauss", "only lemmas, gauss gate"),
])
def test_verify_m2_note_names_the_selected_gating_checks(capsys, checks, note):
    # at m <= 2 the moments, dual and ss-ratio checks are only reported
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "2", "--checks", checks)
    assert code == EXIT_OK
    assert f"  note: m <= 2 is outside the theorem hypotheses; {note} the exit code\n" in out


def test_a_repeated_check_family_is_selected_once(tmp_path, capsys):
    # each family is kept once, in the order first named, from the flag and the config alike
    want = run(capsys, "verify", "--p", "3", "--m", "2", "--checks", "lemmas,gauss",
               "--format", "json")
    assert want[0] == EXIT_OK
    assert run(capsys, "verify", "--p", "3", "--m", "2", "--checks", "lemmas,lemmas,gauss",
               "--format", "json") == want
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nm=2\nchecks=lemmas, gauss,lemmas\nformat=json\n")
    assert run(capsys, "verify", "--config", str(cfg)) == want
    cfg.write_text("p=3\nm=2\nchecks=lemmas,lemmas,gauss\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_OK and "; only lemmas, gauss gate the exit code\n" in out


def test_verify_csv_summary(capsys):
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "4", "--format", "csv")
    assert code == EXIT_OK
    header, row = out.strip().split("\n")
    assert header.startswith("p,m,case,theorem")
    assert row.startswith("3,4,even_coprime,2,29,29,True")
    code, out, _ = run(capsys, "verify", "--grid", "3,3;5,3", "--format", "csv")
    assert code == EXIT_OK
    assert out == ("p,m,case,theorem,n_predicted,n_bruteforce,match,"
                   "moment1,moment2,dual_distance_two,wmin,wmax,ss_passes,passed\n"
                   "3,3,odd_divides,3,8,8,True,True,True,True,4,7,False,True\n"
                   "5,3,odd_coprime,4,19,19,True,True,True,False,14,19,False,True\n")


def count_gauss_sum_exact(monkeypatch) -> list:
    """Count G's constructions through every defset module that imported the builder."""
    calls = []
    real = cyclotomic.gauss_sum_exact

    def counted(ctx):
        calls.append((ctx.p, ctx.m))
        return real(ctx)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "defset" and getattr(mod, "gauss_sum_exact", None) is real:
            monkeypatch.setattr(mod, "gauss_sum_exact", counted)
    return calls


def test_gauss_examples(capsys, monkeypatch):
    code, out, _ = run(capsys, "gauss", "--p", "3", "--m", "2")
    assert code == EXIT_OK
    assert "+3" in out and "PASS" in out

    code, out, _ = run(capsys, "gauss", "--p", "3", "--m", "1")
    assert code == EXIT_OK
    assert "i*sqrt(3)" in out

    code, out, _ = run(capsys, "gauss", "--p", "5", "--m", "1", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    sq = [c for c in obj["checks"] if c["id"] == "lemma5_square_identity"]
    assert sq[0] == {"id": "lemma5_square_identity", "closed": 5, "oracle": 5,
                     "match": True}
    assert out == json.dumps(obj, indent=2) + "\n"

    # the largest prime m = 1 case tested; (q-1)/2 = 4986 is even, so G^2 = +q.
    # One run builds G once, and both formats keep the bytes they had when the
    # run built it twice (SHA-256 of stdout).
    calls = count_gauss_sum_exact(monkeypatch)
    code, out, _ = run(capsys, "gauss", "--p", "9973", "--m", "1", "--format", "json")
    assert code == EXIT_OK and calls == [(9973, 1)]
    obj = json.loads(out)
    sq = [c for c in obj["checks"] if c["id"] == "lemma5_square_identity"]
    assert sq[0] == {"id": "lemma5_square_identity", "closed": 9973, "oracle": 9973,
                     "match": True}
    assert out == json.dumps(obj, indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6f22eb02a3b6a20013b6b19faef39b078e985dfd0df0fdb0466f923e81b6e3fd")
    calls.clear()
    code, out, _ = run(capsys, "gauss", "--p", "9973", "--m", "1", "--format", "text")
    assert code == EXIT_OK and calls == [(9973, 1)]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "71108593fc68f45873e8fdfd408ac2ac196ff3bf12f6d4e9b8e2859bc9f3c63a")


@pytest.mark.parametrize("grid,code,err", [
    ("3,3;3,40", EXIT_CAP, "p^m = 3^40 exceeds the cap 20000"),
    ("3,3;4,2", EXIT_USAGE, "p=4 is not an odd prime"),
    ("3,3;3,1;4,2", EXIT_USAGE, "closed form needs m >= 2, got m=1"),
])
def test_bad_grid_entry_is_refused_before_any_verification(capsys, monkeypatch, grid, code,
                                                            err):
    calls = []
    monkeypatch.setattr(cli, "run_verification", lambda *a, **k: calls.append(a))
    assert run(capsys, "verify", "--grid", grid) == (code, "", f"error: {err}\n")
    assert calls == []


def test_verify_builds_each_entry_table_once(capsys, monkeypatch):
    # the refuse-first loop checks m >= 2 itself; only the entry's run builds its table
    real, calls = cli.predicted_distribution, []

    def counted(p, m):
        calls.append((p, m))
        return real(p, m)

    monkeypatch.setattr(cli, "predicted_distribution", counted)
    monkeypatch.setattr(verify, "predicted_distribution", counted)
    assert run(capsys, "verify", "--grid", "3,3;5,2;3,4")[0] == EXIT_OK
    assert calls == [(3, 3), (5, 2), (3, 4)]


def test_usage_errors(capsys):
    assert run(capsys, "predict")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--grid", "nonsense")[0] == EXIT_USAGE
    for grid in (";", ""):
        code, _, err = run(capsys, "verify", "--grid", grid)
        assert code == EXIT_USAGE and "empty grid" in err
    assert run(capsys, "verify", "--p", "3", "--m", "3", "--grid", "5,3")[0] == EXIT_USAGE
    assert run(capsys, "verify", "--p", "4", "--m", "2")[0] == EXIT_USAGE
    for checks in ("bogus", ",", ""):
        assert run(capsys, "verify", "--p", "3", "--m", "3",
                   "--checks", checks)[0] == EXIT_USAGE


def test_malformed_numeric_settings_are_usage_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAP", "abc")
    code, _, err = run(capsys, "verify", "--p", "3", "--m", "3")
    assert code == EXIT_USAGE and "CAP" in err
    monkeypatch.delenv("CAP")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p=3\nm=3\nmax_q=x\n")
    code, _, err = run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_USAGE and "'max_q'" in err
    # a cap below 1 admits no field: it is malformed too, from any source
    for cap in ("-5", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "3", "--m", "2", "--max-q", cap])
        assert exc.value.code == EXIT_USAGE
        assert "--max-q" in capsys.readouterr().err
        monkeypatch.setenv("CAP", cap)
        code, _, err = run(capsys, "verify", "--p", "3", "--m", "2")
        assert code == EXIT_USAGE and "CAP" in err
        monkeypatch.delenv("CAP")
        cfg.write_text(f"p=3\nm=2\nmax_q={cap}\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == EXIT_USAGE and "'max_q'" in err
    assert run(capsys, "verify", "--p", "3", "--m", "1", "--max-q", "1")[0] == EXIT_CAP


def test_settings_a_subcommand_does_not_read_are_usage_errors(tmp_path, capsys, monkeypatch):
    for argv in (["verify", "--p", "3", "--m", "3", "--jobs", "2"],
                 ["predict", "--p", "3", "--m", "3", "--max-q", "5"],
                 ["gauss", "--p", "3", "--m", "1", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE, argv
    capsys.readouterr()
    # a flag whose output the chosen format does not carry; the format may come from config
    cfg = tmp_path / "csv.cfg"
    cfg.write_text("format=csv\n")
    for argv, names in (
            (["verify", "--p", "3", "--m", "3", "--format", "csv", "--timestamps"],
             ("--timestamps", "--format json")),
            (["verify", "--p", "3", "--m", "3", "--format", "text", "--timestamps"],
             ("--timestamps", "--format json")),
            (["build", "--p", "3", "--m", "3", "--format", "csv", "--no-enumerate"],
             ("--no-enumerate", "--format csv")),
            (["build", "--p", "3", "--m", "3", "--config", str(cfg), "--no-enumerate"],
             ("--no-enumerate", "--format csv"))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert all(name in err for name in names), err
    # predict builds no field, so the cap's environment variable is not its setting
    monkeypatch.setenv("CAP", "abc")
    assert run(capsys, "predict", "--p", "3", "--m", "3")[0] == EXIT_OK
    monkeypatch.delenv("CAP")
    cfg = tmp_path / "run.cfg"
    for command, text, key in (("verify", "p=3\nm=3\njobs=2\n", "'jobs'"),
                               ("predict", "grid=3,3;5,3\n", "'grid'"),
                               ("predict", "p=3\nm=3\nchecks=lemmas\n", "'checks'"),
                               ("predict", "p=3\nm=3\nmax_q=5\n", "'max_q'"),
                               ("gauss", "p=3\nm=1\nformat=csv\n", "'format'"),
                               ("verify", "p=3\nm=3\nmax-q=5\n", "'max-q'"),
                               ("verify", "p=3\nm=3\nformat=xml\n", "'format'")):
        cfg.write_text(text)
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, ""), text
        assert key in err, text


def test_verify_lemmas_honour_max_q(capsys):
    # the lemma oracles run on the entry's own field, so a raised cap reaches them
    code, out, err = run(capsys, "verify", "--p", "3", "--m", "10", "--max-q", "100000",
                         "--checks", "lemmas", "--format", "json")
    assert code == EXIT_OK, err
    assert all(c["match"] for c in json.loads(out)["lemmas"])


def test_verify_builds_each_field_once():
    field.cache_clear()
    run_verification(3, 4)
    assert field.cache_info().misses == 1


def test_verify_p43_m2_all_lemmas_match(capsys):
    # a large-p entry outside the acceptance grid: 1938 lemma checks
    code, out, err = run(capsys, "verify", "--p", "43", "--m", "2", "--format", "json")
    assert code == EXIT_OK, err
    obj = json.loads(out)
    assert obj["lemmas"] and all(c["match"] is True for c in obj["lemmas"])
    assert obj["checks"]["match"] is True


def test_verify_p139_m2_all_lemmas_match(capsys):
    # the largest m = 2 entry under the default cap
    code, out, err = run(capsys, "verify", "--p", "139", "--m", "2", "--format", "json")
    assert code == EXIT_OK, err
    obj = json.loads(out)
    assert obj["lemmas"] and all(c["match"] is True for c in obj["lemmas"])
    assert obj["checks"]["match"] is True
    # the largest report under the default cap (3.9 MB) is the stdlib's bytes, and
    # the bytes are pinned: a wrong value written consistently round-trips as well
    assert out == json.dumps(obj, indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3e5c4a153a2314423ea16bd44900ea1c10f44fe8d2bb394df7ae130434fcd70f")


def record_reports(monkeypatch) -> list:
    """Keep every report that `verify` computes."""
    reports, real = [], cli.run_verification
    monkeypatch.setattr(cli, "run_verification",
                        lambda *args, **kwargs: reports.append(real(*args, **kwargs))
                        or reports[-1])
    return reports


def swap_at_a_representative(monkeypatch):
    """Swap N_c at the representative of the last class with a nonzero c of another
    N_c: the distribution keeps its multiset, and that class's rows mismatch."""
    real = codes.transform_Nc

    def swapped(ds):
        nc = real(ds)
        first = first_of_each_class(ds.ctx)
        c1 = int(ds.ctx.trace_dual(first[first < ds.ctx.q][-1:])[0])
        c2 = int(np.flatnonzero(nc[1:] != nc[c1])[0]) + 1
        nc[[c1, c2]] = nc[[c2, c1]]
        return nc

    monkeypatch.setattr(codes, "transform_Nc", swapped)


def off_by_one_nb_table(monkeypatch):
    """Make every closed N_b one too many: each N_b row fails, and no lemma-9 row."""
    real = verify.class_tables

    def corrupted(p, m):
        return real(p, m) + [0, 1]  # N_b is entry 1 of each class's pair

    monkeypatch.setattr(verify, "class_tables", corrupted)


def off_by_one_lemma10_at_1(monkeypatch):
    """Make lemma 10's closed value at a = 1 one too many: that row alone fails."""
    real = verify.lemma10_N0a
    monkeypatch.setattr(verify, "lemma10_N0a", lambda p, m, a: real(p, m, a) + (a == 1))


def assert_verify_json_is_report_dict(capsys, monkeypatch, *argv):
    """`verify --format json` is json.dumps of report_dict of the reports it computed."""
    reports = record_reports(monkeypatch)
    code, out, err = run(capsys, "verify", *argv, "--format", "json")
    objs = [cli.report_dict(r, include_runtime="--timestamps" in argv) for r in reports]
    assert out == json.dumps(objs if "--grid" in argv else objs[0], indent=2) + "\n", argv
    assert code == (EXIT_OK if all(r.passed for r in reports) else EXIT_MISMATCH), err
    return code, objs


README_GRID = "3,3;3,4;3,5;3,6;3,8;5,3;5,4;5,5;7,3;7,4"


def test_verify_json_writes_the_class_columns_as_report_dict(capsys, monkeypatch):
    # the class rows are %-formatted from columns; report_dict materializes them
    assert assert_verify_json_is_report_dict(capsys, monkeypatch,
                                             "--grid", README_GRID)[0] == EXIT_OK
    for entry in README_GRID.split(";"):
        p, m = entry.split(",")
        assert_verify_json_is_report_dict(capsys, monkeypatch, "--p", p, "--m", m)
    for argv in (["--grid", "3,4;5,3", "--timestamps"],
                 ["--p", "7", "--m", "4", "--timestamps"],
                 ["--grid", "3,4;7,3", "--checks", "distribution,moments,dual,gauss"],
                 ["--p", "5", "--m", "5", "--checks", "lemmas"],
                 ["--grid", "3,2;13,2;5,3", "--checks", "lemmas"],
                 # the lemma-9 values at (191,2) are large and negative
                 ["--p", "191", "--m", "2", "--max-q", "40000"]):
        assert assert_verify_json_is_report_dict(capsys, monkeypatch, *argv)[0] == EXIT_OK
    # verify refuses m = 1 before any report is written
    assert run(capsys, "verify", "--p", "7", "--m", "1", "--format", "json")[:2] == (
        EXIT_USAGE, "")


FORCED_MISMATCHES = [swap_at_a_representative, off_by_one_nb_table, off_by_one_lemma10_at_1]


@pytest.mark.parametrize("force", FORCED_MISMATCHES)
def test_verify_json_writes_mismatched_class_rows_as_report_dict(capsys, monkeypatch, force):
    force(monkeypatch)
    for argv in (["--p", "7", "--m", "4"], ["--grid", "3,4;13,2;5,3"]):
        code, objs = assert_verify_json_is_report_dict(capsys, monkeypatch, *argv)
        assert code == EXIT_MISMATCH
        for obj in objs if isinstance(objs, list) else [objs]:
            bad = [row for row in obj["lemmas"] if row["match"] is False]
            assert bad and (bad[0]["id"] == "lemma9") == (force is swap_at_a_representative)
            if force is off_by_one_lemma10_at_1:
                assert [(row["id"], row["params"]) for row in bad] == [("lemma10", {"a": 1})]
            assert obj["checks"]["match"] is True


def count_lemma_checks(monkeypatch) -> list:
    """Record the id of every LemmaCheck built."""
    made, real = [], LemmaCheck.__init__

    def init(self, *args, **kwargs):
        made.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(LemmaCheck, "__init__", init)
    return made


def test_verify_builds_no_class_row_it_does_not_print(capsys, monkeypatch):
    # about 2p^2 class rows and p lemma-10 rows at (71,2), p lemma-16 rows at (13,3) and
    # p - 1 lemma-17 rows at (3,3); json and csv build only the scalar rows
    made = count_lemma_checks(monkeypatch)
    for fmt in ("json", "csv"):
        for p, m in ((71, 2), (13, 3), (3, 3)):
            made.clear()
            code, out, _ = run(capsys, "verify", "--p", str(p), "--m", str(m), "--format", fmt)
            assert code == EXIT_OK and out
            assert made and set(made) <= {"lemma8", "lemma11", "lemma12", "lemma5_square_identity",
                                          "lemma5_embedding"}, (fmt, p, m, made)


@pytest.mark.parametrize("force", FORCED_MISMATCHES)
def test_verify_text_builds_only_the_mismatched_class_rows(capsys, monkeypatch, force):
    # text lists exactly the mismatched rows, and builds no other column row
    nb_id = _NB_LEMMA_ID[classify(71, 2)]
    made = count_lemma_checks(monkeypatch)
    force(monkeypatch)
    reports = record_reports(monkeypatch)
    code, out, _ = run(capsys, "verify", "--p", "71", "--m", "2", "--format", "text")
    n_column_rows = sum(map(made.count, ("lemma9", nb_id, "lemma10")))
    rows = list(reports[0].lemma_checks)
    bad = [c for c in rows if not c.match]
    assert code == EXIT_MISMATCH and n_column_rows == len(bad)
    if force is swap_at_a_representative:
        assert [c.id for c in bad] == ["lemma9", nb_id] * (len(bad) // 2) and bad
    elif force is off_by_one_nb_table:
        assert [c.id for c in bad] == [c.id for c in rows if c.id == nb_id]
    else:
        assert [(c.id, c.params) for c in bad] == [("lemma10", {"a": 1})]
    assert f"  lemma checks: {len(rows)} run, {len(bad)} mismatched\n" in out
    assert [line for line in out.splitlines() if "MISMATCH" in line] == [
        f"    MISMATCH {c.id} {c.params}: closed={c.closed} oracle={c.oracle}" for c in bad]


def assert_only_trace_forms(ctx):
    # no multiplicative table: every array on the field is a trace form or a histogram
    # of one, or the digit place values the forms are built from; the companion-matrix
    # powers are built only by what multiplies
    arrays = {k for k, v in vars(ctx).items() if isinstance(v, np.ndarray)}
    assert {"trace_table", "trace_x2", "trace_pair_key", "trace_pair_counts"} <= arrays
    assert arrays <= {"_pows", "_trace_form", "trace_table", "trace_x2",
                      "trace_x2_plus_x", "trace_x2_counts", "trace_pair_key",
                      "trace_pair_counts"}
    # built afterwards, they agree with the trace forms
    xs = range(0, ctx.q, -(-ctx.q // 256))
    assert [ctx.trace(ctx.mul(x, x)) for x in xs] == ctx.trace_x2[xs].tolist()
    assert [ctx.trace(ctx.mul(ctx.p, x)) for x in xs] == ctx.trace_mul_all(ctx.p)[xs].tolist()
    assert np.array_equal(ctx.trace_table[ctx.basis_multiples(np.arange(ctx.q))],
                          [ctx.trace_mul_all(ctx.p ** i) for i in range(ctx.m)])
    ds = defining_set(ctx)
    assert brute_weight_distribution(ds) == distribution_from_Nb(ds, transform_Nc(ds))
    assert "_comp_pows" in vars(ctx)


def test_gauss_and_dual_leave_only_trace_forms_on_the_field():
    ctx = FieldCtx(3, 8)
    assert all(c.match for c in gauss_checks(ctx)[3])
    assert dual_distance_two(defining_set(ctx))
    # n, the Gauss sum and the dual check read H: no tr(x^2 + x) table is built
    assert "trace_x2_plus_x" not in vars(ctx)
    assert_only_trace_forms(ctx)


def test_verify_leaves_only_trace_forms_on_the_field():
    field.cache_clear()
    assert run_verification(3, 4).passed
    assert "trace_x2_plus_x" not in vars(field(3, 4))
    assert_only_trace_forms(field(3, 4))


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample\np=3\nm=4\nformat=json\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg))
    assert code == EXIT_OK
    assert json.loads(out)["p"] == 3
    # flags win over the config file
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--m", "3")
    assert json.loads(out)["m"] == 3
    # the entries come whole from the first source that names any of grid, p and m
    cfg.write_text("grid=7,3\nformat=json\n")
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--p", "3", "--m", "3")
    assert code == EXIT_OK
    assert (json.loads(out)["p"], json.loads(out)["m"]) == (3, 3)
    cfg.write_text("grid=7,3\np=3\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (EXIT_USAGE, "") and "grid" in err
    cfg.write_text("p=3\nm=3\nformat json\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (EXIT_USAGE, "") and "'format json'" in err


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"p=3\nm=3\n\xff=1\n")
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (EXIT_USAGE, "")
    assert len(err.splitlines()) == 1 and str(cfg) in err and "UTF-8" in err


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "bom.cfg"
    cfg.write_text("\ufeffp=3\nm=4\n", encoding="utf-8")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbfp=3")
    via_flags = run(capsys, "predict", "--p", "3", "--m", "4")
    assert via_flags[0] == EXIT_OK and run(capsys, "predict", "--config", str(cfg)) == via_flags


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--p", "3", "--m", "3", "--format", "json",
                     "--out", str(path))
    assert code == EXIT_OK
    assert json.loads(path.read_text())["checks"]["match"] is True


def test_run_verification_api(monkeypatch):
    rep = run_verification(3, 4)
    assert rep.passed and rep.match
    assert rep.n_bruteforce == rep.n_predicted == 29
    assert rep.theorem == 2
    assert rep.ss_ratio == (18, 24, True)
    corrupt_prediction(monkeypatch)
    bad = run_verification(3, 4)
    assert not bad.passed and not bad.match


# each exits in argparse: help, usage errors, and command lines naming no subcommand
PARITY_ARGV = [[], ["bogus"], ["-h", "verify"], ["--p", "3", "verify"]] + [
    [name, *tail] for name in ("build", "predict", "verify", "gauss")
    for tail in (["--help"], ["--bogus"], ["--format", "xml"], ["--max-q", "0"], ["--p"])
    if (name, tail[0]) != ("predict", "--max-q")]  # predict takes no --max-q


def test_main_prints_what_the_full_parser_prints(capsys, monkeypatch):
    # main builds only the invoked subcommand's parser, with the full parser's
    # exit code, help, usage and errors
    def outcome(parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    for columns in ("80", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in PARITY_ARGV:
            assert outcome(main, argv) == outcome(cli.build_parser().parse_args, argv), argv

    def refuse():
        raise AssertionError("main built the full parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, "verify", "--p", "3", "--m", "3")[0] == EXIT_OK


def test_subcommands_import_no_numpy_submodule():
    # a numpy submodule imported on first use (numpy.ma by np.unique, say) adds
    # about 1 MB to every run's peak RSS; after `import defset.cli`, no run imports one
    script = """
import contextlib, io, sys
from defset.cli import main
before = set(sys.modules)
for argv in (["verify", "--p", "5", "--m", "3"], ["build", "--p", "3", "--m", "4"],
             ["predict", "--p", "7", "--m", "3"], ["gauss", "--p", "3", "--m", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy"))
"""
    env = {k: v for k, v in os.environ.items() if k != "CAP"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_entry_point_exit_codes():
    # `python -m defset` in a fresh process: the exit code and stderr a user sees
    env = {k: v for k, v in os.environ.items() if k != "CAP"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")

    def defset(*argv):
        return subprocess.run([sys.executable, "-m", "defset", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    assert defset("predict", "--p", "3", "--m", "3").returncode == EXIT_OK
    proc = defset("predict", "--p", "0", "--m", "2")
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert defset("verify", "--p", "3", "--m", "30").returncode == EXIT_CAP
