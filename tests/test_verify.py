"""`defset.verify.FAMILIES`, the benchmark's traced replay of it, and its reference bytes."""

import importlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from defset import cli, closed_form, codes, report, verify
from defset.closed_form import (_NB_LEMMA_ID, ORACLES, THEOREM_NUMBER, classify, lemma10_N0a,
                                realized_b_classes)
from defset.codes import LemmaChecks, count_Nb, defining_set, transform_Nc
from defset.fields import DEFAULT_MAX_Q, field, is_prime
from defset.verify import FAMILIES, run_lemma_suite, run_verification

README_GRID = [(3, 3), (3, 4), (3, 5), (3, 6), (3, 8), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4)]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def asserted_at(family):
    return {(p, m) for p, m in README_GRID if FAMILIES[family].gate(p, m)}


def test_claims_ss_ratio_exactly_at_criterion_5_set():
    assert asserted_at("ss-ratio") == {(3, 5), (3, 6), (3, 8), (5, 5)}


def test_claims_dual_on_theorems_2_and_4_except_53():
    thm_2_4 = {(p, m) for p, m in README_GRID if THEOREM_NUMBER[classify(p, m)] in (2, 4)}
    assert (5, 3) in thm_2_4
    assert asserted_at("dual") == thm_2_4 - {(5, 3)}
    # the gate reads lemma 10's N(0, 0) > 1 (some x != 0 has tr(x) = tr(x^2) = 0);
    # it names no exception, and gives the one stated by hand (m = 3, p = 2 mod 3).
    # Every odd p < 200 and m >= 2 with p^m <= 10^40
    fields = 0
    for p in filter(is_prime, range(3, 200)):
        m = 2
        while p ** m <= 10 ** 40:
            by_hand = (m > 2 and THEOREM_NUMBER[classify(p, m)] in (2, 4)
                       and not (m == 3 and p % 3 == 2))
            assert FAMILIES["dual"].gate(p, m) == by_hand, (p, m)
            fields, m = fields + 1, m + 1
    assert fields == 1043


def test_claims_moments_iff_m_above_2():
    for p, m in README_GRID + [(3, 2), (5, 2), (7, 1)]:
        assert FAMILIES["moments"].gate(p, m) is (m > 2)


def test_claims_at_32_only_exact_identities():
    gating = [f for f, family in FAMILIES.items() if family.gate(3, 2)]
    assert gating == ["distribution", "lemmas", "gauss"]


# the key of the JSON "checks" object that each family fills; lemmas and gauss fill none
CHECKS_KEY = {"distribution": "match", "lemmas": None, "gauss": None, "moments": "moments",
              "dual": "dual_distance_two", "ss-ratio": "ss_ratio"}


@pytest.mark.parametrize("family", list(CHECKS_KEY))
@pytest.mark.parametrize("p,m", [(3, 4), (3, 2)])
def test_a_family_run_alone_fills_only_its_own_check(capsys, family, p, m):
    assert cli.main(["verify", "--p", str(p), "--m", str(m), "--checks", family,
                     "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    filled = [k for k, v in obj["checks"].items() if v is not None]
    assert filled == ([CHECKS_KEY[family]] if CHECKS_KEY[family] else []), filled
    ids = {row["id"] for row in obj["lemmas"]}
    gauss_ids = {"lemma5_square_identity", "lemma5_embedding"}
    assert ids == {"lemmas": ids - gauss_ids, "gauss": gauss_ids}.get(family, set())
    assert bool(ids) is (family in ("lemmas", "gauss"))


def test_a_new_family_is_one_table_entry(capsys, monkeypatch):
    # a copy of dual that gates at every m > 2, (5,3) included, where dual is only reported
    runs = []

    def run(ds, pred):
        runs.append((ds.ctx.p, ds.ctx.m))
        return verify.dual_distance_two(ds)

    monkeypatch.setitem(verify.FAMILIES, "dual-everywhere", verify.FAMILIES["dual"]._replace(
        gate=lambda p, m: m > 2, run=run))
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    # argparse may wrap the list at a hyphen
    assert "dual,ss-ratio,dual-everywhere" in "".join(capsys.readouterr().out.split())

    def verify_exit(*argv):
        code = cli.main(["verify", *argv, "--format", "json"])
        return code, json.loads(capsys.readouterr().out)["checks"]["dual_distance_two"]

    assert verify_exit("--p", "5", "--m", "3", "--checks", "dual") == (0, False)
    assert runs == []
    assert verify_exit("--p", "5", "--m", "3", "--checks", "dual-everywhere") == (1, False)
    assert verify_exit("--p", "3", "--m", "2", "--checks", "dual-everywhere") == (0, False)
    assert verify_exit("--p", "3", "--m", "4", "--checks", "gauss,dual-everywhere") == (0, True)
    assert runs == [(5, 3), (3, 2), (3, 4)]


@pytest.mark.parametrize("checks,runs", [
    ("distribution", 2), ("moments", 2), ("ss-ratio", 2), ("lemmas", 2),
    ("ss-ratio,lemmas,distribution", 2), (",".join(cli.CHECK_FAMILIES), 2), ("gauss,dual", 0)])
def test_verify_runs_the_transform_once_per_entry_that_reads_it(capsys, monkeypatch,
                                                                  checks, runs):
    calls, real = [], codes.transform_Nc
    monkeypatch.setattr(codes, "transform_Nc", lambda ds: calls.append(ds) or real(ds))
    assert cli.main(["verify", "--grid", "3,4;5,3", "--checks", checks]) == 0
    assert len(calls) == runs


def test_perfbench_replay_matches_run_verification(tmp_path, monkeypatch):
    # perfbench/run.py --trace 1 replays run_verification stage by stage; a move
    # that breaks the replay fails here rather than only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    replay = importlib.import_module("replay")
    entries = [(3, 3), (5, 3), (3, 2)]
    replayed = replay.replay_pass(replay.Tracer(), entries, DEFAULT_MAX_Q,
                                  cli.CHECK_FAMILIES, tmp_path / "out.json")
    for rep, (p, m) in zip(replayed, entries):
        real = cli.run_verification(p, m, max_q=DEFAULT_MAX_Q, checks=cli.CHECK_FAMILIES)
        assert replay.same_work(rep, real), (p, m)


def test_verify_reports_match_the_benchmark_reference(tmp_path, monkeypatch):
    # each workload's seed-0 pass, with its flags, as perfbench/run.py checks it: the text
    # is exactly json.dumps(objs, indent=2) + "\n" and each entry has its recorded SHA-256
    monkeypatch.syspath_prepend(str(PERFBENCH))
    reference = importlib.import_module("reference")
    variants = json.loads(reference.REFERENCE.read_text(encoding="utf-8"))["variants"]
    out = tmp_path / "pass.json"
    for wl in reference.WORKLOADS.values():
        ref, entries = variants[wl.variant], wl.draw(0)
        code = cli.main(["verify", "--grid", reference.grid_arg(entries), "--format", "json",
                         "--out", str(out), *wl.flags()])
        assert code == reference.expected_exit(ref, entries), wl.name
        matching = reference.matching_entries(out.read_text(encoding="utf-8"), ref, entries)
        assert matching == [True] * len(entries), wl.name


@pytest.mark.parametrize("p,m", [(3, 5), (5, 3), (7, 4), (13, 2), (71, 2)])
def test_lemma_suite_reads_nb_of_each_class(p, m):
    # the suite reads N_b and B_b off the transform's vector at c(b); the per-b passes
    # over F_q are the independent reference
    ctx = field(p, m)
    checks = run_lemma_suite(ctx, transform_Nc(defining_set(ctx)))
    reps = set(realized_b_classes(ctx).values())
    nb_checks = [c for c in checks if c.id == _NB_LEMMA_ID[classify(p, m)]]
    lemma9 = [c for c in checks if c.id == "lemma9"]
    assert {c.params["b"] for c in nb_checks} == {c.params["b"] for c in lemma9} == reps
    for c in nb_checks:
        assert c.oracle == count_Nb(ctx, c.params["b"]), c.params
    for c in lemma9:
        assert c.oracle == ORACLES["lemma9"](ctx, c.params["b"]), c.params
    assert [c.oracle for c in checks if c.id == "lemma8"] == [ORACLES["lemma8"](ctx)]


def test_verify_evaluates_no_scalar_closed_form_per_class(monkeypatch):
    # the lemma-9 and N_b closed values come from class_tables, which evaluates
    # lemma 9 on the whole class grid at once: no scalar closed form is called
    fields = [(17, 3), (139, 2)]
    assert [len(realized_b_classes(field(p, m))) for p, m in fields] == [288, 9729]
    calls = {}

    def counted(name):
        real = getattr(closed_form, name)

        def fn(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return fn

    def refuse(*args, **kwargs):
        raise AssertionError("BClass.from_element was called")

    for name in ("lemma9_B", "lemma_Nb_predicted"):
        monkeypatch.setattr(closed_form, name, counted(name))
        monkeypatch.setattr(verify, name, getattr(closed_form, name), raising=False)
    monkeypatch.setattr(closed_form.BClass, "from_element", classmethod(refuse))
    for p, m in fields:
        calls.update(lemma9_B=0, lemma_Nb_predicted=0)
        rep = run_verification(p, m)
        assert rep.passed and any(c.id == "lemma9" for c in rep.lemma_checks)
        assert calls == {"lemma9_B": 0, "lemma_Nb_predicted": 0}, (p, m, calls)


def test_lemma_checks_read_like_the_list_of_their_rows():
    # the class checks are columns; their rows are built when read, and the
    # checks equal the list of them from either side
    rep = run_verification(7, 3)
    checks = rep.lemma_checks
    rows = list(checks)
    assert checks == rows and rows == checks and not checks != rows
    assert len(checks) == len(rows) == 2 * len(realized_b_classes(field(7, 3))) + 19
    assert [c.id for c in rows[:3]] == ["lemma8", "lemma9", _NB_LEMMA_ID[classify(7, 3)]]
    assert rows[-1].id == "lemma5_embedding"
    # a row that differs anywhere makes the two unequal, both ways
    for i in (0, 2, len(rows) - 1):
        changed = list(rows)
        changed[i] = replace(rows[i], oracle=-1, match=False)
        assert checks != changed and changed != checks
    assert checks != rows[:-1] and checks != rows + rows[:1]
    # a one-id part reads the same way: lemma 10's row at a is its row a
    part = next(part for part in checks.parts if getattr(part, "ids", None) == ("lemma10",))
    tens = [c for c in rows if c.id == "lemma10"]
    assert len(part) == len(tens) == 7 and list(part) == tens
    assert LemmaChecks([part]) == tens and tens == LemmaChecks([part])
    assert [c.params for c in tens] == [{"a": a} for a in range(7)]
    assert all(c.closed == lemma10_N0a(7, 3, c.params["a"]) == c.oracle for c in tens)
    assert list(part._rows(np.array([5, 2]))) == [tens[5], tens[2]]
    assert part.mismatches() == [] and LemmaChecks([part]).all_match()
    # a closed value off by one at a = 1 is its one mismatch, and the part no longer
    # equals its old rows
    off = replace(part, closed=part.closed + (np.arange(7) == 1)[:, None])
    assert off.mismatches() == [replace(tens[1], closed=tens[1].closed + 1, match=False)]
    assert LemmaChecks([off]) != tens and not LemmaChecks([off]).all_match()
    # a selection without lemmas or gauss has no rows
    empty = run_verification(7, 3, checks=("distribution",)).lemma_checks
    assert not empty and len(empty) == 0 and empty == [] and [] == empty
    assert list(empty) == [] and empty.all_match() and empty.mismatches() == []


def test_verify_lists_no_defining_set(monkeypatch):
    # verify reads |D| and |D0| as counts: reading or setting D's element array raises, and
    # every check family on every grid entry gives the same verdict and report bytes
    entries = README_GRID + [(3, 2), (13, 2)]
    before = [run_verification(p, m) for p, m in entries]

    def listed(ds, *value):
        raise AssertionError("run_verification built D's element array")

    monkeypatch.setattr(codes.DefiningSet, "elements", property(listed, listed), raising=False)
    after = [run_verification(p, m) for p, m in entries]
    assert [rep.passed for rep in after] == [rep.passed for rep in before]
    assert report.reports_json(after, False, False) == report.reports_json(before, False, False)
