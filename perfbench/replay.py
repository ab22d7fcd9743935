"""Traced replay of `defset verify`, timed from outside the package.

`replay_pass` redoes what `cmd_verify` and `run_verification` do for a grid,
stage by stage and in the same order, by calling the package's public
functions, and records one span around each call.  It mirrors
`run_verification`, `run_lemma_suite` and `gauss_checks` as they stand at
the commit that added this benchmark; the run compares every replayed report
with the real one, so a replay that drifts from the program is caught.

Two calls are made explicitly so that their cost lands in the `fields`
layer rather than in the first caller: the first read of the lazy trace
tables, and the `field(p, m)` lookup that `oracle()` makes on the shared
cache (keyed apart from `field(p, m, max_q)`, so at this commit it builds the
field a second time).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from defset import cli
from defset.closed_form import (CaseTag, THEOREM_NUMBER, classify, lemma8_value,
                                lemma9_B, lemma10_N0a, lemma11_counts, lemma12_V,
                                lemma16_uc, lemma17_vc, lemma_Nb_predicted, oracle,
                                predicted_distribution, realized_b_classes)
from defset.codes import (LemmaCheck, VerifyReport, brute_weight_distribution,
                          count_Nb, defining_set, dual_distance_two,
                          power_moment_check, secret_sharing_ratio)
from defset.cyclotomic import CycInt, embed_complex, gauss_closed, gauss_sum_exact
from defset.fields import field

# mirrors cli._NB_LEMMA_ID
NB_LEMMA_ID = {
    CaseTag.EVEN_DIVIDES: "lemma13",
    CaseTag.EVEN_COPRIME: "lemma14",
    CaseTag.ODD_DIVIDES: "lemma15",
    CaseTag.ODD_COPRIME: "lemma18",
}
LAZY_TABLES = ("trace_x2_plus_x", "trace_by_exponent")
LAYERS = ("fields", "codes", "closed_form", "cyclotomic", "cli")


class Tracer:
    """Spans kept in memory: name, parent, start, end and counts as attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def _touch_lazy_tables(tr: Tracer, ctx) -> None:
    with tr.span("fields.lazy_tables"):
        for name in LAZY_TABLES:
            if hasattr(type(ctx), name):  # a field-core rewrite may drop one
                getattr(ctx, name)


def _table_bytes(ctxs) -> int:
    return sum(v.nbytes for ctx in ctxs for k, v in vars(ctx).items()
               if not k.startswith("_") and isinstance(v, np.ndarray))


def _lemma_suite(tr: Tracer, ctx) -> list[LemmaCheck]:
    p, m = ctx.p, ctx.m
    out: list[LemmaCheck] = []

    def add(check_id, params, closed_fn, oracle_name, oracle_fn):
        closed = tr.call("closed_form.closed", closed_fn)
        brute = tr.call(f"closed_form.oracle.{oracle_name}", oracle_fn)
        out.append(LemmaCheck(check_id, params, closed, brute, closed == brute))

    add("lemma8", {}, lambda: lemma8_value(p, m), "lemma8", lambda: oracle("lemma8", p, m))
    nb_id = NB_LEMMA_ID[classify(p, m)]
    with tr.span("closed_form.b_classes") as sp:
        classes = realized_b_classes(ctx)
        sp["classes"] = len(classes)
        # the lemma-9 oracle bincounts (p-1)^2 arrays of length q per class
        sp["lemma9_bincount_elems"] = len(classes) * (p - 1) ** 2 * ctx.q
    for cls in sorted(classes, key=lambda c: (c.t2, c.t1, c.disc)):
        b = classes[cls]
        params = {"t2": cls.t2, "t1": cls.t1, "disc": cls.disc, "b": b}
        add("lemma9", params, lambda: lemma9_B(p, m, cls),
            "lemma9", lambda: oracle("lemma9", p, m, b=b))
        add(nb_id, params, lambda: lemma_Nb_predicted(p, m, cls),
            "nb", lambda: count_Nb(ctx, b))
    for a in range(p):
        add("lemma10", {"a": a}, lambda: lemma10_N0a(p, m, a),
            "lemma10", lambda: oracle("lemma10", p, m, a=a))
    add("lemma11", {}, lambda: list(lemma11_counts(p, m)),
        "lemma11", lambda: list(oracle("lemma11", p, m)))
    if m % p != 0:
        add("lemma12", {}, lambda: lemma12_V(p, m), "lemma12", lambda: oracle("lemma12", p, m))
    if m % 2 == 1:
        for c in range(p):
            add("lemma16", {"c": c}, lambda: lemma16_uc(p, m, c),
                "lemma16", lambda: oracle("lemma16", p, m, c=c))
        if m % p == 0:
            for c in range(1, p):
                add("lemma17", {"c": c}, lambda: lemma17_vc(p, m, c),
                    "lemma17", lambda: oracle("lemma17", p, m, c=c))
    return out


def _gauss_checks(tr: Tracer, ctx) -> list[LemmaCheck]:
    p, m = ctx.p, ctx.m
    exact = tr.call("cyclotomic.gauss_sum_exact", gauss_sum_exact, ctx)
    eta_minus_one = 1 if ((ctx.q - 1) // 2) % 2 == 0 else -1
    square = exact * exact
    want = CycInt.from_int(p, eta_minus_one * ctx.q)
    closed = gauss_closed(p, m)
    diff = abs(embed_complex(exact) - closed.value())
    tol = 1e-9 * p ** (m / 2)
    return [
        LemmaCheck("lemma5_square_identity", {},
                   eta_minus_one * ctx.q,
                   square.to_int() if square.is_rational_int() else str(square),
                   square == want),
        LemmaCheck("lemma5_embedding", {"tolerance": tol},
                   str(closed), f"{diff:.3e}", diff < tol),
    ]


def replay_entry(tr: Tracer, p: int, m: int, max_q: int, checks) -> VerifyReport:
    """The stages of run_verification(p, m) for one entry, each in its own span.

    The report's `passed` is left at its default: the pass/fail policy is
    checked on the untraced passes through their exit codes.
    """
    with tr.span("cli.entry", p=p, m=m, q=p ** m) as entry_span:
        ctx = tr.call("fields.build", field, p, m, max_q)
        _touch_lazy_tables(tr, ctx)
        ds = tr.call("codes.defining_set", defining_set, ctx)
        with tr.span("closed_form.predict"):
            tag = classify(p, m)
            pred = predicted_distribution(p, m)

        # a stage that the checks skip still gets its span, around the test
        # that skips it, so that every per-layer time is measured
        need_brute = bool({"distribution", "moments", "ss-ratio"} & set(checks))
        with tr.span("codes.brute", coord_evals=(ctx.q - 1) * ds.n if need_brute else 0):
            brute = brute_weight_distribution(ds) if need_brute else None
        match = (brute == pred.with_zero_word() and ds.n == pred.n) if brute else None
        with tr.span("codes.invariants"):
            moments = power_moment_check(brute, p, m, ds.n) if brute else None
        with tr.span("codes.dual"):
            dual = dual_distance_two(ds) if "dual" in checks else None
        with tr.span("codes.invariants"):
            ss = secret_sharing_ratio(brute, p) if brute else None

        ctxs = {id(ctx): ctx}
        with tr.span("cli.lemma_suite") as suite_span:
            suite: list[LemmaCheck] = []
            if "lemmas" in checks:
                octx = tr.call("fields.build", field, p, m)
                _touch_lazy_tables(tr, octx)
                ctxs[id(octx)] = octx
                suite = _lemma_suite(tr, ctx)
            suite_span["checks"] = len(suite)
        with tr.span("cli.gauss_checks"):
            gauss = _gauss_checks(tr, ctx) if "gauss" in checks else []
        entry_span["table_bytes"] = _table_bytes(ctxs.values())

    return VerifyReport(
        p=p, m=m, case=tag.value, theorem=THEOREM_NUMBER[tag],
        n_bruteforce=ds.n, n_predicted=pred.n,
        distribution_bruteforce=brute,
        distribution_predicted=pred.with_zero_word(),
        match=match, moment_checks=moments, dual_distance_two=dual, ss_ratio=ss,
        lemma_checks=suite + gauss,
        outside_theorem_hypothesis=m <= 2,
    )


def replay_pass(tr: Tracer, entries, max_q: int, checks, out_path) -> list[VerifyReport]:
    """One traced `verify --grid ... --format json --out out_path`."""
    with tr.span("cli.verify"):
        reports = [replay_entry(tr, p, m, max_q, checks) for p, m in entries]
        with tr.span("cli.report"):
            objs = [cli.report_dict(r) for r in reports]
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(objs, indent=2) + "\n")
    return reports


def same_work(replayed: VerifyReport, real: VerifyReport) -> bool:
    """The replay computed what run_verification computed for this entry."""
    keys = ("n_bruteforce", "n_predicted", "distribution_bruteforce",
            "distribution_predicted", "match", "moment_checks",
            "dual_distance_two", "ss_ratio", "lemma_checks")
    return all(getattr(replayed, k) == getattr(real, k) for k in keys)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer times and counts of one traced pass (spans of that pass only)."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += dur[s["id"]]
    total = defaultdict(float)
    self_time = defaultdict(float)
    for s in spans:
        total[s["name"]] += dur[s["id"]]
        self_time[s["name"].split(".")[0]] += dur[s["id"]] - covered[s["id"]]

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    entries = [s for s in spans if s["name"] == "cli.entry"]
    brute_s = total["codes.brute"]
    coord_evals = attr_sum("codes.brute", "coord_evals")
    return {
        "fields.build_s": total["fields.build"],
        "fields.lazy_tables_s": total["fields.lazy_tables"],
        "fields.q_total": sum(s["q"] for s in entries),
        "fields.table_mb": sum(s["table_bytes"] for s in entries) / 2 ** 20,
        "codes.defining_set_s": total["codes.defining_set"],
        "codes.brute_s": brute_s,
        "codes.dual_s": total["codes.dual"],
        "codes.invariants_s": total["codes.invariants"],
        "codes.coord_evals": coord_evals,
        "codes.coord_evals_per_s": coord_evals / brute_s if brute_s else 0.0,
        "closed_form.predict_s": total["closed_form.predict"],
        "closed_form.b_classes_s": total["closed_form.b_classes"],
        "closed_form.oracle_s": sum(t for n, t in total.items()
                                    if n.startswith("closed_form.oracle.")),
        "closed_form.oracle.lemma9_s": total["closed_form.oracle.lemma9"],
        "closed_form.oracle.nb_s": total["closed_form.oracle.nb"],
        "closed_form.closed_s": total["closed_form.closed"],
        "closed_form.b_classes": attr_sum("closed_form.b_classes", "classes"),
        "closed_form.lemma_checks": attr_sum("cli.lemma_suite", "checks"),
        "closed_form.lemma9_bincount_elems": attr_sum("closed_form.b_classes",
                                                      "lemma9_bincount_elems"),
        "cyclotomic.gauss_sum_exact_s": total["cyclotomic.gauss_sum_exact"],
        "cli.lemma_suite_s": total["cli.lemma_suite"],
        "cli.gauss_checks_s": total["cli.gauss_checks"],
        "cli.report_s": total["cli.report"],
        "trace.pass_s": total["cli.verify"],
        **{f"{layer}.self_s": self_time[layer] for layer in LAYERS},
    }
