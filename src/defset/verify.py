"""Verify one (p, m) entry: enumeration against the closed forms and lemma oracles.

`FAMILIES` states each check family once: whether it gates the verdict at (p, m),
the `VerifyReport` field it fills, its run and its verdict.  Only selected ones run.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

from .codes import (ClassChecks, LemmaCheck, LemmaChecks, VerifyReport, defining_set,
                    dual_distance_two, power_moment_check, secret_sharing_ratio)
from .closed_form import (_NB_LEMMA_ID, _SS_RATIO_FROM_M, ORACLES, Gbar_squared,
                          THEOREM_NUMBER, class_tables, classify, disc_of, first_of_each_class,
                          lemma8_value, lemma9_from_counts, lemma10_N0a, lemma11_counts,
                          lemma12_V, lemma16_uc, lemma17_vc, predicted_distribution)
from .cyclotomic import ClosedGauss, CycInt, embed_complex, gauss_closed, gauss_sum_exact
from .fields import DEFAULT_MAX_Q, field


def run_lemma_suite(ctx, nc) -> LemmaChecks:
    """Compare every applicable closed form against its enumeration oracle on ctx.

    nc[c] = |{x : tr(x^2 + x) = 0 and <c, x> = 0}| for every digit vector c, as
    `transform_Nc` counts them, so N_b = nc[c(b)] and nc[0] = n0.  The lemma-9
    and N_b checks of the classes, and the rows of lemmas 10, 16 and 17, stay columns.
    """
    p, m = ctx.p, ctx.m
    n0 = int(nc[0])

    def check(check_id, params, closed, brute):
        return LemmaCheck(check_id, params, closed, brute, closed == brute)

    def column(check_id, name, values, closed):
        # one row per value of param `name`: its closed form against ORACLES[check_id]
        brute = ORACLES[check_id]
        return ClassChecks((check_id,), {name: np.array(values)},
                           np.array([closed(p, m, v) for v in values])[:, None],
                           np.array([brute(ctx, **{name: v}) for v in values])[:, None])

    lemma8 = [check("lemma8", {}, lemma8_value(p, m), ORACLES["lemma8"](ctx))]
    # every realized class (t2, t1) in ascending order, with its smallest b
    first = first_of_each_class(ctx)
    keys = np.flatnonzero(first < ctx.q)
    reps = first[keys]
    t2, t1 = np.divmod(keys, p)
    nb = nc[ctx.trace_dual(reps)]
    # tr(b*x) = 0 on q/p elements for b != 0, so the lemma-9 and N_b
    # checks of a class both compare the one count N_b
    oracle = np.stack([lemma9_from_counts(p, ctx.q, nb, n0, ctx.q // p), nb], axis=1)
    classes = ClassChecks(("lemma9", _NB_LEMMA_ID[classify(p, m)]),
                          {"t2": t2, "t1": t1, "disc": disc_of(p, m, t2, t1), "b": reps},
                          class_tables(p, m)[t2, t1], oracle)
    rest = [check("lemma11", {}, list(lemma11_counts(p, m)), list(ORACLES["lemma11"](ctx)))]
    if m % p != 0:
        rest.append(check("lemma12", {}, lemma12_V(p, m), ORACLES["lemma12"](ctx)))
    parts = [lemma8, classes, column("lemma10", "a", range(p), lemma10_N0a), rest]
    if m % 2 == 1:
        parts.append(column("lemma16", "c", range(p), lemma16_uc))
        if m % p == 0:
            parts.append(column("lemma17", "c", range(1, p), lemma17_vc))
    return LemmaChecks(parts)


def gauss_checks(ctx) -> tuple[CycInt, complex, ClosedGauss, list[LemmaCheck]]:
    """G exactly, its complex embedding, its closed form, and the exact square
    identity and closed-form embedding bound checked on them."""
    p, m = ctx.p, ctx.m
    exact = gauss_sum_exact(ctx)
    emb = embed_complex(exact)
    # G^2 = eta_q(-1) * q = (Gbar^2)^m
    want = Gbar_squared(p) ** m
    square = exact * exact
    closed = gauss_closed(p, m)
    diff = abs(emb - closed.value())
    tol = 1e-9 * p ** (m / 2)
    return exact, emb, closed, [
        LemmaCheck("lemma5_square_identity", {}, want,
                   square.to_int() if square.is_rational_int() else str(square),
                   square == CycInt.from_int(p, want)),
        LemmaCheck("lemma5_embedding", {"tolerance": tol},
                   str(closed), f"{diff:.3e}", diff < tol),
    ]


class Family(NamedTuple):
    gate: Callable[[int, int], bool]  # (p, m) -> gates the verdict there; if not, only reported
    field: str  # the VerifyReport field that its result fills
    run: Callable  # (D, the predicted distribution) -> its result
    verdict: Callable  # its result -> whether the claim is met


# each check family, in the order run_verification runs the selected ones
FAMILIES = {
    # the distribution and every lemma and Gauss-sum identity are exact
    # equalities that hold for every m, inside the theorem hypotheses or not
    "distribution": Family(lambda p, m: True, "match", lambda ds, pred: (
        ds.weight_distribution == pred.with_zero_word() and ds.n == pred.n), bool),
    "lemmas": Family(lambda p, m: True, "lemma_checks", lambda ds, pred: (
        run_lemma_suite(ds.ctx, ds.nc)), LemmaChecks.all_match),
    "gauss": Family(lambda p, m: True, "lemma_checks", lambda ds, pred: (
        LemmaChecks([gauss_checks(ds.ctx)[3]])), LemmaChecks.all_match),
    # the power moments are derived under the theorem hypothesis m > 2
    "moments": Family(lambda p, m: m > 2, "moment_checks", lambda ds, pred: (
        power_moment_check(ds.weight_distribution, ds.ctx.p, ds.ctx.m, ds.n)), all),
    # theorems 2 and 4 (p does not divide m) claim dual distance two: two coordinates
    # of D are proportional iff some x != 0 has tr(x) = tr(x^2) = 0, lemma 10's N(0, 0) > 1.
    # In the four-weight degeneration (m = 3 with p = 2 mod 3) N(0, 0) = 1, no two
    # coordinates are proportional and the dual distance is 3: there it is only reported.
    "dual": Family(lambda p, m: m > 2 and m % p != 0 and lemma10_N0a(p, m, 0) > 1,
                   "dual_distance_two", lambda ds, pred: dual_distance_two(ds), bool),
    # each theorem claims w_min/w_max > (p-1)/p only from some m on
    "ss-ratio": Family(lambda p, m: m >= _SS_RATIO_FROM_M[classify(p, m)],
                       "ss_ratio", lambda ds, pred: secret_sharing_ratio(
                           ds.weight_distribution, ds.ctx.p), lambda ss: ss[2]),
}

CHECK_FAMILIES = tuple(FAMILIES)


def run_verification(p: int, m: int, *, max_q: int = DEFAULT_MAX_Q,
                     checks=CHECK_FAMILIES) -> VerifyReport:
    """Build, enumerate, predict and compare one (p, m) entry, running only `checks`."""
    t0 = time.perf_counter()
    ds = defining_set(field(p, m, max_q))
    tag = classify(p, m)
    pred = predicted_distribution(p, m)
    results, gated = {}, []
    for name, family in FAMILIES.items():
        if name in checks:
            result = family.run(ds, pred)
            # lemmas and gauss both fill lemma_checks, lemmas' rows first
            key = family.field
            results[key] = results[key] + result if key in results else result
            if family.gate(p, m):
                gated.append(family.verdict(result))
    return VerifyReport(
        p=p, m=m, case=tag.value, theorem=THEOREM_NUMBER[tag],
        n_bruteforce=ds.n, n_predicted=pred.n,
        # the enumerated distribution, if a selected family read it
        distribution_bruteforce=vars(ds).get("weight_distribution"),
        distribution_predicted=pred.with_zero_word(),
        **results,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        outside_theorem_hypothesis=m <= 2,
        passed=all(gated),
    )
