"""Verify one (p, m) entry: enumeration against the closed forms and lemma oracles.

`CLAIMS` says, for each check family, whether it gates the verdict at (p, m).
"""

from __future__ import annotations

import time

import numpy as np

from .codes import (ClassChecks, LemmaCheck, LemmaChecks, VerifyReport, defining_set,
                    distribution_from_Nb, dual_distance_two, power_moment_check,
                    secret_sharing_ratio, transform_Nc)
from .closed_form import (ORACLES, CaseTag, THEOREM_NUMBER, class_tables, classify,
                          disc_of, first_of_each_class, lemma8_value, lemma9_from_counts,
                          lemma10_N0a, lemma11_counts, lemma12_V, lemma16_uc, lemma17_vc,
                          predicted_distribution)
from .cyclotomic import CycInt, embed_complex, gauss_closed, gauss_sum_exact
from .fields import DEFAULT_MAX_Q, field

_NB_LEMMA_ID = {
    CaseTag.EVEN_DIVIDES: "lemma13",
    CaseTag.EVEN_COPRIME: "lemma14",
    CaseTag.ODD_DIVIDES: "lemma15",
    CaseTag.ODD_COPRIME: "lemma18",
}

# check family -> (p, m) -> whether it gates the verdict there; if not, it is only reported
CLAIMS = {
    # the distribution and every lemma and Gauss-sum identity are exact
    # equalities that hold for every m, inside the theorem hypotheses or not
    "distribution": lambda p, m: True,
    "lemmas": lambda p, m: True,
    "gauss": lambda p, m: True,
    # the power moments are derived under the theorem hypothesis m > 2
    "moments": lambda p, m: m > 2,
    # theorems 2 and 4 claim dual distance two.  In the four-weight
    # degeneration (m = 3 with p = 2 mod 3) the only solution of
    # tr(x) = tr(x^2) = 0 is x = 0, so no two coordinates of D are
    # proportional and the dual distance is 3: there it is only reported.
    "dual": lambda p, m: (m > 2 and THEOREM_NUMBER[classify(p, m)] in (2, 4)
                           and not (m == 3 and p % 3 == 2)),
    # theorems 1, 2, 3, 4 claim w_min/w_max > (p-1)/p from m = 4, 6, 5, 5 on
    "ss-ratio": lambda p, m: m >= {1: 4, 2: 6, 3: 5, 4: 5}[THEOREM_NUMBER[classify(p, m)]],
}

CHECK_FAMILIES = tuple(CLAIMS)


def run_lemma_suite(ctx, nc) -> LemmaChecks:
    """Compare every applicable closed form against its enumeration oracle on ctx.

    nc[c] = |{x : tr(x^2 + x) = 0 and <c, x> = 0}| for every digit vector c, as
    `transform_Nc` counts them, so N_b = nc[c(b)] and nc[0] = n0.  The lemma-9
    and N_b checks of the classes stay columns, between lemma 8 and lemma 10.
    """
    p, m = ctx.p, ctx.m
    n0 = int(nc[0])

    def check(check_id, params, closed, brute):
        return LemmaCheck(check_id, params, closed, brute, closed == brute)

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
    classes = ClassChecks(_NB_LEMMA_ID[classify(p, m)], t2, t1, disc_of(p, m, t2, t1),
                          reps, class_tables(p, m)[t2, t1], oracle)
    rest = [check("lemma10", {"a": a}, lemma10_N0a(p, m, a), ORACLES["lemma10"](ctx, a=a))
            for a in range(p)]
    rest.append(check("lemma11", {}, list(lemma11_counts(p, m)), list(ORACLES["lemma11"](ctx))))
    if m % p != 0:
        rest.append(check("lemma12", {}, lemma12_V(p, m), ORACLES["lemma12"](ctx)))
    if m % 2 == 1:
        rest += [check("lemma16", {"c": c}, lemma16_uc(p, m, c), ORACLES["lemma16"](ctx, c=c))
                 for c in range(p)]
        if m % p == 0:
            rest += [check("lemma17", {"c": c}, lemma17_vc(p, m, c),
                           ORACLES["lemma17"](ctx, c=c)) for c in range(1, p)]
    return LemmaChecks([lemma8, classes, rest])


def gauss_checks(ctx) -> tuple[CycInt, complex, list[LemmaCheck]]:
    """G exactly, its complex embedding, and the exact square identity and
    closed-form embedding bound checked on them."""
    p, m = ctx.p, ctx.m
    exact = gauss_sum_exact(ctx)
    emb = embed_complex(exact)
    eta_minus_one = 1 if ((ctx.q - 1) // 2) % 2 == 0 else -1
    square = exact * exact
    want = CycInt.from_int(p, eta_minus_one * ctx.q)
    closed = gauss_closed(p, m)
    diff = abs(emb - closed.value())
    tol = 1e-9 * p ** (m / 2)
    return exact, emb, [
        LemmaCheck("lemma5_square_identity", {},
                   eta_minus_one * ctx.q,
                   square.to_int() if square.is_rational_int() else str(square),
                   square == want),
        LemmaCheck("lemma5_embedding", {"tolerance": tol},
                   str(closed), f"{diff:.3e}", diff < tol),
    ]


def run_verification(p: int, m: int, *, max_q: int = DEFAULT_MAX_Q,
                     checks=CHECK_FAMILIES) -> VerifyReport:
    """Build, enumerate, predict and compare one (p, m) entry."""
    t0 = time.perf_counter()
    checks = tuple(checks)
    ctx = field(p, m, max_q)
    ds = defining_set(ctx)
    tag = classify(p, m)
    pred = predicted_distribution(p, m)
    pred_dist = pred.with_zero_word()

    need_dist = bool({"distribution", "moments", "ss-ratio"} & set(checks))
    nc = transform_Nc(ds) if need_dist or "lemmas" in checks else None
    dist = distribution_from_Nb(ds, nc) if need_dist else None
    match = (dist == pred_dist and ds.n == pred.n) if dist else None
    moments = power_moment_check(dist, p, m, ds.n) if dist else None
    dual = dual_distance_two(ds) if "dual" in checks else None
    ss = secret_sharing_ratio(dist, p) if dist else None
    lemmas = run_lemma_suite(ctx, nc) if "lemmas" in checks else LemmaChecks()
    gauss = gauss_checks(ctx)[2] if "gauss" in checks else []

    holds = {
        "distribution": match,
        "lemmas": lemmas.all_match(),
        "gauss": all(c.match for c in gauss),
        "moments": moments and all(moments),
        "dual": dual,
        "ss-ratio": ss and ss[2],
    }
    return VerifyReport(
        p=p, m=m, case=tag.value, theorem=THEOREM_NUMBER[tag],
        n_bruteforce=ds.n, n_predicted=pred.n,
        distribution_bruteforce=dist,
        distribution_predicted=pred_dist,
        match=match, moment_checks=moments, dual_distance_two=dual, ss_ratio=ss,
        lemma_checks=LemmaChecks([*lemmas.parts, gauss]),
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        outside_theorem_hypothesis=m <= 2,
        passed=all(holds[f] for f in checks if CLAIMS[f](p, m)),
    )
