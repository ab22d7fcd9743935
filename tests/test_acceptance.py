"""Acceptance suite: every criterion at its stated tolerance, exactly.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them on
success). Tolerances are pinned here: distribution and lemma comparisons are
exact integer equality; the Gauss embedding bound is 1e-9 * p^(m/2).
"""

import itertools
import time

import numpy as np

from defset.closed_form import (classify, CaseTag, lemma8_value, lemma9_B,
                                lemma10_N0a, lemma11_counts, lemma12_V,
                                lemma16_uc, lemma17_vc, lemma_Nb_predicted,
                                oracle, predicted_distribution, realized_b_classes)
from defset.codes import (brute_weight_distribution, codeword, count_Nb,
                          defining_set, dual_distance_two, power_moment_check,
                          secret_sharing_ratio, weight_enumerator_string, weight_of)
from defset.cyclotomic import CycInt, embed_complex, gauss_closed, gauss_sum_exact
from defset.fields import FieldCtx, field, irreducible_polys

GRID = [(3, 3), (3, 4), (3, 5), (3, 6), (3, 8), (5, 3), (5, 4), (5, 5), (7, 3), (7, 4)]

GOLDEN = {
    (3, 6): (260, 162, "1+98x^162+324x^171+306x^180"),
    (3, 4): (29, 18, "1+44x^18+30x^21+6x^24"),
    (3, 3): (8, 4, "1+6x^4+6x^5+8x^6+6x^7"),
    (5, 5): (624, 480, "1+300x^480+1000x^495+624x^500+1000x^505+200x^520"),
    (3, 5): (71, 42, "1+30x^42+60x^45+90x^48+42x^51+20x^54"),
    (5, 3): (19, 14, "1+36x^14+24x^15+60x^16+4x^19"),
}


def _finish(num, name, ok, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({time.perf_counter() - t0:.1f}s)")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_golden_examples():
    t0 = time.perf_counter()
    ok = True
    for (p, m), (n, d, enum) in GOLDEN.items():
        ds = defining_set(field(p, m))
        dist = brute_weight_distribution(ds)
        ok &= ds.n == n
        ok &= min(dist.nonzero_weights()) == d
        ok &= weight_enumerator_string(dist) == enum
        ok &= dist.total == p ** m and dist.entries[0] == 1  # k = m: injective map
    _finish(1, "golden example distributions", ok, t0)


def test_criterion_2_prediction_grid():
    t0 = time.perf_counter()
    ok = True
    for p, m in GRID:
        ds = defining_set(field(p, m))
        pred = predicted_distribution(p, m)
        brute = brute_weight_distribution(ds)
        ok &= pred.with_zero_word() == brute and pred.n == ds.n
    tags = {classify(p, m) for p, m in GRID}
    ok &= tags == set(CaseTag)
    _finish(2, "prediction == brute force on the grid", ok, t0)


def test_criterion_3_gauss_suite():
    t0 = time.perf_counter()
    ok = True
    for p, m in itertools.product((3, 5, 7, 11, 13), (1, 2, 3)):
        if p ** m > 20_000:
            continue
        ctx = field(p, m)
        g = gauss_sum_exact(ctx)
        eta_minus_one = 1 if ((ctx.q - 1) // 2) % 2 == 0 else -1
        ok &= g * g == CycInt.from_int(p, eta_minus_one * ctx.q)
        diff = abs(embed_complex(g) - gauss_closed(p, m).value())
        ok &= diff < 1e-9 * p ** (m / 2)
    _finish(3, "Gauss-sum square identity and closed form", ok, t0)


def test_criterion_4_lemma_oracles():
    t0 = time.perf_counter()
    ok = True
    for p, m in GRID:
        ctx = field(p, m)
        ok &= lemma8_value(p, m) == oracle("lemma8", p, m)
        for cls, b in realized_b_classes(ctx).items():
            ok &= lemma9_B(p, m, cls) == oracle("lemma9", p, m, b=b)
            ok &= lemma_Nb_predicted(p, m, cls) == count_Nb(ctx, b)
        for a in range(p):
            ok &= lemma10_N0a(p, m, a) == oracle("lemma10", p, m, a=a)
        ok &= lemma11_counts(p, m) == oracle("lemma11", p, m)
        if m % p != 0:
            ok &= lemma12_V(p, m) == oracle("lemma12", p, m)
        if m % 2 == 1:
            for c in range(p):
                ok &= lemma16_uc(p, m, c) == oracle("lemma16", p, m, c=c)
            if m % p == 0:
                for c in range(1, p):
                    ok &= lemma17_vc(p, m, c) == oracle("lemma17", p, m, c=c)
    _finish(4, "lemma closed forms == enumeration oracles", ok, t0)


def test_criterion_5_structural_invariants():
    t0 = time.perf_counter()
    failures = []
    ss_claimed = {(3, 6), (3, 8), (5, 5), (3, 5)}  # the asserted ratio regimes
    for p, m in GRID:
        ds = defining_set(field(p, m))
        dist = brute_weight_distribution(ds)
        if power_moment_check(dist, p, m, ds.n) != (True, True):
            failures.append(f"power moments fail at ({p},{m})")
        tag = classify(p, m)
        dual = dual_distance_two(ds)
        if tag in (CaseTag.EVEN_COPRIME, CaseTag.ODD_COPRIME) and ds.n >= 2:
            # Asserted for every theorem-2/theorem-4 entry, per the stated
            # criterion.  The verification itself shows the claim is false in
            # the four-weight degeneration (m = 3 with p = 2 mod 3, here
            # (5,3)): the only solution of tr(x) = tr(x^2) = 0 is x = 0, so D
            # has no proportional pair and the dual distance is 3.  The
            # assertion is kept as stated; the decision is recorded in CHANGES.md
            # under "Criterion 5 at (5,3)".
            if not dual:
                failures.append(
                    f"dual_distance_two at ({p},{m}) is False (dual distance is 3, "
                    f"not 2, whenever m=3 and p=2 mod 3)")
        else:
            print(f"  dual distance two at ({p},{m}) [{tag.value}]: {dual} (reported)")
        wmin, wmax, passes = secret_sharing_ratio(dist, p)
        if (p, m) in ss_claimed:
            if not passes:
                failures.append(f"ss ratio claimed but fails at ({p},{m})")
        elif (p, m) == (3, 3):
            if passes:
                failures.append("ss ratio negative control (3,3) unexpectedly passes")
        else:
            print(f"  ss ratio at ({p},{m}): {wmin}/{wmax} exceeds (p-1)/p: {passes} (reported)")
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE 5 power moments, dual distance, ss ratio: {status} "
          f"({time.perf_counter() - t0:.1f}s)")
    assert not failures, "; ".join(failures)


def test_criterion_6_property_invariants():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(2024)
    for p, m in GRID:
        ds = defining_set(field(p, m))
        ctx = ds.ctx
        bs = rng.integers(0, ctx.q, size=1000)
        for b in bs:
            b = int(b)
            if weight_of(ds, b) != int(np.count_nonzero(codeword(ds, b))):
                ok = False
                break
        # codeword linearity on random pairs
        for b1, b2 in rng.integers(0, ctx.q, size=(50, 2)):
            b1, b2 = int(b1), int(b2)
            want = (codeword(ds, b1) + codeword(ds, b2)) % p
            if not np.array_equal(codeword(ds, ctx.add(b1, b2)), want):
                ok = False
                break
        # class counts from the counting lemmas partition F_q*
        n0nz, nnznz, nnz0 = lemma11_counts(p, m)
        ok &= n0nz + nnznz + nnz0 + lemma10_N0a(p, m, 0) == p ** m
        census = np.zeros(4, dtype=np.int64)
        z2 = ctx.trace_x2 == 0
        z1 = ctx.trace_table == 0
        census[0] = np.count_nonzero(z2 & ~z1)
        census[1] = np.count_nonzero(~z2 & ~z1)
        census[2] = np.count_nonzero(~z2 & z1)
        census[3] = np.count_nonzero(z2 & z1) - 1  # drop x = 0
        ok &= (n0nz, nnznz, nnz0) == tuple(int(c) for c in census[:3])
        ok &= int(census.sum()) == p ** m - 1
        if m % p != 0:
            t1 = ctx.trace_table.astype(np.int64)
            t2 = ctx.trace_x2.astype(np.int64)
            v_census = int(np.count_nonzero((t1 != 0) & ((t1 * t1 - m * t2) % p == 0)))
            ok &= lemma12_V(p, m) == v_census
        if m % 2 == 1:
            ok &= sum(lemma16_uc(p, m, c) for c in range(p)) == p ** m

    # basis independence: a second irreducible modulus gives the same distribution
    for p, m in [(3, 4), (5, 3)]:
        mod_a, mod_b = itertools.islice(irreducible_polys(p, m), 2)
        dist_a = brute_weight_distribution(defining_set(FieldCtx(p, m, modulus=mod_a)))
        dist_b = brute_weight_distribution(defining_set(FieldCtx(p, m, modulus=mod_b)))
        ok &= dist_a == dist_b
    _finish(6, "two-path weights, linearity, class counts, basis independence", ok, t0)
