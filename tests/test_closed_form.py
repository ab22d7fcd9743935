"""Closed-form evaluators against frozen values and enumeration oracles."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from defset.closed_form import (ORACLES, BClass, CaseTag, G_even, GGbar_odd, Gbar_squared,
                                class_tables, classify, disc_of, lemma8_value, lemma9_B,
                                lemma9_from_counts, lemma10_N0a, lemma11_counts, lemma12_V,
                                lemma16_uc, lemma17_vc, lemma_Nb_predicted, oracle,
                                predicted_distribution, predicted_length, realized_b_classes)
from defset.codes import (brute_weight_distribution, count_Nb, defining_set, dft_prime,
                          distribution_from_Nb, transform_Nc)
from defset.cyclotomic import CycInt, gauss_closed, gauss_sum_exact
from defset.errors import CaseMismatch, FieldTooLarge, NonIntegralTableEntry
from defset.fields import DEFAULT_MAX_Q, FieldCtx, field, is_prime, legendre
from defset.verify import run_lemma_suite, run_verification


@pytest.mark.parametrize("p,m,tag", [
    (3, 6, CaseTag.EVEN_DIVIDES),
    (3, 4, CaseTag.EVEN_COPRIME),
    (5, 3, CaseTag.ODD_COPRIME),
    (3, 3, CaseTag.ODD_DIVIDES),
    (5, 5, CaseTag.ODD_DIVIDES),
    (3, 8, CaseTag.EVEN_COPRIME),
    (3, 2, CaseTag.EVEN_COPRIME),
])
def test_classify(p, m, tag):
    assert classify(p, m) is tag


def test_G_even_values():
    assert G_even(3, 6) == 27
    assert G_even(3, 4) == -9
    assert G_even(3, 2) == 3
    with pytest.raises(CaseMismatch):
        G_even(3, 3)


def test_GGbar_odd_values():
    assert GGbar_odd(3, 5) == -27
    assert GGbar_odd(5, 3) == 25
    assert GGbar_odd(3, 3) == 9
    with pytest.raises(CaseMismatch):
        GGbar_odd(3, 4)


@pytest.mark.parametrize("p,m,n", [(3, 6, 260), (5, 5, 624), (3, 5, 71),
                                   (3, 4, 29), (3, 3, 8), (5, 3, 19), (7, 3, 55)])
def test_predicted_length(p, m, n):
    assert predicted_length(p, m) == n


@pytest.mark.parametrize("p", [3, 5, 7])
def test_predicted_length_checks_its_degree(p):
    # at m = 1, D = {x != 0 : x^2 + x = 0} = {-1}
    assert predicted_length(p, 1) == 1
    for m in (0, -1, -2):
        with pytest.raises(CaseMismatch, match=f"m={m}$"):
            predicted_length(p, m)


@pytest.mark.parametrize("p,m,rows", [
    (3, 6, {162: 98, 171: 324, 180: 306}),
    (5, 3, {14: 36, 15: 24, 16: 60, 19: 4}),
    (3, 3, {4: 6, 5: 6, 6: 8, 7: 6}),
])
def test_predicted_distribution_golden(p, m, rows):
    pred = predicted_distribution(p, m)
    assert dict(pred.rows) == rows


def test_four_weight_degenerations():
    # odd m with p | m collapses to four weights exactly when p = m = 3
    assert len(predicted_distribution(3, 3).rows) == 4
    assert len(predicted_distribution(5, 5).rows) == 5
    # m = 3 with p = 2 mod 3 drops the (p-1)p^(m-2) row
    assert len(predicted_distribution(5, 3).rows) == 4
    assert len(predicted_distribution(7, 3).rows) == 5


@pytest.mark.parametrize("p", [5, 11])
def test_table5_closed_form(p):
    # the pruned five-weight table at m = 3, p = 2 mod 3 equals the explicit
    # four-weight table in p
    assert p % 3 == 2
    pred = dict(predicted_distribution(p, 3).rows)
    explicit = {
        p * p - 2 * p: p * p - 1,
        p * p - 2 * p + 1: p * (p * p - 1) // 2,
        p * p - 2 * p - 1: (p - 2) * (p * p - 1) // 2,
        p * p - p - 1: p - 1,
    }
    assert pred == explicit


def test_table_totals_and_integrality():
    for p, m in [(3, 3), (3, 4), (3, 5), (3, 6), (3, 8), (5, 3), (5, 4), (5, 5),
                 (7, 3), (7, 4), (11, 3), (13, 3), (3, 2), (5, 2)]:
        pred = predicted_distribution(p, m)
        assert sum(a for _, a in pred.rows) == p ** m - 1
        assert all(a >= 1 for _, a in pred.rows)
        assert len({w for w, _ in pred.rows}) == len(pred.rows)
        # both power moments hold for every predicted table
        assert sum(w * a for w, a in pred.rows) == p ** (m - 1) * (p - 1) * pred.n


def closed_form_sweep(m_min):
    """Every (p, m) with p an odd prime below 200, m >= m_min and p^m <= 10^40."""
    for p in filter(is_prime, range(3, 200)):
        m = m_min
        while p ** m <= 10 ** 40:
            yield p, m
            m += 1


def test_second_pless_moment_on_closed_form_tables():
    # sum w^2 A_w = p^(m-2) [(p-1)n((p-1)n + 1) + 2 B_2], with B_2 = C(p-1, 2) (N00 - 1)
    # weight-2 dual words and N00 = |{x : tr(x^2) = tr(x) = 0}| from lemma 10
    # (MacWilliams & Sloane, ch. 5): tables far past enumeration, closed forms only
    tables = 0
    for p, m in closed_form_sweep(3):
        pred = predicted_distribution(p, m)
        n = pred.n
        b2 = math.comb(p - 1, 2) * (lemma10_N0a(p, m, 0) - 1)
        want = p ** (m - 2) * ((p - 1) * n * ((p - 1) * n + 1) + 2 * b2)
        assert sum(w * w * a for w, a in pred.rows) == want, (p, m)
        tables += 1
    assert tables == 998


def _exact(a, b):
    quot, rem = divmod(a, b)
    assert rem == 0, (a, b)
    return quot


def _explicit_length(p, m):
    """The paper's n for m >= 2, split by regime as theorems 1-4 state it."""
    if m % 2:
        return p ** (m - 1) + _exact(legendre(-m, p) * GGbar_odd(p, m), p) - 1
    return p ** (m - 1) + _exact((p - 1 if m % p == 0 else -1) * G_even(p, m), p) - 1


def _explicit_Nb(p, m, cls):
    """The paper's N_b (lemmas 13-15 and 18) for b in cls and m >= 2, split by case.

    For odd m, a disc cell with t2 != 0 has eta(-t2) = eta(-m) when p does not
    divide m, and t1 = 0 when it does.
    """
    pm2 = p ** (m - 2)
    t2, t1 = cls.t2 % p, cls.t1 % p
    if m % 2:
        GG = GGbar_odd(p, m)
        if t2 == 0:
            return pm2 + (t1 == 0) * _exact(legendre(-m, p) * GG, p)
        return pm2 + legendre(-t2, p) * (p - 1 if cls.disc else -1) * _exact(GG, p * p)
    gp = _exact(G_even(p, m), p)
    if t2 and m % p:
        # eta(0) = 0 on the disc cells
        return pm2 + legendre(t1 * t1 - m * t2, p) * gp
    if t2:
        return pm2 + (t1 != 0) * gp
    return pm2 + (t1 == 0) * (p - 1 if m % p == 0 else -1) * gp


def _one_class_per_case_key(p, m):
    """A BClass at one cell (t2, t1) of each realized case key: t2 = 0, t1 = 0, eta(-t2)
    and eta(m t2 - t1^2), on which lemma 9 and the explicit N_b depend."""
    eta = np.array([legendre(a, p) for a in range(p)])
    t2, t1 = np.arange(p)[:, None], np.arange(p)
    key = ((2 * (t2 == 0) + (t1 == 0)) * 3 + eta[-t2 % p]) * 3 + eta[(m * t2 - t1 * t1) % p]
    first = np.full(key.max() + 1, -1)
    first[key.ravel()] = np.arange(p * p)
    return [BClass(c2, c1, disc_of(p, m, c2, c1))
            for c2, c1 in (divmod(c, p) for c in first[first >= 0].tolist())]


def test_lengths_and_class_values_follow_from_lemmas_8_and_9_past_enumeration():
    # predicted_length and lemma_Nb_predicted are read off lemmas 8 and 9: summing
    # zeta^(y tr(x^2 + x) + z tr(bx)) over y, z in F_p and x in F_q gives p n0 = q + lemma 8
    # with n0 = n + 1, and p^2 N_b = q + lemma 8 + B_b for b != 0.  Both equal the paper's
    # explicit forms, N_b at one class per case key
    tables = cells = 0
    for p, m in closed_form_sweep(2):
        assert predicted_length(p, m) == _explicit_length(p, m), (p, m)
        for cls in _one_class_per_case_key(p, m):
            assert lemma_Nb_predicted(p, m, cls) == _explicit_Nb(p, m, cls), (p, m, cls)
            cells += 1
        tables += 1
    assert (tables, cells) == (1043, 9021)


def _closed_trace_pairs(p, m):
    """H[s, t] = |{x : tr(x^2) = s, tr(x) = t}| in closed form, as p^(m-2) + unit * K[s, t].

    Completing the square in sum_x zeta^tr(y x^2 + z x) and summing z with the prime-field
    Gauss sum gives four cases, with eta(0) = 0 (Lidl & Niederreiter, ch. 5).  K is a small
    p x p integer array read off one Legendre table of F_p; unit is a Python int.
    """
    eta = np.array([legendre(a, p) for a in range(p)])
    s, t = np.arange(p)[:, None], np.arange(p)
    disc = (t * t - m % p * s) % p
    if m % 2 == 0 and m % p:
        unit, k = G_even(p, m), eta[disc]
    elif m % 2 == 0:
        unit, k = G_even(p, m), (t == 0) * (p * (s == 0) - 1)
    elif m % p:
        unit, k = legendre(-m, p) * GGbar_odd(p, m) // p, p * (disc == 0) - 1
    else:
        unit, k = GGbar_odd(p, m), (t == 0) * eta[-s % p]
    assert unit % p == 0
    return p ** (m - 2), unit // p, k


def test_lemmas_10_to_17_are_marginals_of_the_closed_trace_pair_table_past_enumeration():
    # lemma 10 is H[0, a], lemma 11 H's three blocks off (0, 0), lemma 12 its disc cells
    # with t != 0, lemma 16 its row sums and lemma 17 its column t = 0; closed forms only
    tables = 0
    for p, m in closed_form_sweep(2):
        pm2, unit, k = _closed_trace_pairs(p, m)
        nz = np.arange(p) != 0

        def total(cells):
            return int(cells.sum()) * pm2 + int(k[cells].sum()) * unit

        assert total(np.ones((p, p), dtype=bool)) == p ** m, (p, m)
        assert [lemma10_N0a(p, m, a) for a in range(p)] == [pm2 + unit * v for v in k[0].tolist()]
        assert lemma11_counts(p, m) == (total(~nz[:, None] & nz), total(nz[:, None] & nz),
                                        total(nz[:, None] & ~nz)), (p, m)
        if m % p:
            assert lemma12_V(p, m) == total(disc_of(p, m, np.arange(p)[:, None], np.arange(p))
                                            & nz), (p, m)
        if m % 2:
            rows = k.sum(axis=1).tolist()
            assert [lemma16_uc(p, m, c) for c in range(p)] == [p * pm2 + unit * v for v in rows]
        if m % 2 and m % p == 0:
            assert ([lemma17_vc(p, m, c) for c in range(1, p)]
                    == [pm2 + unit * v for v in k[1:, 0].tolist()]), (p, m)
        tables += 1
    assert tables == 1043


def test_closed_trace_pair_table_is_the_enumerated_one():
    for p, m in SMALL_FIELDS:
        pm2, unit, k = _closed_trace_pairs(p, m)
        assert (field(p, m).trace_pair_counts == pm2 + unit * k).all(), (p, m)


def test_tables_reject_m1():
    with pytest.raises((NonIntegralTableEntry, CaseMismatch)):
        predicted_distribution(3, 1)


def test_lemma8_examples_and_oracle():
    assert lemma8_value(3, 6) == 54
    assert lemma8_value(3, 3) == 0
    assert lemma8_value(3, 5) == -27
    for p, m in [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (7, 2)]:
        assert lemma8_value(p, m) == oracle("lemma8", p, m)


def test_lemma9_examples():
    assert lemma9_B(3, 4, BClass(0, 1, False)) == -9
    assert lemma9_B(3, 6, BClass(0, 0, True)) == 108
    # the two-term grouping in the odd-odd regime, fixed by the oracle
    ctx = field(5, 3)
    classes = realized_b_classes(ctx)
    checked = 0
    for cls, b in classes.items():
        if cls.t2 != 0 and cls.t1 == 0:
            assert lemma9_B(5, 3, cls) == oracle("lemma9", 5, 3, b=b)
            checked += 1
    assert checked >= 2


@pytest.mark.parametrize("p,m", [(3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_lemma9_oracle_all_classes(p, m):
    ctx = field(p, m)
    for cls, b in realized_b_classes(ctx).items():
        assert lemma9_B(p, m, cls) == oracle("lemma9", p, m, b=b), (cls, b)


def _lemma9_by_bincounts(ctx, b):
    # the definition term by term: one bincount of y*tr(x^2+x) + z*tr(b*x) per (y, z)
    s = ctx.trace_x2_plus_x.astype(np.int64)
    tb = ctx.trace_mul_all(b).astype(np.int64)
    total = np.zeros(ctx.p, dtype=np.int64)
    for y in range(1, ctx.p):
        for z in range(1, ctx.p):
            total += np.bincount((y * s + z * tb) % ctx.p, minlength=ctx.p)
    return CycInt(ctx.p, total).to_int()


@pytest.mark.parametrize("p,m", [(3, 3), (3, 4), (5, 3), (7, 2), (7, 3), (11, 2)])
def test_lemma9_oracle_matches_bincount_definition(p, m):
    ctx = field(p, m)
    for b in range(ctx.q):
        assert ORACLES["lemma9"](ctx, b) == _lemma9_by_bincounts(ctx, b), b


def _scalar_counts(p, arity):
    """E[k, u] = #{y in (F_p*)^arity : y . u = k mod p}, counted by enumeration.

    Column u stands for the vector (u_1, ..., u_arity) of its base-p digits,
    most significant first.  For a histogram h over such vectors, E @ h holds
    the coefficients of sum_y sum_u h[u] * zeta_p^(y . u) in Z[zeta_p].  Meant
    for p <= 13: the temporaries have (p-1)^(arity-1) * p^arity entries.
    """
    width = p ** arity
    u = np.indices((p,) * arity).reshape(arity, width)
    rest = np.indices((p - 1,) * (arity - 1)).reshape(arity - 1, (p - 1) ** (arity - 1)) + 1
    partial = rest.T @ u[1:]  # y_2 u_2 + ... over every (y_2, ...) and u
    cols = np.arange(width)
    counts = np.zeros(p * width, dtype=np.int64)
    for y in range(1, p):
        k = (y * u[0] + partial) % p
        counts += np.bincount((k * width + cols).ravel(), minlength=p * width)
    return counts.reshape(p, width)


def _lemma8_by_scalar_counts(ctx):
    hist = np.bincount(ctx.trace_x2_plus_x, minlength=ctx.p)
    return CycInt(ctx.p, _scalar_counts(ctx.p, 1) @ hist).to_int()


def _lemma9_by_scalar_counts(ctx, b):
    # the character sum in Z[zeta_p] from one joint (tr(x^2 + x), tr(b*x)) histogram
    p = ctx.p
    key = ctx.trace_x2_plus_x.astype(np.int64) * p + ctx.trace_mul_all(b)
    joint = np.bincount(key, minlength=p * p)
    return CycInt(p, _scalar_counts(p, 2) @ joint).to_int()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_scalar_counts_enumerate_pairs(p):
    counts = _scalar_counts(p, 2)
    assert counts.shape == (p, p * p)
    assert (counts.sum(axis=0) == (p - 1) ** 2).all()
    want = np.zeros((p, p * p), dtype=np.int64)
    for y in range(1, p):
        for z in range(1, p):
            for u in range(p):
                for v in range(p):
                    want[(y * u + z * v) % p, u * p + v] += 1
    assert (counts == want).all()
    single = np.zeros((p, p), dtype=np.int64)
    for y in range(1, p):
        for u in range(p):
            single[y * u % p, u] += 1
    assert (_scalar_counts(p, 1) == single).all()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_scalar_counts_columns_depend_only_on_zero_pattern(p):
    # E_p[:, (u, v)] is set by whether u = 0 and whether v = 0, which is what
    # collapses the lemma-9 sum to p^2*N_b - p*n0 - p*Z_b + q
    counts = _scalar_counts(p, 2)
    point = np.eye(p, dtype=np.int64)[0]
    ones = np.ones(p, dtype=np.int64)
    # p*[s = 0] - 1 for each of y and z, as counts over k
    want = {(True, True): (p - 1) ** 2 * point,
            (True, False): (p - 1) * (ones - point),
            (False, True): (p - 1) * (ones - point),
            (False, False): (p - 1) * point + (p - 2) * (ones - point)}
    for u in range(p):
        for v in range(p):
            assert (counts[:, u * p + v] == want[u == 0, v == 0]).all(), (u, v)
    assert len({tuple(col) for col in counts.T}) == 3  # the two mixed patterns agree


@pytest.mark.parametrize("p,m", [(3, 3), (3, 4), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)])
def test_count_oracles_match_scalar_count_route(p, m):
    ctx = field(p, m)
    assert ORACLES["lemma8"](ctx) == _lemma8_by_scalar_counts(ctx)
    for b in range(ctx.q):
        assert ORACLES["lemma9"](ctx, b) == _lemma9_by_scalar_counts(ctx, b), b


def test_lemma10_examples_and_oracle():
    assert lemma10_N0a(3, 6, 1) == 81
    assert lemma10_N0a(3, 4, 0) == 9
    assert lemma10_N0a(3, 5, 0) == 21
    for p, m in [(3, 3), (3, 4), (3, 5), (5, 3), (7, 2)]:
        for a in range(p):
            assert lemma10_N0a(p, m, a) == oracle("lemma10", p, m, a=a)


def test_lemma11_examples_and_oracle():
    assert lemma11_counts(3, 6)[2] == 144
    assert lemma11_counts(3, 4)[0] == 12
    for p, m in [(3, 3), (3, 4), (3, 6), (5, 3), (7, 2)]:
        counts = lemma11_counts(p, m)
        assert counts == oracle("lemma11", p, m)
        # the three counts plus |N(0,0)| partition F_q
        assert sum(counts) + lemma10_N0a(p, m, 0) == p ** m


def test_lemma12_examples_and_oracle():
    assert lemma12_V(3, 4) == 18
    assert lemma12_V(3, 5) == 42
    assert lemma12_V(5, 3) == 4
    for p, m in [(3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]:
        assert lemma12_V(p, m) == oracle("lemma12", p, m)
    with pytest.raises(CaseMismatch):
        lemma12_V(3, 3)


def test_lemma_Nb_examples():
    assert lemma_Nb_predicted(3, 6, BClass(0, 0, True)) == 99
    assert lemma_Nb_predicted(3, 3, BClass(1, 1, False)) == 4
    assert lemma_Nb_predicted(3, 5, BClass(0, 0, True)) == 18


@pytest.mark.parametrize("p,m", [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3)])
def test_lemma_Nb_oracle_all_classes(p, m):
    ctx = field(p, m)
    for cls, b in realized_b_classes(ctx).items():
        assert lemma_Nb_predicted(p, m, cls) == count_Nb(ctx, b), (cls, b)


def test_class_tables_equal_the_scalar_forms_at_every_cell():
    # every cell (t2, t1) of every odd p < 60 and 2 <= m <= 9, p | m in both parities
    # among them; closed forms only, no field is built
    pairs = [(p, m) for p in range(3, 60) if is_prime(p) for m in range(2, 10)]
    assert {(3, 3), (3, 6), (3, 9), (5, 5), (7, 7)} <= {(p, m) for p, m in pairs if m % p == 0}
    for p, m in pairs:
        table = class_tables(p, m).tolist()
        for t2 in range(p):
            for t1 in range(p):
                cls = BClass(t2, t1, (t1 * t1 - m * t2) % p == 0)
                assert table[t2][t1] == [lemma9_B(p, m, cls),
                                         lemma_Nb_predicted(p, m, cls)], (p, m, cls)


@pytest.mark.parametrize("p", [61, 67, 509, 1019, 1097])
def test_class_tables_equal_the_scalar_forms_at_sampled_cells(p):
    # past p = 60, with p = 1 and 3 mod 4: the axes t2 = 0 and t1 = 0, the
    # discriminant curve t1^2 = m*t2 and random cells
    rng = random.Random(p)
    for m in range(2, 6):
        table = class_tables(p, m)
        assert table.shape == (p, p, 2) and table.dtype == np.int64
        rs = rng.sample(range(1, p), 12)
        cells = [(0, 0)] + [(0, r) for r in rs] + [(r, 0) for r in rs]
        cells += [(r * r * pow(m, -1, p) % p, r) for r in rs]
        cells += [(rng.randrange(p), rng.randrange(p)) for _ in range(60)]
        for t2, t1 in cells:
            cls = BClass(t2, t1, (t1 * t1 - m * t2) % p == 0)
            assert table[t2, t1].tolist() == [lemma9_B(p, m, cls),
                                              lemma_Nb_predicted(p, m, cls)], (p, m, cls)


def test_class_tables_hold_every_entry_whose_values_fit_int64():
    # N_b is about p^(m-2), so the int64 table holds it through (3,41), (5,29) and (7,24),
    # where q = p^m is already past 2^63 (at (5,27) and (7,22) it is just below): N_b is
    # read off B in Python ints, not in int64 arrays over q.  One step further it raises
    for p, m in [(3, 41), (5, 27), (5, 29), (7, 22), (7, 24)]:
        table = class_tables(p, m)
        for cls in _one_class_per_case_key(p, m):
            assert table[cls.t2, cls.t1].tolist() == [lemma9_B(p, m, cls),
                                                      lemma_Nb_predicted(p, m, cls)], (p, m, cls)
    for p, m in [(3, 42), (3, 45), (5, 30), (7, 25)]:
        with pytest.raises(OverflowError):
            class_tables(p, m)


def test_lemma16_examples_and_oracle():
    assert lemma16_uc(3, 3, 0) == 9
    assert lemma16_uc(3, 3, 1) == 6
    assert lemma16_uc(5, 3, 2) == 20
    for p, m in [(3, 3), (3, 5), (5, 3), (7, 3), (5, 5)]:
        for c in range(p):
            assert lemma16_uc(p, m, c) == oracle("lemma16", p, m, c=c)
        assert sum(lemma16_uc(p, m, c) for c in range(p)) == p ** m
    with pytest.raises(CaseMismatch):
        lemma16_uc(3, 4, 1)


def test_lemma17_examples_and_oracle():
    assert lemma17_vc(3, 3, 1) == 0
    assert lemma17_vc(3, 3, 2) == 6
    for p, m in [(3, 3), (5, 5)]:
        for c in range(1, p):
            assert lemma17_vc(p, m, c) == oracle("lemma17", p, m, c=c)
    with pytest.raises(CaseMismatch):
        lemma17_vc(3, 4, 1)
    with pytest.raises(CaseMismatch):
        lemma17_vc(3, 5, 1)
    with pytest.raises(CaseMismatch):
        lemma17_vc(3, 3, 0)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_table_oracles_raise_at_m1(p):
    # at m = 1 the (tr x^2, tr x) table has p^2 > q cells, and the closed forms
    # of lemmas 10, 11, 12 and 17 raise too; lemmas 8 and 16 hold there
    ctx = field(p, 1)
    with pytest.raises(CaseMismatch):
        ctx.trace_pair_counts
    for kind, params in [("lemma10", {"a": 0}), ("lemma11", {}), ("lemma12", {}),
                         ("lemma17", {"c": 1})]:
        with pytest.raises(CaseMismatch):
            oracle(kind, p, 1, **params)
    assert oracle("lemma8", p, 1) == lemma8_value(p, 1)
    for c in range(p):
        assert oracle("lemma16", p, 1, c=c) == lemma16_uc(p, 1, c)


def test_bclass_from_element():
    ctx = field(3, 4)
    for b in range(1, ctx.q):
        cls = BClass.from_element(ctx, b)
        assert cls.t2 == ctx.trace(ctx.square(b))
        assert cls.t1 == ctx.trace(b)
        assert cls.disc == ((cls.t1 ** 2 - ctx.m * cls.t2) % ctx.p == 0)


def test_realized_classes_partition():
    # every realized class, each with its smallest representative b, in the order of b
    for p, m in [(3, 5), (5, 3), (7, 2), (7, 1)]:
        ctx = field(p, m)
        first = {}
        for b in range(1, ctx.q):
            first.setdefault(BClass.from_element(ctx, b), b)
        assert list(realized_b_classes(ctx).items()) == list(first.items())


def test_realized_classes_at_m1_make_no_class_table():
    # first_of_each_class would fill p^2 int64 cells, 2.98 GiB at p = 19997, where
    # each b is alone in its class; the m = 1 branch reads b's own traces instead
    ctx = FieldCtx(19997, 1)
    assert ctx.trace_x2.size == ctx.trace_table.size == ctx.q  # the tables, built first
    tracemalloc.start()
    try:
        classes = realized_b_classes(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak  # about 4 MB, against the table's 2.98 GiB
    assert list(classes.values()) == list(range(1, ctx.q))


def test_oracle_unknown_kind():
    with pytest.raises(ValueError):
        oracle("lemma99", 3, 3)


def fields_up_to(max_q):
    return [(p, m) for p in range(3, math.isqrt(max_q) + 1) if is_prime(p)
            for m in range(2, 20) if p ** m <= max_q]


SMALL_FIELDS = fields_up_to(DEFAULT_MAX_Q)
EXACT_SWEEP_FIELDS = fields_up_to(300_000)
# the fields past 3*10^5 take about 14 s in all, so they run only under `-m slow`
SLOW_SWEEP_FIELDS = [pytest.param(p, m, marks=pytest.mark.slow)
                     for p, m in fields_up_to(2_000_000) if p ** m > 300_000]


def test_gauss_integers_equal_the_exact_sums():
    # lemma 5: G over F_q (even m) and G*Gbar (odd m) against the exact character sums
    assert len(SMALL_FIELDS) == 53
    for p, m in SMALL_FIELDS:
        G = gauss_sum_exact(field(p, m))
        if m % 2 == 0:
            assert G == CycInt.from_int(p, G_even(p, m)), (p, m)
        else:
            GGbar = G * gauss_sum_exact(field(p, 1))
            assert GGbar == CycInt.from_int(p, GGbar_odd(p, m)), (p, m)


def test_gauss_integers_agree_with_the_complex_closed_form():
    # the integers, powers of Gbar^2, and gauss_closed's units state one lemma 5
    for p in filter(is_prime, range(3, 2000)):
        gbar_unit = gauss_closed(p, 1).unit
        for m in range(1, 40):
            unit = gauss_closed(p, m).unit
            if m % 2 == 0:
                assert unit == math.copysign(1, G_even(p, m)), (p, m)
            else:
                assert unit * gbar_unit == math.copysign(1, GGbar_odd(p, m)), (p, m)
            q = p ** m
            assert Gbar_squared(p) ** m == (-1) ** ((q - 1) // 2) * q, (p, m)


ENUMERATED_FIELDS = [(3, 4), (5, 3), (3, 6), (3, 3), (3, 5), (3, 8), (5, 4), (5, 5), (7, 3),
                     (7, 4), (3, 2), (7, 2), (13, 2), (71, 2)]


# the other 39 fields under the default cap add about 2 s, so they run under `-m slow`
@pytest.mark.parametrize("p,m", ENUMERATED_FIELDS + [
    pytest.param(p, m, marks=pytest.mark.slow)
    for p, m in SMALL_FIELDS if (p, m) not in ENUMERATED_FIELDS])
def test_prediction_matches_enumeration(p, m):
    # the transform kernel that verify runs against the reference enumeration
    ds = defining_set(field(p, m))
    brute = brute_weight_distribution(ds)
    assert predicted_distribution(p, m).with_zero_word() == brute
    assert ds.weight_distribution == brute


@pytest.mark.parametrize("p,m", EXACT_SWEEP_FIELDS + SLOW_SWEEP_FIELDS)
def test_theorems_hold_on_every_small_field(p, m):
    # theorems 1-4 at every odd p and m >= 2 up to 15 times the default cap (100
    # times under `-m slow`), not only the grid; uncached fields, so the sweep holds no tables
    pred = predicted_distribution(p, m)
    ds = defining_set(FieldCtx(p, m, max_q=p ** m))
    assert ds.n == pred.n and ds.dimension == pred.dimension
    assert ds.weight_distribution == pred.with_zero_word()


def _inverse_mod_p(a, p):
    """The inverse of the square integer matrix a mod p, by Gauss-Jordan elimination."""
    n = len(a)
    rows = [[int(v) % p for v in row] + [int(i == j) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[col])]
    return np.array([row[n:] for row in rows], dtype=np.int64)


def _class_of_c(ctx):
    """(tr b^2, tr b) of b = Q^-1 c, as the key t2*p + t1, for every index c.

    tr(b*x) = <c(b), x> with c(b) = Q b, so tr b = <c, e_0> is the lowest digit
    of c, and tr b^2 = b^T Q b = c^T Q^-1 c, Q being symmetric; no q x m table
    and no map from b to c is built.
    """
    p, m = ctx.p, ctx.m
    # Q_ij = tr(alpha^i * alpha^j), and alpha^i has the index p^i
    Q = [[ctx.trace(ctx.mul(p ** i, p ** j)) for j in range(m)] for i in range(m)]
    t2 = ctx._grid_form(np.zeros(m, dtype=np.int64), _inverse_mod_p(Q, p)).astype(np.int64)
    return t2 * p + np.arange(ctx.q) % p


def _off_class(ctx, nc):
    """The c != 0 where N_c or the lemma-9 value read from it is not the closed
    value of the class of b = Q^-1 c."""
    p, q = ctx.p, ctx.q
    b_table, nb_table = np.moveaxis(class_tables(p, ctx.m), 2, 0)
    key = _class_of_c(ctx)[1:]
    nb = nc[1:]
    b_oracle = lemma9_from_counts(p, q, nb, int(nc[0]), q // p)
    bad = (nb != nb_table.ravel()[key]) | (b_oracle != b_table.ravel()[key])
    return np.flatnonzero(bad) + 1


@pytest.mark.parametrize("p,m", [(3, 5), (5, 3), (7, 4), (13, 2)])
def test_class_of_c_reads_the_traces_of_b(p, m):
    ctx = field(p, m)
    b = np.arange(ctx.q)
    c = ctx.trace_dual(b)
    key = _class_of_c(ctx)[c]
    assert (key % p == ctx.trace_table).all()
    assert (key // p == ctx.trace_x2).all()


@pytest.mark.parametrize("p,m", EXACT_SWEEP_FIELDS + SLOW_SWEEP_FIELDS)
def test_nb_is_the_closed_value_of_the_class_at_every_b(p, m):
    # the lemma suite reads N_b at one b per class; the claim is that N_b and B_b
    # depend on b only through its class, checked here at every b != 0
    ctx = FieldCtx(p, m, max_q=p ** m)
    assert _off_class(ctx, transform_Nc(defining_set(ctx))).size == 0


def test_every_b_check_sees_a_swap_the_distribution_and_the_suite_miss():
    p, m = 7, 4
    ctx = field(p, m)
    ds = defining_set(ctx)
    nc = transform_Nc(ds)
    nb_table = class_tables(p, m)[..., 1].ravel()
    key = _class_of_c(ctx)
    reps = set(ctx.trace_dual(list(realized_b_classes(ctx).values())).tolist())
    others = [c for c in range(1, ctx.q) if c not in reps]
    c1 = others[0]
    c2 = next(c for c in others if nb_table[key[c]] != nb_table[key[c1]])
    swapped = nc.copy()
    swapped[[c1, c2]] = nc[[c2, c1]]
    assert _off_class(ctx, nc).size == 0
    assert _off_class(ctx, swapped).tolist() == sorted([c1, c2])
    # a swap keeps the multiset of N_c and leaves every representative alone
    assert distribution_from_Nb(ds, swapped) == predicted_distribution(p, m).with_zero_word()
    assert all(c.match for c in run_lemma_suite(ctx, swapped))


def test_exact_sweep_covers_every_field_up_to_its_bound():
    assert len(SMALL_FIELDS) == 53 and len(EXACT_SWEEP_FIELDS) == 138
    assert len(EXACT_SWEEP_FIELDS) + len(SLOW_SWEEP_FIELDS) == len(fields_up_to(2_000_000)) == 283
    assert set(SMALL_FIELDS) < set(EXACT_SWEEP_FIELDS)
    assert set(ENUMERATED_FIELDS) < set(SMALL_FIELDS)


def test_transform_prime_range():
    # n0 = |D| + 1 from the verified closed-form length; no field is built
    ell = dft_prime(1549, predicted_length(1549, 2) + 1)
    assert ell % 1549 == 1 and is_prime(ell) and 1549 * ell ** 2 < 2 ** 53
    for p, m in [(1553, 2), (191, 3), (3, 17)]:
        with pytest.raises(FieldTooLarge, match=r"p\*l\^2 < 2\^53"):
            dft_prime(p, predicted_length(p, m) + 1)
    # the smallest prime = 1 (mod p) above p*n0, in the float64 range at every q <= 2e6
    assert dft_prime(3, 8 + 1) == 31 and dft_prime(5, 19 + 1) == 101
    for p, m in fields_up_to(2_000_000):
        dft_prime(p, predicted_length(p, m) + 1)


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_lemmas_and_gauss_hold_on_every_small_field(p, m):
    # the lemma closed forms and the Gauss checks on the same fields, not only the grid
    rep = run_verification(p, m, checks=("lemmas", "gauss"))
    assert rep.lemma_checks and all(c.match for c in rep.lemma_checks)
