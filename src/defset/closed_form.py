"""Closed-form weight distributions and character-sum values, with oracles.

Every formula here is evaluated in exact integer arithmetic.  The two Gauss
quantities that appear are integers in their own regimes: G for even m, and
the product G*Gbar for odd m, both powers of Gbar^2 = eta(-1)*p.  Each closed
form has a brute-force oracle (`oracle`) that recomputes the same quantity by
direct enumeration; a character sum is first reduced to integer counts by
orthogonality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .codes import DefiningSet, WeightDistribution
from .errors import CaseMismatch, NonIntegralTableEntry
from .fields import _COUNT_BLOCK, FieldCtx, field, legendre, require_odd_prime


class CaseTag(enum.Enum):
    """The four (m parity, p | m) regimes; each selects one numbered theorem."""

    EVEN_DIVIDES = "even_divides"
    EVEN_COPRIME = "even_coprime"
    ODD_DIVIDES = "odd_divides"
    ODD_COPRIME = "odd_coprime"


THEOREM_NUMBER = {
    CaseTag.EVEN_DIVIDES: 1,
    CaseTag.EVEN_COPRIME: 2,
    CaseTag.ODD_DIVIDES: 3,
    CaseTag.ODD_COPRIME: 4,
}


def classify(p: int, m: int) -> CaseTag:
    if m % 2 == 0:
        return CaseTag.EVEN_DIVIDES if m % p == 0 else CaseTag.EVEN_COPRIME
    return CaseTag.ODD_DIVIDES if m % p == 0 else CaseTag.ODD_COPRIME


@dataclass(frozen=True)
class BClass:
    """Case data of an element b: t2 = tr(b^2), t1 = tr(b).

    disc records whether (tr b)^2 = m * tr(b^2) in F_p.  It drives the odd-m
    split of lemma9_B, and so of N_b, in both regimes (when p | m it means
    t1 = 0); even m reads eta(t1^2 - m*t2), whose eta(0) = 0 covers it.
    """

    t2: int
    t1: int
    disc: bool

    @classmethod
    def from_element(cls, ctx: FieldCtx, b: int) -> BClass:
        t2, t1 = int(ctx.trace_x2[b]), int(ctx.trace_table[b])
        return cls(t2, t1, disc_of(ctx.p, ctx.m, t2, t1))


def disc_of(p: int, m: int, t2, t1):
    """BClass.disc of the class (t2, t1): whether t1^2 = m * t2 in F_p; ints or arrays."""
    return (t1 * t1 - m * t2) % p == 0


def realized_b_classes(ctx: FieldCtx) -> dict[BClass, int]:
    """Every BClass realized by some b in F_q*, with its smallest representative.

    The class of b depends only on (tr(b^2), tr(b)), so the first b with each
    pair represents it.
    """
    q = ctx.q
    if ctx.m == 1:
        # tr(b) = b: every b is alone in its class.  first_of_each_class would fill
        # p^2 int64 cells here, 2.98 GiB at p = 19997, which the default cap admits
        return {BClass.from_element(ctx, b): b for b in range(1, q)}
    first = first_of_each_class(ctx)
    return {BClass.from_element(ctx, b): b for b in np.sort(first[first < q]).tolist()}


def first_of_each_class(ctx: FieldCtx) -> np.ndarray:
    """first[t2*p + t1] = the smallest b != 0 with tr(b^2) = t2 and tr(b) = t1, or q
    if there is none; for m >= 2, where the p^2 cells are at most q.  The key is scanned
    in slices of 2^16, so the int64 indices beside it are one slice long, not q."""
    p, q = ctx.p, ctx.q
    first = np.full(p * p, q, dtype=np.int64)
    for start in range(1, q, _COUNT_BLOCK):
        stop = min(start + _COUNT_BLOCK, q)
        np.minimum.at(first, ctx.trace_pair_key[start:stop], np.arange(start, stop))
    return first


def _exact_div(a: int, b: int) -> int:
    quot, rem = divmod(a, b)
    if rem:
        raise NonIntegralTableEntry(f"{a} is not divisible by {b}")
    return quot


# --- Gauss quantities as integers --------------------------------------------

def Gbar_squared(p: int) -> int:
    """Gbar^2 = eta(-1) * p for the Gauss sum Gbar over the prime field F_p."""
    return legendre(-1, p) * p


def G_even(p: int, m: int) -> int:
    """G over F_q for even m: G = (-1)^(m-1) * Gbar^m = -(Gbar^2)^(m/2) by Davenport-Hasse."""
    if m % 2:
        raise CaseMismatch(f"G is an integer only for even m, got m={m}")
    return -Gbar_squared(p) ** (m // 2)


def GGbar_odd(p: int, m: int) -> int:
    """G*Gbar for odd m: G = Gbar^m by Davenport-Hasse, so G*Gbar = (Gbar^2)^((m+1)/2)."""
    if m % 2 == 0:
        raise CaseMismatch(f"G*Gbar is used only for odd m, got m={m}")
    return Gbar_squared(p) ** ((m + 1) // 2)


# --- character-sum closed forms ----------------------------------------------

def lemma8_value(p: int, m: int) -> int:
    """Sum over y in F_p*, x in F_q of zeta_p^(y*tr(x^2+x)), in closed form."""
    if m % 2:
        return legendre(-m, p) * GGbar_odd(p, m)
    return (p - 1 if m % p == 0 else -1) * G_even(p, m)


def lemma9_B(p: int, m: int, cls: BClass) -> int:
    """Closed value of B = sum over y,z in F_p*, x in F_q of chi(y*x^2 + y*x + b*z*x).

    The value depends on b only through its BClass.  For odd m, eta(-m) = 0
    when p | m, which turns theorem 4's values into theorem 3's.
    """
    t2, t1 = cls.t2 % p, cls.t1 % p
    if m % 2:
        GG, L = GGbar_odd(p, m), legendre(-m, p)
        if t2 == 0:
            return L * (p - 1 if t1 == 0 else -1) * GG
        # grouping fixed against the enumeration oracle: -(eta(-t2) + eta(-m)) * G*Gbar off disc
        return (legendre(-t2, p) * (p - 1 if cls.disc else -1) - L) * GG
    G = G_even(p, m)
    if t2 and m % p:
        # eta(0) = 0 on the disc cells
        return (legendre(t1 * t1 - m * t2, p) * p + 1) * G
    # where m*t2 = 0 in F_p the sums over y and z in F_p* split, into p*[m = t2 = 0] - 1
    # and p*[t1 = 0] - 1
    return (p - 1 if t2 == 0 and m % p == 0 else -1) * (p - 1 if t1 == 0 else -1) * G


def require_m2(p: int, m: int) -> int:
    """p^(m-2), after checking that m >= 2, which every table and count form needs."""
    if m < 2:
        raise CaseMismatch(f"closed form needs m >= 2, got m={m}")
    return p ** (m - 2)


def lemma10_N0a(p: int, m: int, a: int) -> int:
    """|{x in F_q : tr(x^2) = 0 and tr(x) = a}| in closed form."""
    pm2 = require_m2(p, m)
    a %= p
    if m % 2:
        t = _exact_div(legendre(-m, p) * GGbar_odd(p, m), p * p)
        return pm2 + (p - 1 if a == 0 else -1) * t
    if m % p:
        return pm2 + (a != 0) * _exact_div(G_even(p, m), p)
    return pm2 + (a == 0) * _exact_div((p - 1) * G_even(p, m), p)


def lemma11_counts(p: int, m: int) -> tuple[int, int, int]:
    """(|N(0, !=0)|, |N(!=0, !=0)|, |N(!=0, 0)|) for the (tr(x^2), tr(x)) partition.

    Each level set tr(x) = t has p^(m-1) elements, and lemma 10 counts its part
    with tr(x^2) = 0, which is the same for every t != 0.
    """
    n01, n00 = lemma10_N0a(p, m, 1), lemma10_N0a(p, m, 0)
    return (p - 1) * n01, (p - 1) * (p ** (m - 1) - n01), p ** (m - 1) - n00


def lemma12_V(p: int, m: int) -> int:
    """|{x : tr(x) != 0 and (tr x)^2 = m * tr(x^2)}|; defined only for p coprime to m."""
    pm2 = require_m2(p, m)
    if m % p == 0:
        raise CaseMismatch(f"the discriminant count needs p coprime to m, got p={p}, m={m}")
    if m % 2 == 0:
        return (p - 1) * pm2
    t = _exact_div(legendre(-m, p) * GGbar_odd(p, m), p * p)
    return (p - 1) * pm2 + (p - 1) ** 2 * t


def _nb_from_B(p: int, pn0: int, B: int) -> int:
    """|N_b| for b != 0 from lemma 9's B_b, with pn0 = p * n0 = q + lemma 8.

    Summing zeta_p^(y*tr(x^2 + x) + z*tr(b*x)) over y, z in F_p and x in F_q
    gives p^2 * N_b.  The terms with z = 0 give p * n0, those with y = 0 and
    z != 0 cancel (tr(b*x) is balanced), and the rest are B_b.
    """
    return _exact_div(pn0 + B, p * p)


def lemma_Nb_predicted(p: int, m: int, cls: BClass) -> int:
    """Predicted |N_b| = |{x : tr(x^2+x) = 0 and tr(b*x) = 0}| for b in cls (lemmas 13-15, 18)."""
    require_m2(p, m)
    return _nb_from_B(p, p ** m + lemma8_value(p, m), lemma9_B(p, m, cls))


def class_tables(p: int, m: int) -> np.ndarray:
    """(lemma 9's B, the case's N_b lemma) of every class (t2, t1), as a p x p x 2 int64 array.

    `lemma9_B` depends on a class only through its case key: t2 = 0, t1 = 0,
    eta(-t2) and eta(m*t2 - t1^2), with eta from one Legendre table of F_p.
    It is evaluated once per realized key, at one cell with that key, N_b is
    read off that B in Python ints as `lemma_Nb_predicted` reads it, and the
    pairs are placed by one index.  No field is built and no count is read.
    """
    require_m2(p, m)
    eta = np.full(p, -1, dtype=np.int64)
    eta[0] = 0
    eta[np.arange(1, p) ** 2 % p] = 1
    t2 = np.arange(p)[:, None]
    t1 = np.arange(p)
    eta_t2 = eta[-t2 % p]
    eta_d = eta[(m % p * t2 - t1 * t1) % p]
    idx = ((2 * (t2 == 0) + (t1 == 0)) * 3 + eta_t2 + 1) * 3 + eta_d + 1
    cell = np.full(36, -1, dtype=np.int64)
    cell[idx] = np.arange(p * p).reshape(p, p)
    pn0 = p ** m + lemma8_value(p, m)
    values = np.zeros((36, 2), dtype=np.int64)
    for key in np.flatnonzero(cell >= 0).tolist():
        c2, c1 = divmod(int(cell[key]), p)
        B = lemma9_B(p, m, BClass(c2, c1, disc_of(p, m, c2, c1)))
        values[key] = B, _nb_from_B(p, pn0, B)
    return values[idx]


def lemma16_uc(p: int, m: int, c: int) -> int:
    """u_c = |{x : tr(x^2) = c}| for odd m, with eta(0) = 0."""
    if m % 2 == 0:
        raise CaseMismatch(f"u_c closed form needs odd m, got m={m}")
    return p ** (m - 1) + legendre(-c, p) * _exact_div(GGbar_odd(p, m), p)


def lemma17_vc(p: int, m: int, c: int) -> int:
    """v_c = |{x : tr(x^2) = c and tr(x) = 0}| for odd m with p | m and c != 0.

    There each of the p - 1 level sets tr(x) = t != 0 holds p^(m-2) elements of
    u_c, so v_c = u_c - (p - 1)*p^(m-2).
    """
    if m % 2 == 0 or m % p != 0 or c % p == 0:
        raise CaseMismatch(f"v_c needs odd m, p | m and c != 0; got p={p}, m={m}, c={c}")
    return lemma16_uc(p, m, c) - (p - 1) * p ** (m - 2)


# --- predicted code parameters -----------------------------------------------

def predicted_length(p: int, m: int) -> int:
    """n = n0 - 1, where p * n0 = q + lemma 8 (x = 0 lies in D0 but not in D), for m >= 1."""
    if m < 1:
        raise CaseMismatch(f"closed form needs m >= 1, got m={m}")
    return _exact_div(p ** m + lemma8_value(p, m), p) - 1


@dataclass(frozen=True)
class PredictedDistribution:
    """The predicted table's rows over the words c_b with b != 0, merged and pruned.

    A row may have weight 0 (at p = 3, m = 2); dimension is k = m - log_p A_0,
    where A_0 counts every b, 0 included, with c_b = 0.
    """

    rows: tuple[tuple[int, int], ...]
    n: int
    dimension: int

    def with_zero_word(self) -> WeightDistribution:
        entries = dict(self.rows)
        entries[0] = entries.get(0, 0) + 1
        return WeightDistribution(entries)


def _table_rows(p: int, m: int, tag: CaseTag) -> list[tuple[int, int]]:
    pm2 = require_m2(p, m)
    base = (p - 1) * pm2
    if tag is CaseTag.EVEN_DIVIDES:
        gp = _exact_div(G_even(p, m), p)
        return [
            (base, pm2 - 1 + (p - 1) * gp),
            (base + (p - 1) * gp, 2 * base - (p - 1) * gp),
            (base + (p - 2) * gp, (p - 1) ** 2 * pm2),
        ]
    if tag is CaseTag.EVEN_COPRIME:
        G = G_even(p, m)
        gp = _exact_div(G, p)
        return [
            (base - gp, (p - 1) * (2 * pm2 + gp)),
            (base, _exact_div((p - 1) * (p ** (m - 1) - G), 2) + pm2 - 1),
            (base - 2 * gp, _exact_div((p * p - 3 * p + 2) * (pm2 + gp), 2)),
        ]
    if tag is CaseTag.ODD_DIVIDES:
        r = p ** ((m - 3) // 2)
        r1 = p ** ((m - 1) // 2)
        return [
            (base, p ** (m - 1) - 1),
            (base + r, _exact_div((p - 1) ** 2 * pm2, 2)),
            (base - r, _exact_div((p - 1) ** 2 * pm2, 2)),
            (base - (p - 1) * r, _exact_div((p - 1) * (pm2 + r1), 2)),
            (base + (p - 1) * r, _exact_div((p - 1) * (pm2 - r1), 2)),
        ]
    GG = GGbar_odd(p, m)
    L = legendre(-m, p)
    lp = _exact_div(L * GG, p)
    lp2 = _exact_div(L * GG, p * p)
    return [
        (base + lp, (p - 1) * (pm2 - lp2)),
        (base, pm2 + (p - 1) * lp2 - 1),
        (base + (p - 1) * lp2, _exact_div((p - 1) * (p ** (m - 1) - lp), 2)),
        (base + (p + 1) * lp2, _exact_div((p - 1) * (p - 2) * (pm2 - lp2), 2)),
        (base + lp2, base + (p - 1) ** 2 * lp2),
    ]


def predicted_distribution(p: int, m: int) -> PredictedDistribution:
    """Evaluate the table for (p, m): merge coinciding weights, prune zero rows.

    Pruning subsumes the four-weight degeneration at m = 3 with p = 2 mod 3,
    where the multiplicity of (p-1)*p^(m-2) vanishes.
    """
    require_odd_prime(p)
    tag = classify(p, m)
    merged: dict[int, int] = {}
    for w, a in _table_rows(p, m, tag):
        if a < 0 or w < 0:
            raise NonIntegralTableEntry(f"table row ({w}, {a}) is negative for p={p}, m={m}")
        merged[w] = merged.get(w, 0) + a
    rows = tuple((w, a) for w, a in sorted(merged.items()) if a > 0)
    n = predicted_length(p, m)
    total = sum(a for _, a in rows)
    if total != p ** m - 1:
        raise NonIntegralTableEntry(
            f"table multiplicities sum to {total}, expected {p ** m - 1}")
    # the b with c_b = 0 form the kernel of b -> c_b, of size p^(m - k)
    zeros, k = dict(rows).get(0, 0) + 1, m
    while zeros > 1:
        zeros, k = _exact_div(zeros, p), k - 1
    return PredictedDistribution(rows, n, k)


# --- brute-force oracles -------------------------------------------------------

# The lemma-8 and lemma-9 character sums reduce to counts through the
# orthogonality of the characters of F_p: sum_(y in F_p*) zeta_p^(y*s) is
# p*[s = 0] - 1 (MacWilliams & Sloane, ch. 5).

def _oracle_lemma8(ctx: FieldCtx) -> int:
    # sum_x (p*[tr(x^2 + x) = 0] - 1) = p*n0 - q
    return ctx.p * DefiningSet(ctx).n0 - ctx.q


def lemma9_from_counts(p: int, q: int, nb: int, n0: int, zb: int) -> int:
    """B_b from N_b, n0 = |{x : tr(x^2 + x) = 0}| and Z_b = |{x : tr(b*x) = 0}|."""
    # tr(y*x^2 + y*x + b*z*x) = y*tr(x^2 + x) + z*tr(b*x) for scalars y, z, so
    # B_b = sum_x (p*[tr(x^2 + x) = 0] - 1) * (p*[tr(b*x) = 0] - 1)
    return p * p * nb - p * n0 - p * zb + q


def _oracle_lemma9(ctx: FieldCtx, b: int) -> int:
    s0 = ctx.trace_x2_plus_x == 0
    t0 = ctx.trace_mul_all(b) == 0
    nb, n0, zb = (int(np.count_nonzero(v)) for v in (s0 & t0, s0, t0))
    return lemma9_from_counts(ctx.p, ctx.q, nb, n0, zb)


def _oracle_lemma12(ctx: FieldCtx) -> int:
    t = np.arange(1, ctx.p)
    s = np.arange(ctx.p)[:, None]
    return int(ctx.trace_pair_counts[:, 1:][disc_of(ctx.p, ctx.m, s, t)].sum())


def _oracle_lemma16(ctx: FieldCtx, c: int) -> int:
    return int(ctx.trace_x2_counts[c % ctx.p])


# the enumeration oracle of each lemma kind, evaluated on a given FieldCtx
ORACLES = {
    "lemma8": _oracle_lemma8,
    "lemma9": _oracle_lemma9,
    # lemmas 10, 11, 12 and 17 read H[s, t] = |{x : tr(x^2) = s, tr(x) = t}|
    "lemma10": lambda ctx, a: int(ctx.trace_pair_counts[0, a % ctx.p]),
    "lemma11": lambda ctx: (int(ctx.trace_pair_counts[0, 1:].sum()),
                            int(ctx.trace_pair_counts[1:, 1:].sum()),
                            int(ctx.trace_pair_counts[1:, 0].sum())),
    "lemma12": _oracle_lemma12,
    "lemma16": _oracle_lemma16,
    "lemma17": lambda ctx, c: int(ctx.trace_pair_counts[c % ctx.p, 0]),
}


def oracle(kind: str, p: int, m: int, **params):
    """Ground truth for a lemma by direct enumeration over the shared field cache."""
    try:
        fn = ORACLES[kind]
    except KeyError:
        raise ValueError(f"unknown oracle kind {kind!r}") from None
    return fn(field(p, m), **params)
