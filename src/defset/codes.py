"""Defining-set code construction and exact weight-distribution enumeration.

The defining set is D = {x in F_q* : tr(x^2 + x) = 0} = {d_1 < d_2 < ...};
the code consists of the words c_b = (tr(b*d_1), ..., tr(b*d_n)) over F_p for
b ranging over F_q.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import EmptyDistribution, FieldTooLarge, InexactTransform
from .fields import FieldCtx


@dataclass(frozen=True, eq=False)
class DefiningSet:
    """D with its coordinates fixed in ascending canonical-index order."""

    ctx: FieldCtx
    elements: np.ndarray

    @property
    def n(self) -> int:
        return int(self.elements.size)

    @property
    def n0(self) -> int:
        """|D| + 1: the count of all x in F_q with tr(x^2 + x) = 0 (x = 0 included)."""
        return self.n + 1


def defining_set(ctx: FieldCtx) -> DefiningSet:
    s = ctx.trace_x2_plus_x
    idx = np.flatnonzero(s == 0).astype(np.int64)
    return DefiningSet(ctx, idx[idx != 0])


def codeword(ds: DefiningSet, b: int) -> np.ndarray:
    """c_b over F_p, coordinate i equal to tr(b * d_i)."""
    ctx = ds.ctx
    if b == 0:
        return np.zeros(ds.n, dtype=np.int16)
    k = (ctx.log[ds.elements] + ctx.log[b]) % (ctx.q - 1)
    return ctx.trace_table[ctx.antilog[k]]


def count_Nb(ctx: FieldCtx, b: int) -> int:
    """|{x in F_q : tr(x^2 + x) = 0 and tr(b*x) = 0}| by one pass over F_q."""
    tb = ctx.trace_mul_all(b)
    return int(np.count_nonzero((ctx.trace_x2_plus_x == 0) & (tb == 0)))


def weight_of(ds: DefiningSet, b: int) -> int:
    """Hamming weight of c_b via wt(c_b) = n0 - |N_b|."""
    return ds.n0 - count_Nb(ds.ctx, b)


class WeightDistribution:
    """Multiset weight -> multiplicity for a set of codewords."""

    def __init__(self, entries: dict[int, int]):
        self.entries = {int(w): int(a) for w, a in sorted(entries.items()) if a}
        self.total = sum(self.entries.values())

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> WeightDistribution:
        counts = np.bincount(np.asarray(weights, dtype=np.int64))
        return cls({w: int(c) for w, c in enumerate(counts) if c})

    def items(self) -> list[tuple[int, int]]:
        return list(self.entries.items())

    def nonzero_weights(self) -> list[int]:
        return [w for w in self.entries if w != 0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightDistribution):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(tuple(self.entries.items()))

    def __repr__(self) -> str:
        return f"WeightDistribution({self.entries})"


def brute_weight_distribution(ds: DefiningSet, cap: int | None = None) -> WeightDistribution:
    """Exact distribution over all p^m codewords, one O(n) pass per b."""
    ctx = ds.ctx
    if cap is not None and ctx.q > cap:
        raise FieldTooLarge(f"p^m = {ctx.q} exceeds the enumeration cap {cap}")
    q1 = ctx.q - 1
    d_logs = ctx.log[ds.elements]
    t_exp = ctx.trace_table[ctx.antilog]
    weights = np.zeros(ctx.q, dtype=np.int64)  # b = 0 stays at weight 0
    buf = np.empty(ds.n, dtype=np.int64)
    for k in range(q1):
        np.add(d_logs, k, out=buf)
        buf[buf >= q1] -= q1
        weights[ctx.antilog[k]] = np.count_nonzero(t_exp[buf])
    return WeightDistribution.from_weights(weights)


def transform_Nb(ds: DefiningSet) -> np.ndarray:
    """N_b = |{x : tr(x^2 + x) = 0 and tr(b*x) = 0}| for every b in F_q, from one DFT.

    With F the DFT of the indicator of D0 = {x : tr(x^2 + x) = 0} (x = 0
    included), N_c = |{x in D0 : sum_j c_j x_j = 0}| = (1/p) sum_(y in F_p) F(y*c),
    because the characters of F_p sum to p at 0 and to 0 elsewhere (MacWilliams
    & Sloane, ch. 5).  As tr(b*x) = <c(b), x>, N_b = N_(c(b)); N_0 = n0.  The
    float counts are rounded only once every residual is checked below 1/4.
    """
    ctx = ds.ctx
    p, q = ctx.p, ctx.q
    # reshaping in index order keeps digit i on the same axis for x and for c
    indicator = (ctx.trace_x2_plus_x == 0).reshape((p,) * ctx.m)
    spectrum = np.fft.fftn(indicator).real
    # y*c scales every digit of c by y, the same permutation on every axis;
    # Re F(-c) = Re F(c) pairs y with p - y, and F(0*c) = F(0) for every c
    total = np.full(spectrum.shape, spectrum.flat[0])
    for y in range(1, (p + 1) // 2):
        perm = np.arange(p) * y % p
        total += 2 * spectrum[np.ix_(*[perm] * ctx.m)]
    counts = total.reshape(q) / p
    rounded = np.rint(counts)
    residual = float(np.abs(counts - rounded).max())
    if not residual < 0.25:
        raise InexactTransform(f"transform counts for p^m = {q} are off an integer "
                               f"by {residual:.3g} (bound 1/4)")
    return rounded.astype(np.int64)[ctx.trace_dual(np.arange(q))]


def distribution_from_Nb(ds: DefiningSet, nb: np.ndarray) -> WeightDistribution:
    """The distribution of wt(c_b) = n0 - N_b over every b, with c_0 the zero word."""
    weights = ds.n0 - nb
    weights[0] = 0
    return WeightDistribution.from_weights(weights)


def transform_weight_distribution(ds: DefiningSet) -> WeightDistribution:
    """Exact distribution over all p^m codewords from one DFT over F_p^m (`transform_Nb`)."""
    return distribution_from_Nb(ds, transform_Nb(ds))


def power_moment_check(dist: WeightDistribution, p: int, m: int, n: int) -> tuple[bool, bool]:
    """First two power-moment identities for a code whose dual distance exceeds 1."""
    s0 = sum(a for w, a in dist.entries.items() if w != 0)
    s1 = sum(w * a for w, a in dist.entries.items())
    return s0 == p ** m - 1, s1 == p ** (m - 1) * (p - 1) * n


def dual_distance_two(ds: DefiningSet) -> bool:
    """True iff two coordinates of D are F_p*-proportional.

    0 is never in D, so the dual code has no weight-1 word; a proportional
    pair d_i = lambda * d_j is exactly a weight-2 dual word, which decides
    whether the dual minimum distance equals 2.
    """
    ctx = ds.ctx
    if ds.n < 2:
        return False
    # the smallest index of each F_p*-orbit names the orbit
    reps = ds.elements
    for lam in range(2, ctx.p):
        reps = np.minimum(reps, ctx.scale(ds.elements, lam))
    return int(np.unique(reps).size) < ds.n


def secret_sharing_ratio(dist: WeightDistribution, p: int) -> tuple[int, int, bool]:
    """(w_min, w_max, w_min/w_max > (p-1)/p), compared by cross-multiplication."""
    nz = dist.nonzero_weights()
    if not nz:
        raise EmptyDistribution("distribution has no nonzero weight")
    wmin, wmax = min(nz), max(nz)
    return wmin, wmax, wmin * p > wmax * (p - 1)


def weight_enumerator_string(dist: WeightDistribution) -> str:
    """Canonical ascending form, e.g. '1+44x^18+30x^21+6x^24'."""
    parts = [str(a) if w == 0 else f"{a}x^{w}" for w, a in dist.items()]
    return "+".join(parts)


def export_defining_set(ds: DefiningSet) -> str:
    """One element per line as 'c0,c1,...,c_(m-1)', low-degree coefficient first."""
    lines = (",".join(str(c) for c in ds.ctx.element_digits(int(x))) for x in ds.elements)
    return "\n".join(lines) + "\n"


def distribution_csv(dist: WeightDistribution) -> str:
    rows = [f"{w},{a}" for w, a in dist.items()]
    return "\n".join(["weight,multiplicity"] + rows) + "\n"


@dataclass
class LemmaCheck:
    """One closed-form value compared against its brute-force oracle."""

    id: str
    params: dict
    closed: object
    oracle: object
    match: bool


@dataclass
class VerifyReport:
    """Structured comparison of brute force against the closed-form prediction."""

    p: int
    m: int
    case: str
    theorem: int
    n_bruteforce: int | None
    n_predicted: int
    distribution_bruteforce: WeightDistribution | None
    distribution_predicted: WeightDistribution
    match: bool | None
    moment_checks: tuple[bool, bool] | None
    dual_distance_two: bool | None
    ss_ratio: tuple[int, int, bool] | None
    lemma_checks: list[LemmaCheck] = dataclass_field(default_factory=list)
    runtime_ms: int = 0
    outside_theorem_hypothesis: bool = False
    passed: bool = True
