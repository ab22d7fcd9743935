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
        present = np.flatnonzero(counts)
        return cls(dict(zip(present.tolist(), counts[present].tolist())))

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


def transform_Nc(ds: DefiningSet) -> np.ndarray:
    """N_c = |{x in D0 : sum_j c_j x_j = 0}| for every digit vector c, indexed like x.

    D0 = {x : tr(x^2 + x) = 0} includes x = 0.  The characters of F_p sum to
    p at 0 and to 0 elsewhere (MacWilliams & Sloane, ch. 5), so
    p*N_c = n0 + sum_(y != 0) sum_(x in D0) zeta^(<c, y*x>), and the sum over
    y is the DFT at c of f(x) = |{y in F_p* : y*x in D0}|.  For y != 0,
    y*x is in D0 iff y*tr(x^2) + tr(x) = 0, so f(x) is p - 1 where
    tr(x^2) = tr(x) = 0, 1 where neither vanishes, and 0 elsewhere.  As
    tr(b*x) = <c(b), x> (`FieldCtx.trace_dual`), N_b = N_(c(b)), and b -> c(b)
    is a permutation that fixes 0.  The float counts are rounded only once
    every residual is checked below 1/4.
    """
    ctx = ds.ctx
    p, q = ctx.p, ctx.q
    z2, z1 = ctx.trace_x2 == 0, ctx.trace_table == 0
    spectrum = np.where(z2 & z1, p - 1.0, (~z2 & ~z1).astype(np.float64))
    # one axis per pass on contiguous rows: the FFT runs over the lowest digit,
    # and the transpose moves that digit to the top, so m passes restore index order
    for _ in range(ctx.m):
        spectrum = np.fft.fft(spectrum.reshape(q // p, p), axis=1).T
    counts = (ds.n0 + spectrum.real.reshape(q)) / p
    rounded = np.rint(counts)
    residual = float(np.abs(counts - rounded).max())
    if not residual < 0.25:
        raise InexactTransform(f"transform counts for p^m = {q} are off an integer "
                               f"by {residual:.3g} (bound 1/4)")
    return rounded.astype(np.int64)


def distribution_from_Nb(ds: DefiningSet, nb: np.ndarray) -> WeightDistribution:
    """Distribution of wt(c_b) = n0 - N_b, with c_0 the zero word; nb is indexed by b or c(b)."""
    weights = ds.n0 - nb
    weights[0] = 0
    return WeightDistribution.from_weights(weights)


def transform_weight_distribution(ds: DefiningSet) -> WeightDistribution:
    """Exact distribution over all p^m codewords from one DFT over F_p^m (`transform_Nc`)."""
    return distribution_from_Nb(ds, transform_Nc(ds))


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
    # d and lambda*d in D with lambda != 0, 1 give (lambda^2 - lambda)*tr(d^2) = 0,
    # so tr(d^2) = tr(d) = 0; conversely every multiple of such a d != 0 is in D.
    # x = 0 is always one solution
    ctx = ds.ctx
    return int(np.count_nonzero((ctx.trace_x2 == 0) & (ctx.trace_table == 0))) > 1


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
    """Structured comparison of the enumerated code against the closed-form prediction.

    `n_bruteforce` and `distribution_bruteforce` hold the enumeration by `transform_Nc`;
    the names match the report's JSON and CSV keys, which stay for byte stability.
    """

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
