"""Defining-set code construction and exact weight-distribution enumeration.

The defining set is D = {x in F_q* : tr(x^2 + x) = 0} = {d_1 < d_2 < ...};
the code consists of the words c_b = (tr(b*d_1), ..., tr(b*d_n)) over F_p for
b ranging over F_q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .errors import EmptyDistribution, FieldTooLarge
from .fields import FieldCtx, is_prime


class DefiningSet:
    """D with its coordinates fixed in ascending canonical-index order.

    DefiningSet(ctx) is D of ctx: n = |D| is counted on the tr(x^2 + x) table,
    and `elements`, D's index array, is built on first read.  Only `build`'s
    export, `dimension`, `trace_basis` and the brute-force reference read it,
    so `verify` lists no D.  DefiningSet(ctx, elements) takes a given index array.
    `nc` and `weight_distribution` are likewise computed on first read.
    """

    def __init__(self, ctx: FieldCtx, elements: np.ndarray | None = None):
        self.ctx = ctx
        if elements is None:
            # x = 0 is always in D0 = {x : tr(x^2 + x) = 0}, and D is D0 without it
            self.n = int(np.count_nonzero(ctx.trace_x2_plus_x == 0)) - 1
        else:
            self.elements = elements
            self.n = int(elements.size)

    @cached_property
    def elements(self) -> np.ndarray:
        # flatnonzero lists D0 in int64, and x = 0 is its first index
        return np.flatnonzero(self.ctx.trace_x2_plus_x == 0)[1:]

    @cached_property
    def nc(self) -> np.ndarray:
        return transform_Nc(self)

    @cached_property
    def weight_distribution(self) -> WeightDistribution:
        """Exact distribution over all p^m codewords from one DFT over F_p^m (`transform_Nc`)."""
        return distribution_from_Nb(self, self.nc)

    @property
    def n0(self) -> int:
        """|D| + 1: the count of all x in F_q with tr(x^2 + x) = 0 (x = 0 included)."""
        return self.n + 1

    @cached_property
    def trace_basis(self) -> np.ndarray:
        """T[i, j] = tr(alpha^i * d_j) from the trace table: tr(b*d_j) = sum_i b_i T[i, j] mod p."""
        return self.ctx.trace_table[self.ctx.basis_multiples(self.elements)]

    @property
    def dimension(self) -> int:
        """k of C_D: the F_p-rank of D's digit vectors.

        b -> c_b is F_p-linear with the trace dual of span(D) as its kernel.  The
        rows are eliminated in strided blocks of about 64, so the first block is
        an even sample of D, and the elimination stops once the rank is m.
        """
        p, m = self.ctx.p, self.ctx.m
        stride = -(-self.n // 64)
        pivots: list[tuple[int, np.ndarray]] = []  # (column, row: 1 there, 0 at earlier pivots)
        for start in range(stride):
            x = self.ctx.element_digits(self.elements[start::stride])
            for c, v in pivots:
                x = (x - x[:, c, None] * v) % p
            for c in range(m):
                nz = np.flatnonzero(x[:, c])
                if nz.size:
                    v = x[nz[0]] * pow(int(x[nz[0], c]), -1, p) % p
                    x = (x - x[:, c, None] * v) % p
                    pivots.append((c, v))
            if len(pivots) == m:
                break
        return len(pivots)


def defining_set(ctx: FieldCtx) -> DefiningSet:
    """D of ctx as a count; its index array is built when `elements` is first read."""
    return DefiningSet(ctx)


def codeword(ds: DefiningSet, b: int) -> np.ndarray:
    """c_b over F_p, coordinate i equal to tr(b * d_i) = digits(b) . T[:, i]."""
    return ds.ctx.element_digits(b) @ ds.trace_basis % ds.ctx.p


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


def brute_weight_distribution(ds: DefiningSet) -> WeightDistribution:
    """Exact distribution over all p^m codewords: every coordinate of every c_b, as the
    rows of digits(b) @ T mod p (`codeword`) for blocks of about 2^21 products."""
    ctx = ds.ctx
    # float64 is exact: each coordinate sums m products of a digit and a T entry,
    # both below p, so it is an integer below m*p^2 < 2^53 for every enumerable field
    basis = ds.trace_basis.astype(np.float64)
    block = max(1, 2 ** 21 // (ds.n * ctx.m))
    weights = np.empty(ctx.q, dtype=np.int64)
    for start in range(0, ctx.q, block):
        b = np.arange(start, min(start + block, ctx.q))
        words = ctx.element_digits(b).astype(np.float64) @ basis
        weights[b] = np.count_nonzero(words != np.floor(words / ctx.p) * ctx.p, axis=1)
    return WeightDistribution.from_weights(weights)


def dft_prime(p: int, n0: int) -> int:
    """The smallest prime l = 1 (mod p) above p*n0, if p*l^2 < 2^53 keeps float64 sums exact."""
    ell = next(filter(is_prime, itertools.count(p * n0 + 1, p)))
    if p * ell * ell >= 2 ** 53:
        raise FieldTooLarge(f"the exact transform needs p*l^2 < 2^53, but p={p} and l={ell}")
    return ell


def transform_Nc(ds: DefiningSet) -> np.ndarray:
    """N_c = |{x in D0 : sum_j c_j x_j = 0}| for every digit vector c, indexed like x.

    D0 = {x : tr(x^2 + x) = 0} includes x = 0.  The characters of F_p sum to
    p at 0 and to 0 elsewhere (MacWilliams & Sloane, ch. 5), so
    p*N_c = n0 + F(c), with F the DFT of f(x) = |{y in F_p* : y*x in D0}|:
    y*x is in D0 iff y*tr(x^2) + tr(x) = 0, so f(x) is p - 1 where
    tr(x^2) = tr(x) = 0, 1 where neither vanishes, and 0 elsewhere.  As
    tr(b*x) = <c(b), x> (`FieldCtx.trace_dual`), N_b = N_(c(b)), and b -> c(b)
    is a permutation that fixes 0.  n0 + F(c) = p*N_c in [0, p*n0] is its own
    residue mod l > p*n0: the DFT over F_l, omega of order p for zeta (Pollard 1971).
    """
    ctx = ds.ctx
    p, q, n0 = ctx.p, ctx.q, ds.n0
    if ctx.m == 1:  # the kernel of c != 0 is {0}; a p x p W is never built
        return np.where(np.arange(q) == 0, n0, 1)
    ell = dft_prime(p, n0)
    omega = next(w for w in (pow(g, (ell - 1) // p, ell) for g in range(2, ell)) if w != 1)
    powers = np.array([pow(omega, k, ell) for k in range(p)], dtype=np.float64)
    w = powers[np.multiply.outer(np.arange(p), np.arange(p)) % p]
    z2, z1 = ctx.trace_x2 == 0, ctx.trace_table == 0
    spectrum = np.where(z2 & z1, p - 1.0, (~z2 & ~z1).astype(np.float64))
    # one axis per pass on contiguous rows: the DFT runs over the lowest digit,
    # and the transpose moves that digit to the top, so m passes restore index order
    for _ in range(ctx.m):
        spectrum = spectrum.reshape(q // p, p) @ w
        spectrum = (spectrum - np.floor(spectrum / ell) * ell).T
    return (n0 + spectrum.reshape(q).astype(np.int64)) % ell // p


def distribution_from_Nb(ds: DefiningSet, nb: np.ndarray) -> WeightDistribution:
    """Distribution of wt(c_b) = n0 - N_b, with c_0 the zero word; nb is indexed by b or c(b)."""
    weights = ds.n0 - nb
    weights[0] = 0
    return WeightDistribution.from_weights(weights)


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
    digits = ds.ctx.element_digits(ds.elements)
    line = ",".join(["%d"] * ds.ctx.m) + "\n"
    return (line * ds.n) % tuple(digits.ravel().tolist())


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


@dataclass(frozen=True, eq=False)
class ClassChecks:
    """Checks as columns: the lemma-9 and N_b checks of every realized (tr b^2, tr b)
    class, or the one check of lemma 10, 16 or 17 at each value of its param.

    `params` maps each param name to its column, in the order a row lists them;
    class k's params are the k-th entries.  closed[k] and oracle[k] are its
    len(ids) values, (B, N_b) or one, and entry j is its row with id ids[j].  A row
    is a LemmaCheck built when it is read.
    """

    ids: tuple[str, ...]
    params: dict[str, np.ndarray]
    closed: np.ndarray
    oracle: np.ndarray

    @property
    def match(self) -> np.ndarray:
        return self.closed == self.oracle

    def __len__(self) -> int:
        return self.closed.size

    def _rows(self, at: np.ndarray):
        """The rows at positions `at`: row len(ids)·k + j is entry j of class k."""
        k, j = np.divmod(at, len(self.ids))
        params = zip(*(col[k].tolist() for col in self.params.values()))
        for entry, values, c, o, ok in zip(j.tolist(), params, *(col.tolist() for col in (
                self.closed[k, j], self.oracle[k, j], self.match[k, j]))):
            yield LemmaCheck(self.ids[entry], dict(zip(self.params, values)), c, o, ok)

    def __iter__(self):
        return self._rows(np.arange(len(self)))

    def mismatches(self) -> list[LemmaCheck]:
        return list(self._rows(np.flatnonzero(~self.match)))


class LemmaChecks:
    """A report's checks in order, from parts that are LemmaCheck lists or ClassChecks.

    Read-only; it iterates, counts its rows and mismatches, and compares equal
    to a list of LemmaCheck like the list of its rows, but builds a ClassChecks
    row only when one is read.
    """

    def __init__(self, parts=()):
        self.parts = tuple(parts)

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def __iter__(self):
        return itertools.chain.from_iterable(self.parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (LemmaChecks, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other: LemmaChecks) -> LemmaChecks:
        return LemmaChecks(self.parts + other.parts)

    def all_match(self) -> bool:
        return all(part.match.all() if isinstance(part, ClassChecks) else
                   all(c.match for c in part) for part in self.parts)

    def mismatches(self) -> list[LemmaCheck]:
        """The rows that do not match, in order; of a ClassChecks, only those are built."""
        return [c for part in self.parts for c in
                (part.mismatches() if isinstance(part, ClassChecks) else
                 [c for c in part if not c.match])]


@dataclass
class VerifyReport:
    """Structured comparison of the enumerated code against the closed-form prediction.

    `n_bruteforce` and `distribution_bruteforce` hold the enumeration by `transform_Nc`;
    the names match the report's JSON and CSV keys, which stay for byte stability.
    A list of LemmaCheck given as `lemma_checks` becomes a one-part LemmaChecks.
    The field of a check family that did not run stays None (`lemma_checks` empty).
    """

    p: int
    m: int
    case: str
    theorem: int
    n_bruteforce: int | None
    n_predicted: int
    distribution_bruteforce: WeightDistribution | None
    distribution_predicted: WeightDistribution
    match: bool | None = None
    moment_checks: tuple[bool, bool] | None = None
    dual_distance_two: bool | None = None
    ss_ratio: tuple[int, int, bool] | None = None
    lemma_checks: LemmaChecks = dataclass_field(default_factory=LemmaChecks)
    runtime_ms: int = 0
    outside_theorem_hypothesis: bool = False
    passed: bool = True

    def __post_init__(self):
        if not isinstance(self.lemma_checks, LemmaChecks):
            self.lemma_checks = LemmaChecks([list(self.lemma_checks)])
