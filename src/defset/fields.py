"""Finite fields F_(p^m) for odd p: arithmetic, trace, quadratic character.

Elements are canonical indices in [0, q).  The base-p digits of an index are
the coefficients of the representative polynomial, constant term first, so
index 0 is zero, index 1 is one, and indices below p form the prime subfield.
"""

from __future__ import annotations

import functools
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import CaseMismatch, DegreeTooSmall, FieldTooLarge, NotOddPrime

DEFAULT_MAX_Q = 20_000


# a strong probable prime to these 13 bases is prime below MR_BOUND, and
# MR_BOUND itself is a composite that passes all 13 (Sorenson & Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over `MR_BASES`: a proof of primality for n < MR_BOUND."""
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_odd_prime(p: int) -> None:
    if p >= MR_BOUND:
        raise FieldTooLarge(f"p={p} is not below {MR_BOUND}, the bound up to which "
                            "primality is proved")
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"p={p} is not an odd prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1}; p must be an odd prime."""
    require_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# --- polynomial arithmetic over F_p -----------------------------------------
# Polynomials are lists of ints in [0, p), constant term first, no trailing zeros ([] is 0).
# Helpers take and return such lists; only `is_irreducible` and `FieldCtx(modulus=...)` reduce.

def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _rem(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    a = list(a)
    deg = len(f) - 1
    inv_lead = pow(f[-1], -1, p)  # f need not be monic
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i] * inv_lead % p
        if c:
            a[i] = 0
            for j in range(deg):
                a[i - deg + j] = (a[i - deg + j] - c * f[j]) % p
    return _trim(a)


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    while b:
        a, b = b, _rem(a, b, p)
    return a


def _poly_sub(u: Sequence[int], v: Sequence[int], p: int) -> list[int]:
    n = max(len(u), len(v))
    return _trim([((u[i] if i < len(u) else 0) - (v[i] if i < len(v) else 0)) % p
                  for i in range(n)])


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Ben-Or's test for a monic polynomial over F_p (constant term first).

    f of degree m is irreducible iff gcd(x^(p^i) - x, f) = 1 for every
    i <= m/2, since a reducible f has an irreducible factor of degree i <= m/2,
    which divides x^(p^i) - x.  The test stops at the smallest such i.  At
    i = 1 the gcd is 1 iff f has no root in F_p, which is much cheaper to test.
    Over F_p, g(x)^p = g(x^p): x^(p^i) is x^(p^(i-1)) spread p apart, reduced mod f.
    """
    f = _trim([c % p for c in coeffs])
    if len(f) < 2 or f[-1] != 1 or (len(f) > 2 and _has_root(f, p)):
        return False
    if len(f) < 5:  # a reducible f of degree m <= 3 has a linear factor, so a root
        return True
    x = frob = [0, 1]
    for i in range(1, (len(f) - 1) // 2 + 1):
        spread = [0] * ((len(frob) - 1) * p + 1)
        spread[::p] = frob
        frob = _rem(spread, f, p)
        if i > 1 and len(_poly_gcd(_poly_sub(frob, x, p), f, p)) != 1:
            return False
    return True


def _has_root(f: Sequence[int], p: int) -> bool:
    """True iff the polynomial f (constant term first) vanishes at some a in F_p."""
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def irreducible_polys(p: int, m: int) -> Iterator[list[int]]:
    """Yield monic irreducible degree-m polynomials over F_p in ascending order.

    Order: lexicographic on the coefficients below the leading 1, compared
    from the highest degree down.  The first yield is the canonical modulus.
    """
    for k in range(p ** m):
        coeffs = [(k // p ** i) % p for i in range(m)] + [1]
        if is_irreducible(coeffs, p):
            yield coeffs


def _power_sums(f: Sequence[int], p: int) -> list[int]:
    """t_k = tr(alpha^k) for k < 2m - 1, alpha a root of the monic irreducible f of degree
    m: the power sums of f's roots, by Newton's identities (Lidl & Niederreiter, ch. 1)."""
    m = len(f) - 1
    t = [m % p]
    for k in range(1, 2 * m - 1):
        acc = sum(f[m - j] * t[k - j] for j in range(1, min(k, m + 1)))
        t.append(-(acc + (k * f[m - k] if k <= m else 0)) % p)
    return t


def _mod(a: np.ndarray, p: int) -> np.ndarray:
    """a mod p in place, for a >= 0: numpy divides by a scalar several times
    faster than it takes a remainder."""
    a -= a // p * p
    return a


def _int_type(bound: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every integer in [0, bound]."""
    return np.dtype(next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max))


def _form_bound(p: int, m: int) -> int:
    """The largest value of sum_i lin_i x_i + sum_ij quad_ij x_i x_j over digits
    x_i in [0, p), with every coefficient in [0, p): all of them p - 1, at x = (p-1, ..., p-1)."""
    return m * (p - 1) ** 2 + m * m * (p - 1) ** 3


_COUNT_BLOCK = 2 ** 16  # `_bincount` counts a table up to this long in one call


def _bincount(values: np.ndarray, size: int) -> np.ndarray:
    """np.bincount(values, minlength=size) for values in [0, size), summed over slices of
    max(2^16, size) elements: bincount counts an int64 copy of its input, so the
    copy is one slice long, not a table long."""
    block = max(_COUNT_BLOCK, size)
    return sum(np.bincount(values[start:start + block], minlength=size)
               for start in range(0, values.size, block))


def _check_size(p: int, m: int, max_q: int) -> int:
    """q = p^m, after checking that m >= 1, p is an odd prime and q <= max_q.

    A p above max_q is over the cap whatever its primality, so it is refused
    without a primality test, and p^m is never built past max_q.  A field whose
    trace forms can sum past int64 on the digit grid (m = 1 and p above about
    2^21) is refused too.
    """
    if m < 1:
        raise DegreeTooSmall(f"extension degree m={m} must be >= 1")
    if p <= max_q:
        require_odd_prime(p)
    q = 1
    for _ in range(m):
        q *= p
        if q > max_q:
            raise FieldTooLarge(f"p^m = {p}^{m} exceeds the cap {max_q}")
    if _form_bound(p, m) > np.iinfo(np.int64).max:
        raise FieldTooLarge(f"p^m = {p}^{m}: its trace forms sum past int64 on the digit grid")
    return q


class FieldCtx:
    """A concrete realization of F_(p^m).

    The checks read the field through forms on the digit vector of an index.
    With t_k = tr(alpha^k), the k-th power sum of the modulus's roots
    (`_power_sums`), tr(x) = sum x_i t_i, tr(x^2) is the quadratic form with
    Q_ij = t_(i+j), and tr(b*x) is bilinear in the digits of b and x.  Every
    per-element table is one such form, built on the (p,)^m digit grid one
    digit at a time (`_grid_form`), so no q x m table of digits exists.  The
    grid sums each form unreduced, in the narrowest of int16, int32 and int64
    that holds its largest value m(p-1)^2 + m^2(p-1)^3, and reduces it mod p
    once, into a table of the narrowest of those types that holds p - 1.  x*y
    has the digits sum_i x_i C^i digits(y), C the companion matrix (Lidl &
    Niederreiter, Finite Fields, ch. 2), so no multiplicative table is built.

    Tables are built on first read.  A `verify` pass at m >= 2 builds tr(x),
    tr(x^2), the pair key and one histogram of it, H = `trace_pair_counts`;
    n, the tr(x^2) histogram and the dual check are read off H.
    """

    def __init__(self, p: int, m: int, max_q: int = DEFAULT_MAX_Q,
                 modulus: Sequence[int] | None = None):
        q = _check_size(p, m, max_q)
        self.p = p
        self.m = m
        self.q = q

        if modulus is None:
            modulus = next(irreducible_polys(p, m))
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != m + 1 or modulus[-1] != 1 or not is_irreducible(modulus, p):
                raise ValueError(f"modulus must be monic irreducible of degree {m} over F_{p}")
        self.modulus: tuple[int, ...] = tuple(modulus)

        # stored tables hold values in [0, p); the grid sums them unreduced
        self._dtype = _int_type(p - 1)
        self._work = _int_type(_form_bound(p, m))
        self._pows = p ** np.arange(m, dtype=np.int64)

        t = np.array(_power_sums(self.modulus, p), dtype=np.int64)
        self._trace_form = t[np.add.outer(np.arange(m), np.arange(m))]

        self.trace_table = self._grid_form(t[:m])
        assert self.trace_table[0] == 0
        assert self.trace_table[1] == m % p

    @cached_property
    def _comp_pows(self) -> np.ndarray:
        """C^k for k < m, C the companion matrix (multiplication by alpha on digit
        vectors), built on the first multiplication: the trace forms need none of it."""
        comp = np.eye(self.m, k=-1, dtype=np.int64)
        comp[:, -1] = np.negative(self.modulus[:-1]) % self.p
        pows = [np.eye(self.m, dtype=np.int64)]
        for _ in range(self.m - 1):
            pows.append(comp @ pows[-1] % self.p)
        return np.stack(pows)

    # -- digit forms ------------------------------------------------------------

    def _grid_form(self, lin: np.ndarray, quad: np.ndarray | None = None) -> np.ndarray:
        """sum_i lin_i x_i + sum_ij quad_ij x_i x_j mod p for every index x, in index order.

        quad is symmetric with entries in [0, p).  Step k extends the form from
        digits 0..k-1 to digits 0..k, with digit k on the new leading axis, so
        the flat array stays in index order; cross[j - k] carries
        sum_(i<k) 2 quad_ij x_i for each later digit j.  Nothing is reduced
        until the end: every partial sum is at most `_form_bound(p, m)`, so the
        sums run in the narrowest type that holds it, and one reduction mod p
        gives the table.
        """
        p, m, work = self.p, self.m, self._work
        v = np.arange(p, dtype=np.int64)
        vw = v.astype(work)
        lin = np.asarray(lin, dtype=np.int64) % p
        vals = np.zeros(1, dtype=work)
        cross = np.zeros((m, 1), dtype=work)
        for k in range(m):
            rows = vals + np.multiply.outer(vw, cross[0] + work.type(lin[k]))
            if quad is not None:
                rows += (quad[k, k] * v * v).astype(work)[:, None]
                later = np.multiply.outer(2 * quad[k, k + 1:], v).astype(work)
                cross = (cross[1:, None, :] + later[:, :, None]).reshape(m - k - 1, rows.size)
            vals = rows.reshape(-1)
        return _mod(vals, p).astype(self._dtype, copy=False)

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.element_from_digits(self.element_digits(a) + self.element_digits(b))

    def neg(self, a: int) -> int:
        return self.element_from_digits(-self.element_digits(a))

    def mul(self, a: int, b: int) -> int:
        # m^2 terms below p^3 each: int64 is exact for every field whose tables fit in memory
        return self.element_from_digits(np.einsum("i,ijk,k->j", self.element_digits(a),
                                                  self._comp_pows, self.element_digits(b)))

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply; e < 0 inverts, since a^(q-1) = 1 for a != 0."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 to a negative power in F_q")
            return 1 if e == 0 else 0
        result, e = 1, e % (self.q - 1)
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def trace(self, x: int) -> int:
        """Absolute trace Tr(x) = x + x^p + ... + x^(p^(m-1)), as a value in [0, p)."""
        return int(self.trace_table[x])

    def quad_char(self, x: int) -> int:
        """Quadratic character by Euler's criterion: eta(x) = x^((q-1)/2), 1 or -1, and 0 at 0."""
        if x == 0:
            return 0
        return 1 if self.pow(x, (self.q - 1) // 2) == 1 else -1

    def element_digits(self, x) -> np.ndarray:
        """Coefficient vector of an index x, constant term first, or of each index in an
        array x, on a new last axis of length m."""
        return np.asarray(x, dtype=np.int64)[..., None] // self._pows % self.p

    def element_from_digits(self, digits: Sequence[int]) -> int:
        return int(np.asarray(digits, dtype=np.int64) % self.p @ self._pows)

    def basis_multiples(self, x) -> np.ndarray:
        """alpha^i * x for i < m on a new first axis: C^i applied to the digits of each x."""
        prods = np.einsum("ijk,...k->i...j", self._comp_pows, self.element_digits(x))
        return prods % self.p @ self._pows

    # -- vectorized kernels ---------------------------------------------------

    @cached_property
    def trace_x2(self) -> np.ndarray:
        """tr(x^2) = sum_ij Q_ij x_i x_j for every index x."""
        return self._grid_form(np.zeros(self.m, np.int64), self._trace_form)

    @cached_property
    def trace_x2_counts(self) -> np.ndarray:
        """u[c] = |{x : tr(x^2) = c}| for every c in F_p: the row sums of
        `trace_pair_counts` for m >= 2.  At m = 1 that table would have p^2 > q
        cells, so tr(x^2) is counted directly, in blocks (`_bincount`)."""
        if self.m < 2:
            return _bincount(self.trace_x2, self.p)
        return self.trace_pair_counts.sum(axis=1)

    @cached_property
    def trace_x2_plus_x(self) -> np.ndarray:
        """tr(x^2 + x) for every index x (trace is additive).  Read to list D, to
        count n at m = 1 and by the reference kernels; `verify` builds none."""
        s = np.add(self.trace_x2, self.trace_table, dtype=self._work)
        return _mod(s, self.p).astype(self._dtype, copy=False)

    @cached_property
    def trace_pair_counts(self) -> np.ndarray:
        """H[s, t] = |{x : tr(x^2) = s, tr(x) = t}|, for m >= 2, where its p^2 cells are <= q;
        counted in blocks (`_bincount`), so no q-long int64 copy of the key is made."""
        if self.m < 2:
            raise CaseMismatch(f"the (tr x^2, tr x) table needs m >= 2, got m={self.m}")
        return _bincount(self.trace_pair_key, self.p ** 2).reshape(self.p, self.p)

    @cached_property
    def trace_pair_key(self) -> np.ndarray:
        """tr(x^2)*p + tr(x) for every index x, in the narrowest type that holds p^2 - 1."""
        key = self.trace_x2.astype(_int_type(self.p ** 2 - 1))
        key *= self.p
        key += self.trace_table
        return key

    def trace_mul_all(self, b: int) -> np.ndarray:
        """tr(b*x) = sum_ij Q_ij b_i x_j for every index x, as one array."""
        return self._grid_form(self.element_digits(b) @ self._trace_form)

    def trace_dual(self, b):
        """The index of c(b) = Q*digits(b), for an index b or an array of them.

        tr(b*x) = sum_j c(b)_j x_j, and Q is nondegenerate, so b -> c(b)
        permutes F_q and fixes 0.
        """
        c = self.element_digits(b) @ self._trace_form % self.p @ self._pows
        return int(c) if c.ndim == 0 else c

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, m={self.m}, modulus={list(self.modulus)})"


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, m: int) -> FieldCtx:
    return FieldCtx(p, m, max_q=p ** m)


def field(p: int, m: int, max_q: int = DEFAULT_MAX_Q) -> FieldCtx:
    """Shared cache of default-modulus fields (oracles, CLI and tests).

    The cache is keyed on (p, m): the cap is checked first, so a field built
    under one cap is reused under any other cap that admits it.
    """
    _check_size(p, m, max_q)
    return _cached_field(p, m)


field.cache_clear = _cached_field.cache_clear
field.cache_info = _cached_field.cache_info
