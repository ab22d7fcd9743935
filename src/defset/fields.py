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

from .errors import DegreeTooSmall, FieldTooLarge, NotOddPrime

DEFAULT_MAX_Q = 20_000


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1}; p must be an odd prime."""
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"p={p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --- polynomial arithmetic over F_p -----------------------------------------
# Polynomials are lists of ints in [0, p), constant term first, no trailing
# zeros; [] is the zero polynomial.  Moduli are monic.

def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _rem(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    a = list(a)
    deg = len(f) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(deg):
                a[i - deg + j] = (a[i - deg + j] - c * f[j]) % p
    return _trim(a)


def _mulmod(a: Sequence[int], b: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _rem(out, f, p)


def _powmod(a: Sequence[int], e: int, f: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _rem([c % p for c in a], f, p)
    while e:
        if e & 1:
            result = _mulmod(result, base, f, p)
        base = _mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = _trim([c % p for c in a])
    b = _trim([c % p for c in b])
    while b:
        inv_lead = pow(b[-1], p - 2, p)
        monic = [c * inv_lead % p for c in b]
        a, b = b, _rem(a, monic, p)
    return a


def _poly_sub(u: Sequence[int], v: Sequence[int], p: int) -> list[int]:
    n = max(len(u), len(v))
    return _trim([((u[i] if i < len(u) else 0) - (v[i] if i < len(v) else 0)) % p
                  for i in range(n)])


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic polynomial over F_p (constant term first)."""
    f = _trim([c % p for c in coeffs])
    if len(f) < 2 or f[-1] != 1:
        return False
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    frob = {}
    cur = x
    for k in range(1, m + 1):
        cur = _powmod(cur, p, f, p)
        frob[k] = cur
    if _poly_sub(frob[m], x, p):
        return False
    for r in _prime_factors(m):
        if len(_poly_gcd(_poly_sub(frob[m // r], x, p), f, p)) != 1:
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
        # a root a gives the factor x - a, a proper factor once m >= 2; the
        # root test is much cheaper than Rabin's and rejects most candidates
        if m >= 2 and _has_root(coeffs, p):
            continue
        if is_irreducible(coeffs, p):
            yield coeffs


def _check_size(p: int, m: int, max_q: int) -> int:
    """q = p^m, after checking that p is an odd prime, m >= 1 and q <= max_q."""
    if p == 2 or not is_prime(p):
        raise NotOddPrime(f"p={p} is not an odd prime")
    if m < 1:
        raise DegreeTooSmall(f"extension degree m={m} must be >= 1")
    q = p ** m
    if q > max_q:
        raise FieldTooLarge(f"p^m = {q} exceeds the cap {max_q}")
    return q


class FieldCtx:
    """A concrete realization of F_(p^m).

    The checks read the field through forms on the digit vector of an index.
    With t_k = tr(alpha^k), the trace of the k-th power of the modulus's
    companion matrix, tr(x) = sum x_i t_i, tr(x^2) is the quadratic form with
    Q_ij = t_(i+j), and tr(b*x) is bilinear in the digits of b and x.  The
    log/antilog tables of a fixed generator serve only the scalar
    multiplicative API and the brute-force kernels, and are built on first use.
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

        self._pows = p ** np.arange(m, dtype=np.int64)
        # row x holds the digits of index x; each digit column is contiguous
        self._digits = np.indices((p,) * m, dtype=np.int16).reshape(m, q)[::-1].T

        # multiplication by alpha on coefficient vectors, and its powers C^k, k < 2m-1
        comp = np.eye(m, k=-1, dtype=np.int64)
        comp[:, -1] = np.negative(self.modulus[:m]) % p
        self._comp_pows = [np.eye(m, dtype=np.int64)]
        for _ in range(2 * m - 2):
            self._comp_pows.append(comp @ self._comp_pows[-1] % p)
        t = np.array([np.trace(c) % p for c in self._comp_pows], dtype=np.int64)
        self._trace_form = t[np.add.outer(np.arange(m), np.arange(m))]

        self.trace_table = self._mod_p(self._linear_form(t[:m]))
        assert self.trace_table[0] == 0
        assert self.trace_table[1] == m % p

    # -- digit forms ------------------------------------------------------------

    def _linear_form(self, c: np.ndarray) -> np.ndarray:
        """sum_i c_i * x_i for every index x, unreduced, one digit column at a time."""
        acc = np.zeros(self.q, dtype=np.int64)
        for ci, col in zip(np.asarray(c, dtype=np.int64), self._digits.T):
            if ci:
                acc += ci * col
        return acc

    def _mod_p(self, values: np.ndarray) -> np.ndarray:
        return (values % self.p).astype(np.int16)

    # -- multiplicative tables, built on first use ------------------------------

    @cached_property
    def generator(self) -> int:
        """The smallest canonical index of multiplicative order q-1."""
        q1 = self.q - 1
        exps = [q1 // r for r in _prime_factors(q1)]
        f = list(self.modulus)
        for g in range(2, self.q):
            poly = list(self.element_digits(g))
            if all(self.element_from_digits(_powmod(poly, e, f, self.p)) != 1 for e in exps):
                return g
        raise AssertionError("no multiplicative generator found")

    @cached_property
    def antilog(self) -> np.ndarray:
        """g^k for k = 0 .. q-2, built by doubling: block [n, 2n) is g^n times block [0, n)."""
        p, m, q1 = self.p, self.m, self.q - 1
        g = self._digits[self.generator].astype(np.int64)
        step = sum(gi * c for gi, c in zip(g, self._comp_pows)) % p
        cols = np.zeros((m, 1), dtype=np.int64)
        cols[0, 0] = 1
        while cols.shape[1] < q1:
            n = cols.shape[1]
            cols = np.hstack([cols, step @ cols[:, :q1 - n] % p])
            step = step @ step % p
        return self._pows @ cols

    @cached_property
    def log(self) -> np.ndarray:
        """log_g(x) for every index x; -1 at 0."""
        log = np.full(self.q, -1, dtype=np.int64)
        log[self.antilog] = np.arange(self.q - 1, dtype=np.int64)
        assert (log[1:] >= 0).all(), "antilog table is not a permutation of F_q*"
        return log

    # -- scalar arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.element_from_digits((self._digits[a] + self._digits[b]).tolist())

    def sub(self, a: int, b: int) -> int:
        return self.element_from_digits((self._digits[a] - self._digits[b]).tolist())

    def neg(self, a: int) -> int:
        return self.element_from_digits((-self._digits[a]).tolist())

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.antilog[(self.log[a] + self.log[b]) % (self.q - 1)])

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_q")
        return int(self.antilog[(-self.log[a]) % (self.q - 1)])

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power in F_q")
            return 0
        return int(self.antilog[(int(self.log[a]) * e) % (self.q - 1)])

    def trace(self, x: int) -> int:
        """Absolute trace Tr(x) = x + x^p + ... + x^(p^(m-1)), as a value in [0, p)."""
        return int(self.trace_table[x])

    def quad_char(self, x: int) -> int:
        """Quadratic character: 0 at 0, else x^((q-1)/2) mapped onto {+1, -1}."""
        if x == 0:
            return 0
        h = self.pow(x, (self.q - 1) // 2)
        if h == 1:
            return 1
        assert h == self.p - 1
        return -1

    def element_digits(self, x: int) -> tuple[int, ...]:
        """Coefficient vector of x, constant term first, length m."""
        return tuple(self._digits[x].tolist())

    def element_from_digits(self, digits: Sequence[int]) -> int:
        return sum((c % self.p) * self.p ** i for i, c in enumerate(digits))

    # -- vectorized kernels ---------------------------------------------------

    def scale(self, xs: np.ndarray, c: int) -> np.ndarray:
        """c * x for every index in xs and a prime-field scalar c: each digit scales by c."""
        return (c * self._digits[xs].astype(np.int64) % self.p) @ self._pows

    @cached_property
    def trace_x2(self) -> np.ndarray:
        """tr(x^2) = sum_ij Q_ij x_i x_j for every index x."""
        acc = np.zeros(self.q, dtype=np.int64)
        for i, col in enumerate(self._digits.T):
            # x_i * (Q_ii x_i + 2 sum_(j>i) Q_ij x_j) counts each pair i < j once
            row = self._trace_form[i].copy()
            row[:i] = 0
            row[i + 1:] *= 2
            acc += col * (self._linear_form(row) % self.p)
        return self._mod_p(acc)

    @cached_property
    def trace_x2_plus_x(self) -> np.ndarray:
        """tr(x^2 + x) for every index x (trace is additive)."""
        return self._mod_p(self.trace_x2.astype(np.int64) + self.trace_table)

    def trace_mul_all(self, b: int) -> np.ndarray:
        """tr(b*x) = sum_ij Q_ij b_i x_j for every index x, as one array."""
        return self._mod_p(self._linear_form(self._digits[b] @ self._trace_form))

    def trace_dual(self, bs: np.ndarray) -> np.ndarray:
        """Index of c(b) = Q*digits(b) for every b in bs, so tr(b*x) = sum_j c(b)_j x_j."""
        return (self._digits[bs] @ self._trace_form % self.p) @ self._pows

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
