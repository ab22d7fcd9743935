"""Exact arithmetic in Z[zeta_p] and closed forms for quadratic Gauss sums.

Character sums are accumulated as integer coefficient vectors on the powers
of a primitive p-th root of unity, so equality checks carry no floating-point
ambiguity.  A complex embedding is provided only for tolerance comparisons
against the closed forms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import PrimeMismatch
from .fields import FieldCtx, require_odd_prime


class CycInt:
    """Element of Z[zeta_p] for an odd prime p.

    Coefficients index the powers zeta^0 .. zeta^(p-1).  The stored form is
    canonical with coeffs[0] == 0, obtained by subtracting coeffs[0] from all
    coordinates (valid because 1 + zeta + ... + zeta^(p-1) = 0), so two values
    are equal iff their coefficient tuples are equal.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = [int(c) for c in coeffs]
        if len(coeffs) != p:
            raise ValueError(f"need exactly {p} coefficients, got {len(coeffs)}")
        c0 = coeffs[0]
        self.p = p
        self.coeffs = tuple(c - c0 for c in coeffs)

    @classmethod
    def zero(cls, p: int) -> CycInt:
        return cls(p, [0] * p)

    @classmethod
    def from_int(cls, p: int, n: int) -> CycInt:
        return cls(p, [n] + [0] * (p - 1))

    def _check(self, other: CycInt) -> None:
        if self.p != other.p:
            raise PrimeMismatch(f"cannot combine Z[zeta_{self.p}] with Z[zeta_{other.p}]")

    def __add__(self, other: CycInt) -> CycInt:
        self._check(other)
        return CycInt(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: CycInt) -> CycInt:
        self._check(other)
        return CycInt(self.p, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> CycInt:
        return CycInt(self.p, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, [a * other for a in self.coeffs])
        if isinstance(other, CycInt):
            self._check(other)
            # sum|a|, sum|b| and their product bound each input, partial sum and result
            sa, sb = sum(map(abs, self.coeffs)), sum(map(abs, other.coeffs))
            dtype = np.int64 if max(sa, sb, sa * sb) < 2 ** 63 else object
            full = np.convolve(np.array(self.coeffs, dtype), np.array(other.coeffs, dtype))
            full[:self.p - 1] += full[self.p:]  # zeta^p = 1
            return CycInt(self.p, full[:self.p])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def is_rational_int(self) -> bool:
        tail = self.coeffs[1:]
        return all(c == tail[0] for c in tail)

    def to_int(self) -> int:
        """The value as a rational integer; raises if it is not one."""
        if not self.is_rational_int():
            raise ValueError(f"{self!r} is not a rational integer")
        return -self.coeffs[1]

    def __str__(self) -> str:
        if self.is_rational_int():
            return str(self.to_int())
        parts = []
        for j, c in enumerate(self.coeffs):
            if j == 0 or c == 0:
                continue
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}z^{j}" if j > 1 else f"{mag}z"
            parts.append(("-" if c < 0 else "+") + term)
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    def __repr__(self) -> str:
        return f"CycInt(p={self.p}, coeffs={list(self.coeffs)})"


def cyc_root(p: int, t: int) -> CycInt:
    """zeta_p^t as a canonical CycInt, 0 <= t < p."""
    if not 0 <= t < p:
        raise ValueError(f"exponent t={t} must lie in [0, {p})")
    coeffs = [0] * p
    coeffs[t] = 1
    return CycInt(p, coeffs)


def embed_complex(a: CycInt) -> complex:
    """Evaluate a with zeta_p = exp(2*pi*i/p) at double precision."""
    return sum(c * cmath.exp(2j * cmath.pi * j / a.p) for j, c in enumerate(a.coeffs) if c)


def gauss_sum_exact(ctx: FieldCtx) -> CycInt:
    """The quadratic Gauss sum G = sum over x != 0 of eta(x)*zeta_p^tr(x), exactly.

    Evaluated as sum over y in F_q of zeta_p^tr(y^2): an element x != 0 has
    1 + eta(x) square roots, and sum over x of zeta_p^tr(x) = 0, so the two
    sums agree (Lidl & Niederreiter, Finite Fields, Thm 5.33).  Its coefficients
    are `FieldCtx.trace_x2_counts`, the row sums of H for m >= 2.
    """
    return CycInt(ctx.p, ctx.trace_x2_counts)


@dataclass(frozen=True)
class ClosedGauss:
    """Closed form unit * p^(k/2) of a quadratic Gauss sum.

    For even k the value is the rational integer unit * p^(k/2); for odd k it
    is unit * p^((k-1)/2) * sqrt(p).
    """

    p: int
    unit: complex
    half_exponent: int

    def value(self) -> complex:
        return self.unit * self.p ** (self.half_exponent / 2)

    def __str__(self) -> str:
        k = self.half_exponent
        sign = "-" if self.unit in (-1, -1j) else "+"
        i_part = "i*" if self.unit in (1j, -1j) else ""
        whole = self.p ** (k // 2)
        if k % 2 == 0:
            return f"{sign}{i_part}{whole}"
        root = f"sqrt({self.p})"
        coeff = "" if whole == 1 else f"{whole}*"
        return f"{sign}{i_part}{coeff}{root}"


def gauss_closed(p: int, m: int = 1) -> ClosedGauss:
    """Closed form of the quadratic Gauss sum over F_(p^m).

    unit = (-1)^(m-1) * i^((p-1)^2 * m / 4), half_exponent = m; m = 1 gives
    the prime-field sum.
    """
    require_odd_prime(p)
    e = ((p - 1) ** 2 * m // 4) % 4
    unit = (1, 1j, -1, -1j)[e] * (-1) ** (m - 1)
    return ClosedGauss(p, unit, m)
