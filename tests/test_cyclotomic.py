"""Exact cyclotomic arithmetic and Gauss-sum tests."""

import numpy as np
import pytest

from defset.cyclotomic import (ClosedGauss, CycInt, cyc_root, embed_complex,
                               gauss_closed, gauss_sum_exact)
from defset.errors import PrimeMismatch
from defset.fields import field


def test_cyc_root_of_one_uses_relation():
    # 1 = -(zeta + ... + zeta^(p-1)) in canonical form
    one = cyc_root(5, 0)
    assert one.coeffs == (0, -1, -1, -1, -1)
    assert one == CycInt.from_int(5, 1)


def test_cyc_root_basic():
    z = cyc_root(3, 1)
    assert z.coeffs == (0, 1, 0)
    with pytest.raises(ValueError):
        cyc_root(3, 3)


def test_roots_sum_to_zero():
    for p in (3, 5, 7, 11):
        total = CycInt.zero(p)
        for t in range(p):
            total = total + cyc_root(p, t)
        assert total == CycInt.zero(p)


def test_add_negation_cancels():
    x = CycInt(5, [2, -1, 7, 0, 3])
    assert x + -x == CycInt.zero(5)


def test_mul_exponents_add_mod_p():
    z1, z2 = cyc_root(3, 1), cyc_root(3, 2)
    assert z1 * z2 == CycInt.from_int(3, 1)


def test_prime_field_gauss_sum_squares_to_minus_three():
    gbar = cyc_root(3, 1) - cyc_root(3, 2)  # zeta - zeta^2
    assert gbar * gbar == CycInt.from_int(3, -3)


def test_scale_and_int_detection():
    x = CycInt.from_int(7, 3) * -4
    assert x.is_rational_int() and x.to_int() == -12
    z = cyc_root(7, 2)
    assert not z.is_rational_int()
    with pytest.raises(ValueError):
        z.to_int()


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        cyc_root(3, 1) + cyc_root(5, 1)
    with pytest.raises(PrimeMismatch):
        cyc_root(3, 1) * cyc_root(5, 1)


def test_gauss_sum_exact_f3():
    g = gauss_sum_exact(field(3, 1))
    assert g == cyc_root(3, 1) - cyc_root(3, 2)


def test_gauss_sum_exact_f5_square():
    g = gauss_sum_exact(field(5, 1))
    assert g * g == CycInt.from_int(5, 5)


def test_gauss_sum_exact_f9_is_three():
    assert gauss_sum_exact(field(3, 2)) == CycInt.from_int(3, 3)


@pytest.mark.parametrize("p,m,unit,k", [
    (3, 1, 1j, 1),
    (5, 1, 1, 1),
    (3, 2, 1, 2),
])
def test_gauss_closed_examples(p, m, unit, k):
    closed = gauss_closed(p, m)
    assert closed.unit == unit
    assert closed.half_exponent == k


def test_closed_gauss_rendering():
    assert str(gauss_closed(3, 2)) == "+3"
    assert str(gauss_closed(3, 1)) == "+i*sqrt(3)"
    assert str(gauss_closed(5, 1)) == "+sqrt(5)"


def test_embed_zero():
    assert embed_complex(CycInt.zero(5)) == 0


def test_embed_gauss_examples():
    g3 = embed_complex(gauss_sum_exact(field(3, 1)))
    assert abs(g3 - 1.7320508075688772j) < 1e-12
    g9 = embed_complex(gauss_sum_exact(field(3, 2)))
    assert abs(g9 - 3.0) < 1e-12


def test_canonicalization_soundness():
    # adding a constant to all coordinates is the defining relation
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = int(rng.choice([3, 5, 7]))
        coeffs = rng.integers(-20, 20, size=p)
        shift = int(rng.integers(-9, 9))
        a = CycInt(p, coeffs)
        b = CycInt(p, coeffs + shift)
        assert a == b
        assert abs(embed_complex(a) - embed_complex(b)) < 1e-9


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (11, 1), (13, 1)])
def test_gauss_square_identity_exact(p, m):
    ctx = field(p, m)
    g = gauss_sum_exact(ctx)
    eta_minus_one = 1 if ((ctx.q - 1) // 2) % 2 == 0 else -1
    assert g * g == CycInt.from_int(p, eta_minus_one * ctx.q)


@pytest.mark.parametrize("p,m", [(3, 1), (3, 2), (3, 3), (5, 2), (7, 1), (11, 1), (13, 2)])
def test_gauss_closed_agrees_with_exact_embedding(p, m):
    ctx = field(p, m)
    diff = abs(embed_complex(gauss_sum_exact(ctx)) - gauss_closed(p, m).value())
    assert diff < 1e-9 * p ** (m / 2)


def test_additive_character_orthogonality():
    # sum over x of zeta^tr(b*x) is q for b = 0 and 0 otherwise
    for p, m in [(3, 2), (5, 2), (3, 3)]:
        ctx = field(p, m)
        for b in range(ctx.q):
            char_sum = CycInt(p, np.bincount(ctx.trace_mul_all(b), minlength=p))
            assert char_sum == (CycInt.from_int(p, ctx.q) if b == 0 else CycInt.zero(p))


def _quad_char_table(ctx):
    # eta is 1 on the squares {y^2 : y != 0}, -1 on the other units and 0 at 0
    qc = np.full(ctx.q, -1, dtype=np.int8)
    qc[[ctx.square(y) for y in range(1, ctx.q)]] = 1
    qc[0] = 0
    return qc


def test_quad_char_table_matches_scalar():
    ctx = field(7, 2)
    table = _quad_char_table(ctx)
    assert all(int(table[x]) == ctx.quad_char(x) for x in range(ctx.q))


def _gauss_by_definition(ctx):
    # sum over x != 0 of eta(x) * zeta^tr(x)
    eta = _quad_char_table(ctx)[1:]
    tr = ctx.trace_table[1:]
    plus = np.bincount(tr[eta == 1], minlength=ctx.p)
    minus = np.bincount(tr[eta == -1], minlength=ctx.p)
    return CycInt(ctx.p, plus - minus)


@pytest.mark.parametrize("p,m", [(p, m) for p in (3, 5, 7, 11, 13) for m in (1, 2, 3)
                                 if p ** m <= 20_000]
                         + [(3, 4), (3, 5), (3, 6), (3, 8), (5, 4), (5, 5), (7, 4)])
def test_gauss_sum_exact_matches_definition(p, m):
    ctx = field(p, m)
    assert gauss_sum_exact(ctx) == _gauss_by_definition(ctx)


def test_closed_gauss_value():
    cg = ClosedGauss(3, -1j, 3)
    assert abs(cg.value() - (-1j * 27 ** 0.5)) < 1e-12
