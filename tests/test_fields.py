"""Field construction, arithmetic, trace and character tests."""

import itertools

import numpy as np
import pytest

from defset.errors import DegreeTooSmall, FieldTooLarge, NotOddPrime
from defset.fields import (build_field, field, irreducible_polys, is_irreducible,
                           legendre)


def test_build_field_m1_modulus_is_x():
    ctx = build_field(5, 1)
    assert list(ctx.modulus) == [0, 1]
    assert ctx.q == 5


def test_build_field_f9_modulus():
    # -1 is a non-residue mod 3, so x^2 + 1 is the lex-smallest irreducible
    ctx = build_field(3, 2)
    assert list(ctx.modulus) == [1, 0, 1]


def test_build_field_cap():
    with pytest.raises(FieldTooLarge):
        build_field(3, 7, max_q=1000)


def test_field_cache_is_keyed_on_p_and_m():
    field.cache_clear()
    assert field(3, 5) is field(3, 5, 100_000)
    assert field.cache_info().misses == 1
    with pytest.raises(FieldTooLarge):
        field(3, 7, 1000)
    with pytest.raises(NotOddPrime):
        field(4, 20, 1000)


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_build_field_rejects_bad_characteristic(p):
    with pytest.raises(NotOddPrime):
        build_field(p, 2)


def test_build_field_rejects_degree_zero():
    with pytest.raises(DegreeTooSmall):
        build_field(3, 0)


def test_build_field_deterministic():
    a = build_field(3, 4)
    b = build_field(3, 4)
    assert a.modulus == b.modulus
    assert a.generator == b.generator
    assert np.array_equal(a.antilog, b.antilog)


def test_explicit_modulus_validated():
    with pytest.raises(ValueError):
        build_field(3, 2, modulus=[0, 0, 1])  # x^2 is reducible


def test_mul_by_zero_absorbs():
    ctx = field(3, 2)
    assert all(ctx.mul(0, x) == 0 for x in range(ctx.q))


def test_generator_has_full_order():
    for p, m in [(3, 1), (3, 2), (5, 2), (7, 1), (3, 3)]:
        ctx = field(p, m)
        assert ctx.pow(ctx.generator, ctx.q - 1) == 1
        for e in range(1, ctx.q - 1):
            assert ctx.pow(ctx.generator, e) != 1


def test_f9_square_of_alpha_is_minus_one():
    # modulus x^2 + 1 forces alpha^2 = -1; alpha is index 3, -1 is index 2
    ctx = field(3, 2)
    alpha = 3
    assert ctx.square(alpha) == 2
    assert ctx.neg(1) == 2


def test_inverse_and_division_by_zero():
    ctx = field(5, 2)
    for x in range(1, ctx.q):
        assert ctx.mul(x, ctx.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -1)


def test_pow_edge_cases():
    ctx = field(3, 2)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0
    g = ctx.generator
    assert ctx.pow(g, -1) == ctx.inv(g)


def test_trace_of_zero_and_one():
    for p, m in [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2), (3, 6)]:
        ctx = field(p, m)
        assert ctx.trace(0) == 0
        assert ctx.trace(1) == m % p


def test_trace_alpha_f9():
    # alpha^2 = -1 gives alpha^3 = -alpha, so tr(alpha) = alpha + alpha^3 = 0
    ctx = field(3, 2)
    assert ctx.trace(3) == 0


def _frobenius_trace(ctx, x):
    acc = 0
    for i in range(ctx.m):
        acc = ctx.add(acc, ctx.pow(x, ctx.p ** i))
    return acc


def test_trace_agrees_with_direct_frobenius_sum():
    for p, m in [(3, 3), (5, 2), (7, 2)]:
        ctx = field(p, m)
        for x in range(ctx.q):
            assert _frobenius_trace(ctx, x) == ctx.trace(x) < p
    # the quadratic and bilinear trace forms, under two different moduli
    for p, m in [(3, 4), (5, 3)]:
        for modulus in itertools.islice(irreducible_polys(p, m), 2):
            ctx = build_field(p, m, modulus=modulus)
            tr = [_frobenius_trace(ctx, x) for x in range(ctx.q)]
            assert tr == ctx.trace_table.tolist()
            assert [tr[ctx.square(x)] for x in range(ctx.q)] == ctx.trace_x2.tolist()
            for b in range(ctx.q):
                want = [tr[ctx.mul(b, x)] for x in range(ctx.q)]
                assert want == ctx.trace_mul_all(b).tolist(), b


def test_trace_frobenius_invariance_and_linearity():
    ctx = field(3, 4)
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y = rng.integers(0, ctx.q, size=2)
        c = int(rng.integers(0, ctx.p))
        assert ctx.trace(ctx.pow(int(x), ctx.p)) == ctx.trace(int(x))
        assert ctx.trace(ctx.add(int(x), int(y))) == (ctx.trace(int(x)) + ctx.trace(int(y))) % ctx.p
        assert ctx.trace(ctx.mul(c, int(x))) == (c * ctx.trace(int(x))) % ctx.p


@pytest.mark.parametrize("a,p,expected", [(0, 7, 0), (1, 5, 1), (2, 5, -1), (4, 5, 1)])
def test_legendre_examples(a, p, expected):
    assert legendre(a, p) == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_legendre_against_square_listing(p):
    squares = {(k * k) % p for k in range(1, p)}
    for a in range(p):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert legendre(a, p) == want


def test_legendre_rejects_even_prime():
    with pytest.raises(NotOddPrime):
        legendre(3, 2)


def test_quad_char_basics():
    ctx = field(3, 2)
    assert ctx.quad_char(0) == 0
    assert ctx.quad_char(ctx.generator) == -1
    assert ctx.quad_char(1) == 1


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (3, 4)])
def test_quad_char_trivial_on_prime_subfield_for_even_m(p, m):
    ctx = field(p, m)
    assert all(ctx.quad_char(y) == 1 for y in range(1, p))


@pytest.mark.parametrize("p,m", [(3, 3), (5, 3), (7, 3), (3, 5)])
def test_quad_char_restricts_to_legendre_for_odd_m(p, m):
    ctx = field(p, m)
    assert all(ctx.quad_char(y) == legendre(y, p) for y in range(1, p))


def test_quad_char_multiplicative_and_balanced():
    ctx = field(5, 2)
    rng = np.random.default_rng(11)
    for _ in range(200):
        x, y = (int(v) for v in rng.integers(1, ctx.q, size=2))
        assert ctx.quad_char(ctx.mul(x, y)) == ctx.quad_char(x) * ctx.quad_char(y)
    plus = sum(1 for x in range(1, ctx.q) if ctx.quad_char(x) == 1)
    assert plus == (ctx.q - 1) // 2


def test_quad_char_table_matches_scalar():
    ctx = field(7, 2)
    table = ctx.quad_char_table
    assert all(int(table[x]) == ctx.quad_char(x) for x in range(ctx.q))


def test_basis_independence_of_trace_multiset():
    # the multiset {tr(x^2 + x)} is a field invariant, not a basis artifact
    for p, m in [(3, 4), (5, 3)]:
        mod_a, mod_b = itertools.islice(irreducible_polys(p, m), 2)
        assert mod_a != mod_b and is_irreducible(mod_b, p)
        ctx_a = build_field(p, m, modulus=mod_a)
        ctx_b = build_field(p, m, modulus=mod_b)
        hist_a = np.bincount(ctx_a.trace_x2_plus_x, minlength=p)
        hist_b = np.bincount(ctx_b.trace_x2_plus_x, minlength=p)
        assert np.array_equal(hist_a, hist_b)


def test_element_digit_roundtrip():
    ctx = field(3, 3)
    for x in range(ctx.q):
        assert ctx.element_from_digits(ctx.element_digits(x)) == x
