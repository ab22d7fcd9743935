"""Property-based invariants (hypothesis) for field, code and ring algebra."""

import numpy as np
from hypothesis import given, settings, strategies as st

from defset.codes import codeword, count_Nb, defining_set, weight_of
from defset.cyclotomic import CycInt, embed_complex
from defset.fields import field

SMALL_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2),
                (11, 1), (13, 1)]

field_params = st.sampled_from(SMALL_FIELDS)


@given(field_params, st.data())
def test_trace_is_linear_and_frobenius_invariant(pm, data):
    ctx = field(*pm)
    x = data.draw(st.integers(0, ctx.q - 1))
    y = data.draw(st.integers(0, ctx.q - 1))
    c = data.draw(st.integers(0, ctx.p - 1))
    assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % ctx.p
    assert ctx.trace(ctx.mul(c, x)) == (c * ctx.trace(x)) % ctx.p
    assert ctx.trace(ctx.pow(x, ctx.p)) == ctx.trace(x)


@given(field_params, st.data())
def test_field_axioms_sampled(pm, data):
    ctx = field(*pm)
    x = data.draw(st.integers(0, ctx.q - 1))
    y = data.draw(st.integers(0, ctx.q - 1))
    z = data.draw(st.integers(0, ctx.q - 1))
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
    assert ctx.add(x, ctx.neg(x)) == 0
    assert ctx.square(x) == ctx.mul(x, x)


@given(field_params, st.data())
def test_quad_char_multiplicative(pm, data):
    ctx = field(*pm)
    x = data.draw(st.integers(1, ctx.q - 1))
    y = data.draw(st.integers(1, ctx.q - 1))
    assert ctx.quad_char(ctx.mul(x, y)) == ctx.quad_char(x) * ctx.quad_char(y)


@settings(max_examples=25)
@given(st.sampled_from([(3, 3), (3, 4), (5, 2), (7, 2)]), st.data())
def test_two_path_weight_equality(pm, data):
    ds = defining_set(field(*pm))
    b = data.draw(st.integers(0, ds.ctx.q - 1))
    assert weight_of(ds, b) == int(np.count_nonzero(codeword(ds, b)))
    assert weight_of(ds, b) == ds.n0 - count_Nb(ds.ctx, b)


@settings(max_examples=25)
@given(st.sampled_from([(3, 3), (3, 4), (5, 2)]), st.data())
def test_codeword_linearity(pm, data):
    ds = defining_set(field(*pm))
    ctx = ds.ctx
    b1 = data.draw(st.integers(0, ctx.q - 1))
    b2 = data.draw(st.integers(0, ctx.q - 1))
    lhs = codeword(ds, ctx.add(b1, b2))
    rhs = (codeword(ds, b1) + codeword(ds, b2)) % ctx.p
    assert np.array_equal(lhs, rhs)


coeff_lists = st.integers(-50, 50)


@given(st.sampled_from([3, 5, 7]), st.data())
def test_cycint_ring_axioms(p, data):
    a = CycInt(p, data.draw(st.lists(coeff_lists, min_size=p, max_size=p)))
    b = CycInt(p, data.draw(st.lists(coeff_lists, min_size=p, max_size=p)))
    c = CycInt(p, data.draw(st.lists(coeff_lists, min_size=p, max_size=p)))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + (-a) == CycInt.zero(p)


def schoolbook_product(p, a, b):
    """sum over i, j of a_i * b_j * zeta^(i+j), one coefficient pair at a time."""
    out = [0] * p
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[(i + j) % p] += ai * bj
    return CycInt(p, out)


# +-2^20 keeps sum|a| * sum|b| under 2^63 (int64 products); +-2^40 fits int64 but its
# products need not, and +-2^70 does not fit at all (both take Python ints)
COEFF_BOUNDS = st.sampled_from([2 ** 20, 2 ** 40, 2 ** 70])


@given(st.sampled_from([3, 5, 7, 11]), COEFF_BOUNDS, COEFF_BOUNDS, st.data())
def test_cycint_product_matches_schoolbook(p, bound_a, bound_b, data):
    a = data.draw(st.lists(st.integers(-bound_a, bound_a), min_size=p, max_size=p))
    b = data.draw(st.lists(st.integers(-bound_b, bound_b), min_size=p, max_size=p))
    assert CycInt(p, a) * CycInt(p, b) == schoolbook_product(p, a, b)


def test_cycint_product_of_zero_and_a_wide_value():
    # sum|a| * sum|b| = 0 here, but a's coefficients alone do not fit in int64
    wide = CycInt(5, [0, 2 ** 70, -(2 ** 64), 3, 0])
    assert wide * CycInt.zero(5) == CycInt.zero(5)
    assert CycInt.zero(5) * wide == CycInt.zero(5)


@given(st.sampled_from([3, 5, 7]), st.data())
def test_cycint_embedding_is_ring_homomorphism(p, data):
    a = CycInt(p, data.draw(st.lists(st.integers(-9, 9), min_size=p, max_size=p)))
    b = CycInt(p, data.draw(st.lists(st.integers(-9, 9), min_size=p, max_size=p)))
    assert abs(embed_complex(a + b) - (embed_complex(a) + embed_complex(b))) < 1e-9
    assert abs(embed_complex(a * b) - embed_complex(a) * embed_complex(b)) < 1e-6


@given(st.sampled_from([3, 5, 7, 11]), st.integers(-100, 100), st.integers(-100, 100))
def test_cycint_integers_embed_faithfully(p, n, k):
    a = CycInt.from_int(p, n)
    assert a.to_int() == n
    assert (a + CycInt.from_int(p, k)).to_int() == n + k
    assert (a * CycInt.from_int(p, k)).to_int() == n * k
