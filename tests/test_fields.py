"""Field construction, arithmetic, trace and character tests."""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from defset.closed_form import first_of_each_class
from defset.errors import DegreeTooSmall, FieldTooLarge, NotOddPrime
from defset.fields import (_COUNT_BLOCK, DEFAULT_MAX_Q, MR_BOUND, FieldCtx, _bincount,
                           _check_size, _poly_gcd, _poly_sub, _power_sums, _rem, field,
                           irreducible_polys, is_irreducible, is_prime, legendre,
                           require_odd_prime)


def test_build_field_m1_modulus_is_x():
    ctx = FieldCtx(5, 1)
    assert list(ctx.modulus) == [0, 1]
    assert ctx.q == 5


def test_build_field_f9_modulus():
    # -1 is a non-residue mod 3, so x^2 + 1 is the lex-smallest irreducible
    ctx = FieldCtx(3, 2)
    assert list(ctx.modulus) == [1, 0, 1]


def _mulmod(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _rem(out, f, p)


def _powmod(a, e, f, p):
    """a^e mod f by square-and-multiply."""
    result, base = [1], _rem(a, f, p)
    while e:
        if e & 1:
            result = _mulmod(result, base, f, p)
        base = _mulmod(base, base, f, p)
        e >>= 1
    return result


# every odd p and m >= 1 with p^m under the default cap
CAPPED_FIELDS = [(p, m) for p in range(3, DEFAULT_MAX_Q + 1) if is_prime(p)
                 for m in range(1, 10) if p ** m <= DEFAULT_MAX_Q]


def test_root_filter_keeps_canonical_modulus():
    # the first monic irreducible under a scan with Ben-Or's gcd steps from i = 1,
    # with no root test and x^(p^i) by square-and-multiply, for every capped field
    def plain_ben_or(f, p):
        x = frob = [0, 1]
        for _ in range((len(f) - 1) // 2):
            frob = _powmod(frob, p, f, p)
            if len(_poly_gcd(_poly_sub(frob, x, p), f, p)) != 1:
                return False
        return True

    def plain_scan(p, m):
        for k in range(p ** m):
            coeffs = [(k // p ** i) % p for i in range(m)] + [1]
            if plain_ben_or(coeffs, p):
                return coeffs

    assert (3, 9) in CAPPED_FIELDS and (19997, 1) in CAPPED_FIELDS
    for p, m in CAPPED_FIELDS:
        assert next(irreducible_polys(p, m)) == plain_scan(p, m), (p, m)


def test_power_sums_are_companion_matrix_traces():
    # t_k = tr(alpha^k) by Newton's identities against np.trace(C^k) mod p, C the
    # companion matrix, for k < 2m - 1, under the first two moduli of every capped field
    for p, m in CAPPED_FIELDS:
        for f in itertools.islice(irreducible_polys(p, m), 2):
            comp = np.eye(m, k=-1, dtype=np.int64)
            comp[:, -1] = np.negative(f[:m]) % p
            power, want = np.eye(m, dtype=np.int64), []
            for _ in range(2 * m - 1):
                want.append(int(np.trace(power)) % p)
                power = comp @ power % p
            assert _power_sums(f, p) == want, (p, m, f)


def _monic_polys(p, d):
    for k in range(p ** d):
        yield [(k // p ** i) % p for i in range(d)] + [1]


def _divides(g, f, p):
    """True iff the monic g divides f over F_p, by long division (constant term first)."""
    r = list(f)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return not any(r[:dg])


def _mobius(n):
    out = 1
    for d in range(2, n + 1):
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
    return out


@pytest.mark.parametrize("p,m", [(3, 4), (3, 5), (3, 6), (5, 3), (5, 4), (5, 5), (7, 3),
                                 (7, 4)])
def test_is_irreducible_matches_trial_division(p, m):
    # a reducible f of degree m has a monic factor of degree at most m/2
    count = 0
    for f in _monic_polys(p, m):
        want = not any(_divides(g, f, p)
                       for d in range(1, m // 2 + 1) for g in _monic_polys(p, d))
        assert is_irreducible(f, p) == want, f
        count += want
    # Gauss's count of monic irreducibles of degree m
    assert count * m == sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)


def test_is_prime_matches_trial_division_below_1e5():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if by_trial_division(n)]


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # strong pseudoprime to bases 2 ... 31
    318665857834031151167461,  # strong pseudoprime to bases 2 ... 37
    561, 1105, 1729, 41041, 825265, 321197185,  # Carmichael numbers
    2 ** 61 + 1, 10000000000000061 * 10000000000000069,
])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_proves_large_primes():
    for p in [2 ** 31 - 1, 2 ** 61 - 1, 10000000000000061, 10000000000000069]:
        assert is_prime(p)


def test_primality_past_the_proved_range_is_refused():
    # MR_BOUND is composite, yet a strong probable prime to every base, so
    # is_prime cannot tell it from a prime, and p >= MR_BOUND is refused
    assert MR_BOUND == 1287836182261 * 2575672364521 and is_prime(MR_BOUND)
    for p in (MR_BOUND, MR_BOUND + 2, 10 ** 40 + 1):
        with pytest.raises(FieldTooLarge):
            require_odd_prime(p)


def test_build_field_cap():
    with pytest.raises(FieldTooLarge):
        FieldCtx(3, 7, max_q=1000)


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
        FieldCtx(p, 2)


def test_build_field_rejects_degree_zero():
    with pytest.raises(DegreeTooSmall):
        FieldCtx(3, 0)


def _primitive_element(ctx):
    """The smallest g with g^((q-1)/r) != 1 for each prime r | q-1, r found by trial division."""
    q1 = ctx.q - 1
    primes = [r for r in range(2, q1 + 1)
              if q1 % r == 0 and all(r % d for d in range(2, math.isqrt(r) + 1))]
    return next(g for g in range(1, ctx.q) if all(ctx.pow(g, q1 // r) != 1 for r in primes))


def test_build_field_deterministic():
    a = FieldCtx(3, 4)
    b = FieldCtx(3, 4)
    assert a.modulus == b.modulus
    assert np.array_equal(a.trace_table, b.trace_table)
    g = _primitive_element(a)
    assert g == _primitive_element(b)
    assert [a.pow(g, k) for k in range(a.q - 1)] == [b.pow(g, k) for k in range(b.q - 1)]


def test_explicit_modulus_validated():
    with pytest.raises(ValueError):
        FieldCtx(3, 2, modulus=[0, 0, 1])  # x^2 is reducible


def test_mul_by_zero_absorbs():
    ctx = field(3, 2)
    assert all(ctx.mul(0, x) == 0 for x in range(ctx.q))


def test_generator_has_full_order():
    # the powers of g, by repeated multiplication, run through all of F_q* before 1 recurs
    for p, m in [(3, 1), (3, 2), (5, 2), (7, 1), (3, 3)]:
        ctx = field(p, m)
        g = _primitive_element(ctx)
        powers = [1]
        for e in range(1, ctx.q - 1):
            powers.append(ctx.mul(powers[-1], g))
            assert powers[-1] != 1 and ctx.pow(g, e) == powers[-1]
        assert sorted(powers) == list(range(1, ctx.q))
        assert ctx.pow(g, ctx.q - 1) == ctx.mul(powers[-1], g) == 1


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
    g = _primitive_element(ctx)
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
            ctx = FieldCtx(p, m, modulus=modulus)
            tr = [_frobenius_trace(ctx, x) for x in range(ctx.q)]
            assert tr == ctx.trace_table.tolist()
            assert [tr[ctx.square(x)] for x in range(ctx.q)] == ctx.trace_x2.tolist()
            digits = np.array([ctx.element_digits(x) for x in range(ctx.q)])
            duals = ctx.trace_dual(np.arange(ctx.q))
            for b in range(ctx.q):
                want = [tr[ctx.mul(b, x)] for x in range(ctx.q)]
                assert want == ctx.trace_mul_all(b).tolist(), b
                # c(b) is the digit vector of the linear form x -> tr(b*x)
                c = np.array(ctx.element_digits(int(duals[b])))
                assert want == (digits @ c % p).tolist(), b


def test_trace_pair_counts_match_direct_count():
    # H[s, t] against (tr(x^2), tr(x)) counted by Frobenius sums, under two moduli
    # for (3,4) and (5,3)
    ctxs = [field(7, 2), field(13, 2)] + [
        FieldCtx(p, m, modulus=modulus) for p, m in [(3, 4), (5, 3)]
        for modulus in itertools.islice(irreducible_polys(p, m), 2)]
    for ctx in ctxs:
        want = np.zeros((ctx.p, ctx.p), dtype=np.int64)
        for x in range(ctx.q):
            want[_frobenius_trace(ctx, ctx.square(x)), _frobenius_trace(ctx, x)] += 1
        assert np.array_equal(ctx.trace_pair_counts, want), ctx
        assert ctx.trace_pair_counts.sum() == ctx.q


@pytest.mark.parametrize("length", [_COUNT_BLOCK - 1, _COUNT_BLOCK, _COUNT_BLOCK + 1,
                                    3 * _COUNT_BLOCK + 5])
def test_bincount_in_blocks_matches_one_bincount(length):
    # 263^2 > 2^16: a histogram longer than the block is counted in slices of its own size
    rng = np.random.default_rng(length)
    for size, dtype in [(3, np.int16), (263 ** 2, np.int32)]:
        values = rng.integers(0, size, length).astype(dtype)
        counts = _bincount(values, size)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(values, minlength=size)), size


def test_table_counts_copy_one_block_not_the_table():
    # q = 3^11 > 2^17: one bincount of a whole table would copy it as 8q bytes of int64
    ctx = FieldCtx(3, 11, max_q=3 ** 11)
    assert ctx.trace_x2.size == ctx.trace_pair_key.size == ctx.q  # the tables, built first
    tracemalloc.start()
    try:
        u, h = ctx.trace_x2_counts, ctx.trace_pair_counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _COUNT_BLOCK + 2 ** 15 < 8 * ctx.q // 2, peak
    assert u.sum() == h.sum() == ctx.q
    assert np.array_equal(u, h.sum(axis=1))


def test_class_scan_indexes_one_block_not_the_table():
    # an int64 index of every b != 0 would be 8q bytes beside the key; ufunc.at
    # buffers 8192 more int64 indices per slice
    ctx = FieldCtx(3, 11, max_q=3 ** 11)
    assert ctx.trace_pair_key.size == ctx.q  # the key, built first
    tracemalloc.start()
    try:
        first = first_of_each_class(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * _COUNT_BLOCK + 2 ** 17 < 8 * ctx.q // 2, peak
    want = np.full(ctx.p ** 2, ctx.q)
    np.minimum.at(want, ctx.trace_pair_key[1:], np.arange(1, ctx.q))
    assert np.array_equal(first, want)
    # each b != 0 alone in its class, past one slice: a b the slices skip or misplace shows
    q = 263 ** 2
    key = np.arange(q, dtype=np.int32)
    first = first_of_each_class(SimpleNamespace(p=263, q=q, trace_pair_key=key))
    assert first[0] == q and np.array_equal(first[1:], key[1:])


def _digit_matrix(ctx):
    """Row x holds the digits of index x, constant term first: the q x m table
    the per-element forms were once built from, one digit column at a time."""
    return np.indices((ctx.p,) * ctx.m).reshape(ctx.m, ctx.q)[::-1].T.astype(np.int64)


@pytest.mark.parametrize("p,m", [(3, 1), (7, 1), (3, 7), (5, 5), (13, 3), (191, 2)])
def test_grid_forms_match_digit_matrix_route(p, m):
    # (191, 2): p^2 > 2^15, so products in the grid build overflow int16
    for modulus in itertools.islice(irreducible_polys(p, m), 1 if m == 1 else 2):
        ctx = FieldCtx(p, m, max_q=p ** m, modulus=modulus)
        q, digits = ctx.q, _digit_matrix(ctx)
        alpha = [p ** i for i in range(m)]
        form = np.array([[_frobenius_trace(ctx, ctx.mul(a, b)) for b in alpha] for a in alpha])
        assert np.array_equal(ctx.trace_table, digits @ form[0] % p)
        assert np.array_equal(ctx.trace_x2, ((digits @ form) * digits).sum(1) % p)
        assert np.array_equal(ctx.trace_x2_plus_x,
                              (((digits @ form) * digits).sum(1) + digits @ form[0]) % p)
        duals = (digits @ form % p) @ np.array(alpha)
        assert np.array_equal(ctx.trace_dual(np.arange(q)), duals)
        bs = np.arange(q)
        if q > 5000:
            # every b would take about a minute here: keep the prime subfield, the
            # indices divisible by p, the b whose c(b) has every digit p - 1, and a sample
            rng = np.random.default_rng(p)
            bs = np.unique(np.concatenate([bs[:p], bs[::p], np.flatnonzero(duals == q - 1),
                                           rng.choice(q, 256, replace=False)]))
        for b in bs:
            assert np.array_equal(ctx.trace_mul_all(int(b)), digits @ (form @ digits[b]) % p), b
            assert ctx.trace_dual(int(b)) == duals[b]


@pytest.mark.parametrize("p,m,work", [(19, 2, np.int16), (23, 2, np.int32),
                                      (13, 3, np.int16), (17, 3, np.int32),
                                      (1289, 1, np.int32), (1291, 1, np.int64),
                                      (811, 2, np.int32), (821, 2, np.int64)])
def test_grid_sum_type_at_each_switch(p, m, work):
    # the grid sums unreduced, in the narrowest type that holds m(p-1)^2 + m^2(p-1)^3;
    # numpy wraps an overflowing array silently, so the form that reaches that bound
    # at x = (p-1, ..., p-1), every coefficient p - 1, is checked on the last field
    # below each switch and the first above it
    ctx = FieldCtx(p, m, max_q=p ** m)
    assert ctx._work == work
    lin, quad = np.full(m, p - 1), np.full((m, m), p - 1)
    digits = _digit_matrix(ctx)
    want = (digits @ lin + ((digits @ quad) * digits).sum(1)) % p
    assert np.array_equal(ctx._grid_form(lin, quad), want)


def test_grid_sums_past_int64_are_refused():
    # at m = 1 the bound (p-1)^2 + (p-1)^3 passes int64 from p = 2^21 + 1 on
    assert _check_size(2097143, 1, 2097143) == 2097143
    with pytest.raises(FieldTooLarge, match="int64"):
        field(2097169, 1, max_q=2097169)


def test_trace_pair_key():
    # tr(x^2)*p + tr(x) in the narrowest type that holds p^2 - 1: 139^2 - 1 fits int16,
    # 191^2 - 1 does not; first_of_each_class reads it
    for p, m, key_type in [(3, 4, np.int16), (139, 2, np.int16), (191, 2, np.int32)]:
        ctx = field(p, m, max_q=p ** m)
        key = ctx.trace_x2.astype(np.int64) * p + ctx.trace_table
        assert ctx.trace_pair_key.dtype == key_type
        assert np.array_equal(ctx.trace_pair_key, key)
        first = np.full(p * p, ctx.q, dtype=np.int64)
        np.minimum.at(first, key[1:], np.arange(1, ctx.q))
        got = first_of_each_class(ctx)
        assert got.dtype == np.int64 and np.array_equal(got, first)


@pytest.mark.parametrize("p", [32771, 46349])
def test_grid_forms_past_int16_values_and_int32_products(p):
    # p - 1 needs more than int16 from p = 32769 on, and (p - 1)^2 more than
    # int32 from p = 46341 on, so the tables are int32 and the grid sums int64;
    # at m = 1, tr(x) = x and tr(x^2) = x^2
    ctx = FieldCtx(p, 1, max_q=p)
    x = np.arange(p, dtype=np.int64)
    assert np.array_equal(ctx.trace_table, x)
    assert np.array_equal(ctx.trace_x2, x * x % p)
    assert np.array_equal(ctx.trace_mul_all(p - 1), (p - 1) * x % p)


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
    assert ctx.quad_char(_primitive_element(ctx)) == -1
    assert ctx.quad_char(1) == 1
    # quad_char is Euler's criterion; the reference is the listing of the squares
    for p, m in [(3, 2), (5, 3), (7, 2)]:
        ctx = field(p, m)
        squares = {ctx.square(y) for y in range(1, ctx.q)}
        assert len(squares) == (ctx.q - 1) // 2
        for x in range(1, ctx.q):
            assert ctx.quad_char(x) == (1 if x in squares else -1), (p, m, x)


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


def test_basis_independence_of_trace_multiset():
    # the multiset {tr(x^2 + x)} is a field invariant, not a basis artifact
    for p, m in [(3, 4), (5, 3)]:
        mod_a, mod_b = itertools.islice(irreducible_polys(p, m), 2)
        assert mod_a != mod_b and is_irreducible(mod_b, p)
        ctx_a = FieldCtx(p, m, modulus=mod_a)
        ctx_b = FieldCtx(p, m, modulus=mod_b)
        hist_a = np.bincount(ctx_a.trace_x2_plus_x, minlength=p)
        hist_b = np.bincount(ctx_b.trace_x2_plus_x, minlength=p)
        assert np.array_equal(hist_a, hist_b)


def test_element_digit_roundtrip():
    ctx = field(3, 3)
    for x in range(ctx.q):
        assert ctx.element_from_digits(ctx.element_digits(x)) == x
