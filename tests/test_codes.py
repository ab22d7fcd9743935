"""Defining set, codeword, weight-distribution kernels and structural checks."""

import itertools
import math

import numpy as np
import pytest

from defset.codes import (DefiningSet, WeightDistribution, brute_weight_distribution,
                          codeword, count_Nb, defining_set, distribution_csv,
                          dual_distance_two, export_defining_set,
                          power_moment_check, secret_sharing_ratio, transform_Nc,
                          weight_of, weight_enumerator_string)
from defset.errors import EmptyDistribution
from defset.fields import DEFAULT_MAX_Q, FieldCtx, field, irreducible_polys, is_prime


@pytest.mark.parametrize("p,m,n", [(3, 3, 8), (3, 4, 29), (3, 2, 1), (3, 5, 71), (5, 3, 19)])
def test_defining_set_sizes(p, m, n):
    assert defining_set(field(p, m)).n == n


def test_defining_set_membership_and_order():
    ctx = field(3, 4)
    ds = defining_set(ctx)
    els = ds.elements
    assert (els > 0).all()
    assert np.array_equal(els, np.sort(els)) and np.unique(els).size == els.size
    for x in els:
        assert ctx.trace(ctx.add(ctx.square(int(x)), int(x))) == 0


def test_codeword_zero_and_partition():
    ds = defining_set(field(3, 3))
    assert not codeword(ds, 0).any()
    for b in range(ds.ctx.q):
        cw = codeword(ds, b)
        zeros = int(np.count_nonzero(cw == 0))
        assert int(np.count_nonzero(cw)) + zeros == ds.n


def test_dimension_is_the_rank_of_the_defining_set():
    # k = m - log_p |{b : c_b = 0}|; the sets in F_729 take two or more blocks
    # of the strided elimination, and in the last the first block has rank 1
    def kernel_dimension(ds):
        zeros = sum(not codeword(ds, b).any() for b in range(ds.ctx.q))
        return ds.ctx.m - round(math.log(zeros, ds.ctx.p))

    for p, m in [(3, 2), (3, 3), (3, 4), (5, 3), (7, 2)]:
        ds = defining_set(field(p, m))
        assert ds.dimension == kernel_dimension(ds) == (1 if (p, m) == (3, 2) else m)
    ctx = field(3, 6)
    x = np.arange(1, ctx.q)
    digits = ctx.element_digits(x)
    for elements, k in [(x[x < 81], 4), (x[digits[:, 0] == digits[:, 5]], 5),
                        (x[(digits[:, 1:] == 0).all(axis=1)], 1), (np.tile([1, 3], 64), 2)]:
        ds = DefiningSet(ctx, elements)
        assert ds.dimension == kernel_dimension(ds) == k
    assert DefiningSet(ctx, x[:0]).dimension == 0


def test_codeword_attains_minimum_weight():
    ds = defining_set(field(3, 3))
    weights = {int(np.count_nonzero(codeword(ds, b))) for b in range(ds.ctx.q)}
    assert 4 in weights  # the [8,3,4] code


def test_count_Nb_b_zero_gives_n0():
    for p, m in [(3, 3), (3, 4), (5, 3)]:
        ds = defining_set(field(p, m))
        assert count_Nb(ds.ctx, 0) == ds.n0


def test_count_Nb_closed_values():
    ctx = field(3, 4)
    picked = [b for b in range(1, ctx.q)
              if ctx.trace(ctx.square(b)) == 0 and ctx.trace(b) == 0]
    assert picked and all(count_Nb(ctx, b) == 12 for b in picked)
    ctx = field(3, 3)
    picked = [b for b in range(1, ctx.q) if ctx.trace(ctx.square(b)) == 0]
    assert picked and all(count_Nb(ctx, b) == 3 for b in picked)


def test_weight_of_matches_codeword_weight():
    for p, m in [(3, 3), (3, 4), (5, 2)]:
        ds = defining_set(field(p, m))
        for b in range(ds.ctx.q):
            assert weight_of(ds, b) == int(np.count_nonzero(codeword(ds, b)))


def test_weight_of_value_sets():
    ds = defining_set(field(3, 6))
    ws = {weight_of(ds, b) for b in range(1, 3 ** 6)}
    assert ws <= {162, 171, 180}
    ds = defining_set(field(5, 3))
    ws = {weight_of(ds, b) for b in range(1, 5 ** 3)}
    assert ws <= {14, 15, 16, 19}


@pytest.mark.parametrize("p,m,expected", [
    (3, 4, {0: 1, 18: 44, 21: 30, 24: 6}),
    (3, 5, {0: 1, 42: 30, 45: 60, 48: 90, 51: 42, 54: 20}),
    (5, 5, {0: 1, 480: 300, 495: 1000, 500: 624, 505: 1000, 520: 200}),
])
def test_brute_distribution_golden(p, m, expected):
    dist = brute_weight_distribution(defining_set(field(p, m)))
    assert dist.entries == expected
    assert dist.total == p ** m


@pytest.mark.parametrize("p,m", [(3, 4), (7, 3)])
def test_brute_force_reference_reads_no_quadratic_trace_form(p, m):
    # a wrong trace form, set before any table is built from it, changes the D0
    # that the transform counts over, but not the reference, which reads
    # tr(b*d) as sum_i b_i tr(alpha^i d) through tr(x) and C^i alone
    good = defining_set(field(p, m))
    truth = good.weight_distribution
    bad_ctx = FieldCtx(p, m)
    bad_ctx._trace_form = bad_ctx._trace_form[::-1, ::-1]
    bad = DefiningSet(bad_ctx, good.elements)
    assert brute_weight_distribution(bad) == truth
    assert bad.weight_distribution != truth
    assert all(np.array_equal(codeword(bad, b), codeword(good, b)) for b in range(good.ctx.q))


@pytest.mark.parametrize("p,m", [(3, 4), (5, 3)])
def test_transform_matches_brute_force_under_second_modulus(p, m):
    modulus = list(itertools.islice(irreducible_polys(p, m), 2))[1]
    ds = defining_set(FieldCtx(p, m, modulus=modulus))
    assert ds.weight_distribution == brute_weight_distribution(ds)


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (3, 4), (7, 2), (5, 1), (7, 1)])
def test_transform_Nc_counts_each_orthogonal_hyperplane(p, m):
    # N_c = |{x in D0 : sum_j c_j x_j = 0}| for every c, under two moduli
    for modulus in itertools.islice(irreducible_polys(p, m), 2):
        ctx = FieldCtx(p, m, modulus=modulus)
        digits = np.array([ctx.element_digits(x) for x in range(ctx.q)])
        d0 = digits[ctx.trace_x2_plus_x == 0]
        direct = np.count_nonzero(d0 @ digits.T % p == 0, axis=0)
        assert np.array_equal(transform_Nc(defining_set(ctx)), direct)


def test_transform_Nc_at_c_of_b_is_N_b():
    ctx = field(3, 4)
    nc = transform_Nc(defining_set(ctx))
    for b in range(ctx.q):
        assert nc[ctx.trace_dual(b)] == count_Nb(ctx, b), b


def test_linearity_of_codewords():
    ds = defining_set(field(3, 4))
    ctx = ds.ctx
    rng = np.random.default_rng(5)
    for _ in range(100):
        b1, b2 = (int(v) for v in rng.integers(0, ctx.q, size=2))
        lhs = codeword(ds, ctx.add(b1, b2))
        rhs = (codeword(ds, b1) + codeword(ds, b2)) % ctx.p
        assert np.array_equal(lhs, rhs)


def test_count_partition_over_trace_values():
    # summing |{x : tr(x^2+x)=0, tr(bx)=a}| over a in F_p recovers n0 for any b
    ds = defining_set(field(3, 3))
    ctx = ds.ctx
    s0 = ctx.trace_x2_plus_x == 0
    for b in range(ctx.q):
        tb = ctx.trace_mul_all(b)
        counts = [int(np.count_nonzero(s0 & (tb == a))) for a in range(ctx.p)]
        assert sum(counts) == ds.n0
        assert counts[0] == count_Nb(ctx, b)


def test_power_moments():
    dist = brute_weight_distribution(defining_set(field(3, 4)))
    assert power_moment_check(dist, 3, 4, 29) == (True, True)
    assert sum(a for w, a in dist.entries.items() if w) == 80
    assert sum(w * a for w, a in dist.entries.items()) == 1566

    dist53 = brute_weight_distribution(defining_set(field(5, 3)))
    assert power_moment_check(dist53, 5, 3, 19) == (True, True)

    trivial = WeightDistribution({0: 1})
    assert power_moment_check(trivial, 3, 4, 0) == (False, True)


def test_dual_distance_two():
    assert dual_distance_two(defining_set(field(3, 4)))
    assert dual_distance_two(defining_set(field(3, 5)))
    assert not dual_distance_two(defining_set(field(3, 2)))  # singleton D
    assert not dual_distance_two(defining_set(field(5, 3)))  # four-weight degeneration


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 8),
                                 (5, 3), (5, 4), (5, 5), (7, 3), (7, 4)])
def test_dual_distance_two_matches_proportionality_search(p, m):
    # two coordinates are proportional iff lambda*d lies in D for some d and lambda != 1
    ds = defining_set(field(p, m))
    members = set(ds.elements.tolist())
    direct = any(ds.ctx.mul(lam, x) in members
                 for x in ds.elements.tolist() for lam in range(2, p))
    assert dual_distance_two(ds) == direct


def _dual_distance_two_by_orbit_minimum(ds):
    """The smallest index of each F_p*-orbit names the orbit; D has a proportional
    pair iff two of its elements name the same orbit."""
    p, m = ds.ctx.p, ds.ctx.m
    if ds.n < 2:
        return False
    pows = p ** np.arange(m)
    digits = ds.elements[:, None] // pows % p
    reps = ds.elements
    for lam in range(2, p):
        reps = np.minimum(reps, (lam * digits % p) @ pows)
    return int(np.unique(reps).size) < ds.n


SMALL_FIELDS = [(p, m) for p in range(3, math.isqrt(DEFAULT_MAX_Q) + 1) if is_prime(p)
                for m in range(2, 20) if p ** m <= DEFAULT_MAX_Q]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_dual_distance_two_matches_orbit_minimum(p, m):
    ds = defining_set(field(p, m))
    assert dual_distance_two(ds) == _dual_distance_two_by_orbit_minimum(ds)


def test_secret_sharing_ratio():
    dist36 = brute_weight_distribution(defining_set(field(3, 6)))
    assert secret_sharing_ratio(dist36, 3) == (162, 180, True)
    dist33 = brute_weight_distribution(defining_set(field(3, 3)))
    assert secret_sharing_ratio(dist33, 3) == (4, 7, False)
    assert secret_sharing_ratio(WeightDistribution({0: 1, 9: 80}), 3) == (9, 9, True)
    with pytest.raises(EmptyDistribution):
        secret_sharing_ratio(WeightDistribution({0: 1}), 3)


def test_weight_enumerator_string():
    assert weight_enumerator_string(WeightDistribution({0: 1})) == "1"
    d34 = brute_weight_distribution(defining_set(field(3, 4)))
    assert weight_enumerator_string(d34) == "1+44x^18+30x^21+6x^24"
    d33 = brute_weight_distribution(defining_set(field(3, 3)))
    assert weight_enumerator_string(d33) == "1+6x^4+6x^5+8x^6+6x^7"
    assert weight_enumerator_string(WeightDistribution({0: 1, 7: 1})) == "1+1x^7"


def test_export_defining_set_format():
    ctx = field(3, 2)
    ds = defining_set(ctx)
    text = export_defining_set(ds)
    lines = text.strip().split("\n")
    assert len(lines) == ds.n
    for line, x in zip(lines, ds.elements):
        digits = tuple(int(c) for c in line.split(","))
        assert len(digits) == ctx.m
        assert ctx.element_from_digits(digits) == int(x)


@pytest.mark.parametrize("p,m", [(11, 1), (13, 2), (3, 6)])
def test_export_defining_set_matches_per_element_format(p, m):
    # (11, 1) and (13, 2) have two-character digits
    ds = defining_set(field(p, m))
    lines = (",".join(str(int(x) // p ** i % p) for i in range(m)) for x in ds.elements)
    assert export_defining_set(ds).encode() == ("\n".join(lines) + "\n").encode()


def test_distribution_csv_format():
    dist = WeightDistribution({0: 1, 18: 44, 21: 30, 24: 6})
    assert distribution_csv(dist) == (
        "weight,multiplicity\n0,1\n18,44\n21,30\n24,6\n")


def test_distribution_equality_is_map_equality():
    a = WeightDistribution({4: 6, 5: 6, 0: 1})
    b = WeightDistribution({0: 1, 5: 6, 4: 6})
    assert a == b
    assert a != WeightDistribution({0: 1, 4: 6, 5: 7})
