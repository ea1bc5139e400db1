import itertools

import pytest

from superthick import bott
from superthick.bott import SplitBundleDegrees


def brute_h0_line(n, k):
    """Count monomials of total degree k in n+1 homogeneous variables."""
    if k < 0:
        return 0
    count = 0

    def rec(left, total):
        nonlocal count
        if left == 1:
            count += 1
            return
        for v in range(total + 1):
            rec(left - 1, total - v)

    rec(n + 1, k)
    return count


def euler_line(k):
    return (k + 1) * (k + 2) // 2


def test_bott_middle_case_value():
    assert bott.bott_dim(2, 1, 1, 0) == 1


def test_bott_h0_row_matches_enumeration():
    for n in (1, 2):
        for k in range(0, 7):
            assert bott.bott_dim(n, 0, 0, k) == brute_h0_line(n, k)
    assert bott.bott_dim(2, 0, 0, 1) == 3


def test_bott_top_row():
    assert bott.bott_dim(2, 0, 2, -4) == 3
    assert bott.bott_dim(2, 0, 2, -3) == 1
    assert bott.bott_dim(2, 0, 2, -2) == 0


def test_binomial_convention():
    assert bott.binom(-1, 2) == 0
    assert bott.binom(2, 3) == 0
    assert bott.binom(2, -1) == 0
    assert bott.binom(4, 2) == 6


def test_serre_duality_grid():
    for n in (1, 2):
        for p in range(n + 1):
            for q in range(n + 1):
                for k in range(-8, 9):
                    assert bott.bott_dim(n, p, q, k) == bott.serre_dual_dim(n, p, q, k)


def test_euler_characteristic_line_bundles():
    for k in range(-8, 9):
        chi = sum((-1) ** q * bott.line_dim(2, q, k) for q in range(3))
        assert chi == euler_line(k)


def test_tangent_examples():
    # automorphism algebra of the plane
    assert bott.tangent_dim(2, 0, 0) == 8
    # h2(O(-3)) via duality
    assert bott.line_dim(2, 2, -3) == 1
    # the single twist with nonzero h1
    for l in range(-8, 9):
        assert (bott.tangent_dim(2, 1, l) != 0) == (l == -3)
    assert bott.tangent_dim(2, 1, -3) == 1


def euler_tangent(l):
    # from the sequence 0 -> O(l) -> O(l+1)^3 -> T(l) -> 0
    return 3 * euler_line(l + 1) - euler_line(l)


def test_tangent_dims_satisfy_euler_sequence():
    for l in range(-8, 9):
        chi = sum((-1) ** q * bott.tangent_dim(2, q, l) for q in range(3))
        assert chi == euler_tangent(l)


def test_split_sheaf_dims_examples():
    e = SplitBundleDegrees((3, 0, -6))
    h1, breakdown = bott.split_sheaf_dims(e, "tangent_wedge", 1, m=2)
    assert h1 == 1
    assert [d for _, t, d in breakdown if t == -3] == [1]

    h2d, breakdown = bott.split_sheaf_dims(e, "wedge_dual", 2, m=e.rank)
    assert h2d == 11
    assert sorted(d for _, _, d in breakdown) == [0, 1, 10]

    # h2(T tensor Lambda^2 E): the only contribution is the -6 pair sum,
    # pinned independently by the Euler-sequence characteristic
    h2t, breakdown = bott.split_sheaf_dims(e, "tangent_wedge", 2, m=2)
    expected = euler_tangent(-6) - bott.tangent_dim(2, 0, -6) + bott.tangent_dim(2, 1, -6)
    assert h2t == expected == 8

    z = SplitBundleDegrees((0, 0, 0))
    assert bott.split_sheaf_dims(z, "tangent_wedge", 1, m=2)[0] == 0


def test_wedge_above_rank_is_zero():
    e = SplitBundleDegrees((1, 2))
    assert bott.split_sheaf_dims(e, "tangent_wedge", 1, m=3)[0] == 0


@pytest.mark.parametrize("m", [-1, -2])
def test_negative_wedge_power_is_zero(m):
    e = SplitBundleDegrees((3, 0, -6))
    assert e.wedge_summands(m) == []
    for target in ("tangent_wedge", "wedge_dual"):
        for q in range(3):
            assert bott.split_sheaf_dims(e, target, q, m=m) == (0, [])


def test_filtered_tangent_bounds():
    e = SplitBundleDegrees((3, 0, -6))
    lo, hi = bott.filtered_tangent_dims(e, 2, 1)
    assert (lo, hi) == (0, 1)
    # both flanks zero forces zero
    z = SplitBundleDegrees((0, 0, 0))
    lo, hi = bott.filtered_tangent_dims(z, 1, 1)
    assert (lo, hi) == (0, 0)
    # at the rank, only the quotient side remains
    lo, hi = bott.filtered_tangent_dims(e, 3, 1)
    assert hi == bott.split_sheaf_dims(e, "tangent_wedge", 1, m=3)[0]


def reference_dual_twist_rows(degrees, q, n=2):
    """(twist, dim) of each summand of E-dual twisted by O(deg E), enumerated
    over the dual summands directly."""
    return [(degrees.total - k, bott.line_dim(n, q, degrees.total - k)) for k in degrees.degrees]


@pytest.mark.parametrize("rank, span", [(1, range(-6, 7)), (2, range(-6, 7)), (3, range(-6, 7)),
                                        (4, range(-6, 7, 2))])
def test_dual_twist_rows_match_the_dual_enumeration(rank, span):
    # "wedge_dual" at m = rank is E-dual twisted by O(deg E), Lambda^rank E
    # being O(deg E)
    for ks in itertools.product(span, repeat=rank):
        e = SplitBundleDegrees(ks)
        for q in range(3):
            total, breakdown = bott.split_sheaf_dims(e, "wedge_dual", q, m=e.rank)
            rows = reference_dual_twist_rows(e, q)
            assert [(t, d) for _, t, d in breakdown] == rows, (ks, q)
            assert total == sum(d for _, d in rows)


def reference_filtered_tangent_dims(degrees, level, q, n=2):
    """The long-exact-sequence bounds with the sub-sheaf set to zero above
    the rank by hand."""
    def sub_dim(qq):
        if qq < 0 or qq > n or level + 1 > degrees.rank:
            return 0
        return bott.split_sheaf_dims(degrees, "wedge_dual", qq, n, m=level + 1)[0]

    def quot_dim(qq):
        if qq < 0 or qq > n or level < 0:
            return 0
        return bott.split_sheaf_dims(degrees, "tangent_wedge", qq, n, m=level)[0]

    upper = sub_dim(q) + quot_dim(q)
    return max(0, sub_dim(q) - quot_dim(q - 1), quot_dim(q) - sub_dim(q + 1)), upper


@pytest.mark.parametrize("ks", [(2,), (-3,), (1, -4), (3, 0, -6), (4, -1, -7), (0, 0, 0),
                                (4, -1, -7, 2), (-2, 5, 1, -3)])
def test_filtered_tangent_dims_match_the_guarded_bounds(ks):
    e = SplitBundleDegrees(ks)
    for n, level, q in itertools.product((1, 2), range(-1, e.rank + 1), range(-1, 4)):
        assert (bott.filtered_tangent_dims(e, level, q, n)
                == reference_filtered_tangent_dims(e, level, q, n)), (n, level, q)


def test_query_validation():
    with pytest.raises(ValueError):
        bott.bott_dim(2, 3, 0, 0)
    with pytest.raises(ValueError):
        bott.bott_dim(2, 0, -1, 0)
