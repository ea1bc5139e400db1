import pytest

from superthick import bott
from superthick.bott import SplitBundleDegrees
from superthick.obstruct import (
    check_split_conditions,
    pair_sums,
    search_split_triples,
    sufficient_l_nonsplit,
)


def euler_line(k):
    return (k + 1) * (k + 2) // 2


def euler_tangent(l):
    return 3 * euler_line(l + 1) - euler_line(l)


def independent_condition_dims(degrees):
    """The three dimensions, from Euler characteristics and the h0/h1 rows."""
    sums = pair_sums(degrees)
    h1 = sum(bott.tangent_dim(2, 1, s) for s in sums)
    h2t = sum(
        euler_tangent(s) - bott.tangent_dim(2, 0, s) + bott.tangent_dim(2, 1, s)
        for s in sums
    )
    k = degrees.total
    h2d = sum(
        euler_line(k - ka) - bott.line_dim(2, 0, k - ka) + bott.line_dim(2, 1, k - ka)
        for ka in degrees.degrees
    )
    return h1, h2t, h2d


def test_example_triple_all_conditions_hold():
    r = check_split_conditions(SplitBundleDegrees((3, 0, -6)))
    assert r.constraint_eq74
    assert r.direct_all
    assert r.witnesses == independent_condition_dims(r.degrees) == (1, 8, 11)
    assert r.discrepancy_flags == []


def test_boundary_triple_flagged():
    r = check_split_conditions(SplitBundleDegrees((2, 1, -5)))
    assert r.constraint_eq74
    assert pair_sums(r.degrees) == (3, -3, -4)
    holds2, witness2 = r.direct_conditions[1]
    assert not holds2 and witness2 == 0
    assert r.naive_conditions[1]
    assert any("c2" in f for f in r.discrepancy_flags)


def test_trivial_triple_all_false():
    r = check_split_conditions(SplitBundleDegrees((0, 0, 0)))
    assert not any(h for h, _ in r.direct_conditions)
    assert not r.constraint_eq74


def test_rank_must_be_three():
    with pytest.raises(ValueError):
        check_split_conditions(SplitBundleDegrees((1, 2)))


def test_condition_one_rule_never_disagrees():
    # the h1 twist rule is exact, so condition 1 is never flagged
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            for k3 in range(-4, 5):
                r = check_split_conditions(SplitBundleDegrees((k1, k2, k3)))
                assert not any(f.startswith("c1") for f in r.discrepancy_flags)


def test_condition_three_flag_is_the_boundary_twist():
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            for k3 in range(-4, 5):
                r = check_split_conditions(SplitBundleDegrees((k1, k2, k3)))
                sums = pair_sums(r.degrees)
                flagged = any(f.startswith("c3") for f in r.discrepancy_flags)
                boundary = -3 in sums and not any(s < -3 for s in sums)
                assert flagged == boundary


def brute_search(lo, hi):
    out = []
    for k1 in range(lo, hi + 1):
        for k2 in range(lo, hi + 1):
            for k3 in range(lo, hi + 1):
                if k1 + k2 > 2 and k1 + k3 == -3 and k2 + k3 < -3:
                    out.append((k1, k2, k3))
    return out


def test_search_matches_bruteforce_and_examples():
    # k1 + k3 = -3 fixes k3, so the search walks k1 and k2 only; asymmetric
    # windows cut k3 = -3 - k1 off at either end
    windows = [(-8, 8), (-3, 10), (-20, 0), (5, 9), (-12, 5), (-9, 12), (-7, 3), (-2, 2)]
    for lo, hi in windows:
        hits = search_split_triples(lo, hi)
        assert [tuple(h.degrees.degrees) for h in hits] == brute_search(lo, hi), (lo, hi)
        for h in hits:
            assert h.to_json() == check_split_conditions(h.degrees).to_json()
    assert sum(bool(brute_search(lo, hi)) for lo, hi in windows) >= 4
    triples = [tuple(h.degrees.degrees) for h in search_split_triples(-8, 8)]
    assert (3, 0, -6) in triples
    assert (4, -1, -7) in triples
    assert all(k1 + k2 != 2 for k1, k2, _ in triples)


def test_search_window_edge_cases():
    assert search_split_triples(0, 2) == []
    with pytest.raises(ValueError):
        search_split_triples(3, 1)


def test_search_is_deterministic():
    a = [h.to_json() for h in search_split_triples(-6, 6)]
    b = [h.to_json() for h in search_split_triples(-6, 6)]
    assert a == b


def test_sufficient_l_threshold():
    cert = sufficient_l_nonsplit(-3)
    assert cert.threshold == -2
    by_cond = {p["condition"]: p for p in cert.parts}
    assert by_cond[1]["l_independent"] and by_cond[1]["witness"] == 1
    assert by_cond[3]["l_independent"] and by_cond[3]["witness"] == 1
    assert not by_cond[2]["l_independent"]
    assert by_cond[2]["threshold"] == -2
    # the bound at the threshold and its failure just above
    assert bott.bott_dim(2, 1, 0, 2) == 3
    assert bott.bott_dim(2, 1, 0, 1) == 0
    assert cert.flags


def test_sufficient_l_rejects_other_twists():
    for bad in (-2, 0, 2):
        with pytest.raises(ValueError):
            sufficient_l_nonsplit(bad)


def test_report_json_schema():
    r = check_split_conditions(SplitBundleDegrees((3, 0, -6)))
    data = r.to_json()
    assert set(data) == {"degrees", "paper", "direct", "eq74", "flags"}
    assert set(data["paper"]) == {"c1", "c2", "c3"}
    assert data["direct"]["c2"] == {"holds": True, "witness": 8}
