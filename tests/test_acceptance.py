"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value here is frozen from an independent oracle
(combinatorial monomial counts, Euler characteristics, brute-force
enumeration, or hand expansions), never from the code path under test.

Criterion 6a checks how the obstruction representative responds to a torsor
shift of the top-degree slot.  It is not invariant term by term: at order 2
it moves by exactly the image 2-cocycle of the shift,
    gamma(act_torsor(t, alpha)) = gamma(t) + pushforward_partial(alpha, t),
and that image is nonzero in most cases.  Only the cohomology class is
preserved, when the shift is exact.  Strict invariance would force gamma = 0
for every order-2 thickening over the split model, contradicting the
obstructed example of criterion 9.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from superthick import bott, cech, supermap as sm
from superthick.bott import SplitBundleDegrees
from superthick.exterior import GrassmannElement
from superthick.laurent import ChartMap, LaurentPoly
from superthick.obstruct import (
    check_split_conditions,
    naive_rule_h0_tangent,
    naive_rule_h2_line,
    search_split_triples,
    sufficient_l_nonsplit,
)
from superthick.pipeline import pipeline_obstructed_cp2

COV1 = cech.standard_cover(1)
COV2 = cech.standard_cover(2)

DEGREE_POOL = [
    (3, 0, -6),
    (4, -1, -7),
    (2, 1, -5),
    (1, -2, 3),
    (2, 2, -3),
    (0, 0, 0),
    (-1, 0, 2),
]


def report(num, label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>3}: {state}  {label}" + (f"  [{detail}]" if detail else ""))


def closed_slot(cover, degrees, rng, harmonic=None):
    spec = sm.slot_sheaf(cover, degrees, 2)
    return cech.random_closed_cochain(spec, rng, harmonic=harmonic)


def test_criterion_01_bott_oracle_equivalence():
    start = time.monotonic()
    mismatches = []
    for n in (1, 2):
        for k in range(-8, 9):
            for q in range(n + 1):
                oracle = cech.line_bundle_cohomology(n, k, q).dims[q]
                closed = bott.bott_dim(n, 0, q, k)
                if oracle != closed:
                    mismatches.append((n, k, q, oracle, closed))
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 1.0
    report(1, "closed formula equals the monomial oracle on the full grid", ok,
           f"{elapsed:.2f}s")
    assert not mismatches, mismatches
    assert elapsed < 1.0


def test_criterion_02_serre_duality():
    start = time.monotonic()
    bad = []
    for n in (1, 2):
        for k in range(-8, 9):
            for i in range(n + 1):
                if bott.line_dim(n, i, k) != bott.line_dim(n, n - i, -k - n - 1):
                    bad.append((n, k, i))
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 1.0
    report(2, "line-bundle duality holds exactly on the full grid", ok, f"{elapsed:.2f}s")
    assert not bad and elapsed < 1.0


def test_criterion_03_twist_rules_and_boundary_discrepancies():
    # the h1 twist rule holds verbatim
    for l in range(-8, 9):
        assert (bott.tangent_dim(2, 1, l) != 0) == (l == -3), l
    assert bott.tangent_dim(2, 1, -3) == 1

    # the naive h0 rule (nonzero iff l > 2) is wrong at l = 0 among others:
    # the exact section count of the tangent sheaf is 8 there
    assert bott.tangent_dim(2, 0, 0) == 8
    assert not naive_rule_h0_tangent(0)
    h0_disagreements = [
        l for l in range(-8, 9)
        if (bott.tangent_dim(2, 0, l) != 0) != naive_rule_h0_tangent(l)
    ]
    assert h0_disagreements == [-1, 0, 1, 2]

    # the naive top-cohomology rule (nonzero iff l < -3) misses the boundary
    assert bott.line_dim(2, 2, -3) == 1
    assert not naive_rule_h2_line(-3)
    h2_disagreements = [
        l for l in range(-8, 9)
        if (bott.line_dim(2, 2, l) != 0) != naive_rule_h2_line(l)
    ]
    assert h2_disagreements == [-3]

    # the discrepancies are emitted by the reporting layer, not silently fixed
    flagged = check_split_conditions(SplitBundleDegrees((2, 1, -5)))
    assert any(f.startswith("c2") for f in flagged.discrepancy_flags)
    # pair sums (0, -3, -3): the naive rule sees nothing below -3 and says
    # false, the exact dimension is 2
    boundary = check_split_conditions(SplitBundleDegrees((0, 0, -3)))
    assert any(f.startswith("c3") for f in boundary.discrepancy_flags)
    assert sufficient_l_nonsplit(-3).flags
    report(3, "twist rules reproduced; boundary discrepancies computed and flagged", True)


def brute_search(lo, hi):
    out = []
    for t in itertools.product(range(lo, hi + 1), repeat=3):
        k1, k2, k3 = t
        if k1 + k2 > 2 and k1 + k3 == -3 and k2 + k3 < -3:
            out.append(t)
    return out


def test_criterion_04_example_search():
    start = time.monotonic()
    hits = search_split_triples(-8, 8)
    triples = [tuple(h.degrees.degrees) for h in hits]
    assert triples == brute_search(-8, 8)
    assert (3, 0, -6) in triples and (4, -1, -7) in triples
    assert all(k1 + k2 != 2 for k1, k2, _ in triples)
    # the search walks k2's interval; these windows cut it at either end or
    # leave it empty
    for lo in range(-12, 6):
        for hi in range(lo, 14):
            found = [tuple(h.degrees.degrees) for h in search_split_triples(lo, hi)]
            assert found == brute_search(lo, hi), (lo, hi)

    headline = check_split_conditions(SplitBundleDegrees((3, 0, -6)))
    assert headline.direct_all
    # witnesses frozen from the Euler-characteristic oracle:
    #   h1 = 1 (single twist -3 contribution)
    #   h2 tangent side: chi(T(-6)) = 3 chi(O(-5)) - chi(O(-6)) = 8 with
    #     vanishing h0 and h1, so the dimension is 8
    #   h2 dual side: chi-based counts give 10 + 1 + 0 = 11
    assert headline.witnesses == (1, 8, 11)

    flagged = check_split_conditions(SplitBundleDegrees((2, 1, -5)))
    assert flagged.constraint_eq74
    assert not flagged.direct_conditions[1][0]
    assert flagged.discrepancy_flags
    elapsed = time.monotonic() - start
    report(4, "window search exact; witnesses (1, 8, 11); boundary triple flagged",
           elapsed < 5.0, f"{elapsed:.2f}s")
    assert elapsed < 5.0


def test_criterion_05_gamma_is_cocycle_100_randomized():
    start = time.monotonic()
    rng = random.Random(20250810)
    for case in range(100):
        degrees = SplitBundleDegrees(DEGREE_POOL[case % len(DEGREE_POOL)])
        omega = closed_slot(COV2, degrees, rng)
        t = sm.build_trivialization(COV2, degrees, 2, {2: omega})
        gamma = sm.obstruction_cocycle(t)
        check = sm.verify_gamma_cocycle(gamma, t)
        assert check["pass"], (case, degrees, check["problems"])
    elapsed = time.monotonic() - start
    report(5, "100 randomized order-2 gluings: obstruction passes verification",
           elapsed < 60.0, f"{elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_06a_torsor_strict_invariance():
    """Response of the obstruction representative to torsor shifts.

    The representative moves by the image 2-cocycle of the shift, term by
    term, so strict invariance holds exactly when that image vanishes; it
    does not vanish on every case.  For exact shifts the move is itself a
    coboundary, certified by the solver, so the class is preserved."""
    start = time.monotonic()
    rng = random.Random(4040)
    moved = 0
    for case in range(100):
        degrees = SplitBundleDegrees(DEGREE_POOL[case % len(DEGREE_POOL)])
        t = sm.build_trivialization(
            COV2, degrees, 2, {2: closed_slot(COV2, degrees, rng)}
        )
        alpha = closed_slot(COV2, degrees, rng)
        shifted = sm.act_torsor(t, alpha)
        g0 = sm.obstruction_cocycle(t)
        g1 = sm.obstruction_cocycle(shifted)
        assert (g1 - g0 - sm.pushforward_partial(alpha, t)).is_zero(), (case, degrees)
        if not (g1 - g0).is_zero():
            moved += 1
    # a collapsed obstruction map would satisfy the affine law trivially
    assert moved > 0, "no torsor shift moved the obstruction representative"

    for degrees in map(SplitBundleDegrees, DEGREE_POOL):
        spec = sm.slot_sheaf(COV2, degrees, 2)
        t = sm.build_trivialization(COV2, degrees, 2, {2: closed_slot(COV2, degrees, rng)})
        exact = cech.coboundary(cech.random_cochain(spec, 0, rng, terms=2))
        diff = sm.obstruction_cocycle(sm.act_torsor(t, exact)) - sm.obstruction_cocycle(t)
        sol, cert = cech.solve_coboundary(diff)
        assert sol is not None and cert is None, degrees
    elapsed = time.monotonic() - start
    report("6a", "torsor shifts move the obstruction representative by the image "
                 "cocycle; exact shifts preserve its class",
           True, f"{moved}/100 moved, {elapsed:.1f}s")


def test_criterion_06b_exact_shift_gives_equivalence():
    rng = random.Random(5050)
    for case in range(20):
        degrees = SplitBundleDegrees(DEGREE_POOL[case % len(DEGREE_POOL)])
        spec = sm.slot_sheaf(COV2, degrees, 2)
        t = sm.build_trivialization(COV2, degrees, 2, {2: closed_slot(COV2, degrees, rng)})
        nu = cech.random_cochain(spec, 0, rng, terms=2)
        shifted = sm.act_torsor(t, cech.coboundary(nu))
        witness = sm.equivalence_witness(t, shifted)
        assert witness is not None, (case, degrees)
    report("6b", "shifting by an exact cochain yields an equivalent gluing, "
                 "with the 0-cochain witness constructed and verified", True)


def test_criterion_07a_conjugation_invariance():
    start = time.monotonic()
    rng = random.Random(6060)
    for case in range(50):
        degrees = SplitBundleDegrees(DEGREE_POOL[case % len(DEGREE_POOL)])
        spec = sm.slot_sheaf(COV2, degrees, 2)
        t = sm.build_trivialization(COV2, degrees, 2, {2: closed_slot(COV2, degrees, rng)})
        nu = cech.random_cochain(spec, 0, rng, terms=2)
        lam = sm.automorphism_from_increment(COV2, degrees, 2, nu, 2)
        conj = sm.conjugate(t, lam)
        assert sm.residuals_all_zero(sm.cocycle_residual(conj)), (case, degrees)
        diff = sm.obstruction_cocycle(conj) - sm.obstruction_cocycle(t)
        assert diff.is_zero(), (case, degrees)
    elapsed = time.monotonic() - start
    report("7a", "conjugation leaves the obstruction representative unchanged",
           True, f"{elapsed:.1f}s")


def test_criterion_07b_retruncated_conjugate_shifts_by_certified_coboundary():
    rng = random.Random(7070)
    nontrivial = 0
    for case in range(50):
        degrees = SplitBundleDegrees(DEGREE_POOL[case % len(DEGREE_POOL)])
        spec = sm.slot_sheaf(COV2, degrees, 2)
        t = sm.build_trivialization(COV2, degrees, 2, {2: closed_slot(COV2, degrees, rng)})
        nu = cech.random_cochain(spec, 0, rng, terms=2)
        lam = sm.automorphism_from_increment(COV2, degrees, 2, nu, 2)
        conj = sm.conjugate(t, lam)
        # canonical re-truncation: keep only the degree <= order coefficients
        canonical = sm.build_trivialization(
            COV2, degrees, 2, {2: sm.slot_cochain(conj, 2)}
        )
        diff = sm.obstruction_cocycle(canonical) - sm.obstruction_cocycle(t)
        sol, cert = cech.solve_coboundary(diff)
        assert sol is not None and cert is None, (case, degrees)
        if not diff.is_zero():
            nontrivial += 1
    assert nontrivial > 0
    report("7b", "canonically re-truncated conjugates shift the obstruction by "
                 "an exact coboundary, certified by the solver",
           True, f"{nontrivial}/50 nontrivial shifts")


def test_criterion_08_riemann_surface_vacuity():
    start = time.monotonic()
    rng = random.Random(8080)
    for case in range(50):
        degrees = SplitBundleDegrees(DEGREE_POOL[case % len(DEGREE_POOL)])
        order = 2 + (case % 2)
        t = sm.random_trivialization(COV1, degrees, order, rng)
        ext = sm.extend_by_zero(t)
        assert sm.residuals_all_zero(sm.cocycle_residual(ext)), (case, degrees)
        assert all(
            sm.difference_is_zero(d) for d in sm.inverse_residual(ext).values()
        ), (case, degrees)
    elapsed = time.monotonic() - start
    report(8, "50 randomized gluings over the projective line extend freely",
           elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_09_end_to_end_certificate():
    start = time.monotonic()
    rep = pipeline_obstructed_cp2((3, 0, -6))
    elapsed = time.monotonic() - start
    # a definitive exact verdict must be reached
    assert rep["status"] in ("obstructed-exhibited", "unobstructed")
    assert rep["exact"] is True
    assert rep["h1_dim"] == 1
    assert rep["h2_dim"] == 11
    (cls,) = rep["classes"]
    assert len(cls["class_coordinates"]) == 11
    # the comparison with the predicted nonzero image is part of the report
    assert rep["prediction"] == "nonzero"
    assert "agrees_with_prediction" in rep
    # exact outcome: the image class vanishes identically, so the verdict
    # disagrees with the prediction and is reported as such
    assert cls["class_coordinates"] == ["0"] * 11
    assert rep["status"] == "unobstructed"
    assert rep["agrees_with_prediction"] is False
    # the same machinery exhibits a genuinely obstructed thickening nearby
    rep2 = pipeline_obstructed_cp2((4, -1, -7))
    assert rep2["status"] == "obstructed-exhibited"
    nonzero = [c for c in rep2["classes"][0]["class_coordinates"] if c != "0"]
    assert nonzero == ["-1"]
    ok = elapsed < 120.0
    report(9, "end-to-end certificate definitive and exact; verdict zero, "
              "disagreement with the predicted nonzero image emitted",
           ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_10_sufficient_twist_threshold():
    start = time.monotonic()
    cert = sufficient_l_nonsplit(-3)
    elapsed = time.monotonic() - start
    assert cert.threshold == -2
    assert len(cert.parts) == 3
    by_cond = {p["condition"]: p for p in cert.parts}
    assert by_cond[1]["l_independent"] and by_cond[1]["witness"] == 1
    assert by_cond[2]["threshold"] == -2 and by_cond[2]["witness_at_threshold"] == 3
    assert by_cond[3]["l_independent"] and by_cond[3]["witness"] == 1
    ok = elapsed < 1.0
    report(10, "decomposable-case threshold -2 with three-part certificate",
           ok, f"{elapsed:.2f}s")
    assert ok


def _rand_poly(rng, dim=2, terms=2, span=2):
    out = LaurentPoly.zero(dim)
    for _ in range(terms):
        exps = tuple(rng.randint(-span, span) for _ in range(dim))
        out = out + LaurentPoly.monomial(dim, exps, Fraction(rng.randint(-3, 3) or 1))
    return out


def _rand_grassmann(rng, p=2, q=3, parity=None):
    out = GrassmannElement.zero(p, q)
    for _ in range(2):
        size = rng.randrange(q + 1)
        if parity is not None:
            size = size - (size % 2) if parity == 0 else size | 1
            if size > q:
                continue
        idx = tuple(sorted(rng.sample(range(1, q + 1), size)))
        out = out + GrassmannElement(p, q, {idx: _rand_poly(rng)})
    return out


def test_criterion_11_algebra_law_suites():
    start = time.monotonic()
    rng = random.Random(11011)

    for _ in range(1000):
        a, b, c = (_rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        v = rng.randrange(2)
        assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)

    for _ in range(1000):
        pa, pb = rng.choice([0, 1]), rng.choice([0, 1])
        x, y = _rand_grassmann(rng, parity=pa), _rand_grassmann(rng, parity=pb)
        z = _rand_grassmann(rng)
        assert x.wedge(y).wedge(z) == x.wedge(y.wedge(z))
        rhs = y.wedge(x)
        assert x.wedge(y) == (rhs if (pa * pb) % 2 == 0 else -rhs)
        m = rng.randrange(4)
        assert x.wedge(y).truncate(m) == x.truncate(m).wedge(y.truncate(m)).truncate(m)

    specs = [
        cech.line_sum(COV2, [0, -3, 2]),
        cech.tangent_twisted(COV2, [3, -3, -6]),
        cech.oneform_twisted(COV2, [1, -2]),
        cech.line_sum(COV1, [-2, 1]),
    ]
    for i in range(1000):
        spec = specs[i % len(specs)]
        c0 = cech.random_cochain(spec, i % 2, rng, terms=1)
        assert cech.coboundary(cech.coboundary(c0)).is_zero()

    elapsed = time.monotonic() - start
    ok = elapsed < 30.0
    report(11, "ring, wedge, derivation, truncation and coboundary laws, "
               "1000 randomized cases each", ok, f"{elapsed:.1f}s")
    assert ok
