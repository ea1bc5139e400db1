import itertools
import json
import random
from fractions import Fraction
from operator import add

import pytest

from superthick import cech, cli, supermap as sm
from superthick.bott import SplitBundleDegrees
from superthick.exterior import sort_index_tuple
from test_acceptance import DEGREE_POOL
from test_pipeline import harmonic_h2_part
from test_transport import reference_reframe

COV2 = cech.standard_cover(2)
COV1 = cech.standard_cover(1)
DEG = SplitBundleDegrees((3, 0, -6))


def split2(order=2, degrees=DEG, cover=COV2):
    return sm.normalize_inverses(sm.split_trivialization(cover, degrees, order))


def closed_slot2(rng, degrees=DEG, cover=COV2, harmonic=None):
    spec = sm.slot_sheaf(cover, degrees, 2)
    return cech.random_closed_cochain(spec, rng, harmonic=harmonic)


def generator(degrees=DEG, cover=COV2):
    spec = sm.slot_sheaf(cover, degrees, 2)
    return cech.h1_representatives(spec).representatives[1][0]


def word_part(comp, word):
    """The theta_word coefficient ``{exps: coef}`` of a component."""
    return {e: c for (w, e), c in comp.items() if w == word}


def test_split_model_is_strict_cocycle():
    for cover in (COV1, COV2):
        for order in (1, 2, 3):
            t = sm.split_trivialization(cover, DEG, order)
            assert sm.residuals_all_zero(sm.cocycle_residual(t))
            assert all(
                sm.difference_is_zero(d) for d in sm.inverse_residual(t).values()
            )


def test_compose_reproduces_chart_and_bundle_transitions():
    t = split2(order=2)
    comp = sm.compose(t.maps[(1, 2)], t.maps[(0, 1)], 2)
    direct = t.maps[(0, 2)]
    assert sm.difference_is_zero(sm.map_difference(comp, direct.truncate(2)))


def test_compose_associativity_randomized():
    rng = random.Random(0)
    spec = sm.slot_sheaf(COV2, DEG, 2)
    for _ in range(5):
        omega = cech.coboundary(cech.random_cochain(spec, 0, rng, terms=2))
        t = sm.build_trivialization(COV2, DEG, 2, {2: omega})
        a, b, c = t.maps[(2, 1)], t.maps[(1, 2)], t.maps[(0, 1)]
        for order in (2, 3):
            lhs = sm.compose(sm.compose(a, b, order), c, order)
            rhs = sm.compose(a, sm.compose(b, c, order), order)
            assert sm.difference_is_zero(sm.map_difference(lhs, rhs))


def test_supermap_constructor_checks_what_internal_results_skip():
    one = ((), (0, 0))
    for even, odd, message in (
        ({((1,), (0, 0)): 1}, {((1,), (0, 0)): 1}, "even component with odd terms"),
        ({one: 1}, {((1, 2), (0, 0)): 1}, "odd component with even terms"),
        ({one: 1}, {((4,), (0, 0)): 1}, "out of range"),
        ({one: 1, ((2, 1), (0, 0)): 1}, {((1,), (0, 0)): 1}, "strictly increasing"),
        ({((), (0,)): 1}, {((1,), (0, 0)): 1}, "wrong length"),
    ):
        with pytest.raises(ValueError, match=message):
            sm.SuperMap(0, 1, (even, even), (odd, odd, odd))
    # zeros vanish and integral fractions become ints
    got = sm.SuperMap(0, 0, ({((), (1,)): Fraction(4, 2), ((1, 2), (0,)): 0},),
                      ({((1,), (0,)): 1}, {((2,), (0,)): 1}))
    assert got.even == ({((), (1,)): 2},) and type(got.even[0][((), (1,))]) is int
    # the maps this module computes pass the same checks unchanged
    rng = random.Random(8)
    t = sm.build_trivialization(COV2, DEG, 2, {2: closed_slot2(rng)})
    lam = sm.automorphism_from_increment(
        COV2, DEG, 2, cech.random_cochain(sm.slot_sheaf(COV2, DEG, 2), 0, rng, terms=2), 2)
    made = [*t.maps.values(), sm.compose(t.maps[(1, 2)], t.maps[(0, 1)], 3),
            sm.invert(lam[0], 3), sm.identity_map(2, 2, 3)]
    for m in made:
        assert sm.SuperMap(m.source, m.target, m.even, m.odd) == m
    with pytest.raises(ValueError, match="not composable"):
        sm.compose(sm.identity_map(0, 2, 2), sm.identity_map(0, 2, 3), 2)


def test_taylor_cross_terms_on_p1():
    # adding f = c x^-1 th1 th2 to y = x^-1 forces the inverse map to carry
    # the hand-expanded correction of (x^-1 + c x^-1 th1 th2)^(-1)
    degrees = SplitBundleDegrees((1, -1, 0))
    spec = sm.slot_sheaf(COV1, degrees, 2)
    # wedge pair (1, 2) summand, single tangent component
    omega = cech.Cochain(spec, 1, {cech.BasisSlot((0, 1), 0, 0, (-1,)): Fraction(5, 7)})
    t = sm.build_trivialization(COV1, degrees, 2, {2: omega})
    fwd = t.maps[(0, 1)]
    # the inserted slot sits in the chart-1 frame: jacobian of y = x^-1
    assert word_part(fwd.even[0], (1, 2)) == {(-3,): Fraction(-5, 7)}
    rev = t.maps[(1, 0)]
    comp = sm.compose(rev, fwd, 3)
    ident = sm.identity_map(0, 1, 3)
    assert sm.difference_is_zero(sm.map_difference(comp, ident))
    # hand expansion: x = y^-1 + c' y^-1 eta1 eta2 must invert y = x^-1 + ...
    y_of_x = fwd.even[0]
    x_of_y = rev.even[0]
    c_fwd = word_part(y_of_x, (1, 2))
    c_rev = word_part(x_of_y, (1, 2))
    # composing the degree-2 parts: c_rev transported plus c_fwd jacobian term
    # cancels; equivalently c_rev = -J(f10) c_fwd zeta-transported, checked
    # numerically through the composition above; spot-check the shape:
    assert c_fwd and c_rev


def test_build_from_closed_increment_is_trivialisation():
    rng = random.Random(1)
    for seed in range(5):
        omega = closed_slot2(random.Random(seed))
        t = sm.build_trivialization(COV2, DEG, 2, {2: omega})
        assert sm.residuals_all_zero(sm.cocycle_residual(t))
        assert all(
            sm.difference_is_zero(d) for d in sm.inverse_residual(t).values()
        )
        assert (sm.slot_cochain(t, 2) - omega).is_zero()


def test_nonclosed_increment_fails_cocycle():
    rng = random.Random(2)
    spec = sm.slot_sheaf(COV2, DEG, 2)
    phi = cech.random_cochain(spec, 1, rng, terms=2)
    if cech.coboundary(phi).is_zero():
        pytest.skip("random cochain accidentally closed")
    t = sm.build_trivialization(COV2, DEG, 2, {2: phi})
    assert not sm.residuals_all_zero(sm.cocycle_residual(t))


def test_corrupted_map_reported_at_its_triple():
    t = split2()
    bad = t.maps[(0, 1)]
    even = list(bad.even)
    assert word_part(even[0], (1, 2)) == {}
    even[0] = {**even[0], ((1, 2), (0, 0)): 1}  # plus theta_1 theta_2
    maps = {**t.maps, (0, 1): sm.SuperMap(0, 1, tuple(even), bad.odd)}
    res = sm.cocycle_residual(sm.Trivialization(COV2, DEG, 2, maps))
    assert not sm.difference_is_zero(res[(0, 1, 2)])


def test_gamma_split_model_zero():
    for order in (1, 2):
        t = split2(order=order)
        assert sm.obstruction_cocycle(t).is_zero()


def test_gamma_vacuous_on_p1():
    rng = random.Random(3)
    t = sm.random_trivialization(COV1, DEG, 2, rng)
    assert sm.cocycle_residual(t) == {}
    gamma = sm.obstruction_cocycle(t)
    assert gamma.is_zero()
    assert sm.verify_gamma_cocycle(gamma, t)["pass"]


def test_zero_gamma_verifies_on_p2():
    t = split2()
    gamma = sm.obstruction_cocycle(t)
    assert gamma.is_zero()
    assert sm.verify_gamma_cocycle(gamma, t)["pass"]


def test_gamma_parity_and_sheaf():
    t = split2()
    gamma = sm.obstruction_cocycle(t)
    spec = gamma.sheaf
    # order 2: odd target, wedge-cube tensor dual summands with twist k - k_a
    assert spec.kind == "line_sum"
    assert spec.twists == tuple(DEG.total - ka for ka in DEG.degrees)
    assert all(len(I) == 3 for (I, a) in spec.labels)


def test_gamma_is_cocycle_randomized():
    for seed in range(8):
        rng = random.Random(100 + seed)
        omega = closed_slot2(rng)
        t = sm.build_trivialization(COV2, DEG, 2, {2: omega})
        gamma = sm.obstruction_cocycle(t)
        check = sm.verify_gamma_cocycle(gamma, t)
        assert check["pass"], check["problems"]


def test_gamma_rejects_invalid_input():
    rng = random.Random(4)
    spec = sm.slot_sheaf(COV2, DEG, 2)
    phi = cech.random_cochain(spec, 1, rng, terms=1)
    t = sm.build_trivialization(COV2, DEG, 2, {2: phi})
    if sm.residuals_all_zero(sm.cocycle_residual(t)):
        pytest.skip("random cochain accidentally closed")
    with pytest.raises(sm.CocycleViolation):
        sm.obstruction_cocycle(t)


def test_hand_corrupted_gamma_fails_verification():
    # one corrupted slot of the sorted triple disagrees with the recomputed
    # defect on every ordered triple, compared as chart-i slot data
    triples = list(itertools.permutations(COV2.charts, 3))
    slots = [cech.BasisSlot((0, 1, 2), 0, 0, (0, 0)), cech.BasisSlot((0, 1, 2), 1, 0, (1, -2))]
    for degrees in [(4, -1, -7), (3, 0, -6), (2, 1, -5)]:
        degrees = SplitBundleDegrees(degrees)
        t = sm.build_trivialization(COV2, degrees, 2,
                                    {2: closed_slot2(random.Random(5), degrees)})
        gamma = sm.obstruction_cocycle(t)
        assert sm.verify_gamma_cocycle(gamma, t)["pass"]
        for slot in slots:
            check = sm.verify_gamma_cocycle(gamma + cech.Cochain(gamma.sheaf, 2, {slot: 1}), t)
            assert not check["pass"]
            assert [problem[0] for problem in check["problems"]] == triples, (degrees, slot)


def test_verification_moves_each_sorted_value_once_per_start_chart(monkeypatch):
    # represent is linear, so each ordered triple's stored value is the sorted
    # value moved to its first chart once, then signed: 3 moves for the 6
    # ordered triples, each equal to moving the signed value
    degrees = SplitBundleDegrees((4, -1, -7))
    t = sm.build_trivialization(COV2, degrees, 2, {2: closed_slot2(random.Random(5), degrees)})
    gamma = sm.obstruction_cocycle(t)
    bad = gamma + cech.Cochain(gamma.sheaf, 2, {cech.BasisSlot((0, 1, 2), 1, 0, (1, -2)): 1})
    represent, moves = cech.represent, []

    def counting(spec, data, a, b):
        moves.append((a, b))
        return represent(spec, data, a, b)

    monkeypatch.setattr(cech, "represent", counting)
    check = sm.verify_gamma_cocycle(bad, t)
    monkeypatch.undo()
    assert sorted(moves) == [(0, 0), (0, 1), (0, 2)]
    assert [problem[0] for problem in check["problems"]] == list(
        itertools.permutations(COV2.charts, 3))
    for triple, _, stored in check["problems"]:
        sign = sort_index_tuple(triple)[1]
        ref = represent(bad.sheaf, {slot: sign * c for slot, c in bad.on((0, 1, 2)).items()},
                        0, triple[0])
        assert [(key, c, type(c)) for key, c in stored.items()] == [
            (key, c, type(c)) for key, c in ref.items()]


def test_pushforward_zero_and_linearity():
    t = split2()
    spec = sm.slot_sheaf(COV2, DEG, 2)
    zero = cech.Cochain(spec, 1)
    assert sm.pushforward_partial(zero, t).is_zero()
    rng = random.Random(6)
    a = closed_slot2(rng)
    b = closed_slot2(rng)
    ya = sm.pushforward_partial(a, t)
    yb = sm.pushforward_partial(b, t)
    yab = sm.pushforward_partial(a + b, t)
    assert (yab - ya - yb).is_zero()


def test_pushforward_equals_composition_defect():
    for seed in range(5):
        rng = random.Random(200 + seed)
        omega = closed_slot2(rng)
        t = sm.build_trivialization(COV2, DEG, 2, {2: omega})
        gamma = sm.obstruction_cocycle(t)
        pushed = sm.pushforward_partial(omega, t)
        assert (pushed - gamma).is_zero()


def reference_pushforward_partial(omega, t):
    """The image formula term by term, as ``pushforward_partial`` evaluated
    it before it became -DS_jk(S_ij) w_ij: on a sorted triple,
        Y_a = -f^(mu|I) (d zeta_(jk,a) / d y^mu) zeta_(ij,a) theta_(I a),
    with f the increment omega_ij in the frame of the map i -> j, the
    derivative pulled back to chart i and times zeta_(ij,a) by one
    line-bundle move j -> i, and the result moved to the slot frame."""
    cover, degrees = t.cover, t.degrees
    expected = sm.slot_sheaf(cover, degrees, 2)
    spec = sm.slot_sheaf(cover, degrees, 3)
    terms = {}
    for (i, j, k) in cover.triples:
        vecs = reference_reframe(cover, degrees, expected, omega.on((i, j)), i, j, True)
        line = cover.transport(cech.LINE_SUM, k, j, 0)[1]
        raw = {}
        for (s, mu, e), c in vecs.items():
            word = expected.labels[s]
            for a, k_a in enumerate(degrees.degrees, 1):
                z = [k_a * x for x in line]
                dz = z[mu]
                if a in word or not dz:
                    continue
                z[mu] -= 1
                (_, offset, _), = cech._move(cover, cech.LINE_SUM, j, i, 0, k_a, z)
                target, sign = sort_index_tuple(word + (a,))
                key = (spec.labels.index((target, a)), 0, tuple(map(add, e, offset)))
                raw[key] = raw.get(key, 0) - sign * dz * c
        data = reference_reframe(cover, degrees, spec, raw, i, k, False)
        terms.update({((i, j, k), *key): c for key, c in data.items()})
    return cech.Cochain(spec, 2, terms)


RANK4_DEGREES = [(4, -1, -7, 2), (3, 0, -6, 1), (5, -2, -8, -1)]


@pytest.mark.parametrize("degrees", DEGREE_POOL + RANK4_DEGREES)
def test_pushforward_matches_reference_formula_term_by_term(degrees):
    # random closed increments with harmonic parts, so that the classes of
    # H^1 are hit, not only coboundaries
    degrees = SplitBundleDegrees(degrees)
    spec = sm.slot_sheaf(COV2, degrees, 2)
    harmonic = cech.h1_representatives(spec).representatives[1]
    nonzero = 0
    for seed in range(6):
        omega = cech.random_closed_cochain(spec, random.Random(seed), harmonic=harmonic, terms=2)
        t = sm.build_trivialization(COV2, degrees, 2, {2: omega})
        pushed = sm.pushforward_partial(omega, t)
        assert pushed.terms == reference_pushforward_partial(omega, t).terms, (degrees, seed)
        assert pushed.terms == sm.obstruction_cocycle(t).terms, (degrees, seed)
        nonzero += not pushed.is_zero()
    # with every degree 0 the frame changes zeta are constant: the image is 0
    assert nonzero or not any(degrees.degrees)


def test_pushforward_applies_only_the_odd_moves(monkeypatch):
    # the image reads the odd components of DS_jk w, so only they are built:
    # _tangent applies the split record's odd moves to q accumulators
    degrees = SplitBundleDegrees((4, -1, -7))
    omega = generator(degrees)
    t = sm.build_trivialization(COV2, degrees, 2, {2: omega})
    sizes = []
    tangent = sm._tangent

    def counted(acc, comps, moves, order):
        tangent(acc, comps, moves, order)
        assert any(moves is sm._split_record(COV2, degrees, *pair)[5]
                   for pair in itertools.permutations(COV2.charts, 2))
        sizes.append(len(acc))

    monkeypatch.setattr(sm, "_tangent", counted)
    pushed = sm.pushforward_partial(omega, t)
    assert sizes == [t.q] * len(COV2.triples)
    monkeypatch.undo()
    assert not pushed.is_zero() and pushed == sm.obstruction_cocycle(t)


def test_pushforward_of_coboundary_is_exact():
    rng = random.Random(7)
    t = split2()
    spec = sm.slot_sheaf(COV2, DEG, 2)
    nu = cech.random_cochain(spec, 0, rng, terms=2)
    y = sm.pushforward_partial(cech.coboundary(nu), t)
    sol, cert = cech.solve_coboundary(y)
    assert sol is not None and cert is None


def test_pushforward_respects_cohomology_classes():
    rng = random.Random(8)
    t = split2()
    omega = generator()
    shifted = omega + cech.coboundary(
        cech.random_cochain(sm.slot_sheaf(COV2, DEG, 2), 0, rng, terms=1)
    )
    ya = sm.pushforward_partial(omega, t)
    yb = sm.pushforward_partial(shifted, t)
    sol, cert = cech.solve_coboundary(yb - ya)
    assert sol is not None and cert is None
    assert harmonic_h2_part(yb - ya) == []


def test_pushforward_rejects_nonclosed():
    t = split2()
    rng = random.Random(9)
    spec = sm.slot_sheaf(COV2, DEG, 2)
    phi = cech.random_cochain(spec, 1, rng, terms=2)
    if cech.coboundary(phi).is_zero():
        pytest.skip("accidentally closed")
    with pytest.raises(cech.NotACocycleError):
        sm.pushforward_partial(phi, t)


def test_generator_class_is_zero_for_3_0_m6():
    omega = generator(DEG)
    t = sm.build_trivialization(COV2, DEG, 2, {2: omega})
    gamma = sm.obstruction_cocycle(t)
    assert gamma.is_zero()


def test_generator_class_is_nonzero_for_4_m1_m7():
    degrees = SplitBundleDegrees((4, -1, -7))
    omega = generator(degrees)
    t = sm.build_trivialization(COV2, degrees, 2, {2: omega})
    gamma = sm.obstruction_cocycle(t)
    harm = harmonic_h2_part(gamma)
    assert len(harm) == 1
    summand, char, coef = harm[0]
    assert char == (-1, -1, -1)
    assert gamma.sheaf.twists[summand] == -3
    assert abs(coef) == 1
    sol, cert = cech.solve_coboundary(gamma)
    assert sol is None and cert


def test_act_torsor_identity_and_validity():
    t = split2()
    spec = sm.slot_sheaf(COV2, DEG, 2)
    same = sm.act_torsor(t, cech.Cochain(spec, 1))
    for key in t.maps:
        assert sm.difference_is_zero(sm.map_difference(same.maps[key], t.maps[key]))
    rng = random.Random(10)
    alpha = closed_slot2(rng)
    shifted = sm.act_torsor(t, alpha)
    assert sm.residuals_all_zero(sm.cocycle_residual(shifted))
    assert (sm.slot_cochain(shifted, 2) - alpha).is_zero()


def test_act_torsor_rejects_nonclosed():
    t = split2()
    rng = random.Random(11)
    spec = sm.slot_sheaf(COV2, DEG, 2)
    phi = cech.random_cochain(spec, 1, rng, terms=2)
    if cech.coboundary(phi).is_zero():
        pytest.skip("accidentally closed")
    with pytest.raises(cech.NotACocycleError):
        sm.act_torsor(t, phi)


def test_torsor_affine_law():
    # the obstruction representative moves exactly by the image of the shift
    for seed in range(5):
        rng = random.Random(300 + seed)
        base_slot = closed_slot2(rng)
        t = sm.build_trivialization(COV2, DEG, 2, {2: base_slot})
        alpha = closed_slot2(rng)
        shifted = sm.act_torsor(t, alpha)
        g0 = sm.obstruction_cocycle(t)
        g1 = sm.obstruction_cocycle(shifted)
        assert (g1 - g0 - sm.pushforward_partial(alpha, t)).is_zero()


def test_torsor_freeness_both_directions():
    t = split2()
    rng = random.Random(12)
    spec = sm.slot_sheaf(COV2, DEG, 2)
    nu = cech.random_cochain(spec, 0, rng, terms=2)
    exact = cech.coboundary(nu)
    t_exact = sm.act_torsor(t, exact)
    assert sm.equivalence_witness(t, t_exact) is not None
    gen = generator()
    t_gen = sm.act_torsor(t, gen)
    assert sm.equivalence_witness(t, t_gen) is None


def test_equivalence_witness_fails_on_a_conjugate_that_differs_to_the_order(monkeypatch):
    # the witness checks its conjugate against the target mod J^(m+1): one
    # term changed at theta-degree m on one map fails it, a term above the
    # order or an explicit zero coefficient passes
    t = split2()
    nu = cech.random_cochain(sm.slot_sheaf(COV2, DEG, 2), 0, random.Random(12), terms=2)
    shifted = sm.act_torsor(t, cech.coboundary(nu))
    conjugate = sm.conjugate

    def changed(parity, word, value=Fraction(1, 3), exps=(1, -2)):
        def conj(t1, lam):
            out = conjugate(t1, lam)
            old = out.maps[1, 2]
            comps = [dict(g) for g in old.even + old.odd]
            index = 0 if parity == 0 else old.p
            assert value or (word, exps) not in comps[index]
            comps[index][word, exps] = comps[index].get((word, exps), 0) + value
            maps = dict(out.maps)
            # unchecked, as the module builds its results, so a zero stays
            maps[1, 2] = sm._map(old.source, old.target, tuple(comps[:old.p]),
                                 tuple(comps[old.p:]))
            return sm.Trivialization(out.cover, out.degrees, out.order, maps)
        return conj

    monkeypatch.setattr(sm, "conjugate", changed(0, (1, 2)))
    with pytest.raises(AssertionError, match="equivalence witness failed verification"):
        sm.equivalence_witness(t, shifted)
    monkeypatch.setattr(sm, "conjugate", changed(1, (1, 2, 3)))
    assert sm.equivalence_witness(t, shifted) is not None
    # an explicit zero coefficient at theta-degree m changes no map
    monkeypatch.setattr(sm, "conjugate", changed(0, (1, 2), 0, (7, -9)))
    assert sm.equivalence_witness(t, shifted) is not None


def test_conjugate_by_identity():
    t = split2()
    lam = {c: sm.identity_map(c, 2, 3) for c in COV2.charts}
    same = sm.conjugate(t, lam)
    for key in t.maps:
        diff = sm.map_difference(
            same.maps[key].truncate(3), t.maps[key].truncate(3)
        )
        assert sm.difference_is_zero(diff)


def test_conjugate_preserves_gamma_exactly():
    for seed in range(5):
        rng = random.Random(400 + seed)
        omega = closed_slot2(rng)
        t = sm.build_trivialization(COV2, DEG, 2, {2: omega})
        g0 = sm.obstruction_cocycle(t)
        spec = sm.slot_sheaf(COV2, DEG, 2)
        nu = cech.random_cochain(spec, 0, rng, terms=2)
        lam = sm.automorphism_from_increment(COV2, DEG, 2, nu, 2)
        tc = sm.conjugate(t, lam)
        assert sm.residuals_all_zero(sm.cocycle_residual(tc))
        g1 = sm.obstruction_cocycle(tc)
        assert (g1 - g0).is_zero()
        # the conjugate's top slot moved by the coboundary of nu
        shift = sm.slot_cochain(tc, 2) - sm.slot_cochain(t, 2)
        assert (shift - cech.coboundary(nu)).is_zero()


def test_conjugate_gamma_difference_certified():
    rng = random.Random(13)
    omega = closed_slot2(rng)
    t = sm.build_trivialization(COV2, DEG, 2, {2: omega})
    spec = sm.slot_sheaf(COV2, DEG, 2)
    nu = cech.random_cochain(spec, 0, rng, terms=2)
    lam = sm.automorphism_from_increment(COV2, DEG, 2, nu, 2)
    tc = sm.conjugate(t, lam)
    diff = sm.obstruction_cocycle(tc) - sm.obstruction_cocycle(t)
    sol, cert = cech.solve_coboundary(diff)
    assert sol is not None and cert is None


def test_conjugate_rejects_non_admissible():
    t = split2()
    lam = {c: sm.identity_map(c, 2, 3) for c in COV2.charts}
    bad = lam[0]
    odd = list(bad.odd)
    odd[0] = {**odd[0], ((2,), (0, 0)): 1}  # plus theta_2: a degree-1 deviation
    lam[0] = sm.SuperMap(0, 0, bad.even, tuple(odd))
    with pytest.raises(ValueError):
        sm.conjugate(t, lam)
    # a degree-2 slot is beyond an order-1 gluing
    nu = cech.random_cochain(sm.slot_sheaf(COV2, DEG, 2), 0, random.Random(16), terms=2)
    with pytest.raises(ValueError, match="outside 2..order"):
        sm.automorphism_from_increment(COV2, DEG, 1, nu, 2)


def test_reversed_maps_do_not_depend_on_their_seed():
    # normalize_inverses makes every reversed map as the exact inverse mod
    # J^(order+2), which is unique: seeding it with the built maps or with the
    # split model's gives the same maps.  Order-2 data takes the first-order
    # formula, which reads no seed; order-3 rank-4 data composes from the seed
    rng = random.Random(15)
    cases = [(SplitBundleDegrees(d), 2) for d in DEGREE_POOL]
    for degrees, order in cases + [(SplitBundleDegrees((2, 1, -1, -3)), 3)]:
        omega = closed_slot2(rng, degrees)
        t = sm.build_trivialization(COV2, degrees, order, {2: omega})
        split = sm.split_trivialization(COV2, degrees, order)
        reseeded = {**t.maps, **{(j, i): split.maps[(j, i)] for i, j in COV2.pairs}}
        assert reseeded != t.maps, degrees
        other = sm.normalize_inverses(sm.Trivialization(COV2, degrees, order, reseeded))
        assert sm.normalize_inverses(t).maps == other.maps == t.maps, degrees


def rand_component(rng, p, q, parity):
    """A flat component of one parity: up to four terms with negative
    exponents and Fraction coefficients."""
    comp = {}
    for _ in range(rng.randint(0, 4)):
        word = tuple(sorted(rng.sample(range(1, q + 1), rng.randrange(parity, q + 1, 2))))
        exps = tuple(rng.randint(-3, 3) for _ in range(p))
        comp[(word, exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return comp


def wedge(x, y, order):
    """x wedge y on components, through the kernel's product of term lists."""
    terms = sm._product([(*key, v) for key, v in x.items()],
                        [(*key, v) for key, v in y.items()], order)
    return {(w, e): v for w, e, v in terms}


def test_flat_algebra_laws():
    # the component algebra under compose and the first-order gluing maps:
    # associativity, the graded-commutativity sign, distributivity over _add,
    # truncation as a ring map and a - a == 0, on seeded homogeneous components
    rng = random.Random(1616)
    for _ in range(400):
        p, q = rng.choice([(1, 3), (2, 3), (2, 4), (1, 5)])
        pa, pb = rng.randrange(2), rng.randrange(2)
        a, b, d = (rand_component(rng, p, q, parity) for parity in (pa, pb, pb))
        c = rand_component(rng, p, q, rng.randrange(2))
        m = rng.randrange(q + 1)
        assert wedge(wedge(a, b, m), c, m) == wedge(a, wedge(b, c, m), m)
        sign = -1 if pa and pb else 1
        assert wedge(a, b, q) == {key: sign * v for key, v in wedge(b, a, q).items()}
        assert wedge(a, sm._add(b, d), q) == sm._add(wedge(a, b, q), wedge(a, d, q))
        assert sm._truncate(wedge(a, b, q), m) == wedge(sm._truncate(a, m), sm._truncate(b, m), m)
        assert sm._add(a, a, -1) == {}
        assert sm._add(sm._add(a, b), b, -1) == a


def test_p1_extensions_always_unobstructed():
    for seed in range(10):
        rng = random.Random(500 + seed)
        t = sm.random_trivialization(COV1, DEG, 2, rng)
        ext = sm.extend_by_zero(t)
        assert sm.residuals_all_zero(sm.cocycle_residual(ext))
        assert all(
            sm.difference_is_zero(d) for d in sm.inverse_residual(ext).values()
        )


def write_thickening(t, path):
    """Write a thickening file the one way the package writes JSON: the
    canonical text of ``trivialization_to_json`` and a newline."""
    path.write_text(cli.canonical_json(sm.trivialization_to_json(t)) + "\n")


def test_thickening_file_roundtrip(tmp_path):
    rng = random.Random(14)
    omega = closed_slot2(rng)
    t = sm.build_trivialization(COV2, DEG, 2, {2: omega})
    path = tmp_path / "thickening.json"
    write_thickening(t, path)
    data = sm.trivialization_to_json(t)
    assert path.read_text() == json.dumps(data, sort_keys=True, indent=1) + "\n"
    back = sm.read_trivialization(str(path))
    assert back.order == t.order and back.degrees == t.degrees
    for key in t.maps:
        assert sm.difference_is_zero(sm.map_difference(back.maps[key], t.maps[key]))
    # canonical formatting: identical bytes on rewrite
    first = path.read_bytes()
    write_thickening(back, path)
    assert path.read_bytes() == first


def reference_truncate(m, order):
    """The map mod J^(order+1), every component rebuilt."""
    return sm._map(m.source, m.target, tuple(sm._truncate(g, order) for g in m.even),
                   tuple(sm._truncate(g, order) for g in m.odd))


def test_truncate_returns_the_map_when_nothing_is_cut():
    kept = cut = 0
    for seed, degrees in enumerate(DEGREE_POOL):
        t = sm.random_trivialization(COV2, SplitBundleDegrees(degrees), 2, random.Random(seed))
        for m in t.maps.values():
            for order in range(5):
                got, want = m.truncate(order), reference_truncate(m, order)
                assert got == want
                if want == m:
                    assert got is m
                    kept += 1
                else:
                    assert got is not m
                    cut += 1
    assert kept > 0 and cut > 0
