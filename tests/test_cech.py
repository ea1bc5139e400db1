import collections
import itertools
import random
from fractions import Fraction

import pytest

from superthick import bott, cech, linalg, supermap
from superthick.bott import SplitBundleDegrees
from superthick.laurent import ChartMap, LaurentPoly
from superthick.obstruct import search_split_triples


def test_standard_cover_nerve():
    c1 = cech.standard_cover(1)
    assert len(c1.charts) == 2 and len(c1.pairs) == 1 and len(c1.triples) == 0
    c2 = cech.standard_cover(2)
    assert len(c2.charts) == 3 and len(c2.pairs) == 3 and len(c2.triples) == 1
    with pytest.raises(ValueError):
        cech.standard_cover(3)


def after(f, g):
    """f ∘ g: the components of f pulled back along g."""
    return ChartMap([g.apply(c) for c in f.components])


def test_transitions_are_monomial_cocycles():
    c1 = cech.standard_cover(1)
    f01 = c1.transition(0, 1)
    assert f01.components[0] == LaurentPoly.monomial(1, (-1,))
    assert after(c1.transition(1, 0), f01) == ChartMap.identity(1)
    c2 = cech.standard_cover(2)
    for i, j, k in [(0, 1, 2), (2, 1, 0), (1, 0, 2)]:
        lhs = after(c2.transition(j, k), c2.transition(i, j))
        assert lhs == c2.transition(i, k)
    for i, j in c2.pairs:
        assert after(c2.transition(j, i), c2.transition(i, j)) == ChartMap.identity(2)


def test_untwisted_coboundary_of_constants():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [0])
    terms = {cech.BasisSlot((c,), 0, 0, (0, 0)): c + 1 for c in cov.charts}
    nu = cech.Cochain(spec, 0, terms)
    d = cech.coboundary(nu)
    for (i, j) in cov.pairs:
        assert d.section((i, j), i)[0][0] == LaurentPoly.const(2, j - i)


def test_alternating_lookup():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [1])
    rng = random.Random(0)
    c = cech.random_cochain(spec, 1, rng, terms=2)
    v = c.section((1, 0), 0)
    assert v == tuple(tuple(-comp for comp in summand) for summand in c.section((0, 1), 0))
    assert not c.is_zero() and v != c.section((0, 1), 0)
    assert all(comp.is_zero() for summand in c.section((1, 1), 1) for comp in summand)


@pytest.mark.parametrize("kind,twists", [
    ("line_sum", (0, -3, 2)),
    ("tangent_twisted", (3, -3, -6)),
    ("oneform_twisted", (1, -2)),
])
def test_delta_squared_zero(kind, twists):
    cov = cech.standard_cover(2)
    spec = cech.SheafSpec(cov, kind, twists)
    rng = random.Random(1)
    for _ in range(20):
        nu = cech.random_cochain(spec, 0, rng, terms=2)
        assert cech.coboundary(cech.coboundary(nu)).is_zero()
        phi = cech.random_cochain(spec, 1, rng, terms=2)
        assert cech.coboundary(cech.coboundary(phi)).is_zero()


def test_coboundary_preserves_characters():
    cov = cech.standard_cover(2)
    spec = cech.tangent_twisted(cov, [-3, 2])
    rng = random.Random(2)
    nu = cech.random_cochain(spec, 0, rng, terms=3)
    before = set(cech.cochain_chars(nu))
    after = set(cech.cochain_chars(cech.coboundary(nu)))
    assert after <= before


def test_oracle_examples():
    assert cech.line_bundle_cohomology(1, -2, 1).dims[1] == 1
    assert cech.line_bundle_cohomology(2, -4, 2).dims[2] == 3
    assert cech.line_bundle_cohomology(2, 0, 0).dims[0] == 1


def test_oracle_representatives_are_cocycles():
    rep = cech.line_bundle_cohomology(2, -4, 2)
    assert len(rep.representatives[2]) == 3
    for c in rep.representatives[2]:
        assert cech.coboundary(c).is_zero()
        sol, cert = cech.solve_coboundary(c)
        assert sol is None and cert


def test_oracle_matches_bott_on_grid():
    for n in (1, 2):
        for k in range(-6, 7):
            for q in range(n + 1):
                assert (
                    cech.line_bundle_cohomology(n, k, q).dims[q]
                    == bott.line_dim(n, q, k)
                )


# ---------------------------------------------------------------------------
# the pole-set oracle for line bundles, a reference independent of the blocks


def char_complex_dims(n, g):
    """Cohomology of the one-character Čech complex, by explicit small ranks."""
    poles = frozenset(l for l, e in enumerate(g) if e < 0)
    charts = list(range(n + 1))
    simplices = {
        q: [s for s in itertools.combinations(charts, q + 1) if poles <= set(s)]
        for q in range(n + 1)
    }

    def delta(q):
        dom = simplices[q]
        cod = simplices.get(q + 1, [])
        idx = {s: i for i, s in enumerate(cod)}
        mat = [[Fraction(0)] * len(dom) for _ in cod]
        for col, s in enumerate(dom):
            for big in cod:
                missing = [v for v in big if v not in s]
                if len(missing) == 1 and set(s) <= set(big):
                    j = big.index(missing[0])
                    mat[idx[big]][col] = Fraction((-1) ** j)
        return mat

    dims = {}
    for q in range(n + 1):
        dom = simplices[q]
        mat_out = delta(q)
        rank_out = linalg.rank(mat_out) if mat_out and dom else 0
        if q == 0:
            rank_in = 0
        else:
            mat_in = delta(q - 1)
            rank_in = linalg.rank(mat_in) if mat_in and simplices[q - 1] else 0
        dims[q] = len(dom) - rank_out - rank_in
    return dims


def pole_set_candidates(n, k):
    """Characters of O(k) with an empty or a full pole set; all others are acyclic."""
    for entries in (range(0, k + 1), range(k + n, 0)):
        yield from (g for g in itertools.product(entries, repeat=n + 1) if sum(g) == k)


def oracle_cohomology(n, k, q):
    """(h^q(O(k)), {character: representative}) from the pole-set candidates."""
    spec = cech.line_sum(cech.standard_cover(n), [k])
    dim, reps = 0, {}
    for g in pole_set_candidates(n, k):
        h = char_complex_dims(n, g).get(q, 0)
        dim += h
        if h and q in (0, n):
            simplices = spec.cover.simplices(0) if q == 0 else spec.cover.simplices(n)
            reps[g] = cech.Cochain(spec, q, {
                cech.BasisSlot(s, 0, 0, cech.char_monomial_exps(spec, s[0], 0, 0, g)): 1
                for s in simplices
            })
    return dim, reps


@pytest.mark.parametrize("n", [1, 2])
def test_line_bundle_cohomology_matches_pole_set_oracle(n):
    for k in range(-8, 9):
        for q in range(-1, n + 2):
            got = cech.line_bundle_cohomology(n, k, q)
            dim, want = oracle_cohomology(n, k, q)
            assert got.dims == {q: dim} and got.complete, (n, k, q)
            by_char = {}
            for c in got.representatives[q]:
                (key,) = cech.cochain_chars(c)
                assert key[0] == 0 and key[1] not in by_char
                by_char[key[1]] = c
                assert cech.coboundary(c).is_zero()
                if q == 0:
                    assert not c.is_zero()
                else:
                    sol, cert = cech.solve_coboundary(c)
                    assert sol is None and cert
            assert set(by_char) == set(want), (n, k, q)
            for g, c in by_char.items():
                slot = min(c.terms)
                ratio = Fraction(c.terms[slot]) / want[g].terms[slot]
                assert ratio != 0 and c == want[g].scale(ratio), (n, k, q, g)


def test_middle_characters_are_acyclic():
    # proper nonempty pole sets contribute nothing in any degree
    for g in [(-1, 2, 0), (0, -2, 1), (-1, -1, 3), (5, -3, -2)]:
        dims = char_complex_dims(2, g)
        assert all(v == 0 for v in dims.values()), (g, dims)
        # the sign-type blocks agree on every character of a window around g
        spec = cech.line_sum(cech.standard_cover(2), [sum(g)])
        window = max(map(abs, g))
        want = {q: 0 for q in range(3)}
        for h in scan_chars(spec, 0, window):
            for q, d in char_complex_dims(2, h).items():
                want[q] += d
        assert cech.windowed_dims(spec, window) == want, g


def test_solve_coboundary_roundtrip():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [-2, 1])
    rng = random.Random(3)
    for _ in range(10):
        nu = cech.random_cochain(spec, 1, rng, terms=2)
        target = cech.coboundary(nu)
        sol, cert = cech.solve_coboundary(target)
        assert cert is None
        assert cech.coboundary(sol) == target


def test_solve_coboundary_certificate():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [-3])
    c = cech.Cochain(spec, 2, {cech.BasisSlot((0, 1, 2), 0, 0, (-1, -1)): 1})
    sol, cert = cech.solve_coboundary(c)
    assert sol is None
    assert cert == [(0, (-1, -1, -1))]
    assert cech.line_bundle_cohomology(2, -3, 2).dims[2] == 1


def test_solve_coboundary_zero_and_noncocycle():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [1])
    z = cech.zero_cochain(spec, 2)
    sol, cert = cech.solve_coboundary(z)
    assert sol.is_zero() and cert is None
    rng = random.Random(4)
    bad = cech.random_cochain(spec, 1, rng, terms=2)
    if not cech.coboundary(bad).is_zero():
        with pytest.raises(cech.NotACocycleError):
            cech.solve_coboundary(bad)


def test_p1_degree_minus_two_class():
    # the 1-cochain x^-1 on the single overlap has vacuously zero coboundary
    # and is not a coboundary: it spans the one-dimensional top cohomology
    cov = cech.standard_cover(1)
    spec = cech.line_sum(cov, [-2])
    c = cech.Cochain(spec, 1, {cech.BasisSlot((0, 1), 0, 0, (-1,)): 1})
    assert cech.coboundary(c).is_zero()
    sol, cert = cech.solve_coboundary(c)
    assert sol is None and cert == [(0, (-1, -1))]
    assert cech.line_bundle_cohomology(1, -2, 1).dims[1] == 1


def test_h1_representatives_tangent():
    cov = cech.standard_cover(2)
    rep = cech.h1_representatives(cech.tangent_twisted(cov, [-3]), window=6)
    assert rep.dims[1] == 1 and rep.complete
    gen = rep.representatives[1][0]
    assert cech.coboundary(gen).is_zero()
    sol, cert = cech.solve_coboundary(gen)
    assert sol is None and cert


def test_h1_representatives_line_cases():
    cov1 = cech.standard_cover(1)
    assert cech.h1_representatives(cech.line_sum(cov1, [0]), window=5).dims[1] == 0
    cov2 = cech.standard_cover(2)
    assert cech.h1_representatives(cech.line_sum(cov2, [-3]), window=5).dims[1] == 0


def test_h1_window_incomplete_diagnostic():
    cov = cech.standard_cover(2)
    rep = cech.h1_representatives(cech.tangent_twisted(cov, [-3]), window=0)
    assert not rep.complete
    assert any("window incomplete" in n for n in rep.notes)


def test_windowed_dims_match_tangent_identification():
    cov = cech.standard_cover(2)
    for l in (-3, 0):
        got = cech.windowed_dims(cech.tangent_twisted(cov, [l]), window=6)
        assert got == {q: bott.tangent_dim(2, q, l) for q in range(3)}
    got = cech.windowed_dims(cech.oneform_twisted(cov, [0]), window=6)
    assert got == {q: bott.bott_dim(2, 1, q, 0) for q in range(3)}


# ---------------------------------------------------------------------------
# the sign-type engine against the character-window scan it replaces


def scan_chars(spec, summand, window):
    """Every character with entries in [-window, window] on the summand's stratum."""
    t = spec.twists[summand]
    for g_rest in itertools.product(range(-window, window + 1), repeat=spec.cover.n):
        g0 = t - sum(g_rest)
        if -window <= g0 <= window:
            yield (g0,) + g_rest


def scan_h1(spec, window):
    """(dim, representatives) of H^1 by scanning the window, one rank per kernel vector."""
    reps = []
    for summand in range(spec.nsummands):
        for g in scan_chars(spec, summand, window):
            dom, cod, mat = cech.delta_block_matrix(spec, 1, summand, g)
            if not dom:
                continue
            kernel = linalg.kernel_basis(mat, len(dom))
            if not kernel:
                continue
            dom0, cod0, mat0 = cech.delta_block_matrix(spec, 0, summand, g)
            basis_rows = [[mat0[r][col] for r in range(len(cod0))] for col in range(len(dom0))]
            rk = linalg.rank(basis_rows) if basis_rows else 0
            for vec in kernel:
                trial = basis_rows + [vec]
                if linalg.rank(trial) > rk:
                    basis_rows, rk = trial, rk + 1
                    reps.append(cech.cochain_from_slots(spec, 1, dom, vec))
    return len(reps), reps


def scan_dims(spec, window):
    """All cohomology dimensions by exact ranks over every character in the window."""
    n = spec.cover.n
    dims = {q: 0 for q in range(n + 1)}
    for summand in range(spec.nsummands):
        for g in scan_chars(spec, summand, window):
            sizes, ranks = {}, {}
            for q in range(n + 1):
                dom, cod, mat = cech.delta_block_matrix(spec, q, summand, g)
                sizes[q] = len(dom)
                ranks[q] = linalg.rank(mat) if dom and cod else 0
            for q in range(n + 1):
                dims[q] += sizes[q] - ranks[q] - (ranks[q - 1] if q > 0 else 0)
    return dims


def assert_matches_scan(spec, window=10):
    got = cech.h1_representatives(spec, window=window)
    dim, reps = scan_h1(spec, window)
    assert got.dims[1] == dim, spec
    assert [c.to_json() for c in got.representatives[1]] == [c.to_json() for c in reps], spec
    assert cech.windowed_dims(spec, window=window) == scan_dims(spec, window), spec
    return got


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", [cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM])
def test_sign_types_match_window_scan_random_twists(kind, n):
    rng = random.Random(4000 + 10 * n + len(kind))
    cov = cech.standard_cover(n)
    for _ in range(3):
        spec = cech.SheafSpec(cov, kind, [rng.randint(-8, 8) for _ in range(2)])
        assert_matches_scan(spec)
        assert_matches_scan(spec, window=2)  # a cap that cuts off characters


def test_sign_types_match_window_scan_on_admissible_slot_sheaves():
    cov = cech.standard_cover(2)
    triples = [h.degrees for h in search_split_triples(-8, 8) if h.direct_all]
    assert len(triples) == 12
    for degrees in triples:
        assert assert_matches_scan(supermap.slot_sheaf(cov, degrees, 2)).complete


def test_sign_types_window_zero_stays_incomplete():
    cov = cech.standard_cover(2)
    spec = supermap.slot_sheaf(cov, SplitBundleDegrees((4, -1, -7)), 2)
    rep = cech.h1_representatives(spec, window=0)
    assert not rep.complete and rep.dims[1] == scan_h1(spec, 0)[0] == 0
    assert cech.enumerate_chars(spec, 0, 0) == []


def test_h1_builds_each_block_once(monkeypatch):
    spec = supermap.slot_sheaf(cech.Cover(2), SplitBundleDegrees((4, -1, -7)), 2)
    built = collections.Counter()
    build = cech.delta_block_matrix

    def counting(spec, degree, summand, g):
        built[degree, tuple(max(-2, min(1, e)) for e in g)] += 1
        return build(spec, degree, summand, g)

    monkeypatch.setattr(cech, "delta_block_matrix", counting)
    got = cech.h1_representatives(spec)
    monkeypatch.undo()
    assert max(built.values()) == 1 and sum(built.values()) <= 101
    dim, reps = scan_h1(spec, 10)
    assert got.dims[1] == dim and got.complete
    assert [c.to_json() for c in got.representatives[1]] == [c.to_json() for c in reps]


def test_infinite_sign_type_with_classes_raises(monkeypatch):
    """A class on every type, as a broken block builder would give, must not be listed."""
    spec = cech.tangent_twisted(cech.Cover(2), [-3])
    slot = cech.BasisSlot((0, 1), 0, 0, (0, 0))

    def one_class_everywhere(spec, degree, summand, g):
        if degree == 1:
            return [slot], [], []
        return [], [slot], [[]]

    monkeypatch.setattr(cech, "delta_block_matrix", one_class_everywhere)
    with pytest.raises(AssertionError, match="infinitely many characters"):
        cech.h1_representatives(spec)
    with pytest.raises(AssertionError, match="infinitely many characters"):
        cech.windowed_dims(spec)


# ---------------------------------------------------------------------------
# the cover's cohomology table


def table_specs(cover):
    return [
        cech.line_sum(cover, [-7, 1]),
        cech.tangent_twisted(cover, [-3, 2]),
        cech.oneform_twisted(cover, [0, -4]),
    ]


def test_cohomology_table_is_reused_and_matches_fresh_covers(monkeypatch):
    cover = cech.Cover(2)
    first = [[cech.cohomology(spec, q) for q in range(3)] for spec in table_specs(cover)]
    built = []
    build = cech.delta_block_matrix

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(cech, "delta_block_matrix", counting)
    again = [[cech.cohomology(spec, q) for q in range(3)] for spec in table_specs(cover)]
    monkeypatch.undo()
    assert built == []
    for i, spec in enumerate(table_specs(cover)):
        for q in range(3):
            fresh = cech.cohomology(table_specs(cech.Cover(2))[i], q)
            want = [c.to_json() for c in fresh.representatives[q]]
            assert [c.to_json() for c in first[i][q].representatives[q]] == want, (spec, q)
            assert [c.to_json() for c in again[i][q].representatives[q]] == want, (spec, q)


def test_stubbed_builder_on_fresh_cover_leaves_standard_cover_alone(monkeypatch):
    specs = table_specs(cech.standard_cover(2))
    before = [[c.to_json() for c in cech.cohomology(spec, q).representatives[q]]
              for spec in specs for q in range(3)]
    slot = cech.BasisSlot((0, 1), 0, 0, (0, 0))

    def one_class_everywhere(spec, degree, summand, g):
        if degree == 1:
            return [slot], [], []
        return [], [slot], [[]]

    monkeypatch.setattr(cech, "delta_block_matrix", one_class_everywhere)
    with pytest.raises(AssertionError):
        cech.cohomology(cech.line_sum(cech.Cover(2), [-7, 1]), 1)
    assert cech.Cover(2).cohomology_table == {}
    monkeypatch.undo()
    after = [[c.to_json() for c in cech.cohomology(spec, q).representatives[q]]
             for spec in specs for q in range(3)]
    assert after == before


def test_cochain_constructor_checks_what_arithmetic_trusts():
    spec = cech.tangent_twisted(cech.standard_cover(2), [1, -2])
    for simplex in ((1, 0), (0, 1, 2), (2,)):  # unsorted, then two wrong lengths
        with pytest.raises(ValueError, match="sorted 2-tuples"):
            cech.Cochain(spec, 1, {cech.BasisSlot(simplex, 0, 0, (0, 0)): 1})
    # plain tuples become slots, integral fractions become ints, zeros vanish
    c = cech.Cochain(spec, 1, {((0, 1), 0, 1, (1, 0)): Fraction(4, 2), ((0, 2), 1, 0, (0, 0)): 0})
    assert c.terms == {cech.BasisSlot((0, 1), 0, 1, (1, 0)): 2}
    assert type(c.terms[cech.BasisSlot((0, 1), 0, 1, (1, 0))]) is int
    # +, - and scale skip those checks: their results equal the checked build
    rng = random.Random(17)
    for _ in range(20):
        a, b = (cech.random_cochain(spec, 1, rng, terms=3) for _ in range(2))
        b = b + a.scale(rng.choice([-1, 1]))  # some slots cancel
        slots = set(a.terms) | set(b.terms)
        for got, sign in ((a + b, 1), (a - b, -1)):
            want = cech.Cochain(spec, 1, {s: a.terms.get(s, 0) + sign * b.terms.get(s, 0)
                                          for s in slots})
            assert got == want and all(got.terms.values())
        assert (a - a).is_zero() and a.scale(0).is_zero()
        assert a.scale(Fraction(-3, 2)) == cech.Cochain(
            spec, 1, {s: Fraction(-3, 2) * v for s, v in a.terms.items()})
