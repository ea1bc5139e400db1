"""Differential tests of the monomial-body gluing kernel.

``supermap.compose`` works on flat components ``{(word, exps): coef}``: it
writes each even component of the inner map as its monomial body times
(1 + u_i), builds the rows u^k once per call and adds every term of the outer
map by exponent arithmetic with integer binomials.  Coefficients are ``int``
wherever they are integral.  ``reference_compose`` below is the
Grassmann/Taylor kernel it replaced: one Taylor table per call
(``exterior.taylor_rows``, then the rows times each odd word of the inner
map), evaluated on every coefficient through ``exterior.taylor_add``.
``reference_substitute_nilpotent`` is the per-coefficient body that the
Taylor table replaced, which rebuilt the wedge powers of the shifts for every
coefficient; it still checks ``substitute_nilpotent``.
"""

import random
from fractions import Fraction
from math import factorial

import pytest

from superthick import cech, linalg, supermap
from superthick.bott import SplitBundleDegrees
from superthick.exterior import GrassmannElement, substitute_nilpotent, taylor_add, taylor_rows
from superthick.laurent import ChartMap, LaurentPoly
from superthick.supermap import SuperMap
from test_acceptance import DEGREE_POOL


def reference_substitute_nilpotent(poly, base, nilpotent, order):
    """poly(base + nilpotent) mod J^(order+1), powers rebuilt per call."""
    p_dim = base.source_dim
    q = nilpotent[0].q
    nonzero = [i for i, n in enumerate(nilpotent) if not n.is_zero()]
    powers = {}
    for i in nonzero:
        lst = [GrassmannElement.scalar(p_dim, q, LaurentPoly.one(p_dim))]
        while True:
            nxt = lst[-1].wedge(nilpotent[i]).truncate(order)
            if nxt.is_zero():
                break
            lst.append(nxt)
        powers[i] = lst

    deriv_cache = {tuple([0] * poly.dim): poly}

    def derivative(alpha):
        if alpha in deriv_cache:
            return deriv_cache[alpha]
        for v in range(poly.dim):
            if alpha[v] > 0:
                prev = list(alpha)
                prev[v] -= 1
                d = derivative(tuple(prev)).partial(v)
                deriv_cache[alpha] = d
                return d
        raise AssertionError

    result = GrassmannElement.zero(p_dim, q)

    def loop(pos, alpha, wedge, fact):
        nonlocal result
        if wedge.is_zero():
            return
        if pos == len(nonzero):
            d = derivative(tuple(alpha))
            if d.is_zero():
                return
            val = base.apply(d).scale(Fraction(1, fact))
            result = result + wedge.scale_poly(val)
            return
        i = nonzero[pos]
        for k in range(len(powers[i])):
            alpha[i] = k
            loop(pos + 1, alpha, wedge.wedge(powers[i][k]).truncate(order), fact * factorial(k))
            alpha[i] = 0

    loop(0, [0] * poly.dim, GrassmannElement.scalar(p_dim, q, LaurentPoly.one(p_dim)), 1)
    return result.truncate(order)


def flat(g):
    """A GrassmannElement as a flat component {(word, exps): coef}."""
    return {(w, e): c for w, poly in g.terms.items() for e, c in poly.terms.items()}


def grassmann(p, q, comp):
    """A flat component as a GrassmannElement."""
    words = {}
    for (w, e), c in comp.items():
        words.setdefault(w, {})[e] = c
    return GrassmannElement(p, q, {w: LaurentPoly(p, terms) for w, terms in words.items()})


def reference_compose(g, f, order):
    """g after f by the Grassmann/Taylor kernel: one Taylor table per call."""
    p, q = f.p, f.q
    f_even = [grassmann(p, q, comp) for comp in f.even]
    f_odd = [grassmann(p, q, comp) for comp in f.odd]
    base = ChartMap([comp.body() for comp in f_even])
    tables = {(): taylor_rows(base, [comp.soul() for comp in f_even], order)}

    def word_rows(idx):
        if idx not in tables:
            odd = f_odd[idx[-1] - 1]
            grown = ((alpha, row.wedge(odd).truncate(order)) for alpha, row in word_rows(idx[:-1]))
            tables[idx] = [(alpha, row) for alpha, row in grown if not row.is_zero()]
        return tables[idx]

    def push(component):
        acc = {}
        for idx, coef in grassmann(p, q, component).terms.items():
            taylor_add(acc, coef, base, word_rows(idx))
        return flat(GrassmannElement(p, q, acc))

    return SuperMap(f.source, g.target,
                    tuple(push(c) for c in g.even), tuple(push(c) for c in g.odd))


def rand_rational(rng, fractions):
    num = rng.choice([-3, -2, -1, 1, 2, 5])
    return Fraction(num, rng.choice([1, 2, 3])) if fractions else num


def rand_poly(rng, p, terms, fractions, negative=True):
    lo = -2 if negative else 0
    return LaurentPoly(p, {
        tuple(rng.randint(lo, 2) for _ in range(p)): rand_rational(rng, fractions)
        for _ in range(terms)
    })


def rand_element(rng, p, q, degrees, order, fractions, negative=True):
    """Random terms of the given theta-degrees, up to ``order``."""
    terms = {}
    for d in degrees:
        if d > min(order, q):
            continue
        for _ in range(rng.randint(0, 2)):
            idx = tuple(sorted(rng.sample(range(1, q + 1), d)))
            terms[idx] = rand_poly(rng, p, rng.randint(1, 2), fractions, negative)
    return GrassmannElement(p, q, terms)


def rand_body(rng, p, fractions, monomial):
    """A body map: monomial components, or components with two terms."""
    if monomial:
        return [LaurentPoly.monomial(p, [rng.randint(-2, 2) for _ in range(p)],
                                     rand_rational(rng, fractions)) for _ in range(p)]
    return [rand_poly(rng, p, 2, fractions, negative=False) for _ in range(p)]


def rand_map(rng, source, target, p, q, order, fractions, monomial=True, negative=True):
    even_deg = [d for d in range(2, order + 1, 2)]
    odd_deg = [d for d in range(1, order + 1, 2)]
    body = rand_body(rng, p, fractions, monomial)
    even = tuple(GrassmannElement.scalar(p, q, b)
                 + rand_element(rng, p, q, even_deg, order, fractions, negative)
                 for b in body)
    odd = tuple(GrassmannElement.theta(p, q, a, rand_poly(rng, p, 1, fractions, negative))
                + rand_element(rng, p, q, odd_deg, order, fractions, negative)
                for a in range(1, q + 1))
    return SuperMap(source, target, tuple(map(flat, even)), tuple(map(flat, odd)))


def first_term_bodies(sm):
    """``sm`` with each even body cut to its first term, the souls kept."""
    even = []
    for comp in sm.even:
        first = min(e for w, e in comp if not w)
        even.append({(w, e): c for (w, e), c in comp.items() if w or e == first})
    return SuperMap(sm.source, sm.target, tuple(even), sm.odd)


CASES = [(1, 2, order) for order in (1, 2, 3)] + [(2, 3, order) for order in (1, 2, 3)]


@pytest.mark.parametrize("p,q,order", CASES + [(2, 4, 4)])
def test_compose_matches_per_coefficient_reference(p, q, order):
    rng = random.Random(f"compose-{p}-{q}-{order}")
    for trial in range(6):
        fractions = trial % 2 == 1
        f = rand_map(rng, 0, 1, p, q, order, fractions)
        g = rand_map(rng, 1, 2, p, q, order, fractions)
        for m in range(1, order + 1):
            assert supermap.compose(g, f, m) == reference_compose(g, f, m)
    # f drawn with two-term bodies is refused; with each body cut to its
    # first term it composes, keeping the same nilpotent parts
    f = rand_map(rng, 0, 1, p, q, order, True, monomial=False)
    g = rand_map(rng, 1, 2, p, q, order, True, monomial=False, negative=False)
    if any(sum(not w for w, _ in comp) > 1 for comp in f.even):
        with pytest.raises(ValueError, match="monomial"):
            supermap.compose(g, f, order)
    f = first_term_bodies(f)
    assert supermap.compose(g, f, order) == reference_compose(g, f, order)


def test_compose_matches_reference_on_every_call_of_a_gluing_case(monkeypatch):
    # one seeded case of the acceptance pool, with the checks of a gluing
    # benchmark operation; every compose call it makes is replayed
    calls = []
    kernel = supermap.compose

    def recording(g, f, order):
        out = kernel(g, f, order)
        calls.append((g, f, order, out))
        return out

    monkeypatch.setattr(supermap, "compose", recording)
    rng = random.Random(1)
    cover = cech.standard_cover(2)
    degrees = SplitBundleDegrees(DEGREE_POOL[1])
    spec = supermap.slot_sheaf(cover, degrees, 2)
    omega = cech.random_closed_cochain(spec, rng)
    nu = cech.random_cochain(spec, 0, rng, terms=2)
    t = supermap.build_trivialization(cover, degrees, 2, {2: omega})
    gamma = supermap.obstruction_cocycle(t)
    assert not gamma.is_zero()
    assert supermap.verify_gamma_cocycle(gamma, t)["pass"]
    assert (supermap.pushforward_partial(omega, t) - gamma).is_zero()
    lam = supermap.automorphism_from_increment(cover, degrees, 2, nu, 2)
    conj = supermap.conjugate(t, lam)
    assert supermap.residuals_all_zero(supermap.cocycle_residual(conj))
    assert (supermap.obstruction_cocycle(conj) - gamma).is_zero()
    shifted = supermap.act_torsor(t, cech.coboundary(nu))
    assert supermap.equivalence_witness(t, shifted) is not None
    assert len(calls) > 50
    assert any(type(c) is Fraction for *_, out in calls for comp in out.even for c in comp.values())
    for g, f, order, out in calls:
        assert out == reference_compose(g, f, order)


def test_taylor_table_covers_factorial_rows():
    # q = 4 at order 4: n^2 survives, so a row carries 1/2! and the body
    # enters through a second derivative
    rng = random.Random("factorial")
    n = GrassmannElement(1, 4, {(1, 2): LaurentPoly.one(1), (3, 4): LaurentPoly.one(1)})
    poly = LaurentPoly.monomial(1, (-3,), Fraction(2, 5))
    base = ChartMap([LaurentPoly.monomial(1, (1,), 3)])
    got = substitute_nilpotent(poly, base, [n], 4)
    assert got == reference_substitute_nilpotent(poly, base, [n], 4)
    assert not got.degree_part(4).is_zero()
    for _ in range(10):
        nil = [rand_element(rng, 2, 4, (2, 4), 4, True).soul() for _ in range(2)]
        poly = rand_poly(rng, 2, 3, True)
        base = ChartMap(rand_body(rng, 2, True, True))
        for m in (2, 3, 4):
            expected = reference_substitute_nilpotent(poly, base, nil, m)
            assert substitute_nilpotent(poly, base, nil, m) == expected


def coefficients(obj):
    """Every coefficient inside a SuperMap or a LaurentPoly."""
    if isinstance(obj, SuperMap):
        for comp in obj.even + obj.odd:
            yield from comp.values()
    else:
        yield from obj.terms.values()


def test_no_float_coefficient_on_integer_input():
    rng = random.Random("int-first")
    x = LaurentPoly(2, {(2, -1): 2, (-3, 1): -3})
    two = LaurentPoly.monomial(2, (1, -2), 2)
    exact = (int, Fraction)
    # negative powers of a non-unit integer coefficient
    out = x.compose([two, LaurentPoly.monomial(2, (0, 1), -3)])
    assert out == LaurentPoly(2, {(2, -5): Fraction(-8, 3), (-3, 7): Fraction(9, 8)})
    assert all(type(c) in exact for c in coefficients(out))
    assert all(type(c) in exact for c in coefficients(two.invert()))
    assert two.invert() == LaurentPoly.monomial(2, (-1, 2), Fraction(1, 2))
    for poly in (x.partial(0), x.partial(1), x.scale(3), x.scale(Fraction(1, 3)), x * two):
        assert all(type(c) in exact for c in coefficients(poly))
    for p, q, order in CASES:
        for _ in range(3):
            f = rand_map(rng, 0, 0, p, q, order, False)
            g = rand_map(rng, 0, 0, p, q, order, False)
            comp = supermap.compose(g, f, order)
            assert all(type(c) in exact for c in coefficients(comp))
    # chart automorphisms: identity body, integer nilpotent parts
    for p, q, order in CASES:
        ident = supermap.identity_map(0, p, q)
        dev = rand_map(rng, 0, 0, p, q, order, False)
        auto = SuperMap(0, 0,
                        tuple({**a, **{k: c for k, c in b.items() if len(k[0]) == 2}}
                              for a, b in zip(ident.even, dev.even)),
                        tuple({**a, **{k: c for k, c in b.items() if len(k[0]) == 3}}
                              for a, b in zip(ident.odd, dev.odd)))
        inv = supermap.invert(auto, order)
        assert all(type(c) is int for c in coefficients(inv))
    # an integer matrix reduces over Fraction, never float
    mat = [[2, 3, 1], [4, 1, -1], [1, 1, 5]]
    red, pivots = linalg.rref(mat)
    assert pivots == [0, 1, 2]
    assert all(type(v) is Fraction for row in red for v in row)
    assert linalg.solve(mat, [1, 0, 0]) == [Fraction(-1, 8), Fraction(7, 16), Fraction(-1, 16)]


def test_split_gluing_stays_integral():
    # unit monomial transitions and integer increments keep every coefficient
    # an int through composition: the rows u^k carry no 1/k!, and the
    # binomials C(e, k) are integers for negative e too
    cover = cech.standard_cover(2)
    degrees = SplitBundleDegrees((4, -1, -7))
    spec = supermap.slot_sheaf(cover, degrees, 2)
    rng = random.Random(5)
    omega = cech.random_closed_cochain(spec, rng)
    # doubled, the denominators of 1 or 2 clear; the constructor stores ints
    omega = cech.Cochain(spec, 1, {slot: 2 * c for slot, c in omega.terms.items()})
    t = supermap.build_trivialization(cover, degrees, 2, {2: omega})
    assert not supermap.obstruction_cocycle(t).is_zero()
    for key, sm in t.maps.items():
        assert all(type(c) is int for c in coefficients(sm)), key
    comp = supermap.compose(t.maps[(1, 2)], t.maps[(0, 1)], 3)
    assert all(type(c) is int for c in coefficients(comp))
