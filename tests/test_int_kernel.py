"""Differential tests of the monomial-body gluing kernel.

``supermap.compose`` works on flat components ``{(word, exps): coef}``: it
writes each even component of the inner map as its monomial body times
(1 + u_i), builds the rows u^k once per call and adds every term of the outer
map by exponent arithmetic with integer binomials.  Integer data with bodies
of coefficient 1 gives ``int`` coefficients, and an integral sum of
Fractions is returned as an ``int`` too.  With ``minus`` it returns minus mod
J^(m+1) less g o f, which every replayed call checks against
``map_difference`` of the truncated map and the reference composite.
``reference_compose`` below is the Grassmann/Taylor kernel it replaced: one
Taylor table per call (``exterior.taylor_rows``, then the rows times each odd
word of the inner map), evaluated on every coefficient through
``exterior.taylor_add``.  ``compose`` packs each exponent vector into one int
of balanced digits as wide as the maps' largest exponents need;
``tuple_compose`` is the same kernel on tuple exponents, against which every
replayed call, and maps with exponents past 2^64, are checked in values, key
order and coefficient types.
``reference_substitute_nilpotent`` is the per-coefficient body that the
Taylor table replaced, which rebuilt the wedge powers of the shifts for every
coefficient; it still checks ``substitute_nilpotent``.

``supermap.invert`` returns the first-order inverse id - delta without
composing when a degree bound certifies it; ``reference_invert`` is the
fixed-point loop that confirms every step by a ``compose``.  Under the same
bound ``supermap.normalize_inverses`` and ``supermap.conjugate`` build their
maps by first-order formulas on the split maps; ``reference_normalize_inverses``
and ``reference_conjugate`` are the compose-and-invert bodies they replaced,
which still serve data beyond the bound.
``reference_solve`` is the exact solve that ``cech.solve_blocks`` ran per
block, one rref of [matrix | rhs]; the cached block solver is checked against
it in ``tests/test_cech.py``.

No accumulation multiplies a Fraction by 1 or -1 or adds one to 0, whether
the unit is an int or a Fraction, each of which would build a new Fraction
and run a gcd; ``count_unit_operations`` wraps Fraction's operators to count
them on a warm gluing case and two warm certificates.
"""

import collections
import contextlib
import io
import itertools
import random
from fractions import Fraction
from math import comb, factorial
from operator import add, mul, sub

import pytest

from superthick import cech, cli, laurent, linalg, supermap
from superthick.bott import SplitBundleDegrees
from superthick.exterior import (GrassmannElement, merge_sign, substitute_nilpotent, taylor_add,
                                 taylor_rows)
from superthick.laurent import ChartMap, LaurentPoly, add_term, coerce, power
from superthick.pipeline import pipeline_obstructed_cp2
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


def tuple_product(a: list, b: list, order: int) -> list:
    """``supermap._product`` on tuple exponents, every product summed in a
    dict."""
    out: dict = {}
    for w1, e1, c1 in a:
        room = order - len(w1)
        for w2, e2, c2 in b:
            merged = len(w2) <= room and supermap._MERGED[w1, w2]
            if merged:
                sign, word = merged
                add_term(out, (word, tuple(map(add, e1, e2))), c1 if sign == 1 else -c1, c2)
    return [(w, e, c) for (w, e), c in out.items() if c]


def tuple_compose(g, f, order, minus=None):
    """``supermap.compose`` on tuple exponents: each term's shift a
    ``tuple(map(add, ...))`` and its offset a ``sum(map(mul, ...))`` per
    coordinate, every product of term lists summed in a dict."""
    if (f.target != g.source or (f.p, f.q) != (g.p, g.q) or minus is not None
            and (minus.source, minus.target, minus.p, minus.q) != (f.source, g.target, f.p, f.q)):
        raise ValueError("maps are not composable")
    bodies, scales, rows = [], [], [((), [((), (0,) * f.p, 1)], 0)]
    for i, comp in enumerate(f.even):
        body = [(e, c) for (w, e), c in comp.items() if not w]
        if len(body) != 1:
            raise ValueError("a body that is not one monomial cannot be substituted")
        (b, cb), = body
        bodies.append(b)
        if cb != 1:
            scales.append((i, cb))
        u = [(w, tuple(map(sub, e, b)), c if cb == 1 else coerce(Fraction(c) / cb))
             for (w, e), c in comp.items() if w and len(w) <= order]
        low, grown = min((len(w) for w, _, _ in u), default=order + 1), []
        for ks, row, d in rows:
            n = 0
            while d + low <= order:
                row = tuple_product(row, u, order) if d else u
                if not row:
                    break
                n, d = n + 1, d + low
                grown.append((ks + ((i, n),), row, d))
        rows += grown
    cols = list(zip(*bodies))
    odds = [[(w, e, c) for (w, e), c in comp.items() if len(w) <= order] for comp in f.odd]
    lows = [min([len(w) for w, _, _ in odd], default=order + 1) for odd in odds]
    tables = {(): rows}
    seeds = minus.even + minus.odd if minus is not None else None
    out = []
    for index, comp in enumerate(g.even + g.odd):
        acc = {} if seeds is None else {key: c for key, c in seeds[index].items()
                                        if len(key[0]) <= order}
        for (word, e), c in comp.items():
            table = tables.get(word)
            if table is None:
                if len(word) > order:
                    continue
                start = len(word) - 1
                while word[:start] not in tables:
                    start -= 1
                table = tables[word[:start]]
                for n in range(start, len(word)):
                    odd, low, grown = odds[word[n] - 1], lows[word[n] - 1], []
                    for ks, row, d in table:
                        if d + low <= order:
                            row = tuple_product(row, odd, order) if d else odd
                            if row:
                                grown.append((ks, row, d + low))
                    table = tables[word[:n + 1]] = grown
            if not table:
                continue
            offset = [sum(map(mul, e, col)) for col in cols]
            for i, cb in scales:
                if e[i]:
                    s = power(cb, e[i])
                    if c == 1 or c == -1:
                        c = s if c == 1 else -s
                    else:
                        c = c if s == 1 else -c if s == -1 else c * s
            c = c if seeds is None else -c
            for ks, row, _ in table:
                factor = c
                for i, k in ks:  # C(x, k) = (-1)^k C(k - 1 - x, k) for x < 0
                    b = comb(e[i], k) if e[i] >= 0 else (-1) ** k * comb(k - 1 - e[i], k)
                    if b != 1:
                        factor = -factor if b == -1 else factor * b
                if not factor:
                    continue
                # a unit factor passes each term on, a unit term the factor:
                # only a Fraction factor can meet a unit term
                whole = type(factor) is int
                unit = whole and (factor == 1 or factor == -1)
                for w, x, v in row:
                    if unit:
                        v = v if factor == 1 else -v
                    elif whole or type(v) is not int or not -1 <= v <= 1:
                        v = factor * v
                    else:
                        v = factor if v == 1 else -factor
                    key = (w, tuple(map(add, x, offset)))
                    old = acc.get(key)
                    acc[key] = v if old is None else old + v
        out.append(acc)
    return supermap._finish(out, f.source, g.target, f.p)


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


def gluing_checks(degrees, omega, nu):
    """The checks of a gluing benchmark operation on one case: build, gamma,
    conjugate, torsor shift and witness.  Returns gamma."""
    cover = cech.standard_cover(2)
    t = supermap.build_trivialization(cover, degrees, 2, {2: omega})
    gamma = supermap.obstruction_cocycle(t)
    assert supermap.verify_gamma_cocycle(gamma, t)["pass"]
    assert (supermap.pushforward_partial(omega, t) - gamma).is_zero()
    lam = supermap.automorphism_from_increment(cover, degrees, 2, nu, 2)
    conj = supermap.conjugate(t, lam)
    assert supermap.residuals_all_zero(supermap.cocycle_residual(conj))
    assert (supermap.obstruction_cocycle(conj) - gamma).is_zero()
    shifted = supermap.act_torsor(t, cech.coboundary(nu))
    assert supermap.equivalence_witness(t, shifted) is not None
    return gamma


def run_gluing_case(seed: int, degrees: tuple):
    """One seeded case of the acceptance pool through ``gluing_checks``."""
    rng = random.Random(seed)
    degrees = SplitBundleDegrees(degrees)
    spec = supermap.slot_sheaf(cech.standard_cover(2), degrees, 2)
    omega = cech.random_closed_cochain(spec, rng)
    nu = cech.random_cochain(spec, 0, rng, terms=2)
    return gluing_checks(degrees, omega, nu)


def gluing_pool(seed: int) -> list:
    """The cases (degrees, omega, nu) of the gluing benchmark workload for one
    seed, drawn as ``perfbench/workloads.py`` draws them: 8 per pool triple."""
    rng = random.Random(seed)
    cases = []
    for i in range(8 * len(DEGREE_POOL)):
        degrees = SplitBundleDegrees(DEGREE_POOL[i % len(DEGREE_POOL)])
        spec = supermap.slot_sheaf(cech.standard_cover(2), degrees, 2)
        omega = cech.random_closed_cochain(spec, rng)
        cases.append((degrees, omega, cech.random_cochain(spec, 0, rng, terms=2)))
    return cases


def test_compose_matches_reference_on_every_call_of_a_gluing_case(monkeypatch):
    # every compose call of one seeded case is replayed; each check composes
    # straight into its defect, with the first map of the triple as minus
    calls = []
    kernel = supermap.compose

    def recording(g, f, order, minus=None):
        out = kernel(g, f, order, minus=minus)
        calls.append((g, f, order, minus, out))
        return out

    monkeypatch.setattr(supermap, "compose", recording)
    assert not run_gluing_case(1, DEGREE_POOL[1]).is_zero()
    assert len(calls) == 20
    assert all(minus is not None for _, _, _, minus, _ in calls)
    assert any(type(c) is Fraction for g, f, *_ in calls for comp in f.even + g.even
               for c in comp.values())
    for call in calls:
        assert_call_matches_reference(*call)


def coefficient_types(sm):
    return [{key: type(c) for key, c in comp.items()} for comp in sm.even + sm.odd]


def terms_in_order(sm):
    """Each component's terms in order, each with its coefficient's type."""
    return [[(key, c, type(c)) for key, c in comp.items()] for comp in sm.even + sm.odd]


def assert_matches_reference(g, f, order):
    """compose equals reference_compose, and each coefficient has the
    reference's type: an int when integral, as the checked constructor holds
    it, even from Fraction coefficients or bodies other than 1; and it is
    the tuple-path composite term by term, in order."""
    out, ref = supermap.compose(g, f, order), reference_compose(g, f, order)
    assert out == ref
    assert coefficient_types(out) == coefficient_types(ref)
    assert terms_in_order(out) == terms_in_order(tuple_compose(g, f, order))
    return out


def assert_defect_matches_reference(g, f, order, minus, out):
    """``out``, from compose with ``minus``, is minus mod J^(order+1) less
    the reference composite, with the types the checked constructor gives."""
    even, odd = supermap.map_difference(minus.truncate(order), reference_compose(g, f, order))
    ref = SuperMap(f.source, g.target, tuple(even), tuple(odd))
    assert out == ref
    assert coefficient_types(out) == coefficient_types(ref)


def assert_call_matches_reference(g, f, order, minus, out):
    if minus is None:
        assert out == reference_compose(g, f, order)
    else:
        assert_defect_matches_reference(g, f, order, minus, out)
    assert terms_in_order(out) == terms_in_order(tuple_compose(g, f, order, minus))


def draw_pair(rng, p, q, order, trial, g_order=None):
    """(f, g): even trials draw integers with bodies of coefficient 1, which
    keep compose in int arithmetic, odd trials draw Fractions."""
    fractions = trial % 2 == 1
    f = rand_map(rng, 0, 1, p, q, order, fractions)
    g = rand_map(rng, 1, 2, p, q, g_order or order, fractions)
    if not fractions:
        f = SuperMap(0, 1, tuple({key: 1 if not key[0] else c for key, c in comp.items()}
                                 for comp in f.even), f.odd)
    return f, g


BIG = 2 ** 64 + 3


def enlarged(sm, rng):
    """sm with each exponent x moved to x * BIG + d, d in {-1, 0, 1}, past
    any 64-bit digit, and each even body's coefficient 1 or -1, so that
    c^e stays small."""
    def comp(g, even):
        return {(w, tuple(x * BIG + rng.choice((-1, 0, 1)) for x in e)):
                rng.choice((1, -1)) if even and not w else c for (w, e), c in g.items()}
    return SuperMap(sm.source, sm.target, tuple(comp(g, True) for g in sm.even),
                    tuple(comp(g, False) for g in sm.odd))


@pytest.mark.parametrize("p,q,order", CASES + [(2, 4, 4)])
def test_compose_matches_the_references_on_exponents_past_two_to_the_64(p, q, order):
    # the packed digits are as wide as the inputs need: a product e_i b_i of
    # two exponents past 2^64 needs past 128 bits, so no fixed 64-bit digit
    # holds it; values, key order and coefficient types against both
    # references, with and without minus
    rng = random.Random(f"big-{p}-{q}-{order}")
    for trial in range(4):
        f, g = (enlarged(m, rng) for m in draw_pair(rng, p, q, order, trial))
        minus = enlarged(rand_map(rng, 0, 2, p, q, order + 1, trial % 2 == 1), rng)
        assert min(f.largest, g.largest, minus.largest) > 2 ** 64
        for m in range(1, order + 1):
            assert_matches_reference(g, f, m)
            assert_call_matches_reference(g, f, m, minus, supermap.compose(g, f, m, minus=minus))


def test_merge_table_matches_merge_sign_on_every_pair_of_words():
    words = [w for n in range(6) for w in itertools.combinations(range(1, 6), n)]
    for w1, w2 in itertools.product(words, repeat=2):
        sign = merge_sign(w1, w2)
        assert supermap._MERGED[w1, w2] == ((sign, tuple(sorted(w1 + w2))) if sign else 0)
    # one entry per ordered pair of subsets of {1..5}
    assert sum(max(w1 + w2, default=0) <= 5 for w1, w2 in supermap._MERGED) == 4 ** 5


@pytest.mark.parametrize("degrees", [(3, 0, -6), (4, -1, -7)])
def test_compose_matches_reference_on_every_call_of_a_pushforward(monkeypatch, degrees):
    calls = []
    kernel = supermap.compose

    def recording(g, f, order, minus=None):
        out = kernel(g, f, order, minus=minus)
        calls.append((g, f, order, minus, out))
        return out

    monkeypatch.setattr(supermap, "compose", recording)
    pipeline_obstructed_cp2(degrees)
    monkeypatch.undo()
    assert len(calls) == 6
    for call in calls:
        assert_call_matches_reference(*call)


@pytest.mark.parametrize("p,q,order", [(1, 2, 1), (2, 3, 1), (2, 3, 2), (2, 4, 2), (2, 4, 3)])
def test_compose_drops_terms_of_g_beyond_the_order(p, q, order):
    # g drawn at precision order + 1, as the precision-(m+1) conjugates are,
    # composed at ``order``: its longest words can only give zero
    rng = random.Random(f"long-{p}-{q}-{order}")
    longer = 0
    for trial in range(6):
        f, g = draw_pair(rng, p, q, order, trial, g_order=order + 1)
        longer += any(len(w) > order for comp in g.even + g.odd for w, _ in comp)
        assert_matches_reference(g, f, order)
    assert longer


@pytest.mark.parametrize("p,q,order", CASES + [(2, 4, 4)])
def test_compose_minus_subtracts_from_the_truncated_map(p, q, order):
    # minus is drawn one order up, so it has terms beyond every m it is
    # subtracted at; those are dropped, and keys that cancel are deleted
    rng = random.Random(f"minus-{p}-{q}-{order}")
    longer = 0
    for trial in range(6):
        f, g = draw_pair(rng, p, q, order, trial)
        minus = rand_map(rng, 0, 2, p, q, order + 1, trial % 2 == 1)
        for m in range(1, order + 1):
            plain = supermap.compose(g, f, m)
            assert supermap.compose(g, f, m, minus=None) == plain
            assert assert_matches_reference(g, f, m) == plain
            assert_defect_matches_reference(g, f, m, minus, supermap.compose(g, f, m, minus=minus))
            beyond = [{key: c for key, c in comp.items() if len(key[0]) > m}
                      for comp in minus.even + minus.odd]
            longer += any(beyond)
            same = [{**a, **b} for a, b in zip(plain.even + plain.odd, beyond)]
            out = supermap.compose(g, f, m, minus=SuperMap(0, 2, tuple(same[:p]), tuple(same[p:])))
            assert out.even == ({},) * p and out.odd == ({},) * q
            with pytest.raises(ValueError, match="composable"):
                supermap.compose(g, f, m, minus=f)
    assert longer


@pytest.mark.parametrize("p,q,order", CASES + [(2, 4, 4)])
def test_compose_with_a_zero_odd_or_soul_free_even_component(p, q, order):
    rng = random.Random(f"sparse-{p}-{q}-{order}")
    for trial in range(6):
        f, g = draw_pair(rng, p, q, order, trial)
        a, i = trial % q, trial % p
        zero_odd = SuperMap(0, 1, f.even, f.odd[:a] + ({},) + f.odd[a + 1:])
        body = {key: c for key, c in f.even[i].items() if not key[0]}
        soul_free = SuperMap(0, 1, f.even[:i] + (body,) + f.even[i + 1:], f.odd)
        for inner in (zero_odd, soul_free):
            for m in range(1, order + 1):
                assert_matches_reference(g, inner, m)
    # with every odd component zero only the theta-free terms of g contribute
    no_odd = SuperMap(0, 1, f.even, ({},) * q)
    free = SuperMap(1, 2, tuple({key: c for key, c in comp.items() if not key[0]}
                                for comp in g.even), ({},) * q)
    assert assert_matches_reference(g, no_odd, order) == supermap.compose(
        free, no_odd, order)


def test_rank4_order4_compose_keeps_the_square_of_a_shift():
    # x0 -> x0 (1 + u), u = th1 th2 + x1 th3 th4, so u ^ u = 2 x1 th1 th2 th3 th4
    # survives mod J^5, and x0^-1 becomes x0^-1 (1 - u + u^2)
    f = SuperMap(0, 1, ({((), (1, 0)): 1, ((1, 2), (1, 0)): 1, ((3, 4), (1, 1)): 1},
                        {((), (0, 1)): 1}),
                 tuple({((a,), (0, 0)): 1} for a in range(1, 5)))
    g = SuperMap(1, 2, ({((), (-1, 0)): 1, ((1, 3), (2, 0)): 1}, {((), (0, 1)): 1}),
                 tuple({((a,), (0, 0)): 1} for a in range(1, 5)))
    out = assert_matches_reference(g, f, 4)
    assert out.even[0] == {((), (-1, 0)): 1, ((1, 2), (-1, 0)): -1, ((3, 4), (-1, 1)): -1,
                           ((1, 2, 3, 4), (-1, 1)): 2, ((1, 3), (2, 0)): 1}
    assert assert_matches_reference(g, f, 3).even[0] == {
        key: c for key, c in out.even[0].items() if len(key[0]) <= 3}
    rng = random.Random("rank4-order4")
    for trial in range(6):
        f, g = draw_pair(rng, 2, 4, 4, trial)
        for m in (3, 4):
            assert_matches_reference(g, f, m)


def record_inverts(monkeypatch, stage: list) -> tuple:
    """Wrap compose and invert; returns the lists (compose orders, invert calls).

    Each invert call is recorded as (map, order, result, number of compose
    calls it made, stage[0] at the time of the call).
    """
    composed, inverted = [], []
    kernel, inverse = supermap.compose, supermap.invert

    def counting(g, f, order, minus=None):
        composed.append(order)
        out = kernel(g, f, order, minus=minus)
        assert_call_matches_reference(g, f, order, minus, out)
        return out

    def recording(sm, order):
        before = len(composed)
        out = inverse(sm, order)
        inverted.append((sm, order, out, len(composed) - before, stage[0]))
        return out

    monkeypatch.setattr(supermap, "compose", counting)
    monkeypatch.setattr(supermap, "invert", recording)
    return composed, inverted


def test_gluing_operation_compose_budget(monkeypatch):
    # one (4,-1,-7) operation: reversed and conjugated maps come from the
    # first-order formulas, so no inverse is taken and only the checks
    # compose: gamma and its check (1 + 6), the conjugate's residual and
    # gamma (6 + 1) and the torsor shift's residual (6); 56 composes and 16
    # inverses when those maps were composed
    composed, inverted = record_inverts(monkeypatch, ["operation"])
    run_gluing_case(1, (4, -1, -7))
    assert not inverted
    assert len(composed) == 20


def count_laurent_calls(monkeypatch) -> collections.Counter:
    """Count every build, product, substitution and derivative of a
    LaurentPoly and every ChartMap built or applied, by method name."""
    calls = collections.Counter()
    for owner, name in ((LaurentPoly, "__init__"), (LaurentPoly, "__mul__"),
                        (LaurentPoly, "compose"), (LaurentPoly, "partial"),
                        (ChartMap, "__init__"), (ChartMap, "apply"), (laurent, "_make")):
        def counting(*args, _fn=getattr(owner, name), _key=f"{owner.__name__}.{name}", **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_warm_gluing_and_pipeline_make_no_laurent_arithmetic(monkeypatch):
    # every chart change on the run path is exponent arithmetic through the
    # cover's transport tables: a gluing operation and a pipeline run build,
    # multiply, substitute and differentiate no LaurentPoly at all
    run_gluing_case(1, (4, -1, -7))
    pipeline_obstructed_cp2((4, -1, -7))
    calls = count_laurent_calls(monkeypatch)
    run_gluing_case(1, (4, -1, -7))
    assert pipeline_obstructed_cp2((4, -1, -7))["status"] == "obstructed-exhibited"
    assert calls == {}
    # the counters are live
    ChartMap.identity(1).apply(LaurentPoly.monomial(1, (2,)).partial(0) * LaurentPoly.one(1))
    assert all(calls.values()) and len(calls) == 7


def count_unit_operations(monkeypatch) -> collections.Counter:
    """Count every Fraction multiplied by 1 or -1 and every Fraction added to
    0, from either side, by operator and unit; the unit is an int or a
    Fraction, and a Fraction operand equal to a unit counts on its own."""
    calls = collections.Counter()
    for name, units in (("__mul__", (1, -1)), ("__rmul__", (1, -1)),
                        ("__add__", (0,)), ("__radd__", (0,))):
        def counting(a, b, _fn=getattr(Fraction, name), _name=name, _units=units):
            unit = next((x for x in (b, a) if type(x) in (int, Fraction) and x in _units), None)
            if unit is not None:
                calls[_name, unit] += 1
            return _fn(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    return calls


def run_cli(argv) -> tuple:
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_warm_gluing_and_certificate_make_no_unit_fraction_operations(monkeypatch):
    # every accumulation adds a new key's term as it is and passes a factor
    # of 1 or -1 as c or -c: no Fraction is multiplied by a unit or added to
    # 0.  The certificate of (5,-2,-8) solves blocks whose class part and
    # solver entries are integral, held as ints
    degrees = SplitBundleDegrees((4, -1, -7))
    argvs = [["pushforward", "--degrees", k, "--json"] for k in ("4,-1,-7", "5,-2,-8")]
    run_gluing_case(1, degrees.degrees)
    for argv in argvs:
        run_cli(argv)
    calls = count_unit_operations(monkeypatch)
    assert not run_gluing_case(1, degrees.degrees).is_zero()
    assert [run_cli(argv)[0] for argv in argvs] == [0, 0]
    assert calls == {}
    # the counters are live, for int and Fraction units on either side, and
    # other Fraction operations pass
    half = Fraction(1, 2)
    assert (half * 1, -1 * half, half + 0, 0 + half, half * 2 + 1) == (half, -half, half, half, 2)
    assert (half * Fraction(1), Fraction(-1) * half, Fraction(0) + half, half * half) == (
        half, -half, half, Fraction(1, 4))
    assert calls == {("__mul__", 1): 2, ("__mul__", -1): 1, ("__rmul__", -1): 1,
                     ("__add__", 0): 2, ("__radd__", 0): 1}


def test_cold_cover_makes_no_polynomial_objects(monkeypatch, fresh_memos):
    # a fresh cover on emptied memos reads its transport entries off the
    # charts' exponents, and its cohomology and block solves run on them
    # alone
    calls = count_laurent_calls(monkeypatch)
    for n in (1, 2):
        cover = cech.Cover(n)
        for kind in (cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM):
            for a, b in itertools.product(cover.charts, repeat=2):
                for comp in range(cech.SheafSpec(cover, kind, (0,)).ncomp):
                    cover.transport(kind, a, b, comp)
    spec = cech.tangent_twisted(cech.Cover(2), [-3, 2])
    classes = cech.cohomology(spec, 1).representatives[1]
    target = cech.random_closed_cochain(spec, random.Random(5), harmonic=classes, terms=3)
    _, coords = cech.solve_blocks(target)
    assert len(classes) == 1 and coords
    assert calls == {}


def reference_invert(sm, order):
    """Inverse mod J^(order+1) by the fixed-point loop, every step composed."""
    g = ident = supermap.identity_map(sm.source, sm.p, sm.q)
    for _ in range(order + 2):
        err_even, err_odd = supermap.map_difference(supermap.compose(sm, g, order), ident)
        if supermap.difference_is_zero((err_even, err_odd)):
            return g
        g = SuperMap(g.source, g.target,
                     tuple(supermap._add(x, e, -1) for x, e in zip(g.even, err_even)),
                     tuple(supermap._add(x, e, -1) for x, e in zip(g.odd, err_odd)))
    raise ValueError("automorphism is not invertible at this order")


def assert_inverse(sm, inv, order):
    """inv o sm and sm o inv are the identity mod J^(order+1)."""
    ident = supermap.identity_map(sm.source, sm.p, sm.q)
    for out in (supermap.compose(sm, inv, order), supermap.compose(inv, sm, order)):
        assert supermap.difference_is_zero(supermap.map_difference(out, ident))


def test_invert_matches_reference_on_every_call_of_gluing_and_rank4_extension(monkeypatch):
    # every invert call of one seeded case per pool triple, then of rank-4
    # data.  Order-2 gluing inverts nothing: its reversed and conjugated maps
    # are first-order formulas.  extend_by_zero composes, and its reversed
    # maps are already exact one order up, so the deviation has degree 4 and
    # the certificate holds; an order-3 build from the split reversed maps
    # has a degree-2 deviation, the bound 2 + 2 does not exceed the
    # precision 4, and the loop runs
    stage = ["gluing"]
    _, calls = record_inverts(monkeypatch, stage)
    for seed, degrees in enumerate(DEGREE_POOL):
        run_gluing_case(seed, degrees)
    cover = cech.standard_cover(2)
    rng = random.Random(4)
    for degrees in map(SplitBundleDegrees, [(2, 1, -1, -3), (3, 0, 0, -2)]):
        omega = cech.random_closed_cochain(supermap.slot_sheaf(cover, degrees, 2), rng)
        stage[0] = "gluing"
        t = supermap.build_trivialization(cover, degrees, 2, {2: omega})
        stage[0] = "extend"
        ext = supermap.extend_by_zero(t)
        assert all(supermap.difference_is_zero(d) for d in supermap.inverse_residual(ext).values())
        stage[0] = "order 3"
        supermap.build_trivialization(cover, degrees, 3, {2: omega})
    monkeypatch.undo()
    loops = {}
    for _, order, _, n, name in calls:
        loops.setdefault(name, set()).add((order, n > 0))
    assert loops == {"extend": {(4, False)}, "order 3": {(4, True)}}
    assert sum(name == "extend" for *_, name in calls) == 2 * 3
    for sm, order, out, *_ in calls:
        assert out == reference_invert(sm, order)
        assert_inverse(sm, out, order)


def reference_normalize_inverses(t):
    """Reversed maps by composing: the old reversed map seeds an inversion of
    the chart-j automorphism fwd o seed."""
    precision = t.order + 1
    new_maps = dict(t.maps)
    for (i, j) in t.cover.pairs:
        fwd, seed = t.maps[(i, j)], t.maps[(j, i)]
        around = supermap.compose(fwd, seed, precision)
        new_maps[(j, i)] = supermap.compose(seed, supermap.invert(around, precision), precision)
    return supermap.Trivialization(t.cover, t.degrees, t.order, new_maps)


def reference_conjugate(t, lam):
    """lam_j o rho_ij o lam_i^(-1) on sorted pairs by composing, one order
    beyond the truncation, then ``reference_normalize_inverses``."""
    precision = t.order + 1
    inverses = {c: supermap.invert(lam[c], precision) for c in {i for i, _ in t.cover.pairs}}
    new_maps = dict(t.maps)
    for (i, j) in t.cover.pairs:
        inner = supermap.compose(t.maps[(i, j)], inverses[i], precision)
        new_maps[(i, j)] = supermap.compose(lam[j], inner, precision)
    return reference_normalize_inverses(
        supermap.Trivialization(t.cover, t.degrees, t.order, new_maps))


REFERENCES = {"normalize_inverses": reference_normalize_inverses,
              "conjugate": reference_conjugate}


def record_gluing_maps(monkeypatch) -> list:
    """Wrap normalize_inverses and conjugate; each call is recorded as
    (name, arguments, result, number of compose calls it made)."""
    calls, composed = [], [0]
    kernel = supermap.compose

    def counting(g, f, order, minus=None):
        composed[0] += 1
        return kernel(g, f, order, minus=minus)

    monkeypatch.setattr(supermap, "compose", counting)
    for name in REFERENCES:
        def recording(*args, _fn=getattr(supermap, name), _name=name):
            before = composed[0]
            out = _fn(*args)
            calls.append((_name, args, out, composed[0] - before))
            return out
        monkeypatch.setattr(supermap, name, recording)
    return calls


def test_first_order_maps_match_compose_on_every_gluing_call(monkeypatch):
    # every normalize_inverses and conjugate call of the gluing benchmark's
    # seed-1 cases and of one seeded case per pool triple meets the
    # certificate, so none composes, and each equals the compose path, with
    # an int wherever a coefficient is integral
    calls = record_gluing_maps(monkeypatch)
    for case in gluing_pool(1):
        gluing_checks(*case)
    for seed, degrees in enumerate(DEGREE_POOL):
        run_gluing_case(seed, degrees)
    monkeypatch.undo()
    cases = 9 * len(DEGREE_POOL)
    assert collections.Counter(name for name, *_ in calls) == {
        "normalize_inverses": 4 * cases, "conjugate": 2 * cases}
    assert all(n == 0 for *_, n in calls)
    values = [c for _, _, out, _ in calls for sm in out.maps.values() for c in coefficients(sm)]
    assert all(type(c) is int or c.denominator > 1 for c in values)
    assert any(type(c) is Fraction for c in values)
    for name, args, out, _ in calls:
        assert out.maps == REFERENCES[name](*args).maps


def test_rank4_order3_maps_take_the_compose_path(monkeypatch):
    # degree-2 data at precision 4 is beyond the bound 2 + 2: extend_by_zero,
    # an order-3 build and an order-3 conjugate compose, and equal the
    # references; the order-2 builds of the same data do not compose
    calls = record_gluing_maps(monkeypatch)
    cover = cech.standard_cover(2)
    rng = random.Random(4)
    for degrees in map(SplitBundleDegrees, [(2, 1, -1, -3), (3, 0, 0, -2)]):
        spec = supermap.slot_sheaf(cover, degrees, 2)
        omega = cech.random_closed_cochain(spec, rng)
        supermap.extend_by_zero(supermap.build_trivialization(cover, degrees, 2, {2: omega}))
        t = supermap.build_trivialization(cover, degrees, 3, {2: omega})
        nu = cech.random_cochain(spec, 0, rng, terms=2)
        supermap.conjugate(t, supermap.automorphism_from_increment(cover, degrees, 3, nu, 2))
    monkeypatch.undo()
    assert {(name, args[0].order, n > 0) for name, args, _, n in calls} == {
        ("normalize_inverses", 2, False), ("normalize_inverses", 3, True), ("conjugate", 3, True)}
    for name, args, out, _ in calls:
        assert out.maps == REFERENCES[name](*args).maps


def test_normalize_inverses_composes_where_the_first_order_inverse_is_not_exact():
    # on P^1 with rank 4, fwd = S + x^-2 th1 th2 + th3 th4 at precision 4:
    # d_e = 2, no odd deviation, bound 2 + 2 = 4, which does not exceed the
    # precision; S_10 - D o S_10 misses the square of the shift, a
    # th1 th2 th3 th4 term, and the compose path returns the exact inverse
    cover = cech.standard_cover(1)
    degrees = SplitBundleDegrees((1, 0, -1, -2))
    split = supermap.split_trivialization(cover, degrees, 3)
    fwd = split.maps[(0, 1)]
    fwd = SuperMap(0, 1, (supermap._add(fwd.even[0], {((1, 2), (-2,)): 1, ((3, 4), (0,)): 1}),),
                   fwd.odd)
    t = supermap.Trivialization(cover, degrees, 3, {**split.maps, (0, 1): fwd})
    first, exact = supermap._first_order_inverse(t, 0, 1, 4)
    assert not exact
    ident = supermap.identity_map(0, 1, 4)
    even, odd = supermap.map_difference(supermap.compose(first, fwd, 4), ident)
    assert even == [{((1, 2, 3, 4), (1,)): -2}] and not any(odd)
    rev = supermap.normalize_inverses(t).maps[(1, 0)]
    assert rev != first
    assert rev == reference_normalize_inverses(t).maps[(1, 0)]
    for out in (supermap.compose(rev, fwd, 4), supermap.compose(fwd, rev, 4)):
        assert supermap.difference_is_zero(
            supermap.map_difference(out, supermap.identity_map(out.source, 1, 4)))
    # one order lower the bound exceeds the precision: S_10 - D o S_10 is exact
    low = supermap.Trivialization(cover, degrees, 2, t.maps)
    assert supermap._first_order_inverse(low, 0, 1, 3) == (first, True)
    assert supermap.normalize_inverses(low).maps[(1, 0)] == first


def test_invert_iterates_where_the_first_order_inverse_is_not_exact():
    # x0 -> x0 + x0 th1 th2 + x1 th3 th4 at precision 4: d_e = 2, no odd
    # deviation, bound 2 + 2 = 4, which does not exceed the precision; and
    # id - delta misses by the x0-derivative of delta times delta
    ident = supermap.identity_map(0, 2, 4)
    delta = {((1, 2), (1, 0)): 1, ((3, 4), (0, 1)): 1}
    auto = SuperMap(0, 0, (supermap._add(ident.even[0], delta), ident.even[1]), ident.odd)
    first = SuperMap(0, 0, (supermap._add(ident.even[0], delta, -1), ident.even[1]), ident.odd)
    even, odd = supermap.map_difference(supermap.compose(auto, first, 4), ident)
    assert even == [{((1, 2, 3, 4), (0, 1)): -1}, {}] and not any(odd)
    inv = supermap.invert(auto, 4)
    assert inv != first
    assert_inverse(auto, inv, 4)
    # one order lower the bound exceeds the precision: id - delta is exact
    assert supermap.invert(auto, 3) == first
    assert_inverse(auto, first, 3)


def rand_automorphism(rng, p, q, order, fractions):
    """A chart automorphism id + delta, delta of theta-degree at least 2."""
    ident = supermap.identity_map(0, p, q)
    even = tuple(supermap._add(a, flat(rand_element(rng, p, q, (2, 4), order, fractions)))
                 for a in ident.even)
    odd = tuple(supermap._add(a, flat(rand_element(rng, p, q, (3,), order, fractions)))
                for a in ident.odd)
    return SuperMap(0, 0, even, odd)


@pytest.mark.parametrize("p,q,order", CASES + [(2, 4, 3), (2, 4, 4), (1, 5, 5)])
def test_invert_matches_reference_on_random_automorphisms(p, q, order):
    rng = random.Random(f"invert-{p}-{q}-{order}")
    for trial in range(6):
        auto = rand_automorphism(rng, p, q, order, trial % 2 == 1)
        for m in range(1, order + 1):
            inv = supermap.invert(auto, m)
            assert inv == reference_invert(auto, m)
            assert_inverse(auto, inv, m)


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


def reference_solve(mat, rhs):
    """One exact solution of mat*x = rhs, or None when inconsistent."""
    rows = len(mat)
    if rows == 0:
        return [] if all(b == 0 for b in rhs) else None
    ncols = len(mat[0])
    red, pivots = linalg.rref([mat[i][:] + [rhs[i]] for i in range(rows)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


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
    assert reference_solve(mat, [1, 0, 0]) == [Fraction(-1, 8), Fraction(7, 16), Fraction(-1, 16)]


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
