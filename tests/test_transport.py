"""Differential tests of the monomial transport layer.

Every chart change moves monomials on exponents through ``Cover.transport``,
whose entries are integer arithmetic on the charts' exponent vectors:
``cech.represent`` moves slot data ``{(summand, comp, exps): coef}`` monomial
by monomial, ``cech.coboundary`` and ``cech.delta_block_matrix`` move one
slot at a time, and ``supermap._slot_layout`` lays chart-i slot data out in
a gluing map's frame and reads it back.  ``LaurentPoly.compose`` maps each
term to one monomial; every substituted part must be a monomial.  The
references below are the slow paths those replace, built on Laurent
polynomials: the chart transitions as ``ChartMap``s of monomials and the line
factors z_a/z_b, the transport entries read off them, re-presentation of
sections (tuples over summands of tuples over components of ``LaurentPoly``)
by Laurent pullback, Jacobian products and line factors, the coboundary
built on it section by section, the hand-rolled Jacobian and line-factor
frame changes with the slots' places in a map, and substitution by
multiplying powers.
"""

import itertools
import random
from fractions import Fraction
from operator import add

import pytest

from superthick import cech, supermap
from superthick.bott import SplitBundleDegrees
from superthick.exterior import sort_index_tuple
from superthick.laurent import ChartMap, LaurentPoly, coerce
from test_acceptance import DEGREE_POOL

KINDS = [cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM]


def reference_transition(cover, i, j):
    """Chart-j coordinates z_l/z_j = (z_l/z_i) / (z_j/z_i) as monomial
    functions of chart-i coordinates."""
    n = cover.n
    if i == j:
        return ChartMap.identity(n)
    comps = []
    for l in cover.chart_vars(j):
        exps = [0] * n
        if l != i:
            exps[cover.chart_vars(i).index(l)] += 1
        exps[cover.chart_vars(i).index(j)] -= 1
        comps.append(LaurentPoly.monomial(n, exps))
    return ChartMap(comps)


def reference_line_factor(cover, a, b, k):
    """(z_a / z_b)^k as a chart-b monomial; re-presents O(k) data a -> b."""
    exps = [0] * cover.n
    if a != b:
        exps[cover.chart_vars(b).index(a)] = k
    return LaurentPoly.monomial(cover.n, exps)


def reference_transport(cover, kind, a, b, comp):
    """The ``Cover.transport`` entry read off the reference transitions: the
    exponent rows of transition(b, a), the line vector of z_a/z_b, and the
    Jacobian of transition(a, b) pulled back to chart b (tangent) or of
    transition(b, a) (one-forms), one monomial per output."""
    n = cover.n
    f_ba = reference_transition(cover, b, a)
    rows = []
    for part in f_ba.components:
        (exps, coef), = part.terms.items()
        assert coef == 1
        rows.append(exps)
    (line, _), = reference_line_factor(cover, a, b, 1).terms.items()
    if kind == cech.LINE_SUM:
        factors = [LaurentPoly.one(n)]
    elif kind == cech.TANGENT:
        jac = reference_transition(cover, a, b).jacobian()
        factors = [f_ba.apply(jac[mu][comp]) for mu in range(n)]
    else:
        factors = f_ba.jacobian()[comp]
    assert all(len(factor.terms) <= 1 for factor in factors)
    outputs = tuple((mu, exps, coef) for mu, factor in enumerate(factors)
                    for exps, coef in factor.terms.items())
    return tuple(rows), line, outputs


def test_transport_matches_reference_transitions():
    entries = 0
    for n in (1, 2):
        cover = cech.Cover(n)
        for kind in KINDS:
            for a, b in itertools.product(cover.charts, repeat=2):
                for comp in range(cech.SheafSpec(cover, kind, (0,)).ncomp):
                    want = reference_transport(cover, kind, a, b, comp)
                    assert cover.transport(kind, a, b, comp) == want, (n, kind, a, b, comp)
                    entries += 1
    assert entries == 57


def reference_represent(spec, sec, a, b):
    """Re-present a section from chart a to chart b by Laurent arithmetic."""
    if a == b:
        return sec
    cover = spec.cover
    n = cover.n
    zero = LaurentPoly.zero(n)
    f_ba = reference_transition(cover, b, a)
    out = []
    for s, twist in enumerate(spec.twists):
        lf = reference_line_factor(cover, a, b, twist)
        comps = sec[s]
        if spec.kind == cech.LINE_SUM:
            new = (lf * f_ba.apply(comps[0]),)
        elif spec.kind == cech.TANGENT:
            # d x^(b)_mu / d x^(a)_nu, chart-a args
            jac = reference_transition(cover, a, b).jacobian()
            new = tuple(
                lf * sum((f_ba.apply(jac[mu][nu]) * f_ba.apply(comps[nu]) for nu in range(n)),
                         zero)
                for mu in range(n)
            )
        else:  # one-forms: d x^(a)_nu = sum_mu (d f_ba_nu / d x^(b)_mu) d x^(b)_mu
            jac = f_ba.jacobian()  # chart-b args directly
            new = tuple(
                lf * sum((jac[nu][mu] * f_ba.apply(comps[nu]) for nu in range(n)), zero)
                for mu in range(n)
            )
        out.append(new)
    return tuple(out)


# Sections: tuples over summands of tuples over components of LaurentPoly.


def section_zero(spec):
    z = LaurentPoly.zero(spec.cover.n)
    return tuple(tuple(z for _ in range(spec.ncomp)) for _ in spec.twists)


def section_map(f, *sections):
    return tuple(
        tuple(f(*comps) for comps in zip(*summands))
        for summands in zip(*sections)
    )


def section_add(a, b):
    return section_map(lambda x, y: x + y, a, b)


def section_neg(a):
    return section_map(lambda x: -x, a)


def section_of(spec, data):
    """The section of slot data ``{(summand, comp, exps): coef}``."""
    sec = [[{} for _ in range(spec.ncomp)] for _ in spec.twists]
    for (s, comp, exps), coef in data.items():
        sec[s][comp][exps] = coef
    return tuple(tuple(LaurentPoly(spec.cover.n, t) for t in summand) for summand in sec)


def data_of(sec):
    """The slot data of a section, inverse of ``section_of``."""
    return {(s, comp, exps): coef
            for s, summand in enumerate(sec)
            for comp, poly in enumerate(summand)
            for exps, coef in poly.terms.items()}


def slot_data(terms):
    """Slot terms that share one simplex as slot data, zeros dropped and
    integral coefficients as ints."""
    return {(slot.summand, slot.comp, slot.exps): c if c.denominator != 1 else c.numerator
            for slot, c in terms.items() if c}


def canonical(data):
    """Every coefficient an int when integral, a reduced Fraction otherwise."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in data.values())


def cochain_from_sections(spec, degree, values):
    """The cochain with one section per sorted simplex, as slot terms."""
    return cech.Cochain(spec, degree, {
        (simplex, *key): coef for simplex, sec in values.items()
        for key, coef in data_of(sec).items()
    })


def reference_coboundary(c):
    """The twisted Čech differential on sections, transported by ``reference_represent``."""
    spec = c.sheaf
    out = {}
    for simplex in spec.cover.simplices(c.degree + 1):
        acc = section_zero(spec)
        for j in range(len(simplex)):
            face = simplex[:j] + simplex[j + 1 :]
            sec = reference_represent(spec, section_of(spec, c.on(face)), face[0], simplex[0])
            acc = section_add(acc, section_neg(sec) if j % 2 else sec)
        out[simplex] = acc
    return cochain_from_sections(spec, c.degree + 1, out)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2])
def test_represent_matches_laurent_reference(kind, n):
    rng = random.Random(f"represent-{kind}-{n}")
    cover = cech.standard_cover(n)
    moved = 0
    for _ in range(12 if n == 2 else 60):
        twists = [rng.randint(-8, 6) for _ in range(rng.randint(1, 3))]
        spec = cech.SheafSpec(cover, kind, tuple(twists))
        for simplex in cover.simplices(1) + cover.simplices(2):
            for a, b in itertools.permutations(simplex, 2):
                chart_first = (a,) + tuple(v for v in simplex if v != a)
                data = slot_data(cech.random_section(spec, chart_first, rng, terms=4, span=3))
                fast = cech.represent(spec, data, a, b)
                slow = reference_represent(spec, section_of(spec, data), a, b)
                assert fast == data_of(slow) and section_of(spec, fast) == slow
                assert canonical(fast)
                assert cech.represent(spec, fast, b, a) == data
                moved += bool(data)
    assert moved >= 100


def test_transport_within_one_chart_is_the_identity():
    # represent(spec, data, a, a) takes no shortcut: the transport a -> a
    # must be identity rows, a zero line vector and the input component
    # alone, at zero offset with constant 1
    rng = random.Random("represent-in-place")
    entries = 0
    for n in (1, 2):
        cover = cech.Cover(n)
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for kind in KINDS:
            spec = cech.SheafSpec(cover, kind, (rng.randint(-8, 6), rng.randint(-8, 6)))
            for a in cover.charts:
                for comp in range(spec.ncomp):
                    want = (eye, (0,) * n, ((comp, (0,) * n, 1),))
                    assert cover.transport(kind, a, a, comp) == want, (n, kind, a, comp)
                    entries += 1
                for simplex in cover.simplices(1) + cover.simplices(2):
                    if a in simplex:
                        chart_first = (a,) + tuple(v for v in simplex if v != a)
                        data = slot_data(cech.random_section(spec, chart_first, rng, terms=4,
                                                             span=3))
                        assert cech.represent(spec, data, a, a) == data, (n, kind, a)
    assert entries == 21


def reference_block_matrix(spec, degree, summand, g):
    """One block, column by column, through the reference coboundary."""
    dom = cech.char_basis(spec, degree, summand, g)
    cod = cech.char_basis(spec, degree + 1, summand, g)
    index = {slot: i for i, slot in enumerate(cod)}
    mat = [[Fraction(0)] * len(dom) for _ in cod]
    for col, slot in enumerate(dom):
        image = reference_coboundary(cech.cochain_from_slots(spec, degree, [slot], [1]))
        for (s, gg), coeffs in cech.cochain_chars(image).items():
            assert (s, gg) == (summand, g)
            for cslot, coef in coeffs.items():
                mat[index[cslot]][col] = coef
    return dom, cod, mat


def random_char(rng, n, twist, span):
    rest = [rng.randint(-span, span) for _ in range(n)]
    return (twist - sum(rest),) + tuple(rest)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,degrees", [(1, (0,)), (2, (0, 1))])
def test_delta_block_matrix_matches_generic_coboundary(kind, n, degrees):
    rng = random.Random(f"{kind}-{n}")
    cover = cech.standard_cover(n)
    nonempty = 0
    for _ in range(12):
        twists = [rng.randint(-8, 6) for _ in range(rng.randint(1, 3))]
        spec = cech.SheafSpec(cover, kind, tuple(twists))
        for _ in range(6):
            summand = rng.randrange(len(twists))
            g = random_char(rng, n, twists[summand], 4)
            for degree in degrees:
                fast = cech.delta_block_matrix(spec, degree, summand, g)
                assert fast == reference_block_matrix(spec, degree, summand, g)
                assert all(type(x) is Fraction for row in fast[2] for x in row)
                nonempty += bool(fast[0] and fast[1])
    assert nonempty >= 20


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("degree", [0, 1])
def test_coboundary_matches_reference_on_random_cochains(kind, n, degree):
    rng = random.Random(f"coboundary-{kind}-{n}-{degree}")
    cover = cech.standard_cover(n)
    cancelled = nonzero = 0
    for _ in range(40):
        twists = [rng.randint(-8, 6) for _ in range(rng.randint(1, 3))]
        spec = cech.SheafSpec(cover, kind, tuple(twists))
        # many terms in a narrow span, plus a closed part whose coboundary
        # cancels term by term
        c = cech.random_cochain(spec, degree, rng, terms=8, span=1)
        if degree:
            c = c + cech.coboundary(cech.random_cochain(spec, 0, rng, terms=4, span=1))
        else:
            for rep in cech.cohomology(spec, 0).representatives[0]:
                c = c + rep.scale(rng.choice([-2, -1, 1, 3]))
        fast = cech.coboundary(c)
        slow = reference_coboundary(c)
        assert fast == slow and fast.to_json() == slow.to_json()
        separate = sum(len(cech.coboundary(cech.cochain_from_slots(spec, degree, [slot], [1]))
                           .terms) for slot in c.terms)
        cancelled += len(fast.terms) < separate
        nonzero += not fast.is_zero()
    if (n, degree) != (1, 1):  # P^1 has no triple overlaps
        assert cancelled >= 10 and nonzero >= 20


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2])
def test_section_view_matches_reference_represent(kind, n):
    # the value on an ordered simplex in any chart: the permutation's sign
    # times the stored slot data, moved from the smallest chart by represent
    rng = random.Random(f"section-{kind}-{n}")
    cover = cech.standard_cover(n)
    for _ in range(10):
        twists = [rng.randint(-8, 6) for _ in range(rng.randint(1, 3))]
        spec = cech.SheafSpec(cover, kind, tuple(twists))
        for degree in range(n + 1):
            c = cech.random_cochain(spec, degree, rng, terms=4, span=2)
            for key in cover.simplices(degree):
                data = c.on(key)
                assert data == slot_data(
                    {slot: x for slot, x in c.terms.items() if slot.simplex == key})
                stored = section_of(spec, data)
                for simplex in itertools.permutations(key):
                    sign = sort_index_tuple(simplex)[1]
                    for chart in cover.charts:
                        want = reference_represent(spec, stored, key[0], chart)
                        want = want if sign == 1 else section_neg(want)
                        value = {slot: sign * x for slot, x in data.items()}
                        got = cech.represent(spec, value, key[0], chart)
                        assert section_of(spec, got) == want, (simplex, chart)
                    if simplex != key:  # only sorted simplices are stored
                        with pytest.raises(ValueError, match="sorted"):
                            c.on(simplex)
                if degree:  # a repeated vertex is no simplex
                    with pytest.raises(ValueError, match="sorted"):
                        c.on((key[0],) * (degree + 1))


def reference_compose(poly, parts):
    """Substitute by multiplying out c * prod parts[i]^k_i term by term."""
    acc = LaurentPoly.zero(parts[0].dim)
    for exps, c in poly.terms.items():
        term = LaurentPoly.const(parts[0].dim, c)
        for part, k in zip(parts, exps):
            base = part if k > 0 else part.invert() if k < 0 else None
            for _ in range(abs(k)):
                term = term * base
        acc = acc + term
    return acc


def random_coef(rng):
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), rng.choice([1, 2, 3, 4]))


def test_compose_monomial_parts_matches_powers():
    rng = random.Random(11)
    for _ in range(300):
        sdim, tdim = rng.randint(1, 3), rng.randint(1, 3)
        poly = LaurentPoly.zero(sdim)
        for _ in range(rng.randint(0, 4)):
            exps = [rng.randint(-3, 3) for _ in range(sdim)]
            poly = poly + LaurentPoly.monomial(sdim, exps, random_coef(rng))
        parts = [
            LaurentPoly.monomial(tdim, [rng.randint(-2, 2) for _ in range(tdim)], random_coef(rng))
            for _ in range(sdim)
        ]
        assert poly.compose(parts) == reference_compose(poly, parts)


def test_compose_collapsing_terms_cancel():
    # x*y and -2*x^2 both go to t^2 under x -> t, y -> 2t
    poly = LaurentPoly(2, {(1, 1): 1, (2, 0): -2})
    parts = [LaurentPoly.monomial(1, (1,)), LaurentPoly.monomial(1, (1,), 2)]
    out = poly.compose(parts)
    assert out.is_zero() and out == reference_compose(poly, parts)


def test_compose_refuses_non_monomial_parts():
    # a two-term first part is refused; its first term alone substitutes as
    # the powers do
    rng = random.Random(12)
    poly = LaurentPoly(2, {(2, 1): Fraction(1, 2), (0, 3): -3, (1, 0): 1})
    refused = 0
    for _ in range(20):
        parts = [
            LaurentPoly(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): random_coef(rng),
                            (rng.randint(-2, 2), rng.randint(-2, 2)): random_coef(rng)}),
            LaurentPoly.monomial(2, (rng.randint(-2, 2), 1), random_coef(rng)),
        ]
        if len(parts[0].terms) > 1:
            refused += 1
            with pytest.raises(ValueError, match="monomial"):
                poly.compose(parts)
        parts[0] = LaurentPoly(2, dict([next(iter(parts[0].terms.items()))]))
        assert poly.compose(parts) == reference_compose(poly, parts)
    assert refused > 10


@pytest.mark.parametrize("bad", [
    LaurentPoly.zero(2),
    LaurentPoly(2, {(1, 0): 1, (0, 1): Fraction(-3, 2)}),
])
def test_compose_negative_power_of_zero_or_non_monomial_raises(bad):
    mono = LaurentPoly.monomial(2, (1, -1), Fraction(2, 3))
    with pytest.raises(ValueError, match="monomial"):
        LaurentPoly.monomial(2, (2, -1)).compose([mono, bad])
    with pytest.raises(ValueError, match="monomial"):
        LaurentPoly.monomial(2, (-1, 2)).compose([bad, mono])


def test_h1_scan_makes_no_generic_coboundary_call(monkeypatch, fresh_memos):
    spec = supermap.slot_sheaf(cech.standard_cover(2), SplitBundleDegrees((3, 0, -6)), 2)
    calls = []
    generic = cech.coboundary

    def counting(c):
        calls.append(c.degree)
        return generic(c)

    monkeypatch.setattr(cech, "coboundary", counting)
    fast = cech.h1_representatives(spec)
    assert calls == []
    built = []

    def reference(*args):
        built.append(args)
        return reference_block_matrix(*args)

    monkeypatch.setattr(cech, "delta_block_matrix", reference)
    fresh_memos()  # so the reference builds every block
    slow = cech.h1_representatives(
        supermap.slot_sheaf(cech.Cover(2), SplitBundleDegrees((3, 0, -6)), 2)
    )
    assert built
    assert fast.dims == slow.dims == {1: 1}
    assert [c.to_json() for c in fast.representatives[1]] == [
        c.to_json() for c in slow.representatives[1]
    ]


def reference_to_coefficients(cover, degrees, spec, sec, i, j):
    """Chart-i slot data as map coefficients: Jacobian of transition(i, j), zeta."""
    if i == j:
        return sec
    n = cover.n
    jac = reference_transition(cover, i, j).jacobian()
    out = []
    for s, comps in enumerate(sec):
        if spec.kind == cech.TANGENT:
            out.append(tuple(
                sum((jac[mu][nu] * comps[nu] for nu in range(n)), LaurentPoly.zero(n))
                for mu in range(n)
            ))
        else:
            zeta = reference_line_factor(cover, j, i, degrees.degrees[spec.labels[s][1] - 1])
            out.append((comps[0] * zeta,))
    return tuple(out)


def reference_to_section(cover, degrees, spec, coefs, i, j):
    """Map coefficients as chart-i slot data: pulled-back inverse Jacobian, 1/zeta."""
    if i == j:
        return coefs
    n = cover.n
    f_ij = reference_transition(cover, i, j)
    back = reference_transition(cover, j, i).jacobian()  # chart-j args
    out = []
    for s, raw in enumerate(coefs):
        if spec.kind == cech.TANGENT:
            out.append(tuple(
                sum((f_ij.apply(back[mu][nu]) * raw[nu] for nu in range(n)), LaurentPoly.zero(n))
                for mu in range(n)
            ))
        else:
            zeta = reference_line_factor(cover, j, i, degrees.degrees[spec.labels[s][1] - 1])
            out.append((raw[0] * zeta.invert(),))
    return tuple(out)


def reference_placement(spec):
    """Where each slot of a slot sheaf sits in a map, in the map's frame:
    (summand, comp) -> (index among the even then odd components, odd word).
    Even summand I puts comp mu at theta_I of even component mu, odd (I, a)
    at theta_I of odd component a."""
    p = spec.cover.n
    if spec.kind == cech.TANGENT:
        return {(s, nu): (nu, word) for s, word in enumerate(spec.labels) for nu in range(p)}
    return {(s, 0): (p + a - 1, word) for s, (word, a) in enumerate(spec.labels)}


def slots_of(spec, comps):
    """A map's components as slot data in the map's frame; every term must
    sit at a place of ``reference_placement``."""
    slots = {where: slot for slot, where in reference_placement(spec).items()}
    return {(*slots[index, w], e): c
            for index, comp in enumerate(comps) for (w, e), c in comp.items()}


def components_of(spec, coefs, q):
    """Slot data in a map's frame as the map's components, inverse of ``slots_of``."""
    comps = [{} for _ in range(spec.cover.n + q)]
    places = reference_placement(spec)
    for (s, comp, e), c in coefs.items():
        index, word = places[s, comp]
        comps[index][(word, e)] = c
    return comps


def placed(cover, degrees, d, i, j, data):
    """Chart-i slot data placed on the zero map i -> j by its layout: the
    layout and the map's components."""
    layout = supermap._slot_layout(cover, degrees, d, i, j)
    zero = supermap._map(i, j, ({},) * cover.n, ({},) * degrees.rank)
    sm = supermap._place(zero, layout, data)
    return layout, sm.even + sm.odd


@pytest.mark.parametrize("d", [2, 3])
def test_frame_helpers_round_trip_on_every_pair(d):
    rng = random.Random(f"frames-{d}")
    checked = 0
    for n in (1, 2):
        cover = cech.standard_cover(n)
        for degrees in DEGREE_POOL:
            degrees = SplitBundleDegrees(degrees)
            spec = supermap.slot_sheaf(cover, degrees, d)
            for i, j in itertools.product(cover.charts, repeat=2):
                simplex = (i,) + tuple(v for v in cover.charts if v != i)
                data = slot_data(cech.random_section(spec, simplex, rng, terms=6, span=3))
                layout, comps = placed(cover, degrees, d, i, j, data)
                coefs = slots_of(spec, comps)
                back, rest = supermap._read(layout, comps)
                assert back == data and canonical(back) and canonical(coefs) and not any(rest)
                if i == j:
                    assert coefs == data
                sec = section_of(spec, data)
                assert section_of(spec, coefs) == reference_to_coefficients(
                    cover, degrees, spec, sec, i, j)
                assert sec == reference_to_section(
                    cover, degrees, spec, section_of(spec, coefs), i, j)
                checked += bool(data)
    assert checked >= 60


def reference_reframe(cover, degrees, spec, data, i, j, to_map):
    """Slot data from the chart-i slot frame to the frame of the map i -> j,
    or back, with i == j returned as it is and the odd frame
    zeta_{ij,a} = x^(k_a line) from the line vector of the transport j -> i."""
    if i == j:
        return data
    comps = range(cover.n)
    if spec.kind == cech.TANGENT and to_map:
        frame = [[(mu, offset, c) for mu in comps
                  for col, offset, c in cover.transport(cech.ONE_FORM, j, i, mu)[2] if col == nu]
                 for nu in comps]
        frames = [frame] * spec.nsummands
    elif spec.kind == cech.TANGENT:
        frames = [[cover.transport(cech.TANGENT, j, i, nu)[2] for nu in comps]] * spec.nsummands
    else:
        line = cover.transport(cech.LINE_SUM, j, i, 0)[1]
        sign = 1 if to_map else -1
        frames = [[((0, tuple(sign * degrees.degrees[a - 1] * x for x in line), 1),)]
                  for _, a in spec.labels]
    out = {}
    for (s, comp, exps), c in data.items():
        for mu, offset, x in frames[s][comp]:
            key = (s, mu, tuple(map(add, exps, offset)))
            out[key] = out.get(key, 0) + c * x
    return {key: coerce(c) for key, c in out.items() if c}


RANK_4 = (1, -4, 2, -5)


def shared_layout(cover, degrees, d, i, j):
    """The layout memoised for a fresh cover of P^n and, for even d, for a
    bundle of the same rank with other degrees, which an even layout does
    not depend on."""
    fresh = cech.Cover(cover.n)
    if d % 2:
        return supermap._odd_layout(fresh, degrees, d, i, j)
    words = supermap.slot_sheaf(fresh, SplitBundleDegrees((0,) * degrees.rank), d).labels
    return supermap._even_layout(fresh, words, i, j)


@pytest.mark.parametrize("degrees, d", [(k, d) for k in DEGREE_POOL for d in (2, 3)]
                         + [(RANK_4, d) for d in (2, 3, 4)])
def test_reframe_matches_the_line_vector_frame_on_every_pair(degrees, d):
    # the slot layout of every ordered pair, i == j included, places and
    # reads as the line-vector frame change and the reference placement do
    rng = random.Random(f"reframe-{degrees}-{d}")
    degrees = SplitBundleDegrees(degrees)
    for n in (1, 2):
        cover = cech.Cover(n)
        spec = supermap.slot_sheaf(cover, degrees, d)
        for i, j in itertools.product(cover.charts, repeat=2):
            simplex = (i,) + tuple(v for v in cover.charts if v != i)
            data, coefs = (slot_data(cech.random_section(spec, simplex, rng, terms=6, span=3))
                           for _ in range(2))
            layout, comps = placed(cover, degrees, d, i, j, data)
            assert layout is shared_layout(cover, degrees, d, i, j)
            assert slots_of(spec, comps) == reference_reframe(cover, degrees, spec, data,
                                                              i, j, True)
            assert supermap._read(layout, comps)[0] == data
            assert (supermap._read(layout, components_of(spec, coefs, degrees.rank))[0]
                    == reference_reframe(cover, degrees, spec, coefs, i, j, False))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_slot_cochain_reads_back_the_increment(d):
    """The rank-3 pool at d = 2, 3, and rank 4 at d = 2, 3, 4, where the
    slot layout puts every slot at its own place and reads every place."""
    rng = random.Random(f"increment-{d}")
    cover = cech.standard_cover(2)
    for degrees in [*DEGREE_POOL, RANK_4]:
        degrees = SplitBundleDegrees(degrees)
        if d > degrees.rank:
            continue
        spec = supermap.slot_sheaf(cover, degrees, d)
        place, read = supermap._slot_layout(cover, degrees, d, 0, 1)
        assert len(place) == spec.nsummands * spec.ncomp == len(read)
        assert {entry[:2] for entries in place.values() for entry in entries} == set(read)
        split = supermap.split_trivialization(cover, degrees, d)
        inc = cech.random_cochain(spec, 1, rng, terms=3)
        assert not inc.is_zero()
        assert supermap.slot_cochain(supermap.apply_increment(split, inc, d), d) == inc


@pytest.mark.parametrize("degrees, order", [((4, -1, -7), 2), (RANK_4, 3)])
def test_defect_term_without_a_place_is_a_failed_self_check(monkeypatch, degrees, order):
    """A degree-(m+1) defect term in a component of the wrong parity has no
    slot in the obstruction sheaf and raises AssertionError; the same term
    in a component of the right parity is read into the obstruction."""
    cover = cech.standard_cover(2)
    degrees = SplitBundleDegrees(degrees)
    t = supermap.build_trivialization(cover, degrees, order)
    word = tuple(range(1, order + 2))
    defect = supermap._defect
    for part, raises in ((0, order % 2 == 0), (1, order % 2 == 1)):
        def tampered(t, i, j, k, at, part=part):
            split = defect(t, i, j, k, at)
            split[part][0] = {**split[part][0], (word, (0, 0)): 1}
            return split
        monkeypatch.setattr(supermap, "_defect", tampered)
        if raises:
            with pytest.raises(AssertionError, match="wrong parity"):
                supermap.obstruction_cocycle(t)
        else:
            assert not supermap.obstruction_cocycle(t).is_zero()
    monkeypatch.undo()
    assert supermap.obstruction_cocycle(t).is_zero()
