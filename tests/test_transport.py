"""Differential tests of the monomial transport layer.

Every chart change moves monomials on exponents through ``Cover.transport``:
``cech.represent`` and ``Cochain.section`` monomial by monomial,
``cech.coboundary`` and ``cech.delta_block_matrix`` one slot at a time, and
the gluing maps' frame changes in ``supermap``.  ``LaurentPoly.compose`` maps
each term to one monomial; every substituted part must be a monomial.  The
references below are the slow paths those replace: re-presentation by Laurent
pullback, Jacobian products and line factors, the coboundary built on it
section by section, the hand-rolled Jacobian and zeta frame changes, and
substitution by multiplying powers.
"""

import itertools
import random
from fractions import Fraction

import pytest

from superthick import cech, supermap
from superthick.bott import SplitBundleDegrees
from superthick.laurent import LaurentPoly
from test_acceptance import DEGREE_POOL

KINDS = [cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM]


def reference_represent(spec, sec, a, b):
    """Re-present a section from chart a to chart b by Laurent arithmetic."""
    if a == b:
        return sec
    cover = spec.cover
    n = cover.n
    zero = LaurentPoly.zero(n)
    f_ba = cover.transition(b, a)
    out = []
    for s, twist in enumerate(spec.twists):
        lf = cover.line_factor(a, b, twist)
        comps = sec[s]
        if spec.kind == cech.LINE_SUM:
            new = (lf * f_ba.apply(comps[0]),)
        elif spec.kind == cech.TANGENT:
            jac = cover.transition(a, b).jacobian()  # d x^(b)_mu / d x^(a)_nu, chart-a args
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


def section_is_zero(a):
    return all(comp.is_zero() for summand in a for comp in summand)


def section_from_terms(spec, terms):
    """The section of slot terms that share one simplex."""
    sec = [[{} for _ in range(spec.ncomp)] for _ in spec.twists]
    for slot, coef in terms.items():
        sec[slot.summand][slot.comp][slot.exps] = coef
    return tuple(tuple(LaurentPoly(spec.cover.n, t) for t in summand) for summand in sec)


def cochain_from_sections(spec, degree, values):
    """The cochain with one section per sorted simplex, as slot terms."""
    return cech.Cochain(spec, degree, {
        cech.BasisSlot(simplex, s, comp, exps): coef
        for simplex, sec in values.items()
        for s, summand in enumerate(sec)
        for comp, poly in enumerate(summand)
        for exps, coef in poly.terms.items()
    })


def reference_coboundary(c):
    """The twisted Čech differential on sections, transported by ``reference_represent``."""
    spec = c.sheaf
    out = {}
    for simplex in spec.cover.simplices(c.degree + 1):
        acc = section_zero(spec)
        for j in range(len(simplex)):
            face = simplex[:j] + simplex[j + 1 :]
            sec = reference_represent(spec, c.section(face, face[0]), face[0], simplex[0])
            acc = section_add(acc, section_neg(sec) if j % 2 else sec)
        out[simplex] = acc
    return cochain_from_sections(spec, c.degree + 1, out)


def section_json(sec):
    return [[comp.to_json() for comp in summand] for summand in sec]


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
                sec = section_from_terms(
                    spec, cech.random_section(spec, chart_first, rng, terms=4, span=3))
                fast = cech.represent(spec, sec, a, b)
                slow = reference_represent(spec, sec, a, b)
                assert fast == slow and section_json(fast) == section_json(slow)
                assert cech.represent(spec, fast, b, a) == sec
                moved += not section_is_zero(sec)
    assert moved >= 100


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
    rng = random.Random(f"section-{kind}-{n}")
    cover = cech.standard_cover(n)
    for _ in range(10):
        twists = [rng.randint(-8, 6) for _ in range(rng.randint(1, 3))]
        spec = cech.SheafSpec(cover, kind, tuple(twists))
        for degree in range(n + 1):
            c = cech.random_cochain(spec, degree, rng, terms=4, span=2)
            for key in cover.simplices(degree):
                stored = section_from_terms(
                    spec, {slot: x for slot, x in c.terms.items() if slot.simplex == key})
                for simplex in itertools.permutations(key):
                    sign = cech.perm_sign(simplex)
                    for chart in cover.charts:
                        want = reference_represent(spec, stored, key[0], chart)
                        want = want if sign == 1 else section_neg(want)
                        assert c.section(simplex, chart) == want, (simplex, chart)
                if degree:  # a repeated vertex gives zero
                    assert section_is_zero(c.section((key[0],) * (degree + 1), key[0]))


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


def test_h1_scan_makes_no_generic_coboundary_call(monkeypatch):
    spec = supermap.slot_sheaf(cech.standard_cover(2), SplitBundleDegrees((3, 0, -6)), 2)
    calls = []
    generic = cech.coboundary

    def counting(c):
        calls.append(c.degree)
        return generic(c)

    monkeypatch.setattr(cech, "coboundary", counting)
    fast = cech.h1_representatives(spec, window=6)
    assert calls == []
    built = []

    def reference(*args):
        built.append(args)
        return reference_block_matrix(*args)

    monkeypatch.setattr(cech, "delta_block_matrix", reference)
    slow = cech.h1_representatives(
        supermap.slot_sheaf(cech.Cover(2), SplitBundleDegrees((3, 0, -6)), 2), window=6
    )
    assert built
    assert fast.dims == slow.dims == {1: 1} and fast.complete and slow.complete
    assert [c.to_json() for c in fast.representatives[1]] == [
        c.to_json() for c in slow.representatives[1]
    ]


def reference_to_coefficients(cover, degrees, spec, sec, i, j):
    """Chart-i slot data as map coefficients: Jacobian of transition(i, j), zeta."""
    if i == j:
        return sec
    n = cover.n
    jac = cover.transition(i, j).jacobian()
    out = []
    for s, comps in enumerate(sec):
        if spec.kind == cech.TANGENT:
            out.append(tuple(
                sum((jac[mu][nu] * comps[nu] for nu in range(n)), LaurentPoly.zero(n))
                for mu in range(n)
            ))
        else:
            out.append((comps[0] * supermap.zeta(cover, degrees, i, j, spec.labels[s][1]),))
    return tuple(out)


def reference_to_section(cover, degrees, spec, coefs, i, j):
    """Map coefficients as chart-i slot data: pulled-back inverse Jacobian, 1/zeta."""
    if i == j:
        return coefs
    n = cover.n
    f_ij = cover.transition(i, j)
    back = cover.transition(j, i).jacobian()  # chart-j args
    out = []
    for s, raw in enumerate(coefs):
        if spec.kind == cech.TANGENT:
            out.append(tuple(
                sum((f_ij.apply(back[mu][nu]) * raw[nu] for nu in range(n)), LaurentPoly.zero(n))
                for mu in range(n)
            ))
        else:
            zeta = supermap.zeta(cover, degrees, i, j, spec.labels[s][1])
            out.append((raw[0] * zeta.invert(),))
    return tuple(out)


@pytest.mark.parametrize("d", [2, 3])
def test_frame_helpers_round_trip_on_every_pair(d):
    rng = random.Random(f"frames-{d}")
    cover = cech.standard_cover(2)
    checked = 0
    for degrees in DEGREE_POOL:
        degrees = SplitBundleDegrees(degrees)
        spec = supermap.slot_sheaf(cover, degrees, d)
        for i, j in itertools.product(cover.charts, repeat=2):
            simplex = (i,) + tuple(v for v in cover.charts if v != i)
            terms = cech.random_section(spec, simplex, rng, terms=6, span=3)
            terms = {slot: c for slot, c in terms.items() if c}
            sec = section_from_terms(spec, terms)
            coefs = supermap._section_to_coefficients(cover, degrees, spec, sec, i, j)
            back = supermap._coefficients_to_section(cover, degrees, spec, coefs, simplex, j)
            assert back == terms
            # map coefficients are {exps: coef} dicts; compare them as polynomials
            polys = tuple(tuple(LaurentPoly(cover.n, c) for c in comps) for comps in coefs)
            if i == j:
                assert polys == sec
            assert polys == reference_to_coefficients(cover, degrees, spec, sec, i, j)
            assert section_from_terms(spec, back) == reference_to_section(
                cover, degrees, spec, polys, i, j)
            checked += not section_is_zero(sec)
    assert checked >= 40


@pytest.mark.parametrize("d", [2, 3])
def test_slot_cochain_reads_back_the_increment(d):
    rng = random.Random(f"increment-{d}")
    cover = cech.standard_cover(2)
    for degrees in DEGREE_POOL:
        degrees = SplitBundleDegrees(degrees)
        split = supermap.split_trivialization(cover, degrees, d)
        inc = cech.random_cochain(supermap.slot_sheaf(cover, degrees, d), 1, rng, terms=3)
        assert not inc.is_zero()
        assert supermap.slot_cochain(supermap.apply_increment(split, inc, d), d) == inc
