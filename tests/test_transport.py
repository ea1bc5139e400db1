"""Differential tests of the monomial transport layer.

``cech.delta_block_matrix`` builds each block column by transporting one
unit monomial on exponents (``Cover.transport``), and ``LaurentPoly.compose``
maps each term to one monomial when every substituted part is a monomial.
The references below are the slow paths those replace: the generic
coboundary of a one-slot cochain, and substitution by multiplying powers.
"""

import random
from fractions import Fraction

import pytest

from superthick import cech, supermap
from superthick.bott import SplitBundleDegrees
from superthick.laurent import LaurentPoly, NonInvertibleBaseError


def reference_block_matrix(spec, degree, summand, g):
    """One block, column by column, through the generic coboundary."""
    dom = cech.char_basis(spec, degree, summand, g)
    cod = cech.char_basis(spec, degree + 1, summand, g)
    index = {slot: i for i, slot in enumerate(cod)}
    mat = [[Fraction(0)] * len(dom) for _ in cod]
    for col, slot in enumerate(dom):
        image = cech.coboundary(cech.cochain_from_slot(spec, degree, slot))
        for (s, gg), coeffs in cech.cochain_chars(image).items():
            assert (s, gg) == (summand, g)
            for cslot, coef in coeffs.items():
                mat[index[cslot]][col] = coef
    return dom, cod, mat


def random_char(rng, n, twist, span):
    rest = [rng.randint(-span, span) for _ in range(n)]
    return (twist - sum(rest),) + tuple(rest)


@pytest.mark.parametrize("kind", [cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM])
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


def test_compose_non_monomial_parts_keep_power_path():
    rng = random.Random(12)
    poly = LaurentPoly(2, {(2, 1): Fraction(1, 2), (0, 3): -3, (1, 0): 1})
    for _ in range(20):
        parts = [
            LaurentPoly(2, {(rng.randint(-2, 2), rng.randint(-2, 2)): random_coef(rng),
                            (rng.randint(-2, 2), rng.randint(-2, 2)): random_coef(rng)}),
            LaurentPoly.monomial(2, (rng.randint(-2, 2), 1), random_coef(rng)),
        ]
        assert poly.compose(parts) == reference_compose(poly, parts)


@pytest.mark.parametrize("bad", [
    LaurentPoly.zero(2),
    LaurentPoly(2, {(1, 0): 1, (0, 1): Fraction(-3, 2)}),
])
def test_compose_negative_power_of_zero_or_non_monomial_raises(bad):
    mono = LaurentPoly.monomial(2, (1, -1), Fraction(2, 3))
    with pytest.raises(NonInvertibleBaseError):
        LaurentPoly.monomial(2, (2, -1)).compose([mono, bad])
    with pytest.raises(NonInvertibleBaseError):
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
    monkeypatch.setattr(cech, "delta_block_matrix", reference_block_matrix)
    slow = cech.h1_representatives(spec, window=6)
    assert calls
    assert fast.dims == slow.dims == {1: 1} and fast.complete and slow.complete
    assert [c.to_json() for c in fast.representatives[1]] == [
        c.to_json() for c in slow.representatives[1]
    ]
