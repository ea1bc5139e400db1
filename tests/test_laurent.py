import random
from fractions import Fraction

import pytest

from superthick.laurent import ChartMap, LaurentPoly, coerce, fraction_to_str, parse_rational


def rand_poly(rng, dim, terms=3, span=3):
    out = LaurentPoly.zero(dim)
    for _ in range(terms):
        exps = tuple(rng.randint(-span, span) for _ in range(dim))
        coef = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        out = out + LaurentPoly.monomial(dim, exps, coef)
    return out


def test_add_cancellation():
    a = LaurentPoly(1, {(1,): 1, (-1,): 2})
    b = LaurentPoly(1, {(-1,): -2})
    assert a + b == LaurentPoly(1, {(1,): 1})


def test_add_identity_and_doubling():
    p = LaurentPoly(2, {(1, -1): Fraction(3, 2)})
    assert p + LaurentPoly.zero(2) == p
    assert p + p == LaurentPoly(2, {(1, -1): 3})


def test_mul_inverse_monomials():
    x = LaurentPoly.variable(1, 0)
    assert x.invert() * x == LaurentPoly.one(1)


def test_mul_difference_of_squares():
    xp1 = LaurentPoly(1, {(1,): 1, (0,): 1})
    xm1 = LaurentPoly(1, {(1,): 1, (0,): -1})
    assert xp1 * xm1 == LaurentPoly(1, {(2,): 1, (0,): -1})


def test_mul_multivariate_inverse():
    a = LaurentPoly.monomial(2, (2, -1))
    b = LaurentPoly.monomial(2, (-2, 1))
    assert a * b == LaurentPoly.one(2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LaurentPoly.one(1) + LaurentPoly.one(2)
    with pytest.raises(ValueError):
        LaurentPoly.one(1) * LaurentPoly.one(2)


def test_partial_power_rule():
    assert LaurentPoly.monomial(1, (-2,)).partial(0) == LaurentPoly.monomial(1, (-3,), -2)
    assert LaurentPoly.const(1, 5).partial(0).is_zero()
    p = LaurentPoly.monomial(2, (3, -1))
    assert p.partial(1) == LaurentPoly.monomial(2, (3, -2), -1)


def test_ring_laws_randomized():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rand_poly(rng, 2, terms=2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_leibniz_randomized():
    rng = random.Random(1)
    for _ in range(200):
        a, b = rand_poly(rng, 2), rand_poly(rng, 2)
        for v in range(2):
            assert (a * b).partial(v) == a.partial(v) * b + a * b.partial(v)


def test_no_stored_zero_coefficients():
    rng = random.Random(2)
    for _ in range(100):
        a, b = rand_poly(rng, 2), rand_poly(rng, 2)
        for p in (a + (-a), a * LaurentPoly.zero(2), a + b, a * b):
            assert all(c != 0 for c in p.terms.values())


def test_compose_monomial_chain():
    # y = x^-1 composed with its inverse gives the identity
    f = ChartMap([LaurentPoly.monomial(1, (-1,))])
    assert ChartMap([f.apply(c) for c in f.components]) == ChartMap.identity(1)


def test_compose_negative_power_needs_monomial():
    p = LaurentPoly.monomial(1, (-1,))
    base = LaurentPoly(1, {(1,): 1, (0,): 1})  # x + 1, not a monomial
    with pytest.raises(ValueError, match="monomial"):
        p.compose([base])
    # a non-monomial part is refused for nonnegative powers too
    with pytest.raises(ValueError, match="monomial"):
        LaurentPoly.monomial(1, (2,)).compose([base])
    with pytest.raises(ValueError, match="monomial"):
        base.invert()


def test_fraction_serialization():
    assert fraction_to_str(Fraction(3)) == "3"
    assert fraction_to_str(Fraction(-4, 6)) == "-2/3"
    for c in (Fraction(1, 3), -2, Fraction(-7, 4), Fraction(6, 3)):
        assert parse_rational(fraction_to_str(c)) == c
        assert type(parse_rational(fraction_to_str(c))) is type(coerce(c))


# the thickening reader reads every coefficient through parse_rational
@pytest.mark.parametrize("text,value", [("7", 7), ("-3/2", Fraction(-3, 2)), ("+4/2", 2), (5, 5)])
def test_from_json_reads_integer_syntax(text, value):
    got = parse_rational(text)
    assert got == value and type(got) is type(coerce(Fraction(value)))


@pytest.mark.parametrize("text", ["1e3", "1.5", " 2", "4/-2", "1/0", "", "1_0", True])
def test_from_json_rejects_other_rational_syntax(text):
    with pytest.raises(ValueError):
        parse_rational(text)
