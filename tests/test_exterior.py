import itertools
import random
from fractions import Fraction

import pytest

from superthick.exterior import GrassmannElement, sort_index_tuple, substitute_nilpotent
from superthick.laurent import ChartMap, LaurentPoly

P, Q = 2, 3


def theta(i):
    return GrassmannElement.theta(P, Q, i)


def rand_coef(rng):
    return LaurentPoly.monomial(
        P,
        (rng.randint(-2, 2), rng.randint(-2, 2)),
        Fraction(rng.randint(-3, 3) or 1, rng.choice([1, 2])),
    )


def rand_element(rng, parity=None, terms=2):
    out = GrassmannElement.zero(P, Q)
    for _ in range(terms):
        size = rng.randrange(Q + 1)
        if parity is not None:
            size = size - (size % 2) if parity == 0 else size | 1
            if size > Q:
                continue
        idx = tuple(sorted(rng.sample(range(1, Q + 1), size)))
        out = out + GrassmannElement(P, Q, {idx: rand_coef(rng)})
    return out


def brute_merge_sign(left, right):
    """Count transpositions to sort the concatenation, 0 on repeats."""
    word = list(left) + list(right)
    if len(set(word)) != len(word):
        return 0
    sign = 1
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                sign = -sign
    return sign


def test_anticommutativity():
    assert theta(1).wedge(theta(2)) == -(theta(2).wedge(theta(1)))


def test_nilpotence():
    assert theta(1).wedge(theta(1)).is_zero()


def test_merge_sign_bruteforce():
    t13 = theta(1).wedge(theta(3))
    got = t13.wedge(theta(2))
    sign = brute_merge_sign((1, 3), (2,))
    expected = GrassmannElement(P, Q, {(1, 2, 3): LaurentPoly.const(P, sign)})
    assert got == expected
    for left in itertools.permutations(range(1, Q + 1), 2):
        for right in range(1, Q + 1):
            ls, lsign = sort_index_tuple(left)
            if lsign == 0:
                continue
            a = GrassmannElement.term(P, Q, left, LaurentPoly.one(P))
            got = a.wedge(theta(right))
            s = brute_merge_sign(left, (right,))
            if s == 0:
                assert got.is_zero()
            else:
                assert got.coeff(tuple(sorted(left + (right,)))) == LaurentPoly.const(P, s)


def test_truncate_examples():
    one = GrassmannElement.scalar(P, Q, LaurentPoly.one(P))
    e = one + theta(1) + theta(1).wedge(theta(2))
    assert e.truncate(1) == one + theta(1)
    assert e.truncate(Q) == e
    t123 = theta(1).wedge(theta(2)).wedge(theta(3))
    assert t123.truncate(2).is_zero()


def test_truncate_is_algebra_quotient():
    rng = random.Random(3)
    for _ in range(100):
        a, b = rand_element(rng), rand_element(rng)
        for m in range(Q + 1):
            lhs = a.wedge(b).truncate(m)
            rhs = a.truncate(m).wedge(b.truncate(m)).truncate(m)
            assert lhs == rhs


def test_super_commutativity_randomized():
    rng = random.Random(4)
    for _ in range(100):
        pa, pb = rng.choice([0, 1]), rng.choice([0, 1])
        a, b = rand_element(rng, pa), rand_element(rng, pb)
        sign = (-1) ** (pa * pb)
        rhs = b.wedge(a)
        assert a.wedge(b) == (rhs if sign == 1 else -rhs)


def test_wedge_associativity_randomized():
    rng = random.Random(5)
    for _ in range(100):
        a, b, c = (rand_element(rng) for _ in range(3))
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def brute_left_derivative(indices, a):
    """Apply the left-derivative rule by scanning positions."""
    if a not in indices:
        return None, 0
    j = indices.index(a)
    return indices[:j] + indices[j + 1 :], (-1) ** j


def test_odd_derivation_examples():
    t12 = theta(1).wedge(theta(2))
    rest, sign = brute_left_derivative((1, 2), 2)
    assert t12.odd_derivation(2) == GrassmannElement(P, Q, {rest: LaurentPoly.const(P, sign)})
    rest, sign = brute_left_derivative((1, 2), 1)
    assert t12.odd_derivation(1) == GrassmannElement(P, Q, {rest: LaurentPoly.const(P, sign)})
    assert theta(3).odd_derivation(1).is_zero()


def test_odd_derivation_graded_leibniz():
    rng = random.Random(6)
    for _ in range(100):
        pa = rng.choice([0, 1])
        a, b = rand_element(rng, pa), rand_element(rng)
        for idx in range(1, Q + 1):
            lhs = a.wedge(b).odd_derivation(idx)
            rhs = a.odd_derivation(idx).wedge(b)
            tail = a.wedge(b.odd_derivation(idx))
            rhs = rhs + (tail if pa == 0 else -tail)
            assert lhs == rhs


def test_even_soul_is_nilpotent():
    rng = random.Random(7)
    for _ in range(30):
        a = rand_element(rng, parity=0).soul()
        power = a
        for _ in range(Q):
            power = power.wedge(a)
        assert power.is_zero()


def test_substitution_examples():
    n12 = GrassmannElement.term(1, Q, (1, 2), LaurentPoly.one(1))
    ident = ChartMap.identity(1)
    x = LaurentPoly.variable(1, 0)

    # (x + th1 th2)^2 = x^2 + 2x th1 th2
    got = substitute_nilpotent(LaurentPoly.monomial(1, (2,)), ident, [n12], Q)
    expected = GrassmannElement(1, Q, {(): x * x, (1, 2): x.scale(2)})
    assert got == expected

    # (x + th1 th2)^-1 = x^-1 - x^-2 th1 th2; verified by multiplying back
    got = substitute_nilpotent(LaurentPoly.monomial(1, (-1,)), ident, [n12], Q)
    back = got.wedge(GrassmannElement.scalar(1, Q, x) + n12)
    assert back == GrassmannElement.scalar(1, Q, LaurentPoly.one(1))

    # pure base substitution
    base = ChartMap([LaurentPoly.monomial(1, (-1,))])
    zero = GrassmannElement.zero(1, Q)
    got = substitute_nilpotent(x, base, [zero], Q)
    assert got == GrassmannElement.scalar(1, Q, LaurentPoly.monomial(1, (-1,)))


def test_substitution_multiplicative_randomized():
    # (p*q)(f + n) = p(f + n) wedge q(f + n) mod the truncation
    rng = random.Random(8)
    ident = ChartMap.identity(P)
    for _ in range(50):
        p = LaurentPoly.monomial(P, (rng.randint(-2, 2), rng.randint(0, 2)))
        q = LaurentPoly.monomial(P, (rng.randint(0, 2), rng.randint(-2, 2)))
        nil = [rand_element(rng, parity=0).soul().truncate(Q) for _ in range(P)]
        for m in (2, Q):
            lhs = substitute_nilpotent(p * q, ident, nil, m)
            rhs = substitute_nilpotent(p, ident, nil, m).wedge(
                substitute_nilpotent(q, ident, nil, m)
            ).truncate(m)
            assert lhs == rhs


def test_substitution_rejects_odd_or_bodied_shifts():
    with pytest.raises(ValueError):
        substitute_nilpotent(
            LaurentPoly.variable(1, 0), ChartMap.identity(1), [GrassmannElement.theta(1, Q, 1)], 2
        )
    bodied = GrassmannElement.scalar(1, Q, LaurentPoly.one(1))
    with pytest.raises(ValueError):
        substitute_nilpotent(LaurentPoly.variable(1, 0), ChartMap.identity(1), [bodied], 2)


def test_parity_of_terms():
    e = rand_element(random.Random(9), parity=0)
    assert e.is_even()
    o = rand_element(random.Random(10), parity=1)
    assert o.is_odd()
