"""Exact multivariate Laurent polynomials over the rationals.

Coefficients are exact rationals: an ``int`` when integral, else a
``fractions.Fraction`` (arbitrary precision, always reduced, positive
denominator), so every operation in this package is exact and integral
arithmetic never pays for ``Fraction``.  A ``Fraction`` with denominator 1
may still arise from arithmetic; it compares, hashes and serialises as the
equal ``int``.  Both serialise through ``fraction_to_str``.  A polynomial of
dimension ``d`` is a finite map from exponent vectors (length-d tuples of
signed ints) to nonzero coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(x) -> int | Fraction:
    """A serialized rational: an int, or a string "num" or "num/den" of digits.

    Only that syntax is accepted, so reading a coefficient never builds more
    digits than the text holds; decimals, exponents, spaces, bools and a zero
    denominator raise ValueError.
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    if not isinstance(x, str) or not _RATIONAL.fullmatch(x):
        raise ValueError(f"not a rational num or num/den: {x!r}")
    num, _, den = x.partition("/")
    den = int(den or 1)
    if den == 0:
        raise ValueError(f"zero denominator: {x!r}")
    return coerce(Fraction(int(num), den))


def coerce(c) -> int | Fraction:
    """An int, Fraction or rational string as an int when integral, else a Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, str):
        return parse_rational(c)
    if not isinstance(c, Fraction):
        raise TypeError(f"not an exact rational: {c!r}")
    return c.numerator if c.denominator == 1 else c


def power(c, k: int) -> int | Fraction:
    """c**k exactly; a negative k inverts through Fraction, never a float."""
    return c**k if k >= 0 else coerce(Fraction(c) ** k)


def add_term(d: dict, key, c, x=1) -> None:
    """d[key] += c * x, exactly, where a factor that is the int 1 or -1
    gives the other factor or its negative and a new key takes the term
    itself: no Fraction is multiplied by a unit or added to 0.  The
    coefficient sums of ``cech`` and ``supermap`` go through it; the two hot
    kernels, ``supermap.compose`` and ``supermap._tangent``, inline it."""
    if type(x) is int and (x == 1 or x == -1):
        c = c if x == 1 else -c
    elif type(c) is int and (c == 1 or c == -1):
        c = x if c == 1 else -x
    else:
        c = c * x
    old = d.get(key)
    d[key] = c if old is None else old + c


def _make(dim: int, terms: dict) -> "LaurentPoly":
    """A polynomial from terms already checked: right length, no zero coefficient."""
    out = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(out, "dim", dim)
    object.__setattr__(out, "terms", terms)
    return out


def fraction_to_str(c) -> str:
    """Serialize as "num/den", den omitted when 1."""
    c = coerce(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


class LaurentPoly:
    """Immutable sparse Laurent polynomial in ``dim`` variables."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple, object] | None = None):
        if dim < 1:
            raise ValueError("dim must be positive")
        clean: dict[tuple, int | Fraction] = {}
        if terms:
            for exps, c in terms.items():
                e = tuple(int(x) for x in exps)
                if len(e) != dim:
                    raise ValueError(f"exponent vector {e} has wrong length for dim {dim}")
                c = coerce(c)
                if c != 0:
                    clean[e] = clean.get(e, 0) + c
                    if clean[e] == 0:
                        del clean[e]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(dim: int) -> "LaurentPoly":
        return LaurentPoly(dim)

    @staticmethod
    def const(dim: int, c) -> "LaurentPoly":
        return LaurentPoly(dim, {tuple([0] * dim): coerce(c)})

    @staticmethod
    def one(dim: int) -> "LaurentPoly":
        return LaurentPoly.const(dim, 1)

    @staticmethod
    def monomial(dim: int, exps: Sequence[int], c=1) -> "LaurentPoly":
        return LaurentPoly(dim, {tuple(exps): coerce(c)})

    @staticmethod
    def variable(dim: int, var: int) -> "LaurentPoly":
        e = [0] * dim
        e[var] = 1
        return LaurentPoly(dim, {tuple(e): 1})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Sequence[int]) -> int | Fraction:
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "LaurentPoly"):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return _make(self.dim, terms)

    def __neg__(self) -> "LaurentPoly":
        return _make(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        terms: dict[tuple, int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return _make(self.dim, terms)

    def scale(self, c) -> "LaurentPoly":
        c = coerce(c)
        if c == 0:
            return LaurentPoly.zero(self.dim)
        return _make(self.dim, {e: c * v for e, v in self.terms.items()})

    def invert(self) -> "LaurentPoly":
        """Inverse, defined only for a single nonzero monomial."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the Laurent ring")
        (e, c), = self.terms.items()
        return LaurentPoly.monomial(self.dim, tuple(-x for x in e), Fraction(1) / c)

    def partial(self, var: int) -> "LaurentPoly":
        """Formal partial derivative in variable ``var``."""
        if not 0 <= var < self.dim:
            raise ValueError(f"variable index {var} out of range")
        terms: dict[tuple, int | Fraction] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            ne = list(e)
            ne[var] = k - 1
            ne = tuple(ne)
            s = terms.get(ne, 0) + c * k
            if s == 0:
                terms.pop(ne, None)
            else:
                terms[ne] = s
        return _make(self.dim, terms)

    # -- substitution --------------------------------------------------------

    def compose(self, parts: Sequence["LaurentPoly"]) -> "LaurentPoly":
        """Substitute ``parts[i]`` for variable ``i``.

        Every part must be one monomial c_i x^(e_i), as every standard
        projective transition is; any other part raises ValueError.  A term
        c x^k then goes to the single monomial c prod c_i^(k_i) x^(sum k_i e_i),
        for negative k_i too.
        """
        if len(parts) != self.dim:
            raise ValueError("wrong number of substituted components")
        if not parts:
            raise ValueError("empty substitution")
        tdim = parts[0].dim
        for p in parts:
            if p.dim != tdim:
                raise ValueError("substituted components disagree on dimension")
            if len(p.terms) != 1:
                raise ValueError("only monomial parts can be substituted")
        monos = [next(iter(p.terms.items())) for p in parts]
        terms: dict[tuple, int | Fraction] = {}
        for e, c in self.terms.items():
            ne = [0] * tdim
            for k, (pe, pc) in zip(e, monos):
                if k:
                    for t in range(tdim):
                        ne[t] += k * pe[t]
                    if pc != 1:
                        c = c * power(pc, k)
            ne = tuple(ne)
            s = terms.get(ne, 0) + c
            if s == 0:
                terms.pop(ne, None)
            else:
                terms[ne] = s
        return _make(tdim, terms)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"x{i}^{k}" for i, k in enumerate(e) if k != 0
            )
            bits.append(f"{fraction_to_str(c)}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class ChartMap:
    """A tuple of Laurent polynomials, one per target coordinate."""

    __slots__ = ("source_dim", "target_dim", "components")

    def __init__(self, components: Sequence[LaurentPoly]):
        if not components:
            raise ValueError("a chart map needs at least one component")
        sd = components[0].dim
        for p in components:
            if p.dim != sd:
                raise ValueError("components disagree on source dimension")
        object.__setattr__(self, "source_dim", sd)
        object.__setattr__(self, "target_dim", len(components))
        object.__setattr__(self, "components", tuple(components))

    def __setattr__(self, *a):
        raise AttributeError("ChartMap is immutable")

    @staticmethod
    def identity(dim: int) -> "ChartMap":
        return ChartMap([LaurentPoly.variable(dim, i) for i in range(dim)])

    def apply(self, p: LaurentPoly) -> LaurentPoly:
        """Pull a function on the target back along this map."""
        if p.dim != self.target_dim:
            raise ValueError("dimension mismatch in chart-map application")
        return p.compose(self.components)

    def jacobian(self) -> list[list[LaurentPoly]]:
        """Matrix J[mu][nu] = d(component mu)/d(source variable nu)."""
        return [
            [comp.partial(nu) for nu in range(self.source_dim)]
            for comp in self.components
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, ChartMap) and self.components == other.components

    def __repr__(self) -> str:
        return "ChartMap(" + ", ".join(repr(c) for c in self.components) + ")"
