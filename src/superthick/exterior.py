"""Grassmann algebra on q odd generators with Laurent coefficients.

Elements are finite maps from strictly increasing index tuples (subsets of
1..q) to LaurentPoly coefficients in p even variables.  Indices are kept
sorted at construction, paying Koszul signs there, so theta_a^2 = 0 is
structural.  The left convention is used for the odd derivations:
d/dtheta_a (theta_{i1}...theta_{in}) = (-1)^(j-1) theta_{i1}...^...theta_{in}
when a = i_j.

Index tuples are validated where elements enter from outside (the public
constructor); internal results such as ``truncate``, ``soul``, ``scale_poly``
and the wedge are built from terms already known to be valid and skip those
checks.

``taylor_rows``, ``taylor_add`` and ``substitute_nilpotent`` evaluate a single
Laurent polynomial at a Grassmann argument.  The gluing maps of ``supermap``
do not use them; they serve only this single-polynomial API, which the
benchmark's tracer names.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .laurent import ChartMap, LaurentPoly, coerce


def sort_index_tuple(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an odd-index word, returning (sorted tuple, Koszul sign).

    Returns sign 0 when an index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> int:
    """Koszul sign for merging two disjoint sorted index tuples, 0 on overlap."""
    sign = 1
    inversions = 0
    li = 0
    for r in right:
        while li < len(left) and left[li] < r:
            li += 1
        if li < len(left) and left[li] == r:
            return 0
        inversions += len(left) - li
    if inversions % 2:
        sign = -1
    return sign


def merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    sign = merge_sign(left, right)
    if sign == 0:
        return None, 0
    merged = tuple(sorted(left + right))
    return merged, sign


def _accumulate(terms: dict, idx: tuple, coef: LaurentPoly) -> None:
    """terms[idx] += coef, dropping the entry when it cancels."""
    if idx in terms:
        s = terms[idx] + coef
        if s.is_zero():
            del terms[idx]
        else:
            terms[idx] = s
    else:
        terms[idx] = coef


def _make(p: int, q: int, terms: dict) -> "GrassmannElement":
    """An element from valid index tuples with nonzero coefficients, unchecked."""
    out = GrassmannElement.__new__(GrassmannElement)
    object.__setattr__(out, "p", p)
    object.__setattr__(out, "q", q)
    object.__setattr__(out, "terms", terms)
    return out


class GrassmannElement:
    """Element of Lambda(theta_1..theta_q) tensor LaurentPoly(p variables)."""

    __slots__ = ("p", "q", "terms")

    def __init__(self, p: int, q: int, terms: Mapping[tuple, LaurentPoly] | None = None):
        clean: dict[tuple, LaurentPoly] = {}
        if terms:
            for idx, coef in terms.items():
                idx = tuple(idx)
                if any(not 1 <= i <= q for i in idx):
                    raise ValueError(f"odd index out of range 1..{q}: {idx}")
                if list(idx) != sorted(set(idx)):
                    raise ValueError(f"index tuple must be strictly increasing: {idx}")
                if coef.dim != p:
                    raise ValueError("coefficient dimension mismatch")
                if not coef.is_zero():
                    _accumulate(clean, idx, coef)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("GrassmannElement is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(p: int, q: int) -> "GrassmannElement":
        return GrassmannElement(p, q)

    @staticmethod
    def scalar(p: int, q: int, poly: LaurentPoly) -> "GrassmannElement":
        return GrassmannElement(p, q, {(): poly})

    @staticmethod
    def theta(p: int, q: int, index: int, coef: LaurentPoly | None = None) -> "GrassmannElement":
        coef = coef if coef is not None else LaurentPoly.one(p)
        return GrassmannElement(p, q, {(index,): coef})

    @staticmethod
    def term(p: int, q: int, indices: Sequence[int], coef: LaurentPoly) -> "GrassmannElement":
        idx, sign = sort_index_tuple(indices)
        if sign == 0:
            return GrassmannElement.zero(p, q)
        return GrassmannElement(p, q, {idx: coef if sign == 1 else -coef})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def body(self) -> LaurentPoly:
        """Degree-0 part."""
        return self.terms.get((), LaurentPoly.zero(self.p))

    def soul(self) -> "GrassmannElement":
        """Everything of theta-degree > 0."""
        return _make(self.p, self.q, {k: v for k, v in self.terms.items() if k})

    def is_even(self) -> bool:
        return all(len(k) % 2 == 0 for k in self.terms)

    def is_odd(self) -> bool:
        return all(len(k) % 2 == 1 for k in self.terms)

    def degree_part(self, d: int) -> "GrassmannElement":
        return _make(self.p, self.q, {k: v for k, v in self.terms.items() if len(k) == d})

    def coeff(self, indices: Sequence[int]) -> LaurentPoly:
        idx, sign = sort_index_tuple(indices)
        if sign == 0:
            return LaurentPoly.zero(self.p)
        c = self.terms.get(idx, LaurentPoly.zero(self.p))
        return c if sign == 1 else -c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GrassmannElement)
            and (self.p, self.q) == (other.p, other.q)
            and self.terms == other.terms
        )

    # -- algebra -------------------------------------------------------------

    def _check(self, other: "GrassmannElement"):
        if (self.p, self.q) != (other.p, other.q):
            raise ValueError("Grassmann dimensions mismatch")

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            _accumulate(terms, k, v)
        return _make(self.p, self.q, terms)

    def __neg__(self) -> "GrassmannElement":
        return _make(self.p, self.q, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def wedge(self, other: "GrassmannElement") -> "GrassmannElement":
        self._check(other)
        terms: dict[tuple, LaurentPoly] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                merged, sign = merge_indices(i1, i2)
                if sign == 0:
                    continue
                prod = c1 * c2
                _accumulate(terms, merged, prod if sign == 1 else -prod)
        return _make(self.p, self.q, terms)

    __mul__ = wedge

    def scale(self, c) -> "GrassmannElement":
        c = coerce(c)
        if c == 0:
            return GrassmannElement.zero(self.p, self.q)
        return _make(self.p, self.q, {k: v.scale(c) for k, v in self.terms.items()})

    def scale_poly(self, poly: LaurentPoly) -> "GrassmannElement":
        if poly.is_zero():
            return GrassmannElement.zero(self.p, self.q)
        # the Laurent ring has no zero divisors, so no product vanishes
        return _make(self.p, self.q, {k: v * poly for k, v in self.terms.items()})

    def truncate(self, m: int) -> "GrassmannElement":
        """Quotient mod J^(m+1): drop terms of theta-degree > m."""
        if m < 0:
            return GrassmannElement.zero(self.p, self.q)
        return _make(self.p, self.q, {k: v for k, v in self.terms.items() if len(k) <= m})

    def odd_derivation(self, index: int) -> "GrassmannElement":
        """Left derivative with respect to theta_index."""
        if not 1 <= index <= self.q:
            raise ValueError(f"odd index out of range: {index}")
        terms: dict[tuple, LaurentPoly] = {}
        for idx, coef in self.terms.items():
            if index not in idx:
                continue
            pos = idx.index(index)
            rest = idx[:pos] + idx[pos + 1 :]
            _accumulate(terms, rest, coef if pos % 2 == 0 else -coef)
        return _make(self.p, self.q, terms)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for k, v in sorted(self.terms.items()):
            th = "".join(f"th{i}" for i in k)
            bits.append(f"({v!r})" + (f"*{th}" if th else ""))
        return " + ".join(bits)


def taylor_rows(
    base: ChartMap, nilpotent: Sequence[GrassmannElement], order: int
) -> list[tuple[tuple[int, ...], GrassmannElement]]:
    """Rows (alpha, n^alpha / alpha!) of the Taylor sum of poly(base + n).

    n^alpha is the wedge of n_i^(alpha_i) over i, truncated mod J^(order+1);
    only the multi-indices whose product survives the truncation are listed.
    The rows depend on the shifts alone, so one table serves every polynomial
    substituted along the same map (see ``taylor_add``).  Each shift must be
    even with vanishing body, so its theta-degree is at least 2 and the
    multi-index sum terminates.
    """
    p_dim = base.source_dim
    if len(nilpotent) != base.target_dim:
        raise ValueError("one nilpotent shift per variable is required")
    if not nilpotent:
        raise ValueError("empty substitution")
    q = nilpotent[0].q
    for n in nilpotent:
        if (n.p, n.q) != (p_dim, q):
            raise ValueError("nilpotent shifts disagree on dimensions")
        if not n.is_even() or not n.body().is_zero():
            raise ValueError("nilpotent shifts must be even with zero body")

    one = GrassmannElement.scalar(p_dim, q, LaurentPoly.one(p_dim))
    rows = [((0,) * len(nilpotent), one)]
    for i, n in enumerate(nilpotent):
        if n.is_zero():
            continue
        # multiply every row so far by n_i^k / k! for each surviving k >= 1
        grown = []
        for alpha, row in rows:
            power, k = row, 0
            while True:
                power = power.wedge(n).truncate(order)
                if power.is_zero():
                    break
                k += 1
                if k > 1:
                    power = power.scale(Fraction(1, k))
                grown.append((alpha[:i] + (k,) + alpha[i + 1 :], power))
        rows += grown
    return rows


def taylor_add(
    acc: dict,
    poly: LaurentPoly,
    base: ChartMap,
    rows: Sequence[tuple[tuple[int, ...], GrassmannElement]],
) -> None:
    """Add the sum over rows of row * base.apply(d^alpha poly) into ``acc``.

    ``acc`` maps index tuples to Laurent coefficients, as ``terms`` does.
    Every base component must be a monomial (see ``LaurentPoly.compose``).
    """
    if poly.dim != base.target_dim:
        raise ValueError("polynomial and base dimensions mismatch")
    derivs = {(0,) * poly.dim: poly}

    def derivative(alpha: tuple) -> LaurentPoly:
        if alpha not in derivs:
            v = next(i for i, k in enumerate(alpha) if k)
            prev = alpha[:v] + (alpha[v] - 1,) + alpha[v + 1 :]
            derivs[alpha] = derivative(prev).partial(v)
        return derivs[alpha]

    for alpha, row in rows:
        d = derivative(alpha)
        if d.is_zero():
            continue
        val = base.apply(d)
        for idx, coef in row.terms.items():
            _accumulate(acc, idx, coef * val)


def substitute_nilpotent(
    poly: LaurentPoly,
    base: ChartMap,
    nilpotent: Sequence[GrassmannElement],
    order: int,
) -> GrassmannElement:
    """Evaluate poly(base + nilpotent) mod J^(order+1) by a finite Taylor sum.

    Builds the table of ``taylor_rows`` and evaluates ``poly`` on it; callers
    substituting many polynomials along one map build the table once.
    """
    rows = taylor_rows(base, nilpotent, order)
    acc: dict[tuple, LaurentPoly] = {}
    taylor_add(acc, poly, base, rows)
    return _make(base.source_dim, nilpotent[0].q, acc)
