"""Gluing data for thickenings: super coordinate changes, composition mod
J^(m+1), the cocycle condition, the obstruction 2-cocycle, torsor shifts and
conjugation by chart automorphisms.

A map between chart domains carries p even components (functions of the
source chart's even and odd coordinates, valued in the target chart's even
coordinates) and q odd components (valued in the target chart's odd
coordinates).  Each component is one flat dict ``{(word, exps): coef}``
holding the terms coef * x^exps * theta_word, with ``word`` a strictly
increasing tuple of odd indices and ``exps`` an exponent vector in the
source chart's even coordinates.

The body of an even component, its theta-free part, is a monomial c x^b,
as every transition of P^n is.  Composition is therefore exponent
arithmetic: write f_i = c_i x^(b_i) (1 + u_i), where u_i = n_i / body_i is
the soul shifted by -b_i.  A term c x^e theta_I of g becomes
    c prod c_i^(e_i) x^(sum e_i b_i) sum_k prod C(e_i, k_i) u^k f_odd[I]
mod J^(m+1), with the generalized binomial C(e, k), an integer for every
integer e, negative ones too.  The sum is finite because each u_i has
theta-degree at least 2.  Only rows that survive the truncation are built,
as flat term lists by a degree bound (see ``compose``), and odd words
multiply through ``_MERGED``, one table of Koszul signs and merged words.
Within a call each exponent vector is one int of balanced digits, wide
enough for the maps' largest exponents (``SuperMap.largest``), so a shift
or a product is one int add; the keys that survive are unpacked at the
end.  Given a third map, ``compose`` subtracts the composite from it as it
sums.

The split maps S_ij (bodies x^row, odd parts x^(z_a) theta_a, all
coefficients 1) have no soul, so composing with one is exponent
substitution.  Each is built once, with what depends on it alone, by
``_split_record``, memoised on (cover, degrees, i, j); a record is shared,
so it is only read.  Reversed maps and conjugates are built from them by
first-order formulas, exponent arithmetic on the deviation from S, whenever
the degree certificate of ``invert`` makes those formulas exact
(``normalize_inverses``, ``conjugate``); data beyond it composes.  So is the
obstruction image ``pushforward_partial``.  Each formula
is one pass: ``_pull`` adds components with S substituted and ``_tangent``
subtracts DS applied through the split record's moves, grouped by argument
component, each term once into accumulator dicts the caller owns, and
``_finish`` makes the map, as it does for ``compose``.  A reversed map
adds each deviation term's image under v -> -DS(v o S), which ``_image``
builds from the one monomial, memoised on (cover, degrees, i, j,
component, monomial, precision) and bounded, like ``cech``'s slot records,
to the ``cech.SLOT_TABLE_LIMIT`` most recently used.  No sum
multiplies a Fraction by the int 1 or -1 or adds one to 0: sums go through
``laurent.add_term``, which ``compose`` and ``_tangent`` inline.  The checks
of gluing data always compose, each through the one composition defect
``_defect``: rho_ik - rho_jk o rho_ij from one ``compose`` call.

Degree bookkeeping for a split bundle with degrees (k_1..k_q): the degree-1
part of the odd components is the diagonal frame change zeta_{ij,a} =
(z_j/z_i)^(k_a), and the degree-0 part of the even components is the chart
transition.  Homogeneous degree-d data of a trivialisation is a Čech cochain
valued in T tensor Lambda^d E (d even) or Lambda^d E tensor E-dual (d odd).
A map i -> j carries the chart-i slot data ``{(summand, comp, exps): coef}``
of such a cochain, the format of ``Cochain.on``, in its theta_I coefficients
in the frame of chart j: even slots through the Jacobian of the transition,
odd slots through zeta.  One layout per map, ``_slot_layout``, built from
``Cover.transport`` and the split exponents, says where each slot lands and
how to read it back; ``_place`` and ``_read`` apply it in one pass.  The
slot sheaves (``slot_sheaf``, on (cover, degrees, d)) and the layouts are
memoised like the split records, an odd layout on (cover, degrees, d, i, j)
and an even one on (cover, words, i, j), its theta words, which depend on
the rank alone; none of these memos is bounded.  The obstruction cocycle of an order-m
trivialisation is the homogeneous degree-(m+1) part of its composition
defect, computed mod J^(m+2) with all new top coefficients set to zero.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add, itemgetter, mul

from . import cech
from .bott import SplitBundleDegrees
from .cech import Cochain, Cover, SheafSpec
from .exterior import merge_sign, sort_index_tuple
from .laurent import add_term, coerce, fraction_to_str, parse_rational, power


class CocycleViolation(ValueError):
    """A trivialisation failed its own cocycle condition."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _checked_component(comp, p: int, q: int, parity: int) -> dict:
    """A component from outside: valid keys, exact coefficients, no zeros."""
    out: dict = {}
    for (word, exps), coef in comp.items():
        word, exps = tuple(word), tuple(int(x) for x in exps)
        if any(not 1 <= i <= q for i in word):
            raise ValueError(f"odd index out of range 1..{q}: {word}")
        if list(word) != sorted(set(word)):
            raise ValueError(f"index tuple must be strictly increasing: {word}")
        if len(word) % 2 != parity:
            raise ValueError("even component with odd terms" if parity == 0
                             else "odd component with even terms")
        if len(exps) != p:
            raise ValueError(f"exponent vector {exps} has wrong length for {p} even coordinates")
        out[(word, exps)] = out.get((word, exps), 0) + coerce(coef)
    return {key: c for key, c in out.items() if c}


@dataclass(frozen=True)
class SuperMap:
    """Super coordinate change between chart domains: its p even and q odd
    components, each a flat dict ``{(word, exps): coef}``.  The truncation
    order belongs to the ``Trivialization``.

    The constructor checks and cleans the components; results computed in
    this module are built by ``_map`` without those checks.
    """

    source: int
    target: int
    even: tuple[dict, ...]
    odd: tuple[dict, ...]

    @property
    def p(self) -> int:
        return len(self.even)

    @property
    def q(self) -> int:
        return len(self.odd)

    def __post_init__(self):
        p, q = self.p, self.q
        object.__setattr__(self, "even", tuple(_checked_component(g, p, q, 0) for g in self.even))
        object.__setattr__(self, "odd", tuple(_checked_component(g, p, q, 1) for g in self.odd))

    @functools.cached_property
    def largest(self) -> int:
        """The largest absolute value of an exponent, or 0, which sizes
        ``compose``'s packed exponents; kept, as components are only read."""
        exps = itertools.chain.from_iterable(
            map(itemgetter(1), itertools.chain.from_iterable(self.even + self.odd)))
        return max(map(abs, exps), default=0)

    def truncate(self, order: int) -> "SuperMap":
        """The map mod J^(order+1).  Callers only read the result, so when
        no term exceeds the order it is the map itself, not a copy."""
        if all(len(w) <= order for g in self.even + self.odd for w, _ in g):
            return self
        return _map(self.source, self.target,
                    tuple(_truncate(g, order) for g in self.even),
                    tuple(_truncate(g, order) for g in self.odd))


def _map(source: int, target: int, even: tuple, odd: tuple) -> SuperMap:
    """A map from components already valid, unchecked."""
    out = object.__new__(SuperMap)
    for name, value in (("source", source), ("target", target), ("even", even), ("odd", odd)):
        object.__setattr__(out, name, value)
    return out


def _truncate(comp: dict, order: int) -> dict:
    """The component mod J^(order+1): terms of theta-degree at most ``order``."""
    return {key: c for key, c in comp.items() if len(key[0]) <= order}


def _add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b on components, dropping what cancels."""
    out = dict(a)
    for key, c in b.items():
        add_term(out, key, c, sign)
        if not out[key]:
            del out[key]
    return out


class _MergeTable(dict):
    """(Koszul sign, merged word) of two odd words, 0 when they overlap,
    filled on first read; words are subsets of {1..q}: at most 4^q pairs."""

    def __missing__(self, pair):
        w1, w2 = pair
        sign = merge_sign(w1, w2)
        out = self[pair] = (sign, tuple(sorted(w1 + w2))) if sign else 0
        return out


_MERGED = _MergeTable()


def _product(a: list, b: list, order: int) -> list:
    """a wedge b on term lists ``[(word, packed exps, coef)]``, mod
    J^(order+1), zeros dropped; with a one-term factor no key repeats."""
    terms = []
    for w1, e1, c1 in a:
        room = order - len(w1)
        for w2, e2, c2 in b:
            merged = len(w2) <= room and _MERGED[w1, w2]
            if merged:
                sign, word = merged
                c = c1 if sign == 1 else -c1
                if type(c2) is int and (c2 == 1 or c2 == -1):
                    c = c if c2 == 1 else -c
                elif type(c) is int and (c == 1 or c == -1):
                    c = c2 if c == 1 else -c2
                else:
                    c = c * c2
                terms.append((word, e1 + e2, c))
    if len(a) == 1 or len(b) == 1:
        return terms
    out: dict = {}
    for word, e, c in terms:
        old = out.get((word, e))
        out[word, e] = c if old is None else old + c
    return [(w, e, c) for (w, e), c in out.items() if c]


def identity_map(chart: int, p: int, q: int) -> SuperMap:
    even = tuple({((), tuple(int(v == i) for v in range(p))): 1} for i in range(p))
    odd = tuple({((a,), (0,) * p): 1} for a in range(1, q + 1))
    return _map(chart, chart, even, odd)


def compose(g: SuperMap, f: SuperMap, order: int, *, minus: SuperMap | None = None) -> SuperMap:
    """g after f, all substitutions exact, mod J^(order+1); with ``minus``,
    a map from f's source to g's target, minus - g o f, each sum seeded with
    minus's terms up to the order.

    In the call an exponent vector e is one int, sum_mu e_mu 2^(w mu) with
    digits in [-2^(w-1), 2^(w-1)), so adding vectors adds ints.  A key's
    digit is at most q shifts (each within 2B) and q odd exponents (within
    B) plus sum e_i b_i (within pGB), or a seed's (within M), for B, G and
    M the ``largest`` of f, g and minus; 2^(w-1) exceeds 3qB + pGB and M.

    What depends on f alone is built once per call as term lists ``[(word,
    packed exps, coef)]``: the rows u^k of the shifts u_i = soul_i / body_i, each
    with its nonzero (i, k_i), and those rows times each odd word f_odd[I]
    that g uses, extended from the longest prefix of I already tabled.  A
    term c x^e theta_I of g adds c prod c_i^(e_i) C(e_i, k_i) times row k of
    word I, shifted by sum e_i b_i.  A body that is not a monomial c_i
    x^(b_i) raises ValueError.

    A row carries d, the sum of its factors' least theta-degrees, and is
    multiplied by a factor of least degree ``low`` only when d + low <=
    order: a pruned product is zero mod J^(order+1).  So is every term of g
    whose word is longer than ``order``.  The unit row, d = 0, times a
    factor is the factor truncated.
    """
    if (f.target != g.source or (f.p, f.q) != (g.p, g.q) or minus is not None
            and (minus.source, minus.target, minus.p, minus.q) != (f.source, g.target, f.p, f.q)):
        raise ValueError("maps are not composable")
    p, big = f.p, f.largest
    seeds = minus.even + minus.odd if minus is not None else None
    width = max(3 * f.q * big + p * g.largest * big,
                minus.largest if minus is not None else 0).bit_length() + 1
    weights = [1 << width * mu for mu in range(p)]
    bodies, scales, rows = [], [], [((), [((), 0, 1)], 0)]
    for i, comp in enumerate(f.even):
        body = [(e, c) for (w, e), c in comp.items() if not w]
        if len(body) != 1:
            raise ValueError("a body that is not one monomial cannot be substituted")
        (b, cb), = body
        b = sum(map(mul, b, weights))
        bodies.append(b)
        if cb != 1:
            scales.append((i, cb))
        u = [(w, sum(map(mul, e, weights)) - b, c if cb == 1 else coerce(Fraction(c) / cb))
             for (w, e), c in comp.items() if w and len(w) <= order]
        low, grown = min((len(w) for w, _, _ in u), default=order + 1), []
        for ks, row, d in rows:
            n = 0
            while d + low <= order:
                row = _product(row, u, order) if d else u
                if not row:
                    break
                n, d = n + 1, d + low
                grown.append((ks + ((i, n),), row, d))
        rows += grown
    odds = [[(w, sum(map(mul, e, weights)), c) for (w, e), c in comp.items() if len(w) <= order]
            for comp in f.odd]
    lows = [min([len(w) for w, _, _ in odd], default=order + 1) for odd in odds]
    tables = {(): rows}
    out = []
    for index, comp in enumerate(g.even + g.odd):
        acc = {} if seeds is None else {(w, sum(map(mul, e, weights))): c
                                        for (w, e), c in seeds[index].items() if len(w) <= order}
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
                            row = _product(row, odd, order) if d else odd
                            if row:
                                grown.append((ks, row, d + low))
                    table = tables[word[:n + 1]] = grown
            if not table:
                continue
            offset = sum(map(mul, e, bodies))
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
                    key = (w, x + offset)
                    old = acc.get(key)
                    acc[key] = v if old is None else old + v
        out.append(acc)
    return _finish(out, f.source, g.target, p, width)


def _unpacked(x: int, width: int, p: int) -> tuple:
    """The p exponents that ``compose`` packs in x, ``width`` bits each."""
    half, mask, out = 1 << width - 1, (1 << width) - 1, []
    for _ in range(p):
        out.append(((x + half) & mask) - half)
        x = (x - out[-1]) >> width
    return tuple(out)


def map_difference(a: SuperMap, b: SuperMap):
    """Componentwise difference (even list, odd list)."""
    return ([_add(x, y, -1) for x, y in zip(a.even, b.even)],
            [_add(x, y, -1) for x, y in zip(a.odd, b.odd)])


def difference_is_zero(diff) -> bool:
    ev, od = diff
    return not any(ev) and not any(od)


def _finish(acc: list, source: int, target: int, p: int, width: int = 0) -> SuperMap:
    """The map whose components, the even ones first, a kernel has summed
    into the dicts ``acc``: zeros dropped, integral coefficients as ints,
    and with a ``width`` the surviving keys' packed exponents unpacked."""
    if width:
        comps = [{(w, _unpacked(x, width, p)): c if type(c) is int else coerce(c)
                  for (w, x), c in g.items() if c} for g in acc]
    else:
        comps = [{key: c if type(c) is int else coerce(c) for key, c in g.items() if c}
                 for g in acc]
    return _map(source, target, tuple(comps[:p]), tuple(comps[p:]))


def _least_degrees(sm: SuperMap, base: SuperMap, order: int) -> tuple:
    """(d_e, d_o): the least theta-degrees of the even and of the odd
    components of sm - base, order + 1 where there are none, read off sm
    without building the difference: ``base``, a split or an identity map,
    has one term of coefficient 1 per component, which a term of sm cancels
    when it is 1 there."""
    low = [order + 1, order + 1]
    for index, (comp, (unit,)) in enumerate(zip(sm.even + sm.odd, base.even + base.odd)):
        odd = index >= sm.p
        if unit not in comp:
            low[odd] = min(low[odd], len(unit[0]))
        for (w, e), c in comp.items():
            if len(w) < low[odd] and (c != 1 or (w, e) != unit):
                low[odd] = len(w)
    return tuple(low)


def _first_order_exact(d_e: int, d_o: int, order: int) -> bool:
    """Whether first-order formulas in deviations whose even and odd
    components have least theta-degrees d_e and d_o are exact mod
    J^(order+1).

    Every term such a formula neglects is a derivative of a map, of degree
    >= min(d_e, d_o) less one per odd derivative when the map is a
    deviation, times at least one deviation, of degree >= d_e (even) or d_o
    (odd); a split map needs two of them, since it is linear in theta.  So
    when d_e, d_o >= 2 every neglected term has degree at least
    min(d_e, d_o) + min(d_e, d_o - 1), and the formula is exact when that
    exceeds ``order``.
    """
    return min(d_e, d_o) >= 2 and min(d_e, d_o) + min(d_e, d_o - 1) > order


def invert(sm: SuperMap, order: int) -> SuperMap:
    """Inverse modulo J^(order+1), by fixed-point iteration on the deviation.

    Write sm = id + delta.  When ``_first_order_exact`` holds for delta, the
    first step id - delta is the inverse, returned without composing:
    sm o (id - delta) - id is a sum of derivatives of delta times shifts by
    delta, the terms that certificate bounds.
    """
    if sm.source != sm.target:
        raise ValueError("only chart automorphisms are inverted here")
    g = ident = identity_map(sm.source, sm.p, sm.q)
    image = sm.truncate(order)  # sm o id, known without composing
    for step in range(order + 2):
        err_even, err_odd = map_difference(image, ident)
        if difference_is_zero((err_even, err_odd)):
            return g
        g = _map(sm.source, sm.target,
                 tuple(_add(x, e, -1) for x, e in zip(g.even, err_even)),
                 tuple(_add(x, e, -1) for x, e in zip(g.odd, err_odd)))
        if step == 0 and _first_order_exact(*_least_degrees(image, ident, order), order):
            return g
        image = compose(sm, g, order)
    raise ValueError("automorphism is not invertible at this order")


# ---------------------------------------------------------------------------
# split maps and first-order moves


@functools.cache
def _split_record(cover: Cover, degrees: SplitBundleDegrees, i: int, j: int) -> tuple:
    """The split map i -> j and what is derived from it alone, memoised on
    (cover, degrees, i, j), as (rows, zs, cols, map, moves, odd moves): the
    even rows, x^row, read off the transport j -> i; the odd z_a = k_a line,
    x^(z_a) theta_a; the columns of the rows; the map; and the moves of
    ``_tangent`` grouped by argument component, all of them and those into
    odd components, which these number from 0.  Shared, so read only."""
    rows, line, _ = cover.transport(cech.LINE_SUM, j, i, 0)
    zs = tuple(tuple(k * x for x in line) for k in degrees.degrees)
    p, terms = len(rows), [((), r) for r in rows] + [((a,), z) for a, z in enumerate(zs, 1)]
    comps = tuple({term: 1} for term in terms)
    moves = [[] for _ in terms]
    for out, (w, row) in enumerate(terms):
        for k, r in enumerate(row):
            if r:
                moves[k].append((out, r, tuple(x - (n == k) for n, x in enumerate(row)), w))
        for a in w:
            moves[p + a - 1].append((out, 1, row, ()))
    odd = tuple(tuple((out - p, *move) for out, *move in arg if out >= p) for arg in moves)
    return (rows, zs, tuple(zip(*rows)), _map(i, j, comps[:p], comps[p:]),
            tuple(map(tuple, moves)), odd)


def _pull(acc: list, comps, split: tuple, order: int) -> None:
    """Add comp o S to the accumulator of each component, mod J^(order+1),
    for a split map S, which has no soul: x^e theta_w becomes
    x^(sum_mu e_mu row_mu + sum_(a in w) z_a) theta_w.  A sum that cancels
    leaves its accumulator, and zeros in ``comps``, what ``_tangent`` leaves
    where terms cancel, are skipped."""
    _, zs, cols = split[:3]
    for part, comp in zip(acc, comps):
        for (w, e), c in comp.items():
            if c and len(w) <= order:
                exps = [sum(map(mul, e, col)) for col in cols]
                for a in w:
                    exps = list(map(add, exps, zs[a - 1]))
                key = (w, tuple(exps))
                add_term(part, key, c)
                if not part[key]:
                    del part[key]


def _tangent(acc: list, comps, moves: tuple, order: int) -> None:
    """Subtract DS v, mod J^(order+1), from the accumulators: the
    first-order change of the split map S when its argument moves by the
    vector v, given as components, the even ones first.

    A term x^row theta_w of S moves by sum_k row_k x^(row - e_k) v^k theta_w
    and, for w = (a,), by x^row v^a_odd.  The split record lists these moves
    by argument component k as (output, r, shift, word): each term of v^k,
    times r x^shift theta_word, leaves ``acc[output]``.  ``moves`` are the
    record's moves, or its odd moves into q accumulators.
    """
    for comp, arg_moves in zip(comps, moves):
        for (u, e), c in comp.items():
            room = order - len(u)
            for out, r, shift, word in arg_moves:
                merged = len(word) <= room and _MERGED[u, word]
                if merged:
                    sign, joined = merged
                    factor = -sign * r
                    x = c if factor == 1 else -c if factor == -1 else factor * c
                    part, key = acc[out], (joined, tuple(map(add, e, shift)))
                    old = part.get(key)
                    part[key] = x if old is None else old + x


# ---------------------------------------------------------------------------
# trivialisations


@dataclass(frozen=True)
class Trivialization:
    cover: Cover
    degrees: SplitBundleDegrees
    order: int
    maps: dict  # ordered chart pair -> SuperMap

    @property
    def p(self) -> int:
        return self.cover.n

    @property
    def q(self) -> int:
        return self.degrees.rank


def split_trivialization(cover: Cover, degrees: SplitBundleDegrees, order: int) -> Trivialization:
    """The chart transitions with odd frame changes zeta_{ij,a}: the exponent
    rows and the line vector of ``Cover.transport`` from j to i."""
    maps = {(i, j): _split_record(cover, degrees, i, j)[3]
            for i, j in itertools.permutations(cover.charts, 2)}
    return Trivialization(cover, degrees, order, maps)


@functools.cache
def slot_sheaf(cover: Cover, degrees: SplitBundleDegrees, d: int) -> SheafSpec:
    """Sheaf housing homogeneous degree-d data: Q^(d);+ even, Q^(d);- odd.
    Memoised on (cover, degrees, d)."""
    if d % 2 == 0:
        make, summands = cech.tangent_twisted, degrees.wedge_summands(d)
    else:
        make, summands = cech.line_sum, [((I, a), wt + dt) for I, wt in degrees.wedge_summands(d)
                                         for a, dt in degrees.dual_summands()]
    return make(cover, [t for _, t in summands], labels=tuple(label for label, _ in summands))


def _slot_layout(cover: Cover, degrees: SplitBundleDegrees, d: int, i: int, j: int) -> tuple:
    """Where the degree-d slots of the chart-i slot frame sit in the map
    i -> j, and how they are read back: (place, read); arguments stay in
    chart i.  Memoised by ``_odd_layout`` on (cover, degrees, d, i, j) and
    by ``_even_layout`` on (cover, words, i, j): an even layout depends on
    the degrees only through the theta words of its summands, so it is
    shared by every bundle of the same rank.

    ``place[summand, comp]`` lists (component index, odd word, exponent
    offset, coefficient): a slot x^e in chart-i frame adds coef x^(e +
    offset) theta_word to that component, the even ones first.
    ``read[index, word]`` lists (summand, comp, offset, coefficient) back.
    The identity frame when i == j.
    """
    if d % 2:
        return _odd_layout(cover, degrees, d, i, j)
    return _even_layout(cover, slot_sheaf(cover, degrees, d).labels, i, j)


@functools.cache
def _even_layout(cover: Cover, words: tuple, i: int, j: int) -> tuple:
    """``_slot_layout`` for even d, tangent slots, summand I at theta_I of
    the even components, I the summand's word: the Jacobian of
    transition(i, j), read transposed off the one-form transport j -> i,
    and the tangent transport j -> i back."""
    place, read = {}, {}
    comps = range(cover.n)
    for s, word in enumerate(words):
        for nu in comps:
            place[s, nu] = tuple((mu, word, offset, c) for mu in comps
                                 for col, offset, c in cover.transport(cech.ONE_FORM, j, i, mu)[2]
                                 if col == nu)
            read[nu, word] = tuple((s, *out) for out in cover.transport(cech.TANGENT, j, i, nu)[2])
    return place, read


@functools.cache
def _odd_layout(cover: Cover, degrees: SplitBundleDegrees, d: int, i: int, j: int) -> tuple:
    """``_slot_layout`` for odd d, slot (I, a) at theta_I of odd component
    a: zeta_{ij,a} = x^(z_a), z_a the odd split exponents of
    ``_split_record``, and x^(-z_a) back."""
    p = cover.n
    zs = _split_record(cover, degrees, i, j)[1] if i != j else ((0,) * p,) * degrees.rank
    place, read = {}, {}
    for s, (word, a) in enumerate(slot_sheaf(cover, degrees, d).labels):
        place[s, 0] = ((p + a - 1, word, zs[a - 1], 1),)
        read[p + a - 1, word] = ((s, 0, tuple(-x for x in zs[a - 1]), 1),)
    return place, read


def _place(sm: SuperMap, layout: tuple, data: dict) -> SuperMap:
    """``sm`` plus chart-i slot data ``{(summand, comp, exps): coef}``, moved
    to the map's frame and placed by a ``_slot_layout``."""
    comps = [dict(g) for g in sm.even + sm.odd]
    place = layout[0]
    for (s, comp, e), c in data.items():
        for index, word, offset, x in place[s, comp]:
            add_term(comps[index], (word, tuple(map(add, e, offset))), c, x)
    return _finish(comps, sm.source, sm.target, sm.p)


def _read(layout: tuple, comps) -> tuple:
    """(data, rest): the chart-i slot data of a map's components, the even
    ones first, what ``_place`` put there, read back by a ``_slot_layout``;
    and per component the terms without a place."""
    read, out, rest = layout[1], {}, []
    for index, comp in enumerate(comps):
        rest.append({})
        for (w, e), c in comp.items():
            entries = read.get((index, w))
            if entries is None:
                rest[index][w, e] = c
                continue
            for s, mu, offset, x in entries:
                add_term(out, (s, mu, tuple(map(add, e, offset))), c, x)
    return {key: coerce(c) for key, c in out.items() if c}, rest


def _slot_sheaf_of(c: Cochain, cover: Cover, degrees: SplitBundleDegrees, d: int,
                   message: str) -> None:
    """ValueError(message) unless ``c`` lives in the degree-d slot sheaf."""
    expected = slot_sheaf(cover, degrees, d)
    if c.sheaf.kind != expected.kind or c.sheaf.twists != expected.twists:
        raise ValueError(message)


def apply_increment(t: Trivialization, inc: Cochain, d: int) -> Trivialization:
    """Add homogeneous degree-d cochain data to the sorted-pair maps.

    The reversed maps are left as they are, to be remade by
    ``normalize_inverses``.
    """
    if inc.degree != 1:
        raise ValueError("increments are 1-cochains")
    _slot_sheaf_of(inc, t.cover, t.degrees, d, "increment sheaf does not match the degree slot")
    new_maps = dict(t.maps)
    for (i, j) in t.cover.pairs:
        new_maps[(i, j)] = _place(t.maps[(i, j)], _slot_layout(t.cover, t.degrees, d, i, j),
                                  inc.on((i, j)))
    return Trivialization(t.cover, t.degrees, t.order, new_maps)


def slot_cochain(t: Trivialization, d: int) -> Cochain:
    """Extract the homogeneous degree-d data of sorted pairs as a cochain."""
    spec = slot_sheaf(t.cover, t.degrees, d)
    terms = {}
    for (i, j) in t.cover.pairs:
        sm = t.maps[(i, j)]
        data = _read(_slot_layout(t.cover, t.degrees, d, i, j), sm.even + sm.odd)[0]
        terms.update({((i, j), *key): c for key, c in data.items()})
    return Cochain(spec, 1, terms)


def normalize_inverses(t: Trivialization) -> Trivialization:
    """Replace the maps on reversed pairs by exact inverses mod J^(order+2).

    Data on sorted pairs is authoritative; making the reversed maps exact
    inverses one order beyond the truncation is what turns the raw
    composition defect on permuted triples into an honest alternating
    cochain.  This is the one place reversed maps are made, and the inverse
    mod J^(order+2) is unique.

    Write fwd = S_ij + delta, S the split maps, which have no soul, so
    composing with one is exponent substitution.  When ``_first_order_exact``
    holds for delta at the precision, the inverse is S_ji - D o S_ji, where
    D = DS_ji delta, at the point S_ij, is the first-order part of
    S_ji o fwd - id: sum_mu R_(nu mu) x^(e_nu - r_mu) delta^mu on even nu,
    and x^(-z_a) delta_odd^a + (sum_mu z'_(a mu) u_mu) theta_a on odd a, with
    u_mu = delta^mu / x^(r_mu), x^(r_mu) and x^(z_a) theta_a the split map
    S_ij, and R, z' the exponents of S_ji.  Since S_ij o S_ji = id,
    D o S_ji = DS_ji (delta o S_ji), with the derivative at the identity,
    which is how it is computed.  Proof: (S_ji - D o S_ji) o fwd =
    (id - D) o (id + D + H), with H the rest of S_ji o fwd - id, whose terms
    are products of two shifts by delta.  This differs from id by H and by
    derivatives of D times D + H; D has least degrees d_e and
    min(d_o, d_e + 1), and the certificate bounds both kinds.  Otherwise, as
    for order-3 rank-4 data at precision 4, the old reversed map seeds an
    inversion by ``compose`` and ``invert``.
    """
    precision = t.order + 1
    new_maps = dict(t.maps)
    for (i, j) in t.cover.pairs:
        new_maps[(j, i)], exact = _first_order_inverse(t, i, j, precision)
        if not exact:
            fwd, seed = t.maps[(i, j)], t.maps[(j, i)]
            around = compose(fwd, seed, precision)  # chart-j automorphism
            new_maps[(j, i)] = compose(seed, invert(around, precision), precision)
    return Trivialization(t.cover, t.degrees, t.order, new_maps)


def _first_order_inverse(t: Trivialization, i: int, j: int, precision: int) -> tuple:
    """S_ji - DS_ji (delta o S_ji) for the map i -> j (see
    ``normalize_inverses``), and whether ``_first_order_exact`` makes it the
    inverse mod J^(precision+1).  One pass over rho_ij reads delta, rho_ij
    with S_ij's one term per component less 1 (a missing one read as 0),
    and the certificate's least degrees; each term of delta adds its
    coefficient times its ``_image``."""
    cover, degrees = t.cover, t.degrees
    there, back = (_split_record(cover, degrees, *pair)[3] for pair in ((i, j), (j, i)))
    rho, low = t.maps[(i, j)], [precision + 1, precision + 1]
    acc = [dict(g) for g in back.even + back.odd]
    for index, (comp, (unit,)) in enumerate(zip(rho.even + rho.odd, there.even + there.odd)):
        odd = index >= t.p
        for key, c in comp.items() if unit in comp else [*comp.items(), (unit, 0)]:
            if key == unit:
                if c == 1:
                    continue
                c -= 1
            n = len(key[0])
            if n < low[odd]:
                low[odd] = n
            if n > precision:
                continue
            terms = iter(_image(cover, degrees, j, i, index, key, precision))
            for out, word, exps, factor in zip(terms, terms, terms, terms):
                x = c if factor == 1 else -c if factor == -1 else factor * c
                part, target = acc[out], (word, exps)
                old = part.get(target)
                part[target] = x if old is None else old + x
    return _finish(acc, j, i, t.p), _first_order_exact(*low, precision)


@functools.lru_cache(maxsize=cech.SLOT_TABLE_LIMIT)
def _image(cover: Cover, degrees: SplitBundleDegrees, i: int, j: int, index: int, key: tuple,
           precision: int) -> tuple:
    """The image of the monomial ``key`` of component ``index`` under v ->
    -DS(v o S) mod J^(precision+1), S the split map i -> j: the monomial
    x^e theta_w pulled through S once, to x^(sum_mu e_mu row_mu + sum_(a in
    w) z_a) theta_w, then moved along the split record's moves for the
    component, at most one into each output component.  Each term as output
    component, word, exponents and coefficient, flat, so that a kept image
    holds no tuple per term.  Memoised on (cover, degrees, i, j, index, key,
    precision); a key holds a map's support, so the memo keeps the
    ``cech.SLOT_TABLE_LIMIT`` most recently used."""
    _, zs, cols, _, moves, _ = _split_record(cover, degrees, i, j)
    w, e = key
    exps = [sum(map(mul, e, col)) for col in cols]
    for a in w:
        exps = list(map(add, exps, zs[a - 1]))
    room, image = precision - len(w), []
    for out, r, shift, word in moves[index]:
        merged = len(word) <= room and _MERGED[w, word]
        if merged:
            sign, joined = merged
            image += (out, joined, tuple(map(add, exps, shift)), -sign * r)
    return tuple(image)


def build_trivialization(cover: Cover, degrees: SplitBundleDegrees, order: int,
                         increments: dict[int, Cochain] | None = None) -> Trivialization:
    """Split model plus homogeneous increments at the given degree slots."""
    t = split_trivialization(cover, degrees, order)
    for d, inc in sorted((increments or {}).items()):
        if not 2 <= d <= order:
            raise ValueError(f"slot degree {d} outside 2..order")
        t = apply_increment(t, inc, d)
    return normalize_inverses(t)


def _defect(t: Trivialization, i: int, j: int, k: int, order: int) -> tuple:
    """rho_ik - rho_jk o rho_ij mod J^(order+1), with rho_ii = id, as
    (even list, odd list): the one composition behind every check of
    gluing data."""
    outer = t.maps[(i, k)] if i != k else identity_map(i, t.p, t.q)
    out = compose(t.maps[(j, k)], t.maps[(i, j)], order, minus=outer)
    return list(out.even), list(out.odd)


def cocycle_residual(t: Trivialization) -> dict:
    """rho_ik - rho_jk o rho_ij per ordered triple, truncated at t.order."""
    return {triple: _defect(t, *triple, t.order)
            for triple in itertools.permutations(t.cover.charts, 3)}


def residuals_all_zero(res: dict) -> bool:
    return all(difference_is_zero(d) for d in res.values())


def inverse_residual(t: Trivialization) -> dict:
    """rho_ji o rho_ij - id per ordered pair, truncated at t.order."""
    return {(i, j): tuple([{key: -c for key, c in g.items()} for g in part]
                          for part in _defect(t, i, j, i, t.order)) for i, j in t.maps}


def _defect_coefficients(t: Trivialization, triple) -> dict:
    """Degree-(m+1) composition defect on one ordered triple (i, j, k).

    The result is the defect's theta_I coefficients as chart-i slot data,
    read through the layout of the map i -> k.  Raises CocycleViolation when
    the defect has parts of degree <= t.order; a term of degree m + 1 that
    the layout does not read has the wrong parity, a failed self-check.
    """
    m = t.order
    ev, od = _defect(t, *triple, m + 1)
    data, rest = _read(_slot_layout(t.cover, t.degrees, m + 1, triple[0], triple[2]), ev + od)
    low = [_truncate(g, m) for g in rest]
    if any(low):
        raise CocycleViolation(f"cocycle condition fails at order {m} on triple {triple}",
                               residual=(low[:t.p], low[t.p:]))
    if any(rest):
        raise AssertionError("defect of the wrong parity at degree m + 1")
    return data


def obstruction_cocycle(t: Trivialization) -> Cochain:
    """Degree-(m+1) part of the composition defect, mod J^(m+2).

    Lands in T tensor Lambda^(m+1)E when m is odd and in Lambda^(m+1)E tensor
    E-dual when m is even.  The input must satisfy its own cocycle condition,
    otherwise the offending residual is raised.
    """
    terms = {}
    for triple in t.cover.triples:
        terms.update({(triple, *key): c for key, c in _defect_coefficients(t, triple).items()})
    return Cochain(slot_sheaf(t.cover, t.degrees, t.order + 1), 2, terms)


def obstruction_with_check(t: Trivialization) -> tuple:
    """(gamma, check): ``obstruction_cocycle(t)`` and
    ``verify_gamma_cocycle(gamma, t)``, composing each ordered triple once:
    on a sorted triple the check would compare gamma with its own value."""
    gamma = obstruction_cocycle(t)
    return gamma, _verify(gamma, t, t.cover.triples)


def verify_gamma_cocycle(gamma: Cochain, t: Trivialization) -> dict:
    """Cocycle verification for an obstruction 2-cochain.

    The twisted coboundary needs quadruple overlaps, which the standard
    covers lack, so it is checked formally; the substantive checks are
    alternation and value consistency: the defect recomputed on every ordered
    triple (i, j, k) must equal the sign-adjusted stored value, moved from the
    smallest chart to chart i by ``cech.represent``, both as chart-i slot data.
    """
    return _verify(gamma, t, ())


def _verify(gamma: Cochain, t: Trivialization, skipped) -> dict:
    """``verify_gamma_cocycle`` on the ordered triples not in ``skipped``."""
    problems, values, moved = [], {}, {}
    for triple in itertools.permutations(t.cover.charts, 3):
        if triple in skipped:
            continue
        try:
            direct = _defect_coefficients(t, triple)
        except CocycleViolation as err:
            return {"pass": False, "residual": err.residual, "problems": ["precondition"]}
        key = tuple(sorted(triple))
        if key not in values:
            values[key] = gamma.on(key)
        # represent is linear: move each sorted value to a chart once, then sign it
        stored = moved.get((key, triple[0]))
        if stored is None:
            stored = moved[key, triple[0]] = cech.represent(gamma.sheaf, values[key], key[0],
                                                            triple[0])
        if sort_index_tuple(triple)[1] < 0:
            stored = {slot: -c for slot, c in stored.items()}
        if direct != stored:
            problems.append((triple, direct, stored))
    delta = cech.coboundary(gamma)
    if not delta.is_zero():
        problems.append(("coboundary", delta))
    return {"pass": not problems, "problems": problems, "residual": None}


def pushforward_partial(omega: Cochain, t: Trivialization) -> Cochain:
    """Image 2-cocycle of a first-order extension class.

    ``omega`` is a closed 1-cochain valued in T tensor Lambda^2 E; the result
    is the Lambda^3 E tensor E-dual valued 2-cocycle whose value on a sorted
    triple (i, j, k) is the odd degree-3 part of -DS_jk(S_ij) w_ij, with w_ij
    omega's increment of rho_ij in the map's frame: w_ij moves to chart j by
    S_ji, ``_tangent`` applies the odd components of DS_jk, the only ones
    read, and the image moves back by S_ij.  This
    is the degree-3 composition defect of the order-2 trivialisation built
    from omega, which ``verify_gamma_cocycle`` checks against ``compose``.
    """
    if t.order < 2:
        raise ValueError("an order >= 2 trivialisation is required")
    cech.require_cocycle(omega)
    cover, degrees = t.cover, t.degrees
    _slot_sheaf_of(omega, cover, degrees, 2, "omega does not live in the degree-2 slot sheaf")
    terms, p, q = {}, t.p, t.q
    for (i, j, k) in cover.triples:
        there, back = (_split_record(cover, degrees, *pair) for pair in ((i, j), (j, i)))
        zero = _map(i, j, ({},) * p, ({},) * q)
        w = _place(zero, _slot_layout(cover, degrees, 2, i, j), omega.on((i, j)))
        pulled, moved = [{} for _ in range(p + q)], [{} for _ in range(q)]
        image = [{} for _ in range(q)]
        _pull(pulled, w.even + w.odd, back, 3)
        _tangent(moved, pulled, _split_record(cover, degrees, j, k)[5], 3)
        _pull(image, moved, there, 3)
        data = _read(_slot_layout(cover, degrees, 3, i, k), [{}] * p + image)[0]
        terms.update({((i, j, k), *key): c for key, c in data.items()})
    return Cochain(slot_sheaf(cover, degrees, 3), 2, terms)


def act_torsor(t: Trivialization, alpha: Cochain) -> Trivialization:
    """Shift the top-degree slot by a closed cochain; a new trivialisation.

    For order-2 data the obstruction cocycle of the result equals that of
    ``t`` plus ``pushforward_partial(alpha, t)``, term by term.  So the
    representative is not invariant under the shift; its class is preserved
    when ``alpha`` is exact, since the image of a coboundary is a coboundary.
    """
    cech.require_cocycle(alpha)
    out = normalize_inverses(apply_increment(t, alpha, t.order))
    res = cocycle_residual(out)
    if not residuals_all_zero(res):
        raise CocycleViolation("torsor shift produced an invalid trivialisation", res)
    return out


def automorphism_from_increment(cover: Cover, degrees: SplitBundleDegrees, order: int,
                                nu: Cochain, d: int) -> dict:
    """Chart automorphisms id + nu from a degree-d 0-cochain, 2 <= d <= order."""
    if not 2 <= d <= order:
        raise ValueError(f"slot degree {d} outside 2..order")
    if nu.degree != 0:
        raise ValueError("expected a 0-cochain")
    _slot_sheaf_of(nu, cover, degrees, d, "0-cochain does not live in the degree slot sheaf")
    return {c: _place(identity_map(c, cover.n, degrees.rank),
                      _slot_layout(cover, degrees, d, c, c), nu.on((c,)))
            for c in cover.charts}


def conjugate(t: Trivialization, lam: dict) -> Trivialization:
    """Conjugated trivialisation lam_j o rho_ij o lam_i^(-1), same order.

    Each lam must be an invertible chart automorphism equal to the identity
    mod J^2.  Only the sorted-pair maps are conjugated, one order beyond the
    truncation; ``normalize_inverses`` remakes the rest.

    Write lam_c = id + nu_c and rho_ij = S_ij + delta.  When
    ``_first_order_exact`` holds for all nu_c and delta together at the
    precision, the conjugate is rho_ij + nu_j o S_ij - DS_ij nu_i, where
    nu_j o S_ij is exponent substitution and DS_ij nu_i is ``_tangent``.
    Proof: lam_i^(-1) = id - nu_i, as ``invert`` certifies.  The conjugate
    differs from the sum by three kinds of terms: second derivatives of S_ij
    times two shifts by nu_i, derivatives of delta times nu_i, and
    derivatives of nu_j times rho_ij o (id - nu_i) - S_ij, whose least even
    and odd degrees are d_e and min(d_o, d_e + 1).  The certificate bounds
    all three.  Otherwise the lam of the sorted pairs' source charts are
    inverted and everything is composed.
    """
    m = t.order
    p, q = t.p, t.q
    # conjugating one order beyond the truncation carries the induced
    # degree-(m+1) coefficients along
    precision = m + 1
    nu, lows = {}, {}
    for c, sm in lam.items():
        if sm.source != c or sm.target != c:
            raise ValueError("lam must consist of chart automorphisms")
        ident = identity_map(c, p, q)
        even, odd = map_difference(sm, ident)
        nu[c], lows[c] = even + odd, _least_degrees(sm, ident, precision)
        if min(lows[c]) <= 1:
            raise ValueError("lam must restrict to the identity mod J^2")
    splits = {(i, j): _split_record(t.cover, t.degrees, i, j) for i, j in t.cover.pairs}
    low = [_least_degrees(t.maps[pair], split[3], precision) for pair, split in splits.items()]
    low += [lows[c] for c in {c for pair in t.cover.pairs for c in pair}]
    new_maps = dict(t.maps)
    if _first_order_exact(*map(min, zip(*low)), precision):
        for (i, j), split in splits.items():
            rho = t.maps[(i, j)]
            acc = [_truncate(g, precision) for g in rho.even + rho.odd]
            _pull(acc, nu[j], split, precision)
            _tangent(acc, nu[i], split[4], precision)
            new_maps[(i, j)] = _finish(acc, i, j, p)
    else:
        inverses = {c: invert(lam[c], precision) for c in {i for i, _ in t.cover.pairs}}
        for (i, j) in t.cover.pairs:
            new_maps[(i, j)] = compose(lam[j], compose(t.maps[(i, j)], inverses[i], precision),
                                       precision)
    return normalize_inverses(Trivialization(t.cover, t.degrees, m, new_maps))


def extend_by_zero(t: Trivialization) -> Trivialization:
    """Order m+1 trivialisation keeping all sorted-pair coefficients verbatim."""
    return normalize_inverses(Trivialization(t.cover, t.degrees, t.order + 1, t.maps))


def equivalence_witness(t1: Trivialization, t2: Trivialization):
    """A 0-cochain nu with lam(nu) conjugating t1 onto t2, or None.

    Two trivialisations sharing their data below the top slot are equivalent
    exactly when the top-slot difference is a coboundary.
    """
    if (t1.order, t1.degrees) != (t2.order, t2.degrees):
        raise ValueError("orders or bundles differ")
    m = t1.order
    for d in range(2, m):
        if not (slot_cochain(t1, d) - slot_cochain(t2, d)).is_zero():
            raise ValueError("trivialisations differ below the top slot")
    diff = slot_cochain(t2, m) - slot_cochain(t1, m)
    sol, cert = cech.solve_coboundary(diff)
    if sol is None:
        return None
    lam = automorphism_from_increment(t1.cover, t1.degrees, m, sol, m)
    conj = conjugate(t1, lam)
    # the maps hold no zero coefficient, so they agree mod J^(m+1) exactly
    # when their truncations are equal
    for key in t1.maps:
        if conj.maps[key].truncate(m) != t2.maps[key].truncate(m):
            raise AssertionError("equivalence witness failed verification")
    return sol


# ---------------------------------------------------------------------------
# randomized instances


def random_trivialization(cover: Cover, degrees: SplitBundleDegrees, order: int, rng,
                          harmonic=None) -> Trivialization:
    """Split model with random closed top-slot data.

    Closedness of the increment is what the order-m cocycle condition
    requires of the top slot, so the construction always satisfies its own
    precondition; this is verified once more before returning.
    """
    if order != 2 and len(cover.triples) > 0:
        raise ValueError("random trivialisations with triples are built at order 2")
    increments = {}
    if order >= 2:
        increments[2] = cech.random_closed_cochain(slot_sheaf(cover, degrees, 2), rng,
                                                   harmonic=harmonic)
        for d in range(3, order + 1):
            # no triples: any alternating data glues
            increments[d] = cech.random_cochain(slot_sheaf(cover, degrees, d), 1, rng)
    t = build_trivialization(cover, degrees, order, increments)
    res = cocycle_residual(t)
    if not residuals_all_zero(res):
        raise CocycleViolation("randomized trivialisation failed the cocycle check", res)
    return t


# ---------------------------------------------------------------------------
# thickening files


def _component_to_json(comp: dict) -> list:
    """[{"indices": word, "coef": [{"exps": ..., "coef": "num/den"}, ...]}, ...], sorted."""
    words: dict = {}
    for (word, exps), c in sorted(comp.items()):
        words.setdefault(word, []).append({"exps": list(exps), "coef": fraction_to_str(c)})
    return [{"indices": list(word), "coef": terms} for word, terms in words.items()]


def trivialization_to_json(t: Trivialization) -> dict:
    maps = {}
    for (i, j), sm in sorted(t.maps.items()):
        maps[f"{i},{j}"] = {
            "even": [_component_to_json(g) for g in sm.even],
            "odd": [_component_to_json(g) for g in sm.odd],
        }
    return {
        "space": f"P{t.cover.n}",
        "order": t.order,
        "degrees": list(t.degrees.degrees),
        "maps": maps,
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def _of(kind: type, x):
    """``x`` if it is a ``kind``; anything else raises ValueError."""
    if not isinstance(x, kind):
        raise ValueError(f"expected a {kind.__name__}")
    return x


def _ints(x) -> tuple:
    """A list of integers as a tuple; anything else raises ValueError."""
    if not _is_int_list(x):
        raise ValueError("expected a list of integers")
    return tuple(x)


def _component_from_json(data, where: str) -> dict:
    """Inverse of ``_component_to_json``, checking each term's shape as it
    reads; a malformed term, an odd word listed twice, or an exponent vector
    listed twice within one word raises ValueError."""
    comp, words, count = {}, set(), 0
    try:
        for term in _of(list, data):
            word = _ints(_of(dict, term).get("indices"))
            for c in _of(list, term.get("coef")):
                exps = _ints(_of(dict, c).get("exps"))
                comp[(word, exps)] = parse_rational(c.get("coef"))
            words.add(word)
            count += len(term["coef"])
    except ValueError:
        raise ValueError(f"{where} has a malformed term") from None
    if len(words) < len(data) or len(comp) < count:
        raise ValueError("a component lists an odd word twice, or an exponent vector twice "
                         "within one word")
    return comp


def trivialization_from_json(data) -> Trivialization:
    """Read a thickening file in one pass; a malformed shape, term or
    component count raises ValueError, as does a map the ``SuperMap``
    constructor refuses or an even body other than the chart transition's
    monomial.  Chart pairs the file leaves out keep their split maps."""
    if not isinstance(data, dict):
        raise ValueError("a thickening file is a JSON object")
    space = data.get("space")
    if space not in ("P1", "P2"):
        raise ValueError(f"unknown space {space!r}")
    if not _is_int_list(data.get("degrees")):
        raise ValueError("degrees must be a list of integers")
    order = data.get("order")
    if not _is_int(order) or order < 1:
        raise ValueError(f"order must be an integer of at least 1, got {order!r}")
    maps = data.get("maps", {})
    if not isinstance(maps, dict):
        raise ValueError("maps must be an object keyed by chart pairs")
    cover = cech.standard_cover(int(space[1]))
    degrees = SplitBundleDegrees(tuple(data["degrees"]))
    pairs = {f"{i},{j}": (i, j) for i, j in itertools.permutations(cover.charts, 2)}
    counts = {"even": cover.n, "odd": degrees.rank}
    read = {}
    for key, payload in maps.items():
        if key not in pairs:
            raise ValueError(f"map key {key!r} is not a pair 'i,j' of distinct charts")
        if not isinstance(payload, dict):
            raise ValueError(f"map {key} must be an object with 'even' and 'odd'")
        parts = []
        for part, count in counts.items():
            comps = payload.get(part)
            if not isinstance(comps, list) or len(comps) != count:
                raise ValueError(f"map {key} {part!r} must be a list of {count} components")
            parts.append(tuple(_component_from_json(comp, f"map {key} {part!r}")
                               for comp in comps))
        i, j = pairs[key]
        sm = SuperMap(i, j, *parts)
        for nu, (comp, row) in enumerate(zip(sm.even, _split_record(cover, degrees, i, j)[0])):
            body = {e: c for (w, e), c in comp.items() if not w}
            if len(body) != 1:
                raise ValueError(f"map {key} even component {nu}: the body is not one monomial")
            if body != {row: 1}:
                raise ValueError(f"map {key} even component {nu}: the body is not the chart "
                                 f"transition x^{row}")
        read[(i, j)] = sm
    t = split_trivialization(cover, degrees, order)
    return Trivialization(cover, degrees, order, {**t.maps, **read})


def read_trivialization(path: str) -> Trivialization:
    """Read a thickening file; JSON nested too deeply to parse raises ValueError."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    return trivialization_from_json(data)
