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
theta-degree at least 2.

Degree bookkeeping for a split bundle with degrees (k_1..k_q): the degree-1
part of the odd components is the diagonal frame change zeta_{ij,a} =
(z_j/z_i)^(k_a), and the degree-0 part of the even components is the chart
transition.  Homogeneous degree-d data of a trivialisation is a Čech cochain
valued in T tensor Lambda^d E (d even) or Lambda^d E tensor E-dual (d odd).
A map's theta_I coefficients and the chart-i section of that cochain differ
by the target frame: the Jacobian of the transition on even slots and zeta
on odd slots, both read off ``Cover.transport``.  The obstruction cocycle
of an order-m trivialisation is the homogeneous degree-(m+1) part of its
composition defect, computed mod J^(m+2) with all new top coefficients set
to zero.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from . import cech
from .bott import SplitBundleDegrees
from .cech import Cochain, Cover, SheafSpec
from .exterior import merge_sign, sort_index_tuple
from .laurent import LaurentPoly, _coerce, _power, fraction_to_str, parse_rational


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
        out[(word, exps)] = out.get((word, exps), 0) + _coerce(coef)
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

    def truncate(self, order: int) -> "SuperMap":
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
        d = out.get(key, 0) + sign * c
        if d:
            out[key] = d
        else:
            del out[key]
    return out


def _wedge(a: dict, b: dict, order: int) -> dict:
    """a wedge b on components, truncated mod J^(order+1)."""
    out: dict = {}
    for (w1, e1), c1 in a.items():
        for (w2, e2), c2 in b.items():
            if len(w1) + len(w2) > order:
                continue
            sign = merge_sign(w1, w2)
            if sign:
                key = (tuple(sorted(w1 + w2)), tuple(map(add, e1, e2)))
                out[key] = out.get(key, 0) + sign * c1 * c2
    return {key: c for key, c in out.items() if c}


def _binomial(e: int, k: int) -> int:
    """C(e, k) = e (e-1) ... (e-k+1) / k! for any integer e and k >= 0."""
    out = 1
    for j in range(k):
        out = out * (e - j) // (j + 1)  # exact: the running value is C(e, j+1)
    return out


def identity_map(chart: int, p: int, q: int) -> SuperMap:
    even = tuple({((), tuple(int(v == i) for v in range(p))): 1} for i in range(p))
    odd = tuple({((a,), (0,) * p): 1} for a in range(1, q + 1))
    return _map(chart, chart, even, odd)


def compose(g: SuperMap, f: SuperMap, order: int) -> SuperMap:
    """g after f, all substitutions exact, truncated mod J^(order+1).

    Everything that depends on f alone is built once per call: the rows u^k
    of the shifts u_i = soul_i / body_i, and those rows wedged with each odd
    word f_odd[I] that g uses.  A term c x^e theta_I of g then adds
    c prod c_i^(e_i) prod C(e_i, k_i) times row k of word I, shifted by
    sum e_i b_i.  The body of each even component of f must be a monomial
    c_i x^(b_i); any other body raises ValueError.
    """
    if f.target != g.source or (f.p, f.q) != (g.p, g.q):
        raise ValueError("maps are not composable")
    bodies, shifts = [], []
    for comp in f.even:
        body = [(e, c) for (w, e), c in comp.items() if not w]
        if len(body) != 1:
            raise ValueError("a body that is not one monomial cannot be substituted")
        (b, cb), = body
        bodies.append((b, cb))
        shifts.append({(w, tuple(map(sub, e, b))): c if cb == 1 else _coerce(Fraction(c) / cb)
                       for (w, e), c in comp.items() if w})
    rows = [((0,) * f.p, {((), (0,) * f.p): 1})]
    for i, u in enumerate(shifts):
        if not u:
            continue
        grown = []
        for k, row in rows:
            power, n = row, 0
            while True:
                power = _wedge(power, u, order)
                if not power:
                    break
                n += 1
                grown.append((k[:i] + (n,) + k[i + 1:], power))
        rows += grown
    tables = {(): rows}

    def word_rows(word: tuple) -> list:
        if word not in tables:
            odd = f.odd[word[-1] - 1]
            grown = ((k, _wedge(row, odd, order)) for k, row in word_rows(word[:-1]))
            tables[word] = [(k, row) for k, row in grown if row]
        return tables[word]

    def push(component: dict) -> dict:
        acc: dict = {}
        for (word, e), c in component.items():
            offset = (0,) * f.p
            for ei, (b, cb) in zip(e, bodies):
                if ei:
                    offset = tuple(s + ei * x for s, x in zip(offset, b))
                    if cb != 1:
                        c = c * _power(cb, ei)
            for k, row in word_rows(word):
                factor = c
                for ei, ki in zip(e, k):
                    if ki:
                        factor *= _binomial(ei, ki)
                if not factor:
                    continue
                for (w, x), v in row.items():
                    key = (w, tuple(map(add, x, offset)))
                    acc[key] = acc.get(key, 0) + factor * v
        return {key: v for key, v in acc.items() if v}

    return _map(f.source, g.target, tuple(push(c) for c in g.even), tuple(push(c) for c in g.odd))


def map_difference(a: SuperMap, b: SuperMap):
    """Componentwise difference (even list, odd list)."""
    return (
        [_add(x, y, -1) for x, y in zip(a.even, b.even)],
        [_add(x, y, -1) for x, y in zip(a.odd, b.odd)],
    )


def difference_is_zero(diff) -> bool:
    ev, od = diff
    return not any(ev) and not any(od)


def invert(sm: SuperMap, order: int) -> SuperMap:
    """Inverse modulo J^(order+1), by fixed-point iteration on the deviation."""
    if sm.source != sm.target:
        raise ValueError("only chart automorphisms are inverted here")
    g = ident = identity_map(sm.source, sm.p, sm.q)
    image = sm.truncate(order)  # sm o id, known without composing
    for _ in range(order + 2):
        err_even, err_odd = map_difference(image, ident)
        if difference_is_zero((err_even, err_odd)):
            return g
        g = _map(sm.source, sm.target,
                 tuple(_add(x, e, -1) for x, e in zip(g.even, err_even)),
                 tuple(_add(x, e, -1) for x, e in zip(g.odd, err_odd)))
        image = compose(sm, g, order)
    raise ValueError("automorphism is not invertible at this order")


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


def zeta(cover: Cover, degrees: SplitBundleDegrees, i: int, j: int, a: int) -> LaurentPoly:
    """Frame change of the a-th odd coordinate, as a chart-i monomial."""
    return cover.line_factor(j, i, degrees.degrees[a - 1])


def split_trivialization(
    cover: Cover, degrees: SplitBundleDegrees, order: int
) -> Trivialization:
    q = degrees.rank
    maps = {}
    for i, j in itertools.permutations(cover.charts, 2):
        f = cover.transition(i, j)
        even = tuple({((), e): c for e, c in comp.terms.items()} for comp in f.components)
        odd = tuple({((a,), e): c for e, c in zeta(cover, degrees, i, j, a).terms.items()}
                    for a in range(1, q + 1))
        maps[(i, j)] = _map(i, j, even, odd)
    return Trivialization(cover, degrees, order, maps)


def slot_sheaf(cover: Cover, degrees: SplitBundleDegrees, d: int) -> SheafSpec:
    """Sheaf housing homogeneous degree-d data: Q^(d);+ even, Q^(d);- odd."""
    if d % 2 == 0:
        summands = degrees.wedge_summands(d)
        return cech.tangent_twisted(
            cover, [t for _, t in summands], labels=tuple(I for I, _ in summands)
        )
    labels = []
    twists = []
    for I, wt in degrees.wedge_summands(d):
        for a, dt in degrees.dual_summands():
            labels.append((I, a))
            twists.append(wt + dt)
    return cech.line_sum(cover, twists, labels=tuple(labels))


def _add_scaled(terms: dict, poly: dict, offset, coef) -> None:
    """terms += coef * x^offset * poly, on exponent vectors ``{exps: coef}``."""
    for e, c in poly.items():
        key = tuple(map(add, e, offset))
        terms[key] = terms.get(key, 0) + c * coef


def _odd_shift(cover: Cover, degrees: SplitBundleDegrees, spec: SheafSpec, s: int,
               i: int, j: int) -> tuple:
    """Exponents of zeta_{ij,a} = x^(k_a line) for the odd slot summand s."""
    k = degrees.degrees[spec.labels[s][1] - 1]
    return tuple(k * x for x in cover.transport(cech.LINE_SUM, j, i, 0)[1])


def _coefficients_to_section(cover: Cover, degrees: SplitBundleDegrees, spec: SheafSpec,
                             coefs, simplex: tuple, j: int) -> dict:
    """Degree-slot coefficients of the map i -> j as slot terms on ``simplex``.

    ``coefs[s][nu]`` is the coefficient ``{exps: coef}`` of theta_I in even
    component nu of the map (even slots, summand s labelled I) or in odd
    component a (odd slots, one component, labelled (I, a)); arguments are
    in chart i = simplex[0].
    Even slots pull the chart-j vector frame back to chart i through the
    tangent transport j -> i; odd slots divide by zeta_{ij,a}.  The identity
    on coefficients when i == j.
    """
    i = simplex[0]
    out = {}
    for s, comps in enumerate(coefs):
        terms = [{} for _ in comps]
        if spec.kind == cech.TANGENT:
            for nu, poly in enumerate(comps):
                for mu, offset, c in cover.transport(cech.TANGENT, j, i, nu)[2]:
                    _add_scaled(terms[mu], poly, offset, c)
        else:
            shift = _odd_shift(cover, degrees, spec, s, i, j)
            _add_scaled(terms[0], comps[0], tuple(-x for x in shift), 1)
        for mu, part in enumerate(terms):
            out.update((cech.BasisSlot(simplex, s, mu, e), c) for e, c in part.items() if c)
    return out


def _section_to_coefficients(cover: Cover, degrees: SplitBundleDegrees, spec: SheafSpec,
                             sec, i: int, j: int):
    """Inverse of ``_coefficients_to_section``: a chart-i section as map data,
    each coefficient an ``{exps: coef}`` dict.

    Even slots push the chart-i vector frame to chart j with the Jacobian of
    transition(i, j), read transposed off the one-form transport j -> i; odd
    slots multiply by zeta_{ij,a}.  The identity when i == j.
    """
    out = []
    for s, comps in enumerate(sec):
        terms = [{} for _ in comps]
        if spec.kind == cech.TANGENT:
            for mu in range(len(comps)):
                for nu, offset, c in cover.transport(cech.ONE_FORM, j, i, mu)[2]:
                    _add_scaled(terms[mu], comps[nu].terms, offset, c)
        else:
            _add_scaled(terms[0], comps[0].terms, _odd_shift(cover, degrees, spec, s, i, j), 1)
        out.append(tuple({e: _coerce(c) for e, c in t.items() if c} for t in terms))
    return tuple(out)


def _word_part(comp: dict, word: tuple) -> dict:
    """The theta_word coefficient ``{exps: coef}`` of a component."""
    return {e: c for (w, e), c in comp.items() if w == word}


def _slot_coefficients(spec: SheafSpec, even, odd):
    """The theta_I coefficients of a map's components, shaped like a section."""
    if spec.kind == cech.TANGENT:
        return tuple(tuple(_word_part(g, I) for g in even) for I in spec.labels)
    return tuple((_word_part(odd[a - 1], I),) for I, a in spec.labels)


def _plus_slot(sm: SuperMap, spec: SheafSpec, coefs) -> SuperMap:
    """``sm`` with section-shaped theta_I coefficients added to its components."""
    even, odd = list(sm.even), list(sm.odd)
    for label, comps in zip(spec.labels, coefs):
        if spec.kind == cech.TANGENT:
            I, parts, positions = label, even, range(len(comps))
        else:
            I, a = label
            parts, positions = odd, [a - 1]
        for pos, coef in zip(positions, comps):
            if coef:
                parts[pos] = _add(parts[pos], {(I, e): c for e, c in coef.items()})
    return _map(sm.source, sm.target, tuple(even), tuple(odd))


def apply_increment(t: Trivialization, inc: Cochain, d: int) -> Trivialization:
    """Add homogeneous degree-d cochain data to the sorted-pair maps.

    The reversed maps are left as they are, to be remade by
    ``normalize_inverses``.
    """
    if inc.degree != 1:
        raise ValueError("increments are 1-cochains")
    spec = inc.sheaf
    expected = slot_sheaf(t.cover, t.degrees, d)
    if spec.kind != expected.kind or spec.twists != expected.twists:
        raise ValueError("increment sheaf does not match the degree slot")
    new_maps = dict(t.maps)
    for (i, j) in t.cover.pairs:
        sec = inc.section((i, j), i)
        coefs = _section_to_coefficients(t.cover, t.degrees, expected, sec, i, j)
        new_maps[(i, j)] = _plus_slot(t.maps[(i, j)], expected, coefs)
    return Trivialization(t.cover, t.degrees, t.order, new_maps)


def slot_cochain(t: Trivialization, d: int) -> Cochain:
    """Extract the homogeneous degree-d data of sorted pairs as a cochain."""
    spec = slot_sheaf(t.cover, t.degrees, d)
    terms = {}
    for (i, j) in t.cover.pairs:
        sm = t.maps[(i, j)]
        coefs = _slot_coefficients(spec, sm.even, sm.odd)
        terms.update(_coefficients_to_section(t.cover, t.degrees, spec, coefs, (i, j), j))
    return Cochain(spec, 1, terms)


def normalize_inverses(t: Trivialization) -> Trivialization:
    """Replace the maps on reversed pairs by exact inverses mod J^(order+2).

    Data on sorted pairs is authoritative; making the reversed maps exact
    inverses one order beyond the truncation is what turns the raw
    composition defect on permuted triples into an honest alternating
    cochain.  This is the one place reversed maps are made: the old ones
    only seed the inversion, and the inverse mod J^(order+2) is unique.
    """
    precision = t.order + 1
    new_maps = dict(t.maps)
    for (i, j) in t.cover.pairs:
        fwd = t.maps[(i, j)]
        seed = t.maps[(j, i)]
        around = compose(fwd, seed, precision)  # chart-j automorphism
        new_maps[(j, i)] = compose(seed, invert(around, precision), precision)
    return Trivialization(t.cover, t.degrees, t.order, new_maps)


def build_trivialization(
    cover: Cover,
    degrees: SplitBundleDegrees,
    order: int,
    increments: dict[int, Cochain] | None = None,
) -> Trivialization:
    """Split model plus homogeneous increments at the given degree slots."""
    t = split_trivialization(cover, degrees, order)
    for d, inc in sorted((increments or {}).items()):
        if not 2 <= d <= order:
            raise ValueError(f"slot degree {d} outside 2..order")
        t = apply_increment(t, inc, d)
    return normalize_inverses(t)


def cocycle_residual(t: Trivialization) -> dict:
    """rho_ik - rho_jk o rho_ij per ordered triple, truncated at t.order."""
    out = {}
    for (i, j, k) in itertools.permutations(t.cover.charts, 3):
        comp = compose(t.maps[(j, k)], t.maps[(i, j)], t.order)
        out[(i, j, k)] = map_difference(t.maps[(i, k)].truncate(t.order), comp)
    return out


def residuals_all_zero(res: dict) -> bool:
    return all(difference_is_zero(d) for d in res.values())


def inverse_residual(t: Trivialization) -> dict:
    """rho_ji o rho_ij - id per ordered pair, truncated at t.order."""
    out = {}
    for (i, j), sm in t.maps.items():
        comp = compose(t.maps[(j, i)], sm, t.order)
        out[(i, j)] = map_difference(comp, identity_map(i, t.p, t.q))
    return out


def gamma_sheaf(t: Trivialization) -> SheafSpec:
    return slot_sheaf(t.cover, t.degrees, t.order + 1)


def _defect_coefficients(t: Trivialization, triple, spec: SheafSpec):
    """Degree-(m+1) composition defect on one ordered triple (i, j, k).

    The result is the defect's theta_I coefficients, shaped like a section,
    with arguments in chart i and frames of chart k.  Raises CocycleViolation
    when the defect has parts of degree <= t.order.
    """
    i, j, k = triple
    m = t.order
    comp = compose(t.maps[(j, k)], t.maps[(i, j)], m + 1)
    ev, od = map_difference(t.maps[(i, k)], comp)
    low_even = [_truncate(g, m) for g in ev]
    low_odd = [_truncate(g, m) for g in od]
    if any(low_even) or any(low_odd):
        raise CocycleViolation(
            f"cocycle condition fails at order {m} on triple {triple}",
            residual=(low_even, low_odd),
        )
    wrong = od if spec.kind == cech.TANGENT else ev
    if any(len(w) == m + 1 for g in wrong for w, _ in g):
        raise AssertionError("defect of the wrong parity at degree m + 1")
    return _slot_coefficients(spec, ev, od)


def obstruction_cocycle(t: Trivialization) -> Cochain:
    """Degree-(m+1) part of the composition defect, mod J^(m+2).

    Lands in T tensor Lambda^(m+1)E when m is odd and in Lambda^(m+1)E tensor
    E-dual when m is even.  The input must satisfy its own cocycle condition,
    otherwise the offending residual is raised.
    """
    spec = gamma_sheaf(t)
    terms = {}
    for triple in t.cover.triples:
        coefs = _defect_coefficients(t, triple, spec)
        terms.update(_coefficients_to_section(t.cover, t.degrees, spec, coefs, triple, triple[2]))
    return Cochain(spec, 2, terms)


def verify_gamma_cocycle(gamma: Cochain, t: Trivialization) -> dict:
    """Cocycle verification for an obstruction 2-cochain.

    The twisted coboundary needs quadruple overlaps, which the standard
    covers lack, so it is checked formally; the substantive checks are
    alternation and value consistency: the defect recomputed on every ordered
    triple must equal the sign-adjusted stored value, compared as map
    coefficients.
    """
    spec = gamma.sheaf
    problems = []
    for triple in itertools.permutations(t.cover.charts, 3):
        i, _, k = triple
        try:
            direct = _defect_coefficients(t, triple, spec)
        except CocycleViolation as err:
            return {"pass": False, "residual": err.residual, "problems": ["precondition"]}
        stored = _section_to_coefficients(t.cover, t.degrees, spec, gamma.section(triple, i), i, k)
        if direct != stored:
            problems.append((triple, direct, stored))
    delta = cech.coboundary(gamma)
    if not delta.is_zero():
        problems.append(("coboundary", delta))
    return {"pass": not problems, "problems": problems, "residual": None}


def pushforward_partial(omega: Cochain, t: Trivialization) -> Cochain:
    """Image 2-cocycle of a first-order extension class.

    ``omega`` is a closed 1-cochain valued in T tensor Lambda^2 E; the result
    is the Lambda^3 E tensor E-dual valued 2-cocycle
        Y_a = f^(mu|lm) (d zeta_a / d y^mu) zeta_a theta_(lm a)
    assembled per sorted triple, with the sign convention pinned so that the
    result equals the obstruction cocycle of the order-2 trivialisation built
    from omega (checked in the tests).
    """
    if t.order < 2:
        raise ValueError("an order >= 2 trivialisation is required")
    residual = cech.coboundary(omega)
    if not residual.is_zero():
        raise cech.NotACocycleError(residual)
    expected = slot_sheaf(t.cover, t.degrees, 2)
    if omega.sheaf.kind != expected.kind or omega.sheaf.twists != expected.twists:
        raise ValueError("omega does not live in the degree-2 slot sheaf")
    cover = t.cover
    degrees = t.degrees
    p, q = t.p, t.q
    spec = slot_sheaf(cover, degrees, 3)
    pair_labels = expected.labels
    terms = {}
    for (i, j, k) in cover.triples:
        raw = [[{}] for _ in spec.twists]
        f_ij = cover.transition(i, j)
        sec_ij = omega.section((i, j), i)
        # vector parts in the chart-j frame, arguments in chart i
        vecs = _section_to_coefficients(cover, degrees, expected, sec_ij, i, j)
        for I, vec in zip(pair_labels, vecs):
            for a in range(1, q + 1):
                if a in I:
                    continue
                zjk = zeta(cover, degrees, j, k, a)
                for mu in range(p):
                    dz = f_ij.apply(zjk.partial(mu))
                    if dz.is_zero():
                        continue
                    word = tuple(I) + (a,)
                    target_I, sign = sort_index_tuple(word)
                    sidx = spec.labels.index((target_I, a))
                    for offset, c in (dz * zeta(cover, degrees, i, j, a)).terms.items():
                        _add_scaled(raw[sidx][0], vec[mu], offset, -sign * c)
        terms.update(_coefficients_to_section(cover, degrees, spec, raw, (i, j, k), k))
    return Cochain(spec, 2, terms)


def act_torsor(t: Trivialization, alpha: Cochain) -> Trivialization:
    """Shift the top-degree slot by a closed cochain; a new trivialisation.

    For order-2 data the obstruction cocycle of the result equals that of
    ``t`` plus ``pushforward_partial(alpha, t)``, term by term.  So the
    representative is not invariant under the shift; its class is preserved
    when ``alpha`` is exact, since the image of a coboundary is a coboundary.
    """
    residual = cech.coboundary(alpha)
    if not residual.is_zero():
        raise cech.NotACocycleError(residual)
    out = normalize_inverses(apply_increment(t, alpha, t.order))
    res = cocycle_residual(out)
    if not residuals_all_zero(res):
        raise CocycleViolation("torsor shift produced an invalid trivialisation", res)
    return out


def automorphism_from_increment(
    cover: Cover, degrees: SplitBundleDegrees, order: int, nu: Cochain, d: int
) -> dict:
    """Chart automorphisms id + nu from a degree-d 0-cochain, 2 <= d <= order."""
    if not 2 <= d <= order:
        raise ValueError(f"slot degree {d} outside 2..order")
    if nu.degree != 0:
        raise ValueError("expected a 0-cochain")
    expected = slot_sheaf(cover, degrees, d)
    if nu.sheaf.kind != expected.kind or nu.sheaf.twists != expected.twists:
        raise ValueError("0-cochain does not live in the degree slot sheaf")
    lam = {}
    for c in cover.charts:
        coefs = _section_to_coefficients(cover, degrees, expected, nu.section((c,), c), c, c)
        lam[c] = _plus_slot(identity_map(c, cover.n, degrees.rank), expected, coefs)
    return lam


def conjugate(t: Trivialization, lam: dict) -> Trivialization:
    """Conjugated trivialisation lam_j o rho_ij o lam_i^(-1), same order.

    Each lam must be an invertible chart automorphism equal to the identity
    mod J^2.  Only the sorted-pair maps are conjugated, so only the lam of
    their source charts are inverted; ``normalize_inverses`` remakes the rest.
    """
    m = t.order
    p, q = t.p, t.q
    for c, sm in lam.items():
        if sm.source != c or sm.target != c:
            raise ValueError("lam must consist of chart automorphisms")
        dev_even, dev_odd = map_difference(sm, identity_map(c, p, q))
        if any(len(w) <= 1 for g in dev_even + dev_odd for w, _ in g):
            raise ValueError("lam must restrict to the identity mod J^2")
    # conjugating one order beyond the truncation carries the induced
    # degree-(m+1) coefficients along
    precision = m + 1
    inverses = {c: invert(lam[c], precision) for c in {i for i, _ in t.cover.pairs}}
    new_maps = dict(t.maps)
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
    for key in t1.maps:
        if not difference_is_zero(
            map_difference(conj.maps[key].truncate(m), t2.maps[key].truncate(m))
        ):
            raise AssertionError("equivalence witness failed verification")
    return sol


# ---------------------------------------------------------------------------
# randomized instances


def random_closed_slot(
    cover: Cover, degrees: SplitBundleDegrees, d: int, rng, harmonic=None
) -> Cochain:
    spec = slot_sheaf(cover, degrees, d)
    return cech.random_closed_cochain(spec, rng, harmonic=harmonic)


def random_trivialization(
    cover: Cover, degrees: SplitBundleDegrees, order: int, rng, harmonic=None
) -> Trivialization:
    """Split model with random closed top-slot data.

    Closedness of the increment is what the order-m cocycle condition
    requires of the top slot, so the construction always satisfies its own
    precondition; this is verified once more before returning.
    """
    if order != 2 and len(cover.triples) > 0:
        raise ValueError("random trivialisations with triples are built at order 2")
    increments = {}
    if order >= 2:
        increments[2] = random_closed_slot(cover, degrees, 2, rng, harmonic=harmonic)
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


def _component_from_json(data: list) -> dict:
    """Inverse of ``_component_to_json``; a repeated word or exponent vector
    keeps its last entry."""
    words = {tuple(t["indices"]): {tuple(c["exps"]): parse_rational(c["coef"]) for c in t["coef"]}
             for t in data}
    return {(word, exps): c for word, terms in words.items() for exps, c in terms.items()}


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


def _is_rational(x) -> bool:
    """An integer, or a string "num" or "num/den" with a nonzero denominator."""
    try:
        parse_rational(x)
    except ValueError:
        return False
    return True


def _is_grassmann_term(term) -> bool:
    """{"indices": [ints], "coef": [{"exps": [ints], "coef": rational}, ...]}"""
    if not isinstance(term, dict) or not _is_int_list(term.get("indices")):
        return False
    coef = term.get("coef")
    return isinstance(coef, list) and all(
        isinstance(c, dict) and _is_int_list(c.get("exps")) and _is_rational(c.get("coef"))
        for c in coef
    )


def _check_trivialization_shape(data) -> None:
    """Raise ValueError unless ``data`` has the shape of a thickening file."""
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
    pairs = {f"{i},{j}" for i, j in itertools.permutations(range(int(space[1]) + 1), 2)}
    counts = {"even": int(space[1]), "odd": len(data["degrees"])}
    for key, payload in maps.items():
        if key not in pairs:
            raise ValueError(f"map key {key!r} is not a pair 'i,j' of distinct charts")
        if not isinstance(payload, dict):
            raise ValueError(f"map {key} must be an object with 'even' and 'odd'")
        for part in ("even", "odd"):
            comps = payload.get(part)
            if not isinstance(comps, list) or len(comps) != counts[part]:
                raise ValueError(f"map {key} {part!r} must be a list of {counts[part]} components")
            if not all(isinstance(comp, list) and all(map(_is_grassmann_term, comp))
                       for comp in comps):
                raise ValueError(f"map {key} {part!r} has a malformed term")


def trivialization_from_json(data: dict) -> Trivialization:
    """Read a thickening file; a malformed shape or component count raises ValueError.

    The body of each even component must be the matching component of the
    chart transition; a body that is not one monomial, or another monomial,
    raises ValueError.
    """
    _check_trivialization_shape(data)
    space = data["space"]
    cover = cech.standard_cover(int(space[1]))
    degrees = SplitBundleDegrees(tuple(data["degrees"]))
    order = data["order"]
    t = split_trivialization(cover, degrees, order)
    maps = dict(t.maps)
    for key, payload in data.get("maps", {}).items():
        i, j = (int(x) for x in key.split(","))
        sm = SuperMap(i, j, tuple(map(_component_from_json, payload["even"])),
                      tuple(map(_component_from_json, payload["odd"])))
        for nu, (comp, want) in enumerate(zip(sm.even, cover.transition(i, j).components)):
            body = _word_part(comp, ())
            if len(body) != 1:
                raise ValueError(f"map {key} even component {nu}: the body is not one monomial")
            if body != want.terms:
                raise ValueError(f"map {key} even component {nu}: the body is not the chart "
                                 f"transition {want!r}")
        maps[(i, j)] = sm
    return Trivialization(cover, degrees, order, maps)


def write_trivialization(t: Trivialization, path: str):
    with open(path, "w") as fh:
        json.dump(trivialization_to_json(t), fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_trivialization(path: str) -> Trivialization:
    with open(path) as fh:
        return trivialization_from_json(json.load(fh))
