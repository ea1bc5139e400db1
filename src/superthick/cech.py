"""Covers of P^1 and P^2, alternating cochains, twisted coboundaries, and
exact cohomology of line-bundle sums by monomial bookkeeping.

Conventions.  Chart i of P^n is {z_i != 0} with affine coordinates
z_l/z_i for l != i, listed in increasing l.  All transition maps are monomial,
so every transport (pullback of arguments, Jacobian action on tangent
components, inverse Jacobian on one-forms, monomial factor per line-bundle
twist) is exact Laurent arithmetic.

A cochain is a sparse map from slots to nonzero exact coefficients.  A slot
(simplex, summand, component, exponents) is one monomial over a sorted
simplex, presented entirely in the chart of the smallest index: arguments,
vector frame and bundle frame alike; sorting the slots gives the canonical
order.  Values on permuted index tuples are the stored value times the sign of
the permutation, and ``Cochain.section`` presents them in any chart.  The
coboundary is the classical alternating sum with transports made explicit,
applied slot by slot, so delta ∘ delta = 0 holds exactly.

Every section decomposes over torus characters (exponent vectors of the
homogeneous coordinates), the coboundary preserves the character, and each
character pins down at most one monomial per simplex, summand and component.
Coboundary equations therefore split into small exact linear systems, one per
character, and solving them is complete: no truncation window enters.

Every chart change goes through one exponent-level table,
``Cover.transport``: moving one monomial between charts is an integer matrix
on its exponents, a twist-scaled line-factor vector, and one offset and
constant per output component.  ``represent`` moves a section monomial by
monomial with it.  The coboundary of one slot is a few such moves; a whole
cochain's coboundary sums it over the cochain's slots, and
``delta_block_matrix`` fills each block column with it, so both share one
differential.

Cohomology is computed without scanning characters.  A slot of character g
exists when each exponent g_l - adjust_l off the simplex is non-negative,
with adjust_l in {-1, 0, 1}, and the transport coefficients ignore the
exponents; so every block depends on g only through its sign type, each
entry clamped to [-2, 1].  ``block_cohomology`` computes H^q of one block in
any degree q: the kernel of the degree-q block, reduced modulo the image of
the degree-(q-1) block by one rref, and keeps the classes in the cover's
cohomology table under (kind, q, sign type).  So each sign type is solved once
per cover, for every twist, summand, character and caller: ``standard_cover``
hands out one shared cover per n.  ``cohomology`` lists the concrete
characters of the types that carry classes (finitely many, since cohomology is
finite-dimensional); each character only fills in its slot exponents.
``h1_representatives``, ``windowed_dims`` and ``line_bundle_cohomology`` are
views of it, and ``solve_blocks`` reads the same classes to split a cocycle
into an exact part and class coordinates.  The window is only an optional cap
on the characters listed, and the closed formulas cross-check every total.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .laurent import ChartMap, LaurentPoly, _coerce, fraction_to_str
from . import linalg


# ---------------------------------------------------------------------------
# covers


class Cover:
    """The standard affine cover of P^n, n in {1, 2}."""

    def __init__(self, n: int):
        if n not in (1, 2):
            raise ValueError("only P^1 and P^2 are supported")
        self.n = n
        self.charts = tuple(range(n + 1))
        self._chart_vars = tuple(tuple(l for l in self.charts if l != i) for i in self.charts)
        self._transitions: dict[tuple[int, int], ChartMap] = {}
        self._transport: dict[tuple[str, int, int, int], tuple] = {}
        # (kind, q, sign type) -> classes of H^q on a block of that type
        self.cohomology_table: dict[tuple[str, int, tuple], list] = {}

    def chart_vars(self, i: int) -> tuple[int, ...]:
        """Homogeneous indices of the affine coordinates of chart i."""
        return self._chart_vars[i]

    def var_pos(self, i: int, l: int) -> int:
        return self.chart_vars(i).index(l)

    def transition(self, i: int, j: int) -> ChartMap:
        """Chart-j coordinates as monomial functions of chart-i coordinates."""
        key = (i, j)
        if key not in self._transitions:
            n = self.n
            comps = []
            for l in self.chart_vars(j):
                exps = [0] * n
                if l != i:
                    exps[self.var_pos(i, l)] += 1
                exps[self.var_pos(i, j)] -= 1
                comps.append(LaurentPoly.monomial(n, exps))
            self._transitions[key] = ChartMap(comps)
        return self._transitions[key]

    def line_factor(self, a: int, b: int, k: int) -> LaurentPoly:
        """(z_a / z_b)^k as a chart-b monomial; re-presents O(k) data a -> b."""
        exps = [0] * self.n
        if a != b:
            exps[self.var_pos(b, a)] = k
        return LaurentPoly.monomial(self.n, exps)

    def transport(self, kind: str, a: int, b: int, comp: int) -> tuple:
        """How one monomial of a slot component moves from chart a to chart b.

        Returns (rows, line, outputs).  A chart-a monomial c * x^e in input
        component ``comp`` of a summand twisted by t re-presents in chart b as
        the sum over (mu, offset, coef) in outputs of
        c * coef * x^(sum_i e_i rows[i] + t line + offset) in component mu.
        rows are the exponent vectors of transition(b, a), line that of
        line_factor(a, b, 1), and each output is one entry of the Jacobian of
        transition(a, b) pulled back to chart b (tangent) or of the Jacobian
        of transition(b, a) (one-forms).  Every chart change in the package
        reads this table: ``represent`` and the coboundary blocks move whole
        monomials, and the gluing maps' frame changes use the outputs and line.
        """
        key = (kind, a, b, comp)
        if key in self._transport:
            return self._transport[key]
        n = self.n
        zero = (0,) * n
        if a == b:
            rows = tuple(tuple(int(i == t) for t in range(n)) for i in range(n))
            entry = (rows, zero, ((comp, zero, Fraction(1)),))
        else:
            f_ba = self.transition(b, a)
            rows = []
            for part in f_ba.components:
                (exps, coef), = part.terms.items()
                if coef != 1:
                    raise AssertionError(f"transition {b}->{a} is not a unit monomial map")
                rows.append(exps)
            (line, _), = self.line_factor(a, b, 1).terms.items()
            if kind == LINE_SUM:
                factors = [LaurentPoly.one(n)]
            elif kind == TANGENT:
                jac = self.transition(a, b).jacobian()
                factors = [f_ba.apply(jac[mu][comp]) for mu in range(n)]
            else:
                factors = f_ba.jacobian()[comp]
            outputs = []
            for mu, factor in enumerate(factors):
                if len(factor.terms) > 1:
                    raise AssertionError(f"jacobian entry {factor} is not a monomial")
                for exps, coef in factor.terms.items():
                    outputs.append((mu, exps, coef))
            entry = (tuple(rows), line, tuple(outputs))
        self._transport[key] = entry
        return entry

    def simplices(self, q: int) -> list[tuple[int, ...]]:
        return [tuple(s) for s in itertools.combinations(self.charts, q + 1)]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return self.simplices(1)

    @property
    def triples(self) -> list[tuple[int, int, int]]:
        return self.simplices(2)

    def __eq__(self, other):
        return isinstance(other, Cover) and self.n == other.n

    def __repr__(self):
        return f"Cover(P^{self.n})"


@functools.cache
def standard_cover(n: int) -> Cover:
    """The shared cover of P^n: its tables serve every caller in the process."""
    return Cover(n)


# ---------------------------------------------------------------------------
# sheaves and sections

LINE_SUM = "line_sum"
TANGENT = "tangent_twisted"
ONE_FORM = "oneform_twisted"


@dataclass(frozen=True)
class SheafSpec:
    """A direct sum of twisted line/tangent/one-form pieces over a cover."""

    cover: Cover
    kind: str
    twists: tuple[int, ...]
    labels: tuple = ()

    def __post_init__(self):
        if self.kind not in (LINE_SUM, TANGENT, ONE_FORM):
            raise ValueError(f"unknown sheaf kind {self.kind!r}")
        object.__setattr__(self, "twists", tuple(int(t) for t in self.twists))
        if self.labels and len(self.labels) != len(self.twists):
            raise ValueError("one label per summand required")

    @property
    def ncomp(self) -> int:
        return 1 if self.kind == LINE_SUM else self.cover.n

    @property
    def nsummands(self) -> int:
        return len(self.twists)


def line_sum(cover: Cover, twists, labels=()) -> SheafSpec:
    return SheafSpec(cover, LINE_SUM, tuple(twists), tuple(labels))


def tangent_twisted(cover: Cover, twists, labels=()) -> SheafSpec:
    return SheafSpec(cover, TANGENT, tuple(twists), tuple(labels))


def oneform_twisted(cover: Cover, twists, labels=()) -> SheafSpec:
    return SheafSpec(cover, ONE_FORM, tuple(twists), tuple(labels))


Section = tuple  # tuple over summands of tuples over components of LaurentPoly


def represent(spec: SheafSpec, sec: Section, a: int, b: int) -> Section:
    """Re-present a section from chart a to chart b (args, frames and twist).

    Each monomial moves on its own through ``Cover.transport``.
    """
    if a == b:
        return sec
    cover = spec.cover
    out = []
    for twist, summand in zip(spec.twists, sec):
        acc = [{} for _ in summand]
        for comp, poly in enumerate(summand):
            for exps, c in poly.terms.items():
                for mu, image, coef in _move(cover, spec.kind, a, b, comp, twist, exps):
                    acc[mu][image] = acc[mu].get(image, 0) + c * coef
        out.append(tuple(LaurentPoly(cover.n, terms) for terms in acc))
    return tuple(out)


def _move(cover: Cover, kind: str, a: int, b: int, comp: int, twist: int, exps) -> list:
    """Images (mu, exponents, constant) of x^exps in component comp, chart a -> b.

    The one place that applies ``Cover.transport`` to a monomial: exponents
    through its rows, the twist through its line vector, then each output's
    offset and constant.
    """
    rows, line, outputs = cover.transport(kind, a, b, comp)
    base = [twist * x for x in line]
    for e, row in zip(exps, rows):
        if e:
            base = [x + e * r for x, r in zip(base, row)]
    return [(mu, tuple(map(add, base, offset)), coef) for mu, offset, coef in outputs]


# ---------------------------------------------------------------------------
# cochains


def perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


class BasisSlot(NamedTuple):
    """One monomial slot: x^exps in component ``comp`` of summand ``summand``
    over ``simplex``, presented in the chart of the simplex's first vertex."""

    simplex: tuple
    summand: int
    comp: int
    exps: tuple


class Cochain:
    """Alternating cochain: a sparse map from slots on sorted simplices to
    nonzero exact coefficients.

    The constructor checks every slot and coefficient; the results of ``+``,
    ``-`` and ``scale`` are built from terms already checked, by ``_cochain``.
    """

    def __init__(self, sheaf: SheafSpec, degree: int, terms: dict | None = None):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.sheaf = sheaf
        self.degree = degree
        self.terms: dict[BasisSlot, int | Fraction] = {}
        for slot, coef in (terms or {}).items():
            coef = _coerce(coef)
            if coef:
                self.terms[BasisSlot(*slot)] = coef
        for simplex in {slot.simplex for slot in self.terms}:
            if list(simplex) != sorted(simplex) or len(simplex) != degree + 1:
                raise ValueError(f"cochain keys must be sorted {degree + 1}-tuples: {simplex}")

    def section(self, simplex, chart: int) -> Section:
        """Alternating value on an ordered simplex, presented in ``chart``."""
        simplex = tuple(simplex)
        key = tuple(sorted(simplex))
        spec = self.sheaf
        sec = [[{} for _ in range(spec.ncomp)] for _ in spec.twists]
        if len(set(simplex)) == len(simplex):
            sign = perm_sign(simplex)
            for slot, coef in self.terms.items():
                if slot.simplex == key:
                    sec[slot.summand][slot.comp][slot.exps] = sign * coef
        n = spec.cover.n
        sec = tuple(tuple(LaurentPoly(n, terms) for terms in summand) for summand in sec)
        return represent(spec, sec, key[0], chart)

    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other: "Cochain", sign: int) -> "Cochain":
        """self + sign * other."""
        if self.sheaf != other.sheaf or self.degree != other.degree:
            raise ValueError("cochain mismatch")
        terms = dict(self.terms)
        for slot, coef in other.terms.items():
            s = terms.get(slot, 0) + sign * coef
            if s:
                terms[slot] = s
            else:
                del terms[slot]
        return _cochain(self.sheaf, self.degree, terms)

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, 1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, -1)

    def scale(self, c) -> "Cochain":
        c = _coerce(c)
        terms = {slot: c * v for slot, v in self.terms.items()} if c else {}
        return _cochain(self.sheaf, self.degree, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.sheaf == other.sheaf
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def to_json(self) -> dict:
        spec = self.sheaf
        vals: dict[str, list] = {}
        for slot, coef in sorted(self.terms.items()):
            sec = vals.setdefault(",".join(map(str, slot.simplex)),
                                  [[[] for _ in range(spec.ncomp)] for _ in spec.twists])
            sec[slot.summand][slot.comp].append(
                {"exps": list(slot.exps), "coef": fraction_to_str(coef)})
        return {
            "sheaf": {"kind": spec.kind, "twists": list(spec.twists)},
            "degree": self.degree,
            "values": vals,
        }

    def __repr__(self):
        return f"Cochain(deg={self.degree}, {len(self.terms)} terms)"


def _cochain(sheaf: SheafSpec, degree: int, terms: dict) -> Cochain:
    """A cochain from checked slots and nonzero coefficients, unchecked."""
    out = Cochain.__new__(Cochain)
    out.sheaf, out.degree, out.terms = sheaf, degree, terms
    return out


def zero_cochain(spec: SheafSpec, degree: int) -> Cochain:
    return Cochain(spec, degree)


@functools.cache
def _cofaces(n: int, face: tuple) -> tuple:
    """(simplex, sign) for each simplex of the cover of P^n one vertex larger
    than ``face`` and containing it; sign is (-1)^j for the added vertex at j."""
    out = []
    for big in itertools.combinations(range(n + 1), len(face) + 1):
        added = [pos for pos, v in enumerate(big) if v not in face]
        if len(added) == 1:
            out.append((big, -1 if added[0] % 2 else 1))
    return tuple(out)


def _delta_slot(spec: SheafSpec, slot: BasisSlot) -> list:
    """Coboundary of one unit slot, as (image slot, coefficient) pairs.

    On every coface the monomial is transported from the face's chart to the
    coface's chart by ``Cover.transport``, times the coface's sign.  This is
    the one differential: ``coboundary`` sums it over a cochain's slots and
    ``delta_block_matrix`` makes it a block column.
    """
    cover = spec.cover
    face = slot.simplex
    twist = spec.twists[slot.summand]
    return [
        (BasisSlot(big, slot.summand, mu, exps), sign * coef)
        for big, sign in _cofaces(cover.n, face)
        for mu, exps, coef in _move(cover, spec.kind, face[0], big[0], slot.comp, twist, slot.exps)
    ]


def coboundary(c: Cochain) -> Cochain:
    """Twisted Čech differential: the coboundaries of the slots, summed."""
    out: dict[BasisSlot, int | Fraction] = {}
    for slot, coef in c.terms.items():
        for image, x in _delta_slot(c.sheaf, slot):
            out[image] = out.get(image, 0) + coef * x
    return Cochain(c.sheaf, c.degree + 1, out)


# ---------------------------------------------------------------------------
# character grading

Char = tuple  # length n+1 exponent vector of homogeneous coordinates


def monomial_char(spec: SheafSpec, chart: int, summand: int, comp: int, exps) -> Char:
    """Torus character of one monomial of a section in chart presentation."""
    cover = spec.cover
    g = [0] * (cover.n + 1)
    for pos, l in enumerate(cover.chart_vars(chart)):
        g[l] = exps[pos]
    g[chart] = spec.twists[summand] - sum(exps)
    if spec.kind == TANGENT:
        mu = cover.chart_vars(chart)[comp]
        g[chart] += 1
        g[mu] -= 1
    elif spec.kind == ONE_FORM:
        mu = cover.chart_vars(chart)[comp]
        g[chart] -= 1
        g[mu] += 1
    return tuple(g)


def char_monomial_exps(spec: SheafSpec, chart: int, summand: int, comp: int, g: Char):
    """Inverse of monomial_char; None when the character misses this slot."""
    cover = spec.cover
    adjust = [0] * (cover.n + 1)
    if spec.kind in (TANGENT, ONE_FORM):
        mu = cover.chart_vars(chart)[comp]
        s = 1 if spec.kind == TANGENT else -1
        adjust[chart] += s
        adjust[mu] -= s
    exps = []
    for l in cover.chart_vars(chart):
        exps.append(g[l] - adjust[l])
    implied = spec.twists[summand] - sum(exps) + adjust[chart]
    if implied != g[chart]:
        return None
    return tuple(exps)


def _cone_ok(cover: Cover, simplex: tuple, chart: int, exps) -> bool:
    # regular on U_simplex: poles only along z_l with l in the simplex
    for pos, l in enumerate(cover.chart_vars(chart)):
        if exps[pos] < 0 and l not in simplex:
            return False
    return True


def char_basis(spec: SheafSpec, degree: int, summand: int, g: Char) -> list[BasisSlot]:
    """All monomial slots of character g in degree-``degree`` cochains."""
    cover = spec.cover
    slots = []
    for simplex in cover.simplices(degree):
        chart = simplex[0]
        for comp in range(spec.ncomp):
            exps = char_monomial_exps(spec, chart, summand, comp, g)
            if exps is not None and _cone_ok(cover, simplex, chart, exps):
                slots.append(BasisSlot(simplex, summand, comp, exps))
    return slots


def cochain_from_slots(spec: SheafSpec, degree: int, slots, coefs) -> Cochain:
    """The cochain sum_i coefs[i] * slots[i] over distinct slots."""
    return Cochain(spec, degree, dict(zip(slots, coefs)))


def cochain_chars(c: Cochain) -> dict[tuple[int, Char], dict[BasisSlot, Fraction]]:
    """Decompose a cochain into (summand, character) blocks of coefficients."""
    blocks: dict[tuple[int, Char], dict[BasisSlot, Fraction]] = {}
    for slot, coef in c.terms.items():
        g = monomial_char(c.sheaf, slot.simplex[0], slot.summand, slot.comp, slot.exps)
        blocks.setdefault((slot.summand, g), {})[slot] = coef
    return blocks


def delta_block_matrix(
    spec: SheafSpec, degree: int, summand: int, g: Char
) -> tuple[list[BasisSlot], list[BasisSlot], list[list[Fraction]]]:
    """Exact matrix of the coboundary on one (summand, character) block.

    Returns (domain slots, codomain slots, matrix) with matrix[row][col]
    giving the codomain coefficient of the image of the col-th domain slot.
    Each column is the coboundary of one unit slot, ``_delta_slot``; every
    codomain slot has character g, so an image outside them would mean the
    coboundary failed to preserve the character.
    """
    dom = char_basis(spec, degree, summand, g)
    cod = char_basis(spec, degree + 1, summand, g)
    index = {slot: i for i, slot in enumerate(cod)}
    mat = [[Fraction(0)] * len(dom) for _ in cod]
    for col, slot in enumerate(dom):
        for image, coef in _delta_slot(spec, slot):
            row = index.get(image)
            if row is None:
                raise AssertionError(f"coboundary image {image} is not a codomain slot")
            mat[row][col] += coef
    return dom, cod, mat


# ---------------------------------------------------------------------------
# exact solving


class NotACocycleError(ValueError):
    def __init__(self, residual: Cochain):
        super().__init__("input cochain is not a cocycle")
        self.residual = residual


def solve_blocks(target: Cochain):
    """Split a cocycle into an exact part and its class coordinates.

    Returns (preimage, coords).  coords maps each (summand, character) block
    with a class part to its coordinates against that block's classes,
    ``block_cohomology(spec, degree, summand, g)``; coboundary(preimage) is
    the target minus that class part, which is checked.  Each block is solved
    once against [image of the block one degree down | the block's classes]:
    a cocycle block lies in that span, and its class coordinates are unique.
    """
    residual = coboundary(target)
    if not residual.is_zero():
        raise NotACocycleError(residual)
    spec = target.sheaf
    deg = target.degree
    if deg not in (1, 2):
        raise ValueError("can only solve for preimages of 1- and 2-cochains")
    solution = zero_cochain(spec, deg - 1)
    exact = target
    coords: dict[tuple[int, Char], list] = {}
    for (summand, g), coeffs in sorted(cochain_chars(target).items()):
        dom, cod, mat = delta_block_matrix(spec, deg - 1, summand, g)
        classes = block_cohomology(spec, deg, summand, g)
        rhs = [Fraction(0)] * len(cod)
        idx = {slot: i for i, slot in enumerate(cod)}
        for slot, coef in coeffs.items():
            rhs[idx[slot]] = coef
        x = linalg.solve([row + [vec[r] for vec in classes] for r, row in enumerate(mat)], rhs)
        if x is None:
            raise AssertionError(f"cocycle block {(summand, g)} is not image plus classes")
        solution = solution + cochain_from_slots(spec, deg - 1, dom, x[: len(dom)])
        part = [_coerce(c) for c in x[len(dom):]]
        if any(part):
            coords[summand, g] = part
            harmonic = [sum(c * vec[r] for c, vec in zip(part, classes)) for r in range(len(cod))]
            exact = exact - cochain_from_slots(spec, deg, cod, harmonic)
    if not (coboundary(solution) - exact).is_zero():
        raise AssertionError("solver returned an invalid preimage")
    return solution, coords


def solve_coboundary(target: Cochain):
    """Exact preimage of the coboundary, or an infeasibility certificate.

    Returns (solution, certificate): one of the two is None.  Solving splits
    over (summand, character) blocks; each block is finite, so a class part
    in any block certifies that the target class is nonzero.  The certificate
    lists those blocks.
    """
    solution, coords = solve_blocks(target)
    if coords:
        return None, sorted(coords)
    return solution, None


# ---------------------------------------------------------------------------
# cohomology by sign type


@dataclass
class CohomologyReport:
    dims: dict[int, int]
    representatives: dict[int, list[Cochain]]
    method: str
    complete: bool = True
    notes: list[str] = field(default_factory=list)


def _compositions(total: int, parts: int, lower: int):
    """All integer tuples of the given length with entries >= lower summing to total."""
    if parts == 1:
        if total >= lower:
            yield (total,)
        return
    rest_min = lower * (parts - 1)
    v = lower
    while total - v >= rest_min:
        for tail in _compositions(total - v, parts - 1, lower):
            yield (v,) + tail
        v += 1


def _summand_bott_dim(spec: SheafSpec, summand: int, q: int) -> int:
    from . import bott

    n = spec.cover.n
    t = spec.twists[summand]
    if spec.kind == LINE_SUM:
        return bott.line_dim(n, q, t)
    if spec.kind == TANGENT:
        return bott.tangent_dim(n, q, t)
    return bott.bott_dim(n, 1, q, t)


def _sign_type(g: Char) -> tuple:
    return tuple(max(-2, min(1, e)) for e in g)


def _sign_types(n: int, twist: int):
    """(sign type, representative character) for every feasible sign type.

    A sign type clamps each entry of a character to [-2, 1]: the classes
    <= -2, -1, 0 and >= 1.  Slot existence only compares entries with the
    thresholds -1, 0 and 1, and the block matrices depend on the slots alone,
    so every block is constant on a type.  Types whose entries cannot sum to
    the twist are skipped; the representative moves the surplus onto the
    first unbounded entry.
    """
    for sign_type in itertools.product((-2, -1, 0, 1), repeat=n + 1):
        surplus = twist - sum(sign_type)
        if surplus == 0:
            yield sign_type, sign_type
            continue
        end = 1 if surplus > 0 else -2
        if end not in sign_type:
            continue
        g = list(sign_type)
        g[sign_type.index(end)] += surplus
        yield sign_type, tuple(g)


def _type_chars(sign_type: tuple, twist: int) -> list[Char]:
    """All characters of a sign type on the twist's stratum.

    Finite exactly when every unbounded entry points the same way; a type
    unbounded both ways raises, since the callers only list types that carry
    cohomology, which is finite-dimensional.
    """
    up = [l for l, e in enumerate(sign_type) if e == 1]
    down = [l for l, e in enumerate(sign_type) if e == -2]
    if up and down:
        raise AssertionError(f"sign type {sign_type} has infinitely many characters")
    surplus = twist - sum(sign_type)
    free, step = (up, 1) if surplus >= 0 else (down, -1)
    if not free:
        return [sign_type] if surplus == 0 else []
    chars = []
    for extra in _compositions(abs(surplus), len(free), 0):
        g = list(sign_type)
        for l, x in zip(free, extra):
            g[l] += step * x
        chars.append(tuple(g))
    return chars


def _in_window(g: Char, window: int | None) -> bool:
    return window is None or all(-window <= e <= window for e in g)


def block_cohomology(spec: SheafSpec, q: int, summand: int, g: Char) -> list[list[Fraction]]:
    """Kernel vectors spanning H^q of the block of g, over its degree-q slots.

    One rref of [image of the degree-(q-1) block | kernel of the degree-q
    block] picks the kernel vectors independent modulo the image: the pivots
    among the kernel columns.  In degree 0 the kernel is the cohomology.  The
    vectors are indexed like ``char_basis(spec, q, summand, g)`` and depend on
    g only through its sign type, so they are kept in the cover's cohomology
    table under (kind, q, sign type) and serve every twist, summand and
    character of the type.
    """
    key = (spec.kind, q, _sign_type(g))
    table = spec.cover.cohomology_table
    if key not in table:
        dom, _, mat = delta_block_matrix(spec, q, summand, g)
        kernel = linalg.kernel_basis(mat, len(dom)) if dom else []
        if kernel and q > 0:
            dom0, _, mat0 = delta_block_matrix(spec, q - 1, summand, g)
            joined = [row + [vec[r] for vec in kernel] for r, row in enumerate(mat0)]
            _, pivots = linalg.rref(joined)
            kernel = [kernel[p - len(dom0)] for p in pivots if p >= len(dom0)]
        table[key] = kernel
    return table[key]


def enumerate_chars(spec: SheafSpec, summand: int, window: int | None, q: int = 1) -> list[Char]:
    """Candidate characters of one summand: those whose block has H^q.

    H^q is read per sign type from the cover's cohomology table; the concrete
    characters of the types with classes are listed, capped to entries in
    [-window, window] unless window is None, and ordered by g[1:].
    """
    twist = spec.twists[summand]
    chars = []
    for sign_type, g in _sign_types(spec.cover.n, twist):
        if block_cohomology(spec, q, summand, g):
            chars.extend(c for c in _type_chars(sign_type, twist) if _in_window(c, window))
    return sorted(chars, key=lambda g: g[1:])


def cohomology(spec: SheafSpec, q: int, window: int | None = None) -> CohomologyReport:
    """Kernel-mod-image basis of H^q, character by character.

    Each sign type's block is solved once per cover (see
    ``block_cohomology``); a concrete character reuses its type's classes and
    only fills in its own slot exponents.  ``window`` caps the characters
    listed.  The total is cross-checked against the closed formula per
    summand: with a cap, a shortfall is reported as an incomplete window
    rather than silently truncated; without one, it is a failed self-check.
    """
    if not 0 <= q <= spec.cover.n:
        return CohomologyReport({q: 0}, {q: []}, "sign-type-linear-algebra")
    reps: list[Cochain] = []
    expected = 0
    for summand in range(spec.nsummands):
        for g in enumerate_chars(spec, summand, window, q):
            slots = char_basis(spec, q, summand, g)
            reps.extend(cochain_from_slots(spec, q, slots, vec)
                        for vec in block_cohomology(spec, q, summand, g))
        expected += _summand_bott_dim(spec, summand, q)
    notes = []
    if len(reps) != expected:
        if window is None:
            raise AssertionError(f"H^{q} has {len(reps)} classes, closed formula gives {expected}")
        notes.append(
            f"window incomplete: found {len(reps)} classes, closed formula gives {expected}"
        )
    return CohomologyReport(
        {q: len(reps)}, {q: reps}, "sign-type-linear-algebra", not notes, notes
    )


def h1_representatives(spec: SheafSpec, window: int = 10) -> CohomologyReport:
    """H^1 with at most ``window`` in absolute value per character entry."""
    return cohomology(spec, 1, window)


def windowed_dims(spec: SheafSpec, window: int = 10) -> dict[int, int]:
    """All cohomology dimensions of the complex, counting characters in the window."""
    return {q: cohomology(spec, q, window).dims[q] for q in range(spec.cover.n + 1)}


def line_bundle_cohomology(n: int, k: int, q: int) -> CohomologyReport:
    """Exact h^q(P^n, O(k)) with representatives, over every character.

    The method keeps its historical label: the monomial characters of O(k)
    are what the sign types enumerate.
    """
    if n not in (1, 2):
        raise ValueError("only n in {1, 2} is supported")
    rep = cohomology(line_sum(standard_cover(n), [k]), q)
    rep.method = "monomial-oracle"
    return rep


# ---------------------------------------------------------------------------
# randomized sections (seeded suites)


def random_section(spec: SheafSpec, simplex: tuple, rng, terms: int = 1, span: int = 2) -> dict:
    """A sparse random section over U_simplex as slot terms, regular by construction."""
    cover = spec.cover
    chart = simplex[0]
    out: dict[BasisSlot, Fraction] = {}
    for _ in range(terms):
        s = rng.randrange(spec.nsummands)
        compn = rng.randrange(spec.ncomp)
        exps = []
        for l in cover.chart_vars(chart):
            if l in simplex:
                exps.append(rng.randint(-span, span))
            else:
                exps.append(rng.randint(0, span))
        coef = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        slot = BasisSlot(simplex, s, compn, tuple(exps))
        out[slot] = out.get(slot, 0) + coef
    return out


def random_cochain(spec: SheafSpec, degree: int, rng, terms: int = 1, span: int = 2) -> Cochain:
    out = {}
    for simplex in spec.cover.simplices(degree):
        out.update(random_section(spec, simplex, rng, terms, span))
    return Cochain(spec, degree, out)


def random_closed_cochain(
    spec: SheafSpec, rng, harmonic: list[Cochain] | None = None, terms: int = 1, span: int = 2
) -> Cochain:
    """delta of a random 0-cochain, plus optional harmonic contributions."""
    out = coboundary(random_cochain(spec, 0, rng, terms, span))
    if harmonic:
        for h in harmonic:
            if rng.random() < 0.75:
                out = out + h.scale(Fraction(rng.choice([-2, -1, 1, 2])))
    return out
