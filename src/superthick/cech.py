"""Covers of P^1 and P^2, alternating cochains, twisted coboundaries, and
exact cohomology of line-bundle sums by monomial bookkeeping.

Conventions.  Chart i of P^n is {z_i != 0} with affine coordinates
z_l/z_i for l != i, listed in increasing l.  All transition maps are monomial,
so every transport (pullback of arguments, Jacobian action on tangent
components, inverse Jacobian on one-forms, monomial factor per line-bundle
twist) is integer arithmetic on exponents, read off the charts' exponent
vectors; no polynomial object is built.

A cochain is a sparse map from slots to nonzero exact coefficients.  A slot
(simplex, summand, component, exponents) is one monomial over a sorted
simplex, presented entirely in the chart of the smallest index: arguments,
vector frame and bundle frame alike; sorting the slots gives the canonical
order.  The value on one sorted simplex is its slot data
``{(summand, comp, exps): coef}``, read by ``Cochain.on``; on a permuted
index tuple it is that value times the sign of the permutation.  The
coboundary is the classical alternating sum with transports made explicit,
applied slot by slot, so delta ∘ delta = 0 holds exactly.

Every section decomposes over torus characters (exponent vectors of the
homogeneous coordinates), the coboundary preserves the character, and each
character pins down at most one monomial per simplex, summand and component.
Coboundary equations therefore split into small exact linear systems, one per
character, and solving them is complete: no truncation window enters.

Every chart change goes through one exponent-level function,
``Cover.transport``: moving one monomial between charts is an integer matrix
on its exponents, a twist-scaled line-factor vector, and one offset and
constant per output component.  ``represent`` moves slot data monomial by
monomial with it.  The coboundary of one slot is a few such moves; a whole
cochain's coboundary sums it over the cochain's slots, and
``delta_block_matrix`` fills each block column with it, so both share one
differential.  A cochain's coboundary and its character split read each
slot's images and character from its slot record, ``_slot_record``; the
block matrices apply the differential directly, so cohomology sweeps make
no slot record.  Everywhere else a kind means one row of the frame table:
its frame's character weight (+1 tangent, -1 one-form, 0 line) and its Bott
form h^q(Omega^p(t + shift)), T being Omega^(n-1)(n+1).  Characters,
component counts and closed formulas read it; ``supermap`` places the slots
of its slot sheaves in a map's components with one layout per map, chosen by
the parity of the slot degree.

Cohomology is computed without scanning characters.  A slot of character g
exists when each exponent g_l - adjust_l off the simplex is non-negative,
with adjust_l in {-1, 0, 1}, and the transport coefficients ignore the
exponents; so every block depends on g only through its sign type, each
entry clamped to [-2, 1].  One record per (cover, kind, q, sign type),
``_type_record``, holds H^q of such a block in any degree q and the solver
of its degree-q blocks, both from one rref of the kernel of the degree-q
block against the image of the degree-(q-1) block.  The record is built
from the type alone, on the type itself: a character of the one-summand
sheaf twisted by the sum of its entries.  So each sign type is reduced once
per process, for every twist, summand, character and caller.
``class_blocks`` lists every concrete character of the types that carry
classes (finitely many; types unbounded both ways carry none and are not
listed) with their classes, and builds no cochain; ``cohomology`` fills in
each character's slot exponents to make representatives.
``h1_representatives`` and ``line_bundle_cohomology`` are views of it, and
``solve_blocks`` reads the same records to split a cocycle into an exact part
and class coordinates.  The closed formulas cross-check every total in
``class_blocks``.

What is reused is a pure function of the cover and a small structural key,
so it is memoised with ``functools`` on the function that builds it:
``Cover.transport`` on (cover, kind, a, b, comp), ``_type_record`` on
(cover, kind, q, sign type), one summand's walk ``_walk`` on (cover, kind,
q, twist), a block's slots ``_char_slots`` on (cover, kind, degree, twist,
character), and ``_slot_record`` on (cover, kind, twist, slot).  Covers
compare and hash by n, so every cover of P^n shares these records, and no
record changes after it is built.  Keys hold no coefficient; only slot
records hold a cochain's support, so only they are bounded, to the
``SLOT_TABLE_LIMIT`` most recently used.  ``supermap`` memoises its split
records, slot sheaves and layouts the same way, and bounds its first-order
images, keyed by a map's monomials, by the same constant.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import NamedTuple

from .laurent import add_term, coerce, fraction_to_str
from . import bott, linalg


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

    def chart_vars(self, i: int) -> tuple[int, ...]:
        """Homogeneous indices of the affine coordinates of chart i."""
        return self._chart_vars[i]

    def _unit(self, i: int, l: int) -> tuple[int, ...]:
        """Exponent vector of z_l/z_i in chart i: a unit vector, zero for l == i."""
        return tuple(int(m == l) for m in self.chart_vars(i))

    def _coords(self, a: int, b: int) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors in chart b of the chart-a coordinates z_l/z_a,
        each (z_l/z_b) / (z_a/z_b)."""
        line = self._unit(b, a)
        return tuple(tuple(map(sub, self._unit(b, l), line)) for l in self.chart_vars(a))

    @functools.cache
    def transport(self, kind: str, a: int, b: int, comp: int) -> tuple:
        """How one monomial of a slot component moves from chart a to chart b.

        Returns (rows, line, outputs).  A chart-a monomial c * x^e in input
        component ``comp`` of a summand twisted by t re-presents in chart b as
        the sum over (mu, offset, coef) in outputs of
        c * coef * x^(sum_i e_i rows[i] + t line + offset) in component mu.
        rows are the exponent vectors of the chart-a coordinates in chart b,
        line that of z_a/z_b, and each output is one nonzero Jacobian entry,
        from d/dx_nu x^r = r_nu x^(r - e_nu): of the chart-b coordinates in
        chart-a variables, pulled back to chart b (tangent), or of the chart-a
        coordinates in chart-b variables (one-forms).  Every chart change in
        the package reads it: ``represent`` and the coboundary blocks move
        whole monomials, and the gluing maps' frame changes use the outputs
        and line.  Memoised on (cover, kind, a, b, comp); equal covers share
        the entries.
        """
        n = self.n
        rows, line = self._coords(a, b), self._unit(b, a)
        eye = [tuple(int(t == mu) for t in range(n)) for mu in range(n)]
        if kind == LINE_SUM:
            outputs = ((0, (0,) * n, 1),)
        elif kind == TANGENT:
            # chart-b coordinate mu is x^r in chart a; pulled back to chart b,
            # x^(r - e_comp) is x^(e_mu - rows[comp])
            outputs = tuple((mu, tuple(map(sub, eye[mu], rows[comp])), r[comp])
                            for mu, r in enumerate(self._coords(b, a)) if r[comp])
        else:
            r = rows[comp]
            outputs = tuple((mu, tuple(map(sub, r, eye[mu])), r[mu]) for mu in range(n) if r[mu])
        return rows, line, outputs

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

    def __hash__(self):
        return self.n

    def __repr__(self):
        return f"Cover(P^{self.n})"


@functools.cache
def standard_cover(n: int) -> Cover:
    """The shared cover of P^n.  Covers compare and hash by n, so this one
    and every ``Cover(n)`` read the same memoised records."""
    return Cover(n)


# ---------------------------------------------------------------------------
# sheaves and sections

LINE_SUM = "line_sum"
TANGENT = "tangent_twisted"
ONE_FORM = "oneform_twisted"

# The frame table: what a kind means outside ``Cover.transport``.  kind ->
# (weight, bott): the frame of component mu in chart i has the character
# weight * (e_i - e_mu), and a summand twisted by t is Omega^p(t + shift) with
# (p, shift) = bott(n), T being Omega^(n-1)(n+1); so it has C(n, p) components.
_FRAMES = {LINE_SUM: (0, lambda n: (0, 0)), TANGENT: (1, lambda n: (n - 1, n + 1)),
           ONE_FORM: (-1, lambda n: (1, 0))}


@dataclass(frozen=True)
class SheafSpec:
    """A direct sum of twisted line/tangent/one-form pieces over a cover."""

    cover: Cover
    kind: str
    twists: tuple[int, ...]
    labels: tuple = ()

    def __post_init__(self):
        if self.kind not in _FRAMES:
            raise ValueError(f"unknown sheaf kind {self.kind!r}")
        object.__setattr__(self, "twists", tuple(int(t) for t in self.twists))
        if self.labels and len(self.labels) != len(self.twists):
            raise ValueError("one label per summand required")

    @property
    def ncomp(self) -> int:
        """The rank C(n, p) of the summands' Omega^p."""
        n = self.cover.n
        p, _ = _FRAMES[self.kind][1](n)
        return math.comb(n, p)

    @property
    def nsummands(self) -> int:
        return len(self.twists)


def line_sum(cover: Cover, twists, labels=()) -> SheafSpec:
    return SheafSpec(cover, LINE_SUM, tuple(twists), tuple(labels))


def tangent_twisted(cover: Cover, twists, labels=()) -> SheafSpec:
    return SheafSpec(cover, TANGENT, tuple(twists), tuple(labels))


def oneform_twisted(cover: Cover, twists, labels=()) -> SheafSpec:
    return SheafSpec(cover, ONE_FORM, tuple(twists), tuple(labels))


def represent(spec: SheafSpec, data: dict, a: int, b: int) -> dict:
    """Re-present slot data ``{(summand, comp, exps): coef}`` from chart a to
    chart b (arguments, frames and twist).

    Each monomial moves on its own through ``Cover.transport``, which is the
    identity for a == b.
    """
    cover = spec.cover
    out: dict = {}
    for (s, comp, exps), c in data.items():
        for mu, image, coef in _move(cover, spec.kind, a, b, comp, spec.twists[s], exps):
            add_term(out, (s, mu, image), c, coef)
    return {key: coerce(c) for key, c in out.items() if c}


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
            coef = coerce(coef)
            if coef:
                self.terms[BasisSlot(*slot)] = coef
        for simplex in {slot.simplex for slot in self.terms}:
            if list(simplex) != sorted(simplex) or len(simplex) != degree + 1:
                raise ValueError(f"cochain keys must be sorted {degree + 1}-tuples: {simplex}")

    def on(self, simplex) -> dict:
        """Slot data ``{(summand, comp, exps): coef}`` of one sorted simplex,
        presented in the chart of its first vertex."""
        simplex = tuple(simplex)
        if list(simplex) != sorted(set(simplex)) or len(simplex) != self.degree + 1:
            raise ValueError(f"not a sorted {self.degree + 1}-simplex: {simplex}")
        return {(slot.summand, slot.comp, slot.exps): c
                for slot, c in self.terms.items() if slot.simplex == simplex}

    def is_zero(self) -> bool:
        return not self.terms

    def _combine(self, other: "Cochain", sign: int) -> "Cochain":
        """self + sign * other."""
        if self.sheaf != other.sheaf or self.degree != other.degree:
            raise ValueError("cochain mismatch")
        terms = dict(self.terms)
        for slot, coef in other.terms.items():
            add_term(terms, slot, coef, sign)
            if not terms[slot]:
                del terms[slot]
        return _cochain(self.sheaf, self.degree, terms)

    def __add__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, 1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self._combine(other, -1)

    def scale(self, c) -> "Cochain":
        c = coerce(c)
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
    the one differential: the slot records keep it for ``coboundary``, which
    sums it over a cochain's slots, and ``delta_block_matrix`` makes it a
    block column.
    """
    cover = spec.cover
    face = slot.simplex
    twist = spec.twists[slot.summand]
    return [
        (BasisSlot(big, slot.summand, mu, exps), sign * coef)
        for big, sign in _cofaces(cover.n, face)
        for mu, exps, coef in _move(cover, spec.kind, face[0], big[0], slot.comp, twist, slot.exps)
    ]


# Slot records are the one memo keyed by a cochain's support, so they are the
# one bounded by count: the least recently used goes first past this many (a
# record takes about 0.5 kB; the gluing benchmark's pools of four seeds make
# about 2500).
SLOT_TABLE_LIMIT = 8192


@functools.lru_cache(maxsize=SLOT_TABLE_LIMIT)
def _slot_record(cover: Cover, kind: str, twist: int, slot: BasisSlot) -> tuple:
    """(character, unit coboundary) of one basis slot of a summand twisted
    by ``twist``: ``monomial_char`` and ``_delta_slot`` as a tuple of (image
    slot, coefficient) pairs.

    Both depend on the summand only through its twist and on no
    coefficient, so ``coboundary`` and ``cochain_chars`` read them per term
    instead of transporting the monomial again.  Memoised on (cover, kind,
    twist, slot), at most ``SLOT_TABLE_LIMIT`` records.
    """
    # a sheaf in which the slot's summand has the twist
    spec = SheafSpec(cover, kind, (twist,) * (slot.summand + 1))
    char = monomial_char(spec, slot.simplex[0], slot.summand, slot.comp, slot.exps)
    return char, tuple(_delta_slot(spec, slot))


def coboundary(c: Cochain) -> Cochain:
    """Twisted Čech differential: the coboundaries of the slots, summed.

    Each slot's unit coboundary is read from its slot record.  Its images
    lie on sorted simplices by construction, so the sum becomes a cochain
    with zeros dropped and integral coefficients as ints, unchecked.
    """
    spec = c.sheaf
    cover, kind, twists = spec.cover, spec.kind, spec.twists
    out: dict[BasisSlot, int | Fraction] = {}
    for slot, coef in c.terms.items():
        for image, x in _slot_record(cover, kind, twists[slot.summand], slot)[1]:
            add_term(out, image, coef, x)
    return _cochain(spec, c.degree + 1,
                    {slot: v if type(v) is int else coerce(v) for slot, v in out.items() if v})


# ---------------------------------------------------------------------------
# character grading

Char = tuple  # length n+1 exponent vector of homogeneous coordinates


def _frame_char(spec: SheafSpec, chart: int, comp: int) -> list[int]:
    """Character weight * (e_chart - e_mu) of the frame of component ``comp``,
    mu its coordinate's homogeneous index, weight from the frame table."""
    g = [0] * (spec.cover.n + 1)
    weight = _FRAMES[spec.kind][0]
    g[chart] += weight
    g[spec.cover.chart_vars(chart)[comp]] -= weight
    return g


def monomial_char(spec: SheafSpec, chart: int, summand: int, comp: int, exps) -> Char:
    """Torus character of one monomial of a section in chart presentation."""
    g = _frame_char(spec, chart, comp)
    for pos, l in enumerate(spec.cover.chart_vars(chart)):
        g[l] += exps[pos]
    g[chart] += spec.twists[summand] - sum(exps)
    return tuple(g)


def char_monomial_exps(spec: SheafSpec, chart: int, summand: int, comp: int, g: Char):
    """Inverse of monomial_char; None when the character misses this slot."""
    frame = _frame_char(spec, chart, comp)
    exps = tuple(g[l] - frame[l] for l in spec.cover.chart_vars(chart))
    if spec.twists[summand] - sum(exps) + frame[chart] != g[chart]:
        return None
    return exps


def _cone_ok(cover: Cover, simplex: tuple, chart: int, exps) -> bool:
    # regular on U_simplex: poles only along z_l with l in the simplex
    for pos, l in enumerate(cover.chart_vars(chart)):
        if exps[pos] < 0 and l not in simplex:
            return False
    return True


def char_basis(spec: SheafSpec, degree: int, summand: int, g: Char) -> list[BasisSlot]:
    """All monomial slots of character g in degree-``degree`` cochains.

    The slots depend on the summand only through its twist: ``_char_slots``
    lists them without the summand index, which this puts back.
    """
    return [BasisSlot(simplex, summand, comp, exps) for simplex, comp, exps
            in _char_slots(spec.cover, spec.kind, degree, spec.twists[summand], g)]


@functools.cache
def _char_slots(cover: Cover, kind: str, degree: int, twist: int, g: Char) -> tuple:
    """(simplex, comp, exps) of every degree-``degree`` slot of character g
    of a summand twisted by ``twist``, memoised on those arguments."""
    spec = SheafSpec(cover, kind, (twist,))
    found = []
    for simplex in cover.simplices(degree):
        chart = simplex[0]
        for comp in range(spec.ncomp):
            exps = char_monomial_exps(spec, chart, 0, comp, g)
            if exps is not None and _cone_ok(cover, simplex, chart, exps):
                found.append((simplex, comp, exps))
    return tuple(found)


def cochain_from_slots(spec: SheafSpec, degree: int, slots, coefs) -> Cochain:
    """The cochain sum_i coefs[i] * slots[i] over distinct slots."""
    return Cochain(spec, degree, dict(zip(slots, coefs)))


def cochain_chars(c: Cochain) -> dict[tuple[int, Char], dict[BasisSlot, Fraction]]:
    """Decompose a cochain into (summand, character) blocks of coefficients,
    each slot's character read from its slot record."""
    spec = c.sheaf
    cover, kind, twists = spec.cover, spec.kind, spec.twists
    blocks: dict[tuple[int, Char], dict[BasisSlot, Fraction]] = {}
    for slot, coef in c.terms.items():
        char = _slot_record(cover, kind, twists[slot.summand], slot)[0]
        blocks.setdefault((slot.summand, char), {})[slot] = coef
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


def require_cocycle(c: Cochain) -> None:
    """Raise NotACocycleError, carrying the coboundary, unless c is closed."""
    residual = coboundary(c)
    if not residual.is_zero():
        raise NotACocycleError(residual)


def solve_blocks(target: Cochain):
    """Split a cocycle into an exact part and its class coordinates.

    Returns (preimage, coords).  coords maps each (summand, character) block
    with a class part to its coordinates against that block's classes,
    ``block_cohomology(spec, degree, g)``; coboundary(preimage) is
    the target minus that class part, which is checked.  Each block is solved
    against [image of the block one degree down | the block's classes] by
    its sign type's cached reduction, ``_solve_block``: a cocycle block lies
    in that span, and its class coordinates are unique.
    """
    require_cocycle(target)
    spec = target.sheaf
    deg = target.degree
    if deg not in (1, 2):
        raise ValueError("can only solve for preimages of 1- and 2-cochains")
    # blocks have disjoint slots: each block's terms go straight into one dict
    solution: dict[BasisSlot, int | Fraction] = {}
    exact = dict(target.terms)
    coords: dict[tuple[int, Char], list] = {}
    for (summand, g), coeffs in sorted(cochain_chars(target).items()):
        dom = char_basis(spec, deg - 1, summand, g)
        cod = char_basis(spec, deg, summand, g)
        rhs = [0] * len(cod)
        idx = {slot: i for i, slot in enumerate(cod)}
        for slot, coef in coeffs.items():
            rhs[idx[slot]] = coef
        x = _solve_block(spec, deg, g, rhs)
        if x is None:
            raise AssertionError(f"cocycle block {(summand, g)} is not image plus classes")
        for slot, c in zip(dom, x):
            c = coerce(c)
            if c:
                solution[slot] = c
        part = [coerce(c) for c in x[len(dom):]]
        if any(part):
            coords[summand, g] = part
            classes = block_cohomology(spec, deg, g)
            for r, slot in enumerate(cod):
                for c, vec in zip(part, classes):
                    if c and vec[r]:
                        add_term(exact, slot, -c, vec[r])
                if exact.get(slot) == 0:
                    del exact[slot]
    preimage = _cochain(spec, deg - 1, solution)
    if not (coboundary(preimage) - _cochain(spec, deg, exact)).is_zero():
        raise AssertionError("solver returned an invalid preimage")
    return preimage, coords


def _solve_block(spec: SheafSpec, deg: int, g: Char, rhs: list) -> list | None:
    """One exact x with [image | classes] x = rhs on the degree-``deg`` block
    of g, or None when there is none; rhs is indexed like the block's slots.

    The image is that of the degree-(deg-1) block.  The solver of g's sign
    type, from ``_type_record``, holds the rref [R | E] of
    [image | classes | I], with E [image | classes] = R: rhs lies in the span
    exactly when E rhs vanishes past the rank, and x is then E rhs on the
    pivot columns and 0 elsewhere.  rref is unique, so this is the x that an
    rref of [image | classes | rhs] reads off.  E is kept by columns, so a
    sparse rhs costs one sparse product.  A type without kernel has no
    solver: it holds no nonzero cocycle block.
    """
    solver = _type_record(spec.cover, spec.kind, deg, _sign_type(g))[1]
    if solver is None:
        return None
    pivots, columns, width = solver
    y: dict = {}
    for i, b in enumerate(rhs):
        if b:
            for r, v in columns[i]:
                add_term(y, r, v, b)
    if any(v for r, v in y.items() if r >= len(pivots)):
        return None
    x = [0] * width
    for r, pc in enumerate(pivots):
        x[pc] = y.get(r, 0)
    return x


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


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        if total >= 0:
            yield (total,)
        return
    for v in range(total + 1):
        for tail in _compositions(total - v, parts - 1):
            yield (v,) + tail


def _summand_bott_dim(spec: SheafSpec, summand: int, q: int) -> int:
    """h^q of one summand, the Bott formula of its frame-table form."""
    n = spec.cover.n
    p, shift = _FRAMES[spec.kind][1](n)
    return bott.bott_dim(n, p, q, spec.twists[summand] + shift)


def _sign_type(g: Char) -> tuple:
    return tuple(max(-2, min(1, e)) for e in g)


def _sign_types(n: int):
    """Every sign type of P^n that can carry cohomology.

    A sign type clamps each entry of a character to [-2, 1]: the classes
    <= -2, -1, 0 and >= 1.  Slot existence only compares entries with the
    thresholds -1, 0 and 1, and the block matrices depend on the slots alone,
    so every block is constant on a type.  Types unbounded both ways (an
    entry 1 and an entry -2) are skipped: no block of those has a class in
    any degree, which ``tests/test_cech.py`` checks on every kind, degree and
    such type.  Whether a type meets a twist is ``_type_chars``' question.
    """
    for sign_type in itertools.product((-2, -1, 0, 1), repeat=n + 1):
        if not (1 in sign_type and -2 in sign_type):
            yield sign_type


def _type_chars(sign_type: tuple, twist: int):
    """Every character of a sign type on the twist's stratum, for a type that
    ``_sign_types`` lists: its unbounded entries all point the same way, so
    there are finitely many, and none when the type misses the twist."""
    surplus = twist - sum(sign_type)
    end, step = (1, 1) if surplus >= 0 else (-2, -1)
    free = [l for l, e in enumerate(sign_type) if e == end]
    if not free:
        if surplus == 0:
            yield sign_type
        return
    for extra in _compositions(abs(surplus), len(free)):
        g = list(sign_type)
        for l, x in zip(free, extra):
            g[l] += step * x
        yield tuple(g)


def block_cohomology(spec: SheafSpec, q: int, g: Char) -> list[list[int | Fraction]]:
    """Kernel vectors spanning H^q of the block of g, over its degree-q slots.

    The per-character lookup: g is clamped to its sign type once and the
    classes are that type's record, see ``_type_record``.  The vectors are
    indexed like ``char_basis(spec, q, summand, g)`` for a summand twisted
    by sum(g).
    """
    return _type_record(spec.cover, spec.kind, q, _sign_type(g))[0]


@functools.cache
def _type_record(cover: Cover, kind: str, q: int, sign_type: tuple) -> tuple:
    """(classes, solver) of the degree-q blocks of a sign type.

    The blocks are built on the type itself, a character of the one-summand
    sheaf twisted by the sum of its entries.  One rref of [image of the
    degree-(q-1) block | kernel of the degree-q block | I] gives both.  The
    classes are the kernel vectors independent modulo the image: the pivots
    among the kernel columns.  In degree 0 the kernel is the cohomology.
    Dropping the other kernel columns leaves the rref of [image | classes |
    I], since rref is unique; the solver keeps its pivot columns below the
    identity, its identity part E by columns, and the width of [image |
    classes] (see ``_solve_block``).  Classes and E keep integral entries
    as ints, so solving a block and subtracting its class part multiply no
    Fraction by 1 or -1.  A type whose kernel is empty gets no
    image block and no solver.  The record depends on the sign type alone,
    so it is memoised on (cover, kind, q, sign type) and serves every twist,
    summand, caller and character of the type.
    """
    spec = SheafSpec(cover, kind, (sum(sign_type),))
    dom, _, mat = delta_block_matrix(spec, q, 0, sign_type)
    kernel = linalg.kernel_basis(mat, len(dom))
    solver = None
    if kernel and q > 0:
        dom0, _, mat0 = delta_block_matrix(spec, q - 1, 0, sign_type)
        m, k = len(dom0), len(kernel)
        joined = [row + [vec[r] for vec in kernel] + [int(r == c) for c in range(len(dom))]
                  for r, row in enumerate(mat0)]
        red, pivots = linalg.rref(joined)
        picked = [p - m for p in pivots if m <= p < m + k]
        kernel = [kernel[i] for i in picked]
        width = m + len(picked)
        solver = ([p for p in pivots if p < m] + list(range(m, width)),
                  [[(r, coerce(row[m + k + c])) for r, row in enumerate(red) if row[m + k + c]]
                   for c in range(len(dom))],
                  width)
    return [[coerce(x) for x in vec] for vec in kernel], solver


def enumerate_chars(spec: SheafSpec, summand: int, q: int = 1) -> tuple[tuple[Char, list], ...]:
    """(character, classes) for every character of one summand whose block
    has H^q, 0 <= q <= n, ordered by g[1:].

    The walk depends on the summand only through its twist; see ``_walk``.
    """
    return _walk(spec.cover, spec.kind, q, spec.twists[summand])


@functools.cache
def _walk(cover: Cover, kind: str, q: int, twist: int) -> tuple[tuple[Char, list], ...]:
    """``enumerate_chars`` of a summand twisted by ``twist``, memoised on
    (cover, kind, q, twist).

    It reads each sign type's record through ``_type_record``, once per
    type; every concrete character of a type with classes shares them.  Its
    class count is checked against the summand's closed formula before it
    is returned, so a failed self-check raises and memoises nothing.
    """
    found = []
    for sign_type in _sign_types(cover.n):
        chars = _type_chars(sign_type, twist)
        first = next(chars, None)
        if first is None:
            continue
        classes = _type_record(cover, kind, q, sign_type)[0]
        if classes:
            found.extend((c, classes) for c in itertools.chain((first,), chars))
    count = sum(len(classes) for _, classes in found)
    expected = _summand_bott_dim(SheafSpec(cover, kind, (twist,)), 0, q)
    if count != expected:
        raise AssertionError(f"H^{q} of a {kind} summand twisted by {twist} has "
                             f"{count} classes, closed formula gives {expected}")
    return tuple(sorted(found, key=lambda pair: pair[0][1:]))


def class_blocks(spec: SheafSpec, q: int) -> list[tuple[int, Char, list[list[int | Fraction]]]]:
    """Every (summand, character, classes) block with H^q.

    Summands come in order and their characters as ``enumerate_chars`` lists
    them; the classes are ``block_cohomology``'s kernel vectors, so the walk
    reads memoised records and builds no cochain.  The number of classes
    is cross-checked against the closed formula on every call, on top of
    each summand's check when its walk was built; a difference is a failed
    self-check.
    """
    if not 0 <= q <= spec.cover.n:
        return []
    blocks = []
    expected = 0
    for summand in range(spec.nsummands):
        blocks.extend((summand, g, classes) for g, classes in enumerate_chars(spec, summand, q))
        expected += _summand_bott_dim(spec, summand, q)
    found = sum(len(classes) for _, _, classes in blocks)
    if found != expected:
        raise AssertionError(f"H^{q} has {found} classes, closed formula gives {expected}")
    return blocks


def class_count(spec: SheafSpec, q: int) -> int:
    """h^q of the sheaf, the number of classes ``class_blocks`` lists,
    counted per sign type without listing a character.

    On a summand twisted by t, a type with classes contributes their number
    times its character count: C(|s| + f - 1, f - 1) for the surplus s =
    t - sum(type) and the f entries that ``_type_chars`` moves, or 1 when
    f = 0 and s = 0, and none otherwise.  The total is cross-checked against
    the closed formula; a difference is a failed self-check.
    """
    if not 0 <= q <= spec.cover.n:
        return 0
    found = expected = 0
    for summand, twist in enumerate(spec.twists):
        for sign_type in _sign_types(spec.cover.n):
            surplus = twist - sum(sign_type)
            free = sign_type.count(1 if surplus >= 0 else -2)
            chars = math.comb(abs(surplus) + free - 1, free - 1) if free else int(surplus == 0)
            if chars:
                found += chars * len(_type_record(spec.cover, spec.kind, q, sign_type)[0])
        expected += _summand_bott_dim(spec, summand, q)
    if found != expected:
        raise AssertionError(f"H^{q} has {found} classes, closed formula gives {expected}")
    return found


def cohomology(spec: SheafSpec, q: int) -> CohomologyReport:
    """Kernel-mod-image basis of H^q, character by character.

    Each sign type's block is solved once per process (see
    ``block_cohomology``); a concrete character reuses its type's classes and
    only fills in its own slot exponents.  The blocks and the closed-formula
    cross-check are those of ``class_blocks``.
    """
    reps: list[Cochain] = []
    for summand, g, classes in class_blocks(spec, q):
        slots = char_basis(spec, q, summand, g)
        reps.extend(cochain_from_slots(spec, q, slots, vec) for vec in classes)
    return CohomologyReport({q: len(reps)}, {q: reps}, "sign-type-linear-algebra")


def h1_representatives(spec: SheafSpec) -> CohomologyReport:
    """H^1 with one representative per class, over every character."""
    return cohomology(spec, 1)


# the historical label of line-bundle cohomology: the monomial characters of
# O(k) are what the sign types enumerate
LINE_BUNDLE_METHOD = "monomial-oracle"


def line_bundle_cohomology(n: int, k: int, q: int) -> CohomologyReport:
    """Exact h^q(P^n, O(k)) with representatives, over every character,
    labelled ``LINE_BUNDLE_METHOD``; n outside {1, 2} raises ValueError."""
    rep = cohomology(line_sum(standard_cover(n), [k]), q)
    rep.method = LINE_BUNDLE_METHOD
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
        add_term(out, slot, coef)
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
