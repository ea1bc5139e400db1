"""The cover's split records, slot layouts and first-order kernels against
the per-call builds they replace.

``supermap`` keeps what depends only on (bundle degrees, i, j) in one split
record per ordered chart pair: the exponents, their columns, the split map
itself and the moves of its derivative, grouped by argument component.  The
layout of a degree-d slot sheaf in the map i -> j, which moves each slot
between the chart-i frame and the map's frame and places it among the map's
components, is kept the same way.  The references below are the bodies that
rebuilt each of these on every call: a frame change followed by a placement
for the layouts, and per-component moves.  Every table is checked against
them on a fresh cover and on the shared cover, and on every call of a gluing
case and of a certificate: values, coefficient types and key order.

``_pull`` and ``_tangent`` add their terms into accumulators that the caller
owns.  ``reference_pull`` and ``reference_tangent`` build each result as a
dict of its own, and ``reference_moved`` adds such results to a map one
after the other; ``reference_first_order_inverse`` and
``reference_conjugate_maps`` are the first-order bodies of
``normalize_inverses`` and ``conjugate`` built from them, with the deviation
from the split map taken by ``map_difference``; the first is also checked on
maps whose term at S_ij's one term is 1, another coefficient or missing.
``_least_degrees``, which reads the certificate's degrees off a map without
building its deviation, is checked against the degrees of ``map_difference``.
``_first_order_inverse`` reads each deviation term's image from tables on
the split record, bounded by ``IMAGE_TABLE_LIMIT``; every image a record
holds is checked against ``reference_image``, built from the reference
pull and tangent of the one monomial.
The split maps are shared by every trivialisation built on a cover, so no
caller may change a component of one; the last test checks that none does.
"""

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from operator import add, mul

import pytest

from superthick import cech, cli, supermap
from superthick.bott import SplitBundleDegrees
from superthick.laurent import coerce
from test_acceptance import DEGREE_POOL
from test_golden import ADMISSIBLE
from test_transport import reference_placement, shared_layout, slot_data

TRIPLES = list(dict.fromkeys(DEGREE_POOL + ADMISSIBLE))


def reference_split_exponents(cover, degrees, i, j):
    """The even rows and odd exponents of the split map i -> j, from the
    transport j -> i."""
    rows, line, _ = cover.transport(cech.LINE_SUM, j, i, 0)
    return rows, tuple(tuple(k * x for x in line) for k in degrees.degrees)


def reference_split_map(i, j, rows, zs):
    return supermap._map(i, j, tuple({((), row): 1} for row in rows),
                         tuple({((a,), z): 1} for a, z in enumerate(zs, 1)))


def reference_pull(comp, rows, zs):
    """comp o S, the columns of the rows zipped for every term."""
    out = {}
    for (w, e), c in comp.items():
        exps = [sum(map(mul, e, col)) for col in zip(*rows)]
        for a in w:
            exps = list(map(add, exps, zs[a - 1]))
        out[(w, tuple(exps))] = c
    return out


def reference_moves(rows, zs):
    """Per component of S: (r, shifted exponents, argument index, word)."""
    p = len(rows)
    return [[(r, tuple(x - (n == k) for n, x in enumerate(row)), k, w)
             for k, r in enumerate(row) if r] + [(1, row, p + a - 1, ()) for a in w]
            for w, row in [((), r) for r in rows] + [((a,), z) for a, z in enumerate(zs, 1)]]


def reference_argument_moves(rows, zs):
    """The moves grouped by argument component: (output, r, shift, word)."""
    moves = [[] for _ in range(len(rows) + len(zs))]
    for out, comp_moves in enumerate(reference_moves(rows, zs)):
        for r, shift, arg, word in comp_moves:
            moves[arg].append((out, r, shift, word))
    return moves


def reference_tangent(rows, zs, vector, order):
    """DS v with the move list rebuilt on every call."""
    p = len(rows)
    out = []
    for w, row in [((), r) for r in rows] + [((a,), z) for a, z in enumerate(zs, 1)]:
        moves = [(r, tuple(x - (n == k) for n, x in enumerate(row)), vector[k], w)
                 for k, r in enumerate(row) if r]
        acc = {}
        for r, shift, comp, word in moves + [(1, row, vector[p + a - 1], ()) for a in w]:
            for (u, e), c in comp.items():
                merged = len(u) + len(word) <= order and supermap._MERGED[u, word]
                if merged:
                    sign, joined = merged
                    key = (joined, tuple(map(add, e, shift)))
                    acc[key] = acc.get(key, 0) + sign * r * c
        out.append({key: c for key, c in acc.items() if c})
    return out


def reference_image(rows, zs, index, key, precision):
    """The image of one monomial of argument component ``index`` under v ->
    -DS(v o S) mod J^(precision+1), each term as output, word, exponents and
    coefficient, flat."""
    vector = [{} for _ in range(len(rows) + len(zs))]
    vector[index][key] = 1
    moved = reference_tangent(rows, zs, [reference_pull(g, rows, zs) for g in vector], precision)
    return tuple(x for out, part in enumerate(moved) for (w, e), c in part.items()
                 for x in (out, w, e, -c))


def reference_frames(cover, degrees, spec, i, j, to_map):
    """The frames per summand and component from the chart-i slot frame to
    the frame of the map i -> j, or back, built on every call."""
    comps = range(cover.n)
    if spec.kind == cech.TANGENT and to_map:
        frame = [[(mu, offset, c) for mu in comps
                  for col, offset, c in cover.transport(cech.ONE_FORM, j, i, mu)[2] if col == nu]
                 for nu in comps]
        return [frame] * spec.nsummands
    if spec.kind == cech.TANGENT:
        return [[cover.transport(cech.TANGENT, j, i, nu)[2] for nu in comps]] * spec.nsummands
    zs = reference_split_exponents(cover, degrees, i, j)[1]
    sign = 1 if to_map else -1
    return [[((0, tuple(sign * x for x in zs[a - 1]), 1),)] for _, a in spec.labels]


def reference_reframe(cover, degrees, spec, data, i, j, to_map):
    frames = reference_frames(cover, degrees, spec, i, j, to_map)
    out = {}
    for (s, comp, exps), c in data.items():
        for mu, offset, x in frames[s][comp]:
            key = (s, mu, tuple(map(add, exps, offset)))
            out[key] = out.get(key, 0) + c * x
    return {key: coerce(c) for key, c in out.items() if c}


def reference_layout(cover, degrees, d, i, j):
    """The frames to the map and back, each composed with the placement."""
    spec = supermap.slot_sheaf(cover, degrees, d)
    place = reference_placement(spec)
    to_map, back = (reference_frames(cover, degrees, spec, i, j, way) for way in (True, False))
    return ({(s, nu): [place[s, mu] + (offset, x) for mu, offset, x in to_map[s][nu]]
             for s, nu in place},
            {place[s, mu]: [(s, nu, offset, x) for nu, offset, x in back[s][mu]]
             for s, mu in place})


def reference_place(sm, cover, degrees, spec, data, i, j):
    """``sm`` plus chart-i slot data: the frame change to the map, then each
    slot added at its place."""
    comps = [dict(g) for g in sm.even + sm.odd]
    place = reference_placement(spec)
    for (s, comp, e), c in reference_reframe(cover, degrees, spec, data, i, j, True).items():
        index, word = place[s, comp]
        part, key = comps[index], (word, e)
        total = coerce(part.get(key, 0) + c)
        if total:
            part[key] = total
        else:
            part.pop(key, None)
    return supermap._map(sm.source, sm.target, tuple(comps[:sm.p]), tuple(comps[sm.p:]))


def reference_read(cover, degrees, spec, comps, i, j):
    """The terms of a map's components at the places, as slot data in the
    map's frame, moved back to the chart-i frame."""
    slots = {where: slot for slot, where in reference_placement(spec).items()}
    data = {(*slots[index, w], e): c for index, comp in enumerate(comps)
            for (w, e), c in comp.items() if (index, w) in slots}
    return reference_reframe(cover, degrees, spec, data, i, j, False)


def reference_moved(sm, parts, order):
    """An ``_add`` copy per part, then the truncation, then the coercion."""
    comps = sm.even + sm.odd
    for sign, part in parts:
        comps = [supermap._add(g, move, sign) for g, move in zip(comps, part)]
    comps = [{key: coerce(c) for key, c in supermap._truncate(g, order).items()} for g in comps]
    return supermap._map(sm.source, sm.target, tuple(comps[:sm.p]), tuple(comps[sm.p:]))


def reference_least_degrees(devs, order):
    """(d_e, d_o) of deviations given as (even, odd) component lists."""
    return tuple(min((len(w) for dev in devs for comp in dev[part] for w, _ in comp),
                     default=order + 1) for part in (0, 1))


def reference_first_order_exact(devs, order):
    """The certificate on deviations given as (even, odd) component lists."""
    d_e, d_o = reference_least_degrees(devs, order)
    return min(d_e, d_o) >= 2 and min(d_e, d_o) + min(d_e, d_o - 1) > order


def reference_first_order_inverse(t, i, j, precision):
    """S_ji - DS_ji (delta o S_ji), delta = rho_ij - S_ij by ``map_difference``,
    and the certificate."""
    rows, zs = reference_split_exponents(t.cover, t.degrees, j, i)
    there = reference_split_map(i, j, *reference_split_exponents(t.cover, t.degrees, i, j))
    even, odd = supermap.map_difference(t.maps[(i, j)], there)
    move = reference_tangent(rows, zs, [reference_pull(g, rows, zs) for g in even + odd],
                             precision)
    return (reference_moved(reference_split_map(j, i, rows, zs), [(-1, move)], precision),
            reference_first_order_exact([(even, odd)], precision))


def reference_conjugate_maps(t, lam):
    """(maps, exact): the sorted-pair maps rho_ij + nu_j o S_ij - DS_ij nu_i of
    a conjugate one order beyond the truncation, when the certificate holds
    for every deviation, else None; and the certificate."""
    precision = t.order + 1
    nu = {c: supermap.map_difference(sm, supermap.identity_map(c, t.p, t.q))
          for c, sm in lam.items()}
    splits = {pair: reference_split_exponents(t.cover, t.degrees, *pair) for pair in t.cover.pairs}
    devs = [supermap.map_difference(t.maps[pair], reference_split_map(*pair, *split))
            for pair, split in splits.items()]
    devs += [nu[c] for c in {c for pair in t.cover.pairs for c in pair}]
    if not reference_first_order_exact(devs, precision):
        return None, False
    return {(i, j): reference_moved(t.maps[(i, j)], [
        (1, [reference_pull(g, *split) for g in nu[j][0] + nu[j][1]]),
        (-1, reference_tangent(*split, nu[i][0] + nu[i][1], precision))], precision)
        for (i, j), split in splits.items()}, True


def accumulated(before, parts, order):
    """Each accumulator plus its part, mod J^(order+1), as ``_add`` does: a
    new key appended, a sum that cancels dropped; a zero in a part is no
    term."""
    out = [dict(g) for g in before]
    for g, part in zip(out, parts):
        for key, c in part.items():
            if c and len(key[0]) <= order:
                s = g.get(key, 0) + c
                if s:
                    g[key] = s
                else:
                    del g[key]
    return out


def negated(comps):
    """Components with every coefficient negated: what ``_tangent``, which
    subtracts, adds."""
    return [{key: -c for key, c in g.items()} for g in comps]


def nonzero(comps):
    """Components with the terms that cancelled dropped."""
    return [{key: c for key, c in g.items() if c} for g in comps]


def typed(comp: dict) -> list:
    """A component's terms in order, each with its coefficient's type."""
    return [(key, c, type(c)) for key, c in comp.items()]


def same_components(out, ref):
    assert [typed(g) for g in out] == [typed(g) for g in ref]


def same_maps(out, ref):
    assert (out.source, out.target) == (ref.source, ref.target)
    same_components(out.even + out.odd, ref.even + ref.odd)


def assert_record(split, cover, degrees, i, j):
    """A split record equals the per-call builds it replaces, its moves
    regrouped by argument component, its odd moves those into the odd
    components, numbered from 0, and every image its table holds the
    reference image of its monomial."""
    rows, zs = reference_split_exponents(cover, degrees, i, j)
    p = len(rows)
    assert type(split) is tuple and len(split) == 7 and isinstance(split[6], dict)
    for (index, precision), table in split[6].items():
        assert len(table) <= supermap.IMAGE_TABLE_LIMIT
        for key, image in table.items():
            assert image == reference_image(rows, zs, index, key, precision)
    assert split[:3] == (rows, zs, tuple(zip(*rows)))
    same_maps(split[3], reference_split_map(i, j, rows, zs))
    moves = reference_argument_moves(rows, zs)
    assert all(type(arg) is tuple for arg in split[4] + split[5])
    assert [list(arg) for arg in split[4]] == moves
    assert [list(arg) for arg in split[5]] == [[(out - p, *move) for out, *move in arg if out >= p]
                                               for arg in moves]


def assert_layout(layout, cover, degrees, d, i, j):
    """A layout equals the reference, in key order, and is the memoised one
    that every cover of P^n shares and, for even d, every bundle of the
    rank."""
    assert layout is shared_layout(cover, degrees, d, i, j)
    assert type(layout) is tuple and len(layout) == 2
    for table, ref in zip(layout, reference_layout(cover, degrees, d, i, j)):
        assert [(key, list(entries)) for key, entries in table.items()] == list(ref.items())


def random_vector(rng, p, q, order):
    """Components of both parities, the even ones first, with int and
    Fraction coefficients, words of length up to ``order``."""
    out = []
    for parity in [0] * p + [1] * q:
        comp = {}
        for _ in range(rng.randint(0, 4)):
            lengths = [n for n in range(parity, min(q, order) + 1, 2)]
            word = tuple(sorted(rng.sample(range(1, q + 1), rng.choice(lengths))))
            exps = tuple(rng.randint(-3, 3) for _ in range(p))
            comp[(word, exps)] = rng.choice([-2, 1, 3, Fraction(1, 2), Fraction(-4, 3)])
        out.append(comp)
    return out


def cold_or_warm_cover(warm, request):
    """The shared cover of P^2, on the package's memos as earlier tests left
    them, or a fresh cover on emptied memos, which every cover shares."""
    if warm:
        return cech.standard_cover(2)
    request.getfixturevalue("fresh_memos")
    return cech.Cover(2)


@pytest.mark.parametrize("warm", [False, True])
def test_split_records_match_the_per_call_builds(warm, request):
    # every triple of the gluing pool and every admissible triple, every
    # ordered chart pair, from emptied memos and from the shared ones
    cover = cold_or_warm_cover(warm, request)
    rng = random.Random(f"split-records-{warm}")
    for k in TRIPLES:
        degrees = SplitBundleDegrees(k)
        p, q = cover.n, degrees.rank
        for i, j in itertools.permutations(cover.charts, 2):
            split = supermap._split_record(cover, degrees, i, j)
            assert supermap._split_record(cover, degrees, i, j) is split
            assert_record(split, cover, degrees, i, j)
            rows, zs = split[:2]
            for order in (1, 2, 3):
                vector = random_vector(rng, p, q, order)
                ref = reference_tangent(rows, zs, vector, order)
                for moves, out in ((split[4], ref), (split[5], ref[p:])):
                    acc = [{} for _ in out]
                    supermap._tangent(acc, vector, moves, order)
                    same_components(nonzero(acc),
                                    accumulated([{} for _ in out], negated(out), order))
                acc = [{} for _ in vector]
                supermap._pull(acc, vector, split, order)
                same_components(acc, [reference_pull(g, rows, zs) for g in vector])
                # rho_ij + v o S - DS w into accumulators seeded with rho_ij
                base = reference_moved(split[3], [(1, random_vector(rng, p, q, order + 1))],
                                       order + 1)
                v, w = random_vector(rng, p, q, order), random_vector(rng, p, q, order)
                acc = [supermap._truncate(g, order) for g in base.even + base.odd]
                supermap._pull(acc, v, split, order)
                supermap._tangent(acc, w, split[4], order)
                same_maps(supermap._finish(acc, i, j, p), reference_moved(base, [
                    (1, [reference_pull(g, rows, zs) for g in v]),
                    (-1, reference_tangent(rows, zs, w, order))], order))


@pytest.mark.parametrize("warm", [False, True])
def test_frame_and_placement_tables_match_the_per_call_builds(warm, request):
    # the layouts of every ordered chart pair, i == j included, for the
    # degree-2 and degree-3 slot sheaves, and what they place and read
    cover = cold_or_warm_cover(warm, request)
    rng = random.Random(f"frames-{warm}")
    for k in TRIPLES:
        degrees = SplitBundleDegrees(k)
        p, q = cover.n, degrees.rank
        for d in (2, 3):
            spec = supermap.slot_sheaf(cover, degrees, d)
            for i, j in itertools.product(cover.charts, repeat=2):
                layout = supermap._slot_layout(cover, degrees, d, i, j)
                assert supermap._slot_layout(cover, degrees, d, i, j) is layout
                assert_layout(layout, cover, degrees, d, i, j)
                simplex = (i,) + tuple(v for v in cover.charts if v != i)
                data = slot_data(cech.random_section(spec, simplex, rng, terms=5, span=3))
                vector = random_vector(rng, p, q, 3)
                base = supermap._map(i, j, tuple(vector[:p]), tuple(vector[p:]))
                placed = supermap._place(base, layout, data)
                same_maps(placed, reference_place(base, cover, degrees, spec, data, i, j))
                places = set(reference_placement(spec).values())
                for comps in (random_vector(rng, p, q, 3), placed.even + placed.odd):
                    data, rest = supermap._read(layout, comps)
                    assert typed(data) == typed(reference_read(cover, degrees, spec, comps, i, j))
                    assert [typed(g) for g in rest] == [
                        typed({(w, e): c for (w, e), c in comp.items() if (index, w) not in places})
                        for index, comp in enumerate(comps)]


def gluing_case(cover, degrees, rng):
    """One randomized order-2 gluing case with its acceptance checks."""
    spec = supermap.slot_sheaf(cover, degrees, 2)
    omega = cech.random_closed_cochain(spec, rng)
    nu = cech.random_cochain(spec, 0, rng, terms=2)
    t = supermap.build_trivialization(cover, degrees, 2, {2: omega})
    gamma = supermap.obstruction_cocycle(t)
    assert supermap.verify_gamma_cocycle(gamma, t)["pass"]
    assert (supermap.pushforward_partial(omega, t) - gamma).is_zero()
    conj = supermap.conjugate(t, supermap.automorphism_from_increment(cover, degrees, 2, nu, 2))
    assert supermap.residuals_all_zero(supermap.cocycle_residual(conj))
    assert (supermap.obstruction_cocycle(conj) - gamma).is_zero()
    shifted = supermap.act_torsor(t, cech.coboundary(nu))
    assert supermap.equivalence_witness(t, shifted) is not None
    return t


def pushforward_json(degrees):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["pushforward", "--degrees", ",".join(map(str, degrees)), "--json"])
    return out.getvalue()


def test_every_call_of_a_gluing_case_and_a_certificate_matches_the_references(monkeypatch):
    calls = dict.fromkeys(["_split_record", "_pull", "_tangent", "_slot_layout", "_place",
                           "_read"], 0)
    real = {name: getattr(supermap, name) for name in calls}
    cover = cech.Cover(2)
    splits, layouts = [], {}

    def checked(name, check):
        # the in-place kernels are checked on their accumulators as they
        # were before the call and as the call left them
        in_place = name in ("_pull", "_tangent")

        def wrapper(*args):
            before = [dict(g) for g in args[0]] if in_place else None
            out = real[name](*args)
            check(before if in_place else out, *args)
            calls[name] += 1
            return out
        monkeypatch.setattr(supermap, name, wrapper)

    def record(split, *args):
        assert_record(split, *args)
        splits.append(split)

    def layout(out, c, degrees, d, i, j):
        """Check a layout and keep the cover, the degrees, d, i and j it was
        read for; an even one is shared by every bundle of the rank, so
        any degrees of that rank give its reference."""
        assert_layout(out, c, degrees, d, i, j)
        degrees = degrees if d % 2 else SplitBundleDegrees((0,) * degrees.rank)
        layouts[id(out)] = (c, degrees, supermap.slot_sheaf(c, degrees, d), i, j)

    def layout_key(layout):
        return layouts[id(layout)]

    def pull(before, acc, comps, split, order):
        ref = [reference_pull(g, *split[:2]) for g in comps]
        same_components(acc, accumulated(before, ref, order))

    def tangent(before, acc, comps, moves, order):
        # terms that cancel within DS v are left as zeros by the kernel, so
        # both sides are compared with them dropped and coerced
        split = next(split for split in splits if moves is split[4] or moves is split[5])
        ref = reference_tangent(*split[:2], comps, order)
        ref = ref if moves is split[4] else ref[len(split[0]):]
        finished = [{key: coerce(c) for key, c in g.items() if c} for g in acc]
        same_components(finished, [{key: coerce(c) for key, c in g.items() if c}
                                   for g in accumulated(before, negated(ref), order)])

    def place(out, sm, layout, data):
        c, degrees, spec, i, j = layout_key(layout)
        same_maps(out, reference_place(sm, c, degrees, spec, data, i, j))

    def read(out, layout, comps):
        c, degrees, spec, i, j = layout_key(layout)
        assert typed(out[0]) == typed(reference_read(c, degrees, spec, comps, i, j))

    checks = (record, pull, tangent, layout, place, read)
    for name, check in zip(calls, checks):
        checked(name, check)
    gluing_case(cover, SplitBundleDegrees((4, -1, -7)), random.Random(25))
    # a conjugate here pulls nu_j onto a term of rho_ij that cancels
    gluing_case(cover, SplitBundleDegrees((2, 2, -3)), random.Random(21))
    out = pushforward_json((3, 0, -6))
    monkeypatch.undo()
    assert out == pushforward_json((3, 0, -6))
    assert all(calls.values()), calls


def test_first_order_maps_match_the_reference_chain_on_every_call(monkeypatch):
    # every first-order inverse and every conjugate of a gluing case, a
    # certificate and order-3 rank-4 data, which the certificate refuses,
    # against the chain map_difference, pull, tangent, then one _add per
    # part: values, key order, coefficient types and the certificate.  The
    # least degrees a conjugate reads off each map without a difference are
    # checked on every call against those of map_difference; an inverse
    # reads them in its own pass, checked through its certificate.  In one
    # conjugate of the (2, 2, -3) case nu_j o S_ij cancels a term of rho_ij
    # that DS_ij nu_i then brings back, at the end of the component
    seen = []
    inverse, conjugate, compose, pull, least = (
        supermap._first_order_inverse, supermap.conjugate, supermap.compose, supermap._pull,
        supermap._least_degrees)
    composed, cancelled, degrees_read = [0], [0], [0]

    def checked_degrees(sm, base, order):
        out = least(sm, base, order)
        ref = reference_least_degrees([supermap.map_difference(sm, base)], order)
        assert out == tuple(min(d, order + 1) for d in ref)
        degrees_read[0] += 1
        return out

    def counting(*args, **kwargs):
        composed[0] += 1
        return compose(*args, **kwargs)

    def cancelling(acc, *args):
        before = [set(g) for g in acc]
        pull(acc, *args)
        cancelled[0] += sum(len(keys - g.keys()) for keys, g in zip(before, acc))

    def checked_inverse(t, i, j, precision):
        out, exact = inverse(t, i, j, precision)
        ref, ref_exact = reference_first_order_inverse(t, i, j, precision)
        same_maps(out, ref)
        assert exact is ref_exact
        seen.append(("inverse", exact))
        return out, exact

    def checked_conjugate(t, lam):
        before = composed[0]
        out = conjugate(t, lam)
        ref, exact = reference_conjugate_maps(t, lam)
        if exact:
            for pair in t.cover.pairs:
                same_maps(out.maps[pair], ref[pair])
        # the compose path inverts each source chart's lam and composes
        # twice per sorted pair before normalize_inverses runs
        assert (composed[0] - before >= 2 * len(t.cover.pairs)) is not exact
        seen.append(("conjugate", exact))
        return out

    for name, wrapper in (("_first_order_inverse", checked_inverse),
                          ("conjugate", checked_conjugate), ("compose", counting),
                          ("_pull", cancelling), ("_least_degrees", checked_degrees)):
        monkeypatch.setattr(supermap, name, wrapper)
    cover = cech.standard_cover(2)
    gluing_case(cover, SplitBundleDegrees((4, -1, -7)), random.Random(29))
    gluing_case(cover, SplitBundleDegrees((2, 2, -3)), random.Random(21))
    assert cancelled[0]
    out = pushforward_json((4, -1, -7))
    degrees = SplitBundleDegrees((2, 1, -1, -3))
    rng = random.Random(4)
    spec = supermap.slot_sheaf(cover, degrees, 2)
    t = supermap.build_trivialization(cover, degrees, 3, {2: cech.random_closed_cochain(spec, rng)})
    nu = cech.random_cochain(spec, 0, rng, terms=2)
    supermap.conjugate(t, supermap.automorphism_from_increment(cover, degrees, 3, nu, 2))
    monkeypatch.undo()
    assert out == pushforward_json((4, -1, -7))
    assert set(seen) == {("inverse", True), ("inverse", False), ("conjugate", True),
                         ("conjugate", False)}
    # a conjugate reads the degrees of each of its three lam and three maps
    assert degrees_read[0] >= 6 * sum(kind == "conjugate" for kind, _ in seen) > 0


@pytest.mark.parametrize("warm", [False, True])
def test_first_order_inverse_reads_any_split_term(warm, request):
    # rho_ij's term at S_ij's one term of a component may be 1, another
    # coefficient, or missing; each map below is compared with the reference
    # chain, the certificate included
    cover = cold_or_warm_cover(warm, request)
    degrees = SplitBundleDegrees((4, -1, -7))
    spec = supermap.slot_sheaf(cover, degrees, 2)
    t = supermap.build_trivialization(cover, degrees, 2,
                                      {2: cech.random_closed_cochain(spec, random.Random(3))})
    p = t.p
    for i, j in cover.pairs:
        split = supermap._split_record(cover, degrees, i, j)[3]
        rho = t.maps[(i, j)]
        for index, (unit,) in enumerate(split.even + split.odd):
            for c in (None, 2, Fraction(1, 2), -1):
                comps = [dict(g) for g in rho.even + rho.odd]
                if c is None:
                    del comps[index][unit]
                else:
                    comps[index][unit] = c
                maps = dict(t.maps)
                maps[(i, j)] = supermap._map(i, j, tuple(comps[:p]), tuple(comps[p:]))
                changed = supermap.Trivialization(cover, degrees, t.order, maps)
                out, exact = supermap._first_order_inverse(changed, i, j, 3)
                ref, ref_exact = reference_first_order_inverse(changed, i, j, 3)
                same_maps(out, ref)
                assert exact is ref_exact is False
                dev = supermap.map_difference(maps[(i, j)], split)
                assert (supermap._least_degrees(maps[(i, j)], split, 3)
                        == tuple(min(d, 4) for d in reference_least_degrees([dev], 3)))


def test_first_order_inverse_reads_exponents_past_two_to_the_64():
    # rho_ij's deviation terms moved to exponents past 2^64, S_ij's terms
    # kept: the images, built and then read from the table, against the
    # reference chain in values, key order, coefficient types and
    # certificate, at the gluing precision and one beyond it
    cover = cech.standard_cover(2)
    rng = random.Random(64)
    big = 2 ** 64 + 3
    for k in DEGREE_POOL:
        degrees = SplitBundleDegrees(k)
        spec = supermap.slot_sheaf(cover, degrees, 2)
        t = supermap.build_trivialization(cover, degrees, 2,
                                          {2: cech.random_closed_cochain(spec, rng)})
        maps = dict(t.maps)
        for i, j in cover.pairs:
            split, rho = supermap._split_record(cover, degrees, i, j)[3], t.maps[(i, j)]
            comps = [{(w, e if (w, e) == unit else tuple(x * big + rng.choice((-1, 0, 1))
                                                          for x in e)): c
                      for (w, e), c in comp.items()}
                     for comp, (unit,) in zip(rho.even + rho.odd, split.even + split.odd)]
            maps[(i, j)] = supermap._map(i, j, tuple(comps[:t.p]), tuple(comps[t.p:]))
            assert maps[(i, j)].largest > 2 ** 64
        changed = supermap.Trivialization(cover, degrees, t.order, maps)
        for i, j in cover.pairs:
            for precision in (3, 4, 3):
                out, exact = supermap._first_order_inverse(changed, i, j, precision)
                ref, ref_exact = reference_first_order_inverse(changed, i, j, precision)
                same_maps(out, ref)
                assert exact is ref_exact


def test_image_tables_stay_within_their_bound(fresh_memos):
    # more distinct deviation monomials than the bound pushed through the
    # split record of S_10, 300 per inverse, alternating between its two
    # even components: no table ever holds more than IMAGE_TABLE_LIMIT
    # images, every inverse still equals the reference, and the fixture's
    # emptying of the memos drops the record and its tables
    cover = cech.standard_cover(2)
    degrees = SplitBundleDegrees((4, -1, -7))
    t = supermap.split_trivialization(cover, degrees, 2)
    split = t.maps[(0, 1)]
    tables = supermap._split_record(cover, degrees, 1, 0)[6]
    pushed, sizes = 0, []
    while pushed <= 2 * supermap.IMAGE_TABLE_LIMIT:
        even = [dict(g) for g in split.even]
        for n in range(pushed, pushed + 300):
            even[(n // 300) % 2][(1, 2), (n, -n)] = n % 5 - 2 or Fraction(1, 3)
        pushed += 300
        maps = {**t.maps, (0, 1): supermap._map(0, 1, tuple(even), split.odd)}
        changed = supermap.Trivialization(cover, degrees, 2, maps)
        out, exact = supermap._first_order_inverse(changed, 0, 1, 3)
        ref, ref_exact = reference_first_order_inverse(changed, 0, 1, 3)
        same_maps(out, ref)
        assert exact is ref_exact
        sizes.append(len(tables[0, 3]))
        assert all(len(table) <= supermap.IMAGE_TABLE_LIMIT for table in tables.values())
    # component 0 met 300, 600 and 900 monomials, then 1200, so it started afresh
    assert pushed > 2 * supermap.IMAGE_TABLE_LIMIT and sizes[-1] < supermap.IMAGE_TABLE_LIMIT
    assert max(sizes) >= 900
    assert_record(supermap._split_record(cover, degrees, 1, 0), cover, degrees, 1, 0)
    fresh_memos()
    record = supermap._split_record(cover, degrees, 1, 0)
    assert record[6] is not tables and record[6] == {}


def test_no_caller_changes_a_shared_split_map(tmp_path):
    # a gluing case, a certificate, extend_by_zero and a thickening file
    # that leaves pairs out, all on the shared cover; then every memoised
    # split map they read still equals one built afresh
    cover = cech.standard_cover(2)
    degrees = SplitBundleDegrees((4, -1, -7))
    t = gluing_case(cover, degrees, random.Random(7))
    pushforward_json((4, -1, -7))
    supermap.cocycle_residual(supermap.extend_by_zero(t))
    data = supermap.trivialization_to_json(t)
    data["maps"] = {key: m for key, m in data["maps"].items() if key in ("0,1", "1,2")}
    path = tmp_path / "thickening.json"
    path.write_text(json.dumps(data))
    read = supermap.read_trivialization(str(path))
    assert read.maps[(0, 2)] is supermap._split_record(cover, degrees, 0, 2)[3]
    for make in (supermap.extend_by_zero, supermap.normalize_inverses):
        made = make(read)
        supermap.cocycle_residual(made)
        supermap.inverse_residual(made)
    supermap.conjugate(supermap.normalize_inverses(read), {
        c: supermap.identity_map(c, cover.n, degrees.rank) for c in cover.charts})
    misses = supermap._split_record.cache_info().misses
    for i, j in itertools.permutations(cover.charts, 2):
        rows, zs = reference_split_exponents(cover, degrees, i, j)
        same_maps(supermap._split_record(cover, degrees, i, j)[3],
                  reference_split_map(i, j, rows, zs))
    assert supermap._split_record.cache_info().misses == misses  # each one the shared map
