"""The cover's split records, reframe table and placement table against the
per-call builds they replace.

``supermap`` keeps what depends only on (bundle degrees, i, j) in one split
record per ordered chart pair: the exponents, their columns, the split map
itself and the moves of its derivative.  A slot sheaf's frames on a map and
its slots' places are kept the same way.  The references below are the
bodies that rebuilt each of these on every call, and every table is checked
against them on a fresh cover and on the shared cover, and on every call of
a gluing case and of a certificate: values, coefficient types and key order.
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
from test_transport import slot_data

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


def reference_frames(cover, degrees, spec, i, j, to_map):
    """``_reframe``'s frames per summand and component, built on every call."""
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


def reference_placement(spec):
    p = spec.cover.n
    if spec.kind == cech.TANGENT:
        return {(s, nu): (nu, word) for s, word in enumerate(spec.labels) for nu in range(p)}
    return {(s, 0): (p + a - 1, word) for s, (word, a) in enumerate(spec.labels)}


def reference_moved(sm, parts, order):
    """An ``_add`` copy per part, then the truncation, then the coercion."""
    comps = sm.even + sm.odd
    for sign, part in parts:
        comps = [supermap._add(g, move, sign) for g, move in zip(comps, part)]
    comps = [{key: coerce(c) for key, c in supermap._truncate(g, order).items()} for g in comps]
    return supermap._map(sm.source, sm.target, tuple(comps[:sm.p]), tuple(comps[sm.p:]))


def typed(comp: dict) -> list:
    """A component's terms in order, each with its coefficient's type."""
    return [(key, c, type(c)) for key, c in comp.items()]


def same_components(out, ref):
    assert [typed(g) for g in out] == [typed(g) for g in ref]


def same_maps(out, ref):
    assert (out.source, out.target) == (ref.source, ref.target)
    same_components(out.even + out.odd, ref.even + ref.odd)


def assert_record(split, cover, degrees, i, j):
    """A split record equals the per-call builds of the parent."""
    rows, zs = reference_split_exponents(cover, degrees, i, j)
    assert split[:3] == (rows, zs, tuple(zip(*rows)))
    same_maps(split[3], reference_split_map(i, j, rows, zs))
    assert [list(moves) for moves in split[4]] == reference_moves(rows, zs)


def assert_placement(placed, spec):
    place = reference_placement(spec)
    assert typed(placed[0]) == typed(place)
    assert list(placed[1].items()) == [(v, s) for s, v in place.items()]


def as_lists(frames):
    return [[list(comp) for comp in summand] for summand in frames]


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


@pytest.mark.parametrize("warm", [False, True])
def test_split_records_match_the_per_call_builds(warm):
    # every triple of the gluing pool and every admissible triple, every
    # ordered chart pair, on a fresh cover and on the shared one
    cover = cech.standard_cover(2) if warm else cech.Cover(2)
    rng = random.Random(f"split-records-{warm}")
    for k in TRIPLES:
        degrees = SplitBundleDegrees(k)
        p, q = cover.n, degrees.rank
        for i, j in itertools.permutations(cover.charts, 2):
            split = supermap._split_record(cover, degrees, i, j)
            assert type(split) is tuple and len(split) == 5
            assert supermap._split_record(cover, degrees, i, j) is split
            assert_record(split, cover, degrees, i, j)
            rows, zs = split[:2]
            for order in (1, 2, 3):
                vector = random_vector(rng, p, q, order)
                same_components(supermap._tangent(split, vector, order),
                                reference_tangent(rows, zs, vector, order))
                same_components([supermap._pull(g, split) for g in vector],
                                [reference_pull(g, rows, zs) for g in vector])
                parts = [(sign, random_vector(rng, p, q, order + 1)) for sign in (1, -1)]
                base = supermap._moved(split[3], parts[:1], order + 1)
                same_maps(supermap._moved(base, parts, order),
                          reference_moved(base, parts, order))


@pytest.mark.parametrize("warm", [False, True])
def test_frame_and_placement_tables_match_the_per_call_builds(warm):
    # both directions of every ordered chart pair, i == j included, for the
    # degree-2 and degree-3 slot sheaves
    cover = cech.standard_cover(2) if warm else cech.Cover(2)
    rng = random.Random(f"frames-{warm}")
    for k in TRIPLES:
        degrees = SplitBundleDegrees(k)
        for d in (2, 3):
            spec = supermap.slot_sheaf(cover, degrees, d)
            placed = supermap._placement(spec)
            assert placed is cover.placement_table[spec.kind, spec.labels]
            assert_placement(placed, spec)
            for i, j in itertools.product(cover.charts, repeat=2):
                simplex = (i,) + tuple(v for v in cover.charts if v != i)
                data = slot_data(cech.random_section(spec, simplex, rng, terms=5, span=3))
                for to_map in (True, False):
                    out = supermap._reframe(cover, degrees, spec, data, i, j, to_map)
                    assert typed(out) == typed(reference_reframe(cover, degrees, spec, data,
                                                                 i, j, to_map))
                    frames = cover.reframe_table[degrees.degrees, spec.kind, spec.labels,
                                               i, j, to_map]
                    assert type(frames) is tuple
                    assert as_lists(frames) == as_lists(
                        reference_frames(cover, degrees, spec, i, j, to_map))


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
    calls = dict.fromkeys(["_split_record", "_pull", "_tangent", "_reframe", "_placement",
                           "_moved"], 0)
    real = {name: getattr(supermap, name) for name in calls}

    def checked(name, check):
        def wrapper(*args):
            out = real[name](*args)
            check(out, *args)
            calls[name] += 1
            return out
        monkeypatch.setattr(supermap, name, wrapper)

    def pull(out, comp, split):
        assert typed(out) == typed(reference_pull(comp, *split[:2]))

    def tangent(out, split, vector, order):
        same_components(out, reference_tangent(*split[:2], vector, order))

    def reframe(out, cover, degrees, spec, data, i, j, to_map):
        assert typed(out) == typed(reference_reframe(cover, degrees, spec, data, i, j, to_map))

    def moved(out, sm, parts, order):
        same_maps(out, reference_moved(sm, parts, order))

    for name, check in zip(calls, (assert_record, pull, tangent, reframe, assert_placement, moved)):
        checked(name, check)
    cover = cech.Cover(2)
    gluing_case(cover, SplitBundleDegrees((4, -1, -7)), random.Random(25))
    out = pushforward_json((3, 0, -6))
    monkeypatch.undo()
    assert out == pushforward_json((3, 0, -6))
    assert all(calls.values()), calls


def test_no_caller_changes_a_shared_split_map(tmp_path):
    # a gluing case, a certificate, extend_by_zero and a thickening file
    # that leaves pairs out, all on the shared cover; then every split map
    # in its table still equals one built afresh
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
    assert cover.split_table
    for (k, i, j), split in cover.split_table.items():
        rows, zs = reference_split_exponents(cover, SplitBundleDegrees(k), i, j)
        same_maps(split[3], reference_split_map(i, j, rows, zs))
