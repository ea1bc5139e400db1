import collections
import functools
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from superthick import bott, cech, linalg, supermap
from superthick.bott import SplitBundleDegrees
from superthick.obstruct import search_split_triples
from superthick.pipeline import in_window, pipeline_obstructed_cp2
from conftest import package_memos
from test_acceptance import DEGREE_POOL
from test_golden import ADMISSIBLE
from test_int_kernel import gluing_checks, gluing_pool, reference_solve, run_gluing_case


def test_standard_cover_nerve():
    c1 = cech.standard_cover(1)
    assert len(c1.charts) == 2 and len(c1.pairs) == 1 and len(c1.triples) == 0
    c2 = cech.standard_cover(2)
    assert len(c2.charts) == 3 and len(c2.pairs) == 3 and len(c2.triples) == 1
    with pytest.raises(ValueError):
        cech.standard_cover(3)


SIMPLICES = {
    1: {-1: [()], 0: [(0,), (1,)], 1: [(0, 1)], 2: []},
    2: {-1: [()], 0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)], 2: [(0, 1, 2)], 3: []},
}


def reference_cofaces(n, face):
    """(simplex, sign) for each simplex of P^n one vertex larger than face and
    containing it, sign (-1)^j for the added vertex at j."""
    out = []
    for big in itertools.combinations(range(n + 1), len(face) + 1):
        added = [pos for pos, v in enumerate(big) if v not in face]
        if len(added) == 1:
            out.append((big, -1 if added[0] % 2 else 1))
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2])
def test_cover_tables_list_simplices_and_cofaces_in_order(n):
    cover = cech.Cover(n)
    for q, simplices in SIMPLICES[n].items():
        assert cover.simplices(q) == tuple(simplices)
        for face in simplices:
            assert cover.cofaces[face] == reference_cofaces(n, face)
    assert (cover.pairs, cover.triples) == (cover.simplices(1), cover.simplices(2))


def test_equal_covers_hash_alike_and_share_records():
    fresh, shared = cech.Cover(2), cech.standard_cover(2)
    assert fresh == shared and hash(fresh) == hash(shared) and fresh != cech.Cover(1)
    assert hash(cech.line_sum(fresh, [1])) == hash(cech.line_sum(shared, [1]))
    degrees, slot = SplitBundleDegrees((4, -1, -7)), cech.BasisSlot((0,), 0, 0, (1, 2))
    for build, args in ((cech.Cover.transport, (cech.TANGENT, 0, 1, 0)),
                        (cech._type_record, (cech.LINE_SUM, 1, (-1, -1, 1))),
                        (cech._walk, (cech.ONE_FORM, 2, -5)),
                        (cech._char_slots, (cech.TANGENT, 1, 3, (2, 2, -1))),
                        (cech._slot_record, (cech.LINE_SUM, 1, slot)),
                        (supermap._split_record, (degrees, 0, 1)),
                        (supermap.slot_sheaf, (degrees, 3)),
                        (supermap._odd_layout, (degrees, 3, 2, 0))):
        assert build(fresh, *args) is build(shared, *args), build


def test_fresh_memos_empties_every_builder(fresh_memos):
    builders = {"Cover.transport", "_type_record", "_walk", "_char_slots", "_slot_record",
                "_split_record", "_image", "slot_sheaf", "_even_layout", "_odd_layout"}
    memos = package_memos()
    assert builders <= {memo.__qualname__ for memo in memos}
    pipeline_obstructed_cp2((4, -1, -7))
    assert all(memo.cache_info().currsize for memo in memos if memo.__qualname__ in builders)
    fresh_memos()
    assert all(memo.cache_info().currsize == 0 for memo in memos)


@pytest.mark.parametrize("n", range(5))
def test_kernel_of_no_rows_is_the_unit_basis(n):
    unit = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    basis = linalg.kernel_basis([], n)
    assert basis == unit
    assert all(type(x) is Fraction for v in basis for x in v)


def reference_compositions(total, parts, lower):
    """Integer tuples of the given length with entries >= lower summing to
    total, the generator ``_type_chars`` used with lower = 0."""
    if parts == 1:
        if total >= lower:
            yield (total,)
        return
    v = lower
    while total - v >= lower * (parts - 1):
        for tail in reference_compositions(total - v, parts - 1, lower):
            yield (v,) + tail
        v += 1


def test_compositions_match_the_lower_bounded_generator():
    for total, parts in itertools.product(range(9), range(1, 5)):
        got = list(cech._compositions(total, parts))
        want = list(reference_compositions(total, parts, 0))
        # equal as lists, not only as sets: the order is _type_chars' order
        assert got == want, (total, parts)


def chart_rows(cover, a, b):
    """The integer matrix of the chart change a -> b on exponents: x^e in
    chart a is x^(e M) in chart b, up to the line factor."""
    return cover.transport(cech.LINE_SUM, a, b, 0)[0]


def matmul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0])))
                 for i in range(len(x)))


def test_transitions_are_monomial_cocycles():
    c1 = cech.standard_cover(1)
    assert chart_rows(c1, 0, 1) == ((-1,),)  # x -> 1/x
    for n in (1, 2):
        cover = cech.standard_cover(n)
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for i, j, k in itertools.product(cover.charts, repeat=3):
            # M_ij M_jk = M_ik, and the line vectors of z_i/z_j compose the same way
            m_ij, m_jk, m_ik = (chart_rows(cover, a, b) for a, b in ((i, j), (j, k), (i, k)))
            assert matmul(m_ij, m_jk) == m_ik
            line = [cover.transport(cech.LINE_SUM, a, b, 0)[1] for a, b in ((i, j), (j, k), (i, k))]
            assert tuple(x + y for x, y in zip(matmul((line[0],), m_jk)[0], line[1])) == line[2]
        for i, j in itertools.product(cover.charts, repeat=2):
            assert matmul(chart_rows(cover, i, j), chart_rows(cover, j, i)) == identity


def test_untwisted_coboundary_of_constants():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [0])
    terms = {cech.BasisSlot((c,), 0, 0, (0, 0)): c + 1 for c in cov.charts}
    nu = cech.Cochain(spec, 0, terms)
    d = cech.coboundary(nu)
    for (i, j) in cov.pairs:
        assert d.on((i, j)) == {(0, 0, (0, 0)): j - i}


def test_alternating_lookup():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [1])
    rng = random.Random(0)
    c = cech.random_cochain(spec, 1, rng, terms=2)
    # each sorted pair holds its own slots; permuted or repeated vertices
    # are no stored simplex (their value is the sign times the sorted one's)
    assert not c.is_zero()
    assert {((i, j), *key): x for (i, j) in cov.pairs for key, x in c.on((i, j)).items()} \
        == c.terms
    for bad in ((1, 0), (1, 1), (0, 1, 2)):
        with pytest.raises(ValueError, match="sorted"):
            c.on(bad)


@pytest.mark.parametrize("kind,twists", [
    ("line_sum", (0, -3, 2)),
    ("tangent_twisted", (3, -3, -6)),
    ("oneform_twisted", (1, -2)),
])
def test_delta_squared_zero(kind, twists):
    cov = cech.standard_cover(2)
    spec = cech.SheafSpec(cov, kind, twists)
    rng = random.Random(1)
    for _ in range(20):
        nu = cech.random_cochain(spec, 0, rng, terms=2)
        assert cech.coboundary(cech.coboundary(nu)).is_zero()
        phi = cech.random_cochain(spec, 1, rng, terms=2)
        assert cech.coboundary(cech.coboundary(phi)).is_zero()


def test_coboundary_preserves_characters():
    cov = cech.standard_cover(2)
    spec = cech.tangent_twisted(cov, [-3, 2])
    rng = random.Random(2)
    nu = cech.random_cochain(spec, 0, rng, terms=3)
    before = set(cech.cochain_chars(nu))
    after = set(cech.cochain_chars(cech.coboundary(nu)))
    assert after <= before


def test_oracle_examples():
    assert cech.line_bundle_cohomology(1, -2, 1).dims[1] == 1
    assert cech.line_bundle_cohomology(2, -4, 2).dims[2] == 3
    assert cech.line_bundle_cohomology(2, 0, 0).dims[0] == 1


def test_oracle_representatives_are_cocycles():
    rep = cech.line_bundle_cohomology(2, -4, 2)
    assert len(rep.representatives[2]) == 3
    for c in rep.representatives[2]:
        assert cech.coboundary(c).is_zero()
        sol, cert = cech.solve_coboundary(c)
        assert sol is None and cert


def test_oracle_matches_bott_on_grid():
    for n in (1, 2):
        for k in range(-6, 7):
            for q in range(n + 1):
                assert (
                    cech.line_bundle_cohomology(n, k, q).dims[q]
                    == bott.line_dim(n, q, k)
                )


# ---------------------------------------------------------------------------
# the pole-set oracle for line bundles, a reference independent of the blocks


def char_complex_dims(n, g):
    """Cohomology of the one-character Čech complex, by explicit small ranks."""
    poles = frozenset(l for l, e in enumerate(g) if e < 0)
    charts = list(range(n + 1))
    simplices = {
        q: [s for s in itertools.combinations(charts, q + 1) if poles <= set(s)]
        for q in range(n + 1)
    }

    def delta(q):
        dom = simplices[q]
        cod = simplices.get(q + 1, [])
        idx = {s: i for i, s in enumerate(cod)}
        mat = [[Fraction(0)] * len(dom) for _ in cod]
        for col, s in enumerate(dom):
            for big in cod:
                missing = [v for v in big if v not in s]
                if len(missing) == 1 and set(s) <= set(big):
                    j = big.index(missing[0])
                    mat[idx[big]][col] = Fraction((-1) ** j)
        return mat

    dims = {}
    for q in range(n + 1):
        dom = simplices[q]
        mat_out = delta(q)
        rank_out = len(linalg.rref(mat_out)[1])
        if q == 0:
            rank_in = 0
        else:
            mat_in = delta(q - 1)
            rank_in = len(linalg.rref(mat_in)[1])
        dims[q] = len(dom) - rank_out - rank_in
    return dims


def pole_set_candidates(n, k):
    """Characters of O(k) with an empty or a full pole set; all others are acyclic."""
    for entries in (range(0, k + 1), range(k + n, 0)):
        yield from (g for g in itertools.product(entries, repeat=n + 1) if sum(g) == k)


def oracle_cohomology(n, k, q):
    """(h^q(O(k)), {character: representative}) from the pole-set candidates."""
    spec = cech.line_sum(cech.standard_cover(n), [k])
    dim, reps = 0, {}
    for g in pole_set_candidates(n, k):
        h = char_complex_dims(n, g).get(q, 0)
        dim += h
        if h and q in (0, n):
            simplices = spec.cover.simplices(0) if q == 0 else spec.cover.simplices(n)
            reps[g] = cech.Cochain(spec, q, {
                cech.BasisSlot(s, 0, 0, cech.char_monomial_exps(spec.cover, spec.kind, k, s[0],
                                                                0, g)): 1
                for s in simplices
            })
    return dim, reps


@pytest.mark.parametrize("n", [1, 2])
def test_line_bundle_cohomology_matches_pole_set_oracle(n):
    for k in range(-8, 9):
        for q in range(-1, n + 2):
            got = cech.line_bundle_cohomology(n, k, q)
            dim, want = oracle_cohomology(n, k, q)
            assert got.dims == {q: dim}, (n, k, q)
            by_char = {}
            for c in got.representatives[q]:
                (key,) = cech.cochain_chars(c)
                assert key[0] == 0 and key[1] not in by_char
                by_char[key[1]] = c
                assert cech.coboundary(c).is_zero()
                if q == 0:
                    assert not c.is_zero()
                else:
                    sol, cert = cech.solve_coboundary(c)
                    assert sol is None and cert
            assert set(by_char) == set(want), (n, k, q)
            for g, c in by_char.items():
                slot = min(c.terms)
                ratio = Fraction(c.terms[slot]) / want[g].terms[slot]
                assert ratio != 0 and c == want[g].scale(ratio), (n, k, q, g)


def test_middle_characters_are_acyclic():
    # proper nonempty pole sets contribute nothing in any degree
    for g in [(-1, 2, 0), (0, -2, 1), (-1, -1, 3), (5, -3, -2)]:
        dims = char_complex_dims(2, g)
        assert all(v == 0 for v in dims.values()), (g, dims)
        # the sign-type blocks agree on every character of a window around g
        spec = cech.line_sum(cech.standard_cover(2), [sum(g)])
        window = max(map(abs, g))
        want = {q: 0 for q in range(3)}
        for h in scan_chars(spec, 0, window):
            for q, d in char_complex_dims(2, h).items():
                want[q] += d
        assert windowed_dims(spec, window) == want, g


def test_solve_coboundary_roundtrip():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [-2, 1])
    rng = random.Random(3)
    for _ in range(10):
        nu = cech.random_cochain(spec, 1, rng, terms=2)
        target = cech.coboundary(nu)
        sol, cert = cech.solve_coboundary(target)
        assert cert is None
        assert cech.coboundary(sol) == target


def test_solve_coboundary_certificate():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [-3])
    c = cech.Cochain(spec, 2, {cech.BasisSlot((0, 1, 2), 0, 0, (-1, -1)): 1})
    sol, cert = cech.solve_coboundary(c)
    assert sol is None
    assert cert == [(0, (-1, -1, -1))]
    assert cech.line_bundle_cohomology(2, -3, 2).dims[2] == 1


def test_solve_coboundary_zero_and_noncocycle():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [1])
    z = cech.Cochain(spec, 2)
    sol, cert = cech.solve_coboundary(z)
    assert sol.is_zero() and cert is None
    rng = random.Random(4)
    bad = cech.random_cochain(spec, 1, rng, terms=2)
    if not cech.coboundary(bad).is_zero():
        with pytest.raises(cech.NotACocycleError):
            cech.solve_coboundary(bad)


def test_p1_degree_minus_two_class():
    # the 1-cochain x^-1 on the single overlap has vacuously zero coboundary
    # and is not a coboundary: it spans the one-dimensional top cohomology
    cov = cech.standard_cover(1)
    spec = cech.line_sum(cov, [-2])
    c = cech.Cochain(spec, 1, {cech.BasisSlot((0, 1), 0, 0, (-1,)): 1})
    assert cech.coboundary(c).is_zero()
    sol, cert = cech.solve_coboundary(c)
    assert sol is None and cert == [(0, (-1, -1))]
    assert cech.line_bundle_cohomology(1, -2, 1).dims[1] == 1


def test_h1_representatives_tangent():
    cov = cech.standard_cover(2)
    rep = cech.h1_representatives(cech.tangent_twisted(cov, [-3]))
    assert rep.dims[1] == 1
    gen = rep.representatives[1][0]
    assert cech.coboundary(gen).is_zero()
    sol, cert = cech.solve_coboundary(gen)
    assert sol is None and cert


def test_h1_representatives_line_cases():
    cov1 = cech.standard_cover(1)
    assert cech.h1_representatives(cech.line_sum(cov1, [0])).dims[1] == 0
    cov2 = cech.standard_cover(2)
    assert cech.h1_representatives(cech.line_sum(cov2, [-3])).dims[1] == 0


def test_h1_window_incomplete_diagnostic():
    # the engine lists the one class of T(-3); window 0 cuts it, and the
    # scan over the same window finds none either
    cov = cech.standard_cover(2)
    spec = cech.tangent_twisted(cov, [-3])
    assert cech.h1_representatives(spec).dims[1] == 1
    assert windowed_h1(spec, 0) == []
    assert scan_h1(spec, 0)[0] == 0
    assert windowed_dims(spec, 0)[1] == 0


def test_windowed_dims_match_tangent_identification():
    cov = cech.standard_cover(2)
    for l in (-3, 0):
        got = windowed_dims(cech.tangent_twisted(cov, [l]), window=6)
        assert got == {q: bott.tangent_dim(2, q, l) for q in range(3)}
    got = windowed_dims(cech.oneform_twisted(cov, [0]), window=6)
    assert got == {q: bott.bott_dim(2, 1, q, 0) for q in range(3)}


# ---------------------------------------------------------------------------
# the sign-type engine against the character-window scan it replaces; the
# engine lists every character, so the scan's window is applied to its output


def windowed_dims(spec, window):
    """The engine's class count in each degree over characters with entries
    in [-window, window]."""
    return {q: sum(len(classes) for _, g, classes in cech.class_blocks(spec, q)
                   if all(-window <= e <= window for e in g))
            for q in range(spec.cover.n + 1)}


def windowed_h1(spec, window):
    """The engine's H^1 representatives that the pipeline keeps under the window."""
    return [c for c in cech.h1_representatives(spec).representatives[1] if in_window(c, window)]


def scan_chars(spec, summand, window):
    """Every character with entries in [-window, window] on the summand's stratum."""
    t = spec.twists[summand]
    for g_rest in itertools.product(range(-window, window + 1), repeat=spec.cover.n):
        g0 = t - sum(g_rest)
        if -window <= g0 <= window:
            yield (g0,) + g_rest


def scan_blocks(spec):
    """(block, kernel): ``delta_block_matrix`` on spec as (degree, summand,
    g) -> block, and (summand, g) -> the kernel basis of the degree-1 block;
    each built once, so ``scan_h1`` and ``scan_dims`` can share them."""
    block = functools.cache(functools.partial(cech.delta_block_matrix, spec))

    @functools.cache
    def kernel(summand, g):
        dom, _, mat = block(1, summand, g)
        return linalg.kernel_basis(mat, len(dom))

    return block, kernel


def reduce_by(echelon, vec):
    """vec less its part in the span of the echelon rows [(pivot, row)]:
    each row is 1 at its pivot and 0 at the pivots of the rows before it, so
    the rest is zero exactly when vec lies in the span."""
    rest = [Fraction(x) for x in vec]
    for pivot, row in echelon:
        f = rest[pivot]
        if f:
            rest = [a - f * b for a, b in zip(rest, row)]
    return rest


def scan_h1(spec, window, blocks=None):
    """(dim, representatives) of H^1 by scanning the window: a kernel vector
    is a class when it is independent of the degree-0 image and of the
    classes kept before it.  The image rows are reduced once per character,
    and each vector is reduced against the echelon rows kept so far."""
    block, kernel = blocks or scan_blocks(spec)
    reps = []
    for summand in range(spec.nsummands):
        for g in scan_chars(spec, summand, window):
            vecs = kernel(summand, g)
            if not vecs:
                continue
            dom0, cod0, mat0 = block(0, summand, g)
            red, pivots = linalg.rref([[mat0[r][col] for r in range(len(cod0))]
                                       for col in range(len(dom0))])
            echelon = list(zip(pivots, red))
            for vec in vecs:
                rest = reduce_by(echelon, vec)
                lead = next((i for i, x in enumerate(rest) if x), None)
                if lead is not None:
                    echelon.append((lead, [x / rest[lead] for x in rest]))
                    reps.append(cech.Cochain(spec, 1, dict(zip(block(1, summand, g)[0], vec))))
    return len(reps), reps


def scan_dims(spec, window, blocks=None):
    """All cohomology dimensions by exact ranks over every character in the
    window; the degree-1 rank is the columns less the kernel's size."""
    block, kernel = blocks or scan_blocks(spec)
    n = spec.cover.n
    dims = {q: 0 for q in range(n + 1)}
    for summand in range(spec.nsummands):
        for g in scan_chars(spec, summand, window):
            sizes, ranks = {}, {}
            for q in range(n + 1):
                dom, cod, mat = block(q, summand, g)
                sizes[q] = len(dom)
                ranks[q] = (len(dom) - len(kernel(summand, g)) if q == 1
                            else len(linalg.rref(mat)[1]))
            for q in range(n + 1):
                dims[q] += sizes[q] - ranks[q] - (ranks[q - 1] if q > 0 else 0)
    return dims


def assert_matches_scan(spec, window=10):
    blocks = scan_blocks(spec)
    got = windowed_h1(spec, window)
    dim, reps = scan_h1(spec, window, blocks)
    assert len(got) == dim, spec
    assert [c.to_json() for c in got] == [c.to_json() for c in reps], spec
    assert windowed_dims(spec, window) == scan_dims(spec, window, blocks), spec
    return got


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", [cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM])
def test_sign_types_match_window_scan_random_twists(kind, n):
    rng = random.Random(4000 + 10 * n + len(kind))
    cov = cech.standard_cover(n)
    for _ in range(3):
        spec = cech.SheafSpec(cov, kind, [rng.randint(-8, 8) for _ in range(2)])
        assert_matches_scan(spec)
        assert_matches_scan(spec, window=2)  # a cap that cuts off characters


def test_sign_types_match_window_scan_on_admissible_slot_sheaves():
    cov = cech.standard_cover(2)
    triples = [h.degrees for h in search_split_triples(-8, 8) if h.direct_all]
    assert len(triples) == 12
    for degrees in triples:
        spec = supermap.slot_sheaf(cov, degrees, 2)
        assert len(assert_matches_scan(spec)) == cech.h1_representatives(spec).dims[1]


def test_sign_types_window_zero_stays_incomplete():
    cov = cech.standard_cover(2)
    spec = supermap.slot_sheaf(cov, SplitBundleDegrees((4, -1, -7)), 2)
    assert cech.h1_representatives(spec).dims[1] == 1
    assert windowed_h1(spec, 0) == [] and scan_h1(spec, 0)[0] == 0
    rep = pipeline_obstructed_cp2((4, -1, -7), window=0)
    assert rep["status"] == "inconclusive-window" and rep["exact"] is False
    assert rep["detail"] == ["window incomplete: found 0 classes, closed formula gives 1"]


def test_h1_builds_each_block_once(monkeypatch, fresh_memos):
    spec = supermap.slot_sheaf(cech.Cover(2), SplitBundleDegrees((4, -1, -7)), 2)
    built = collections.Counter()
    build = cech.delta_block_matrix

    def counting(spec, degree, summand, g):
        built[degree, tuple(max(-2, min(1, e)) for e in g)] += 1
        return build(spec, degree, summand, g)

    monkeypatch.setattr(cech, "delta_block_matrix", counting)
    got = cech.h1_representatives(spec)
    monkeypatch.undo()
    assert max(built.values()) == 1 and sum(built.values()) <= 101
    dim, reps = scan_h1(spec, 10)
    assert got.dims[1] == dim
    assert [c.to_json() for c in got.representatives[1]] == [c.to_json() for c in reps]


def reference_sign_types(n, twist):
    """(sign type, representative character) for every sign type that meets
    the twist and is not unbounded both ways; the representative moves the
    surplus onto the first unbounded entry."""
    for sign_type in itertools.product((-2, -1, 0, 1), repeat=n + 1):
        if 1 in sign_type and -2 in sign_type:
            continue
        surplus = twist - sum(sign_type)
        if surplus == 0:
            yield sign_type, sign_type
            continue
        end = 1 if surplus > 0 else -2
        if end in sign_type:
            g = list(sign_type)
            g[sign_type.index(end)] += surplus
            yield sign_type, tuple(g)


def reference_type_record(spec, q, summand, g):
    """(classes, solver) of the degree-q block of g in one summand, reduced
    on that block itself, with no table."""
    dom, _, mat = cech.delta_block_matrix(spec, q, summand, g)
    kernel = linalg.kernel_basis(mat, len(dom)) if dom else []
    if not kernel or q == 0:
        return kernel, None
    dom0, _, mat0 = cech.delta_block_matrix(spec, q - 1, summand, g)
    m, k = len(dom0), len(kernel)
    joined = [row + [vec[r] for vec in kernel] + [int(r == c) for c in range(len(dom))]
              for r, row in enumerate(mat0)]
    red, pivots = linalg.rref(joined)
    picked = [p - m for p in pivots if m <= p < m + k]
    width = m + len(picked)
    return [kernel[i] for i in picked], (
        [p for p in pivots if p < m] + list(range(m, width)),
        [[(r, row[m + k + c]) for r, row in enumerate(red) if row[m + k + c]]
         for c in range(len(dom))],
        width)


@pytest.mark.parametrize("n", [1, 2])
def test_type_records_match_the_representative_builds(n, fresh_memos):
    # every summand walk of every kind, q <= n and twist in [-12, 12], from
    # empty memos, memoises exactly the sign-type records and walks of the
    # reference: each record must equal the reduction of the block of the
    # type's representative character at the first twist that meets the
    # type, and each walk the listing of the representatives' records
    twists = range(-12, 13)
    records, walks = {}, {}
    for kind, q in itertools.product([cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM], range(n + 1)):
        spec = cech.SheafSpec(cech.Cover(n), kind, twists)
        for summand, twist in enumerate(twists):
            found = []
            for sign_type, g in reference_sign_types(n, twist):
                key = (kind, q, sign_type)
                if key not in records:
                    records[key] = reference_type_record(spec, q, summand, g)
                classes = records[key][0]
                if classes:
                    found.extend((c, classes) for c in cech._type_chars(sign_type, twist))
            walks[kind, q, twist] = tuple(sorted(found, key=lambda pair: pair[0][1:]))
    fresh_memos()
    cover = cech.Cover(n)
    for kind in (cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM):
        spec = cech.SheafSpec(cover, kind, twists)
        for q, summand in itertools.product(range(n + 1), range(len(twists))):
            cech.enumerate_chars(spec, summand, q)
    # as many memoised as the reference has, and each key a hit: the same keys
    for memo, reference in ((cech._type_record, records), (cech._walk, walks)):
        info = memo.cache_info()
        assert info.currsize == len(reference)
        for key, value in reference.items():
            assert memo(cover, *key) == value, key
        assert memo.cache_info().misses == info.misses


def test_types_unbounded_both_ways_carry_no_cohomology():
    """Why ``_sign_types`` skips a type with an entry 1 and an entry -2: on
    P^1 and P^2, in every kind and degree, no block of such a type has a
    class.  Each type's record is read, and the block is reduced directly
    on the type's own clamped character and on one with the unbounded
    entries pushed 2 further out, each on a fresh cover."""
    reduced = 0
    for n in (1, 2):
        types = [t for t in itertools.product((-2, -1, 0, 1), repeat=n + 1) if 1 in t and -2 in t]
        for push in (0, 2):
            cover = cech.Cover(n)
            for kind, q, sign_type in itertools.product(
                    [cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM], range(n + 1), types):
                g = tuple(e + push if e == 1 else e - push if e == -2 else e for e in sign_type)
                assert cech._sign_type(g) == sign_type
                spec = cech.SheafSpec(cover, kind, (sum(g),))
                assert cech.block_cohomology(spec, q, g) == [], (kind, q, g)
                assert reference_type_record(spec, q, 0, g)[0] == [], (kind, q, g)
                reduced += push == 0
        assert all(not (1 in t and -2 in t) for t in cech._sign_types(n))
    assert reduced == 174


def reference_class_blocks(spec, q):
    """class_blocks by per-character lookups: every character of each
    summand in a box, ordered by g[1:], through block_cohomology.  A
    character with classes has no entry 1 together with an entry -2, so its
    entries lie in [t, 0] or in [-1, t + n] for twist t; the box holds both."""
    n = spec.cover.n
    blocks = []
    for summand, t in enumerate(spec.twists):
        bound = abs(t) + n + 2
        for tail in itertools.product(range(-bound, bound + 1), repeat=n):
            g = (t - sum(tail),) + tail
            classes = cech.block_cohomology(spec, q, g)
            if classes:
                blocks.append((summand, g, classes))
    return blocks


@pytest.mark.parametrize("n", [1, 2])
def test_class_count_matches_the_listed_blocks(n):
    # per sign type, without listing characters: every twist in [-12, 12],
    # one at a time and all as one sheaf, every kind and every q, those
    # outside 0..n included
    for make in (cech.line_sum, cech.tangent_twisted, cech.oneform_twisted):
        for twists in [[k] for k in range(-12, 13)] + [list(range(-12, 13))]:
            spec = make(cech.standard_cover(n), twists)
            for q in range(-1, n + 2):
                listed = sum(len(classes) for *_, classes in cech.class_blocks(spec, q))
                assert cech.class_count(spec, q) == listed, (spec.kind, twists, q)


def test_class_count_is_quick_on_a_far_twist():
    # h^2(P^2, O(-1200)) = C(1199, 2): the walk listed 718201 characters
    # (about 7 s and 237 MB); the count reads a few dozen sign types
    start = time.perf_counter()
    spec = cech.line_sum(cech.standard_cover(2), [-1200])
    assert cech.class_count(spec, 2) == 718201 == bott.bott_dim(2, 0, 2, -1200)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n", [1, 2])
def test_class_blocks_match_per_character_lookups(n, fresh_memos):
    # the walk reads the memos by sign type; the reference looks every
    # concrete character up, and the walk runs once on emptied memos and
    # once on the records it memoised
    twists = range(-12, 13)
    for make in (cech.line_sum, cech.tangent_twisted, cech.oneform_twisted):
        walk_spec, ref_spec = make(cech.Cover(n), twists), make(cech.Cover(n), twists)
        classes = 0
        for q in range(n + 1):
            want = reference_class_blocks(ref_spec, q)
            fresh_memos()
            assert cech.class_blocks(walk_spec, q) == want, (walk_spec.kind, q)
            assert cech.class_blocks(walk_spec, q) == want, (walk_spec.kind, q)
            classes += sum(len(c) for *_, c in want)
        assert classes > 0, walk_spec.kind


# ---------------------------------------------------------------------------
# the cover's cohomology table


def table_specs(cover):
    return [
        cech.line_sum(cover, [-7, 1]),
        cech.tangent_twisted(cover, [-3, 2]),
        cech.oneform_twisted(cover, [0, -4]),
    ]


def test_cohomology_table_is_reused_and_matches_fresh_covers(monkeypatch, fresh_memos):
    cover = cech.Cover(2)
    first = [[cech.cohomology(spec, q) for q in range(3)] for spec in table_specs(cover)]
    built = []
    build = cech.delta_block_matrix

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(cech, "delta_block_matrix", counting)
    again = [[cech.cohomology(spec, q) for q in range(3)] for spec in table_specs(cover)]
    monkeypatch.undo()
    assert built == []
    fresh_memos()
    for i, spec in enumerate(table_specs(cover)):
        for q in range(3):
            fresh = cech.cohomology(table_specs(cech.Cover(2))[i], q)
            want = [c.to_json() for c in fresh.representatives[q]]
            assert [c.to_json() for c in first[i][q].representatives[q]] == want, (spec, q)
            assert [c.to_json() for c in again[i][q].representatives[q]] == want, (spec, q)


def test_cached_block_solver_matches_reference_solve(monkeypatch):
    # every block that solve_blocks meets on the gluing pool and on the
    # pipeline gammas of the admissible triples, solved by its sign type's
    # cached reduction, equals a fresh solve of [image | classes]; so does
    # every unit right-hand side of each sign type, some of them inconsistent
    met = []
    solve = cech._solve_block

    def recording(spec, deg, g, rhs):
        x = solve(spec, deg, g, rhs)
        met.append((spec, deg, g, rhs, x))
        return x

    monkeypatch.setattr(cech, "_solve_block", recording)
    for seed, degrees in enumerate(DEGREE_POOL):
        run_gluing_case(seed, degrees)
    gluing = len(met)
    for degrees in ADMISSIBLE:
        pipeline_obstructed_cp2(degrees)
    monkeypatch.undo()
    assert 0 < gluing < len(met)
    types, inconsistent = set(), 0
    for spec, deg, g, rhs, x in met:
        # the block of g in a summand of spec, on a sheaf of that summand alone
        single = cech.SheafSpec(spec.cover, spec.kind, (sum(g),))
        _, cod, mat = cech.delta_block_matrix(single, deg - 1, 0, g)
        classes = cech.block_cohomology(spec, deg, g)
        block = [row + [vec[r] for vec in classes] for r, row in enumerate(mat)]
        assert x is not None and x == reference_solve(block, rhs), (spec, deg, g)
        if (spec.kind, deg, cech._sign_type(g)) in types:
            continue
        types.add((spec.kind, deg, cech._sign_type(g)))
        for i in range(len(cod)):
            unit = [int(r == i) for r in range(len(cod))]
            want = reference_solve(block, unit)
            assert cech._solve_block(spec, deg, g, unit) == want, (spec, deg, g, i)
            inconsistent += want is None
    assert inconsistent > 0


def test_stubbed_builder_on_fresh_cover_leaves_standard_cover_alone(monkeypatch, fresh_memos):
    # covers share their memos, so the stub runs on emptied memos, and what
    # it memoised is dropped before the standard cover is read again
    specs = table_specs(cech.standard_cover(2))
    before = [[c.to_json() for c in cech.cohomology(spec, q).representatives[q]]
              for spec in specs for q in range(3)]
    fresh_memos()
    slot = cech.BasisSlot((0, 1), 0, 0, (0, 0))

    def one_class_everywhere(spec, degree, summand, g):
        if degree == 1:
            return [slot], [], []
        return [], [slot], [[]]

    monkeypatch.setattr(cech, "delta_block_matrix", one_class_everywhere)
    with pytest.raises(AssertionError):
        cech.cohomology(cech.line_sum(cech.Cover(2), [-7, 1]), 1)
    assert cech._walk.cache_info().currsize == 0  # the failed walk memoised nothing
    monkeypatch.undo()
    fresh_memos()
    after = [[c.to_json() for c in cech.cohomology(spec, q).representatives[q]]
             for spec in specs for q in range(3)]
    assert after == before


# ---------------------------------------------------------------------------
# the per-twist memos


def test_per_twist_memos_serve_what_empty_memos_compute(fresh_memos):
    # listings, representatives and slots computed from emptied memos equal
    # those served by memos filled through the summands in reverse order,
    # with each summand index put back; every memoised walk and slot list is
    # a tuple of tuples
    twists = list(range(-12, 13))
    kinds = (cech.line_sum, cech.tangent_twisted, cech.oneform_twisted)
    cases = [(n, make, q) for n in (1, 2) for make in kinds for q in range(n + 1)]
    cold = {}
    for n, make, q in cases:
        fresh_memos()
        spec = make(cech.Cover(n), twists)
        blocks = cech.class_blocks(spec, q)
        reps = [c.to_json() for c in cech.cohomology(spec, q).representatives[q]]
        slots = {(summand, g, degree): cech.char_basis(spec, degree, summand, g)
                 for summand, g, _ in blocks for degree in range(max(q - 1, 0), q + 2)}
        cold[n, make, q] = blocks, reps, slots
    fresh_memos()
    for n, make, q in cases:
        cech.cohomology(make(cech.Cover(n), twists[::-1]), q)
    for n, make, q in cases:
        spec = make(cech.standard_cover(n), twists)
        blocks, reps, slots = cold[n, make, q]
        assert cech.class_blocks(spec, q) == blocks, (n, spec.kind, q)
        assert [c.to_json() for c in cech.cohomology(spec, q).representatives[q]] == reps
        for (summand, g, degree), want in slots.items():
            assert cech.char_basis(spec, degree, summand, g) == want
            found = cech._char_slots(spec.cover, spec.kind, degree, spec.twists[summand], g)
            assert type(found) is tuple and all(type(slot) is tuple for slot in found)
        for summand in range(spec.nsummands):
            walk = cech.enumerate_chars(spec, summand, q)
            assert type(walk) is tuple and all(type(entry) is tuple for entry in walk)
    assert cech._walk.cache_info().currsize == 375
    # the block matrices apply _delta_slot directly: no slot record
    assert cech._slot_record.cache_info().currsize == 0


def reference_coboundary(c):
    """The coboundary with every slot transported afresh by ``_delta_slot``,
    summed in term order and checked by the ``Cochain`` constructor."""
    spec, out = c.sheaf, {}
    for slot, coef in c.terms.items():
        for image, x in cech._delta_slot(spec.cover, spec.kind, spec.twists[slot.summand], slot):
            out[image] = out.get(image, 0) + coef * x
    return cech.Cochain(c.sheaf, c.degree + 1, out)


def reference_cochain_chars(c):
    """The character blocks with each slot's character from ``monomial_char``."""
    spec, blocks = c.sheaf, {}
    for slot, coef in c.terms.items():
        g = cech.monomial_char(spec.cover, spec.kind, spec.twists[slot.summand], slot.simplex[0],
                               slot.comp, slot.exps)
        blocks.setdefault((slot.summand, g), {})[slot] = coef
    return blocks


def typed_terms(terms):
    """A cochain's or block's terms in order, each with its coefficient type."""
    return [(slot, c, type(c)) for slot, c in terms.items()]


def recorded_slot_records(monkeypatch) -> dict:
    """Every (cover, kind, twist, slot) read through ``_slot_record`` from now
    on, with the record it gave."""
    seen = {}
    memo = cech._slot_record

    def recording(cover, kind, twist, slot):
        seen[cover, kind, twist, slot] = record = memo(cover, kind, twist, slot)
        return record

    monkeypatch.setattr(cech, "_slot_record", recording)
    return seen


def assert_slot_records_are_plain(seen):
    """Every key read is (cover, kind, twist, basis slot) of ints, with no
    coefficient, and every record is the slot's character and unit
    coboundary as a fresh build gives them."""
    kinds = (cech.LINE_SUM, cech.TANGENT, cech.ONE_FORM)
    assert seen
    for (cover, kind, twist, slot), record in seen.items():
        assert kind in kinds and type(twist) is int and type(slot) is cech.BasisSlot
        assert all(type(x) is int for x in slot.simplex + slot.exps + (slot.summand, slot.comp))
        char = cech.monomial_char(cover, kind, twist, slot.simplex[0], slot.comp, slot.exps)
        assert record == (char, tuple(cech._delta_slot(cover, kind, twist, slot)))
        assert type(record[1]) is tuple and all(
            type(image) is cech.BasisSlot and type(x) is int for image, x in record[1])


@pytest.mark.parametrize("n", [1, 2])
def test_slot_table_matches_fresh_transports_cold_and_warm(n, monkeypatch, fresh_memos):
    # the same seeded cochains of every kind in every degree, on two sheaves
    # whose summands share indices but not twists, first on empty slot
    # records, then on the records they memoised: coboundary and
    # cochain_chars equal the per-term references by terms, key order and
    # coefficient type, and the warm pass adds no record
    memo, seen = cech._slot_record, recorded_slot_records(monkeypatch)
    cover = cech.Cover(n)
    specs = [make(cover, twists) for make in
             (cech.line_sum, cech.tangent_twisted, cech.oneform_twisted)
             for twists in ([-3, 0, 2], [1, -2])]
    sizes = []
    for _ in ("cold", "warm"):
        rng = random.Random(23)
        for spec, degree in itertools.product(specs, range(n + 1)):
            for _ in range(15):
                c = cech.random_cochain(spec, degree, rng, terms=4, span=3)
                c = c + c.scale(Fraction(rng.choice([-1, 1]), 2))  # halves sum to ints
                got, want = cech.coboundary(c), reference_coboundary(c)
                assert (got.sheaf, got.degree) == (want.sheaf, want.degree)
                assert typed_terms(got.terms) == typed_terms(want.terms), (spec.kind, degree)
                got, want = cech.cochain_chars(c), reference_cochain_chars(c)
                assert list(got) == list(want), (spec.kind, degree)
                assert [typed_terms(b) for b in got.values()] == [
                    typed_terms(b) for b in want.values()]
        sizes.append(memo.cache_info().currsize)
    assert 0 < sizes[0] == sizes[1] == len(seen)
    assert_slot_records_are_plain(seen)


def test_slot_table_stops_growing_on_a_second_gluing_pass(monkeypatch, fresh_memos):
    # one pass over the gluing workload's seed-1 pool memoises the records
    # its coboundaries and character splits read; a second pass adds none
    pool = gluing_pool(1)
    fresh_memos()
    memo, seen = cech._slot_record, recorded_slot_records(monkeypatch)
    sizes = []
    for _ in range(2):
        for case in pool:
            gluing_checks(*case)
        sizes.append(memo.cache_info().currsize)
    assert 0 < sizes[0] == sizes[1] == len(seen)
    assert_slot_records_are_plain(seen)


def test_slot_records_are_bounded_at_the_limit(fresh_memos):
    # SLOT_TABLE_LIMIT + 1 distinct slots keep the last SLOT_TABLE_LIMIT,
    # each equal to a fresh build; the first is dropped, and a coboundary
    # through it still equals the per-term reference
    cover = cech.standard_cover(2)
    limit = cech.SLOT_TABLE_LIMIT
    side = math.isqrt(limit) + 1
    slots = [cech.BasisSlot((0,), 0, 0, (a, b)) for a in range(side) for b in range(side)]
    slots = slots[:limit + 1]
    for slot in slots:
        cech._slot_record(cover, cech.LINE_SUM, 1, slot)
    info = cech._slot_record.cache_info()
    assert (info.currsize, info.misses, info.maxsize) == (limit, limit + 1, limit)
    for slot in slots[1:]:
        record = cech._slot_record(cover, cech.LINE_SUM, 1, slot)
        assert record == cech._slot_record.__wrapped__(cover, cech.LINE_SUM, 1, slot)
    assert cech._slot_record.cache_info().misses == limit + 1  # every later slot kept
    spec = cech.line_sum(cover, [1])
    c = cech.Cochain(spec, 0, {slots[0]: Fraction(3, 2), slots[-1]: -1})
    assert typed_terms(cech.coboundary(c).terms) == typed_terms(reference_coboundary(c).terms)
    assert cech._slot_record.cache_info().misses == limit + 2  # the first was dropped
    assert cech._slot_record.cache_info().currsize == limit


def test_closed_formula_mismatch_on_fresh_cover_leaves_standard_cover_alone(
        monkeypatch, fresh_memos):
    # covers share their memos, so the mismatch runs on emptied memos; a
    # failed check memoises no walk, and the standard cover's results and
    # walks are the same afterwards
    specs = table_specs(cech.standard_cover(2))
    before = [[c.to_json() for c in cech.cohomology(spec, q).representatives[q]]
              for spec in specs for q in range(3)]
    walks = cech._walk.cache_info().currsize
    fresh_memos()
    bott_dim = cech._summand_bott_dim
    monkeypatch.setattr(cech, "_summand_bott_dim",
                        lambda cover, kind, twist, q: bott_dim(cover, kind, twist, q) + 1)
    for spec in table_specs(cech.Cover(2)):
        for q in range(3):
            with pytest.raises(AssertionError, match=r"summand twisted by -?\d+ has \d+ classes, "
                                                     r"closed formula gives"):
                cech.cohomology(spec, q)
    assert cech._walk.cache_info().currsize == 0
    monkeypatch.undo()
    after = [[c.to_json() for c in cech.cohomology(spec, q).representatives[q]]
             for spec in specs for q in range(3)]
    assert after == before
    assert cech._walk.cache_info().currsize == walks


def test_cochain_constructor_checks_what_arithmetic_trusts():
    spec = cech.tangent_twisted(cech.standard_cover(2), [1, -2])
    for simplex in ((1, 0), (0, 1, 2), (2,)):  # unsorted, then two wrong lengths
        with pytest.raises(ValueError, match="sorted 2-tuples"):
            cech.Cochain(spec, 1, {cech.BasisSlot(simplex, 0, 0, (0, 0)): 1})
    # plain tuples become slots, integral fractions become ints, zeros vanish
    c = cech.Cochain(spec, 1, {((0, 1), 0, 1, (1, 0)): Fraction(4, 2), ((0, 2), 1, 0, (0, 0)): 0})
    assert c.terms == {cech.BasisSlot((0, 1), 0, 1, (1, 0)): 2}
    assert type(c.terms[cech.BasisSlot((0, 1), 0, 1, (1, 0))]) is int
    # +, - and scale skip those checks: their results equal the checked build
    rng = random.Random(17)
    for _ in range(20):
        a, b = (cech.random_cochain(spec, 1, rng, terms=3) for _ in range(2))
        b = b + a.scale(rng.choice([-1, 1]))  # some slots cancel
        slots = set(a.terms) | set(b.terms)
        for got, sign in ((a + b, 1), (a - b, -1)):
            want = cech.Cochain(spec, 1, {s: a.terms.get(s, 0) + sign * b.terms.get(s, 0)
                                          for s in slots})
            assert got == want and all(got.terms.values())
        assert (a - a).is_zero() and a.scale(0).is_zero()
        assert a.scale(Fraction(-3, 2)) == cech.Cochain(
            spec, 1, {s: Fraction(-3, 2) * v for s, v in a.terms.items()})


# The per-kind branches the frame table replaced, kept as references.

def reference_monomial_char(spec, chart, summand, comp, exps):
    cover = spec.cover
    g = [0] * (cover.n + 1)
    for pos, l in enumerate(cover.chart_vars(chart)):
        g[l] = exps[pos]
    g[chart] = spec.twists[summand] - sum(exps)
    if spec.kind == cech.TANGENT:
        mu = cover.chart_vars(chart)[comp]
        g[chart] += 1
        g[mu] -= 1
    elif spec.kind == cech.ONE_FORM:
        mu = cover.chart_vars(chart)[comp]
        g[chart] -= 1
        g[mu] += 1
    return tuple(g)


def reference_char_monomial_exps(spec, chart, summand, comp, g):
    cover = spec.cover
    adjust = [0] * (cover.n + 1)
    if spec.kind in (cech.TANGENT, cech.ONE_FORM):
        mu = cover.chart_vars(chart)[comp]
        s = 1 if spec.kind == cech.TANGENT else -1
        adjust[chart] += s
        adjust[mu] -= s
    exps = [g[l] - adjust[l] for l in cover.chart_vars(chart)]
    if spec.twists[summand] - sum(exps) + adjust[chart] != g[chart]:
        return None
    return tuple(exps)


def reference_tangent_dim(n, q, s):
    if n == 2:
        return bott.bott_dim(2, 1, q, s + 3)
    if n == 1:
        return bott.bott_dim(1, 0, q, s + 2)
    raise ValueError("only n in {1, 2} is supported")


def reference_summand_bott_dim(spec, summand, q):
    n, t = spec.cover.n, spec.twists[summand]
    if spec.kind == cech.LINE_SUM:
        return bott.line_dim(n, q, t)
    if spec.kind == cech.TANGENT:
        return reference_tangent_dim(n, q, t)
    return bott.bott_dim(n, 1, q, t)


@pytest.mark.parametrize("n", [1, 2])
def test_frame_table_matches_the_per_kind_branches(n):
    """Every chart, component, exponent vector in [-3, 3]^n, twist in
    [-8, 8] and q = 0..n, on all three kinds; on P^1 T = O(2) and
    Omega^1 = O(-2)."""
    cover = cech.Cover(n)
    twists = list(range(-8, 9))
    checked = 0
    for make in (cech.line_sum, cech.tangent_twisted, cech.oneform_twisted):
        spec = make(cover, twists)
        assert spec.ncomp == (1 if spec.kind == cech.LINE_SUM else n)
        for summand, t in enumerate(twists):
            for q in range(n + 1):
                assert cech._summand_bott_dim(cover, spec.kind, t, q) == \
                    reference_summand_bott_dim(spec, summand, q)
                assert bott.tangent_dim(n, q, t) == reference_tangent_dim(n, q, t)
            for chart, comp in itertools.product(cover.charts, range(spec.ncomp)):
                for exps in itertools.product(range(-3, 4), repeat=n):
                    g = cech.monomial_char(cover, spec.kind, t, chart, comp, exps)
                    assert g == reference_monomial_char(spec, chart, summand, comp, exps)
                    assert cech.char_monomial_exps(cover, spec.kind, t, chart, comp, g) == exps
                    # characters off the summand's twist stratum miss the slot
                    off = (g[0] + 1,) + g[1:]
                    for h in (g, off):
                        assert cech.char_monomial_exps(cover, spec.kind, t, chart, comp, h) == \
                            reference_char_monomial_exps(spec, chart, summand, comp, h)
                    checked += 1
    # one component for line sums, n for the other two kinds
    assert checked == len(twists) * (n + 1) * (1 + 2 * n) * 7 ** n
    for bad in (0, 3):
        with pytest.raises(ValueError):
            bott.tangent_dim(bad, 0, 0)
