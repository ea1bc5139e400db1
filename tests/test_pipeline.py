import itertools
import json
import random
from fractions import Fraction

import pytest

from superthick import cech, supermap
from superthick.bott import SplitBundleDegrees
from superthick.cli import main
from superthick.obstruct import search_split_triples
from superthick.pipeline import (
    class_coordinates,
    h2_basis,
    normalize_generator,
    pipeline_obstructed_cp2,
)
from test_golden import ADMISSIBLE


def test_pipeline_headline_triple_is_definitive_zero():
    rep = pipeline_obstructed_cp2((3, 0, -6))
    assert rep["status"] == "unobstructed"
    assert rep["exact"] is True
    assert rep["h1_dim"] == 1
    assert rep["h2_dim"] == 11
    (cls,) = rep["classes"]
    assert cls["class_coordinates"] == ["0"] * 11
    assert rep["agrees_with_prediction"] is False


def test_pipeline_exhibits_obstructed_thickening():
    rep = pipeline_obstructed_cp2((4, -1, -7))
    assert rep["status"] == "obstructed-exhibited"
    (cls,) = rep["classes"]
    nonzero = [c for c in cls["class_coordinates"] if c != "0"]
    assert nonzero == ["-1"]
    assert rep["agrees_with_prediction"] is True


def test_pipeline_refuses_failing_preconditions():
    rep = pipeline_obstructed_cp2((0, 0, 0))
    assert rep["status"] == "refused-preconditions"
    assert "classes" not in rep


def test_pipeline_vacuous_on_p1():
    rep = pipeline_obstructed_cp2((3, 0, -6), space="P1")
    assert rep["status"] == "vacuously-unobstructed"


def test_pipeline_inconclusive_window_flagged():
    # H^1 is computed over every character; window 0 leaves out its one
    # class, at (-1, -1, -1), and the report says so
    for degrees in [(3, 0, -6), (4, -1, -7)]:
        rep = pipeline_obstructed_cp2(degrees, window=0)
        assert rep["status"] == "inconclusive-window"
        assert rep["exact"] is False
        assert rep["h1_dim"] == 0
        assert rep["detail"] == ["window incomplete: found 0 classes, closed formula gives 1"]
        assert "classes" not in rep and "h2_dim" not in rep


def test_window_never_cuts_an_admissible_triple(capsys):
    # by Bott's formula h^1(T(s)) is nonzero only at s = -3, and that class
    # has character (-1, -1, -1); so every window but 0 keeps every class
    cov = cech.standard_cover(2)
    triples = [h.degrees for h in search_split_triples(-12, 12) if h.direct_all]
    assert len(triples) == 56
    for degrees in triples:
        reps = cech.h1_representatives(supermap.slot_sheaf(cov, degrees, 2)).representatives[1]
        chars = [g for c in reps for _, g in cech.cochain_chars(c)]
        assert chars and set(chars) == {(-1, -1, -1)}, degrees
        argv = ["pushforward", "--degrees", ",".join(map(str, degrees.degrees)), "--json"]
        runs = []
        for extra, window in (([], 10), (["--window", "1"], 1)):
            code = main(argv + extra)
            payload = json.loads(capsys.readouterr().out)
            assert payload["inputs"].pop("window") == window, degrees
            runs.append((code, payload))
        assert runs[0] == runs[1], degrees


def recorded(monkeypatch, module, name) -> list:
    """The arguments of every call of ``module.name`` from now on."""
    calls = []
    build = getattr(module, name)

    def recording(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_warm_pushforward_looks_up_each_sign_type_once(monkeypatch, capsys, fresh_memos):
    # a cold walk reads each sign type's record by its type key, once per
    # type; a warm certificate walks nothing: each summand's walk is one hit
    # in the walk memo, and solve_blocks looks its one class block up per
    # character through block_cohomology
    degrees = SplitBundleDegrees((4, -1, -7))
    cold = cech.Cover(2)
    type_record, walk_memo = cech._type_record, cech._walk
    types = recorded(monkeypatch, cech, "_type_record")
    for d, q in ((2, 1), (3, 2)):
        spec = supermap.slot_sheaf(cold, degrees, d)
        for summand, twist in enumerate(spec.twists):
            before = len(types)
            cech.enumerate_chars(spec, summand, q)
            keys = [key[1:] for key in types[before:]]
            met = [t for t in cech._sign_types(2) if next(cech._type_chars(t, twist), None)]
            assert keys == [(spec.kind, q, t) for t in met], twist
            assert len(keys) == len(set(keys))
    monkeypatch.undo()
    argv = ["pushforward", "--degrees", "4,-1,-7", "--json"]
    main(argv)
    types = recorded(monkeypatch, cech, "_type_record")
    walking, per_char = [], recorded(monkeypatch, cech, "block_cohomology")
    walk = cech.enumerate_chars

    def counting_walk(*args):
        before = len(types)
        try:
            return walk(*args)
        finally:
            walking.extend(types[before:])

    monkeypatch.setattr(cech, "enumerate_chars", counting_walk)
    type_info, walk_info = type_record.cache_info(), walk_memo.cache_info()
    assert main(argv) == 0
    capsys.readouterr()
    # 6 summand walks (3 tangent at q = 1, 3 line at q = 2), all hits; the 2
    # sign-type reads are solve_blocks' _solve_block and block_cohomology
    walks = walk_memo.cache_info().hits - walk_info.hits
    assert (len(walking), len(types), walks, len(per_char)) == (0, 2, 6, 1)
    assert walk_memo.cache_info().misses == walk_info.misses
    assert type_record.cache_info().hits - type_info.hits == 2
    assert type_record.cache_info().misses == type_info.misses
    assert all(sign_type == cech._sign_type(sign_type) for *_, sign_type in types)


def test_cover_tables_fill_each_key_once(capsys, fresh_memos):
    # a certificate walks 6 summands, 72 over the admissible triples, which
    # share 26 (kind, q, twist) keys; the sorted triples of [-8, 8] make
    # 5814 walks over 66 keys.  A certificate reads 6 split records and 9
    # slot layouts: the degree-2 increment on the 3 sorted pairs, and the
    # degree-3 defect on the 6 ordered pairs (i, k) of the ordered triples,
    # which include the pair (0, 2) that the image is read back through.
    # The degree-2 (tangent) layouts are memoised by their words, which
    # depend on the rank alone, so the 12 certificates share their 3; each
    # memoised layout is a fresh build, for every admissible triple of that
    # rank
    argvs = [["pushforward", "--degrees", ",".join(map(str, k)), "--json"] for k in ADMISSIBLE]
    cold = []
    for argv in argvs:
        main(argv)
        cold.append(capsys.readouterr().out)
    walks = cech._walk.cache_info()
    assert (walks.hits + walks.misses, walks.misses, walks.currsize) == (72, 26, 26)
    assert supermap._split_record.cache_info().currsize == 6 * 12
    assert supermap.slot_sheaf.cache_info().currsize == 2 * 12
    odd, even = supermap._odd_layout.cache_info(), supermap._even_layout.cache_info()
    assert (odd.currsize, even.currsize) == (6 * 12, 3)
    cover = cech.standard_cover(2)
    for k in ADMISSIBLE:
        degrees = SplitBundleDegrees(k)
        for d, pairs in ((2, cover.pairs), (3, itertools.permutations(cover.charts, 2))):
            for i, j in pairs:
                layout = supermap._slot_layout(cover, degrees, d, i, j)
                if d % 2:
                    built = supermap._odd_layout.__wrapped__(cover, degrees, d, i, j)
                else:
                    words = supermap.slot_sheaf(cover, degrees, d).labels
                    built = supermap._even_layout.__wrapped__(cover, words, i, j)
                assert type(layout) is tuple and built == layout, (k, d, i, j)
        for i, j in itertools.permutations(cover.charts, 2):
            assert type(supermap._split_record(cover, degrees, i, j)) is tuple
    # every layout and split record read above was a memoised one
    assert supermap._odd_layout.cache_info().misses == odd.misses
    assert supermap._even_layout.cache_info().misses == even.misses
    assert supermap._split_record.cache_info().currsize == 6 * 12
    for argv, out in zip(argvs, cold):  # the warm memos
        main(argv)
        assert capsys.readouterr().out == out, argv
    fresh_memos()
    sweep = cech.Cover(2)
    walks = 0
    for degrees in itertools.combinations_with_replacement(range(8, -9, -1), 3):
        for d, q in ((2, 1), (3, 2)):
            spec = supermap.slot_sheaf(sweep, SplitBundleDegrees(degrees), d)
            cech.class_blocks(spec, q)
            walks += spec.nsummands
    assert (walks, cech._walk.cache_info().currsize) == (5814, 66)


def test_normalize_generator_leading_coefficient():
    cov = cech.standard_cover(2)
    spec = supermap.slot_sheaf(cov, SplitBundleDegrees((3, 0, -6)), 2)
    gen = cech.h1_representatives(spec).representatives[1][0]
    normed = normalize_generator(gen.scale(Fraction(-7, 3)))
    # the first coefficient of the canonical JSON: sorted simplices, then
    # summands, components and sorted exponents
    values = normed.to_json()["values"]
    first = next(term["coef"] for key in sorted(values) for summand in values[key]
                 for comp in summand for term in comp)
    assert first == "1"


def test_class_coordinates_certify_remainder():
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, [-3])
    rng = random.Random(0)
    nu = cech.random_cochain(spec, 1, rng, terms=2)
    exact = cech.coboundary(nu)
    basis, coords = class_coordinates(exact, h2_basis(spec))
    assert basis == [(0, (-1, -1, -1))]
    assert coords == [Fraction(0)]


# ---------------------------------------------------------------------------
# H^2 basis and class coordinates read from the sign-type table, against the
# all-negative-character readers they replace


def line_h2_basis(spec):
    """H^2 labels of a line sum on P^2: one per all-negative character."""
    basis = []
    for summand, t in enumerate(spec.twists):
        m = -t - 3
        for x0 in range(m + 1):
            for x1 in range(m - x0 + 1):
                basis.append((summand, (-1 - x0, -1 - x1, -1 - (m - x0 - x1))))
    return basis


def harmonic_h2_part(c):
    """(summand, character, coefficient) of each all-negative monomial of a degree-2 line-sum cochain."""
    out = []
    for (summand, g), coeffs in sorted(cech.cochain_chars(c).items()):
        if all(e < 0 for e in g):
            ((_, coef),) = coeffs.items()
            out.append((summand, g, coef))
    return out


def test_h2_basis_matches_all_negative_reader():
    cov = cech.standard_cover(2)
    for hit in search_split_triples(-8, 8):
        spec = supermap.slot_sheaf(cov, hit.degrees, 3)
        assert h2_basis(spec) == line_h2_basis(spec), hit.degrees
    spec = cech.line_sum(cov, [-7, 0, -3, -5])
    assert h2_basis(spec) == line_h2_basis(spec)


def representative_h2_basis(spec):
    """H^2 labels read back off the representative cochains of
    ``cech.cohomology``, the reader ``h2_basis`` replaces."""
    labels = [next(iter(cech.cochain_chars(rep)))
              for rep in cech.cohomology(spec, 2).representatives[2]]
    return sorted(labels, key=lambda label: (label[0], [-e for e in label[1]]))


LINE_SUM_TWISTS = [[-3], [-5, 1], [-4, -7], [2, -6, -3]]


def test_h2_basis_matches_representative_reader():
    cov = cech.standard_cover(2)
    specs = [supermap.slot_sheaf(cov, hit.degrees, d)
             for hit in search_split_triples(-8, 8) for d in (2, 3)]
    specs += [cech.line_sum(cov, twists) for twists in LINE_SUM_TWISTS]
    for spec in specs:
        labels = h2_basis(spec)
        assert labels == representative_h2_basis(spec), spec.twists


def test_h2_basis_keeps_the_closed_formula_check(monkeypatch, capsys):
    spec = supermap.slot_sheaf(cech.standard_cover(2), SplitBundleDegrees((4, -1, -7)), 3)
    h2_basis(spec)  # a warm table: the check must not live in the blocks' first build
    bott_dim = cech._summand_bott_dim
    monkeypatch.setattr(cech, "_summand_bott_dim",
                        lambda cover, kind, twist, q: bott_dim(cover, kind, twist, q) + (q == 2))
    with pytest.raises(AssertionError, match="closed formula"):
        h2_basis(spec)
    code = main(["pushforward", "--degrees", "4,-1,-7", "--json"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("internal self-check failed: H^2 has 22 classes")
    assert len(lines) == 2 and lines[1].startswith("[")  # the timing line


@pytest.mark.parametrize("twists", LINE_SUM_TWISTS)
def test_class_coordinates_match_all_negative_reader(twists):
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, twists)
    labels = line_h2_basis(spec)
    rng = random.Random(sum(twists) + 100 * len(twists))
    for _ in range(6):
        gamma = cech.coboundary(cech.random_cochain(spec, 1, rng, terms=3, span=3))
        for s, g in labels:
            if rng.random() < 0.5:
                exps = cech.char_monomial_exps(cov, spec.kind, spec.twists[s], 0, 0, g)
                coef = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
                slot = cech.BasisSlot((0, 1, 2), s, 0, exps)
                gamma = gamma + cech.Cochain(spec, 2, {slot: coef})
        want = {(s, g): c for s, g, c in harmonic_h2_part(gamma)}
        basis, coords = class_coordinates(gamma, h2_basis(spec))
        assert basis == labels
        assert coords == [want.get(label, 0) for label in labels]
        sol, cert = cech.solve_coboundary(gamma)
        assert (sol is None) == bool(want) and (cert or []) == sorted(want)


def test_second_pipeline_run_builds_no_block(monkeypatch):
    # a warm run reads H^1, H^2 and every class-coordinate solve off the
    # cover's cohomology and solver tables
    for degrees in [(4, -1, -7), (5, 2, -8)]:
        pipeline_obstructed_cp2(degrees)
        built, targets = [], []
        build, solve = cech.delta_block_matrix, cech.solve_blocks

        def counting(spec, degree, summand, g):
            built.append(degree)
            return build(spec, degree, summand, g)

        def recording(target):
            targets.append(target)
            return solve(target)

        monkeypatch.setattr(cech, "delta_block_matrix", counting)
        monkeypatch.setattr(cech, "solve_blocks", recording)
        rep = pipeline_obstructed_cp2(degrees)
        monkeypatch.undo()
        assert rep["status"] == "obstructed-exhibited"
        (gamma,) = targets
        assert cech.cochain_chars(gamma)
        assert built == [], degrees
