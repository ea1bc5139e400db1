import random
from fractions import Fraction

import pytest

from superthick import cech, supermap
from superthick.bott import SplitBundleDegrees
from superthick.obstruct import search_split_triples
from superthick.pipeline import (
    class_coordinates,
    h2_basis,
    normalize_generator,
    pipeline_obstructed_cp2,
)


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
    rep = pipeline_obstructed_cp2((3, 0, -6), window=0)
    assert rep["status"] == "inconclusive-window"
    assert rep["exact"] is False


def test_normalize_generator_leading_coefficient():
    cov = cech.standard_cover(2)
    spec = supermap.slot_sheaf(cov, SplitBundleDegrees((3, 0, -6)), 2)
    gen = cech.h1_representatives(spec, window=6).representatives[1][0]
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


@pytest.mark.parametrize("twists", [[-3], [-5, 1], [-4, -7], [2, -6, -3]])
def test_class_coordinates_match_all_negative_reader(twists):
    cov = cech.standard_cover(2)
    spec = cech.line_sum(cov, twists)
    labels = line_h2_basis(spec)
    rng = random.Random(sum(twists) + 100 * len(twists))
    for _ in range(6):
        gamma = cech.coboundary(cech.random_cochain(spec, 1, rng, terms=3, span=3))
        for s, g in labels:
            if rng.random() < 0.5:
                exps = cech.char_monomial_exps(spec, 0, s, 0, g)
                coef = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
                gamma = gamma + cech.cochain_from_slots(
                    spec, 2, [cech.BasisSlot((0, 1, 2), s, 0, exps)], [coef]
                )
        want = {(s, g): c for s, g, c in harmonic_h2_part(gamma)}
        basis, coords = class_coordinates(gamma, h2_basis(spec))
        assert basis == labels
        assert coords == [want.get(label, 0) for label in labels]
        sol, cert = cech.solve_coboundary(gamma)
        assert (sol is None) == bool(want) and (cert or []) == sorted(want)


def test_second_pipeline_run_builds_only_image_blocks(monkeypatch):
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
        assert built == [1] * len(cech.cochain_chars(gamma)), degrees
