"""Input checks of the library's public entry points: each bad argument
raises ValueError with its own message, before any computation starts."""

import random

import pytest

from superthick import bott, cech, supermap
from superthick.bott import SplitBundleDegrees
from superthick.pipeline import pipeline_obstructed_cp2

DEGREES = SplitBundleDegrees((4, -1, -7))


def p1_split(order):
    return supermap.split_trivialization(cech.standard_cover(1), DEGREES, order)


def slot_cochain(degree, d=2):
    return cech.Cochain(supermap.slot_sheaf(cech.standard_cover(1), DEGREES, d), degree)


def line_cochain(twist, degree=1):
    return cech.Cochain(cech.line_sum(cech.standard_cover(1), [twist]), degree)


CASES = {
    "bott-unknown-target": (
        lambda: bott.split_sheaf_dims(DEGREES, "dual_twist", 2, m=3), "unknown target"),
    "bott-missing-m-tangent": (
        lambda: bott.split_sheaf_dims(DEGREES, "tangent_wedge", 1), "wedge degree m required"),
    "bott-missing-m-dual": (
        lambda: bott.split_sheaf_dims(DEGREES, "wedge_dual", 2), "wedge degree m required"),
    "bott-filtered-level": (
        lambda: bott.filtered_tangent_dims(DEGREES, 4, 1), "level out of range"),
    "cech-unknown-kind": (
        lambda: cech.SheafSpec(cech.standard_cover(1), "bundle", (0,)), "unknown sheaf kind"),
    "cech-label-count": (
        lambda: cech.line_sum(cech.standard_cover(1), [0, 1], ["a"]), "one label per summand"),
    "cech-negative-degree": (lambda: line_cochain(0, -1), "degree must be nonnegative"),
    "cech-add-other-sheaf": (lambda: line_cochain(0) + line_cochain(1), "cochain mismatch"),
    "cech-solve-0-cochain": (
        lambda: cech.solve_blocks(line_cochain(0, 0)), "only solve for preimages of 1- and 2-"),
    "pipeline-space": (
        lambda: pipeline_obstructed_cp2(DEGREES.degrees, space="P3"), "unknown space 'P3'"),
    "invert-non-automorphism": (
        lambda: supermap.invert(p1_split(2).maps[0, 1], 2), "only chart automorphisms"),
    "apply-increment-sheaf": (
        lambda: supermap.apply_increment(p1_split(2), line_cochain(0), 2),
        "increment sheaf does not match"),
    "apply-increment-0-cochain": (
        lambda: supermap.apply_increment(p1_split(2), slot_cochain(0), 2),
        "increments are 1-cochains"),
    "build-trivialization-slot": (
        lambda: supermap.build_trivialization(cech.standard_cover(1), DEGREES, 2,
                                              {3: slot_cochain(1, 3)}),
        "slot degree 3 outside 2..order"),
    "pushforward-order-1": (
        lambda: supermap.pushforward_partial(slot_cochain(1), p1_split(1)),
        "an order >= 2 trivialisation"),
    "automorphism-1-cochain": (
        lambda: supermap.automorphism_from_increment(cech.standard_cover(1), DEGREES, 2,
                                                     slot_cochain(1), 2),
        "expected a 0-cochain"),
    "conjugate-non-automorphism": (
        lambda: supermap.conjugate(p1_split(2), {0: p1_split(2).maps[0, 1]}),
        "lam must consist of chart automorphisms"),
    "witness-orders": (
        lambda: supermap.equivalence_witness(p1_split(2), p1_split(3)),
        "orders or bundles differ"),
    "random-trivialization-order-3": (
        lambda: supermap.random_trivialization(cech.standard_cover(2), DEGREES, 3,
                                               random.Random(0)),
        "built at order 2"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_raises_value_error(name):
    call, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        call()
