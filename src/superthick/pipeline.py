"""End-to-end certificate for second-order thickenings of the projective
plane with a split rank-3 bundle: build the first-order extension classes,
push them through the obstruction map, and decide obstructedness by exact
class coordinates in the line-bundle-sum target, read from the memoised
sign-type cohomology records.
"""

from __future__ import annotations

from fractions import Fraction

from . import cech, supermap
from .bott import SplitBundleDegrees
from .cech import Cochain
from .laurent import fraction_to_str
from .obstruct import check_split_conditions

DEFAULT_WINDOW = 10


def normalize_generator(c: Cochain) -> Cochain:
    """Scale so the first nonzero coefficient in canonical order is 1."""
    if c.is_zero():
        return c
    lead = c.terms[min(c.terms)]
    return c if lead == 1 else c.scale(Fraction(1) / lead)


def h2_basis(spec: cech.SheafSpec) -> list[tuple[int, tuple]]:
    """(summand, character) label of each class of H^2, in canonical order.

    The labels are read off the memoised sign-type records by
    ``cech.class_blocks``, which builds no representative cochain and
    cross-checks the count against the closed formula; they are ordered by
    summand and then by character in decreasing lexicographic order.
    """
    labels = [(summand, g) for summand, g, classes in cech.class_blocks(spec, 2) for _ in classes]
    return sorted(labels, key=lambda label: (label[0], [-e for e in label[1]]))


def class_coordinates(gamma: Cochain, basis: list[tuple[int, tuple]]) -> tuple[list, list]:
    """Coordinates of a degree-2 cocycle in the canonical H^2 basis.

    ``basis`` is ``h2_basis(gamma.sheaf)``, built once by the caller.  Returns
    (basis, coords) where coords are exact rationals.  One
    ``cech.solve_blocks`` call reads the coordinates and certifies that gamma
    minus its class part is exact.
    """
    _, found = cech.solve_blocks(gamma)
    coords = [Fraction(0)] * len(basis)
    for label, part in found.items():
        start = basis.index(label)
        coords[start : start + len(part)] = part
    return basis, coords


def in_window(c: Cochain, window: int) -> bool:
    """Whether every character entry of the cochain lies in [-window, window]."""
    return all(-window <= e <= window for _, g in cech.cochain_chars(c) for e in g)


def pipeline_obstructed_cp2(degrees, window: int = DEFAULT_WINDOW, space: str = "P2") -> dict:
    """Decide whether the first-order extensions of the split model admit an
    obstructed second-order thickening, with exact class coordinates.

    The report carries a status in {"obstructed-exhibited", "unobstructed",
    "vacuously-unobstructed", "refused-preconditions", "inconclusive-window"}
    and, when a verdict is reached, the exact coordinates of the obstruction
    class in the canonical second-cohomology basis.

    H^1 is computed over every character; ``window`` is a cap on what the
    report may use.  When a class has a character entry outside
    [-window, window], the report is "inconclusive-window" with the classes
    inside counted in h1_dim.  Every class of the slot sheaf has character
    (-1, -1, -1), so only window 0 cuts.

    Each image gamma is the closed-form ``pushforward_partial``, certified
    once by ``verify_gamma_cocycle`` against the composition defect.
    Degrees of a rank other than 3 raise ValueError, on either space.
    """
    degrees = SplitBundleDegrees(tuple(degrees))
    if degrees.rank != 3:
        raise ValueError("rank-3 degrees required")
    report: dict = {
        "degrees": list(degrees.degrees),
        "space": space,
        "prediction": "nonzero",
        "exact": True,
    }
    if space == "P1":
        report["status"] = "vacuously-unobstructed"
        report["detail"] = "two-chart covers have no triple overlaps"
        return report
    if space != "P2":
        raise ValueError(f"unknown space {space!r}")

    conditions = check_split_conditions(degrees)
    report["conditions"] = conditions.to_json()
    if not conditions.direct_all:
        report["status"] = "refused-preconditions"
        return report

    cover = cech.standard_cover(2)
    spec2 = supermap.slot_sheaf(cover, degrees, 2)
    h1 = cech.h1_representatives(spec2)
    generators = [c for c in h1.representatives[1] if in_window(c, window)]
    report["h1_dim"] = len(generators)
    if len(generators) < h1.dims[1]:
        report["status"] = "inconclusive-window"
        report["exact"] = False
        report["detail"] = [f"window incomplete: found {len(generators)} classes, "
                            f"closed formula gives {h1.dims[1]}"]
        return report

    gamma_spec = supermap.slot_sheaf(cover, degrees, 3)
    basis = h2_basis(gamma_spec)
    report["h2_dim"] = len(basis)
    report["h2_basis"] = [
        {"summand": s, "char": list(g), "twist": gamma_spec.twists[s]}
        for s, g in basis
    ]

    classes = []
    any_nonzero = False
    for raw in generators:
        omega = normalize_generator(raw)
        t = supermap.build_trivialization(cover, degrees, 2, {2: omega})
        gamma = supermap.pushforward_partial(omega, t)
        if not supermap.verify_gamma_cocycle(gamma, t)["pass"]:
            raise AssertionError("pushforward failed verification against the composition defect")
        _, coords = class_coordinates(gamma, basis)
        nonzero = any(c != 0 for c in coords)
        any_nonzero = any_nonzero or nonzero
        classes.append(
            {
                "omega": omega.to_json(),
                "class_coordinates": [fraction_to_str(c) for c in coords],
                "nonzero": nonzero,
            }
        )
    report["classes"] = classes
    report["status"] = "obstructed-exhibited" if any_nonzero else "unobstructed"
    report["agrees_with_prediction"] = any_nonzero
    return report
