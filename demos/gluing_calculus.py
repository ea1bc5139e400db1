"""The gluing calculus behind the certificates.

Builds second-order gluing data over P^2 by hand, checks the cocycle
condition, computes the obstruction 2-cocycle two ways, and shows how it
responds to the two natural moves: shifting the top-degree slot by a closed
cochain, and conjugating by chart automorphisms.
"""

import random

from superthick import cech, supermap as sm
from superthick.bott import SplitBundleDegrees
from superthick.pipeline import class_coordinates, h2_basis


def main():
    rng = random.Random(42)
    cover = cech.standard_cover(2)
    degrees = SplitBundleDegrees((4, -1, -7))
    spec = sm.slot_sheaf(cover, degrees, 2)

    print("First-order extension classes for E = O(4) + O(-1) + O(-7):")
    h1 = cech.h1_representatives(spec, window=6)
    print(f"  dim H^1 = {h1.dims[1]} (certified by the closed formula: {h1.complete})")
    omega = h1.representatives[1][0]

    t = sm.build_trivialization(cover, degrees, 2, {2: omega})
    res = sm.cocycle_residual(t)
    print(f"  gluing satisfies the cocycle condition: {sm.residuals_all_zero(res)}")

    gamma = sm.obstruction_cocycle(t)
    pushed = sm.pushforward_partial(omega, t)
    print(f"  composition defect equals the explicit image formula: "
          f"{(gamma - pushed).is_zero()}")
    print(f"  verification (alternation and consistency): "
          f"{sm.verify_gamma_cocycle(gamma, t)['pass']}")
    basis, coords = class_coordinates(gamma, h2_basis(gamma.sheaf))
    harmonic = [(s, g, c) for (s, g), c in zip(basis, coords) if c]
    print(f"  harmonic part: {harmonic}\n")

    print("Torsor move: add a closed cochain alpha to the top slot.")
    nu = cech.random_cochain(spec, 0, rng, terms=2)
    alpha = cech.coboundary(nu)
    shifted = sm.act_torsor(t, alpha)
    g1 = sm.obstruction_cocycle(shifted)
    moved = not (g1 - gamma).is_zero()
    law = (g1 - gamma - sm.pushforward_partial(alpha, t)).is_zero()
    print(f"  representative moved: {moved}; moved exactly by the image of "
          f"alpha: {law}")
    sol, cert = cech.solve_coboundary(g1 - gamma)
    print(f"  for an exact alpha the move is itself exact: {sol is not None}")
    witness = sm.equivalence_witness(t, shifted)
    print(f"  and the two gluings are equivalent, witness found: "
          f"{witness is not None}\n")

    print("Conjugation move: chart automorphisms trivial to first order.")
    lam = sm.automorphism_from_increment(cover, degrees, 2, nu, 2)
    conj = sm.conjugate(t, lam)
    g2 = sm.obstruction_cocycle(conj)
    print(f"  conjugation preserves the representative verbatim: "
          f"{(g2 - gamma).is_zero()}")
    shift = sm.slot_cochain(conj, 2) - sm.slot_cochain(t, 2)
    print(f"  while moving the top slot by the coboundary of the generator: "
          f"{(shift - alpha).is_zero()}")


if __name__ == "__main__":
    main()
