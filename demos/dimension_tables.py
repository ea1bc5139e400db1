"""Dimension tables for twisted forms on the projective plane.

Walks through the closed-form dimensions, the Čech computation by sign type,
duality, and the twisted tangent sheaf via its identification with twisted
one-forms, printing small tables along the way.
"""

from superthick import bott, cech


def main():
    print("h^q(P^2, O(k)) for k in [-6, 6]")
    print(f"{'k':>4} {'h0':>5} {'h1':>5} {'h2':>5}   {'oracle h0/h1/h2':>18} {'chi':>6}")
    for k in range(-6, 7):
        closed = [bott.line_dim(2, q, k) for q in range(3)]
        oracle = [cech.line_bundle_cohomology(2, k, q).dims[q] for q in range(3)]
        chi = closed[0] - closed[1] + closed[2]
        assert closed == oracle
        assert chi == (k + 1) * (k + 2) // 2
        print(f"{k:>4} {closed[0]:>5} {closed[1]:>5} {closed[2]:>5}   "
              f"{'/'.join(map(str, oracle)):>18} {chi:>6}")
    print("every row agrees with the monomial oracle and the genus formula\n")

    print("duality: h^i(O(k)) = h^(2-i)(O(-k-3)) on P^2")
    for k in (-5, -3, 0, 2):
        row = [(bott.line_dim(2, i, k), bott.line_dim(2, 2 - i, -k - 3)) for i in range(3)]
        print(f"  k={k:>3}: {row}")
    print()

    print("twisted tangent sheaf via T = Omega^1(3):")
    print(f"{'l':>4} {'h0':>5} {'h1':>5} {'h2':>5}")
    for l in range(-7, 4):
        dims = [bott.tangent_dim(2, q, l) for q in range(3)]
        print(f"{l:>4} {dims[0]:>5} {dims[1]:>5} {dims[2]:>5}")
    print("h1 is nonzero exactly at l = -3 (value 1);")
    print("h0 is nonzero for every l >= -1, e.g. h0(T) = 8, the plane's")
    print("automorphism algebra, and h2(O(-3)) = 1: two boundary cases that a")
    print("common shorthand (h0 nonzero iff l > 2, h2 nonzero iff l < -3) misses.\n")

    print("cross-check against the Čech complex, one block per sign type, with Jacobian transport:")
    for l in (-3, 0):
        got = cech.windowed_dims(cech.tangent_twisted(cech.standard_cover(2), [l]), window=6)
        print(f"  T({l}): {got}")


if __name__ == "__main__":
    main()
