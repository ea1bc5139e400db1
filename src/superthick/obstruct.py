"""Existence criteria for obstructed second-order thickenings over P^2.

For a split rank-3 bundle E = O(k1) + O(k2) + O(k3) the three relevant
cohomological conditions are

    h^1(T tensor Lambda^2 E) != 0,
    h^2(T tensor Lambda^2 E) != 0,
    h^2(E-dual (deg E)) != 0.

Two evaluations are reported side by side.  The "direct" one computes every
dimension through the closed formula (with T = Omega^1(3)); as iff-rules on a
single twist s these read

    h^1(T(s)) != 0  iff  s = -3,
    h^2(T(s)) != 0  iff  s <= -5,
    h^2(O(s)) != 0  iff  s <= -3.

The "naive" one applies the commonly quoted boundary rules (nonzero h^0(T(s))
iff s > 2 standing in for the middle condition via duality, and h^2(O(s))
nonzero iff s < -3): both are off at their boundary, which the report flags
instead of silently replacing either side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bott import SplitBundleDegrees, bott_dim, line_dim, split_sheaf_dims, tangent_dim


def naive_rule_h1_tangent(s: int) -> bool:
    return s == -3


def naive_rule_h0_tangent(s: int) -> bool:
    return s > 2


def naive_rule_h2_line(s: int) -> bool:
    return s < -3


@dataclass
class SplitConditionsReport:
    """Both evaluations of the three conditions for one degree triple."""

    degrees: SplitBundleDegrees
    naive_conditions: tuple[bool, bool, bool]
    direct_conditions: tuple[tuple[bool, int], ...]  # (holds, witness dim)
    constraint_eq74: bool
    discrepancy_flags: list[str] = field(default_factory=list)

    @property
    def direct_all(self) -> bool:
        return all(h for h, _ in self.direct_conditions)

    @property
    def witnesses(self) -> tuple[int, int, int]:
        return tuple(w for _, w in self.direct_conditions)

    def to_json(self) -> dict:
        c = self.naive_conditions
        d = self.direct_conditions
        return {
            "degrees": list(self.degrees.degrees),
            "paper": {"c1": c[0], "c2": c[1], "c3": c[2]},
            "direct": {
                f"c{i + 1}": {"holds": d[i][0], "witness": d[i][1]} for i in range(3)
            },
            "eq74": self.constraint_eq74,
            "flags": list(self.discrepancy_flags),
        }


def pair_sums(degrees: SplitBundleDegrees) -> tuple[int, int, int]:
    k1, k2, k3 = degrees.degrees
    return (k1 + k2, k1 + k3, k2 + k3)


def check_split_conditions(degrees: SplitBundleDegrees) -> SplitConditionsReport:
    """Evaluate the three conditions for one rank-3 split bundle."""
    if degrees.rank != 3:
        raise ValueError("rank-3 degrees required")
    sums = pair_sums(degrees)
    k1, k2, k3 = degrees.degrees
    k = degrees.total

    # the dual twisted by deg E has the same twist multiset as Lambda^2 E
    dual_twists = sorted(k - ka for ka in degrees.degrees)
    if dual_twists != sorted(sums):
        raise AssertionError("rank-3 identity violated")

    naive = (
        any(naive_rule_h1_tangent(s) for s in sums),
        any(naive_rule_h0_tangent(s) for s in sums),
        any(naive_rule_h2_line(s) for s in sums),
    )

    h1, _ = split_sheaf_dims(degrees, "tangent_wedge", 1, m=2)
    h2t, _ = split_sheaf_dims(degrees, "tangent_wedge", 2, m=2)
    h2d, _ = split_sheaf_dims(degrees, "wedge_dual", 2, m=degrees.rank)
    direct = ((h1 > 0, h1), (h2t > 0, h2t), (h2d > 0, h2d))

    eq74 = (k1 + k2 > 2) and (k1 + k3 == -3) and (k2 + k3 < -3)

    flags = []
    for i, name in enumerate(("c1", "c2", "c3")):
        if naive[i] != direct[i][0]:
            flags.append(
                f"{name}: naive boundary rule gives {naive[i]}, exact dimension "
                f"gives {direct[i][0]} (witness {direct[i][1]})"
            )
    return SplitConditionsReport(degrees, naive, direct, eq74, flags)


def search_split_triples(lo: int, hi: int) -> list[SplitConditionsReport]:
    """All ordered degree triples in [lo, hi] meeting the constraint system

        k1 + k2 > 2,  k1 + k3 = -3,  k2 + k3 < -3,

    in lexicographic order, each with its full report."""
    if lo > hi:
        raise ValueError("empty window")
    out = []
    for k1 in range(lo, hi + 1):
        k3 = -3 - k1
        if lo <= k3 <= hi:
            # k1 + k2 > 2 and k2 + k3 < -3 pin k2 to 3 - k1 <= k2 <= k1 - 1
            for k2 in range(max(lo, 3 - k1), min(hi, k1 - 1) + 1):
                out.append(check_split_conditions(SplitBundleDegrees((k1, k2, k3))))
    return out


@dataclass
class ThresholdCertificate:
    k_prime: int
    threshold: int
    parts: list[dict]
    flags: list[str]

    def to_json(self) -> dict:
        return {
            "k_prime": self.k_prime,
            "threshold": self.threshold,
            "parts": self.parts,
            "flags": list(self.flags),
        }


def sufficient_l_nonsplit(k_prime: int) -> ThresholdCertificate:
    """Largest l0 such that every l <= l0 provably meets all three conditions
    for the decomposable bundle F(k') + O(l) with F rank 2 indecomposable.

    Only k' = -3 is supported: the first condition needs the twist k' + 3 of
    the rank-one wedge summand to vanish.  The bounds are one-sided section
    injections, so l > l0 is reported as not provable, never as false.
    """
    if k_prime != -3:
        raise ValueError("unsupported k_prime: the threshold construction needs -3")

    parts = []
    flags = []

    # condition 1: the O(k') summand of Lambda^2 E contributes
    # h^1(T(-3)) = h^1(Omega^1(0)) = 1, independent of l
    w1 = tangent_dim(2, 1, -3)
    if not w1 == bott_dim(2, 1, 1, 0) == 1:
        raise AssertionError("h1(T(-3)) = h1(Omega^1(0)) = 1 failed")
    parts.append(
        {
            "condition": 1,
            "l_independent": True,
            "witness": w1,
            "bound": "h1(T tensor Lambda^2 E) >= h1(T(-3)) = h1(Omega^1(0)) = 1",
        }
    )

    # condition 2: h^2(T tensor F(l)) = h^0(Omega^1 tensor F-dual(-l-3)) and
    # F-dual = F(3), so the section injection O -> F gives the lower bound
    # h^0(Omega^1 tensor F(-l)) >= h^0(Omega^1(-l)), nonzero iff -l >= 2
    l0 = -2
    w2 = bott_dim(2, 1, 0, -l0)
    if not (w2 > 0 and bott_dim(2, 1, 0, -(l0 + 1)) == 0):
        raise AssertionError(f"h0(Omega^1(-l)) is not nonzero exactly up to l = {l0}")
    parts.append(
        {
            "condition": 2,
            "l_independent": False,
            "threshold": l0,
            "witness_at_threshold": w2,
            "bound": "h2(T tensor Lambda^2 E) >= h0(Omega^1(-l)), nonzero iff l <= -2",
        }
    )

    # condition 3: E-dual(deg E) contains O(-l)(k'+l) = O(-3), whose h^2 is 1
    # independent of l
    w3 = line_dim(2, 2, -3)
    if w3 != 1:
        raise AssertionError("h2(O(-3)) = 1 failed")
    parts.append(
        {
            "condition": 3,
            "l_independent": True,
            "witness": w3,
            "bound": "h2(E-dual(deg E)) >= h2(O(-3)) = h0(O(0)) = 1",
        }
    )
    flags.append(
        "the naive h2(O(s)) rule (nonzero iff s < -3) misses the O(-3) witness of "
        "condition 3; the exact value h2(O(-3)) = 1 only strengthens the conclusion"
    )
    return ThresholdCertificate(k_prime, l0, parts, flags)
