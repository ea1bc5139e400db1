"""Closed-form sheaf cohomology dimensions on projective space.

The central entry point is :func:`bott_dim`, the four-case closed formula for
h^q(P^n, Omega^p(k)).  Twisted tangent dimensions reduce to it through
T = Omega^(n-1)(n+1): Omega^1(3) on P^2 and O(2) on P^1.  Dimensions of
split-bundle constructions are sums over line-bundle summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb


def binom(a: int, b: int) -> int:
    """Binomial with C(a, b) = 0 whenever b < 0 or a < b."""
    if b < 0 or a < b:
        return 0
    return comb(a, b)


def bott_dim(n: int, p: int, q: int, k: int) -> int:
    """h^q(P^n, Omega^p(k)), evaluated exactly."""
    if not (0 <= p <= n and 0 <= q <= n):
        raise ValueError(f"bott_dim needs 0 <= p, q <= n, got n={n}, p={p}, q={q}")
    if q == 0 and k > p:
        return binom(k + n - p, k) * binom(k - 1, p)
    if p == q and k == 0:
        return 1
    if q == n and k < p - n:
        return binom(-k + p, -k) * binom(-k - 1, n - p)
    return 0


def line_dim(n: int, q: int, k: int) -> int:
    """h^q(P^n, O(k))."""
    return bott_dim(n, 0, q, k)


def serre_dual_dim(n: int, p: int, q: int, k: int) -> int:
    """h^q(Omega^p(k)) computed from the dual side, h^(n-q)(Omega^(n-p)(-k))."""
    return bott_dim(n, n - p, n - q, -k)


def tangent_dim(n: int, q: int, s: int) -> int:
    """h^q(P^n, T(s)), by T = Omega^(n-1)(n+1): Omega^1(3) on P^2, O(2) on P^1."""
    if n not in (1, 2):
        raise ValueError("only n in {1, 2} is supported")
    return bott_dim(n, n - 1, q, s + n + 1)


@dataclass(frozen=True)
class SplitBundleDegrees:
    """Degrees (k_1, ..., k_rank) of a split bundle, rank = length."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.degrees) < 1:
            raise ValueError("rank must be at least 1")
        object.__setattr__(self, "degrees", tuple(int(k) for k in self.degrees))

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def total(self) -> int:
        return sum(self.degrees)

    def wedge_summands(self, m: int) -> list[tuple[tuple[int, ...], int]]:
        """(index subset, twist) for each summand of the m-th wedge power;
        none below 0 or above the rank, where the power vanishes."""
        if not 0 <= m <= self.rank:
            return []
        return [
            (subset, sum(self.degrees[i - 1] for i in subset))
            for subset in combinations(range(1, self.rank + 1), m)
        ]

    def dual_summands(self) -> list[tuple[int, int]]:
        """(index, twist) for each summand of the dual."""
        return [(a + 1, -k) for a, k in enumerate(self.degrees)]


def split_sheaf_dims(
    degrees: SplitBundleDegrees, target: str, q: int, n: int = 2, m: int | None = None
):
    """Dimension of h^q for a split-bundle construction, with breakdown.

    target is "tangent_wedge" (T tensor Lambda^m E) or "wedge_dual"
    (Lambda^m E tensor E-dual); at m = rank the latter is E-dual twisted by
    O(deg E).  Returns (total, breakdown) where the breakdown lists (label,
    twist, dim) per line-bundle summand.
    """
    if target not in ("tangent_wedge", "wedge_dual"):
        raise ValueError(f"unknown target {target!r}")
    if m is None:
        raise ValueError("wedge degree m required")
    breakdown: list[tuple[str, int, int]] = []
    if target == "tangent_wedge":
        for subset, twist in degrees.wedge_summands(m):
            d = tangent_dim(n, q, twist)
            breakdown.append((f"T⊗∧E{subset}", twist, d))
    else:
        for subset, wtwist in degrees.wedge_summands(m):
            for a, dtw in degrees.dual_summands():
                twist = wtwist + dtw
                d = line_dim(n, q, twist)
                breakdown.append((f"∧E{subset}⊗E^{a}", twist, d))
    return sum(d for _, _, d in breakdown), breakdown


def filtered_tangent_dims(
    degrees: SplitBundleDegrees, level: int, q: int, n: int = 2
) -> tuple[int, int]:
    """Bounds [lower, upper] on h^q of the level-``level`` filtered tangent piece.

    The piece sits in a short exact sequence with sub Lambda^(level+1)E tensor
    E-dual and quotient T tensor Lambda^level E; the bounds come from the long
    exact cohomology sequence and are exact when the relevant flanks vanish.
    """
    if not -1 <= level <= degrees.rank:
        raise ValueError("level out of range")

    def sub_dim(qq: int) -> int:
        if qq < 0 or qq > n:
            return 0
        return split_sheaf_dims(degrees, "wedge_dual", qq, n, m=level + 1)[0]

    def quot_dim(qq: int) -> int:
        if qq < 0 or qq > n:
            return 0
        return split_sheaf_dims(degrees, "tangent_wedge", qq, n, m=level)[0]

    upper = sub_dim(q) + quot_dim(q)
    lower = max(0, sub_dim(q) - quot_dim(q - 1), quot_dim(q) - sub_dim(q + 1))
    return lower, upper
