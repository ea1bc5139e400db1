"""Dense exact linear algebra over Fraction for the small coboundary blocks.

Entries may be ints or Fractions; ``rref`` converts them to Fraction on
entry, so its divisions stay exact.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form and pivot columns, computed exactly."""
    m = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(mat: Matrix, ncols: int) -> list[list[Fraction]]:
    """Basis of the null space of ``mat`` (ncols unknowns)."""
    red, pivots = rref(mat)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][j]
        basis.append(v)
    return basis

