"""Exact Gaussian elimination on lists of raw field values.

Internal helper module: callers pass vectors as lists (or tuples) of raw
values together with the owning :class:`~permrank.fields.Field`.  Everything
returns fresh lists; inputs are never mutated.
"""

from __future__ import annotations

from .fields import Field


def rref(vectors, field: Field):
    """Reduced row-echelon form.

    Returns ``(rows, pivots)`` where ``rows`` holds only the nonzero reduced
    rows and ``pivots`` the corresponding pivot column indices (0-based).
    The output is a canonical form of the row space: two sets of vectors span
    the same space exactly when their reduced rows are equal.
    """
    rows = [list(v) for v in vectors]
    if not rows:
        return [], []
    width = len(rows[0])
    zero = field.zero
    sub, mul, div = field.sub, field.mul, field.div
    pivots = []
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        if pv != field.one:
            inv = field.inv(pv)
            rows[r] = [mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i == r:
                continue
            factor = rows[i][col]
            if factor != zero:
                rows[i] = [sub(a, mul(factor, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(vectors, field: Field) -> int:
    return len(rref(vectors, field)[0])


def in_row_space(vector, basis_vectors, field: Field) -> bool:
    stacked = list(basis_vectors) + [vector]
    return rank(stacked, field) == rank(basis_vectors, field)


def solve(matrix_rows, rhs, field: Field):
    """One exact solution of ``A x = rhs``, or ``None`` if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    width = len(matrix_rows[0]) if matrix_rows else 0
    aug = [list(row) + [b] for row, b in zip(matrix_rows, rhs)]
    reduced, pivots = rref(aug, field)
    zero = field.zero
    solution = [zero] * width
    for row, col in zip(reduced, pivots):
        if col == width:
            return None
        solution[col] = row[width]
    return solution


def invert(matrix_rows, field: Field):
    """Exact inverse of a square matrix given as rows, or ``None`` if singular."""
    n = len(matrix_rows)
    zero, one = field.zero, field.one
    aug = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(matrix_rows)
    ]
    reduced, pivots = rref(aug, field)
    if len(reduced) < n or pivots != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def intersection(u_vectors, v_vectors, field: Field):
    """Basis of the intersection of two row spaces (Zassenhaus block trick).

    Rows ``[u | u]`` and ``[v | 0]`` are reduced together; reduced rows whose
    left half vanished carry an intersection vector in their right half.
    """
    if not u_vectors or not v_vectors:
        return []
    width = len(u_vectors[0])
    zero = field.zero
    block = [list(u) + list(u) for u in u_vectors]
    block += [list(v) + [zero] * width for v in v_vectors]
    reduced, _ = rref(block, field)
    out = []
    for row in reduced:
        if all(v == zero for v in row[:width]):
            right = row[width:]
            if any(v != zero for v in right):
                out.append(right)
    return rref(out, field)[0]
