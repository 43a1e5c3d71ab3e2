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
    sub, mul = field.sub, field.mul
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


def intersection(u_vectors, v_vectors, field: Field):
    """Reduced basis of the intersection of two row spaces (Zassenhaus).

    Rows ``[u | u]`` and ``[v | 0]`` are reduced together.  The right halves
    of the reduced rows whose left half vanished (pivot in the right half)
    are already the reduced row-echelon form of the intersection, and depend
    only on the two row spaces, not on the spanning sets given.
    """
    if not u_vectors or not v_vectors:
        return []
    width = len(u_vectors[0])
    zero = field.zero
    block = [list(u) + list(u) for u in u_vectors]
    block += [list(v) + [zero] * width for v in v_vectors]
    reduced, pivots = rref(block, field)
    return [row[width:] for row, col in zip(reduced, pivots) if col >= width]
