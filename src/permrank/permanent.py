"""Permanents and permanental rank with certifying witnesses.

``per_naive`` is the definitional sum over permutations and doubles as the
independent oracle; ``per_fast`` is an inclusion-exclusion evaluation
(O(2^n * n), Gray-code order) that agrees with it on every square matrix.
``prk`` searches square submatrices for the largest one with nonzero
permanent and reports the witnessing index sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import InvalidRange, NotSquare, TooLarge
from .fields import Field, Scalar
from .matrices import Matrix

#: Hard guard for the factorial-time oracle.
PER_NAIVE_MAX = 10
#: Default guard for the 2^n evaluation; override per call when needed.
PER_FAST_MAX = 16


def _require_square(a: Matrix) -> int:
    if not a.is_square:
        raise NotSquare(f"permanent needs a square matrix, got {a.rows}x{a.cols}")
    return a.rows


def per_naive(a: Matrix, *, max_n: int = PER_NAIVE_MAX) -> Scalar:
    """Permanent as the plain sum over all permutations.

    The permanent of the empty (0x0) matrix is 1.
    """
    n = _require_square(a)
    if n > max_n:
        raise TooLarge(f"n={n} exceeds the factorial guard {max_n}")
    field = a.field
    rows = a.raw_rows()
    zero = field.zero
    add, mul = field.add, field.mul
    total = zero  # the empty permutation contributes the empty product 1
    for sigma in permutations(range(n)):
        prod = field.one
        for i in range(n):
            prod = mul(prod, rows[i][sigma[i]])
            if prod == zero:
                break
        total = add(total, prod)
    return Scalar(total, field)


def _per_fast_raw(rows, field: Field):
    """Inclusion-exclusion permanent on raw row lists."""
    n = len(rows)
    if n == 0:
        return field.one
    add, sub, mul = field.add, field.sub, field.mul
    zero = field.zero
    total = zero
    sums = [zero] * n
    gray = 0
    for s in range(1, 1 << n):
        low = s & -s
        col = low.bit_length() - 1
        gray ^= low
        if gray & low:
            for r in range(n):
                sums[r] = add(sums[r], rows[r][col])
        else:
            for r in range(n):
                sums[r] = sub(sums[r], rows[r][col])
        prod = sums[0]
        if prod != zero:
            for r in range(1, n):
                prod = mul(prod, sums[r])
                if prod == zero:
                    break
        if prod != zero:
            if (n - gray.bit_count()) % 2:
                total = sub(total, prod)
            else:
                total = add(total, prod)
    return total


def per_fast(a: Matrix, *, max_n: int = PER_FAST_MAX) -> Scalar:
    """Permanent via inclusion-exclusion; same value as :func:`per_naive`."""
    n = _require_square(a)
    if n > max_n:
        raise TooLarge(f"n={n} exceeds the 2^n guard {max_n}")
    return Scalar(_per_fast_raw(a.raw_rows(), a.field), a.field)


@dataclass(frozen=True)
class PrkWitness:
    """Permanental rank together with certifying row/column index sets.

    ``per_value`` is the (nonzero) permanent of the ``rank x rank`` submatrix
    on ``row_set`` x ``col_set``; for rank 0 both sets are empty and the value
    is 1 by the empty-product convention.
    """

    rank: int
    row_set: tuple
    col_set: tuple
    per_value: Scalar


def _first_nonzero_minor(rows, field: Field, m: int):
    """First ``m``-square submatrix with nonzero permanent, or ``None``.

    Row index sets are taken in lexicographic order and, within each, column
    index sets too; returns ``(row_idx, col_idx, value)`` with 0-based indices.
    """
    n = len(rows)
    zero = field.zero
    for row_idx in combinations(range(n), m):
        picked = [rows[i] for i in row_idx]
        for col_idx in combinations(range(n), m):
            value = _per_fast_raw([[r[j] for j in col_idx] for r in picked], field)
            if value != zero:
                return row_idx, col_idx, value
    return None


def prk(a: Matrix) -> PrkWitness:
    """Permanental rank with a deterministic witness.

    Searches sizes in descending order and index-set pairs in lexicographic
    order, returning the first submatrix found with nonzero permanent, so the
    reported witness is reproducible.  Raises :class:`TooLarge` when ``n``
    exceeds the 2^n guard of :func:`per_fast`.
    """
    n = _require_square(a)
    if n > PER_FAST_MAX:
        raise TooLarge(f"n={n} exceeds the 2^n guard {PER_FAST_MAX}")
    field = a.field
    rows = a.raw_rows()
    for k in range(n, 0, -1):
        found = _first_nonzero_minor(rows, field, k)
        if found is not None:
            row_idx, col_idx, value = found
            return PrkWitness(
                rank=k,
                row_set=tuple(i + 1 for i in row_idx),
                col_set=tuple(j + 1 for j in col_idx),
                per_value=Scalar(value, field),
            )
    return PrkWitness(rank=0, row_set=(), col_set=(), per_value=Scalar(field.one, field))


def prk_decide_leq(a: Matrix, k: int) -> bool:
    """True exactly when every ``(k+1)``-square submatrix has zero permanent.

    Short-circuits on the first nonzero permanent; this is the hot-loop
    membership test for the bounded-rank sets.  Raises :class:`TooLarge`
    when ``k+1`` exceeds the 2^n guard.
    """
    n = _require_square(a)
    if not (0 <= k <= n):
        raise InvalidRange(f"k={k} outside 0..{n}")
    if k >= n:
        return True
    if k + 1 > PER_FAST_MAX:
        raise TooLarge(f"k+1={k + 1} exceeds the 2^n guard {PER_FAST_MAX}")
    return _first_nonzero_minor(a.raw_rows(), a.field, k + 1) is None
