"""Permanents and permanental rank with certifying witnesses.

``per_naive`` is the definitional sum over permutations and doubles as the
independent oracle.  Every other permanent goes through one integer kernel,
``_per_int``: Glynn's formula in Gray-code order (2^(n-1) steps of O(n)
each) on Python ints, exact over Q and reduced mod p over F_p.  Matrices are
lifted to ints once per call (``_lift``); ``per_fast``, ``prk`` and
``prk_decide_leq`` run on the lifted rows and divide a reported value back.

``prk`` and ``prk_decide_leq`` ask, for a size m, for the first m-square
submatrix with nonzero permanent (``_first_nonzero_minor``).  A matrix with
fewer than m nonzero rows, or fewer than m nonzero columns, has none, and is
answered at once; a matrix supported on a few columns costs no more than its
transpose.  Otherwise it probes the leading m x m minor with the kernel,
which at m = n is the one full-size evaluation, and then walks row sets depth
first in lexicographic order.
The walk keeps the nonzero minors of each row set by column set, extends
them one row at a time by Laplace expansion, and prunes a row set with no
nonzero minor, so a matrix whose minors are mostly zero costs little.  The
witness is the same either way: the lexicographically first row set with a
nonzero m-minor, and the first column set within it.

One Laplace step, ``_laplace_step``, serves both this walk and the
enumeration tables of :mod:`permrank._batch`: minors are keyed by column bit
masks, and their values are Python ints here and broadcast NumPy arrays
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm, prod
from operator import add, sub

from .errors import InvalidRange, NotSquare, TooLarge
from .fields import Scalar
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


def _per_int(rows, p: int) -> int:
    """Permanent of a square matrix of ints, exactly (``p == 0``) or mod ``p``.

    Orders 0 to 3 are closed forms.  Above that, Glynn's formula (Eur. J.
    Combin. 31, 2010): 2^(n-1) per(A) is the sum, over signs d with d_1 = +1,
    of (d_1 ... d_n) times the product of the column sums of d_i * (row i).
    The signs are visited in Gray-code order, so each of the 2^(n-1) - 1 steps
    flips one sign and moves every column sum by 2 * (row i).  The sum is an
    identity over the integers, so the total is divided by 2^(n-1) exactly
    over Q, or multiplied by its inverse mod an odd prime ``p``.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        value = rows[0][0]
    elif n == 2:
        (a, b), (c, d) = rows
        value = a * d + b * c
    elif n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        value = a * (e * i + f * h) + b * (d * i + f * g) + c * (d * h + e * g)
    else:
        sums = [sum(col) for col in zip(*rows)]
        twice = [[2 * v for v in row] for row in rows]
        value = prod(sums)
        gray = 0
        for k in range(1, 1 << (n - 1)):
            low = k & -k
            gray ^= low
            step = twice[low.bit_length()]
            sums = list(map(sub if gray & low else add, sums, step))
            # one sign flips per step, so the sign of the term alternates
            if k & 1:
                value -= prod(sums)
            else:
                value += prod(sums)
        if not p:
            return value >> (n - 1)
        value *= pow(2, 1 - n, p)
    return value % p if p else value


def _lift(a: Matrix):
    """Rows of ``a`` as ints, and the factor to divide a permanent back by.

    Over F_p the residues already are ints and every factor is 1.  Over Q,
    row i is scaled by d_i, the lcm of its denominators, so the minor on a
    row set R is ``_per_int`` of the scaled rows divided by the product of
    d_i over R: zero tests are unchanged and only a reported value is divided.
    """
    rows = a.raw_rows()
    if a.field.characteristic:
        return rows, [1] * len(rows)
    scales = [lcm(*(v.denominator for v in row)) for row in rows]
    lifted = [[v.numerator * (d // v.denominator) for v in row] for row, d in zip(rows, scales)]
    return lifted, scales


def _value(a: Matrix, per: int, scales, row_idx) -> Scalar:
    """The permanent of ``a``'s minor on ``row_idx`` from its lifted ``per``."""
    if a.field.characteristic:
        return Scalar(per, a.field)
    return Scalar(Fraction(per, prod(scales[i] for i in row_idx)), a.field)


def per_fast(a: Matrix, *, max_n: int = PER_FAST_MAX) -> Scalar:
    """Permanent by Glynn's formula on ints; same value as :func:`per_naive`."""
    n = _require_square(a)
    if n > max_n:
        raise TooLarge(f"n={n} exceeds the 2^n guard {max_n}")
    rows, scales = _lift(a)
    return _value(a, _per_int(rows, a.field.characteristic), scales, range(n))


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


def _first_nonzero_minor(rows, p: int, m: int):
    """First ``m``-square submatrix with nonzero permanent, or ``None``.

    ``rows`` are lifted ints (see :func:`_lift`).  The witness is the first in
    lexicographic order of row index sets and, within that row set, of column
    index sets; returns ``(row_idx, col_idx, per)`` with 0-based indices and
    the lifted permanent.  Returns ``None`` at once when fewer than ``m``
    rows or fewer than ``m`` columns are nonzero, since every ``m``-square
    submatrix then has a zero row or column.  Otherwise the leading minor is
    probed, then row sets are walked as the module docstring describes.  A
    row set R whose |R|-square minors all vanish is pruned: by Laplace
    expansion along R, so does every minor on a row set containing R.
    """
    nonzero = [i for i, row in enumerate(rows) if any(row)]
    if len(nonzero) < m or sum(map(any, zip(*rows))) < m:
        return None
    value = _per_int([row[:m] for row in rows[:m]], p)
    if value:
        return tuple(range(m)), tuple(range(m)), value
    if m == len(rows):
        return None  # the probe was the only m-square submatrix
    # each nonzero row with its nonzero entries as (column bit, value) pairs
    live = [(i, [(1 << j, v) for j, v in enumerate(rows[i]) if v]) for i in nonzero]

    def walk(picked, minors, start):
        if len(picked) == m:
            cols = min(minors, key=_bits)
            return tuple(picked), _bits(cols), minors[cols]
        # stop early enough that m - len(picked) live rows remain
        for t in range(start, len(live) - m + len(picked) + 1):
            i, entries = live[t]
            child = {cols: per for cols, per in _laplace_step(minors, entries, p).items() if per}
            if child:
                found = walk(picked + [i], child, t + 1)
                if found:
                    return found
        return None

    return walk([], {0: 1}, 0)


def _laplace_step(minors: dict, entries, p: int) -> dict:
    """Grow the minors of a row set by one row, by Laplace expansion along it.

    ``minors`` maps a column set (a bit mask) to the permanent, mod p (exact
    when p = 0), of the row set's minor on those columns; ``{0: 1}`` is the
    empty row set.  ``entries`` lists the new row as ``(column bit, value)``
    pairs; columns left out count as zero.  Values are ints or arrays that
    broadcast together.  Returns the same map for one more row: per(S) is the
    sum over j in S of per(S - j) * a_j, accumulated in place and reduced.
    """
    out = {}
    for cols, per in minors.items():
        for bit, v in entries:
            if not cols & bit:
                key = cols | bit
                if key in out:
                    out[key] += per * v
                else:
                    out[key] = per * v
    if p:
        for key in out:
            out[key] %= p
    return out


def _bits(mask: int) -> tuple:
    """The 0-based positions of the set bits of ``mask``, in increasing order.

    Column sets are compared by this tuple, not by mask value: {0, 3} has the
    larger mask but comes first.
    """
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def prk(a: Matrix) -> PrkWitness:
    """Permanental rank with a deterministic witness.

    Searches sizes in descending order.  At each size it probes the leading
    minor, then walks row sets depth first in lexicographic order, pruning
    row sets whose minors all vanish.  The witness is the lexicographically
    first row set with a nonzero minor of the largest size, and the first
    column set within it, so it is reproducible.  Raises :class:`TooLarge`
    when ``n`` exceeds the 2^n guard of :func:`per_fast`.
    """
    n = _require_square(a)
    if n > PER_FAST_MAX:
        raise TooLarge(f"n={n} exceeds the 2^n guard {PER_FAST_MAX}")
    rows, scales = _lift(a)
    for k in range(n, 0, -1):
        found = _first_nonzero_minor(rows, a.field.characteristic, k)
        if found is not None:
            row_idx, col_idx, per = found
            return PrkWitness(
                rank=k,
                row_set=tuple(i + 1 for i in row_idx),
                col_set=tuple(j + 1 for j in col_idx),
                per_value=_value(a, per, scales, row_idx),
            )
    return PrkWitness(rank=0, row_set=(), col_set=(), per_value=Scalar(a.field.one, a.field))


def prk_decide_leq(a: Matrix, k: int) -> bool:
    """True exactly when every ``(k+1)``-square submatrix has zero permanent.

    Runs the search of :func:`prk` at size ``k+1`` only: the leading minor
    first, then the pruned walk over row sets, stopping at the first nonzero
    permanent.  This is the hot-loop membership test for the bounded-rank
    sets.  Raises :class:`TooLarge` when ``k+1`` exceeds the 2^n guard.
    """
    n = _require_square(a)
    if not (0 <= k <= n):
        raise InvalidRange(f"k={k} outside 0..{n}")
    if k >= n:
        return True
    if k + 1 > PER_FAST_MAX:
        raise TooLarge(f"k+1={k + 1} exceeds the 2^n guard {PER_FAST_MAX}")
    rows, _ = _lift(a)
    return _first_nonzero_minor(rows, a.field.characteristic, k + 1) is None
