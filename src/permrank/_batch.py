"""Vectorized integer kernels for prime-field enumeration.

These accelerate exhaustive searches (all matrices over F_p, all members of a
finite span).  Arrays hold residues mod p and every reduction is integer
arithmetic, so the results are exact.  The reference semantics is the
definitional permanent, ``per_naive`` on every minor (``tests/oracle.py``);
the tests check these kernels against it and against the scalar path.

Matrices are flattened row-major.  Codes are base-p integers with the first
entry as the most significant digit, so ascending code order is lexicographic
order on entry tuples; "first counterexample" therefore means the
lexicographically least one.

One Laplace step serves every enumeration and the scalar ``prk`` walk:
:func:`permrank.permanent._laplace_step` grows the permanents of all minors
on a row set by one row, mod p, here on arrays that broadcast, each row
given as dense ``(column bit, entry)`` pairs.  :func:`batch_prk_leq` runs it
on a batch of matrices; :func:`bounded_prk_table` runs it once on the p**n
row codes laid out on separate axes, because prk <= k is a condition on the
rows taken k+1 at a time.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded
from .fields import PrimeField
from .matrices import Matrix
from .permanent import _laplace_step

#: Default ceiling on the number of enumerated matrices per exhaustive call.
DEFAULT_BUDGET = 1 << 26


def code_digits(codes: np.ndarray, width: int, p: int) -> np.ndarray:
    """Base-p digits (big-endian) of each code; shape ``(len(codes), width)``."""
    out = np.empty((len(codes), width), dtype=np.int16 if p <= 1 << 15 else np.int64)
    rest = codes.astype(np.int64, copy=True)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = rest % p
        rest //= p
    return out


def encode_digits(digits: np.ndarray, p: int) -> np.ndarray:
    width = digits.shape[1]
    powers = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return digits.astype(np.int64) @ powers


def _minor_dtype(n: int, p: int):
    """The narrowest type in which a sum of n products of residues fits.

    int16 or int64; past int64, Python ints in an object array.
    """
    bound = n * (p - 1) ** 2
    if bound < 1 << 15:
        return np.int16
    return np.int64 if bound < 1 << 63 else object


def _dense(row) -> list:
    """Every entry of ``row`` as a ``(column bit, value)`` pair."""
    return [(1 << j, v) for j, v in enumerate(row)]


def _all_vanish(minors: dict) -> np.ndarray:
    return np.logical_and.reduce([v == 0 for v in minors.values()])


def batch_prk_leq(mats: np.ndarray, n: int, k: int, p: int) -> np.ndarray:
    """Boolean mask: which flattened matrices have permanental rank <= k.

    Walks the (k+1)-row sets depth first in lexicographic order, so row sets
    that share a prefix share its minors.
    """
    count = mats.shape[0]
    ok = np.ones(count, dtype=bool)
    m = k + 1
    if m > n:
        return ok
    # rows[r] is row r of every matrix in the batch, as dense entries
    rows = mats.reshape(count, n, n).transpose(1, 2, 0).astype(_minor_dtype(n, p))
    rows = [_dense(row) for row in rows]

    def walk(minors, start, depth):
        if depth == m:
            np.logical_and(ok, _all_vanish(minors), out=ok)
            return
        for r in range(start, n - m + depth + 1):
            walk(_laplace_step(minors, rows[r], p), r + 1, depth + 1)

    walk({0: 1}, 0, 0)
    return ok


def _bounded_mask(n: int, p: int, m: int) -> np.ndarray:
    """Whether each n x n matrix over F_p has only vanishing m-minors.

    The mask is viewed on n axes, one per row code (P = p**n of them); codes
    are row-major, so it reshapes to the flat code order.  Whether the
    m-minors on a row set R all vanish depends only on the rows in R.  So the
    kernel runs once, on the row codes broadcast on m axes, and the mask is
    the AND of that table placed on the axes of each row set R.  Kept apart
    from :func:`bounded_prk_table` so that the kernel's arrays are freed
    before the member list is built, which keeps them out of the peak.
    """
    P = p**n
    mask = np.ones((P,) * n, dtype=bool)
    if m > n:
        return mask
    columns = code_digits(np.arange(P), n, p).T.astype(_minor_dtype(n, p))
    minors = {0: 1}
    for t in range(m):
        # the t-th row of the row set varies along axis t
        row = columns.reshape((n,) + (1,) * t + (P,) + (1,) * (m - 1 - t))
        minors = _laplace_step(minors, _dense(row), p)
    ok = _all_vanish(minors)
    for row_set in combinations(range(n), m):
        mask &= ok.reshape([P if r in row_set else 1 for r in range(n)])
    return mask


@lru_cache(maxsize=8)
def bounded_prk_table(n: int, p: int, k: int):
    """Precomputed data for the full matrix space of size n over F_p.

    Returns ``(mask, member_digits)`` where ``mask[code]`` says whether the
    matrix with that code has permanental rank <= k, and ``member_digits``
    enumerates exactly the matrices satisfying it, in ascending code order.
    Cached so repeated exhaustive checks share the work.
    """
    mask = _bounded_mask(n, p, k + 1).reshape(-1)
    return mask, code_digits(np.flatnonzero(mask), n * n, p)


def check_enumeration_budget(count: int, budget: int | None):
    budget = DEFAULT_BUDGET if budget is None else budget
    if count > budget:
        raise BudgetExceeded(f"enumeration of {count} cases exceeds budget {budget}")


def ints_to_matrix(flat, n: int, field: PrimeField) -> Matrix:
    return Matrix(n, n, [int(v) for v in flat], field)
