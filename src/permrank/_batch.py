"""Vectorized integer kernels for prime-field enumeration.

These accelerate exhaustive searches (all matrices over F_p, all members of a
finite span).  Arrays hold residues mod p and every reduction is integer
arithmetic, so the results are exact; the scalar code in
:mod:`permrank.permanent` remains the reference semantics and the tests check
the two against each other.

Matrices are flattened row-major.  Codes are base-p integers with the first
entry as the most significant digit, so ascending code order is lexicographic
order on entry tuples; "first counterexample" therefore means the
lexicographically least one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .errors import BudgetExceeded
from .fields import PrimeField
from .matrices import Matrix

#: Default ceiling on the number of enumerated matrices per exhaustive call.
DEFAULT_BUDGET = 1 << 26

_CHUNK = 1 << 16


def code_digits(codes: np.ndarray, width: int, p: int) -> np.ndarray:
    """Base-p digits (big-endian) of each code; shape ``(len(codes), width)``."""
    out = np.empty((len(codes), width), dtype=np.int16)
    rest = codes.astype(np.int64, copy=True)
    for pos in range(width - 1, -1, -1):
        out[:, pos] = rest % p
        rest //= p
    return out


def encode_digits(digits: np.ndarray, p: int) -> np.ndarray:
    width = digits.shape[1]
    powers = p ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return digits.astype(np.int64) @ powers


def iter_digit_chunks(width: int, p: int, chunk: int = _CHUNK):
    """Yield ``(start, digits)`` blocks covering all p**width codes in order."""
    total = p**width
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        codes = np.arange(start, stop, dtype=np.int64)
        yield start, code_digits(codes, width, p)
        start = stop


def batch_per(mats: np.ndarray, n: int, p: int, row_idx, col_idx) -> np.ndarray:
    """Permanent (mod p) of one submatrix across a batch of flattened matrices."""
    m = len(row_idx)
    count = mats.shape[0]
    if m == 0:
        return np.ones(count, dtype=np.int64)
    per = np.zeros(count, dtype=np.int64)
    for sigma in permutations(range(m)):
        prod = np.ones(count, dtype=np.int64)
        for r in range(m):
            prod = prod * mats[:, row_idx[r] * n + col_idx[sigma[r]]] % p
        per = (per + prod) % p
    return per


def batch_prk_leq(mats: np.ndarray, n: int, k: int, p: int) -> np.ndarray:
    """Boolean mask: which flattened matrices have permanental rank <= k."""
    if k >= n:
        return np.ones(mats.shape[0], dtype=bool)
    ok = np.ones(mats.shape[0], dtype=bool)
    m = k + 1
    for row_idx in combinations(range(n), m):
        for col_idx in combinations(range(n), m):
            ok &= batch_per(mats, n, p, row_idx, col_idx) == 0
    return ok


@lru_cache(maxsize=8)
def bounded_prk_table(n: int, p: int, k: int):
    """Precomputed data for the full matrix space of size n over F_p.

    Returns ``(mask, member_digits)`` where ``mask[code]`` says whether the
    matrix with that code has permanental rank <= k, and ``member_digits``
    enumerates exactly the matrices satisfying it, in ascending code order.
    Cached so repeated exhaustive checks share the work.
    """
    width = n * n
    total = p**width
    mask = np.empty(total, dtype=bool)
    for start, digits in iter_digit_chunks(width, p):
        mask[start : start + digits.shape[0]] = batch_prk_leq(digits, n, k, p)
    return mask, code_digits(np.flatnonzero(mask), width, p)


def check_enumeration_budget(count: int, budget: int | None):
    budget = DEFAULT_BUDGET if budget is None else budget
    if count > budget:
        raise BudgetExceeded(f"enumeration of {count} cases exceeds budget {budget}")


def matrix_ints(m: Matrix) -> np.ndarray:
    """Flattened int64 residues of a prime-field matrix (row-major)."""
    assert isinstance(m.field, PrimeField)
    return np.array(m.data, dtype=np.int64)


def ints_to_matrix(flat, n: int, field: PrimeField) -> Matrix:
    return Matrix(n, n, [int(v) for v in flat], field)
