"""Independent brute-force oracles used only by the tests, and inputs for them.

Everything here goes through ``per_naive`` and direct enumeration, never
through the code paths it is meant to check.
"""

import random
from itertools import combinations, permutations

from permrank import Matrix, mat, per_naive


def per_by_definition(m: Matrix):
    """Permanent as an explicit permutation sum, written out locally."""
    n = m.rows
    field = m.field
    total = field.scalar(1 if n == 0 else 0)
    for sigma in permutations(range(1, n + 1)):
        prod = field.scalar(1)
        for i in range(1, n + 1):
            prod = prod * m.entry(i, sigma[i - 1])
        total = total + prod
    return total


def first_witness_oracle(m: Matrix, size: int):
    """The first ``size``-square submatrix with nonzero permanent, or ``None``.

    Row index sets are enumerated in lexicographic order and, within each,
    column index sets too; returns ``(rows, cols, value)`` with 1-based
    indices and the permanent by ``per_naive``.
    """
    n = m.rows
    for rows in combinations(range(1, n + 1), size):
        for cols in combinations(range(1, n + 1), size):
            value = per_naive(m.submatrix(rows, cols))
            if not value.is_zero:
                return rows, cols, value
    return None


def prk_oracle(m: Matrix) -> int:
    """Permanental rank by full enumeration of square submatrices."""
    for k in range(m.rows, 0, -1):
        if first_witness_oracle(m, k) is not None:
            return k
    return 0


def witness_is_valid(m: Matrix, witness) -> bool:
    """Check all three witness invariants against per_naive enumeration."""
    r = witness.rank
    if len(witness.row_set) != r or len(witness.col_set) != r:
        return False
    if r == 0:
        if witness.row_set or witness.col_set:
            return False
        if witness.per_value != m.field.scalar(1):
            return False
    else:
        value = per_naive(m.submatrix(witness.row_set, witness.col_set))
        if value.is_zero or value != witness.per_value:
            return False
    return r == m.rows or first_witness_oracle(m, r + 1) is None


def cancelling_matrices(field, n: int, seed):
    """Matrices on which many minors vanish, some by cancellation.

    Entries are 0 or +-1 over Q and any residue over F_p, so Laplace sums
    cancel often.  Two each of: dense, sparse, dense with a zero row and a
    zero column, and a random k x k block padded with zeros whose rows and
    columns are then permuted.  Last, a matrix whose nonzero entries lie in
    k < n random columns, and its transpose.
    """
    rng = random.Random(seed)

    def entry(density):
        if rng.random() >= density:
            return 0
        return rng.choice((-1, 1)) if field.characteristic == 0 else rng.randrange(field.p)

    out = []
    for _ in range(2):
        out.append([[entry(1) for _ in range(n)] for _ in range(n)])
        out.append([[entry(0.5) for _ in range(n)] for _ in range(n)])
        i, j = rng.randrange(n), rng.randrange(n)
        out.append([[0 if r == i or c == j else entry(1) for c in range(n)] for r in range(n)])
        k = rng.randint(1, n)
        block = [[entry(1) if r < k and c < k else 0 for c in range(n)] for r in range(n)]
        rows, cols = rng.sample(range(n), n), rng.sample(range(n), n)
        out.append([[block[r][c] for c in cols] for r in rows])
    support = rng.sample(range(n), rng.randrange(n))
    supported = [[entry(1) if c in support else 0 for c in range(n)] for _ in range(n)]
    out += [supported, [list(col) for col in zip(*supported)]]
    return [mat(rows, field) for rows in out]
