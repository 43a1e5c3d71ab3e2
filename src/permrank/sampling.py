"""Seeded random generators for matrices, permutations, and bounded-rank inputs.

Everything takes an explicit ``random.Random`` so callers control
reproducibility.  Rational scalars are drawn as small fractions to keep
big-integer growth bounded.  A member of a supported subspace is drawn
straight from its matrix units, one scalar per unit, with no elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations as iter_permutations

from .fields import Field, PrimeField, Scalar
from .matrices import Matrix, Permutation, permutation_matrix, diagonal, zero_matrix
from .permanent import prk_decide_leq
from .subspace import COL, ROW, CanonicalSubspace


def random_scalar(rng: random.Random, field: Field, *, nonzero: bool = False) -> Scalar:
    if isinstance(field, PrimeField):
        lo = 1 if nonzero else 0
        return field(rng.randrange(lo, field.p))
    while True:
        value = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if not nonzero or value != 0:
            return field(value)


def random_matrix(rng: random.Random, n: int, field: Field, cols: int | None = None) -> Matrix:
    cols = n if cols is None else cols
    return Matrix(n, cols, [random_scalar(rng, field).value for _ in range(n * cols)], field)


def random_permutation(rng: random.Random, n: int) -> Permutation:
    return Permutation(rng.sample(range(1, n + 1), n))


def random_nonsingular_diagonal(rng: random.Random, n: int, field: Field) -> tuple:
    return tuple(random_scalar(rng, field, nonzero=True) for _ in range(n))


def random_invariance_op(rng: random.Random, a: Matrix) -> Matrix:
    """Apply one random rank-preserving operation.

    The operations are transposition, row/column permutation, and row/column
    rescaling by a nonsingular diagonal; each leaves the permanental rank
    unchanged.
    """
    n = a.rows
    field = a.field
    choice = rng.randrange(5)
    if choice == 0:
        return a.transpose()
    if choice == 1:
        return permutation_matrix(random_permutation(rng, n), field) @ a
    if choice == 2:
        return a @ permutation_matrix(random_permutation(rng, n), field)
    if choice == 3:
        return diagonal(random_nonsingular_diagonal(rng, n, field), field) @ a
    return a @ diagonal(random_nonsingular_diagonal(rng, n, field), field)


def _probe(n: int, field: Field, i, m, j, l, extra_rows, extra_cols) -> Matrix:
    """The signed block ``[[1, 1], [-1, 1]]`` on rows (i, m) and columns
    (j, l), plus unit entries at ``zip(extra_rows, extra_cols)``."""
    one = field.one
    vals = [field.zero] * (n * n)
    vals[(i - 1) * n + (j - 1)] = one
    vals[(i - 1) * n + (l - 1)] = one
    vals[(m - 1) * n + (j - 1)] = field.coerce(-1)
    vals[(m - 1) * n + (l - 1)] = one
    for r, c in zip(extra_rows, extra_cols):
        vals[(r - 1) * n + (c - 1)] = one
    return Matrix(n, n, vals, field)


def probe_family(n: int, k: int, field: Field):
    """Deterministic family of rank-k matrices built from a signed 2x2 block.

    Each member places the pattern ``[[1, 1], [-1, 1]]`` on rows (i, m) and
    columns (j, l) and pads with k-1 extra unit entries on disjoint rows and
    columns; its permanental rank is exactly k, yet it lies in no single
    row/column-supported subspace once k > 1.  These matrices separate
    entrywise scalings that do not factor into row and column weights, which
    makes them effective counterexample probes.
    """
    indices = range(1, n + 1)
    for i in indices:
        for m in indices:
            if m == i:
                continue
            row_rest = [r for r in indices if r not in (i, m)]
            for j in indices:
                for l in indices:
                    if l == j:
                        continue
                    col_rest = [c for c in indices if c not in (j, l)]
                    for extra_rows in combinations(row_rest, k - 1):
                        for extra_cols in iter_permutations(col_rest, k - 1):
                            yield _probe(n, field, i, m, j, l, extra_rows, extra_cols)


def _random_probe(rng: random.Random, n: int, k: int, field: Field) -> Matrix:
    """One random member of :func:`probe_family` without materializing it."""
    i, m = rng.sample(range(1, n + 1), 2)
    j, l = rng.sample(range(1, n + 1), 2)
    row_rest = [r for r in range(1, n + 1) if r not in (i, m)]
    col_rest = [c for c in range(1, n + 1) if c not in (j, l)]
    extra_rows = rng.sample(row_rest, k - 1)
    extra_cols = rng.sample(col_rest, k - 1)
    return _probe(n, field, i, m, j, l, extra_rows, extra_cols)


def random_supported_member(
    rng: random.Random, cs: CanonicalSubspace, n: int, field: Field
) -> Matrix:
    """A random member of the supported subspace ``cs`` of ``Mat_n``, passed
    through up to two random invariance operations (one coefficient per unit
    of :meth:`CanonicalSubspace.units` is drawn first, in that order)."""
    vals = [field.zero] * (n * n)
    for i, j in cs.units(n):
        vals[(i - 1) * n + (j - 1)] = random_scalar(rng, field).value
    member = Matrix(n, n, vals, field)
    for _ in range(rng.randrange(3)):
        member = random_invariance_op(rng, member)
    return member


def sample_bounded_prk(rng: random.Random, n: int, k: int, field: Field) -> Matrix:
    """One random matrix of permanental rank at most k.

    Members of a random row/column-supported subspace passed through random
    invariance operations do not exhaust the bounded-rank set (the probe
    family lies outside them for k > 1), so the sampler mixes three sources:
    subspace members, probe-family matrices with rescaled entries, and
    rejection-sampled dense matrices.
    """
    if k == 0:
        return zero_matrix(n, field)
    while True:
        strategy = rng.randrange(6)
        if strategy < 3:
            cs = CanonicalSubspace(rng.choice((ROW, COL)), rng.sample(range(1, n + 1), k))
            candidate = random_supported_member(rng, cs, n, field)
        elif strategy < 5 and n >= max(k + 1, 2):
            candidate = _random_probe(rng, n, k, field).scale(random_scalar(rng, field, nonzero=True))
            for _ in range(rng.randrange(2)):
                candidate = random_invariance_op(rng, candidate)
        else:
            candidate = random_matrix(rng, n, field)
        if prk_decide_leq(candidate, k):
            return candidate
