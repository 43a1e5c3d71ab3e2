"""``per_fast`` and ``prk`` witnesses against sympy's ``Matrix.per()``.

sympy computes permanents on its own exact integers and rationals, so it is
an oracle independent of permrank's integer kernel and of ``per_naive``.
Over F_p the residues are read as integers, sympy's permanent is taken over
the integers and then reduced mod p.
"""

import random
from fractions import Fraction

import pytest
import sympy

from permrank import QQ, Matrix, PrimeField, mat, per_fast, prk

from oracle import cancelling_matrices

FIELDS = {"Q": QQ, "F3": PrimeField(3), "F5": PrimeField(5), "Fw": PrimeField(2**31 - 1)}


def sympy_per(a: Matrix):
    """The permanent of ``a`` by sympy, as a value of ``a``'s field."""
    value = sympy.Matrix(a.raw_rows()).per()
    if a.field == QQ:
        return a.field(Fraction(int(value.p), int(value.q)))
    return a.field(int(value))


def _entry(rng, field, i):
    if field == QQ:
        # every row draws its denominators from its own set
        return Fraction(rng.randint(-9, 9), rng.choice((1, i + 2, 2 * i + 5)))
    return rng.randrange(field.p)


def dense_matrices(tag, n):
    """A dense matrix, the same with a zero row, and one with a repeated row."""
    field = FIELDS[tag]
    rng = random.Random(f"{tag}:{n}")
    rows = [[_entry(rng, field, i) for _ in range(n)] for i in range(n)]
    out = [mat(rows, field)]
    if n >= 2:
        zero_row = [list(r) for r in rows]
        zero_row[rng.randrange(n)] = [0] * n
        out.append(mat(zero_row, field))
        repeated = [list(r) for r in rows]
        repeated[1] = [-v for v in repeated[0]]
        out.append(mat(repeated, field))
    return out


def low_rank_matrix(tag, n, k):
    """Only k rows are nonzero; rows and columns are then permuted."""
    field = FIELDS[tag]
    rng = random.Random(f"{tag}:{n}:{k}")
    rows = [[_entry(rng, field, i) for _ in range(n)] for i in range(k)]
    rows += [[0] * n for _ in range(n - k)]
    rng.shuffle(rows)
    cols = rng.sample(range(n), n)
    return mat([[r[j] for j in cols] for r in rows], field)


@pytest.mark.parametrize("tag", sorted(FIELDS))
@pytest.mark.parametrize("n", range(1, 9))
def test_per_fast_matches_sympy(tag, n):
    for a in dense_matrices(tag, n):
        assert per_fast(a) == sympy_per(a)


@pytest.mark.parametrize("tag", sorted(FIELDS))
def test_empty_matrix_has_permanent_one(tag):
    # sympy gives 0 for the 0x0 matrix; the empty product is 1
    assert per_fast(Matrix(0, 0, [], FIELDS[tag])) == 1


@pytest.mark.parametrize("tag", sorted(FIELDS))
@pytest.mark.parametrize("n", range(2, 8))
def test_prk_witness_permanent_matches_sympy(tag, n):
    cases = dense_matrices(tag, n) + [low_rank_matrix(tag, n, k) for k in range(1, n)]
    if tag != "Fw":
        # sparse and cancelling inputs, as in the first-witness oracle test
        cases += cancelling_matrices(FIELDS[tag], n, f"walk:{tag}:{n}")
    for a in cases:
        w = prk(a)
        if w.rank == 0:
            assert not any(v for row in a.raw_rows() for v in row)
            continue
        value = sympy_per(a.submatrix(w.row_set, w.col_set))
        assert value == w.per_value
        assert not value.is_zero
