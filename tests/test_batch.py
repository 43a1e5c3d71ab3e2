"""The integer enumeration kernels must agree with the scalar reference path."""

import random

import numpy as np
import pytest

from permrank import Matrix, PrimeField, per_fast, prk_decide_leq
from permrank._batch import (
    batch_per,
    batch_prk_leq,
    bounded_prk_table,
    code_digits,
    encode_digits,
    matrix_ints,
)


@pytest.mark.parametrize("p", [3, 5])
def test_batch_prk_mask_matches_scalar(p):
    field = PrimeField(p)
    rng = random.Random(p)
    n = 3
    rows = [[rng.randrange(p) for _ in range(n * n)] for _ in range(300)]
    mats = np.array(rows, dtype=np.int64)
    for k in (1, 2):
        mask = batch_prk_leq(mats, n, k, p)
        for row, ok in zip(rows, mask):
            assert prk_decide_leq(Matrix(n, n, row, field), k) == bool(ok)


def test_batch_per_matches_scalar():
    p, n = 5, 4
    field = PrimeField(p)
    rng = random.Random(9)
    rows = [[rng.randrange(p) for _ in range(n * n)] for _ in range(100)]
    mats = np.array(rows, dtype=np.int64)
    idx = (0, 2, 3)
    values = batch_per(mats, n, p, idx, idx)
    one_based = tuple(i + 1 for i in idx)
    for row, value in zip(rows, values):
        m = Matrix(n, n, row, field)
        assert per_fast(m.submatrix(one_based, one_based)) == field(int(value))


def test_code_round_trip():
    codes = np.arange(0, 3**5, dtype=np.int64)
    digits = code_digits(codes, 5, 3)
    assert (encode_digits(digits, 3) == codes).all()
    # big-endian: ascending codes are lexicographic on digit tuples
    assert digits[0].tolist() == [0, 0, 0, 0, 0]
    assert digits[1].tolist() == [0, 0, 0, 0, 1]
    assert digits[3].tolist() == [0, 0, 0, 1, 0]


def test_bounded_table_counts_match_scalar_on_sample():
    mask, member_digits = bounded_prk_table(3, 3, 2)
    assert mask.shape[0] == 3**9
    # the members are exactly the masked codes, in ascending code order
    assert encode_digits(member_digits, 3).tolist() == np.flatnonzero(mask).tolist()
    # rank <= 2 for a 3x3 matrix just means the full permanent vanishes
    field = PrimeField(3)
    rng = random.Random(1)
    for _ in range(200):
        code = rng.randrange(3**9)
        digits = code_digits(np.array([code]), 9, 3)[0]
        m = Matrix(3, 3, [int(v) for v in digits], field)
        assert bool(mask[code]) == per_fast(m).is_zero


def test_matrix_ints_round_trip():
    field = PrimeField(7)
    m = Matrix(2, 2, [1, 6, 3, 0], field)
    assert matrix_ints(m).tolist() == [1, 6, 3, 0]
