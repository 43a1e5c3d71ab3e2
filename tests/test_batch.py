"""The integer enumeration kernels must agree with the definitional oracle
(``tests/oracle.py``, ``per_naive`` on every minor) and with the scalar path."""

import random

import numpy as np
import pytest

from permrank import Matrix, PrimeField, per_fast, per_naive, prk_decide_leq
from permrank._batch import (
    _minor_dtype,
    batch_prk_leq,
    bounded_prk_table,
    code_digits,
    encode_digits,
)

from oracle import prk_oracle


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


# One prime on each side of the int16/int64 switch (n * (p-1)^2 < 2^15) per n.
_SWITCH_PRIMES = {4: (89, 97), 5: (79, 83), 6: (73, 79)}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_batch_prk_leq_matches_scalar(n):
    narrow, wide = _SWITCH_PRIMES[n]
    assert _minor_dtype(n, narrow) == np.int16 and _minor_dtype(n, wide) == np.int64
    for p in (3, 5, narrow, wide):
        field = PrimeField(p)
        rng = random.Random(f"leq:{n}:{p}")
        for k in range(n + 1):
            rows = []
            for i in range(40):
                m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                if i % 2:
                    # rows k+1..n zeroed, then the rows shuffled: prk <= k
                    m = [m[r] if r < k else [0] * n for r in range(n)]
                    rng.shuffle(m)
                rows.append([v for row in m for v in row])
            mask = batch_prk_leq(np.array(rows, dtype=np.int64), n, k, p)
            for row, ok in zip(rows, mask):
                assert prk_decide_leq(Matrix(n, n, row, field), k) == bool(ok), (p, k, row)


def test_batch_prk_leq_exact_past_int64():
    # 3 * (p-1)^2 > 2^63, and entries near p make the products near 2^62: a
    # kernel that wrapped would read cancelling permanents as nonzero
    p, n = 2**31 - 1, 3
    assert _minor_dtype(n, p) is object
    field = PrimeField(p)
    rng = random.Random(31)
    rows = []
    for i in range(40):
        a = [rng.randrange(p - 2**20, p) for _ in range(n * n)]
        if i % 2:
            # choose the last entry so that the permanent vanishes mod p
            m = Matrix(n, n, a, field)
            cof = [int(per_fast(m.submatrix((1, 2), cols)).value) for cols in ((2, 3), (1, 3), (1, 2))]
            a[8] = -(a[6] * cof[0] + a[7] * cof[1]) * pow(cof[2], -1, p) % p
        rows.append(a)
    mask = batch_prk_leq(np.array(rows, dtype=np.int64), n, n - 1, p)
    assert mask.sum() == 20
    for row, ok in zip(rows, mask):
        assert prk_decide_leq(Matrix(n, n, row, field), n - 1) == bool(ok)


def test_code_round_trip():
    codes = np.arange(0, 3**5, dtype=np.int64)
    digits = code_digits(codes, 5, 3)
    assert (encode_digits(digits, 3) == codes).all()
    # big-endian: ascending codes are lexicographic on digit tuples
    assert digits[0].tolist() == [0, 0, 0, 0, 0]
    assert digits[1].tolist() == [0, 0, 0, 0, 1]
    assert digits[3].tolist() == [0, 0, 0, 1, 0]


def test_code_round_trip_past_int16():
    p = 32771
    codes = np.array([0, 32767, 32768, p - 1, p * 32768 + 32769, p**2 - 1], dtype=np.int64)
    digits = code_digits(codes, 2, p)
    assert digits[2].tolist() == [0, 32768]
    assert digits[4].tolist() == [32768, 32769]
    assert (encode_digits(digits, p) == codes).all()


def _scalar_prk_leq(code, n, p, k):
    digits = code_digits(np.array([code]), n * n, p)[0]
    return prk_decide_leq(Matrix(n, n, [int(v) for v in digits], PrimeField(p)), k)


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (2, 7), (3, 3)])
def test_bounded_table_matches_scalar_on_every_code(n, p):
    for k in range(n + 1):
        mask, member_digits = bounded_prk_table(n, p, k)
        assert mask.shape == (p ** (n * n),) and mask.dtype == bool
        assert member_digits.dtype == np.int16
        # the members are exactly the masked codes, in ascending code order
        assert encode_digits(member_digits, p).tolist() == np.flatnonzero(mask).tolist()
        for code in range(p ** (n * n)):
            assert bool(mask[code]) == _scalar_prk_leq(code, n, p, k), (k, code)


# k = n - 1 at (3, 7) and (4, 3) is left out: those tables hold 40M and 43M
# codes with millions of members, hundreds of MB in all.
@pytest.mark.parametrize("n,p,ks", [(3, 5, (0, 1, 2)), (3, 7, (0, 1)), (4, 3, (0, 1, 2))])
def test_bounded_table_matches_scalar_on_sample(n, p, ks, release_tables):
    rng = random.Random(f"table:{n}:{p}")
    for k in ks:
        mask, member_digits = bounded_prk_table(n, p, k)
        assert encode_digits(member_digits, p).tolist() == np.flatnonzero(mask).tolist()
        # random codes, and random members so that the sample holds both answers
        members = encode_digits(member_digits, p)
        codes = [rng.randrange(p ** (n * n)) for _ in range(150)]
        codes += [int(members[rng.randrange(len(members))]) for _ in range(150)]
        for code in codes:
            assert bool(mask[code]) == _scalar_prk_leq(code, n, p, k), (k, code)


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5)])
def test_bounded_table_matches_oracle_on_every_code(n, p):
    field = PrimeField(p)
    ranks = []
    for code in range(p ** (n * n)):
        digits = code_digits(np.array([code]), n * n, p)[0]
        ranks.append(prk_oracle(Matrix(n, n, [int(v) for v in digits], field)))
    for k in range(n + 1):
        mask, _ = bounded_prk_table(n, p, k)
        assert mask.tolist() == [r <= k for r in ranks], k


def _low_rank(rng, n, p):
    """A random matrix with all but r < n of its rows, or of its columns, zeroed."""
    keep = rng.sample(range(n), rng.randrange(n))
    m = [[rng.randrange(p) if r in keep else 0 for _ in range(n)] for r in range(n)]
    if rng.random() < 0.5:
        m = [list(col) for col in zip(*m)]
    return m


def _vanishing_per(rng, n, p):
    """A random matrix whose last entry makes its permanent vanish mod p.

    per is linear in the last entry: per(A) = rest + a_nn * per(leading minor).
    A random matrix over F_97 almost never has prk < n without this.
    """
    field = PrimeField(p)
    m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    m[-1][-1] = 0
    a = Matrix(n, n, [v for row in m for v in row], field)
    rest = int(per_naive(a).value)
    coef = int(per_naive(a.submatrix(range(1, n), range(1, n))).value)
    if coef:
        m[-1][-1] = -rest * pow(coef, -1, p) % p
    return m


# 97 is on the int16 side of the switch at n = 3 and past it at n = 4.
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("p", [3, 5, 97])
def test_batch_prk_leq_matches_oracle(n, p):
    field = PrimeField(p)
    rng = random.Random(f"oracle:{n}:{p}")
    mats = []
    for i in range(100):
        if i % 2:
            m = _low_rank(rng, n, p)
        elif i % 4:
            m = _vanishing_per(rng, n, p)
        else:
            m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        mats.append([v for row in m for v in row])
    ranks = [prk_oracle(Matrix(n, n, a, field)) for a in mats]
    assert min(ranks) < n - 1 and max(ranks) == n and ranks.count(n - 1) >= 20
    for k in range(n + 1):
        mask = batch_prk_leq(np.array(mats, dtype=np.int64), n, k, p)
        assert mask.tolist() == [r <= k for r in ranks], k
