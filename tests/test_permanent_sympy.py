"""``per_fast`` and ``prk`` witnesses against sympy's ``Matrix.per()``.

sympy computes permanents on its own exact integers and rationals, so it is
an oracle independent of permrank's integer kernel and of ``per_naive``.
Over F_p the residues are read as integers, sympy's permanent is taken over
the integers and then reduced mod p.  The tests on both sides of the NumPy
threshold of the F_p kernel take ``per_naive`` as the oracle up to order 9.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
import sympy

from permrank import QQ, Matrix, PrimeField, mat, per_fast, per_naive, prk
from permrank import permanent

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


# -- both sides of the NumPy threshold of the F_p kernel ----------------------

#: The five primes below 2^31 run in NumPy from GLYNN_NUMPY_MIN on; the last,
#: just above 2^31, stays on the Python-int loop at every order.
THRESHOLD_PRIMES = (3, 5, 7, 40009, 2**31 - 1, 2147483659)
THRESHOLD_ORDERS = (permanent.GLYNN_NUMPY_MIN - 1, permanent.GLYNN_NUMPY_MIN, 12, 13)


def integer_inputs(n):
    """Integer matrices, read mod each prime: every prime sees the same ones.

    Random, all-ones, random with a zero row, all -1 (every entry p - 1, the
    largest column sums) and random with row 1 a multiple of row 0 and the
    last row a multiple of row 2.
    """
    rng = random.Random(f"threshold:{n}")
    rand = [[rng.randrange(2**32) for _ in range(n)] for _ in range(n)]
    zero_row = [list(r) for r in rand]
    zero_row[rng.randrange(n)] = [0] * n
    multiples = [list(r) for r in rand]
    multiples[1] = [rng.randrange(2, 2**31) * v for v in rand[0]]
    multiples[-1] = [-rng.randrange(2, 9) * v for v in rand[2]]
    return {
        "random": rand,
        "ones": [[1] * n for _ in range(n)],
        "zero row": zero_row,
        "minus ones": [[-1] * n for _ in range(n)],
        "multiples": multiples,
    }


@lru_cache(maxsize=None)
def _sympy_int_per(rows: tuple) -> int:
    return int(sympy.Matrix(rows).per())


def oracle_per(int_rows, p):
    """per of ``int_rows`` mod p: ``per_naive`` up to order 9, sympy above.

    The permanent is an integer polynomial in the entries, so sympy's value
    over the integers, reduced mod p, is the permanent over F_p; it is
    computed once per integer matrix and shared by all the primes.
    """
    if len(int_rows) <= 9:
        return per_naive(mat(int_rows, PrimeField(p))).value
    return _sympy_int_per(tuple(map(tuple, int_rows))) % p


@pytest.mark.parametrize("p", THRESHOLD_PRIMES)
@pytest.mark.parametrize("n", THRESHOLD_ORDERS)
def test_per_fast_and_prk_across_the_threshold(p, n):
    field = PrimeField(p)
    for kind, int_rows in integer_inputs(n).items():
        a = mat(int_rows, field)
        value = oracle_per(int_rows, p)
        assert per_fast(a) == value, kind
        if kind in ("ones", "minus ones") and n > 9 and p <= n:
            continue  # per = ±n! = 0: the walk, not the kernel, sets the cost
        w = prk(a)
        if value:
            full = tuple(range(1, n + 1))
            assert (w.rank, w.row_set, w.col_set) == (n, full, full), kind
            assert w.per_value == value, kind
        else:
            assert w.rank < n, kind
            sub = [[int_rows[i - 1][j - 1] for j in w.col_set] for i in w.row_set]
            assert w.per_value == oracle_per(sub, p) != 0, kind


@pytest.mark.parametrize("p", THRESHOLD_PRIMES)
def test_kernel_choice_follows_order_and_prime(p, monkeypatch):
    # the NumPy kernel runs over F_p for p < 2^31 from GLYNN_NUMPY_MIN on, never over Q
    calls = []
    blocks = permanent._glynn_blocks

    def spy(rows, q):
        calls.append(len(rows))
        return blocks(rows, q)

    monkeypatch.setattr(permanent, "_glynn_blocks", spy)
    for n in THRESHOLD_ORDERS[:2]:
        per_fast(mat(integer_inputs(n)["random"], PrimeField(p)))
    per_fast(mat(integer_inputs(9)["random"], QQ))
    assert calls == ([] if p > 2**31 else [permanent.GLYNN_NUMPY_MIN])
