import json
import random

import pytest
from hypothesis import given, strategies as st

from permrank import (
    Permutation,
    QQ,
    PrimeField,
    diagonal,
    identity,
    mat,
    matrix_from_json,
    matrix_to_json,
    permutation_matrix,
    unit,
    zero_matrix,
)
from permrank.errors import (
    FieldMismatch,
    IndexOutOfRange,
    InvalidRange,
    ShapeMismatch,
)
from permrank.sampling import random_matrix, random_permutation


class TestSubmatrix:
    def test_identity_block(self, Q):
        assert identity(3, Q).submatrix({1, 2}, {1, 2}) == identity(2, Q)

    def test_empty_selection(self, Q):
        sub = identity(3, Q).submatrix((), ())
        assert (sub.rows, sub.cols) == (0, 0)

    def test_single_entry(self, Q):
        assert mat([[1, 2], [3, 4]], Q).submatrix({2}, {1}) == mat([[3]], Q)

    def test_order_is_always_ascending(self, Q):
        a = mat([[1, 2], [3, 4]], Q)
        assert a.submatrix([2, 1], [2, 1]) == a

    def test_out_of_range(self, Q):
        with pytest.raises(IndexOutOfRange):
            identity(3, Q).submatrix({4}, {1})
        with pytest.raises(IndexOutOfRange):
            identity(3, Q).submatrix({0}, {1})


class TestBuilders:
    def test_unit(self, Q):
        assert unit(1, 1, 2, Q) == mat([[1, 0], [0, 0]], Q)
        with pytest.raises(IndexOutOfRange):
            unit(3, 1, 2, Q)

    def test_diagonal(self, Q):
        assert diagonal((2, 3), Q) == mat([[2, 0], [0, 3]], Q)

    def test_permutation_matrix_against_defining_rule(self, Q):
        # entry (i, j) must be 1 exactly when j = sigma^{-1}(i)
        sigma = Permutation((2, 1))
        expected = mat([[0, 1], [1, 0]], Q)
        assert permutation_matrix(sigma, Q) == expected
        for n in (3, 4, 5):
            rng = random.Random(n)
            s = random_permutation(rng, n)
            p = permutation_matrix(s, Q)
            inv = {s(j): j for j in range(1, n + 1)}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    expected_val = Q(1) if j == inv[i] else Q(0)
                    assert p.entry(i, j) == expected_val

    def test_zero_and_identity(self, F3):
        assert zero_matrix(2, F3).is_zero
        assert identity(2, F3) @ identity(2, F3) == identity(2, F3)


class TestOps:
    def test_transpose_unit(self, Q):
        assert unit(1, 2, 3, Q).transpose() == unit(2, 1, 3, Q)

    def test_permutation_times_inverse(self, Q):
        sigma = Permutation((3, 1, 2))
        p = permutation_matrix(sigma, Q)
        # sigma^{-1}: 3 -> 1, 1 -> 2, 2 -> 3
        p_inv = permutation_matrix(Permutation((2, 3, 1)), Q)
        assert p @ p_inv == identity(3, Q)

    def test_shape_mismatch(self, Q):
        with pytest.raises(ShapeMismatch):
            identity(2, Q) @ identity(3, Q)
        with pytest.raises(ShapeMismatch):
            identity(2, Q) + zero_matrix(3, Q)

    def test_field_mismatch(self, Q, F3):
        with pytest.raises(FieldMismatch):
            identity(2, Q) @ identity(2, F3)

    def test_scale_and_neg(self, F5):
        a = mat([[1, 2], [3, 4]], F5)
        assert a.scale(2) == mat([[2, 4], [1, 3]], F5)
        assert -a + a == zero_matrix(2, F5)


@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(2, 5))
    perm = st.permutations(list(range(1, n + 1)))
    return Permutation(draw(perm)), Permutation(draw(perm))


class TestProperties:
    @given(pair=permutation_pairs())
    def test_permutation_matrix_is_a_homomorphism(self, pair):
        sigma, tau = pair
        Q = QQ
        lhs = permutation_matrix(sigma, Q) @ permutation_matrix(tau, Q)
        composite = Permutation(sigma(tau(i)) for i in range(1, sigma.n + 1))
        assert lhs == permutation_matrix(composite, Q)

    @given(seed=st.integers(0, 500))
    def test_transpose_involution(self, seed):
        rng = random.Random(seed)
        a = random_matrix(rng, rng.randint(1, 4), QQ)
        assert a.transpose().transpose() == a


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(InvalidRange):
            Permutation((1, 1, 3))
        with pytest.raises(InvalidRange):
            Permutation((0, 1))


class TestJson:
    def test_documented_shape(self, Q):
        doc = matrix_to_json(mat([["7/2", -1], [0, 3]], Q))
        assert doc == {
            "field": "Q",
            "rows": 2,
            "cols": 2,
            "entries": [["7/2", "-1"], ["0", "3"]],
        }

    @given(seed=st.integers(0, 300))
    def test_round_trip_rational(self, seed):
        rng = random.Random(seed)
        a = random_matrix(rng, rng.randint(1, 4), QQ)
        doc = json.loads(json.dumps(matrix_to_json(a)))
        assert matrix_from_json(doc) == a

    @given(seed=st.integers(0, 300))
    def test_round_trip_prime_field(self, seed):
        rng = random.Random(seed)
        a = random_matrix(rng, rng.randint(1, 4), PrimeField(7))
        assert matrix_from_json(matrix_to_json(a)) == a

    def test_short_field_tag_accepted(self):
        doc = {"field": "F5", "rows": 1, "cols": 1, "entries": [["3"]]}
        m = matrix_from_json(doc)
        assert m.field == PrimeField(5)
        # canonical emission
        assert matrix_to_json(m)["field"] == "Fp:5"

    def test_bad_shape_rejected(self):
        doc = {"field": "Q", "rows": 2, "cols": 2, "entries": [["1", "2"]]}
        with pytest.raises(ShapeMismatch):
            matrix_from_json(doc)
