import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from permrank import (
    Matrix,
    QQ,
    PrimeField,
    identity,
    mat,
    ones,
    per_fast,
    per_naive,
    prk,
    prk_decide_leq,
    unit,
    zero_matrix,
)
from permrank.errors import InvalidRange, NotSquare, TooLarge
from permrank.sampling import random_matrix, sample_bounded_prk

from oracle import (
    cancelling_matrices,
    first_witness_oracle,
    per_by_definition,
    prk_oracle,
    witness_is_valid,
)

FIELDS = {"Q": QQ, "F3": PrimeField(3), "F5": PrimeField(5)}


class TestPerNaive:
    def test_identity(self, Q):
        assert per_naive(identity(3, Q)) == Q(1)

    def test_all_ones_2x2(self, Q):
        # both permutations of S_2 contribute 1
        m = mat([[1, 1], [1, 1]], Q)
        assert per_naive(m) == per_by_definition(m) == Q(2)

    def test_signed_square_vanishes(self, Q):
        assert per_naive(mat([[1, 1], [-1, 1]], Q)) == Q(0)

    def test_empty_matrix(self, Q):
        assert per_naive(Matrix(0, 0, [], Q)) == Q(1)

    def test_guards(self, Q):
        with pytest.raises(NotSquare):
            per_naive(zero_matrix(2, Q, cols=3))
        with pytest.raises(TooLarge):
            per_naive(identity(11, Q))


class TestPerFast:
    def test_identity(self, Q):
        assert per_fast(identity(4, Q)) == Q(1)

    def test_all_ones_3x3_counts_permutations(self, Q):
        assert per_fast(ones(3, Q)) == Q(6)

    def test_empty_matrix(self, F3):
        assert per_fast(Matrix(0, 0, [], F3)) == F3(1)

    def test_guard_is_overridable(self, Q):
        with pytest.raises(TooLarge):
            per_fast(identity(17, Q))
        assert per_fast(identity(17, Q), max_n=17) == Q(1)

    def test_exhaustive_agreement_tiny(self, F3):
        for n in (1, 2):
            for values in product(range(3), repeat=n * n):
                m = Matrix(n, n, values, F3)
                assert per_fast(m) == per_naive(m)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_agreement_f3(self, n, F3):
        rng = random.Random(n)
        for _ in range(50):
            m = random_matrix(rng, n, F3)
            assert per_fast(m) == per_naive(m)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_random_agreement_rational(self, n, Q):
        rng = random.Random(100 + n)
        for _ in range(10 if n < 7 else 4):
            m = random_matrix(rng, n, Q)
            assert per_fast(m) == per_naive(m)

    @given(seed=st.integers(0, 400))
    def test_transpose_invariance(self, seed):
        rng = random.Random(seed)
        field = QQ if seed % 2 else PrimeField(5)
        m = random_matrix(rng, rng.randint(1, 5), field)
        assert per_fast(m) == per_fast(m.transpose())


class TestPrk:
    def test_zero_matrix(self, Q):
        w = prk(zero_matrix(4, Q))
        assert w.rank == 0
        assert w.row_set == () and w.col_set == ()
        assert w.per_value == Q(1)

    def test_matrix_unit(self, F3):
        assert prk(unit(1, 1, 3, F3)).rank == 1

    def test_signed_probe_matrix(self, Q):
        m = mat([[1, 1, 0], [-1, 1, 0], [0, 0, 1]], Q)
        w = prk(m)
        assert w.rank == 2 == prk_oracle(m)
        # deterministic witness: first index pair in lexicographic order
        assert (w.row_set, w.col_set) == ((1, 3), (1, 3))
        assert witness_is_valid(m, w)

    def test_full_rank_identity(self, Q):
        w = prk(identity(4, Q))
        assert w.rank == 4
        assert w.per_value == Q(1)

    def test_not_square(self, Q):
        with pytest.raises(NotSquare):
            prk(zero_matrix(2, Q, cols=3))

    @pytest.mark.parametrize("field_name", ["F3", "Q"])
    def test_random_witnesses_match_oracle(self, field_name, F3, Q):
        field = F3 if field_name == "F3" else Q
        rng = random.Random(field_name)
        for trial in range(40):
            n = 2 + trial % 3
            m = random_matrix(rng, n, field)
            w = prk(m)
            assert w.rank == prk_oracle(m)
            assert witness_is_valid(m, w)

    @pytest.mark.parametrize("field_name", ["F3", "Q"])
    def test_column_sets_in_lex_not_mask_order(self, field_name, F3, Q):
        # minors on columns {1,4} and {2,3} are nonzero, those before vanish;
        # (1, 4) comes first although its bit mask is the larger
        field = F3 if field_name == "F3" else Q
        m = mat([[1, 1, 1, 1], [1, -1, -1, 0], [0] * 4, [0] * 4], field)
        w = prk(m)
        assert (w.rank, w.row_set, w.col_set, w.per_value) == (2, (1, 2), (1, 4), field(1))
        assert first_witness_oracle(m, 2) == ((1, 2), (1, 4), field(1))

    def test_zero_16x16_has_rank_zero(self, Q):
        assert prk(zero_matrix(16, Q)).rank == 0

    def test_block_in_zero_12x12_is_the_witness(self, Q):
        rows, cols = (2, 5, 7, 11), (1, 4, 9, 12)
        block = [[1, -2, 3, 1], [0, 1, 1, -1], [2, 0, 1, 1], [1, 1, 0, 3]]
        entries = [[0] * 12 for _ in range(12)]
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                entries[r - 1][c - 1] = block[i][j]
        w = prk(mat(entries, Q))
        assert (w.rank, w.row_set, w.col_set) == (4, rows, cols)
        assert w.per_value == per_naive(mat(block, Q)) != 0

    @pytest.mark.parametrize("p, k", [(5, 4), (7, 6)])
    def test_column_supported_16x16(self, p, k):
        # fewer than m nonzero columns: every size above k ends before any walk
        rng = random.Random(f"columns:16:{p}:{k}")
        support = sorted(rng.sample(range(16), k))
        entries = [[rng.randrange(1, p) if j in support else 0 for j in range(16)] for _ in range(16)]
        a = mat(entries, PrimeField(p))
        w = prk(a)
        assert (w.rank, w.col_set) == (k, tuple(j + 1 for j in support))
        assert w.per_value == per_naive(a.submatrix(w.row_set, w.col_set)) != 0
        assert prk(a.transpose()).rank == k
        assert prk_decide_leq(a, k) and not prk_decide_leq(a, k - 1)

    @pytest.mark.parametrize("field_name", sorted(FIELDS))
    def test_rank_is_transpose_invariant(self, field_name):
        field = FIELDS[field_name]
        rng = random.Random(f"transpose:{field_name}")
        for trial in range(40):
            n = 2 + trial % 5
            a = sample_bounded_prk(rng, n, rng.randint(0, n - 1), field)
            assert prk(a).rank == prk(a.transpose()).rank

    def test_monotonicity_under_submatrices(self, F3):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 4)
            m = random_matrix(rng, n, F3)
            k = rng.randint(1, n)
            rows = sorted(rng.sample(range(1, n + 1), k))
            cols = sorted(rng.sample(range(1, n + 1), k))
            assert prk(m.submatrix(rows, cols)).rank <= prk(m).rank


class TestPrkDecide:
    def test_identity_is_not_rank_deficient(self, Q):
        for n in (2, 3, 4):
            assert not prk_decide_leq(identity(n, Q), n - 1)

    def test_unit_is_rank_one(self, F3):
        assert prk_decide_leq(unit(1, 1, 3, F3), 1)

    def test_k_equals_n_is_trivially_true(self, Q):
        assert prk_decide_leq(identity(3, Q), 3)

    def test_size_guard(self, Q):
        big = zero_matrix(17, Q)
        with pytest.raises(TooLarge, match="n=17"):
            prk(big)
        with pytest.raises(TooLarge, match="k\\+1=17"):
            prk_decide_leq(big, 16)
        assert prk_decide_leq(big, 0)

    def test_range_validation(self, Q):
        with pytest.raises(InvalidRange):
            prk_decide_leq(identity(3, Q), -1)
        with pytest.raises(InvalidRange):
            prk_decide_leq(identity(3, Q), 4)

    def test_zero_12x12_is_in_the_bounded_set(self, Q):
        assert prk_decide_leq(zero_matrix(12, Q), 5)

    @pytest.mark.parametrize("field_name", ["F3", "Q"])
    def test_agreement_with_prk(self, field_name, F3, Q):
        field = F3 if field_name == "F3" else Q
        rng = random.Random(42)
        for trial in range(60):
            n = 2 + trial % 4
            m = random_matrix(rng, n, field)
            r = prk(m).rank
            for k in range(n + 1):
                assert prk_decide_leq(m, k) == (r <= k)


@pytest.mark.parametrize("tag", sorted(FIELDS))
@pytest.mark.parametrize("n", range(1, 7))
def test_search_matches_first_witness_oracle(tag, n):
    # the lexicographically first witness at every size, by enumeration
    for a in cancelling_matrices(FIELDS[tag], n, f"walk:{tag}:{n}"):
        firsts = [None] + [first_witness_oracle(a, size) for size in range(1, n + 1)]
        rank = max((size for size in range(n + 1) if firsts[size]), default=0)
        w = prk(a)
        assert w.rank == rank
        if rank:
            assert (w.row_set, w.col_set, w.per_value) == firsts[rank]
        for k in range(n):
            assert prk_decide_leq(a, k) == (firsts[k + 1] is None)
