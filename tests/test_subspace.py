import random
from itertools import combinations

import pytest

from permrank import (
    COL,
    ROW,
    CanonicalSubspace,
    LinearMap,
    PrimeField,
    SubspaceBasis,
    canonical_basis,
    classify_maximal,
    identity,
    map_subspace,
    mat,
    prk,
    unit,
    within_prk_bound,
    zero_matrix,
)
from permrank.errors import (
    BudgetExceeded,
    DependentBasis,
    FieldMismatch,
    InvalidRange,
    ShapeMismatch,
)
from permrank.sampling import random_bijective_map, random_matrix
from permrank import linalg


def _random_subspace(rng, n, dim, field):
    """Random subspace of the given dimension (resamples until independent)."""
    while True:
        mats = [random_matrix(rng, n, field) for _ in range(dim)]
        rows = [list(m.data) for m in mats]
        if linalg.rank(rows, field) == dim:
            return SubspaceBasis(n, field, mats)


class TestCanonicalBasis:
    def test_single_row(self, F3):
        v = canonical_basis(CanonicalSubspace(ROW, (1,)), 3, F3)
        assert v.dim == 3
        assert v.basis == (unit(1, 1, 3, F3), unit(1, 2, 3, F3), unit(1, 3, 3, F3))

    def test_two_columns(self, F3):
        assert canonical_basis(CanonicalSubspace(COL, (1, 2)), 3, F3).dim == 6

    def test_full_support_is_everything(self, Q):
        v = canonical_basis(CanonicalSubspace(ROW, (1, 2, 3)), 3, Q)
        assert v.dim == 9

    def test_dimension_formula(self, F3):
        for n in range(2, 6):
            for k in range(1, n + 1):
                support = tuple(range(1, k + 1))
                for orientation in (ROW, COL):
                    v = canonical_basis(CanonicalSubspace(orientation, support), n, F3)
                    assert v.dim == k * n


class TestSubspaceOps:
    def test_intersection_same_orientation(self, F3):
        a = canonical_basis(CanonicalSubspace(ROW, (1, 2)), 4, F3)
        b = canonical_basis(CanonicalSubspace(ROW, (2, 3)), 4, F3)
        assert a.intersect(b).dim == 4  # n * |S meet S'| with one shared row

    def test_intersection_cross_orientation(self, F3):
        a = canonical_basis(CanonicalSubspace(ROW, (1, 2)), 4, F3)
        b = canonical_basis(CanonicalSubspace(COL, (3, 4)), 4, F3)
        assert a.intersect(b).dim == 4  # k * k

    def test_intersection_formulas_exhaustively(self, F3):
        # same-orientation n|S meet S'|, cross-orientation k*k, all pairs, n <= 5
        for n in (3, 4, 5):
            for k in range(1, n):
                supports = list(combinations(range(1, n + 1), k))
                row_bases = {
                    s: canonical_basis(CanonicalSubspace(ROW, s), n, F3) for s in supports
                }
                col_bases = {
                    s: canonical_basis(CanonicalSubspace(COL, s), n, F3) for s in supports
                }
                for s in supports:
                    for t in supports:
                        shared = len(set(s) & set(t))
                        if s != t:
                            assert row_bases[s].intersect(row_bases[t]).dim == n * shared
                        assert row_bases[s].intersect(col_bases[t]).dim == k * k

    def test_self_intersection(self, F3):
        v = canonical_basis(CanonicalSubspace(ROW, (1, 3)), 4, F3)
        assert v.intersect(v).equals(v)

    def test_equality_under_change_of_basis(self, F5):
        rng = random.Random(3)
        v = canonical_basis(CanonicalSubspace(COL, (2,)), 3, F5)
        mixed = []
        for _ in range(v.dim):
            acc = zero_matrix(3, F5)
            for b in v.basis:
                acc = acc + b.scale(rng.randrange(5))
            mixed.append(acc)
        w = SubspaceBasis.span(3, F5, mixed)
        if w.dim == v.dim:
            assert w.equals(v)

    def test_contains(self, Q):
        v = canonical_basis(CanonicalSubspace(ROW, (2,)), 3, Q)
        assert v.contains(unit(2, 3, 3, Q))
        assert not v.contains(unit(1, 1, 3, Q))

    def test_combination_hand_computed(self, F5):
        v = SubspaceBasis(2, F5, [unit(1, 1, 2, F5), unit(1, 2, 2, F5) + unit(2, 1, 2, F5)])
        assert v.combination([2, 3]) == mat([[2, 3], [3, 0]], F5)
        assert v.combination([0, 4]) == mat([[0, 4], [4, 0]], F5)
        with pytest.raises(ShapeMismatch):
            v.combination([1])

    def test_span_checks_shape_and_field(self, F3, F5):
        with pytest.raises(FieldMismatch):
            SubspaceBasis.span(2, F3, [unit(1, 1, 2, F3), unit(1, 2, 2, F5)])
        wide = mat([[1, 0, 0], [0, 1, 0]], F3)
        with pytest.raises(ShapeMismatch, match="2x3"):
            SubspaceBasis.span(2, F3, [wide])

    def test_dependent_basis_rejected(self, Q):
        e = unit(1, 1, 3, Q)
        with pytest.raises(DependentBasis):
            SubspaceBasis(3, Q, [e, e.scale(2)])


class TestReducedForm:
    def test_every_construction_path_keeps_the_rref_of_its_basis(self, Q, F3, F5):
        rng = random.Random(29)
        for field in (Q, F3, F5):
            for n in (2, 3, 4):
                gens = [random_matrix(rng, n, field) for _ in range(n)]
                spanned = SubspaceBasis.span(n, field, gens + [gens[0] + gens[1]])
                u = SubspaceBasis.span(n, field, gens[:2] + [random_matrix(rng, n, field)])
                made = [
                    spanned,
                    SubspaceBasis(n, field, [gens[0], gens[0] + gens[1]]),
                    canonical_basis(CanonicalSubspace(COL, (1, n)), n, field),
                    spanned.intersect(u),
                    u.intersect(spanned),
                    map_subspace(LinearMap.transposition(n, field), spanned),
                ]
                if n >= 3:
                    made.append(map_subspace(random_bijective_map(rng, n, field), u))
                for v in made:
                    expected = linalg.rref([list(m.data) for m in v.basis], field)[0]
                    assert v.reduced_rows() == expected

    def test_dependent_input_raises_on_every_size(self, F3):
        a, b = unit(1, 2, 3, F3), unit(3, 3, 3, F3)
        for basis in ([a, b, a + b], [zero_matrix(3, F3)], [a, a.scale(2)]):
            with pytest.raises(DependentBasis):
                SubspaceBasis(3, F3, basis)

    def test_one_elimination_per_object(self, monkeypatch, F5):
        calls = []
        real = linalg.rref

        def counted(vectors, field):
            calls.append(len(vectors))
            return real(vectors, field)

        monkeypatch.setattr(linalg, "rref", counted)
        rng = random.Random(31)
        v = SubspaceBasis(3, F5, [random_matrix(rng, 3, F5) for _ in range(3)])
        w = canonical_basis(CanonicalSubspace(ROW, (2,)), 3, F5)
        assert calls == [3, 3]
        v.reduced_rows(), v.equals(w), w.equals(v), classify_maximal(v, 1)
        assert calls == [3, 3]
        meet = v.intersect(w)
        assert calls[2:] == [6, meet.dim]

    def test_canonical_bases_reduce_without_arithmetic(self, monkeypatch, F5):
        def refuse(*_args):
            raise AssertionError("field arithmetic while reducing a matrix-unit basis")

        for name in ("add", "sub", "mul", "neg", "inv"):
            monkeypatch.setattr(PrimeField, name, refuse)
        for orientation in (ROW, COL):
            assert canonical_basis(CanonicalSubspace(orientation, (1, 3)), 4, F5).dim == 8


class TestWithinBound:
    def test_canonical_subspaces_stay_within(self, F3):
        for k in (1, 2):
            support = tuple(range(1, k + 1))
            v = canonical_basis(CanonicalSubspace(ROW, support), 3, F3)
            assert within_prk_bound(v, k, "exhaustive").kind == "yes"

    def test_identity_span_fails(self, F3):
        v = SubspaceBasis(3, F3, [identity(3, F3)])
        verdict = within_prk_bound(v, 2, "exhaustive")
        assert verdict.kind == "no"
        assert verdict.counterexample == identity(3, F3)

    def test_first_counterexample_is_lexicographic(self, F3):
        v = SubspaceBasis(
            3, F3, [unit(1, 1, 3, F3) + unit(2, 2, 3, F3), unit(1, 2, 3, F3)]
        )
        verdict = within_prk_bound(v, 1, "exhaustive")
        assert verdict.kind == "no"
        assert verdict.counterexample == unit(1, 1, 3, F3) + unit(2, 2, 3, F3)
        assert prk(verdict.counterexample).rank == 2

    def test_exhaustive_needs_finite_field(self, Q):
        v = SubspaceBasis(3, Q, [identity(3, Q)])
        with pytest.raises(BudgetExceeded):
            within_prk_bound(v, 2, "exhaustive")

    def test_budget_guard(self, F3):
        v = canonical_basis(CanonicalSubspace(ROW, (1, 2)), 3, F3)
        with pytest.raises(BudgetExceeded):
            within_prk_bound(v, 2, "exhaustive", budget=10)

    def test_sample_mode_rational(self, Q):
        v = SubspaceBasis(3, Q, [identity(3, Q)])
        verdict = within_prk_bound(v, 2, "sample", samples=50, seed=1)
        assert verdict.kind == "no"
        canonical = canonical_basis(CanonicalSubspace(ROW, (1,)), 3, Q)
        assert within_prk_bound(canonical, 1, "sample", samples=50, seed=1).kind == "unknown"

    def test_dimension_cap_spot_check(self, F3):
        # any subspace one dimension above the maximum contains a violation
        rng = random.Random(11)
        n, k = 3, 1
        for _ in range(500):
            v = _random_subspace(rng, n, k * n + 1, F3)
            assert within_prk_bound(v, k, "exhaustive").kind == "no"


class TestClassify:
    def test_round_trip(self, F3):
        cs = CanonicalSubspace(ROW, (1, 3))
        v = canonical_basis(cs, 3, F3)
        assert classify_maximal(v, 2) == cs

    def test_change_of_basis_is_recognized(self, F5):
        rng = random.Random(7)
        target = CanonicalSubspace(COL, (2,))
        v = canonical_basis(target, 3, F5)
        while True:
            mixed = []
            for _ in range(v.dim):
                acc = zero_matrix(3, F5)
                for b in v.basis:
                    acc = acc + b.scale(rng.randrange(5))
                mixed.append(acc)
            w = SubspaceBasis.span(3, F5, mixed)
            if w.dim == v.dim:
                break
        assert classify_maximal(w, 1) == target

    def test_wrong_dimension_is_not_canonical(self, F3):
        v = canonical_basis(CanonicalSubspace(ROW, (1,)), 3, F3)
        assert classify_maximal(v, 2) is None

    @pytest.mark.parametrize("k", [-1, 0, 3, 7])
    def test_k_outside_one_to_n_minus_one_is_refused(self, F3, k):
        # a bad k must not read as "not canonical"
        v = canonical_basis(CanonicalSubspace(ROW, (1,)), 3, F3)
        with pytest.raises(InvalidRange):
            classify_maximal(v, k)

    def test_random_noncanonical_spans_violate_the_bound(self, F3):
        # maximal dimension without canonical shape forces a violation
        rng = random.Random(23)
        n, k = 3, 1
        found = 0
        while found < 25:
            v = _random_subspace(rng, n, k * n, F3)
            if classify_maximal(v, k) is not None:
                continue
            found += 1
            assert within_prk_bound(v, k, "exhaustive").kind == "no"


class TestValidation:
    def test_bad_orientation(self):
        with pytest.raises(InvalidRange):
            CanonicalSubspace("diag", (1,))

    def test_empty_support(self):
        with pytest.raises(InvalidRange):
            CanonicalSubspace(ROW, ())
