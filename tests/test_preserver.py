import random

import pytest

from permrank import (
    COL,
    ROW,
    CanonicalPreserver,
    CanonicalSubspace,
    LinearMap,
    Permutation,
    PrimeField,
    canonical_basis,
    canonical_from_json,
    canonical_to_json,
    check_equality_variant,
    check_preserves,
    classify_maximal,
    compose_canonical,
    decompose,
    diagonal,
    linear_map_from_json,
    linear_map_to_json,
    map_subspace,
    mat,
    permutation_matrix,
    prk,
    prk_decide_leq,
    unit,
    zero_matrix,
)
from permrank import linalg
from permrank.errors import (
    HadamardNotRankOne,
    InvalidRange,
    NotBijectiveMap,
    NotMonomialPattern,
    UnitImageNotMonomial,
    UnsupportedSize,
)
from permrank.preserver import _search_counterexample
from permrank.sampling import (
    probe_family,
    random_bijective_map,
    random_canonical_preserver,
    random_matrix,
    random_scalar,
    sample_bounded_prk,
)


def _cp(field, d1, sigma1, flag, sigma2, d2):
    return CanonicalPreserver(
        d1=tuple(field(v) for v in d1),
        sigma1=Permutation(sigma1),
        transpose_flag=flag,
        sigma2=Permutation(sigma2),
        d2=tuple(field(v) for v in d2),
    )


def _identity_cp(n, field):
    ones = [1] * n
    ident = list(range(1, n + 1))
    return _cp(field, ones, ident, False, ident, ones)


class TestApply:
    def test_identity_map(self, Q):
        t = LinearMap.identity(3, Q)
        rng = random.Random(0)
        a = random_matrix(rng, 3, Q)
        assert t.apply(a) == a

    def test_transposition_on_unit(self, Q):
        t = LinearMap.transposition(3, Q)
        assert t.apply(unit(1, 2, 3, Q)) == unit(2, 1, 3, Q)

    def test_unit_image_is_column_extraction(self, F5):
        rng = random.Random(1)
        t = random_bijective_map(rng, 3, F5)
        for i in (1, 3):
            for j in (2, 3):
                assert t.unit_image(i, j) == t.apply(unit(i, j, 3, F5))


class TestCompose:
    def test_identity_tuple_gives_identity_map(self, F5):
        assert compose_canonical(_identity_cp(3, F5)) == LinearMap.identity(3, F5)

    def test_flag_only_gives_transposition(self, Q):
        cp = _cp(Q, [1, 1, 1], [1, 2, 3], True, [1, 2, 3], [1, 1, 1])
        assert compose_canonical(cp) == LinearMap.transposition(3, Q)

    def test_unit_images_match_expansion(self, F5):
        rng = random.Random(2)
        for _ in range(20):
            cp = random_canonical_preserver(rng, 3, F5)
            t = compose_canonical(cp)
            for i in range(1, 4):
                for j in range(1, 4):
                    if cp.transpose_flag:
                        a, b = cp.sigma1(j), cp.sigma2(i)
                    else:
                        a, b = cp.sigma1(i), cp.sigma2(j)
                    coeff = cp.d1[a - 1] * cp.d2[b - 1]
                    assert t.apply(unit(i, j, 3, F5)) == unit(a, b, 3, F5).scale(coeff)

    @pytest.mark.parametrize("field_name", ["F5", "Q"])
    def test_against_matrix_product_oracle(self, field_name, F5, Q):
        # independently build D1 P(s1) A^(T) P(s2)^T D2 with plain products;
        # the transpose on the right makes column j land in column s2(j)
        field = F5 if field_name == "F5" else Q
        rng = random.Random(3)
        for _ in range(15):
            n = rng.choice((3, 4))
            cp = random_canonical_preserver(rng, n, field)
            t = compose_canonical(cp)
            d1 = diagonal(cp.d1, field)
            d2 = diagonal(cp.d2, field)
            p1 = permutation_matrix(cp.sigma1, field)
            p2 = permutation_matrix(cp.sigma2, field).transpose()
            a = random_matrix(rng, n, field)
            body = a.transpose() if cp.transpose_flag else a
            assert t.apply(a) == d1 @ p1 @ body @ p2 @ d2

    def test_composed_maps_are_bijective(self, F3):
        rng = random.Random(4)
        for _ in range(10):
            cp = random_canonical_preserver(rng, 4, F3)
            assert compose_canonical(cp).is_bijective()

    def test_preserves_rank_of_random_matrices(self, F5):
        rng = random.Random(5)
        cp = random_canonical_preserver(rng, 3, F5)
        t = compose_canonical(cp)
        for _ in range(200):
            a = random_matrix(rng, 3, F5)
            assert prk(t.apply(a)).rank == prk(a).rank


class TestBijectivity:
    def test_identity(self, Q):
        assert LinearMap.identity(3, Q).is_bijective()

    def test_rank_deficient(self, Q):
        t = LinearMap(3, Q, zero_matrix(9, Q))
        assert not t.is_bijective()

    def test_verdict_short_circuits(self, F3):
        t = LinearMap(3, F3, zero_matrix(9, F3))
        assert check_preserves(t, 1).kind == "not_bijective"


class TestDecompose:
    def test_identity(self, F5):
        got = decompose(LinearMap.identity(3, F5), 1)
        assert got == _identity_cp(3, F5)
        assert not got.transpose_flag

    def test_transposition(self, Q):
        got = decompose(LinearMap.transposition(3, Q), 2)
        assert got.transpose_flag
        assert got.sigma1.is_identity and got.sigma2.is_identity
        assert all(s == Q(1) for s in got.d1 + got.d2)

    @pytest.mark.parametrize("field_name", ["F5", "Q"])
    def test_round_trip_random(self, field_name, F5, Q):
        field = F5 if field_name == "F5" else Q
        rng = random.Random(field_name)
        for trial in range(30):
            n = 3 + trial % 3
            cp = random_canonical_preserver(rng, n, field)
            t = compose_canonical(cp)
            got = decompose(t, 1 + trial % (n - 1))
            assert compose_canonical(got) == t
            assert got == cp.normalized()

    def test_gauge_scaling_gives_same_map_and_tuple(self, F5):
        rng = random.Random(8)
        cp = random_canonical_preserver(rng, 3, F5)
        c = F5(3)
        scaled = CanonicalPreserver(
            d1=tuple(s * c for s in cp.d1),
            sigma1=cp.sigma1,
            transpose_flag=cp.transpose_flag,
            sigma2=cp.sigma2,
            d2=tuple(s * c.inv() for s in cp.d2),
        )
        assert compose_canonical(scaled) == compose_canonical(cp)
        assert decompose(compose_canonical(scaled), 1) == decompose(
            compose_canonical(cp), 1
        )
        assert decompose(compose_canonical(cp), 1).d1[0] == F5(1)

    def test_unit_image_not_monomial(self, F3):
        def image(i, j):
            if (i, j) == (1, 1):
                return unit(1, 1, 3, F3) + unit(2, 2, 3, F3)
            return unit(i, j, 3, F3)

        t = LinearMap.from_unit_images(3, F3, image)
        assert t.is_bijective()
        with pytest.raises(UnitImageNotMonomial):
            decompose(t, 1)
        # and indeed the image of E_{1,1} leaves the bounded set for k = 1
        assert prk(t.apply(unit(1, 1, 3, F3))).rank == 2

    def test_not_monomial_pattern(self, Q):
        swap = {(1, 2): (2, 1), (2, 1): (1, 2)}

        def image(i, j):
            a, b = swap.get((i, j), (i, j))
            return unit(a, b, 3, Q)

        t = LinearMap.from_unit_images(3, Q, image)
        assert t.is_bijective()
        with pytest.raises(NotMonomialPattern):
            decompose(t, 1)

    def test_hadamard_not_rank_one(self, Q):
        coeffs = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 2}

        def image(i, j):
            return unit(i, j, 3, Q).scale(coeffs.get((i, j), 1))

        t = LinearMap.from_unit_images(3, Q, image)
        assert t.is_bijective()
        with pytest.raises(HadamardNotRankOne):
            decompose(t, 1)

    @pytest.mark.parametrize(
        "p,coeffs,k,message",
        [
            # rows 1 and 2 proportional: the first nonzero minor is off rows (1,2)
            (0, [[1, 1, 1], [2, 2, 2], [1, 1, 3]], 1, "rows (1,3) x columns (1,3)"),
            (5, [[1, 2, 3, 4], [2, 4, 1, 3], [3, 1, 4, 2], [1, 2, 3, 1]], 2, "rows (1,4) x columns (1,4)"),
        ],
    )
    def test_hadamard_names_the_first_nonzero_minor(self, Q, p, coeffs, k, message):
        # messages recorded with the loop over all C(n,2)^2 minors
        field = PrimeField(p) if p else Q
        n = len(coeffs)

        def image(i, j):
            return unit(i, j, n, field).scale(coeffs[i - 1][j - 1])

        t = LinearMap.from_unit_images(n, field, image)
        with pytest.raises(HadamardNotRankOne) as info:
            decompose(t, k)
        assert str(info.value) == f"scaling minor on {message} is nonzero"

    def test_size_and_range_guards(self, Q):
        with pytest.raises(UnsupportedSize):
            decompose(LinearMap.identity(2, Q), 1)
        with pytest.raises(InvalidRange):
            decompose(LinearMap.identity(3, Q), 0)
        with pytest.raises(InvalidRange):
            decompose(LinearMap.identity(3, Q), 3)
        with pytest.raises(NotBijectiveMap):
            decompose(LinearMap(3, Q, zero_matrix(9, Q)), 1)


class TestCheckPreserves:
    def test_canonical_exhaustive(self, F3):
        rng = random.Random(10)
        cp = random_canonical_preserver(rng, 3, F3)
        verdict = check_preserves(compose_canonical(cp), 1, mode="exhaustive")
        assert verdict.kind == "preserver"
        assert verdict.canonical == cp.normalized()

    def test_perturbed_map_yields_verified_counterexample(self, F3):
        def image(i, j):
            if (i, j) == (1, 1):
                return unit(1, 1, 3, F3) + unit(2, 2, 3, F3)
            return unit(i, j, 3, F3)

        t = LinearMap.from_unit_images(3, F3, image)
        verdict = check_preserves(t, 1, mode="structural")
        assert verdict.kind == "not_preserver"
        a = verdict.counterexample
        assert a == unit(1, 1, 3, F3)  # first matrix unit already violates
        assert prk_decide_leq(a, 1)
        assert not prk_decide_leq(t.apply(a), 1)

    def test_exhaustive_counterexample_is_lexicographically_least(self, F3):
        def image(i, j):
            if (i, j) == (3, 3):
                return unit(3, 3, 3, F3) + unit(1, 1, 3, F3)
            return unit(i, j, 3, F3)

        t = LinearMap.from_unit_images(3, F3, image)
        verdict = check_preserves(t, 1, mode="exhaustive")
        assert verdict.kind == "not_preserver"
        counter = verdict.counterexample
        assert prk_decide_leq(counter, 1)
        assert not prk_decide_leq(t.apply(counter), 1)
        # nothing lexicographically smaller with the same property
        code = [v for v in counter.data]
        for smaller in _lex_smaller_f3(code):
            m = mat([smaller[0:3], smaller[3:6], smaller[6:9]], F3)
            assert not (prk_decide_leq(m, 1) and not prk_decide_leq(t.apply(m), 1))

    def test_structural_agrees_with_exhaustive(self, F3):
        rng = random.Random(11)
        for trial in range(15):
            t = random_bijective_map(rng, 3, F3)
            for k in (1, 2):
                structural = check_preserves(t, k, mode="structural", seed=trial)
                exhaustive = check_preserves(t, k, mode="exhaustive")
                assert structural.kind == exhaustive.kind

    def test_sample_mode(self, F3):
        rng = random.Random(12)
        cp = random_canonical_preserver(rng, 3, F3)
        good = check_preserves(compose_canonical(cp), 1, mode="sample", samples=40, seed=0)
        assert good.kind == "unknown"

        def image(i, j):
            if (i, j) == (1, 1):
                return unit(1, 1, 3, F3) + unit(2, 2, 3, F3)
            return unit(i, j, 3, F3)

        bad = LinearMap.from_unit_images(3, F3, image)
        got = [check_preserves(bad, 1, mode="sample", samples=200, seed=seed) for seed in (0, 1, 2)]
        assert all(verdict.kind == "not_preserver" for verdict in got)
        # counterexamples pinned to the seeded sample stream
        assert [verdict.counterexample for verdict in got] == [
            mat([[2, 0, 1], [1, 0, 1], [0, 0, 0]], F3),
            mat([[2, 0, 0], [1, 0, 0], [1, 0, 0]], F3),
            mat([[1, 0, 1], [0, 0, 0], [0, 0, 0]], F3),
        ]

    @pytest.mark.parametrize("k", [1, 2])
    def test_exhaustive_at_n4_agrees_with_structural(self, F3, k, release_tables):
        # 3^16 matrices; k = 3 is left out, its table lists 17M members
        rng = random.Random(f"n4:{k}")
        canonical = compose_canonical(random_canonical_preserver(rng, 4, F3))
        maps = {
            "preserver": [canonical, LinearMap.transposition(4, F3)],
            "not_preserver": [random_bijective_map(rng, 4, F3)],
        }
        for kind, tmaps in maps.items():
            for t in tmaps:
                exhaustive = check_preserves(t, k, mode="exhaustive")
                assert exhaustive.kind == kind
                assert check_preserves(t, k, mode="structural").kind == kind
                if kind == "not_preserver":
                    counter = exhaustive.counterexample
                    assert prk_decide_leq(counter, k)
                    assert prk(t.apply(counter)).rank > k


def _lex_smaller_f3(code):
    # all vectors over F_3 strictly below the given one, lexicographically
    from itertools import product

    for tup in product(range(3), repeat=len(code)):
        if list(tup) >= code:
            return
        yield list(tup)


class TestEqualityVariant:
    def test_canonical_derives_bijectivity(self, F3):
        rng = random.Random(13)
        cp = random_canonical_preserver(rng, 3, F3)
        verdict = check_equality_variant(compose_canonical(cp), 1, mode="exhaustive")
        assert verdict.kind == "preserver"
        assert "bijectivity derived" in verdict.detail

    def test_image_inside_one_row_fails_surjectivity(self, Q):
        def image(i, j):
            return unit(1, j, 3, Q)  # everything collapses into row 1

        t = LinearMap.from_unit_images(3, Q, image)
        verdict = check_equality_variant(t, 1)
        assert verdict.kind == "not_bijective"
        assert "no preimage" in verdict.detail

    def test_zero_map_fails(self, Q):
        t = LinearMap(3, Q, zero_matrix(9, Q))
        assert check_equality_variant(t, 1).kind == "not_bijective"

    @pytest.mark.parametrize("field_name", ["F3", "F5", "Q"])
    def test_first_unreachable_unit_matches_rank_oracle(self, field_name, request):
        # E_c has a preimage exactly when appending its vector as a column
        # keeps the rank of T; the verdict names the first c where it does not
        field = request.getfixturevalue(field_name)
        rng = random.Random(f"unreachable:{field_name}")
        for trial in range(16):
            # an image spanned by some units plus random directions, dimension < 9
            inside = rng.sample(range(9), trial % 8)
            spare = rng.randrange(1, 9 - len(inside))
            image = [[1 if r == c else 0 for r in range(9)] for c in inside]
            image += [[random_scalar(rng, field).value for _ in range(9)] for _ in range(spare)]
            span = mat([[v[r] for v in image] for r in range(9)], field)
            t = LinearMap(3, field, span @ random_matrix(rng, len(image), field, cols=9))
            rows = t.matrix.raw_rows()
            base = linalg.rank(rows, field)
            assert base < 9
            c = next(
                c
                for c in range(9)
                if linalg.rank([row + [int(r == c)] for r, row in enumerate(rows)], field) > base
            )
            verdict = check_equality_variant(t, 1)
            assert verdict.kind == "not_bijective"
            assert verdict.detail == (
                f"unit ({c // 3 + 1},{c % 3 + 1}) has no preimage; the map is not surjective"
            )

    def test_unit_preimages_outside_the_bounded_set_are_noted(self, F3):
        t = random_bijective_map(random.Random(2), 3, F3)
        verdict = check_equality_variant(t, 2)
        assert verdict.kind == "not_preserver"
        assert verdict.detail == (
            "UnitImageNotMonomial: image of unit (1,1) has 4 nonzero entries; "
            "unit preimages of [(1, 1), (1, 3), (2, 2), (3, 3)] leave the bounded set"
        )


class TestInducedSubspaceAction:
    @pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2)])
    def test_canonical_subspaces_map_to_canonical_subspaces(self, n, k, F5):
        rng = random.Random(14)
        cp = random_canonical_preserver(rng, n, F5)
        t = compose_canonical(cp)
        from itertools import combinations

        verts = [
            (orientation, s)
            for orientation in (ROW, COL)
            for s in combinations(range(1, n + 1), k)
        ]
        images = {}
        for orientation, s in verts:
            v = canonical_basis(CanonicalSubspace(orientation, s), n, F5)
            image = map_subspace(t, v)
            got = classify_maximal(image, k)
            assert got is not None
            images[(orientation, s)] = image
        for a in verts:
            for b in verts:
                if a < b:
                    va = canonical_basis(CanonicalSubspace(*a), n, F5)
                    vb = canonical_basis(CanonicalSubspace(*b), n, F5)
                    assert (
                        images[a].intersect(images[b]).dim
                        == va.intersect(vb).dim
                    )


class TestExactRankPreservation:
    def test_rank_is_exactly_preserved_over_q(self, Q):
        # canonical maps keep the exact rank, not just the bound
        rng = random.Random(15)
        n = 3
        for trial in range(500):
            k = 1 + trial % (n - 1)
            cp = random_canonical_preserver(rng, n, Q)
            t = compose_canonical(cp)
            a = sample_bounded_prk(rng, n, k, Q)
            r = prk(a).rank
            assert prk(t.apply(a)).rank == r


class TestJson:
    def test_linear_map_round_trip(self, F3):
        rng = random.Random(16)
        t = random_bijective_map(rng, 3, F3)
        assert linear_map_from_json(linear_map_to_json(t)) == t

    def test_vectorization_tag(self, F3):
        doc = linear_map_to_json(LinearMap.identity(3, F3))
        assert doc["vectorization"] == "row-major"
        doc["vectorization"] = "col-major"
        with pytest.raises(InvalidRange):
            linear_map_from_json(doc)

    def test_canonical_round_trip(self, F5):
        rng = random.Random(17)
        cp = random_canonical_preserver(rng, 4, F5)
        assert canonical_from_json(canonical_to_json(cp)) == cp


class TestSeededOutputs:
    """Draws pinned to the values the seeded generators have always produced."""

    def test_sample_bounded_prk_draws(self, F5, Q):
        rng = random.Random("pin")
        got = [sample_bounded_prk(rng, 4, 2, F5) for _ in range(4)]
        assert got == [
            mat([[0, 0, 0, 4], [0, 0, 3, 4], [0, 0, 1, 1], [0, 0, 1, 4]], F5),
            mat([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 4, 0], [0, 0, 0, 0]], F5),
            mat([[0, 0, 2, 0], [0, 0, 0, 0], [0, 2, 0, 2], [0, 2, 0, 3]], F5),
            mat([[0, 0, 3, 3], [0, 0, 1, 0], [0, 0, 0, 4], [0, 0, 3, 1]], F5),
        ]
        rng = random.Random("pin")
        got = [sample_bounded_prk(rng, 3, 1, Q) for _ in range(4)]
        assert got == [
            mat([[0, 2, 0], [0, "3/2", 0], [0, 2, 0]], Q),
            mat([["-4/3", 0, 0], [2, 0, 0], [2, 0, 0]], Q),
            mat([[0, 0, 0], ["3/2", 0, "3/2"], ["3/2", 0, "-3/2"]], Q),
            mat([["5/3", 0, "-5/3"], [0, 0, 0], ["5/3", 0, "5/3"]], Q),
        ]

    def test_search_stage_c_witnesses(self, F3):
        # A -> A + (sum of all entries) E_11.  Over F_3 every unit image and
        # every k=2 probe image keeps per = 0, so stages (a) and (b) find
        # nothing and the witness comes from the supported-subspace stage.
        t = LinearMap.from_unit_images(3, F3, lambda i, j: unit(i, j, 3, F3) + unit(1, 1, 3, F3))
        k = 2
        assert all(
            prk_decide_leq(t.apply(unit(i, j, 3, F3)), k) for i in range(1, 4) for j in range(1, 4)
        )
        assert all(prk_decide_leq(t.apply(x), k) for x in probe_family(3, k, F3))
        got = [_search_counterexample(t, k, seed=seed, samples=0) for seed in (0, 1, 3)]
        assert got == [
            mat([[0, 2, 1], [0, 0, 2], [0, 1, 2]], F3),
            mat([[0, 0, 0], [1, 2, 1], [1, 1, 2]], F3),
            mat([[0, 0, 0], [2, 0, 2], [0, 1, 0]], F3),
        ]
