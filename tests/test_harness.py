import json

import pytest

from permrank import (
    build_theta,
    diagonal,
    enumerate_canonical_preservers,
    permutation_matrix,
    prk,
    verify_converse_sampled,
    verify_density_chain,
    verify_forward_exhaustive,
    verify_invariance,
    verify_theta,
    zero_matrix,
)
from permrank.errors import BudgetExceeded, InvalidRange
from permrank.matrices import Permutation


class TestInvariance:
    def test_runs_clean_f3(self, F3):
        report = verify_invariance(3, F3, trials=60, seed=7)
        assert report.ok and report.cases == 60

    def test_runs_clean_rationals(self, Q):
        report = verify_invariance(4, Q, trials=20, seed=7)
        assert report.ok and report.cases == 20

    def test_degenerate_zero_matrix(self, F3):
        # rank 0 is preserved by every operation
        z = zero_matrix(3, F3)
        p = permutation_matrix(Permutation((2, 3, 1)), F3)
        d = diagonal((F3(1), F3(2), F3(2)), F3)
        for image in (z.transpose(), p @ z, z @ p, d @ z, z @ d):
            assert prk(image).rank == 0

    def test_size_guard(self, F3):
        with pytest.raises(InvalidRange):
            verify_invariance(7, F3)


class TestEnumeration:
    def test_canonical_count_formula(self):
        # 2 flags * (3!)^2 permutation pairs * (2^3)^2 diagonal sign patterns
        count = sum(1 for _ in enumerate_canonical_preservers(3, 3))
        assert count == 2 * 36 * 64 == 4608

    def test_enumeration_is_deterministic(self):
        first = [
            (cp.transpose_flag, cp.sigma1.images, cp.sigma2.images)
            for cp in list(enumerate_canonical_preservers(3, 3))[:10]
        ]
        second = [
            (cp.transpose_flag, cp.sigma1.images, cp.sigma2.images)
            for cp in list(enumerate_canonical_preservers(3, 3))[:10]
        ]
        assert first == second


class TestConverse:
    def test_small_run_agrees(self):
        report = verify_converse_sampled(3, 1, 3, trials=15, seed=3)
        assert report.ok and report.cases == 15


class TestTheta:
    def test_regular_and_special_parameters(self):
        assert verify_theta(3, 1).ok
        report = verify_theta(4, 2)
        assert report.ok
        assert report.params["components"] == 1
        assert report.params["zero_weight_edges"] == 6

    def test_weight_mismatch_is_recorded(self, monkeypatch):
        from permrank import harness

        def corrupted(n, k, **kwargs):
            graph = build_theta(n, k, **kwargs)
            graph.weights[(0, 10)] = 3  # R{1,2} -- C{1,2}; the true weight is 4
            return graph

        monkeypatch.setattr(harness, "build_theta", corrupted)
        report = verify_theta(5, 2)
        assert report.failures == [
            {"u": "R{1,2}", "v": "C{1,2}", "closed_form": 3, "echelon": 4}
        ]
        assert report.cases == 1 + 190


class TestDensity:
    def test_small_run(self):
        report = verify_density_chain(3, 2, trials=8, seed=5)
        assert report.ok and report.cases == 8

    def test_k_range(self):
        with pytest.raises(InvalidRange):
            verify_density_chain(3, 4)


class TestDeterminism:
    def test_reports_are_byte_stable_under_a_seed(self, F3):
        a = verify_invariance(3, F3, trials=25, seed=11).to_json_dict()
        b = verify_invariance(3, F3, trials=25, seed=11).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = verify_density_chain(3, 2, trials=5, seed=11).to_json_dict()
        d = verify_density_chain(3, 2, trials=5, seed=11).to_json_dict()
        assert json.dumps(c, sort_keys=True) == json.dumps(d, sort_keys=True)

    def test_timing_excluded_from_json_by_default(self, F3):
        report = verify_invariance(3, F3, trials=5, seed=0)
        assert "seconds" not in report.to_json_dict()


class TestForwardSlice:
    def test_first_canonical_maps_pass_exhaustively(self):
        # the full 4608-map run lives in the acceptance suite; spot-check a
        # slice through the same code path
        from itertools import islice

        from permrank import check_preserves, compose_canonical

        for cp in islice(enumerate_canonical_preservers(3, 3), 12):
            assert check_preserves(compose_canonical(cp), 1, mode="exhaustive").kind == "preserver"

    def test_case_count_is_capped_before_enumerating(self):
        # 2 * (3!)^2 * 4^6 = 294912 canonical tuples over F_5
        with pytest.raises(BudgetExceeded, match="294912"):
            verify_forward_exhaustive(3, 1, 5)
