"""Acceptance suite: the package's exit gate.

One test per criterion, in order, each ending with an explicit pass line so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  Counts,
parameter ranges, and wall-clock limits are pinned here and must not be
loosened.
"""

import random
import time
from itertools import product
from math import comb

from permrank import (
    CanonicalSubspace,
    Matrix,
    QQ,
    PrimeField,
    build_theta,
    canonical_basis,
    check_preserves,
    compose_canonical,
    decompose,
    lift_chain,
    per_fast,
    per_naive,
    prk,
    prk_decide_leq,
    verify_component_structure,
    verify_density_chain,
    verify_forward_exhaustive,
    verify_invariance,
)
from permrank.preserver import random_bijective_map
from permrank.sampling import random_matrix

from oracle import prk_oracle, random_canonical_preserver, witness_is_valid

F3 = PrimeField(3)
F5 = PrimeField(5)
Q = QQ


def _passed(num: int, text: str) -> None:
    print(f"\n[criterion {num:02d}] PASS  {text}")


def test_criterion_01_permanent_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    for values in product(range(3), repeat=9):
        m = Matrix(3, 3, values, F3)
        if per_fast(m) != per_naive(m):
            mismatches += 1
    assert mismatches == 0
    rng = random.Random(101)
    for n in range(2, 7):
        for _ in range(1000):
            m = random_matrix(rng, n, Q)
            if per_fast(m) != per_naive(m):
                mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed <= 60.0, f"took {elapsed:.1f}s, limit 60s"
    _passed(1, f"19683 F_3 matrices + 5000 rational matrices, 0 mismatches, {elapsed:.1f}s")


def test_criterion_02_witness_validity():
    rng = random.Random(202)
    checked = 0
    for trial in range(1000):
        n = 2 + trial % 4  # n in 2..5
        field = F3 if trial % 2 == 0 else Q
        m = random_matrix(rng, n, field)
        w = prk(m)
        assert w.rank == prk_oracle(m), (trial, w)
        assert witness_is_valid(m, w), (trial, w)
        for k in range(n + 1):
            assert prk_decide_leq(m, k) == (w.rank <= k), (trial, k)
        checked += 1
    _passed(2, f"{checked} witnesses valid against full submatrix enumeration")


def test_criterion_03_invariance_suite():
    total_failures = 0
    runs = []
    for n in (3, 4):
        for field, trials in ((F3, 500), (Q, 200)):
            report = verify_invariance(n, field, trials=trials, seed=303)
            total_failures += len(report.failures)
            runs.append(f"n={n}/{field.name}:{report.cases}")
    assert total_failures == 0
    _passed(3, f"rank invariance, 0 failures ({', '.join(runs)})")


def test_criterion_04_intersection_weights():
    pairs = 0
    for n in range(2, 7):
        for k in range(1, n):
            graph = build_theta(n, k)
            assert len(graph.vertices) == 2 * comb(n, k)
            bases = [
                canonical_basis(CanonicalSubspace(v.orientation, v.support), n, F3)
                for v in graph.vertices
            ]
            for u, v, w in graph.edges():
                assert bases[u].intersect(bases[v]).dim == w, (n, k, u, v)
                pairs += 1
    _passed(4, f"closed-form weights equal echelon intersections on {pairs} pairs, n <= 6")


def test_criterion_05_component_structure():
    start = time.monotonic()
    checked = []
    for n in range(2, 8):
        for k in range(1, n):
            report = verify_component_structure(n, k)
            if (k, n) == (2, 4):
                assert report["components"] == 1
                assert report["zero_weight_edges"] == 6
            else:
                assert report["components"] == 2
            checked.append((n, k))
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"took {elapsed:.1f}s, limit 10s"
    _passed(5, f"{len(checked)} parameter pairs up to n=7 incl. the (4,2) exception, {elapsed:.1f}s")


def test_criterion_06_forward_exhaustive():
    start = time.monotonic()
    for k in (1, 2):
        report = verify_forward_exhaustive(3, k, 3)
        assert report.cases == 4608 == 2 * 36 * 64, report.cases
        assert report.ok, report.failures[:3]
    elapsed = time.monotonic() - start
    assert elapsed <= 600.0, f"took {elapsed:.1f}s, limit 600s"
    _passed(6, f"all 4608 canonical maps pass exhaustively for k=1 and k=2, {elapsed:.1f}s")


def test_criterion_07_decompose_round_trip():
    rng = random.Random(707)
    for trial in range(1000):
        n = 3 + trial % 3  # n in 3..5
        field = F5 if trial % 2 == 0 else Q
        cp = random_canonical_preserver(rng, n, field)
        tmap = compose_canonical(cp)
        got = decompose(tmap, 1 + trial % (n - 1))
        assert compose_canonical(got) == tmap, trial
        assert got == cp.normalized(), trial
    _passed(7, "1000 round trips over F_5 and Q, recomposition exact, tuples normalized")


def test_criterion_08_converse_cross_validation():
    rng = random.Random(808)
    agreements = 0
    for trial in range(200):
        tmap = random_bijective_map(rng, 3, F3)
        for k in (1, 2):
            structural = check_preserves(tmap, k, mode="structural", seed=trial)
            exhaustive = check_preserves(tmap, k, mode="exhaustive")
            assert structural.kind == exhaustive.kind, (trial, k)
            for verdict in (structural, exhaustive):
                if verdict.kind == "not_preserver":
                    a = verdict.counterexample
                    assert prk_decide_leq(a, k)
                    assert not prk_decide_leq(tmap.apply(a), k)
            agreements += 1
    _passed(8, f"structural and exhaustive verdicts agree in {agreements} checks, "
               "counterexamples machine-verified")


def test_criterion_09_density_lifts():
    for n, k in ((3, 2), (4, 3)):
        report = verify_density_chain(n, k, trials=100, seed=909)
        assert report.cases == 100
        assert report.ok, report.failures[:3]
    chain = lift_chain(3, 3)
    assert [prk(m).rank for m in chain] == [0, 1, 2, 3]
    _passed(9, "100 lifts at (3,2) and (4,3) plus the 0->1->2->3 chain, all rank-exact")


def test_criterion_10_exceptional_case_end_to_end():
    report = verify_component_structure(4, 2)
    assert report["components"] == 1 and report["zero_weight_edges"] == 6
    rng = random.Random(1010)
    for trial in range(50):
        field = F5 if trial % 2 == 0 else Q
        cp = random_canonical_preserver(rng, 4, field)
        tmap = compose_canonical(cp)
        got = decompose(tmap, 2)
        assert compose_canonical(got) == tmap, trial
        assert got == cp.normalized(), trial
    _passed(10, "50 decompositions at n=4, k=2 despite the connected threshold graph")
