"""Reproducible verification suites tying the modules together.

Each suite replays one of the library's structural facts at desk scale and
returns a :class:`VerificationReport`; a nonempty failure list carries a
minimal JSON reproducer per failure.  Suites are deterministic under a fixed
seed: per-trial generators are derived as ``Random(f"{seed}:{trial}")`` so
results do not depend on how trials are scheduled.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dataclass_field
from itertools import permutations, product
from math import factorial

from ._batch import check_enumeration_budget
from .density import constant_one, entry_constraint, lift_rank, subpermanent_constraint
from .errors import InvalidRange, UnsupportedSize
from .fields import Field, PrimeField, Rationals, Scalar
from .matrices import Permutation, diagonal, matrix_to_json, permutation_matrix
from .permanent import prk
from .preserver import (
    PRESERVER,
    CanonicalPreserver,
    canonical_to_json,
    check_preserves,
    compose_canonical,
    linear_map_to_json,
)
from .sampling import (
    random_bijective_map,
    random_matrix,
    random_nonsingular_diagonal,
    random_permutation,
    sample_bounded_prk,
)
from .theta import _check_component_structure, _weight_mismatches, build_theta

#: The forward suite refuses to enumerate more canonical preservers than this.
FORWARD_BUDGET = 1 << 16


@dataclass
class VerificationReport:
    """Outcome of one suite run.  ``failures`` must be empty on success."""

    suite: str
    params: dict
    mode: str
    cases: int = 0
    failures: list = dataclass_field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        """The report without ``seconds``, so equal seeds give equal JSON."""
        return {
            "suite": self.suite,
            "params": self.params,
            "mode": self.mode,
            "cases": self.cases,
            "failures": self.failures,
            "ok": self.ok,
        }


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random(f"{seed}:{trial}")


def _check_trials(trials: int):
    if trials < 0:
        raise InvalidRange(f"trials must be >= 0, got {trials}")


def verify_invariance(
    n: int, field: Field, trials: int = 500, seed: int = 0
) -> VerificationReport:
    """Permanental rank is invariant under transposition, row/column
    permutation, and row/column rescaling; check all five on random inputs."""
    if n > 6:
        raise InvalidRange("invariance suite is capped at n=6")
    _check_trials(trials)
    report = VerificationReport(
        suite="invariance",
        params={"n": n, "field": field.name, "trials": trials, "seed": seed},
        mode="random",
    )
    start = time.monotonic()
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        a = random_matrix(rng, n, field)
        p1 = permutation_matrix(random_permutation(rng, n), field)
        p2 = permutation_matrix(random_permutation(rng, n), field)
        d1 = diagonal(random_nonsingular_diagonal(rng, n, field), field)
        d2 = diagonal(random_nonsingular_diagonal(rng, n, field), field)
        base = prk(a).rank
        transformed = {
            "transpose": a.transpose(),
            "row-permutation": p1 @ a,
            "col-permutation": a @ p2,
            "row-rescaling": d1 @ a,
            "col-rescaling": a @ d2,
        }
        for op, image in transformed.items():
            got = prk(image).rank
            if got != base:
                report.failures.append(
                    {
                        "trial": trial,
                        "op": op,
                        "expected": base,
                        "got": got,
                        "matrix": matrix_to_json(a),
                    }
                )
        report.cases += 1
    report.seconds = time.monotonic() - start
    return report


def enumerate_canonical_preservers(n: int, p: int):
    """All canonical tuples over F_p with full diagonal ranges, both flags.

    Count: 2 * (n!)^2 * (p-1)^(2n).  Deterministic order: flag, sigma1,
    sigma2, d1, d2, each lexicographic.
    """
    field = PrimeField(p)
    perms = [Permutation(images) for images in permutations(range(1, n + 1))]
    nonzero = [Scalar(v, field) for v in field.nonzero_elements()]
    diagonals = list(product(nonzero, repeat=n))
    for flag in (False, True):
        for sigma1 in perms:
            for sigma2 in perms:
                for d1 in diagonals:
                    for d2 in diagonals:
                        yield CanonicalPreserver(
                            d1=d1,
                            sigma1=sigma1,
                            transpose_flag=flag,
                            sigma2=sigma2,
                            d2=d2,
                        )


def verify_forward_exhaustive(n: int, k: int, p: int) -> VerificationReport:
    """Every canonical preserver passes the exhaustive membership check.

    Refuses with :class:`BudgetExceeded` when the case count exceeds
    :data:`FORWARD_BUDGET`.
    """
    if n < 3:
        raise UnsupportedSize(f"preserver decisions need n >= 3, got n={n}")
    check_enumeration_budget(2 * factorial(n) ** 2 * (p - 1) ** (2 * n), FORWARD_BUDGET)
    report = VerificationReport(
        suite="thm12-forward",
        params={"n": n, "k": k, "p": p},
        mode="exhaustive",
    )
    start = time.monotonic()
    for cp in enumerate_canonical_preservers(n, p):
        verdict = check_preserves(compose_canonical(cp), k, mode="exhaustive")
        if verdict.kind != PRESERVER:
            report.failures.append(
                {
                    "canonical": canonical_to_json(cp),
                    "verdict": verdict.kind,
                    "detail": verdict.detail,
                }
            )
        report.cases += 1
    report.seconds = time.monotonic() - start
    return report


def verify_converse_sampled(
    n: int, k: int, p: int, trials: int = 200, seed: int = 0
) -> VerificationReport:
    """Structural and exhaustive verdicts agree on random bijective operators.

    Either the decomposition succeeds (and recomposes to the same operator) or
    both routes report a verified counterexample.
    """
    _check_trials(trials)
    field = PrimeField(p)
    # the exhaustive route's budget, checked before any operator is sampled
    check_enumeration_budget(p ** (n * n), None)
    report = VerificationReport(
        suite="thm12-converse",
        params={"n": n, "k": k, "p": p, "trials": trials, "seed": seed},
        mode="cross-validation",
    )
    start = time.monotonic()
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        tmap = random_bijective_map(rng, n, field)
        structural = check_preserves(tmap, k, mode="structural", seed=seed)
        exhaustive = check_preserves(tmap, k, mode="exhaustive")
        agree = structural.kind == exhaustive.kind
        if structural.kind == PRESERVER and agree:
            if compose_canonical(structural.canonical) != tmap:
                agree = False
        if not agree:
            report.failures.append(
                {
                    "trial": trial,
                    "structural": structural.kind,
                    "exhaustive": exhaustive.kind,
                    "map": linear_map_to_json(tmap),
                }
            )
        report.cases += 1
    report.seconds = time.monotonic() - start
    return report


def verify_theta(n: int, k: int) -> VerificationReport:
    """Component structure of the threshold subgraph, plus a full
    cross-validation of the closed-form weights against echelon
    intersections."""
    report = VerificationReport(
        suite="theta", params={"n": n, "k": k}, mode="exhaustive"
    )
    start = time.monotonic()
    graph = build_theta(n, k, cross_validate=False)
    structure = _check_component_structure(graph)
    report.cases += 1
    for u, v, w, got in _weight_mismatches(graph):
        report.failures.append(
            {
                "u": graph.vertices[u].label,
                "v": graph.vertices[v].label,
                "closed_form": w,
                "echelon": got,
            }
        )
    report.cases += len(graph.weights)
    report.params.update(structure)
    report.seconds = time.monotonic() - start
    return report


def verify_density_chain(
    n: int, k: int, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Random rank-(k-1) rationals lift to rank exactly k with the constraint
    preserved; the affine-slope assertions run inside every lift."""
    if not (1 <= k <= n):
        raise InvalidRange(f"k={k} outside 1..{n}")
    _check_trials(trials)
    field = Rationals()
    report = VerificationReport(
        suite="density",
        params={"n": n, "k": k, "trials": trials, "seed": seed},
        mode="random",
    )
    start = time.monotonic()
    for trial in range(trials):
        rng = _trial_rng(seed, trial)
        a = _random_exact_rank(rng, n, k - 1, field)
        witness = prk(a)
        constraint = _pick_constraint(rng, a, witness)
        try:
            x = lift_rank(a, constraint)
        except Exception as exc:  # any failure is a reportable event
            report.failures.append(
                {"trial": trial, "error": str(exc), "matrix": matrix_to_json(a)}
            )
            report.cases += 1
            continue
        lifted = prk(x)
        f_val = constraint.evaluate(x)
        if lifted.rank != k or f_val.is_zero:
            report.failures.append(
                {
                    "trial": trial,
                    "rank": lifted.rank,
                    "constraint": constraint.label,
                    "matrix": matrix_to_json(a),
                    "lifted": matrix_to_json(x),
                }
            )
        report.cases += 1
    report.seconds = time.monotonic() - start
    return report


def _random_exact_rank(rng, n, rank, field):
    """Random rational matrix of permanental rank exactly ``rank``."""
    while True:
        a = sample_bounded_prk(rng, n, rank, field)
        if prk(a).rank == rank:
            return a


def _pick_constraint(rng, a, witness):
    choice = rng.randrange(3)
    if choice == 0:
        return constant_one()
    if choice == 1 and witness.rank >= 1:
        return subpermanent_constraint(witness.row_set, witness.col_set)
    zero = a.field.zero
    nonzero_positions = [
        (pos // a.cols + 1, pos % a.cols + 1)
        for pos, v in enumerate(a.data)
        if v != zero
    ]
    if not nonzero_positions:
        return constant_one()
    i, j = rng.choice(nonzero_positions)
    return entry_constraint(i, j)
