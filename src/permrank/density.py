"""Constructive rank lifting over the rationals.

Given a matrix of permanental rank ``k-1`` and a polynomial constraint that
does not vanish at it, a single entry perturbation ``A + mu * E_{i,j}``
(position chosen off the certifying submatrix) raises the rank to exactly
``k`` while keeping the constraint nonzero.  The subpermanent on the enlarged
index sets is an affine function of ``mu`` with nonzero slope, so it has one
root; the constraint contributes at most ``degree`` more excluded values, and
the least positive integer avoiding all of them works.  Only the rationals
are supported: over a finite field the perturbation may have no admissible
value at all.

Each candidate changes one entry: of the grown (k x k) submatrix for the
root test, and of ``A`` for the constraint and rank checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import (
    ConstraintVanishesAtA,
    FieldNotInfinite,
    IndexOutOfRange,
    InvalidRange,
    PositionInsideWitness,
    VerificationError,
)
from .fields import Rationals, Scalar
from .matrices import Matrix, zero_matrix
from .permanent import per_fast, prk, prk_decide_leq


@dataclass(frozen=True)
class PolyConstraint:
    """A polynomial function of the matrix entries, given as a black box.

    ``evaluate`` must be polynomial in the entries (the caller's
    responsibility) and ``degree`` must bound its total degree; root
    avoidance scans trial values instead of factoring anything.
    """

    evaluate: Callable[[Matrix], Scalar]
    degree: int
    label: str = ""


def entry_constraint(i: int, j: int) -> PolyConstraint:
    """The single coordinate function ``A -> a_{i,j}``."""
    return PolyConstraint(
        evaluate=lambda a: a.entry(i, j), degree=1, label=f"entry:{i},{j}"
    )


def subpermanent_constraint(row_set, col_set) -> PolyConstraint:
    """The permanent of the submatrix on the given (equal-size) index sets."""
    rows = tuple(sorted(row_set))
    cols = tuple(sorted(col_set))
    if len(rows) != len(cols):
        raise InvalidRange("subpermanent constraint needs equal-size index sets")
    return PolyConstraint(
        evaluate=lambda a: per_fast(a.submatrix(rows, cols)),
        degree=max(len(rows), 1),
        label="perminor:" + ",".join(map(str, rows)) + ":" + ",".join(map(str, cols)),
    )


def constant_one() -> PolyConstraint:
    return PolyConstraint(
        evaluate=lambda a: Scalar(a.field.one, a.field), degree=0, label="one"
    )


def lift_rank(
    a: Matrix, constraint: PolyConstraint, position: tuple | None = None
) -> Matrix:
    """Raise the permanental rank by one while keeping ``constraint`` nonzero.

    Returns ``X = A + mu * E_{i,j}`` for the least positive integer ``mu``
    avoiding the single root of the enlarged subpermanent and every root of
    the constraint.  The enlarged subpermanent is evaluated on the grown
    submatrix with its one entry changed; its values at mu = 0, 1, 2 are
    checked to be affine with slope equal to the witness permanent, and are
    reused for the candidates mu = 1, 2.  ``X`` is built, with that one entry
    changed, only for a candidate off the subpermanent's root.  The result is
    machine-verified before returning: rank exactly one above the input,
    constraint nonzero.  Raises :class:`VerificationError` when a check fails
    or when no candidate up to ``degree + 2`` is admissible.
    """
    field = a.field
    if not isinstance(field, Rationals):
        raise FieldNotInfinite(
            "rank lifting needs an infinite field; finite fields are rejected"
        )
    n = a.rows
    f_at_a = constraint.evaluate(a)
    if f_at_a.is_zero:
        raise ConstraintVanishesAtA(f"constraint {constraint.label or ''} vanishes at A")
    witness = prk(a)
    if witness.rank >= n:
        raise InvalidRange(f"rank {witness.rank} is already maximal for n={n}")
    if position is None:
        i = min(set(range(1, n + 1)) - set(witness.row_set))
        j = min(set(range(1, n + 1)) - set(witness.col_set))
    else:
        i, j = position
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"position ({i},{j}) outside 1..{n}")
        if i in witness.row_set or j in witness.col_set:
            raise PositionInsideWitness(
                f"position ({i},{j}) meets the certifying sets "
                f"{witness.row_set} x {witness.col_set}"
            )
    target_rank = witness.rank + 1
    grown_rows = tuple(sorted(witness.row_set + (i,)))
    grown_cols = tuple(sorted(witness.col_set + (j,)))
    grown = a.submatrix(grown_rows, grown_cols)
    grown_at = (grown_rows.index(i) + 1, grown_cols.index(j) + 1)

    def grown_per(mu: int) -> Scalar:
        return per_fast(_plus_unit(grown, grown_at, mu))

    # The grown subpermanent is affine in mu with slope equal to the witness
    # permanent; check both facts numerically before trusting the root count.
    q = [grown_per(mu) for mu in range(3)]
    if q[2] - q[1] != q[1] - q[0]:
        raise VerificationError("grown subpermanent is not affine in the perturbation")
    if q[1] - q[0] != witness.per_value:
        raise VerificationError(
            "slope of the grown subpermanent differs from the witness permanent"
        )

    for mu in range(1, constraint.degree + 3):
        if (q[mu] if mu < 3 else grown_per(mu)).is_zero:
            continue
        x = _plus_unit(a, (i, j), mu)
        if constraint.evaluate(x).is_zero:
            continue
        if not prk_decide_leq(x, target_rank):
            raise VerificationError("perturbation overshot the target rank")
        return x
    raise VerificationError(
        "no admissible perturbation within degree+2 candidates; "
        "the declared constraint degree is too small"
    )


def _plus_unit(m: Matrix, position: tuple, mu: int) -> Matrix:
    """``m + mu * E_{i,j}`` for the 1-based ``position = (i, j)``: a copy of
    ``m`` with that one entry changed."""
    i, j = position
    data = list(m.data)
    at = (i - 1) * m.cols + (j - 1)
    data[at] = m.field.add(data[at], m.field.coerce(mu))
    return Matrix(m.rows, m.cols, data, m.field)


def lift_chain(
    n: int, target_rank: int, constraint: PolyConstraint | None = None
) -> list:
    """Lift the zero matrix one rank at a time up to ``target_rank``.

    Returns the list of matrices from rank 0 to the target, each step
    verified exact.
    """
    if not (0 <= target_rank <= n):
        raise InvalidRange(f"target rank {target_rank} outside 0..{n}")
    constraint = constant_one() if constraint is None else constraint
    current = zero_matrix(n, Rationals())
    chain = [current]
    for _ in range(target_rank):
        current = lift_rank(current, constraint)
        chain.append(current)
    return chain
