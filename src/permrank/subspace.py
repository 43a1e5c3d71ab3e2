"""Linear subspaces of the n x n matrix space.

Subspaces are represented by explicit bases of matrices; equality,
intersection, and membership go through reduced row-echelon form of the
row-major vectorized bases, which is canonical.  The module also classifies
subspaces of maximal dimension inside a bounded-permanental-rank set: those
are exactly the row-supported and column-supported spaces, and
:func:`classify_maximal` recognizes them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import linalg
from ._batch import (
    batch_prk_leq,
    check_enumeration_budget,
    ints_to_matrix,
    iter_digit_chunks,
    matrix_ints,
)
from .errors import (
    BudgetExceeded,
    DependentBasis,
    FieldMismatch,
    IndexOutOfRange,
    InvalidRange,
    ShapeMismatch,
    VerificationError,
)
from .fields import Field, PrimeField
from .matrices import Matrix, unit
from .permanent import prk_decide_leq

ROW = "row"
COL = "col"

#: Exhaustive span enumeration refuses to walk more members than this.
SPAN_BUDGET = 1 << 24


def _check_members(n: int, field: Field, mats):
    for m in mats:
        if m.rows != n or m.cols != n:
            raise ShapeMismatch(f"basis matrix is {m.rows}x{m.cols}, ambient is {n}")
        if m.field != field:
            raise FieldMismatch("basis matrices must share the subspace field")


class SubspaceBasis:
    """A subspace of ``Mat_n`` given by a linearly independent basis."""

    __slots__ = ("n", "field", "basis", "_reduced")

    def __init__(self, n: int, field: Field, basis, *, _checked: bool = False):
        basis = tuple(basis)
        _check_members(n, field, basis)
        self.n = n
        self.field = field
        self.basis = basis
        self._reduced = None
        if not _checked and basis:
            if linalg.rank(self.vectorized(), field) != len(basis):
                raise DependentBasis("basis matrices are linearly dependent")

    @classmethod
    def span(cls, n: int, field: Field, mats) -> "SubspaceBasis":
        """Subspace spanned by arbitrary matrices (dependencies dropped)."""
        mats = tuple(mats)
        _check_members(n, field, mats)
        rows = [list(m.data) for m in mats]
        reduced, _ = linalg.rref(rows, field)
        basis = [Matrix(n, n, row, field) for row in reduced]
        return cls(n, field, basis, _checked=True)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vectorized(self) -> list:
        return [list(m.data) for m in self.basis]

    def combination(self, coeffs) -> Matrix:
        """The member ``sum(c * b)`` for raw field values ``coeffs``, one per
        basis matrix ``b``."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.dim:
            raise ShapeMismatch(f"need {self.dim} coefficients, got {len(coeffs)}")
        field = self.field
        add, mul, zero = field.add, field.mul, field.zero
        acc = [zero] * (self.n * self.n)
        for c, b in zip(coeffs, self.basis):
            if c != zero:
                acc = [add(x, mul(c, y)) for x, y in zip(acc, b.data)]
        return Matrix(self.n, self.n, acc, field)

    def reduced_rows(self) -> list:
        if self._reduced is None:
            self._reduced = linalg.rref(self.vectorized(), self.field)[0]
        return self._reduced

    def _check_compatible(self, other: "SubspaceBasis"):
        if self.n != other.n:
            raise ShapeMismatch("subspaces live in different ambient sizes")
        if self.field != other.field:
            raise FieldMismatch("subspaces live over different fields")

    def equals(self, other: "SubspaceBasis") -> bool:
        self._check_compatible(other)
        return self.reduced_rows() == other.reduced_rows()

    def contains(self, m: Matrix) -> bool:
        if m.rows != self.n or m.cols != self.n:
            raise ShapeMismatch("matrix shape does not match the ambient space")
        if m.field != self.field:
            raise FieldMismatch("matrix field does not match the subspace field")
        return linalg.rank(self.reduced_rows() + [list(m.data)], self.field) == self.dim

    def intersect(self, other: "SubspaceBasis") -> "SubspaceBasis":
        self._check_compatible(other)
        rows = linalg.intersection(self.vectorized(), other.vectorized(), self.field)
        mats = [Matrix(self.n, self.n, row, self.field) for row in rows]
        return SubspaceBasis(self.n, self.field, mats, _checked=True)

    def __repr__(self):
        return f"SubspaceBasis(n={self.n}, dim={self.dim}, {self.field.name})"


@dataclass(frozen=True)
class CanonicalSubspace:
    """A row- or column-supported subspace, identified by its support set."""

    orientation: str
    support: tuple

    def __post_init__(self):
        if self.orientation not in (ROW, COL):
            raise InvalidRange(f"orientation must be {ROW!r} or {COL!r}")
        support = tuple(sorted(self.support))
        if not support or len(set(support)) != len(support):
            raise InvalidRange("support must be a nonempty set of indices")
        object.__setattr__(self, "support", support)


def canonical_basis(cs: CanonicalSubspace, n: int, field: Field) -> SubspaceBasis:
    """Matrix-unit basis of a row/column-supported subspace; dim = |S| * n."""
    for i in cs.support:
        if not (1 <= i <= n):
            raise IndexOutOfRange(f"support index {i} outside 1..{n}")
    if cs.orientation == ROW:
        units = [unit(i, j, n, field) for i in cs.support for j in range(1, n + 1)]
    else:
        units = [unit(i, j, n, field) for i in range(1, n + 1) for j in cs.support]
    return SubspaceBasis(n, field, units, _checked=True)


@dataclass(frozen=True)
class SpanVerdict:
    """Outcome of a span membership check: yes / no(counterexample) / unknown."""

    kind: str
    counterexample: Matrix | None = None


def within_prk_bound(
    v: SubspaceBasis,
    k: int,
    mode: str = "exhaustive",
    *,
    samples: int = 500,
    seed: int = 0,
    budget: int | None = None,
) -> SpanVerdict:
    """Decide whether every member of the span has permanental rank <= k.

    Exhaustive mode walks the whole (finite) span in lexicographic coordinate
    order and returns the first violating member; it requires a prime field
    and a span size within the budget.  Sample mode draws random coordinate
    tuples (uniform field elements, or integers in -3..3 over the rationals)
    and can only answer ``no`` or ``unknown``.
    """
    n, field = v.n, v.field
    if not (0 <= k <= n):
        raise InvalidRange(f"k={k} outside 0..{n}")
    if v.dim == 0:
        return SpanVerdict("yes")
    if mode == "exhaustive":
        if not isinstance(field, PrimeField):
            raise BudgetExceeded("exhaustive span enumeration needs a finite field")
        p = field.p
        check_enumeration_budget(p**v.dim, SPAN_BUDGET if budget is None else budget)
        basis_ints = np.stack([matrix_ints(b) for b in v.basis])
        for _, coords in iter_digit_chunks(v.dim, p):
            members = coords.astype(np.int64) @ basis_ints % p
            ok = batch_prk_leq(members, n, k, p)
            if not ok.all():
                idx = int(np.flatnonzero(~ok)[0])
                member = ints_to_matrix(members[idx], n, field)
                if prk_decide_leq(member, k):
                    raise VerificationError("enumeration kernel disagrees with scalar check")
                return SpanVerdict("no", member)
        return SpanVerdict("yes")
    if mode == "sample":
        rng = random.Random(f"span:{seed}")
        rational = not isinstance(field, PrimeField)
        for _ in range(samples):
            if rational:
                coeffs = [field.coerce(rng.randint(-3, 3)) for _ in range(v.dim)]
            else:
                coeffs = [rng.randrange(field.p) for _ in range(v.dim)]
            member = v.combination(coeffs)
            if not prk_decide_leq(member, k):
                return SpanVerdict("no", member)
        return SpanVerdict("unknown")
    raise InvalidRange(f"unknown mode {mode!r}")


def classify_maximal(v: SubspaceBasis, k: int) -> CanonicalSubspace | None:
    """Recognize a maximal bounded-rank subspace.

    Returns the matching row/column-supported description when ``v`` equals
    one as a set (dimension ``k*n`` and echelon forms agree), else ``None``.
    The candidate support can be read off the basis, so only two echelon
    comparisons are ever needed.
    """
    n = v.n
    if k < 1 or v.dim != k * n:
        return None
    zero = v.field.zero
    row_support, col_support = set(), set()
    for m in v.basis:
        for pos, val in enumerate(m.data):
            if val != zero:
                row_support.add(pos // n + 1)
                col_support.add(pos % n + 1)
    if len(row_support) == k:
        cs = CanonicalSubspace(ROW, tuple(sorted(row_support)))
        if v.equals(canonical_basis(cs, n, v.field)):
            return cs
    if len(col_support) == k:
        cs = CanonicalSubspace(COL, tuple(sorted(col_support)))
        if v.equals(canonical_basis(cs, n, v.field)):
            return cs
    return None
