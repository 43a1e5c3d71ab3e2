"""Linear subspaces of the n x n matrix space.

Subspaces are represented by explicit bases of matrices.  Each
:class:`SubspaceBasis` reduces its row-major vectorized basis once, when it is
built, on every construction path: that one reduction checks independence,
and its reduced rows, a canonical form of the subspace, serve equality,
intersection and membership.  A row- or column-supported subspace is a
:class:`CanonicalSubspace`, its orientation and support, which lists its
matrix units.  For n >= 3 these are exactly the subspaces of maximal
dimension inside a bounded-permanental-rank set, and :func:`classify_maximal`
recognizes them by support and dimension.  "Maximal" means "of maximal
dimension" throughout, not maximal under inclusion.  At n = 2 the
characterization fails: {prk <= 1} over F_p holds 2(p+1) planes, since a 2x2
permanent is the determinant of [[a, -b], [c, d]], a split quadratic form;
only 4 of them are row- or column-supported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from ._batch import batch_prk_leq, check_enumeration_budget, code_digits, ints_to_matrix
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
#: Members per batch of the exhaustive span walk.
_CHUNK = 1 << 16


def _check_members(n: int, field: Field, mats):
    for m in mats:
        if m.rows != n or m.cols != n:
            raise ShapeMismatch(f"basis matrix is {m.rows}x{m.cols}, ambient is {n}")
        if m.field != field:
            raise FieldMismatch("basis matrices must share the subspace field")


class SubspaceBasis:
    """A subspace of ``Mat_n`` given by a linearly independent basis.

    Every construction reduces the vectorized basis once: that checks
    independence, and the reduced rows serve every later comparison.
    """

    __slots__ = ("n", "field", "basis", "_reduced")

    def __init__(self, n: int, field: Field, basis):
        basis = tuple(basis)
        _check_members(n, field, basis)
        self.n = n
        self.field = field
        self.basis = basis
        self._reduced, _ = linalg.rref([m.data for m in basis], field)
        if len(self._reduced) != len(basis):
            raise DependentBasis("basis matrices are linearly dependent")

    @classmethod
    def span(cls, n: int, field: Field, mats) -> "SubspaceBasis":
        """Subspace spanned by arbitrary matrices (dependencies dropped)."""
        mats = tuple(mats)
        _check_members(n, field, mats)
        reduced, _ = linalg.rref([m.data for m in mats], field)
        return cls(n, field, [Matrix(n, n, row, field) for row in reduced])

    @property
    def dim(self) -> int:
        return len(self.basis)

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
        rows = linalg.intersection(self._reduced, other._reduced, self.field)
        mats = [Matrix(self.n, self.n, row, self.field) for row in rows]
        return SubspaceBasis(self.n, self.field, mats)

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

    @property
    def label(self) -> str:
        prefix = "R" if self.orientation == ROW else "C"
        return prefix + "{" + ",".join(str(i) for i in self.support) + "}"

    def units(self, n: int) -> list:
        """Positions ``(i, j)`` of the matrix units spanning the subspace in
        ``Mat_n``, in row-major order; dim = |S| * n."""
        for i in self.support:
            if not (1 <= i <= n):
                raise IndexOutOfRange(f"support index {i} outside 1..{n}")
        if self.orientation == ROW:
            return [(i, j) for i in self.support for j in range(1, n + 1)]
        return [(i, j) for i in range(1, n + 1) for j in self.support]


def maximal_subspaces(n: int, k: int) -> tuple:
    """The supported subspaces with k-element supports: rows, then columns,
    each with supports in lexicographic order."""
    supports = list(combinations(range(1, n + 1), k))
    return tuple(CanonicalSubspace(o, s) for o in (ROW, COL) for s in supports)


def canonical_basis(cs: CanonicalSubspace, n: int, field: Field) -> SubspaceBasis:
    """Matrix-unit basis of a row/column-supported subspace; dim = |S| * n."""
    return SubspaceBasis(n, field, [unit(i, j, n, field) for i, j in cs.units(n)])


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
        total = p**v.dim
        check_enumeration_budget(total, SPAN_BUDGET if budget is None else budget)
        basis_ints = np.array([b.data for b in v.basis], dtype=np.int64)
        for start in range(0, total, _CHUNK):
            coords = code_digits(np.arange(start, min(start + _CHUNK, total)), v.dim, p)
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
    """Recognize a bounded-rank subspace of maximal dimension.

    Returns the row/column-supported subspace that ``v`` equals as a set,
    else ``None``.  Support and dimension decide it without elimination: a
    basis with entries in k rows spans part of those rows' k*n-dimensional
    span, so at dimension ``k*n`` the two are equal, and with fewer rows the
    dimension cannot reach ``k*n``; likewise for columns.  Rows and columns
    cannot both number k, as ``v`` would then lie in a span of dimension
    k^2 < k*n.
    That these are all the subspaces of dimension ``k*n`` inside
    {prk <= k} needs n >= 3: at n = 2 other planes lie inside {prk <= 1}
    (see the module docstring), and they get ``None`` here.  Raises
    :class:`InvalidRange` unless ``1 <= k <= n-1``.
    """
    n = v.n
    if not 1 <= k <= n - 1:
        raise InvalidRange(f"k={k} outside 1..{n - 1}")
    if v.dim != k * n:
        return None
    zero = v.field.zero
    nonzero = {pos for m in v.basis for pos, val in enumerate(m.data) if val != zero}
    row_support = {pos // n + 1 for pos in nonzero}
    col_support = {pos % n + 1 for pos in nonzero}
    if len(row_support) == k:
        return CanonicalSubspace(ROW, tuple(row_support))
    if len(col_support) == k:
        return CanonicalSubspace(COL, tuple(col_support))
    return None
