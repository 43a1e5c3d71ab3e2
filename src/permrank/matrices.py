"""Dense exact matrices and permutations.

Indices are 1-based in every public interface of this package, matching the
usual convention for index sets ``{1, ..., n}``.  The storage is a row-major
tuple of raw field values; :meth:`Matrix.entry` wraps results as
:class:`~permrank.fields.Scalar`.  Matrices are immutable: every operation
returns a new object, so values can be shared freely between workers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    FieldMismatch,
    IndexOutOfRange,
    InvalidField,
    InvalidRange,
    ShapeMismatch,
)
from .fields import Field, Scalar, field_from_name


class Matrix:
    """An exact ``rows x cols`` matrix over a single field."""

    __slots__ = ("rows", "cols", "field", "data")

    def __init__(self, rows: int, cols: int, values: Iterable, field: Field):
        if rows < 0 or cols < 0:
            raise ShapeMismatch(f"negative shape {rows}x{cols}")
        data = tuple(field.coerce(v) for v in values)
        if len(data) != rows * cols:
            raise ShapeMismatch(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.field = field
        self.data = data

    # -- access --------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        """Entry at row ``i``, column ``j`` (1-based)."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise IndexOutOfRange(f"({i},{j}) outside {self.rows}x{self.cols}")
        return Scalar(self.data[(i - 1) * self.cols + (j - 1)], self.field)

    def raw_rows(self) -> list:
        """Rows as lists of raw field values (internal fast path)."""
        c = self.cols
        return [list(self.data[r * c : (r + 1) * c]) for r in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(v == zero for v in self.data)

    def _check_field(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(
                f"mixed fields {self.field.name} and {other.field.name}"
            )

    # -- submatrices ----------------------------------------------------

    def submatrix(self, row_set: Iterable[int], col_set: Iterable[int]) -> "Matrix":
        """Submatrix on the given 1-based index sets, kept in ascending order."""
        ri = _index_set(row_set, self.rows, "row")
        ci = _index_set(col_set, self.cols, "column")
        vals = [self.data[(i - 1) * self.cols + (j - 1)] for i in ri for j in ci]
        return Matrix(len(ri), len(ci), vals, self.field)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition needs equal shapes")
        add = self.field.add
        vals = [add(a, b) for a, b in zip(self.data, other.data)]
        return Matrix(self.rows, self.cols, vals, self.field)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(self.rows, self.cols, [neg(v) for v in self.data], self.field)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        a, b = self.data, other.data
        n, m, k = self.rows, other.cols, self.cols
        vals = []
        for r in range(n):
            row = a[r * k : (r + 1) * k]
            for c in range(m):
                acc = zero
                for t in range(k):
                    av = row[t]
                    if av != zero:
                        acc = add(acc, mul(av, b[t * m + c]))
                vals.append(acc)
        return Matrix(n, m, vals, self.field)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        mul = self.field.mul
        return Matrix(self.rows, self.cols, [mul(c, v) for v in self.data], self.field)

    def transpose(self) -> "Matrix":
        vals = [
            self.data[r * self.cols + c]
            for c in range(self.cols)
            for r in range(self.rows)
        ]
        return Matrix(self.cols, self.rows, vals, self.field)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.field, self.data))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(v) for v in self.data[r * self.cols : (r + 1) * self.cols])
            for r in range(self.rows)
        )
        return f"Matrix[{body}]({self.field.name})"


def _index_set(indices: Iterable[int], bound: int, what: str) -> tuple:
    out = tuple(sorted(indices))
    for i in out:
        if not (1 <= i <= bound):
            raise IndexOutOfRange(f"{what} index {i} outside 1..{bound}")
    if len(set(out)) != len(out):
        raise IndexOutOfRange(f"duplicate {what} index in {out}")
    return out


class Permutation:
    """A permutation of ``{1, ..., n}``, stored by its image sequence."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InvalidRange(f"images {images} are not a bijection of 1..{n}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not (1 <= i <= self.n):
            raise IndexOutOfRange(f"{i} outside 1..{self.n}")
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def compose(self, other: "Permutation") -> "Permutation":
        """``(self . other)(i) = self(other(i))``."""
        if self.n != other.n:
            raise ShapeMismatch("composed permutations must share n")
        return Permutation(self.images[other.images[i] - 1] for i in range(self.n))

    @property
    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


# -- constructors ---------------------------------------------------------


def mat(rows: Sequence[Sequence], field: Field) -> Matrix:
    """Build a matrix from a list of row lists."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if any(len(r) != ncols for r in rows):
        raise ShapeMismatch("ragged rows")
    return Matrix(nrows, ncols, [v for r in rows for v in r], field)


def zero_matrix(n: int, field: Field, cols: int | None = None) -> Matrix:
    cols = n if cols is None else cols
    return Matrix(n, cols, [field.zero] * (n * cols), field)


def identity(n: int, field: Field) -> Matrix:
    vals = [field.one if r == c else field.zero for r in range(n) for c in range(n)]
    return Matrix(n, n, vals, field)


def ones(n: int, field: Field) -> Matrix:
    return Matrix(n, n, [field.one] * (n * n), field)


def unit(i: int, j: int, n: int, field: Field) -> Matrix:
    """The matrix unit with a single 1 in position ``(i, j)``."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"({i},{j}) outside 1..{n}")
    vals = [field.zero] * (n * n)
    vals[(i - 1) * n + (j - 1)] = field.one
    return Matrix(n, n, vals, field)


def diagonal(values: Sequence, field: Field) -> Matrix:
    n = len(values)
    vals = [field.zero] * (n * n)
    for i, v in enumerate(values):
        vals[i * n + i] = field.coerce(v)
    return Matrix(n, n, vals, field)


def permutation_matrix(sigma: Permutation, field: Field) -> Matrix:
    """P(sigma), with entry (i, j) equal to 1 exactly when i = sigma(j)."""
    n = sigma.n
    vals = [field.zero] * (n * n)
    for j in range(1, n + 1):
        vals[(sigma(j) - 1) * n + (j - 1)] = field.one
    return Matrix(n, n, vals, field)


# -- JSON -------------------------------------------------------------------


def matrix_to_json(m: Matrix) -> dict:
    """Serialize to ``{"field", "rows", "cols", "entries"}`` with string scalars."""
    fmt = m.field.format
    return {
        "field": m.field.name,
        "rows": m.rows,
        "cols": m.cols,
        "entries": [
            [fmt(v) for v in m.data[r * m.cols : (r + 1) * m.cols]]
            for r in range(m.rows)
        ],
    }


def matrix_from_json(doc: dict) -> Matrix:
    try:
        field = field_from_name(doc["field"])
        rows = doc["rows"]
        cols = doc["cols"]
        entries = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise InvalidField(f"malformed matrix document: {exc}") from None
    for name, value in (("rows", rows), ("cols", cols)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidField(f"matrix {name} must be an integer, got {value!r}")
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise InvalidField("matrix entries must be a list of row lists")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ShapeMismatch("entries do not match the declared shape")
    return mat(entries, field) if rows else Matrix(rows, cols, [], field)
