"""Linear operators on the matrix space and the preserver decision procedure.

A bijective linear operator maps the bounded-permanental-rank set into itself
exactly when it is a canonical preserver: a composition of row/column
permutations, row/column rescalings, and optionally the transpose,

    A  |->  D1 P(sigma1) A P(sigma2) D2        (or with A transposed).

``decompose`` recovers that tuple from an operator, or rejects it with an
error naming the first structural obstruction: some unit image is not a
scaled matrix unit, the unit-to-unit index map does not factor through two
permutations, or the entrywise scaling matrix is not rank one.  Each
rejection certifies that the operator is not a preserver, and
``check_preserves`` then hunts for an explicit counterexample matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import chain, combinations

import numpy as np

from . import linalg
from ._batch import bounded_prk_table, check_enumeration_budget, encode_digits, ints_to_matrix
from .errors import (
    BudgetExceeded,
    DecompositionError,
    FieldMismatch,
    HadamardNotRankOne,
    InvalidRange,
    NotBijectiveMap,
    NotMonomialPattern,
    ShapeMismatch,
    UnitImageNotMonomial,
    UnsupportedSize,
    VerificationError,
)
from .fields import Field, PrimeField, Scalar, field_from_name
from .matrices import Matrix, Permutation, matrix_to_json, unit
from .permanent import prk_decide_leq
from .sampling import probe_family, random_subspace_member, sample_bounded_prk
from .subspace import COL, ROW, CanonicalSubspace, SubspaceBasis, canonical_basis

PRESERVER = "preserver"
NOT_PRESERVER = "not_preserver"
NOT_BIJECTIVE = "not_bijective"
UNKNOWN = "unknown"


class LinearMap:
    """An operator on ``Mat_n`` stored as an n^2 x n^2 matrix.

    The operator acts on row-major vectorizations: column ``(i-1)*n + (j-1)``
    holds the image of the matrix unit ``E_{i,j}``.
    """

    __slots__ = ("n", "field", "matrix", "_bijective")

    def __init__(self, n: int, field: Field, matrix: Matrix):
        if matrix.rows != n * n or matrix.cols != n * n:
            raise ShapeMismatch(
                f"operator matrix must be {n * n}x{n * n}, got {matrix.rows}x{matrix.cols}"
            )
        if matrix.field != field:
            raise FieldMismatch("operator matrix field mismatch")
        self.n = n
        self.field = field
        self.matrix = matrix
        self._bijective = None

    @classmethod
    def identity(cls, n: int, field: Field) -> "LinearMap":
        from .matrices import identity as ident

        return cls(n, field, ident(n * n, field))

    @classmethod
    def transposition(cls, n: int, field: Field) -> "LinearMap":
        """The operator A -> A^T."""
        return cls.from_unit_images(n, field, lambda i, j: unit(j, i, n, field))

    @classmethod
    def from_unit_images(cls, n: int, field: Field, image_of) -> "LinearMap":
        """Build an operator from a callable ``(i, j) -> Matrix``."""
        size = n * n
        vals = [field.zero] * (size * size)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                img = image_of(i, j)
                col = (i - 1) * n + (j - 1)
                for r, v in enumerate(img.data):
                    vals[r * size + col] = v
        return cls(n, field, Matrix(size, size, vals, field))

    def apply(self, a: Matrix) -> Matrix:
        if a.rows != self.n or a.cols != self.n:
            raise ShapeMismatch(f"operand must be {self.n}x{self.n}")
        if a.field != self.field:
            raise FieldMismatch("operand field mismatch")
        size = self.n * self.n
        add, mul, zero = self.field.add, self.field.mul, self.field.zero
        data = self.matrix.data
        vec = a.data
        out = []
        for r in range(size):
            acc = zero
            base = r * size
            for c in range(size):
                v = vec[c]
                if v != zero:
                    acc = add(acc, mul(data[base + c], v))
            out.append(acc)
        return Matrix(self.n, self.n, out, self.field)

    def unit_image(self, i: int, j: int) -> Matrix:
        """Image of the matrix unit ``E_{i,j}`` (a column of the operator)."""
        size = self.n * self.n
        col = (i - 1) * self.n + (j - 1)
        vals = [self.matrix.data[r * size + col] for r in range(size)]
        return Matrix(self.n, self.n, vals, self.field)

    def is_bijective(self) -> bool:
        if self._bijective is None:
            rows = self.matrix.raw_rows()
            self._bijective = linalg.rank(rows, self.field) == self.n * self.n
        return self._bijective

    def __eq__(self, other):
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self.n == other.n and self.matrix == other.matrix

    def __hash__(self):
        return hash((self.n, self.matrix))

    def __repr__(self):
        return f"LinearMap(n={self.n}, {self.field.name})"


@dataclass(frozen=True)
class CanonicalPreserver:
    """The tuple (D1, sigma1, transpose?, sigma2, D2) of a canonical preserver.

    Diagonals are tuples of nonzero scalars.  Tuples related by the gauge
    ``(c * D1, D2 / c)`` describe the same operator; :meth:`normalized` fixes
    the representative with first diagonal entry 1.
    """

    d1: tuple
    sigma1: Permutation
    transpose_flag: bool
    sigma2: Permutation
    d2: tuple

    def __post_init__(self):
        n = len(self.d1)
        if not (len(self.d2) == n and self.sigma1.n == n and self.sigma2.n == n):
            raise ShapeMismatch("inconsistent sizes in canonical preserver tuple")
        field = self.d1[0].field
        for s in (*self.d1, *self.d2):
            if s.field != field:
                raise FieldMismatch("diagonal entries must share one field")
            if s.is_zero:
                raise InvalidRange("diagonal entries must be nonzero")

    @property
    def n(self) -> int:
        return len(self.d1)

    @property
    def field(self) -> Field:
        return self.d1[0].field

    def normalized(self) -> "CanonicalPreserver":
        lead = self.d1[0]
        if lead == self.field(1):
            return self
        inv = lead.inv()
        return CanonicalPreserver(
            d1=tuple(s * inv for s in self.d1),
            sigma1=self.sigma1,
            transpose_flag=self.transpose_flag,
            sigma2=self.sigma2,
            d2=tuple(s * lead for s in self.d2),
        )


def compose_canonical(cp: CanonicalPreserver) -> LinearMap:
    """Operator of a canonical tuple.  Always bijective.

    Row ``i`` goes to row ``sigma1(i)`` and column ``j`` to column
    ``sigma2(j)`` (after transposing first when the flag is set), then rows
    are rescaled by ``d1`` and columns by ``d2``; on matrix units,

        E_{i,j}  ->  d1[a] d2[b] E_{a,b},   (a, b) = (sigma1(i), sigma2(j))

    with ``(a, b) = (sigma1(j), sigma2(i))`` in the transposed case.  As
    matrix products this is ``D1 P(sigma1) A P(sigma2)^T D2``: the transpose
    on the right permutation matrix is what makes the column action read
    "column j lands in column sigma2(j)".
    """
    n, field = cp.n, cp.field
    size = n * n
    mul = field.mul
    vals = [field.zero] * (size * size)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if cp.transpose_flag:
                a, b = cp.sigma1(j), cp.sigma2(i)
            else:
                a, b = cp.sigma1(i), cp.sigma2(j)
            coeff = mul(cp.d1[a - 1].value, cp.d2[b - 1].value)
            row = (a - 1) * n + (b - 1)
            col = (i - 1) * n + (j - 1)
            vals[row * size + col] = coeff
    return LinearMap(n=n, field=field, matrix=Matrix(size, size, vals, field))


@dataclass(frozen=True)
class PreserverVerdict:
    """Result of a preserver check.

    For ``not_preserver`` the counterexample is machine-verified before the
    verdict is constructed: it has permanental rank at most k while its image
    exceeds k.
    """

    kind: str
    canonical: CanonicalPreserver | None = None
    counterexample: Matrix | None = None
    detail: str = ""


def _validate(tmap: LinearMap, k: int, samples: int = 0):
    if tmap.n < 3:
        raise UnsupportedSize(f"preserver decisions need n >= 3, got n={tmap.n}")
    if not (1 <= k <= tmap.n - 1):
        raise InvalidRange(f"k={k} outside 1..{tmap.n - 1}")
    if samples < 0:
        raise InvalidRange(f"samples must be >= 0, got {samples}")


def decompose(tmap: LinearMap, k: int) -> CanonicalPreserver:
    """Recover the canonical tuple of a bijective preserver.

    Raises :class:`UnitImageNotMonomial`, :class:`NotMonomialPattern`, or
    :class:`HadamardNotRankOne` when the corresponding stage rejects the map;
    any of these certifies the map is not a bijective bounded-rank preserver.
    On success the recomposition equals the input operator exactly and the
    returned tuple is normalized (first diagonal entry 1).
    """
    _validate(tmap, k)
    if not tmap.is_bijective():
        raise NotBijectiveMap("decomposition requires a bijective operator")
    n, field = tmap.n, tmap.field
    zero = field.zero

    images = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            img = tmap.unit_image(i, j)
            nonzero = [
                (pos // n + 1, pos % n + 1, v)
                for pos, v in enumerate(img.data)
                if v != zero
            ]
            if len(nonzero) != 1:
                raise UnitImageNotMonomial(
                    f"image of unit ({i},{j}) has {len(nonzero)} nonzero entries"
                )
            images[(i, j)] = nonzero[0]

    fit = _fit_monomial_pattern(n, images, transpose=False)
    transpose_flag = False
    if fit is None:
        fit = _fit_monomial_pattern(n, images, transpose=True)
        transpose_flag = True
    if fit is None:
        raise NotMonomialPattern("unit images do not factor through two permutations")
    sigma1, sigma2 = fit

    scaling = {}
    for (_, _), (a, b, v) in images.items():
        scaling[(a, b)] = v
    mul, sub = field.mul, field.sub
    for i, m in combinations(range(1, n + 1), 2):
        for j, l in combinations(range(1, n + 1), 2):
            minor = sub(
                mul(scaling[(i, j)], scaling[(m, l)]),
                mul(scaling[(i, l)], scaling[(m, j)]),
            )
            if minor != zero:
                raise HadamardNotRankOne(
                    f"scaling minor on rows ({i},{m}) x columns ({j},{l}) is nonzero"
                )

    lead_inv = field.inv(scaling[(1, 1)])
    d1 = tuple(Scalar(mul(scaling[(a, 1)], lead_inv), field) for a in range(1, n + 1))
    d2 = tuple(Scalar(scaling[(1, b)], field) for b in range(1, n + 1))
    result = CanonicalPreserver(
        d1=d1, sigma1=sigma1, transpose_flag=transpose_flag, sigma2=sigma2, d2=d2
    )
    if compose_canonical(result) != tmap:
        raise VerificationError("recomposition does not reproduce the operator")
    return result


def _fit_monomial_pattern(n: int, images: dict, transpose: bool):
    sigma1 = [None] * n
    sigma2 = [None] * n
    for (i, j), (a, b, _) in images.items():
        r = j if transpose else i
        s = i if transpose else j
        if sigma1[r - 1] is None:
            sigma1[r - 1] = a
        elif sigma1[r - 1] != a:
            return None
        if sigma2[s - 1] is None:
            sigma2[s - 1] = b
        elif sigma2[s - 1] != b:
            return None
    expected = list(range(1, n + 1))
    if sorted(sigma1) != expected or sorted(sigma2) != expected:
        return None
    return Permutation(sigma1), Permutation(sigma2)


def check_preserves(
    tmap: LinearMap,
    k: int,
    mode: str = "structural",
    *,
    samples: int = 400,
    seed: int = 0,
    budget: int | None = None,
) -> PreserverVerdict:
    """Decide whether a bijective operator maps the bounded-rank set into itself.

    Modes:

    * ``structural``: run the decomposition; on failure, search for a
      counterexample among matrix units, the probe family, members of
      row/column-supported subspaces passed through invariance operations,
      and rejection-sampled bounded-rank matrices (in that order,
      deterministic under the seed).  Returns ``unknown`` if nothing is found.
    * ``exhaustive``: enumerate every matrix over the (prime) field and check
      the implication directly; the reported counterexample is the
      lexicographically least one.
    * ``sample``: check the implication on sampled bounded-rank members; can
      only answer ``not_preserver`` or ``unknown``.

    Non-bijective operators short-circuit to ``not_bijective``; they are not
    classified either way.
    """
    _validate(tmap, k, samples)
    if not tmap.is_bijective():
        return PreserverVerdict(kind=NOT_BIJECTIVE, detail="the operator matrix is singular")
    if mode == "structural":
        try:
            cp = decompose(tmap, k)
        except DecompositionError as exc:
            detail = f"{type(exc).__name__}: {exc}"
            counter = _search_counterexample(tmap, k, seed=seed, samples=samples)
            if counter is None:
                return PreserverVerdict(
                    kind=UNKNOWN, detail=detail + "; no counterexample found"
                )
            return _verified_not_preserver(tmap, k, counter, detail)
        return PreserverVerdict(kind=PRESERVER, canonical=cp)
    if mode == "exhaustive":
        counter = _exhaustive_counterexample(tmap, k, budget)
        if counter is not None:
            return _verified_not_preserver(tmap, k, counter, "exhaustive enumeration")
        try:
            cp = decompose(tmap, k)
        except DecompositionError as exc:
            raise VerificationError(
                f"exhaustively verified preserver failed to decompose: {exc}"
            ) from exc
        return PreserverVerdict(kind=PRESERVER, canonical=cp)
    if mode == "sample":
        rng = random.Random(f"preserver-sample:{seed}")
        counter = _first_escape(tmap, k, _bounded_samples(rng, tmap.n, k, tmap.field, samples))
        if counter is None:
            return PreserverVerdict(kind=UNKNOWN, detail=f"no counterexample in {samples} samples")
        return _verified_not_preserver(tmap, k, counter, "sampled counterexample")
    raise InvalidRange(f"unknown mode {mode!r}")


def _verified_not_preserver(tmap, k, counter, detail) -> PreserverVerdict:
    if not prk_decide_leq(counter, k) or prk_decide_leq(tmap.apply(counter), k):
        raise VerificationError("candidate counterexample failed verification")
    return PreserverVerdict(kind=NOT_PRESERVER, counterexample=counter, detail=detail)


def _exhaustive_counterexample(tmap: LinearMap, k: int, budget: int | None):
    field = tmap.field
    if not isinstance(field, PrimeField):
        raise BudgetExceeded("exhaustive mode needs a finite field")
    n, p = tmap.n, field.p
    check_enumeration_budget(p ** (n * n), budget)
    mask, member_digits = bounded_prk_table(n, p, k)
    t_int = np.array(tmap.matrix.data, dtype=np.int64).reshape(n * n, n * n)
    chunk = 1 << 15
    for start in range(0, member_digits.shape[0], chunk):
        block = member_digits[start : start + chunk].astype(np.int64)
        images = block @ t_int.T % p
        ok = mask[encode_digits(images, p)]
        if not ok.all():
            idx = int(np.flatnonzero(~ok)[0])
            return ints_to_matrix(block[idx], n, field)
    return None


def _first_escape(tmap: LinearMap, k: int, candidates):
    """The first candidate whose image has permanental rank above k, or None."""
    for x in candidates:
        if not prk_decide_leq(tmap.apply(x), k):
            return x
    return None


def _bounded_samples(rng, n: int, k: int, field: Field, count: int):
    for _ in range(count):
        yield sample_bounded_prk(rng, n, k, field)


def _search_counterexample(tmap: LinearMap, k: int, *, seed: int, samples: int):
    n, field = tmap.n, tmap.field
    rng = random.Random(f"preserver-search:{seed}")
    # (a) matrix units (always inside the bounded set for k >= 1)
    units = (unit(i, j, n, field) for i in range(1, n + 1) for j in range(1, n + 1))
    # (b) the signed probe family, in deterministic order
    probes = (x for x in probe_family(n, k, field) if prk_decide_leq(x, k))
    # (c) members of each supported subspace, pushed through invariance ops
    bases = (
        canonical_basis(CanonicalSubspace(orientation, support), n, field)
        for orientation in (ROW, COL)
        for support in combinations(range(1, n + 1), k)
    )
    members = (random_subspace_member(rng, basis) for basis in bases for _ in range(3))
    # (d) rejection-sampled bounded-rank matrices
    return _first_escape(
        tmap, k, chain(units, probes, members, _bounded_samples(rng, n, k, field, samples))
    )


def check_equality_variant(
    tmap: LinearMap,
    k: int,
    mode: str = "structural",
    *,
    samples: int = 400,
    seed: int = 0,
    budget: int | None = None,
) -> PreserverVerdict:
    """Check the two-sided variant, deriving bijectivity instead of assuming it.

    Every matrix unit lies in the bounded-rank set, so an operator mapping
    that set onto itself must reach each unit; an operator whose image misses
    some unit is reported ``not_bijective`` with the unreachable unit named.
    When every unit is reachable the operator is surjective, hence bijective,
    and the check proceeds as in :func:`check_preserves`, after recording
    whether each unit preimage stays inside the bounded set.
    """
    _validate(tmap, k, samples)
    n, field = tmap.n, tmap.field
    size = n * n
    # Reduce [T | I]: rows whose left half vanished span the left kernel of T,
    # and E_c has no preimage exactly when a kernel row is nonzero at c, so
    # the first unreachable unit is the least pivot in the right half.
    zero, one = field.zero, field.one
    aug = [
        row + [one if r == c else zero for c in range(size)]
        for r, row in enumerate(tmap.matrix.raw_rows())
    ]
    reduced, pivots = linalg.rref(aug, field)
    c = next((p - size for p in pivots if p >= size), None)
    if c is not None:
        return PreserverVerdict(
            kind=NOT_BIJECTIVE,
            detail=f"unit ({c // n + 1},{c % n + 1}) has no preimage; the map is not surjective",
        )
    tmap._bijective = True  # invertible; spares check_preserves a second elimination
    bad_units = []
    for c in range(size):
        pre = Matrix(n, n, [row[size + c] for row in reduced], field)
        if not prk_decide_leq(pre, k):
            bad_units.append((c // n + 1, c % n + 1))
    verdict = check_preserves(tmap, k, mode=mode, samples=samples, seed=seed, budget=budget)
    if bad_units:
        note = f"unit preimages of {bad_units} leave the bounded set"
        if verdict.kind == PRESERVER:
            raise VerificationError(
                "canonical preserver with a unit preimage outside the bounded set"
            )
        return replace(verdict, detail=(verdict.detail + "; " + note).strip("; "))
    return replace(
        verdict,
        detail=(verdict.detail + "; bijectivity derived from unit preimages").strip("; "),
    )


def map_subspace(tmap: LinearMap, v: SubspaceBasis) -> SubspaceBasis:
    """Image of a subspace under a bijective operator."""
    if not tmap.is_bijective():
        raise NotBijectiveMap("subspace images are only taken under bijective maps")
    mats = [tmap.apply(b) for b in v.basis]
    return SubspaceBasis(v.n, v.field, mats, _checked=True)


# -- JSON ---------------------------------------------------------------------


def linear_map_to_json(tmap: LinearMap) -> dict:
    size = tmap.n * tmap.n
    fmt = tmap.field.format
    data = tmap.matrix.data
    return {
        "n": tmap.n,
        "field": tmap.field.name,
        "matrix": [[fmt(data[r * size + c]) for c in range(size)] for r in range(size)],
        "vectorization": "row-major",
    }


def linear_map_from_json(doc: dict) -> LinearMap:
    try:
        n = doc["n"]
        field = field_from_name(doc["field"])
        rows = doc["matrix"]
    except (KeyError, TypeError) as exc:
        raise InvalidRange(f"malformed linear map document: {exc}") from None
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidRange(f"linear map size must be an integer, got {n!r}")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidRange("linear map matrix must be a list of row lists")
    if doc.get("vectorization", "row-major") != "row-major":
        raise InvalidRange("only row-major vectorization is supported")
    size = n * n
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ShapeMismatch(f"operator matrix must be {size}x{size}")
    flat = [v for row in rows for v in row]
    return LinearMap(n=n, field=field, matrix=Matrix(size, size, flat, field))


def canonical_to_json(cp: CanonicalPreserver) -> dict:
    return {
        "n": cp.n,
        "field": cp.field.name,
        "d1": [str(s) for s in cp.d1],
        "sigma1": list(cp.sigma1.images),
        "transpose_flag": cp.transpose_flag,
        "sigma2": list(cp.sigma2.images),
        "d2": [str(s) for s in cp.d2],
    }


def canonical_from_json(doc: dict) -> CanonicalPreserver:
    field = field_from_name(doc["field"])
    return CanonicalPreserver(
        d1=tuple(field(v) for v in doc["d1"]),
        sigma1=Permutation(doc["sigma1"]),
        transpose_flag=bool(doc["transpose_flag"]),
        sigma2=Permutation(doc["sigma2"]),
        d2=tuple(field(v) for v in doc["d2"]),
    )


def verdict_to_json(verdict: PreserverVerdict) -> dict:
    doc: dict = {"verdict": verdict.kind}
    if verdict.canonical is not None:
        doc["canonical"] = canonical_to_json(verdict.canonical)
    if verdict.counterexample is not None:
        doc["counterexample"] = matrix_to_json(verdict.counterexample)
    if verdict.detail:
        doc["detail"] = verdict.detail
    return doc
