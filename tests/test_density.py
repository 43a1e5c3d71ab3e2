import random
from fractions import Fraction

import pytest

from permrank import (
    QQ,
    PolyConstraint,
    constant_one,
    entry_constraint,
    identity,
    lift_chain,
    lift_rank,
    mat,
    per_fast,
    prk,
    subpermanent_constraint,
    unit,
    zero_matrix,
)
from permrank.errors import (
    ConstraintVanishesAtA,
    FieldNotInfinite,
    IndexOutOfRange,
    InvalidRange,
    PermrankError,
    PositionInsideWitness,
    VerificationError,
)
from permrank.sampling import sample_bounded_prk


class TestLiftRank:
    def test_unit_to_diagonal(self, Q):
        # witness of E_{1,1} is ({1},{1}); the grown subpermanent is
        # per(diag(1, mu)) = mu, so mu = 0 is skipped and mu = 1 works
        a = unit(1, 1, 3, Q)
        x = lift_rank(a, entry_constraint(1, 1), (2, 2))
        assert x == unit(1, 1, 3, Q) + unit(2, 2, 3, Q)
        assert prk(x).rank == 2
        assert x.entry(1, 1) == Q(1)

    def test_grown_subpermanent_is_linear_by_hand(self, Q):
        # direct evaluation of per([[1, 0], [0, mu]]) at a few points
        for mu in (0, 1, 5):
            m = mat([[1, 0], [0, mu]], Q)
            assert per_fast(m) == Q(mu)

    def test_zero_matrix_lift(self, Q):
        x = lift_rank(zero_matrix(3, Q), constant_one())
        assert prk(x).rank == 1
        # default position: least indices outside the empty witness
        assert x == unit(1, 1, 3, Q)

    def test_chain_reaches_target(self, Q):
        chain = lift_chain(3, 3)
        assert [prk(m).rank for m in chain] == [0, 1, 2, 3]
        chain4 = lift_chain(4, 2)
        assert [prk(m).rank for m in chain4] == [0, 1, 2]

    def test_constraint_stays_nonzero_along_chain(self, Q):
        constraint = entry_constraint(1, 1)
        current = unit(1, 1, 4, Q)
        for _ in range(3):
            current = lift_rank(current, constraint)
            assert not constraint.evaluate(current).is_zero

    def test_scan_skips_constraint_roots(self, Q):
        # f vanishes when the perturbed entry equals 1, so mu = 1 is skipped
        a = unit(1, 1, 3, Q)
        f = PolyConstraint(
            evaluate=lambda m: m.entry(2, 2) - m.field(1), degree=1, label="shifted"
        )
        x = lift_rank(a, f, (2, 2))
        assert x.entry(2, 2) == Q(2)
        assert prk(x).rank == 2

    def test_subpermanent_constraint(self, Q):
        a = unit(1, 1, 3, Q) + unit(2, 2, 3, Q)
        w = prk(a)
        f = subpermanent_constraint(w.row_set, w.col_set)
        x = lift_rank(a, f)
        assert prk(x).rank == 3
        assert not f.evaluate(x).is_zero

    def test_never_overshoots(self, Q):
        rng = random.Random(0)
        for trial in range(30):
            n = 3 + trial % 2
            k = rng.randint(0, n - 1)
            a = sample_bounded_prk(rng, n, k, Q)
            r = prk(a).rank
            x = lift_rank(a, constant_one())
            assert prk(x).rank == r + 1


class TestErrors:
    def test_finite_field_rejected(self, F3):
        with pytest.raises(FieldNotInfinite):
            lift_rank(unit(1, 1, 3, F3), constant_one())

    def test_position_inside_witness(self, Q):
        a = unit(1, 1, 3, Q)
        with pytest.raises(PositionInsideWitness):
            lift_rank(a, constant_one(), (1, 2))
        with pytest.raises(PositionInsideWitness):
            lift_rank(a, constant_one(), (2, 1))

    def test_constraint_vanishing_at_start(self, Q):
        a = unit(1, 1, 3, Q)
        with pytest.raises(ConstraintVanishesAtA):
            lift_rank(a, entry_constraint(2, 2))

    def test_full_rank_cannot_lift(self, Q):
        with pytest.raises(InvalidRange):
            lift_rank(identity(3, Q), constant_one())

    def test_chain_range(self):
        with pytest.raises(InvalidRange):
            lift_chain(3, 4)

    @pytest.mark.parametrize("position", [(0, 2), (2, 4), (4, 4), (2, -1)])
    def test_position_outside_the_matrix(self, Q, position):
        with pytest.raises(IndexOutOfRange):
            lift_rank(unit(1, 1, 3, Q), constant_one(), position)

    def test_declared_degree_too_small(self, Q):
        # degree 0 allows mu = 1, 2 only, and the constraint vanishes at both
        f = PolyConstraint(
            evaluate=lambda m: (m.entry(2, 2) - Q(1)) * (m.entry(2, 2) - Q(2)), degree=0
        )
        with pytest.raises(VerificationError, match="no admissible perturbation"):
            lift_rank(unit(1, 1, 3, Q), f, (2, 2))

    @pytest.mark.parametrize(
        "fake, message",
        [
            (lambda per: per * per, "not affine"),
            (lambda per: per + per, "slope of the grown subpermanent"),
        ],
    )
    def test_grown_subpermanent_checks_are_live(self, Q, monkeypatch, fake, message):
        monkeypatch.setattr("permrank.density.per_fast", lambda m: fake(per_fast(m)))
        with pytest.raises(VerificationError, match=message):
            lift_rank(unit(1, 1, 3, Q), constant_one())


class TestConstraints:
    def test_entry_constraint(self, Q):
        f = entry_constraint(2, 3)
        assert f.degree == 1
        assert f.evaluate(unit(2, 3, 3, Q)) == Q(1)

    def test_constant_one(self, F3):
        f = constant_one()
        assert f.degree == 0
        assert f.evaluate(zero_matrix(2, F3)) == F3(1)

    def test_subpermanent_labels_and_degree(self, Q):
        f = subpermanent_constraint((1, 2), (2, 3))
        assert f.degree == 2
        assert f.label == "perminor:1,2:2,3"
        m = mat([[0, 1, 1], [0, 1, 1], [0, 0, 0]], Q)
        assert f.evaluate(m) == Q(2)


def _low_rank(rng, n, k, style):
    """An n x n matrix over Q with k nonzero rows (``row``), k nonzero columns
    (``col``) or a k x k block (``block``), rows and columns then permuted."""
    def value():
        return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))

    width = n if style != "block" else k
    rows = [[value() for _ in range(width)] + [0] * (n - width) for _ in range(k)]
    rows += [[0] * n for _ in range(n - k)]
    if style == "col":
        rows = [list(col) for col in zip(*rows)]
    row_order, col_order = rng.sample(range(n), n), rng.sample(range(n), n)
    return [[rows[r][c] for c in col_order] for r in row_order]


def _roots_at_one_and_two(i, j, a_ij):
    """A degree-2 constraint that vanishes at ``A + mu E_ij`` for mu = 1, 2."""
    return PolyConstraint(
        evaluate=lambda m: (m.entry(i, j) - QQ(a_ij + 1)) * (m.entry(i, j) - QQ(a_ij + 2)),
        degree=2,
        label=f"roots:{i},{j}",
    )


def lift_cases():
    """``(name, rows, constraint, position)`` on seeded inputs over Q.

    Every n in 3..6, input rank bound k in 0..n-1 and input style, at the
    default position and at a random explicit one (which may meet the
    witness or fall outside 1..n).  Constraints: the constant one, an entry
    constraint on a nonzero entry, a subpermanent through the perturbed row
    (which may vanish at A), and one whose roots make the scan skip mu = 1, 2.
    """
    out = []
    for n in range(3, 7):
        for k in range(n):
            for style in ("row", "col", "block", "sampled"):
                rng = random.Random(f"lift:{n}:{k}:{style}")
                if style == "sampled":
                    rows = sample_bounded_prk(rng, n, k, QQ).raw_rows()
                else:
                    rows = _low_rank(rng, n, k, style)
                w = prk(mat(rows, QQ))
                default = (
                    min(set(range(1, n + 1)) - set(w.row_set)),
                    min(set(range(1, n + 1)) - set(w.col_set)),
                )
                explicit = (rng.randint(1, n), rng.randint(1, n + 1))
                support = [(i + 1, j + 1) for i in range(n) for j in range(n) if rows[i][j]]
                entry = rng.choice(support or [(1, 1)])
                for tag, position in (("default", None), ("at", explicit)):
                    i, j = default if position is None else explicit
                    size = rng.randint(1, max(k, 1))
                    minor_rows = [i] + rng.sample([t for t in range(1, n + 1) if t != i], size - 1)
                    minor_cols = rng.sample(range(1, n + 1), size)
                    constraints = {
                        "one": constant_one(),
                        "entry": entry_constraint(*entry),
                        "perminor": subpermanent_constraint(minor_rows, minor_cols),
                    }
                    if j <= n:
                        constraints["roots"] = _roots_at_one_and_two(i, j, rows[i - 1][j - 1])
                    for kind, constraint in constraints.items():
                        out.append((f"{n}-{k}-{style}-{tag}-{kind}", rows, constraint, position))
    return out


def lift_record(rows, constraint, position):
    """The one changed entry of the lift as ``[i, j, value]``, or the error."""
    a = mat(rows, QQ)
    try:
        x = lift_rank(a, constraint, position)
    except PermrankError as exc:
        return type(exc).__name__
    changed = [
        [i, j, str(x.entry(i, j).value)]
        for i in range(1, a.rows + 1)
        for j in range(1, a.cols + 1)
        if x.entry(i, j) != a.entry(i, j)
    ]
    assert len(changed) == 1
    return changed[0]


#: Recorded with the lift that rebuilt the whole matrix for every candidate;
#: the one-entry lift must give the same entries and the same error classes.
LIFT_PINNED = {
    '3-0-row-default-one': [1, 1, '1'],
    '3-0-row-default-entry': 'ConstraintVanishesAtA',
    '3-0-row-default-perminor': 'ConstraintVanishesAtA',
    '3-0-row-default-roots': [1, 1, '3'],
    '3-0-row-at-one': [3, 1, '1'],
    '3-0-row-at-entry': 'ConstraintVanishesAtA',
    '3-0-row-at-perminor': 'ConstraintVanishesAtA',
    '3-0-row-at-roots': [3, 1, '3'],
    '3-0-col-default-one': [1, 1, '1'],
    '3-0-col-default-entry': 'ConstraintVanishesAtA',
    '3-0-col-default-perminor': 'ConstraintVanishesAtA',
    '3-0-col-default-roots': [1, 1, '3'],
    '3-0-col-at-one': [1, 3, '1'],
    '3-0-col-at-entry': 'ConstraintVanishesAtA',
    '3-0-col-at-perminor': 'ConstraintVanishesAtA',
    '3-0-col-at-roots': [1, 3, '3'],
    '3-0-block-default-one': [1, 1, '1'],
    '3-0-block-default-entry': 'ConstraintVanishesAtA',
    '3-0-block-default-perminor': 'ConstraintVanishesAtA',
    '3-0-block-default-roots': [1, 1, '3'],
    '3-0-block-at-one': [1, 3, '1'],
    '3-0-block-at-entry': 'ConstraintVanishesAtA',
    '3-0-block-at-perminor': 'ConstraintVanishesAtA',
    '3-0-block-at-roots': [1, 3, '3'],
    '3-0-sampled-default-one': [1, 1, '1'],
    '3-0-sampled-default-entry': 'ConstraintVanishesAtA',
    '3-0-sampled-default-perminor': 'ConstraintVanishesAtA',
    '3-0-sampled-default-roots': [1, 1, '3'],
    '3-0-sampled-at-one': [3, 2, '1'],
    '3-0-sampled-at-entry': 'ConstraintVanishesAtA',
    '3-0-sampled-at-perminor': 'ConstraintVanishesAtA',
    '3-0-sampled-at-roots': [3, 2, '3'],
    '3-1-row-default-one': [1, 2, '1'],
    '3-1-row-default-entry': [1, 2, '1'],
    '3-1-row-default-perminor': 'ConstraintVanishesAtA',
    '3-1-row-default-roots': [1, 2, '3'],
    '3-1-row-at-one': 'IndexOutOfRange',
    '3-1-row-at-entry': 'IndexOutOfRange',
    '3-1-row-at-perminor': 'ConstraintVanishesAtA',
    '3-1-col-default-one': [2, 2, '1'],
    '3-1-col-default-entry': [2, 2, '1'],
    '3-1-col-default-perminor': 'ConstraintVanishesAtA',
    '3-1-col-default-roots': [2, 2, '3'],
    '3-1-col-at-one': 'PositionInsideWitness',
    '3-1-col-at-entry': 'PositionInsideWitness',
    '3-1-col-at-perminor': 'ConstraintVanishesAtA',
    '3-1-col-at-roots': 'PositionInsideWitness',
    '3-1-block-default-one': [1, 2, '1'],
    '3-1-block-default-entry': [1, 2, '1'],
    '3-1-block-default-perminor': 'ConstraintVanishesAtA',
    '3-1-block-default-roots': [1, 2, '3'],
    '3-1-block-at-one': 'PositionInsideWitness',
    '3-1-block-at-entry': 'PositionInsideWitness',
    '3-1-block-at-perminor': 'ConstraintVanishesAtA',
    '3-1-block-at-roots': 'PositionInsideWitness',
    '3-1-sampled-default-one': [2, 2, '1'],
    '3-1-sampled-default-entry': [2, 2, '1'],
    '3-1-sampled-default-perminor': 'ConstraintVanishesAtA',
    '3-1-sampled-default-roots': [2, 2, '3'],
    '3-1-sampled-at-one': 'PositionInsideWitness',
    '3-1-sampled-at-entry': 'PositionInsideWitness',
    '3-1-sampled-at-perminor': 'PositionInsideWitness',
    '3-1-sampled-at-roots': 'PositionInsideWitness',
    '3-2-row-default-one': [1, 3, '1'],
    '3-2-row-default-entry': [1, 3, '1'],
    '3-2-row-default-perminor': 'ConstraintVanishesAtA',
    '3-2-row-default-roots': [1, 3, '3'],
    '3-2-row-at-one': 'PositionInsideWitness',
    '3-2-row-at-entry': 'PositionInsideWitness',
    '3-2-row-at-perminor': 'PositionInsideWitness',
    '3-2-row-at-roots': 'PositionInsideWitness',
    '3-2-col-default-one': [3, 3, '1'],
    '3-2-col-default-entry': [3, 3, '1'],
    '3-2-col-default-perminor': [3, 3, '1'],
    '3-2-col-default-roots': [3, 3, '3'],
    '3-2-col-at-one': 'PositionInsideWitness',
    '3-2-col-at-entry': 'PositionInsideWitness',
    '3-2-col-at-perminor': 'ConstraintVanishesAtA',
    '3-2-col-at-roots': 'PositionInsideWitness',
    '3-2-block-default-one': [2, 1, '1'],
    '3-2-block-default-entry': [2, 1, '1'],
    '3-2-block-default-perminor': 'ConstraintVanishesAtA',
    '3-2-block-default-roots': [2, 1, '3'],
    '3-2-block-at-one': [2, 1, '1'],
    '3-2-block-at-entry': [2, 1, '1'],
    '3-2-block-at-perminor': 'ConstraintVanishesAtA',
    '3-2-block-at-roots': [2, 1, '3'],
    '3-2-sampled-default-one': [3, 2, '1'],
    '3-2-sampled-default-entry': [3, 2, '1'],
    '3-2-sampled-default-perminor': 'ConstraintVanishesAtA',
    '3-2-sampled-default-roots': [3, 2, '3'],
    '3-2-sampled-at-one': 'IndexOutOfRange',
    '3-2-sampled-at-entry': 'IndexOutOfRange',
    '3-2-sampled-at-perminor': 'ConstraintVanishesAtA',
    '4-0-row-default-one': [1, 1, '1'],
    '4-0-row-default-entry': 'ConstraintVanishesAtA',
    '4-0-row-default-perminor': 'ConstraintVanishesAtA',
    '4-0-row-default-roots': [1, 1, '3'],
    '4-0-row-at-one': [1, 3, '1'],
    '4-0-row-at-entry': 'ConstraintVanishesAtA',
    '4-0-row-at-perminor': 'ConstraintVanishesAtA',
    '4-0-row-at-roots': [1, 3, '3'],
    '4-0-col-default-one': [1, 1, '1'],
    '4-0-col-default-entry': 'ConstraintVanishesAtA',
    '4-0-col-default-perminor': 'ConstraintVanishesAtA',
    '4-0-col-default-roots': [1, 1, '3'],
    '4-0-col-at-one': [2, 4, '1'],
    '4-0-col-at-entry': 'ConstraintVanishesAtA',
    '4-0-col-at-perminor': 'ConstraintVanishesAtA',
    '4-0-col-at-roots': [2, 4, '3'],
    '4-0-block-default-one': [1, 1, '1'],
    '4-0-block-default-entry': 'ConstraintVanishesAtA',
    '4-0-block-default-perminor': 'ConstraintVanishesAtA',
    '4-0-block-default-roots': [1, 1, '3'],
    '4-0-block-at-one': 'IndexOutOfRange',
    '4-0-block-at-entry': 'ConstraintVanishesAtA',
    '4-0-block-at-perminor': 'ConstraintVanishesAtA',
    '4-0-sampled-default-one': [1, 1, '1'],
    '4-0-sampled-default-entry': 'ConstraintVanishesAtA',
    '4-0-sampled-default-perminor': 'ConstraintVanishesAtA',
    '4-0-sampled-default-roots': [1, 1, '3'],
    '4-0-sampled-at-one': 'IndexOutOfRange',
    '4-0-sampled-at-entry': 'ConstraintVanishesAtA',
    '4-0-sampled-at-perminor': 'ConstraintVanishesAtA',
    '4-1-row-default-one': [1, 2, '1'],
    '4-1-row-default-entry': [1, 2, '1'],
    '4-1-row-default-perminor': 'ConstraintVanishesAtA',
    '4-1-row-default-roots': [1, 2, '3'],
    '4-1-row-at-one': [1, 3, '1'],
    '4-1-row-at-entry': [1, 3, '1'],
    '4-1-row-at-perminor': 'ConstraintVanishesAtA',
    '4-1-row-at-roots': [1, 3, '3'],
    '4-1-col-default-one': [2, 2, '1'],
    '4-1-col-default-entry': [2, 2, '1'],
    '4-1-col-default-perminor': 'ConstraintVanishesAtA',
    '4-1-col-default-roots': [2, 2, '3'],
    '4-1-col-at-one': 'IndexOutOfRange',
    '4-1-col-at-entry': 'IndexOutOfRange',
    '4-1-col-at-perminor': 'IndexOutOfRange',
    '4-1-block-default-one': [2, 1, '1'],
    '4-1-block-default-entry': [2, 1, '1'],
    '4-1-block-default-perminor': 'ConstraintVanishesAtA',
    '4-1-block-default-roots': [2, 1, '3'],
    '4-1-block-at-one': [4, 4, '1'],
    '4-1-block-at-entry': [4, 4, '1'],
    '4-1-block-at-perminor': 'ConstraintVanishesAtA',
    '4-1-block-at-roots': [4, 4, '3'],
    '4-1-sampled-default-one': [2, 1, '1'],
    '4-1-sampled-default-entry': [2, 1, '1'],
    '4-1-sampled-default-perminor': 'ConstraintVanishesAtA',
    '4-1-sampled-default-roots': [2, 1, '3'],
    '4-1-sampled-at-one': [2, 1, '1'],
    '4-1-sampled-at-entry': [2, 1, '1'],
    '4-1-sampled-at-perminor': 'ConstraintVanishesAtA',
    '4-1-sampled-at-roots': [2, 1, '3'],
    '4-2-row-default-one': [3, 3, '1'],
    '4-2-row-default-entry': [3, 3, '1'],
    '4-2-row-default-perminor': 'ConstraintVanishesAtA',
    '4-2-row-default-roots': [3, 3, '3'],
    '4-2-row-at-one': 'PositionInsideWitness',
    '4-2-row-at-entry': 'PositionInsideWitness',
    '4-2-row-at-perminor': 'ConstraintVanishesAtA',
    '4-2-row-at-roots': 'PositionInsideWitness',
    '4-2-col-default-one': [1, 2, '1'],
    '4-2-col-default-entry': [1, 2, '1'],
    '4-2-col-default-perminor': 'ConstraintVanishesAtA',
    '4-2-col-default-roots': [1, 2, '3'],
    '4-2-col-at-one': [4, 4, '1'],
    '4-2-col-at-entry': [4, 4, '1'],
    '4-2-col-at-perminor': [4, 4, '1'],
    '4-2-col-at-roots': [4, 4, '3'],
    '4-2-block-default-one': [2, 1, '1'],
    '4-2-block-default-entry': [2, 1, '1'],
    '4-2-block-default-perminor': 'ConstraintVanishesAtA',
    '4-2-block-default-roots': [2, 1, '3'],
    '4-2-block-at-one': 'PositionInsideWitness',
    '4-2-block-at-entry': 'PositionInsideWitness',
    '4-2-block-at-perminor': 'ConstraintVanishesAtA',
    '4-2-block-at-roots': 'PositionInsideWitness',
    '4-2-sampled-default-one': [3, 2, '1'],
    '4-2-sampled-default-entry': [3, 2, '1'],
    '4-2-sampled-default-perminor': 'ConstraintVanishesAtA',
    '4-2-sampled-default-roots': [3, 2, '3'],
    '4-2-sampled-at-one': 'IndexOutOfRange',
    '4-2-sampled-at-entry': 'IndexOutOfRange',
    '4-2-sampled-at-perminor': 'ConstraintVanishesAtA',
    '4-3-row-default-one': [2, 4, '1'],
    '4-3-row-default-entry': [2, 4, '1'],
    '4-3-row-default-perminor': 'ConstraintVanishesAtA',
    '4-3-row-default-roots': [2, 4, '3'],
    '4-3-row-at-one': 'PositionInsideWitness',
    '4-3-row-at-entry': 'PositionInsideWitness',
    '4-3-row-at-perminor': 'ConstraintVanishesAtA',
    '4-3-row-at-roots': 'PositionInsideWitness',
    '4-3-col-default-one': [4, 1, '1'],
    '4-3-col-default-entry': [4, 1, '1'],
    '4-3-col-default-perminor': [4, 1, '1'],
    '4-3-col-default-roots': [4, 1, '3'],
    '4-3-col-at-one': 'PositionInsideWitness',
    '4-3-col-at-entry': 'PositionInsideWitness',
    '4-3-col-at-perminor': 'PositionInsideWitness',
    '4-3-col-at-roots': 'PositionInsideWitness',
    '4-3-block-default-one': [3, 1, '1'],
    '4-3-block-default-entry': [3, 1, '1'],
    '4-3-block-default-perminor': 'ConstraintVanishesAtA',
    '4-3-block-default-roots': [3, 1, '3'],
    '4-3-block-at-one': [3, 3, '1'],
    '4-3-block-at-entry': [3, 3, '1'],
    '4-3-block-at-perminor': 'ConstraintVanishesAtA',
    '4-3-block-at-roots': [3, 3, '3'],
    '4-3-sampled-default-one': [4, 3, '1'],
    '4-3-sampled-default-entry': [4, 3, '1'],
    '4-3-sampled-default-perminor': 'ConstraintVanishesAtA',
    '4-3-sampled-default-roots': [4, 3, '3'],
    '4-3-sampled-at-one': 'PositionInsideWitness',
    '4-3-sampled-at-entry': 'PositionInsideWitness',
    '4-3-sampled-at-perminor': 'ConstraintVanishesAtA',
    '4-3-sampled-at-roots': 'PositionInsideWitness',
    '5-0-row-default-one': [1, 1, '1'],
    '5-0-row-default-entry': 'ConstraintVanishesAtA',
    '5-0-row-default-perminor': 'ConstraintVanishesAtA',
    '5-0-row-default-roots': [1, 1, '3'],
    '5-0-row-at-one': [5, 4, '1'],
    '5-0-row-at-entry': 'ConstraintVanishesAtA',
    '5-0-row-at-perminor': 'ConstraintVanishesAtA',
    '5-0-row-at-roots': [5, 4, '3'],
    '5-0-col-default-one': [1, 1, '1'],
    '5-0-col-default-entry': 'ConstraintVanishesAtA',
    '5-0-col-default-perminor': 'ConstraintVanishesAtA',
    '5-0-col-default-roots': [1, 1, '3'],
    '5-0-col-at-one': [1, 4, '1'],
    '5-0-col-at-entry': 'ConstraintVanishesAtA',
    '5-0-col-at-perminor': 'ConstraintVanishesAtA',
    '5-0-col-at-roots': [1, 4, '3'],
    '5-0-block-default-one': [1, 1, '1'],
    '5-0-block-default-entry': 'ConstraintVanishesAtA',
    '5-0-block-default-perminor': 'ConstraintVanishesAtA',
    '5-0-block-default-roots': [1, 1, '3'],
    '5-0-block-at-one': 'IndexOutOfRange',
    '5-0-block-at-entry': 'ConstraintVanishesAtA',
    '5-0-block-at-perminor': 'ConstraintVanishesAtA',
    '5-0-sampled-default-one': [1, 1, '1'],
    '5-0-sampled-default-entry': 'ConstraintVanishesAtA',
    '5-0-sampled-default-perminor': 'ConstraintVanishesAtA',
    '5-0-sampled-default-roots': [1, 1, '3'],
    '5-0-sampled-at-one': [1, 3, '1'],
    '5-0-sampled-at-entry': 'ConstraintVanishesAtA',
    '5-0-sampled-at-perminor': 'ConstraintVanishesAtA',
    '5-0-sampled-at-roots': [1, 3, '3'],
    '5-1-row-default-one': [2, 1, '1'],
    '5-1-row-default-entry': [2, 1, '1'],
    '5-1-row-default-perminor': 'ConstraintVanishesAtA',
    '5-1-row-default-roots': [2, 1, '3'],
    '5-1-row-at-one': 'IndexOutOfRange',
    '5-1-row-at-entry': 'IndexOutOfRange',
    '5-1-row-at-perminor': 'IndexOutOfRange',
    '5-1-col-default-one': [2, 1, '1'],
    '5-1-col-default-entry': [2, 1, '1'],
    '5-1-col-default-perminor': 'ConstraintVanishesAtA',
    '5-1-col-default-roots': [2, 1, '3'],
    '5-1-col-at-one': [4, 5, '1'],
    '5-1-col-at-entry': [4, 5, '1'],
    '5-1-col-at-perminor': 'ConstraintVanishesAtA',
    '5-1-col-at-roots': [4, 5, '3'],
    '5-1-block-default-one': [1, 1, '1'],
    '5-1-block-default-entry': 'ConstraintVanishesAtA',
    '5-1-block-default-perminor': 'ConstraintVanishesAtA',
    '5-1-block-default-roots': [1, 1, '3'],
    '5-1-block-at-one': [1, 2, '1'],
    '5-1-block-at-entry': 'ConstraintVanishesAtA',
    '5-1-block-at-perminor': 'ConstraintVanishesAtA',
    '5-1-block-at-roots': [1, 2, '3'],
    '5-1-sampled-default-one': [2, 2, '1'],
    '5-1-sampled-default-entry': [2, 2, '1'],
    '5-1-sampled-default-perminor': 'ConstraintVanishesAtA',
    '5-1-sampled-default-roots': [2, 2, '3'],
    '5-1-sampled-at-one': [5, 5, '1'],
    '5-1-sampled-at-entry': [5, 5, '1'],
    '5-1-sampled-at-perminor': 'ConstraintVanishesAtA',
    '5-1-sampled-at-roots': [5, 5, '3'],
    '5-2-row-default-one': [1, 3, '1'],
    '5-2-row-default-entry': [1, 3, '1'],
    '5-2-row-default-perminor': 'ConstraintVanishesAtA',
    '5-2-row-default-roots': [1, 3, '3'],
    '5-2-row-at-one': [1, 3, '1'],
    '5-2-row-at-entry': [1, 3, '1'],
    '5-2-row-at-perminor': 'ConstraintVanishesAtA',
    '5-2-row-at-roots': [1, 3, '3'],
    '5-2-col-default-one': [3, 1, '1'],
    '5-2-col-default-entry': [3, 1, '1'],
    '5-2-col-default-perminor': 'ConstraintVanishesAtA',
    '5-2-col-default-roots': [3, 1, '3'],
    '5-2-col-at-one': [3, 3, '1'],
    '5-2-col-at-entry': [3, 3, '1'],
    '5-2-col-at-perminor': 'ConstraintVanishesAtA',
    '5-2-col-at-roots': [3, 3, '3'],
    '5-2-block-default-one': [2, 2, '1'],
    '5-2-block-default-entry': [2, 2, '1'],
    '5-2-block-default-perminor': 'ConstraintVanishesAtA',
    '5-2-block-default-roots': [2, 2, '3'],
    '5-2-block-at-one': [3, 2, '1'],
    '5-2-block-at-entry': [3, 2, '1'],
    '5-2-block-at-perminor': 'ConstraintVanishesAtA',
    '5-2-block-at-roots': [3, 2, '3'],
    '5-2-sampled-default-one': [2, 3, '1'],
    '5-2-sampled-default-entry': [2, 3, '1'],
    '5-2-sampled-default-perminor': 'ConstraintVanishesAtA',
    '5-2-sampled-default-roots': [2, 3, '3'],
    '5-2-sampled-at-one': 'IndexOutOfRange',
    '5-2-sampled-at-entry': 'IndexOutOfRange',
    '5-2-sampled-at-perminor': 'IndexOutOfRange',
    '5-3-row-default-one': [3, 4, '1'],
    '5-3-row-default-entry': [3, 4, '1'],
    '5-3-row-default-perminor': 'ConstraintVanishesAtA',
    '5-3-row-default-roots': [3, 4, '3'],
    '5-3-row-at-one': 'PositionInsideWitness',
    '5-3-row-at-entry': 'PositionInsideWitness',
    '5-3-row-at-perminor': 'ConstraintVanishesAtA',
    '5-3-row-at-roots': 'PositionInsideWitness',
    '5-3-col-default-one': [4, 1, '1'],
    '5-3-col-default-entry': [4, 1, '1'],
    '5-3-col-default-perminor': [4, 1, '1'],
    '5-3-col-default-roots': [4, 1, '3'],
    '5-3-col-at-one': 'PositionInsideWitness',
    '5-3-col-at-entry': 'PositionInsideWitness',
    '5-3-col-at-perminor': 'ConstraintVanishesAtA',
    '5-3-col-at-roots': 'PositionInsideWitness',
    '5-3-block-default-one': [2, 2, '1'],
    '5-3-block-default-entry': [2, 2, '1'],
    '5-3-block-default-perminor': 'ConstraintVanishesAtA',
    '5-3-block-default-roots': [2, 2, '3'],
    '5-3-block-at-one': 'PositionInsideWitness',
    '5-3-block-at-entry': 'PositionInsideWitness',
    '5-3-block-at-perminor': 'ConstraintVanishesAtA',
    '5-3-block-at-roots': 'PositionInsideWitness',
    '5-3-sampled-default-one': [3, 4, '1'],
    '5-3-sampled-default-entry': [3, 4, '1'],
    '5-3-sampled-default-perminor': 'ConstraintVanishesAtA',
    '5-3-sampled-default-roots': [3, 4, '3'],
    '5-3-sampled-at-one': 'PositionInsideWitness',
    '5-3-sampled-at-entry': 'PositionInsideWitness',
    '5-3-sampled-at-perminor': 'ConstraintVanishesAtA',
    '5-3-sampled-at-roots': 'PositionInsideWitness',
    '5-4-row-default-one': [1, 5, '1'],
    '5-4-row-default-entry': [1, 5, '1'],
    '5-4-row-default-perminor': 'ConstraintVanishesAtA',
    '5-4-row-default-roots': [1, 5, '3'],
    '5-4-row-at-one': 'PositionInsideWitness',
    '5-4-row-at-entry': 'PositionInsideWitness',
    '5-4-row-at-perminor': 'PositionInsideWitness',
    '5-4-row-at-roots': 'PositionInsideWitness',
    '5-4-col-default-one': [5, 1, '1'],
    '5-4-col-default-entry': [5, 1, '1'],
    '5-4-col-default-perminor': [5, 1, '1'],
    '5-4-col-default-roots': [5, 1, '3'],
    '5-4-col-at-one': 'PositionInsideWitness',
    '5-4-col-at-entry': 'PositionInsideWitness',
    '5-4-col-at-perminor': 'PositionInsideWitness',
    '5-4-col-at-roots': 'PositionInsideWitness',
    '5-4-block-default-one': [4, 2, '1'],
    '5-4-block-default-entry': [4, 2, '1'],
    '5-4-block-default-perminor': 'ConstraintVanishesAtA',
    '5-4-block-default-roots': [4, 2, '3'],
    '5-4-block-at-one': 'PositionInsideWitness',
    '5-4-block-at-entry': 'PositionInsideWitness',
    '5-4-block-at-perminor': 'ConstraintVanishesAtA',
    '5-4-block-at-roots': 'PositionInsideWitness',
    '5-4-sampled-default-one': [3, 5, '-3'],
    '5-4-sampled-default-entry': [3, 5, '-3'],
    '5-4-sampled-default-perminor': 'ConstraintVanishesAtA',
    '5-4-sampled-default-roots': [3, 5, '-1'],
    '5-4-sampled-at-one': 'PositionInsideWitness',
    '5-4-sampled-at-entry': 'PositionInsideWitness',
    '5-4-sampled-at-perminor': 'ConstraintVanishesAtA',
    '5-4-sampled-at-roots': 'PositionInsideWitness',
    '6-0-row-default-one': [1, 1, '1'],
    '6-0-row-default-entry': 'ConstraintVanishesAtA',
    '6-0-row-default-perminor': 'ConstraintVanishesAtA',
    '6-0-row-default-roots': [1, 1, '3'],
    '6-0-row-at-one': [2, 1, '1'],
    '6-0-row-at-entry': 'ConstraintVanishesAtA',
    '6-0-row-at-perminor': 'ConstraintVanishesAtA',
    '6-0-row-at-roots': [2, 1, '3'],
    '6-0-col-default-one': [1, 1, '1'],
    '6-0-col-default-entry': 'ConstraintVanishesAtA',
    '6-0-col-default-perminor': 'ConstraintVanishesAtA',
    '6-0-col-default-roots': [1, 1, '3'],
    '6-0-col-at-one': 'IndexOutOfRange',
    '6-0-col-at-entry': 'ConstraintVanishesAtA',
    '6-0-col-at-perminor': 'ConstraintVanishesAtA',
    '6-0-block-default-one': [1, 1, '1'],
    '6-0-block-default-entry': 'ConstraintVanishesAtA',
    '6-0-block-default-perminor': 'ConstraintVanishesAtA',
    '6-0-block-default-roots': [1, 1, '3'],
    '6-0-block-at-one': [1, 4, '1'],
    '6-0-block-at-entry': 'ConstraintVanishesAtA',
    '6-0-block-at-perminor': 'ConstraintVanishesAtA',
    '6-0-block-at-roots': [1, 4, '3'],
    '6-0-sampled-default-one': [1, 1, '1'],
    '6-0-sampled-default-entry': 'ConstraintVanishesAtA',
    '6-0-sampled-default-perminor': 'ConstraintVanishesAtA',
    '6-0-sampled-default-roots': [1, 1, '3'],
    '6-0-sampled-at-one': [4, 6, '1'],
    '6-0-sampled-at-entry': 'ConstraintVanishesAtA',
    '6-0-sampled-at-perminor': 'ConstraintVanishesAtA',
    '6-0-sampled-at-roots': [4, 6, '3'],
    '6-1-row-default-one': [1, 2, '1'],
    '6-1-row-default-entry': [1, 2, '1'],
    '6-1-row-default-perminor': 'ConstraintVanishesAtA',
    '6-1-row-default-roots': [1, 2, '3'],
    '6-1-row-at-one': [1, 4, '1'],
    '6-1-row-at-entry': [1, 4, '1'],
    '6-1-row-at-perminor': 'ConstraintVanishesAtA',
    '6-1-row-at-roots': [1, 4, '3'],
    '6-1-col-default-one': [2, 2, '1'],
    '6-1-col-default-entry': [2, 2, '1'],
    '6-1-col-default-perminor': 'ConstraintVanishesAtA',
    '6-1-col-default-roots': [2, 2, '3'],
    '6-1-col-at-one': 'IndexOutOfRange',
    '6-1-col-at-entry': 'IndexOutOfRange',
    '6-1-col-at-perminor': 'ConstraintVanishesAtA',
    '6-1-block-default-one': [1, 1, '1'],
    '6-1-block-default-entry': [1, 1, '1'],
    '6-1-block-default-perminor': 'ConstraintVanishesAtA',
    '6-1-block-default-roots': [1, 1, '3'],
    '6-1-block-at-one': 'PositionInsideWitness',
    '6-1-block-at-entry': 'PositionInsideWitness',
    '6-1-block-at-perminor': 'ConstraintVanishesAtA',
    '6-1-block-at-roots': 'PositionInsideWitness',
    '6-1-sampled-default-one': [1, 2, '1'],
    '6-1-sampled-default-entry': [1, 2, '1'],
    '6-1-sampled-default-perminor': 'ConstraintVanishesAtA',
    '6-1-sampled-default-roots': [1, 2, '3'],
    '6-1-sampled-at-one': [1, 2, '1'],
    '6-1-sampled-at-entry': [1, 2, '1'],
    '6-1-sampled-at-perminor': 'ConstraintVanishesAtA',
    '6-1-sampled-at-roots': [1, 2, '3'],
    '6-2-row-default-one': [3, 3, '1'],
    '6-2-row-default-entry': [3, 3, '1'],
    '6-2-row-default-perminor': 'ConstraintVanishesAtA',
    '6-2-row-default-roots': [3, 3, '3'],
    '6-2-row-at-one': 'PositionInsideWitness',
    '6-2-row-at-entry': 'PositionInsideWitness',
    '6-2-row-at-perminor': 'PositionInsideWitness',
    '6-2-row-at-roots': 'PositionInsideWitness',
    '6-2-col-default-one': [3, 1, '1'],
    '6-2-col-default-entry': [3, 1, '1'],
    '6-2-col-default-perminor': 'ConstraintVanishesAtA',
    '6-2-col-default-roots': [3, 1, '3'],
    '6-2-col-at-one': 'PositionInsideWitness',
    '6-2-col-at-entry': 'PositionInsideWitness',
    '6-2-col-at-perminor': 'ConstraintVanishesAtA',
    '6-2-col-at-roots': 'PositionInsideWitness',
    '6-2-block-default-one': [1, 3, '1'],
    '6-2-block-default-entry': [1, 3, '1'],
    '6-2-block-default-perminor': 'ConstraintVanishesAtA',
    '6-2-block-default-roots': [1, 3, '3'],
    '6-2-block-at-one': 'PositionInsideWitness',
    '6-2-block-at-entry': 'PositionInsideWitness',
    '6-2-block-at-perminor': 'ConstraintVanishesAtA',
    '6-2-block-at-roots': 'PositionInsideWitness',
    '6-2-sampled-default-one': [2, 1, '1'],
    '6-2-sampled-default-entry': [2, 1, '1'],
    '6-2-sampled-default-perminor': 'ConstraintVanishesAtA',
    '6-2-sampled-default-roots': [2, 1, '3'],
    '6-2-sampled-at-one': 'PositionInsideWitness',
    '6-2-sampled-at-entry': 'PositionInsideWitness',
    '6-2-sampled-at-perminor': 'ConstraintVanishesAtA',
    '6-2-sampled-at-roots': 'PositionInsideWitness',
    '6-3-row-default-one': [1, 4, '1'],
    '6-3-row-default-entry': [1, 4, '1'],
    '6-3-row-default-perminor': 'ConstraintVanishesAtA',
    '6-3-row-default-roots': [1, 4, '3'],
    '6-3-row-at-one': 'PositionInsideWitness',
    '6-3-row-at-entry': 'PositionInsideWitness',
    '6-3-row-at-perminor': 'ConstraintVanishesAtA',
    '6-3-row-at-roots': 'PositionInsideWitness',
    '6-3-col-default-one': [4, 1, '1'],
    '6-3-col-default-entry': [4, 1, '1'],
    '6-3-col-default-perminor': [4, 1, '1'],
    '6-3-col-default-roots': [4, 1, '3'],
    '6-3-col-at-one': 'PositionInsideWitness',
    '6-3-col-at-entry': 'PositionInsideWitness',
    '6-3-col-at-perminor': 'ConstraintVanishesAtA',
    '6-3-col-at-roots': 'PositionInsideWitness',
    '6-3-block-default-one': [1, 4, '1'],
    '6-3-block-default-entry': [1, 4, '1'],
    '6-3-block-default-perminor': 'ConstraintVanishesAtA',
    '6-3-block-default-roots': [1, 4, '3'],
    '6-3-block-at-one': 'PositionInsideWitness',
    '6-3-block-at-entry': 'PositionInsideWitness',
    '6-3-block-at-perminor': 'ConstraintVanishesAtA',
    '6-3-block-at-roots': 'PositionInsideWitness',
    '6-3-sampled-default-one': [1, 4, '1'],
    '6-3-sampled-default-entry': [1, 4, '1'],
    '6-3-sampled-default-perminor': 'ConstraintVanishesAtA',
    '6-3-sampled-default-roots': [1, 4, '3'],
    '6-3-sampled-at-one': 'PositionInsideWitness',
    '6-3-sampled-at-entry': 'PositionInsideWitness',
    '6-3-sampled-at-perminor': 'ConstraintVanishesAtA',
    '6-3-sampled-at-roots': 'PositionInsideWitness',
    '6-4-row-default-one': [3, 5, '1'],
    '6-4-row-default-entry': [3, 5, '1'],
    '6-4-row-default-perminor': 'ConstraintVanishesAtA',
    '6-4-row-default-roots': [3, 5, '3'],
    '6-4-row-at-one': 'PositionInsideWitness',
    '6-4-row-at-entry': 'PositionInsideWitness',
    '6-4-row-at-perminor': 'ConstraintVanishesAtA',
    '6-4-row-at-roots': 'PositionInsideWitness',
    '6-4-col-default-one': [5, 1, '1'],
    '6-4-col-default-entry': [5, 1, '1'],
    '6-4-col-default-perminor': [5, 1, '1'],
    '6-4-col-default-roots': [5, 1, '3'],
    '6-4-col-at-one': 'PositionInsideWitness',
    '6-4-col-at-entry': 'PositionInsideWitness',
    '6-4-col-at-perminor': 'ConstraintVanishesAtA',
    '6-4-col-at-roots': 'PositionInsideWitness',
    '6-4-block-default-one': [1, 1, '1'],
    '6-4-block-default-entry': [1, 1, '1'],
    '6-4-block-default-perminor': 'ConstraintVanishesAtA',
    '6-4-block-default-roots': [1, 1, '3'],
    '6-4-block-at-one': [4, 5, '1'],
    '6-4-block-at-entry': [4, 5, '1'],
    '6-4-block-at-perminor': 'ConstraintVanishesAtA',
    '6-4-block-at-roots': [4, 5, '3'],
    '6-4-sampled-default-one': [3, 4, '13'],
    '6-4-sampled-default-entry': [3, 4, '13'],
    '6-4-sampled-default-perminor': 'ConstraintVanishesAtA',
    '6-4-sampled-default-roots': [3, 4, '15'],
    '6-4-sampled-at-one': 'PositionInsideWitness',
    '6-4-sampled-at-entry': 'PositionInsideWitness',
    '6-4-sampled-at-perminor': 'ConstraintVanishesAtA',
    '6-4-sampled-at-roots': 'PositionInsideWitness',
    '6-5-row-default-one': [4, 6, '1'],
    '6-5-row-default-entry': [4, 6, '1'],
    '6-5-row-default-perminor': 'ConstraintVanishesAtA',
    '6-5-row-default-roots': [4, 6, '3'],
    '6-5-row-at-one': 'PositionInsideWitness',
    '6-5-row-at-entry': 'PositionInsideWitness',
    '6-5-row-at-perminor': 'ConstraintVanishesAtA',
    '6-5-row-at-roots': 'PositionInsideWitness',
    '6-5-col-default-one': [6, 1, '1'],
    '6-5-col-default-entry': [6, 1, '1'],
    '6-5-col-default-perminor': 'ConstraintVanishesAtA',
    '6-5-col-default-roots': [6, 1, '3'],
    '6-5-col-at-one': 'PositionInsideWitness',
    '6-5-col-at-entry': 'PositionInsideWitness',
    '6-5-col-at-perminor': 'PositionInsideWitness',
    '6-5-col-at-roots': 'PositionInsideWitness',
    '6-5-block-default-one': [5, 5, '1'],
    '6-5-block-default-entry': [5, 5, '1'],
    '6-5-block-default-perminor': 'ConstraintVanishesAtA',
    '6-5-block-default-roots': [5, 5, '3'],
    '6-5-block-at-one': 'PositionInsideWitness',
    '6-5-block-at-entry': 'PositionInsideWitness',
    '6-5-block-at-perminor': 'ConstraintVanishesAtA',
    '6-5-block-at-roots': 'PositionInsideWitness',
    '6-5-sampled-default-one': [3, 6, '1'],
    '6-5-sampled-default-entry': [3, 6, '1'],
    '6-5-sampled-default-perminor': 'ConstraintVanishesAtA',
    '6-5-sampled-default-roots': [3, 6, '3'],
    '6-5-sampled-at-one': 'PositionInsideWitness',
    '6-5-sampled-at-entry': 'PositionInsideWitness',
    '6-5-sampled-at-perminor': 'PositionInsideWitness',
    '6-5-sampled-at-roots': 'PositionInsideWitness',
}


LIFT_CASES = {name: (rows, constraint, position) for name, rows, constraint, position in lift_cases()}


@pytest.mark.parametrize("name", sorted(LIFT_PINNED))
def test_pinned_lift(name):
    assert lift_record(*LIFT_CASES[name]) == LIFT_PINNED[name]
