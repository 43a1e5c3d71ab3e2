"""Subspace operations pinned to recorded values.

The digests in ``PINNED`` were recorded with the ``SubspaceBasis`` that
checked independence with one elimination and computed its reduced rows
again, lazily, on first use.  Each digest covers one seeded pair of
subspaces U, V over Q, F_3 or F_5 at n = 2-4: their reduced rows, the
entries of both intersection bases, ``equals``, ``contains`` on members of
either side and on outsiders, ``classify_maximal`` for every k, and the
outcome of the plain constructor on generators that may be dependent.  The
generators mix a few shared low-rank matrices, so intersections are
nontrivial and spans drop dependencies.  A change to the subspace layer
must reproduce every digest.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from permrank import (
    COL,
    QQ,
    ROW,
    CanonicalSubspace,
    PrimeField,
    SubspaceBasis,
    canonical_basis,
    classify_maximal,
    mat,
)
from permrank.errors import DependentBasis

FIELDS = (("Q", QQ), ("F3", PrimeField(3)), ("F5", PrimeField(5)))
SEEDS = range(6)


def _scalar(rng, field):
    if field == QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(field.p)


def _low_rank(rng, n, field):
    """A sum of one or two outer products, often sparse."""
    rows = [[0] * n for _ in range(n)]
    for _ in range(rng.randint(1, 2)):
        u = [_scalar(rng, field) if rng.random() < 0.6 else 0 for _ in range(n)]
        v = [_scalar(rng, field) if rng.random() < 0.6 else 0 for _ in range(n)]
        rows = [[rows[i][j] + u[i] * v[j] for j in range(n)] for i in range(n)]
    return mat(rows, field)


def _mix(rng, mats, field, count):
    zero = mats[0].scale(0)
    return [sum((m.scale(_scalar(rng, field)) for m in mats), zero) for _ in range(count)]


def _entries(rows):
    return [[str(v) for v in row] for row in rows]


def _classified(cs):
    return None if cs is None else [cs.orientation, list(cs.support)]


def record(field, n, seed, tag):
    rng = random.Random(f"pin-subspace:{tag}:{n}:{seed}")
    shared = [_low_rank(rng, n, field) for _ in range(rng.randint(1, 2))]
    u_only = [_low_rank(rng, n, field) for _ in range(rng.randint(1, n))]
    v_only = [_low_rank(rng, n, field) for _ in range(rng.randint(0, n))]
    u_gens = _mix(rng, shared + u_only, field, len(shared) + len(u_only) + 1)
    v_gens = _mix(rng, shared + v_only, field, len(shared) + len(v_only))
    u = SubspaceBasis.span(n, field, u_gens)
    v = SubspaceBasis.span(n, field, v_gens)
    uv, vu = u.intersect(v), v.intersect(u)

    k = rng.randint(1, n - 1)
    support = tuple(sorted(rng.sample(range(1, n + 1), k)))
    canon = canonical_basis(CanonicalSubspace((ROW, COL)[rng.randrange(2)], support), n, field)
    scrambled = SubspaceBasis.span(n, field, _mix(rng, list(canon.basis), field, canon.dim))
    bent = SubspaceBasis.span(
        n, field, list(canon.basis[1:]) + [canon.basis[0] + _low_rank(rng, n, field)]
    )

    probes = shared + u_only + v_only + _mix(rng, shared, field, 1) + [_low_rank(rng, n, field)]
    try:
        plain = _entries(SubspaceBasis(n, field, u_gens[: rng.randint(1, len(u_gens))]).reduced_rows())
    except DependentBasis:
        plain = "DependentBasis"
    return {
        "U": _entries(u.reduced_rows()),
        "V": _entries(v.reduced_rows()),
        "UV": [_entries([b.data]) for b in uv.basis],
        "VU": [_entries([b.data]) for b in vu.basis],
        "eq": [u.equals(v), uv.equals(vu), uv.equals(u), scrambled.equals(canon)],
        "contains": [[u.contains(m), v.contains(m), uv.contains(m)] for m in probes],
        "classify": [
            [_classified(classify_maximal(w, kk)) for kk in range(1, n)]
            for w in (u, v, uv, canon, scrambled, bent)
        ],
        "plain": plain,
    }


def digest(rec):
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()[:16]


CASES = [(tag, field, n, seed) for tag, field in FIELDS for n in (2, 3, 4) for seed in SEEDS]

PINNED = {
    "Q-n2-0": "6eac78cb11ff6d47",
    "Q-n2-1": "618ce1bce11487fb",
    "Q-n2-2": "84607bfccbff08b1",
    "Q-n2-3": "4fcb546e8cdc17e5",
    "Q-n2-4": "24566eadcf2b7681",
    "Q-n2-5": "3ccc1ccb88e73440",
    "Q-n3-0": "a474a2004da4e375",
    "Q-n3-1": "e2bce23a9004d665",
    "Q-n3-2": "40b06fe9b823acea",
    "Q-n3-3": "63dcaaf273e54dda",
    "Q-n3-4": "f2cae77f042dbe89",
    "Q-n3-5": "09f9f70fd5ca018a",
    "Q-n4-0": "ea7efc4f43272fa0",
    "Q-n4-1": "fa364bf8b4b15ace",
    "Q-n4-2": "17795b66b2743859",
    "Q-n4-3": "17b059f70e0c5910",
    "Q-n4-4": "c1b2b67a7cdfe549",
    "Q-n4-5": "30649efa47396e14",
    "F3-n2-0": "20657467c5479a56",
    "F3-n2-1": "156a62937ef233cc",
    "F3-n2-2": "5137612458234b4b",
    "F3-n2-3": "4cdfab1f965048e2",
    "F3-n2-4": "84ad5bfea8ca1231",
    "F3-n2-5": "3ec18fdd8c636610",
    "F3-n3-0": "ecaba00756869545",
    "F3-n3-1": "a5c3a036046adf5b",
    "F3-n3-2": "086de27ba64df2d5",
    "F3-n3-3": "66a166ef871972d9",
    "F3-n3-4": "d5ed87a081fa1f71",
    "F3-n3-5": "de934f1cd9fc401f",
    "F3-n4-0": "7a64084ca5b52494",
    "F3-n4-1": "080846e540c9581a",
    "F3-n4-2": "1575daee774d905a",
    "F3-n4-3": "51abb71bd49121f6",
    "F3-n4-4": "66f7dc0aaa152c06",
    "F3-n4-5": "72183c4598ee4504",
    "F5-n2-0": "b1f08ff30b259165",
    "F5-n2-1": "969b4c4ee17e00a0",
    "F5-n2-2": "2ea5f078e3c99545",
    "F5-n2-3": "66c3bf727c13f28a",
    "F5-n2-4": "5a7614a8c8155758",
    "F5-n2-5": "d3571ad258dc0fd4",
    "F5-n3-0": "332baa6d76528f0b",
    "F5-n3-1": "3254659d45325cba",
    "F5-n3-2": "e478e9601b5c99f5",
    "F5-n3-3": "36b7082421e3298a",
    "F5-n3-4": "046e0a0c90523580",
    "F5-n3-5": "cf77acc930b9854f",
    "F5-n4-0": "ecf411c0c3ea15b4",
    "F5-n4-1": "83e0cd2b2e721cdd",
    "F5-n4-2": "7379d437b7616b4c",
    "F5-n4-3": "f9bd6b7c9ee5a449",
    "F5-n4-4": "85a1d5a69edcc734",
    "F5-n4-5": "ee18803ce6252cbb",
}


@pytest.mark.parametrize(
    "tag,field,n,seed", [pytest.param(*c, id=f"{c[0]}-n{c[2]}-{c[3]}") for c in CASES]
)
def test_pinned_subspace_records(tag, field, n, seed):
    assert digest(record(field, n, seed, tag)) == PINNED[f"{tag}-n{n}-{seed}"]
