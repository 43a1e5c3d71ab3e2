"""Supported subspaces pinned to recorded values.

The digests below were recorded when a random member of a row- or
column-supported subspace was drawn through a reduced ``SubspaceBasis`` of
its matrix units, and when ``classify_maximal`` compared the input's echelon
form with that of the candidate canonical basis.  They cover:

* ``sample_bounded_prk``: 200 draws over Q, F_3 and F_5 at five (n, k);
* the member sequence of the counterexample search's third stage: three
  draws per supported subspace, in vertex order, for n = 3..5 and every k;
* ``classify_maximal`` at every k on every support and orientation for
  n = 3..6, on scrambled bases, on bases with one unit swapped for a unit
  outside the support and on bases one dimension short;
* ``classify_maximal`` on the 2(p+1) planes of {prk <= 1} at n = 2 over F_3.

A change to sampling or classification must reproduce every digest.
"""

import hashlib
import json
import random
from itertools import product

import pytest

from permrank import QQ, Matrix, PrimeField, SubspaceBasis, classify_maximal, linalg, unit
from permrank.sampling import random_supported_member, sample_bounded_prk
from permrank.subspace import maximal_subspaces

FIELDS = (("Q", QQ), ("F3", PrimeField(3)), ("F5", PrimeField(5)))
SAMPLER_SIZES = ((3, 1), (3, 2), (4, 2), (5, 2), (6, 3))


def digest(rec):
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()[:16]


def _data(m):
    return [str(v) for v in m.data]


def _classified(cs):
    return None if cs is None else [cs.orientation, list(cs.support)]


def sampler_record(tag, field, n, k):
    rng = random.Random(f"pin-bounded:{tag}:{n}:{k}")
    return [_data(sample_bounded_prk(rng, n, k, field)) for _ in range(200)]


def supported_members_record(tag, field, n):
    out = []
    for k in range(1, n):
        rng = random.Random(f"pin-supported:{tag}:{n}:{k}")
        for cs in maximal_subspaces(n, k):
            out.append([_data(random_supported_member(rng, cs, n, field)) for _ in range(3)])
    return out


def _scrambled(rng, positions, n, field):
    """A basis of the span of the units at ``positions``: three of them are
    mixed by a unit-triangular change of basis with nonzero diagonal, and
    the order is shuffled."""
    units = [unit(i, j, n, field) for i, j in positions]
    picked = rng.sample(range(len(units)), min(3, len(units)))
    mixed = list(units)
    for a, i in enumerate(picked):
        acc = units[i].scale(rng.choice((1, 2, -1)))
        for j in picked[a + 1 :]:
            acc = acc + units[j].scale(rng.randint(-2, 2))
        mixed[i] = acc
    rng.shuffle(mixed)
    return SubspaceBasis(n, field, mixed)


def classify_record(tag, field, n):
    rng = random.Random(f"pin-classify:{tag}:{n}")
    out = []
    for k in range(1, n):
        for cs in maximal_subspaces(n, k):
            positions = cs.units(n)
            inside = set(cs.support)
            outside = [i for i in range(1, n + 1) if i not in inside]
            idx = rng.randrange(len(positions))
            i, j = positions[idx]
            extra = rng.choice(outside)
            swapped = list(positions)
            swapped[idx] = (extra, j) if cs.orientation == "row" else (i, extra)
            short = list(positions)
            del short[rng.randrange(len(short))]
            for pos in (positions, swapped, short):
                w = _scrambled(rng, pos, n, field)
                out.append([_classified(classify_maximal(w, kk)) for kk in range(1, n)])
    return out


def isotropic_planes(p):
    """The planes of 2x2 matrices over F_p on which the permanent vanishes,
    as reduced bases in sorted order."""
    field = PrimeField(p)

    def isotropic(w):
        return (w[0] * w[3] + w[1] * w[2]) % p == 0

    vectors = [v for v in product(range(p), repeat=4) if any(v) and isotropic(v)]
    planes = set()
    for u, v in product(vectors, repeat=2):
        rows, _ = linalg.rref([u, v], field)
        if len(rows) == 2 and all(
            isotropic([(a * x + b * y) % p for x, y in zip(*rows)])
            for a, b in product(range(p), repeat=2)
        ):
            planes.add(tuple(map(tuple, rows)))
    return sorted(planes)


def n2_planes_record():
    field = PrimeField(3)
    out = []
    for rows in isotropic_planes(3):
        v = SubspaceBasis(2, field, [Matrix(2, 2, list(row), field) for row in rows])
        out.append(_classified(classify_maximal(v, 1)))
    return out


PINNED = {
    "bounded-Q-n3-k1": "835a1fac4d0a8487",
    "bounded-Q-n3-k2": "6300f4d21f3e86fc",
    "bounded-Q-n4-k2": "64235795e4f79a7b",
    "bounded-Q-n5-k2": "b0ff91088dabf260",
    "bounded-Q-n6-k3": "72c61c5450a57c0f",
    "bounded-F3-n3-k1": "a2dc606c6948db62",
    "bounded-F3-n3-k2": "d5c3d471f62a3f89",
    "bounded-F3-n4-k2": "4580c995aa042004",
    "bounded-F3-n5-k2": "828fe54e1e7a4074",
    "bounded-F3-n6-k3": "6fff79be3e76c4ce",
    "bounded-F5-n3-k1": "c7d7d44e8d553605",
    "bounded-F5-n3-k2": "15a46ff3cec54c31",
    "bounded-F5-n4-k2": "e6bd42a6d57ab2d6",
    "bounded-F5-n5-k2": "45e813087a7891b8",
    "bounded-F5-n6-k3": "f7fec8e9bd985721",
    "members-Q-n3": "b714bc315124b749",
    "members-Q-n4": "5cdb5d991fbd85cd",
    "members-Q-n5": "ed20c4f92019ed9b",
    "members-F3-n3": "f291629158334a1e",
    "members-F3-n4": "6d58cb94d63fb75d",
    "members-F3-n5": "933b6a0cd8566b7f",
    "members-F5-n3": "9efdb44c534ebda1",
    "members-F5-n4": "300eec1d5bd7c5be",
    "members-F5-n5": "2e3cabd2a1a5314a",
    "classify-Q-n3": "91f2a51141bb5544",
    "classify-Q-n4": "bb06cc5616d1ac71",
    "classify-Q-n5": "a4cd1068d3f20711",
    "classify-Q-n6": "70ba8f2e31507c2f",
    "classify-F3-n3": "91f2a51141bb5544",
    "classify-F3-n4": "bb06cc5616d1ac71",
    "classify-F3-n5": "a4cd1068d3f20711",
    "classify-F3-n6": "70ba8f2e31507c2f",
    "classify-F5-n3": "91f2a51141bb5544",
    "classify-F5-n4": "bb06cc5616d1ac71",
    "classify-F5-n5": "a4cd1068d3f20711",
    "classify-F5-n6": "70ba8f2e31507c2f",
    "classify-n2-planes-F3": "75c957c56b5e49bc",
}


@pytest.mark.parametrize(
    "tag,field,n,k",
    [pytest.param(t, f, n, k, id=f"{t}-n{n}-k{k}") for t, f in FIELDS for n, k in SAMPLER_SIZES],
)
def test_pinned_bounded_samples(tag, field, n, k):
    assert digest(sampler_record(tag, field, n, k)) == PINNED[f"bounded-{tag}-n{n}-k{k}"]


@pytest.mark.parametrize(
    "tag,field,n", [pytest.param(t, f, n, id=f"{t}-n{n}") for t, f in FIELDS for n in (3, 4, 5)]
)
def test_pinned_supported_members(tag, field, n):
    assert digest(supported_members_record(tag, field, n)) == PINNED[f"members-{tag}-n{n}"]


@pytest.mark.parametrize(
    "tag,field,n", [pytest.param(t, f, n, id=f"{t}-n{n}") for t, f in FIELDS for n in (3, 4, 5, 6)]
)
def test_pinned_classification(tag, field, n):
    assert digest(classify_record(tag, field, n)) == PINNED[f"classify-{tag}-n{n}"]


def test_pinned_n2_planes():
    rec = n2_planes_record()
    # 2(p+1) planes, of which only the four row/column-supported ones classify
    assert len(rec) == 8
    assert sum(r is not None for r in rec) == 4
    assert digest(rec) == PINNED["classify-n2-planes-F3"]


def test_classification_runs_no_elimination(monkeypatch):
    # every supported subspace is recognized from its basis alone
    rng = random.Random("spy")
    field = PrimeField(5)
    supported = [(cs, k) for k in (1, 2) for cs in maximal_subspaces(3, k)]
    cases = [(cs, k, _scrambled(rng, cs.units(3), 3, field)) for cs, k in supported]

    def refuse(*args, **kwargs):
        raise AssertionError("classify_maximal ran an elimination")

    monkeypatch.setattr(linalg, "rref", refuse)
    for cs, k, v in cases:
        assert classify_maximal(v, k) == cs
