"""Exhaustive decisions pinned to recorded values.

The values in ``PRESERVER_PINNED`` and ``SPAN_PINNED`` were recorded with the
permutation-loop enumeration kernel that preceded the Laplace-lattice kernel,
on the seeded inputs built below.  A kernel change must reproduce them
exactly: the same verdicts and the same lexicographically least
counterexamples.
"""

import random

import pytest

from permrank import (
    COL,
    ROW,
    CanonicalSubspace,
    LinearMap,
    PrimeField,
    SubspaceBasis,
    canonical_basis,
    check_preserves,
    compose_canonical,
    within_prk_bound,
)
from permrank.preserver import random_bijective_map
from permrank.sampling import random_matrix

from oracle import random_canonical_preserver


def preserver_cases():
    """``(name, map, k)`` triples at n = 3, each drawn from its own seed."""
    out = []
    for p in (3, 5):
        field = PrimeField(p)
        for k in (1, 2):
            for i in range(3):
                rng = random.Random(f"pin-random:{p}:{k}:{i}")
                out.append((f"random-F{p}-k{k}-{i}", random_bijective_map(rng, 3, field), k))
            for i in range(3):
                rng = random.Random(f"pin-perturbed:{p}:{k}:{i}")
                canon = compose_canonical(random_canonical_preserver(rng, 3, field))
                src = (rng.randint(1, 3), rng.randint(1, 3))
                # the last one moves a unit within its row, so every unit keeps prk 1
                rows = (src[0],) if i == 2 else (1, 2, 3)
                dst = rng.choice([(a, b) for a in rows for b in (1, 2, 3) if (a, b) != src])
                c = rng.randrange(1, p)

                def image(a, b, canon=canon, src=src, dst=dst, c=c):
                    # canon o (I + c * E_dst E_src^T): invertible, rarely a preserver
                    out = canon.unit_image(a, b)
                    return out + canon.unit_image(*dst).scale(c) if (a, b) == src else out

                out.append(
                    (f"perturbed-F{p}-k{k}-{i}", LinearMap.from_unit_images(3, field, image), k)
                )
            rng = random.Random(f"pin-canonical:{p}:{k}")
            canon = compose_canonical(random_canonical_preserver(rng, 3, field))
            out.append((f"canonical-F{p}-k{k}", canon, k))
    return out


def span_cases():
    """``(name, basis, k)`` triples over F_3 at n = 4 and 5."""
    field = PrimeField(3)
    out = []
    for n, ks in ((4, (1, 2, 3)), (5, (1, 2))):
        for k in ks:
            rng = random.Random(f"pin-span:{n}:{k}")
            orientation = (ROW, COL)[rng.randrange(2)]
            support = tuple(sorted(rng.sample(range(1, n + 1), k)))
            canon = canonical_basis(CanonicalSubspace(orientation, support), n, field)
            # a scrambled basis of the canonical span: verdict yes
            zero = canon.basis[0].scale(0)
            mixed = [
                sum((b.scale(rng.randrange(3)) for b in canon.basis), zero) for _ in range(canon.dim)
            ]
            scrambled = SubspaceBasis.span(n, field, mixed)
            out.append((f"canonical-n{n}-k{k}", canon, k))
            out.append((f"scrambled-n{n}-k{k}", scrambled, k))
            # one extra random direction: verdict no
            wider = SubspaceBasis.span(n, field, list(canon.basis) + [random_matrix(rng, n, field)])
            out.append((f"wider-n{n}-k{k}", wider, k))
            small = SubspaceBasis.span(n, field, [random_matrix(rng, n, field) for _ in range(4)])
            out.append((f"random-n{n}-k{k}", small, k))
    return out


def preserver_record(tmap, k):
    verdict = check_preserves(tmap, k, mode="exhaustive")
    counter = verdict.counterexample
    return [verdict.kind, None if counter is None else [int(v) for v in counter.data]]


def span_record(v, k):
    verdict = within_prk_bound(v, k, "exhaustive")
    counter = verdict.counterexample
    return [v.dim, verdict.kind, None if counter is None else [int(x) for x in counter.data]]


PRESERVER_PINNED = {
    "random-F3-k1-0": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "random-F3-k1-1": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "random-F3-k1-2": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "perturbed-F3-k1-0": ["not_preserver", [0, 1, 0, 0, 0, 0, 0, 1, 0]],
    "perturbed-F3-k1-1": ["not_preserver", [0, 0, 0, 1, 0, 0, 1, 0, 0]],
    "perturbed-F3-k1-2": ["not_preserver", [0, 0, 1, 0, 0, 0, 0, 0, 1]],
    "canonical-F3-k1": ["preserver", None],
    "random-F3-k2-0": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 1, 2]],
    "random-F3-k2-1": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "random-F3-k2-2": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "perturbed-F3-k2-0": ["not_preserver", [0, 0, 1, 0, 0, 0, 1, 0, 0]],
    "perturbed-F3-k2-1": ["not_preserver", [0, 1, 0, 1, 0, 0, 0, 1, 0]],
    "perturbed-F3-k2-2": ["not_preserver", [0, 0, 1, 1, 0, 0, 0, 0, 1]],
    "canonical-F3-k2": ["preserver", None],
    "random-F5-k1-0": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "random-F5-k1-1": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "random-F5-k1-2": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "perturbed-F5-k1-0": ["not_preserver", [0, 0, 0, 1, 0, 0, 1, 0, 0]],
    "perturbed-F5-k1-1": ["not_preserver", [0, 0, 0, 0, 0, 1, 0, 0, 1]],
    "perturbed-F5-k1-2": ["not_preserver", [0, 0, 0, 1, 0, 0, 1, 0, 0]],
    "canonical-F5-k1": ["preserver", None],
    "random-F5-k2-0": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "random-F5-k2-1": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 1, 0]],
    "random-F5-k2-2": ["not_preserver", [0, 0, 0, 0, 0, 0, 0, 0, 1]],
    "perturbed-F5-k2-0": ["not_preserver", [0, 0, 1, 0, 0, 0, 0, 1, 0]],
    "perturbed-F5-k2-1": ["not_preserver", [0, 0, 1, 1, 0, 0, 0, 0, 1]],
    "perturbed-F5-k2-2": ["not_preserver", [1, 0, 0, 0, 0, 1, 1, 0, 0]],
    "canonical-F5-k2": ["preserver", None],
}

SPAN_PINNED = {
    "canonical-n4-k1": [4, "yes", None],
    "scrambled-n4-k1": [4, "yes", None],
    "wider-n4-k1": [5, "no", [1, 0, 1, 0, 1, 0, 0, 2, 0, 0, 0, 0, 1, 2, 1, 1]],
    "random-n4-k1": [4, "no", [0, 0, 0, 0, 1, 1, 2, 1, 2, 2, 1, 0, 0, 1, 1, 0]],
    "canonical-n4-k2": [8, "yes", None],
    "scrambled-n4-k2": [8, "yes", None],
    "wider-n4-k2": [9, "no", [0, 1, 0, 2, 0, 1, 0, 2, 0, 0, 0, 2, 0, 0, 1, 0]],
    "random-n4-k2": [4, "no", [0, 0, 0, 1, 2, 1, 0, 1, 1, 1, 0, 0, 2, 0, 1, 0]],
    "canonical-n4-k3": [12, "yes", None],
    "scrambled-n4-k3": [11, "yes", None],
    "wider-n4-k3": [12, "yes", None],
    "random-n4-k3": [4, "no", [0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 2, 2, 1, 2, 1, 1]],
    "canonical-n5-k1": [5, "yes", None],
    "scrambled-n5-k1": [3, "yes", None],
    "wider-n5-k1": [6, "no", [1, 0, 1, 0, 1, 2, 0, 2, 2, 2, 1, 0, 0, 2, 1, 1, 0, 1, 0, 0, 2, 0, 1, 2, 0]],
    "random-n5-k1": [4, "no", [0, 0, 0, 0, 1, 1, 1, 1, 2, 0, 1, 2, 1, 2, 0, 0, 2, 2, 1, 0, 2, 1, 2, 1, 2]],
    "canonical-n5-k2": [10, "yes", None],
    "scrambled-n5-k2": [10, "yes", None],
    "wider-n5-k2": [11, "no", [1, 0, 1, 0, 0, 2, 0, 2, 0, 0, 0, 0, 1, 0, 2, 0, 0, 0, 0, 2, 1, 0, 2, 0, 1]],
    "random-n5-k2": [4, "no", [0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 0, 1, 1, 2, 1, 2, 0, 1, 1, 1, 0, 1, 1, 2]],
}


@pytest.mark.parametrize("name,tmap,k", [pytest.param(*c, id=c[0]) for c in preserver_cases()])
def test_exhaustive_preserver_pins(name, tmap, k):
    assert preserver_record(tmap, k) == PRESERVER_PINNED[name]


@pytest.mark.parametrize("name,v,k", [pytest.param(*c, id=c[0]) for c in span_cases()])
def test_exhaustive_span_pins(name, v, k):
    assert span_record(v, k) == SPAN_PINNED[name]
