#!/usr/bin/env python3
"""Deciding and decomposing linear preservers of bounded permanental rank.

A bijective operator on the matrix space maps { prk <= k } into itself
exactly when it is a composition of row/column permutations, row/column
rescalings, and optionally the transpose.  The decision procedure reads the
operator's action on matrix units and either recovers that canonical tuple
or produces a concrete counterexample matrix.
"""

import random

import permrank as pr

F3 = pr.PrimeField(3)
rng = random.Random(2)

# Build a canonical preserver and hide it inside a 9x9 operator matrix.
cp = pr.CanonicalPreserver(
    d1=(F3(1), F3(2), F3(2)),
    sigma1=pr.Permutation((2, 3, 1)),
    transpose_flag=True,
    sigma2=pr.Permutation((1, 3, 2)),
    d2=(F3(2), F3(1), F3(1)),
)
tmap = pr.compose_canonical(cp)
print("operator:", tmap)

# Recover the tuple.  The result is gauge-normalized (first d1 entry 1);
# rescaling d1 by c and d2 by 1/c gives the same operator.
got = pr.decompose(tmap, k=1)
print("recovered:", pr.canonical_to_json(got))
print("recomposes exactly:", pr.compose_canonical(got) == tmap)

# Exhaustive certification over F_3: every one of the 19683 matrices with
# prk <= k maps back inside the set.
verdict = pr.check_preserves(tmap, k=1, mode="exhaustive")
print("exhaustive verdict:", verdict.kind)

# Now break one unit image: send E_{1,1} to E_{1,1} + E_{2,2}.  The map is
# still bijective, but E_{1,1} itself becomes a counterexample at k = 1.
def broken_image(i, j):
    if (i, j) == (1, 1):
        return pr.unit(1, 1, 3, F3) + pr.unit(2, 2, 3, F3)
    return pr.unit(i, j, 3, F3)

bad = pr.LinearMap.from_unit_images(3, F3, broken_image)
verdict = pr.check_preserves(bad, k=1, mode="structural", seed=0)
print("\nbroken map verdict:", verdict.kind)
print("counterexample:", verdict.counterexample)
print("its rank:", pr.prk(verdict.counterexample).rank,
      "-> image rank:", pr.prk(bad.apply(verdict.counterexample)).rank)

# The two-sided variant does not assume bijectivity: it derives it from the
# fact that every matrix unit needs a preimage.  An operator squashing
# everything into one row fails that test immediately.
squash = pr.LinearMap.from_unit_images(3, F3, lambda i, j: pr.unit(1, j, 3, F3))
print("\nsquash-to-row-1 verdict:", pr.check_equality_variant(squash, 1).kind)

# Random bijective operators are essentially never preservers.
from permrank.preserver import random_bijective_map

verdict = pr.check_preserves(random_bijective_map(rng, 3, F3), 1, seed=1)
print("random bijective operator:", verdict.kind)
