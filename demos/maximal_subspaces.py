#!/usr/bin/env python3
"""Subspaces of bounded permanental rank and their classification.

A subspace contained in { prk <= k } has dimension at most k*n, and the ones
hitting that bound are exactly the row-supported and column-supported spaces.
This demo checks membership exhaustively over a small prime field and
recognizes canonical subspaces behind a change of basis.
"""

import random

import permrank as pr

F3 = pr.PrimeField(3)
n, k = 3, 1

# V = matrices supported on row 2 only; dimension k*n = 3.
cs = pr.CanonicalSubspace(pr.ROW, (2,))
v = pr.canonical_basis(cs, n, F3)
print("dim of row-supported space:", v.dim)

# Every member really does satisfy prk <= 1 (27 members, all enumerated).
print("within bound:", pr.within_prk_bound(v, k, "exhaustive").kind)

# The span of the identity fails immediately for k = n-1.
iv = pr.SubspaceBasis(n, F3, [pr.identity(n, F3)])
verdict = pr.within_prk_bound(iv, n - 1, "exhaustive")
print("identity span verdict:", verdict.kind)
print("counterexample:", verdict.counterexample)

# Mix the basis with random invertible combinations; classification still
# recovers the support, which any basis of the span reveals, and at full
# dimension the support decides the subspace.
rng = random.Random(0)
while True:
    mixed = []
    for _ in range(v.dim):
        acc = pr.zero_matrix(n, F3)
        for b in v.basis:
            acc = acc + b.scale(rng.randrange(3))
        mixed.append(acc)
    w = pr.SubspaceBasis.span(n, F3, mixed)
    if w.dim == v.dim:
        break
print("\nclassified after change of basis:", pr.classify_maximal(w, k))

# A random 3-dimensional subspace is almost never canonical, and then it
# must contain a member of larger rank.
while True:
    mats = [pr.mat([[rng.randrange(3) for _ in range(n)] for _ in range(n)], F3)
            for _ in range(k * n)]
    try:
        u = pr.SubspaceBasis(n, F3, mats)
    except pr.errors.DependentBasis:
        continue
    if pr.classify_maximal(u, k) is None:
        break
print("random non-canonical span:", pr.within_prk_bound(u, k, "exhaustive").kind)

# Intersection dimensions follow closed forms: same orientation n*|S & S'|,
# opposite orientations k*k.
a = pr.canonical_basis(pr.CanonicalSubspace(pr.ROW, (1, 2)), 4, F3)
b = pr.canonical_basis(pr.CanonicalSubspace(pr.ROW, (2, 3)), 4, F3)
c = pr.canonical_basis(pr.CanonicalSubspace(pr.COL, (3, 4)), 4, F3)
print("\nrow(1,2) ^ row(2,3) dim:", a.intersect(b).dim, "(= n * 1)")
print("row(1,2) ^ col(3,4) dim:", a.intersect(c).dim, "(= k * k)")
