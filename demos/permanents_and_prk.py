#!/usr/bin/env python3
"""Permanents and permanental rank, with certifying witnesses."""

import permrank as pr

Q = pr.QQ
F5 = pr.PrimeField(5)

# The permanent is the determinant's sign-free cousin: a sum over all
# permutations with every term taken positively.
a = pr.mat([[1, 2], [3, 4]], Q)
print("per [[1,2],[3,4]]      =", pr.per_fast(a))          # 1*4 + 2*3 = 10
print("per (all-ones 3x3)     =", pr.per_fast(pr.ones(3, Q)))  # 3! = 6

# Two independent evaluations: the definitional permutation sum and the
# integer Glynn-formula kernel always agree.
b = pr.mat([[1, 1, 2], [0, 3, 1], [2, 1, 1]], F5)
print("naive vs fast over F5  =", pr.per_naive(b), pr.per_fast(b))

# The permanental rank is the size of the largest square submatrix with
# nonzero permanent; the witness names the rows and columns that certify it.
probe = pr.mat([[1, 1, 0], [-1, 1, 0], [0, 0, 1]], Q)
w = pr.prk(probe)
print("\nprobe matrix:", probe)
print("prk =", w.rank, " witness rows", w.row_set, " cols", w.col_set,
      " subpermanent", w.per_value)

# Note the contrast with ordinary rank: the probe has full linear rank 3,
# but every 3x3 permanent (there is only one) vanishes.
print("full permanent:", pr.per_fast(probe))

# Rank is invariant under transposition, row/column permutation, and
# row/column rescaling, exactly like ordinary rank.
sigma = pr.Permutation((3, 1, 2))
p = pr.permutation_matrix(sigma, Q)
d = pr.diagonal((2, 5, -1), Q)
for label, image in [
    ("transpose ", probe.transpose()),
    ("rows moved", p @ probe),
    ("cols moved", probe @ p),
    ("rows scaled", d @ probe),
]:
    print(label, "-> prk", pr.prk(image).rank)

# The fast membership test short-circuits; handy inside search loops.
print("\nprk <= 1?", pr.prk_decide_leq(probe, 1))
print("prk <= 2?", pr.prk_decide_leq(probe, 2))
