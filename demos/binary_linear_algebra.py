#!/usr/bin/env python3
"""Tour of the GF(2) linear algebra in stabinv.gf2.

Everything downstream (codes, invariants) reduces to ranks and kernels of
matrices over the two-element field, so this is the workhorse.  A matrix
is a plain 2-d uint8 numpy array of 0/1; one elimination routine,
reduced_echelon, serves rank and kernel alike.
"""

import numpy as np

from stabinv.gf2 import kernel_basis, rank, reduced_echelon, to_text

m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
print("matrix:")
print(to_text(m))
print("rank:", rank(m))  # rows sum to zero mod 2, so rank < 3

# The reduced echelon form and its pivot columns, left to right.
echelon, pivots = reduced_echelon(m)
print("reduced echelon form, pivots", pivots)
print(to_text(echelon))

# The kernel basis is returned column-wise; products are ordinary numpy
# products reduced mod 2, and M @ basis vanishes.
basis = kernel_basis(m)
print("kernel basis columns:")
print(to_text(basis))
print("M @ basis == 0:", not np.any((m @ basis) % 2))

# Rank is insensitive to transposition, and rank + nullity = columns.
rng = np.random.default_rng(0)
big = rng.integers(0, 2, size=(60, 45), dtype=np.uint8)
print("random 60x45: rank", rank(big), "== transpose rank", rank(big.T))
print("rank + nullity:", rank(big) + kernel_basis(big).shape[1], "== 45")

# The invariant engine builds its Kronecker blocks and stacks them with
# numpy, then eliminates the stack once.
a = np.array([[1, 1]], dtype=np.uint8)
b = np.eye(2, dtype=np.uint8)
print("kron([1 1], I2):")
print(to_text(np.kron(a, b)))
stacked = np.concatenate([b, b, np.zeros((0, 2), dtype=np.uint8)])
print("stacked shape:", stacked.shape, "rank:", rank(stacked))

# Zero-dimensional matrices are fine: a 0 x 5 matrix constrains nothing.
print("0x5 kernel dimension:", kernel_basis(np.zeros((0, 5), dtype=np.uint8)).shape[1])
