#!/usr/bin/env python3
"""Tour of the bit-packed GF(2) matrix layer.

Everything downstream (codes, invariants) reduces to ranks and kernels of
matrices over the two-element field, so this is the workhorse.
"""

import numpy as np

from stabinv.gf2 import GF2Matrix

# Construction: from dense 0/1 data, identities, zeros.
m = GF2Matrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
print("matrix:")
print(m.to_text())
print("rank:", m.rank())  # rows sum to zero mod 2, so rank < 3
print("kernel dimension:", m.kernel_dimension())

# The kernel basis is returned column-wise; M @ basis vanishes.
basis = m.kernel_basis()
print("kernel basis columns:")
print(basis.to_text())
print("M @ basis == 0:", not np.any((m @ basis).to_dense()))

# Rank is insensitive to transposition, and rank + nullity = columns.
rng = np.random.default_rng(0)
big = GF2Matrix.random(60, 45, rng)
print("random 60x45: rank", big.rank(), "== transpose rank", big.transpose().rank())

# The invariant engine builds its Kronecker blocks and stacks them as
# dense 0/1 arrays, then packs the stack once for elimination.
a = np.array([[1, 1]], dtype=np.uint8)
b = np.eye(2, dtype=np.uint8)
print("kron([1 1], I2):")
print(GF2Matrix.from_dense(np.kron(a, b)).to_text())
stacked = GF2Matrix.from_dense(np.concatenate([b, b, np.zeros((0, 2), dtype=np.uint8)]))
print("stacked shape:", (stacked.rows, stacked.cols), "rank:", stacked.rank())

# Zero-dimensional matrices are fine: a 0 x 5 matrix constrains nothing.
print("0x5 kernel dimension:", GF2Matrix.zeros(0, 5).kernel_dimension())

# Text round-trip: rows of '0'/'1', one per line.
print("round-trip ok:", GF2Matrix.from_text(m.to_text()) == m)
