#!/usr/bin/env python3
"""Tour of the GF(2) linear algebra in stabinv.gf2.

Everything downstream (codes, invariants) reduces to ranks and kernels of
matrices over the two-element field, so this is the workhorse.  A matrix
is a sequence of Python ints, one per row, with bit c of a row holding
column c; the column count travels beside the rows.  One elimination
routine, an XOR basis with distinct leading bits, serves both: its size is
the rank, and brought to reduced row-echelon form it gives the kernel.
"""

import random

from stabinv.gf2 import kernel_basis, rank, to_text, transpose

# rows 110, 011 and 101, column 0 first, so row 110 is the int 0b011
m, cols = (0b011, 0b110, 0b101), 3
print("matrix:")
print(to_text(m, cols))
print("as int rows:", m)
print("rank:", rank(m))  # rows sum to zero mod 2, so rank < 3

# Each kernel vector is a cols-bit int x, one per free column of the
# reduced echelon form: here column 2, the only column in the span of the
# columns to its left.  A row times x is the parity of row & x, and every
# row times every kernel vector vanishes.
basis = kernel_basis(m, cols)
print("kernel basis vectors:", [to_text([x], cols) for x in basis])
print("M x == 0:", not any((row & x).bit_count() % 2 for row in m for x in basis))

# Rank is insensitive to transposition, and rank + nullity = columns.
rng = random.Random(0)
big = [rng.getrandbits(45) for _ in range(60)]
print("random 60x45: rank", rank(big), "== transpose rank", rank(transpose(big, 45)))
print("rank + nullity:", rank(big) + len(kernel_basis(big, 45)), "== 45")

# Zero-dimensional matrices are fine: a 0 x 5 matrix constrains nothing.
print("0x5 kernel dimension:", len(kernel_basis([], 5)))
