#!/usr/bin/env python3
"""Stabilizer codes in the binary symplectic picture.

A code is a 2n x k full-rank matrix over GF(2) whose columns pairwise
commute under the symplectic product; graph states are the special case
[theta; I] for an adjacency matrix theta.  A GeneratorMatrix is always
such a code: its constructor takes the 2n rows as ints, bit l of a row
for generator l + 1, and refuses bits that are no code.
"""

import random

from stabinv.errors import InvalidCodeError
from stabinv.gf2 import to_text
from stabinv.stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    LocalCliffordOp,
    apply_local_clifford,
    code_space,
    format_code,
    graph_generator,
    random_code,
    restrict_to,
    same_code_space,
    support,
    symplectic_product,
)

# A Bell-pair-like graph code: two vertices joined by an edge.
edge = AdjacencyMatrix.from_edges(2, [(1, 2)])
gen = graph_generator(edge)
print("generator matrix (columns = generators):")
print(to_text(gen.rows, gen.k))
print("as int rows:", gen.rows)
print("as Pauli strings:", gen.pauli_strings())
print("the same rows make the same code:", GeneratorMatrix(gen.rows, gen.k) == gen)

# The symplectic product detects (anti)commutation: X and Z on the same
# qubit anticommute, so together they are no code.  The constructor
# refuses such bits and names the first violated property.
print("X1 vs Z1:", symplectic_product([0, 1], [1, 0]))
x1_z1 = (0b10, 0b00, 0b01, 0b00)  # generators X1 (bit 0) and Z1 (bit 1) on 2 qubits
try:
    GeneratorMatrix(x1_z1, 2)
except InvalidCodeError as exc:
    print("X1 and Z1 as generators:", exc.violation)
    print("refused:", exc)

# Codewords and supports.
for word in code_space(gen):
    print("codeword", word, "support", support(word))

# Tracing down to qubit 1 leaves nothing: the pair is entangled, so the
# one-qubit reduction is maximally mixed (a dimension-0 code).
reduced = restrict_to(gen, {1})
print("restricted to {1}: n =", reduced.n, " k =", reduced.k)

# Local Clifford operations act per qubit by invertible 2x2 blocks and
# never change validity or the invariants; random ones draw from a
# random.Random, one block per qubit.
rng = random.Random(1)
op = LocalCliffordOp.random(2, rng)
moved = apply_local_clifford(op, gen)
print("after a random local Clifford:", moved.pauli_strings())
back = apply_local_clifford(op.inverse(), moved)
print("inverse restores the code space:", same_code_space(back, gen))

# Seeded random codes for experiments; k = 0 is the trivial code.  An int
# or a tuple of ints seeds the same code in every process.
sample = random_code(3, 2, seed=7)
print("random [[3, 2]] code:\n" + format_code(sample), end="")
print("reproducible:", random_code(3, 2, seed=7).rows == sample.rows)
