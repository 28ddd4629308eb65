#!/usr/bin/env python3
"""The binary invariant engine: kernel dimensions as local-unitary data.

Each record pairs a tree tuple with the GF(2) kernel dimension of its
stacked Kronecker matrix; locally equivalent codes produce identical
records, so the sweep works as an equivalence screen.
"""

import itertools
import json
import random

from stabinv.invariants import (
    compare_global,
    degree2_dim,
    degree2_tuple,
    first_difference,
    identity_tuple,
    invariant_dim,
)
from stabinv.stabilizer import (
    AdjacencyMatrix,
    LocalCliffordOp,
    apply_local_clifford,
    code_space,
    graph_generator,
    permute_qubits,
    random_code,
    support,
)
from stabinv.trees import TreeTuple, left_chain, pad_degree, reduce_singleton, right_chain

edge = graph_generator(AdjacencyMatrix.from_edges(2, [(1, 2)]))

# The all-left-chain tuple always gives 0; the all-right-son degree-2
# tuple recovers k (here 2).
print("identity tuple dim:", invariant_dim(edge, identity_tuple(2, 3)))
print("full swap dim:", invariant_dim(edge, degree2_tuple(2, {1, 2})))

# Degree-2 invariants measure codeword subspaces supported inside a qubit
# subset: 2^dim codewords of the code lie inside omega.
for size in range(3):
    for omega in itertools.combinations((1, 2), size):
        d = degree2_dim(edge, omega)
        inside = [w for w in code_space(edge) if support(w) <= set(omega)]
        assert len(inside) == 1 << d
        print(f"omega={set(omega) or set()}: dim {d}, {len(inside)} codewords inside")

# Padding a fresh singleton path or removing a shared one never moves the
# dimension.
tup = TreeTuple((right_chain(2), left_chain(2)))
print("pad keeps dim:", invariant_dim(edge, pad_degree(tup)) == invariant_dim(edge, tup))
print("pad then reduce round-trips:", reduce_singleton(pad_degree(tup)) == tup)

# Comparing two codes walks both sweeps of records side by side and stops
# at the first record that differs; local Clifford images have none.
rng = random.Random(3)
twin = apply_local_clifford(LocalCliffordOp.random(2, rng), edge)
print("LC twin indistinguishable:", first_difference(edge, twin, 3) is None)

# The 3-vertex path and triangle graphs are in the same class; the product
# state is not (its single-qubit reductions are pure).  A difference comes
# back as the row `stabinv compare` prints: the record's degree and tuple,
# and each code's dimension.
path3 = graph_generator(AdjacencyMatrix.from_edges(3, [(1, 2), (2, 3)]))
tri3 = graph_generator(AdjacencyMatrix.complete(3))
print("path vs triangle:", first_difference(path3, tri3, 2))
prod2 = graph_generator(AdjacencyMatrix.empty(2))
print("product vs edge:", json.dumps(first_difference(prod2, edge, 2)))

# Global comparison also searches over qubit relabellings, dropping those
# that each degree's records rule out.
a = random_code(3, 2, seed=10)
b = permute_qubits(a, (2, 3, 1))
print("relabelling found:", compare_global(a, b, 2))
