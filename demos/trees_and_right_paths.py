#!/usr/bin/env python3
"""Binary trees, their maximal right paths, and the prefix matrix.

A degree-r invariant is indexed by one tree per qubit; each tree
contributes its right paths, whose cycles make its permutation.  A tree
is held as those paths: they are a non-crossing partition of its nodes,
and each such partition is the paths of exactly one tree.
"""

from stabinv.gf2 import to_text
from stabinv.trees import (
    BinaryTree,
    catalan,
    d_matrix,
    enumerate_trees,
    permutation_of,
    serialize,
    v_space_dimension,
)

# Counts follow the Catalan numbers.
for r in range(1, 7):
    print(f"trees on {r} nodes: {len(enumerate_trees(r))} (catalan {catalan(r)})")

# The two trees on 2 nodes: node 2 as left son (identity permutation)
# or as right son (the swap).
for t in enumerate_trees(2):
    print(serialize(t), "->", permutation_of(t))

# A 10-node example, built from its maximal right paths.  Node labels
# follow the root/left/right traversal, so the paths determine the tree
# and its text.
ten = BinaryTree(((1, 3, 9, 10), (2,), (4, 7, 8), (5, 6)))
print("\n10-node tree:", serialize(ten))
print("maximal right paths:", ten.paths)
print("permutation (image of 1..10):", permutation_of(ten))

# The r x t path-indicator matrix has disjoint columns, so the null space
# of its transpose has dimension r - t.
print("null-space dimension r - t =", v_space_dimension(ten))

# The prefix matrix feeds the sign in the oracle's closed-form sums; it is
# gf2's int rows: bit j of a row is column j.
print("prefix matrix of the 3-node right chain:")
print(to_text(d_matrix(enumerate_trees(3)[-1]), 3))
