#!/usr/bin/env python3
"""Binary trees, their maximal right paths, and the path matrices.

A degree-r invariant is indexed by one tree per qubit; each tree
contributes its permutation and two small GF(2) matrices.
"""

from stabinv.gf2 import to_text
from stabinv.trees import (
    BinaryTree,
    catalan,
    cycle_form,
    d_matrix,
    enumerate_trees,
    maximal_right_paths,
    permutation_of,
    r_matrix,
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

# A 10-node example.  Node labels follow the root/left/right traversal,
# so serialization determines the labelling.
ten = BinaryTree(
    left=(2, 0, 4, 5, 0, 0, 0, 0, 0, 0),
    right=(3, 0, 9, 7, 6, 0, 8, 0, 10, 0),
)
print("\n10-node tree:", serialize(ten))
print("maximal right paths:", maximal_right_paths(ten))
print("as cycles:", cycle_form(permutation_of(ten)))

# Column j of the path matrix marks the nodes of path j; its transpose's
# null space has dimension r - t.  Both matrices are gf2's int rows: bit j
# of a row is column j, and the column count travels beside them.
print("path matrix:")
print(to_text(r_matrix(ten), len(maximal_right_paths(ten))))
print("null-space dimension r - t =", v_space_dimension(ten))

# The prefix matrix feeds the sign in the oracle's closed-form sums.
print("prefix matrix of the 3-node right chain:")
print(to_text(d_matrix(enumerate_trees(3)[-1]), 3))
