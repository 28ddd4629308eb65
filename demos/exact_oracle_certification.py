#!/usr/bin/env python3
"""The exact dense oracle, and what it certifies.

The oracle builds every Pauli and tau operator from one entry rule,
(tau_(u,v))[x, y] = (-1)^(u.x) [x + y = v], as flat lists of
Gaussian-integer entries held in Python ints, which never overflow,
evaluates the defining trace of each invariant exactly, and checks that
its log2 exceeds the binary kernel dimension by t - n*r, where t counts
the maximal right paths of the tuple's trees (so never by the code).  It
runs without numpy.
"""

from stabinv import oracle
from stabinv.invariants import identity_tuple, invariant_dim, uniform_tuple
from stabinv.oracle import (
    closed_form_table,
    cyclic_sum_table,
    invariant_trace,
    rho_from_code,
    rho_graph_formula,
    tau_op,
)
from stabinv.stabilizer import AdjacencyMatrix, graph_generator, random_code
from stabinv.trees import (
    all_tuples,
    enumerate_trees,
    permutation_of,
    right_chain,
)

# tau matrices: the real Pauli variant; the (1,1) member is i*sigma_y.
print("tau_11 entries, row by row:", tau_op([1], [1]).re)

# Two ways to build a graph-state projector agree entry for entry.
adj = AdjacencyMatrix.from_edges(3, [(1, 2), (2, 3)])
print("tau-sum formula == generator-group sum:",
      rho_graph_formula(adj).same_as(rho_from_code(graph_generator(adj))))

# The cyclic tau sums of a tree's copy permutation, summed from the
# definition for every (u, v) at once, equal their closed form entry for
# entry (rows u, columns v, copy 1 as the top bit).
tree = enumerate_trees(3)[2]
table = cyclic_sum_table(permutation_of(tree))
print(f"cyclic sums of {tree!r}, one row per u:")
for u in range(8):
    print(" ", table[8 * u : 8 * u + 8])
print("== closed form:", table == closed_form_table(tree))

# The trace of rho^{x2} (the degree-2 full-swap invariant) is the purity
# 2^(k-n), exactly.
gen = random_code(3, 1, seed=4)
tup = uniform_tuple(right_chain(2), 3)
print("log2 purity:", invariant_trace(gen, tup).log2(), "(k - n = -2)")
print("identity-tuple trace is 1:", invariant_trace(gen, identity_tuple(3, 2)))

# The central fact: trace and kernel dimension move together.  The offset
# equals (number of right paths summed over the tuple) - n*r, so it is a
# property of the tuple alone; sweep a few codes to see it stay put.
for tup in list(all_tuples(2, 3))[:5]:
    offsets = set()
    for seed in range(6):
        for k in (0, 1, 2):
            g = random_code(2, k, seed=(seed, k))
            offsets.add(invariant_trace(g, tup).log2() - invariant_dim(g, tup))
    predicted = sum(len(t.paths) for t in tup.trees) - 2 * tup.r
    print(f"tuple {tup.id()}: offsets {offsets}, path-count formula {predicted}")

# The packaged suites run these identities wholesale (also available as
# `stabinv oracle-check --suite ...`).
for name in ("lemma1", "lemma4"):
    report = oracle.SUITES[name](max_n=2)
    print(name, report["status"], f"({report['checks']} checks)")
