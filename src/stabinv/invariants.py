"""Binary-side invariant engines.

The degree-r invariant attached to a code and an n-tuple of binary trees
is the GF(2) kernel dimension of a stacked Kronecker matrix: block i is
(path matrix of tree i)^T tensor (2 x k qubit subblock i).  Equivalently
it counts, on a log scale, the r-tuples of codewords whose per-path sums
are supported inside the path's allowed qubit set; the oracle's
theorem2_dim counts them as an independent cross-check.

Every record, of one tuple or of a sweep (records, which the theorem
suites certify), comes from one routine.  At degrees up to 3 it needs no
block: a record of degree r is a sum of r dimensions of subcodes, the
codewords supported inside a qubit set, less the dimension of their sum,
all from ranks of int rows.  From degree 4 on, each block is built as
int rows, from the code's rows and the tree's right paths, and made a
0/1 np.uint8 array once for the elimination.  So numpy loads only when a
record of degree 4 or more is computed.

Records leave the engine as the JSON rows the CLI prints: `fingerprint`
returns the {"n", "r_max", "records": [{"r", "tuple", "dim"}, ...]}
payload, and `first_difference` None or the {"r", "tuple", "dim_a",
"dim_b"} row of the first record two codes differ on.
"""

from __future__ import annotations

import functools
import itertools
import operator

from . import trees as trees_mod
from .errors import BudgetError, capped_sum
from .gf2 import rank, to_dense
from .stabilizer import GeneratorMatrix, qubit_rows, qubit_subset, subcode_basis
from .trees import (
    BinaryTree,
    TreeTuple,
    attach_singleton_root,
    catalan,
    delete_singleton,
    enumerate_trees,
    left_chain,
    right_chain,
    serialize,
    singleton_path_nodes,
)

DEFAULT_MAX_RECORDS = 200_000
MAX_GLOBAL_QUBITS = 8


def parse_tuple(text: str) -> TreeTuple:
    parts = [p for p in text.strip().split(";") if p]
    return TreeTuple(tuple(trees_mod.parse(p) for p in parts))


def uniform_tuple(tree: BinaryTree, n: int) -> TreeTuple:
    return TreeTuple((tree,) * n)


def identity_tuple(n: int, r: int) -> TreeTuple:
    """All trees a left chain: every node its own right path."""
    return uniform_tuple(left_chain(r), n)


def degree2_tuple(n: int, omega) -> TreeTuple:
    """The degree-2 tuple encoding a qubit subset: the two-node tree with a
    right son at positions in the subset, a left son elsewhere."""
    omega = qubit_subset(omega, n)
    return TreeTuple(
        tuple(right_chain(2) if i in omega else left_chain(2) for i in range(1, n + 1))
    )


def _block(gen: GeneratorMatrix, i: int, tree: BinaryTree):
    """(r x t path matrix of tree)^T tensor (2 x k subblock of qubit i):
    a 2t x r*k array of 0/1.  Row (path p, z or x) holds the qubit's z or
    x row in the k columns of each node c of p, from column (c - 1) * k."""
    k = gen.k
    rows = [
        sum(row << (c - 1) * k for c in p)
        for p in tree.paths
        for row in qubit_rows(gen, [i])
    ]
    return to_dense(rows, tree.r * k)


def _kernel_dim(blocks) -> int:
    """Kernel dimension of the blocks stacked row-wise, by Gauss-Jordan
    elimination: pivots are searched column by column, and within a column
    the first nonzero row at or below the current one is chosen."""
    import numpy as np

    m = np.concatenate(blocks)
    rows, cols = m.shape
    pivots = 0
    for c in range(cols):
        if pivots == rows:
            break
        hits = np.flatnonzero(m[pivots:, c])
        if hits.size == 0:
            continue
        p = pivots + int(hits[0])
        if p != pivots:
            m[[pivots, p]] = m[[p, pivots]]
        others = np.flatnonzero(m[:, c])
        m[others[others != pivots]] ^= m[pivots]
        pivots += 1
    return cols - pivots


def invariant_dim(gen: GeneratorMatrix, tup: TreeTuple) -> int:
    """Kernel dimension of the stacked Kronecker matrix."""
    if tup.n != gen.n:
        raise ValueError(f"tuple is for {tup.n} qubits, code has {gen.n}")
    ((_, dim),) = _records(gen, [[tree] for tree in tup.trees])
    return dim


def degree2_dim(gen: GeneratorMatrix, omega) -> int:
    """Dimension of the codeword subspace supported inside omega: the
    record of the degree-2 tuple encoding omega."""
    return invariant_dim(gen, degree2_tuple(gen.n, omega))


def _records(gen: GeneratorMatrix, choices):
    """Yield (serialized trees, dim) for every tree tuple with qubit i's
    tree drawn from choices[i - 1], in itertools.product order; all trees
    have r nodes.  From degree 4 on, each (qubit, tree) block is built
    once per call and shared by every tuple that uses it.

    Up to degree 3 no block is built.  For a tuple (T_1, ..., T_n) and a
    node c in {1, ..., r}, let A_c be the qubits i where c is not a
    one-node maximal right path of T_i, and C_A the subcode supported
    inside A.  Then

        dim = dim C_A1 + ... + dim C_Ar - dim(C_A1 + ... + C_Ar).

    The kernel holds the coefficient r-tuples (x_1, ..., x_r) whose sum
    over each right path p of T_i vanishes on qubit i.  The paths of T_i
    partition {1, ..., r}, so x_1 + ... + x_r vanishes on every qubit, and
    is 0 because the generator matrix has full column rank.  Given that, a
    one-node path {c} asks that x_c vanish on qubit i, and a longer path
    asks the same of the nodes it leaves out: for r <= 3 none, or one that
    is a one-node path of T_i.  So the kernel is the kernel of the map
    (x_1, ..., x_r) -> x_1 + ... + x_r from C_A1 x ... x C_Ar onto their
    sum.  At r = 1 the one node is a one-node path of every tree, A_1 is
    empty and the record is 0.  At r = 2 both A_c are the qubits whose
    tree is the right chain, and the record is dim C_A.  Each C_A's basis
    is built once per call, and each dimension once per sorted
    (A_1, ..., A_r), as the sum is symmetric.
    """
    r = choices[0][0].r
    if r >= 4:
        slots = [
            [(serialize(tree), _block(gen, i, tree)) for tree in trees]
            for i, trees in enumerate(choices, start=1)
        ]
        for combo in itertools.product(*slots):
            sers, blocks = zip(*combo)
            yield sers, _kernel_dim(blocks)
        return
    # one slot per (qubit i + 1, tree): the serialized tree and, for each
    # node c, the tree's share of A_c, bit i or 0
    slots = [
        [
            (serialize(t), *((c not in singleton_path_nodes(t)) << i for c in range(1, r + 1)))
            for t in trees
        ]
        for i, trees in enumerate(choices)
    ]
    basis = functools.cache(
        lambda inside: subcode_basis(gen, [i for i in range(1, gen.n + 1) if inside >> (i - 1) & 1])
    )
    dims: dict[tuple[int, ...], int] = {}
    for combo in itertools.product(*slots):
        sers, *columns = zip(*combo)
        key = tuple(sorted(map(sum, columns)))
        if key not in dims:
            parts = [basis(inside) for inside in key]
            dims[key] = sum(map(len, parts)) - rank(itertools.chain(*parts))
        yield sers, dims[key]


def reduce_singleton(tup: TreeTuple) -> TreeTuple | None:
    """Drop a node that forms a one-node right path in every tree.

    Returns the degree r-1 tuple, or None when no common singleton path
    exists.  The invariant dimension is unchanged by this reduction.
    """
    if tup.r < 2:
        raise ValueError("need degree at least 2 to reduce")
    common = set.intersection(*(singleton_path_nodes(t) for t in tup.trees))
    if not common:
        return None
    node = min(common)
    return TreeTuple(tuple(delete_singleton(t, node) for t in tup.trees))


def pad_degree(tup: TreeTuple) -> TreeTuple:
    """Append a fresh one-node right path to every tree (degree r+1).

    The new node becomes the root with the old tree as its left subtree,
    so reduce_singleton inverts this exactly and the invariant dimension
    is unchanged.
    """
    return TreeTuple(tuple(attach_singleton_root(t) for t in tup.trees))


class _Row(dict):
    """A row as printed, whose keys also read as attributes, tuple as
    tuple_id: perfbench's reference test reads fingerprint rows so."""

    __slots__ = ()

    def __getattr__(self, name):
        try:
            return self["tuple" if name == "tuple_id" else name]
        except KeyError:
            raise AttributeError(name) from None


def records(gen: GeneratorMatrix, r: int):
    """Yield (serialized trees, dim) for every tree tuple of degree r, in
    canonical order: the records of degree r that fingerprint prints."""
    if gen.n == 0:
        raise ValueError("need at least one qubit")
    return _records(gen, [enumerate_trees(r)] * gen.n)


def _degrees(gen: GeneratorMatrix, r_max: int, max_records: int) -> range:
    """The degrees 2..r_max of a sweep, once its records fit max_records."""
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    total = capped_sum((catalan(r) ** gen.n for r in range(2, r_max + 1)), max_records)
    if total > max_records:
        raise BudgetError(f"{total} records exceed budget {max_records}")
    return range(2, r_max + 1)


def _sweep(gen: GeneratorMatrix, r_max: int, max_records: int):
    """Yield (r, serialized trees, dim) for each tuple of degree 2..r_max, in order."""
    for r in _degrees(gen, r_max, max_records):
        for sers, dim in records(gen, r):
            yield r, sers, dim


def fingerprint(
    gen: GeneratorMatrix, r_max: int, max_records: int = DEFAULT_MAX_RECORDS
) -> dict:
    """The payload `stabinv fingerprint` prints: n, r_max and the row
    {"r", "tuple", "dim"} of every tree tuple of degree 2..r_max, in
    canonical order."""
    rows = [
        _Row(r=r, tuple=";".join(sers), dim=dim) for r, sers, dim in _sweep(gen, r_max, max_records)
    ]
    return _Row(n=gen.n, r_max=r_max, records=rows)


def first_difference(
    gen1: GeneratorMatrix,
    gen2: GeneratorMatrix,
    r_max: int,
    max_records: int = DEFAULT_MAX_RECORDS,
) -> dict | None:
    """None if the codes agree on every record of degree 2..r_max;
    otherwise the first record they differ on, as `stabinv compare` prints
    it: {"r", "tuple", "dim_a", "dim_b"}.  Both codes are swept side by
    side, and no record after the first difference is computed."""
    if gen1.n != gen2.n:
        raise ValueError("codes have different lengths")
    for (r, sers, dim_a), (_, _, dim_b) in zip(
        _sweep(gen1, r_max, max_records), _sweep(gen2, r_max, max_records)
    ):
        if dim_a != dim_b:
            return {"r": r, "tuple": ";".join(sers), "dim_a": dim_a, "dim_b": dim_b}
    return None


def compare_global(
    gen1: GeneratorMatrix,
    gen2: GeneratorMatrix,
    r_max: int,
    max_records: int = DEFAULT_MAX_RECORDS,
):
    """Search for a qubit relabelling of the second code matching all records.

    Returns the first permutation (as a tuple p with new qubit i taking
    old qubit p[i-1]) whose fingerprint matches, or None if every
    permutation is distinguished.  Matching fingerprints make the codes
    equivalence candidates; they are not a proof of equivalence.  Each
    degree drops the relabellings its records rule out, and no higher
    degree is computed once none is left.
    """
    if gen1.n != gen2.n:
        raise ValueError("codes have different lengths")
    n = gen1.n
    if n > MAX_GLOBAL_QUBITS:
        raise BudgetError(f"global comparison limited to {MAX_GLOBAL_QUBITS} qubits")
    degrees = _degrees(gen1, r_max, max_records)
    # candidates in itertools.permutations order; each maps record positions
    # of the first code onto tree slots of the second, so it is the inverse
    # of the relabelling returned.  Each comes with its getter, which takes
    # the first code's trees to the second code's key in one call (tuple
    # for n = 1, where itemgetter would return the bare tree)
    alive = [
        (p, operator.itemgetter(*p) if n > 1 else tuple)
        for p in itertools.permutations(range(n))
    ]
    for r in degrees:
        sers1, dims1 = zip(*records(gen1, r))
        lookup = dict(records(gen2, r)).__getitem__
        alive = [
            (p, get) for p, get in alive
            if all(map(operator.eq, dims1, map(lookup, map(get, sers1))))
        ]
        if not alive:
            return None
    return tuple(alive[0][0].index(i) + 1 for i in range(n))
