"""Binary-side invariant engines.

The degree-r invariant attached to a code and an n-tuple of binary trees
is the GF(2) kernel dimension of a stacked Kronecker matrix: block i is
(path matrix of tree i)^T tensor (2 x k qubit subblock i).  Equivalently
it counts, on a log scale, the r-tuples of codewords whose per-path sums
are supported inside the path's allowed qubit set; the oracle's
theorem2_dim counts them as an independent cross-check.

Every record, of one tuple or of a sweep (records, which the theorem
suites certify), comes from one routine, and is the stacked matrix's
column count, r * k, minus its rank.  The rows of each (qubit, tree)
block are built once per call as ints, from the code's rows and the
tree's right paths.  Up to degree 3 the rank comes from one XOR basis
per qubit prefix, extended along a walk of the tuples in order, so a
prefix's basis serves every tuple that extends it.  From degree 4 on,
each block is made a 0/1 np.uint8 array once and the stack eliminated
per tuple.  So numpy loads only when a record of degree 4 or more is
computed.

Records leave the engine as the JSON rows the CLI prints: `fingerprint`
returns the {"n", "r_max", "records": [{"r", "tuple", "dim"}, ...]}
payload, and `first_difference` None or the {"r", "tuple", "dim_a",
"dim_b"} row of the first record two codes differ on.
"""

from __future__ import annotations

import itertools
import operator

from . import trees as trees_mod
from .errors import BudgetError, capped_sum
from .gf2 import to_dense, xor_basis
from .stabilizer import GeneratorMatrix, qubit_rows, qubit_subset
from .trees import (
    BinaryTree,
    TreeTuple,
    catalan,
    enumerate_trees,
    left_chain,
    right_chain,
    serialize,
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


def _rows(gen: GeneratorMatrix, i: int, tree: BinaryTree) -> tuple[int, ...]:
    """(r x t path matrix of tree)^T tensor (2 x k subblock of qubit i) as
    2t int rows of r*k bits.  Row (path p, z or x) holds the qubit's z or
    x row in the k columns of each node c of p, from column (c - 1) * k."""
    k = gen.k
    return tuple(
        sum(row << (c - 1) * k for c in p)
        for p in tree.paths
        for row in qubit_rows(gen, [i])
    )


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
    have r nodes, and dim is r * k less the rank of the stacked rows.

    Up to degree 3 the walk keeps one XOR basis per level, of the rows of
    the qubits up to it, and a tuple extends only the levels from the
    first qubit whose tree changed.  A qubit with one tree joins the level
    before it, so a single tuple takes one basis on any number of qubits.
    From degree 4 on, each block is made dense once and eliminated with
    the others of each tuple.
    """
    r = choices[0][0].r
    cols = r * gen.k
    slots = [
        [(serialize(tree), _rows(gen, i, tree)) for tree in trees]
        for i, trees in enumerate(choices, start=1)
    ]
    if r >= 4:
        slots = [[(ser, to_dense(rows, cols)) for ser, rows in slot] for slot in slots]
        for combo in itertools.product(*slots):
            sers, blocks = zip(*combo)
            yield sers, _kernel_dim(blocks)
        return
    levels = []  # each choice of a level: its serialized trees and rows
    for slot in slots:
        if len(slot) == 1 and levels:
            ((ser, rows),) = slot
            levels[-1] = [(sers + (ser,), q + rows) for sers, q in levels[-1]]
        else:
            levels.append([((ser,), rows) for ser, rows in slot])
    *head, last = levels
    prefixes = [({}, ())] * len(levels)  # basis and serialized trees of the first j levels
    previous = ()
    for combo in itertools.product(*head):
        j = 0
        while j < len(previous) and combo[j] is previous[j]:
            j += 1
        for j, (sers, rows) in enumerate(combo[j:], start=j):
            basis, prefix = prefixes[j]
            prefixes[j + 1] = xor_basis(rows, basis), prefix + sers
        previous = combo
        basis, prefix = prefixes[-1]
        for sers, rows in last:
            yield prefix + sers, cols - len(xor_basis(rows, basis))


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
        raise ValueError(f"codes have different lengths {gen1.n} and {gen2.n}")
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
        raise ValueError(f"codes have different lengths {gen1.n} and {gen2.n}")
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
