"""Tests for tree enumeration, right paths, and the path matrices."""

import copy
import itertools
import pickle

import numpy as np
import pytest

from stabinv import trees
from stabinv.errors import Frozen
from stabinv.gf2 import to_dense
from stabinv.oracle import Dyadic
from stabinv.stabilizer import AdjacencyMatrix, GeneratorMatrix, LocalCliffordOp
from stabinv.trees import (
    BinaryTree,
    TreeTuple,
    attach_singleton_root,
    catalan,
    d_matrix,
    delete_singleton,
    enumerate_trees,
    left_chain,
    parse,
    permutation_of,
    right_chain,
    serialize,
    singleton_path_nodes,
    v_space_dimension,
)

# The worked 10-node example: right paths (1,3,9,10), (2), (4,7,8), (5,6).
TEN_TEXT = "(L()R(L(L(R())R(R()))R(R())))"
TEN_PATHS = ((1, 3, 9, 10), (2,), (4, 7, 8), (5, 6))
TEN_NODE = BinaryTree(TEN_PATHS)


def sons(text: str) -> tuple[list[int], list[int]]:
    """Each node's left and right son, 0 when absent, read from a tree's
    text without trees.parse: nodes are numbered by their '(' in reading
    order, and a son hangs from the innermost open node by the marker
    before its '('."""
    left, right, open_nodes, marker = [], [], [], ""
    for ch in text:
        if ch == "(":
            left.append(0)
            right.append(0)
            if open_nodes:
                (left if marker == "L" else right)[open_nodes[-1] - 1] = len(left)
            open_nodes.append(len(left))
        elif ch == ")":
            open_nodes.pop()
        else:
            marker = ch
    return left, right


def set_partitions(r: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every partition of 1..r into blocks, each block increasing and the
    blocks ordered by their least node: node v joins a block or starts one."""
    partitions = [[]]
    for v in range(1, r + 1):
        partitions = [
            blocks[:i] + [blocks[i] + [v]] + blocks[i + 1:] if i < len(blocks) else blocks + [[v]]
            for blocks in partitions
            for i in range(len(blocks) + 1)
        ]
    return [tuple(map(tuple, blocks)) for blocks in partitions]


def crosses(partition) -> bool:
    """Whether some a < b < c < d have a, c in one block and b, d in another:
    two blocks alternate at least twice in reading order."""
    block = {v: i for i, p in enumerate(partition) for v in p}
    for one, two in itertools.combinations(range(len(partition)), 2):
        seq = [block[v] for v in sorted(block) if block[v] in (one, two)]
        if sum(a != b for a, b in zip(seq, seq[1:])) >= 3:
            return True
    return False


def test_counts_match_catalan():
    for r in range(1, 11):
        assert len(enumerate_trees(r)) == catalan(r)


def test_two_trees_on_two_nodes():
    found = enumerate_trees(2)
    assert len(found) == 2
    assert BinaryTree(((1,), (2,))) in found  # 2 = left son of 1
    assert BinaryTree(((1, 2),)) in found  # 2 = right son of 1


def test_single_node_tree():
    (only,) = enumerate_trees(1)
    assert only == BinaryTree(((1,),))


def test_enumeration_is_sorted_and_duplicate_free():
    for r in range(1, 7):
        sers = [serialize(t) for t in enumerate_trees(r)]
        assert sers == sorted(sers)
        assert len(set(sers)) == len(sers)
        # fixed serialized length: 2r parens plus r-1 child markers
        assert {len(s) for s in sers} == {3 * r - 1}


def test_all_enumerated_trees_are_canonical():
    # a tree is its paths: rebuilt from them, it is the same tree
    for r in range(1, 9):
        for t in enumerate_trees(r):
            assert BinaryTree(t.paths) == t


def test_serialize_parse_roundtrip():
    for r in range(1, 9):
        for t in enumerate_trees(r):
            assert parse(serialize(t)) == t


def test_deep_trees_roundtrip_without_recursion():
    # far past the interpreter's recursion limit
    for tree in (right_chain(5000), left_chain(5000)):
        text = serialize(tree)
        assert parse(text) == tree and serialize(parse(text)) == text


def test_parse_rejects_garbage():
    for bad in ["", "(", "(LL())", "(R()", "(())", "()x"]:
        with pytest.raises(ValueError):
            parse(bad)


def test_ten_node_paths():
    assert serialize(TEN_NODE) == TEN_TEXT and parse(TEN_TEXT) == TEN_NODE
    assert parse(TEN_TEXT).paths == TEN_PATHS
    assert sons(TEN_TEXT) == ([2, 0, 4, 5, 0, 0, 0, 0, 0, 0], [3, 0, 9, 7, 6, 0, 8, 0, 10, 0])


def test_single_node_path():
    assert left_chain(1).paths == ((1,),)


def test_right_chain_single_path():
    assert right_chain(3).paths == ((1, 2, 3),)


def test_paths_partition_and_are_maximal():
    # the sons come from the text, so parse's paths are checked against them
    for r in range(1, 8):
        for t in enumerate_trees(r):
            _, right = sons(serialize(t))
            paths = parse(serialize(t)).paths
            covered = [v for p in paths for v in p]
            assert sorted(covered) == list(range(1, r + 1))
            for p in paths:
                assert p[0] not in right
                assert right[p[-1] - 1] == 0
                for a, b in zip(p, p[1:]):
                    assert right[a - 1] == b
            starts = [p[0] for p in paths]
            assert starts == sorted(starts)


def test_trees_are_the_non_crossing_partitions():
    # the constructor accepts a set partition exactly when it does not
    # cross, and the trees on r nodes have every such partition as paths
    counts = []
    for r in range(1, 9):
        partitions = set_partitions(r)
        non_crossing = {p for p in partitions if not crosses(p)}
        assert {t.paths for t in enumerate_trees(r)} == non_crossing
        for p in partitions:
            if p in non_crossing:
                assert BinaryTree(p).paths == p
            else:
                with pytest.raises(ValueError):
                    BinaryTree(p)
        counts.append((len(partitions), len(non_crossing)))
    assert counts[-1] == (4140, 1430)


@pytest.mark.parametrize(
    "paths",
    [((1,), (3,)), ((1, 2), (2,)), ((2, 1),), ((2,), (1,)), ((1, 3), (2, 4)), (), ((1,), ())],
    ids=["gap", "repeated", "decreasing", "starts-unordered", "crossing", "no-paths", "empty-path"],
)
def test_constructor_refuses_non_trees(paths):
    with pytest.raises(ValueError):
        BinaryTree(paths)


def test_constructor_refuses_non_integer_nodes():
    # 1.0 == 1, but a float label is no node
    with pytest.raises(TypeError):
        BinaryTree(((1.0, 2.0),))


def test_ten_node_permutation_cycles():
    # the cycles are the right paths (1,3,9,10), (2), (4,7,8), (5,6)
    assert permutation_of(TEN_NODE) == (3, 2, 9, 7, 6, 5, 8, 4, 10, 1)


def test_left_chain_gives_identity():
    for r in (1, 3, 5):
        assert permutation_of(left_chain(r)) == tuple(range(1, r + 1))


def test_two_node_transposition():
    assert permutation_of(right_chain(2)) == (2, 1)


def test_permutations_distinct():
    # tree -> permutation is one-to-one over each enumeration
    for r in range(1, 9):
        perms = {permutation_of(t) for t in enumerate_trees(r)}
        assert len(perms) == catalan(r)


def test_v_space_dimension_counts_paths():
    for r in range(1, 7):
        for t in enumerate_trees(r):
            assert v_space_dimension(t) == r - len(t.paths)


def test_d_matrix_root_column():
    for r in range(1, 6):
        for t in enumerate_trees(r):
            col = to_dense(d_matrix(t), r)[:, 0]
            assert col.tolist() == [1] + [0] * (r - 1)


def test_d_matrix_two_node_right_son():
    assert to_dense(d_matrix(right_chain(2)), 2).tolist() == [[1, 1], [0, 1]]


def test_d_matrix_identity_for_left_chain():
    assert np.array_equal(to_dense(d_matrix(left_chain(4)), 4), np.eye(4, dtype=np.uint8))


def test_v_space_examples():
    assert v_space_dimension(TEN_NODE) == 6
    assert v_space_dimension(left_chain(4)) == 0
    for r in (2, 3, 6):
        assert v_space_dimension(right_chain(r)) == r - 1


def test_singleton_path_nodes():
    assert singleton_path_nodes(left_chain(3)) == {1, 2, 3}
    assert singleton_path_nodes(right_chain(3)) == set()
    assert singleton_path_nodes(TEN_NODE) == {2}


def test_attach_then_delete_roundtrip():
    for r in range(1, 6):
        for t in enumerate_trees(r):
            grown = attach_singleton_root(t)
            assert parse(serialize(grown)) == grown
            assert grown.r == r + 1
            assert 1 in singleton_path_nodes(grown)
            assert delete_singleton(grown, 1) == t


def test_delete_preserves_other_paths():
    for r in range(2, 6):
        for t in enumerate_trees(r):
            for node in singleton_path_nodes(t):
                reduced = delete_singleton(t, node)
                assert parse(serialize(reduced)) == reduced
                old = {tuple(v - 1 if v > node else v for v in p)
                       for p in t.paths if p != (node,)}
                new = set(reduced.paths)
                assert old == new


def test_delete_rejects_non_singleton():
    with pytest.raises(ValueError):
        delete_singleton(right_chain(3), 1)


def test_cached_enumeration_returns_same_objects():
    assert trees.enumerate_trees(4) is trees.enumerate_trees(4)


# One instance of each record class, by its fields in order.
RECORDS = [
    (BinaryTree, (((1,), (2,)),)),
    (TreeTuple, ((left_chain(2), right_chain(2)),)),
    (Dyadic, (3, -1, 2)),
    (LocalCliffordOp, ((((0, 1), (1, 0)),),)),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values(cls, values):
    rec = cls(*values)
    fields = cls._fields
    assert tuple(getattr(rec, name) for name in fields) == values
    # positional and keyword construction agree, and equal records hash alike
    same = cls(**dict(zip(fields, values)))
    assert same is not rec and same == rec and hash(same) == hash(rec)
    # equal fields under another type are not equal
    twin = type("Twin", (Frozen,), {"__slots__": fields})(*values)
    assert rec != twin and twin != rec and rec != values
    for name in fields:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError, match="immutable"):
            delattr(rec, name)
    with pytest.raises(AttributeError, match="immutable"):
        rec.extra = 1
    for args, kwargs in (
        (values[:-1], {}),
        ((*values, values[0]), {}),
        (values, {fields[0]: values[0]}),
        (values[:-1], {"no_such_field": values[-1]}),
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    assert rec == cls(*values)
    assert copy.deepcopy(rec) == rec == pickle.loads(pickle.dumps(rec))


def test_record_repr_and_validation():
    assert repr(Dyadic(re=4, im=2, scale=1)) == "Dyadic(re=2, im=1, scale=0)"
    assert repr(TreeTuple((right_chain(2),))) == "TreeTuple('(R())')"
    for bad in (
        lambda: TreeTuple(()),
        lambda: TreeTuple((left_chain(2), left_chain(3))),
        lambda: LocalCliffordOp((((1, 1), (1, 1)),)),
    ):
        with pytest.raises(ValueError):
            bad()
    # codes and graphs compare as matrices
    gen, same = GeneratorMatrix([0, 1], 1), GeneratorMatrix((0, 1), 1)
    assert gen == same and hash(gen) == hash(same) and gen != GeneratorMatrix((1, 0), 1)
    assert copy.deepcopy(gen) == gen == pickle.loads(pickle.dumps(gen))
    empty = AdjacencyMatrix.empty(2)
    assert empty == AdjacencyMatrix((0, 0)) and empty != AdjacencyMatrix.complete(2)
