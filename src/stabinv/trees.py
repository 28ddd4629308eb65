"""Ordered binary trees, held as their maximal right paths, and tree tuples.

Nodes carry the labels 1..r assigned by the traversal root, left subtree,
right subtree.  A maximal right path starts at a node that is nobody's
right son and follows right sons to a node without one.  The paths
determine the tree, and everything the invariants read of a tree is a
function of them, so a BinaryTree holds its paths and nothing else.  Sons
appear only in the serialized form, a balanced-parenthesis string with
'L'/'R' child markers, e.g. "(L()R(R()))", which parse reads and
serialize writes; all trees on r nodes serialize to the same length,
which makes lexicographic ordering unambiguous.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .errors import Frozen


class BinaryTree(Frozen):
    """Ordered binary tree on r nodes labelled in preorder, held as its
    maximal right paths: each path increasing, the paths ordered by start.

    The paths of the trees on r nodes are exactly the non-crossing
    partitions of 1..r.  A node's right son is its successor on its path,
    and the left son of v is v + 1 when v + 1 starts a path, so the paths
    give the sons.  In preorder each node starts the next path or
    continues the innermost path still open, and a partition reads so
    exactly when no two of its paths cross.  The constructor makes that
    one pass over 1..r and raises ValueError on anything else.
    """

    __slots__ = ("paths",)

    def __init__(self, paths):
        paths = tuple(tuple(map(operator.index, p)) for p in paths)  # TypeError on a float
        if not paths or () in paths:
            raise ValueError(f"a tree needs at least one node and no empty path, got {paths}")
        starts = iter(paths)
        open_paths = []  # (next node, rest) of each path begun and not done, innermost last
        for v in range(1, sum(map(len, paths)) + 1):
            if open_paths and open_paths[-1][0] == v:
                rest = open_paths.pop()[1]
            else:
                path = next(starts, ())
                if path[:1] != (v,):
                    raise ValueError(
                        f"node {v} neither starts the next path nor continues"
                        f" the innermost open one in {paths}"
                    )
                rest = iter(path[1:])
            if (after := next(rest, None)) is not None:
                open_paths.append((after, rest))
        super().__init__(paths)

    @property
    def r(self) -> int:
        return sum(map(len, self.paths))

    def __repr__(self) -> str:
        return f"BinaryTree({serialize(self)!r})"


def serialize(tree: BinaryTree) -> str:
    """The tree's text.  Its sons are read off its paths: a path's next
    node is the right son, and a path's start the left son of the node
    before it."""
    left, right = [0] * (tree.r + 1), [0] * (tree.r + 1)  # node v's sons at v, 0 when absent
    for p in tree.paths:
        left[p[0] - 1] = p[0]
        for a, b in zip(p, p[1:]):
            right[a] = b
    out, stack = [], [1]  # text and nodes still to write, the next one last
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            out.append(v)
        else:
            lson, rson = left[v], right[v]
            stack += [")", *([rson, "R"] if rson else []), *([lson, "L"] if lson else []), "("]
    return "".join(out)


def _read_paths(text: str) -> list[list[int]]:
    """The maximal right paths a tree's text spells.  Each '(' opens the
    next node, which joins the path of the innermost open node, its
    father, after an 'R' and starts a new path otherwise; each ')' closes
    the innermost open node.  Other text reads as paths parse refuses."""
    paths, open_paths = [], []  # every path, in start order; each open node's path
    before, *after = text.split("(")
    for r, seg in enumerate(after, start=1):  # seg: node r's text up to the next '('
        if before.endswith("R") and open_paths:
            open_paths[-1].append(r)
            open_paths.append(open_paths[-1])
        else:
            paths.append([r])
            open_paths.append(paths[-1])
        del open_paths[max(len(open_paths) - seg.count(")"), 0):]
        before = seg
    return paths


def parse(text: str) -> BinaryTree:
    """The tree whose text, less surrounding whitespace, is text: the one
    its paths make, when serialize writes that tree back as the text.  So
    serialize alone defines the format, and anything else raises one
    ValueError quoting the text.  Neither recurses, so a tree of any
    depth is read and written."""
    text = text.strip()
    try:
        tree = BinaryTree(_read_paths(text))
        if serialize(tree) == text:
            return tree
    except ValueError:
        pass
    raise ValueError(f"not a tree's text: {text!r}")


def catalan(r: int) -> int:
    return math.comb(2 * r, r) // (r + 1)


@lru_cache(maxsize=None)
def _serialized(m: int) -> tuple[str, ...]:
    """Serialized forms of all trees on m nodes; "" stands for no subtree."""
    if m == 0:
        return ("",)
    return tuple(
        "(" + (ls and "L" + ls) + (rs and "R" + rs) + ")"
        for nl in range(m)
        for ls in _serialized(nl)
        for rs in _serialized(m - 1 - nl)
    )


@lru_cache(maxsize=None)
def enumerate_trees(r: int) -> tuple[BinaryTree, ...]:
    """All binary trees on r nodes, sorted by their serialized form.

    The count is the r-th Catalan number.
    """
    if r < 1:
        raise ValueError("need at least one node")
    return tuple(BinaryTree(_read_paths(text)) for text in sorted(_serialized(r)))


class TreeTuple(Frozen):
    """One binary tree per qubit, all on the same number of nodes."""

    __slots__ = ("trees",)

    def __init__(self, trees: tuple[BinaryTree, ...]):
        if not trees:
            raise ValueError("need at least one tree")
        degrees = {t.r for t in trees}
        if len(degrees) != 1:
            raise ValueError(f"trees have mixed node counts {sorted(degrees)}")
        super().__init__(trees)

    @property
    def n(self) -> int:
        return len(self.trees)

    @property
    def r(self) -> int:
        return self.trees[0].r

    def id(self) -> str:
        return ";".join(serialize(t) for t in self.trees)

    def __repr__(self) -> str:
        return f"TreeTuple({self.id()!r})"


def all_tuples(n: int, r: int):
    """All tree tuples in canonical (per-qubit lexicographic) order."""
    return (TreeTuple(combo) for combo in itertools.product(enumerate_trees(r), repeat=n))


def left_chain(r: int) -> BinaryTree:
    """The tree whose r right paths are all singletons (identity permutation)."""
    return BinaryTree((v,) for v in range(1, r + 1))


def right_chain(r: int) -> BinaryTree:
    """The tree with a single right path (1, 2, ..., r)."""
    return BinaryTree((range(1, r + 1),))


def permutation_of(tree: BinaryTree) -> tuple[int, ...]:
    """The permutation given by the product of right-path cycles.

    Returned as an image array: entry i-1 is the image of node i.  Within
    a path (v0, ..., vs) the cycle maps v0 -> v1 -> ... -> vs -> v0.
    """
    image = [0] * tree.r
    for p in tree.paths:
        for a, b in zip(p, p[1:]):
            image[a - 1] = b
        image[p[-1] - 1] = p[0]
    return tuple(image)


def d_matrix(tree: BinaryTree) -> tuple[int, ...]:
    """r x r prefix matrix as r int rows (see gf2): column j - 1 marks the
    nodes i <= j on j's right path."""
    rows = [0] * tree.r
    for p in tree.paths:
        for i, v in enumerate(p):
            for j in p[i:]:
                rows[v - 1] |= 1 << (j - 1)
    return tuple(rows)


def v_space_dimension(tree: BinaryTree) -> int:
    """Dimension of the null space of the transposed path-indicator matrix.

    The t indicator columns have disjoint nonzero supports, so the rank is
    t and the null-space dimension is r - t.
    """
    return tree.r - len(tree.paths)


def singleton_path_nodes(tree: BinaryTree) -> set[int]:
    """Nodes that form a one-node maximal right path."""
    return {p[0] for p in tree.paths if len(p) == 1}


def delete_singleton(tree: BinaryTree, node: int) -> BinaryTree:
    """Remove a node that is a one-node right path, shifting the labels
    above it down by one.  Every other path keeps its nodes; in the tree,
    the node's left subtree takes its place."""
    if (node,) not in tree.paths:
        raise ValueError(f"node {node} is not a singleton right path")
    if tree.r == 1:
        raise ValueError("cannot delete the only node")
    return BinaryTree(tuple(v - (v > node) for v in p) for p in tree.paths if p != (node,))


def attach_singleton_root(tree: BinaryTree) -> BinaryTree:
    """Add a new root whose left subtree is the old tree: a fresh one-node
    right path labelled 1, with the old labels shifted up by one."""
    return BinaryTree(((1,), *(tuple(v + 1 for v in p) for p in tree.paths)))


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
    """Append a fresh one-node right path to every tree (degree r+1): a
    new root with the old tree as its left subtree, which reduce_singleton
    deletes again.  The invariant dimension is unchanged."""
    return TreeTuple(tuple(attach_singleton_root(t) for t in tup.trees))
