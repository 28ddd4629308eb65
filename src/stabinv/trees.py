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


def parse(text: str) -> BinaryTree:
    """Inverse of :func:`serialize`; labels are re-derived from preorder,
    so parse(serialize(t)) == t exactly when t is labelled in preorder.
    Neither recurses, so a tree of any depth is read and written."""
    text = text.strip()
    paths = []  # the maximal right paths begun so far, in start order
    pos = r = 0
    stack = []  # open nodes: [their path, 0, or 1 after their L, or 2 after their R]

    def fail(msg: str):
        raise ValueError(f"bad tree at position {pos}: {msg} in {text!r}")

    while True:
        if pos >= len(text) or text[pos] != "(":
            fail("expected '('")
        pos += 1
        r += 1
        if stack and stack[-1][1] == 2:  # an R son joins its father's path
            path = stack[-1][0]
            path.append(r)
        else:
            path = [r]
            paths.append(path)
        stack.append([path, 0])
        # close open nodes until one takes a son, whose '(' comes next
        while pos >= len(text) or text[pos] not in "LR"[stack[-1][1]:]:
            if pos >= len(text) or text[pos] != ")":
                fail("expected ')'")
            pos += 1
            stack.pop()
            if not stack:
                if pos != len(text):
                    fail("trailing characters")
                return BinaryTree(paths)
        stack[-1][1] = "LR".index(text[pos]) + 1
        pos += 1


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
    return tuple(parse(text) for text in sorted(_serialized(r)))


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
