"""Canonically labelled ordered binary trees, their right-path data, and tree tuples.

Nodes carry the labels 1..r assigned by the traversal root, left subtree,
right subtree, so a tree's structure determines its labelling.  The
serialized form is a balanced-parenthesis string with 'L'/'R' child
markers, e.g. "(L()R(R()))"; all trees on r nodes serialize to the same
length, which makes lexicographic ordering unambiguous.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import Frozen


class BinaryTree(Frozen):
    """Ordered binary tree on r nodes labelled in preorder.

    ``left[i-1]`` / ``right[i-1]`` hold the label of node i's left/right
    son, or 0 when absent.
    """

    __slots__ = ("left", "right")

    @property
    def r(self) -> int:
        return len(self.left)

    def __repr__(self) -> str:
        return f"BinaryTree({serialize(self)!r})"


def serialize(tree: BinaryTree) -> str:
    out, stack = [], [1]  # text and nodes still to write, the next one last
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            out.append(v)
        else:
            left, right = tree.left[v - 1], tree.right[v - 1]
            stack += [")", *([right, "R"] if right else []), *([left, "L"] if left else []), "("]
    return "".join(out)


def parse(text: str) -> BinaryTree:
    """Inverse of :func:`serialize`; labels are re-derived from preorder,
    so parse(serialize(t)) == t exactly when t is labelled in preorder.
    Neither recurses, so a tree of any depth is read and written."""
    text = text.strip()
    left, right = [], []  # each node's sons, 0 when absent
    pos = 0
    stack: list[list[int]] = []  # open nodes: [label, 0, or 1 after its L, or 2 after its R]

    def fail(msg: str):
        raise ValueError(f"bad tree at position {pos}: {msg} in {text!r}")

    while True:
        if pos >= len(text) or text[pos] != "(":
            fail("expected '('")
        pos += 1
        left.append(0)
        right.append(0)
        if stack:
            parent, stage = stack[-1]
            (left if stage == 1 else right)[parent - 1] = len(left)
        stack.append([len(left), 0])
        # close open nodes until one takes a son, whose '(' comes next
        while pos >= len(text) or text[pos] not in "LR"[stack[-1][1]:]:
            if pos >= len(text) or text[pos] != ")":
                fail("expected ')'")
            pos += 1
            stack.pop()
            if not stack:
                if pos != len(text):
                    fail("trailing characters")
                return BinaryTree(tuple(left), tuple(right))
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
    left = tuple(v + 1 if v < r else 0 for v in range(1, r + 1))
    return BinaryTree(left, (0,) * r)


def right_chain(r: int) -> BinaryTree:
    """The tree with a single right path (1, 2, ..., r)."""
    right = tuple(v + 1 if v < r else 0 for v in range(1, r + 1))
    return BinaryTree((0,) * r, right)


def maximal_right_paths(tree: BinaryTree) -> tuple[tuple[int, ...], ...]:
    """The maximal right paths of a tree, ordered by their start nodes.

    Each path (v0, ..., vs) satisfies: v0 is nobody's right son, each
    later node is the right son of its predecessor, and vs has no right
    son.  The paths partition {1, ..., r}, and each one increases.
    """
    right_sons = {c for c in tree.right if c}
    paths = []
    for start in range(1, tree.r + 1):
        if start in right_sons:
            continue
        path = [start]
        while tree.right[path[-1] - 1]:
            path.append(tree.right[path[-1] - 1])
        paths.append(tuple(path))
    return tuple(paths)


def permutation_of(tree: BinaryTree) -> tuple[int, ...]:
    """The permutation given by the product of right-path cycles.

    Returned as an image array: entry i-1 is the image of node i.  Within
    a path (v0, ..., vs) the cycle maps v0 -> v1 -> ... -> vs -> v0.
    """
    image = [0] * tree.r
    for p in maximal_right_paths(tree):
        for a, b in zip(p, p[1:]):
            image[a - 1] = b
        image[p[-1] - 1] = p[0]
    return tuple(image)


def d_matrix(tree: BinaryTree) -> tuple[int, ...]:
    """r x r prefix matrix as r int rows (see gf2): column j - 1 marks the
    nodes i <= j on j's right path."""
    rows = [0] * tree.r
    for p in maximal_right_paths(tree):
        for i, v in enumerate(p):
            for j in p[i:]:
                rows[v - 1] |= 1 << (j - 1)
    return tuple(rows)


def v_space_dimension(tree: BinaryTree) -> int:
    """Dimension of the null space of the transposed path-indicator matrix.

    The t indicator columns have disjoint nonzero supports, so the rank is
    t and the null-space dimension is r - t.
    """
    return tree.r - len(maximal_right_paths(tree))


def singleton_path_nodes(tree: BinaryTree) -> set[int]:
    """Nodes that form a one-node maximal right path."""
    return {p[0] for p in maximal_right_paths(tree) if len(p) == 1}


def delete_singleton(tree: BinaryTree, node: int) -> BinaryTree:
    """Remove a node that is a one-node right path, relabelling by shift.

    The node's left subtree (if any) takes its place, which preserves
    both preorder labelling and every other maximal right path.
    """
    if node not in singleton_path_nodes(tree):
        raise ValueError(f"node {node} is not a singleton right path")
    if tree.r == 1:
        raise ValueError("cannot delete the only node")

    def shift(v: int) -> int:
        return v - 1 if v > node else v

    promoted = tree.left[node - 1]
    left = []
    right = []
    for v in range(1, tree.r + 1):
        if v == node:
            continue
        lson = tree.left[v - 1]
        if lson == node:
            lson = promoted
        left.append(shift(lson) if lson else 0)
        rson = tree.right[v - 1]
        right.append(shift(rson) if rson else 0)
    return BinaryTree(tuple(left), tuple(right))


def attach_singleton_root(tree: BinaryTree) -> BinaryTree:
    """Add a new root whose left subtree is the old tree.

    The new node has no right son and is nobody's right son, so it forms a
    fresh one-node right path labelled 1; old labels shift up by one.
    """
    left = [2] + [v + 1 if v else 0 for v in tree.left]
    right = [0] + [v + 1 if v else 0 for v in tree.right]
    return BinaryTree(tuple(left), tuple(right))
