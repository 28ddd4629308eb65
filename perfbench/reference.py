"""Engine-independent reference for invariant records.

Implements the theorem-2 definition directly: the degree-r invariant of a
code and a tree tuple is log2 of the number of r-tuples of codewords
(y_1, ..., y_r) such that, for every qubit i and every maximal right path p
of tree i, the sum of y_j over j in p vanishes on qubit i.  Nothing here
imports the library, so a change to its engine cannot change the
reference.

Trees are enumerated and serialized by this module's own code, in the
library's documented format (preorder labels, balanced parentheses with
'L'/'R' child markers, sorted by serialization).

The count for a tuple factorizes into one constraint mask per
(qubit, tree) over all 2^(r*k) coefficient tuples, so a whole sweep costs
one AND of bitsets per record.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def _shapes(m: int) -> tuple:
    """All binary tree shapes on m nodes as nested (left, right) pairs."""
    if m == 0:
        return (None,)
    return tuple(
        (ls, rs)
        for nl in range(m)
        for ls in _shapes(nl)
        for rs in _shapes(m - 1 - nl)
    )


def _serialize(shape) -> str:
    ls, rs = shape
    out = "("
    if ls is not None:
        out += "L" + _serialize(ls)
    if rs is not None:
        out += "R" + _serialize(rs)
    return out + ")"


def _right_paths(shape) -> list[tuple[int, ...]]:
    """Maximal right paths as tuples of 0-based preorder labels."""
    paths: list[list[int]] = []
    counter = itertools.count()

    def visit(node, path: list[int] | None) -> None:
        label = next(counter)
        if path is None:  # not a right son: a new path starts here
            path = []
            paths.append(path)
        path.append(label)
        ls, rs = node
        if ls is not None:
            visit(ls, None)
        if rs is not None:
            visit(rs, path)

    visit(shape, None)
    return [tuple(p) for p in paths]


@lru_cache(maxsize=None)
def trees(r: int) -> tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]:
    """(serialization, right paths) of every tree on r nodes, in canonical order."""
    out = [(_serialize(s), tuple(_right_paths(s))) for s in _shapes(r)]
    out.sort()
    return tuple(out)


def codewords(rows: list[list[int]]) -> np.ndarray:
    """All 2^k codewords of a 2n x k generator matrix, one per row, as
    (z_1..z_n, x_1..x_n) bit vectors; row c is the combination with
    coefficient bits c."""
    gen = np.array(rows, dtype=np.int64)  # 2n x k
    k = gen.shape[1]
    coeffs = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    return (coeffs @ gen.T) % 2


def _bitset(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _tree_masks(words: np.ndarray, n: int, k: int, r: int) -> list[list[int]]:
    """masks[i][t]: bitset over coefficient tuples meeting tree t's
    constraints on qubit i."""
    points = np.arange(1 << (r * k), dtype=np.int64)
    digits = [(points >> (k * j)) & ((1 << k) - 1) for j in range(r)]
    masks = []
    for i in range(n):
        qubit_val = words[:, i] * 2 + words[:, n + i]  # 2-bit value on qubit i
        zero_on_path = {}
        per_tree = []
        for _, paths in trees(r):
            ok = np.ones(points.shape, dtype=bool)
            for p in paths:
                if p not in zero_on_path:
                    acc = np.zeros(points.shape, dtype=np.int64)
                    for j in p:
                        acc ^= qubit_val[digits[j]]
                    zero_on_path[p] = acc == 0
                ok &= zero_on_path[p]
            per_tree.append(_bitset(ok))
        masks.append(per_tree)
    return masks


def _log2_exact(count: int) -> int:
    if count <= 0 or count & (count - 1):
        raise ArithmeticError(f"constrained tuple count {count} is not a power of 2")
    return count.bit_length() - 1


def fingerprint(rows: list[list[int]], r_max: int) -> list[tuple[int, str, int]]:
    """(r, tuple id, dim) for every tree tuple of degree 2..r_max, in the
    library's canonical record order."""
    n, k = len(rows) // 2, len(rows[0])
    words = codewords(rows)
    records = []
    for r in range(2, r_max + 1):
        serials = [s for s, _ in trees(r)]
        masks = _tree_masks(words, n, k, r)
        full = (1 << (1 << (r * k))) - 1

        def walk(i: int, acc: int, ids: list[str]) -> None:
            if i == n:
                records.append((r, ";".join(ids), _log2_exact(acc.bit_count())))
                return
            for serial, mask in zip(serials, masks[i]):
                ids.append(serial)
                walk(i + 1, acc & mask, ids)
                ids.pop()

        walk(0, full, [])
    return records


def degree2_profile(rows: list[list[int]]) -> list[tuple[int, int]]:
    """Sorted (|omega|, dim) over all qubit subsets omega, where dim is
    log2 of the number of codewords supported inside omega.  Qubit
    relabelling and local Cliffords leave it unchanged, so two codes with
    different profiles are distinguished under every permutation."""
    n = len(rows) // 2
    words = codewords(rows)
    occupied = (words[:, :n] | words[:, n:]).astype(bool)  # codeword x qubit
    supports = occupied @ (1 << np.arange(n))
    out = []
    for omega in range(1 << n):
        inside = int(np.count_nonzero((supports & ~omega) == 0))
        out.append((bin(omega).count("1"), _log2_exact(inside)))
    return sorted(out)
