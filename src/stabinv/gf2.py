"""Linear algebra over GF(2) on 0/1 numpy arrays.

A GF(2) matrix is a 2-d ``np.uint8`` array whose entries are 0 or 1.
Products of such arrays may be taken with ``@`` and reduced ``% 2``:
uint8 sums wrap modulo 256, which keeps their parity.  Zero-dimensional
matrices (no rows or no columns) are first-class citizens; they show up
as trivial codes and empty constraint stacks.

Every function here is pure: it never writes to its argument.
"""

from __future__ import annotations

import numpy as np


def reduced_echelon(a) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form of a GF(2) matrix and its pivot columns.

    Pivots are searched left to right; within a column the first nonzero
    row at or below the current one is chosen, so the result is
    deterministic.
    """
    m = np.array(a, dtype=np.uint8)
    if m.ndim != 2:
        raise ValueError("need a 2-d matrix")
    rows, cols = m.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hits = np.flatnonzero(m[r:, c])
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        others = np.flatnonzero(m[:, c])
        m[others[others != r]] ^= m[r]
        pivots.append(c)
    return m, tuple(pivots)


def rank(a) -> int:
    """GF(2) rank: the number of pivots of the reduced echelon form."""
    return len(reduced_echelon(a)[1])


def kernel_basis(a) -> np.ndarray:
    """Basis of {x : a x = 0} as the columns of a cols x dim 0/1 array.

    Basis vectors follow the standard free-column construction in
    ascending free-column order, so the output is deterministic.
    """
    echelon, pivots = reduced_echelon(a)
    cols = echelon.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.uint8)
    basis[free, range(len(free))] = 1
    basis[list(pivots)] = echelon[: len(pivots)][:, free]
    return basis


def to_text(a) -> str:
    """One row of '0'/'1' characters per line."""
    return "\n".join("".join(map(str, row)) for row in np.asarray(a).tolist())
