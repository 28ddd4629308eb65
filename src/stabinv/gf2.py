"""Linear algebra over GF(2) on Python-int rows.

A GF(2) matrix is a sequence of ints, one per row, with bit c of a row
holding the entry in column c; the column count travels beside the rows
where the rows alone cannot tell it.  Zero-dimensional matrices (no rows
or no columns) are first-class citizens; they show up as trivial codes
and empty constraint stacks.

`to_dense` makes a 2-d 0/1 array for the engine's elimination; it loads
numpy, and only when it is called.  Every function here is pure: it
never writes to its argument.
"""

from __future__ import annotations


def to_dense(rows, cols: int):
    """The rows as a new len(rows) x cols np.uint8 array of 0/1."""
    import numpy as np

    dense = np.array([[(row >> c) & 1 for c in range(cols)] for row in rows], dtype=np.uint8)
    return dense.reshape(len(rows), cols)


def transpose(rows, cols: int) -> tuple[int, ...]:
    """The cols rows of the transpose; each has len(rows) bits."""
    return tuple(
        sum(((row >> c) & 1) << i for i, row in enumerate(rows)) for c in range(cols)
    )


def reduced_echelon(rows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row-echelon form of a GF(2) matrix and its pivot columns.

    Pivots are searched from column 0 up; within a column the first row
    at or below the current one with that bit set is chosen, so the result
    is deterministic.
    """
    m = list(rows)
    pivots: list[int] = []
    for c in range(max((row.bit_length() for row in m), default=0)):
        r = len(pivots)
        if r == len(m):
            break
        bit = 1 << c
        p = next((i for i in range(r, len(m)) if m[i] & bit), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i] & bit:
                m[i] ^= m[r]
        pivots.append(c)
    return tuple(m), tuple(pivots)


def rank(rows) -> int:
    """GF(2) rank: the size of an XOR basis with distinct leading bits."""
    basis: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return len(basis)


def kernel_basis(rows, cols: int) -> tuple[int, ...]:
    """Basis of {x : a x = 0}, each vector a cols-bit int.

    Basis vectors follow the standard free-column construction in
    ascending free-column order, so the output is deterministic.
    """
    echelon, pivots = reduced_echelon(rows)
    free = [c for c in range(cols) if c not in pivots]
    return tuple(
        (1 << f) | sum(((echelon[i] >> f) & 1) << p for i, p in enumerate(pivots)) for f in free
    )


def to_text(rows, cols: int) -> str:
    """One row of '0'/'1' characters per line, column 0 first."""
    return "\n".join("".join("1" if (row >> c) & 1 else "0" for c in range(cols)) for row in rows)
