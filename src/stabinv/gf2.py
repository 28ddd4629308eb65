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


def set_bits(row: int):
    """The columns of the set bits of a row, lowest first."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def transpose(rows, cols: int) -> tuple[int, ...]:
    """The cols rows of the transpose, for rows below 2^cols; each has
    len(rows) bits.  Only set bits are visited, so a sparse matrix costs
    its bit count, not its size."""
    out = [0] * cols
    for i, row in enumerate(rows):
        for c in set_bits(row):
            out[c] |= 1 << i
    return tuple(out)


def xor_basis(rows, start: dict[int, int] | None = None) -> dict[int, int]:
    """An XOR basis of the rows' span, each row keyed by its leading bit,
    its bit_length, which is no other row's.  Given a basis to start
    from, a new basis of the sum of both spans, which extends it."""
    basis = {} if start is None else start.copy()
    for row in rows:
        while row:
            lead = row.bit_length()
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    return basis


def rank(rows) -> int:
    """GF(2) rank: the size of an XOR basis with distinct leading bits."""
    return len(xor_basis(rows))


def kernel_basis(rows, cols: int) -> tuple[int, ...]:
    """Basis of {x : a x = 0}, each vector a cols-bit int.

    The XOR basis is brought to reduced row-echelon form: each row's
    lowest set bit is its pivot, and no other row has it.  That form is
    unique, so the basis vectors, one per free column in ascending order,
    are too.
    """
    echelon: dict[int, int] = {}  # pivot bit -> row
    for row in xor_basis(rows).values():
        for pivot, other in echelon.items():
            if row & pivot:
                row ^= other
        lead = row & -row
        for pivot, other in echelon.items():
            if other & lead:
                echelon[pivot] = other ^ row
        echelon[lead] = row
    return tuple(
        (1 << f) | sum(pivot for pivot, row in echelon.items() if row >> f & 1)
        for f in range(cols)
        if (1 << f) not in echelon
    )


def to_text(rows, cols: int) -> str:
    """One row of '0'/'1' characters per line, column 0 first."""
    return "\n".join("".join("1" if (row >> c) & 1 else "0" for c in range(cols)) for row in rows)
