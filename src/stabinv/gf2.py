"""Bit-packed dense linear algebra over GF(2).

A matrix is stored row-major with 64 bits per word, so the row XORs that
dominate Gaussian elimination run one machine word at a time.  Bit j of a
row lives in word ``j // 64`` at position ``j % 64``.  Padding bits past
``cols`` are kept zero, which lets elimination work on whole words
without masking.

All operations are pure; no public method mutates an existing matrix, so
instances can be shared freely.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64


def _words_needed(cols: int) -> int:
    return (cols + WORD_BITS - 1) // WORD_BITS


def _pack(bits: np.ndarray, cols: int) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, nwords) uint64 words."""
    rows = bits.shape[0]
    nwords = _words_needed(cols)
    if rows == 0 or nwords == 0:
        return np.zeros((rows, nwords), dtype=np.uint64)
    padded = np.zeros((rows, nwords * WORD_BITS), dtype=np.uint8)
    padded[:, :cols] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view(np.uint64)


def _unpack(words: np.ndarray, cols: int) -> np.ndarray:
    rows = words.shape[0]
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=np.uint8)
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :cols]


class GF2Matrix:
    """Immutable rows x cols matrix over the two-element field.

    Zero-dimensional matrices (``rows == 0`` or ``cols == 0``) are
    first-class citizens; they show up as trivial codes and empty
    constraint stacks.
    """

    __slots__ = ("rows", "cols", "_words")

    def __init__(self, rows: int, cols: int, words: np.ndarray | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        if words is None:
            words = np.zeros((rows, _words_needed(cols)), dtype=np.uint64)
        if words.shape != (rows, _words_needed(cols)):
            raise ValueError("word buffer shape does not match dimensions")
        self._words = words

    # -- construction ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "GF2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

    @classmethod
    def from_dense(cls, array) -> "GF2Matrix":
        """Build from any 2-d array-like of integers (reduced mod 2)."""
        dense = np.atleast_2d(np.asarray(array, dtype=np.int64)) % 2
        dense = dense.astype(np.uint8)
        rows, cols = dense.shape
        return cls(rows, cols, _pack(dense, cols))

    @classmethod
    def random(cls, rows: int, cols: int, rng: np.random.Generator) -> "GF2Matrix":
        return cls.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))

    def to_dense(self) -> np.ndarray:
        """Return the matrix as a (rows, cols) uint8 array of 0/1."""
        return _unpack(self._words, self.cols)

    # -- text form: one row of '0'/'1' per line --------------------------

    @classmethod
    def from_text(cls, text: str) -> "GF2Matrix":
        """Parse '0'/'1' rows, one per line; a blank line terminates."""
        lines = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                break
            lines.append(line)
        if not lines:
            return cls.zeros(0, 0)
        cols = len(lines[0])
        rows = []
        for i, line in enumerate(lines):
            if len(line) != cols or set(line) - {"0", "1"}:
                raise ValueError(f"bad matrix row {i + 1}: {line!r}")
            rows.append([int(ch) for ch in line])
        return cls.from_dense(rows)

    def to_text(self) -> str:
        dense = self.to_dense()
        return "\n".join("".join(str(b) for b in row) for row in dense)

    # -- basics ----------------------------------------------------------

    def __getitem__(self, idx) -> int:
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        w, b = divmod(j, WORD_BITS)
        return int((self._words[i, w] >> np.uint64(b)) & np.uint64(1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self._words, other._words)
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._words.tobytes()))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.rows}x{self.cols})"

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix.from_dense(self.to_dense().T)

    # -- products ---------------------------------------------------------

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        prod = self.to_dense().astype(np.int64) @ other.to_dense().astype(np.int64)
        return GF2Matrix.from_dense(prod % 2)

    # -- rank / kernel -----------------------------------------------------

    def rank(self) -> int:
        """GF(2) row rank via word-XOR elimination.

        Pivots are searched left-to-right; within a column the first
        nonzero row at or below the current one is chosen, so the result
        is deterministic.
        """
        if self.rows == 0 or self.cols == 0:
            return 0
        W = self._words.copy()
        r = 0
        for c in range(self.cols):
            w, b = divmod(c, WORD_BITS)
            col = (W[r:, w] >> np.uint64(b)) & np.uint64(1)
            hits = np.nonzero(col)[0]
            if hits.size == 0:
                continue
            p = r + int(hits[0])
            if p != r:
                W[[r, p]] = W[[p, r]]
            below = r + hits[1:]
            if below.size:
                W[below] ^= W[r]
            r += 1
            if r == self.rows:
                break
        return r

    def kernel_dimension(self) -> int:
        """Dimension of {x : Mx = 0}, i.e. cols - rank."""
        return self.cols - self.rank()

    def reduced_echelon(self) -> tuple["GF2Matrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot column indices."""
        W = self._words.copy()
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
                break
            w, b = divmod(c, WORD_BITS)
            col = (W[r:, w] >> np.uint64(b)) & np.uint64(1)
            hits = np.nonzero(col)[0]
            if hits.size == 0:
                continue
            p = r + int(hits[0])
            if p != r:
                W[[r, p]] = W[[p, r]]
            full_col = (W[:, w] >> np.uint64(b)) & np.uint64(1)
            others = np.nonzero(full_col)[0]
            others = others[others != r]
            if others.size:
                W[others] ^= W[r]
            pivots.append(c)
            r += 1
        return GF2Matrix(self.rows, self.cols, W), tuple(pivots)

    def kernel_basis(self) -> "GF2Matrix":
        """Basis of the kernel as the columns of a cols x dim matrix.

        Basis vectors follow the standard free-column construction in
        ascending free-column order, so the output is deterministic.
        """
        echelon, pivots = self.reduced_echelon()
        free = [c for c in range(self.cols) if c not in set(pivots)]
        basis = np.zeros((self.cols, len(free)), dtype=np.uint8)
        reduced = echelon.to_dense()
        for j, f in enumerate(free):
            basis[f, j] = 1
            for i, p in enumerate(pivots):
                basis[p, j] = reduced[i, f]
        return GF2Matrix.from_dense(basis)

