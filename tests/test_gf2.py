"""Tests for the GF(2) functions on Python-int rows."""

import itertools
import random

import numpy as np
import pytest

from stabinv.gf2 import (
    kernel_basis,
    rank,
    to_dense,
    to_text,
    transpose,
)
from stabinv.stabilizer import AdjacencyMatrix, GeneratorMatrix


def rows_of(a) -> list[int]:
    """The int rows of a 2-d 0/1 array-like: bit c of a row is column c."""
    return [sum(int(v) << c for c, v in enumerate(row)) for row in a]


def parity(x: int) -> int:
    return bin(x).count("1") % 2


def span_size_rank(rows) -> int:
    """Independent rank oracle: log2 of the number of distinct row combinations."""
    span = set()
    for coeffs in itertools.product((0, 1), repeat=len(rows)):
        vec = 0
        for c, row in zip(coeffs, rows):
            if c:
                vec ^= row
        span.add(vec)
    size = len(span)
    assert size & (size - 1) == 0
    return size.bit_length() - 1


def annihilated_count(rows, cols) -> int:
    """Independent kernel oracle: count vectors sent to zero, exhaustively."""
    return sum(1 for x in range(1 << cols) if not any(parity(row & x) for row in rows))


def random_matrix(rng, rows, cols) -> list[int]:
    return [rng.getrandbits(cols) for _ in range(rows)]


def random_shape(rng, max_rows, max_cols):
    return rng.randrange(max_rows + 1), rng.randrange(max_cols + 1)


def kernel_dim(rows, cols) -> int:
    return len(kernel_basis(rows, cols))


def test_rank_identity():
    assert rank([0b01, 0b10]) == 2


def test_rank_zero_matrix():
    assert rank([0, 0, 0]) == 0


def test_rank_dependent_rows():
    rows = rows_of([[1, 1], [1, 1], [0, 1]])
    assert rows == [0b11, 0b11, 0b10]
    assert span_size_rank(rows) == 2
    assert rank(rows) == 2


def test_kernel_dimension_no_rows():
    assert kernel_dim([], 5) == 5


def test_kernel_dimension_identity():
    assert kernel_basis([1 << c for c in range(5)], 5) == ()


def test_kernel_dimension_chain():
    rows, cols = rows_of([[1, 1, 0], [0, 1, 1]]), 3
    assert annihilated_count(rows, cols) == 2  # exactly {000, 111}
    assert kernel_basis(rows, cols) == (0b111,)


def test_kernel_matches_enumeration():
    rng = random.Random(11)
    for _ in range(30):
        rows, cols = random_shape(rng, 6, 12)
        m = random_matrix(rng, rows, cols)
        assert annihilated_count(m, cols) == 1 << kernel_dim(m, cols)


def test_rank_matches_span_enumeration():
    rng = random.Random(12)
    shapes = [(0, 0), (0, 4), (4, 0), (3, 70), (10, 130)]
    shapes += [random_shape(rng, 8, 8) for _ in range(30)]
    for rows, cols in shapes:
        m = random_matrix(rng, rows, cols)
        assert rank(m) == span_size_rank(m)


def test_kernel_basis_matches_free_column_construction():
    """Against the defining properties: the free columns are those in the
    span of the columns to their left, and the vector of free column f has
    f set and every other free column clear, in ascending f.  A kernel
    vector is fixed by its free entries, so this pins the basis bit for
    bit."""
    rng = random.Random(13)
    shapes = [(0, 0), (0, 3), (3, 0), (4, 66), (6, 100)]
    shapes += [random_shape(rng, 6, 8) for _ in range(30)]
    for rows, cols in shapes:
        m = random_matrix(rng, rows, cols)

        def left_of(c):  # the columns 0..c-1
            return [row & ((1 << c) - 1) for row in m]

        free = [
            c for c in range(cols) if span_size_rank(left_of(c + 1)) == span_size_rank(left_of(c))
        ]
        basis = kernel_basis(m, cols)
        mask = sum(1 << f for f in free)
        assert [x & mask for x in basis] == [1 << f for f in free]
        assert not any(parity(row & x) for row in m for x in basis)


def test_kernel_basis_leaves_input_alone():
    m = [0b10, 0b11]  # rows [0, 1] and [1, 1]
    assert kernel_basis(m, 3) == (0b100,)
    assert rank(m) == 2
    assert m == [0b10, 0b11]


def test_rank_equals_transpose_rank():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randrange(1, 80), rng.randrange(1, 80)
        m = random_matrix(rng, rows, cols)
        assert rank(m) == rank(transpose(m, cols))


def test_rank_nullity():
    rng = random.Random(6)
    for _ in range(40):
        rows, cols = random_shape(rng, 19, 69)
        m = random_matrix(rng, rows, cols)
        assert rank(m) + kernel_dim(m, cols) == cols


def test_matmul_agrees_with_dense():
    # the library multiplies int rows by int vectors as the parity of
    # their AND; against int64 products of the dense arrays
    rng = np.random.default_rng(17)
    a = rng.integers(0, 2, size=(5, 300), dtype=np.uint8)
    b = rng.integers(0, 2, size=(300, 4), dtype=np.uint8)
    rows = rows_of(a)
    vectors = transpose(rows_of(b), 4)  # the columns of b
    expected = (a.astype(np.int64) @ b.astype(np.int64)) % 2
    assert [[parity(row & x) for x in vectors] for row in rows] == expected.tolist()


def test_kernel_basis_spans_kernel():
    rng = random.Random(23)
    for _ in range(20):
        rows, cols = random_shape(rng, 7, 89)
        m = random_matrix(rng, rows, cols)
        basis = kernel_basis(m, cols)
        assert len(basis) == cols - rank(m)
        assert rank(basis) == len(basis)
        assert all(0 <= x < 1 << cols for x in basis)
        assert not any(parity(row & x) for row in m for x in basis)


def test_text_roundtrip():
    rng = random.Random(31)
    m = random_matrix(rng, 6, 70)
    lines = to_text(m, 70).split("\n")
    assert rows_of([[int(ch) for ch in line] for line in lines]) == m
    assert to_text([0b011], 3) == "110"  # column 0 first
    assert to_text([], 3) == ""


def test_dense_roundtrip():
    rng = np.random.default_rng(37)
    for shape in [(0, 0), (0, 3), (4, 0), (5, 70)]:
        dense = rng.integers(0, 2, size=shape, dtype=np.uint8)
        rows = rows_of(dense)
        assert len(rows) == shape[0]
        assert np.array_equal(to_dense(rows, shape[1]), dense)


def test_zero_dimensional_edges():
    assert rank([]) == 0
    assert kernel_dim([], 0) == 0
    # stacks with no constraint rows (degree 2, omega = all qubits) and
    # with no columns (a k = 0 code)
    assert kernel_dim([], 3) == 3
    assert kernel_dim([0, 0, 0, 0], 0) == 0


def test_code_matrices_are_read_only():
    # codes and graphs hold int rows and hand out no array: each dense copy
    # is new, and writing to it leaves the object as it was
    gen = GeneratorMatrix((0, 1), 1)
    adj = AdjacencyMatrix.from_edges(2, [(1, 2)])
    for obj, cols in ((gen, gen.k), (adj, adj.n)):
        dense = to_dense(obj.rows, cols)
        dense[0, 0] ^= 1
        assert not np.array_equal(dense, to_dense(obj.rows, cols))
    assert (gen.rows, adj.rows) == ((0, 1), (0b10, 0b01))
    assert not hasattr(gen, "matrix") and not hasattr(adj, "theta")
    with pytest.raises(AttributeError, match="immutable"):
        gen.rows = (1, 0)
    with pytest.raises(AttributeError, match="immutable"):
        adj.rows = (0, 0)
