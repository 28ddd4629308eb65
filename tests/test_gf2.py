"""Tests for the GF(2) functions on 0/1 numpy arrays."""

import itertools

import numpy as np
import pytest

from stabinv.gf2 import kernel_basis, rank, reduced_echelon, to_text
from stabinv.stabilizer import AdjacencyMatrix, GeneratorMatrix


def span_size_rank(dense) -> int:
    """Independent rank oracle: log2 of the number of distinct row combinations."""
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8)) % 2
    rows = dense.shape[0]
    span = set()
    for coeffs in itertools.product((0, 1), repeat=rows):
        vec = np.zeros(dense.shape[1], dtype=np.uint8)
        for c, row in zip(coeffs, dense):
            if c:
                vec ^= row
        span.add(vec.tobytes())
    size = len(span)
    assert size & (size - 1) == 0
    return size.bit_length() - 1


def annihilated_count(dense) -> int:
    """Independent kernel oracle: count vectors sent to zero, exhaustively."""
    dense = np.atleast_2d(np.asarray(dense, dtype=np.uint8)) % 2
    cols = dense.shape[1]
    count = 0
    for x in itertools.product((0, 1), repeat=cols):
        if not np.any((dense @ np.array(x, dtype=np.uint8)) % 2):
            count += 1
    return count


def random_matrix(rng, rows, cols) -> np.ndarray:
    return rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)


def kernel_dim(m) -> int:
    return kernel_basis(m).shape[1]


def test_rank_identity():
    assert rank(np.eye(2, dtype=np.uint8)) == 2


def test_rank_zero_matrix():
    assert rank(np.zeros((3, 5), dtype=np.uint8)) == 0


def test_rank_dependent_rows():
    rows = [[1, 1], [1, 1], [0, 1]]
    assert span_size_rank(rows) == 2
    assert rank(rows) == 2


def test_kernel_dimension_no_rows():
    assert kernel_dim(np.zeros((0, 5), dtype=np.uint8)) == 5


def test_kernel_dimension_identity():
    assert kernel_basis(np.eye(5, dtype=np.uint8)).shape == (5, 0)


def test_kernel_dimension_chain():
    rows = [[1, 1, 0], [0, 1, 1]]
    assert annihilated_count(rows) == 2  # exactly {000, 111}
    assert np.array_equal(kernel_basis(rows), [[1], [1], [1]])


def test_kernel_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = random_matrix(rng, int(rng.integers(0, 7)), int(rng.integers(0, 13)))
        assert annihilated_count(m) == 1 << kernel_dim(m)


def test_rank_matches_span_enumeration():
    rng = np.random.default_rng(12)
    shapes = [(0, 0), (0, 4), (4, 0), (3, 70), (10, 130)]
    shapes += [(int(rng.integers(0, 9)), int(rng.integers(0, 9))) for _ in range(30)]
    for rows, cols in shapes:
        m = random_matrix(rng, rows, cols)
        assert rank(m) == span_size_rank(m)


def test_reduced_echelon_matches_brute_force():
    """Against the defining properties: the pivots are the columns that
    are not in the span of the columns to their left, each pivot column is
    a unit vector, and the row space is unchanged."""
    rng = np.random.default_rng(13)
    shapes = [(0, 0), (0, 3), (3, 0), (4, 66), (6, 100)]
    shapes += [(int(rng.integers(0, 7)), int(rng.integers(0, 9))) for _ in range(30)]
    for rows, cols in shapes:
        m = random_matrix(rng, rows, cols)
        echelon, pivots = reduced_echelon(m)
        assert echelon.shape == m.shape
        expected = tuple(
            c for c in range(cols) if span_size_rank(m[:, : c + 1]) > span_size_rank(m[:, :c])
        )
        assert pivots == expected
        for i, c in enumerate(pivots):
            assert np.array_equal(echelon[:, c], np.eye(rows, dtype=np.uint8)[i])
        assert not np.any(echelon[len(pivots) :])
        assert span_size_rank(np.vstack([m, echelon])) == len(pivots)


def test_reduced_echelon_leaves_input_alone():
    m = np.array([[0, 1], [1, 1]], dtype=np.uint8)
    echelon, pivots = reduced_echelon(m)
    assert pivots == (0, 1)
    assert np.array_equal(echelon, np.eye(2, dtype=np.uint8))
    assert np.array_equal(m, [[0, 1], [1, 1]])


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(5)
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(1, 80)), int(rng.integers(1, 80)))
        assert rank(m) == rank(m.T)


def test_rank_nullity():
    rng = np.random.default_rng(6)
    for _ in range(40):
        m = random_matrix(rng, int(rng.integers(0, 20)), int(rng.integers(0, 70)))
        assert rank(m) + kernel_dim(m) == m.shape[1]


def test_matmul_agrees_with_dense():
    # uint8 products wrap modulo 256, which keeps their parity, so the
    # library's GF(2) products need no wider dtype; 300 ones overflow
    rng = np.random.default_rng(17)
    a = random_matrix(rng, 5, 300)
    a[0] = 1
    b = random_matrix(rng, 300, 4)
    b[:, 0] = 1
    expected = (a.astype(np.int64) @ b.astype(np.int64)) % 2
    assert np.array_equal((a @ b) % 2, expected)


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = random_matrix(rng, int(rng.integers(0, 8)), int(rng.integers(0, 90)))
        basis = kernel_basis(m)
        assert basis.shape == (m.shape[1], m.shape[1] - rank(m))
        assert rank(basis) == basis.shape[1]
        assert not np.any((m @ basis) % 2)


def test_text_roundtrip():
    rng = np.random.default_rng(31)
    m = random_matrix(rng, 6, 70)
    lines = to_text(m).split("\n")
    assert np.array_equal([[int(ch) for ch in line] for line in lines], m)
    assert to_text(np.zeros((0, 3), dtype=np.uint8)) == ""


def test_zero_dimensional_edges():
    empty = np.zeros((0, 0), dtype=np.uint8)
    assert rank(empty) == 0
    assert kernel_dim(empty) == 0
    # dense stacks with no constraint rows (degree 2, omega = all qubits)
    # and with no columns (a k = 0 code)
    assert kernel_dim(np.zeros((0, 3), dtype=np.uint8)) == 3
    assert kernel_dim(np.zeros((4, 0), dtype=np.uint8)) == 0


def test_code_matrices_are_read_only():
    gen = GeneratorMatrix([[0], [1]])
    adj = AdjacencyMatrix.from_edges(2, [(1, 2)])
    with pytest.raises(ValueError, match="read-only"):
        gen.matrix[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        adj.theta[0, 0] = 1
