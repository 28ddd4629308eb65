"""Tests for the bit-packed GF(2) matrix layer."""

import itertools

import numpy as np
import pytest

from stabinv.gf2 import GF2Matrix


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


def test_rank_identity():
    assert GF2Matrix.identity(2).rank() == 2


def test_rank_zero_matrix():
    assert GF2Matrix.zeros(3, 5).rank() == 0


def test_rank_dependent_rows():
    rows = [[1, 1], [1, 1], [0, 1]]
    assert span_size_rank(rows) == 2
    assert GF2Matrix.from_dense(rows).rank() == 2


def test_kernel_dimension_no_rows():
    assert GF2Matrix.zeros(0, 5).kernel_dimension() == 5


def test_kernel_dimension_identity():
    assert GF2Matrix.identity(5).kernel_dimension() == 0


def test_kernel_dimension_chain():
    rows = [[1, 1, 0], [0, 1, 1]]
    assert annihilated_count(rows) == 2  # exactly {000, 111}
    assert GF2Matrix.from_dense(rows).kernel_dimension() == 1


def test_kernel_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(30):
        rows = int(rng.integers(0, 7))
        cols = int(rng.integers(1, 13))
        m = GF2Matrix.random(rows, cols, rng)
        count = annihilated_count(m.to_dense())
        assert count == 1 << m.kernel_dimension()


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        m = GF2Matrix.random(rows, cols, rng)
        assert m.rank() == m.transpose().rank()


def test_rank_nullity():
    rng = np.random.default_rng(6)
    for _ in range(40):
        m = GF2Matrix.random(int(rng.integers(0, 20)), int(rng.integers(0, 20)), rng)
        assert m.rank() + m.kernel_dimension() == m.cols


def test_transpose_involution():
    rng = np.random.default_rng(3)
    m = GF2Matrix.random(7, 90, rng)
    assert m.transpose().transpose() == m


def test_matmul_agrees_with_dense():
    rng = np.random.default_rng(17)
    a = GF2Matrix.random(5, 9, rng)
    b = GF2Matrix.random(9, 4, rng)
    expected = (a.to_dense().astype(int) @ b.to_dense().astype(int)) % 2
    assert np.array_equal((a @ b).to_dense(), expected)


def test_kernel_basis_spans_kernel():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = GF2Matrix.random(int(rng.integers(1, 8)), int(rng.integers(1, 10)), rng)
        basis = m.kernel_basis()
        assert basis.cols == m.kernel_dimension()
        assert basis.rank() == basis.cols
        prod = m @ basis
        assert not np.any(prod.to_dense())


def test_text_roundtrip():
    rng = np.random.default_rng(31)
    m = GF2Matrix.random(6, 70, rng)
    assert GF2Matrix.from_text(m.to_text()) == m


def test_text_blank_line_terminates():
    text = "10\n01\n\n11\n"
    assert GF2Matrix.from_text(text) == GF2Matrix.identity(2)


def test_text_rejects_ragged_rows():
    with pytest.raises(ValueError):
        GF2Matrix.from_text("10\n011\n")


def test_padding_bits_are_zero():
    # 65 columns forces a second word with 63 padding bits
    m = GF2Matrix.from_dense(np.ones((2, 65), dtype=np.uint8))
    assert m.rank() == 1
    back = m.to_dense()
    assert back.shape == (2, 65)
    assert np.all(back == 1)


def test_zero_dimensional_edges():
    empty = GF2Matrix.zeros(0, 0)
    assert empty.rank() == 0
    assert empty.kernel_dimension() == 0
    # dense stacks with no constraint rows (degree 2, omega = all qubits)
    # and with no columns (a k = 0 code)
    assert GF2Matrix.from_dense(np.zeros((0, 3), dtype=np.uint8)).kernel_dimension() == 3
    assert GF2Matrix.from_dense(np.zeros((4, 0), dtype=np.uint8)).kernel_dimension() == 0
