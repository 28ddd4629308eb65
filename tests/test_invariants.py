"""Tests for the binary invariant engines."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabinv import invariants
from stabinv.errors import BudgetError
from stabinv.gf2 import rank
from stabinv.invariants import (
    DEFAULT_MAX_RECORDS,
    TreeTuple,
    all_tuples,
    compare_global,
    degree2_dim,
    degree2_tuple,
    fingerprint,
    first_difference,
    identity_tuple,
    invariant_dim,
    pad_degree,
    parse_tuple,
    reduce_singleton,
    theorem2_dim,
    uniform_tuple,
    _sweep,
)
from stabinv.stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    LocalCliffordOp,
    apply_local_clifford,
    graph_generator,
    permute_qubits,
    random_code,
    restrict_to,
)
from stabinv.trees import enumerate_trees, left_chain, right_chain, serialize

EDGE2 = graph_generator(AdjacencyMatrix.from_edges(2, [(1, 2)]))


def random_tuple(n, r, rng) -> TreeTuple:
    pool = enumerate_trees(r)
    return TreeTuple(tuple(pool[int(i)] for i in rng.integers(0, len(pool), n)))


def test_tree_tuple_validation():
    with pytest.raises(ValueError):
        TreeTuple(())
    with pytest.raises(ValueError):
        TreeTuple((left_chain(2), left_chain(3)))


def test_tuple_id_roundtrip():
    tup = TreeTuple((right_chain(3), left_chain(3)))
    assert parse_tuple(tup.id()) == tup


def reference_dim(gen, tup) -> int:
    """Kernel dimension of the stacked Kronecker matrix, built from the
    definitions with numpy alone and counted by exhaustive search."""
    dense = gen.matrix.astype(np.int64)
    blocks = []
    for i, tree in enumerate(tup.trees):
        right_sons = {c for c in tree.right if c}
        columns = []  # one indicator column per maximal right path
        for start in range(1, tree.r + 1):
            if start in right_sons:
                continue
            column, v = np.zeros(tree.r, dtype=np.int64), start
            while v:
                column[v - 1] = 1
                v = tree.right[v - 1]
            columns.append(column)
        path_matrix = np.array(columns).T  # r x t
        blocks.append(np.kron(path_matrix.T, dense[[i, gen.n + i]]))
    stacked = np.concatenate(blocks)
    vectors = np.array(list(itertools.product((0, 1), repeat=stacked.shape[1])), dtype=np.int64)
    solutions = int(np.sum(~np.any((stacked @ vectors.T) % 2, axis=0)))
    assert solutions & (solutions - 1) == 0
    return solutions.bit_length() - 1


@st.composite
def codes(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(0, n))
    return random_code(n, k, draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), gen=codes(), r=st.integers(2, 3))
def test_invariant_dim_matches_reference(data, gen, r):
    pool = enumerate_trees(r)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=gen.n, max_size=gen.n))
    tup = TreeTuple(tuple(pool[j] for j in picks))
    assert invariant_dim(gen, tup) == reference_dim(gen, tup)


@settings(max_examples=15, deadline=None, database=None)
@given(gen=codes(), r_max=st.integers(2, 3))
def test_fingerprint_records_match_reference(gen, r_max):
    fp = fingerprint(gen, r_max)
    expected = [(r, tup) for r in range(2, r_max + 1) for tup in all_tuples(gen.n, r)]
    assert [(rec.r, rec.tuple_id) for rec in fp.records] == [(r, t.id()) for r, t in expected]
    for rec, (_, tup) in zip(fp.records, expected):
        assert rec.dim == reference_dim(gen, tup)


def test_identity_tuple_dim_zero():
    for trial in range(10):
        n = 1 + trial % 3
        k = trial % (n + 1)
        gen = random_code(n, k, (trial, 2))
        for r in (2, 3, 4):
            assert invariant_dim(gen, identity_tuple(n, r)) == 0


def test_all_right_son_tuple_gives_k():
    for trial in range(10):
        n = 1 + trial % 3
        k = trial % (n + 1)
        gen = random_code(n, k, (trial, 3))
        tup = uniform_tuple(right_chain(2), n)
        assert invariant_dim(gen, tup) == k


def test_entangled_edge_single_qubit_dim_zero():
    tup = TreeTuple((right_chain(2), left_chain(2)))
    assert invariant_dim(EDGE2, tup) == 0


def test_qubit_count_mismatch():
    with pytest.raises(ValueError):
        invariant_dim(EDGE2, identity_tuple(3, 2))


def test_dim_bounds():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        k = int(rng.integers(0, n + 1))
        gen = random_code(n, k, (trial, 4))
        dim = invariant_dim(gen, random_tuple(n, r, rng))
        assert 0 <= dim <= r * k


def test_degree2_full_and_empty():
    for trial in range(8):
        n = 1 + trial % 4
        k = trial % (n + 1)
        gen = random_code(n, k, (trial, 5))
        assert degree2_dim(gen, range(1, n + 1)) == k
        assert degree2_dim(gen, set()) == 0


def test_degree2_matches_tuple_engine():
    rng = np.random.default_rng(6)
    for trial in range(12):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        gen = random_code(n, k, (trial, 6))
        for size in range(n + 1):
            for omega in itertools.combinations(range(1, n + 1), size):
                assert degree2_dim(gen, omega) == invariant_dim(
                    gen, degree2_tuple(n, omega)
                )


def test_degree2_tuple_encoding():
    tup = degree2_tuple(3, {1, 3})
    assert tup.trees[0] == right_chain(2)
    assert tup.trees[1] == left_chain(2)
    assert tup.trees[2] == right_chain(2)
    with pytest.raises(ValueError):
        degree2_tuple(2, {5})


def test_theorem2_matches_kernel_engine():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        k = int(rng.integers(0, n + 1))
        gen = random_code(n, k, (trial, 7))
        tup = random_tuple(n, r, rng)
        assert theorem2_dim(gen, tup) == invariant_dim(gen, tup)


def test_theorem2_identity_tuple_zero():
    gen = random_code(2, 2, 8)
    assert theorem2_dim(gen, identity_tuple(2, 3)) == 0


def test_theorem2_budget():
    gen = random_code(3, 3, 9)
    with pytest.raises(BudgetError):
        theorem2_dim(gen, identity_tuple(3, 3), max_points=4)


def test_reduce_pad_roundtrip():
    rng = np.random.default_rng(10)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        tup = random_tuple(n, r, rng)
        assert reduce_singleton(pad_degree(tup)) == tup


def test_pad_and_reduce_preserve_dim():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        k = int(rng.integers(0, n + 1))
        gen = random_code(n, k, (trial, 11))
        tup = random_tuple(n, r, rng)
        assert invariant_dim(gen, pad_degree(tup)) == invariant_dim(gen, tup)
        reduced = reduce_singleton(tup)
        if reduced is not None:
            assert reduced.r == tup.r - 1
            assert invariant_dim(gen, reduced) == invariant_dim(gen, tup)


def test_reduce_identity_tuples():
    assert reduce_singleton(identity_tuple(2, 3)) == identity_tuple(2, 2)
    assert pad_degree(identity_tuple(2, 3)) == identity_tuple(2, 4)


def test_reduce_not_applicable():
    tup = uniform_tuple(right_chain(2), 2)  # single 2-node path in every tree
    assert reduce_singleton(tup) is None
    with pytest.raises(ValueError):
        reduce_singleton(uniform_tuple(left_chain(1), 2))


def test_fingerprint_record_counts():
    gen1 = random_code(1, 1, 12)
    assert len(fingerprint(gen1, 2).records) == 2
    gen2 = random_code(2, 1, 13)
    fp = fingerprint(gen2, 3)
    assert len(fp.records) == 29  # 2^2 + 5^2
    ids = [(rec.r, rec.tuple_id) for rec in fp.records]
    assert ids == sorted(ids)


def test_fingerprint_budget():
    gen = random_code(3, 2, 14)
    with pytest.raises(BudgetError):
        fingerprint(gen, 3, max_records=10)


def test_fingerprint_lc_invariant():
    rng = np.random.default_rng(15)
    for trial in range(6):
        n = int(rng.integers(1, 4))
        gen = random_code(n, int(rng.integers(0, n + 1)), (trial, 15))
        twin = apply_local_clifford(LocalCliffordOp.random(n, rng), gen)
        assert first_difference(gen, twin, 2) is None


def test_compare_self_equal():
    assert first_difference(EDGE2, EDGE2, 2) is None


def test_compare_range_mismatch():
    with pytest.raises(ValueError, match="different lengths"):
        first_difference(EDGE2, random_code(3, 1, 16), 2)


def test_ghz_class_graphs_indistinguishable():
    path3 = graph_generator(AdjacencyMatrix.from_edges(3, [(1, 2), (2, 3)]))
    tri3 = graph_generator(AdjacencyMatrix.complete(3))
    assert first_difference(path3, tri3, 2) is None


def test_product_vs_entangled_distinguished():
    prod2 = graph_generator(AdjacencyMatrix.empty(2))
    fp_prod = fingerprint(prod2, 2)
    fp_edge = fingerprint(EDGE2, 2)
    diff = first_difference(prod2, EDGE2, 2)
    assert diff is not None
    rec_a, rec_b = diff
    assert rec_a.r == 2
    assert {rec_a.dim, rec_b.dim} == {0, 1}
    # the singleton-omega records disagree: dim 1 for the product state,
    # dim 0 for the entangled pair
    by_id = {rec.tuple_id: rec.dim for rec in fp_prod.records}
    assert by_id[degree2_tuple(2, {1}).id()] == 1
    by_id = {rec.tuple_id: rec.dim for rec in fp_edge.records}
    assert by_id[degree2_tuple(2, {1}).id()] == 0


def test_compare_global_finds_permutation():
    gen = random_code(3, 2, 17)
    shuffled = permute_qubits(gen, (2, 3, 1))
    perm = compare_global(gen, shuffled, 2)
    assert perm is not None
    assert first_difference(gen, permute_qubits(shuffled, perm), 2) is None


def test_compare_global_distinguishes():
    prod3 = graph_generator(AdjacencyMatrix.empty(3))
    tri3 = graph_generator(AdjacencyMatrix.complete(3))
    assert compare_global(prod3, tri3, 2) is None


def test_compare_global_guards():
    with pytest.raises(ValueError):
        compare_global(EDGE2, random_code(3, 1, 18), 2)
    with pytest.raises(BudgetError):
        compare_global(random_code(9, 1, 19), random_code(9, 1, 20), 2)


def test_compare_global_filters_above_degree_2(monkeypatch):
    # Fake n=2 record streams: the first code's degree-2 records are
    # symmetric under swapping the qubits and its degree-3 records are not;
    # the second code is the first with its qubits swapped.  Only the
    # degree-3 records rule out the identity relabelling.
    def dims(r, i, j):
        return int(i == j) if r == 2 else int((i, j) == (0, 1))

    def stream(swapped):
        for r in (2, 3):
            names = [serialize(t) for t in enumerate_trees(r)]
            for i, j in itertools.product(range(len(names)), repeat=2):
                yield r, (names[i], names[j]), dims(r, j, i) if swapped else dims(r, i, j)

    gen1, gen2 = random_code(2, 1, 21), random_code(2, 1, 22)
    monkeypatch.setattr(
        invariants, "_sweep", lambda gen, r_max, max_records: stream(gen is gen2)
    )
    assert compare_global(gen1, gen2, 3) == (2, 1)


def brute_first_difference(gen1, gen2, r_max):
    pairs = zip(fingerprint(gen1, r_max).records, fingerprint(gen2, r_max).records)
    return next(((a, b) for a, b in pairs if a != b), None)


def brute_compare_global(gen1, gen2, r_max):
    # compare_global searches itertools.permutations of the record
    # positions, each the inverse of the qubit relabelling it returns
    records = fingerprint(gen1, r_max).records
    for perm in itertools.permutations(range(gen1.n)):
        relabel = tuple(perm.index(i) + 1 for i in range(gen1.n))
        if fingerprint(permute_qubits(gen2, relabel), r_max).records == records:
            return relabel
    return None


@pytest.mark.parametrize("seed", range(8))
def test_comparisons_match_brute_force(seed):
    # k >= 1: every relabelling of a k = 0 code matches, so the order in
    # which they are searched would go untested
    rng = np.random.default_rng((28, seed))
    n, r_max = 1 + seed % 4, 2 + seed // 4
    gen = random_code(n, int(rng.integers(1, n + 1)), (seed, 28))
    shuffled = permute_qubits(gen, tuple(int(p) for p in rng.permutation(n) + 1))
    image = apply_local_clifford(LocalCliffordOp.random(n, rng), shuffled)
    other = random_code(n, int(rng.integers(1, n + 1)), (seed, 29))
    for gen2 in (image, other):
        assert first_difference(gen, gen2, r_max) == brute_first_difference(gen, gen2, r_max)
        assert compare_global(gen, gen2, r_max) == brute_compare_global(gen, gen2, r_max)
    assert compare_global(gen, image, r_max) is not None


def count_kernel_dims(monkeypatch) -> list[int]:
    """Record the column count r*k of every kernel the engine computes."""
    widths = []
    real = invariants._kernel_dim

    def counting(blocks):
        widths.append(blocks[0].shape[1])
        return real(blocks)

    monkeypatch.setattr(invariants, "_kernel_dim", counting)
    return widths


def test_first_difference_stops_early(monkeypatch):
    prod2 = graph_generator(AdjacencyMatrix.empty(2))
    widths = count_kernel_dims(monkeypatch)
    assert first_difference(prod2, EDGE2, 4) is not None
    assert widths and max(widths) == 2 * prod2.k


def test_compare_global_stops_early(monkeypatch):
    prod3 = graph_generator(AdjacencyMatrix.empty(3))
    tri3 = graph_generator(AdjacencyMatrix.complete(3))
    widths = count_kernel_dims(monkeypatch)
    assert compare_global(prod3, tri3, 3) is None
    assert widths and max(widths) == 2 * prod3.k


@pytest.mark.parametrize(
    "entry",
    [
        lambda gen: invariant_dim(gen, identity_tuple(2, 2)),
        lambda gen: list(_sweep(gen, 2, DEFAULT_MAX_RECORDS)),
        lambda gen: fingerprint(gen, 2),
        lambda gen: compare_global(gen, gen, 2),
        lambda gen: first_difference(gen, gen, 2),
        lambda gen: degree2_dim(gen, {1, 2}),
        lambda gen: theorem2_dim(gen, identity_tuple(2, 2)),
        lambda gen: restrict_to(gen, {1}),
    ],
    ids=[
        "invariant_dim",
        "_sweep",
        "fingerprint",
        "compare_global",
        "first_difference",
        "degree2_dim",
        "theorem2_dim",
        "restrict_to",
    ],
)
def test_entry_points_reject_invalid_code(entry):
    anticommuting = GeneratorMatrix.from_pauli_strings(["XX", "ZI"])
    with pytest.raises(ValueError, match="not-self-orthogonal"):
        entry(anticommuting)


def test_generator_basis_change_invariance():
    rng = np.random.default_rng(21)
    for trial in range(15):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        gen = random_code(n, k, (trial, 21))
        while True:
            basis = rng.integers(0, 2, size=(k, k), dtype=np.uint8)
            if rank(basis) == k:
                break
        other = GeneratorMatrix(gen.matrix @ basis)
        tup = random_tuple(n, int(rng.integers(2, 4)), rng)
        assert invariant_dim(gen, tup) == invariant_dim(other, tup)


def test_simultaneous_qubit_permutation_invariance():
    rng = np.random.default_rng(22)
    for trial in range(15):
        n = int(rng.integers(2, 5))
        gen = random_code(n, int(rng.integers(0, n + 1)), (trial, 22))
        tup = random_tuple(n, int(rng.integers(2, 4)), rng)
        perm = tuple(int(p) for p in rng.permutation(n) + 1)
        permuted_tup = TreeTuple(tuple(tup.trees[p - 1] for p in perm))
        assert invariant_dim(gen, tup) == invariant_dim(
            permute_qubits(gen, perm), permuted_tup
        )


def test_fingerprint_json_roundtrip():
    fp = fingerprint(EDGE2, 2)
    payload = json.loads(fp.to_json())
    assert payload == fp.to_payload()
    assert list(payload) == ["n", "r_max", "records"]


def test_all_tuples_order_and_count():
    tuples = list(all_tuples(2, 2))
    assert len(tuples) == 4
    assert [t.id() for t in tuples] == sorted(t.id() for t in tuples)
