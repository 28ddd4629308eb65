"""Tests for the binary invariant engines."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabinv import invariants
from stabinv.errors import BudgetError, InvalidCodeError
from stabinv.gf2 import rank, to_dense, xor_basis
from stabinv.invariants import (
    DEFAULT_MAX_RECORDS,
    compare_global,
    degree2_dim,
    degree2_tuple,
    fingerprint,
    first_difference,
    identity_tuple,
    invariant_dim,
    parse_tuple,
    uniform_tuple,
    _sweep,
)
from stabinv.oracle import MAX_ENUM, theorem2_dim
from stabinv.stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    LocalCliffordOp,
    all_graphs,
    apply_local_clifford,
    graph_generator,
    parse_code,
    permute_qubits,
    random_code,
    restrict_to,
)
from stabinv.trees import (
    TreeTuple,
    all_tuples,
    enumerate_trees,
    left_chain,
    pad_degree,
    reduce_singleton,
    right_chain,
    serialize,
)
from test_trees import sons

EDGE2 = graph_generator(AdjacencyMatrix.from_edges(2, [(1, 2)]))


def rows_of(a) -> list[int]:
    """The int rows of a 2-d 0/1 array-like: bit c of a row is column c."""
    return [sum(int(v) << c for c, v in enumerate(row)) for row in a]


def random_tuple(n, r, rng) -> TreeTuple:
    pool = enumerate_trees(r)
    return TreeTuple(tuple(rng.choices(pool, k=n)))


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
    dense = to_dense(gen.rows, gen.k).astype(np.int64)
    blocks = []
    for i, tree in enumerate(tup.trees):
        _, right = sons(serialize(tree))  # not the tree's own paths
        columns = []  # one indicator column per maximal right path
        for start in range(1, tree.r + 1):
            if start in right:
                continue
            column, v = np.zeros(tree.r, dtype=np.int64), start
            while v:
                column[v - 1] = 1
                v = right[v - 1]
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
    rows = fingerprint(gen, r_max)["records"]
    expected = [(r, tup) for r in range(2, r_max + 1) for tup in all_tuples(gen.n, r)]
    assert [(row["r"], row["tuple"]) for row in rows] == [(r, t.id()) for r, t in expected]
    for row, (_, tup) in zip(rows, expected):
        assert row["dim"] == reference_dim(gen, tup)


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
    rng = random.Random(4)
    for trial in range(20):
        n = rng.randrange(1, 4)
        r = rng.randrange(2, 4)
        k = rng.randrange(0, n + 1)
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


def eliminated_dim(gen, tup) -> int:
    """The record by numpy elimination of the stacked blocks, which the
    engine itself does only from degree 4 on."""
    blocks = [
        to_dense(invariants._rows(gen, i, tree), tup.r * gen.k)
        for i, tree in enumerate(tup.trees, start=1)
    ]
    return invariants._kernel_dim(blocks)


def test_degree2_matches_tuple_engine():
    # every degree-2 record of the sweep, which takes the prefix walk,
    # against the numpy elimination and the oracle's enumeration
    for n in range(1, 6):
        for k in range(n + 1):
            for trial in range(2):
                gen = random_code(n, k, (trial, n, k, 6))
                rows = fingerprint(gen, 2)["records"]
                assert len(rows) == 2**n
                for row in rows:
                    tup = parse_tuple(row["tuple"])
                    omega = {i for i, t in enumerate(tup.trees, start=1) if t == right_chain(2)}
                    assert tup == degree2_tuple(n, omega)
                    assert row["dim"] == degree2_dim(gen, omega)
                    assert row["dim"] == eliminated_dim(gen, tup) == theorem2_dim(gen, tup)
                    assert row["dim"] == invariant_dim(gen, tup)
    # for a graph state the record is |omega| minus the cut-rank of omega
    chain = serialize(right_chain(2))
    for n in range(1, 6):
        for adj in all_graphs(n):
            for row in fingerprint(graph_generator(adj), 2)["records"]:
                omega = [i for i, ser in enumerate(row["tuple"].split(";")) if ser == chain]
                outside = [j for j in range(n) if j not in omega]
                cut = [sum(((adj.rows[i] >> j) & 1) << c for c, j in enumerate(outside))
                       for i in omega]
                assert row["dim"] == len(omega) - rank(cut), (adj.rows, row)


def test_degree3_matches_tuple_engine():
    # every degree-3 record of the sweep, which takes the prefix walk,
    # against the numpy elimination and the oracle's enumeration (at most
    # 2^(3k) <= 2^12 points)
    right, left = serialize(right_chain(3)), serialize(left_chain(3))
    for n in range(1, 5):
        for k in range(n + 1):
            gen = random_code(n, k, (n, k, 7))
            records = {(row["r"], row["tuple"]): row["dim"] for row in fingerprint(gen, 3)["records"]}
            assert len(records) == 2**n + 5**n
            for (r, tuple_id), dim in records.items():
                if r != 3:
                    continue
                tup = parse_tuple(tuple_id)
                assert dim == eliminated_dim(gen, tup) == invariant_dim(gen, tup), (n, k, tuple_id)
                assert dim == theorem2_dim(gen, tup), (n, k, tuple_id)
                # a common one-node path drops to the degree-2 record
                reduced = reduce_singleton(tup)
                if reduced is not None:
                    assert dim == records[2, reduced.id()], (n, k, tuple_id)
            assert records[3, ";".join([right] * n)] == 2 * k
            assert records[3, ";".join([left] * n)] == 0


def test_invariant_dim_is_the_sweep_record():
    # invariant --trees takes one tuple's record by itself, and the theorem
    # suites certify the sweep's records: both must agree, here at degree 4,
    # where each is eliminated from the blocks
    for k in range(3):
        gen = random_code(2, k, (2, 4, k))
        assert [(tup.id(), invariant_dim(gen, tup)) for tup in all_tuples(2, 4)] == [
            (";".join(sers), dim) for sers, dim in invariants.records(gen, 4)
        ]


def test_degree3_records_extend_one_basis_per_prefix(monkeypatch):
    # a prefix's basis serves every tuple that extends it, so the 625
    # tuples at n = 4 take 5 + 25 + 125 + 625 = 780 basis extensions, one
    # per prefix of each length, not one per qubit of each tuple (4 * 625)
    gen = random_code(4, 3, (4, 3, 7))
    expected = list(invariants.records(gen, 3))
    calls = []

    def counted(rows, start=None):
        calls.append(rows)
        return xor_basis(rows, start)

    monkeypatch.setattr(invariants, "xor_basis", counted)
    assert list(invariants.records(gen, 3)) == expected
    assert (len(expected), len(calls)) == (625, 780)


def test_restriction_dimension_is_the_degree2_record():
    for n in range(1, 5):
        for k in range(n + 1):
            gen = random_code(n, k, (n, k, 8))
            # no code lives on no qubit, and only 0 is supported there
            assert degree2_dim(gen, ()) == 0
            for size in range(1, n + 1):
                for omega in itertools.combinations(range(1, n + 1), size):
                    assert restrict_to(gen, omega).k == degree2_dim(gen, omega), (n, k, omega)


def test_degree2_tuple_encoding():
    tup = degree2_tuple(3, {1, 3})
    assert tup.trees[0] == right_chain(2)
    assert tup.trees[1] == left_chain(2)
    assert tup.trees[2] == right_chain(2)
    with pytest.raises(ValueError):
        degree2_tuple(2, {5})


def test_theorem2_matches_kernel_engine():
    rng = random.Random(7)
    for trial in range(10):
        n = rng.randrange(1, 4)
        r = rng.randrange(1, 4)
        k = rng.randrange(0, n + 1)
        gen = random_code(n, k, (trial, 7))
        tup = random_tuple(n, r, rng)
        assert theorem2_dim(gen, tup) == invariant_dim(gen, tup)


def test_theorem2_identity_tuple_zero():
    gen = random_code(2, 2, 8)
    assert theorem2_dim(gen, identity_tuple(2, 3)) == 0


def test_theorem2_budget():
    gen = random_code(3, 3, 9)
    assert theorem2_dim(gen, identity_tuple(3, 5)) == 0  # 2^15 points fit MAX_ENUM
    with pytest.raises(BudgetError, match=f"enumerating 2\\^18 points exceeds budget {MAX_ENUM}"):
        theorem2_dim(gen, identity_tuple(3, 6))


def test_reduce_pad_roundtrip():
    rng = random.Random(10)
    for trial in range(30):
        n = rng.randrange(1, 4)
        r = rng.randrange(1, 4)
        tup = random_tuple(n, r, rng)
        assert reduce_singleton(pad_degree(tup)) == tup


def test_pad_and_reduce_preserve_dim():
    rng = random.Random(11)
    for trial in range(30):
        n = rng.randrange(1, 4)
        r = rng.randrange(2, 4)
        k = rng.randrange(0, n + 1)
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
    assert len(fingerprint(gen1, 2)["records"]) == 2
    gen2 = random_code(2, 1, 13)
    rows = fingerprint(gen2, 3)["records"]
    assert len(rows) == 29  # 2^2 + 5^2
    ids = [(row["r"], row["tuple"]) for row in rows]
    assert ids == sorted(ids)


def test_fingerprint_budget():
    gen = random_code(3, 2, 14)
    with pytest.raises(BudgetError):
        fingerprint(gen, 3, max_records=10)


def test_fingerprint_lc_invariant():
    rng = random.Random(15)
    for trial in range(6):
        n = rng.randrange(1, 4)
        gen = random_code(n, rng.randrange(0, n + 1), (trial, 15))
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
    assert list(diff) == ["r", "tuple", "dim_a", "dim_b"]
    assert diff["r"] == 2
    assert {diff["dim_a"], diff["dim_b"]} == {0, 1}
    # the singleton-omega records disagree: dim 1 for the product state,
    # dim 0 for the entangled pair
    by_id = {row["tuple"]: row["dim"] for row in fp_prod["records"]}
    assert by_id[degree2_tuple(2, {1}).id()] == 1
    by_id = {row["tuple"]: row["dim"] for row in fp_edge["records"]}
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

    def records(gen, choices):
        r = choices[0][0].r
        names = [serialize(t) for t in enumerate_trees(r)]
        assert choices == [enumerate_trees(r)] * 2
        for i, j in itertools.product(range(len(names)), repeat=2):
            yield (names[i], names[j]), dims(r, j, i) if gen is gen2 else dims(r, i, j)

    gen1, gen2 = random_code(2, 1, 21), random_code(2, 1, 22)
    monkeypatch.setattr(invariants, "_records", records)
    assert compare_global(gen1, gen2, 3) == (2, 1)


def brute_first_difference(gen1, gen2, r_max):
    pairs = zip(fingerprint(gen1, r_max)["records"], fingerprint(gen2, r_max)["records"])
    return next(
        ({"r": a["r"], "tuple": a["tuple"], "dim_a": a["dim"], "dim_b": b["dim"]}
         for a, b in pairs if a != b),
        None,
    )


def brute_compare_global(gen1, gen2, r_max):
    # compare_global searches itertools.permutations of the record
    # positions, each the inverse of the qubit relabelling it returns
    records = fingerprint(gen1, r_max)["records"]
    for perm in itertools.permutations(range(gen1.n)):
        relabel = tuple(perm.index(i) + 1 for i in range(gen1.n))
        if fingerprint(permute_qubits(gen2, relabel), r_max)["records"] == records:
            return relabel
    return None


@pytest.mark.parametrize("seed", range(8))
def test_comparisons_match_brute_force(seed):
    # k >= 1: every relabelling of a k = 0 code matches, so the order in
    # which they are searched would go untested
    rng = random.Random(repr((28, seed)))
    n, r_max = 1 + seed % 4, 2 + seed // 4
    gen = random_code(n, rng.randrange(1, n + 1), (seed, 28))
    shuffled = permute_qubits(gen, tuple(rng.sample(range(1, n + 1), n)))
    image = apply_local_clifford(LocalCliffordOp.random(n, rng), shuffled)
    other = random_code(n, rng.randrange(1, n + 1), (seed, 29))
    for gen2 in (image, other):
        assert first_difference(gen, gen2, r_max) == brute_first_difference(gen, gen2, r_max)
        assert compare_global(gen, gen2, r_max) == brute_compare_global(gen, gen2, r_max)
    assert compare_global(gen, image, r_max) is not None


def count_engine_calls(monkeypatch) -> dict[str, int]:
    """Count the engine's (qubit, tree) row builds, its numpy eliminations
    and the basis extensions of its walk below degree 4, as they happen."""
    calls = dict.fromkeys(("_rows", "_kernel_dim", "xor_basis"), 0)

    def counting(name):
        real = getattr(invariants, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(invariants, name, counting(name))
    return calls


def test_first_difference_stops_early(monkeypatch):
    # the records differ at degree 2, so no row of degree 3 or 4 is built,
    # and the sweeps stop before their last degree-2 record: a whole one
    # takes 2 + 2^2 basis extensions per code
    prod2 = graph_generator(AdjacencyMatrix.empty(2))
    calls = count_engine_calls(monkeypatch)
    assert first_difference(prod2, EDGE2, 4) is not None
    assert (calls["_rows"], calls["_kernel_dim"]) == (2 * 2 * 2, 0)
    assert 0 < calls["xor_basis"] < 2 * (2 + 2**2)


def test_compare_global_stops_early(monkeypatch):
    # every relabelling is ruled out by the degree-2 records of both codes,
    # whose whole sweeps take 2 + 2^2 + 2^3 basis extensions each, and no
    # degree-3 row is built
    prod3 = graph_generator(AdjacencyMatrix.empty(3))
    tri3 = graph_generator(AdjacencyMatrix.complete(3))
    calls = count_engine_calls(monkeypatch)
    assert compare_global(prod3, tri3, 3) is None
    assert calls == {"_rows": 2 * 3 * 2, "_kernel_dim": 0, "xor_basis": 2 * (2 + 2**2 + 2**3)}


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
    # the invalid code stops where it is made, so it never reaches the entry
    with pytest.raises(InvalidCodeError, match="^invalid code: not-self-orthogonal$"):
        entry(parse_code("pauli\nXX\nZI\n"))
    entry(parse_code("pauli\nXX\nZZ\n"))


def test_generator_basis_change_invariance():
    rng = random.Random(21)
    for trial in range(15):
        n = rng.randrange(1, 4)
        k = rng.randrange(1, n + 1)
        gen = random_code(n, k, (trial, 21))
        while True:
            basis = np.array([[rng.getrandbits(1) for _ in range(k)] for _ in range(k)], dtype=np.uint8)
            if rank(rows_of(basis)) == k:
                break
        other = GeneratorMatrix(rows_of(to_dense(gen.rows, gen.k) @ basis % 2), k)
        tup = random_tuple(n, rng.randrange(2, 4), rng)
        assert invariant_dim(gen, tup) == invariant_dim(other, tup)


def test_simultaneous_qubit_permutation_invariance():
    rng = random.Random(22)
    for trial in range(15):
        n = rng.randrange(2, 5)
        gen = random_code(n, rng.randrange(0, n + 1), (trial, 22))
        tup = random_tuple(n, rng.randrange(2, 4), rng)
        perm = tuple(rng.sample(range(1, n + 1), n))
        permuted_tup = TreeTuple(tuple(tup.trees[p - 1] for p in perm))
        assert invariant_dim(gen, tup) == invariant_dim(
            permute_qubits(gen, perm), permuted_tup
        )


def test_fingerprint_json_roundtrip():
    payload = fingerprint(EDGE2, 2)
    assert json.loads(json.dumps(payload)) == payload
    assert list(payload) == ["n", "r_max", "records"]
    assert [list(row) for row in payload["records"]] == [["r", "tuple", "dim"]] * 4


def test_fingerprint_json_bytes_are_pinned():
    # the exact JSON of three fixed codes' fingerprints, so that a change to
    # the engine cannot change a record, the record order or the layout:
    # random_code(2, 1, 3) at degrees 2-5, and random_code(3, 1, 5) and
    # random_code(3, 2, 7) at degrees 2-4, degree-4 sweeps at n = 3
    for rows, k, r_max, digest in (
        ((1, 0, 0, 1), 1, 5, "3b00a9a35615131e2a7c0f174c9cb966cffab6950d6ea5c5af4a74733c0eba1a"),
        ((1, 1, 1, 1, 0, 1), 1, 4, "47381ffbc3cd451c299e1d1a6fcb4c8ec298ee303a64e367731b308e324e2de3"),
        ((3, 1, 3, 2, 3, 0), 2, 4, "6b84842f0ad03fbc9e30a0d77f49da085f185eeb3bce7f85c00274e848d792f5"),
    ):
        text = json.dumps(fingerprint(GeneratorMatrix(rows, k), r_max), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (rows, r_max)


def test_all_tuples_order_and_count():
    tuples = list(all_tuples(2, 2))
    assert len(tuples) == 4
    assert [t.id() for t in tuples] == sorted(t.id() for t in tuples)
