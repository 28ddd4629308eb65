"""Tests for the exact dense-operator oracle."""

import functools
import inspect
import itertools
import json
import math
import random

import numpy as np
import pytest

from stabinv import cli, invariants, oracle
from stabinv.errors import BudgetError, InvalidCodeError, capped_sum
from stabinv.gf2 import rank, to_dense, to_text, transpose
from stabinv.invariants import (
    identity_tuple,
    invariant_dim,
    parse_tuple,
    uniform_tuple,
)
from stabinv.oracle import (
    MAX_SUITE_CHECKS,
    Dyadic,
    ExactOperator,
    GraphTupleSpaces,
    TupleSpaces,
    closed_form_table,
    cyclic_sum_table,
    invariant_trace,
    pauli_op,
    product_trace,
    rho_from_code,
    rho_graph_formula,
    suite_lemma1,
    suite_lemma2,
    suite_lemma3,
    suite_lemma4,
    suite_theorem1,
    suite_theorem2,
    tau_op,
)
from stabinv.stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    LocalCliffordOp,
    all_graphs,
    apply_local_clifford,
    graph_generator,
    parse_code,
    random_code,
)
from stabinv.trees import (
    TreeTuple,
    all_tuples,
    catalan,
    d_matrix,
    enumerate_trees,
    left_chain,
    permutation_of,
    right_chain,
    serialize,
)
from test_oracle_reference import ref_t_pi

ONE = Dyadic(1, 0, 0)


def random_tuple(n, r, rng) -> TreeTuple:
    pool = enumerate_trees(r)
    return TreeTuple(tuple(rng.choices(pool, k=n)))


def table_index(bits) -> int:
    """Row or column of a cyclic-sum table: copy 1 is the top bit."""
    return int("".join(str(int(b)) for b in bits), 2)


def table_entry(table, u, v) -> int:
    """Entry [u, v] of a flat cyclic-sum table, u and v as bit rows."""
    return table[table_index(u) << len(u) | table_index(v)]


def as_matrix(op: ExactOperator) -> np.ndarray:
    """The entries of op as a complex dim x dim array, scale left out."""
    return (np.array(op.re) + 1j * np.array(op.im)).reshape(op.dim, op.dim)


def bit(mask: int, a: int) -> int:
    """Whether point a lies in a point mask."""
    return (mask >> a) & 1


# -- single operators ---------------------------------------------------------


# the one-qubit factors written out; sigma as complex, tau_11 = i sigma_y
SIGMA = {(0, 0): [[1, 0], [0, 1]], (0, 1): [[0, 1], [1, 0]],
         (1, 0): [[1, 0], [0, -1]], (1, 1): [[0, -1j], [1j, 0]]}
TAU = {(0, 0): [[1, 0], [0, 1]], (0, 1): [[0, 1], [1, 0]],
       (1, 0): [[1, 0], [0, -1]], (1, 1): [[0, 1], [-1, 0]]}


def scaled(op: ExactOperator, re: int, im: int = 0) -> ExactOperator:
    """op times the Gaussian integer re + i*im."""
    return ExactOperator(
        op.m,
        [re * a - im * b for a, b in zip(op.re, op.im)],
        [re * b + im * a for a, b in zip(op.re, op.im)],
        op.scale,
    )


def test_entry_rule_matches_tensor_products():
    # qubit 1 is the leftmost Kronecker factor; 84 (u, v) pairs for n <= 3
    pairs = 0
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=2 * n):
            u, v = bits[:n], bits[n:]
            factors = list(zip(u, v))
            for op, table in ((tau_op(u, v), TAU), (pauli_op(u, v), SIGMA)):
                expected = functools.reduce(np.kron, [np.array(table[f]) for f in factors])
                assert np.array_equal(as_matrix(op), expected), (u, v)
            pairs += 1
    assert pairs == 84


def test_zero_vector_gives_identity():
    assert pauli_op([0, 0], [0, 0]).same_as(ExactOperator.identity(2))
    assert tau_op([0, 0], [0, 0]).same_as(ExactOperator.identity(2))


def test_sigma_and_tau_at_11():
    sigma_y = pauli_op([1], [1])
    assert sigma_y.re == (0, 0, 0, 0)
    assert sigma_y.im == (0, -1, 1, 0)  # rows [0, -1] and [1, 0]
    t = tau_op([1], [1])
    assert t.re == (0, 1, -1, 0)  # i * sigma_y, real
    assert not any(t.im)
    assert t.same_as(scaled(sigma_y, 0, 1))


def test_tau_multiplication_rule():
    # tau_(u,v) tau_(u',v') = (-1)^(v.u') tau_(u+u', v+v'), all 1-qubit cases
    # and a random sample of 3-qubit cases
    def check(u, v, u2, v2):
        lhs = tau_op(u, v) @ tau_op(u2, v2)
        sign = (-1) ** (sum(a * b for a, b in zip(v, u2)) % 2)
        rhs = scaled(tau_op(np.bitwise_xor(u, u2), np.bitwise_xor(v, v2)), sign)
        assert lhs.same_as(rhs)

    for bits in itertools.product((0, 1), repeat=4):
        check(*[[b] for b in bits])
    rng = np.random.default_rng(0)
    for _ in range(40):
        u, v, u2, v2 = (rng.integers(0, 2, 3) for _ in range(4))
        check(u, v, u2, v2)


def test_pauli_ops_are_hermitian_and_unitary():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        u, v = rng.integers(0, 2, n), rng.integers(0, 2, n)
        op = pauli_op(u, v)
        assert np.array_equal(as_matrix(op), as_matrix(op).conj().T)
        assert (op @ op).same_as(ExactOperator.identity(n))


def test_pauli_ops_take_only_bits():
    # an entry of 2 used to give the identity and 1.7 a Z: entries are
    # 0 or 1 as the constructors take them, and numpy 0/1 entries pass
    assert pauli_op(np.array([1], dtype=np.uint8), np.array([0])).same_as(pauli_op([1], [0]))
    for op in (pauli_op, tau_op):
        with pytest.raises(ValueError, match=r"ints in \[0, 2\^1\)"):
            op([2], [0])
        with pytest.raises(ValueError, match=r"ints in \[0, 2\^1\)"):
            op([0], [-1])
        with pytest.raises(TypeError):
            op([1.7], [0])


def test_operator_budget():
    with pytest.raises(BudgetError):
        pauli_op([0] * 13, [0] * 13)


# -- code projectors ----------------------------------------------------------


def test_rho_trivial_code_is_maximally_mixed():
    gen = GeneratorMatrix([0, 0, 0, 0], 0)
    rho = rho_from_code(gen)
    assert rho.same_as(ExactOperator(2, ExactOperator.identity(2).re,
                                     ExactOperator.identity(2).im, 2))


def test_rho_plus_state():
    gen = GeneratorMatrix([0, 1], 1)  # X stabilizer
    rho = rho_from_code(gen)
    assert rho.scale == 1
    assert rho.re == (1, 1, 1, 1)
    assert not any(rho.im)


def test_rho_purity_scaling():
    for trial in range(12):
        n = 1 + trial % 3
        k = trial % (n + 1)
        gen = random_code(n, k, (trial, 31))
        rho = rho_from_code(gen)
        assert rho.trace() == ONE
        square = rho @ rho
        scaled = ExactOperator(rho.m, [a << k for a in rho.re], [b << k for b in rho.im], 2 * n)
        assert square.same_as(scaled)
        assert (square.trace()).log2() == k - n


def test_rho_sign_flips_change_operator_not_traces():
    rng = random.Random(2)
    for trial in range(10):
        n = rng.randrange(1, 3)
        k = rng.randrange(1, n + 1)
        gen = random_code(n, k, (trial, 32))
        signs = tuple(rng.choices((1, -1), k=k))
        rho = rho_from_code(gen)
        flipped = rho_from_code(gen, signs=signs)
        assert flipped.same_as(rho) == (signs == (1,) * k)
        assert flipped.trace() == ONE
        tables = oracle._entry_tables(random_tuple(n, 2, rng))
        assert product_trace(tables, [rho] * 2) == product_trace(tables, [flipped] * 2)


def test_rho_matches_group_sum_definition():
    # 2^-n times the sum over all 2^k subsets of the signed generators of
    # their product, with each Pauli a Kronecker product of SIGMA factors
    rng = np.random.default_rng(38)
    for n in range(1, 5):
        for k in range(n + 1):
            for trial in range(3):
                gen = random_code(n, k, (trial, n, k, 38))
                signs = tuple(int(s) for s in rng.choice((1, -1), k))
                dense = to_dense(gen.rows, k)
                paulis = [
                    signs[j] * functools.reduce(np.kron, [
                        np.array(SIGMA[int(dense[i, j]), int(dense[n + i, j])])
                        for i in range(n)
                    ])
                    for j in range(k)
                ]
                group_sum = np.zeros((1 << n, 1 << n), dtype=complex)
                for subset in itertools.product((0, 1), repeat=k):
                    term = np.eye(1 << n, dtype=complex)
                    for j in range(k):
                        if subset[j]:
                            term = term @ paulis[j]
                    group_sum += term
                rho = rho_from_code(gen, signs=signs)
                assert rho.scale == n
                assert np.array_equal(as_matrix(rho), group_sum), (n, k, trial)


def all_codes(n: int):
    """Every code on n qubits, once each: the isotropic subspaces of the
    2n-bit symplectic space, each by its reduced row-echelon basis as the
    generator columns."""

    def orthogonal(a, b):
        return bin((a & ((1 << n) - 1)) & (b >> n) ^ (a >> n) & b).count("1") % 2 == 0

    def extend(basis, start):
        # the basis is its own reduced row-echelon form: no vector has the
        # lowest set bit of another
        if all(a == b or not a & b & -b for a in basis for b in basis):
            yield GeneratorMatrix(transpose(basis, 2 * n), len(basis))
        for w in range(start, 1 << 2 * n):
            if rank([*basis, w]) > len(basis) and all(orthogonal(w, b) for b in basis):
                yield from extend([*basis, w], w + 1)

    return extend([], 1)


def dense_product_rho(gen, signs) -> ExactOperator:
    """2^-n (I + s_1 g_1) ... (I + s_k g_k) as k dense operator products."""
    n = gen.n
    dense = to_dense(gen.rows, gen.k)
    rho = ExactOperator.identity(n)
    one = rho.re
    for j, s in enumerate(signs):
        g = pauli_op(dense[:n, j], dense[n:, j])
        rho = rho @ ExactOperator(n, [a + s * b for a, b in zip(one, g.re)], [s * b for b in g.im])
    return ExactOperator(n, rho.re, rho.im, n)


def test_rho_matches_dense_product_for_every_small_code():
    counts = []
    for n in (1, 2, 3):
        codes = list(all_codes(n))
        counts.append(len(codes))
        for gen in codes:
            for signs in itertools.product((1, -1), repeat=gen.k):
                rho, expected = rho_from_code(gen, signs=signs), dense_product_rho(gen, signs)
                assert rho.scale == expected.scale == n
                assert (rho.re, rho.im) == (expected.re, expected.im), (gen.rows, signs)
    # isotropic subspaces of dimension 0..n; the n-dimensional ones number
    # (2 + 1)(4 + 1)...(2^n + 1)
    assert counts == [1 + 3, 1 + 15 + 15, 1 + 63 + 315 + 135]


def test_graph_formula_matches_group_sum():
    for n in (1, 2, 3):
        for adj in all_graphs(n):
            lhs = rho_graph_formula(adj)
            rhs = rho_from_code(graph_generator(adj))
            assert lhs.same_as(rhs)


def test_graph_formula_empty_single_vertex():
    rho = rho_graph_formula(AdjacencyMatrix.empty(1))
    assert rho.re == (1, 1, 1, 1)
    assert rho.scale == 1


def test_one_edge_graph_state_is_pure():
    rho = rho_graph_formula(AdjacencyMatrix.from_edges(2, [(1, 2)]))
    assert rho.trace() == ONE
    assert (rho @ rho).same_as(rho)


# -- the copy permutation -----------------------------------------------------


def test_t_pi_identity():
    # each copy meets the diagonal entry of its own block of the index
    tables = oracle._entry_tables(identity_tuple(2, 2))
    assert tables == [[(a >> s & 3) * 5 for a in range(16)] for s in (2, 0)]


def test_t_pi_transposition_involution():
    # two copies swapped on both qubits: each copy's row is the other
    # copy's column, so swapping twice is the identity
    tables = oracle._entry_tables(uniform_tuple(right_chain(2), 2))
    assert [t >> 2 for t in tables[0]] == [t & 3 for t in tables[1]]
    assert [t >> 2 for t in tables[1]] == [t & 3 for t in tables[0]]
    assert tables != oracle._entry_tables(identity_tuple(2, 2))
    # one qubit: 2^(n*r) = 4 entries per copy
    assert oracle._entry_tables(uniform_tuple(right_chain(2), 1)) == [[0, 2, 1, 3], [0, 1, 2, 3]]


def test_trace_splits_over_qubits():
    # The trace against a product of tau operators, one (u, v) bit pair per
    # (copy, qubit), is the product over qubits of one cyclic-sum table
    # entry.  The trace is multilinear in each single-qubit factor and the
    # four tau matrices span all 2x2 matrices, so the exhaustive part
    # covers every product operator with n*r <= 4.
    tau = functools.cache(tau_op)

    def splits(tup):
        entries = oracle._entry_tables(tup)
        tables = [cyclic_sum_table(permutation_of(tree)) for tree in tup.trees]

        def check(u, v):  # r x n bit arrays
            ops = [tau(tuple(u[c]), tuple(v[c])) for c in range(tup.r)]
            lhs = product_trace(entries, ops)
            rhs = math.prod(table_entry(table, u[:, q], v[:, q]) for q, table in enumerate(tables))
            return lhs == Dyadic(rhs, 0, 0)

        return check

    choices = 0
    for n in range(1, 5):
        for r in range(1, 4 // n + 1):
            for tup in all_tuples(n, r):
                check = splits(tup)
                for bits in itertools.product((0, 1), repeat=2 * n * r):
                    u, v = np.array(bits).reshape(2, r, n)
                    assert check(u, v), (tup.id(), bits)
                    choices += 1
    assert choices == 5300
    rng = random.Random(3)
    for _ in range(30):
        n, r = rng.randrange(1, 4), rng.randrange(1, 4)
        u, v = np.array([rng.getrandbits(1) for _ in range(2 * r * n)]).reshape(2, r, n)
        tup = random_tuple(n, r, rng)
        assert splits(tup)(u, v), (tup.id(), u, v)


def test_product_trace_of_identity_counts_fixed_points():
    # one qubit, two copies swapped: the trace of SWAP is 2
    tables = oracle._entry_tables(uniform_tuple(right_chain(2), 1))
    ident = ExactOperator.identity(1)
    assert product_trace(tables, [ident, ident]) == Dyadic(2, 0, 0)


def test_product_trace_of_a_shared_operator_equals_distinct_copies():
    # each copy gets its own signed projector, and each tuple's trace is
    # the same on a second call with the same entry tables; one operator
    # passed for every copy, packed once, gives the trace of r equal but
    # distinct operators, and so does one operator passed for some copies
    rng = np.random.default_rng(40)
    for n, r in ((1, 3), (2, 2), (3, 3)):
        gen = random_code(n, n, (n, r, 40))
        ops = [rho_from_code(gen, signs=rng.choice((1, -1), n)) for _ in range(r)]
        copies = [ExactOperator(n, ops[0].re, ops[0].im, ops[0].scale) for _ in range(r)]
        for tup in all_tuples(n, r):
            tables = oracle._entry_tables(tup)
            assert product_trace(tables, ops) == product_trace(tables, ops)
            assert product_trace(tables, [ops[0]] * r) == product_trace(tables, copies)
            mixed = [ops[0]] * (r - 1) + ops[-1:]
            assert product_trace(tables, mixed) == product_trace(tables, copies[:-1] + ops[-1:])
    # tables of another n, another count of operators or of tables, or
    # operators on different n
    with pytest.raises(ValueError):
        product_trace(oracle._entry_tables(identity_tuple(1, 3)), ops)
    with pytest.raises(ValueError):
        product_trace(tables, ops[:2])
    with pytest.raises(ValueError):
        product_trace(tables, [])
    with pytest.raises(ValueError):
        product_trace(tables[:2], ops)
    with pytest.raises(ValueError):
        product_trace(tables, ops[:2] + [ExactOperator.identity(1)])


def test_sign_traces_match_the_dense_contraction():
    # every graph projector with n <= 3 factors as c * s s^T, also when
    # scaled by 2 or by i, and its trace from the walked sign mask equals
    # product_trace against every tuple with r <= 3, in all_tuples order
    for n, r in itertools.product((1, 2, 3), repeat=2):
        tables = [oracle._entry_tables(tup) for tup in all_tuples(n, r)]
        swaps = oracle._qubit_swaps(oracle._Degree(r, n * r), n)
        assert all(len(s) < r for column in swaps for s in column)
        for adj in all_graphs(n):
            rho = rho_from_code(graph_generator(adj))
            for op in (rho, scaled(rho, 2), scaled(rho, 0, 1)):
                c, signs = oracle._sign_factor(op)
                assert c == Dyadic(op.re[0], op.im[0], op.scale)
                assert signs & 1 == 0 and signs < 1 << (1 << n)
                walked = oracle._walked_traces(c, signs, n, r, swaps)
                traces = [Dyadic(re, im, r * c.scale) for re, im in walked]
                assert traces == [product_trace(entries, [op] * r) for entries in tables]


def test_walked_traces_match_the_dense_route():
    # lemma3's traces, walked qubit by qubit, equal invariant_trace on
    # every tuple with n * r <= 9: every graph up to n = 3, and one seeded
    # random graph on each larger n
    rng = random.Random(31)
    for n in range(1, 10):
        graphs = all_graphs(n) if n <= 3 else [AdjacencyMatrix.random(n, rng)]
        for r in range(1, 9 // n + 1):
            swaps = oracle._qubit_swaps(oracle._Degree(r, n * r), n)
            for adj in graphs:
                gen = graph_generator(adj)
                c, signs = oracle._sign_factor(rho_from_code(gen))
                walked = oracle._walked_traces(c, signs, n, r, swaps)
                traces = [Dyadic(re, im, r * c.scale) for re, im in walked]
                assert traces == [invariant_trace(gen, tup) for tup in all_tuples(n, r)], (n, r)


def test_graph_walks_match_the_per_tuple_spaces():
    # the walk over spaces and forms yields of(tup) for every tuple, in
    # all_tuples order: every graph with n <= 3 and r <= 3, and with n = 4
    # at r = 2
    sizes = [*itertools.product((1, 2, 3), repeat=2), (4, 2)]
    for n, r in sizes:
        for adj in all_graphs(n):
            spaces = GraphTupleSpaces(adj, r)
            walked = list(zip(spaces.walk(), spaces.forms(), strict=True))
            assert walked == [spaces.of(tup) for tup in all_tuples(n, r)], (n, r)


def test_code_walks_match_the_per_tuple_spaces():
    # two random codes per k, for every n <= 3 and r <= 3: the walk yields
    # space(tup) for every tuple, in all_tuples order, and a shared degree
    # gives the same masks as a private one
    for n, r in itertools.product((1, 2, 3), repeat=2):
        for k in range(n + 1):
            degree = oracle._Degree(r, k * r)
            for c in range(2):
                gen = random_code(n, k, seed=(31, n, k, c))
                spaces = TupleSpaces(gen, r)
                walked = list(spaces.walk())
                assert walked == [spaces.space(tup) for tup in all_tuples(n, r)], (n, k, r)
                assert list(TupleSpaces(gen, r, degree).walk()) == walked


def test_nth_tuple_counts_in_all_tuples_order():
    for n, r in itertools.product((1, 2, 3), (1, 2, 3)):
        trees = enumerate_trees(r)
        tuples = list(all_tuples(n, r))
        assert [oracle._nth_tuple(i, n, trees) for i in range(len(tuples))] == tuples


def test_bit_masks_match_the_division_formula():
    # blocks of 2^b clear then 2^b set points are the all-ones mask over
    # 2^m points divided by 2^(2^b) + 1, shifted up by 2^b
    for m in range(13):
        full = (1 << (1 << m)) - 1
        expected = [full // ((1 << (1 << b)) + 1) << (1 << b) for b in range(m)]
        assert oracle._bit_masks(m) == expected, m


def test_mask_swaps_permute_indices_as_t_pi():
    # bit a of the swapped mask is bit image[a] of the mask, image the
    # numpy reference's, for every tuple with n * r <= 9 and a seeded
    # random mask each
    rng = random.Random(9)
    for n in range(1, 10):
        for r in range(1, 9 // n + 1):
            dim = 1 << (n * r)
            table = oracle._swap_table(oracle._bit_masks(n * r), n)
            for tup in all_tuples(n, r):
                mask = rng.getrandbits(dim)
                moved = oracle._permuted(mask, oracle._mask_swaps(oracle._bit_targets(tup), table))
                low_first = format(mask, f"0{dim}b")[::-1]  # character a is bit a
                expected = "".join(map(low_first.__getitem__, ref_t_pi(tup)))
                assert format(moved, f"0{dim}b")[::-1] == expected, tup.id()


def test_sign_factor_checks_every_entry():
    # one changed entry anywhere, a zero corner or a non-symmetric sign
    # pattern leaves no c * s s^T form
    rho = rho_from_code(graph_generator(AdjacencyMatrix.from_edges(2, [(1, 2)])))
    assert oracle._sign_factor(rho) is not None
    for i in range(16):
        for re, im in ((-rho.re[i], rho.im[i]), (rho.re[i], 1)):
            entries = list(rho.re), list(rho.im)
            entries[0][i], entries[1][i] = re, im
            assert oracle._sign_factor(ExactOperator(2, *entries, rho.scale)) is None, i
    assert oracle._sign_factor(ExactOperator(1, [0, 1, 1, 1], [0] * 4)) is None
    assert oracle._sign_factor(ExactOperator(1, [1, 1, -1, -1], [0] * 4)) is None
    # the same for every entry of every graph projector with n <= 3
    for n in (1, 2, 3):
        for adj in all_graphs(n):
            rho = rho_from_code(graph_generator(adj))
            assert oracle._sign_factor(rho) is not None
            for i in range(1 << (2 * n)):
                for re, im in ((-rho.re[i], rho.im[i]), (rho.re[i], 1)):
                    entries = list(rho.re), list(rho.im)
                    entries[0][i], entries[1][i] = re, im
                    changed = ExactOperator(n, *entries, rho.scale)
                    assert oracle._sign_factor(changed) is None, (to_text(adj.rows, n), i)


def test_products_stay_exact_past_int64():
    # entries near 2^40: the trace is near 2^82 and the product's entries
    # near 2^81, where int64 would wrap; Python ints keep them exact
    big = ExactOperator(1, [(1 << 40) + 1] * 4, [0] * 4)
    tables = oracle._entry_tables(identity_tuple(1, 2))
    trace = product_trace(tables, [big, big])
    assert trace == Dyadic(4 * ((1 << 40) + 1) ** 2, 0, 0)
    assert trace.re.bit_length() - 1 == 82
    square = big @ big
    assert square.re == (2 * ((1 << 40) + 1) ** 2,) * 4 and not any(square.im)
    assert square.re[0].bit_length() - 1 == 81
    # entries 2^40 (1 - i): each copy's trace is 2^41 (1 - i), and their
    # product -2^83 i
    skew = ExactOperator(1, [1 << 40] * 4, [-(1 << 40)] * 4)
    assert product_trace(tables, [skew, skew]) == Dyadic(0, -(1 << 83), 0)
    # entries 2^29 (1 - i), as before
    near = ExactOperator(1, [1 << 29] * 4, [-(1 << 29)] * 4)
    assert product_trace(tables, [near, near]) == Dyadic(0, -(1 << 61), 0)
    square = near @ near
    assert not any(square.re) and square.im == (-(1 << 60),) * 4


def test_same_as_rescales_exactly_past_int64():
    # 4 * 2^62 would wrap to 0 in int64 and compare equal; a Python int
    # rescales by 2^64 or 2^70 exactly
    four = ExactOperator(0, [4], [0], 0)
    assert not four.same_as(ExactOperator(0, [0], [0], 62))
    assert four.same_as(ExactOperator(0, [1 << 64], [0], 62))
    zero = ExactOperator(0, [0], [0], 0)
    assert zero.same_as(ExactOperator(0, [0], [0], 70))
    assert not zero.same_as(ExactOperator(0, [1], [0], 70))
    one = ExactOperator(0, [1], [0], 0)
    assert one.same_as(ExactOperator(0, [1 << 70], [0], 70))
    assert not one.same_as(ExactOperator(0, [1 << 70], [1], 70))
    assert not one.same_as(ExactOperator(0, [(1 << 70) + 1], [0], 70))
    assert one.same_as(ExactOperator(0, [1 << 60], [0], 60))
    assert not one.same_as(ExactOperator(0, [1 << 60], [1], 60))


# -- invariant traces ---------------------------------------------------------


def test_trace_identity_tuple_is_one():
    for trial in range(8):
        n = 1 + trial % 3
        gen = random_code(n, trial % (n + 1), (trial, 33))
        assert invariant_trace(gen, identity_tuple(n, 2)) == ONE
        assert invariant_trace(gen, identity_tuple(n, 3)) == ONE


def test_trace_full_swap_is_purity():
    for trial in range(8):
        n = 1 + trial % 3
        k = trial % (n + 1)
        gen = random_code(n, k, (trial, 34))
        tup = uniform_tuple(right_chain(2), n)
        assert invariant_trace(gen, tup).log2() == k - n


def test_trace_offset_matches_path_counts():
    # measured offset of log2(trace) over the kernel dimension equals
    # (total number of right paths) - n*r for every code
    rng = random.Random(4)
    for trial in range(20):
        n = rng.randrange(1, 4)
        r = rng.randrange(2, 4)
        k = rng.randrange(0, n + 1)
        gen = random_code(n, k, (trial, 35))
        tup = random_tuple(n, r, rng)
        offset = sum(len(t.paths) for t in tup.trees) - n * r
        assert invariant_trace(gen, tup).log2() == invariant_dim(gen, tup) + offset


@pytest.mark.parametrize(
    "entry",
    [rho_from_code, lambda gen: invariant_trace(gen, identity_tuple(2, 2))],
    ids=["rho_from_code", "invariant_trace"],
)
def test_oracle_rejects_invalid_code(entry):
    # the invalid code stops where it is made, so it never reaches the entry
    with pytest.raises(InvalidCodeError, match="^invalid code: not-self-orthogonal$"):
        entry(parse_code("pauli\nXX\nZI\n"))
    entry(parse_code("pauli\nXX\nZZ\n"))


def test_trace_budget(monkeypatch):
    gen = random_code(3, 1, 36)
    monkeypatch.setattr(oracle, "MAX_DIM", 16)
    with pytest.raises(BudgetError, match="^dense dimension 2\\^9 exceeds budget 16$"):
        invariant_trace(gen, identity_tuple(3, 3))


def test_trace_invariant_under_local_clifford():
    rng = random.Random(5)
    for trial in range(10):
        n = rng.randrange(1, 3)
        k = rng.randrange(0, n + 1)
        gen = random_code(n, k, (trial, 37))
        twin = apply_local_clifford(LocalCliffordOp.random(n, rng), gen)
        tup = random_tuple(n, rng.randrange(2, 4), rng)
        assert invariant_trace(gen, tup) == invariant_trace(twin, tup)


# -- cyclic sums --------------------------------------------------------------


def test_cyclic_sum_table_identity_permutation_zero_bits():
    for r in (1, 2, 4):
        table = cyclic_sum_table(permutation_of(left_chain(r)))
        assert len(table) == 1 << (2 * r)
        assert table[0] == 1 << r


def test_closed_form_table_zero_outside_path_space():
    table = closed_form_table(right_chain(3))
    assert table_entry(table, [1, 0, 0], [0, 0, 0]) == 0
    assert table_entry(table, [0, 0, 0], [1, 1, 0]) != 0


def test_lemma2_reports_a_planted_fault(monkeypatch):
    # one wrong entry, at a (u, v) whose transpose and bit reversals all
    # differ, must be reported at exactly that tree, u and v
    tree = enumerate_trees(3)[2]
    exact = oracle.closed_form_table

    def planted(t):
        table = exact(t)
        if t == tree:
            table[table_index([1, 1, 0]) << 3 | table_index([0, 0, 1])] += 1
        return table

    monkeypatch.setattr(oracle, "closed_form_table", planted)
    report = suite_lemma2(max_r=3)
    assert report["status"] == "fail"
    assert report["checks"] == sum(catalan(r) << (2 * r) for r in (1, 2, 3))
    assert report["failures"] == [{"tree": repr(tree), "u": (1, 1, 0), "v": (0, 0, 1)}]


# -- quadratic-form identities ------------------------------------------------


# The definitions, point by point in plain Python.  X is a list of n rows
# of r bits; theta a list of n rows of n bits; i and j count from 0.


def point_matrix(a, n, r):
    """Point a of TupleSpaces as X: X[i][j] is bit (r-1-j)*n + (n-1-i) of a."""
    return [[(a >> ((r - 1 - j) * n + (n - 1 - i))) & 1 for j in range(r)] for i in range(n)]


def in_paths(theta, x, i, tree):
    """[theta_i; e_i] . sum_(j in p) X_j = 0 for every right path p of tree."""
    n = len(x)
    for p in tree.paths:
        path_sum = [sum(x[l][j - 1] for j in p) % 2 for l in range(n)]
        if sum(theta[i][l] * path_sum[l] for l in range(n)) % 2 or path_sum[i]:
            return False
    return True


def q_term(theta, x, i, d):
    """sum_j (X_(i,.) D)_j (theta_i . X_(.,j)) mod 2, D as nested lists."""
    n, r = len(x), len(x[0])
    total = 0
    for j in range(r):
        xd = sum(x[i][k] * d[k][j] for k in range(r)) % 2
        total += xd * sum(theta[i][l] * x[l][j] for l in range(n))
    return total % 2


def q_base(theta, x):
    """Tr X^T L X mod 2, L the strict lower triangle of theta."""
    n, r = len(x), len(x[0])
    return sum(
        theta[i][l] * x[i][j] * x[l][j] for j in range(r) for i in range(n) for l in range(i)
    ) % 2


def q_form(theta, x, trees, prefix):
    """The whole quadratic form, with prefix(tree) as the prefix matrix."""
    terms = [q_term(theta, x, i, to_dense(prefix(t), t.r).tolist()) for i, t in enumerate(trees)]
    return (q_base(theta, x) + sum(terms)) % 2


def test_tuple_space_rows_match_definitions():
    rows = 0
    for n in (1, 2):
        for r in (1, 2):
            for adj in all_graphs(n):
                spaces = GraphTupleSpaces(adj, r)
                theta = to_dense(adj.rows, n).tolist()
                assert spaces.base >> (1 << (n * r)) == 0
                for a in range(1 << (n * r)):
                    x = point_matrix(a, n, r)
                    assert bit(spaces.base, a) == q_base(theta, x)
                    for i in range(n):
                        for tree in enumerate_trees(r):
                            d = to_dense(d_matrix(tree), r).tolist()
                            assert bit(spaces.member[i][tree], a) == in_paths(theta, x, i, tree)
                            assert bit(spaces.term[i][tree], a) == q_term(theta, x, i, d)
                            rows += 1
    assert rows == 2 + 4 * 2 + 2 * 4 * 2 + 2 * 16 * 2 * 2  # graphs x points x qubits x trees


def test_tuple_spaces_are_closed_under_xor():
    for n in (1, 2):
        for r in (1, 2):
            for adj in all_graphs(n):
                spaces = GraphTupleSpaces(adj, r)
                for tup in all_tuples(n, r):
                    space = spaces.space(tup)
                    points = {a for a in range(1 << (n * r)) if bit(space, a)}
                    assert 0 in points
                    assert all(a ^ b in points for a in points for b in points), tup.id()


def test_tuple_space_matches_kernel_dimension():
    # log2 |space| is the engine's kernel dimension
    rng = random.Random(6)
    for trial in range(10):
        n = rng.randrange(1, 4)
        r = rng.randrange(1, 4)
        adj = AdjacencyMatrix.random(n, rng)
        tup = random_tuple(n, r, rng)
        size = GraphTupleSpaces(adj, r).space(tup).bit_count()
        assert size == 1 << invariant_dim(graph_generator(adj), tup)


def test_code_membership_rows_match_codeword_path_sums():
    # codes with k < n: the point holds the k x r coefficient matrix X as
    # point_matrix lays it out, copy j's codeword is S X_j, and
    # member[i][tree] is 1 exactly where every right path's codeword sum
    # vanishes at qubit i
    rows = 0
    for n, k, c, r in itertools.product((1, 2, 3), (0, 1, 2), (0, 1), (1, 2)):
        if k >= n:
            continue
        gen = random_code(n, k, seed=(12, n, k, c))
        s = to_dense(gen.rows, k).tolist()
        spaces = TupleSpaces(gen, r)
        for a in range(1 << (k * r)):
            x = point_matrix(a, k, r)
            words = [[sum(s[l][i] * x[i][j] for i in range(k)) % 2 for l in range(2 * n)]
                     for j in range(r)]
            for i in range(n):
                for tree in enumerate_trees(r):
                    vanish = all(
                        sum(words[j - 1][l] for j in p) % 2 == 0
                        for p in tree.paths
                        for l in (i, n + i)
                    )
                    assert bit(spaces.member[i][tree], a) == vanish
                    rows += 1
    # 2 codes per (n, k) x 2^(k*r) points x n qubits x catalan(r) trees
    assert rows == 352


def test_tuple_spaces_refuse_enumeration_over_budget():
    with pytest.raises(BudgetError, match=r"^enumerating 2\^18 points exceeds budget 65536$"):
        TupleSpaces(graph_generator(AdjacencyMatrix.empty(6)), 3)


def test_quad_form_zero_on_zero_element():
    adj = AdjacencyMatrix.complete(3)
    tup = identity_tuple(3, 2)
    space, q = GraphTupleSpaces(adj, 2).of(tup)
    assert bit(space, 0) and not bit(q, 0)


def test_lemma4_small_graphs():
    for n in (1, 2):
        for adj in all_graphs(n):
            for r in (1, 2, 3):
                spaces = GraphTupleSpaces(adj, r)
                for i, tup in enumerate(all_tuples(n, r)):
                    assert spaces.lemma4_failure(i, *spaces.of(tup)) is None


def test_lemma4_empty_graph_any_tuple():
    rng = random.Random(7)
    for r in (1, 2, 3):
        tup = random_tuple(3, r, rng)
        spaces = GraphTupleSpaces(AdjacencyMatrix.empty(3), r)
        i = list(all_tuples(3, r)).index(tup)
        assert spaces.lemma4_failure(i, *spaces.of(tup)) is None


def test_lemma4_reports_a_planted_fault(monkeypatch):
    # with every prefix matrix zero only the graph-only part Tr X^T L X of
    # the form is left, and it is 1 somewhere on 71 tuple spaces; each
    # reported element must lie in its tuple's space and give Q = 1 there,
    # while the true form is 0 on it
    def zero(tree):
        return (0,) * tree.r

    monkeypatch.setattr(oracle, "d_matrix", zero)
    report = suite_lemma4(3, 3)
    assert (report["status"], report["checks"]) == ("fail", 1140)
    assert len(report["failures"]) == 71
    assert len({(f["graph"], f["tuple"]) for f in report["failures"]}) == 71
    for failure in report["failures"]:
        theta = [[int(c) for c in row] for row in failure["graph"].split("\n")]
        tup = parse_tuple(failure["tuple"])
        n, r = tup.n, tup.r
        bits = failure["element"]  # blocks ordered by copy
        assert len(bits) == n * r
        x = [[bits[j * n + i] for j in range(r)] for i in range(n)]
        for i, tree in enumerate(tup.trees):
            assert in_paths(theta, x, i, tree), failure
        assert q_form(theta, x, tup.trees, zero) == 1, failure
        assert q_form(theta, x, tup.trees, d_matrix) == 0, failure


def test_lemma_suites_never_call_the_engine(monkeypatch):
    # lemma1-4 at their benchmark sizes with every engine entry the oracle
    # could reach made to raise; theorem1 and theorem2 do call it
    def engine(*args, **kwargs):
        raise AssertionError("the oracle called the engine")

    for module, name in (
        (invariants, "records"),
        (invariants, "invariant_dim"),
        (oracle, "theorem2_dim"),
        (invariants, "_kernel_dim"),
        (invariants, "xor_basis"),
    ):
        monkeypatch.setattr(module, name, engine)
    for suite, limits, count in (
        (suite_lemma1, {"max_n": 3}, 11),
        (suite_lemma2, {"max_r": 4}, 3940),
        (suite_lemma3, {"max_n": 3, "max_r": 3}, 1140),
        (suite_lemma4, {"max_n": 3, "max_r": 3}, 1140),
    ):
        report = suite(**limits)
        assert (report["status"], report["checks"], report["failures"]) == ("pass", count, [])
    for suite in (suite_theorem1, suite_theorem2):
        with pytest.raises(AssertionError, match="called the engine"):
            suite(max_n=1, max_r=2)


def test_theorem2_dim_never_calls_the_engine(monkeypatch):
    cases = [
        (random_code(n, k, seed=(13, n, k)), tup)
        for n in (1, 2, 3)
        for k in range(n + 1)
        for tup in itertools.islice(all_tuples(n, 2), 3)
    ]
    dims = [invariant_dim(gen, tup) for gen, tup in cases]

    def engine(*args, **kwargs):
        raise AssertionError("the oracle called the engine")

    for module, name in (
        (invariants, "invariant_dim"),
        (invariants, "_kernel_dim"),
        (invariants, "xor_basis"),
    ):
        monkeypatch.setattr(module, name, engine)
    assert [oracle.theorem2_dim(gen, tup) for gen, tup in cases] == dims


def test_theorem2_reports_a_planted_fault(monkeypatch):
    # the engine made to add 1 on one tuple: exactly that tuple's records,
    # one per code of its size, must be reported
    target = parse_tuple("(L());(R())")
    exact = invariants.invariant_dim
    exact_records = invariants._records
    codes = [random_code(2, k, seed=(0, 2, k, c)) for k in range(3) for c in range(5)]
    expected = [
        {"n": 2, "k": gen.k, "tuple": target.id(),
         "kernel": exact(gen, target) + 1, "enumeration": exact(gen, target)}
        for gen in codes
    ]
    checks = suite_theorem2(max_n=2, max_r=2)["checks"]

    def planted(gen, choices):
        for sers, dim in exact_records(gen, choices):
            yield sers, dim + (";".join(sers) == target.id())

    monkeypatch.setattr(invariants, "_records", planted)
    report = suite_theorem2(max_n=2, max_r=2)
    assert (report["status"], report["checks"]) == ("fail", checks)
    assert checks == 5 * (2 * 1 + 2 * 2 + 3 * 1 + 3 * 4)  # codes x tuples, n, r <= 2
    assert report["failures"] == expected


@pytest.mark.parametrize(
    "extra",
    [
        lambda gen, r, sers: sers.count(serialize(right_chain(r))),
        lambda gen, r, sers: int(r == 3 and gen.k == gen.n),
    ],
    ids=["one_per_right_chain", "degree3_of_k_equal_n"],
)
def test_theorem1_reports_a_planted_per_tuple_fault(monkeypatch, extra):
    # theorem1 checks each offset against (right paths of the tuple) - n*r,
    # so it reports a fault that moves the offsets of every code of a
    # tuple alike, +1 on the record per right-chain tree, as well as one
    # that moves some codes only, +1 on the degree-3 records of k = n codes
    exact = invariants._records

    def planted(gen, choices):
        r = choices[0][0].r
        for sers, dim in exact(gen, choices):
            yield sers, dim + extra(gen, r, sers)

    expected = []
    for n in (1, 2):
        codes = [random_code(n, k, seed=(0, n, k, c)) for k in range(n + 1) for c in range(2)]
        for r in (2, 3):
            for tup in all_tuples(n, r):
                closed = sum(len(t.paths) for t in tup.trees) - n * r
                sers = tuple(map(serialize, tup.trees))
                expected += [
                    {"n": n, "tuple": tup.id(), "k": gen.k, "offset": closed - e, "expected": closed}
                    for gen in codes
                    if (e := extra(gen, r, sers))
                ]
    monkeypatch.setattr(invariants, "_records", planted)
    monkeypatch.setattr(oracle, "THEOREM1_CODES", 2)
    report = suite_theorem1(max_n=2, max_r=3)
    assert (report["status"], report["checks"]) == ("fail", 4 * (2 + 5) + 6 * (4 + 25))
    assert report["failures"] == expected != []


def test_theorem_suites_report_a_fault_only_a_sweep_shows(monkeypatch):
    # each record of a call but its first takes the dim of the record before
    # it, so invariant_dim, one tuple per call, stays exact: the suites see
    # the fault because they read the records that fingerprint prints
    exact = invariants._records

    def planted(gen, choices):
        previous = None
        for sers, dim in exact(gen, choices):
            yield sers, dim if previous is None else previous
            previous = dim

    monkeypatch.setattr(invariants, "_records", planted)
    gen = random_code(2, 1, seed=(0, 2, 1, 0))
    assert [invariant_dim(gen, tup) for tup in all_tuples(2, 3)] == [
        oracle.theorem2_dim(gen, tup) for tup in all_tuples(2, 3)
    ]
    reports = suite_theorem1(max_n=2, max_r=3), suite_theorem2(max_n=2, max_r=3)
    assert [(r["status"], r["checks"], len(r["failures"])) for r in reports] == [
        ("fail", 2020, 532), ("fail", 530, 122)
    ]


def test_theorem_suites_report_a_record_of_other_trees(monkeypatch):
    # each call's records in reverse order: every record of a tuple that is
    # not its own reverse carries another tuple's trees, a failure of its
    # own kind, whatever its dim
    exact = invariants._records
    monkeypatch.setattr(invariants, "_records", lambda gen, choices: [*exact(gen, choices)][::-1])
    expected = []
    for n in (1, 2):
        for r in (1, 2):
            tuples = list(all_tuples(n, r))
            expected += [
                {"n": n, "k": k, "tuple": t.id(), "record": u.id()}
                for k in range(n + 1)
                for _ in range(5)
                for t, u in zip(tuples, tuples[::-1])
                if t != u
            ]
    report = suite_theorem2(max_n=2, max_r=2)
    assert (report["status"], report["failures"]) == ("fail", expected)
    monkeypatch.setattr(oracle, "THEOREM1_CODES", 1)
    report = suite_theorem1(max_n=1, max_r=2)
    assert report["failures"] == [
        {"n": 1, "tuple": t, "k": k, "record": u}
        for t, u in (("(L())", "(R())"), ("(R())", "(L())"))
        for k in (0, 1)
    ]


@pytest.mark.parametrize("k", [1, 0])
def test_theorem1_reports_a_trace_that_is_no_power_of_2(monkeypatch, capsys, k):
    # one (n=2, k) projector scaled by 3 scales its degree-2 traces by 9,
    # which have no log2: each is a failure, not an error, and the other
    # codes still agree (at k=0 the scaled code is the first one)
    target = random_code(2, k, seed=(0, 2, k, 0))
    traces = [invariant_trace(target, tup) for tup in all_tuples(2, 2)]
    exact = oracle.rho_from_code

    def planted(gen, signs=None):
        rho = exact(gen, signs)
        return scaled(rho, 3) if (gen.rows, gen.k) == (target.rows, target.k) else rho

    monkeypatch.setattr(oracle, "rho_from_code", planted)
    monkeypatch.setattr(oracle, "THEOREM1_CODES", 1)
    report = suite_theorem1(max_n=2, max_r=2)
    assert (report["status"], report["checks"]) == ("fail", 2 * 2 + 3 * 4)
    assert report["failures"] == [
        {"n": 2, "tuple": tup.id(), "k": k, "trace": str(Dyadic(9 * t.re, 9 * t.im, t.scale))}
        for tup, t in zip(all_tuples(2, 2), traces)
    ]
    code = cli.main(["oracle-check", "--suite", "theorem1", "--max-n", "2", "--max-r", "2"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["status"] == "fail"


def test_dense_suites_report_planted_faults_of_each_kind(monkeypatch):
    # lemma3 with every graph but the edgeless one doubled, and theorem1
    # with one projector scaled by 3 and one by 2, so that both reports
    # carry failures of each kind
    edgeless = {graph_generator(AdjacencyMatrix.empty(n)).rows for n in (1, 2, 3)}
    factors = {
        random_code(2, 1, seed=(0, 2, 1, 0)).rows: 3,
        random_code(2, 2, seed=(0, 2, 2, 1)).rows: 2,
    }
    exact_rho = oracle.rho_from_code

    def planted(gen, signs=None):
        rho = exact_rho(gen, signs)
        if gen.n == gen.k and gen.rows[gen.n :] == tuple(1 << i for i in range(gen.n)):
            return rho if gen.rows in edgeless else scaled(rho, 2)
        return scaled(rho, factors.get(gen.rows, 1))

    monkeypatch.setattr(oracle, "rho_from_code", planted)
    lemma3 = suite_lemma3(max_n=3, max_r=2)
    assert lemma3["checks"] == 1 * 3 + 2 * 5 + 8 * 9
    assert len(lemma3["failures"]) == 1 * 5 + 7 * 9  # every other graph
    monkeypatch.setattr(oracle, "THEOREM1_CODES", 2)
    theorem1 = suite_theorem1(max_n=2, max_r=3)
    assert theorem1["checks"] == 4 * 7 + 6 * 29
    assert {tuple(f) for f in theorem1["failures"]} == {
        ("n", "tuple", "k", "trace"), ("n", "tuple", "k", "offset", "expected")
    }


def test_exhaustive_suites_refuse_work_over_budget():
    # projected before any work, in run order, up to the first partial sum
    # past the budget, so that a limit far past it costs nothing: lemma2
    # passes it at r=7 (7,616,356 checks), lemma4 at n=5, r=3 (2^10 graphs
    # times 5^5 tuples), lemma1 and lemma3 (r=1) at n=7's 2^21 graphs,
    # theorem2 at n=3, r=5, k=2 (5 codes times 42^3 tuples per k) or, by
    # default max_r, at n=7, r=3, k=1, before it lists its sizes, and
    # theorem1 at n=1, r=11 (40 codes times 58,786 tuples)
    for report, name, projected in (
        (suite_lemma2(max_r=7), "lemma2", 7616356),
        (suite_lemma2(max_r=100_000), "lemma2", 7616356),
        (suite_lemma4(max_n=5), "lemma4", 3276020),
        (suite_lemma4(max_n=200), "lemma4", 3276020),
        (suite_lemma1(max_n=7), "lemma1", 2131019),
        (suite_lemma3(max_n=12, max_r=1), "lemma3", 2131019),
        (suite_theorem2(max_n=3, max_r=5), "theorem2", 1199370),
        (suite_theorem2(max_n=1000), "theorem2", 1371435),
        (suite_theorem1(max_n=1, max_r=12), "theorem1", 3299920),
    ):
        assert report == {
            "suite": name,
            "status": "skipped",
            "checks": 0,
            "failures": [],
            "warnings": [
                f"{name} projects {projected} checks, over the budget of {MAX_SUITE_CHECKS}"
            ],
        }


def test_capped_sum_takes_no_term_past_the_budget():
    def terms():
        yield from (3, 4)
        raise AssertionError("a term after the budget was taken")

    assert capped_sum(terms(), 5) == 7
    assert capped_sum([1, 2, 2], 5) == 5
    assert capped_sum([], 0) == 0


def test_dense_suites_keep_checks_below_the_budget(monkeypatch):
    # a fault at n=1 must still be reported when n=3 is over the cap
    exact = oracle.rho_graph_formula

    def planted(adj):
        rho = exact(adj)
        return scaled(rho, -1) if adj.n == 1 else rho

    monkeypatch.setattr(oracle, "rho_graph_formula", planted)
    monkeypatch.setattr(oracle, "MAX_DIM", 4)
    report = suite_lemma1(max_n=3)
    assert report["status"] == "fail"
    assert report["checks"] == 3
    assert report["warnings"] == ["skipped every size whose dense dimension 2^n is over 4"]


def test_dense_suites_run_every_size_that_fits(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DIM", 4)
    monkeypatch.setattr(oracle, "THEOREM1_CODES", 2)
    report = suite_theorem1(max_n=3, max_r=2)
    assert (report["status"], report["checks"]) == ("pass", 8)  # n=1: 2 tuples x 4 codes
    assert report["warnings"] == ["skipped every size whose dense dimension 2^(n*r) is over 4"]
    monkeypatch.setattr(oracle, "MAX_DIM", 16)
    report = suite_lemma3(max_n=3, max_r=3)
    # n=3, r=1 fits after n=2, r=3 does not
    assert (report["status"], report["checks"]) == ("pass", 8 + 2 * 5 + 8)
    assert report["warnings"] == ["skipped every size whose dense dimension 2^(n*r) is over 16"]
    # limits whose largest size meets the cap exactly skip nothing
    report = suite_lemma3(max_n=2, max_r=2)
    assert (report["status"], report["checks"], report["warnings"]) == ("pass", 3 + 2 * 5, [])
    monkeypatch.setattr(oracle, "MAX_DIM", 1)
    report = suite_lemma1(max_n=2)
    assert (report["status"], report["checks"]) == ("skipped", 0)
    assert report["warnings"] == ["skipped every size whose dense dimension 2^n is over 1"]


@pytest.mark.parametrize(
    "suite, limits, checks, warnings",
    [
        (suite_lemma1, (4, dict(max_n=100000)), 3,
         ["skipped every size whose dense dimension 2^n is over 4"]),
        (suite_theorem1, (4, dict(max_n=100000, max_r=2)), 4,
         ["skipped every size whose dense dimension 2^(n*r) is over 4"]),
        (suite_lemma3, (16, dict(max_n=3, max_r=100000)), 40,
         ["skipped every size whose dense dimension 2^(n*r) is over 16"]),
    ],
)
def test_dense_suites_warn_once_per_skipped_range(monkeypatch, suite, limits, checks, warnings):
    # limits is the dense cap and the suite's limits: one warning states
    # the cap's rule, whatever sizes it skips, so huge limits cost neither
    # time nor report size; theorem1 checks one code per k
    max_dim, kwargs = limits
    monkeypatch.setattr(oracle, "MAX_DIM", max_dim)
    monkeypatch.setattr(oracle, "THEOREM1_CODES", 1)
    report = suite(**kwargs)
    assert (report["status"], report["checks"], report["warnings"]) == ("pass", checks, warnings)


@pytest.mark.parametrize(
    "limits, warnings",
    [
        (dict(max_n=3, max_r=2), ["skipped every size whose 2^(r*k) points are over 4"]),
        (dict(max_n=2, max_r=4), ["skipped every size whose 2^(r*k) points are over 4"]),
    ],
)
def test_theorem2_warns_once_per_skipped_degree(monkeypatch, limits, warnings):
    # with 4 points to a table, k = 3 is skipped at r = 1, k >= 2 at r = 2
    # and k >= 1 at every r >= 3, all under one warning; the check count is
    # every fitting (n, r, k) with one code against every tuple
    monkeypatch.setattr(oracle, "MAX_ENUM", 4)
    monkeypatch.setattr(oracle, "THEOREM2_CODES", 1)
    report = suite_theorem2(**limits)
    checks = sum(
        catalan(r) ** n
        for n in range(1, limits["max_n"] + 1)
        for r in range(1, limits["max_r"] + 1)
        for k in range(n + 1)
        if r * k <= 2
    )
    assert (report["status"], report["checks"], report["warnings"]) == ("pass", checks, warnings)


def test_every_suite_takes_only_the_cli_limits():
    # oracle-check sets --max-n, --max-r and --seed, and a suite has no
    # other parameter: every other size is a module constant
    for name, suite in oracle.SUITES.items():
        assert set(inspect.signature(suite).parameters) <= {"max_n", "max_r", "seed"}, name


@pytest.mark.parametrize(
    "suite, builder", [(suite_lemma3, "lemma3_failure"), (suite_lemma4, "lemma4_failure")]
)
def test_graph_lemma_builders_decide_every_check(monkeypatch, suite, builder):
    # the builder is the one place that decides a check: one that fails
    # every call fails every check, each with its own tuple and the masks
    # that of(tup) gives, so the suite passes nothing it decided itself
    def failing(self, i, space, q, *rest):
        tup = oracle._nth_tuple(i, self.adj.n, self.degree.trees)
        return {"tuple": tup.id(), "masks": (space, q) == self.of(tup)}

    monkeypatch.setattr(GraphTupleSpaces, builder, failing)
    report = suite(max_n=2, max_r=2)
    assert (report["status"], report["checks"]) == ("fail", 3 + 2 * 5)
    assert report["failures"] == [
        {"tuple": tup.id(), "masks": True}
        for n in (1, 2)
        for r in (1, 2)
        for _ in all_graphs(n)
        for tup in all_tuples(n, r)
    ]


@pytest.mark.parametrize("name", list(oracle.SUITES))
def test_every_suite_skips_at_zero_limits(name):
    # a zero limit leaves no size, whatever the other limit is: neither a
    # fault nor a cap, so one warning says so, nothing runs, and planning
    # never walks the other limit's range
    suite = oracle.SUITES[name]
    params = [p for p in ("max_n", "max_r") if p in inspect.signature(suite).parameters]
    zero = dict.fromkeys(params, 0)
    for limits in [zero] + [zero | {p: 10**9} for p in params if len(params) > 1]:
        assert suite(**limits) == {
            "suite": name,
            "status": "skipped",
            "checks": 0,
            "failures": [],
            "warnings": ["no size within the limits"],
        }


def test_lemma3_small_graphs():
    # the quadratic form of the edgeless graph is zero, so its signed sum
    # is the cardinality of its tuple space, and its trace is 1
    for n in (1, 2):
        edgeless = AdjacencyMatrix.empty(n)
        for r in (1, 2):
            for i, tup in enumerate(all_tuples(n, r)):
                norm = GraphTupleSpaces(edgeless, r).of(tup)[0].bit_count()
                assert invariant_trace(graph_generator(edgeless), tup) == ONE
                for adj in all_graphs(n):
                    spaces = GraphTupleSpaces(adj, r)
                    masks = spaces.of(tup)
                    t = invariant_trace(graph_generator(adj), tup)
                    assert spaces.lemma3_failure(i, *masks, (t.re, t.im), t.scale, norm) is None
                    bad = spaces.lemma3_failure(i, *masks, (2 * t.re, 2 * t.im), t.scale, norm)
                    assert bad["tuple"] == tup.id()
                    assert bad["trace"] == str(2 * t.as_fraction())
                    assert bad["normalization"] == str(norm)


def test_lemma3_reports_a_planted_fault(monkeypatch):
    # a doubled projector for the one-edge graph on 2 qubits scales its
    # traces by 2^r; only a normalization taken from the edgeless graph
    # can notice
    edge = AdjacencyMatrix.from_edges(2, [(1, 2)])
    target = graph_generator(edge).rows
    exact = oracle.rho_from_code

    def planted(gen, signs=None):
        rho = exact(gen, signs)
        return scaled(rho, 2) if gen.rows == target else rho

    checks = suite_lemma3(max_n=2, max_r=2)["checks"]
    monkeypatch.setattr(oracle, "rho_from_code", planted)
    report = suite_lemma3(max_n=2, max_r=2)
    assert report["status"] == "fail"
    assert report["checks"] == checks == 3 + 2 * 5
    tuples = [tup.id() for r in (1, 2) for tup in all_tuples(2, r)]
    assert [(f["graph"], f["tuple"]) for f in report["failures"]] == [
        (to_text(edge.rows, edge.n), t) for t in tuples
    ]


def test_lemma3_reports_a_trace_that_is_not_real(monkeypatch, capsys):
    # i times the one-edge projector gives i * t at r = 1, which has no
    # real value, and -t at r = 2: each is a failure, not an error
    edge = AdjacencyMatrix.from_edges(2, [(1, 2)])
    target = graph_generator(edge).rows
    expected = []
    for r in (1, 2):
        for tup in all_tuples(2, r):
            t = invariant_trace(graph_generator(edge), tup)
            text = str(Dyadic(0, t.re, t.scale)) if r == 1 else str(-t.as_fraction())
            expected.append((to_text(edge.rows, edge.n), tup.id(), text))
    exact = oracle.rho_from_code

    def planted(gen, signs=None):
        rho = exact(gen, signs)
        return scaled(rho, 0, 1) if gen.rows == target else rho

    monkeypatch.setattr(oracle, "rho_from_code", planted)
    report = suite_lemma3(max_n=2, max_r=2)
    assert (report["status"], report["checks"]) == ("fail", 3 + 2 * 5)
    assert [(f["graph"], f["tuple"], f["trace"]) for f in report["failures"]] == expected
    assert expected[0][2] == "Dyadic(re=0, im=1, scale=0)"
    code = cli.main(["oracle-check", "--suite", "lemma3", "--max-n", "2", "--max-r", "2"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["failures"] == report["failures"]


def test_lemma3_reports_a_projector_that_does_not_factor(monkeypatch):
    # one flipped entry of the one-edge projector on 2 qubits leaves no
    # c * s s^T form: each of that graph's checks is a failure that says
    # so, the check count is unchanged, and the other graphs still pass
    edge = AdjacencyMatrix.from_edges(2, [(1, 2)])
    target = graph_generator(edge).rows
    exact = oracle.rho_from_code

    def planted(gen, signs=None):
        rho = exact(gen, signs)
        if gen.rows != target:
            return rho
        re = list(rho.re)
        re[6] = -re[6]  # entry [1, 2]
        return ExactOperator(rho.m, re, rho.im, rho.scale)

    checks = suite_lemma3(max_n=2, max_r=2)["checks"]
    monkeypatch.setattr(oracle, "rho_from_code", planted)
    report = suite_lemma3(max_n=2, max_r=2)
    assert (report["status"], report["checks"]) == ("fail", checks)
    tuples = [tup.id() for r in (1, 2) for tup in all_tuples(2, r)]
    assert [(f["graph"], f["tuple"], f["factors"]) for f in report["failures"]] == [
        (to_text(edge.rows, edge.n), t, False) for t in tuples
    ]
    assert all(set(f) == {"graph", "tuple", "signed_sum", "factors"} for f in report["failures"])


def test_lemma3_identity_tuple_counts():
    adj = AdjacencyMatrix.empty(2)
    tup = identity_tuple(2, 2)
    space, _ = GraphTupleSpaces(adj, 2).of(tup)
    assert space == 1  # only the zero tuple
    assert invariant_trace(graph_generator(adj), tup) == ONE


# -- exact scalar plumbing ----------------------------------------------------


def test_dyadic_normalization_and_log2():
    assert Dyadic(4, 0, 2) == ONE
    assert Dyadic(8, 0, 1).log2() == 2
    assert Dyadic(1, 0, 3).log2() == -3
    assert Dyadic(6, -2, 1) == Dyadic(3, -1, 0)
    with pytest.raises(ValueError):
        Dyadic(3, 0, 0).log2()
    with pytest.raises(ValueError):
        Dyadic(-4, 0, 0).log2()
    with pytest.raises(ValueError):
        Dyadic(0, 2, 0).log2()

