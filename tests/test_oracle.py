"""Tests for the exact dense-operator oracle."""

import functools
import itertools
import math

import numpy as np
import pytest

from stabinv import oracle
from stabinv.errors import BudgetError
from stabinv.gf2 import to_text
from stabinv.invariants import (
    TreeTuple,
    all_tuples,
    identity_tuple,
    invariant_dim,
    uniform_tuple,
)
from stabinv.oracle import (
    MAX_SUITE_CHECKS,
    Dyadic,
    ExactOperator,
    IndexPermutation,
    closed_form_table,
    cyclic_sum_table,
    invariant_trace,
    lemma3_check,
    lemma4_check,
    pauli_op,
    product_trace,
    quad_form_values,
    rho_from_code,
    rho_graph_formula,
    t_pi,
    suite_lemma1,
    suite_lemma2,
    suite_lemma3,
    suite_lemma4,
    suite_theorem1,
    tau_op,
    tuple_space_basis,
)
from stabinv.stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    LocalCliffordOp,
    all_graphs,
    apply_local_clifford,
    graph_generator,
    random_code,
)
from stabinv.trees import (
    catalan,
    enumerate_trees,
    left_chain,
    maximal_right_paths,
    permutation_of,
    right_chain,
)

ONE = Dyadic(1, 0, 0)


def random_tuple(n, r, rng) -> TreeTuple:
    pool = enumerate_trees(r)
    return TreeTuple(tuple(pool[int(i)] for i in rng.integers(0, len(pool), n)))


def table_index(bits) -> int:
    """Row or column of a cyclic-sum table: copy 1 is the top bit."""
    return int("".join(str(int(b)) for b in bits), 2)


# -- single operators ---------------------------------------------------------


# the one-qubit factors written out; sigma as complex, tau_11 = i sigma_y
SIGMA = {(0, 0): [[1, 0], [0, 1]], (0, 1): [[0, 1], [1, 0]],
         (1, 0): [[1, 0], [0, -1]], (1, 1): [[0, -1j], [1j, 0]]}
TAU = {(0, 0): [[1, 0], [0, 1]], (0, 1): [[0, 1], [1, 0]],
       (1, 0): [[1, 0], [0, -1]], (1, 1): [[0, 1], [-1, 0]]}


def scaled(op: ExactOperator, re: int, im: int = 0) -> ExactOperator:
    """op times the Gaussian integer re + i*im."""
    return ExactOperator(op.m, re * op.re - im * op.im, re * op.im + im * op.re, op.scale)


def test_entry_rule_matches_tensor_products():
    # qubit 1 is the leftmost Kronecker factor; 84 (u, v) pairs for n <= 3
    pairs = 0
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=2 * n):
            u, v = bits[:n], bits[n:]
            factors = list(zip(u, v))
            for op, table in ((tau_op(u, v), TAU), (pauli_op(u, v), SIGMA)):
                expected = functools.reduce(np.kron, [np.array(table[f]) for f in factors])
                assert np.array_equal(op.re + 1j * op.im, expected), (u, v)
            pairs += 1
    assert pairs == 84


def test_zero_vector_gives_identity():
    assert pauli_op([0, 0], [0, 0]).same_as(ExactOperator.identity(2))
    assert tau_op([0, 0], [0, 0]).same_as(ExactOperator.identity(2))


def test_sigma_and_tau_at_11():
    sigma_y = pauli_op([1], [1])
    assert sigma_y.re.tolist() == [[0, 0], [0, 0]]
    assert sigma_y.im.tolist() == [[0, -1], [1, 0]]
    t = tau_op([1], [1])
    assert t.re.tolist() == [[0, 1], [-1, 0]]  # i * sigma_y, real
    assert not np.any(t.im)
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
        assert np.array_equal(op.re, op.re.T)
        assert np.array_equal(op.im, -op.im.T)
        assert (op @ op).same_as(ExactOperator.identity(n))


def test_operator_budget():
    with pytest.raises(BudgetError):
        pauli_op([0] * 13, [0] * 13)


# -- code projectors ----------------------------------------------------------


def test_rho_trivial_code_is_maximally_mixed():
    gen = GeneratorMatrix(np.zeros((4, 0), dtype=np.uint8))
    rho = rho_from_code(gen)
    assert rho.same_as(ExactOperator(2, ExactOperator.identity(2).re,
                                     ExactOperator.identity(2).im, 2))


def test_rho_plus_state():
    gen = GeneratorMatrix([[0], [1]])  # X stabilizer
    rho = rho_from_code(gen)
    assert rho.scale == 1
    assert rho.re.tolist() == [[1, 1], [1, 1]]
    assert not np.any(rho.im)


def test_rho_purity_scaling():
    for trial in range(12):
        n = 1 + trial % 3
        k = trial % (n + 1)
        gen = random_code(n, k, (trial, 31))
        rho = rho_from_code(gen)
        assert rho.trace() == ONE
        square = rho @ rho
        scaled = ExactOperator(rho.m, rho.re * (1 << k), rho.im * (1 << k), 2 * n)
        assert square.same_as(scaled)
        assert (square.trace()).log2() == k - n


def test_rho_sign_flips_change_operator_not_traces():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, n + 1))
        gen = random_code(n, k, (trial, 32))
        signs = tuple(int(s) for s in rng.choice((1, -1), k))
        rho = rho_from_code(gen)
        flipped = rho_from_code(gen, signs=signs)
        assert flipped.trace() == ONE
        tup = random_tuple(n, 2, rng)
        perm = t_pi(tup)
        assert product_trace(perm, [rho] * 2) == product_trace(perm, [flipped] * 2)


def test_graph_formula_matches_group_sum():
    for n in (1, 2, 3):
        for adj in all_graphs(n):
            lhs = rho_graph_formula(adj)
            rhs = rho_from_code(graph_generator(adj))
            assert lhs.same_as(rhs)


def test_graph_formula_empty_single_vertex():
    rho = rho_graph_formula(AdjacencyMatrix.empty(1))
    assert rho.re.tolist() == [[1, 1], [1, 1]]
    assert rho.scale == 1


def test_one_edge_graph_state_is_pure():
    rho = rho_graph_formula(AdjacencyMatrix.from_edges(2, [(1, 2)]))
    assert rho.trace() == ONE
    assert (rho @ rho).same_as(rho)


# -- the copy permutation -----------------------------------------------------


def test_t_pi_identity():
    perm = t_pi(identity_tuple(2, 2))
    assert np.array_equal(perm.image, np.arange(16))


def test_t_pi_transposition_involution():
    perm = t_pi(uniform_tuple(right_chain(2), 2))
    img = perm.image
    assert np.array_equal(img[img], np.arange(16))
    assert not np.array_equal(img, np.arange(16))


def test_index_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        IndexPermutation(1, 1, np.zeros(4, dtype=np.int64))


def test_trace_splits_over_qubits():
    # The trace against a product of tau operators, one (u, v) bit pair per
    # (copy, qubit), is the product over qubits of one cyclic-sum table
    # entry.  The trace is multilinear in each single-qubit factor and the
    # four tau matrices span all 2x2 matrices, so the exhaustive part
    # covers every product operator with n*r <= 4.
    tau = functools.cache(tau_op)

    def splits(tup):
        perm = t_pi(tup)
        tables = [cyclic_sum_table(permutation_of(tree)) for tree in tup.trees]

        def check(u, v):  # r x n bit arrays
            lhs = product_trace(perm, [tau(tuple(u[c]), tuple(v[c])) for c in range(tup.r)])
            rhs = math.prod(
                int(table[table_index(u[:, q]), table_index(v[:, q])])
                for q, table in enumerate(tables)
            )
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
    rng = np.random.default_rng(3)
    for _ in range(30):
        n, r = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        u, v = rng.integers(0, 2, (2, r, n))
        tup = random_tuple(n, r, rng)
        assert splits(tup)(u, v), (tup.id(), u, v)


def test_product_trace_of_identity_counts_fixed_points():
    # one qubit, two copies swapped: the trace of SWAP is 2
    perm = t_pi(uniform_tuple(right_chain(2), 1))
    ident = ExactOperator.identity(1)
    assert product_trace(perm, [ident, ident]) == Dyadic(2, 0, 0)


def test_int64_guard_refuses_before_wrapping():
    # entries near 2^40: the results could reach 2^81 and more, which int64
    # would wrap
    big = ExactOperator(1, np.full((2, 2), (1 << 40) + 1), np.zeros((2, 2)))
    perm = t_pi(identity_tuple(1, 2))
    with pytest.raises(BudgetError, match=r"product trace may reach 2\^82, outside int64"):
        product_trace(perm, [big, big])
    with pytest.raises(BudgetError, match=r"operator product may reach 2\^81, outside int64"):
        big @ big
    # entries 2^29 (1 - i): both bounds stay inside int64 and the values are exact
    near = ExactOperator(1, np.full((2, 2), 1 << 29), np.full((2, 2), -(1 << 29)))
    assert product_trace(perm, [near, near]) == Dyadic(0, -(1 << 61), 0)
    square = near @ near
    assert not square.re.any() and (square.im == -(1 << 60)).all()


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
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(2, 4))
        k = int(rng.integers(0, n + 1))
        gen = random_code(n, k, (trial, 35))
        tup = random_tuple(n, r, rng)
        offset = sum(maximal_right_paths(t).t for t in tup.trees) - n * r
        assert invariant_trace(gen, tup).log2() == invariant_dim(gen, tup) + offset


def test_trace_budget():
    gen = random_code(3, 1, 36)
    with pytest.raises(BudgetError):
        invariant_trace(gen, identity_tuple(3, 3), max_dim=16)


def test_trace_invariant_under_local_clifford():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(0, n + 1))
        gen = random_code(n, k, (trial, 37))
        twin = apply_local_clifford(LocalCliffordOp.random(n, rng), gen)
        tup = random_tuple(n, int(rng.integers(2, 4)), rng)
        assert invariant_trace(gen, tup) == invariant_trace(twin, tup)


# -- cyclic sums --------------------------------------------------------------


def test_cyclic_sum_table_identity_permutation_zero_bits():
    for r in (1, 2, 4):
        table = cyclic_sum_table(permutation_of(left_chain(r)))
        assert table.shape == (1 << r, 1 << r)
        assert table[0, 0] == 1 << r


def test_closed_form_table_zero_outside_path_space():
    table = closed_form_table(right_chain(3))
    assert table[table_index([1, 0, 0]), table_index([0, 0, 0])] == 0
    assert table[table_index([0, 0, 0]), table_index([1, 1, 0])] != 0


def test_lemma2_reports_a_planted_fault(monkeypatch):
    # one wrong entry, at a (u, v) whose transpose and bit reversals all
    # differ, must be reported at exactly that tree, u and v
    tree = enumerate_trees(3)[2]
    exact = oracle.closed_form_table

    def planted(t):
        table = exact(t)
        if t == tree:
            table[table_index([1, 1, 0]), table_index([0, 0, 1])] += 1
        return table

    monkeypatch.setattr(oracle, "closed_form_table", planted)
    report = suite_lemma2(max_r=3)
    assert report["status"] == "fail"
    assert report["checks"] == sum(catalan(r) << (2 * r) for r in (1, 2, 3))
    assert report["failures"] == [{"tree": repr(tree), "u": (1, 1, 0), "v": (0, 0, 1)}]


# -- quadratic-form identities ------------------------------------------------


def test_tuple_space_matches_kernel_dimension():
    rng = np.random.default_rng(6)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        adj = AdjacencyMatrix.random(n, rng)
        tup = random_tuple(n, r, rng)
        basis = tuple_space_basis(adj, tup)
        assert basis.shape[1] == invariant_dim(graph_generator(adj), tup)


def test_quad_form_zero_on_zero_element():
    adj = AdjacencyMatrix.complete(3)
    tup = identity_tuple(3, 2)
    zeros = np.zeros((1, 6), dtype=np.uint8)
    assert quad_form_values(adj, tup, zeros).tolist() == [0]


def test_lemma4_small_graphs():
    for n in (1, 2):
        for adj in all_graphs(n):
            for r in (1, 2, 3):
                for tup in all_tuples(n, r):
                    assert lemma4_check(adj, tup) is None


def test_lemma4_empty_graph_any_tuple():
    rng = np.random.default_rng(7)
    for r in (1, 2, 3):
        tup = random_tuple(3, r, rng)
        assert lemma4_check(AdjacencyMatrix.empty(3), tup) is None


def test_exhaustive_suites_refuse_work_over_budget():
    # projected before any work: lemma2 at max_r=7 needs 7,616,356 checks,
    # lemma4 at max_n=5 needs 2^10 graphs times 5^5 tuples at r=3 alone
    with pytest.raises(BudgetError, match=f"7616356 checks.*budget of {MAX_SUITE_CHECKS}"):
        suite_lemma2(max_r=7)
    with pytest.raises(BudgetError, match=f"budget of {MAX_SUITE_CHECKS}"):
        suite_lemma4(max_n=5)


def test_dense_suites_keep_checks_below_the_budget(monkeypatch):
    # a fault at n=1 must still be reported when n=3 is over budget
    exact = oracle.rho_graph_formula

    def planted(adj, max_dim):
        rho = exact(adj, max_dim)
        return scaled(rho, -1) if adj.n == 1 else rho

    monkeypatch.setattr(oracle, "rho_graph_formula", planted)
    report = suite_lemma1(max_n=3, max_dim=4)
    assert report["status"] == "fail"
    assert report["checks"] == 3
    assert report["warnings"] == ["skipped n=3: 2^3 over budget"]


def test_dense_suites_run_every_size_that_fits():
    report = suite_theorem1(max_n=3, max_r=2, codes_per_k=2, max_dim=4)
    assert (report["status"], report["checks"]) == ("pass", 8)  # n=1: 2 tuples x 4 codes
    assert report["warnings"] == [
        "skipped n=2, r=2: 2^4 over budget",
        "skipped n=3, r=2: 2^6 over budget",
    ]
    report = suite_lemma3(max_n=3, max_r=3, max_dim=16)
    # n=3, r=1 fits after n=2, r=3 does not
    assert (report["status"], report["checks"]) == ("pass", 8 + 2 * 5 + 8)
    assert report["warnings"] == [
        "skipped n=2, r=3: 2^6 over budget",
        "skipped n=3, r=2: 2^6 over budget",
        "skipped n=3, r=3: 2^9 over budget",
    ]
    assert suite_lemma1(max_n=2, max_dim=1)["status"] == "skipped"


def test_lemma3_small_graphs():
    # the quadratic form of the edgeless graph is zero, so its signed sum
    # is the cardinality of its tuple space
    for n in (1, 2):
        edgeless = AdjacencyMatrix.empty(n)
        for r in (1, 2):
            for tup in all_tuples(n, r):
                size = 1 << tuple_space_basis(edgeless, tup).shape[1]
                norm = size / invariant_trace(graph_generator(edgeless), tup).as_fraction()
                for adj in all_graphs(n):
                    trace = invariant_trace(graph_generator(adj), tup).as_fraction()
                    assert lemma3_check(adj, tup, trace, norm) is None
                    bad = lemma3_check(adj, tup, 2 * trace, norm)
                    assert bad["trace"] == str(2 * trace)
                    assert bad["normalization"] == str(norm)


def test_lemma3_reports_a_planted_fault(monkeypatch):
    # a doubled projector for the one-edge graph on 2 qubits scales its
    # traces by 2^r; only a normalization taken from the edgeless graph
    # can notice
    edge = AdjacencyMatrix.from_edges(2, [(1, 2)])
    target = graph_generator(edge).matrix
    exact = oracle.rho_from_code

    def planted(gen, signs=None, max_dim=oracle.DEFAULT_MAX_DIM):
        rho = exact(gen, signs, max_dim)
        return scaled(rho, 2) if np.array_equal(gen.matrix, target) else rho

    checks = suite_lemma3(max_n=2, max_r=2)["checks"]
    monkeypatch.setattr(oracle, "rho_from_code", planted)
    report = suite_lemma3(max_n=2, max_r=2)
    assert report["status"] == "fail"
    assert report["checks"] == checks == 3 + 2 * 5
    tuples = [tup.id() for r in (1, 2) for tup in all_tuples(2, r)]
    assert [(f["graph"], f["tuple"]) for f in report["failures"]] == [
        (to_text(edge.theta), t) for t in tuples
    ]


def test_lemma3_identity_tuple_counts():
    adj = AdjacencyMatrix.empty(2)
    tup = identity_tuple(2, 2)
    assert tuple_space_basis(adj, tup).shape[1] == 0  # only the zero tuple
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

