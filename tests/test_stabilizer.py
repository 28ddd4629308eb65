"""Tests for generator matrices, supports, restriction, and the local
Clifford action."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabinv import oracle
from stabinv.errors import InvalidCodeError, ParseError
from stabinv.gf2 import rank, to_dense
from stabinv.stabilizer import (
    INVERTIBLE_2X2,
    AdjacencyMatrix,
    GeneratorMatrix,
    LocalCliffordOp,
    all_graphs,
    apply_local_clifford,
    code_space,
    format_code,
    graph_generator,
    parse_code,
    permute_qubits,
    qubit_rows,
    random_code,
    restrict_to,
    same_code_space,
    support,
    symplectic_product,
)

SRC = Path(__file__).resolve().parents[1] / "src"
EDGE2 = graph_generator(AdjacencyMatrix.from_edges(2, [(1, 2)]))


def rows_of(a) -> list[int]:
    """The int rows of a 2-d 0/1 array-like: bit c of a row is column c."""
    return [sum(int(v) << c for c, v in enumerate(row)) for row in a]


def violation_of(m) -> str | None:
    """The first violation the constructor raises on a 2-d 0/1 array, or
    None when it builds a code."""
    try:
        GeneratorMatrix(rows_of(m), np.shape(m)[1])
    except InvalidCodeError as exc:
        return exc.violation
    return None


def test_graph_generators_validate():
    rng = random.Random(1)
    for n in range(1, 6):
        adj = AdjacencyMatrix.random(n, rng)
        matrix = np.vstack([to_dense(adj.rows, n), np.eye(n, dtype=np.uint8)])
        gen = graph_generator(adj)
        assert GeneratorMatrix(rows_of(matrix), n) == gen
        assert np.array_equal(to_dense(gen.rows, gen.k), matrix)


def test_duplicate_columns_not_full_rank():
    col = [0, 1, 1, 0]
    assert violation_of(np.array([col, col]).T) == "not-full-rank"


def test_anticommuting_pair_not_self_orthogonal():
    # X on qubit 1 and Z on qubit 1 of a 2-qubit system
    x1 = [0, 0, 1, 0]
    z1 = [1, 0, 0, 0]
    assert symplectic_product(x1, z1) == 1
    assert violation_of(np.array([x1, z1]).T) == "not-self-orthogonal"


def test_a_code_needs_a_qubit():
    # GeneratorMatrix is the one owner of the rule, so every route to a
    # code on 0 qubits meets it
    for route in (lambda: GeneratorMatrix((), 0), lambda: GeneratorMatrix((), 1),
                  lambda: parse_code("0 0\n"), lambda: random_code(0, 0, 1)):
        with pytest.raises(InvalidCodeError, match="^invalid code: bad-shape$") as info:
            route()
        assert info.value.violation == "bad-shape" and info.value.shape[0] == 0


def test_too_many_generators_bad_shape():
    assert violation_of(np.eye(2, dtype=np.uint8)) == "bad-shape"  # n=1, k=2
    assert violation_of(np.zeros((3, 1), dtype=np.uint8)) == "bad-shape"  # odd rows


# X and Z on one qubit; XX twice; X and Z on qubit 1 of two
INVALID = {
    "bad-shape": ["X", "Z"],
    "not-full-rank": ["XX", "XX"],
    "not-self-orthogonal": ["XI", "ZI"],
}


def bits_of(strings):
    """The 2n x k generator matrix of Pauli strings, z-parts on top."""
    z = [[int(ch in "ZY") for ch in s] for s in strings]
    x = [[int(ch in "XY") for ch in s] for s in strings]
    return np.array(z).T.tolist() + np.array(x).T.tolist()


@pytest.mark.parametrize("violation", sorted(INVALID))
@pytest.mark.parametrize("route", ["GeneratorMatrix", "bits", "pauli"])
def test_invalid_bits_never_become_a_code(route, violation):
    # every way outside input becomes a code refuses it, comments and all
    strings = INVALID[violation]
    matrix = bits_of(strings)
    rows, k = len(matrix), len(matrix[0])
    bit_rows = "".join("".join(map(str, row)) + "\n" for row in matrix)
    make = {
        "GeneratorMatrix": lambda: GeneratorMatrix(rows_of(matrix), k),
        "bits": lambda: parse_code(f"# c\n\n{rows // 2} {k}\n{bit_rows}"),
        "pauli": lambda: parse_code("# c\npauli\n" + "\n".join(strings) + "\n"),
    }[route]
    with pytest.raises(InvalidCodeError, match=f"^invalid code: {violation}$") as info:
        make()
    assert (info.value.violation, info.value.shape) == (violation, (rows, k))


def numpy_rank(m) -> int:
    """GF(2) rank by elimination on a dense int64 array."""
    m = np.array(m, dtype=np.int64) % 2
    r = 0
    for c in range(m.shape[1]):
        hits = np.flatnonzero(m[r:, c])
        if hits.size == 0:
            continue
        m[[r, r + hits[0]]] = m[[r + hits[0], r]]
        m[(m[:, c] == 1) & (np.arange(len(m)) != r)] ^= m[r]
        r += 1
        if r == len(m):
            break
    return r


def numpy_violation(m) -> str | None:
    rows, k = m.shape
    n = rows // 2
    if not rows or rows % 2 or k > n:
        return "bad-shape"
    if numpy_rank(m) != k:
        return "not-full-rank"
    z, x = m[:n].astype(np.int64), m[n:].astype(np.int64)
    if np.any((z.T @ x + x.T @ z) % 2):
        return "not-self-orthogonal"
    return None


@st.composite
def bit_matrices(draw):
    """2n x k bit matrices of any shape, half of them a random code kept
    as it is, with one bit flipped or with one column copied onto another,
    so that every verdict comes up."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        gen = random_code(n, draw(st.integers(0, n)), draw(st.integers(0, 2**16)))
        m = to_dense(gen.rows, gen.k)
        edit = draw(st.sampled_from(["none", "flip", "copy"])) if m.size else "none"
        column = st.integers(0, m.shape[1] - 1)
        if edit == "flip":
            m[draw(st.integers(0, len(m) - 1)), draw(column)] ^= 1
        elif edit == "copy":
            m[:, draw(column)] = m[:, draw(column)]
        return m
    rows, k = draw(st.integers(0, 9)), draw(st.integers(0, 5))
    bits = draw(st.lists(st.integers(0, 1), min_size=rows * k, max_size=rows * k))
    return np.array(bits, dtype=np.uint8).reshape(rows, k)


@settings(max_examples=300, deadline=None, database=None)
@given(m=bit_matrices())
def test_int_row_validate_agrees_with_numpy(m):
    violation = numpy_violation(m)
    if violation is None:
        gen = GeneratorMatrix(rows_of(m), m.shape[1])
        assert np.array_equal(to_dense(gen.rows, gen.k), m)
        assert (2 * gen.n, gen.k) == m.shape
    else:
        with pytest.raises(InvalidCodeError, match=f"^invalid code: {violation}$") as info:
            GeneratorMatrix(rows_of(m), m.shape[1])
        assert (info.value.violation, info.value.shape) == (violation, m.shape)


def pairwise_violation(rows, k) -> str | None:
    """The first violation of 2n int rows of k bits, k <= n: the rank, then
    the symplectic product of every pair of generator columns."""
    if rank(rows) != k:
        return "not-full-rank"
    columns = [[(row >> j) & 1 for row in rows] for j in range(k)]
    for a, b in itertools.combinations(columns, 2):
        if symplectic_product(a, b):
            return "not-self-orthogonal"
    return None


def test_validate_agrees_with_pairwise_products():
    # 1,200 seeded row sets with n <= 7 and every k <= n: half of them
    # random bits, half a random code kept as it is, with one bit flipped
    # or with one column copied onto another, so that every verdict comes up
    rng = random.Random(67)
    verdicts = {}
    for t in range(1200):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        if t % 2:
            rows = [rng.getrandbits(k) for _ in range(2 * n)]
        else:
            rows = list(random_code(n, k, seed=(67, t)).rows)
            edit = rng.choice(["none", "flip", "copy"]) if k else "none"
            a, b = rng.randrange(max(k, 1)), rng.randrange(max(k, 1))
            if edit == "flip":
                rows[rng.randrange(2 * n)] ^= 1 << a
            elif edit == "copy":
                rows = [row & ~(1 << a) | (row >> b & 1) << a for row in rows]
        expected = pairwise_violation(rows, k)
        verdicts[expected] = verdicts.get(expected, 0) + 1
        if expected is None:
            assert GeneratorMatrix(rows, k).rows == tuple(rows)
        else:
            with pytest.raises(InvalidCodeError) as info:
                GeneratorMatrix(rows, k)
            assert info.value.violation == expected
    assert min(verdicts.get(v, 0) for v in (None, "not-full-rank", "not-self-orthogonal")) >= 50


def test_validate_walks_set_bits_on_a_large_code():
    # the edgeless graph code on 4,000 qubits is accepted, and its twin
    # whose generator 2 also has Z on qubit 1, which anticommutes with
    # generator 1's X there, is refused; pairwise products would take
    # seconds, the set bits a few milliseconds
    n = 4000
    gen = graph_generator(AdjacencyMatrix.empty(n))
    assert (gen.n, gen.k) == (n, n)
    rows = list(gen.rows)
    rows[0] |= 1 << 1
    first, second = ([(row >> j) & 1 for row in rows] for j in (0, 1))
    assert symplectic_product(first, second) == 1
    with pytest.raises(InvalidCodeError, match="^invalid code: not-self-orthogonal$"):
        GeneratorMatrix(rows, n)


def test_symplectic_self_product_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.integers(0, 2, 2 * n)
        assert symplectic_product(a, a) == 0


def test_symplectic_single_qubit_anticommute():
    assert symplectic_product([1, 0], [0, 1]) == 1


def test_symplectic_two_qubit_example():
    assert symplectic_product([1, 0, 0, 1], [0, 1, 1, 0]) == 0


def test_symplectic_product_takes_only_bits():
    # entries are 0 or 1, as the constructors take them: nothing is
    # reduced mod 2, and numpy 0/1 entries pass
    assert symplectic_product(np.array([1, 0], dtype=np.uint8), np.array([0, 1])) == 1
    with pytest.raises(ValueError, match=r"ints in \[0, 2\^1\)"):
        symplectic_product([2, 0], [0, 1])
    with pytest.raises(ValueError, match=r"ints in \[0, 2\^1\)"):
        symplectic_product([1, 0], [0, -1])
    with pytest.raises(TypeError):
        symplectic_product([1.7, 0], [0, 1])


def test_symplectic_matches_dense_commutator():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        a = rng.integers(0, 2, 2 * n)
        b = rng.integers(0, 2, 2 * n)
        pa = oracle.pauli_op(a[:n], a[n:])
        pb = oracle.pauli_op(b[:n], b[n:])
        commute = (pa @ pb).same_as(pb @ pa)
        assert commute == (symplectic_product(a, b) == 0)


def test_qubit_subblock_graph_structure():
    adj = AdjacencyMatrix.from_edges(3, [(1, 2), (2, 3)])
    gen = graph_generator(adj)
    for j in range(1, 4):
        z_row, x_row = qubit_rows(gen, [j])
        assert [z_row] == rows_of(to_dense(adj.rows, 3)[[j - 1]])
        assert x_row == 1 << (j - 1)  # generator j is the only one with X on qubit j


def test_qubit_subblock_trivial_code():
    gen = GeneratorMatrix([0, 0, 0, 0], 0)
    assert (gen.rows, gen.k) == ((0, 0, 0, 0), 0)
    assert qubit_rows(gen, [2]) == (0, 0)


def test_qubit_subblock_single_qubit():
    gen = GeneratorMatrix([0, 1], 1)
    assert qubit_rows(gen, [1]) == (0, 1)


def test_support_examples():
    assert support([0, 0, 0, 0]) == set()
    assert support([1, 0, 1, 0]) == {1}  # pairs (1,1) and (0,0)
    assert support([0, 1]) == {1}


def test_support_takes_only_bits():
    assert support(np.array([0, 1, 1, 0], dtype=np.uint8)) == {1, 2}
    with pytest.raises(ValueError, match=r"ints in \[0, 2\^1\)"):
        support([0, 2])
    with pytest.raises(TypeError):
        support([0, 1.0])


def test_restrict_full_set_keeps_space():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        gen = random_code(n, k, (trial, n, k))
        out = restrict_to(gen, range(1, n + 1))
        assert same_code_space(out, gen)


def test_restrict_empty_set():
    # the restriction would be a code on 0 qubits, which is no code
    with pytest.raises(InvalidCodeError, match="^invalid code: bad-shape$"):
        restrict_to(EDGE2, set())


def test_restrict_entangled_edge():
    out = restrict_to(EDGE2, {1})
    assert (out.n, out.k) == (1, 0)


def test_restrict_matches_filtered_enumeration():
    rng = np.random.default_rng(6)
    for trial in range(15):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(0, n + 1))
        gen = random_code(n, k, (trial, 99))
        for size in range(1, n + 1):
            for omega in itertools.combinations(range(1, n + 1), size):
                out = restrict_to(gen, omega)  # built, so a valid code
                keep = [i - 1 for i in omega] + [n + i - 1 for i in omega]
                filtered = {
                    tuple(word[j] for j in keep)
                    for word in code_space(gen)
                    if support(word) <= set(omega)
                }
                restricted = set(code_space(out))
                assert filtered == restricted


def test_graph_generator_examples():
    single = graph_generator(AdjacencyMatrix.empty(1))
    assert to_dense(single.rows, single.k).tolist() == [[0], [1]]
    pair = graph_generator(AdjacencyMatrix.complete(2))
    assert to_dense(pair.rows, pair.k).tolist() == [[0, 1], [1, 0], [1, 0], [0, 1]]
    triple = graph_generator(AdjacencyMatrix.empty(3))
    assert np.array_equal(to_dense(triple.rows[3:], 3), np.eye(3, dtype=np.uint8))


def test_adjacency_rejects_asymmetry_and_loops():
    with pytest.raises(ValueError):
        AdjacencyMatrix([0b10, 0b00])
    with pytest.raises(ValueError):
        AdjacencyMatrix([0b01, 0b00])


def test_constructors_take_int_rows_only():
    for seed in range(10):
        gen = random_code(4, seed % 5, seed)
        dense = to_dense(gen.rows, gen.k)
        again = GeneratorMatrix(rows_of(dense), gen.k)
        assert again == gen and np.array_equal(to_dense(again.rows, again.k), dense)
    adj = AdjacencyMatrix.from_edges(3, [(1, 2), (2, 3)])
    assert adj.rows == (0b010, 0b101, 0b010)
    assert AdjacencyMatrix(rows_of(to_dense(adj.rows, adj.n))) == adj
    # a 0/1 matrix is no int rows, and no entry is reduced mod 2: the bits
    # that once made the X code and the edge graph build nothing
    with pytest.raises(TypeError):
        GeneratorMatrix([[2], [1]])
    for bad in (lambda: GeneratorMatrix([[2], [1]], 1),
                lambda: GeneratorMatrix(["1", "0"], 1),
                lambda: AdjacencyMatrix([[0, 3], [-1, 0]])):
        with pytest.raises(TypeError):
            bad()
    # rows wider than the matrix, and graphs that are not simple, are refused
    for bad in (lambda: GeneratorMatrix([2, 1], 1),
                lambda: GeneratorMatrix([-1, 0], 1),
                lambda: AdjacencyMatrix([0b1000, 0, 0]),
                lambda: AdjacencyMatrix([0b10, 0b00]),
                lambda: AdjacencyMatrix([0b01, 0b00])):
        with pytest.raises(ValueError):
            bad()


def test_from_edges_rejects_labels_outside_range():
    # labels are 1-based: 0 must not wrap around to vertex n
    with pytest.raises(ValueError, match=r"edge \(0, 1\) has a vertex outside 1\.\.3"):
        AdjacencyMatrix.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError, match=r"edge \(1, 4\) has a vertex outside 1\.\.3"):
        AdjacencyMatrix.from_edges(3, [(1, 4)])


def test_six_invertible_blocks():
    assert len(INVERTIBLE_2X2) == 6


def test_identity_clifford_fixes_code():
    op = LocalCliffordOp.identity(2)
    out = apply_local_clifford(op, EDGE2)
    assert np.array_equal(to_dense(out.rows, out.k), to_dense(EDGE2.rows, EDGE2.k))


def test_swap_block_exchanges_roles():
    gen = GeneratorMatrix([0, 1], 1)  # X generator
    op = LocalCliffordOp((((0, 1), (1, 0)),))
    out = apply_local_clifford(op, gen)
    assert to_dense(out.rows, out.k).tolist() == [[1], [0]]  # now Z


def test_clifford_preserves_validity():
    rng = random.Random(7)
    for trial in range(25):
        n = rng.randrange(1, 5)
        k = rng.randrange(0, n + 1)
        gen = random_code(n, k, (trial, 3))
        op = LocalCliffordOp.random(n, rng)
        out = apply_local_clifford(op, gen)  # built, so a valid code
        assert (out.n, out.k) == (gen.n, gen.k)


def test_clifford_inverse_restores_space():
    rng = random.Random(8)
    for trial in range(25):
        n = rng.randrange(1, 5)
        gen = random_code(n, rng.randrange(0, n + 1), (trial, 4))
        op = LocalCliffordOp.random(n, rng)
        back = apply_local_clifford(op.inverse(), apply_local_clifford(op, gen))
        assert same_code_space(back, gen)


def test_full_rank_column_subsets_validate():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(1, 5))
        gen = random_code(n, n, (trial, 5))
        for size in range(n + 1):
            for pick in itertools.combinations(range(n), size):
                sub = rows_of(to_dense(gen.rows, gen.k)[:, list(pick)])
                if rank(sub) == size:
                    assert GeneratorMatrix(sub, size).k == size


def test_random_code_deterministic():
    a = random_code(4, 2, 123)
    b = random_code(4, 2, 123)
    c = random_code(4, 2, 124)
    assert np.array_equal(to_dense(a.rows, a.k), to_dense(b.rows, b.k))
    assert not np.array_equal(to_dense(c.rows, c.k), to_dense(a.rows, a.k))


def test_random_code_is_the_same_in_every_process():
    # the generator is seeded from repr(seed), which no hash randomisation
    # enters, so an int and a tuple seed each give one code in any child
    script = (
        "from stabinv.stabilizer import random_code\n"
        "print([random_code(5, 3, seed).rows for seed in (7, (0, 5, 3, 1))])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    expected = f"{[random_code(5, 3, seed).rows for seed in (7, (0, 5, 3, 1))]}\n"
    assert outputs == [expected, expected]


def test_random_code_trivial_and_full():
    empty = random_code(3, 0, 0)
    assert (empty.n, empty.k) == (3, 0)
    full = random_code(3, 3, 0)
    assert (full.n, full.k) == (3, 3)


def test_permute_qubits_roundtrip():
    gen = random_code(4, 3, 42)
    perm = (3, 1, 4, 2)
    inverse = tuple(perm.index(i) + 1 for i in range(1, 5))
    back = permute_qubits(permute_qubits(gen, perm), inverse)
    assert np.array_equal(to_dense(back.rows, back.k), to_dense(gen.rows, gen.k))


def test_same_code_space_ignores_change_of_basis():
    rng = np.random.default_rng(10)
    gen = random_code(4, 3, 77)
    # right-multiply by an invertible change of basis: same column space
    while True:
        basis = rng.integers(0, 2, size=(3, 3), dtype=np.uint8)
        if rank(rows_of(basis)) == 3:
            break
    other = GeneratorMatrix(rows_of(to_dense(gen.rows, gen.k) @ basis % 2), 3)
    assert same_code_space(gen, other)


def test_pauli_string_roundtrip():
    gen = parse_code("pauli\nXZ\nZY\n")
    assert gen.pauli_strings() == ["XZ", "ZY"]
    assert (gen.n, gen.k) == (2, 2)
    with pytest.raises(ParseError, match="^line 3: bad Pauli letter 'Q' in 'XQ'$"):
        parse_code("pauli\nXZ\nXQ\n")
    # of several bad letters the first is named, after upper-casing
    with pytest.raises(ParseError, match="^line 2: bad Pauli letter '-' in 'XZ-Q'$"):
        parse_code("pauli\nxz-q\n")


def test_pauli_and_bits_files_give_the_same_code():
    # the Pauli reader translates whole strings; the bits reader takes
    # rows, so each checks the other, lower case and Y included
    rng = random.Random(69)
    letters = set()
    for t in range(240):
        n = rng.randint(1, 8)
        gen = random_code(n, rng.randint(1, n), (69, t))
        text = "".join(ch.lower() if rng.getrandbits(1) else ch for ch in format_code(gen, "pauli"))
        letters |= set(text.upper())
        assert parse_code(text) == parse_code(format_code(gen, "bits")) == gen
    assert set("IXYZ") <= letters


def test_code_file_roundtrip_bits():
    for gen in (EDGE2, random_code(3, 0, 1)):
        back = parse_code(format_code(gen, "bits"))
        assert (back.n, back.k) == (gen.n, gen.k)
        assert np.array_equal(to_dense(back.rows, back.k), to_dense(gen.rows, gen.k))
    assert format_code(random_code(3, 0, 1)) == "3 0\n"


def test_code_file_roundtrip_pauli():
    text = format_code(EDGE2, "pauli")
    back = parse_code(text)
    assert same_code_space(back, EDGE2)


def test_code_file_roundtrip_every_k():
    # both formats give back the same code; the pauli format, which has
    # no n of its own, refuses a code with no generator
    for n in range(1, 4):
        for k in range(n + 1):
            gen = random_code(n, k, (n, k))
            assert parse_code(format_code(gen, "bits")) == gen
            if k:
                assert parse_code(format_code(gen, "pauli")) == gen
            else:
                with pytest.raises(ValueError, match="^the pauli format cannot hold"):
                    format_code(gen, "pauli")


def test_parse_code_errors():
    with pytest.raises(ParseError):
        parse_code("")
    with pytest.raises(ParseError):
        parse_code("2 2\n01\n10\n")  # truncated body
    with pytest.raises(ParseError):
        parse_code("2 2\n01\n10\n1x\n01\n")
    with pytest.raises(ParseError):
        parse_code("pauli\n")  # the header names the format, but no generator follows
    # the header alone decides the format
    assert parse_code("pauli\nXZ\nZX\n").rows == parse_code("2 2\n01\n10\n10\n01\n").rows


@pytest.mark.parametrize(
    "text, line",
    [
        ("# c\n\n2 1\n0\n1\n1\nx\n", 7),
        ("pauli\nXZ\n# c\nZXX\n", 4),
        ("pauli\nXZ\nZQ\n", 3),
        ("\n# c\n2 x\n", 3),
        ("# c\n2 1\n0\n\n1\n", 5),
    ],
    ids=["bit-row", "pauli-length", "pauli-letter", "header", "row-count"],
)
def test_parse_error_names_the_files_own_line(text, line):
    with pytest.raises(ParseError, match=f"^line {line}: ") as info:
        parse_code(text)
    assert info.value.line == line


def test_all_graphs_count():
    assert len(list(all_graphs(3))) == 8
    assert len(list(all_graphs(1))) == 1
