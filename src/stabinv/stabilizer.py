"""Binary symplectic representation of stabilizer codes.

A code of length n and dimension k is a 2n x k full-rank GF(2) matrix S
whose columns are the generators, written as (z-part, x-part) vectors and
satisfying S^T P S = 0 for the symplectic form P = [[0, I], [I, 0]].
Generator phases are not represented; they do not affect the local
equivalence class, and the dense oracle fixes its own +1 convention.

Codes and graphs are made from Python-int rows (see gf2) by their
constructors and hand out nothing else.  Random codes, graphs and local
Cliffords draw from the standard library's random.Random, so no function
here loads numpy.
"""

from __future__ import annotations

import itertools
import operator
import random

from .errors import Frozen, InvalidCodeError, ParseError
from .gf2 import kernel_basis, rank, set_bits, to_text, transpose

_BITS_TO_PAULI = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}
# a Pauli letter's z and x bit, as the digit characters int(..., 2) reads
_Z_DIGITS = str.maketrans("IXZY", "0011")
_X_DIGITS = str.maketrans("IXZY", "0101")


def check_rows(rows, bits: int) -> tuple[int, ...]:
    """The rows as ints in [0, 2^bits), a bit vector's entries being rows
    of 1 bit: a row that is no int raises TypeError and one out of range
    ValueError, so nothing is reduced mod 2."""
    rows = tuple(map(operator.index, rows))
    if any(row >> bits for row in rows):
        raise ValueError(f"rows must be ints in [0, 2^{bits})")
    return rows


class GeneratorMatrix(Frozen):
    """A valid stabilizer code as its 2n x k binary generator matrix.

    Made from 2n int rows of k bits, bit l of row i being entry (i, l), so
    bit l belongs to generator l + 1.  A row that is no int raises TypeError
    (a 0/1 matrix is refused, not reduced mod 2), one outside [0, 2^k)
    ValueError, and bits that are no code InvalidCodeError with the first
    violated property, in order: "bad-shape" (no rows, an odd row count,
    or k > n), "not-full-rank", "not-self-orthogonal" (two anticommuting
    columns).  Every instance is a valid code on at least one qubit; ==
    compares matrices, same_code_space codes.
    """

    __slots__ = ("rows", "k")

    def __init__(self, rows, k: int):
        rows = check_rows(rows, k)
        violation = _violation(rows, k)
        if violation is not None:
            raise InvalidCodeError(violation, (len(rows), k))
        super().__init__(rows, k)

    @property
    def n(self) -> int:
        return len(self.rows) // 2

    def pauli_strings(self) -> list[str]:
        z, x = self.rows[: self.n], self.rows[self.n :]
        return [
            "".join(_BITS_TO_PAULI[((zi >> j) & 1, (xi >> j) & 1)] for zi, xi in zip(z, x))
            for j in range(self.k)
        ]


def _pauli_column(s: str, n: int) -> int:
    """One upper-case Pauli string of length n as a 2n-bit generator
    column: bit i-1 is the z-part of qubit i, bit n+i-1 its x-part."""
    if len(s) != n:
        raise ValueError(f"Pauli string length mismatch: {s!r}")
    if bad := set(s) - set("IXYZ"):
        raise ValueError(f"bad Pauli letter {next(ch for ch in s if ch in bad)!r} in {s!r}")
    # letter i is bit i, so the reversed string reads as the int
    s = s[::-1]
    return int(s.translate(_Z_DIGITS), 2) | int(s.translate(_X_DIGITS), 2) << n


def _violation(rows: tuple[int, ...], k: int) -> str | None:
    """The first violated property of 2n int rows of k bits, or None."""
    n = len(rows) // 2
    if not rows or len(rows) % 2 or k > n:
        return "bad-shape"
    if rank(rows) != k:
        return "not-full-rank"
    # generators a and b anticommute when z_a.x_b + x_a.z_b is odd, that is
    # when M = Z^T X, Z and X the z and x rows, is not symmetric; row a of M
    # is the XOR of the x rows of the qubits whose z row has bit a set
    zx = [0] * k
    for z, x in zip(rows[:n], rows[n:]):
        for a in set_bits(z):
            zx[a] ^= x
    if transpose(zx, k) != tuple(zx):
        return "not-self-orthogonal"
    return None


def symplectic_product(a, b) -> int:
    """a^T P b mod 2; zero exactly when the two Pauli operators commute."""
    a, b = check_rows(a, 1), check_rows(b, 1)
    if len(a) != len(b) or len(a) % 2:
        raise ValueError("need two equal-length vectors of even length")
    n = len(a) // 2
    return sum(a[i] * b[n + i] + a[n + i] * b[i] for i in range(n)) % 2


def qubit_rows(gen: GeneratorMatrix, qubits) -> tuple[int, ...]:
    """Rows i, then rows n+i, of the generator matrix for the listed
    1-based qubits i: the int rows of a (2 * len(qubits)) x k matrix."""
    return tuple(gen.rows[i - 1] for i in qubits) + tuple(gen.rows[gen.n + i - 1] for i in qubits)


def support(v) -> set[int]:
    """Qubits where the (z, x) coordinate pair of v is nonzero (1-based)."""
    v = check_rows(v, 1)
    if len(v) % 2:
        raise ValueError("need an even-length vector")
    n = len(v) // 2
    return {i + 1 for i in range(n) if v[i] or v[n + i]}


def code_space(gen: GeneratorMatrix) -> list[tuple[int, ...]]:
    """All 2^k codewords as tuples of 2n bits, one per coefficient vector
    in itertools.product order."""
    words = []
    for coeffs in itertools.product((0, 1), repeat=gen.k):
        mask = sum(c << j for j, c in enumerate(coeffs))
        words.append(tuple((row & mask).bit_count() & 1 for row in gen.rows))
    return words


def qubit_subset(omega, n: int) -> set[int]:
    """omega as a set of qubits, each of which must lie in 1..n."""
    if outside := (omega := set(omega)) - set(range(1, n + 1)):
        raise ValueError(f"omega {sorted(omega)} has qubits {sorted(outside)} outside 1..{n}")
    return omega


def subcode_basis(gen: GeneratorMatrix, omega) -> tuple[int, ...]:
    """Coefficient basis of the codewords supported inside the qubit
    subset omega: of {x : S_j x = 0 for all j outside omega}, as k-bit
    ints.  S being full rank, its length is the subcode's dimension."""
    outside = set(range(1, gen.n + 1)) - qubit_subset(omega, gen.n)
    return kernel_basis(qubit_rows(gen, sorted(outside)), gen.k)


def restrict_to(gen: GeneratorMatrix, omega) -> GeneratorMatrix:
    """Generator matrix of the code traced down to the qubit subset omega.

    Maps the subcode basis of omega through S and drops the coordinate
    pairs outside omega.  S being full rank makes that map injective, so
    the result is a valid code on |omega| qubits; a code has at least one,
    so an empty omega raises InvalidCodeError (bad-shape).
    """
    omega = sorted(set(omega))
    basis = subcode_basis(gen, omega)
    # bit j of row i is coordinate i of the codeword S x_j
    inside = [
        sum(((row & x).bit_count() & 1) << j for j, x in enumerate(basis)) for row in gen.rows
    ]
    rows = [inside[i - 1] for i in omega] + [inside[gen.n + i - 1] for i in omega]
    return GeneratorMatrix(rows, len(basis))


class AdjacencyMatrix(Frozen):
    """Symmetric zero-diagonal n x n matrix of a simple graph, held like a
    generator matrix: n int rows, bit j of row i the entry (i, j).  The
    constructor refuses rows as a code's does, and a graph that is not simple."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = check_rows(rows, len(rows))
        if transpose(rows, len(rows)) != rows:
            raise ValueError("adjacency matrix must be symmetric")
        if any((row >> i) & 1 for i, row in enumerate(rows)):
            raise ValueError("adjacency matrix must have a zero diagonal")
        super().__init__(rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_edges(cls, n: int, edges) -> "AdjacencyMatrix":
        rows = [0] * n
        for a, b in edges:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a}, {b}) has a vertex outside 1..{n}")
            if a == b:
                raise ValueError("no loops in a simple graph")
            rows[a - 1] |= 1 << (b - 1)
            rows[b - 1] |= 1 << (a - 1)
        return cls(rows)

    @classmethod
    def empty(cls, n: int) -> "AdjacencyMatrix":
        return cls([0] * n)

    @classmethod
    def complete(cls, n: int) -> "AdjacencyMatrix":
        return cls([((1 << n) - 1) ^ (1 << i) for i in range(n)])

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "AdjacencyMatrix":
        """One fair coin per vertex pair, rng.getrandbits(1), pairs in
        row-major order."""
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.getrandbits(1):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return cls(rows)


def all_graphs(n: int):
    """All 2^(n(n-1)/2) simple graphs on n vertices."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, keep in zip(pairs, mask) if keep]
        yield AdjacencyMatrix.from_edges(n, edges)


def graph_generator(adj: AdjacencyMatrix) -> GeneratorMatrix:
    """The generator matrix [theta; I] of a graph state; always valid."""
    return GeneratorMatrix(adj.rows + tuple(1 << i for i in range(adj.n)), adj.n)


# The 6 invertible 2x2 matrices over GF(2), in a fixed order.
INVERTIBLE_2X2: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    sorted(
        ((a, b), (c, d))
        for a, b, c, d in itertools.product((0, 1), repeat=4)
        if (a * d + b * c) % 2 == 1
    )
)


class LocalCliffordOp(Frozen):
    """Per-qubit invertible 2x2 binary blocks, one per qubit."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[tuple[int, int], tuple[int, int]], ...]):
        for blk in blocks:
            if blk not in INVERTIBLE_2X2:
                raise ValueError(f"block {blk} is not invertible over GF(2)")
        super().__init__(blocks)

    @property
    def n(self) -> int:
        return len(self.blocks)

    @classmethod
    def identity(cls, n: int) -> "LocalCliffordOp":
        return cls((((1, 0), (0, 1)),) * n)

    @classmethod
    def random(cls, n: int, rng: random.Random) -> "LocalCliffordOp":
        """One block per qubit, rng.choice(INVERTIBLE_2X2), qubit 1 first."""
        return cls(tuple(rng.choice(INVERTIBLE_2X2) for _ in range(n)))

    def inverse(self) -> "LocalCliffordOp":
        inv = []
        for (a, b), (c, d) in self.blocks:
            # adjugate equals inverse when the determinant is 1
            inv.append(((d, b), (c, a)))
        return LocalCliffordOp(tuple(inv))


def apply_local_clifford(op: LocalCliffordOp, gen: GeneratorMatrix) -> GeneratorMatrix:
    """Left-multiply by the block matrix with diagonal A, B, C, D parts.

    Row i (z-part) becomes a_i*z_i + b_i*x_i and row n+i becomes
    c_i*z_i + d_i*x_i; each invertible block preserves the per-qubit
    symplectic form, so validity is preserved.
    """
    if op.n != gen.n:
        raise ValueError("qubit count mismatch")
    n = gen.n
    z_rows, x_rows = [], []
    for ((a, b), (c, d)), z, x in zip(op.blocks, gen.rows[:n], gen.rows[n:]):
        z_rows.append((a * z) ^ (b * x))
        x_rows.append((c * z) ^ (d * x))
    return GeneratorMatrix(z_rows + x_rows, gen.k)


def permute_qubits(gen: GeneratorMatrix, perm) -> GeneratorMatrix:
    """Relabel qubits: qubit i of the result is qubit perm[i-1] of the input."""
    perm = list(perm)
    if sorted(perm) != list(range(1, gen.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    return GeneratorMatrix(qubit_rows(gen, perm), gen.k)


def same_code_space(a: GeneratorMatrix, b: GeneratorMatrix) -> bool:
    """Column-space equality; codes are compared as spaces, not matrices."""
    if a.n != b.n:
        return False
    if a.k != b.k:
        return False
    return rank(ra | (rb << a.k) for ra, rb in zip(a.rows, b.rows)) == a.k


def random_code(n: int, k: int, seed) -> GeneratorMatrix:
    """Deterministic random valid code: a local-Clifford image of the
    first k generators of a random graph code, drawn from a random.Random
    seeded with repr(seed), so an int or a tuple of ints gives the same
    code in every process, whatever PYTHONHASHSEED is.  A code has at
    least one qubit, so n = 0 raises InvalidCodeError (bad-shape)."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    rng = random.Random(repr(seed))
    adj = AdjacencyMatrix.random(n, rng)
    low = (1 << k) - 1
    gen = GeneratorMatrix([row & low for row in graph_generator(adj).rows], k)
    return apply_local_clifford(LocalCliffordOp.random(n, rng), gen)


# -- code files --------------------------------------------------------------
#
# Bits format:   header "n k", then 2n rows of k characters '0'/'1' (no rows
#                when k = 0).
# Pauli format:  header "pauli", then k Pauli strings of length n.


def parse_code(text: str) -> GeneratorMatrix:
    """The code in a code file, in the format its header names.  A format
    error raises ParseError with the file's own 1-based line; a well-formed
    file that describes no valid code raises InvalidCodeError."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty code file", line=1)
    (header_no, header), body = lines[0], lines[1:]
    if header.lower() == "pauli":
        if not body:
            raise ParseError("pauli header with no generators", line=header_no)
        n = len(body[0][1])
        cols = []
        for no, ln in body:
            try:
                cols.append(_pauli_column(ln.upper(), n))
            except ValueError as exc:
                raise ParseError(str(exc), line=no) from exc
        return GeneratorMatrix(transpose(cols, 2 * n), len(cols))
    parts = header.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ParseError(f"expected header 'n k', got {header!r}", line=header_no)
    n, k = int(parts[0]), int(parts[1])
    # a k = 0 code has 2n empty rows, and blank lines were dropped above
    expected = 2 * n if k else 0
    if len(body) != expected:
        raise ParseError(f"expected {expected} bit rows, found {len(body)}", line=lines[-1][0])
    for no, ln in body:
        if len(ln) != k or set(ln) - {"0", "1"}:
            raise ParseError(f"expected {k} bits, got {ln!r}", line=no)
    # column c is character c, so the reversed row reads as the int row
    rows = [int(ln[::-1], 2) for _, ln in body] if k else [0] * (2 * n)
    return GeneratorMatrix(rows, k)


def format_code(gen: GeneratorMatrix, fmt: str = "bits") -> str:
    """The code as parse_code reads it.  The pauli format gives n only
    through its generators, so a code with none has only the bits format."""
    if fmt == "pauli":
        if gen.k == 0:
            raise ValueError("the pauli format cannot hold a code with no generator")
        return "\n".join(["pauli"] + gen.pauli_strings()) + "\n"
    if fmt != "bits":
        raise ValueError(f"unknown format {fmt!r}")
    header = f"{gen.n} {gen.k}"
    if gen.k == 0:
        return header + "\n"
    return header + "\n" + to_text(gen.rows, gen.k) + "\n"
