"""Binary symplectic representation of stabilizer codes.

A code of length n and dimension k is a 2n x k full-rank GF(2) matrix S
whose columns are the generators, written as (z-part, x-part) vectors and
satisfying S^T P S = 0 for the symplectic form P = [[0, I], [I, 0]].
Generator phases are not represented; they do not affect the local
equivalence class, and the dense oracle fixes its own +1 convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCodeError, ParseError
from .gf2 import kernel_basis, rank, to_text

_PAULI_TO_BITS = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
_BITS_TO_PAULI = {v: k for k, v in _PAULI_TO_BITS.items()}


def _frozen_bits(array) -> np.ndarray:
    """A read-only copy of a 2-d integer array-like, reduced mod 2."""
    bits = (np.asarray(array, dtype=np.int64) % 2).astype(np.uint8)
    if bits.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got {bits.ndim} dimensions")
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """A valid stabilizer code as its 2n x k binary generator matrix.

    Any 2-d integer array-like is accepted and stored reduced mod 2 as a
    read-only uint8 array, so instances can be shared freely.  Bits that
    are no valid code raise InvalidCodeError naming the first violation,
    so every instance is a valid code.
    """

    matrix: np.ndarray

    def __post_init__(self):
        bits = _frozen_bits(self.matrix)
        violation = validate(bits)
        if violation is not None:
            raise InvalidCodeError(violation, bits.shape)
        object.__setattr__(self, "matrix", bits)

    @property
    def n(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_pauli_strings(cls, strings) -> "GeneratorMatrix":
        """Build from k Pauli strings of uniform length n, e.g. ["XZ", "ZX"]."""
        strings = [s.strip().upper() for s in strings]
        if not strings:
            raise ValueError("need n from at least one Pauli string")
        n = len(strings[0])
        return cls(np.array([_pauli_column(s, n) for s in strings], dtype=np.uint8).T)

    def pauli_strings(self) -> list[str]:
        n = self.n
        out = []
        for j in range(self.k):
            col = self.matrix[:, j]
            out.append("".join(_BITS_TO_PAULI[(int(col[i]), int(col[n + i]))] for i in range(n)))
        return out


def _pauli_column(s: str, n: int) -> list[int]:
    """The (z-part, x-part) bits of one upper-case Pauli string of length n."""
    if len(s) != n:
        raise ValueError(f"Pauli string length mismatch: {s!r}")
    for ch in s:
        if ch not in _PAULI_TO_BITS:
            raise ValueError(f"bad Pauli letter {ch!r} in {s!r}")
    return [_PAULI_TO_BITS[ch][0] for ch in s] + [_PAULI_TO_BITS[ch][1] for ch in s]


def validate(matrix) -> str | None:
    """Return None if a 2n x k bit matrix is a valid code, else the first
    violated property.

    Violations, checked in order: "bad-shape" (an odd row count, or
    k > n), "not-full-rank", "not-self-orthogonal" (some pair of columns
    has symplectic product 1).
    """
    bits = _frozen_bits(matrix)
    n, k = bits.shape[0] // 2, bits.shape[1]
    if bits.shape[0] % 2 or k > n:
        return "bad-shape"
    if rank(bits) != k:
        return "not-full-rank"
    z, x = bits[:n], bits[n:]
    if np.any((z.T @ x + x.T @ z) % 2):
        return "not-self-orthogonal"
    return None


def symplectic_product(a, b) -> int:
    """a^T P b mod 2; zero exactly when the two Pauli operators commute."""
    a = np.asarray(a, dtype=np.int64) % 2
    b = np.asarray(b, dtype=np.int64) % 2
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] % 2 != 0:
        raise ValueError("need two equal-length vectors of even length")
    n = a.shape[0] // 2
    return int(a[:n] @ b[n:] + a[n:] @ b[:n]) % 2


def qubit_rows(gen: GeneratorMatrix, qubits: list[int]) -> np.ndarray:
    """Rows i, then rows n+i, of the dense generator matrix for the listed
    1-based qubits i, as a (2 * len(qubits)) x k 0/1 array."""
    return gen.matrix[[i - 1 for i in qubits] + [gen.n + i - 1 for i in qubits]]


def support(v) -> set[int]:
    """Qubits where the (z, x) coordinate pair of v is nonzero (1-based)."""
    v = np.asarray(v, dtype=np.uint8) % 2
    if v.ndim != 1 or v.shape[0] % 2 != 0:
        raise ValueError("need an even-length vector")
    n = v.shape[0] // 2
    return {i + 1 for i in range(n) if v[i] or v[n + i]}


def code_space(gen: GeneratorMatrix) -> np.ndarray:
    """All 2^k codewords as the rows of a (2^k, 2n) uint8 array."""
    if gen.k == 0:
        return np.zeros((1, 2 * gen.n), dtype=np.uint8)
    coeffs = np.array(list(itertools.product((0, 1), repeat=gen.k)), dtype=np.uint8)
    return (coeffs @ gen.matrix.T) % 2


def restrict_to(gen: GeneratorMatrix, omega) -> GeneratorMatrix:
    """Generator matrix of the code traced down to the qubit subset omega.

    Solves for the coefficient space {x : S_j x = 0 for all j outside
    omega}, maps a basis through S, and drops the coordinate pairs outside
    omega.  S being full rank makes that map injective, so the result is a
    valid code on |omega| qubits.
    """
    omega = sorted(set(omega))
    if omega and not (1 <= omega[0] and omega[-1] <= gen.n):
        raise ValueError("omega must be a subset of 1..n")
    outside = [j for j in range(1, gen.n + 1) if j not in omega]
    basis = kernel_basis(qubit_rows(gen, outside))  # k x d
    inside = GeneratorMatrix(gen.matrix @ basis)  # 2n x d
    return GeneratorMatrix(qubit_rows(inside, omega))


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Symmetric zero-diagonal n x n matrix of a simple graph, stored like
    a generator matrix: reduced mod 2 in a read-only uint8 array."""

    theta: np.ndarray

    def __post_init__(self):
        t = _frozen_bits(self.theta)
        if t.shape[0] != t.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if np.any(t != t.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(t)):
            raise ValueError("adjacency matrix must have a zero diagonal")
        object.__setattr__(self, "theta", t)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @classmethod
    def from_edges(cls, n: int, edges) -> "AdjacencyMatrix":
        dense = np.zeros((n, n), dtype=np.uint8)
        for a, b in edges:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a}, {b}) has a vertex outside 1..{n}")
            if a == b:
                raise ValueError("no loops in a simple graph")
            dense[a - 1, b - 1] = dense[b - 1, a - 1] = 1
        return cls(dense)

    @classmethod
    def empty(cls, n: int) -> "AdjacencyMatrix":
        return cls(np.zeros((n, n), dtype=np.uint8))

    @classmethod
    def complete(cls, n: int) -> "AdjacencyMatrix":
        return cls(np.ones((n, n), dtype=np.uint8) - np.eye(n, dtype=np.uint8))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "AdjacencyMatrix":
        dense = np.zeros((n, n), dtype=np.uint8)
        for i in range(n):
            for j in range(i + 1, n):
                dense[i, j] = dense[j, i] = rng.integers(0, 2)
        return cls(dense)


def all_graphs(n: int):
    """All 2^(n(n-1)/2) simple graphs on n vertices."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for mask in itertools.product((0, 1), repeat=len(pairs)):
        edges = [p for p, keep in zip(pairs, mask) if keep]
        yield AdjacencyMatrix.from_edges(n, edges)


def graph_generator(adj: AdjacencyMatrix) -> GeneratorMatrix:
    """The generator matrix [theta; I] of a graph state; always valid."""
    return GeneratorMatrix(np.vstack([adj.theta, np.eye(adj.n, dtype=np.uint8)]))


# The 6 invertible 2x2 matrices over GF(2), in a fixed order.
INVERTIBLE_2X2: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = tuple(
    sorted(
        ((a, b), (c, d))
        for a, b, c, d in itertools.product((0, 1), repeat=4)
        if (a * d + b * c) % 2 == 1
    )
)


@dataclass(frozen=True)
class LocalCliffordOp:
    """Per-qubit invertible 2x2 binary blocks, one per qubit."""

    blocks: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def __post_init__(self):
        for blk in self.blocks:
            if blk not in INVERTIBLE_2X2:
                raise ValueError(f"block {blk} is not invertible over GF(2)")

    @property
    def n(self) -> int:
        return len(self.blocks)

    @classmethod
    def identity(cls, n: int) -> "LocalCliffordOp":
        return cls((((1, 0), (0, 1)),) * n)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "LocalCliffordOp":
        picks = rng.integers(0, len(INVERTIBLE_2X2), size=n)
        return cls(tuple(INVERTIBLE_2X2[int(p)] for p in picks))

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
    dense = gen.matrix
    n = gen.n
    out = np.zeros_like(dense)
    for i in range(n):
        (a, b), (c, d) = op.blocks[i]
        out[i] = (a * dense[i] + b * dense[n + i]) % 2
        out[n + i] = (c * dense[i] + d * dense[n + i]) % 2
    return GeneratorMatrix(out)


def permute_qubits(gen: GeneratorMatrix, perm) -> GeneratorMatrix:
    """Relabel qubits: qubit i of the result is qubit perm[i-1] of the input."""
    perm = list(perm)
    if sorted(perm) != list(range(1, gen.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    return GeneratorMatrix(qubit_rows(gen, perm))


def same_code_space(a: GeneratorMatrix, b: GeneratorMatrix) -> bool:
    """Column-space equality; codes are compared as spaces, not matrices."""
    if a.n != b.n:
        return False
    if a.k != b.k:
        return False
    return rank(np.hstack([a.matrix, b.matrix])) == rank(a.matrix)


def random_code(n: int, k: int, seed) -> GeneratorMatrix:
    """Deterministic random valid code: a local-Clifford image of the
    first k generators of a random graph code."""
    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    rng = np.random.default_rng(seed)
    adj = AdjacencyMatrix.random(n, rng)
    gen = GeneratorMatrix(graph_generator(adj).matrix[:, :k])
    return apply_local_clifford(LocalCliffordOp.random(n, rng), gen)


# -- code files --------------------------------------------------------------
#
# Bits format:   header "n k", then 2n rows of k characters '0'/'1' (no rows
#                when k = 0).
# Pauli format:  header "pauli", then k Pauli strings of length n.


def parse_code(text: str, fmt: str = "auto") -> GeneratorMatrix:
    """The code in a code file.  A format error raises ParseError with the
    file's own 1-based line; a well-formed file that describes no valid
    code raises InvalidCodeError."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty code file", line=1)
    (header_no, header), body = lines[0], lines[1:]
    detected = "pauli" if header.lower() == "pauli" else "bits"
    if fmt != "auto" and fmt != detected:
        raise ParseError(f"expected {fmt} format but found {detected} header", line=header_no)
    if detected == "pauli":
        if not body:
            raise ParseError("pauli header with no generators", line=header_no)
        cols = []
        for no, ln in body:
            try:
                cols.append(_pauli_column(ln.upper(), len(body[0][1])))
            except ValueError as exc:
                raise ParseError(str(exc), line=no) from exc
        return GeneratorMatrix(np.array(cols, dtype=np.uint8).T)
    parts = header.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ParseError(f"expected header 'n k', got {header!r}", line=header_no)
    n, k = int(parts[0]), int(parts[1])
    # a k = 0 code has 2n empty rows, and blank lines were dropped above
    expected = 2 * n if k else 0
    if len(body) != expected:
        raise ParseError(f"expected {expected} bit rows, found {len(body)}", line=lines[-1][0])
    rows = []
    for no, ln in body:
        if len(ln) != k or set(ln) - {"0", "1"}:
            raise ParseError(f"expected {k} bits, got {ln!r}", line=no)
        rows.append([int(ch) for ch in ln])
    return GeneratorMatrix(np.array(rows, dtype=np.uint8).reshape(2 * n, k))


def format_code(gen: GeneratorMatrix, fmt: str = "bits") -> str:
    if fmt == "pauli":
        return "\n".join(["pauli"] + gen.pauli_strings()) + "\n"
    if fmt != "bits":
        raise ValueError(f"unknown format {fmt!r}")
    header = f"{gen.n} {gen.k}"
    if gen.k == 0:
        return header + "\n"
    return header + "\n" + to_text(gen.matrix) + "\n"
