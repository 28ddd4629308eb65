"""Seeded input codes, built without the library.

A code is a 2n x k generator matrix given as a list of 2n bit rows
(z rows for qubits 1..n, then x rows).  Each code starts as the first k
generators of a random graph state, then gets a random local Clifford
(one invertible 2x2 binary block per qubit) and, where asked, a random
qubit relabelling.  Only Python's own seeded generator is used, so a
change to the library's random_code cannot change the benchmark inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

INVERTIBLE_2X2 = tuple(
    ((a, b), (c, d))
    for a, b, c, d in itertools.product((0, 1), repeat=4)
    if (a * d + b * c) % 2 == 1
)


def graph_code(rng: random.Random, n: int, k: int) -> list[list[int]]:
    """Generators [theta; I] of a random graph on n vertices, first k columns."""
    theta = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            theta[i][j] = theta[j][i] = rng.randrange(2)
    eye = [[int(i == j) for j in range(k)] for i in range(n)]
    return [row[:k] for row in theta] + eye


def local_clifford(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """Apply a random invertible 2x2 block to each qubit's (z, x) row pair."""
    n = len(rows) // 2
    out = [list(row) for row in rows]
    for i in range(n):
        (a, b), (c, d) = rng.choice(INVERTIBLE_2X2)
        z, x = rows[i], rows[n + i]
        out[i] = [(a * zj + b * xj) % 2 for zj, xj in zip(z, x)]
        out[n + i] = [(c * zj + d * xj) % 2 for zj, xj in zip(z, x)]
    return out


def permute(rows: list[list[int]], perm) -> list[list[int]]:
    """Qubit i of the result is qubit perm[i-1] of the input (1-based)."""
    n = len(rows) // 2
    return [list(rows[p - 1]) for p in perm] + [list(rows[n + p - 1]) for p in perm]


def random_code(rng: random.Random, n: int, k: int) -> list[list[int]]:
    return local_clifford(rng, graph_code(rng, n, k))


def random_permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def format_bits(rows: list[list[int]]) -> str:
    """The library's bits file format: 'n k', then 2n rows of k bits."""
    n, k = len(rows) // 2, len(rows[0])
    return f"{n} {k}\n" + "".join("".join(map(str, row)) + "\n" for row in rows)


def write_code(path: Path, rows: list[list[int]]) -> str:
    """Write the code file and return its sha256."""
    data = format_bits(rows).encode("ascii")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
