"""Exact dense-operator oracle for the binary invariant engine.

Everything here is integer arithmetic: operators are dense int64 arrays
of Gaussian integers over an explicit power-of-2 denominator, so every
identity is checked exactly.  A product or trace whose result could leave
the int64 range raises BudgetError before it starts; every size the dense
budget admits stays far inside it.  This module exists to certify the
GF(2) engines at desk scale, not to simulate anything large.

Conventions, fixed once and used consistently:

* Basis order: qubit 1 is the most significant bit inside a copy; copies
  are ordered 1..r, most significant first.
* tau operators are the real Pauli variant, all built from one entry
  rule: (tau_(u,v))[x, y] = (-1)^(u.x) * [x + y = v].  On one qubit
  tau_11 = i*sigma_y = [[0, 1], [-1, 0]], and sigma_(u,v) =
  (-i)^(u.v) tau_(u,v).  They satisfy
  tau_(u,v) tau_(u',v') = (-1)^(v.u') tau_(u+u', v+v').
* The copy permutation acts by sending the component at (copy c, qubit i)
  to the component at (copy pi_i(c), qubit i), and the pairing in the
  cyclic sums below is oriented to match, so that the trace against a
  product operator factorizes through them qubit by qubit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BudgetError
from .gf2 import kernel_basis, to_text
from .invariants import MAX_ENUM, TreeTuple, all_tuples, invariant_dim, theorem2_dim
from .stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    all_graphs,
    graph_generator,
    random_code,
)
from .trees import (
    BinaryTree,
    catalan,
    d_matrix,
    enumerate_trees,
    maximal_right_paths,
    permutation_of,
    v_space_dimension,
)

DEFAULT_MAX_DIM = 4096  # dense dimension 2^(n*r); n*r <= 12 by default
# Largest projected check count of the exhaustive lemma2 and lemma4 suites.
MAX_SUITE_CHECKS = 1 << 20


@dataclass(frozen=True)
class Dyadic:
    """(re + i*im) / 2^scale with integer re and im, kept normalized."""

    re: int
    im: int
    scale: int

    def __post_init__(self):
        re, im, scale = self.re, self.im, self.scale
        if re == 0 and im == 0:
            scale = 0
        while scale > 0 and re % 2 == 0 and im % 2 == 0:
            re, im, scale = re // 2, im // 2, scale - 1
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "scale", scale)

    def log2(self) -> int:
        """Exact log2; requires a real, positive power-of-2 value."""
        if self.im != 0:
            raise ValueError(f"value {self} is not real")
        if self.re <= 0:
            raise ValueError(f"value {self} is not positive")
        if self.re & (self.re - 1):
            raise ValueError(f"value {self} is not a power of 2")
        return self.re.bit_length() - 1 - self.scale

    def as_fraction(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"value {self} is not real")
        return Fraction(self.re, 1 << self.scale)


def _check_int64(what: str, bound: int) -> None:
    """Refuse a computation whose results are only bounded by `bound`."""
    if bound >= 1 << 63:
        raise BudgetError(f"{what} may reach 2^{bound.bit_length() - 1}, outside int64")


def _magnitude(op: "ExactOperator") -> int:
    """An upper bound on |re| + |im| over the entries of op, as a Python int."""
    return int(np.abs(op.re).max()) + int(np.abs(op.im).max())


class ExactOperator:
    """Dense 2^m x 2^m operator with int64 Gaussian-integer entries / 2^scale."""

    __slots__ = ("m", "scale", "re", "im")

    def __init__(self, m: int, re: np.ndarray, im: np.ndarray, scale: int = 0):
        dim = 1 << m
        re = np.asarray(re, dtype=np.int64)
        im = np.asarray(im, dtype=np.int64)
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise ValueError("entry arrays do not match the qubit count")
        self.m = m
        self.scale = scale
        self.re = re
        self.im = im

    @property
    def dim(self) -> int:
        return 1 << self.m

    @classmethod
    def identity(cls, m: int) -> "ExactOperator":
        dim = 1 << m
        return cls(m, np.eye(dim, dtype=np.int64), np.zeros((dim, dim), dtype=np.int64))

    def __matmul__(self, other: "ExactOperator") -> "ExactOperator":
        if self.m != other.m:
            raise ValueError("operator sizes differ")
        _check_int64("operator product", self.dim * _magnitude(self) * _magnitude(other))
        re = self.re @ other.re - self.im @ other.im
        im = self.re @ other.im + self.im @ other.re
        return ExactOperator(self.m, re, im, self.scale + other.scale)

    def trace(self) -> Dyadic:
        return Dyadic(int(np.trace(self.re)), int(np.trace(self.im)), self.scale)

    def same_as(self, other: "ExactOperator") -> bool:
        """Exact equality of the represented operators."""
        if self.m != other.m:
            return False
        s = max(self.scale, other.scale)
        fa = 1 << (s - self.scale)
        fb = 1 << (s - other.scale)
        # a factor of 2^63 or more overflows even on a zero operator
        _check_int64(
            "rescaled operator",
            max(fa * max(_magnitude(self), 1), fb * max(_magnitude(other), 1)),
        )
        return bool(
            np.array_equal(self.re * fa, other.re * fb)
            and np.array_equal(self.im * fa, other.im * fb)
        )

    def __repr__(self) -> str:
        return f"ExactOperator(m={self.m}, scale={self.scale})"


def _check_dim(m: int, max_dim: int):
    if 1 << m > max_dim:
        raise BudgetError(f"dense dimension 2^{m} exceeds budget {max_dim}")


def _parity(a: np.ndarray, r: int) -> np.ndarray:
    out = np.zeros_like(a)
    for b in range(r):
        out ^= (a >> b) & 1
    return out


def _tau_entries(u, v, max_dim: int) -> np.ndarray:
    """tau_(u,v) by its entry rule: [x, y] is (-1)^(u.x) if x + y = v, else 0.

    u and v are bit rows, one bit per qubit, qubit 1 the top bit of x and y.
    """
    if len(u) != len(v):
        raise ValueError("u and v must have equal length")
    n = len(u)
    _check_dim(n, max_dim)
    ui = vi = 0
    for a, b in zip(u, v):
        ui, vi = (ui << 1) | (int(a) % 2), (vi << 1) | (int(b) % 2)
    x = np.arange(1 << n, dtype=np.int64)
    out = np.zeros((1 << n, 1 << n), dtype=np.int64)
    out[x, x ^ vi] = 1 - 2 * _parity(x & ui, n)
    return out


# (-i)^w as (re, im), indexed by w mod 4
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))


def pauli_op(u, v, max_dim: int = DEFAULT_MAX_DIM) -> ExactOperator:
    """The Pauli operator with z-part u and x-part v: (-i)^(u.v) tau_(u,v),
    so that u = v = 1 on one qubit gives sigma_y."""
    t = _tau_entries(u, v, max_dim)
    c, s = _MINUS_I_POWERS[sum(int(a) % 2 * (int(b) % 2) for a, b in zip(u, v)) % 4]
    return ExactOperator(len(u), c * t, s * t)


def tau_op(u, v, max_dim: int = DEFAULT_MAX_DIM) -> ExactOperator:
    """The real Pauli variant tau_(u,v) on len(u) qubits."""
    t = _tau_entries(u, v, max_dim)
    return ExactOperator(len(u), t, np.zeros_like(t))


def rho_from_code(
    gen: GeneratorMatrix, signs=None, max_dim: int = DEFAULT_MAX_DIM
) -> ExactOperator:
    """The code's normalized projector 2^-n (I + s_1 g_1) ... (I + s_k g_k)
    for the k generator Paulis g_j, each with sign s_j = +1 or the sign
    provided; expanded, it is 2^-n times the sum of the group they generate.

    Exact properties: trace 1, and rho^2 = 2^(k-n) rho.
    """
    n, k = gen.n, gen.k
    _check_dim(n, max_dim)
    signs = (1,) * k if signs is None else tuple(signs)
    if len(signs) != k or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1, one per generator")
    rho = ExactOperator.identity(n)
    for j, s in enumerate(signs):
        g = pauli_op(gen.matrix[:n, j], gen.matrix[n:, j], max_dim)
        rho = rho @ ExactOperator(n, np.eye(rho.dim, dtype=np.int64) + s * g.re, s * g.im)
    return ExactOperator(n, rho.re, rho.im, n)


def quadratic_form(adj: AdjacencyMatrix, x) -> int:
    """Sum of theta_ij x_i x_j over i < j, mod 2."""
    theta = adj.theta.astype(np.int64)
    x = np.asarray(x, dtype=np.int64) % 2
    return int(x @ np.triu(theta, 1) @ x) % 2


def rho_graph_formula(adj: AdjacencyMatrix, max_dim: int = DEFAULT_MAX_DIM) -> ExactOperator:
    """Graph-state projector as a signed sum of tau operators.

    2^-n times the sum over x of (-1)^(quadratic form of x) tau_(theta x, x);
    equals the projector built from the generator matrix [theta; I].
    """
    n = adj.n
    _check_dim(n, max_dim)
    theta = adj.theta
    dim = 1 << n
    acc = np.zeros((dim, dim), dtype=np.int64)
    for x in itertools.product((0, 1), repeat=n):
        xv = np.array(x, dtype=np.uint8)
        u = (theta @ xv) % 2
        sign = (-1) ** quadratic_form(adj, xv)
        acc += sign * _tau_entries(u, xv, max_dim)
    return ExactOperator(n, acc, np.zeros_like(acc), n)


@dataclass(frozen=True)
class IndexPermutation:
    """Permutation of the 2^(n*r) computational basis indices realizing a
    qubit-wise permutation of tensor copies."""

    n: int
    r: int
    image: np.ndarray

    def __post_init__(self):
        if sorted(self.image.tolist()) != list(range(1 << (self.n * self.r))):
            raise ValueError("image is not a bijection")

    @property
    def dim(self) -> int:
        return 1 << (self.n * self.r)


def t_pi(tup: TreeTuple, max_dim: int = DEFAULT_MAX_DIM) -> IndexPermutation:
    """Index form of the copy-permuting operator for a tree tuple.

    Output bit (copy c, qubit q) of image[a] equals input bit
    (copy pi_q(c), qubit q) of a, where pi_q is the permutation of the
    q-th tree.
    """
    n, r = tup.n, tup.r
    _check_dim(n * r, max_dim)
    a = np.arange(1 << (n * r), dtype=np.int64)
    image = np.zeros_like(a)
    for q in range(1, n + 1):
        pi = permutation_of(tup.trees[q - 1])
        for c in range(1, r + 1):
            src = (r - pi[c - 1]) * n + (n - q)
            dst = (r - c) * n + (n - q)
            image |= ((a >> src) & 1) << dst
    return IndexPermutation(n, r, image)


def invariant_trace(
    gen: GeneratorMatrix, tup: TreeTuple, max_dim: int = DEFAULT_MAX_DIM
) -> Dyadic:
    """Exact trace of the copy-permuting operator against rho^(tensor r).

    For valid codes the value is a real, positive power of 2.
    """
    if tup.n != gen.n:
        raise ValueError(f"tuple is for {tup.n} qubits, code has {gen.n}")
    _check_dim(gen.n * tup.r, max_dim)
    rho = rho_from_code(gen, max_dim=max_dim)
    return product_trace(t_pi(tup, max_dim=max_dim), [rho] * tup.r)


def product_trace(perm: IndexPermutation, ops) -> Dyadic:
    """Trace of the permutation operator against op_1 (x) ... (x) op_r.

    The tensor product is never materialized: each basis contraction
    index multiplies one entry of each copy's operator.  Raises
    BudgetError first when 2^(n*r) times the product of each copy's
    largest |re| + |im| leaves the int64 range.
    """
    ops = list(ops)
    if len(ops) != perm.r or any(op.m != perm.n for op in ops):
        raise ValueError("need r operators on n qubits each")
    bound = perm.dim
    for op in ops:
        bound *= _magnitude(op)
    _check_int64("product trace", bound)
    n, r = perm.n, perm.r
    idx = np.arange(perm.dim, dtype=np.int64)
    m = perm.image
    mask = (1 << n) - 1
    acc_re = np.ones(perm.dim, dtype=np.int64)
    acc_im = np.zeros(perm.dim, dtype=np.int64)
    scale = 0
    for c, op in enumerate(ops):
        shift = n * (r - 1 - c)
        rows = (m >> shift) & mask
        cols = (idx >> shift) & mask
        fre = op.re[rows, cols]
        fim = op.im[rows, cols]
        acc_re, acc_im = acc_re * fre - acc_im * fim, acc_re * fim + acc_im * fre
        scale += op.scale
    return Dyadic(int(acc_re.sum()), int(acc_im.sum()), scale)


# -- the tau cyclic sums, one table per tree ----------------------------------
#
# Both tables index rows by u and columns by v, each read as an r-bit
# number with copy 1 as the most significant bit (itertools.product order).
# Entries are at most 2^r in absolute value, so int64 is exact for any
# table that fits in memory.


def _bits(i, r: int) -> tuple[int, ...]:
    """Table index i as r bits, copy 1 first."""
    return tuple((int(i) >> (r - c)) & 1 for c in range(1, r + 1))


def cyclic_sum_table(image) -> np.ndarray:
    """The tau cyclic sums of one copy permutation, for every (u, v).

    Entry [u, v] sums over x in {0,1}^r the product over copies c of
    (tau_(u_c, v_c))[x_pi(c), x_c].  By the tau entry rule each x adds
    (-1)^(u . x∘pi) to the single column v = x∘pi + x, for every u.  The
    trace of the copy-permuting operator against a tau product operator
    is the product over qubits of one entry of such a table.
    """
    r = len(image)
    x = np.arange(1 << r, dtype=np.int64)
    x_pi = np.zeros_like(x)
    for c, p in enumerate(image, start=1):
        x_pi |= ((x >> (r - p)) & 1) << (r - c)
    u = x[:, None]
    table = np.zeros((1 << r, 1 << r), dtype=np.int64)
    np.add.at(table, (u, x_pi ^ x), 1 - 2 * _parity(u & x_pi, r))
    return table


def closed_form_table(tree: BinaryTree) -> np.ndarray:
    """Closed form of cyclic_sum_table(permutation_of(tree)).

    Zero unless both u and v have even overlap with every right path;
    otherwise +-2^(r - dim of the path null space), with the sign given by
    the prefix-matrix pairing of u and v.
    """
    r = tree.r
    bits = (np.arange(1 << r, dtype=np.int64)[:, None] >> np.arange(r - 1, -1, -1)) & 1
    in_paths = np.ones(1 << r, dtype=bool)
    for p in maximal_right_paths(tree):
        in_paths &= bits[:, [c - 1 for c in p]].sum(axis=1) % 2 == 0
    d = d_matrix(tree).astype(np.int64)
    signs = 1 - 2 * ((bits @ d.T @ bits.T) % 2)
    magnitude = 1 << (r - v_space_dimension(tree))
    return np.where(in_paths[:, None] & in_paths[None, :], signs * magnitude, 0)


# -- the quadratic-form identities on graph-state tuple spaces ---------------


def tuple_space_basis(adj: AdjacencyMatrix, tup: TreeTuple) -> np.ndarray:
    """Kernel basis of the per-path constraints on r-tuples of coefficient
    vectors for a graph code: for every qubit i and every right path p of
    tree i, the path sum x must satisfy [theta_i; e_i] . sum = 0.

    Built directly from the path decompositions (not via the Kronecker
    stack), so it provides an independent route to the same space.
    Columns of the result are basis vectors of length n*r, blocks ordered
    by copy.
    """
    n, r = tup.n, tup.r
    if adj.n != n:
        raise ValueError("graph and tuple sizes differ")
    theta = adj.theta
    rows = []
    for i in range(1, n + 1):
        for p in maximal_right_paths(tup.trees[i - 1]):
            row_theta = np.zeros(n * r, dtype=np.uint8)
            row_e = np.zeros(n * r, dtype=np.uint8)
            for j in p:
                base = (j - 1) * n
                row_theta[base : base + n] ^= theta[i - 1]
                row_e[base + i - 1] ^= 1
            rows.append(row_theta)
            rows.append(row_e)
    return kernel_basis(np.array(rows, dtype=np.uint8))


def _space_elements(basis: np.ndarray) -> np.ndarray:
    length, dim = basis.shape
    if 1 << dim > MAX_ENUM:
        raise BudgetError(f"enumerating 2^{dim} space elements exceeds budget {MAX_ENUM}")
    vecs = basis.T  # dim x (n*r)
    if dim == 0:
        return np.zeros((1, length), dtype=np.uint8)
    coeffs = np.array(list(itertools.product((0, 1), repeat=dim)), dtype=np.uint8)
    return (coeffs @ vecs) % 2


def quad_form_values(adj: AdjacencyMatrix, tup: TreeTuple, elems: np.ndarray) -> np.ndarray:
    """The graph quadratic form on reshaped n x r tuple-space elements.

    Q(X) = Tr X^T L X + Tr X_B^T theta X mod 2, where L is the strictly
    lower triangle of theta and row i of X_B is row i of X times the
    prefix matrix of tree i.
    """
    n, r = tup.n, tup.r
    theta = adj.theta.astype(np.int64)
    low = np.tril(theta, -1)
    xs = elems.reshape(-1, r, n).astype(np.int64)  # [elem, copy, qubit]
    q1 = np.einsum("sjq,qp,sjp->s", xs, low, xs) % 2
    d = np.stack([d_matrix(t).astype(np.int64) for t in tup.trees])  # (n, r, r)
    xn = xs.transpose(0, 2, 1)  # [elem, qubit, copy]
    xb = np.einsum("sik,ikj->sij", xn, d) % 2
    q2 = np.einsum("sij,il,slj->s", xb, theta, xn) % 2
    return (q1 + q2) % 2


def lemma4_check(adj: AdjacencyMatrix, tup: TreeTuple) -> dict | None:
    """Verify the quadratic form vanishes on the whole tuple space.

    Returns None on pass, or a counterexample record.
    """
    basis = tuple_space_basis(adj, tup)
    elems = _space_elements(basis)
    q = quad_form_values(adj, tup, elems)
    bad = np.nonzero(q)[0]
    if bad.size == 0:
        return None
    x = elems[bad[0]]
    return {
        "element": x.tolist(),
        "graph": to_text(adj.theta),
        "tuple": tup.id(),
    }


def _signed_sum(adj: AdjacencyMatrix, tup: TreeTuple) -> tuple[int, int]:
    """The sum of (-1)^Q over the graph's tuple space, and its cardinality."""
    elems = _space_elements(tuple_space_basis(adj, tup))
    q = quad_form_values(adj, tup, elems)
    return len(q) - 2 * int(q.sum()), len(q)


def lemma3_check(
    adj: AdjacencyMatrix, tup: TreeTuple, trace: Fraction, norm: Fraction
) -> dict | None:
    """Verify the signed tuple-space sum reproduces the exact trace.

    trace is the exact trace of the graph projector against t_pi(tup);
    norm is the ratio of signed sum to trace measured once on the edgeless
    graph of the same size, and must then fit every other graph.  The
    signed sum must also equal the plain cardinality of the space (the
    quadratic form being zero on it).  Returns None on pass, else a
    mismatch record.
    """
    s, card = _signed_sum(adj, tup)
    if trace * norm != s:
        return {
            "graph": to_text(adj.theta),
            "tuple": tup.id(),
            "signed_sum": s,
            "trace": str(trace),
            "normalization": str(norm),
        }
    if s != card:
        return {
            "graph": to_text(adj.theta),
            "tuple": tup.id(),
            "signed_sum": s,
            "cardinality": card,
        }
    return None


# -- certification suites ----------------------------------------------------


def _over_budget(name: str, projected: int) -> dict | None:
    """The "skipped" report of an exhaustive suite whose projected check
    count exceeds MAX_SUITE_CHECKS, else None."""
    if projected <= MAX_SUITE_CHECKS:
        return None
    warning = f"{name} projects {projected} checks, over the budget of {MAX_SUITE_CHECKS}"
    return _result(name, 0, [], [warning])


def _dense_sizes(n: int, degrees, max_dim: int, warnings: list) -> list[int]:
    """The degrees r whose dense dimension 2^(n*r) fits max_dim; appends
    one warning per other degree to warnings."""
    sizes = [r for r in degrees if (1 << (n * r)) <= max_dim]
    warnings += [
        f"skipped n={n}, r={r}: 2^{n * r} over budget" for r in degrees if r not in sizes
    ]
    return sizes


def suite_lemma1(max_n: int = 3, max_dim: int = DEFAULT_MAX_DIM) -> dict:
    """Graph projector from the tau-sum formula vs. from the generator group."""
    name = "lemma1"
    if max_n < 1:
        return _result(name, 0, [], ["max_n below 1; nothing to check"])
    checks = 0
    failures = []
    warnings = []
    for n in range(1, max_n + 1):
        if (1 << n) > max_dim:
            warnings.append(f"skipped n={n}: 2^{n} over budget")
            continue
        for adj in all_graphs(n):
            lhs = rho_graph_formula(adj, max_dim)
            rhs = rho_from_code(graph_generator(adj), max_dim=max_dim)
            checks += 1
            if not lhs.same_as(rhs):
                failures.append({"graph": to_text(adj.theta)})
    return _result(name, checks, failures, warnings)


def suite_lemma2(max_r: int = 3) -> dict:
    """Closed form of the tau cyclic sum, exhaustively over trees and bits.

    Returns a "skipped" report, before any work, when the projected check
    count, one per tree and pair of bit vectors, exceeds MAX_SUITE_CHECKS.
    """
    name = "lemma2"
    if max_r < 1:
        return _result(name, 0, [], ["max_r below 1; nothing to check"])
    if skipped := _over_budget(name, sum(catalan(r) << (2 * r) for r in range(1, max_r + 1))):
        return skipped
    checks = 0
    failures = []
    for r in range(1, max_r + 1):
        for tree in enumerate_trees(r):
            checks += 1 << (2 * r)
            wrong = cyclic_sum_table(permutation_of(tree)) != closed_form_table(tree)
            for u, v in np.argwhere(wrong):
                failures.append({"tree": repr(tree), "u": _bits(u, r), "v": _bits(v, r)})
    return _result(name, checks, failures)


def suite_lemma3(max_n: int = 3, max_r: int = 3, max_dim: int = DEFAULT_MAX_DIM) -> dict:
    """Signed tuple-space sums against exact traces, every graph and tuple.

    Each graph's projector is built once per n, and each tuple's t_pi and
    edgeless-graph normalization once per (n, r).
    """
    name = "lemma3"
    if max_n < 1 or max_r < 1:
        return _result(name, 0, [], ["limits below 1; nothing to check"])
    checks = 0
    failures = []
    warnings = []
    for n in range(1, max_n + 1):
        sizes = _dense_sizes(n, range(1, max_r + 1), max_dim, warnings)
        if not sizes:
            continue
        graphs = list(all_graphs(n))
        rhos = [rho_from_code(graph_generator(adj), max_dim=max_dim) for adj in graphs]
        edgeless = AdjacencyMatrix.empty(n)
        rho_edgeless = rho_from_code(graph_generator(edgeless), max_dim=max_dim)
        for r in sizes:
            tuples = []
            for tup in all_tuples(n, r):
                perm = t_pi(tup, max_dim)
                trace = product_trace(perm, [rho_edgeless] * r).as_fraction()
                norm = Fraction(_signed_sum(edgeless, tup)[0]) / trace
                tuples.append((tup, perm, norm))
            for adj, rho in zip(graphs, rhos):
                for tup, perm, norm in tuples:
                    checks += 1
                    trace = product_trace(perm, [rho] * r).as_fraction()
                    bad = lemma3_check(adj, tup, trace, norm)
                    if bad is not None:
                        failures.append(bad)
    return _result(name, checks, failures, warnings)


def suite_lemma4(max_n: int = 3, max_r: int = 3) -> dict:
    """The graph quadratic form vanishes on every tuple space.

    Returns a "skipped" report, before any work, when the projected check
    count exceeds MAX_SUITE_CHECKS.
    """
    name = "lemma4"
    if max_n < 1 or max_r < 1:
        return _result(name, 0, [], ["limits below 1; nothing to check"])
    # every graph on n qubits against every tuple of n trees on r nodes
    projected = sum(
        (1 << (n * (n - 1) // 2)) * catalan(r) ** n
        for n in range(1, max_n + 1)
        for r in range(1, max_r + 1)
    )
    if skipped := _over_budget(name, projected):
        return skipped
    checks = 0
    failures = []
    for n in range(1, max_n + 1):
        for r in range(1, max_r + 1):
            for adj in all_graphs(n):
                for tup in all_tuples(n, r):
                    checks += 1
                    bad = lemma4_check(adj, tup)
                    if bad is not None:
                        failures.append(bad)
    return _result(name, checks, failures)


def suite_theorem1(
    max_n: int = 3,
    max_r: int = 3,
    codes_per_k: int = 20,
    seed: int = 0,
    max_dim: int = DEFAULT_MAX_DIM,
) -> dict:
    """The central certification: log2 of the exact trace minus the binary
    kernel dimension is the same for every code, once n and the tree tuple
    are fixed."""
    name = "theorem1"
    if max_n < 1 or max_r < 2:
        return _result(name, 0, [], ["limits too small; nothing to check"])
    checks = 0
    failures = []
    warnings = []
    for n in range(1, max_n + 1):
        sizes = _dense_sizes(n, range(2, max_r + 1), max_dim, warnings)
        if not sizes:
            continue
        codes = [
            random_code(n, k, seed=(seed, n, k, c))
            for k in range(n + 1)
            for c in range(codes_per_k)
        ]
        rhos = [rho_from_code(gen, max_dim=max_dim) for gen in codes]
        for r in sizes:
            for tup in all_tuples(n, r):
                perm = t_pi(tup, max_dim)
                offset = None
                for gen, rho in zip(codes, rhos):
                    value = product_trace(perm, [rho] * r)
                    z = value.log2() - invariant_dim(gen, tup)
                    checks += 1
                    if offset is None:
                        offset = z
                    elif z != offset:
                        failures.append({
                            "n": n, "tuple": tup.id(), "k": gen.k,
                            "offset": z, "expected": offset,
                        })
    return _result(name, checks, failures, warnings)


def suite_theorem2(
    max_n: int = 3,
    max_r: int = 3,
    codes_per_k: int = 5,
    seed: int = 0,
) -> dict:
    """Kernel dimension vs. direct enumeration of constrained codeword
    tuples, exhaustively over tree tuples."""
    name = "theorem2"
    if max_n < 1 or max_r < 1:
        return _result(name, 0, [], ["limits below 1; nothing to check"])
    checks = 0
    failures = []
    warnings = []
    for n in range(1, max_n + 1):
        for r in range(1, max_r + 1):
            for k in range(n + 1):
                if (1 << (r * k)) > MAX_ENUM:
                    warnings.append(f"skipped n={n}, r={r}, k={k}: 2^{r * k} over budget")
                    continue
                for c in range(codes_per_k):
                    gen = random_code(n, k, seed=(seed, n, k, c))
                    for tup in all_tuples(n, r):
                        checks += 1
                        lhs = invariant_dim(gen, tup)
                        rhs = theorem2_dim(gen, tup)
                        if lhs != rhs:
                            failures.append({
                                "n": n, "k": k, "tuple": tup.id(),
                                "kernel": lhs, "enumeration": rhs,
                            })
    return _result(name, checks, failures, warnings)


def _result(name: str, checks: int, failures: list, warnings: list | None = None) -> dict:
    """A suite report; "skipped" when no check could run."""
    return {
        "suite": name,
        "status": "fail" if failures else "pass" if checks else "skipped",
        "checks": checks,
        "failures": failures,
        "warnings": warnings or [],
    }


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
}
