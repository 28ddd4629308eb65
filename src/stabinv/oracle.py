"""Exact dense-operator oracle for the binary invariant engine.

Everything here is integer arithmetic on Python ints, which cannot
overflow: operators are flat lists of Gaussian integers over an explicit
power-of-2 denominator, so every identity is checked exactly.  Only the
dense dimension is budgeted (MAX_DIM).  This module exists to certify the
GF(2) engines at desk scale, not to simulate anything large, and it loads
no numpy.

Conventions, fixed once and used consistently:

* Basis order: qubit 1 is the most significant bit inside a copy; copies
  are ordered 1..r, most significant first.  A dense operator on m
  qubits holds entry [x, y] at flat index x * 2^m + y.
* tau operators are the real Pauli variant, all built from one entry
  rule: (tau_(u,v))[x, y] = (-1)^(u.x) * [x + y = v].  On one qubit
  tau_11 = i*sigma_y = [[0, 1], [-1, 0]], and sigma_(u,v) =
  (-i)^(u.v) tau_(u,v).  They satisfy
  tau_(u,v) tau_(u',v') = (-1)^(v.u') tau_(u+u', v+v').
* The copy permutation acts by sending the component at (copy c, qubit i)
  to the component at (copy pi_i(c), qubit i), and the pairing in the
  cyclic sums below is oriented to match, so that the trace against a
  product operator factorizes through them qubit by qubit.
* A mask over points is one Python int with bit a set for point a.
* Traces against r copies of an operator take the copy permutation from
  one index-bit map, _bit_targets.  product_trace contracts one tuple's
  dense entry tables, made from it, with any r operators over every basis
  index, for invariant_trace, whose projectors may be mixed; theorem1
  packs each projector once per degree and contracts every tuple with
  the same private helper.  A graph projector is pure, c * s s^T with
  every s_x = +-1, so lemma3 factors it once per graph and takes each
  trace as a popcount over all 2^(n*r) indices of the sign mask of
  s^(tensor r) against its image under the copy permutation.  The image
  is made in the depth-first walk over the tuples that the tuple spaces
  take: level q applies the masked swaps of qubit q's tree, made once
  per (qubit, tree) from qubit q's slice of the same map, so one
  prefix's image serves every tuple that extends it.  Moving the mask
  one qubit at a time composes the permutation; it does not factor the
  trace, which lemma 3 checks against a product over qubits:
  s^(tensor r) of an entangled graph state is no such product, and no
  per-qubit factor of a trace is ever formed.
* The tuple-space suites walk all_tuples(n, r) depth first (_walk):
  each level folds one (qubit, tree) mask into its prefix, and a tuple
  or a trace is built only for a failure's record.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce

from .errors import BudgetError, Frozen
from .gf2 import to_text
from .stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    all_graphs,
    graph_generator,
    random_code,
)
from .trees import (
    BinaryTree,
    TreeTuple,
    all_tuples,
    catalan,
    d_matrix,
    enumerate_trees,
    permutation_of,
    serialize,
    v_space_dimension,
)

MAX_DIM = 4096  # largest dense dimension 2^(n*r): n*r <= 12
# Largest projected check count of any suite.
MAX_SUITE_CHECKS = 1 << 20
MAX_ENUM = 1 << 16  # largest point count of any tuple-space table


class Dyadic(Frozen):
    """(re + i*im) / 2^scale with integer re and im, kept normalized."""

    __slots__ = ("re", "im", "scale")

    def __init__(self, re: int, im: int, scale: int):
        if re == 0 and im == 0:
            scale = 0
        while scale > 0 and re % 2 == 0 and im % 2 == 0:
            re, im, scale = re // 2, im // 2, scale - 1
        super().__init__(re, im, scale)

    def log2(self) -> int:
        """Exact log2; requires a real, positive power-of-2 value."""
        if self.im != 0:
            raise ValueError(f"value {self} is not real")
        if self.re <= 0:
            raise ValueError(f"value {self} is not positive")
        if self.re & (self.re - 1):
            raise ValueError(f"value {self} is not a power of 2")
        return self.re.bit_length() - 1 - self.scale

    def as_fraction(self):
        from fractions import Fraction

        if self.im != 0:
            raise ValueError(f"value {self} is not real")
        return Fraction(self.re, 1 << self.scale)


class ExactOperator:
    """Dense 2^m x 2^m operator with Gaussian-integer entries / 2^scale:
    re and im are tuples of 4^m ints, entry [x, y] at x * 2^m + y."""

    __slots__ = ("m", "scale", "re", "im")

    def __init__(self, m: int, re, im, scale: int = 0):
        re = tuple(map(operator.index, re))
        im = tuple(map(operator.index, im))
        if len(re) != 1 << (2 * m) or len(im) != 1 << (2 * m):
            raise ValueError("entry lists do not match the qubit count")
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
        re = [0] * (dim * dim)
        re[:: dim + 1] = [1] * dim
        return cls(m, re, [0] * (dim * dim))

    def __matmul__(self, other: "ExactOperator") -> "ExactOperator":
        if self.m != other.m:
            raise ValueError("operator sizes differ")
        dim, mul = self.dim, operator.mul
        columns = [(other.re[y::dim], other.im[y::dim]) for y in range(dim)]
        re, im = [], []
        for x in range(0, dim * dim, dim):
            ar, ai = self.re[x : x + dim], self.im[x : x + dim]
            for br, bi in columns:
                re.append(sum(map(mul, ar, br)) - sum(map(mul, ai, bi)))
                im.append(sum(map(mul, ar, bi)) + sum(map(mul, ai, br)))
        return ExactOperator(self.m, re, im, self.scale + other.scale)

    def trace(self) -> Dyadic:
        step = self.dim + 1
        return Dyadic(sum(self.re[::step]), sum(self.im[::step]), self.scale)

    def same_as(self, other: "ExactOperator") -> bool:
        """Exact equality of the represented operators."""
        if self.m != other.m:
            return False
        s = max(self.scale, other.scale)
        fa, fb = s - self.scale, s - other.scale
        return all(
            [a << fa for a in mine] == [b << fb for b in theirs]
            for mine, theirs in ((self.re, other.re), (self.im, other.im))
        )

    def __repr__(self) -> str:
        return f"ExactOperator(m={self.m}, scale={self.scale})"


def _check_dim(m: int):
    if 1 << m > MAX_DIM:
        raise BudgetError(f"dense dimension 2^{m} exceeds budget {MAX_DIM}")


def _signs(u: int, size: int) -> list[int]:
    """(-1)^(u.x) for every x below size."""
    return [1 - 2 * ((u & x).bit_count() & 1) for x in range(size)]


def _top_first(bits) -> int:
    """A bit sequence, qubit 1 first, as an int with qubit 1 the top bit."""
    out = 0
    for b in bits:
        out = (out << 1) | (int(b) % 2)
    return out


def _column(rows, j: int) -> int:
    """Bit j of each row, as an int with the first row's bit on top."""
    return _top_first((row >> j) & 1 for row in rows)


def _tau_entries(u: int, v: int, n: int) -> list[int]:
    """tau_(u,v) on n qubits as flat entries, by its entry rule: [x, y] is
    (-1)^(u.x) if x + y = v, else 0; u and v hold qubit 1 as the top bit."""
    out = [0] * (1 << (2 * n))
    for x, sign in enumerate(_signs(u, 1 << n)):
        out[x << n | x ^ v] = sign
    return out


# (-i)^w as (re, im), indexed by w mod 4
_MINUS_I_POWERS = ((1, 0), (0, -1), (-1, 0), (0, 1))


def _phase(u: int, v: int) -> tuple[int, int]:
    """(-i)^(u.v) as (re, im): the factor taking tau_(u,v) to the Pauli."""
    return _MINUS_I_POWERS[(u & v).bit_count() % 4]


def _bit_pair(u, v) -> tuple[int, int, int]:
    """Bit rows u and v, one bit per qubit, as (n, u, v) with qubit 1 the
    top bit of each int."""
    if len(u) != len(v):
        raise ValueError("u and v must have equal length")
    _check_dim(len(u))
    return len(u), _top_first(u), _top_first(v)


def pauli_op(u, v) -> ExactOperator:
    """The Pauli operator with z-part u and x-part v: (-i)^(u.v) tau_(u,v),
    so that u = v = 1 on one qubit gives sigma_y."""
    n, u, v = _bit_pair(u, v)
    t = _tau_entries(u, v, n)
    c, s = _phase(u, v)
    return ExactOperator(n, [c * e for e in t], [s * e for e in t])


def tau_op(u, v) -> ExactOperator:
    """The real Pauli variant tau_(u,v) on len(u) qubits."""
    n, u, v = _bit_pair(u, v)
    return ExactOperator(n, _tau_entries(u, v, n), [0] * (1 << (2 * n)))


def rho_from_code(gen: GeneratorMatrix, signs=None) -> ExactOperator:
    """The code's normalized projector 2^-n (I + s_1 g_1) ... (I + s_k g_k)
    for the k generator Paulis g_j, each with sign s_j = +1 or the sign
    provided; expanded, it is 2^-n times the sum of the group they generate.

    Exact properties: trace 1, and rho^2 = 2^(k-n) rho.

    Each factor is applied as rho + s * rho g.  A Pauli g has one nonzero
    entry per row and column, so rho g is rho with its columns permuted,
    signed and multiplied by g's phase: O(4^n) per factor, and every entry
    stays a sum of at most 2^k units.
    """
    n, k = gen.n, gen.k
    _check_dim(n)
    signs = (1,) * k if signs is None else tuple(signs)
    if len(signs) != k or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1, one per generator")
    rho = ExactOperator.identity(n)
    re, im = rho.re, rho.im
    for j, s in enumerate(map(int, signs)):
        u, v = _column(gen.rows[:n], j), _column(gen.rows[n:], j)
        # column y of rho tau_(u,v) is rho's column y + v times the sign
        # of tau's row y + v; flat index i + v has column y + v
        tau_signs = _signs(u, 1 << n)
        col_signs = [s * tau_signs[y ^ v] for y in range(1 << n)] * (1 << n)
        re_t = [re[i ^ v] * g for i, g in enumerate(col_signs)]
        im_t = [im[i ^ v] * g for i, g in enumerate(col_signs)]
        c, d = _phase(u, v)
        re, im = (
            [a + c * b - d * e for a, b, e in zip(re, re_t, im_t)],
            [a + c * e + d * b for a, b, e in zip(im, re_t, im_t)],
        )
    return ExactOperator(n, re, im, n)


def rho_graph_formula(adj: AdjacencyMatrix) -> ExactOperator:
    """Graph-state projector as a signed sum of tau operators.

    2^-n times the sum over x of (-1)^(x^T U x) tau_(theta x, x), U the
    strict upper triangle of theta; equals the projector built from the
    generator matrix [theta; I].
    """
    n = adj.n
    _check_dim(n)
    dim = 1 << n
    # row i of theta, and its part past column i, with qubit 1 the top bit
    theta = [_top_first((row >> j) & 1 for j in range(n)) for row in adj.rows]
    upper = [row & ((1 << (n - 1 - i)) - 1) for i, row in enumerate(theta)]
    acc = [0] * (dim * dim)
    for x in range(dim):
        u = _top_first((row & x).bit_count() & 1 for row in theta)
        form = sum((row & x).bit_count() for i, row in enumerate(upper) if x >> (n - 1 - i) & 1)
        sign = -1 if form % 2 else 1
        for y, s in enumerate(_signs(u, dim)):
            acc[y << n | y ^ x] += sign * s
    return ExactOperator(n, acc, [0] * (dim * dim), n)


def _qubit_bits(q: int, n: int, r: int) -> range:
    """The index bits of qubit q (from 1) in a basis index of r copies of
    n qubits: entry r - c is the bit of copy c.  Copy 1 is the most
    significant block, and qubit 1 the top bit of each block."""
    return range(n - q, n * r, n)


def _bit_targets(tup: TreeTuple) -> list[int]:
    """The bit map of the copy permutation: input bit b of a basis index
    goes to output bit target[b].  Output bit (copy c, qubit q) equals
    input bit (copy pi_q(c), qubit q), where pi_q is the permutation of
    the q-th tree, so qubit q's slice of the map, at _qubit_bits(q), is
    made from its tree alone.  The dense entry tables and lemma3's
    per-qubit masked swaps are both taken from this map."""
    n, r = tup.n, tup.r
    target = [0] * (n * r)
    for q, tree in enumerate(tup.trees, start=1):
        at = _qubit_bits(q, n, r)
        for c, p in enumerate(permutation_of(tree), start=1):
            target[at[r - p]] = at[r - c]
    return target


def _entry_tables(tup: TreeTuple) -> list[list[int]]:
    """For each copy c, the flat index of the entry of copy c's operator
    that each basis index a meets in the trace: its row is copy c's block
    of a with its bits moved by _bit_targets, its column copy c's block
    of a.  Input bit b sets one row bit and one column bit, of the copies
    that hold its target and b, so each table is built by doubling."""
    n, r = tup.n, tup.r
    tables = [[0] for _ in range(r)]
    for b, t in enumerate(_bit_targets(tup)):
        steps = [0] * r
        steps[r - 1 - t // n] |= 1 << (n + t % n)
        steps[r - 1 - b // n] |= 1 << (b % n)
        for table, step in zip(tables, steps):
            table += [e | step for e in table]
    return tables


def _swap_table(bits: list[int], n: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The masked swap (delta, sel) of each pair of index bits p < q of
    one qubit, bits = _bit_masks(n * r): sel marks the indices with bit p
    set and bit q clear, which trade places with the indices
    delta = 2^q - 2^p above them.  A copy permutation moves each index bit
    within its qubit, so no other pair is ever swapped.  Made once per
    degree, so that every swap list shares its masks."""
    return {
        (p, q): ((1 << q) - (1 << p), bits[p] & ~bits[q])
        for q in range(len(bits))
        for p in range(q % n, q, n)
    }


def _mask_swaps(target: list[int], table) -> list[tuple[int, int]]:
    """Masked index-bit swaps, at most len(target) - 1 of them, that take
    a mask M over the basis indices to M∘g, whose bit a is bit image[a]
    of M for the bit map target; each is an entry of table, _swap_table's.
    Swapping index bits p < q of a mask composes its index map with the
    transposition of p and q, so the map is built up from the identity
    one position at a time.
    """
    current = list(range(len(target)))
    swaps = []
    for p, want in enumerate(target):
        if current[p] != want:
            q = current.index(want, p + 1)
            current[p], current[q] = want, current[p]
            swaps.append(table[p, q])
    return swaps


def _permuted(mask: int, swaps) -> int:
    """mask with each masked index-bit swap of _mask_swaps applied."""
    for delta, sel in swaps:
        t = ((mask >> delta) ^ mask) & sel
        mask ^= t ^ (t << delta)
    return mask


def invariant_trace(gen: GeneratorMatrix, tup: TreeTuple) -> Dyadic:
    """Exact trace of the copy-permuting operator against rho^(tensor r).

    For valid codes the value is a real, positive power of 2.
    """
    if tup.n != gen.n:
        raise ValueError(f"tuple is for {tup.n} qubits, code has {gen.n}")
    _check_dim(gen.n * tup.r)
    rho = rho_from_code(gen)
    return product_trace(_entry_tables(tup), [rho] * tup.r)


def product_trace(tables, ops) -> Dyadic:
    """Trace of one copy permutation, given by its _entry_tables, against
    op_1 (x) ... (x) op_r on n qubits each.

    The tensor product is never materialized: each of the 2^(n*r) basis
    indices multiplies one entry of each copy's operator, and the
    products are summed.  Each distinct operator, passed for one copy or
    for several, is packed once as re + im * 2^w, so a product of r
    entries is a polynomial in 2^w whose coefficient j goes with i^j; w
    is wide enough that every coefficient of the sum reads back exactly.
    """
    ops = list(ops)
    r = len(ops)
    dim = 1 << (ops[0].m * r) if ops else 0
    if not ops or any(op.m != ops[0].m for op in ops) or len(tables) != r or any(
        len(index) != dim for index in tables
    ):
        raise ValueError("need r operators on n qubits each, and r tables of 2^(n*r) entries")
    return _contract(tables, *_pack(ops))


def _pack(ops) -> tuple[int, list[list[int]], int]:
    """r operators on n qubits each, packed for _contract: the width w,
    each copy's entries as re + im * 2^w, and the summed scale.  No
    coefficient exceeds 2^(n*r) times the product of each copy's largest
    |re| + |im|, bounded in turn by twice its largest part.  Each distinct
    operator is packed once; an ExactOperator hashes by identity."""
    largest = {op: 2 * max(map(abs, op.re + op.im)) for op in dict.fromkeys(ops)}
    dim = 1 << (ops[0].m * len(ops))
    w = (dim * math.prod(map(largest.__getitem__, ops))).bit_length() + 1
    packed = {op: [a + (b << w) for a, b in zip(op.re, op.im)] for op in largest}
    return w, [packed[op] for op in ops], sum(op.scale for op in ops)


def _contract(tables, w: int, entries, scale: int) -> Dyadic:
    """The trace product_trace describes, from _pack's packed operators:
    each basis index multiplies one packed entry of each copy."""
    terms = map(entries[0].__getitem__, tables[0])
    for packed, index in zip(entries[1:], tables[1:]):
        terms = map(operator.mul, terms, map(packed.__getitem__, index))
    return Dyadic(*_gaussian(sum(terms), w, len(entries)), scale)


def _sign_factor(rho: ExactOperator) -> tuple[Dyadic, int] | None:
    """rho as c * s s^T with c = rho[0, 0] and every s_x = +-1, checked
    on every entry: c, and the 2^m-bit mask of the x with s_x = -1.  None
    when rho has no such form.

    s is read off column 0, where rho[x, 0] = c * s_x; then every entry
    [x, y] must be c * s_x * s_y.
    """
    dim = rho.dim
    c = (rho.re[0], rho.im[0])
    if c == (0, 0):
        return None
    s = [1 if (rho.re[x * dim], rho.im[x * dim]) == c else -1 for x in range(dim)]
    for part, value in zip((rho.re, rho.im), c):
        rows = {1: [value * sy for sy in s]}  # row x is rows[s_x]
        rows[-1] = [-v for v in rows[1]]
        if part != tuple(itertools.chain.from_iterable(map(rows.__getitem__, s))):
            return None
    return Dyadic(*c, rho.scale), sum(1 << x for x, sx in enumerate(s) if sx < 0)


def _tensor_signs(signs: int, m: int, r: int) -> int:
    """The sign mask of s^(tensor r) over all 2^(m*r) basis indices, from
    the 2^m-bit mask of s: bit a is set where an odd number of copy blocks
    of a have s = -1.  Built as text, most significant index first, with
    each step writing every index's bit as a block for one more copy."""
    width = 1 << m
    plus = format(signs, f"0{width}b")
    blocks = {ord("0"): plus, ord("1"): format(signs ^ ((1 << width) - 1), f"0{width}b")}
    text = plus
    for _ in range(r - 1):
        text = text.translate(blocks)
    return int(text, 2)


def _qubit_swaps(degree: _Degree, n: int) -> list[list[list[tuple[int, int]]]]:
    """For each qubit q and each tree of the degree, the masked swaps
    that move qubit q's index bits as the tree's copy permutation does and
    fix every other bit: _mask_swaps of the map that is the identity but
    on qubit q's slice of _bit_targets' map, the slice any tuple with that
    tree at qubit q has.  Made once per (qubit, tree), and shared by every
    graph and tuple of the degree."""
    r, size = degree.r, n * degree.r
    table = _swap_table(degree.bits, n)
    columns = [[] for _ in range(n)]
    for tree in degree.trees:
        target = _bit_targets(TreeTuple((tree,) * n))
        for q, column in enumerate(columns, start=1):
            own = list(range(size))
            for b in _qubit_bits(q, n, r):
                own[b] = target[b]
            column.append(_mask_swaps(own, table))
    return columns


def _walked_traces(c: Dyadic, signs: int, m: int, r: int, swaps):
    """The trace against rho^(tensor r), rho = c * s s^T on m qubits, of
    the copy permutation of every tuple of all_tuples(m, r), in that
    order, as (re, im) over 2^(r * c.scale); swaps is _qubit_swaps'.

    The trace is the sum over every basis index a of c^r S(image[a]) S(a),
    S the signs of s^(tensor r): c^r (2^(m*r) - 2 popcount(S∘g XOR S)).
    The qubits' index bits are disjoint, so g is the product of one
    permutation per qubit, and _walk applies qubit q's swaps at level q:
    each prefix's S∘g serves every tuple that extends it.
    """
    re, im = 1, 0
    for _ in range(r):
        re, im = re * c.re - im * c.im, re * c.im + im * c.re
    mask = _tensor_signs(signs, m, r)
    full = 1 << (m * r)
    for moved in _walk(swaps, mask, _permuted):
        total = full - 2 * (moved ^ mask).bit_count()
        yield total * re, total * im


def _gaussian(total: int, w: int, r: int) -> tuple[int, int]:
    """(re, im) of the sum over j of c_j i^j, read from total = the sum
    over j <= r of c_j 2^(w*j) with every |c_j| below 2^(w-1)."""
    half, low = 1 << (w - 1), (1 << w) - 1
    parts = [0, 0]
    for j in range(r + 1):
        c = ((total + half) & low) - half
        total = (total - c) >> w
        parts[j % 2] += c if j % 4 < 2 else -c
    return parts[0], parts[1]


# -- the tau cyclic sums, one table per tree ----------------------------------
#
# Both tables are flat lists of 4^r ints: entry [u, v] at u * 2^r + v, u
# and v each read as an r-bit number with copy 1 as the most significant
# bit (itertools.product order).


def _bits(i, r: int) -> tuple[int, ...]:
    """Table index i as r bits, copy 1 first."""
    return tuple((int(i) >> (r - c)) & 1 for c in range(1, r + 1))


def _node_mask(nodes, r: int) -> int:
    """The table-index bits of a set of nodes: node c is bit r - c."""
    return sum(1 << (r - c) for c in nodes)


def cyclic_sum_table(image) -> list[int]:
    """The tau cyclic sums of one copy permutation, for every (u, v).

    Entry [u, v] sums over x in {0,1}^r the product over copies c of
    (tau_(u_c, v_c))[x_pi(c), x_c].  By the tau entry rule each x adds
    (-1)^(u . x∘pi) to the single column v = x∘pi + x, for every u.  The
    trace of the copy-permuting operator against a tau product operator
    is the product over qubits of one entry of such a table.
    """
    r = len(image)
    size = 1 << r
    table = [0] * (size * size)
    for x in range(size):
        x_pi = _node_mask((c for c, p in enumerate(image, start=1) if x >> (r - p) & 1), r)
        v = x_pi ^ x
        # column v, every u at once
        table[v::size] = map(operator.add, table[v::size], _signs(x_pi, size))
    return table


def closed_form_table(tree: BinaryTree) -> list[int]:
    """Closed form of cyclic_sum_table(permutation_of(tree)).

    Zero unless both u and v have even overlap with every right path;
    otherwise +-2^(r - dim of the path null space), with the sign given by
    the prefix-matrix pairing of u and v.
    """
    r = tree.r
    size = 1 << r
    paths = [_node_mask(p, r) for p in tree.paths]
    in_paths = [all((w & p).bit_count() % 2 == 0 for p in paths) for w in range(size)]
    # the prefix matrix D as table-index bits, one row per node; the sign
    # is (-1)^(v^T D u), and dv[v] is v^T D
    prefix = [_node_mask((j for j in range(1, r + 1) if row >> (j - 1) & 1), r)
              for row in d_matrix(tree)]
    dv = [reduce(operator.xor, (row for c, row in enumerate(prefix, 1) if v >> (r - c) & 1), 0)
          for v in range(size)]
    magnitude = 1 << (r - v_space_dimension(tree))
    return [
        (-magnitude if (u & d).bit_count() & 1 else magnitude) if u_in and v_in else 0
        for u, u_in in enumerate(in_paths)
        for d, v_in in zip(dv, in_paths)
    ]


# -- tuple spaces: theorem 2 and the quadratic-form identities --------------


def _xor(masks) -> int:
    return reduce(operator.xor, masks, 0)


def _bit_masks(m: int) -> list[int]:
    """For each bit b of an m-bit point, the mask of the 2^m points with
    bit b set: blocks of h = 2^b points, alternately clear and set, built
    by doubling one clear-then-set pair of blocks up to 2^m bits."""
    masks = []
    for b in range(m):
        h = 1 << b
        mask, width = ((1 << h) - 1) << h, 2 * h
        while width < 1 << m:
            mask |= mask << width
            width *= 2
        masks.append(mask)
    return masks


def _walk(columns, value, op):
    """op(... op(op(value, e_1), e_2) ..., e_n) for every choice of one
    entry e_i of each column i, in itertools.product order, the last
    column fastest.  The walk is depth first: each entry is folded into
    its prefix once, the prefix serves every choice that extends it, and
    one value per level is held, never one per choice."""
    head, *rest = columns
    if not rest:
        return map(op, itertools.repeat(value), head)
    return itertools.chain.from_iterable(_walk(rest, op(value, e), op) for e in head)


def _nth_tuple(i: int, n: int, trees) -> TreeTuple:
    """Tuple i of all_tuples(n, r), from 0, for trees = enumerate_trees(r):
    i written in base len(trees), qubit n's tree the last digit."""
    picked = []
    for _ in range(n):
        i, t = divmod(i, len(trees))
        picked.append(trees[t])
    return TreeTuple(tuple(picked[::-1]))


def _log2_size(space: int) -> int:
    """log2 of the number of points of a tuple space mask."""
    count = space.bit_count()
    if count & (count - 1):
        raise RuntimeError(f"{count} solutions do not form a linear space")
    return count.bit_length() - 1


class _Degree:
    """The tree data that the tuple spaces of degree r over m-bit points
    read: the trees in enumerate_trees order, their prefix rows, and
    _bit_masks(m).  A suite makes it once per size and passes it to every
    code's spaces; nothing keeps it across suite calls."""

    __slots__ = ("r", "trees", "prefix", "bits")

    def __init__(self, r: int, m: int):
        self.r = r
        self.trees = enumerate_trees(r)
        self.prefix = [d_matrix(tree) for tree in self.trees]
        self.bits = _bit_masks(m)


class TupleSpaces:
    """Every tuple space of one code at degree r, as masks over all 2^(k*r)
    coefficient points, built from the path decompositions rather than
    the engine's Kronecker stack; BudgetError when 2^(k*r) > MAX_ENUM.
    A point is a k x r bit matrix X, column j the coefficient vector of
    codeword S X_j of copy j; point a holds X[i, j] (from 1) at bit
    (r - j) * k + (k - i), _qubit_bits(i, k, r)[r - j], as _bit_targets
    lays out qubits when k = n.

    The masks are bit-sliced: one mask per entry X[i, j], and words[l][j]
    marks where row l of S X_j (0-based) is 1, the XOR of the X[i, j] with
    S[l, i] = 1.  member[i][tree] marks where rows i and n + i of S X,
    summed over each right path of the tree, are 0: codeword path sums
    vanish at qubit i (0-based).  A tuple's space is the AND of its n
    masks, and its log2 size the invariant dimension.  degree, when given,
    is the suite's _Degree(r, k * r).
    """

    def __init__(self, gen: GeneratorMatrix, r: int, degree: _Degree | None = None):
        n, k = gen.n, gen.k
        if 1 << (k * r) > MAX_ENUM:
            raise BudgetError(f"enumerating 2^{k * r} points exceeds budget {MAX_ENUM}")
        self.degree = degree = degree or _Degree(r, k * r)
        x = [[degree.bits[b] for b in reversed(_qubit_bits(i, k, r))] for i in range(1, k + 1)]
        self.gen, self.r = gen, r
        self.full = (1 << (1 << (k * r))) - 1
        self.words = [
            [_xor(x[i][j] for i in range(k) if row >> i & 1) for j in range(r)]
            for row in gen.rows
        ]
        self.member = []
        for z, xs in zip(self.words[:n], self.words[n:]):  # qubit i's z and x rows
            member = {}
            for tree in degree.trees:
                nonzero = 0
                for p in tree.paths:
                    nonzero |= _xor(z[j - 1] for j in p) | _xor(xs[j - 1] for j in p)
                member[tree] = self.full ^ nonzero
            self.member.append(member)

    def space(self, tup: TreeTuple) -> int:
        """The tuple space of tup as a mask over the points."""
        if (tup.n, tup.r) != (self.gen.n, self.r):
            raise ValueError("code and tuple sizes differ")
        return reduce(operator.and_, [m[t] for m, t in zip(self.member, tup.trees)])

    def walk(self):
        """space(tup) for every tup of all_tuples(n, r), in that order, by
        one _walk over the member masks in tree order."""
        return _walk([m.values() for m in self.member], self.full, operator.and_)

    def dim(self, tup: TreeTuple) -> int:
        """log2 of the size of the tuple space of tup."""
        return _log2_size(self.space(tup))


def theorem2_dim(gen: GeneratorMatrix, tup: TreeTuple) -> int:
    """Invariant dimension by direct enumeration of codeword r-tuples:
    log2 of the number whose sum over each right path vanishes at every
    qubit whose tree has that path.  An independent cross-check of the
    engine at small r*k; BudgetError when 2^(k*r) exceeds MAX_ENUM."""
    return TupleSpaces(gen, tup.r).dim(tup)


class GraphTupleSpaces(TupleSpaces):
    """The tuple spaces of a graph code [theta; I], where X[i, .] is row
    n + i of S X, with the graph quadratic form on top of them.

    term[i][tree] marks where qubit i's part of the form,
    sum_j (X_(i,.) D_tree)_j (theta_i . X_(.,j)), is 1; base marks where
    the graph-only part Tr X^T L X is 1, L the strict lower triangle of theta.
    """

    def __init__(self, adj: AdjacencyMatrix, r: int, degree: _Degree | None = None):
        super().__init__(graph_generator(adj), r, degree)
        n = adj.n
        s, x = self.words[:n], self.words[n:]  # theta_i . X_(.,j) and X[i, j]
        self.adj = adj
        self.base = _xor(
            x[i][j] & x[l][j]
            for i, row in enumerate(adj.rows)
            for l in range(i)
            if row >> l & 1
            for j in range(r)
        )
        # (X_(i,.) D)_j is the XOR of X[i, c] over the rows c of D with bit j
        prefix = list(zip(self.degree.trees, self.degree.prefix))
        self.term = [
            {
                tree: _xor(
                    _xor(xc for xc, row in zip(xi, d) if row >> j & 1) & sj
                    for j, sj in enumerate(si)
                )
                for tree, d in prefix
            }
            for xi, si in zip(x, s)
        ]

    def of(self, tup: TreeTuple) -> tuple[int, int]:
        """The tuple space of tup as a mask over the points, and the mask
        of points where the quadratic form is 1."""
        q = _xor(f[t] for f, t in zip(self.term, tup.trees)) ^ self.base
        return self.space(tup), q

    def forms(self):
        """The form mask of of(tup) for every tup of all_tuples(n, r), in
        that order, by one _walk over the term masks in tree order."""
        return _walk([f.values() for f in self.term], self.base, operator.xor)

    def signed_sum(self, tup: TreeTuple) -> tuple[int, int]:
        """The sum of (-1)^Q over the tuple space, and its cardinality."""
        space, q = self.of(tup)
        card = space.bit_count()
        return card - 2 * (space & q).bit_count(), card

    def lemma4_failure(self, tup: TreeTuple) -> dict | None:
        """None if the quadratic form vanishes on the whole tuple space,
        else a record with its lowest-numbered counterexample."""
        space, q = self.of(tup)
        bad = space & q
        if not bad:
            return None
        a = (bad & -bad).bit_length() - 1
        m = self.adj.n * self.r  # the point as m bits, blocks ordered by copy
        element = [(a >> (m - 1 - b)) & 1 for b in range(m)]
        graph = to_text(self.adj.rows, self.adj.n)
        return {"element": element, "graph": graph, "tuple": tup.id()}

    def lemma3_failure(self, tup: TreeTuple, trace: Dyadic | None, norm: int) -> dict | None:
        """None if the signed tuple-space sum reproduces the exact trace
        and equals the plain cardinality of the space, else a mismatch record.

        trace is the exact trace of the graph projector against the copy
        permutation of tup, kept as text when it is not real, or None when
        the projector has no c * s s^T form, which the record marks as
        "factors": false.
        norm is the cardinality of the edgeless graph's tuple space: its
        projector (|+><+|)^n is a pure product state, whose r-fold power
        every copy permutation fixes, so its trace is 1 and norm is its
        ratio of signed sum to trace.
        """
        s, card = self.signed_sum(tup)
        if trace is None:
            detail = {"factors": False}
        elif trace.im or trace.re * norm != s << trace.scale:
            text = str(trace.as_fraction() if trace.im == 0 else trace)
            detail = {"trace": text, "normalization": str(norm)}
        elif s != card:
            detail = {"cardinality": card}
        else:
            return None
        graph = to_text(self.adj.rows, self.adj.n)
        return {"graph": graph, "tuple": tup.id(), "signed_sum": s} | detail


# -- certification suites ----------------------------------------------------
#
# Every suite lists the sizes its caps admit, in run order, and _plan
# projects their check count before any work: nothing runs over
# MAX_SUITE_CHECKS.


def _cap(limit: int, what: str, largest: int) -> tuple[int, str | None]:
    """log2 of a power-of-2 cap, and the warning that states its rule,
    "skipped every size whose <what> over <limit>", when largest, the
    largest exponent within a suite's limits, is over it; else None."""
    bits = limit.bit_length() - 1
    return bits, f"skipped every size whose {what} over {limit}" if largest > bits else None


def _plan(name: str, sizes, checks, rule: str | None) -> tuple[list, list[str]]:
    """The sizes a suite runs, and its warnings.  sizes are the tuples its
    caps admit, in run order, checks(*size) the check count of one, and
    rule the warning of a cap that left sizes out, or None.

    The counts are added in run order, and at the first partial sum past
    MAX_SUITE_CHECKS no size runs: the one warning gives that sum, and no
    size after it is taken.  With no size and no rule, the one warning
    says that no size is within the limits."""
    planned, total = [], 0
    for size in sizes:
        total += checks(*size)
        if total > MAX_SUITE_CHECKS:
            return [], [f"{name} projects {total} checks, over the budget of {MAX_SUITE_CHECKS}"]
        planned.append(size)
    if rule is None and not planned:
        rule = "no size within the limits"
    return planned, [rule] if rule else []


def _graph_checks(n: int, r: int) -> int:
    """Every graph on n qubits against every tuple of n trees on r nodes."""
    return (1 << (n * (n - 1) // 2)) * catalan(r) ** n


def suite_lemma1(max_n: int = 3) -> dict:
    """Graph projector from the tau-sum formula vs. from the generator group."""
    name = "lemma1"
    bits, rule = _cap(MAX_DIM, "dense dimension 2^n is", max_n)
    sizes = ((n,) for n in range(1, min(max_n, bits) + 1))
    sizes, warnings = _plan(name, sizes, lambda n: 1 << (n * (n - 1) // 2), rule)
    checks = 0
    failures = []
    for (n,) in sizes:
        for adj in all_graphs(n):
            lhs = rho_graph_formula(adj)
            rhs = rho_from_code(graph_generator(adj))
            checks += 1
            if not lhs.same_as(rhs):
                failures.append({"graph": to_text(adj.rows, n)})
    return _result(name, checks, failures, warnings)


def suite_lemma2(max_r: int = 3) -> dict:
    """Closed form of the tau cyclic sum, exhaustively over trees and bits:
    one check per tree and pair of bit vectors."""
    name = "lemma2"
    sizes = ((r,) for r in range(1, max_r + 1))
    sizes, warnings = _plan(name, sizes, lambda r: catalan(r) << (2 * r), None)
    checks = 0
    failures = []
    for (r,) in sizes:
        for tree in enumerate_trees(r):
            checks += 1 << (2 * r)
            pairs = zip(cyclic_sum_table(permutation_of(tree)), closed_form_table(tree))
            for i, (a, b) in enumerate(pairs):
                if a != b:
                    u, v = divmod(i, 1 << r)
                    failures.append({"tree": repr(tree), "u": _bits(u, r), "v": _bits(v, r)})
    return _result(name, checks, failures, warnings)


def suite_lemma3(max_n: int = 3, max_r: int = 3) -> dict:
    """Signed tuple-space sums against exact traces, every graph and tuple.

    A graph state has amplitudes +-2^(-n/2), so each graph's projector,
    built once per n, is factored exactly as c * s s^T with every entry
    checked (_sign_factor); a projector with no such form fails each of
    its checks.  The traces of all tuples come from one walk
    (_walked_traces): level q moves the sign mask of s^(tensor r) by the
    masked swaps of qubit q's tree, made once per (qubit, tree) from
    _bit_targets (_qubit_swaps), and each trace is one popcount over all
    2^(n*r) basis indices.  The walk composes the copy permutation qubit
    by qubit but never factors a trace per qubit, as the lemma's signed
    sum does: s^(tensor r) of an entangled graph state is no product over
    qubits.  It runs in step with the walk over the graph's tuple spaces
    and forms, and reads neither.  The tuple-space cardinalities of the
    edgeless graph, which all_graphs yields first, normalize every trace.
    A tuple and an exact trace are built only for a failure's record,
    which lemma3_failure makes.
    """
    name = "lemma3"
    bits, rule = _cap(MAX_DIM, "dense dimension 2^(n*r) is", max_n * max_r if max_r > 0 else 0)
    sizes = ((n, r) for n in range(1, min(max_n, bits) + 1)
             for r in range(1, min(max_r, bits // n) + 1))
    sizes, warnings = _plan(name, sizes, _graph_checks, rule)
    checks = 0
    failures = []
    for n, degrees in itertools.groupby(sizes, operator.itemgetter(0)):
        factored = [
            (adj, _sign_factor(rho_from_code(graph_generator(adj))))
            for adj in all_graphs(n)
        ]
        for _, r in degrees:
            degree = _Degree(r, n * r)
            swaps = _qubit_swaps(degree, n)
            norms = None
            for adj, factor in factored:
                spaces = GraphTupleSpaces(adj, r, degree)
                if not any(adj.rows):
                    norms = [space.bit_count() for space in spaces.walk()]
                if factor:
                    traces, scale = _walked_traces(*factor, n, r, swaps), r * factor[0].scale
                else:
                    traces, scale = itertools.repeat(None), 0
                walked = zip(spaces.walk(), spaces.forms(), traces, norms)
                for i, (space, q, trace, norm) in enumerate(walked):
                    checks += 1
                    # lemma3_failure's test: a real trace, scaled by norm,
                    # equal to the signed sum, which equals the cardinality
                    if trace and not trace[1] and not space & q:
                        if trace[0] * norm == space.bit_count() << scale:
                            continue
                    tup = _nth_tuple(i, n, degree.trees)
                    if found := spaces.lemma3_failure(tup, trace and Dyadic(*trace, scale), norm):
                        failures.append(found)
    return _result(name, checks, failures, warnings)


def suite_lemma4(max_n: int = 3, max_r: int = 3) -> dict:
    """The graph quadratic form vanishes on every tuple space: one walk
    per graph and degree over its spaces and forms, which builds a tuple
    only for a failure's record, made by lemma4_failure."""
    name = "lemma4"
    sizes = ((n, r) for n in range(1, max_n + 1) for r in range(1, max_r + 1)) if max_r > 0 else ()
    sizes, warnings = _plan(name, sizes, _graph_checks, None)
    checks = 0
    failures = []
    for n, r in sizes:
        degree = _Degree(r, n * r)
        for adj in all_graphs(n):
            spaces = GraphTupleSpaces(adj, r, degree)
            for i, bad in enumerate(map(operator.and_, spaces.walk(), spaces.forms())):
                checks += 1
                if bad and (found := spaces.lemma4_failure(_nth_tuple(i, n, degree.trees))):
                    failures.append(found)
    return _result(name, checks, failures, warnings)


def suite_theorem1(
    max_n: int = 3,
    max_r: int = 3,
    codes_per_k: int = 20,
    seed: int = 0,
) -> dict:
    """The central certification: log2 of the exact trace minus the binary
    kernel dimension is t - n*r for every code, where t counts the maximal
    right paths of the tuple's trees, and the dimension is the code's
    record that fingerprint prints, which must be of the tuple's trees."""
    from .invariants import records

    name = "theorem1"
    bits, rule = _cap(MAX_DIM, "dense dimension 2^(n*r) is", max_n * max_r if max_r > 1 else 0)
    sizes = ((n, r) for n in range(1, min(max_n, bits) + 1)
             for r in range(2, min(max_r, bits // n) + 1))
    # codes_per_k codes for each k = 0..n against every tuple
    sizes, warnings = _plan(name, sizes, lambda n, r: (n + 1) * codes_per_k * catalan(r) ** n, rule)
    checks = 0
    failures = []
    for n, degrees in itertools.groupby(sizes, operator.itemgetter(0)):
        codes = [
            random_code(n, k, seed=(seed, n, k, c))
            for k in range(n + 1)
            for c in range(codes_per_k)
        ]
        rhos = [rho_from_code(gen) for gen in codes]
        for _, r in degrees:
            streams = [records(gen, r) for gen in codes]
            # the packing width depends on r, so each projector is packed
            # once per degree and shared by all of its tuples
            packs = [_pack([rho] * r) for rho in rhos]
            for tup, *recs in zip(all_tuples(n, r), *streams, strict=True):
                tables = _entry_tables(tup)
                expected = sum(len(t.paths) for t in tup.trees) - n * r
                checks += len(codes)
                for gen, pack, (sers, dim) in zip(codes, packs, recs):
                    trace = _contract(tables, *pack)
                    try:
                        offset = trace.log2() - dim
                    except ValueError:
                        detail = {"trace": str(trace)}
                    else:
                        if (record := ";".join(sers)) != tup.id():
                            detail = {"record": record}
                        elif offset != expected:
                            detail = {"offset": offset, "expected": expected}
                        else:
                            continue
                    failures.append({"n": n, "tuple": tup.id(), "k": gen.k} | detail)
    return _result(name, checks, failures, warnings)


def suite_theorem2(
    max_n: int = 3,
    max_r: int = 3,
    codes_per_k: int = 5,
    seed: int = 0,
) -> dict:
    """Kernel dimension vs. direct enumeration of constrained codeword
    tuples, exhaustively over tree tuples, one point table per code and r;
    the dimension is the code's record that fingerprint prints."""
    from .invariants import records

    name = "theorem2"
    bits, rule = _cap(MAX_ENUM, "2^(r*k) points are", max_n * max_r if max_r > 0 else 0)
    sizes = ((n, r, k) for n in range(1, max_n + 1) for r in range(1, max_r + 1)
             for k in range(min(n, bits // r) + 1)) if max_r > 0 else ()
    sizes, warnings = _plan(name, sizes, lambda n, r, k: codes_per_k * catalan(r) ** n, rule)
    checks = 0
    failures = []
    for n, r, k in sizes:
        degree = _Degree(r, k * r)
        names = [serialize(tree) for tree in degree.trees]
        for c in range(codes_per_k):
            gen = random_code(n, k, seed=(seed, n, k, c))
            spaces = TupleSpaces(gen, r, degree)
            walked = zip(itertools.product(names, repeat=n), spaces.walk(), records(gen, r),
                         strict=True)
            for trees, space, (sers, lhs) in walked:
                checks += 1
                rhs = _log2_size(space)
                if tuple(sers) != trees:
                    failures.append({
                        "n": n, "k": k, "tuple": ";".join(trees), "record": ";".join(sers),
                    })
                elif lhs != rhs:
                    failures.append({
                        "n": n, "k": k, "tuple": ";".join(trees), "kernel": lhs, "enumeration": rhs,
                    })
    return _result(name, checks, failures, warnings)


def _result(name: str, checks: int, failures: list, warnings: list) -> dict:
    """A suite report; "skipped" when no check could run."""
    return {
        "suite": name,
        "status": "fail" if failures else "pass" if checks else "skipped",
        "checks": checks,
        "failures": failures,
        "warnings": warnings,
    }


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "theorem1": suite_theorem1,
    "theorem2": suite_theorem2,
}
