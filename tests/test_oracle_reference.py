"""The oracle against a numpy reference of each of its dense routes.

The reference keeps the earlier numpy formulations of the projector, the
copy permutation and its trace contraction, the cyclic-sum tables and
the tuple-space masks, as arrays over all entries or points.  Every
comparison is exact: entry for entry, trace for trace and point for
point, on every tuple with n*r <= 6 and random codes of every k.
"""

import itertools

import numpy as np

from stabinv.gf2 import to_dense
from stabinv.oracle import (
    Dyadic,
    ExactOperator,
    GraphTupleSpaces,
    TupleSpaces,
    _entry_tables,
    closed_form_table,
    cyclic_sum_table,
    product_trace,
    rho_from_code,
)
from stabinv.stabilizer import all_graphs, random_code
from stabinv.trees import (
    all_tuples,
    d_matrix,
    enumerate_trees,
    permutation_of,
    v_space_dimension,
)

# (n, r) with n * r <= 6
SIZES = [(n, r) for n in range(1, 7) for r in range(1, 6 // n + 1)]


def parity(a, r):
    out = np.zeros_like(a)
    for b in range(r):
        out ^= (a >> b) & 1
    return out


def ref_rho(gen, signs):
    """(re, im) of the projector as dim x dim int64 arrays: each factor
    applied as a signed column permutation of the dense product."""
    n = gen.n
    dense = to_dense(gen.rows, gen.k)
    x = np.arange(1 << n, dtype=np.int64)
    re, im = np.eye(1 << n, dtype=np.int64), np.zeros((1 << n, 1 << n), dtype=np.int64)
    for j, s in enumerate(signs):
        u = int("".join(str(b) for b in dense[:n, j]), 2)
        v = int("".join(str(b) for b in dense[n:, j]), 2)
        cols, tau_signs = x ^ v, 1 - 2 * parity(x & u, n)
        col_signs = s * tau_signs[cols]
        c, d = ((1, 0), (0, -1), (-1, 0), (0, 1))[bin(u & v).count("1") % 4]
        re_t, im_t = re[:, cols] * col_signs, im[:, cols] * col_signs
        re, im = re + c * re_t - d * im_t, im + c * im_t + d * re_t
    return re, im


def ref_t_pi(tup):
    n, r = tup.n, tup.r
    a = np.arange(1 << (n * r), dtype=np.int64)
    image = np.zeros_like(a)
    for q in range(1, n + 1):
        pi = permutation_of(tup.trees[q - 1])
        for c in range(1, r + 1):
            image |= ((a >> ((r - pi[c - 1]) * n + (n - q))) & 1) << ((r - c) * n + (n - q))
    return image


def ref_tables(image, n, r):
    """For each copy, the flat entry index of its operator that each basis
    index meets: row from copy c's block of the image, column from copy
    c's block of the index."""
    mask = (1 << n) - 1
    idx = np.arange(len(image), dtype=np.int64)
    return [
        ((image >> shift) & mask) << n | (idx >> shift) & mask
        for shift in range(n * (r - 1), -1, -n)
    ]


def ref_trace(tables, ops, scale):
    """The contraction over all indices at once, ops as flat (re, im)
    arrays."""
    size = len(tables[0])
    acc_re, acc_im = np.ones(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
    for index, (ore, oim) in zip(tables, ops):
        fre, fim = ore[index], oim[index]
        acc_re, acc_im = acc_re * fre - acc_im * fim, acc_re * fim + acc_im * fre
    return Dyadic(int(acc_re.sum()), int(acc_im.sum()), scale)


def ref_cyclic(image):
    r = len(image)
    x = np.arange(1 << r, dtype=np.int64)
    x_pi = np.zeros_like(x)
    for c, p in enumerate(image, start=1):
        x_pi |= ((x >> (r - p)) & 1) << (r - c)
    u = x[:, None]
    table = np.zeros((1 << r, 1 << r), dtype=np.int64)
    np.add.at(table, (u, x_pi ^ x), 1 - 2 * parity(u & x_pi, r))
    return table


def ref_closed(tree):
    r = tree.r
    bits = (np.arange(1 << r, dtype=np.int64)[:, None] >> np.arange(r - 1, -1, -1)) & 1
    in_paths = np.ones(1 << r, dtype=bool)
    for p in tree.paths:
        in_paths &= bits[:, [c - 1 for c in p]].sum(axis=1) % 2 == 0
    d = to_dense(d_matrix(tree), r).astype(np.int64)
    signs = 1 - 2 * ((bits @ d.T @ bits.T) % 2)
    magnitude = 1 << (r - v_space_dimension(tree))
    return np.where(in_paths[:, None] & in_paths[None, :], signs * magnitude, 0)


def ref_words(gen, r):
    """[row l of S X, copy j, point] as 0/1."""
    k = gen.k
    shifts = (r - 1 - np.arange(r)) * k + (k - 1 - np.arange(k))[:, None]
    x = (np.arange(1 << (k * r), dtype=np.int64) >> shifts[:, :, None]) & 1
    return np.einsum("il,ljp->ijp", to_dense(gen.rows, k).astype(np.int64), x) % 2


def ref_member(words, n, i, tree):
    rows = words[[i, n + i]]
    ok = np.ones(rows.shape[2], dtype=bool)
    for p in tree.paths:
        ok &= (rows[:, [j - 1 for j in p]].sum(axis=1) % 2 == 0).all(axis=0)
    return ok


def mask_array(mask, points):
    """A point mask as a 0/1 array over the points."""
    return np.array([(mask >> a) & 1 for a in range(points)], dtype=bool)


def codes(n, seed):
    """Two random codes of each k = 0..n."""
    return [random_code(n, k, seed=(seed, n, k, c)) for k in range(n + 1) for c in range(2)]


def random_signs(gen, rng):
    return tuple(int(s) for s in rng.choice((1, -1), gen.k))


def test_rho_matches_the_numpy_reference():
    rng = np.random.default_rng(50)
    complex_seen = 0
    for n in range(1, 7):
        for gen in codes(n, 50):
            for signs in ((1,) * gen.k, random_signs(gen, rng)):
                rho = rho_from_code(gen, signs=signs)
                re, im = ref_rho(gen, signs)
                assert (rho.re, rho.im) == (tuple(re.ravel()), tuple(im.ravel())), gen
                complex_seen += any(rho.im)
    assert complex_seen > 20


def test_traces_match_the_numpy_reference():
    # each copy gets its own signed projector, so that no two copies agree;
    # random Gaussian-integer operators give traces that are not real
    rng = np.random.default_rng(51)
    traces = complex_traces = 0
    for n, r in SIZES:
        tuples = list(all_tuples(n, r))
        tables = [_entry_tables(tup) for tup in tuples]
        expected_tables = [ref_tables(ref_t_pi(tup), n, r) for tup in tuples]
        for tup, mine, ref in zip(tuples, tables, expected_tables):
            assert len(mine) == r, tup.id()
            for c, (entries, index) in enumerate(zip(mine, ref)):
                assert entries == index.tolist(), (tup.id(), c)
        stacks = [
            [rho_from_code(gen, signs=random_signs(gen, rng)) for _ in range(r)]
            for gen in codes(n, 51)
        ]
        stacks += [
            [ExactOperator(n, *rng.integers(-3, 4, (2, 1 << (2 * n))), scale=c) for c in range(r)]
            for _ in range(2)
        ]
        for ops in stacks:
            flat = [(np.array(op.re), np.array(op.im)) for op in ops]
            scale = sum(op.scale for op in ops)
            expected = [ref_trace(ref, flat, scale) for ref in expected_tables]
            assert [product_trace(entries, ops) for entries in tables] == expected, (n, r)
            traces += len(expected)
            complex_traces += sum(t.im != 0 for t in expected)
    assert traces == sum((2 * n + 4) * len(tuples) for n, r in SIZES
                         for tuples in [list(all_tuples(n, r))])
    assert complex_traces > 100


def test_cyclic_sum_tables_match_the_numpy_reference():
    for r in range(1, 6):
        for tree in enumerate_trees(r):
            image = permutation_of(tree)
            assert cyclic_sum_table(image) == ref_cyclic(image).ravel().tolist(), tree
            assert closed_form_table(tree) == ref_closed(tree).ravel().tolist(), tree


def test_tuple_space_masks_match_the_numpy_reference():
    for n, r in SIZES:
        for gen in codes(n, 52):
            spaces, words = TupleSpaces(gen, r), ref_words(gen, r)
            points = 1 << (gen.k * r)
            for l, j in itertools.product(range(2 * n), range(r)):
                assert np.array_equal(mask_array(spaces.words[l][j], points), words[l, j])
            for i, tree in itertools.product(range(n), enumerate_trees(r)):
                expected = ref_member(words, n, i, tree)
                assert np.array_equal(mask_array(spaces.member[i][tree], points), expected)


def test_graph_form_masks_match_the_numpy_reference():
    # every third graph, at most 64 of them per n
    for n, r in SIZES:
        for adj in itertools.islice(all_graphs(n), 0, 3 * 64, 3):
            spaces = GraphTupleSpaces(adj, r)
            words = ref_words(spaces.gen, r)
            s, x = words[:n], words[n:]
            lower = np.tril(to_dense(adj.rows, n).astype(np.int64), -1)
            base = np.einsum("il,ijp,ljp->p", lower, x, x) % 2 == 1
            points = 1 << (n * r)
            assert np.array_equal(mask_array(spaces.base, points), base)
            for tree in enumerate_trees(r):
                d = to_dense(d_matrix(tree), r).T.astype(np.int64)
                for i in range(n):
                    term = (d @ x[i] % 2 * s[i]).sum(axis=0) % 2 == 1
                    assert np.array_equal(mask_array(spaces.term[i][tree], points), term)
