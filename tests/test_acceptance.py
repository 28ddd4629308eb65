"""Acceptance suite: one test per release criterion, all exact.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS
lines); every check is integer arithmetic, so there are no tolerances to
tune.
"""

import itertools
import random

from stabinv import oracle
from stabinv.invariants import (
    degree2_dim,
    invariant_dim,
    pad_degree,
    reduce_singleton,
)
from stabinv.stabilizer import (
    LocalCliffordOp,
    apply_local_clifford,
    code_space,
    random_code,
    support,
)
from stabinv.trees import (
    BinaryTree,
    TreeTuple,
    catalan,
    enumerate_trees,
    parse,
    serialize,
)
from test_trees import sons

SEED = 2024


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _random_tuple(n, r, rng) -> TreeTuple:
    pool = enumerate_trees(r)
    return TreeTuple(tuple(rng.choices(pool, k=n)))


def test_criterion_1_theorem1_certification():
    # log2(exact trace) - kernel dimension is constant across codes for
    # every fixed (n, tuple): n in 1..3, r in 2..3, 20 random codes per
    # (n, k) with 0 <= k <= n.
    report = oracle.suite_theorem1(max_n=3, max_r=3, codes_per_k=20, seed=SEED)
    expected_checks = sum(
        (catalan(2) ** n + catalan(3) ** n) * (n + 1) * 20 for n in (1, 2, 3)
    )
    _report(
        1,
        "theorem-1 trace/kernel offset constancy",
        report["status"] == "pass"
        and not report["warnings"]
        and report["checks"] == expected_checks,
        f"{report['checks']} checks",
    )


def test_criterion_2_theorem2_equivalence():
    # kernel dimension == enumeration dimension for every tuple at
    # n <= 3, r <= 3 (all r*k <= 16 here, nothing skipped)
    report = oracle.suite_theorem2(max_n=3, max_r=3, codes_per_k=5, seed=SEED)
    _report(
        2,
        "theorem-2 enumeration equivalence",
        report["status"] == "pass" and not report["warnings"],
        f"{report['checks']} checks",
    )


def test_criterion_3_degree2_formula():
    rng = random.Random(SEED)
    checks = 0
    ok = True
    for n in (1, 2, 3, 4):
        for trial in range(50):
            k = rng.randrange(0, n + 1)
            gen = random_code(n, k, (SEED, n, trial))
            supports = [support(word) for word in code_space(gen)]
            for size in range(n + 1):
                for omega in itertools.combinations(range(1, n + 1), size):
                    checks += 1
                    inside = sum(s <= set(omega) for s in supports)
                    if 1 << degree2_dim(gen, omega) != inside:
                        ok = False
    _report(3, "degree-2 support formula", ok, f"{checks} checks")


def test_criterion_4_lemma2_exhaustive():
    report = oracle.suite_lemma2(max_r=5)
    expected = sum(catalan(r) * (1 << (2 * r)) for r in range(1, 6))
    _report(
        4,
        "closed form of the tau cyclic sums",
        report["status"] == "pass" and report["checks"] == expected,
        f"{report['checks']} checks incl. 42 trees at r=5",
    )


def test_criterion_5_lemma1_identity():
    report = oracle.suite_lemma1(max_n=3)
    _report(
        5,
        "graph projector tau-sum identity",
        report["status"] == "pass" and report["checks"] == 11,
        "all graphs with n <= 3",
    )


def test_criterion_6_lemma4_quadratic_form():
    report = oracle.suite_lemma4(max_n=3, max_r=3)
    _report(
        6,
        "quadratic form vanishes on tuple spaces",
        report["status"] == "pass",
        f"{report['checks']} graph/tuple pairs",
    )


def test_criterion_7_local_clifford_invariance():
    rng = random.Random(SEED + 1)
    ok = True
    for trial in range(100):
        n = rng.randrange(1, 5)
        r = rng.randrange(2, 4)
        k = rng.randrange(0, n + 1)
        gen = random_code(n, k, (SEED, trial, 7))
        op = LocalCliffordOp.random(n, rng)
        tup = _random_tuple(n, r, rng)
        if invariant_dim(gen, tup) != invariant_dim(apply_local_clifford(op, gen), tup):
            ok = False
    traces = 0
    for trial in range(30):
        n = rng.randrange(1, 3)
        k = rng.randrange(0, n + 1)
        gen = random_code(n, k, (SEED, trial, 8))
        op = LocalCliffordOp.random(n, rng)
        tup = _random_tuple(n, rng.randrange(2, 4), rng)
        traces += 1
        if oracle.invariant_trace(gen, tup) != oracle.invariant_trace(
            apply_local_clifford(op, gen), tup
        ):
            ok = False
    _report(7, "local Clifford invariance", ok, f"100 dim triples + {traces} traces")


def test_criterion_8_combinatorial_counts():
    ok = [len(enumerate_trees(r)) for r in range(1, 7)] == [1, 2, 5, 14, 42, 132]
    two = enumerate_trees(2)
    ok = ok and {sons(serialize(t))[1][0] for t in two} == {0, 2}  # left-son and right-son trees
    # the sons from the text, the paths from parse, and back
    text = "(L()R(L(L(R())R(R()))R(R())))"
    paths = ((1, 3, 9, 10), (2,), (4, 7, 8), (5, 6))
    ok = ok and sons(text) == ([2, 0, 4, 5, 0, 0, 0, 0, 0, 0], [3, 0, 9, 7, 6, 0, 8, 0, 10, 0])
    ok = ok and parse(text).paths == paths and serialize(BinaryTree(paths)) == text
    _report(8, "tree counts and the 10-node path decomposition", ok)


def test_criterion_9_degree_nesting():
    rng = random.Random(SEED + 2)
    ok = True
    reduced_cases = 0
    for trial in range(100):
        n = rng.randrange(1, 4)
        r = rng.randrange(2, 4)
        k = rng.randrange(0, n + 1)
        gen = random_code(n, k, (SEED, trial, 9))
        tup = _random_tuple(n, r, rng)
        dim = invariant_dim(gen, tup)
        padded = pad_degree(tup)
        if invariant_dim(gen, padded) != dim or reduce_singleton(padded) != tup:
            ok = False
        reduced = reduce_singleton(tup)
        if reduced is not None:
            reduced_cases += 1
            if invariant_dim(gen, reduced) != dim:
                ok = False
    _report(
        9,
        "degree padding and singleton reduction",
        ok,
        f"100 pairs, {reduced_cases} direct reductions",
    )
