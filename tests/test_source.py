"""Properties of the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stabinv"


def test_no_assert_statements():
    # python -O strips assert, so no correctness check may rely on one
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_oracle_imports_no_engine_internals():
    # the oracle may take tuples and the engine's answer from invariants,
    # never the machinery behind that answer
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "invariants" and node.level == 1
        for alias in node.names
    }
    assert imported
    assert imported <= {"TreeTuple", "all_tuples", "invariant_dim"}
