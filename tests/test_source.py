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


def module_level_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the modules an import runs when the module
    loads: everything outside function bodies, class bodies included."""
    names = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_only_the_engine_and_the_oracle_load_numpy():
    # codes, trees, the package and the CLI work on int rows, so that
    # validate and every early exit start without numpy
    sources = sorted(SRC.glob("*.py"))
    loaders = {
        path.name
        for path in sources
        if "numpy" in module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert loaders == {"invariants.py", "oracle.py"}


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
