"""Properties of the library source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stabinv"


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
    loads: everything outside function bodies, class bodies included.
    A module of the package counts as ".name"."""
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
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.module else [alias.name for alias in node.names]
            names.update("." + module.split(".")[0] for module in modules)
        stack.extend(ast.iter_child_nodes(node))
    return names


def all_imports(path: Path) -> set[str]:
    """Top-level names of every module the file imports anywhere,
    function bodies included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_the_engine_loads_numpy():
    # codes, random draws, trees, the package, the CLI and the oracle work
    # on Python ints, so that validate, every early exit, the lemma suites
    # and the theorem suites below degree 4 start without numpy; it loads
    # only where the engine eliminates a kernel, which degree-2 and
    # degree-3 records never need: in _kernel_dim and in to_dense, which
    # makes the blocks it eliminates
    loaders, importers = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "numpy" in module_level_imports(tree):
            loaders.add(path.name)
        importers |= {
            f"{path.stem}.{func.name}"
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "numpy" in module_level_imports(ast.Module(body=func.body, type_ignores=[]))
        }
    assert loaders == set()
    assert importers == {"gf2.to_dense", "invariants._kernel_dim"}
    assert "fractions" in all_imports(SRC / "oracle.py")


def test_no_module_loads_dataclasses_inspect_or_fractions():
    # each costs a CLI child start-up time; records build on errors.Frozen,
    # the CLI reads a suite's parameters from its code object, and only a
    # failure text makes a Fraction.  The oracle leaves the engine to the
    # theorem suites, so the lemma suites never load it.
    loaded = {
        path.name: module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {".errors", ".trees", ".stabilizer"} <= loaded["oracle.py"]
    unwanted = {"dataclasses", "inspect", "fractions"}
    assert {name for name, mods in loaded.items() if unwanted & mods} == set()
    assert {name for name, mods in loaded.items() if ".invariants" in mods} == set()


def test_oracle_imports_no_engine_internals():
    # the oracle may take the engine's answer from invariants, never the
    # machinery behind that answer; it takes tree tuples from trees
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "invariants" and node.level == 1
        for alias in node.names
    }
    assert imported == {"records"}


def test_only_the_engine_calls_to_dense():
    # codes, graphs and trees hand out int rows; a dense array is made
    # only where numpy eliminates it
    callers = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "to_dense"
    }
    assert callers == {"invariants.py"}


def test_only_main_writes_to_stdout():
    # each command returns its payload and exit code, and main alone
    # prints it as JSON on stdout; no other code of the CLI may print or
    # touch a standard stream
    writers = {
        getattr(top, "name", None)
        for top in ast.parse((SRC / "cli.py").read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "print")
        or (isinstance(node, ast.Attribute) and node.attr in ("stdout", "__stdout__"))
    }
    assert writers == {"main"}


def test_one_owner_lays_out_the_copy_permutation():
    # the oracle reads a tree's copy permutation in _bit_targets, which
    # lays out T_pi's index bits for both the dense entry tables and
    # lemma3's masked swaps, and in suite_lemma2, whose cyclic sums act
    # on one tree at a time; no other place may lay out those bits again
    users = {
        getattr(top, "name", None)
        for top in ast.parse((SRC / "oracle.py").read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute))
        and getattr(node, "id", getattr(node, "attr", None)) == "permutation_of"
    }
    assert users == {"_bit_targets", "suite_lemma2"}


def test_one_owner_computes_a_record():
    # every record, of one tuple, of a qubit subset or of a sweep, comes
    # from _records: only it builds blocks, eliminates them, takes ranks
    # or reads subcode bases, so no second route can grow back
    readers = {name: set() for name in ("_block", "_kernel_dim", "rank", "subcode_basis")}
    for top in ast.parse((SRC / "invariants.py").read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = getattr(node, "id", getattr(node, "attr", None))
                readers.get(name, set()).add(getattr(top, "name", None))
    assert readers == {
        "_block": {"_records"},
        "_kernel_dim": {"_records"},
        "rank": {"_records"},
        "subcode_basis": {"_records"},
    }


def test_one_owner_sizes_a_suite():
    # every suite is sized by _plan: only it reads the check budget, the
    # oracle projects no count of its own, and the dense cap is the
    # constant MAX_DIM, which no caller passes in
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    readers = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "MAX_SUITE_CHECKS"
        and isinstance(node.ctx, ast.Load)
    }
    assert readers == {"_plan"}
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "capped_sum" not in imported
    params = {
        arg.arg
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.Lambda))
        for arg in node.args.args + node.args.kwonlyargs
    }
    assert "max_n" in params and "max_dim" not in params


# Works with codes, graphs and trees, random ones too, then prints whether
# numpy was imported.
ROWS_ONLY = """
import random
import sys
from stabinv.stabilizer import (
    AdjacencyMatrix, GeneratorMatrix, LocalCliffordOp, all_graphs, apply_local_clifford,
    format_code, graph_generator, parse_code, permute_qubits, random_code, restrict_to,
)
from stabinv.trees import d_matrix, enumerate_trees

codes = [
    GeneratorMatrix((0b10, 0b01, 0b01, 0b10), 2),
    parse_code("pauli\\nXZI\\nZXZ\\nIZX\\n"),
    GeneratorMatrix((0, 0, 1, 1), 1),
    graph_generator(AdjacencyMatrix.from_edges(3, [(1, 2), (2, 3)])),
]
codes += [graph_generator(adj) for adj in all_graphs(3)]
codes += [random_code(4, k, (k, 4)) for k in range(1, 5)]
rng = random.Random(0)
graph = graph_generator(AdjacencyMatrix.random(4, rng))
codes.append(apply_local_clifford(LocalCliffordOp.random(4, rng), graph))
for gen in codes:
    for fmt in ("bits", "pauli"):
        assert parse_code(format_code(gen, fmt)).n == gen.n
    assert GeneratorMatrix(gen.rows, gen.k) == gen
    restrict_to(gen, [1])
    permute_qubits(gen, list(range(gen.n, 0, -1)))
for r in range(1, 5):
    for tree in enumerate_trees(r):
        tree.paths, d_matrix(tree)
print("numpy" in sys.modules)
"""


def test_codes_graphs_and_trees_never_load_numpy():
    src = str(SRC.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", ROWS_ONLY],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def readme_public_api() -> set[tuple[str, str]]:
    """The (module file, name) pairs that README's "Public API" section
    lists, one `module.name` per bullet."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return {(f"{m}.py", name) for m, name in re.findall(r"^- `(\w+)\.(\w+)`", section, re.M)}


def top_level_names(top: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a def's or class's name,
    or the names an assignment binds."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else []
    targets += [top.target] if isinstance(top, ast.AnnAssign) else []
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def test_every_public_name_has_a_caller_or_a_stated_reason():
    # a public top-level def or class is run by other code of the package
    # (a docstring mention is none), or README lists it as public API with
    # the reason it stays; so code that only tests or demos use cannot
    # grow back unnoticed, and README lists no name that is gone.  A
    # private top-level def or class and every module-level constant must
    # be read by other code of the package, whatever README says, so that
    # no helper or tunable outlives its last reader; dunders are exempt
    public, must_read, users = set(), set(), {}
    for path in sorted(SRC.glob("*.py")):
        for i, top in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            owner = (path.name, i)
            for name in top_level_names(top):
                if name.startswith("__") and name.endswith("__"):
                    continue
                is_public = isinstance(top, (ast.FunctionDef, ast.ClassDef)) and name[0] != "_"
                (public if is_public else must_read).add((path.name, name, owner))
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    users.setdefault(name, set()).add(owner)
    unused = {(path, name) for path, name, owner in public if not users.get(name, set()) - {owner}}
    unread = {(path, name) for path, name, owner in must_read if not users.get(name, set()) - {owner}}
    listed = readme_public_api()
    assert unused - listed == set()
    assert listed - {(path, name) for path, name, _ in public} == set()
    assert unread == set()
