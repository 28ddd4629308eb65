"""End-to-end tests of the stabinv command-line interface."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stabinv import cli, invariants, oracle
from stabinv.invariants import degree2_dim
from stabinv.stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    format_code,
    graph_generator,
    parse_code,
)

SRC = Path(__file__).resolve().parents[1] / "src"

EDGE2_TEXT = "2 2\n01\n10\n10\n01\n"
PROD2_TEXT = "pauli\nXI\nIX\n"
BAD_PAIR_TEXT = "1 2\n10\n01\n"  # X and Z on the same qubit
ANTICOMMUTING2_TEXT = "2 2\n01\n00\n10\n00\n"  # full rank, X and Z on qubit 1
EMPTY_TEXT = "0 0\n"


@pytest.fixture
def edge2(tmp_path):
    path = tmp_path / "edge2.code"
    path.write_text(EDGE2_TEXT)
    return str(path)


@pytest.fixture
def prod2(tmp_path):
    path = tmp_path / "prod2.code"
    path.write_text(PROD2_TEXT)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_validate_ok(capsys, edge2):
    code, payload = run_json(capsys, "validate", edge2)
    assert code == 0
    assert payload == {"n": 2, "k": 2, "status": "ok"}


def test_validate_violation_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.code"
    path.write_text(BAD_PAIR_TEXT)
    code, payload = run_json(capsys, "validate", str(path))
    assert code == 1
    assert payload["status"] == "violation"
    assert payload["violation"] in ("bad-shape", "not-self-orthogonal")


def test_validate_zero_qubits_bad_shape(capsys, tmp_path):
    path = tmp_path / "empty.code"
    path.write_text(EMPTY_TEXT)
    code, payload = run_json(capsys, "validate", str(path))
    assert code == 1
    assert payload == {"n": 0, "k": 0, "status": "violation", "violation": "bad-shape"}


@pytest.mark.parametrize(
    "text, violation",
    [(ANTICOMMUTING2_TEXT, "not-self-orthogonal"), (EMPTY_TEXT, "bad-shape")],
    ids=["not-self-orthogonal", "zero-qubits"],
)
@pytest.mark.parametrize("command", ["invariant", "fingerprint", "compare"])
def test_invalid_code_exit_code(capsys, tmp_path, command, text, violation):
    path = tmp_path / "invalid.code"
    path.write_text(text)
    argv = {
        "invariant": ["invariant", str(path), "--omega", "-"],
        "fingerprint": ["fingerprint", str(path), "--rmax", "2"],
        "compare": ["compare", str(path), str(path), "--rmax", "2"],
    }[command]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"invalid code: {path}: {violation}" in captured.err


def test_validate_parse_error(capsys, tmp_path):
    path = tmp_path / "trunc.code"
    path.write_text("2 2\n01\n10\n")
    code = cli.main(["validate", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize(
    "strings, n, k, violation",
    [
        (["X", "Z"], 1, 2, "bad-shape"),
        (["XX", "XX"], 2, 2, "not-full-rank"),
        (["XI", "ZI"], 2, 2, "not-self-orthogonal"),
    ],
    ids=["bad-shape", "not-full-rank", "not-self-orthogonal"],
)
def test_invalid_pauli_file(capsys, tmp_path, strings, n, k, violation):
    # a well-formed Pauli file with no valid code is a violation, not a
    # parse error
    path = tmp_path / "invalid.code"
    path.write_text("\n".join(["pauli", *strings]) + "\n")
    code, payload = run_json(capsys, "validate", str(path))
    assert code == 1
    assert payload == {"n": n, "k": k, "status": "violation", "violation": violation}
    for argv in (
        ["fingerprint", str(path), "--rmax", "2"],
        ["compare", str(path), str(path), "--rmax", "2"],
    ):
        assert cli.main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stabinv: invalid code: {path}: {violation}\n"


def test_os_error_exit_code(capsys, edge2, tmp_path):
    # a directory where a file is wanted is a usage error, not a traceback
    for argv in (
        ["validate", str(tmp_path)],
        ["invariant", edge2, "--trees", f"@{tmp_path}"],
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stabinv: ") and "Is a directory" in captured.err
        assert captured.err.count("\n") == 1


def test_validate_pauli_format(capsys, prod2):
    # the header names the format, and no flag can force another one
    code, payload = run_json(capsys, "validate", prod2)
    assert code == 0
    assert (payload["n"], payload["k"], payload["status"]) == (2, 2, "ok")
    with pytest.raises(SystemExit) as info:
        cli.main(["validate", prod2, "--code-format", "pauli"])
    assert info.value.code == 2
    assert "--code-format" in capsys.readouterr().err


def test_invariant_identity_tuple(capsys, edge2):
    code, payload = run_json(capsys, "invariant", edge2, "--trees", "(L());(L())")
    assert code == 0
    assert payload == {"r": 2, "tuple": "(L());(L())", "dim": 0}


def test_invariant_omega_sugar_matches_library(capsys, edge2):
    gen = parse_code(EDGE2_TEXT)
    for omega_arg, omega in (("1", {1}), ("1,2", {1, 2}), ("-", set())):
        code, payload = run_json(capsys, "invariant", edge2, "--omega", omega_arg)
        assert code == 0
        assert payload["dim"] == degree2_dim(gen, omega)


def test_invariant_reads_a_tree_of_any_depth(capsys, edge2, tmp_path):
    # a 1,200-node right chain per qubit, read and written without
    # recursion; its one right path makes the constraints rank k = 2 of
    # 1,200 * k columns
    chain = "(R" * 1199 + "()" + ")" * 1199
    path = tmp_path / "deep.trees"
    path.write_text(f"{chain}\n{chain}\n")
    code, payload = run_json(capsys, "invariant", edge2, "--trees", f"@{path}")
    assert code == 0
    assert payload == {"r": 1200, "tuple": f"{chain};{chain}", "dim": 2 * 1200 - 2}


def test_invariant_rejects_sweep_spec(capsys, edge2):
    code = cli.main(["invariant", edge2, "--trees", "all:2"])
    capsys.readouterr()
    assert code == 2


def test_invariant_needs_exactly_one_spec(capsys, edge2):
    assert cli.main(["invariant", edge2]) == 2
    capsys.readouterr()
    assert cli.main(["invariant", edge2, "--trees", "(L());(L())", "--omega", "1"]) == 2
    capsys.readouterr()


def test_invariant_qubit_mismatch(capsys, edge2):
    code = cli.main(["invariant", edge2, "--trees", "(L())"])
    capsys.readouterr()
    assert code == 2


def test_fingerprint_deterministic_bytes(capsys, edge2):
    code_a, out_a = run(capsys, "fingerprint", edge2, "--rmax", "3")
    code_b, out_b = run(capsys, "fingerprint", edge2, "--rmax", "3")
    assert code_a == code_b == 0
    assert out_a == out_b
    payload = json.loads(out_a)
    assert payload["n"] == 2 and payload["r_max"] == 3
    assert len(payload["records"]) == 29


def test_fingerprint_budget_exit(capsys, edge2):
    code = cli.main(["fingerprint", edge2, "--rmax", "3", "--max-tuples", "5"])
    err = capsys.readouterr().err
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("command", ["fingerprint", "compare"])
def test_negative_max_tuples_is_a_parse_error(capsys, edge2, command):
    codes = [edge2] * (2 if command == "compare" else 1)
    code = cli.main([command, *codes, "--rmax", "2", "--max-tuples", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "stabinv: parse error: --max-tuples must be at least 0, got -1\n"


def test_fingerprint_default_budget_refuses_before_any_work(capsys, tmp_path, monkeypatch):
    # no --max-tuples: the engine's own default applies, and n=8 at
    # --rmax 3 (2^8 + 5^8 = 390,881 records) is over it
    path = tmp_path / "empty8.code"
    path.write_text(format_code(graph_generator(AdjacencyMatrix.empty(8))))

    def work(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(invariants, "_block", work)
    monkeypatch.setattr(invariants, "_records", work)
    monkeypatch.setattr(invariants, "subcode_basis", work)
    code = cli.main(["fingerprint", str(path), "--rmax", "3"])
    err = capsys.readouterr().err
    assert code == 3
    assert f"390881 records exceed budget {invariants.DEFAULT_MAX_RECORDS}" in err


@pytest.mark.parametrize("extra", [["fingerprint"], ["compare"], ["compare", "--global"]])
def test_huge_rmax_is_refused_at_the_degree_that_passes_the_budget(capsys, edge2, extra):
    # the record count is added degree by degree and stops at the first
    # partial sum past the budget, 2^2 + 5^2 + ... + 429^2 at r=7, so the
    # refusal takes no time and its message stays short at any --rmax
    command, *flags = extra
    codes = [edge2] * (2 if command == "compare" else 1)
    code = cli.main([command, *codes, "--rmax", "100000", *flags])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "stabinv: budget exceeded: 203454 records exceed budget 200000\n"


def test_compare_self_indistinguishable(capsys, edge2):
    code, payload = run_json(capsys, "compare", edge2, edge2, "--rmax", "2")
    assert code == 0
    assert payload["verdict"].startswith("indistinguishable")


def test_compare_distinguished(capsys, edge2, prod2):
    code, payload = run_json(capsys, "compare", edge2, prod2, "--rmax", "2")
    assert code == 1
    assert payload["verdict"] == "distinguished"
    diff = payload["first_difference"]
    assert diff["r"] == 2 and diff["dim_a"] != diff["dim_b"]


def test_compare_global_permuted_pair(capsys, tmp_path):
    path3 = graph_generator(AdjacencyMatrix.from_edges(3, [(1, 2), (2, 3)]))
    shuffled = graph_generator(AdjacencyMatrix.from_edges(3, [(2, 3), (3, 1)]))
    a = tmp_path / "a.code"
    b = tmp_path / "b.code"
    a.write_text(format_code(path3))
    b.write_text(format_code(shuffled))
    code, payload = run_json(capsys, "compare", str(a), str(b), "--rmax", "2", "--global")
    assert code == 0
    assert sorted(payload["permutation"]) == [1, 2, 3]


# Three n = 3, k = 2 codes by their int rows: A, an unrelated B, and A
# with its qubits relabelled.
PINNED_CODES = {"a": (3, 1, 3, 2, 3, 0), "b": (3, 2, 0, 2, 3, 0), "image": (3, 3, 1, 0, 2, 3)}


@pytest.fixture
def pinned(tmp_path):
    for name, rows in PINNED_CODES.items():
        (tmp_path / f"{name}.code").write_text(format_code(GeneratorMatrix(rows, 2)))
    return {name: str(tmp_path / f"{name}.code") for name in PINNED_CODES}


def test_compare_payloads_are_pinned(capsys, pinned):
    # the exact bytes of a plain compare's first difference and of a
    # --global match, so that neither payload's keys, order or layout moves
    for argv, exit_code, digest in (
        (("b",), 1, "c73c5bea7ca6d503b3561c6e9e22ac0881fdb3d7a7475eb57f7bc6d6e8dc32eb"),
        (("image", "--global"), 0, "e9d1ac470a3f46b801d2a508ee4fe9b83dcc7a3bef3f5500b9d6ae7acba63ad3"),
    ):
        other, *flags = argv
        code, out = run(capsys, "compare", pinned["a"], pinned[other], "--rmax", "3", *flags)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_invariant_prints_its_fingerprint_row(capsys, pinned):
    # a single tuple's record, at degrees 2 to 4, is the row fingerprint prints
    code, payload = run_json(capsys, "fingerprint", pinned["a"], "--rmax", "4")
    assert code == 0
    rows = payload["records"]
    assert {row["r"] for row in rows[::41]} == {2, 3, 4}
    for row in rows[::41]:
        assert run_json(capsys, "invariant", pinned["a"], "--trees", row["tuple"]) == (0, row)


def test_compare_length_mismatch(capsys, edge2, tmp_path):
    other = tmp_path / "one.code"
    other.write_text("1 1\n0\n1\n")
    code = cli.main(["compare", edge2, str(other), "--rmax", "2"])
    capsys.readouterr()
    assert code == 2


def test_oracle_check_lemma1(capsys):
    code, payload = run_json(capsys, "oracle-check", "--suite", "lemma1", "--max-n", "2")
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["checks"] == 3


@pytest.mark.parametrize(
    "suite, checks",
    [("lemma1", 11), ("lemma2", 356), ("lemma3", 1140), ("lemma4", 1140), ("theorem2", 3210)],
)
def test_oracle_check_suite_defaults(capsys, suite, checks):
    # no flag given: every limit is the suite's own default
    code, payload = run_json(capsys, "oracle-check", "--suite", suite)
    assert code == 0
    assert (payload["status"], payload["checks"]) == ("pass", checks)


@pytest.mark.parametrize(
    "suite, flag",
    [("lemma1", "--max-r"), ("lemma2", "--max-n"), ("lemma3", "--seed"),
     ("lemma4", "--max-dim"), ("theorem2", "--max-dim")],
)
def test_oracle_check_rejects_a_flag_the_suite_does_not_take(capsys, suite, flag):
    # a flag another suite takes is a parse error that names the suite;
    # --max-dim, which no suite takes, is argparse's usage error
    argv = ["oracle-check", "--suite", suite, flag, "2"]
    if flag == "--max-dim":
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        code, message = info.value.code, "unrecognized arguments: --max-dim 2"
    else:
        code, message = cli.main(argv), f"suite {suite} does not take {flag}"
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("suite", ["theorem1", "theorem2"])
def test_oracle_check_rejects_a_negative_seed(capsys, suite):
    code = cli.main(["oracle-check", "--suite", suite, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "stabinv: parse error: --seed must be at least 0, got -1\n"


def test_oracle_check_forwards_every_limit_to_a_kwargs_wrapper(capsys, monkeypatch):
    seen = []

    def wrapper(**kwargs):
        seen.append(kwargs)
        return oracle.suite_lemma1(max_n=1)

    monkeypatch.setitem(oracle.SUITES, "lemma1", wrapper)
    code, payload = run_json(capsys, "oracle-check", "--suite", "lemma1", "--max-n", "2",
                             "--max-r", "3", "--seed", "4")
    assert (code, payload["status"]) == (0, "pass")
    assert seen == [{"max_n": 2, "max_r": 3, "seed": 4}]


def test_oracle_check_reads_the_suite_a_wrapper_wraps(capsys, monkeypatch):
    # functools.wraps twice over: the flags are checked against lemma2
    calls = []
    suite = oracle.SUITES["lemma2"]

    @functools.wraps(suite)
    def inner(*args, **kwargs):
        calls.append(kwargs)
        return suite(*args, **kwargs)

    monkeypatch.setitem(oracle.SUITES, "lemma2", functools.wraps(inner)(lambda **kw: inner(**kw)))
    assert cli.main(["oracle-check", "--suite", "lemma2", "--max-n", "2"]) == 2
    assert "suite lemma2 does not take --max-n" in capsys.readouterr().err
    code, payload = run_json(capsys, "oracle-check", "--suite", "lemma2", "--max-r", "2")
    assert (code, payload["checks"]) == (0, 1 * 4 + 2 * 16)
    assert calls == [{"max_r": 2}]


def test_oracle_check_zero_limits_skip(capsys):
    code, payload = run_json(capsys, "oracle-check", "--suite", "theorem1", "--max-n", "0")
    assert code == cli.EXIT_SKIPPED == 6
    assert payload["status"] == "skipped"
    assert payload["warnings"] == ["no size within the limits"]


def test_oracle_check_budget_skips(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DIM", 2)
    code, payload = run_json(
        capsys, "oracle-check", "--suite", "theorem1", "--max-n", "2", "--max-r", "2",
    )
    # no size fits, so no check ran: reported, not failed
    assert (code, payload["status"]) == (cli.EXIT_SKIPPED, "skipped")
    assert payload["warnings"] == ["skipped every size whose dense dimension 2^(n*r) is over 2"]
    code, payload = run_json(capsys, "oracle-check", "--suite", "lemma2", "--max-r", "7")
    assert (code, payload["status"]) == (cli.EXIT_SKIPPED, "skipped")
    assert "7616356 checks" in payload["warnings"][0]
    monkeypatch.setattr(oracle, "MAX_DIM", 256)
    code, payload = run_json(
        capsys, "oracle-check", "--suite", "theorem1", "--max-n", "3", "--max-r", "3",
        "--seed", "1",
    )
    # a pass that skipped some sizes: every size that fit was checked
    assert (code, payload["status"]) == (0, "pass")
    assert payload["warnings"] == ["skipped every size whose dense dimension 2^(n*r) is over 256"]


def test_oracle_check_deterministic(capsys):
    _, out_a = run(capsys, "oracle-check", "--suite", "theorem2",
                   "--max-n", "2", "--max-r", "2", "--seed", "5")
    _, out_b = run(capsys, "oracle-check", "--suite", "theorem2",
                   "--max-n", "2", "--max-r", "2", "--seed", "5")
    assert out_a == out_b


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{edge2}"],
        ["invariant", "{edge2}", "--trees", "(L());(R())"],
        ["invariant", "{edge2}", "--omega", "1"],
        ["fingerprint", "{edge2}", "--rmax", "2"],
        ["compare", "{edge2}", "{prod2}", "--rmax", "2"],
        ["compare", "{edge2}", "{edge2}", "--rmax", "2", "--global"],
        ["oracle-check", "--suite", "lemma1", "--max-n", "2"],
    ],
    ids=["validate", "invariant-trees", "invariant-omega", "fingerprint", "compare",
         "compare-global", "oracle-check"],
)
def test_every_command_prints_one_indented_json_document(capsys, edge2, prod2, tmp_path, argv):
    # stdout is the payload as main writes it, and nothing else; no flag
    # picks another format or another destination
    argv = [arg.format(edge2=edge2, prod2=prod2) for arg in argv]
    cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"
    assert captured.err == ""
    for flag in (["--format", "table"], ["--format", "json"], ["--out", str(tmp_path / "f")]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv + flag)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and flag[0] in captured.err
    assert not (tmp_path / "f").exists()


def planted_fault(*args, **kwargs):
    raise RuntimeError("planted fault")


@pytest.mark.parametrize(
    "argv, fault, exit_code",
    [
        (["validate", "{edge2}"], None, 0),
        (["oracle-check", "--suite", "theorem1", "--max-n", "0"], None, 6),
        (["validate", "{bad}"], None, 1),
        (["compare", "{edge2}", "{prod2}", "--rmax", "2"], None, 1),
        (["invariant", "{edge2}"], None, 2),
        (["fingerprint", "{edge2}", "--rmax", "3", "--max-tuples", "5"], None, 3),
        (["fingerprint", "{bad}", "--rmax", "2"], None, 4),
        (["fingerprint", "{edge2}", "--rmax", "2"], (invariants, "fingerprint"), 5),
        (["oracle-check", "--suite", "theorem2", "--max-n", "1"], (oracle, "_log2_size"), 5),
        (["oracle-check", "--suite", "lemma4", "--max-n", "1"], (oracle, "_walk"), 5),
        (["oracle-check", "--suite", "lemma3", "--max-n", "3", "--max-r", "5"], None, 0),
    ],
    ids=["ok", "skipped", "violation", "distinguished", "usage", "budget", "invalid",
         "engine-fault", "theorem2-fault", "lemma4-fault", "pass-with-skips"],
)
def test_every_exit_path_gives_its_code(
    capsys, monkeypatch, tmp_path, edge2, prod2, argv, fault, exit_code
):
    # each documented exit gives its own code; an answer (0, 1 or 6)
    # prints one JSON document and nothing on stderr, every other exit
    # prints one line on stderr and nothing on stdout, and an exception no
    # other code names is an internal error (5), never a traceback read as 1
    bad = tmp_path / "bad.code"
    bad.write_text(BAD_PAIR_TEXT)
    argv = [arg.format(edge2=edge2, prod2=prod2, bad=bad) for arg in argv]
    if fault is not None:
        monkeypatch.setattr(*fault, planted_fault)
    assert cli.main(argv) == exit_code
    captured = capsys.readouterr()
    if exit_code in (0, 1, 6):
        assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err.startswith("stabinv: ") and captured.err.count("\n") == 1
    if exit_code == 5:
        assert captured.err == "stabinv: internal error: RuntimeError('planted fault')\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["fingerprint"])  # missing required file and --rmax
    assert info.value.code == 2


def test_code_file_is_one_positional(capsys, edge2):
    # a missing code file, or one given through --code, is a usage error
    for argv in (["fingerprint", "--rmax", "2"], ["fingerprint", "--code", edge2, "--rmax", "2"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_trees_from_file(capsys, edge2, tmp_path):
    spec = tmp_path / "tuple.trees"
    spec.write_text("(L())\n(L())\n")
    code, payload = run_json(capsys, "invariant", edge2, "--trees", f"@{spec}")
    assert code == 0
    assert payload["tuple"] == "(L());(L())"


# Runs the CLI, then writes on stderr which of these modules were imported.
PROBED = ("numpy", "dataclasses", "inspect", "fractions", "stabinv.invariants")
NUMPY_PROBE = (
    "import sys\n"
    "from stabinv.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(*[m for m in {PROBED!r} if m in sys.modules], file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def run_child(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_validate_and_early_exits_never_load_numpy(tmp_path):
    files = {
        "ok": EDGE2_TEXT,
        "prod": PROD2_TEXT,
        "violation": ANTICOMMUTING2_TEXT,
        "malformed": "2 2\n01\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    # degree-2 and degree-3 records are ranks of int rows, so a sweep that
    # stops at degree 3, or one tuple below degree 4, needs no elimination
    # in numpy; the oracle works on Python ints, so the lemma suites never
    # load it, and it imports the engine only inside the theorem suites,
    # whose random codes draw from random.Random, so below degree 4 they
    # run without numpy too.  No child loads dataclasses, inspect (which
    # numpy brings) or fractions.
    cases = [
        (["validate", "ok"], 0),
        (["validate", "violation"], 1),
        (["fingerprint", "malformed", "--rmax", "2"], 2),
        (["fingerprint", "violation", "--rmax", "2"], 4),
        (["invariant", "ok", "--omega", "1"], 0),
        (["invariant", "ok", "--trees", "(L());(R())"], 0),
        (["invariant", "ok", "--trees", "(L()R());(L(R()))"], 0),
        (["fingerprint", "ok", "--rmax", "3"], 0),
        (["compare", "ok", "prod", "--rmax", "3"], 1),
        (["compare", "ok", "prod", "--rmax", "3", "--global"], 1),
        (["compare", "ok", "ok", "--rmax", "3"], 0),
        (["compare", "ok", "ok", "--rmax", "3", "--global"], 0),
        (["oracle-check", "--suite", "lemma1", "--max-n", "3"], 0),
        (["oracle-check", "--suite", "lemma2", "--max-r", "4"], 0),
        (["oracle-check", "--suite", "lemma3", "--max-n", "3", "--max-r", "3"], 0),
        (["oracle-check", "--suite", "lemma4", "--max-n", "3", "--max-r", "3"], 0),
        (["oracle-check", "--suite", "theorem1", "--max-n", "2", "--max-r", "3"], 0),
        (["oracle-check", "--suite", "theorem2", "--max-n", "2", "--max-r", "3"], 0),
    ]
    for argv, exit_code in cases:
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        proc = run_child("-c", NUMPY_PROBE, *argv)
        assert proc.returncode == exit_code, proc.stderr
        loaded = set(proc.stderr.splitlines()[-1].split())
        assert loaded <= {"stabinv.invariants"}, argv
        if argv[0] == "oracle-check" and argv[2].startswith("lemma"):
            assert not loaded, argv
    # the probe does see numpy (which imports inspect) once a degree-4
    # kernel is eliminated
    for argv in (
        ["invariant", "ok", "--trees", "(L()R(L()));(L(L())R())"],
        ["fingerprint", "ok", "--rmax", "4"],
        ["compare", "ok", "ok", "--rmax", "4"],
        ["oracle-check", "--suite", "theorem2", "--max-n", "2", "--max-r", "4"],
    ):
        argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
        proc = run_child("-c", NUMPY_PROBE, *argv)
        loaded = set(proc.stderr.splitlines()[-1].split())
        assert proc.returncode == 0, proc.stderr
        assert "numpy" in loaded and not loaded & {"dataclasses", "fractions"}, argv
    imported = f"import sys, stabinv.cli; print(*[m for m in {PROBED!r} if m in sys.modules])"
    proc = run_child("-c", imported)
    assert proc.stdout == "\n", proc.stderr


def test_suite_names_match_the_oracle():
    assert list(cli.SUITE_NAMES) == sorted(oracle.SUITES)
