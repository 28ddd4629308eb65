"""End-to-end tests of the stabinv command-line interface."""

import json

import pytest

from stabinv import cli
from stabinv.invariants import degree2_dim
from stabinv.stabilizer import AdjacencyMatrix, format_code, graph_generator, parse_code

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


def test_validate_pauli_format(capsys, prod2):
    code, payload = run_json(capsys, "validate", prod2, "--code-format", "pauli")
    assert code == 0
    assert payload["status"] == "ok"
    code = cli.main(["validate", prod2, "--code-format", "bits"])
    capsys.readouterr()
    assert code == 2


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


def test_fingerprint_out_file(capsys, edge2, tmp_path):
    out = tmp_path / "fp.json"
    code = cli.main(["fingerprint", edge2, "--rmax", "2", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["r_max"] == 2


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


def test_oracle_check_zero_limits_skip(capsys):
    code, payload = run_json(capsys, "oracle-check", "--suite", "theorem1", "--max-n", "0")
    assert code == 0
    assert payload["status"] == "skipped"
    assert payload["warnings"]


def test_oracle_check_budget_skips(capsys):
    code, payload = run_json(
        capsys, "oracle-check", "--suite", "theorem1",
        "--max-n", "2", "--max-r", "2", "--max-dim", "2",
    )
    assert code == 0
    assert payload["status"] in ("pass", "skipped")
    assert payload["warnings"]  # everything over budget is reported, not failed
    code, payload = run_json(capsys, "oracle-check", "--suite", "lemma2", "--max-r", "7")
    assert code == 0
    assert payload["status"] == "skipped"
    assert "7616356 checks" in payload["warnings"][0]
    code, payload = run_json(
        capsys, "oracle-check", "--suite", "theorem1", "--max-n", "3", "--max-r", "3",
        "--seed", "1", "--max-dim", "256",
    )
    assert code == 0
    assert payload["warnings"] == ["skipped n=3, r=3: 2^9 over budget"]


def test_oracle_check_deterministic(capsys):
    _, out_a = run(capsys, "oracle-check", "--suite", "theorem2",
                   "--max-n", "2", "--max-r", "2", "--seed", "5")
    _, out_b = run(capsys, "oracle-check", "--suite", "theorem2",
                   "--max-n", "2", "--max-r", "2", "--seed", "5")
    assert out_a == out_b


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        cli.main(["fingerprint"])  # missing required file and --rmax
    assert info.value.code == 2


def test_table_format(capsys, edge2):
    code, out = run(capsys, "validate", edge2, "--format", "table")
    assert code == 0
    assert "status: ok" in out


def test_code_flag_alias(capsys, edge2):
    code, payload = run_json(capsys, "fingerprint", "--code", edge2, "--rmax", "2")
    assert code == 0
    assert payload["n"] == 2
    assert cli.main(["fingerprint", "--rmax", "2"]) == 2  # no code given
    capsys.readouterr()


def test_trees_from_file(capsys, edge2, tmp_path):
    spec = tmp_path / "tuple.trees"
    spec.write_text("(L())\n(L())\n")
    code, payload = run_json(capsys, "invariant", edge2, "--trees", f"@{spec}")
    assert code == 0
    assert payload["tuple"] == "(L());(L())"
