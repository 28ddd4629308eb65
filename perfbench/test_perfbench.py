"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py

The planted-fault tests corrupt real CLI output and require the
workload's check to count the damage, so a broken program cannot pass
with error_rate 0.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import inputs
import reference
from run import Client
from workloads import Certify, Screen, Sweep

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def client(tmp_path):
    client = Client(ROOT, tmp_path, time.perf_counter())
    yield client
    client.close()


def run_op(client, workload):
    outcomes, _ = client.op(workload.calls)
    return outcomes


def test_reference_matches_engine():
    sys.path.insert(0, str(ROOT / "src"))
    from stabinv.invariants import fingerprint
    from stabinv.stabilizer import parse_code

    for seed in range(3):
        rows = inputs.random_code(random.Random(seed), 3, 2)
        records = fingerprint(parse_code(inputs.format_bits(rows)), 3).records
        assert [(x.r, x.tuple_id, x.dim) for x in records] == reference.fingerprint(rows, 3)


def test_sweep_planted_fault(client, tmp_path):
    workload = Sweep(n=3, k=2, r_max=3)
    workload.prepare(7, tmp_path)
    (out,) = run_op(client, workload)
    assert workload.check([out]) == 0
    # the reference loop ran beside the child
    assert out.ref_units > 0 and out.ref_cpu_s > 0

    payload = json.loads(out.stdout)
    payload["records"][5]["dim"] += 1
    corrupted = replace(out, stdout=json.dumps(payload).encode())
    assert workload.check([corrupted]) == 1
    assert workload.check([replace(out, stdout=b"{")]) == workload.items


def test_screen_planted_fault(client, tmp_path):
    workload = Screen(n=4, k=2, r_max=2)
    workload.prepare(3, tmp_path)
    outcomes = run_op(client, workload)
    assert workload.check(outcomes) == 0

    payload = json.loads(outcomes[0].stdout)
    payload["first_difference"]["dim_b"] = payload["first_difference"]["dim_a"]
    outcomes[0] = replace(outcomes[0], stdout=json.dumps(payload).encode())
    outcomes[1] = replace(outcomes[1], exit_code=1)
    assert workload.check(outcomes) == 2


def test_certify_wrong_count(client, tmp_path):
    args = ["--suite", "lemma1", "--max-n", "2"]
    workload = Certify([(args, 3)])
    workload.prepare(0, tmp_path)
    assert workload.check(run_op(client, workload)) == 0

    wrong = Certify([(args, 4)])
    wrong.prepare(0, tmp_path)
    failed = wrong.check(run_op(client, wrong))
    assert failed == 4 and failed / wrong.items > 0


def test_missing_name_is_absent(monkeypatch, tmp_path):
    import tracer

    monkeypatch.setattr(tracer, "WRAPPED", (("gf2.gone", "stabinv.gf2", "no_such_function"),))
    monkeypatch.setattr(tracer, "COUNTED", ())
    sys.path.insert(0, str(ROOT / "src"))
    recorder = tracer.Recorder("run")
    recorder.install()
    recorder.write(str(tmp_path / "spans"))
    header = json.loads((tmp_path / "spans.json").read_text())
    assert header["absent"] == ["gf2.gone@stabinv.gf2.no_such_function"]
    assert header["spans"] == 0
