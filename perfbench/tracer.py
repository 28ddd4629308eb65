"""Run the stabinv CLI with spans recorded around calls into each layer.

    python3 tracer.py OUT_PREFIX RUN_ID -- <stabinv arguments>

Each public function in WRAPPED is replaced, at the name its caller looks
up, by a wrapper that records a span: name, start, end and parent, all
spans of one process sharing RUN_ID.  Spans stay in memory (compact
arrays) and are written when the command returns, to OUT_PREFIX.json
(names, counters, absent names) and OUT_PREFIX.bin (the span columns).
A wrapped name the program no longer has is listed as absent.  The
program's source is not modified.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (span name, module, attribute the caller looks up).  A span name may be
# wrapped at several lookup sites; an attribute with a dot is a class
# member, and a dict attribute has each of its values wrapped.
WRAPPED = (
    ("cli.main", "stabinv.cli", "main"),
    ("cli.command", "stabinv.cli", "cmd_validate"),
    ("cli.command", "stabinv.cli", "cmd_fingerprint"),
    ("cli.command", "stabinv.cli", "cmd_compare"),
    ("cli.command", "stabinv.cli", "cmd_oracle_check"),
    ("stabilizer.parse_code", "stabinv.stabilizer", "parse_code"),
    ("stabilizer.qubit_subblock", "stabinv.invariants", "qubit_subblock"),
    ("invariants.fingerprint", "stabinv.invariants", "fingerprint"),
    ("invariants.compare", "stabinv.invariants", "compare"),
    ("invariants.compare_global", "stabinv.invariants", "compare_global"),
    ("invariants.invariant_dim", "stabinv.invariants", "invariant_dim"),
    ("invariants.invariant_matrix", "stabinv.invariants", "invariant_matrix"),
    ("gf2.kron", "stabinv.invariants", "kron"),
    ("gf2.stack_rows", "stabinv.invariants", "stack_rows"),
    ("gf2.transpose", "stabinv.gf2", "GF2Matrix.transpose"),
    ("gf2.rank", "stabinv.gf2", "GF2Matrix.rank"),
    ("gf2.kernel_basis", "stabinv.gf2", "GF2Matrix.kernel_basis"),
    ("trees.r_matrix", "stabinv.invariants", "r_matrix"),
    ("trees.enumerate_trees", "stabinv.invariants", "enumerate_trees"),
    ("trees.enumerate_trees", "stabinv.oracle", "enumerate_trees"),
    ("oracle.suite", "stabinv.oracle", "SUITES"),
    ("oracle.rho_from_code", "stabinv.oracle", "rho_from_code"),
    ("oracle.t_pi", "stabinv.oracle", "t_pi"),
    ("oracle.invariant_trace", "stabinv.oracle", "invariant_trace"),
    ("oracle.a_direct", "stabinv.oracle", "a_direct"),
    ("oracle.a_closed", "stabinv.oracle", "a_closed"),
    ("oracle.tuple_space_basis", "stabinv.oracle", "tuple_space_basis"),
    ("oracle.quad_form_values", "stabinv.oracle", "quad_form_values"),
    ("oracle.rho_graph_formula", "stabinv.oracle", "rho_graph_formula"),
)

# Counted but not spanned: called so often inside other spans that a span
# would mostly measure the recorder.
COUNTED = (("gf2.from_dense", "stabinv.gf2", "GF2Matrix.from_dense"),)


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids: array = array("H")
        self.parents: array = array("i")
        self.starts: array = array("q")
        self.ends: array = array("q")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.distinct_trees: set = set()
        self.absent: list[str] = []

    def span(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counters = self.counters
        counters[name] = 0

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # hooks run after a wrapped call returns, outside its span

    def after_rank(self, args, result) -> None:
        matrix = args[0]
        self.add("gf2.elim_bits", matrix.rows * matrix.cols)

    def after_r_matrix(self, args, result) -> None:
        self.distinct_trees.add(args[0])

    def after_compare(self, args, result) -> None:
        # records the verdict needed: both codes up to the first difference
        first, second = args[0], args[1]
        if result is None:
            needed = len(first.records) + len(second.records)
        else:
            needed = 2 * (first.records.index(result[0]) + 1)
        self.add("invariants.compare_needed", needed)

    def install(self) -> None:
        hooks = {
            "gf2.rank": self.after_rank,
            "trees.r_matrix": self.after_r_matrix,
            "invariants.compare": self.after_compare,
        }
        for name, module, attr in WRAPPED:
            self._patch(name, module, attr, lambda fn, n=name: self.span(n, fn, hooks.get(n)))
        for name, module, attr in COUNTED:
            self._patch(name, module, attr, lambda fn, n=name: self.counter(n, fn))

    def _patch(self, name: str, module: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{name}@{module}.{attr}")
            return
        if isinstance(raw, dict):
            for key, value in raw.items():
                raw[key] = make(value)
        elif isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(make(raw.__func__)))
        else:
            setattr(owner, leaf, make(raw))

    def write(self, prefix: str) -> None:
        counters = dict(self.counters)
        counters["trees.distinct_trees"] = len(self.distinct_trees)
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self.starts),
            "counters": counters,
            "absent": self.absent,
        }
        with open(prefix + ".bin", "wb") as fh:
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(fh)
        with open(prefix + ".json", "w", encoding="ascii") as fh:
            json.dump(header, fh)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT_PREFIX RUN_ID -- <stabinv arguments>", file=sys.stderr)
        return 2
    prefix, run_id, cli_args = argv[0], argv[1], argv[3:]
    recorder = Recorder(run_id)
    recorder.install()
    cli = importlib.import_module("stabinv.cli")
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
