"""Per-layer metrics from the spans that tracer.py writes.

A span's self time is its duration minus the durations of its direct
children; since children nest inside their parent, that is the part of
the parent's interval no child covers.  Every metric is per workload
operation: totals over the traced operations of a run divided by their
number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

NS = 1e-9


@dataclass
class Totals:
    """Span and counter totals over the traced processes of a run."""

    calls: dict[str, int] = field(default_factory=dict)
    inclusive_ns: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    dim_durations_ns: list[np.ndarray] = field(default_factory=list)
    compared_dim_calls: int = 0
    uncovered_ns: int = 0
    absent: set[str] = field(default_factory=set)

    def add(self, table: dict[str, int], key: str, value: int) -> None:
        table[key] = table.get(key, 0) + int(value)

    def load(self, prefix: str, process_wall_s: float) -> None:
        """Fold in one traced process; its wall time comes from the parent."""
        with open(prefix + ".json", encoding="ascii") as fh:
            header = json.load(fh)
        n = header["spans"]
        with open(prefix + ".bin", "rb") as fh:
            raw = fh.read()
        name_ids = np.frombuffer(raw, np.uint16, n, 0).astype(np.int64)
        parents = np.frombuffer(raw, np.int32, n, 2 * n).astype(np.int64)
        starts = np.frombuffer(raw, np.int64, n, 6 * n)
        ends = np.frombuffer(raw, np.int64, n, 14 * n)
        durations = ends - starts
        nested = parents >= 0
        covered_by_children = np.zeros(n, dtype=np.int64)
        np.add.at(covered_by_children, parents[nested], durations[nested])
        self_times = durations - covered_by_children

        names = header["names"]
        calls = np.bincount(name_ids, minlength=len(names))
        inclusive = np.bincount(name_ids, weights=durations, minlength=len(names))
        exclusive = np.bincount(name_ids, weights=self_times, minlength=len(names))
        for i, name in enumerate(names):
            self.add(self.calls, name, calls[i])
            self.add(self.inclusive_ns, name, inclusive[i])
            self.add(self.self_ns, name, exclusive[i])
        for name, value in header["counters"].items():
            self.add(self.counters, name, value)
        if "invariants.invariant_dim" in names:
            dim_id = names.index("invariants.invariant_dim")
            self.dim_durations_ns.append(durations[name_ids == dim_id])
            if header["counters"].get("invariants.compare_needed"):
                self.compared_dim_calls += int(calls[dim_id])
        self.uncovered_ns += int(process_wall_s / NS) - int(durations[~nested].sum())
        self.absent.update(header["absent"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Totals, ops: int) -> dict[str, float]:
    """Per-operation layer values keyed by metric name; units are in
    BENCHMARK.json."""

    def calls(name):
        return t.calls.get(name, 0) / ops

    def incl(name):
        return t.inclusive_ns.get(name, 0) * NS / ops

    def self_(name):
        return t.self_ns.get(name, 0) * NS / ops

    def count(name):
        return t.counters.get(name, 0) / ops

    dims = np.concatenate(t.dim_durations_ns) if t.dim_durations_ns else np.zeros(0)
    p50, p99 = (np.percentile(dims, [50, 99]) / 1e3) if dims.size else (0.0, 0.0)
    return {
        "cli.self_s": self_("cli.main") + self_("cli.command"),
        "invariants.dim_calls": calls("invariants.invariant_dim"),
        "invariants.dim_s": incl("invariants.invariant_dim"),
        "invariants.dim_us.p50": float(p50),
        "invariants.dim_us.p99": float(p99),
        "invariants.matrix_self_s": self_("invariants.invariant_matrix"),
        "invariants.fingerprint_calls": calls("invariants.fingerprint"),
        "invariants.fingerprint_self_s": self_("invariants.fingerprint"),
        "invariants.search_self_s": self_("invariants.compare_global"),
        "invariants.compare_useful_ratio": _ratio(
            t.counters.get("invariants.compare_needed", 0), t.compared_dim_calls
        ),
        "gf2.kron_calls": calls("gf2.kron"),
        "gf2.kron_s": incl("gf2.kron"),
        "gf2.stack_s": incl("gf2.stack_rows"),
        "gf2.transpose_s": incl("gf2.transpose"),
        "gf2.from_dense_calls": count("gf2.from_dense"),
        "gf2.rank_calls": calls("gf2.rank"),
        "gf2.rank_s": incl("gf2.rank"),
        "gf2.elim_bits": count("gf2.elim_bits"),
        "gf2.kernel_basis_s": incl("gf2.kernel_basis"),
        "trees.r_matrix_calls": calls("trees.r_matrix"),
        "trees.r_matrix_s": incl("trees.r_matrix"),
        "trees.r_matrix_reuse": _ratio(
            t.counters.get("trees.distinct_trees", 0), t.calls.get("trees.r_matrix", 0)
        ),
        "trees.enumerate_s": incl("trees.enumerate_trees"),
        "stabilizer.subblock_calls": calls("stabilizer.qubit_subblock"),
        "stabilizer.subblock_s": incl("stabilizer.qubit_subblock"),
        "stabilizer.parse_s": incl("stabilizer.parse_code"),
        "oracle.rho_calls": calls("oracle.rho_from_code"),
        "oracle.rho_s": incl("oracle.rho_from_code"),
        "oracle.t_pi_s": incl("oracle.t_pi"),
        "oracle.trace_calls": calls("oracle.invariant_trace"),
        "oracle.trace_self_s": self_("oracle.invariant_trace"),
        "oracle.a_direct_calls": calls("oracle.a_direct"),
        "oracle.a_direct_s": incl("oracle.a_direct"),
        "oracle.a_closed_s": incl("oracle.a_closed"),
        "oracle.tuple_basis_s": incl("oracle.tuple_space_basis"),
        "oracle.quad_form_s": incl("oracle.quad_form_values"),
        "oracle.graph_formula_s": incl("oracle.rho_graph_formula"),
        "trace.uncovered_s": t.uncovered_ns * NS / ops,
    }
