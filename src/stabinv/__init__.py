"""Local-unitary invariants of stabilizer codes over GF(2).

The library computes the complete tree-indexed family of local-unitary
invariant dimensions of a stabilizer code purely in the binary symplectic
formalism, and ships an exact dense-operator oracle that certifies the
binary computation at desk scale.

The names below resolve on first use (PEP 562), so importing the package
loads no submodule, and the oracle's lemma suites never load the engine;
numpy loads only when `invariants` eliminates a kernel (degree 4 or
more, or one `invariant_dim`) or `random_code` draws a code.
"""

import importlib

_EXPORTS = {
    "errors": ("BudgetError", "InvalidCodeError", "ParseError"),
    "invariants": (
        "Fingerprint",
        "InvariantRecord",
        "compare_global",
        "degree2_dim",
        "degree2_tuple",
        "fingerprint",
        "first_difference",
        "identity_tuple",
        "invariant_dim",
        "pad_degree",
        "parse_tuple",
        "reduce_singleton",
    ),
    "oracle": (
        "Dyadic",
        "ExactOperator",
        "closed_form_table",
        "cyclic_sum_table",
        "invariant_trace",
        "pauli_op",
        "rho_from_code",
        "rho_graph_formula",
        "t_pi",
        "tau_op",
        "theorem2_dim",
    ),
    "stabilizer": (
        "AdjacencyMatrix",
        "GeneratorMatrix",
        "LocalCliffordOp",
        "apply_local_clifford",
        "graph_generator",
        "permute_qubits",
        "random_code",
        "restrict_to",
        "support",
        "symplectic_product",
        "validate",
    ),
    "trees": (
        "BinaryTree",
        "TreeTuple",
        "all_tuples",
        "enumerate_trees",
        "maximal_right_paths",
        "permutation_of",
        "r_matrix",
        "d_matrix",
        "v_space_dimension",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
