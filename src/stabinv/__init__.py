"""Local-unitary invariants of stabilizer codes over GF(2).

The library computes the complete tree-indexed family of local-unitary
invariant dimensions of a stabilizer code purely in the binary symplectic
formalism, and ships an exact dense-operator oracle that certifies the
binary computation at desk scale.
"""

from .errors import BudgetError, ParseError
from .invariants import (
    Fingerprint,
    InvariantRecord,
    TreeTuple,
    all_tuples,
    compare_global,
    degree2_dim,
    degree2_tuple,
    fingerprint,
    first_difference,
    identity_tuple,
    invariant_dim,
    pad_degree,
    parse_tuple,
    reduce_singleton,
    theorem2_dim,
)
from .oracle import (
    Dyadic,
    ExactOperator,
    closed_form_table,
    cyclic_sum_table,
    invariant_trace,
    pauli_op,
    rho_from_code,
    rho_graph_formula,
    t_pi,
    tau_op,
)
from .stabilizer import (
    AdjacencyMatrix,
    GeneratorMatrix,
    LocalCliffordOp,
    apply_local_clifford,
    graph_generator,
    permute_qubits,
    random_code,
    restrict_to,
    support,
    symplectic_product,
    validate,
)
from .trees import (
    BinaryTree,
    enumerate_trees,
    maximal_right_paths,
    permutation_of,
    r_matrix,
    d_matrix,
    v_space_dimension,
)

__version__ = "0.1.0"
