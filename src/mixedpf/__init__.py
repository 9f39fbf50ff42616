"""Exact-arithmetic engine for partition functions of edge-coloring models.

Evaluates ordinary, skew and mixed partition functions of (k, 2*ell)-color
models on multigraphs over Q(i), builds edge-connection matrices over
fragment families with exact ranks, and ships independent brute-force
oracles for every identity the engine claims.
"""

from .algebra import (
    GaussianRational,
    I,
    MixedVector,
    double_factorial_odd,
    dual_basis,
    super_bilinear_form,
)
from .connection import (
    ConnectionMatrix,
    DirectedMatching,
    FragmentTensor,
    canonical_matching_sign,
    connection_matrix,
    dglrs_constraint_sum,
    exact_rank,
    fragment_tensor,
    gram_pairing,
    matching_sign,
)
from .evaluator import (
    EvaluationResult,
    eulerian_sum,
    invariance_check,
    partition_function,
    partition_function_many,
)
from .graph import (
    EulerianState,
    Fragment,
    MultiGraph,
    build_G_pi,
    circle_graph,
    cycle_graph,
    decompose,
    disjoint_union,
    enumerate_eulerian_subsets,
    eulerian_state,
    flip_walk,
    format_fragment,
    glue,
    glue_with_maps,
    parse_fragments,
    parse_graph,
    walk_decomposition,
)
from .models import (
    EdgeColoringModel,
    charpoly_model,
    circuit_neg_model,
    circuit_odd_model,
    circuit_pos_model,
    matchings_model,
    model_from_json,
    model_from_spec,
    model_to_json,
    tensor_model,
)
from .oracles import (
    Polynomial,
    adjacency_determinant,
    adjacency_matrix,
    charpoly_oracle,
    circuit_partition_oracle,
    matching_count_oracle,
    permutation_sign_oracle,
    sachs_oracle,
)
from .suites import SUITES, RunReport

__all__ = [name for name in dir() if not name.startswith("_")]
