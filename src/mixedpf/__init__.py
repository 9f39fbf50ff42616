"""Exact-arithmetic engine for partition functions of edge-coloring models.

Evaluates ordinary, skew and mixed partition functions of (k, 2*ell)-color
models on multigraphs over Q(i), builds edge-connection matrices over
fragment families with exact ranks, and ships independent brute-force
oracles for every identity the engine claims.

The names below are the public API: what the README and the CLI document,
and the types they return.  Everything else stays importable from its own
module (``mixedpf.oracles``, ``mixedpf.linalg``, ...).
"""

from .algebra import GaussianRational, I
from .connection import (
    ConnectionMatrix,
    FragmentTensor,
    connection_matrix,
    exact_rank,
    fragment_tensor,
    gram_pairing,
)
from .evaluator import EvaluationResult, partition_function, partition_function_many
from .graph import (
    Fragment,
    MultiGraph,
    circle_graph,
    cycle_graph,
    disjoint_union,
    enumerate_eulerian_subsets,
    format_fragment,
    glue,
    parse_fragments,
    parse_graph,
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
from .suites import SUITES, RunReport

__all__ = [
    "GaussianRational",
    "I",
    "MultiGraph",
    "Fragment",
    "parse_graph",
    "parse_fragments",
    "format_fragment",
    "glue",
    "disjoint_union",
    "circle_graph",
    "cycle_graph",
    "enumerate_eulerian_subsets",
    "EdgeColoringModel",
    "matchings_model",
    "charpoly_model",
    "circuit_pos_model",
    "circuit_neg_model",
    "circuit_odd_model",
    "tensor_model",
    "model_from_spec",
    "model_from_json",
    "model_to_json",
    "partition_function",
    "partition_function_many",
    "EvaluationResult",
    "fragment_tensor",
    "FragmentTensor",
    "gram_pairing",
    "connection_matrix",
    "ConnectionMatrix",
    "exact_rank",
    "SUITES",
    "RunReport",
]
