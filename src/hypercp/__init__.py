"""Core-periphery detection in hypergraphs.

Scores every node of a hypergraph by how "core" it is, by globally
solving a norm-constrained nonconvex objective with a linearly
convergent fixed-point iteration, plus a planted-structure random
generator, three baseline detectors, and profile-based evaluation.
"""

from .hypergraph import Hypergraph, XiRule, xi_vector
from .solver import (
    SolverConfig,
    SolverResult,
    eigen_residual,
    hypernsm,
    iteration_map,
    objective,
    objective_gradient,
    thompson_distance,
)
from .generator import (
    GeneratorConfig,
    edge_coreness,
    edge_probability,
    hypercycle,
    mle_objective,
    sample,
)
from .baselines import UmhsResult, borgatti_everett, clique_expansion, graph_nsm, umhs
from .profiles import (
    ProfileCurve,
    intersection_curve,
    permuted_coordinates,
    profile_curve,
    profile_value,
    rank_by_score,
)
from .ingest import (
    read_edge_list,
    read_label_set,
    read_simplex_stream,
    write_edge_list,
)

__version__ = "0.1.0"

__all__ = [
    "Hypergraph",
    "XiRule",
    "xi_vector",
    "SolverConfig",
    "SolverResult",
    "hypernsm",
    "objective",
    "objective_gradient",
    "iteration_map",
    "eigen_residual",
    "thompson_distance",
    "GeneratorConfig",
    "sample",
    "edge_coreness",
    "edge_probability",
    "mle_objective",
    "hypercycle",
    "clique_expansion",
    "graph_nsm",
    "borgatti_everett",
    "umhs",
    "UmhsResult",
    "ProfileCurve",
    "profile_value",
    "profile_curve",
    "intersection_curve",
    "permuted_coordinates",
    "rank_by_score",
    "read_edge_list",
    "write_edge_list",
    "read_simplex_stream",
    "read_label_set",
]
