"""mainspec: main eigenvalues of graphs, walk-matrix rank, and complements.

The package computes the main spectrum of a simple undirected graph two ways
— a dense LAPACK eigendecomposition with all-ones projections, and the exact
integer rank of the walk matrix — cross-checks them, and bundles checkers for
a family of claims tying main eigenvalues to degrees, harmonicity, and the
complement's spectrum.
"""
from .analysis import GraphAnalysis, RouteDisagreementError, analyze_graph
from .exact import (
    NotEquitableError,
    WalkMatrix,
    divisor_walk_matrix,
    exact_det,
    exact_rank,
    verify_equitable,
    walk_matrix,
)
from .graph6 import (
    EdgeListError,
    Graph6Error,
    parse_edgelist,
    parse_graph6,
    serialize_edgelist,
    serialize_graph6,
)
from .graphs import (
    FamilySpec,
    Graph,
    ParameterError,
    build_family,
    complete,
    complete_bipartite,
    cycle,
    double_star,
    harmonic_tree,
    is_bipartite,
    is_connected,
    path,
    pendant_decorated,
    star,
)
from .spectra import (
    AmbiguousGroupingError,
    ConvergenceError,
    EigenDecomposition,
    EigenGroup,
    MainSpectrum,
    SpectralInvariantError,
    eigen_decompose,
)
from .theorems import ALL_IDS, CLAIMS, TheoremReport

__version__ = "0.1.0"

__all__ = [
    "ALL_IDS",
    "AmbiguousGroupingError",
    "CLAIMS",
    "ConvergenceError",
    "EdgeListError",
    "EigenDecomposition",
    "EigenGroup",
    "FamilySpec",
    "Graph",
    "Graph6Error",
    "GraphAnalysis",
    "MainSpectrum",
    "NotEquitableError",
    "ParameterError",
    "RouteDisagreementError",
    "SpectralInvariantError",
    "TheoremReport",
    "WalkMatrix",
    "analyze_graph",
    "build_family",
    "complete",
    "complete_bipartite",
    "cycle",
    "divisor_walk_matrix",
    "double_star",
    "eigen_decompose",
    "exact_det",
    "exact_rank",
    "harmonic_tree",
    "is_bipartite",
    "is_connected",
    "parse_edgelist",
    "parse_graph6",
    "path",
    "pendant_decorated",
    "serialize_edgelist",
    "serialize_graph6",
    "star",
    "verify_equitable",
    "walk_matrix",
]
