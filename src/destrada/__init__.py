"""Distance spectra and distance Estrada indices of connected graphs.

The library computes exact integer distance matrices, eigendecomposes them
with a dependency-free symmetric solver, evaluates a nine-entry catalog of
bounds and identities on the distance Estrada index, and verifies the whole
catalog exhaustively over small labeled graphs.
"""

from .bounds import (
    CATALOG,
    CATALOG_IDS,
    BoundReport,
    DistSpectrumClass,
    EstradaValue,
    ExpBound,
    GraphEvaluation,
    SpectralMismatchError,
    bound_report,
    comparisons_from,
    estrada_index,
    evaluate,
    is_complete,
    is_complete_multipartite,
    lemma4_classify,
    pair_report,
    reports_from,
)
from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphFamily,
    GraphFormatError,
    PreconditionError,
    complement,
    generate,
    is_connected,
    parse_edge_list,
    parse_graph6,
    to_graph6,
    twin_classes,
)
from .metric import DistanceMatrix, distance_matrix, sum_sq_distances
from .records import ReportRecord, build_record
from .spectra import (
    EigenConvergenceError,
    Spectrum,
    adjacency_matrix,
    distance_spectrum,
    eig_sym,
    lemma1_check,
    lemma2_spectrum,
)
from .verify import VerificationSummary, verify_population

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CATALOG",
    "CATALOG_IDS",
    "DisconnectedGraphError",
    "DistSpectrumClass",
    "DistanceMatrix",
    "EigenConvergenceError",
    "EstradaValue",
    "ExpBound",
    "Graph",
    "GraphEvaluation",
    "GraphFamily",
    "GraphFormatError",
    "PreconditionError",
    "ReportRecord",
    "SpectralMismatchError",
    "Spectrum",
    "VerificationSummary",
    "adjacency_matrix",
    "bound_report",
    "build_record",
    "comparisons_from",
    "complement",
    "distance_matrix",
    "distance_spectrum",
    "eig_sym",
    "estrada_index",
    "evaluate",
    "generate",
    "is_complete",
    "is_complete_multipartite",
    "is_connected",
    "lemma1_check",
    "lemma2_spectrum",
    "lemma4_classify",
    "pair_report",
    "parse_edge_list",
    "parse_graph6",
    "reports_from",
    "sum_sq_distances",
    "to_graph6",
    "twin_classes",
    "verify_population",
]
