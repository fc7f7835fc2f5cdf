"""Two-colored quasi-best-match graphs: recognition, structure and construction.

The package works with small bipartite two-colored digraphs.  It recognizes
quasi-best-match graphs by their three neighborhood axioms, analyzes induced
paths and cycles of the underlying undirected graph, finds dominating
bicliques and biclique/stable-set splits, decomposes connected recognized
graphs into type-A parts, handles orientations and bitournaments,
constructs graphs from leaf-colored phylogenetic trees with truncation maps,
and exhaustively enumerates and classifies small instances.
"""

from .axioms import (
    AxiomWitness,
    RecognitionReport,
    find_n1_violation,
    find_n2_violation,
    find_n3_violation,
    is_hereditary_on,
    is_qbmg,
    is_qbmg_masks,
    recognize,
)
from .bicliques import (
    Biclique,
    find_dominating_biclique,
    maximal_bicliques,
)
from .decompose import Decomposition, KosPartition, decompose_type_a, is_type_a, kos_partition
from .dgf import format_dgf, parse_dgf
from .digraph import (
    CanonicalForm,
    Digraph,
    UGraph,
    build_digraph,
    build_ugraph,
    canonical_form,
    induced_subdigraph,
    underlying,
    weak_components,
)
from .enumeration import (
    ClassificationResult,
    TheoremCheck,
    VerifyReport,
    all_bipartite_digraphs,
    classify_qbmgs,
    cycle_template,
    orientations_of,
    path_template,
    verify_paper_counts,
)
from .errors import (
    Disconnected,
    DuplicateEdge,
    InvalidTruncation,
    LoopEdge,
    MonochromaticEdge,
    NotBiclique,
    NotOriented,
    NotPhylogenetic,
    NotQbmg,
    NotSurjective,
    ParseError,
    QbmgError,
    TooLarge,
)
from .orientation import (
    all_orientations,
    bitournament_report,
    orient,
    oriented_biclique_subdigraph,
    star_conditions,
    topological_order,
)
from .paths import (
    InducedCycle,
    InducedPath,
    find_induced_cycle,
    find_induced_path,
)
from .trees import (
    LeafColoring,
    PhyloTree,
    TruncationMap,
    best_match_graph,
    parse_tree,
    qbmg_from_tree,
    root_truncation,
    search_explanation,
    tree_from_nested,
)

__version__ = "0.1.0"
