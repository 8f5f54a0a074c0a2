"""Strong-module decomposition and exact transitive-orientation enumeration."""

from .errors import (
    DomainError,
    InvariantError,
    OracleScaleError,
    ParseError,
    TransorError,
)
from .graph import (
    DirectedEdge,
    Graph,
    complement,
    connected_components,
    induced_subgraph,
    spanned_vertices,
)
from .io import ParsedGraph, parse_dimacs, parse_edge_list, parse_graph
from .forcing import (
    ColorClass,
    ColorMap,
    TriangleViolation,
    check_triangle_lemma,
    color_classes,
    directly_forces,
    is_comparability,
)
from .decomposition import (
    DecompositionNode,
    decomposition_tree,
    is_module,
    is_strong_module,
    maximal_strong_partition,
    quotient,
    smallest_module,
)
from .multiplex import (
    Multiplex,
    color_multiplex,
    is_maximal_multiplex,
    multiplex_partition,
    simplex_extension_exists,
)
from .orientation import (
    NodeChoice,
    Orientation,
    count_orientations,
    default_choices,
    enumerate_orientations,
    is_transitive,
    materialize,
)
from . import oracle
from .oracle import strong_modules_of_order

__version__ = "0.1.0"

__all__ = [
    "ColorClass",
    "ColorMap",
    "DecompositionNode",
    "DirectedEdge",
    "DomainError",
    "Graph",
    "InvariantError",
    "Multiplex",
    "NodeChoice",
    "OracleScaleError",
    "Orientation",
    "ParseError",
    "ParsedGraph",
    "TransorError",
    "TriangleViolation",
    "check_triangle_lemma",
    "color_classes",
    "color_multiplex",
    "complement",
    "connected_components",
    "count_orientations",
    "decomposition_tree",
    "default_choices",
    "directly_forces",
    "enumerate_orientations",
    "induced_subgraph",
    "is_comparability",
    "is_maximal_multiplex",
    "is_module",
    "is_strong_module",
    "is_transitive",
    "materialize",
    "maximal_strong_partition",
    "multiplex_partition",
    "oracle",
    "parse_dimacs",
    "parse_edge_list",
    "parse_graph",
    "quotient",
    "simplex_extension_exists",
    "smallest_module",
    "spanned_vertices",
    "strong_modules_of_order",
    "__version__",
]
