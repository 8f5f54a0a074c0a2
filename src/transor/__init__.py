"""Strong-module decomposition and exact transitive-orientation enumeration."""

from importlib import import_module

from .errors import (
    DomainError,
    InvariantError,
    OracleScaleError,
    ParseError,
    TransorError,
)
from .graph import (
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
    Orientation,
    count_orientations,
    enumerate_orientations,
    is_transitive,
    orientation_at,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The oracle loads on first use: it pulls in fractions, which no verb needs.
    if name in ("oracle", "strong_modules_of_order"):
        oracle = import_module(".oracle", __name__)
        return oracle if name == "oracle" else oracle.strong_modules_of_order
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ColorClass",
    "ColorMap",
    "DecompositionNode",
    "DomainError",
    "Graph",
    "InvariantError",
    "Multiplex",
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
    "directly_forces",
    "enumerate_orientations",
    "induced_subgraph",
    "is_comparability",
    "is_maximal_multiplex",
    "is_module",
    "is_strong_module",
    "is_transitive",
    "maximal_strong_partition",
    "multiplex_partition",
    "oracle",
    "orientation_at",
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
