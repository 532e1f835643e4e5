"""Certified directed-cut algorithms for degree-restricted digraphs."""

from .digraph import (
    AlgorithmBugError,
    ClassPartition,
    CutCertificate,
    Digraph,
    Edge,
    InputError,
    PreconditionError,
    ResourceLimitError,
    class_partition,
    cut_from_partition,
    extend_p3free_to_cut,
    format_dg,
    is_p3_free,
    load_dg,
    parse_dg,
    save_dg,
)

__all__ = [
    "AlgorithmBugError",
    "ClassPartition",
    "CutCertificate",
    "Digraph",
    "Edge",
    "InputError",
    "PreconditionError",
    "ResourceLimitError",
    "class_partition",
    "cut_from_partition",
    "extend_p3free_to_cut",
    "format_dg",
    "is_p3_free",
    "load_dg",
    "parse_dg",
    "save_dg",
]
