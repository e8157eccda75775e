"""DP-coloring toolkit.

Covers and representative sets generalize list coloring: above every
vertex sits a fiber of (vertex, color) pairs, edges carry matchings
between fibers, and a coloring picks one pair per fiber so that few
matching edges are hit.  This package provides exact solvers for that
model, plane embeddings with face tracing, a constructive coloring
pipeline for plane graphs without 4- or 6-cycles (lists of size 3,
impropriety at most 1), and an exact integer discharging auditor.
"""

from .catalog import load as load_catalog
from .covers import (
    Cover,
    CoverViolation,
    random_cover,
    uniform_assignment,
    validate_cover,
)
from .discharging import (
    AuditReport,
    ChargeLedger,
    apply_rules,
    audit_cases,
    charge_str,
    initial_charges,
)
from .embedding import (
    PlaneGraph,
    plane_from_rotations,
    trace_faces,
)
from .errors import DpColorError
from .generate import generate_plane_no46
from .graphs import (
    Graph,
    build_graph,
    has_forbidden_cycles,
    is_connected,
)
from .reduction import (
    ConfigKind,
    PipelineResult,
    color_planar_no46,
    reduce_and_color,
    verify_config_reducible,
)
from .solver import (
    Colorability,
    dp_chromatic,
    find_rep_set,
    impropriety,
    is_dp_colorable,
    max_impropriety,
)

__all__ = [
    "AuditReport",
    "ChargeLedger",
    "Colorability",
    "ConfigKind",
    "Cover",
    "CoverViolation",
    "DpColorError",
    "Graph",
    "PipelineResult",
    "PlaneGraph",
    "apply_rules",
    "audit_cases",
    "build_graph",
    "charge_str",
    "color_planar_no46",
    "dp_chromatic",
    "find_rep_set",
    "generate_plane_no46",
    "has_forbidden_cycles",
    "impropriety",
    "initial_charges",
    "is_connected",
    "is_dp_colorable",
    "load_catalog",
    "max_impropriety",
    "plane_from_rotations",
    "random_cover",
    "reduce_and_color",
    "trace_faces",
    "uniform_assignment",
    "validate_cover",
    "verify_config_reducible",
]

__version__ = "0.1.0"
