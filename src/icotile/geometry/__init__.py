"""Exact Z[tau] geometry: tile placement and gluing, symmetry axes, assemblies."""

from ..catalog import CMVolume, EdgeScheme, cm_volume, edge_scheme
from .assembly import (
    ASSEMBLY_TARGETS,
    Assembly,
    AssemblyError,
    Dihedral,
    Mesh,
    TriangleFace,
    assemble,
    dihedrals,
    expected_face_census,
    expected_triangle_census,
    export_obj,
    export_patch,
    squared_edges,
)
from .axes import axis_classes, face_axis_class, icosahedron_vertices
from .placement import (
    AmbiguityError,
    CongruenceError,
    GlueError,
    PlacedTile,
    face_correspondences,
    glue,
    realize,
)

__all__ = [
    "ASSEMBLY_TARGETS",
    "AmbiguityError",
    "Assembly",
    "AssemblyError",
    "CMVolume",
    "CongruenceError",
    "Dihedral",
    "EdgeScheme",
    "GlueError",
    "Mesh",
    "PlacedTile",
    "TriangleFace",
    "assemble",
    "axis_classes",
    "cm_volume",
    "dihedrals",
    "edge_scheme",
    "expected_face_census",
    "expected_triangle_census",
    "export_obj",
    "export_patch",
    "face_axis_class",
    "face_correspondences",
    "glue",
    "icosahedron_vertices",
    "realize",
    "squared_edges",
]
