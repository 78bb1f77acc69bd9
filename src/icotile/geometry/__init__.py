"""Exact Z[tau] geometry: tile placement and gluing, symmetry axes, assemblies."""

import sys

from ..catalog import CMVolume, EdgeScheme, cm_volume, edge_scheme
from .assembly import (
    ASSEMBLY_TARGETS,
    Assembly,
    AssemblyError,
    Dihedral,
    Mesh,
    PlacedTile,
    TriangleFace,
    assemble,
    dihedrals,
    expected_face_census,
    expected_triangle_census,
    export_obj,
    export_patch,
    squared_edges,
)

# axes and placement load on first use: only the axis-classes check and the
# tests read them, so build and report need not pay to compile and run them;
# __import__, as in icotile.__getattr__, so that -X importtime lists them
_LAZY = {**dict.fromkeys(("axis_classes", "face_axis_class", "icosahedron_vertices"), "axes"),
         **dict.fromkeys(("AmbiguityError", "CongruenceError", "GlueError",
                          "face_correspondences", "glue", "realize"), "placement")}


def __getattr__(name):
    if name in _LAZY:
        module = f"{__name__}.{_LAZY[name]}"
        __import__(module)
        return getattr(sys.modules[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
