"""Exact Z[tau] geometry: tile placement and gluing, symmetry axes, assemblies."""

import sys

from .assembly import (
    Assembly,
    AssemblyError,
    Dihedral,
    Mesh,
    PlacedTile,
    TriangleFace,
    assemble,
    dihedrals,
    expected_face_census,
    export_obj,
    export_patch,
    squared_edges,
)

# axes and placement load on first use: only checks and tests read them, so a
# build need not pay to compile and run them; __import__, as in
# icotile.__getattr__, so that -X importtime lists them
_LAZY = {"axis_classes": f"{__name__}.axes",
         **dict.fromkeys(("AmbiguityError", "CongruenceError", "GlueError",
                          "face_correspondences", "glue", "realize"), f"{__name__}.placement")}


def __getattr__(name):
    if name in _LAZY:
        __import__(_LAZY[name])
        return getattr(sys.modules[_LAZY[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AmbiguityError",
    "Assembly",
    "AssemblyError",
    "CongruenceError",
    "Dihedral",
    "GlueError",
    "Mesh",
    "PlacedTile",
    "TriangleFace",
    "assemble",
    "axis_classes",
    "dihedrals",
    "expected_face_census",
    "export_obj",
    "export_patch",
    "face_correspondences",
    "glue",
    "realize",
    "squared_edges",
]
