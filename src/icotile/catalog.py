"""The tile vocabulary: kinds, catalog order, assembly targets.  The records,
volumes and inventories are icotile._catalog's, loaded on their first read."""

import sys
from enum import Enum

__all__ = [
    "TileKind",
    "tile_kind",
    "FaceSpec",
    "triangle_family",
    "gram_determinant",
    "EdgeScheme",
    "CMVolume",
    "edge_scheme",
    "cm_volume",
    "TileRecord",
    "Inventory",
    "record",
    "expand_to_fundamental",
    "total_volume",
    "all_records",
    "format_volume",
    "inventory",
    "INVENTORY_TARGETS",
    "ASSEMBLY_TARGETS",
    "CATALOG_ORDER",
]


class TileKind(str, Enum):
    t1 = "t1"
    t2 = "t2"
    t3 = "t3"
    t4 = "t4"
    t5 = "t5"
    t6 = "t6"
    E = "E"
    C = "C"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T3bar = "T3bar"
    T4 = "T4"

    @property
    def is_fundamental(self) -> bool:
        return self.value.startswith("t")

    def __str__(self) -> str:
        return self.value


# a str-valued member equals and hashes as its value, so one key serves both
_KINDS = {k.value: k for k in TileKind}


def tile_kind(x) -> TileKind:
    """TileKind(x) from one dict lookup instead of an Enum call; anything
    the dict misses (unhashable input too) goes to TileKind(x), which
    raises its ValueError for a name that is no kind."""
    try:
        return _KINDS[x]
    except (KeyError, TypeError):
        return TileKind(x)


CATALOG_ORDER = [
    TileKind.t1, TileKind.t2, TileKind.t3, TileKind.t4, TileKind.t5, TileKind.t6,
    TileKind.E, TileKind.C,
    TileKind.T1, TileKind.T2, TileKind.T3, TileKind.T4, TileKind.T3bar,
]

# the clusters geometry.assemble() builds; kept here so the CLI can list
# them without loading the geometry layer
ASSEMBLY_TARGETS = ("d1", "i1", "E", "C", "T1", "T2", "T3", "T3bar", "T4")


def __getattr__(name):
    # any other name is _catalog's, bound here on its first read so that a
    # scan of this namespace (perfbench's span wrapper) finds it; a dunder,
    # such as the __path__ that an import probes, must not load the records
    if not name.startswith("__"):
        __import__(f"{__package__}._catalog")
        if hasattr(records := sys.modules[f"{__package__}._catalog"], name):
            globals()[name] = getattr(records, name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
