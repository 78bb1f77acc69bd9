"""The tile vocabulary (kinds, catalog order, assembly targets, starting
patches) and the package's frozen-record base.  The records, volumes and
inventories are icotile._catalog's, loaded on their first read."""

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
    "STARTING_PATCHES",
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


class _DataclassFields:
    # a record class's __dataclass_fields__, for dataclasses.fields and
    # dataclasses.replace (which then calls the constructor, as _replace
    # does): made per class on its first read, which loads dataclasses
    def __get__(self, obj, cls):
        if "_dataclass_fields" not in cls.__dict__:
            from dataclasses import make_dataclass
            cls._dataclass_fields = make_dataclass(cls.__name__, cls._init).__dataclass_fields__
        return cls._dataclass_fields


class _Record:
    """A frozen record, as a frozen dataclass is, without loading dataclasses:
    its fields are its class's annotated names in order, and a class attribute
    is a field's default.  The constructor takes every field but those in
    _derived, then runs _check, which may set or normalise fields with
    object.__setattr__; _replace goes through it again, and so does
    dataclasses.replace.  repr leaves out the fields in _hidden.  Records
    compare and hash by their fields, or by identity when declared eq=False."""

    _derived = _hidden = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls, eq=True):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._init = tuple(f for f in cls._fields if f not in cls._derived)
        cls._names = frozenset(cls._init)
        cls._defaults = {f: cls.__dict__[f] for f in cls._init if f in cls.__dict__}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        given = dict(zip(self._init, args), **kwargs)
        values = {**self._defaults, **given}
        if len(given) != len(args) + len(kwargs) or values.keys() != self._names:
            raise TypeError(f"{type(self).__name__} takes the fields {self._init}")
        self.__dict__.update(values)
        self._check()

    @classmethod
    def _decided(cls, *values):
        """A record of values in field order, unchecked: for facts already decided."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls._fields, values))
        return obj

    def _check(self):
        pass

    def _replace(self, **changes):
        return type(self)(**dict({f: self.__dict__[f] for f in self._init}, **changes))

    def __setattr__(self, name, value=None):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ \
            else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{f}={self.__dict__[f]!r}" for f in self._fields if f not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"


CATALOG_ORDER = [
    TileKind.t1, TileKind.t2, TileKind.t3, TileKind.t4, TileKind.t5, TileKind.t6,
    TileKind.E, TileKind.C,
    TileKind.T1, TileKind.T2, TileKind.T3, TileKind.T4, TileKind.T3bar,
]

# the clusters geometry.assemble() builds, and the starting patches that
# inflation.BASES holds (a composite tile or a dodecahedron); kept here so the
# CLI can list them without loading the geometry layer or the records
ASSEMBLY_TARGETS = ("d1", "i1", "E", "C", "T1", "T2", "T3", "T3bar", "T4")
STARTING_PATCHES = ("T1", "T2", "T3", "T4", "d1", "dtau")


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
