"""icotile: exact arithmetic and geometry for an icosahedral tiling system.

Six tetrahedral tiles with edges 1 and tau (the golden ratio) assemble
into dodecahedra, icosahedra and four composite tiles that inflate by a
factor tau under an integer substitution matrix.  Everything countable
is computed exactly in Q(tau); floating point appears only at the
presentation boundary.
"""

import sys

from . import catalog, golden
from .catalog import TileKind, record
from .golden import GoldenRational, SIGMA, SQRT5, TAU, embed, tau_pow

__version__ = "0.1.0"


def __getattr__(name):
    # geometry, inflation, and inflation's CountVector, M and inflate_counts
    # resolve on first use, so a subcommand loads only the layers it reads.
    # __import__ takes an import statement's path, which -X importtime
    # reports (importlib.import_module's is not); `from . import geometry`
    # here would re-enter this hook without end
    if name in ("geometry", "inflation"):
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name in ("CountVector", "M", "inflate_counts"):
        return getattr(__getattr__("inflation"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CountVector",
    "GoldenRational",
    "M",
    "SIGMA",
    "SQRT5",
    "TAU",
    "TileKind",
    "catalog",
    "embed",
    "geometry",
    "golden",
    "inflate_counts",
    "inflation",
    "record",
    "tau_pow",
    "__version__",
]
