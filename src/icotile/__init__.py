"""icotile: exact arithmetic and geometry for an icosahedral tiling system.

Six tetrahedral tiles with edges 1 and tau (the golden ratio) assemble
into dodecahedra, icosahedra and four composite tiles that inflate by a
factor tau under an integer substitution matrix.  Everything countable
is computed exactly in Q(tau); floating point appears only at the
presentation boundary.
"""

import importlib

from . import catalog, golden, inflation
from .catalog import TileKind, record
from .golden import GoldenRational, SIGMA, SQRT5, TAU, embed, tau_pow
from .inflation import CountVector, M, inflate_counts

__version__ = "0.1.0"


def __getattr__(name):
    # geometry loads on first use: only build, verify and report need it;
    # `from . import geometry` here would re-enter this hook without end
    if name == "geometry":
        return importlib.import_module(f"{__name__}.geometry")
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
