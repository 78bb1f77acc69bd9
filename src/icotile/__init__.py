"""icotile: exact arithmetic and geometry for an icosahedral tiling system.

Six tetrahedral tiles with edges 1 and tau (the golden ratio) assemble
into dodecahedra, icosahedra and four composite tiles that inflate by a
factor tau under an integer substitution matrix.  Everything countable
is computed exactly in Q(tau); floating point appears only at the
presentation boundary.  The package binds no name but __version__: each
is imported from the module that defines it.
"""

__version__ = "0.1.0"
