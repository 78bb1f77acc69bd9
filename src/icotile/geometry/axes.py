"""Icosahedral symmetry axes in the half-integer coordinate frame.

The reference vertex set is the twelve cyclic permutations of
(0, +-1/2, +-tau/2), the points of the i1 wiring.  Its rotation axes
fall into three classes: 6 five-fold (through opposite vertices), 10
three-fold (through opposite face centres) and 15 two-fold (through
opposite edge midpoints).  The axes are built exactly from the
vertices, as doubled Z[tau] pairs: two vertices are adjacent when their
doubled squared distance is 4, a face centre direction is the sum of
three mutually adjacent vertices and an edge midpoint direction the sum
of two.  A face's class is decided by an exact zero cross product on the
kernel in assembly.py, for a whole stack of faces in one call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from . import _wiring
from .assembly import _AXIS_BOUND, _bounded, _embed_doubled, _gcross, _gdot

__all__ = ["icosahedron_vertices", "axis_classes", "face_axis_class"]


def _doubled_vertices() -> np.ndarray:
    """The twelve vertices as doubled Z[tau] pairs, shape (12, 3, 2): the
    points of the i1 wiring."""
    return np.array(list(_wiring.I1_COORDS.values()), dtype=np.int64)


def icosahedron_vertices() -> np.ndarray:
    """The twelve vertices, edge length 1, centered at the origin."""
    return _embed_doubled(_doubled_vertices())


def _one_per_pair(dirs: list[np.ndarray]) -> np.ndarray:
    """The directions whose opposite does not come before them."""
    d = np.array(dirs)
    return d[~np.tril((d[:, None] == -d[None]).all(axis=(2, 3)), -1).any(axis=1)]


@lru_cache(maxsize=None)
def _axes() -> dict[str, np.ndarray]:
    """Axis class name -> one doubled direction per +- pair, shape (k, 3, 2)."""
    verts = _doubled_vertices()
    d = verts[:, None] - verts[None]
    adjacent = (_gdot(d, d) == (4, 0)).all(axis=-1)
    pairs = [verts[i] + verts[j] for i, j in combinations(range(12), 2) if adjacent[i, j]]
    triples = [verts[i] + verts[j] + verts[k] for i, j, k in combinations(range(12), 3)
               if adjacent[i, j] and adjacent[j, k] and adjacent[i, k]]
    axes = {"five-fold": _one_per_pair(list(verts)), "three-fold": _one_per_pair(triples),
            "two-fold": _one_per_pair(pairs)}
    sizes = [len(a) for a in axes.values()]
    if sizes != [6, 10, 15]:
        raise RuntimeError(f"axis extraction produced wrong class sizes: {sizes}")
    return axes


def axis_classes(faces) -> list[str]:
    """'five-fold', 'three-fold', 'two-fold' or 'none' for each face of a
    stack of doubled Z[tau] corners, shape (F, k, 3, 2), each entry at most
    2**27 in magnitude (OverflowError beyond, see assembly._bounded).  All
    normals (c1 - c0) x (c2 - c0) are crossed with all 31 axes at once, in
    class order: a face gets the first class with an exact zero cross
    product, and 'none' (the last class) for a zero normal or no such axis.
    """
    c = _bounded(faces, _AXIS_BOUND)
    n = _gcross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
    labels = [label for label, axes in _axes().items() for _ in axes] + ["none"]
    hit = ~_gcross(np.concatenate(list(_axes().values()))[None], n[:, None]).any(axis=(2, 3))
    hit = np.c_[hit & n.any(axis=(1, 2))[:, None], np.ones(len(n), dtype=bool)]
    return [labels[j] for j in hit.argmax(axis=1).tolist()]


def face_axis_class(corners: np.ndarray) -> str:
    """axis_classes of the one face with these corners, shape (k, 3, 2)."""
    return axis_classes([corners])[0]
