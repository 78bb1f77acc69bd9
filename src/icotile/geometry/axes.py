"""Icosahedral symmetry axes in the half-integer coordinate frame.

The reference vertex set is the twelve cyclic permutations of
(0, +-1/2, +-tau/2), the points of the i1 wiring.  Its rotation axes
fall into three classes: 6 five-fold (through opposite vertices), 10
three-fold (through opposite face centres) and 15 two-fold (through
opposite edge midpoints).  The axes are built exactly from the
vertices, as doubled Z[tau] pairs: two vertices are adjacent when their
doubled squared distance is 4, a face centre direction is the sum of
three mutually adjacent vertices and an edge midpoint direction the sum
of two.  A face's class is found by the line of its normal, keyed
exactly as the normal over its first nonzero entry in Q(tau), among the
lines of the 31 axes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from ..golden import GoldenRational
from . import _dot, _normal, _points, _sub, _vsum, _wiring

__all__ = ["axis_classes"]


def _doubled_vertices() -> tuple:
    """The twelve vertices as doubled Z[tau] pairs, nested (12, 3, 2): the
    points of the i1 wiring."""
    return tuple(_wiring.I1_COORDS.values())


def _one_per_pair(dirs) -> tuple:
    """The directions whose opposite does not come before them."""
    dirs = _points(dirs)
    return tuple(d for i, d in enumerate(dirs) if tuple((-a, -b) for a, b in d) not in dirs[:i])


def _line(n) -> tuple | None:
    """The line through a nonzero vector of Z[tau] pairs as a key, exact and
    the same for every nonzero multiple: n over its first nonzero entry."""
    for i, x in enumerate(n):
        if any(x):
            return i, *(GoldenRational(*y) / GoldenRational(*x) for y in n[i + 1:])
    return None


@lru_cache(maxsize=None)
def _axes() -> dict[str, tuple]:
    """Axis class name -> one doubled direction per +- pair, nested (k, 3, 2)."""
    verts = _doubled_vertices()
    adjacent = {(i, j) for i, j in combinations(range(12), 2)
                if _dot(d := _sub(verts[i], verts[j]), d) == (4, 0)}
    pairs = [_vsum((verts[i], verts[j])) for i, j in sorted(adjacent)]
    triples = [_vsum((verts[i], verts[j], verts[k])) for i, j, k in combinations(range(12), 3)
               if {(i, j), (j, k), (i, k)} <= adjacent]
    return {"five-fold": _one_per_pair(verts), "three-fold": _one_per_pair(triples),
            "two-fold": _one_per_pair(pairs)}


@lru_cache(maxsize=None)
def _axis_lines() -> dict[tuple, str]:
    """The line of every axis, keyed as _line, to its class."""
    return {_line(d): label for label, dirs in _axes().items() for d in dirs}


def axis_classes(faces) -> list[str]:
    """'five-fold', 'three-fold', 'two-fold' or 'none' for each face of a
    stack of doubled Z[tau] corners, nested (F, k, 3, 2): the class of the
    axis on the line of the face's normal (c1 - c0) x (c2 - c0), found
    exactly by its key, and 'none' for a zero normal or no such axis.
    """
    lines = _axis_lines()
    return [lines.get(_line(_normal(*_points(face)[:3])), "none") for face in faces]
