"""Concrete tetrahedra in 3-space: canonical realization and face gluing.

realize() puts a tile into a canonical pose, base face in the z = 0 plane
(first vertex at the origin, second on the positive x axis, third with
y > 0) and the apex at z > 0.  glue() attaches a copy of one tile onto a
face of another by the unique isometry matching the two faces, with the
new tile on the far side; when the shared face has a symmetry that makes
several attachments legal, the caller must disambiguate with an explicit
vertex correspondence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from ..catalog import TileKind
from ..golden import embed
from .schemes import edge_scheme

__all__ = [
    "PlacedTile",
    "GlueError",
    "CongruenceError",
    "AmbiguityError",
    "realize",
    "glue",
    "face_correspondences",
]


class GlueError(ValueError):
    """No legal attachment exists for the requested gluing."""


class CongruenceError(GlueError):
    """The two faces are not congruent (edge lengths differ)."""


class AmbiguityError(GlueError):
    """Several distinct attachments are legal; pass correspondence=."""


# Vertex sequence used for the canonical pose: base triangle first, apex
# last.  Bases are the faces named in the tile descriptions: equilateral
# unit for t1/t2/t4, equilateral tau for t3/t5/t6.
_REALIZE_SEQ = {
    TileKind.t1: "ABCD",
    TileKind.t2: "ABCD",
    TileKind.t3: "BCDA",
    TileKind.t4: "BCDA",
    TileKind.t5: "BCDA",
    TileKind.t6: "ACDB",
}

_TET_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def _wound_outward(vertices: np.ndarray, faces) -> tuple[tuple[int, ...], ...]:
    """Reorder each triangle so its normal points away from the centroid."""
    cen = vertices.mean(axis=0)
    out = []
    for f in faces:
        i, j, k = f
        n = np.cross(vertices[j] - vertices[i], vertices[k] - vertices[i])
        if np.dot(n, vertices[i] - cen) < 0:
            f = (i, k, j)
        out.append(tuple(f))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PlacedTile:
    """A tile instance with concrete float coordinates.

    vertices follow the canonical realization sequence of the kind, faces
    are index triples wound outward, and parity records whether the
    instance is a direct (+1) or mirror (-1) copy of the canonical pose.
    """

    kind: TileKind
    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]
    parity: int
    name: str = field(default="", compare=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        if self.parity not in (-1, 1):
            raise ValueError("parity must be +1 or -1")

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def face_points(self, face_index: int) -> np.ndarray:
        return self.vertices[list(self.faces[face_index])]

    def face_edge_squares(self, face_index: int) -> tuple[float, ...]:
        """Squared edge lengths of a face, in cyclic order."""
        pts = self.face_points(face_index)
        n = len(pts)
        return tuple(float(np.sum((pts[(i + 1) % n] - pts[i]) ** 2)) for i in range(n))

    def volume(self) -> float:
        a, b, c, d = self.vertices
        return abs(np.linalg.det(np.stack([b - a, c - a, d - a]))) / 6.0

    def transformed(self, rot: np.ndarray, shift: np.ndarray, name: str | None = None) -> "PlacedTile":
        """Apply x -> rot @ x + shift; parity tracks det(rot)."""
        det = float(np.linalg.det(rot))
        new_parity = self.parity * (1 if det > 0 else -1)
        verts = self.vertices @ rot.T + shift
        return PlacedTile(
            kind=self.kind,
            vertices=verts,
            faces=_wound_outward(verts, self.faces),
            parity=new_parity,
            name=name if name is not None else self.name,
        )

    def find_face(self, edge_squares: tuple[float, ...], tol: float = 1e-9) -> int:
        """Index of the unique face whose squared-edge multiset matches."""
        want = sorted(edge_squares)
        hits = [
            i for i in range(len(self.faces))
            if len(self.faces[i]) == len(want)
            and all(abs(x - y) <= tol for x, y in zip(sorted(self.face_edge_squares(i)), want))
        ]
        if len(hits) != 1:
            raise ValueError(f"{len(hits)} faces of {self.kind.value} match {edge_squares}")
        return hits[0]


def realize(kind: TileKind | str) -> PlacedTile:
    """The canonical pose of a fundamental tile, parity +1."""
    kind = TileKind(kind)
    scheme = edge_scheme(kind)
    seq = _REALIZE_SEQ[kind]
    idx = ["ABCD".index(c) for c in seq]

    def q(i: int, j: int) -> float:
        return embed(scheme.squared(idx[i], idx[j]))

    s01 = math.sqrt(q(0, 1))
    v0 = np.zeros(3)
    v1 = np.array([s01, 0.0, 0.0])
    x2 = (q(0, 1) + q(0, 2) - q(1, 2)) / (2 * s01)
    y2 = math.sqrt(q(0, 2) - x2 * x2)
    v2 = np.array([x2, y2, 0.0])
    x3 = (q(0, 1) + q(0, 3) - q(1, 3)) / (2 * s01)
    y3 = (q(0, 2) + q(0, 3) - q(2, 3) - 2 * x2 * x3) / (2 * y2)
    z3 = math.sqrt(q(0, 3) - x3 * x3 - y3 * y3)
    v3 = np.array([x3, y3, z3])

    verts = np.stack([v0, v1, v2, v3])
    return PlacedTile(kind=kind, vertices=verts,
                      faces=_wound_outward(verts, _TET_FACES), parity=1)


def face_correspondences(fixed: PlacedTile, fixed_face: int,
                         moving: PlacedTile, moving_face: int,
                         tol: float = 1e-9) -> list[tuple[int, ...]]:
    """All length-preserving vertex matchings of moving_face onto fixed_face.

    Entry p means moving-face vertex i lands on fixed-face vertex p[i].
    Empty result means the faces are not congruent.
    """
    fp = fixed.face_points(fixed_face)
    mp = moving.face_points(moving_face)
    if len(fp) != 3 or len(mp) != 3:
        raise GlueError("gluing is defined for triangular faces")
    out = []
    for p in permutations(range(3)):
        ok = True
        for i in range(3):
            for j in range(i + 1, 3):
                dm = np.sum((mp[i] - mp[j]) ** 2)
                df = np.sum((fp[p[i]] - fp[p[j]]) ** 2)
                if abs(dm - df) > tol:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(p)
    return out


def _frame(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frame adapted to a triangle."""
    e1 = p1 - p0
    e1 = e1 / np.linalg.norm(e1)
    u = p2 - p0
    e2 = u - np.dot(u, e1) * e1
    e2 = e2 / np.linalg.norm(e2)
    return np.stack([e1, e2, np.cross(e1, e2)], axis=1)


def _same_placement(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """True if the two vertex sets coincide as point sets."""
    used = [False] * len(b)
    for pa in a:
        hit = False
        for i, pb in enumerate(b):
            if not used[i] and np.max(np.abs(pa - pb)) <= tol:
                used[i] = True
                hit = True
                break
        if not hit:
            return False
    return True


def glue(fixed: PlacedTile, fixed_face: int,
         moving: PlacedTile | TileKind | str, moving_face: int,
         *, flip: bool = False, correspondence: tuple[int, ...] | None = None,
         tol: float = 1e-9) -> PlacedTile:
    """Attach a copy of `moving` onto `fixed_face`, on the outside of fixed.

    The moving face is mapped exactly onto the fixed face and the moving
    tile lands on the side away from fixed's interior.  flip selects the
    orientation class of the isometry: False keeps the moving tile's
    handedness, True mirrors it.  When the face matching is ambiguous
    (symmetric face), pass correspondence=(p0, p1, p2) meaning moving-face
    vertex i goes to fixed-face vertex p_i.

    Raises CongruenceError for incongruent faces, GlueError if no
    attachment has the requested handedness, AmbiguityError if several
    distinct ones do.
    """
    if not isinstance(moving, PlacedTile):
        moving = realize(moving)

    matchings = face_correspondences(fixed, fixed_face, moving, moving_face, tol)
    if not matchings:
        raise CongruenceError(
            f"face {fixed_face} of {fixed.kind.value} and face {moving_face} of "
            f"{moving.kind.value} are not congruent")
    if correspondence is not None:
        p = tuple(correspondence)
        if sorted(p) != [0, 1, 2]:
            raise ValueError("correspondence must be a permutation of (0, 1, 2)")
        if p not in matchings:
            raise CongruenceError(f"correspondence {p} does not preserve edge lengths")
        matchings = [p]

    fp = fixed.face_points(fixed_face)
    mp = moving.face_points(moving_face)
    # outward normal of the fixed face (faces are wound outward)
    n = np.cross(fp[1] - fp[0], fp[2] - fp[0])
    n = n / np.linalg.norm(n)

    results: list[tuple[tuple[int, ...], PlacedTile]] = []
    for p in matchings:
        dst = np.stack([fp[p[i]] for i in range(3)])
        rot = _frame(dst[0], dst[1], dst[2]) @ _frame(mp[0], mp[1], mp[2]).T
        shift = dst[0] - rot @ mp[0]
        moved_cen = rot @ moving.centroid + shift
        if np.dot(moved_cen - fp[0], n) < 0:
            # wrong side: compose with the reflection across the fixed face
            refl = np.eye(3) - 2.0 * np.outer(n, n)
            shift = fp[0] + refl @ (shift - fp[0])
            rot = refl @ rot
        mirrored = float(np.linalg.det(rot)) < 0
        if mirrored != flip:
            continue
        placed = moving.transformed(rot, shift)
        if not any(_same_placement(placed.vertices, prev.vertices, tol)
                   for _, prev in results):
            results.append((p, placed))

    if not results:
        raise GlueError("no attachment with the requested handedness (flip"
                        f"={flip}) exists for this face pair")
    if len(results) > 1:
        opts = ", ".join(str(p) for p, _ in results)
        raise AmbiguityError(
            f"{len(results)} distinct attachments are legal ({opts}); "
            "pass correspondence= to choose one")
    return results[0][1]
