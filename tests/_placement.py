"""Exact placement of fundamental tiles: canonical pose and face gluing.

Tiles sit in the half-integer icosahedral frame of the assemblies, as
doubled Z[tau] pairs (see icotile.geometry.PlacedTile).  glue() attaches
a copy of one tile onto a face of another, with the new tile on the far
side; when the shared face has a symmetry that makes several attachments
legal, the caller must disambiguate with an explicit vertex
correspondence.  Congruence, handedness and duplicate attachments are
decided exactly.

A reference kept in the tests: no command or check reads it, and the
tests check wiring facts against it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from icotile.catalog import TileKind, edge_scheme
from icotile.geometry import PlacedTile, _dot, _normal, _sub, _wiring, squared_edges
from icotile.golden import ZERO, GoldenRational

__all__ = [
    "GlueError",
    "CongruenceError",
    "AmbiguityError",
    "realize",
    "glue",
    "face_correspondences",
    "face_edge_squares",
    "find_face",
]


class GlueError(ValueError):
    """No legal attachment exists for the requested gluing."""


class CongruenceError(GlueError):
    """The two faces are not congruent (edge lengths differ)."""


class AmbiguityError(GlueError):
    """Several distinct attachments are legal; pass correspondence=."""


def _pair_squares(points) -> list:
    """Exact squared distances between all pairs of points, as Z[tau] pairs."""
    return [[_dot(d, d) for d in (_sub(p, q) for q in points)] for p in points]


def _corners(tile: PlacedTile, face: int) -> tuple:
    if face not in range(4):
        raise ValueError(f"face index must be 0..3, not {face!r}")
    return tuple(tile.exact[i] for i in tile.faces[face])


def face_edge_squares(tile: PlacedTile, i: int) -> tuple[GoldenRational, ...]:
    """Exact squared edge lengths of face i of tile, in cyclic order."""
    return squared_edges([tile.exact[j] for j in tile.faces[i]])


def find_face(tile: PlacedTile, squares) -> int:
    """Index of the unique face of tile whose exact squared-edge multiset matches."""
    hits = [i for i in range(4) if sorted(face_edge_squares(tile, i)) == sorted(squares)]
    if len(hits) != 1:
        raise ValueError(f"{len(hits)} faces of {tile.kind.value} match {squares}")
    return hits[0]


@lru_cache(maxsize=None)
def realize(kind: TileKind | str) -> PlacedTile:
    """The canonical pose of a fundamental tile: its first tetrahedron in
    the dodecahedron wiring, ordered label for label like edge_scheme(kind)
    with a positive triple product (parity +1)."""
    scheme = edge_scheme(kind)
    labels = next(labs for name, labs in _wiring.D1_TETS if name == kind)
    points = [_wiring.D1_COORDS[lab] for lab in labels]
    squares = _pair_squares(points)
    for perm in permutations(range(4)):
        if all(GoldenRational(*squares[perm[i]][perm[j]], 4) == scheme.squared(i, j)
               for i, j in combinations(range(4), 2)):
            tile = PlacedTile(kind=kind, exact=[points[i] for i in perm])
            if tile.parity > 0:
                return tile
    raise RuntimeError(f"no positive ordering of {kind} matches its edge scheme")


def face_correspondences(fixed: PlacedTile, fixed_face: int,
                         moving: PlacedTile, moving_face: int) -> list[tuple[int, ...]]:
    """All length-preserving vertex matchings of moving_face onto fixed_face:
    entry p means moving-face vertex i lands on fixed-face vertex p[i], and
    an empty result means the faces are not congruent."""
    fs = _pair_squares(_corners(fixed, fixed_face))
    ms = _pair_squares(_corners(moving, moving_face))
    return [p for p in permutations(range(3))
            if all(ms[i][j] == fs[p[i]][p[j]] for i, j in combinations(range(3), 2))]


def _apex(face, apex, target, normal) -> tuple:
    """Where apex lands when face is laid on target, on the side normal points to.

    apex - face[0] = s u + t v + h (u x v), u and v the face edges from
    face[0]: s and t solve two linear equations over Q(tau), and
    h = (apex - face[0]).(u x v) / |u x v|^2.  The image is target[0] plus
    s and t times target's edges plus |h| normal (as long as u x v), as
    doubled pairs; GlueError if it leaves the half-integer frame.
    """
    u, v = _sub(face[1], face[0]), _sub(face[2], face[0])
    e, n = _sub(apex, face[0]), _normal(*face)
    uu, uv, vv, eu, ev, en, nn = (GoldenRational(*_dot(x, y)) for x, y in (
        (u, u), (u, v), (v, v), (e, u), (e, v), (e, n), (n, n)))
    det = uu * vv - uv * uv
    weights = (1, (eu * vv - ev * uv) / det, (ev * uu - eu * uv) / det, abs(en / nn))
    out = []
    for xs in zip(target[0], _sub(target[1], target[0]), _sub(target[2], target[0]), normal):
        c = sum((w * GoldenRational(*x) for w, x in zip(weights, xs)), ZERO)
        if c.den != 1:
            raise GlueError(f"the attachment leaves the half-integer frame ({c} doubled)")
        out.append((c.a, c.b))
    return tuple(out)


def glue(fixed: PlacedTile, fixed_face: int,
         moving: PlacedTile | TileKind | str, moving_face: int,
         *, flip: bool = False, correspondence: tuple[int, ...] | None = None) -> PlacedTile:
    """Attach a copy of `moving` onto `fixed_face`, on the outside of fixed.

    The moving face is mapped exactly onto the fixed face and the moving
    tile lands on the side away from fixed's interior.  flip selects the
    orientation class of the isometry: False keeps the moving tile's
    handedness, True mirrors it.  When the face matching is ambiguous
    (symmetric face), pass correspondence=(p0, p1, p2) meaning moving-face
    vertex i goes to fixed-face vertex p_i.  Congruent faces have normals
    of equal length, so the apex keeps its exact coordinates over the face
    (see _apex).  Handedness is the sign of the exact triple product, and
    attachments with the same vertex set count once.

    Raises ValueError for a face index outside 0..3, CongruenceError for
    incongruent faces, GlueError if no attachment has the requested
    handedness or one leaves the half-integer frame, AmbiguityError if
    several distinct ones are legal.
    """
    if not isinstance(moving, PlacedTile):
        moving = realize(moving)

    matchings = face_correspondences(fixed, fixed_face, moving, moving_face)
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

    corners = _corners(fixed, fixed_face)
    normal = _normal(*corners)  # outward
    face = moving.faces[moving_face]
    apex = 6 - sum(face)

    results: dict[frozenset, tuple] = {}  # by vertex set: (p, tile)
    for p in matchings:
        placed = [None] * 4
        for i, q in zip(face, p):
            placed[i] = corners[q]
        placed[apex] = _apex([moving.exact[i] for i in face], moving.exact[apex],
                             [placed[i] for i in face], normal)
        tile = PlacedTile(kind=moving.kind, exact=placed, name=moving.name)
        if (tile.parity != moving.parity) == flip:
            results.setdefault(frozenset(tile.exact), (p, tile))

    if not results:
        raise GlueError("no attachment with the requested handedness (flip"
                        f"={flip}) exists for this face pair")
    if len(results) > 1:
        opts = ", ".join(str(p) for p, _ in results.values())
        raise AmbiguityError(
            f"{len(results)} distinct attachments are legal ({opts}); "
            "pass correspondence= to choose one")
    ((_, tile),) = results.values()
    return tile
