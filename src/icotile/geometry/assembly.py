"""Assembled tile clusters: dodecahedron, icosahedron and the composites.

assemble() instantiates a precomputed dissection (see _wiring) as a list
of PlacedTiles, verifies that no two tetrahedra overlap, classifies every
tetrahedron face as internal wall or outer boundary, and fuses the
boundary triangles of each plane into one polygonal face of the outer hull
by cancelling the edges they share.

A face whose three points are also a face of another tile is a wall by
index: once no two tiles overlap, they lie on its two sides.  Every other
face takes a coverage test: it is on the boundary iff its centroid pushed
an infinitesimal distance outward along its normal lies in no tetrahedron
of the cluster.  Matching alone would misread the quadrilateral contact
walls whose two sides are triangulated along different diagonals (20 of
d1's 116 walls).

Wiring points lie in the half-integer icosahedral frame, so each point has
one representation, doubled Z[tau] integer pairs, and every decision
(overlap, wall or boundary, coplanarity, collinearity, parity, face census)
is exact integer arithmetic.  Floats (mesh vertices, tile vertices,
exports) are derived from the pairs by embed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain, compress, islice

import numpy as np

from .. import catalog
from ..catalog import TileKind
from ..golden import TAU, GoldenRational, embed
from . import _wiring

__all__ = [
    "PlacedTile",
    "Mesh",
    "TriangleFace",
    "Dihedral",
    "Assembly",
    "AssemblyError",
    "ASSEMBLY_TARGETS",
    "assemble",
    "dihedrals",
    "squared_edges",
    "export_obj",
    "export_patch",
]

ASSEMBLY_TARGETS = catalog.ASSEMBLY_TARGETS


class AssemblyError(RuntimeError):
    """The tile set is not a packing (overlap or inconsistent wiring)."""


@dataclass(frozen=True, eq=False)
class PlacedTile:
    """A fundamental tile: four vertices as doubled Z[tau] pairs, shape
    (4, 3, 2).  parity is the exact sign of their triple product
    (b-a).((c-a)x(d-a)), and faces are wound outward for it; a flat tile,
    or a kind outside t1..t6, is a ValueError.  vertices is the float image
    of exact, derived at read.
    """

    kind: TileKind
    exact: np.ndarray
    name: str = field(default="", compare=False)
    parity: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", TileKind(self.kind))
        if not self.kind.is_fundamental:
            raise ValueError(f"{self.kind.value} is not a fundamental tile (t1..t6)")
        exact = np.asarray(self.exact, dtype=np.int64)
        if exact.shape != (4, 3, 2):
            raise ValueError(f"a tile has 4 vertices of 3 doubled pairs, not {exact.shape}")
        v = exact.tolist()  # bounded on its Python ints: no numpy reduction per tile
        if max(map(abs, chain.from_iterable(chain.from_iterable(v)))) > _TILE_BOUND:
            _bounded(exact, _TILE_BOUND)  # raises
        parity = GoldenRational(*_scalar_triple(v)).sign()
        if not parity:
            raise ValueError("the tile is flat: its triple product is zero")
        exact.setflags(write=False)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "parity", parity)

    @property
    def vertices(self) -> np.ndarray:
        return _embed_doubled(self.exact)

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        return _WOUND[self.parity]

    def face_edge_squares(self, face_index: int) -> tuple[GoldenRational, ...]:
        """Exact squared edge lengths of a face, in cyclic order."""
        return squared_edges(self.exact[list(self.faces[face_index])])

    def find_face(self, edge_squares) -> int:
        """Index of the unique face whose exact squared-edge multiset matches."""
        hits = [i for i in range(4) if sorted(self.face_edge_squares(i)) == sorted(edge_squares)]
        if len(hits) != 1:
            raise ValueError(f"{len(hits)} faces of {self.kind.value} match {edge_squares}")
        return hits[0]

    def volume(self) -> GoldenRational:
        """Exact volume: |triple product| / 6, or / 48 in doubled coordinates."""
        return abs(GoldenRational(*_scalar_triple(self.exact.tolist()), 48))


@dataclass(frozen=True, eq=False)
class Mesh:
    """Polygonal outer surface: shared vertices, outward-wound faces.

    exact holds the vertices as doubled Z[tau] pairs, shape (V, 3, 2), each
    entry at most 2**3 in magnitude and each face of at most 16 corners
    (OverflowError beyond), and vertices is their float image, derived at
    read.  provenance[i] lists the names of the tile instances whose
    triangles were fused into face i.  Derived once and read-only: edge_faces
    pairs each edge (i, j), i < j, in sorted order, with the faces that hold
    it, and normals[i] is the exact Newell normal of face i, shape (F, 3, 2).
    """

    exact: np.ndarray
    faces: tuple[tuple[int, ...], ...]
    provenance: tuple[tuple[str, ...], ...]
    edge_faces: tuple[tuple[tuple[int, int], tuple[int, ...]], ...] = field(
        init=False, repr=False)
    normals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        exact = _bounded(self.exact, _MESH_BOUND)
        if max(map(len, self.faces), default=0) > _MESH_CORNERS:
            raise OverflowError(f"a face beyond {_MESH_CORNERS} corners: "
                                "the exact int64 kernel would wrap")
        # one walk over the directed edges (tail, head, face): normals[face] += tail x head
        walk = [(f[i - 1], v, fi) for fi, f in enumerate(self.faces) for i, v in enumerate(f)]
        incident: dict[tuple[int, int], list[int]] = {}
        for t, h, fi in walk:
            incident.setdefault((min(t, h), max(t, h)), []).append(fi)
        tail, head, face = np.array(walk, dtype=np.intp).reshape(-1, 3).T
        normals = np.zeros((len(self.faces), 3, 2), dtype=np.int64)
        np.add.at(normals, face, _gcross(exact[tail], exact[head]))
        exact.setflags(write=False)
        normals.setflags(write=False)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "edge_faces",
                           tuple((e, tuple(incident[e])) for e in sorted(incident)))
        object.__setattr__(self, "normals", normals)

    @property
    def vertices(self) -> np.ndarray:
        return _embed_doubled(self.exact)

    def counts(self) -> tuple[int, int, int]:
        """(N0, N1, N2): vertices, edges, faces."""
        return len(self.exact), len(self.edge_faces), len(self.faces)

    def volume_exact(self) -> GoldenRational:
        """Enclosed volume by the divergence theorem (faces wound outward):
        the sum of normals[i] . (a corner of face i) / 6, or / 48 doubled."""
        total = _gdot(self.normals, self.exact[[f[0] for f in self.faces]]).sum(axis=0)
        return GoldenRational(*total.tolist(), 48)

    def volume(self) -> float:
        """Float image of volume_exact()."""
        return embed(self.volume_exact())

    def face_census(self) -> Counter:
        """Counter of (side count, sorted exact squared edge lengths)."""
        return Counter((len(f), tuple(sorted(squared_edges(self.exact[list(f)]))))
                       for f in self.faces)


@dataclass(frozen=True, eq=False)
class TriangleFace:
    """One tetrahedron face inside an assembly, with its owner's name;
    corners are doubled Z[tau] pairs, shape (3, 3, 2)."""

    owner: str
    corners: np.ndarray


@dataclass(frozen=True)
class Dihedral:
    """Interior angle along one mesh edge, None when the edge is open; its
    exact class is "atan2", "pi-atan2" or "neither" (see dihedrals)."""

    edge: tuple[int, int]
    faces: tuple[int, ...]
    angle: float | None
    angle_class: str | None


def squared_edges(corners: np.ndarray) -> tuple[GoldenRational, ...] | list[tuple]:
    """Exact squared lengths of a polygon's edges in cyclic order; corners
    are doubled Z[tau] pairs, shape (k, 3, 2), each entry at most 2**28 in
    magnitude (OverflowError beyond).  A stack (..., k, 3, 2) gives a list
    of those tuples, one per polygon in row-major order, in one kernel call."""
    corners = _bounded(corners, _EDGE_BOUND)
    d = np.roll(corners, -1, axis=-3) - corners
    q = _gdot(d, d)
    polygons = q.reshape(-1, *q.shape[-2:]).tolist()
    out = [tuple(GoldenRational(a, b, 4) for a, b in p) for p in polygons]
    return out if q.ndim > 2 else out[0]


def _census(specs) -> Counter:
    """Multiplicities of FaceSpecs keyed on sorted exact squared edge lengths."""
    out: Counter = Counter()
    for spec in specs:
        out[tuple(sorted(e * e for e in spec.edges))] += spec.multiplicity
    return out


def expected_face_census(kind: TileKind | str) -> Counter:
    """The cataloged post-merge face census in Mesh.face_census() form."""
    return Counter({(len(sq), sq): n for sq, n in _census(catalog.record(kind).faces).items()})


def expected_triangle_census(kind: TileKind | str) -> Counter:
    """The cataloged pre-merge triangle census (composite kinds only), keyed
    on sorted exact squared edge lengths."""
    return _census(catalog.record(kind).premerge_triangles)


# ---------------------------------------------------------------------------
# wiring interpretation


# the first group of each kind in the d1 dissection (reversed: the first one wins)
_FIRST_GROUP = {kind: ids for kind, ids, _ in reversed(_wiring.D1_GROUPS)}

_SOURCES = {
    "d1": (_wiring.D1_COORDS, _wiring.D1_TETS, None),
    "i1": (_wiring.I1_COORDS, _wiring.I1_TETS, None),
    # the standalone T1, T2 and T4; E and C are the first and last three of T1
    **{k: (_wiring.D1_COORDS, _wiring.D1_TETS, _FIRST_GROUP[k]) for k in ("T1", "T2", "T4")},
    "E": (_wiring.D1_COORDS, _wiring.D1_TETS, _FIRST_GROUP["T1"][:3]),
    "C": (_wiring.D1_COORDS, _wiring.D1_TETS, _FIRST_GROUP["T1"][3:]),
    "T3": (_wiring.I1_COORDS, _wiring.T3_TETS, None),
    "T3bar": (_wiring.I1_COORDS, _wiring.I1_TETS, _wiring.I1_T3BAR),
}

# faces of tetrahedron abcd wound outward, by the sign of det(b - a, c - a, d - a)
_WOUND = {1: ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))}
_WOUND[-1] = tuple((a, c, b) for a, b, c in _WOUND[1])


# ---------------------------------------------------------------------------
# exact Z[tau] kernel: arrays whose last axis holds (a, b) for a + b*tau.
# Wiring coordinates are doubled pairs with |a|, |b| <= 1 (and so are mesh
# points, which dihedrals() takes to degree 8), far inside int64.  Caller
# coordinates are bounded first so that no product wraps.  With entries at
# most M, a difference is at most 2M, and per component _gmul(x, y) is at
# most 3|x||y|, _gcross 6|x||y|, _gdot 9|x||y|; _gsign squares 2a+b <= 3|x|.
#   squared_edges: _gdot(d, d) <= 9 (2M)^2 = 36 M^2 < 2^63 for M <= 2^28.
#   axis_classes: normal <= 6 (2M)^2 = 24 M^2; crossed with an axis
#     (entries <= 3): 6 * 3 * 24 M^2 = 432 M^2 < 2^63 for M <= 2^27.
#   PlacedTile: its parity is the sign of a Python-int triple product, exact
#     at any size.  Face normals are at most 6 (2M)^2 = 24 M^2, so each term
#     n.x of the plane table n.x - n.c0 (integer matmuls) is at most
#     9 * 24 M^2 * M = 216 M^3 and an entry at most 432 M^3, as is a
#     separating-axis projection difference; _gsign: (3 * 432 M^3)^2 < 2^63
#     for M <= 2^7.  A build's wall test sums three entries (1296 M^3:
#     M <= 2^6), its tie-break dots two normals (9 (24 M^2)^2 = 5184 M^4:
#     M <= 2^4), so _build bounds points by 2^3.
#   Mesh: the Newell normal of a face of k corners sums k cross products of
#     its points, so it is at most 6 k M^2; dihedrals() takes the dot products
#     of two normals, at most D = 9 (6 k M^2)^2 = 324 k^2 M^4, to degree 8 in
#     _gmul(5 * dot, dot), at most 15 D^2 (and _gsign of a dot at most 9 D^2):
#     15 * 324^2 k^4 M^8 < 2^63 for k <= 2^4 and M <= 2^3.  Each face adds
#     its normal dotted with a corner, 9 * 6 k M^2 * M = 54 k M^3 < 2^19, to
#     the sum in volume_exact().

_EDGE_BOUND = 2**28
_AXIS_BOUND = 2**27
_TILE_BOUND = 2**7
_MESH_BOUND = 2**3
_MESH_CORNERS = 2**4


def _bounded(x, bound: int) -> np.ndarray:
    """x as int64 pairs; OverflowError if an entry exceeds bound in magnitude."""
    x = np.asarray(x, dtype=np.int64)
    if x.size and (x.max() > bound or x.min() < -bound):
        raise OverflowError(f"coordinate beyond +-{bound}: the exact int64 kernel would wrap")
    return x


def _gmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    a, b, c, d = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    return np.stack([a * c + b * d, a * d + b * c + b * d], axis=-1)


def _gsign(x: np.ndarray) -> np.ndarray:
    """Exact sign of a + b*tau: the sign of (2a+b) + b*sqrt(5)."""
    p = 2 * x[..., 0] + x[..., 1]
    q = x[..., 1]
    sp, sq = np.sign(p), np.sign(q)
    mixed = sp * np.sign(p * p - 5 * q * q)
    return np.where(sp * sq >= 0, np.where(sp != 0, sp, sq), mixed)


def _gcross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Cross product over axis -2 of (..., 3, 2) vectors."""
    i, j = [1, 2, 0], [2, 0, 1]
    return _gmul(u[..., i, :], v[..., j, :]) - _gmul(u[..., j, :], v[..., i, :])


def _gdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product over axis -2 of (..., 3, 2) vectors."""
    return _gmul(u, v).sum(axis=-2)


def _scalar_triple(v) -> tuple[int, int]:
    """Triple product (b-a).((c-a)x(d-a)) of one tetrahedron, nested (4, 3, 2)
    Python ints, as a Z[tau] pair: exact at any magnitude."""
    o, *rest = v
    d = [(pa - oa, pb - ob) for p in rest for (pa, pb), (oa, ob) in zip(p, o)]
    a = b = 0
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # x_i (y_j z_k - y_k z_j)
        (xa, xb), (ya, yb), (za, zb) = d[i], d[3 + j], d[6 + k]
        (wa, wb), (va, vb) = d[3 + k], d[6 + j]  # y_k, z_j
        sa = ya * za + yb * zb - wa * va - wb * vb
        sb = ya * zb + yb * za + yb * zb - wa * vb - wb * va - wb * vb
        a += xa * sa + xb * sb
        b += xa * sb + xb * sa + xb * sb
    return a, b


@cache
def _embed_half(a: int, b: int) -> float:
    return embed(GoldenRational(a, b, 2))


def _embed_doubled(pairs: np.ndarray) -> np.ndarray:
    """Read-only float image of doubled pairs (..., 2): (a + b*tau)/2 by
    embed, each distinct pair embedded once per process (the magnitude
    guards keep the pairs few)."""
    out = np.array([_embed_half(a, b) for a, b in np.reshape(pairs, (-1, 2)).tolist()],
                   dtype=float).reshape(np.shape(pairs)[:-1])
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# geometric predicates


def _face_planes(points: np.ndarray, faces: np.ndarray) -> tuple:
    """Normals n = (c1 - c0) x (c2 - c0), (T, 4, 3, 2), of the faces
    points[faces], (T, 4, 3) indices wound outward, the plane table
    n.points[p] - n.c0, (T, 4, P, 2), and its int8 signs."""
    c = points[faces]
    n = _gcross(c[:, :, 1] - c[:, :, 0], c[:, :, 2] - c[:, :, 0])
    (na, nb), (pa, pb) = np.moveaxis(n, -1, 0), points.T
    at = np.stack([na @ pa + nb @ pb, na @ pb + nb @ (pa + pb)], axis=-1)  # n.points
    planes = at - _gdot(n, c[:, :, 0])[:, :, None]
    return n, planes, _gsign(planes).astype(np.int8)


def _separated(axes: np.ndarray, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Whether some nonzero axis of (P, K, 3, 2) separates the tetrahedra
    ta[p] and tb[p], each (P, 4, 3, 2): all 16 projection differences on it
    have one sign, so touching separates."""
    pa = _gdot(axes[:, :, None], ta[:, None])
    pb = _gdot(axes[:, :, None], tb[:, None])
    s = _gsign(pa[:, :, :, None] - pb[:, :, None, :])
    apart = (s <= 0).all(axis=(2, 3)) | (s >= 0).all(axis=(2, 3))
    return (apart & axes.any(axis=(2, 3))).any(axis=1)


def _overlaps(tets: np.ndarray, ids: np.ndarray, signs: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs a < b of the (T, 4, 3, 2) tetrahedra whose interiors meet,
    in lexicographic order, given the signs of their face planes at the
    points their vertex ids (T, 4) index.  Exact separating-axis test on the
    facets of a pair's Minkowski difference: it is apart if all four vertices
    of one lie on or outside a face plane of the other (702 of d1's 703
    pairs, all 120 of i1's), else if one of its 36 edge-edge cross products
    separates it.  A zero plane (collinear corners) separates nothing."""
    apart = ((signs[:, :, ids] >= 0).all(axis=3) & signs.any(axis=2)[:, :, None]).any(axis=1)
    a, b = np.nonzero(np.triu(~(apart | apart.T), 1))
    if not len(a):
        return []
    edges = tets[:, [1, 2, 3, 2, 3, 3]] - tets[:, [0, 0, 0, 1, 1, 2]]
    mixed = _gcross(edges[a][:, :, None], edges[b][:, None, :]).reshape(-1, 36, 3, 2)
    left = ~_separated(mixed, tets[a], tets[b])
    return list(zip(a[left].tolist(), b[left].tolist()))


# ---------------------------------------------------------------------------
# coplanar fusion of boundary triangles


def _drop_collinear(cycles: list[tuple[int, ...]], points: np.ndarray) -> list[tuple[int, ...]]:
    """Each cycle of distinct point indices without its corners collinear
    with their neighbours, tested in one step over all cycles and dropped at
    once: dropping one leaves the others' collinearity unchanged.
    AssemblyError if fewer than 3 corners of a cycle remain."""
    walk = [(c[k - 1], v, c[k + 1 - len(c)]) for c in cycles for k, v in enumerate(c)]
    prev, at, after = points[np.array(walk, dtype=np.intp).reshape(-1, 3).T]
    keep = iter(_gcross(at - prev, after - at).any(axis=(1, 2)).tolist())
    out = [tuple(compress(c, islice(keep, len(c)))) for c in cycles]
    if min(map(len, out), default=3) < 3:
        raise AssemblyError("a fused face has fewer than 3 corners not collinear "
                            "with their neighbours")
    return out


def _fuse_coplanar(faces: list[tuple[tuple[int, ...], bytes]], owners: list[str],
                   points: np.ndarray) -> tuple[list, list]:
    """Fuse the triangles of each oriented plane, given as (cycle, plane key)
    with their owners' names, into one face: the cycle of their directed
    edges whose reverse is not among them, walked from the first of the
    plane's corners on it (in triangle order) and kept in the slot of the
    plane's first triangle, owned by all of them.  AssemblyError if those
    edges are not one simple cycle."""
    planes: dict[tuple, list[int]] = {}
    for slot, (_, key) in enumerate(faces):
        planes.setdefault(key, []).append(slot)
    rims, owner_sets = [], []
    for slots in planes.values():
        cycles = [faces[s][0] for s in slots]
        edges = {(f[i - 1], f[i]) for f in cycles for i in range(len(f))}
        rim = [e for e in edges if e[::-1] not in edges]
        after = dict(rim)
        start = v = next((u for f in cycles for u in f if u in after), None)
        cycle = []
        for _ in rim:
            cycle.append(v)
            v = after.get(v)
        if start is None or v != start or len(set(cycle)) != len(rim):
            raise AssemblyError(f"the boundary triangles in the plane of a face of "
                                f"{owners[slots[0]]} do not fuse into one simple polygon")
        rims.append(tuple(cycle))
        owner_sets.append({owners[s] for s in slots})
    return _drop_collinear(rims, points), owner_sets


# ---------------------------------------------------------------------------
# the assembly itself


@dataclass(frozen=True, eq=False)
class Assembly:
    """A verified packing of fundamental tetrahedra with its outer hull."""

    target: str
    tiles: tuple[PlacedTile, ...]
    mesh: Mesh
    walls: tuple[TriangleFace, ...]
    boundary_triangles: tuple[TriangleFace, ...]
    groups: tuple[tuple[str, tuple[int, ...], str], ...]

    def volume_exact(self) -> GoldenRational:
        """Sum of the cataloged volumes of the constituent tetrahedra."""
        return sum((catalog.record(t.kind).volume for t in self.tiles), GoldenRational(0))

    def tile_volume_sum(self) -> float:
        """Float image of the exact volumes of the placed tiles."""
        return float(sum((t.volume() for t in self.tiles), GoldenRational(0)))

    def fundamental_counts(self) -> dict[TileKind, int]:
        out = Counter(t.kind for t in self.tiles)
        return {k: out[k] for k in sorted(out, key=lambda s: s.value)}


def _build(target: str) -> Assembly:
    coords, tets, subset = _SOURCES[target]
    if subset is not None:
        tets = [tets[i] for i in subset]

    index = {lab: k for k, lab in enumerate(coords)}
    exact = _bounded(list(coords.values()), _MESH_BOUND)
    vert_ids = np.array([[index[lab] for lab in labs] for _, labs in tets])
    verts = exact[vert_ids]

    tiles = []
    count: Counter = Counter()
    for (kind_name, _), v in zip(tets, verts):
        name = f"{kind_name}-{count[kind_name]}"
        try:
            tiles.append(PlacedTile(kind=kind_name, exact=v, name=name))
        except ValueError as exc:
            raise AssemblyError(f"{target}: {name}: {exc}") from exc
        count[kind_name] += 1

    # overlap, walls and hull planes read one table: outward-wound face planes at points
    wound = np.where(np.array([t.parity for t in tiles])[:, None, None] < 0, _WOUND[-1], _WOUND[1])
    faces = np.take_along_axis(vert_ids[:, None], wound, axis=2)
    normals, planes, signs = _face_planes(exact, faces)

    # no two tetrahedra may share interior volume
    overlaps = _overlaps(verts, vert_ids, signs)
    if overlaps:
        a, b = overlaps[0]
        raise AssemblyError(f"{target}: tiles {tiles[a].name} and {tiles[b].name} overlap")

    # Faces shared whole are walls by index (module docstring).  The rest are
    # walls iff the pushed centroid lies in some closed tetrahedron: per face
    # plane of that tetrahedron its side decides (the table summed at the
    # face's corners, exactly where they straddle the plane), and on the
    # plane the face normal's side.
    keys = [frozenset(f) for f in faces.reshape(-1, 3).tolist()]
    shared = Counter(keys)
    is_wall = np.array([shared[k] > 1 for k in keys]).reshape(-1, 4)
    rest = ~is_wall
    if rest.any():  # none left in i1 and the composites
        left = faces[rest]  # (R, 3)
        corner_signs = signs[:, :, left]
        hi, lo = corner_signs.max(axis=3), corner_signs.min(axis=3)
        side = np.where(lo < 0, lo, hi)
        across = np.nonzero((hi > 0) & (lo < 0))
        side[across] = _gsign(planes[(*across[:2], left[across[2]].T)].sum(axis=0))
        on = np.nonzero(side == 0)
        side[on] = _gsign(_gdot(normals[on[:2]], normals[rest][on[2]]))
        is_wall[rest] = (side <= 0).all(axis=1).any(axis=0)

    corners = exact[faces]
    corners.setflags(write=False)  # TriangleFace.corners are views into it
    walls, boundary = [], []
    owners = (t.name for t in tiles for _ in range(4))
    for owner, c, wall in zip(owners, corners.reshape(-1, 3, 3, 2), is_wall.ravel().tolist()):
        (walls if wall else boundary).append(TriangleFace(owner, c))
    # (point indices, plane key) of each boundary face: equal sign rows, one oriented plane
    keys, n = signs[~is_wall].tobytes(), signs.shape[-1]
    hull = [(tuple(f), keys[i * n:i * n + n]) for i, f in enumerate(faces[~is_wall].tolist())]

    fused, owner_sets = _fuse_coplanar(hull, [b.owner for b in boundary], exact)

    # compact the vertex array to the ones the hull actually uses
    used = sorted({i for f in fused for i in f})
    remap = {old: new for new, old in enumerate(used)}
    mesh = Mesh(
        exact=exact[used],
        faces=tuple(tuple(remap[i] for i in f) for f in fused),
        provenance=tuple(tuple(sorted(o)) for o in owner_sets))

    groups = tuple(_wiring.D1_GROUPS) if target == "d1" else ()
    return Assembly(
        target=target, tiles=tuple(tiles), mesh=mesh, walls=tuple(walls),
        boundary_triangles=tuple(boundary), groups=groups)


@lru_cache(maxsize=None)
def assemble(target: str) -> Assembly:
    """Instantiate one of the precomputed clusters; see ASSEMBLY_TARGETS."""
    if target not in _SOURCES:
        raise KeyError(f"unknown assembly target {target!r}; choose from {ASSEMBLY_TARGETS}")
    return _build(target)


def dihedrals(mesh: Mesh) -> list[Dihedral]:
    """Interior dihedral angle along every mesh edge.

    The angle between two faces is pi minus the angle of their outward
    normals n1, n2 (the exact Newell normals, mesh.normals); it is atan 2 or
    pi - atan 2 exactly when 5 (n1.n2)^2 = |n1|^2 |n2|^2, with n1.n2 < 0 or
    > 0.  Edges with one incident face are reported with angle None rather
    than treated as an error.
    """
    shared = [(e, fs) for e, fs in mesh.edge_faces if len(fs) == 2]
    n1, n2 = (mesh.normals[[fs[k] for _, fs in shared]] for k in (0, 1))
    dot, q1, q2 = _gdot(n1, n2), _gdot(n1, n1), _gdot(n2, n2)
    hit = (_gmul(5 * dot, dot) == _gmul(q1, q2)).all(axis=-1)
    classes = np.where(hit, np.where(_gsign(dot) > 0, "pi-atan2", "atan2"), "neither")
    image = (1.0, embed(TAU))
    cos = (dot @ image) / np.sqrt((q1 @ image) * (q2 @ image))
    angles = dict(zip((e for e, _ in shared),
                      zip((np.pi - np.arccos(np.clip(cos, -1, 1))).tolist(), classes.tolist())))
    return [Dihedral(edge, fs, *angles.get(edge, (None, None)))
            for edge, fs in mesh.edge_faces]


# ---------------------------------------------------------------------------
# exports


def export_obj(assembly: Assembly) -> str:
    """Wavefront OBJ text: one named object per tile, faces wound outward."""
    lines = [f"# {assembly.target}: {len(assembly.tiles)} tetrahedra"]
    v_lines: dict[tuple[int, ...], str] = {}  # each distinct point's "v x y z", once
    for k, t in enumerate(assembly.tiles):
        lines.append(f"o {t.name}")
        for p in map(tuple, t.exact.reshape(4, 6).tolist()):
            if p not in v_lines:
                xyz = (_embed_half(a, b) for a, b in zip(p[::2], p[1::2]))
                v_lines[p] = "v " + " ".join(f"{x:.17g}" for x in xyz)
            lines.append(v_lines[p])
        for f in t.faces:
            lines.append("f " + " ".join(str(i + 1 + 4 * k) for i in f))
    return "\n".join(lines) + "\n"


def export_patch(assembly: Assembly) -> dict:
    """JSON-ready description: tiles with parities plus the merged hull."""
    tile_vertices = _embed_doubled(np.stack([t.exact for t in assembly.tiles])).tolist()
    return {
        "frame": "icosa-half-integer",
        "target": assembly.target,
        "tiles": [
            {
                "kind": t.kind.value,
                "name": t.name,
                "parity": t.parity,
                "vertices": verts,
            }
            for t, verts in zip(assembly.tiles, tile_vertices)
        ],
        "hull": {
            "vertices": [[float(x) for x in v] for v in assembly.mesh.vertices],
            "faces": [list(f) for f in assembly.mesh.faces],
            "provenance": [list(p) for p in assembly.mesh.provenance],
        },
    }
