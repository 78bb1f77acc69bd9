"""Assembled tile clusters: dodecahedron, icosahedron and the composites.

assemble() instantiates a precomputed dissection (see _wiring) as a list
of PlacedTiles, verifies that no two tetrahedra overlap, classifies every
tetrahedron face as internal wall or outer boundary, and fuses coplanar
boundary triangles into the polygonal faces of the outer hull.

Boundary detection is a coverage test, not face matching: a face is on
the boundary iff its centroid pushed an infinitesimal distance outward
along its normal lies in no tetrahedron of the cluster.  Matching faces
pairwise would misread the quadrilateral contact walls whose two sides are
triangulated along different diagonals.

Wiring points lie in the half-integer icosahedral frame, so they are held
as doubled Z[tau] integer pairs and every decision (overlap, wall or
boundary, coplanarity, collinearity, parity) is an exact integer sign.
Floats (meshes, tile vertices, exports) are derived from them by embed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .. import catalog
from ..catalog import TileKind
from ..golden import GoldenRational, embed
from . import _wiring
from .placement import PlacedTile

__all__ = [
    "Mesh",
    "TriangleFace",
    "Dihedral",
    "Assembly",
    "AssemblyError",
    "ASSEMBLY_TARGETS",
    "assemble",
    "dihedrals",
    "triangle_family",
    "export_obj",
    "export_patch",
]

ASSEMBLY_TARGETS = ("d1", "i1", "E", "C", "T1", "T2", "T3", "T3bar", "T4")


class AssemblyError(RuntimeError):
    """The tile set is not a packing (overlap or inconsistent wiring)."""


@dataclass(frozen=True, eq=False)
class Mesh:
    """Polygonal outer surface: shared vertices, outward-wound faces.

    provenance[i] lists the names of the tile instances whose triangles
    were fused into face i.
    """

    vertices: np.ndarray
    faces: tuple[tuple[int, ...], ...]
    provenance: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    def counts(self) -> tuple[int, int, int]:
        """(N0, N1, N2): vertices, edges, faces."""
        return len(self.vertices), len(self.edges()), len(self.faces)

    def edges(self) -> list[tuple[int, int]]:
        seen = set()
        for f in self.faces:
            for i in range(len(f)):
                a, b = f[i], f[(i + 1) % len(f)]
                seen.add((min(a, b), max(a, b)))
        return sorted(seen)

    def face_points(self, i: int) -> np.ndarray:
        return self.vertices[list(self.faces[i])]

    def face_edge_lengths(self, i: int) -> tuple[float, ...]:
        pts = self.face_points(i)
        n = len(pts)
        return tuple(float(np.linalg.norm(pts[(k + 1) % n] - pts[k])) for k in range(n))

    def face_normal(self, i: int) -> np.ndarray:
        """Unit normal by the cyclic (Newell) sum; outward for hull faces."""
        pts = self.face_points(i)
        n = np.zeros(3)
        for k in range(len(pts)):
            a, b = pts[k], pts[(k + 1) % len(pts)]
            n += np.cross(a, b)
        return n / np.linalg.norm(n)

    def face_planarity(self, i: int) -> float:
        """Largest distance of a face vertex from the face's mean plane."""
        pts = self.face_points(i)
        n = self.face_normal(i)
        d = (pts - pts.mean(axis=0)) @ n
        return float(np.max(np.abs(d)))

    def volume(self) -> float:
        """Enclosed volume by the divergence theorem (faces wound outward)."""
        total = 0.0
        for f in self.faces:
            p0 = self.vertices[f[0]]
            for k in range(1, len(f) - 1):
                total += float(np.linalg.det(np.stack(
                    [p0, self.vertices[f[k]], self.vertices[f[k + 1]]])))
        return total / 6.0

    def face_census(self, ndigits: int = 6) -> Counter:
        """Counter of (side count, sorted rounded edge lengths)."""
        out: Counter = Counter()
        for i in range(len(self.faces)):
            lens = tuple(sorted(round(x, ndigits) for x in self.face_edge_lengths(i)))
            out[(len(lens), lens)] += 1
        return out


@dataclass(frozen=True, eq=False)
class TriangleFace:
    """One tetrahedron face inside an assembly, with its owner's name."""

    owner: str
    points: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    def edge_lengths(self) -> tuple[float, float, float]:
        p = self.points
        return (float(np.linalg.norm(p[1] - p[0])),
                float(np.linalg.norm(p[2] - p[1])),
                float(np.linalg.norm(p[0] - p[2])))


@dataclass(frozen=True)
class Dihedral:
    """Interior angle along one mesh edge; None when the edge is open."""

    edge: tuple[int, int]
    faces: tuple[int, ...]
    angle: float | None


def triangle_family(lengths, tol: float = 1e-9) -> str:
    """'equilateral', 'robinson' (ratio 1:1:tau or 1:tau:tau) or 'other'."""
    a, b, c = sorted(float(x) for x in lengths)
    tau = embed(GoldenRational(0, 1))
    if c - a <= tol * max(c, 1.0):
        return "equilateral"
    if abs(b - a) <= tol and abs(c - tau * a) <= tol * max(c, 1.0):
        return "robinson"
    if abs(c - b) <= tol and abs(b - tau * a) <= tol * max(c, 1.0):
        return "robinson"
    return "other"


def expected_face_census(kind: TileKind | str, ndigits: int = 6) -> Counter:
    """The cataloged post-merge face census in Mesh.face_census() form."""
    out: Counter = Counter()
    for spec in catalog.record(kind).faces:
        lens = tuple(sorted(round(embed(e), ndigits) for e in spec.edges))
        out[(len(lens), lens)] += spec.multiplicity
    return out


def expected_triangle_census(kind: TileKind | str, ndigits: int = 6) -> Counter:
    """The cataloged pre-merge triangle census (composite kinds only)."""
    out: Counter = Counter()
    for spec in catalog.record(kind).premerge_triangles:
        lens = tuple(sorted(round(embed(e), ndigits) for e in spec.edges))
        out[lens] += spec.multiplicity
    return out


# ---------------------------------------------------------------------------
# wiring interpretation


def _doubled(triple) -> list[tuple[int, int]]:
    """Wiring coordinates an/ad + (bn/bd)*tau as doubled Z[tau] pairs (2x = a + b*tau)."""
    return [(2 * an // ad, 2 * bn // bd) for (an, ad), (bn, bd) in triple]


_SOURCES = {
    "d1": (_wiring.D1_COORDS, _wiring.D1_TETS, None),
    "i1": (_wiring.I1_COORDS, _wiring.I1_TETS, None),
    "T1": (_wiring.D1_COORDS, _wiring.D1_TETS, range(4, 10)),
    "T2": (_wiring.D1_COORDS, _wiring.D1_TETS, (0, 1)),
    "T4": (_wiring.D1_COORDS, _wiring.D1_TETS, (10, 11, 12)),
    "E": (_wiring.D1_COORDS, _wiring.D1_TETS, (4, 5, 6)),
    "C": (_wiring.D1_COORDS, _wiring.D1_TETS, (7, 8, 9)),
    "T3": (_wiring.I1_COORDS, _wiring.T3_TETS, None),
    "T3bar": (_wiring.I1_COORDS, _wiring.I1_TETS, _wiring.I1_T3BAR),
}

# faces of tetrahedron abcd wound outward, by the sign of det(b - a, c - a, d - a)
_WOUND = {1: ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3)),
          -1: ((0, 1, 2), (0, 3, 1), (0, 2, 3), (1, 3, 2))}


# ---------------------------------------------------------------------------
# exact Z[tau] kernel: arrays whose last axis holds (a, b) for a + b*tau.
# Wiring coordinates are doubled pairs with |a|, |b| <= 1, so every value
# below stays far inside int64.


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


# ---------------------------------------------------------------------------
# geometric predicates


def _tet_axes(verts: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    a, b, c, d = verts
    edges = [b - a, c - a, d - a, c - b, d - b, d - c]
    axes = [np.cross(b - a, c - a), np.cross(b - a, d - a),
            np.cross(c - a, d - a), np.cross(c - b, d - b)]
    return edges, axes


def _tets_overlap(v1: np.ndarray, v2: np.ndarray, tol: float) -> bool:
    """True if the interiors intersect (separating axis test).

    For glue() output, whose coordinates lie outside Q(tau)."""
    e1, f1 = _tet_axes(v1)
    e2, f2 = _tet_axes(v2)
    axes = f1 + f2 + [np.cross(a, b) for a in e1 for b in e2]
    for ax in axes:
        n = np.linalg.norm(ax)
        if n < 1e-12:
            continue
        ax = ax / n
        p1 = v1 @ ax
        p2 = v2 @ ax
        if min(p1.max() - p2.min(), p2.max() - p1.min()) <= tol:
            return False
    return True


_OVERLAP_CHUNK = 8  # partners per vectorised step; bounds the temporaries


def _overlapping_pairs(tets: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs a < b of the (T, 4, 3, 2) tetrahedra whose interiors meet.

    Exact separating-axis test on the face normals and the edge-edge cross
    products; zero axes are skipped and touching separates.
    """
    edges = tets[:, [1, 2, 3, 2, 3, 3]] - tets[:, [0, 0, 0, 1, 1, 2]]
    normals = _gcross(edges[:, [0, 0, 1, 3]], edges[:, [1, 2, 2, 4]])
    found = []
    for a in range(len(tets) - 1):
        for lo in range(a + 1, len(tets), _OVERLAP_CHUNK):
            bs = np.arange(lo, min(lo + _OVERLAP_CHUNK, len(tets)))
            mixed = _gcross(edges[a][None, :, None], edges[bs][:, None, :])
            axes = np.concatenate([
                np.broadcast_to(normals[a], (len(bs), 4, 3, 2)), normals[bs],
                mixed.reshape(len(bs), 36, 3, 2)], axis=1)
            pa = _gdot(axes[:, :, None], tets[a][None, None])
            pb = _gdot(axes[:, :, None], tets[bs][:, None])
            s = _gsign(pa[:, :, :, None] - pb[:, :, None, :])
            apart = (s <= 0).all(axis=(2, 3)) | (s >= 0).all(axis=(2, 3))
            apart &= axes.any(axis=(2, 3))
            found += [(a, int(b)) for b in bs[~apart.any(axis=1)]]
    return found


# ---------------------------------------------------------------------------
# coplanar fusion of boundary triangles


def _merge_cycles(fa: tuple[int, ...], fb: tuple[int, ...]) -> tuple[int, ...] | None:
    """Union of two consistently wound polygons sharing exactly one edge."""
    edges_a = {(fa[i], fa[(i + 1) % len(fa)]) for i in range(len(fa))}
    edges_b = {(fb[i], fb[(i + 1) % len(fb)]) for i in range(len(fb))}
    shared = [e for e in edges_a if (e[1], e[0]) in edges_b]
    if len(shared) != 1:
        return None
    i, j = shared[0]
    ka = fa.index(i)
    # rotate fb so it starts at i (the vertex after j in fb)
    kb = fb.index(i)
    path = [fb[(kb + s) % len(fb)] for s in range(len(fb))]  # i ... j
    merged = list(fa[:ka + 1]) + path[1:-1] + list(fa[ka + 1:])
    if len(set(merged)) != len(merged):
        return None
    return tuple(merged)


def _drop_collinear(cycle: tuple[int, ...], points: np.ndarray) -> tuple[int, ...]:
    out = list(cycle)
    k = 0
    while k < len(out) and len(out) > 3:
        p_prev, p_cur, p_next = points[[out[k - 1], out[k], out[(k + 1) % len(out)]]]
        if _gcross(p_cur - p_prev, p_next - p_cur).any():
            k += 1
        else:
            out.pop(k)
            k = 0
    return tuple(out)


def _plane_key(normal: np.ndarray, offset: np.ndarray) -> tuple[GoldenRational, ...]:
    """The oriented plane n.x = d, scaled so n's first nonzero component is +-1."""
    key = [GoldenRational(a, b) for a, b in [*normal.tolist(), offset.tolist()]]
    scale = abs(next(c for c in key if c.sign()))
    return tuple(c / scale for c in key)


def _fuse_coplanar(faces: list[tuple[tuple[int, ...], tuple]], owners: list[set[str]],
                   points: np.ndarray) -> tuple[list, list]:
    """Fuse same-facing coplanar faces, given as (cycle, plane key), that share
    an edge: per plane, merge the first mergeable pair into its earlier slot
    until none is left."""
    planes: dict[tuple, list[list]] = {}
    for slot, ((face, key), own) in enumerate(zip(faces, owners)):
        planes.setdefault(key, []).append([slot, face, set(own)])
    survivors = []
    for group in planes.values():
        merged = True
        while merged:
            merged = False
            for a, b in combinations(range(len(group)), 2):
                cycle = _merge_cycles(group[a][1], group[b][1])
                if cycle is not None:
                    group[a][1] = cycle
                    group[a][2] |= group.pop(b)[2]
                    merged = True
                    break
        survivors += group
    survivors.sort(key=lambda s: s[0])
    return ([_drop_collinear(f, points) for _, f, _ in survivors],
            [own for _, _, own in survivors])


# ---------------------------------------------------------------------------
# the assembly itself


@dataclass(frozen=True, eq=False)
class Assembly:
    """A verified packing of fundamental tetrahedra with its outer hull."""

    target: str
    tiles: tuple[PlacedTile, ...]
    labels: tuple[str, ...]
    points: np.ndarray
    exact_points: tuple[tuple[GoldenRational, ...], ...]
    mesh: Mesh
    walls: tuple[TriangleFace, ...]
    boundary_triangles: tuple[TriangleFace, ...]
    groups: tuple[tuple[str, tuple[int, ...], str], ...]

    def volume_exact(self) -> GoldenRational:
        """Sum of the cataloged volumes of the constituent tetrahedra."""
        total = GoldenRational(0)
        for t in self.tiles:
            total = total + catalog.record(t.kind).volume
        return total

    def tile_volume_sum(self) -> float:
        return float(sum(t.volume() for t in self.tiles))

    def fundamental_counts(self) -> dict[TileKind, int]:
        out: dict[TileKind, int] = {}
        for t in self.tiles:
            out[t.kind] = out.get(t.kind, 0) + 1
        return {k: out[k] for k in sorted(out, key=lambda s: s.value)}


def _build(target: str) -> Assembly:
    coords, tets, subset = _SOURCES[target]
    if subset is not None:
        tets = [tets[i] for i in subset]

    labels = tuple(coords)
    index = {lab: k for k, lab in enumerate(labels)}
    exact = np.array([_doubled(coords[lab]) for lab in labels], dtype=np.int64)
    exact_points = tuple(tuple(GoldenRational(a, b, 2) for a, b in p) for p in exact.tolist())
    points = np.array([[embed(c) for c in p] for p in exact_points])

    vert_ids = np.array([[index[lab] for lab in labs] for _, labs in tets])
    verts = exact[vert_ids]
    e = verts[:, 1:] - verts[:, :1]
    parity = _gsign(_gdot(e[:, 0], _gcross(e[:, 1], e[:, 2]))).tolist()
    if 0 in parity:
        raise AssemblyError(f"{target}: a tetrahedron is flat")

    tiles = []
    counters: dict[str, int] = {}
    for (kind_name, _), par, ids in zip(tets, parity, vert_ids):
        seq = counters.get(kind_name, 0)
        counters[kind_name] = seq + 1
        tiles.append(PlacedTile(
            kind=TileKind(kind_name), vertices=points[ids], faces=_WOUND[par],
            parity=par, name=f"{kind_name}-{seq}"))

    # no two tetrahedra may share interior volume
    overlaps = _overlapping_pairs(verts)
    if overlaps:
        a, b = overlaps[0]
        raise AssemblyError(f"{target}: tiles {tiles[a].name} and {tiles[b].name} overlap")

    # A face is a wall iff its centroid pushed outward by an infinitesimal eps
    # lies in some closed tetrahedron: per face plane of that tetrahedron the
    # centroid's side decides, and on the plane the face normal's side (eps).
    faces = np.array([[ids[list(f)] for f in t.faces] for ids, t in zip(vert_ids, tiles)])
    corners = exact[faces]
    normals = _gcross(corners[:, :, 1] - corners[:, :, 0], corners[:, :, 2] - corners[:, :, 0])
    offsets = 3 * _gdot(normals, corners[:, :, 0])
    walls: list[TriangleFace] = []
    boundary: list[TriangleFace] = []
    hull: list[tuple[tuple[int, ...], tuple]] = []  # boundary (point indices, plane key)
    for ti, t in enumerate(tiles):
        centroids3 = corners[ti].sum(axis=1)
        side = _gsign(_gdot(normals[None], centroids3[:, None, None]) - offsets[None])
        eps = _gsign(_gdot(normals[None], normals[ti][:, None, None]))
        inside = (np.where(side != 0, side, eps) <= 0).all(axis=2).any(axis=1)
        for f, wall, n, d in zip(faces[ti].tolist(), inside, normals[ti], offsets[ti]):
            (walls if wall else boundary).append(TriangleFace(owner=t.name, points=points[f]))
            if not wall:
                hull.append((tuple(f), _plane_key(n, d)))

    fused, owner_sets = _fuse_coplanar(hull, [{b.owner} for b in boundary], exact)

    # compact the vertex array to the ones the hull actually uses
    used = sorted({i for f in fused for i in f})
    remap = {old: new for new, old in enumerate(used)}
    mesh = Mesh(
        vertices=points[used],
        faces=tuple(tuple(remap[i] for i in f) for f in fused),
        provenance=tuple(tuple(sorted(o)) for o in owner_sets))

    groups: tuple = ()
    if target == "d1":
        groups = tuple((kind, tuple(ids), region) for kind, ids, region in _wiring.D1_GROUPS)

    return Assembly(
        target=target, tiles=tuple(tiles), labels=labels, points=points,
        exact_points=exact_points, mesh=mesh, walls=tuple(walls),
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
    normals.  Edges with one incident face are reported with angle None
    rather than treated as an error.
    """
    incident: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(mesh.faces):
        for i in range(len(f)):
            a, b = f[i], f[(i + 1) % len(f)]
            incident.setdefault((min(a, b), max(a, b)), []).append(fi)
    out = []
    for edge in sorted(incident):
        fs = incident[edge]
        if len(fs) == 2:
            n1, n2 = mesh.face_normal(fs[0]), mesh.face_normal(fs[1])
            cosang = max(-1.0, min(1.0, float(n1 @ n2)))
            angle = math.pi - math.acos(cosang)
        else:
            angle = None
        out.append(Dihedral(edge=edge, faces=tuple(fs), angle=angle))
    return out


# ---------------------------------------------------------------------------
# exports


def export_obj(assembly: Assembly) -> str:
    """Wavefront OBJ text: one named object per tile, faces wound outward."""
    lines = [f"# {assembly.target}: {len(assembly.tiles)} tetrahedra"]
    offset = 0
    for t in assembly.tiles:
        lines.append(f"o {t.name}")
        for v in t.vertices:
            lines.append("v " + " ".join(f"{x:.17g}" for x in v))
        for f in t.faces:
            lines.append("f " + " ".join(str(i + 1 + offset) for i in f))
        offset += len(t.vertices)
    return "\n".join(lines) + "\n"


def export_patch(assembly: Assembly) -> dict:
    """JSON-ready description: tiles with parities plus the merged hull."""
    return {
        "frame": "icosa-half-integer",
        "target": assembly.target,
        "tiles": [
            {
                "kind": t.kind.value,
                "name": t.name,
                "parity": t.parity,
                "vertices": [[float(x) for x in v] for v in t.vertices],
            }
            for t in assembly.tiles
        ],
        "hull": {
            "vertices": [[float(x) for x in v] for v in assembly.mesh.vertices],
            "faces": [list(f) for f in assembly.mesh.faces],
            "provenance": [list(p) for p in assembly.mesh.provenance],
        },
    }
