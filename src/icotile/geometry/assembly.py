"""Assembled tile clusters: dodecahedron, icosahedron and the composites.

assemble() instantiates a precomputed dissection (see _wiring) as a list
of PlacedTiles, verifies that no two tetrahedra overlap, classifies every
tetrahedron face as internal wall or outer boundary, and fuses the
boundary triangles of each plane into one polygonal face of the outer hull
by cancelling the edges they share, split at T-junctions where they do not.

A build packs its tiles' points P alone, decides each face by one wall
rule, and tries an exact certificate that its tiles fill conv P face to
face, running the pairwise overlap test only where it fails.  Faces are
grouped by their three points; a face is lone when no other face has its
points, and supporting when no point of P lies above its plane.  A face
shared whole by another tile is a wall, a supporting face boundary.  On
each plane of lone faces with points above it, the faces are walls if each
directed edge of theirs appears as often as its reverse, if need be once
split at the corners of that plane's lone faces strictly inside it
(T-junctions); else each is a wall iff its centroid lies in a closed lone
face of that plane wound the other way.  A split leaves the 1-chain
unchanged, so it passes no wrong list, and both sides of a true contact
split at the same corners, so it always cancels.  A plane of faces wound one
way never cancels (their signed number is positive somewhere): no split.

Face to face (d1, i1, the composites but E): each group is one face or two
wound opposite ways; every plane of lone faces with points above cancels;
and the first supporting lone face's centroid lies in no other closed
supporting lone face of its plane.  Opposite faces cancel, so the boundary
of the sum of the tiles is the sum of the lone faces.  On a plane with
points above, the signed number of its faces over a point changes across an
edge by the edge's net multiplicity, 0, and is 0 far off: they sum to 0.  So
it is the sum S of the supporting lone faces, an outward 2-cycle on the
boundary of conv P: m times it.  The number of tiles holding a point off all
faces is the winding number of S about it, m inside conv P and 0 outside,
and at the centroid S is one face: m = 1.  So no pair need be tested, and
each lone face with points of P on both sides is a wall (d1's 20: 5
quadrilaterals split along different diagonals on their two sides).

Else (E, any other list) the pairwise test finds no overlap, and the rule
holds in the packing.  On a plane that cancels, faces wound alike do not
overlap, so each lies under faces wound the other way.  On any other, take
a lone face f of tile t, and a tile u that holds the outside of f near f's
centroid c.  The plane separating t and u passes through c, which lies
inside t's facet f, so it must be f's plane.  So u meets it in a face wound
the other way that contains c, and lone: a partner face would belong to a
tile overlapping t.  This assumes a face wholly covered or wholly exposed,
and a build checks it: each such plane's walls must cancel, split or not.

A build hands on the facts it has decided rather than deriving them again.
Its tiles take the points it has read, with their kinds and parities
checked as PlacedTile checks them; its mesh takes each face's Newell normal
from the face planes (a lone triangle's, or the sum of a fused face's
triangles': dropping collinear corners leaves that area vector unchanged).
Its walls and boundary triangles are built from its face table when first
read.  The public PlacedTile and Mesh constructors still read and derive
everything from their inputs.

Points are doubled Z[tau] pairs in the half-integer icosahedral frame, and
every decision is exact arithmetic on Python ints at any magnitude; floats
(mesh vertices, tile vertices, exports) are derived from the pairs by embed.
Signs need no floats (the Fibonacci sign lemma): if |A|, |B| < F(k), k >= 2,
then A + B*tau and A*F(k) + B*F(k+1) have one sign.  They differ by
B*sigma^k, less than F(k)*tau^-k < 1/tau in size, while a nonzero A + B*tau
is more than 1/(F(k)*tau): its norm A^2 + AB - B^2 is a nonzero integer and
its conjugate below F(k)*tau.  With M the largest coordinate (at least 1), a
face normal is at most 24 M^2 per entry, and its plane at a point 432 M^3,
as is a separating-axis projection difference: a build takes the least k
with F(k) > 5184 M^4 and packs the points' six coordinates into six ints,
one slot per point, of W bits, one more than the bit length of 5184 M^4
(F(k) + F(k+1)).
One multiply-add per face plane gives its form at every point, and the top
bits of the slots, biased by 2^(W-1), give the points below and above it as
two bitmasks.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from itertools import chain
from operator import index

from .. import catalog
from ..catalog import TileKind, tile_kind
from ..golden import TAU, GoldenRational, embed, pair_sign
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


def _record(cls, *values):
    """A frozen record of cls with its fields set, in order, to values its
    constructor would derive: for facts a build has already decided."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


def _fundamental(kind) -> TileKind:
    kind = tile_kind(kind)
    if not kind.is_fundamental:
        raise ValueError(f"{kind.value} is not a fundamental tile (t1..t6)")
    return kind


def _parity(exact: tuple) -> int:
    """The sign of a tetrahedron's triple product; ValueError if flat."""
    if len(exact) != 4:
        raise ValueError(f"a tile has 4 vertices of 3 doubled pairs, not {len(exact)}")
    parity = pair_sign(*_scalar_triple(exact))
    if not parity:
        raise ValueError("the tile is flat: its triple product is zero")
    return parity


@dataclass(frozen=True, eq=False)
class PlacedTile:
    """A fundamental tile: four vertices as doubled Z[tau] pairs, nested
    (4, 3, 2) ints, read from any nested integer sequence.  parity is the
    exact sign of (b-a).((c-a)x(d-a)), and faces are wound outward for it;
    a flat tile, or a kind outside t1..t6, is a ValueError.  vertices is
    the float image of exact, derived at read.  A build checks its tiles'
    kinds and parities with the same two helpers, on points already read."""

    kind: TileKind
    exact: tuple
    name: str = field(default="", compare=False)
    parity: int = field(init=False)

    def __post_init__(self):
        kind = _fundamental(self.kind)
        exact = _points(self.exact)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "parity", _parity(exact))

    @property
    def vertices(self) -> tuple:
        return _embed_doubled(self.exact)

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        return _WOUND[self.parity]

    def face_edge_squares(self, face_index: int) -> tuple[GoldenRational, ...]:
        """Exact squared edge lengths of a face, in cyclic order."""
        return squared_edges([self.exact[i] for i in self.faces[face_index]])

    def find_face(self, edge_squares) -> int:
        """Index of the unique face whose exact squared-edge multiset matches."""
        hits = [i for i in range(4) if sorted(self.face_edge_squares(i)) == sorted(edge_squares)]
        if len(hits) != 1:
            raise ValueError(f"{len(hits)} faces of {self.kind.value} match {edge_squares}")
        return hits[0]

    def volume(self) -> GoldenRational:
        """Exact volume: |triple product| / 6, or / 48 in doubled coordinates."""
        return abs(GoldenRational(*_scalar_triple(self.exact), 48))


@dataclass(frozen=True, eq=False)
class Mesh:
    """Polygonal outer surface: shared vertices, outward-wound faces.

    exact holds the vertices as doubled Z[tau] pairs, nested (V, 3, 2)
    ints, and vertices their float image, derived at read.  provenance[i]
    names the tiles whose triangles were fused into face i.  Derived once,
    at construction: edge_faces pairs each edge (i, j), i < j, in sorted
    order, with the faces that hold it, and normals[i] is face i's exact
    Newell normal.  A build's mesh takes its normals from its face planes
    instead: a lone triangle's, or the sum of a fused face's triangles'."""

    exact: tuple
    faces: tuple[tuple[int, ...], ...]
    provenance: tuple[tuple[str, ...], ...]
    edge_faces: tuple[tuple[tuple[int, int], tuple[int, ...]], ...] = field(
        init=False, repr=False)
    normals: tuple = field(init=False, repr=False)

    def __post_init__(self):
        exact = _points(self.exact)
        # a face's Newell normal, the sum of tail x head over its edges, is its
        # fan's sum of (f[i] - f[0]) x (f[i+1] - f[0]), k - 2 terms
        normals = tuple(_vsum(_normal(exact[f[0]], exact[u], exact[v])
                              for u, v in zip(f[1:-1], f[2:])) for f in self.faces)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "edge_faces", _edge_faces(self.faces))
        object.__setattr__(self, "normals", normals)

    @property
    def vertices(self) -> tuple:
        return _embed_doubled(self.exact)

    def counts(self) -> tuple[int, int, int]:
        """(N0, N1, N2): vertices, edges, faces."""
        return len(self.exact), len(self.edge_faces), len(self.faces)

    def volume_exact(self) -> GoldenRational:
        """Enclosed volume by the divergence theorem (faces wound outward):
        the sum of normals[i] . (a corner of face i) / 6, or / 48 doubled."""
        corners = [self.exact[f[0]] for f in self.faces]
        return GoldenRational(*map(sum, zip((0, 0), *map(_dot, self.normals, corners))), 48)

    def volume(self) -> float:
        """Float image of volume_exact()."""
        return embed(self.volume_exact())

    def face_census(self) -> Counter:
        """Counter of (side count, sorted exact squared edge lengths)."""
        return Counter((len(f), tuple(sorted(squared_edges([self.exact[i] for i in f]))))
                       for f in self.faces)


def _edge_faces(faces) -> tuple:
    """Mesh.edge_faces, from one walk over the directed edges of each face."""
    incident: dict[tuple[int, int], list[int]] = {}
    for fi, f in enumerate(faces):
        for t, h in zip(f[-1:] + f[:-1], f):
            incident.setdefault((t, h) if t < h else (h, t), []).append(fi)
    return tuple((e, tuple(incident[e])) for e in sorted(incident))


@dataclass(frozen=True, eq=False)
class TriangleFace:
    """One tetrahedron face inside an assembly, with its owner's name;
    corners are doubled Z[tau] pairs, nested (3, 3, 2)."""

    owner: str
    corners: tuple


@dataclass(frozen=True)
class Dihedral:
    """Interior angle along one mesh edge, None when the edge is open; its
    exact class is "atan2", "pi-atan2" or "neither" (see dihedrals)."""

    edge: tuple[int, int]
    faces: tuple[int, ...]
    angle: float | None
    angle_class: str | None


def squared_edges(corners) -> tuple[GoldenRational, ...] | list[tuple]:
    """Exact squared lengths of a polygon's edges in cyclic order; corners
    are doubled Z[tau] pairs, nested (k, 3, 2).  A stack (..., k, 3, 2)
    gives a list of those tuples, one per polygon in row-major order."""
    corners = corners.tolist() if hasattr(corners, "tolist") else corners
    if isinstance(corners, str):  # it would nest without end
        raise ValueError("corners must nest as (..., k, 3, 2) integers")
    try:
        p = _points(corners)
    except ValueError:  # a stack
        out = []
        for sub in corners:
            got = squared_edges(sub)
            out += got if isinstance(got, list) else [got]
        return out
    return tuple(GoldenRational(*_dot(d, d), 4) for d in map(_sub, p[1:] + p[:1], p))


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


# each target's (coords, tets, groups): T1, T2 and T4 are the first group of their kind in
# d1 (reversed: the first one wins), E and C the first and last three tiles of T1
_FIRST_GROUP = {k: [_wiring.D1_TETS[i] for i in ids] for k, ids, _ in reversed(_wiring.D1_GROUPS)}
_SOURCES = {
    "d1": (_wiring.D1_COORDS, _wiring.D1_TETS, tuple(_wiring.D1_GROUPS)),
    "i1": (_wiring.I1_COORDS, _wiring.I1_TETS, ()),
    **{k: (_wiring.D1_COORDS, _FIRST_GROUP[k], ()) for k in ("T1", "T2", "T4")},
    "E": (_wiring.D1_COORDS, _FIRST_GROUP["T1"][:3], ()),
    "C": (_wiring.D1_COORDS, _FIRST_GROUP["T1"][3:], ()),
    "T3": (_wiring.I1_COORDS, _wiring.T3_TETS, ()),
    "T3bar": (_wiring.I1_COORDS, [_wiring.I1_TETS[i] for i in _wiring.I1_T3BAR], ()),
}

# faces of tetrahedron abcd wound outward, by the sign of det(b - a, c - a, d - a)
_WOUND = {1: ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))}
_WOUND[-1] = tuple((a, c, b) for a, b, c in _WOUND[1])


# ---------------------------------------------------------------------------
# exact Z[tau] kernel on Python ints: a pair (a, b) is a + b*tau, a vector
# is three pairs, and a point is a vector of doubled pairs.


_ZERO = ((0, 0),) * 3
_EDGES = ((1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2))


def _points(x) -> tuple:
    """Points as nested tuples (k, 3, 2) of ints, from any nested sequence
    of integers (an array too); ValueError for anything else."""
    x = x.tolist() if hasattr(x, "tolist") else x
    try:
        return tuple([((index(a), index(b)), (index(c), index(d)), (index(e), index(f)))
                      for (a, b), (c, d), (e, f) in x])
    except (TypeError, ValueError):
        raise ValueError("points must nest as (k, 3, 2) integers") from None


def _mul(x, y) -> tuple[int, int]:
    (a, b), (c, d) = x, y
    return a * c + b * d, a * d + b * c + b * d


def _sub(u, v) -> tuple:
    (a, b), (c, d), (e, f) = u
    (g, h), (i, j), (k, l) = v
    return (a - g, b - h), (c - i, d - j), (e - k, f - l)


def _vsum(vectors) -> tuple:
    a = b = c = d = e = f = 0
    for (g, h), (i, j), (k, l) in vectors:
        a, b, c, d, e, f = a + g, b + h, c + i, d + j, e + k, f + l
    return (a, b), (c, d), (e, f)


def _normal(p, q, r) -> tuple:
    """(q - p) x (r - p), component by component (q-p)_y (r-p)_z - (q-p)_z
    (r-p)_y and its turns, tau^2 = tau + 1; u x v is _normal(_ZERO, u, v)."""
    (a, b), (c, d), (e, f) = p
    (g, h), (i, j), (k, l) = q
    (m, n), (o, t), (w, x) = r
    g, h, i, j, k, l = g - a, h - b, i - c, j - d, k - e, l - f
    m, n, o, t, w, x = m - a, n - b, o - c, t - d, w - e, x - f
    return ((i * w + j * x - k * o - l * t, i * x + j * w + j * x - k * t - l * o - l * t),
            (k * m + l * n - g * w - h * x, k * n + l * m + l * n - g * x - h * w - h * x),
            (g * o + h * t - i * m - j * n, g * t + h * o + h * t - i * n - j * m - j * n))


def _dot(u, v) -> tuple[int, int]:
    (a, b), (c, d), (e, f) = u
    (g, h), (i, j), (k, l) = v
    return (a * g + b * h + c * i + d * j + e * k + f * l,
            a * h + b * g + b * h + c * j + d * i + d * j + e * l + f * k + f * l)


def _scalar_triple(v) -> tuple[int, int]:
    """Triple product (b-a).((c-a)x(d-a)) of one tetrahedron, nested (4, 3, 2)."""
    a, b, c, d = v
    return _dot(_sub(b, a), _normal(a, c, d))


class _Slots:
    """The sign form of the values decided on some points (module
    docstring), bounded by 5184 M^4, M the points' largest coordinate and
    at least 1, and n of them packed in one int, slot i in bits [width*i,
    width*(i+1)); fib is (F(k), F(k+1))."""

    def __init__(self, points, n: int):
        m = max(map(abs, chain.from_iterable(chain.from_iterable(points))), default=0)
        bound, f, g = 5184 * max(m, 1) ** 4, 1, 2
        while f <= bound:
            f, g = g, f + g
        self.fib = f, g
        self.width = (bound * (f + g)).bit_length() + 1
        self.ones = sum(1 << self.width * i for i in range(n))
        self.high = self.ones << (self.width - 1)

    def scaled(self, x) -> tuple:
        """x with each pair (a, b) sent to (a*F(k) + b*F(k+1), a*F(k+1) +
        b*F(k+2)), so that _at(n, scaled(x)) is A*F(k) + B*F(k+1) for
        n.x = A + B*tau."""
        f, g = self.fib
        (a, b), (c, d), (e, h) = x
        return ((a * f + b * g, a * g + b * (f + g)), (c * f + d * g, c * g + d * (f + g)),
                (e * f + h * g, e * g + h * (f + g)))

    def pack(self, points) -> tuple:
        """The points as one point of packed ints, point i in slot i."""
        w, xa, xb, ya, yb, za, zb = self.width, 0, 0, 0, 0, 0, 0
        for (a, b), (c, d), (e, f) in reversed(points):
            xa, xb, ya, yb = (xa << w) + a, (xb << w) + b, (ya << w) + c, (yb << w) + d
            za, zb = (za << w) + e, (zb << w) + f
        return (xa, xb), (ya, yb), (za, zb)

    def signs(self, total: int) -> tuple[int, int]:
        """(below, above): the top bits of the slots of total, a sum of
        signed values v_i << width*i, where v_i < 0 and v_i > 0."""
        s = total + self.high  # biased: slot i holds v_i + 2^(width-1) >= 1
        return self.high & ~s, self.high & (s - self.ones)

    def bit(self, i: int) -> int:
        return 1 << self.width * i + self.width - 1


def _at(n, x) -> int:
    """The integer dot product of two vectors of pairs."""
    (a, b), (c, d), (e, f) = n
    (g, h), (i, j), (k, l) = x
    return a * g + b * h + c * i + d * j + e * k + f * l


@cache
def _embed_half(a: int, b: int) -> float:
    return embed(GoldenRational(a, b, 2))


def _embed_doubled(points) -> tuple:
    """Float image (a + b*tau)/2 of doubled points (k, 3, 2), cached per pair."""
    return tuple(((_embed_half(*x), _embed_half(*y), _embed_half(*z)) for x, y, z in points))


# ---------------------------------------------------------------------------
# geometric predicates


# per face of a build (three point indices wound outward), None until set: its normal n =
# (c1 - c0) x (c2 - c0), its sign row as (below, above) slot masks; the first face on its points
_Planes = namedtuple("_Planes", "slots scaled packed normals rows first")


def _planes(points, faces, ks=None) -> _Planes:
    """Each face's plane at points, and the first face on its points.
    Given ks, only those faces take theirs here (see _fill)."""
    slots = _Slots(points, len(points))
    scaled = [slots.scaled(p) for p in points]
    seen: dict[frozenset, int] = {}
    first = [seen.setdefault(frozenset(f), k) for k, f in enumerate(faces)]
    unset = [None] * len(faces)
    planes = _Planes(slots, scaled, slots.pack(scaled), unset, unset[:], first)
    return _fill(points, faces, planes, range(len(faces)) if ks is None else ks)


def _fill(points, faces, planes: _Planes, ks) -> _Planes:
    """Set the planes of faces ks, each from its own corners."""
    scaled, packed, normals, rows = planes[1:5]
    ones, signs = planes.slots.ones, planes.slots.signs
    for k in ks:
        f = faces[k]
        n = _normal(points[f[0]], points[f[1]], points[f[2]])
        normals[k], rows[k] = n, signs(_at(n, packed) - _at(n, scaled[f[0]]) * ones)
    return planes


def _candidates(rows, vertex_masks) -> list[tuple[int, int]]:
    """Index pairs a < b, in order, of tetrahedra no face plane of either
    puts wholly on or outside the other: rows[4a:4a+4] are the sign rows of
    a's face planes, vertex_masks[b] the top bits of b's vertices.  A zero
    plane (no point off it) separates nothing."""
    below = [lo if lo or hi else -1 for lo, hi in rows]
    out = []
    for a, va in enumerate(vertex_masks):
        p, q, r, s = below[4 * a:4 * a + 4]
        out += [(a, b) for b, vb in enumerate(vertex_masks[a + 1:], a + 1)
                if p & vb and q & vb and r & vb and s & vb
                and all(x & va for x in below[4 * b:4 * b + 4])]
    return out


def _overlaps(points, vert_ids, planes: _Planes) -> list[tuple[int, int]]:
    """Index pairs a < b of the tetrahedra points[vert_ids[a]] whose
    interiors meet, in lexicographic order, given the planes of their
    outward faces, four per tetrahedron in order.  Exact separating-axis
    test on the facets of a pair's Minkowski difference: it is apart if all
    four vertices of one lie on or outside a face plane of the other (702 of
    d1's 703 pairs, all 120 of i1's), else if one of its 36 edge-edge cross
    products n separates it: all 16 differences n.x - n.y, x in one and y
    in the other, have one sign (so touching separates)."""
    bits = list(map(planes.slots.bit, range(len(points))))
    masks = [bits[p] | bits[q] | bits[r] | bits[s] for p, q, r, s in vert_ids]
    out = []
    for a, b in _candidates(planes.rows, masks):
        ea, eb = ([_sub(points[v[i]], points[v[j]]) for i, j in _EDGES]
                  for v in (vert_ids[a], vert_ids[b]))
        sa, sb = ([planes.scaled[i] for i in vert_ids[t]] for t in (a, b))
        for n in (_normal(_ZERO, u, v) for u in ea for v in eb):
            pa, pb = [_at(n, x) for x in sa], [_at(n, x) for x in sb]
            if n != _ZERO and (max(pa) <= min(pb) or max(pb) <= min(pa)):
                break
        else:
            out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# coplanar fusion of boundary triangles


def _drop_collinear(cycle: tuple[int, ...], points) -> tuple[int, ...]:
    """A cycle of distinct point indices without its corners collinear with
    their neighbours, all tested before any is dropped: dropping one leaves
    the others' collinearity unchanged.  AssemblyError if fewer than 3
    corners remain."""
    out = tuple(v for u, v, w in zip(cycle[-1:] + cycle[:-1], cycle, cycle[1:] + cycle[:1])
                if _normal(points[u], points[v], points[w]) != _ZERO)
    if len(out) < 3:
        raise AssemblyError("a fused face has fewer than 3 corners not collinear "
                            "with their neighbours")
    return out


def _split(edges, points, scaled) -> list[tuple[int, int]]:
    """The directed edges u -> v, each cut in order at the tails w inside it: collinear by
    _normal, with the sign form _at(v - u, scaled[w]) of (v - u).w strictly between u's and v's."""
    corners, out = {u for u, _ in edges}, []
    for u, v in edges:
        d = _sub(points[v], points[u])
        lo, hi = _at(d, scaled[u]), _at(d, scaled[v])
        on = sorted((_at(d, scaled[w]), w) for w in corners
                    if _normal(points[u], points[v], points[w]) == _ZERO)
        cuts = [u] + [w for key, w in on if lo < key < hi] + [v]
        out += zip(cuts, cuts[1:])
    return out


def _rim(edges) -> tuple[int, ...] | None:
    """The cycle of the directed edges whose reverse is not among them,
    walked from the first tail on it; None if they are not one simple cycle."""
    has = set(edges)
    rim = [e for e in has if e[::-1] not in has]
    after = dict(rim)
    start = v = next((u for u, _ in edges if u in after), None)
    cycle = []
    for _ in rim:
        cycle.append(v)
        v = after.get(v)
    return tuple(cycle) if rim and v == start and len(set(cycle)) == len(rim) else None


def _fuse(faces: list, owners: list[str], points, scaled) -> list[tuple]:
    """Fuse the triangles of each oriented plane, given as (cycle, plane key) with their
    owners' names, into the _rim of their edges in triangle order (_split at the plane's
    corners if need be: T-junctions) less collinear corners, paired with their slots and
    kept in the first one's.  AssemblyError if the edges are not one simple cycle."""
    planes: dict[tuple, list[int]] = {}
    for slot, (_, key) in enumerate(faces):
        planes.setdefault(key, []).append(slot)
    out = []
    for slots in planes.values():
        if len(slots) == 1:  # a lone triangle, of a tile that is not flat, is its own rim
            out.append((tuple(faces[slots[0]][0]), slots))
            continue
        cycles = [faces[s][0] for s in slots]
        edges = [e for f in cycles for e in zip(f, f[1:] + f[:1])]
        rim = _rim(edges) or _rim(_split(edges, points, scaled))
        if rim is None:
            raise AssemblyError(f"the boundary triangles in the plane of a face of "
                                f"{owners[slots[0]]} do not fuse into one simple polygon")
        out.append((_drop_collinear(rim, points), slots))
    return out


# ---------------------------------------------------------------------------
# the assembly itself


# a build's face table: its tiles' points, their outward faces (three point
# indices, four per tile in tile order), whether each is a wall, tile names
_FaceTable = namedtuple("_FaceTable", "points faces is_wall names")


@dataclass(frozen=True, eq=False)
class Assembly:
    """A verified packing of fundamental tetrahedra with its outer hull.

    walls and boundary_triangles hold each tile face, in tile and face
    order, as a TriangleFace owned by its tile.  They are derived from the
    build's face table on first read and then kept; dataclasses.replace
    carries the table over, so they stay the build's whatever it replaces."""

    target: str
    tiles: tuple[PlacedTile, ...]
    mesh: Mesh
    groups: tuple[tuple[str, tuple[int, ...], str], ...]
    _faces: _FaceTable = field(repr=False)

    @cached_property
    def walls(self) -> tuple[TriangleFace, ...]:
        return self._triangles(True)

    @cached_property
    def boundary_triangles(self) -> tuple[TriangleFace, ...]:
        return self._triangles(False)

    def _triangles(self, wall: bool) -> tuple[TriangleFace, ...]:
        points, faces, is_wall, names = self._faces
        return tuple(TriangleFace(names[k // 4], (points[i], points[j], points[m]))
                     for k, ((i, j, m), w) in enumerate(zip(faces, is_wall)) if w == wall)

    def volume_exact(self) -> GoldenRational:
        """Sum of the cataloged volumes of the constituent tetrahedra."""
        return catalog.total_volume(self.fundamental_counts())

    def tile_volume_sum(self) -> float:
        """Float image of the exact volumes of the placed tiles."""
        return float(sum((t.volume() for t in self.tiles), GoldenRational(0)))

    def fundamental_counts(self) -> dict[TileKind, int]:
        out = Counter(t.kind for t in self.tiles)
        return {k: out[k] for k in sorted(out, key=lambda s: s.value)}


def _holds(points, faces, normals, g, k) -> bool:
    """Whether closed face g holds the centroid of face k on its plane: k's corner
    sum s is on the inner side of an edge u -> v of g, corners tripled, iff
    n.((v - u) x (s - u)) >= 0 for g's normal n."""
    s = _vsum(points[i] for i in faces[k])
    p, q, r = (_vsum((points[i],) * 3) for i in faces[g])
    return all(pair_sign(*_dot(normals[g], _normal(u, v, s))) >= 0
               for u, v in ((p, q), (q, r), (r, p)))


def _cancels(edges) -> bool:
    """Whether each directed edge appears as often as its reverse."""
    return Counter(edges) == Counter((v, u) for u, v in edges)


def _closes(triangles, points, scaled) -> bool:
    """Whether the triangles' directed edges _cancel, as they are or once _split."""
    edges = [(f[i - 1], f[i]) for f in triangles for i in range(3)]
    return _cancels(edges) or _cancels(_split(edges, points, scaled))


def _decide(points, faces, planes: _Planes) -> tuple[list[bool], bool, list[int]]:
    """Each face's wall flag by the one wall rule, whether the face-to-face
    certificate holds, and the tiles of the planes whose walls do not close
    (module docstring).  It sets the planes of the lone faces, and only those."""
    first = planes.first
    size = Counter(first)
    lone = [j for j, n in size.items() if n == 1]  # in order, each its group's first
    rows, normals, scaled = _fill(points, faces, planes, lone).rows, planes.normals, planes.scaled
    is_wall = [size[j] > 1 or rows[k][1] != 0 for k, j in enumerate(first)]
    holds = not any(size[j] > 2 or faces[j][faces[j].index(faces[k][0]) - 2] == faces[k][1]
                    for k, j in enumerate(first) if j != k)
    # lone faces with points above, by the points off their unoriented plane: walls where
    # their edges cancel (a plane wound one way never does), else by the other way's faces
    cut: dict[int, list[int]] = {}
    for k in lone:
        if rows[k][1]:
            cut.setdefault(sum(rows[k]), []).append(k)
    unclosed = []  # the tile of the first lone face of each plane whose walls do not close
    for on in cut.values():
        if len({rows[k] for k in on}) == 2 and _closes([faces[k] for k in on], points, scaled):
            continue
        holds = False
        for k in on:
            is_wall[k] = any(_holds(points, faces, normals, g, k)
                             for g in on if rows[g] != rows[k])
        if not _closes([faces[k] for k in on if is_wall[k]], points, scaled):
            unclosed.append(on[0] // 4)
    # the first supporting face's centroid in no other supporting face of its plane
    hull = [k for k in lone if not rows[k][1]]
    holds = holds and not any(_holds(points, faces, normals, k, hull[0])
                              for k in hull[1:] if rows[k] == rows[hull[0]])
    return is_wall, holds, unclosed


def _build(target: str, coords, tets, groups=()) -> Assembly:
    """Build tets, each (kind, point labels), on their points alone, in coords' order."""
    labels = {lab for _, labs in tets for lab in labs}
    index = {lab: k for k, lab in enumerate(lab for lab in coords if lab in labels)}
    points = _points([coords[lab] for lab in index])
    vert_ids = [[index[lab] for lab in labs] for _, labs in tets]

    # tiles on the points just read, checked as PlacedTile checks them
    tiles, count = [], Counter()
    for (kind_name, _), ids in zip(tets, vert_ids):
        name = f"{kind_name}-{count[kind_name]}"
        exact = tuple([points[i] for i in ids])
        try:
            kind, parity = _fundamental(kind_name), _parity(exact)
        except ValueError as exc:
            raise AssemblyError(f"{target}: {name}: {exc}") from exc
        tiles.append(_record(PlacedTile, kind, exact, name, parity))
        count[kind_name] += 1

    # overlap, walls and hull planes read one table: outward-wound face planes at
    # points, set as the certificate and the pairwise tests need them
    faces = [(ids[i], ids[j], ids[k]) for ids, t in zip(vert_ids, tiles) for i, j, k in t.faces]
    planes = _planes(points, faces, ())
    is_wall, holds, unclosed = _decide(points, faces, planes)
    if not holds:
        _fill(points, faces, planes, [k for k, n in enumerate(planes.normals) if n is None])
        # no two tetrahedra may share interior volume
        overlaps = _overlaps(points, vert_ids, planes)
        if overlaps:
            a, b = overlaps[0]
            raise AssemblyError(f"{target}: tiles {tiles[a].name} and {tiles[b].name} overlap")
    names = [t.name for t in tiles]
    if unclosed:
        raise AssemblyError(f"{target}: the walls in the plane of a face of {names[unclosed[0]]} "
                            "do not close")
    hull = [k for k, wall in enumerate(is_wall) if not wall]
    owners = [names[k // 4] for k in hull]
    # the boundary faces as (point indices, plane key): equal sign rows, one oriented plane
    try:
        fused = _fuse([(faces[k], planes.rows[k]) for k in hull], owners, points, planes.scaled)
    except AssemblyError as exc:
        raise AssemblyError(f"{target}: {exc}") from exc

    # compact the vertex array to the ones the hull actually uses; a fused face's Newell
    # normal is the sum of its triangles' (dropping collinear corners leaves it unchanged)
    used = sorted({i for f, _ in fused for i in f})
    remap = {old: new for new, old in enumerate(used)}
    mesh_faces = tuple(tuple(remap[i] for i in f) for f, _ in fused)
    normals = planes.normals
    mesh = _record(
        Mesh, tuple(points[i] for i in used), mesh_faces,
        tuple(tuple(sorted({owners[s] for s in slots})) for _, slots in fused),
        _edge_faces(mesh_faces),
        tuple(normals[hull[slots[0]]] if len(slots) == 1 else
              _vsum(normals[hull[s]] for s in slots) for _, slots in fused))

    return Assembly(target, tuple(tiles), mesh, groups,
                    _FaceTable(points, faces, is_wall, names))


@lru_cache(maxsize=None)
def assemble(target: str) -> Assembly:
    """Instantiate one of the precomputed clusters; see ASSEMBLY_TARGETS."""
    if target not in _SOURCES:
        raise KeyError(f"unknown assembly target {target!r}; choose from {ASSEMBLY_TARGETS}")
    return _build(target, *_SOURCES[target])


def dihedrals(mesh: Mesh) -> list[Dihedral]:
    """Interior dihedral angle along every mesh edge: pi minus the angle of
    the faces' exact Newell normals n1, n2, and exactly atan 2 or pi - atan 2
    when 5 (n1.n2)^2 = |n1|^2 |n2|^2, with n1.n2 < 0 or > 0.  An edge with one
    incident face gets angle None rather than an error."""
    tau = embed(TAU)
    normals = mesh.normals
    norms = [_dot(n, n) for n in normals]  # each face's exact |n|^2, and its float
    floats = [a + b * tau for a, b in norms]
    known: dict[tuple, tuple] = {}  # (angle, class) per exact (n1.n2, |n1|^2, |n2|^2)
    out = []
    for edge, fs in mesh.edge_faces:
        if len(fs) != 2:
            out.append(_record(Dihedral, edge, fs, None, None))
            continue
        f1, f2 = fs
        dot = _dot(normals[f1], normals[f2])
        key = dot, norms[f1], norms[f2]
        got = known.get(key)
        if got is None:
            da, db = dot
            angle_class = "neither"
            if _mul((5 * da, 5 * db), dot) == _mul(norms[f1], norms[f2]):
                angle_class = "pi-atan2" if pair_sign(da, db) > 0 else "atan2"
            cos = (da + db * tau) / math.sqrt(floats[f1] * floats[f2])
            got = known[key] = (math.pi - math.acos(min(max(cos, -1.0), 1.0)), angle_class)
        out.append(_record(Dihedral, edge, fs, *got))
    return out


# ---------------------------------------------------------------------------
# exports


def export_obj(assembly: Assembly) -> str:
    """Wavefront OBJ text: one named object per tile, faces wound outward."""
    lines = [f"# {assembly.target}: {len(assembly.tiles)} tetrahedra"]
    v_lines: dict[tuple, str] = {}  # each distinct point's "v x y z", once
    for k, t in enumerate(assembly.tiles):
        lines.append(f"o {t.name}")
        for p in t.exact:
            if p not in v_lines:
                v_lines[p] = "v " + " ".join(f"{_embed_half(a, b):.17g}" for a, b in p)
            lines.append(v_lines[p])
        lines += [f"f {i + 1 + 4 * k} {j + 1 + 4 * k} {m + 1 + 4 * k}" for i, j, m in t.faces]
    return "\n".join(lines) + "\n"


def export_patch(assembly: Assembly) -> dict:
    """JSON-ready description: tiles with parities plus the merged hull."""
    return {
        "frame": "icosa-half-integer",
        "target": assembly.target,
        "tiles": [{"kind": t.kind.value, "name": t.name, "parity": t.parity,
                   "vertices": [list(v) for v in t.vertices]} for t in assembly.tiles],
        "hull": {
            "vertices": [list(v) for v in assembly.mesh.vertices],
            "faces": [list(f) for f in assembly.mesh.faces],
            "provenance": [list(p) for p in assembly.mesh.provenance],
        },
    }
