"""Static data model of the thirteen cataloged shapes.

Six fundamental tetrahedra t1..t6 with edges in {1, tau}, the composite
tiles E, C, T1..T4 built by gluing fundamentals on equilateral faces, the
T3bar variant (one t5 of T3 re-seated by a 120 degree turn), and the
standard polyhedron inventories (unit icosahedron and dodecahedron, their
tau-scaled versions) expressed in both fundamental and composite tiles.

A fundamental tile is given by its six edge lengths; its face census and
volume are derived from them.  The six squared lengths (an EdgeScheme)
pin a tetrahedron down metrically: the Gram matrix G of its edge vectors
u = AB, v = AC, w = AD is written in them alone, G_uu = q_ab and
G_uv = (q_ab + q_ac - q_bc)/2 and so on, and det G, the Cayley-Menger
determinant over 8, is 36 V^2.  So with squared lengths in Q(tau) the
volume is exact and needs no coordinates (cm_volume).  Volumes are exact
GoldenRationals; a composite's volume is summed over its composition,
and every composite satisfies Euler's relation N0 - N1 + N2 = 2.
Composite face censuses are stored post-merge: coplanar glued triangles
are fused, e.g. the four trapezoids of T1 or the base pentagon of T3.
The raw triangle census before merging is kept as auxiliary data.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from math import lcm, sqrt
from operator import index, mul

from .catalog import CATALOG_ORDER, TileKind, tile_kind
from .golden import ONE, TAU, GoldenRational, embed, exact_sqrt, tau_pow

_SHAPE_SIDES = {"triangle": 3, "trapezoid": 4, "pentagon": 5}
_TAU2 = TAU * TAU
_EDGE_NAMES = {ONE: "1", TAU: "tau", _TAU2: "tau^2"}


@dataclass(frozen=True)
class FaceSpec:
    """A congruence class of faces: shape, edge multiset, multiplicity.

    axis_class, derived from shape and edges, is the symmetry axis the face
    is normal to inside an icosahedrally symmetric assembly: Robinson
    triangles (edge ratios (1,1,tau) or (1,tau,tau) at any scale) are normal
    to 5-fold axes, equilateral triangles to 3-fold axes, all else to none.
    """

    shape: str
    edges: tuple[GoldenRational, ...]
    multiplicity: int = 1

    def __post_init__(self):
        if self.shape not in _SHAPE_SIDES:
            raise ValueError(f"unknown face shape {self.shape!r}")
        if len(self.edges) != _SHAPE_SIDES[self.shape]:
            raise ValueError(f"{self.shape} needs {_SHAPE_SIDES[self.shape]} edges")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")

    @property
    def axis_class(self) -> str:
        if self.shape != "triangle":
            return "none"
        return _FAMILY_AXIS[triangle_family([e * e for e in self.edges])]

    def edge_names(self) -> str:
        return "(" + ",".join(_EDGE_NAMES.get(e) or str(e) for e in self.edges) + ")"


def triangle_family(squares) -> str:
    """'equilateral', 'robinson' or 'other' for a triangle given its exact
    squared edge lengths; a Robinson triangle (edges x, x, tau*x or
    x, tau*x, tau*x) has squares in ratio 1:1:tau^2 or 1:tau^2:tau^2."""
    a, b, c = sorted(squares)
    if a == c:
        return "equilateral"
    if (a == b and c == a * _TAU2) or (b == c and b == a * _TAU2):
        return "robinson"
    return "other"


_FAMILY_AXIS = {"equilateral": "three-fold", "robinson": "five-fold", "other": "none"}


@dataclass(frozen=True)
class TileRecord:
    kind: TileKind
    faces: tuple[FaceSpec, ...]
    volume: GoldenRational
    composition: tuple[tuple[TileKind, int], ...] = ()
    N0: int | None = None
    N1: int | None = None
    N2: int | None = None
    premerge_triangles: tuple[FaceSpec, ...] = ()
    edge_lengths: tuple[GoldenRational, ...] = ()  # AB, AC, AD, BC, BD, CD; t1..t6 only

    def __post_init__(self):
        if not self.kind.is_fundamental:
            if None in (self.N0, self.N1, self.N2):
                raise ValueError(f"{self.kind}: composite records need N0/N1/N2")
            if self.N0 - self.N1 + self.N2 != 2:
                raise ValueError(f"{self.kind}: Euler relation violated")

    def composition_dict(self) -> dict[TileKind, int]:
        return dict(self.composition)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind.value,
            "faces": [
                {
                    "shape": f.shape,
                    "edges": [e.to_json() for e in f.edges],
                    "multiplicity": f.multiplicity,
                    "axis_class": f.axis_class,
                }
                for f in self.faces
            ],
            "volume": self.volume.to_json(),
            "composition": {k.value: n for k, n in self.composition},
        }
        if self.N0 is not None:
            out["N0"], out["N1"], out["N2"] = self.N0, self.N1, self.N2
        return out

    def faces_text(self) -> str:
        """The face census as one table cell, e.g. '1x(1,1,1);3x(1,tau,tau)'."""
        return ";".join(f"{f.multiplicity}x{f.edge_names()}" for f in self.faces)


@dataclass(frozen=True)
class Inventory:
    """A named multiset of tiles making up a target polyhedron."""

    target: str
    counts: tuple[tuple[TileKind, int], ...]

    def __post_init__(self):
        for kind, n in self.counts:
            if index(n) <= 0:
                raise ValueError(f"{self.target}: count for {kind} must be positive")

    def counts_dict(self) -> dict[TileKind, int]:
        return dict(self.counts)


_T = TAU
_TRAP = (ONE, ONE, ONE, _T)  # isosceles trapezoid from a (1,1,tau) and a (1,tau,tau)
_PENT = (ONE,) * 5

_R11T = (ONE, ONE, _T)
_R1TT = (ONE, _T, _T)
_RTT2 = (_T, _T, _TAU2)


# Edge lengths of AB, AC, AD, BC, BD, CD for each fundamental tile with
# vertices A, B, C, D.  Up to relabelling, each is the unique assignment of
# 1s and taus that gives the tile's face census; _tet_faces derives it.
_EDGE_LENGTHS = {
    TileKind.t1: (ONE, ONE, ONE, ONE, ONE, _T),  # the tau edge joins the two Robinson faces
    TileKind.t2: (ONE, ONE, ONE, ONE, _T, _T),  # BD = CD = tau
    TileKind.t3: (ONE, ONE, ONE, _T, _T, _T),  # base (tau,tau,tau), apex edges 1
    TileKind.t4: (_T, _T, _T, ONE, ONE, ONE),  # base (1,1,1), apex edges tau
    TileKind.t5: (ONE, ONE, _T, _T, _T, _T),  # base (tau,tau,tau), apex edges (1,1,tau)
    TileKind.t6: (ONE, _T, _T, _T, _T, _T),  # five edges tau, one edge 1
}

# the faces ABC, ABD, ACD, BCD as positions in that edge order
_FACE_EDGES = ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))


def _face_specs(census) -> tuple[FaceSpec, ...]:
    shapes = {n: shape for shape, n in _SHAPE_SIDES.items()}
    return tuple(FaceSpec(shapes[len(edges)], edges, n) for edges, n in census)


def _tet_faces(lengths) -> tuple[FaceSpec, ...]:
    """Face census of a tetrahedron with these six edge lengths: one
    FaceSpec per sorted edge triple, equilateral faces first, then by edges."""
    census = Counter(tuple(sorted(lengths[i] for i in face)) for face in _FACE_EDGES)
    return _face_specs((edges, census[edges])
                       for edges in sorted(census, key=lambda e: (e[0] != e[2], e)))


def gram_determinant(squares) -> GoldenRational:
    """det G = 36 V^2 for a tetrahedron ABCD with squared edges AB, AC, AD,
    BC, BD, CD, G the Gram matrix of AB, AC, AD (see the module docstring)."""
    ab, ac, ad, bc, bd, cd = squares
    uv, uw, vw = (ab + ac - bc) / 2, (ab + ad - bd) / 2, (ac + ad - cd) / 2
    return ab * ac * ad + 2 * uv * uw * vw - ab * vw * vw - ac * uw * uw - ad * uv * uv


_PAIRS = ("ab", "ac", "ad", "bc", "bd", "cd")  # the order of _EDGE_LENGTHS


@dataclass(frozen=True)
class EdgeScheme:
    """Six squared edge lengths, indexed by vertex pairs of (A, B, C, D)."""

    ab: GoldenRational
    ac: GoldenRational
    ad: GoldenRational
    bc: GoldenRational
    bd: GoldenRational
    cd: GoldenRational

    def __post_init__(self):
        for name in _PAIRS:
            if getattr(self, name).sign() <= 0:
                raise ValueError(f"squared edge {name} must be positive")

    def squared(self, i: int, j: int) -> GoldenRational:
        return getattr(self, "abcd"[min(i, j)] + "abcd"[max(i, j)])

    def as_tuple(self) -> tuple[GoldenRational, ...]:
        return tuple(getattr(self, p) for p in _PAIRS)


def edge_scheme(kind: TileKind | str) -> EdgeScheme:
    """The edge scheme of a fundamental tile: its catalog edge lengths, squared."""
    kind = tile_kind(kind)
    if not kind.is_fundamental:
        raise ValueError(f"{kind} has no single edge scheme (composite)")
    return EdgeScheme(*(e * e for e in record(kind).edge_lengths))


@dataclass(frozen=True)
class CMVolume:
    """Exact V^2 and its real root; exact_root is None (inexact) unless V^2
    is a square in Q(tau), as it is for all six tiles."""

    squared: GoldenRational
    root: float
    exact_root: GoldenRational | None

    @property
    def is_exact(self) -> bool:
        return self.exact_root is not None


def cm_volume(e: EdgeScheme) -> CMVolume:
    """Volume of the tetrahedron with squared edges e, with no coordinates:
    det G = 36 V^2 (gram_determinant), V exact where V^2 is a square in Q(tau)."""
    det = gram_determinant(e.as_tuple())
    if det.sign() <= 0:
        raise ValueError("degenerate edge scheme (Cayley-Menger determinant not positive)")
    squared = det / 36
    exact = exact_sqrt(squared)
    root = embed(exact) if exact is not None else sqrt(embed(squared))
    return CMVolume(squared=squared, root=root, exact_root=exact)


def _tile_volume(kind: TileKind, lengths) -> GoldenRational:
    try:
        cm = cm_volume(EdgeScheme(*(e * e for e in lengths)))
        if not cm.is_exact:
            raise ValueError(f"volume is not in Q(tau) (V^2 = {cm.squared})")
    except ValueError as exc:
        raise ValueError(f"{kind}: {exc}") from None
    return cm.exact_root


# One row per composite: its composition, its faces after coplanar fusion as
# (edges, multiplicity) pairs, (N0, N1, N2), and its triangles before fusion,
# or None where they are its faces.  E and C precede T1, whose volume sums theirs.
_Composite = namedtuple("_Composite", "composition faces counts premerge")
_COMPOSITES = {
    # E: two t4 matched on the two equilateral faces of a t1 (nonconvex octahedron)
    TileKind.E: _Composite(((TileKind.t4, 2), (TileKind.t1, 1)),
                           ((_R1TT, 6), (_R11T, 2)), (6, 12, 8), None),
    # C: a t6 sandwiched between two t3 on its (tau,tau,tau) faces
    TileKind.C: _Composite(((TileKind.t3, 2), (TileKind.t6, 1)),
                           ((_R11T, 6), (_R1TT, 2)), (6, 12, 8), None),
    # T1 = E + C, C inserted between the legs of E on two (1,tau,tau) faces
    TileKind.T1: _Composite(((TileKind.E, 1), (TileKind.C, 1)),
                            ((_R11T, 4), (_TRAP, 4)), (8, 14, 8), ((_R11T, 8), (_R1TT, 4))),
    TileKind.T2: _Composite(((TileKind.t2, 1), (TileKind.t4, 1)),
                            ((_R1TT, 2), (_RTT2, 2)), (4, 6, 4), ((_R11T, 2), (_R1TT, 4))),
    TileKind.T3: _Composite(((TileKind.t5, 2), (TileKind.t6, 1)),
                            ((_R1TT, 5), (_PENT, 1)), (6, 10, 6), ((_R11T, 2), (_R1TT, 6))),
    TileKind.T4: _Composite(((TileKind.t3, 1), (TileKind.t6, 1), (TileKind.t5, 1)),
                            ((_R11T, 3), (_R1TT, 3), (_TRAP, 1)), (6, 11, 7),
                            ((_R11T, 4), (_R1TT, 4))),
}
# T3bar: T3's three tiles, one t5 re-seated by a 120 degree turn about its
# base axis; the pentagon never forms and two trapezoids appear instead
_COMPOSITES[TileKind.T3bar] = _COMPOSITES[TileKind.T3]._replace(faces=((_R1TT, 4), (_TRAP, 2)))


def _records() -> dict[TileKind, TileRecord]:
    recs = {kind: TileRecord(kind, _tet_faces(lengths), _tile_volume(kind, lengths),
                             edge_lengths=lengths)
            for kind, lengths in _EDGE_LENGTHS.items()}
    for kind, (comp, faces, counts, premerge) in _COMPOSITES.items():
        volume = sum((recs[k].volume * n for k, n in comp), GoldenRational(0))
        faces = _face_specs(faces)
        premerge = faces if premerge is None else _face_specs(premerge)
        recs[kind] = TileRecord(kind, faces, volume, comp, *counts, premerge_triangles=premerge)
    return recs


_RECORDS = _records()

# every record's volume over one common denominator:
# volume(k) = (_VOLUME_A[k] + _VOLUME_B[k]*tau) / _VOLUME_DEN
_VOLUME_DEN = lcm(*(r.volume.den for r in _RECORDS.values()))
_VOLUME_A = {k: r.volume.a * (_VOLUME_DEN // r.volume.den) for k, r in _RECORDS.items()}
_VOLUME_B = {k: r.volume.b * (_VOLUME_DEN // r.volume.den) for k, r in _RECORDS.items()}


def record(kind: TileKind | str) -> TileRecord:
    """The full static record for one tile kind."""
    return _RECORDS[tile_kind(kind)]


def all_records() -> list[TileRecord]:
    """All thirteen records in stable catalog order."""
    return [_RECORDS[k] for k in CATALOG_ORDER]


def format_volume(v: GoldenRational) -> str:
    """Render a volume as 'tau^k/12' when v*12 is a tau power, else exactly."""
    twelve = v * 12
    for k in range(0, 12):
        p = tau_pow(k)
        for mult, prefix in ((1, ""), (2, "2")):
            if twelve == p * mult:
                if k == 0:
                    return f"{prefix or '1'}/12"
                base = "tau" if k == 1 else f"tau^{k}"
                return f"{prefix}{base}/12"
    s = str(twelve)
    if "+" in s[1:] or "-" in s[1:]:
        s = f"({s})"
    return f"{s}/12"


def _as_counts(inv) -> dict[TileKind, int]:
    if isinstance(inv, Inventory):
        return inv.counts_dict()
    # index, not int: a float or str count raises instead of truncating
    counts = {tile_kind(k): index(n) for k, n in inv.items()}
    if any(n < 0 for n in counts.values()):
        raise ValueError("tile counts must be nonnegative")
    return counts


def expand_to_fundamental(inv) -> dict[TileKind, int]:
    """Recursively replace composite kinds by their compositions.

    Fundamental kinds pass through; the result maps only t1..t6.
    """
    out: dict[TileKind, int] = {}
    stack = [(kind, n) for kind, n in _as_counts(inv).items()]
    while stack:
        kind, n = stack.pop()
        if kind.is_fundamental:
            out[kind] = out.get(kind, 0) + n
        else:
            for sub, m in record(kind).composition:
                stack.append((sub, n * m))
    return {k: out[k] for k in sorted(out, key=lambda t: t.value)}


def total_volume(inv) -> GoldenRational:
    """Exact sum of count * volume over a tile multiset, normalised once."""
    counts = _as_counts(inv)
    return GoldenRational(sum(map(mul, counts.values(), map(_VOLUME_A.__getitem__, counts))),
                          sum(map(mul, counts.values(), map(_VOLUME_B.__getitem__, counts))),
                          _VOLUME_DEN)


_INVENTORIES = {inv.target: inv for inv in (
    Inventory("i1", ((TileKind.t1, 7), (TileKind.t2, 6), (TileKind.t5, 2), (TileKind.t6, 1))),
    Inventory("itau", ((TileKind.t1, 1), (TileKind.t2, 8), (TileKind.t3, 10),
                       (TileKind.t4, 10), (TileKind.t5, 16), (TileKind.t6, 3))),
    Inventory("d1-fundamental", ((TileKind.t1, 3), (TileKind.t2, 4), (TileKind.t3, 10),
                                 (TileKind.t4, 10), (TileKind.t5, 4), (TileKind.t6, 7))),
    Inventory("d1-composite", ((TileKind.T1, 3), (TileKind.T2, 4), (TileKind.T4, 4))),
    Inventory("dtau-composite", ((TileKind.T1, 7), (TileKind.T2, 18), (TileKind.T3, 14),
                                 (TileKind.T4, 10))),
)}

INVENTORY_TARGETS = tuple(_INVENTORIES)


def inventory(target: str) -> Inventory:
    """One of the named inventories: i1, itau, d1-fundamental, d1-composite, dtau-composite."""
    try:
        return _INVENTORIES[target]
    except KeyError:
        raise KeyError(f"unknown inventory target {target!r}; choose from {INVENTORY_TARGETS}")
