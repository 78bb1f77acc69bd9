"""Edge schemes, realization, gluing, assemblies, symmetry axes."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from icotile import catalog, geometry
from icotile.catalog import ASSEMBLY_TARGETS, cm_volume, edge_scheme, triangle_family
from icotile.cli import canonical_json
from icotile.geometry import (
    AssemblyError,
    PlacedTile,
    _wiring,
    assemble,
    axes,
    dihedrals,
    expected_face_census,
    export_obj,
    export_patch,
    squared_edges,
)
from icotile.geometry.axes import axis_classes
from icotile.golden import GoldenRational, embed, fibonacci, pair_sign, tau_pow

from _placement import (
    AmbiguityError,
    CongruenceError,
    GlueError,
    face_correspondences,
    face_edge_squares,
    find_face,
    glue,
    realize,
)

TAU2 = tau_pow(2)
FUNDAMENTALS = ("t1", "t2", "t3", "t4", "t5", "t6")
ATAN2 = math.atan(2.0)


# ---------------------------------------------------------------------------
# reference: the int64 numpy Z[tau] kernel that the geometry module used to run,
# copied verbatim; arrays whose last axis holds (a, b) for a + b*tau


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
# edge schemes and volumes


def test_edge_schemes():
    one = GoldenRational(1)
    want = {
        "t1": (1, 1, 1, 1, 1, 0), "t2": (1, 1, 1, 1, 0, 0),
        "t3": (1, 1, 1, 0, 0, 0), "t4": (0, 0, 0, 1, 1, 1),
        "t5": (1, 1, 0, 0, 0, 0), "t6": (1, 0, 0, 0, 0, 0),
    }
    for kind, pattern in want.items():
        e = edge_scheme(kind)
        assert e.as_tuple() == tuple(one if u else TAU2 for u in pattern)
        assert e.squared(0, 1) == e.ab
        assert e.squared(3, 2) == e.cd
    with pytest.raises(ValueError):
        edge_scheme("T1")


def test_cm_volumes_exact():
    want = [GoldenRational(1, 0, 12)] + [
        tau_pow(k) / 12 for k in (1, 1, 2, 2, 3)]
    for kind, expect in zip(FUNDAMENTALS, want):
        cm = cm_volume(edge_scheme(kind))
        assert cm.is_exact
        assert cm.exact_root == expect
        assert cm.squared == expect * expect
        assert cm.root == pytest.approx(embed(expect), rel=1e-14)
        assert catalog.record(kind).volume == expect


def test_cm_degenerate_rejected():
    from icotile.catalog import EdgeScheme
    one = GoldenRational(1)
    two = GoldenRational(2)
    # a unit square with its diagonals is flat
    flat = EdgeScheme(ab=one, ac=two, ad=one, bc=one, bd=two, cd=one)
    with pytest.raises(ValueError):
        cm_volume(flat)
    with pytest.raises(ValueError):
        EdgeScheme(ab=-one, ac=one, ad=one, bc=one, bd=one, cd=one)


def test_scheme_names_are_the_catalogs():
    import importlib.util

    for name in ("EdgeScheme", "CMVolume", "edge_scheme", "cm_volume"):
        assert hasattr(catalog, name) and not hasattr(geometry, name)
    assert importlib.util.find_spec("icotile.geometry.schemes") is None


def test_cm_volume_matches_sympy_cayley_menger():
    sp = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    from icotile.catalog import EdgeScheme
    t = sp.Symbol("t")  # tau, reduced by t^2 = t + 1
    values = [GoldenRational(1), GoldenRational(2), GoldenRational(3), tau_pow(1), TAU2]
    rng = random.Random(11)
    schemes = [(2,) * 6] + [tuple(rng.randrange(5) for _ in range(6)) for _ in range(40)]
    flat = 0
    for pick in schemes:
        q = [values[i] for i in pick]
        ab, ac, ad, bc, bd, cd = (sp.Rational(x.a, x.den) + sp.Rational(x.b, x.den) * t
                                  for x in q)
        matrix = sp.Matrix([[0, 1, 1, 1, 1], [1, 0, ab, ac, ad], [1, ab, 0, bc, bd],
                            [1, ac, bc, 0, cd], [1, ad, bd, cd, 0]])
        dm = DomainMatrix.from_Matrix(matrix)
        det = dm.domain.to_sympy(dm.det())
        cm = sp.Poly(det / 288, t).rem(sp.Poly(t**2 - t - 1, t))
        if cm.is_zero or cm.as_expr().subs(t, (1 + sp.sqrt(5)) / 2).evalf(50) < 0:
            flat += 1
            with pytest.raises(ValueError, match="degenerate"):
                cm_volume(EdgeScheme(*q))
            continue
        got = cm_volume(EdgeScheme(*q))
        v = got.squared
        assert cm == sp.Poly(sp.Rational(v.a, v.den) + sp.Rational(v.b, v.den) * t, t)
        assert got.root == pytest.approx(math.sqrt(embed(v)), rel=1e-15)
        if got.is_exact:
            assert got.exact_root * got.exact_root == v
    assert 0 < flat < len(schemes)
    # the regular tetrahedron of edge sqrt(3): V^2 = 3/8 is not a square in Q(tau)
    regular = cm_volume(EdgeScheme(*[GoldenRational(3)] * 6))
    assert regular.squared == GoldenRational(3, 0, 8)
    assert not regular.is_exact and regular.exact_root is None
    assert regular.root == pytest.approx(math.sqrt(3 / 8), rel=1e-15)


# ---------------------------------------------------------------------------
# exact placement


def _point_set(points) -> frozenset:
    """Doubled-pair points (k, 3, 2) as a set of hashable tuples."""
    return frozenset(tuple(map(tuple, q)) for q in np.asarray(points).tolist())


def _face(tile, i):
    return np.asarray(tile.exact)[list(tile.faces[i])]


def _squares(tile):
    """The six exact squared edge lengths, label for label."""
    out = []
    for i, j in itertools.combinations(range(4), 2):
        d = np.asarray(tile.exact[i]) - tile.exact[j]
        out.append(GoldenRational(*_gdot(d, d).tolist(), 4))
    return out


def _tau_faces(tile):
    return [i for i in range(4) if face_edge_squares(tile, i) == (TAU2,) * 3]


def _rational(points):
    """Doubled pairs of points with rational doubled coordinates."""
    return np.array([[(x, 0) for x in q] for q in points])


def _triple(v: np.ndarray) -> np.ndarray:
    """geometry._scalar_triple of (..., 4, 3, 2) tetrahedra as (..., 2) int64 pairs."""
    out = [geometry._scalar_triple(t) for t in v.reshape(-1, 4, 3, 2).tolist()]
    return np.array(out, dtype=np.int64).reshape(*v.shape[:-3], 2)


def _free_planes(tets: np.ndarray) -> tuple:
    """Outward-wound faces (T, 4, 3) and geometry._face_planes of free
    (T, 4, 3, 2) tetrahedra, each vertex its own point."""
    ids = np.arange(4 * len(tets)).reshape(-1, 4)
    wound = np.where(_gsign(_triple(tets))[:, None, None] < 0,
                     geometry._WOUND[-1], geometry._WOUND[1])
    faces = ids[:, :1, None] + wound
    return faces, *_face_planes(tets.reshape(-1, 3, 2), faces)


def _overlapping_pairs(tets: np.ndarray) -> list[tuple[int, int]]:
    """geometry._overlaps of free (T, 4, 3, 2) tetrahedra."""
    signs = _free_planes(tets)[-1]
    return _overlaps(tets, np.arange(4 * len(tets)).reshape(-1, 4), signs)


def test_realize_matches_scheme():
    for kind in FUNDAMENTALS:
        t = realize(kind)
        assert _squares(t) == list(edge_scheme(kind).as_tuple())
        assert t.parity == 1
        assert _gsign(_triple(np.asarray(t.exact))) == 1
        assert t.kind.value == kind
        # the kind's first tetrahedron in the dodecahedron wiring
        labels = next(labs for name, labs in _wiring.D1_TETS if name == kind)
        assert _point_set(t.exact) == {_wiring.D1_COORDS[lab] for lab in labels}
        assert np.asarray(t.vertices).tolist() == [
            [embed(GoldenRational(a, b, 2)) for a, b in q] for q in np.asarray(t.exact).tolist()]


def _wound_outward(tile) -> bool:
    """Exact: every face normal points away from the opposite vertex."""
    for f in tile.faces:
        p, q, r = np.asarray(tile.exact)[list(f)]
        (o,) = [np.asarray(tile.exact[i]) for i in range(4) if i not in f]
        normal = _gcross(q - p, r - p)
        if _gsign(_gdot(normal, o - p)) >= 0:
            return False
    return True


def test_parity_derived_from_exact():
    t2 = realize("t2")
    swapped = PlacedTile(kind="t2", exact=np.asarray(t2.exact)[[1, 0, 2, 3]])
    assert (t2.parity, swapped.parity) == (1, -1)
    assert _wound_outward(t2) and _wound_outward(swapped)
    assert swapped.volume() == t2.volume()
    # the swapped copy takes t4 on its unit face like the original does
    placed = glue(swapped, find_face(swapped, (1, 1, 1)), "t4", find_face(realize("t4"), (1, 1, 1)))
    assert _overlapping_pairs(np.stack([swapped.exact, placed.exact])) == []


def test_flat_tile_rejected():
    flat = _rational([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)])
    with pytest.raises(ValueError, match="flat"):
        PlacedTile(kind="t1", exact=flat)
    coords = {lab: tuple(map(tuple, q)) for lab, q in zip("abcd", flat.tolist())}
    with pytest.raises(AssemblyError, match="T2: t1-0: .*flat"):
        geometry._build("T2", coords, [("t1", tuple("abcd"))])


def test_composite_kind_rejected():
    # as one tetrahedron a "T1" would have volume 1/12, not T1's (2+3tau)/6
    with pytest.raises(ValueError, match="T1 is not a fundamental tile"):
        PlacedTile(kind="T1", exact=realize("t1").exact)
    coords, tets, _ = geometry._SOURCES["T2"]
    with pytest.raises(AssemblyError, match="T2: T1-0: T1 is not a fundamental tile"):
        geometry._build("T2", coords, [("T1", tets[0][1])])


def test_realize_volume_matches_cm():
    for kind in FUNDAMENTALS:
        assert realize(kind).volume() == cm_volume(edge_scheme(kind)).exact_root


def test_find_face():
    t = realize("t5")
    fi = find_face(t, (TAU2, TAU2, TAU2))
    assert face_edge_squares(t, fi) == (TAU2,) * 3
    with pytest.raises(ValueError):
        find_face(realize("t1"), (TAU2, TAU2, TAU2))
    with pytest.raises(ValueError):
        find_face(realize("t1"), (1, 1, 1))  # two equilateral faces


# ---------------------------------------------------------------------------
# gluing


def _proper_glues(fixed, fixed_face, kind, moving_face):
    out = []
    for p in face_correspondences(fixed, fixed_face, realize(kind), moving_face):
        try:
            out.append(glue(fixed, fixed_face, kind, moving_face,
                            correspondence=p))
        except GlueError:
            pass
    return out


def test_glue_is_isometric():
    t2 = realize("t2")
    f2 = find_face(t2, (1, 1, 1))
    t4 = realize("t4")
    f4 = find_face(t4, (1, 1, 1))
    placed = glue(t2, f2, t4, f4)
    assert _squares(placed) == _squares(t4)
    # the two faces coincide as point sets, and the tiles only touch
    assert _point_set(_face(t2, f2)) == _point_set(_face(placed, f4))
    assert _overlapping_pairs(np.stack([t2.exact, placed.exact])) == []


def test_glue_t2_t4_unambiguous():
    t2 = realize("t2")
    f2 = find_face(t2, (1, 1, 1))
    f4 = find_face(realize("t4"), (1, 1, 1))
    placed = glue(t2, f2, "t4", f4)
    assert t2.volume() + placed.volume() == catalog.record("T2").volume


def test_glue_congruence_error():
    t3 = realize("t3")
    tau_face = find_face(t3, (TAU2, TAU2, TAU2))
    with pytest.raises(CongruenceError):
        glue(t3, tau_face, "t1", 0)
    t2 = realize("t2")
    eq_face = find_face(t2, (1, 1, 1))
    rob_face = find_face(t2, (1, TAU2, TAU2))
    with pytest.raises(CongruenceError):
        glue(t2, eq_face, "t2", rob_face)
    with pytest.raises(ValueError):
        glue(t2, eq_face, "t4", find_face(realize("t4"), (1, 1, 1)),
             correspondence=(0, 0, 1))


def test_glue_ambiguity_and_handedness():
    t5 = realize("t5")
    f5 = find_face(t5, (TAU2, TAU2, TAU2))
    tau_faces = _tau_faces(realize("t6"))
    assert len(tau_faces) == 2
    with pytest.raises(AmbiguityError):
        glue(t5, f5, "t6", tau_faces[0])
    placements = _proper_glues(t5, f5, "t6", tau_faces[0])
    assert len(placements) == 3
    assert {t.parity for t in placements} == {1}
    # mirror attachments exist only with flip=True
    perms = face_correspondences(t5, f5, realize("t6"), tau_faces[0])
    assert len(perms) == 6
    flipped = 0
    for p in perms:
        try:
            t = glue(t5, f5, "t6", tau_faces[0], flip=True, correspondence=p)
            assert t.parity == -1
            assert _gsign(_triple(np.asarray(t.exact))) == -1
            flipped += 1
        except GlueError:
            pass
    assert flipped == 3


def test_glue_face_index_validated():
    t2 = realize("t2")
    for bad in (7, 4, -1):
        with pytest.raises(ValueError, match="face index"):
            glue(t2, bad, "t2", 0)
        with pytest.raises(ValueError, match="face index"):
            glue(t2, 0, "t2", bad)
        with pytest.raises(ValueError, match="face index"):
            face_correspondences(t2, bad, t2, 0)
        with pytest.raises(ValueError, match="face index"):
            face_correspondences(t2, 0, t2, bad)


def test_glue_outside_frame():
    # congruent right isosceles faces, the fixed one turned by the 3-4-5
    # rotation about x: the apex would land at fifths of a doubled unit
    fixed = PlacedTile(kind="t1", exact=_rational([(0, 0, 0), (10, 0, 0), (0, 6, 8), (0, 0, -10)]))
    moving = PlacedTile(kind="t1", exact=_rational([(0, 0, 0), (10, 0, 0), (0, 10, 0), (0, 0, 2)]))
    assert face_correspondences(fixed, 0, moving, 0) == [(0, 1, 2), (0, 2, 1)]
    with pytest.raises(GlueError, match="half-integer frame"):
        glue(fixed, 0, moving, 0, correspondence=(0, 1, 2))


def test_three_tile_pentagon_census():
    # two t5 and one t6 glue in nine proper ways: six give the shape with
    # two trapezoid walls, two close a planar pentagon, one gives a third
    # shape; none of them overlap in volume
    t5 = realize("t5")
    f5 = find_face(t5, (TAU2, TAU2, TAU2))

    seen, middles = set(), []
    for j in _tau_faces(realize("t6")):
        for b in _proper_glues(t5, f5, "t6", j):
            if _point_set(b.exact) not in seen:
                seen.add(_point_set(b.exact))
                middles.append(b)
    assert len(middles) == 3

    def shape_key(points):
        points = np.array(sorted(points))
        assert len(points) == 6
        d = points[:, None] - points[None]
        return tuple(sorted(map(tuple, _gdot(d, d).reshape(-1, 2).tolist())))

    keys = []
    for b in middles:
        shared = _point_set(_face(t5, f5))
        (other,) = [i for i in _tau_faces(b) if _point_set(_face(b, i)) != shared]
        for c in _proper_glues(b, other, "t5", f5):
            assert _overlapping_pairs(np.stack([t5.exact, b.exact, c.exact])) == []
            keys.append(shape_key(set().union(*(_point_set(t.exact) for t in (t5, b, c)))))

    assert len(keys) == 9
    classes = Counter(keys)
    assert sorted(classes.values()) == [1, 2, 6]
    assert classes[shape_key(_point_set(assemble("T3").mesh.exact))] == 2
    assert classes[shape_key(_point_set(assemble("T3bar").mesh.exact))] == 6


def test_glue_regenerates_wiring():
    # every tile sharing a whole triangle with another is one attachment of
    # its kind onto that face of the other
    def attachments(fixed, face, kind):
        moving = realize(kind)
        for j in range(4):
            for p in face_correspondences(fixed, face, moving, j):
                for flip in (False, True):
                    try:
                        yield _point_set(glue(fixed, face, moving, j, flip=flip,
                                              correspondence=p).exact)
                    except GlueError:
                        pass

    pairs = 0
    for target in ("d1", "i1"):
        for owner, nb in itertools.permutations(assemble(target).tiles, 2):
            shared = _point_set(owner.exact) & _point_set(nb.exact)
            if len(shared) == 3:
                (face,) = [i for i in range(4) if _point_set(_face(owner, i)) == shared]
                assert _point_set(nb.exact) in attachments(owner, face, nb.kind), nb.name
                pairs += 1
    assert pairs == 140


# ---------------------------------------------------------------------------
# assemblies


def test_assembly_counts_and_censuses():
    for target in ("E", "C", "T1", "T2", "T3", "T4", "T3bar"):
        a = assemble(target)
        rec = catalog.record(target)
        assert a.mesh.counts() == (rec.N0, rec.N1, rec.N2)
        assert a.mesh.face_census() == expected_face_census(target)
        tri_census, want = Counter(), Counter()
        for tri in a.boundary_triangles:
            tri_census[tuple(sorted(squared_edges(tri.corners)))] += 1
        for spec in rec.premerge_triangles:
            want[tuple(sorted(e * e for e in spec.edges))] += spec.multiplicity
        assert tri_census == want
        assert a.fundamental_counts() == {
            k: n for k, n in catalog.expand_to_fundamental(
                dict(rec.composition)).items()}


def test_assembly_volumes():
    for target in ("E", "C", "T1", "T2", "T3", "T4", "T3bar", "d1", "i1"):
        a = assemble(target)
        if target == "d1":
            expect = GoldenRational(24, 42, 12)
        elif target == "i1":
            expect = GoldenRational(10, 10, 12)
        else:
            expect = catalog.record(target).volume
        assert a.volume_exact() == expect
        assert a.mesh.volume_exact() == expect
        assert a.mesh.volume_exact() == sum((t.volume() for t in a.tiles), GoldenRational(0))
        assert a.mesh.volume() == pytest.approx(embed(expect), abs=1e-9)
        assert abs(a.mesh.volume() - a.tile_volume_sum()) < 1e-9


def _fuse_coplanar(faces: list, owners: list[str], points) -> tuple[list, list]:
    """The rims of geometry._fuse and their owners: _fuse on its own, without
    a build around it, its collinearity test applied to lone triangles too."""
    points = geometry._points(points)
    fused = geometry._fuse(faces, owners, points, geometry._planes(points, []).scaled)
    for rim, _ in fused:
        geometry._collinear(rim, points)
    return ([rim for rim, _ in fused],
            [{owners[s] for s in slots} for _, slots in fused])


def test_fuse_coplanar_cancels_shared_edges():
    square = _rational([(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (1, 0, 0)])
    key = ("z = 0",)
    # a fan of three triangles: one face from the first triangle's first
    # corner, the collinear corner 4 dropped, owned by all three
    faces = [((1, 2, 3), key), ((1, 3, 4), key), ((4, 3, 0), key), ((0, 1, 3), ("x",))]
    fused, owners = _fuse_coplanar(faces, ["a", "b", "c", "d"], square)
    assert fused == [(1, 2, 3, 0), (0, 1, 3)]
    assert owners == [{"a", "b", "c"}, {"d"}]
    # a fan around an inner corner: the walk starts at the first corner on
    # the rim, whichever corner its first triangle lists first
    star = _rational([(0, 0, 0), (2, 0, 0), (0, 2, 0), (-2, 0, 0), (0, -2, 0)])
    for first in ((0, 1, 2), (1, 2, 0)):
        fan = [first, (0, 2, 3), (0, 3, 4), (0, 4, 1)]
        fused, owners = _fuse_coplanar([(f, key) for f in fan], list("abcd"), star)
        assert (fused, owners) == ([(1, 2, 3, 4)], [set("abcd")])


def test_fuse_coplanar_rejects_disjoint_triangles():
    points = _rational([(0, 0, 0), (2, 0, 0), (0, 2, 0), (4, 0, 0), (6, 0, 0), (4, 2, 0)])
    key = ("z = 0",)
    with pytest.raises(AssemblyError, match="one simple polygon"):
        _fuse_coplanar([((0, 1, 2), key), ((3, 4, 5), key)], ["a", "b"], points)


def test_fuse_coplanar_collinear_corners():
    key = ("z = 0",)
    # two collinear corners in a row on one side of a square are both dropped
    points = _rational([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0), (1, 0, 0), (2, 0, 0)])
    fan = [(3, 0, 4), (3, 4, 5), (3, 5, 1), (3, 1, 2)]
    fused, _ = _fuse_coplanar([(f, key) for f in fan], list("abcd"), points)
    assert fused == [(3, 0, 1, 2)]
    # a cycle whose corners all lie on one line is no polygon
    line = _rational([(0, 0, 0), (2, 0, 0), (4, 0, 0)])
    with pytest.raises(AssemblyError, match="fewer than 3 corners"):
        _fuse_coplanar([((0, 1, 2), key)], ["a"], line)


def _planar(corners):
    """Exact: corners 0-2 span a plane that holds the rest."""
    e = corners[1:] - corners[0]
    normal = _gcross(e[0], e[1])
    return normal.any() and not _gdot(e[2:], normal).any()


def test_dodecahedron_hull():
    a = assemble("d1")
    assert len(a.tiles) == 38
    assert a.mesh.counts() == (20, 30, 12)
    for face in a.mesh.faces:
        assert len(face) == 5
        assert _planar(np.asarray(a.mesh.exact)[list(face)])
        assert squared_edges(np.asarray(a.mesh.exact)[list(face)]) == (1,) * 5
    for rec in dihedrals(a.mesh):
        assert rec.angle_class == "pi-atan2"
        assert abs(rec.angle - (math.pi - ATAN2)) < 1e-9
        assert all(set(rec.edge) <= set(a.mesh.faces[fi]) for fi in rec.faces)
    edges = [rec.edge for rec in dihedrals(a.mesh)]
    assert edges == sorted(edges) and all(i < j for i, j in edges)
    named = {k.value: n for k, n in a.fundamental_counts().items()}
    assert named == {"t1": 3, "t2": 4, "t3": 10, "t4": 10, "t5": 4, "t6": 7}


def test_dodecahedron_groups():
    a = assemble("d1")
    by_kind = Counter(kind for kind, _, _ in a.groups)
    assert by_kind == Counter({"T1": 3, "T2": 4, "T4": 4})
    covered = sorted(i for _, ids, _ in a.groups for i in ids)
    assert covered == list(range(38))
    for kind, ids, region in a.groups:
        assert region in ("cap", "frustum")
        total = sum((catalog.record(a.tiles[i].kind).volume for i in ids),
                    GoldenRational(0))
        assert total == catalog.record(kind).volume


def test_icosahedron_hull():
    a = assemble("i1")
    assert len(a.tiles) == 16
    assert a.mesh.counts() == (12, 30, 20)
    for face in a.mesh.faces:
        assert len(face) == 3
        assert squared_edges(np.asarray(a.mesh.exact)[list(face)]) == (1,) * 3
    assert set(a.mesh.exact) == set(axes._doubled_vertices())
    named = {k.value: n for k, n in a.fundamental_counts().items()}
    assert named == {"t1": 7, "t2": 6, "t5": 2, "t6": 1}


def test_composite_dihedrals():
    angle = {"atan2": ATAN2, "pi-atan2": math.pi - ATAN2}
    seen = Counter()
    for target in ("E", "C", "T1", "T2", "T3", "T3bar", "T4"):
        for rec in dihedrals(assemble(target).mesh):
            assert rec.angle_class in angle, (target, rec)
            assert abs(rec.angle - angle[rec.angle_class]) < 1e-9, (target, rec)
            seen[rec.angle_class] += 1
    assert seen == {"atan2": 28, "pi-atan2": 47}


def test_dihedral_class_neither():
    # the icosahedron's dihedral, arccos(-sqrt(5)/3), is neither class
    for rec in dihedrals(assemble("i1").mesh):
        assert rec.angle_class == "neither"
        assert abs(rec.angle - math.acos(-math.sqrt(5) / 3)) < 1e-9
    # an open edge has no angle and no class
    tri = geometry.Mesh(exact=_rational([(0, 0, 0), (2, 0, 0), (0, 2, 0)]), faces=((0, 1, 2),),
                        provenance=((),))
    assert {(d.angle, d.angle_class) for d in dihedrals(tri)} == {(None, None)}


def _dihedrals_reference(mesh):
    """dihedrals as it ran edge by edge, each face's |n|^2 and its float
    computed anew on every edge it holds: the reference."""
    tau = embed(geometry.TAU)
    out = []
    for edge, fs in mesh.edge_faces:
        if len(fs) != 2:
            out.append(geometry.Dihedral(edge, fs, None, None))
            continue
        n1, n2 = (mesh.normals[f] for f in fs)
        dot, q1, q2 = geometry._dot(n1, n2), geometry._dot(n1, n1), geometry._dot(n2, n2)
        (da, db), (pa, pb), (qa, qb) = dot, q1, q2
        angle_class = "neither"
        if geometry._mul((5 * da, 5 * db), dot) == geometry._mul(q1, q2):
            angle_class = "pi-atan2" if GoldenRational(da, db).sign() > 0 else "atan2"
        cos = (da + db * tau) / math.sqrt((pa + pb * tau) * (qa + qb * tau))
        out.append(geometry.Dihedral(edge, fs, math.pi - math.acos(min(max(cos, -1.0), 1.0)),
                                     angle_class))
    return out


def test_dihedrals_match_per_edge_reference():
    # float for float: each face's norm is computed once, the arithmetic unchanged
    meshes = [assemble(t).mesh for t in catalog.ASSEMBLY_TARGETS]
    # an open mesh: two triangles hinged on one edge, and a lone square
    hinge = _rational([(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 3), (4, 4, 0), (6, 4, 0),
                       (6, 6, 0), (4, 6, 0)])
    meshes.append(geometry.Mesh(exact=hinge, faces=((0, 1, 2), (1, 0, 3), (4, 5, 6, 7)),
                                provenance=((),) * 3))
    # two hinges whose normals have one dot product, -8, but squared norms 16
    # and 40 against 4 and 20: their angles differ, so a key on n1.n2 alone
    # would give the second hinge the first one's angle
    hinges = _rational([(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 3),
                        (10, 0, 0), (11, 0, 0), (10, 2, 0), (11, 4, 2)])
    meshes.append(geometry.Mesh(exact=hinges, faces=((0, 1, 2), (1, 0, 3), (4, 5, 6), (5, 4, 7)),
                                provenance=((),) * 4))
    for mesh in meshes:
        got, want = dihedrals(mesh), _dihedrals_reference(mesh)
        assert [(d.edge, d.faces, d.angle_class) for d in got] == [
            (d.edge, d.faces, d.angle_class) for d in want]
        assert [d.angle for d in got] == [d.angle for d in want]
        # dihedrals sets its records as a build does: field for field what
        # the constructor gives
        for d in got:
            public = geometry.Dihedral(d.edge, d.faces, d.angle, d.angle_class)
            assert type(d) is geometry.Dihedral and vars(d) == vars(public)
            assert d == public and hash(d) == hash(public)
    assert sum(d.angle is None for d in dihedrals(meshes[-2])) == 8
    normals = meshes[-1].normals
    assert geometry._dot(*normals[:2]) == geometry._dot(*normals[2:]) == (-8, 0)
    closed = [d.angle for d in dihedrals(meshes[-1]) if d.angle is not None]
    assert len(closed) == 2 and closed[0] != closed[1]


def _per_face_mesh_reference(mesh):
    """edge_faces and normals as a Mesh derived them face by face: an
    incidence double loop, and per face the Newell sum of p x roll(p, -1)."""
    incident = {}
    for fi, f in enumerate(mesh.faces):
        for i in range(len(f)):
            incident.setdefault((min(f[i - 1], f[i]), max(f[i - 1], f[i])), []).append(fi)
    normals = [_gcross(p, np.roll(p, -1, axis=0)).sum(axis=0)
               for p in (np.asarray(mesh.exact)[list(f)] for f in mesh.faces)]
    return tuple((e, tuple(incident[e])) for e in sorted(incident)), np.array(normals)


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_mesh_edge_walk_matches_per_face_reference(target):
    mesh = assemble(target).mesh
    edge_faces, normals = _per_face_mesh_reference(mesh)
    assert mesh.edge_faces == edge_faces
    got = np.asarray(mesh.normals)
    assert got.dtype == np.int64 and got.shape == normals.shape
    assert (got == normals).all()


def test_mesh_fan_normals_match_edge_walk():
    # Newell's edge walk is the reference for the fan the Mesh sums: on the
    # fused square of test_fuse_coplanar_collinear_corners, with and without
    # its collinear corners, a non-convex pentagon and a skew quadrilateral
    square = _rational([(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0), (1, 0, 0), (2, 0, 0)])
    other = _rational([(0, 0, 0), (4, 0, 0), (4, 4, 0), (2, 1, 0), (0, 4, 0), (2, 2, 6)])
    for points, face in ((square, (3, 0, 1, 2)), (square, (3, 0, 4, 5, 1, 2)),
                         (other, (0, 1, 2, 3, 4)), (other, (0, 1, 5, 4))):
        mesh = geometry.Mesh(exact=points, faces=(face,), provenance=((),))
        assert (np.asarray(mesh.normals) == _per_face_mesh_reference(mesh)[1]).all()
        assert any(map(any, mesh.normals[0]))


def test_pentagon_face_of_t3():
    a = assemble("T3")
    pent = [i for i, f in enumerate(a.mesh.faces) if len(f) == 5]
    assert len(pent) == 1
    corners = np.asarray(a.mesh.exact)[list(a.mesh.faces[pent[0]])]
    assert _planar(corners)
    assert squared_edges(corners) == (1,) * 5
    bar = assemble("T3bar")
    quads = [i for i, f in enumerate(bar.mesh.faces) if len(f) == 4]
    assert len(quads) == 2
    assert assemble("T3").volume_exact() == bar.volume_exact()


def test_exact_sign_matches_golden_rational():
    r = range(-40, 41)
    pairs = np.array([[(a, b) for b in r] for a in r])
    want = [[GoldenRational(a, b).sign() for b in r] for a in r]
    assert _gsign(pairs).tolist() == want


def _tets_overlap(v1: np.ndarray, v2: np.ndarray, tol: float) -> bool:
    """True if the interiors intersect: separating axis test on the 4 + 4
    face normals and the 36 edge-edge cross products at once.

    The float reference for the exact geometry._overlaps."""
    e1, e2 = (v[[1, 2, 3, 2, 3, 3]] - v[[0, 0, 0, 1, 1, 2]] for v in (v1, v2))
    axes = np.concatenate([np.cross(e1[[0, 0, 1, 3]], e1[[1, 2, 2, 4]]),
                           np.cross(e2[[0, 0, 1, 3]], e2[[1, 2, 2, 4]]),
                           np.cross(e1[:, None], e2[None]).reshape(36, 3)])
    n = np.linalg.norm(axes, axis=1)
    axes = axes[n >= 1e-12] / n[n >= 1e-12, None]
    p1, p2 = v1 @ axes.T, v2 @ axes.T
    return not (np.minimum(p1.max(0) - p2.min(0), p2.max(0) - p1.min(0)) <= tol).any()


def _moved_in_x(triple, move):
    (a, b), *rest = triple
    da, db = move  # doubled pairs: +1 in a is +1/2 in x, +1 in b is +tau/2
    return (a + da, b + db), *rest


def _float_overlaps(tets: np.ndarray) -> list[tuple[int, int]]:
    """The pairs _tets_overlap finds among (T, 4, 3, 2) doubled-pair tetrahedra."""
    flt = np.array([[[embed(GoldenRational(a, b, 2)) for a, b in q] for q in t]
                    for t in tets.tolist()])
    return [(a, b) for a, b in itertools.combinations(range(len(flt)), 2)
            if _tets_overlap(flt[a], flt[b], 1e-9)]


@pytest.mark.parametrize("wiring, moved, move, n_pairs", [
    ("d1", None, (0, 0), 0), ("d1", "B", (1, 0), 12), ("d1", "v0", (1, 0), 6),
    ("i1", None, (0, 0), 0), ("i1", "i0", (1, 0), 0), ("i1", "i3", (-2, 0), 4),
    ("d1", "B", (0, 1), 12), ("i1", "i3", (0, 1), 3), ("i1", "i3", (0, -1), 4),
], ids=["None-0", "B-12", "v0-6", "i1-None-0", "i1-i0-0", "i1-i3-4",
        "B-tau-12", "i1-i3-tau-3", "i1-i3-minus-tau-4"])
def test_exact_overlap_matches_float_reference(wiring, moved, move, n_pairs):
    coords, tets, _ = geometry._SOURCES[wiring]
    coords = dict(coords)
    if moved:
        coords[moved] = _moved_in_x(coords[moved], move)
    labels = list(coords)
    exact = np.array([coords[lab] for lab in labels])
    ids = np.array([[labels.index(lab) for lab in labs] for _, labs in tets])
    got = _overlapping_pairs(exact[ids])
    assert got == sorted(got)
    assert got == _float_overlaps(exact[ids])
    assert len(got) == n_pairs
    if n_pairs:
        with pytest.raises(AssemblyError, match="overlap"):
            geometry._build(wiring, coords, tets)


def test_exact_overlap_contacts_and_zero_normals():
    # T0 and its mirror images through x = 0, then y = 0, then the origin
    # share a face, an edge and a vertex with it; two tetrahedra whose edges
    # cross at one point are apart only on the edge-edge axis
    t0 = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    mirrors = [[(sx * x, sy * y, sz * z) for x, y, z in t0]
               for sx, sy, sz in ((-1, 1, 1), (-1, -1, 1), (-1, -1, -1))]
    crossed = ([(-2, 0, 0), (2, 0, 0), (0, 2, -2), (0, -2, -2)],
               [(0, -2, 0), (0, 2, 0), (2, 0, 2), (-2, 0, 2)])
    for pair in [(t0, m) for m in mirrors] + [crossed]:
        tets = np.stack([_rational(t) for t in pair])
        assert _overlapping_pairs(tets) == _float_overlaps(tets) == []
    # a flat tetrahedron with three collinear vertices has a zero face
    # normal, which separates nothing: inside T0 it overlaps, beside it not
    big = [(0, 0, 0), (8, 0, 0), (0, 8, 0), (0, 0, 8)]
    flat = [(1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1)]
    beside = [(x + 20, y, z) for x, y, z in flat]
    tets = np.stack([_rational(t) for t in (big, flat, beside)])
    assert _overlapping_pairs(tets) == _float_overlaps(tets) == [(0, 1)]


def _triple_reference(v: np.ndarray) -> np.ndarray:
    """Triple product (b-a).((c-a)x(d-a)) of (..., 4, 3, 2) tetrahedra on the
    numpy kernel: the reference for the scalar geometry._scalar_triple."""
    e = v[..., 1:, :, :] - v[..., :1, :, :]
    return _gdot(e[..., 0, :, :], _gcross(e[..., 1, :, :], e[..., 2, :, :]))


def test_scalar_parity_matches_kernel_reference():
    for target in catalog.ASSEMBLY_TARGETS:
        tiles = assemble(target).tiles
        ref = _gsign(_triple_reference(np.stack([t.exact for t in tiles])))
        assert [t.parity for t in tiles] == ref.tolist()
        assert [t.volume() for t in tiles] == [catalog.record(t.kind).volume for t in tiles]
    # every single-vertex move by +-1/2, +-1, 3/2 or +-tau/2 along each axis
    moves, flat = 0, 0
    wirings = ((_wiring.D1_COORDS, _wiring.D1_TETS), (_wiring.I1_COORDS, _wiring.I1_TETS))
    for coords, tets in wirings:
        labels = list(coords)
        ids = np.array([[labels.index(lab) for lab in labs] for _, labs in tets])
        for k, axis, move in itertools.product(range(len(labels)), range(3),
                                               ((1, 0), (-1, 0), (2, 0), (-2, 0), (3, 0),
                                                (0, 1), (0, -1))):
            exact = np.array(list(coords.values()))
            exact[k, axis] += move
            v = exact[ids]
            ref = _triple_reference(v)
            assert _triple(v).tolist() == ref.tolist()
            touched = (ids == k).any(axis=1)  # the tetrahedra the move changes
            for tet, sign in zip(v[touched], _gsign(ref[touched]).tolist()):
                if sign:
                    assert PlacedTile(kind="t1", exact=tet).parity == sign
                else:
                    flat += 1
                    with pytest.raises(ValueError, match="flat"):
                        PlacedTile(kind="t1", exact=tet)
            moves += 1
    assert (moves, flat) == (735, 176)


def test_scalar_parity_at_tile_bound():
    # entries at +-2**7, where the int64 kernel's _gsign is still exact
    rng = random.Random(7)
    half = [[(rng.randint(-2**7, 2**7), rng.randint(-2**7, 2**7)) for _ in range(3)]
            for _ in range(4)]
    half[0][0], half[1][1], half[2][2] = (2**7, -2**7), (-2**7, 2**7), (2**7, 2**7)
    tile = PlacedTile(kind="t3", exact=np.array(half))
    p = [[GoldenRational(a, b, 2) for a, b in q] for q in half]
    x, y, z = ([q[i] - p[0][i] for i in range(3)] for q in p[1:])
    triple = (x[0] * (y[1] * z[2] - y[2] * z[1]) + x[1] * (y[2] * z[0] - y[0] * z[2])
              + x[2] * (y[0] * z[1] - y[1] * z[0]))
    assert triple != 0
    assert tile.parity == triple.sign()
    assert tile.volume() == abs(triple) / 6
    assert tile.parity == int(_gsign(_triple_reference(np.asarray(tile.exact))))


def test_exact_points_match_floats():
    for target, coords in (("d1", _wiring.D1_COORDS), ("i1", _wiring.I1_COORDS)):
        a = assemble(target)
        want = [[embed(GoldenRational(x, y, 2)) for x, y in p]
                for p in np.asarray(a.mesh.exact).tolist()]
        assert np.asarray(a.mesh.vertices).tolist() == want
        wiring = {tuple(embed(GoldenRational(x, y, 2)) for x, y in p) for p in coords.values()}
        assert all(tuple(v) in wiring for t in a.tiles for v in np.asarray(t.vertices).tolist())


# ---------------------------------------------------------------------------
# symmetry axes


def _face_normal_to(n):
    """Doubled corners 0, u, n x u of a triangle normal to the integer n."""
    u = (n[1], -n[0], 0)
    w = np.cross(n, u)
    return np.array([[(0, 0)] * 3, [(2 * x, 0) for x in u], [(2 * x, 0) for x in w]])


# corners 0, (1, 0, 0), (0, tau, -1): normal (0, 1, tau)
FIVE = np.array([[(0, 0)] * 3, [(2, 0), (0, 0), (0, 0)], [(0, 0), (0, 2), (-2, 0)]])


def test_canonical_frame():
    assert [len(a) for a in axes._axes().values()] == [6, 10, 15]
    assert list(axes._axes()) == ["five-fold", "three-fold", "two-fold"]
    assert axis_classes([FIVE])[0] == "five-fold"
    assert axis_classes([_face_normal_to((1, 1, 1))])[0] == "three-fold"
    assert axis_classes([_face_normal_to((1, 0, 0))])[0] == "two-fold"
    assert axis_classes([_face_normal_to((1, 2, 3))])[0] == "none"


def _one_per_pair_reference(dirs):
    """_one_per_pair as a loop: keep each direction that no kept one negates."""
    kept = []
    for v in dirs:
        if not any((v == -k).all() for k in kept):
            kept.append(v)
    return np.array(kept)


def test_one_per_pair_matches_loop_reference():
    # the twelve vertices are six +- pairs; shuffled and with random signs,
    # the pairs come in every order and sign
    verts = list(np.asarray(axes._doubled_vertices()))
    rng = random.Random(5)
    for _ in range(20):
        dirs = [rng.choice((1, -1)) * v for v in rng.sample(verts, len(verts))]
        got = np.asarray(axes._one_per_pair(dirs))
        assert got.tolist() == _one_per_pair_reference(dirs).tolist()


def test_axis_classes_one_stack():
    collinear = np.array([[(0, 0)] * 3, [(2, 0), (0, 0), (0, 0)], [(4, 0), (0, 0), (0, 0)]])
    stack = np.stack([FIVE, _face_normal_to((1, 1, 1)), _face_normal_to((1, 0, 0)),
                      _face_normal_to((1, 2, 3)), collinear])
    want = ["five-fold", "three-fold", "two-fold", "none", "none"]
    assert axis_classes(stack) == want
    assert [axis_classes([face])[0] for face in stack] == want
    # a translation of any face keeps the whole stack's answer, at any size
    for k in range(len(stack)):
        for sign in (1, -1):
            at = stack.copy()
            at[k] = sign * _shifted(at[k], 2**27)
            assert axis_classes(at) == want
            at[k] = sign * _shifted(stack[k], 2**27 + 1)
            assert axis_classes(at) == want


def _shifted(points, top):
    """points moved in the rational part of x so their largest entry is top."""
    out = np.array(points)
    out[..., 0, 0] += top - out[..., 0, 0].max()
    return out


def test_magnitude_guards():
    # scaled by 2**31, FIVE's normal wrapped to zero in an int64 kernel
    # ("none") and its squared edges to 0; on Python ints both stay exact
    assert axis_classes([FIVE * 2**31])[0] == "five-fold"
    assert squared_edges(FIVE * 2**31) == tuple(x * 2**62 for x in squared_edges(FIVE))
    # a translation keeps the answer: at the old int64 bounds and past them
    assert axis_classes([_shifted(FIVE, 2**27)])[0] == "five-fold"
    assert axis_classes([-_shifted(FIVE, 2**27)])[0] == "five-fold"
    assert axis_classes([_shifted(FIVE, 2**27 + 1)])[0] == "five-fold"
    assert axis_classes([-_shifted(FIVE, 2**27 + 1)])[0] == "five-fold"
    assert squared_edges(_shifted(FIVE, 2**28)) == squared_edges(FIVE)
    assert squared_edges(_shifted(FIVE, 2**28 + 1)) == squared_edges(FIVE)
    t2 = realize("t2")
    assert PlacedTile(kind="t2", exact=_shifted(t2.exact, 2**7)).volume() == t2.volume()
    shifted = PlacedTile(kind="t2", exact=_shifted(t2.exact, 2**7 + 1))
    assert (shifted.parity, shifted.volume()) == (t2.parity, t2.volume())
    scaled = PlacedTile(kind="t2", exact=np.asarray(t2.exact) * 2**31)
    assert (scaled.parity, scaled.volume()) == (t2.parity, t2.volume() * 2**93)
    # a glue onto a shifted tile whose apex lands past the old bound is the
    # unshifted glue, shifted
    edge = np.asarray(t2.exact).copy()
    edge[:, 1, 0] += 2**7 - edge[:, 1, 0].max()
    glued = glue(PlacedTile(kind="t2", exact=edge), 2, "t1", 2, correspondence=(0, 2, 1))
    plain = glue(t2, 2, "t1", 2, correspondence=(0, 2, 1))
    assert (np.asarray(glued.exact) - np.asarray(plain.exact) == edge[0] - t2.exact[0]).all()
    assert (glued.parity, glued.volume()) == (plain.parity, plain.volume())


def test_mesh_magnitude_guard():
    d1 = assemble("d1").mesh
    # at the bound the classes and the volume scale; scaled by 2**16,
    # dihedrals() used to report every edge as atan2 with a NaN angle
    big = geometry.Mesh(exact=np.asarray(d1.exact) * 2**3, faces=d1.faces,
                        provenance=d1.provenance)
    assert {rec.angle_class for rec in dihedrals(big)} == {"pi-atan2"}
    assert big.volume_exact() == d1.volume_exact() * 2**9
    # past the old int64 bound the classes and the volume stay exact
    for exact, scale in ((np.asarray(d1.exact) * 2**16, 2**48),
                         (_shifted(d1.exact, 2**3 + 1), 1)):
        mesh = geometry.Mesh(exact=exact, faces=d1.faces, provenance=d1.provenance)
        assert {rec.angle_class for rec in dihedrals(mesh)} == {"pi-atan2"}
        assert mesh.volume_exact() == d1.volume_exact() * scale
    ring = np.zeros((17, 3, 2), dtype=np.int64)
    geometry.Mesh(exact=ring, faces=(tuple(range(16)),), provenance=((),))
    wide = geometry.Mesh(exact=ring, faces=(tuple(range(17)),), provenance=((),))
    assert wide.counts() == (17, 17, 1) and wide.normals == (((0, 0),) * 3,)


def test_build_magnitude_guard():
    # a build's slot width follows the largest coordinate of its tiles'
    # points; a point no tile uses is not packed
    coords, tets, _ = geometry._SOURCES["T2"]
    scaled = {lab: tuple((8 * a, 8 * b) for a, b in q) for lab, q in coords.items()}
    assert (geometry._build("T2", scaled, tets).mesh.volume_exact()
            == assemble("T2").volume_exact() * 2**9)
    unused = min(set(coords) - {lab for _, labs in tets for lab in labs})
    scaled[unused] = ((9, 0), *scaled[unused][1:])
    assert (geometry._build("T2", scaled, tets).mesh.volume_exact()
            == assemble("T2").volume_exact() * 2**9)


def test_triangle_family():
    one, t = GoldenRational(1), tau_pow(1)
    assert triangle_family((one, one, one)) == "equilateral"
    assert triangle_family((t * t, t * t, t * t)) == "equilateral"
    assert triangle_family((one, one, t * t)) == "robinson"
    assert triangle_family((one, t * t, t * t)) == "robinson"
    assert triangle_family((one, one, GoldenRational(144, 0, 100))) == "other"
    assert triangle_family((one, one, t)) == "other"


def test_triangle_family_agrees_with_catalog_axis_class():
    expect = {"equilateral": "three-fold", "robinson": "five-fold", "other": "none"}
    n = 0
    for rec in catalog.all_records():
        for spec in rec.faces + rec.premerge_triangles:
            if spec.shape == "triangle":
                assert expect[triangle_family([e * e for e in spec.edges])] == spec.axis_class
                n += 1
    assert n > 0


def test_hull_faces_on_axes():
    i1 = assemble("i1")
    for i in range(20):
        assert axis_classes([np.asarray(i1.mesh.exact)[list(i1.mesh.faces[i])]])[0] == "three-fold"
    d1 = assemble("d1")
    for i in range(12):
        assert axis_classes([np.asarray(d1.mesh.exact)[list(d1.mesh.faces[i])]])[0] == "five-fold"


def test_internal_walls_on_axes():
    expect = {"equilateral": "three-fold", "robinson": "five-fold"}
    total = 0
    for target in ("d1", "i1"):
        for wall in assemble(target).walls:
            family = triangle_family(squared_edges(wall.corners))
            assert family in expect, (target, wall.owner)
            got = axis_classes([wall.corners])[0]
            assert got == expect[family], (target, wall.owner)
            total += 1
    assert total == 160


# ---------------------------------------------------------------------------
# export


def test_export_obj():
    a = assemble("T2")
    text = export_obj(a)
    lines = text.splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    o_lines = [l for l in lines if l.startswith("o ")]
    assert len(v_lines) == 4 * len(a.tiles)
    assert len(f_lines) == 4 * len(a.tiles)
    assert len(o_lines) == len(a.tiles)
    assert o_lines[0] == "o t2-0"
    for l in v_lines:
        parts = l.split()
        assert len(parts) == 4
        float(parts[1]), float(parts[2]), float(parts[3])
    for l in f_lines:
        idx = [int(x) for x in l.split()[1:]]
        assert len(idx) == 3
        assert all(1 <= i <= len(v_lines) for i in idx)


def test_export_patch():
    a = assemble("i1")
    patch = export_patch(a)
    assert patch["frame"] == "icosa-half-integer"
    assert patch["target"] == "i1"
    assert len(patch["tiles"]) == 16
    for tile in patch["tiles"]:
        assert tile["parity"] in (-1, 1)
        assert len(tile["vertices"]) == 4
        assert catalog.TileKind(tile["kind"]).is_fundamental
    hull = patch["hull"]
    assert len(hull["vertices"]) == 12
    assert len(hull["faces"]) == 20


# sha256 of canonical_json(export_patch(a)) + "\n" and of export_obj(a):
# hull face order, start corners and provenance, tile names, parities and
# floats, byte for byte
EXPORT_SHA256 = {
    "d1": ("c71551eccb22104337e97ab679b676d76dbc1409b8706b2f04d71724a8a46976",
           "d4e7fadb24d997cbedeb27316b0cf18e60d2e55235a381d60753e798bec10c3b"),
    "i1": ("2bca913bd6729bc9cac5d5238b8f1137360e9509e05740408678827eb7b81f48",
           "05d633770170023faedb8378ffb46bc0885a8d3e0f3d3563550d6fc85ba2d00f"),
    "E": ("0918cdf38b9aa2c3090a54e033ba365ad70182424218484e3e91dcdb79b1df90",
          "7d2f9ea0fd4e73b6de46189c460e3c3fb8dbfc5db2942881fc534d9479b1f0f9"),
    "C": ("355e07876798ece474e071b1ddfea58ec30d438600a27823e4dd0476581d61c7",
          "20c8a439cc5713b4427694cc0cba56a3b4a0fa6e6688e58aab2b2e0fdcff3436"),
    "T1": ("db04bc39b46398b9ef90508ea62fc20e3d120340fbbfa144942c6d5f08c18ecd",
           "234903eda640c7d598cf46ad55ee01a21ac6a5b298906c7da586949761f55f52"),
    "T2": ("db0a7460768a02791c61534670c885fcfdc195456ea3e533435d58e2c54964cd",
           "e1ed1353677eff1941d0b00593fa824fd65036ba196616abd04d0380e63a25db"),
    "T3": ("fa288cb89ee3b12cdd1ee48b2883524a5a49eae18142213a8f429609f507e043",
           "c6813a413ad137c2208341d6dfddcc1028359e62956d8cbd96ce733bababe319"),
    "T3bar": ("fab4ae6e05e0db388ea893f8c8d3d11a1bd22c88bc4a6c03458958592d58d226",
              "5be4f66c0e2d12ed5dc6bfb451566a470b388d527b959a26b8cb358dfd2e19ba"),
    "T4": ("4b294b454ac4b5e604b0ca5537284e3614d3a8dda21ad8fe2dfe331918cd18c8",
           "fe8e64f038e57fcbffe1365b5aab45ca5a05692a4df07ee3a759b438e24ccc4e"),
}


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_exports_pinned(target):
    a = assemble(target)
    patch = canonical_json(export_patch(a)) + "\n"
    got = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest()
                for text in (patch, export_obj(a)))
    assert got == EXPORT_SHA256[target]


# sha256 of one "owner corners" line per face (corners as exact doubled
# pairs), for the walls and for the boundary triangles: owner order and
# corner winding byte for byte; the axis-classes check reads the walls
FACES_SHA256 = {
    "d1": ("891941946941bfcdedad30107af8806c0f817808b02d2b4854e43c5d399e644b",
           "ddbe41292aceef82afd12d297db98a7ed7800ca5cf459cf0b065a4d665c84240"),
    "i1": ("9ac33b714ece22514e6100efdec92647c570dd625b29dfaf90f69d9d14f60098",
           "e4b490da13ab791968c3472cc2359b2edcd20161b0f88d1d9cf7b3d33336333e"),
    "E": ("b63da94928fae2231e72578fe2c4d17a56e0bd712f68b2b0c544eb339dc587bb",
          "ab1027311fdf4ae0c6bca6d3a5d1a6d6fcfcb24662486ba586ea1329415977cd"),
    "C": ("472c0122298b9e7ab690174b6860cc4029c6728780b598082c16cfca8923562c",
          "0d63446d686c5d9f15a3670634667e4331a9f19c9297f548d9f4e57b6c4b7a89"),
    "T1": ("a494172fa521d2aff69a191a1f50d0382d85ce994b431863f6e87a75bcb9f53b",
           "a5a3293929c5298ba5b825a1187e3aa6dcea928ec85513adbb6d0207171f3905"),
    "T2": ("03b3e8c666b0d65a9d93814f059b424c9ec8980b1420834faad4192b76f554df",
           "b949acb08b9f8ea0a31459bfa1bee8f7a49dda960cd40090cf96946a032e3d4e"),
    "T3": ("2bb37b32476b530e5e55fb7bbcc43da6909f1a5a29abaaa6848d2ed83551ea76",
           "efa62784ae033af9adea4ca7e9436b6c2f36fca28e02bf6787245c25a7d91f02"),
    "T3bar": ("2bb37b32476b530e5e55fb7bbcc43da6909f1a5a29abaaa6848d2ed83551ea76",
              "7dd12b3e77a7dd4a3bb668ba88aac92d841681dd19a8e370cd0472a1f8e4c86c"),
    "T4": ("b849df00b6d11a00b08a64660cfb233250befb32e87bd62d23a0fa2406242d39",
           "a4259fd797dec1e961c68e8ee0f3e27a8b02758b9ba4945f974750980809554c"),
}


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_walls_and_boundary_pinned(target):
    a = assemble(target)
    got = tuple(hashlib.sha256("".join(f"{f.owner} {np.asarray(f.corners).tolist()}\n"
                                       for f in faces)
                               .encode("utf-8")).hexdigest()
                for faces in (a.walls, a.boundary_triangles))
    assert got == FACES_SHA256[target]


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_build_records_match_public_constructors(target):
    # a build sets its records from facts it has decided; the public
    # constructors derive the same from the same inputs
    a = geometry._build(target, *geometry._SOURCES[target])
    for t in a.tiles:  # kind, exact, name and parity
        assert vars(t) == vars(PlacedTile(t.kind, t.exact, t.name))
    mesh = a.mesh
    public = geometry.Mesh(mesh.exact, mesh.faces, mesh.provenance)
    assert vars(mesh) == vars(public)  # normals and edge_faces too
    # walls are built on first read, from the build's face table, and kept
    export_obj(a)
    canonical_json(export_patch(a))
    dihedrals(mesh)
    assert "walls" not in vars(a) and "boundary_triangles" not in vars(a)
    assert a.walls is a.walls and a.boundary_triangles is a.boundary_triangles
    walls = [(f.owner, f.corners) for f in a.walls]
    moved = a._replace(tiles=a.tiles[::-1], mesh=public)
    assert [(f.owner, f.corners) for f in moved.walls] == walls


def _walls_reference(a) -> np.ndarray:
    """Whether each face (T, 4) of the assembly's tiles is a wall, by the
    all-faces coverage test: its centroid pushed outward by an infinitesimal
    eps lies in some closed tile, decided per face plane of that tile at the
    face's corners (their table entries summed where they straddle it, and
    on the plane by the face normal's side).  The reference for the build,
    which decides faces shared whole by index and tests only the rest."""
    faces, normals, planes, signs = _free_planes(np.stack([t.exact for t in a.tiles]))
    corner_signs = signs[:, :, faces]
    hi, lo = corner_signs.max(axis=4), corner_signs.min(axis=4)
    side = np.where(lo < 0, lo, hi)
    across = np.nonzero((hi > 0) & (lo < 0))
    side[across] = _gsign(planes[(*across[:2], faces[across[2:]].T)].sum(axis=0))
    on = np.nonzero(side == 0)
    side[on] = _gsign(_gdot(normals[on[:2]], normals[on[2:]]))
    return (side <= 0).all(axis=1).any(axis=0)


# walls whose three corners are a face of another tile, of all walls: the
# other 20 walls of d1 are covered by parts of faces triangulated differently
WALLS_BY_INDEX = {"d1": (96, 116), "i1": (44, 44), "E": (4, 4), "C": (4, 4), "T1": (12, 12),
                  "T2": (2, 2), "T3": (4, 4), "T3bar": (4, 4), "T4": (4, 4)}

# d1 less each of its 38 tiles, i1 less each of its 16 and d1 less each of
# its 11 composite groups, as (wiring, indices of the tiles left out)
SUBLISTS = {**{f"{w}-less-{k}": (w, (k,)) for w, n in (("d1", 38), ("i1", 16)) for k in range(n)},
            **{f"d1-less-group-{g}": ("d1", ids)
               for g, (_, ids, _) in enumerate(_wiring.D1_GROUPS)}}
# the refusals of a list that packs but whose hull the build cannot give: on a
# plane whose walls the centroid rule decided, their directed edges do not
# cancel (a face partly covered); or a plane's boundary triangles are not one
# simple polygon (in d1 less tile 0, two triangles that meet at one corner)
REFUSALS = {"close": "the walls in the plane of a face of {} do not close",
            "fuse": "the boundary triangles in the plane of a face of {} do not fuse into one "
                    "simple polygon"}
# the refused sub-lists, with their refusal and the tile it names
REFUSED = {"d1-less-0": ("fuse", "t3-0"), "d1-less-1": ("fuse", "t3-2"),
           "d1-less-2": ("fuse", "t1-0"), "d1-less-3": ("fuse", "t3-2"),
           "d1-less-4": ("close", "t3-1"), "d1-less-6": ("fuse", "t3-0"),
           "d1-less-9": ("close", "t4-2"), "d1-less-11": ("close", "t4-2"),
           "d1-less-12": ("close", "t4-2"), "d1-less-13": ("fuse", "t1-1"),
           "d1-less-14": ("fuse", "t3-7"), "d1-less-15": ("close", "t4-7"),
           "d1-less-17": ("close", "t3-4"), "d1-less-19": ("close", "t2-3"),
           "d1-less-22": ("close", "t2-3"), "d1-less-23": ("close", "t2-3"),
           "d1-less-25": ("close", "t3-6"), "d1-less-28": ("close", "t2-3"),
           "d1-less-30": ("close", "t4-6"), "d1-less-31": ("close", "t4-6"),
           "d1-less-33": ("close", "t2-3"), "d1-less-34": ("close", "t2-3"),
           "d1-less-36": ("close", "t4-9"), "d1-less-37": ("close", "t4-9"),
           "d1-less-group-0": ("fuse", "t3-0"), "d1-less-group-1": ("fuse", "t1-0"),
           "d1-less-group-4": ("fuse", "t1-1"), "d1-less-group-5": ("close", "t4-6"),
           "d1-less-group-9": ("close", "t2-3")}


@pytest.mark.parametrize("target", [*catalog.ASSEMBLY_TARGETS, *SUBLISTS])
def test_walls_match_all_faces_reference(target):
    # the nine targets, and sub-lists of d1 and i1, most of which take the
    # pairwise path, with many planes of faces wound both ways
    wiring, left_out = SUBLISTS.get(target, (target, ()))
    coords, tets, _ = geometry._SOURCES[wiring]
    tets = [t for k, t in enumerate(tets) if k not in left_out]
    if target in REFUSED:
        refusal, tile = REFUSED[target]
        with pytest.raises(AssemblyError) as exc:
            geometry._build(wiring, coords, tets)
        assert str(exc.value) == f"{wiring}: " + REFUSALS[refusal].format(tile)
        return
    a = geometry._build(wiring, coords, tets)
    split = ([], [])
    for (u, g), wall in np.ndenumerate(_walls_reference(a)):
        tile = a.tiles[u]
        split[not wall].append((tile.name, np.asarray(tile.exact)[list(tile.faces[g])].tolist()))
    assert split == tuple([(f.owner, np.asarray(f.corners).tolist()) for f in faces]
                          for faces in (a.walls, a.boundary_triangles))
    faces = Counter(_point_set(c) for _, c in split[0] + split[1])
    assert all(faces[_point_set(c)] == 1 for _, c in split[1])
    by_index = sum(faces[_point_set(c)] == 2 for _, c in split[0])
    if target in WALLS_BY_INDEX:
        assert (by_index, len(split[0])) == WALLS_BY_INDEX[target]


def test_two_phase_planes_match_one_pass(monkeypatch):
    # _decide sets the lone faces' planes and _build the rest: the table the
    # pairwise test reads is that of one _planes pass over every face
    seen = []
    monkeypatch.setattr(geometry, "_overlaps",
                        lambda *a, _f=geometry._overlaps: seen.append(a) or _f(*a))
    pairwise = []
    for target in ["E", *SUBLISTS]:
        wiring, left_out = SUBLISTS.get(target, ("E", ()))
        coords, tets, _ = geometry._SOURCES[wiring]
        tets = [t for k, t in enumerate(tets) if k not in left_out]
        seen.clear()
        try:
            geometry._build(wiring, coords, tets)
        except AssemblyError:
            assert target in REFUSED
        if seen:
            (points, _, planes), = seen
            want_points, faces = _build_faces(coords, tets)
            want = geometry._planes(points, faces)
            assert points == want_points
            assert (planes.normals, planes.rows) == (want.normals, want.rows), target
            pairwise.append(target)
    assert len(pairwise) == 59  # E and 58 of the 65 sub-lists


def _sweep_lists():
    """SUBLISTS, then 1500 random sub-lists of d1 or i1 (seed 2026), as
    (wiring, indices of the tiles kept)."""
    out = [(w, [k for k in range(len(geometry._SOURCES[w][1])) if k not in left_out])
           for w, left_out in SUBLISTS.values()]
    rng = random.Random(2026)
    for _ in range(1500):
        wiring = rng.choice(["d1", "i1"])
        n = len(geometry._SOURCES[wiring][1])
        size = rng.randint(2, n - 1)
        out.append((wiring, sorted(rng.sample(range(n), size))))
    return out


def _closed(mesh) -> bool:
    """Each directed edge of mesh's faces appears as often as its reverse."""
    edges = Counter((f[i - 1], f[i]) for f in mesh.faces for i in range(len(f)))
    return all(edges[a, b] == edges[b, a] for a, b in edges)


def _conforms(mesh) -> bool:
    """No vertex of mesh lies strictly inside one of its edges (exact)."""
    ex = mesh.exact
    for (u, w), _ in mesh.edge_faces:
        d = geometry._sub(ex[w], ex[u])
        a, b = geometry._dot(d, d)
        for v, p in enumerate(ex):
            if v not in (u, w) and geometry._normal(ex[u], ex[w], p) == geometry._ZERO:
                t, s = geometry._dot(geometry._sub(p, ex[u]), d)
                if pair_sign(t, s) > 0 and pair_sign(a - t, b - s) > 0:
                    return False
    return True


def test_any_sublist_builds_its_volume_or_is_refused():
    # every sub-list of d1 and i1 is a packing: the build gives a hull that
    # encloses its tiles' volume, or refuses it as one whose hull it cannot
    # give (REFUSALS); none overlaps, and every hull is closed and conforms
    tally = Counter()
    for index, (wiring, kept) in enumerate(_sweep_lists()):
        coords, tets, _ = geometry._SOURCES[wiring]
        try:
            a = geometry._build(wiring, coords, [tets[k] for k in kept])
        except AssemblyError as exc:
            text = str(exc)  # any other refusal is tallied under its own text
            tally["close" if text.endswith(" do not close") else
                  "fuse" if text.endswith(" do not fuse into one simple polygon") else text] += 1
            continue
        tally["built"] += 1
        assert a.mesh.volume_exact() == sum((t.volume() for t in a.tiles), GoldenRational(0))
        assert _closed(a.mesh) and _conforms(a.mesh), index
    assert tally == {"built": 600, "fuse": 363, "close": 602}
    assert all(_closed(assemble(t).mesh) and _conforms(assemble(t).mesh)
               for t in ASSEMBLY_TARGETS)


def test_kept_collinear_corner_closes_the_hull():
    # _sweep_lists()[598]: t3-0 and t5-0 fuse on one plane into a quadrilateral
    # whose corner 7 is collinear with its neighbours 1 and 2; their other faces
    # keep 7 as a real corner, so it stays and the mesh is closed (t1-0 meets
    # them at B alone).  Dropped, it left 7 inside the edge 1-2 and 18 edges
    assert _sweep_lists()[598] == ("d1", [22, 24, 31])
    coords, tets, _ = geometry._SOURCES["d1"]
    a = geometry._build("d1", coords, [tets[k] for k in (22, 24, 31)])
    assert [t.name for t in a.tiles] == ["t3-0", "t1-0", "t5-0"]
    assert a.mesh.counts() == (9, 17, 11)
    assert (1, 7, 2, 8) in a.mesh.faces
    assert _closed(a.mesh) and _conforms(a.mesh)


# how the build decides each face: (shared whole, a wall by index; no tile
# vertex above its plane, boundary; the rest, walls where their planes'
# edges cancel, else where a face wound the other way covers their
# centroids), how many points it packs, its tiles' vertices alone, and the
# rule that proved the packing (geometry's module docstring): the
# face-to-face certificate, or the pairwise overlap test
FACES_DECIDED = {"d1": ((96, 36, 20), 23, "face-to-face"), "i1": ((44, 20, 0), 12, "face-to-face"),
                 "E": ((4, 6, 2), 6, "pairwise"), "C": ((4, 8, 0), 6, "face-to-face"),
                 "T1": ((12, 12, 0), 8, "face-to-face"), "T2": ((2, 6, 0), 5, "face-to-face"),
                 "T3": ((4, 8, 0), 6, "face-to-face"), "T3bar": ((4, 8, 0), 6, "face-to-face"),
                 "T4": ((4, 8, 0), 6, "face-to-face")}
# the pairwise stages each rule runs
_RULE_CALLS = {"face-to-face": [], "pairwise": ["_overlaps"]}


def _decided(*build):
    """The rule that decided geometry._build(*build), read from the pairwise
    stages it ran, and the build, or the AssemblyError it raised."""
    calls = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "_overlaps",
                  lambda *a, _f=geometry._overlaps: calls.append("_overlaps") or _f(*a))
        try:
            got = geometry._build(*build)
        except AssemblyError as exc:
            return calls, exc
    return next(rule for rule, want in _RULE_CALLS.items() if calls == want), got


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_faces_decided_by_index_plane_or_coverage(monkeypatch, target):
    # the slot count of each _Slots the build makes: its points, and no more
    packed, init = [], geometry._Slots.__init__

    def counted(self, points, n):
        packed.append(n)
        init(self, points, n)

    monkeypatch.setattr(geometry._Slots, "__init__", counted)
    split = []
    monkeypatch.setattr(geometry, "_split", lambda *a, _f=geometry._split: split.append(a) or _f(*a))
    rule, a = _decided(target, *geometry._SOURCES[target])
    assert split == []  # its planes cancel and fuse by index, with no edge split
    signs = _free_planes(np.stack([t.exact for t in a.tiles]))[-1]
    corners = [_point_set(_face(t, g)) for t in a.tiles for g in range(4)]
    shared = Counter(corners)
    by_index = [shared[c] == 2 for c in corners]
    supporting = [not i and s for i, s in zip(by_index, (signs <= 0).all(axis=2).ravel())]
    counts = (sum(by_index), sum(supporting), len(corners) - sum(by_index) - sum(supporting))
    assert (counts, packed[0], rule) == FACES_DECIDED[target]
    assert packed[0] == len({p for t in a.tiles for p in t.exact})
    assert packed[1:] == []
    # a face with no vertex above it is boundary
    boundary = Counter(_point_set(f.corners) for f in a.boundary_triangles)
    assert all(boundary[c] for c, s in zip(corners, supporting) if s)


def _general_path(a):
    """The pairwise overlap test on a build's face table, and each face's
    wall flag by the numpy all-faces coverage reference."""
    points, faces, _, _ = a._faces
    planes = geometry._planes(points, faces)
    vert_ids = [[points.index(p) for p in t.exact] for t in a.tiles]
    return geometry._overlaps(points, vert_ids, planes), _walls_reference(a).ravel().tolist()


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_certified_builds_agree_with_the_pairwise_tests(target):
    # where the certificate decided, the pairwise test finds no overlap, and
    # the coverage reference finds the same walls
    a = geometry._build(target, *geometry._SOURCES[target])
    assert _general_path(a) == ([], list(a._faces.is_wall))


def _pt(x, y, z):
    return (x, 0), (y, 0), (z, 0)


# the cube [0, 4]^3 and its two five-tile triangulations: a regular tile on
# one set of alternate corners, and one corner tile at each other corner;
# their boundaries split every square along opposite diagonals
_CUBE = {f"c{i}{j}{k}": _pt(4 * i, 4 * j, 4 * k) for i in (0, 1) for j in (0, 1) for k in (0, 1)}


def _cube_half(parity):
    inner = [c for c in _CUBE if sum(map(int, c[1:])) % 2 == parity]
    corners = [c for c in _CUBE if c not in inner]
    return [("t1", tuple(inner))] + [
        ("t1", (c, *[v for v in inner if sum(a != b for a, b in zip(c, v)) == 1]))
        for c in corners]


def test_certificates_fall_back():
    # lists the certificate does not prove end as the pairwise tests end: a duplicated
    # tile (four faces on the same points wound the same way round), a tile
    # and a two-tile split of it, and the cube covered twice, where the first
    # lone face's centroid lies on the other cover's diagonal
    coords, tets, _ = geometry._SOURCES["T2"]
    t2 = tets[0]
    split = {"o": _pt(0, 0, 0), "x": _pt(4, 0, 0), "y": _pt(0, 4, 0), "z": _pt(0, 0, 4),
             "m": _pt(2, 0, 0)}
    cases = [(coords, [t2, t2], ("t2-0", "t2-1")),
             (split, [("t1", tuple("oxyz")), ("t1", tuple("omyz")), ("t1", tuple("mxyz"))],
              ("t1-0", "t1-1")),
             (_CUBE, _cube_half(0) + _cube_half(1), ("t1-0", "t1-5"))]
    for points, wiring, (a, b) in cases:
        rule, got = _decided("T2", points, wiring)
        assert rule == ["_overlaps"]
        assert str(got) == f"T2: tiles {a} and {b} overlap"
    # each cover alone is face to face, its squares fused from two triangles
    for parity in (0, 1):
        rule, got = _decided("T2", _CUBE, _cube_half(parity))
        assert rule == "face-to-face" and _general_path(got) == ([], list(got._faces.is_wall))
        assert sorted(map(len, got.mesh.faces)) == [4] * 6


def test_a_hole_takes_the_pairwise_test():
    # d1 without one of its tiles that touch no hull face: the faces around
    # the hole have points above them and their planes' edges do not cancel,
    # so the face-to-face certificate refuses it; the pairwise test proves
    # the packing, and the faces around the hole are boundary
    coords, tets, _ = geometry._SOURCES["d1"]
    d1 = assemble("d1")
    owners = {f.owner for f in d1.boundary_triangles}
    inner = [k for k, t in enumerate(d1.tiles) if t.name not in owners]
    assert len(inner) == 16
    rule, got = _decided("d1", coords, tets[:inner[0]] + tets[inner[0] + 1:])
    assert rule == "pairwise" and _general_path(got) == ([], list(got._faces.is_wall))
    assert len(got.boundary_triangles) == len(d1.boundary_triangles) + 4


def _kuhn(origin, steps):
    """The six tiles of a box around its diagonal from origin, one per order
    of the three edge steps, as (kind, labels) over _grid's labels."""
    out = []
    for order in itertools.permutations(steps):
        corners = [origin]
        for step in order:
            corners.append(tuple(map(sum, zip(corners[-1], step))))
        out.append(("t1", tuple(map(_grid, corners))))
    return out


def _grid(p):
    return "g" + ",".join(map(str, p))


# the cube [0, 4]^3 cut at x = 2, each half Kuhn-triangulated: the left half
# splits the cut square along (2, 0, 0)-(2, 4, 4), the right half along
# (2, 4, 0)-(2, 0, 4)
_CUT_CUBE = ({_grid((x, y, z)): _pt(x, y, z) for x in (0, 2, 4) for y in (0, 4) for z in (0, 4)},
             _kuhn((0, 0, 0), ((2, 0, 0), (0, 4, 0), (0, 0, 4)))
             + _kuhn((2, 4, 0), ((2, 0, 0), (0, -4, 0), (0, 0, 4))))


def test_contact_walls_cancelling_on_their_plane_are_face_to_face():
    # the cut square's four faces are lone and have points above them, and
    # their directed edges cancel on its plane: the face-to-face certificate
    # decides the cube with no pair tested, as the pairwise tests would
    rule, got = _decided("T2", *_CUT_CUBE)
    assert rule == "face-to-face" and _general_path(got) == ([], list(got._faces.is_wall))
    assert (len(got.walls), len(got.boundary_triangles)) == (28, 20)
    cut = [f.corners for f in got.walls if {p[0] for p in f.corners} == {(2, 0)}]
    assert len(cut) == 4
    assert sorted(map(len, got.mesh.faces)) == [4] * 6


def test_t_junction_contact_is_face_to_face():
    # a bipyramid over abc whose tile NSab is split at W on its axis NS: the
    # planes NSa and NSb hold a T-junction, NS against NW and WS, so their
    # edges cancel only once NS is split at W, and the certificate decides
    points = {"N": _pt(0, 0, 4), "S": _pt(0, 0, -4), "a": _pt(4, 0, 0), "b": _pt(-2, 4, 0),
              "c": _pt(-2, -4, 0), "W": _pt(0, 0, 0)}
    wiring = [("t1", tuple(labs)) for labs in ("NSbc", "NSca", "NWab", "WSab")]
    rule, got = _decided("T2", points, wiring)
    assert rule == "face-to-face" and _general_path(got) == ([], list(got._faces.is_wall))
    assert (len(got.walls), len(got.boundary_triangles)) == (10, 6)


def test_t_junctions_on_hull_and_cut_planes():
    # a side-4 Kuhn cube at the origin and eight side-2 ones filling x in
    # [4, 8]: on the cut x = 4 and on the hull planes y = 0, y = 4, z = 0
    # and z = 4 the small cubes' corners lie inside the big cube's edges;
    # the certificate decides the 54 tiles, and the hull fuses into the box
    small = [cube for x, y, z in itertools.product((4, 6), (0, 2), (0, 2))
             for cube in _kuhn((x, y, z), ((2, 0, 0), (0, 2, 0), (0, 0, 2)))]
    wiring = _kuhn((0, 0, 0), ((4, 0, 0), (0, 4, 0), (0, 0, 4))) + small
    points = {lab: _pt(*map(int, lab[1:].split(","))) for _, labs in wiring for lab in labs}
    rule, got = _decided("T2", points, wiring)
    assert len(got.tiles) == 54
    assert rule == "face-to-face" and _general_path(got) == ([], list(got._faces.is_wall))
    assert got.mesh.counts() == (8, 12, 6)
    assert got.mesh.volume_exact() == sum((t.volume() for t in got.tiles), GoldenRational(0))


def test_edges_must_cancel_by_direction():
    # the cube [0, 8]^3 in five tiles and, inside it, the cube [2, 6]^3 in
    # both of its five-tile covers: on each face plane of the inner cube the
    # covers' faces meet every edge twice, both times the same way round, and
    # all the directed edges cancel only across planes; the certificate
    # refuses it and the pairwise tests find the overlap
    outer = {"o" + lab[1:]: tuple((2 * a, 2 * b) for a, b in p) for lab, p in _CUBE.items()}
    inner = {lab: _translated(p, _pt(2, 2, 2)) for lab, p in _CUBE.items()}
    wiring = ([(kind, tuple("o" + lab[1:] for lab in labs)) for kind, labs in _cube_half(0)]
              + _cube_half(0) + _cube_half(1))
    rule, got = _decided("T2", {**outer, **inner}, wiring)
    assert rule == ["_overlaps"]
    assert str(got) == "T2: tiles t1-0 and t1-5 overlap"


def test_a_partly_covered_face_is_refused():
    # a small tile under a face of a large one: both faces on the shared plane
    # are lone and each holds the other's centroid, so the centroid rule makes
    # both walls, though the large face is only partly covered; their edges do
    # not close, and the build refuses the list rather than give a hull that
    # omits the uncovered part (volume 95/48 against the tiles' 65/48).  The
    # shared plane lies off the origin: through the origin, the divergence sum
    # of that open hull would give the tiles' volume, so the check reads
    # edges, not volumes
    points = {"a": _pt(0, 0, 2), "b": _pt(4, 0, 2), "c": _pt(0, 4, 2), "d": _pt(0, 0, 6),
              "e": _pt(1, 1, 2), "f": _pt(2, 1, 2), "g": _pt(1, 2, 2), "h": _pt(1, 1, 1)}
    wiring = [("t1", tuple("abcd")), ("t1", tuple("efgh"))]
    with pytest.raises(AssemblyError) as exc:
        geometry._build("pair", points, wiring)
    assert str(exc.value) == "pair: " + REFUSALS["close"].format("t1-0")


def _translated(p, shift):
    return tuple((a + x, b + y) for (a, b), (x, y) in zip(p, shift))


# a translation far beyond the wiring's coordinates: doubled pairs, every entry even
_FAR = ((2 * 10**20 + 6, -(4 * 10**19)), (-(2 * 10**20), 2), (8, 2 * 10**20 + 2))


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_translation_commutes_with_the_build(target):
    coords, tets, _ = geometry._SOURCES[target]
    want = _decided(target, coords, tets)
    got = _decided(target, {lab: _translated(p, _FAR) for lab, p in coords.items()}, tets)
    assert got[0] == want[0]
    got, want = got[1], want[1]
    assert [t.exact for t in got.tiles] == [tuple(_translated(p, _FAR) for p in t.exact)
                                            for t in want.tiles]
    for faces in ("walls", "boundary_triangles"):
        assert ([(f.owner, f.corners) for f in getattr(got, faces)] ==
                [(f.owner, tuple(_translated(p, _FAR) for p in f.corners))
                 for f in getattr(want, faces)])
    assert got.mesh.exact == tuple(_translated(p, _FAR) for p in want.mesh.exact)
    for field in ("faces", "provenance", "edge_faces", "normals"):
        assert getattr(got.mesh, field) == getattr(want.mesh, field)


def _with_far_copy(target):
    """Target's wiring and a copy of it moved by _FAR, as (coords, tets)."""
    coords, tets, _ = geometry._SOURCES[target]
    far = {lab + "'": _translated(p, _FAR) for lab, p in coords.items()}
    return ({**coords, **far},
            tets + [(kind, tuple(lab + "'" for lab in labs)) for kind, labs in tets])


def test_far_apart_copies_build_as_each_alone():
    # i1 and a far copy of it: the certificate does not hold, so the pairwise
    # test runs, and each copy's faces and hull come out as they do alone
    want = assemble("i1")
    rule, got = _decided("i1", *_with_far_copy("i1"))
    assert rule == "pairwise"
    assert got._faces.is_wall == want._faces.is_wall * 2
    for faces in ("walls", "boundary_triangles"):
        corners = [f.corners for f in getattr(want, faces)]
        assert [f.corners for f in getattr(got, faces)] == corners + [
            tuple(_translated(p, _FAR) for p in c) for c in corners]
    n = len(want.mesh.exact)
    assert got.mesh.exact == want.mesh.exact + tuple(_translated(p, _FAR) for p in want.mesh.exact)
    assert got.mesh.faces == want.mesh.faces + tuple(tuple(i + n for i in f)
                                                     for f in want.mesh.faces)
    assert got.mesh.normals == want.mesh.normals * 2


def test_one_way_planes_never_split(monkeypatch):
    # a plane whose lone faces are all wound one way cannot cancel, so it is
    # boundary with no split tried: E's two planes of lone faces with points
    # above hold one triangle each, and beside a far copy every hull plane of
    # i1 and of d1 has points above it (d1's: a pentagon of three triangles)
    split = []
    monkeypatch.setattr(geometry, "_split",
                        lambda *a, _f=geometry._split: split.append(a) or _f(*a))
    for target in ("E", "i1", "d1"):
        wiring = geometry._SOURCES[target][:2] if target == "E" else _with_far_copy(target)
        rule, got = _decided(target, *wiring)
        assert rule == "pairwise" and len(got.mesh.faces) == {"E": 8, "i1": 40, "d1": 24}[target]
    assert split == []


def _beyond(face: geometry.TriangleFace, opposite) -> tuple:
    """A point just beyond a face of a tile: its first corner plus sigma^6 =
    13 - 8 tau, about 0.056, times the step from the tile's opposite vertex
    to its second corner."""
    step = geometry._sub(face.corners[1], opposite)
    return tuple((a + x, b + y) for (a, b), (x, y) in
                 zip(face.corners[0], (geometry._mul((13, -8), d) for d in step)))


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_unused_points_change_nothing(target):
    # a far point and one just beyond a boundary face of T2, in no tile:
    # the build packs neither, and nothing it gives changes
    t2 = assemble("T2")
    face = t2.boundary_triangles[0]
    (tile,) = [t for t in t2.tiles if t.name == face.owner]
    (opposite,) = set(tile.exact) - set(face.corners)
    near = _beyond(face, opposite)
    normal = geometry._normal(*face.corners)
    height, tile_height = (GoldenRational(*geometry._dot(normal, geometry._sub(p, q)))
                           for p, q in ((near, face.corners[0]), (face.corners[1], opposite)))
    assert 0 < height < tile_height / 10
    far = ((2 * 10**6, 0), (-(10**6), 10**6), (3, -(10**6)))
    coords, tets, groups = geometry._SOURCES[target]
    got = geometry._build(target, {"far": far, **coords, "near": near}, tets, groups)
    want = assemble(target)
    for faces in ("walls", "boundary_triangles"):
        assert ([(f.owner, f.corners) for f in getattr(got, faces)]
                == [(f.owner, f.corners) for f in getattr(want, faces)])
    for field in ("exact", "faces", "provenance", "edge_faces", "normals"):
        assert getattr(got.mesh, field) == getattr(want.mesh, field)
    assert export_obj(got) == export_obj(want)
    assert canonical_json(export_patch(got)) == canonical_json(export_patch(want))


def test_assemble_rejects_unknown():
    assert set(geometry._SOURCES) == set(catalog.ASSEMBLY_TARGETS)
    with pytest.raises((KeyError, ValueError)):
        assemble("d2")


# ---------------------------------------------------------------------------
# the Python-int kernel against the numpy reference


def _wiring_arrays(target):
    """The build's points (P, 3, 2), its tiles' vertex ids (T, 4) and their
    outward faces (T, 4, 3), as the reference reads them."""
    coords, tets, _ = geometry._SOURCES[target]
    labels = list(coords)
    points = np.array([coords[lab] for lab in labels], dtype=np.int64)
    ids = np.array([[labels.index(lab) for lab in labs] for _, labs in tets])
    faces = np.array([[ids[u][list(f)] for f in t.faces]
                      for u, t in enumerate(assemble(target).tiles)])
    return points, ids, faces


def _sign_rows(planes, n):
    """The (below, above) slot masks of each plane as rows of n signs."""
    bits = [planes.slots.bit(i) for i in range(n)]
    return [[1 if above & b else -1 if below & b else 0 for b in bits]
            for below, above in planes.rows]


def _stage1_reference(signs, ids):
    """The pairs the reference's face planes leave for the edge-edge stage."""
    apart = ((signs[:, :, ids] >= 0).all(axis=3) & signs.any(axis=2)[:, :, None]).any(axis=1)
    return list(zip(*(x.tolist() for x in np.nonzero(np.triu(~(apart | apart.T), 1)))))


def _kernel_pairs(tets):
    """geometry._overlaps of free (T, 4, 3, 2) tetrahedra, each vertex its
    own point, wound by the reference's parity."""
    faces, *_ = _free_planes(tets)
    points = geometry._points(tets.reshape(-1, 3, 2))
    planes = geometry._planes(points, [tuple(f) for f in faces.reshape(-1, 3).tolist()])
    vert_ids = np.arange(4 * len(tets)).reshape(-1, 4).tolist()
    return geometry._overlaps(points, vert_ids, planes), planes, vert_ids


@pytest.mark.parametrize("target", catalog.ASSEMBLY_TARGETS)
def test_kernel_matches_numpy_reference(target):
    a = assemble(target)
    points, ids, faces = _wiring_arrays(target)
    normals, _, signs = _face_planes(points, faces)
    planes = geometry._planes(geometry._points(points), [tuple(f) for f in
                                                         faces.reshape(-1, 3).tolist()])
    # the sign row of every face, and the normals it came from
    assert _sign_rows(planes, len(points)) == signs.reshape(-1, len(points)).tolist()
    assert np.asarray(planes.normals).tolist() == normals.reshape(-1, 3, 2).tolist()
    # the stage-1 pair list (d1 leaves one pair, which the edge-edge stage parts)
    masks = [sum(map(planes.slots.bit, set(v))) for v in ids.tolist()]
    pairs = geometry._candidates(planes.rows, masks)
    assert pairs == _stage1_reference(signs, ids)
    assert len(pairs) == (1 if target == "d1" else 0)
    # the hull-plane grouping: equal sign rows, in the kernel and in the reference
    wall = _walls_reference(a).ravel()
    keys = [k for k, w in zip(planes.rows, wall) if not w]
    ref = [r.tobytes() for r, w in zip(signs.reshape(-1, len(points)), wall) if not w]
    assert [keys.index(k) for k in keys] == [ref.index(r) for r in ref]
    # np.asarray of every public tuple gives the array the numpy kernel kept
    for t, v in zip(a.tiles, ids):
        exact = np.asarray(t.exact)
        assert exact.dtype == np.int64 and (exact == points[v]).all()
        floats = np.asarray(t.vertices)
        assert floats.dtype == np.float64 and floats.shape == (4, 3)
        assert floats.tolist() == [[embed(GoldenRational(x, y, 2)) for x, y in q]
                                   for q in points[v].tolist()]
    for f in a.walls + a.boundary_triangles:
        corners = np.asarray(f.corners)
        assert corners.dtype == np.int64 and corners.shape == (3, 3, 2)
    mesh = a.mesh
    exact, floats = np.asarray(mesh.exact), np.asarray(mesh.vertices)
    assert exact.dtype == np.int64 and exact.shape == (mesh.counts()[0], 3, 2)
    assert floats.dtype == np.float64 and floats.shape == exact.shape[:2]
    _, ref_normals = _per_face_mesh_reference(mesh)
    got = np.asarray(mesh.normals)
    assert got.dtype == np.int64 and got.shape == ref_normals.shape
    assert (got == ref_normals).all()


@pytest.mark.parametrize("wiring, moved, move, n_pairs", [
    ("d1", "B", (1, 0), 12), ("d1", "v0", (1, 0), 6), ("i1", "i3", (-2, 0), 4),
    ("d1", "B", (0, 1), 12), ("i1", "i3", (0, 1), 3), ("i1", "i3", (0, -1), 4),
], ids=["B-12", "v0-6", "i1-i3-4", "B-tau-12", "i1-i3-tau-3", "i1-i3-minus-tau-4"])
def test_kernel_overlaps_match_reference(wiring, moved, move, n_pairs):
    coords = dict(geometry._SOURCES[wiring][0])
    coords[moved] = _moved_in_x(coords[moved], move)
    labels = list(coords)
    exact = np.array([coords[lab] for lab in labels])
    ids = np.array([[labels.index(lab) for lab in labs]
                    for _, labs in geometry._SOURCES[wiring][1]])
    tets = exact[ids]
    pairs, planes, vert_ids = _kernel_pairs(tets)
    assert pairs == _overlapping_pairs(tets) and len(pairs) == n_pairs
    signs = _free_planes(tets)[-1]
    masks = [sum(map(planes.slots.bit, v)) for v in vert_ids]
    assert geometry._candidates(planes.rows, masks) == _stage1_reference(
        signs, np.arange(4 * len(tets)).reshape(-1, 4))


def test_kernel_overlaps_contacts_and_zero_normals():
    t0 = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    mirrors = [[(sx * x, sy * y, sz * z) for x, y, z in t0]
               for sx, sy, sz in ((-1, 1, 1), (-1, -1, 1), (-1, -1, -1))]
    crossed = ([(-2, 0, 0), (2, 0, 0), (0, 2, -2), (0, -2, -2)],
               [(0, -2, 0), (0, 2, 0), (2, 0, 2), (-2, 0, 2)])
    for pair in [(t0, m) for m in mirrors] + [crossed]:
        assert _kernel_pairs(np.stack([_rational(t) for t in pair]))[0] == []
    big = [(0, 0, 0), (8, 0, 0), (0, 8, 0), (0, 0, 8)]
    flat = [(1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1)]
    beside = [(x + 20, y, z) for x, y, z in flat]
    tets = np.stack([_rational(t) for t in (big, flat, beside)])
    assert _kernel_pairs(tets)[0] == _overlapping_pairs(tets) == [(0, 1)]


def _planes_reference(points, faces):
    """Each face's normal and sign row from its own corners, the slot
    arithmetic written out: the reference for _planes."""
    slots = geometry._Slots(points, len(points))
    scaled = [slots.scaled(p) for p in points]
    packed = slots.pack(scaled)
    normals = [geometry._normal(points[i], points[j], points[k]) for i, j, k in faces]
    offsets = [geometry._at(n, scaled[f[0]]) for n, f in zip(normals, faces)]
    rows = [slots.signs(geometry._at(n, packed) - c * slots.ones)
            for n, c in zip(normals, offsets)]
    return normals, rows


def _build_faces(coords, tets):
    """The points a build packs and its outward faces, read as _build reads
    a wiring."""
    labels = {lab for _, labs in tets for lab in labs}
    index = {lab: k for k, lab in enumerate(lab for lab in coords if lab in labels)}
    points = geometry._points([coords[lab] for lab in index])
    faces = []
    for kind, labs in tets:
        ids = [index[lab] for lab in labs]
        faces += [tuple(ids[i] for i in f)
                  for f in PlacedTile(kind=kind, exact=[points[i] for i in ids]).faces]
    return points, faces


# per wiring: (faces on the points of an earlier face wound the same way
# round, the other way round), the partners whose windings _decide reads;
# the moved wirings of test_exact_overlap_matches_float_reference follow
# the nine targets
_PARTNERS = [(t, None, (0, 0), n) for t, n in (
    ("d1", (0, 48)), ("i1", (0, 22)), ("E", (0, 2)), ("C", (0, 2)), ("T1", (0, 6)),
    ("T2", (0, 1)), ("T3", (0, 2)), ("T3bar", (0, 2)), ("T4", (0, 2)))] + [
    ("d1", "B", (1, 0), (0, 48)), ("d1", "v0", (1, 0), (0, 48)),
    ("i1", "i0", (1, 0), (0, 22)), ("i1", "i3", (-2, 0), (2, 20)),
    ("d1", "B", (0, 1), (0, 48)), ("i1", "i3", (0, 1), (2, 20)),
    ("i1", "i3", (0, -1), (2, 20))]


@pytest.mark.parametrize("wiring, moved, move, partners", _PARTNERS, ids=[
    f"{w}-{m}-{a},{b}" if m else w for w, m, (a, b), _ in _PARTNERS])
def test_partner_planes_match_per_face(wiring, moved, move, partners):
    coords, tets, _ = geometry._SOURCES[wiring]
    coords = dict(coords)
    if moved:
        coords[moved] = _moved_in_x(coords[moved], move)
    points, faces = _build_faces(coords, tets)
    planes = geometry._planes(points, faces)
    normals, rows = _planes_reference(points, faces)
    assert planes.first == [[set(g) for g in faces].index(set(f)) for f in faces]
    for k in range(len(faces)):
        assert (planes.normals[k], planes.rows[k]) == (normals[k], rows[k]), k
    # the same plane exactly when the windings are one rotation apart
    turns = [{g[i:] + g[:i] for i in range(3)} for g in faces]
    same = [k for k, j in enumerate(planes.first) if j != k and faces[k] in turns[j]]
    derived = sum(j != k for k, j in enumerate(planes.first))
    assert (len(same), derived - len(same)) == partners
    assert all(normals[k] == normals[planes.first[k]] for k in same)


def test_fibonacci_sign_lemma():
    # |A|, |B| < F(k): A + B*tau and A*F(k) + B*F(k+1) share their sign
    rng = random.Random(17)
    for points in ([((1, 0),) * 3], [((0, 3),) * 3], [((-2**40, 1),) * 3]):
        slots = geometry._Slots(points, 1)
        f, g = slots.fib
        bound = 5184 * max(abs(x) for p in points for q in p for x in q) ** 4
        assert f > bound and g - f <= bound  # the least such F(k)
        pairs = [(rng.randint(-f + 1, f - 1), rng.randint(-f + 1, f - 1)) for _ in range(2000)]
        near, j = [], 1  # (F(j+1), -F(j)) = sigma^j, as close to 0 as pairs this size come
        while fibonacci(j + 1) < f:
            near += [(fibonacci(j + 1), -fibonacci(j)), (-fibonacci(j + 1), fibonacci(j))]
            j += 1
        for a, b in pairs + near + [(0, 0), (f - 1, 1 - f), (1 - f, f - 1)]:
            want = GoldenRational(a, b).sign()
            got = a * f + b * g
            assert (got > 0) - (got < 0) == want, (a, b)
            # the scaled form: the integer dot of n with a scaled point
            n, x = ((a, b), (0, 0), (0, 0)), ((1, 0), (0, 0), (0, 0))
            assert geometry._at(n, slots.scaled(x)) == got


def test_slot_decoder_at_its_bounds():
    slots = geometry._Slots([((1, 0),) * 3], 7)
    top = 2 ** (slots.width - 1) - 1
    values = [top, -top, 0, 1, -1, top, 0]
    total = sum(v << slots.width * i for i, v in enumerate(values))
    below, above = slots.signs(total)
    assert [bool(below & slots.bit(i)) for i in range(7)] == [v < 0 for v in values]
    assert [bool(above & slots.bit(i)) for i in range(7)] == [v > 0 for v in values]
    # pack puts the same values in the same slots
    points = [((v, 0), (0, 0), (0, 0)) for v in values]
    (col, _), *_ = slots.pack(points)
    assert col == total


def test_malformed_coordinates_raise():
    # a float is not truncated and a string does not nest without end
    for bad in ("abc", [["abc"]]):
        with pytest.raises(ValueError, match="nest"):
            squared_edges(bad)
    with pytest.raises(ValueError, match="nest"):
        PlacedTile(kind="t1", exact=[[(0.5, 0), (0, 0), (0, 0)]] * 4)
    with pytest.raises(ValueError, match="nest"):
        geometry.Mesh(exact=[[(0, 0), (0, 0)]], faces=(), provenance=())
