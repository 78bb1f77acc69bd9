"""Edge schemes, realization, gluing, assemblies, symmetry axes."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from icotile import catalog
from icotile.catalog import triangle_family
from icotile.geometry import (
    AmbiguityError,
    AssemblyError,
    CongruenceError,
    GlueError,
    assemble,
    cm_volume,
    dihedrals,
    edge_scheme,
    expected_face_census,
    expected_triangle_census,
    export_obj,
    export_patch,
    face_axis_class,
    face_correspondences,
    glue,
    icosahedron_vertices,
    realize,
    squared_edges,
)
from icotile.geometry import _wiring, assembly, axes
from icotile.golden import GoldenRational, embed, tau_pow

TAU2 = tau_pow(2)
T2F = embed(TAU2)
FUNDAMENTALS = ("t1", "t2", "t3", "t4", "t5", "t6")
ATAN2 = math.atan(2.0)


def _random_rotation(rng: random.Random) -> np.ndarray:
    m = np.array([[rng.gauss(0, 1) for _ in range(3)] for _ in range(3)])
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


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
    from icotile.geometry.schemes import EdgeScheme
    one = GoldenRational(1)
    two = GoldenRational(2)
    # a unit square with its diagonals is flat
    flat = EdgeScheme(ab=one, ac=two, ad=one, bc=one, bd=two, cd=one)
    with pytest.raises(ValueError):
        cm_volume(flat)
    with pytest.raises(ValueError):
        EdgeScheme(ab=-one, ac=one, ad=one, bc=one, bd=one, cd=one)


# ---------------------------------------------------------------------------
# realization and rigid motion


def test_realize_matches_scheme():
    for kind in FUNDAMENTALS:
        t = realize(kind)
        e = edge_scheme(kind)
        got = sorted(
            float(np.sum((t.vertices[i] - t.vertices[j]) ** 2))
            for i in range(4) for j in range(i + 1, 4))
        want = sorted(embed(x) for x in e.as_tuple())
        assert got == pytest.approx(want, abs=1e-12)
        assert t.parity == 1
        assert t.kind.value == kind
        # base triangle in z=0, apex above
        assert abs(t.vertices[0][2]) < 1e-15
        assert abs(t.vertices[1][2]) < 1e-15
        assert abs(t.vertices[2][2]) < 1e-15
        assert t.vertices[3][2] > 0


def test_realize_volume_matches_cm():
    for kind in FUNDAMENTALS:
        t = realize(kind)
        cm = cm_volume(edge_scheme(kind))
        assert t.volume() == pytest.approx(cm.root, rel=1e-12)


def test_transform_preserves_distances():
    rng = random.Random(55)
    for kind in FUNDAMENTALS:
        t = realize(kind)
        base = t.vertices
        for _ in range(20):
            rot = _random_rotation(rng)
            shift = np.array([rng.uniform(-5, 5) for _ in range(3)])
            moved = t.transformed(rot, shift)
            assert moved.parity == t.parity
            for i in range(4):
                for j in range(i + 1, 4):
                    d0 = np.linalg.norm(base[i] - base[j])
                    d1 = np.linalg.norm(moved.vertices[i] - moved.vertices[j])
                    assert abs(d1 - d0) <= 1e-12 * d0
            refl = rot @ np.diag([1.0, 1.0, -1.0])
            assert t.transformed(refl, shift).parity == -t.parity


def test_find_face():
    t = realize("t5")
    fi = t.find_face((T2F, T2F, T2F))
    sq = t.face_edge_squares(fi)
    assert max(abs(x - T2F) for x in sq) < 1e-12
    with pytest.raises(ValueError):
        realize("t1").find_face((T2F, T2F, T2F))
    with pytest.raises(ValueError):
        realize("t1").find_face((1.0, 1.0, 1.0))  # two equilateral faces


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
    f2 = t2.find_face((1.0, 1.0, 1.0))
    t4 = realize("t4")
    f4 = t4.find_face((1.0, 1.0, 1.0))
    placed = glue(t2, f2, t4, f4)
    ref = realize("t4").vertices
    for i in range(4):
        for j in range(i + 1, 4):
            d0 = np.linalg.norm(ref[i] - ref[j])
            d1 = np.linalg.norm(placed.vertices[i] - placed.vertices[j])
            assert abs(d1 - d0) <= 1e-12 * d0
    # the two faces coincide as point sets
    a = np.array(sorted(map(tuple, np.round(t2.face_points(f2), 9))))
    b = np.array(sorted(map(tuple, np.round(placed.face_points(f4), 9))))
    assert np.allclose(a, b, atol=1e-9)


def test_glue_t2_t4_unambiguous():
    t2 = realize("t2")
    f2 = t2.find_face((1.0, 1.0, 1.0))
    f4 = realize("t4").find_face((1.0, 1.0, 1.0))
    placed = glue(t2, f2, "t4", f4)
    vol = t2.volume() + placed.volume()
    assert vol == pytest.approx(embed(catalog.record("T2").volume), rel=1e-12)


def test_glue_congruence_error():
    t3 = realize("t3")
    tau_face = t3.find_face((T2F, T2F, T2F))
    with pytest.raises(CongruenceError):
        glue(t3, tau_face, "t1", 0)
    t2 = realize("t2")
    eq_face = t2.find_face((1.0, 1.0, 1.0))
    rob_face = t2.find_face((1.0, T2F, T2F))
    with pytest.raises(CongruenceError):
        glue(t2, eq_face, "t2", rob_face)
    with pytest.raises(ValueError):
        glue(t2, eq_face, "t4", realize("t4").find_face((1.0, 1.0, 1.0)),
             correspondence=(0, 0, 1))


def test_glue_ambiguity_and_handedness():
    t5 = realize("t5")
    f5 = t5.find_face((T2F, T2F, T2F))
    t6 = realize("t6")
    tau_faces = [i for i in range(4)
                 if max(abs(x - T2F) for x in t6.face_edge_squares(i)) < 1e-9]
    assert len(tau_faces) == 2
    with pytest.raises(AmbiguityError):
        glue(t5, f5, "t6", tau_faces[0])
    placements = _proper_glues(t5, f5, "t6", tau_faces[0])
    assert len(placements) == 3
    # mirror attachments exist only with flip=True
    perms = face_correspondences(t5, f5, realize("t6"), tau_faces[0])
    assert len(perms) == 6
    flipped = 0
    for p in perms:
        try:
            glue(t5, f5, "t6", tau_faces[0], flip=True, correspondence=p)
            flipped += 1
        except GlueError:
            pass
    assert flipped == 3


def test_three_tile_pentagon_census():
    # two t5 and one t6 glue in nine proper ways: six give the shape with
    # two trapezoid walls, two close a planar pentagon, one gives a third
    # shape; none of them overlap in volume
    from icotile.geometry.assembly import _tets_overlap

    t5 = realize("t5")
    f5 = t5.find_face((T2F, T2F, T2F))
    t6 = realize("t6")
    tau_faces = [i for i in range(4)
                 if max(abs(x - T2F) for x in t6.face_edge_squares(i)) < 1e-9]

    seen, middles = [], []
    for j in tau_faces:
        for b in _proper_glues(t5, f5, "t6", j):
            pts = np.array(sorted(map(tuple, np.round(b.vertices, 6))))
            if not any(np.allclose(pts, k, atol=1e-9) for k in seen):
                seen.append(pts)
                middles.append(b)
    assert len(middles) == 3

    def shape_key(groups):
        verts = []
        for t in groups:
            for v in t.vertices:
                if not any(np.linalg.norm(v - u) < 1e-9 for u in verts):
                    verts.append(v)
        assert len(verts) == 6
        dists = sorted(np.linalg.norm(a - b)
                       for a, b in itertools.combinations(verts, 2))
        return tuple(np.round(dists, 6))

    fixed_pts = np.array(sorted(map(tuple, np.round(t5.face_points(f5), 9))))
    keys = []
    for b in middles:
        other = None
        for i in range(4):
            if max(abs(x - T2F) for x in b.face_edge_squares(i)) > 1e-9:
                continue
            bp = np.array(sorted(map(tuple, np.round(b.face_points(i), 9))))
            if not np.allclose(bp, fixed_pts, atol=1e-8):
                other = i
        for c in _proper_glues(b, other, "t5", f5):
            assert not _tets_overlap(t5.vertices, c.vertices, 1e-9)
            keys.append(shape_key((t5, b, c)))

    assert len(keys) == 9
    classes = Counter(keys)
    assert sorted(classes.values()) == [1, 2, 6]

    def mesh_key(target):
        verts = assemble(target).mesh.vertices
        dists = sorted(np.linalg.norm(a - b)
                       for a, b in itertools.combinations(verts, 2))
        return tuple(np.round(dists, 6))

    assert classes[mesh_key("T3")] == 2
    assert classes[mesh_key("T3bar")] == 6


# ---------------------------------------------------------------------------
# assemblies


def test_assembly_counts_and_censuses():
    for target in ("E", "C", "T1", "T2", "T3", "T4", "T3bar"):
        a = assemble(target)
        rec = catalog.record(target)
        assert a.mesh.counts() == (rec.N0, rec.N1, rec.N2)
        assert a.mesh.face_census() == expected_face_census(target)
        tri_census = Counter()
        for tri in a.boundary_triangles:
            tri_census[tuple(sorted(squared_edges(tri.corners)))] += 1
        assert tri_census == expected_triangle_census(target)
        assert a.fundamental_counts() == {
            k: n for k, n in catalog.expand_to_fundamental(
                rec.composition_dict()).items()}


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
        assert a.mesh.volume() == pytest.approx(embed(expect), abs=1e-9)
        assert abs(a.mesh.volume() - a.tile_volume_sum()) < 1e-9


def test_dodecahedron_hull():
    a = assemble("d1")
    assert len(a.tiles) == 38
    assert a.mesh.counts() == (20, 30, 12)
    for i, face in enumerate(a.mesh.faces):
        assert len(face) == 5
        assert a.mesh.face_planarity(i) < 1e-9
        for length in a.mesh.face_edge_lengths(i):
            assert abs(length - 1.0) < 1e-9
    for rec in dihedrals(a.mesh):
        assert rec.angle is not None
        assert abs(rec.angle - (math.pi - ATAN2)) < 1e-9
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
    for i in range(20):
        assert len(a.mesh.faces[i]) == 3
        for length in a.mesh.face_edge_lengths(i):
            assert abs(length - 1.0) < 1e-9
    hull = {tuple(np.round(v, 9)) for v in a.mesh.vertices}
    ref = {tuple(np.round(v, 9)) for v in icosahedron_vertices()}
    assert hull == ref
    named = {k.value: n for k, n in a.fundamental_counts().items()}
    assert named == {"t1": 7, "t2": 6, "t5": 2, "t6": 1}


def test_composite_dihedrals():
    for target in ("E", "C", "T1", "T2", "T3", "T3bar", "T4"):
        for rec in dihedrals(assemble(target).mesh):
            if rec.angle is None:
                continue
            off = min(abs(rec.angle - ATAN2), abs(rec.angle - (math.pi - ATAN2)))
            assert off < 1e-9, (target, rec.angle)


def test_pentagon_face_of_t3():
    a = assemble("T3")
    pent = [i for i, f in enumerate(a.mesh.faces) if len(f) == 5]
    assert len(pent) == 1
    assert a.mesh.face_planarity(pent[0]) < 1e-9
    for length in a.mesh.face_edge_lengths(pent[0]):
        assert abs(length - 1.0) < 1e-9
    bar = assemble("T3bar")
    quads = [i for i, f in enumerate(bar.mesh.faces) if len(f) == 4]
    assert len(quads) == 2
    assert assemble("T3").volume_exact() == bar.volume_exact()


def test_exact_sign_matches_golden_rational():
    r = range(-40, 41)
    pairs = np.array([[(a, b) for b in r] for a in r])
    want = [[GoldenRational(a, b).sign() for b in r] for a in r]
    assert assembly._gsign(pairs).tolist() == want


def _moved_half_in_x(triple):
    (a, b), *rest = triple
    return (a + 1, b), *rest  # doubled pairs: +1 in a is +1/2 in x


@pytest.mark.parametrize("moved, n_pairs", [(None, 0), ("B", 12), ("v0", 6)])
def test_exact_overlap_matches_float_reference(monkeypatch, moved, n_pairs):
    coords = dict(_wiring.D1_COORDS)
    if moved:
        coords[moved] = _moved_half_in_x(coords[moved])
    labels = list(coords)
    exact = np.array([coords[lab] for lab in labels])
    flt = np.array([[embed(GoldenRational(a, b, 2)) for a, b in p] for p in exact.tolist()])
    ids = np.array([[labels.index(lab) for lab in labs] for _, labs in _wiring.D1_TETS])
    got = set(assembly._overlapping_pairs(exact[ids]))
    want = {(a, b) for a, b in itertools.combinations(range(len(ids)), 2)
            if assembly._tets_overlap(flt[ids[a]], flt[ids[b]], 1e-9)}
    assert got == want
    assert len(got) == n_pairs
    if moved:
        monkeypatch.setitem(assembly._SOURCES, "d1", (coords, _wiring.D1_TETS, None))
        with pytest.raises(AssemblyError):
            assembly._build("d1")


def test_exact_points_match_floats():
    for target, coords in (("d1", _wiring.D1_COORDS), ("i1", _wiring.I1_COORDS)):
        a = assemble(target)
        want = [[embed(GoldenRational(x, y, 2)) for x, y in p] for p in a.mesh.exact.tolist()]
        assert a.mesh.vertices.tolist() == want
        wiring = {tuple(embed(GoldenRational(x, y, 2)) for x, y in p) for p in coords.values()}
        assert all(tuple(v) in wiring for t in a.tiles for v in t.vertices.tolist())


# ---------------------------------------------------------------------------
# symmetry axes


def _face_normal_to(n):
    """Doubled corners 0, u, n x u of a triangle normal to the integer n."""
    u = (n[1], -n[0], 0)
    w = np.cross(n, u)
    return np.array([[(0, 0)] * 3, [(2 * x, 0) for x in u], [(2 * x, 0) for x in w]])


def test_canonical_frame():
    assert [len(a) for a in axes._axes().values()] == [6, 10, 15]
    assert list(axes._axes()) == ["five-fold", "three-fold", "two-fold"]
    # corners 0, (1, 0, 0), (0, tau, -1): normal (0, 1, tau)
    five = np.array([[(0, 0)] * 3, [(2, 0), (0, 0), (0, 0)], [(0, 0), (0, 2), (-2, 0)]])
    assert face_axis_class(five) == "five-fold"
    assert face_axis_class(_face_normal_to((1, 1, 1))) == "three-fold"
    assert face_axis_class(_face_normal_to((1, 0, 0))) == "two-fold"
    assert face_axis_class(_face_normal_to((1, 2, 3))) == "none"


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
        assert face_axis_class(i1.mesh.exact[list(i1.mesh.faces[i])]) == "three-fold"
    d1 = assemble("d1")
    for i in range(12):
        assert face_axis_class(d1.mesh.exact[list(d1.mesh.faces[i])]) == "five-fold"


def test_internal_walls_on_axes():
    expect = {"equilateral": "three-fold", "robinson": "five-fold"}
    total = 0
    for target in ("d1", "i1"):
        for wall in assemble(target).walls:
            family = triangle_family(squared_edges(wall.corners))
            assert family in expect, (target, wall.owner)
            got = face_axis_class(wall.corners)
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


def test_assemble_rejects_unknown():
    with pytest.raises((KeyError, ValueError)):
        assemble("d2")
