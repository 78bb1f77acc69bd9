"""Acceptance battery: the ten headline claims, one test each."""

from __future__ import annotations

import math
from collections import Counter

import dataclasses
import numpy as np
import pytest

from icotile import catalog, checks, geometry, inflation, report
from icotile.catalog import TileKind, triangle_family
from icotile.geometry import (
    assemble,
    axis_classes,
    cm_volume,
    dihedrals,
    edge_scheme,
    expected_face_census,
    face_axis_class,
    squared_edges,
)
from icotile.geometry import assembly
from icotile.golden import GoldenRational, SQRT5, embed, tau_pow

GR = GoldenRational
ZERO = GR(0)
ATAN2 = math.atan(2.0)

# Criterion 6. The published bound is err(n) < 1e-6 at n = 10, where
# err(n) = max |tau^(-3n) M^n - P|. For the M of criterion 4 and the P pinned
# in criterion 6, err(10) = 5.160e-05: the error is exactly C*tau^(-2n) plus
# faster terms, C = (2 + 6 tau)/15, and the bound is first met at n = 15.
PUBLISHED_BOUND_N = 10
PROJECTION_BOUND = GR(1, 0, 10 ** 6)
FIRST_N_BELOW_BOUND = 15
DECAY_CONSTANT = GR(2, 6, 15)
EIGENVALUES = (tau_pow(3), tau_pow(1), -tau_pow(-1), -tau_pow(-3))


def _max_abs(A) -> GR:
    return max(abs(x) for row in A for x in row)


def _projection_error(n: int) -> list[list[GR]]:
    """tau^(-3n) M^n - P, exactly."""
    Mn = inflation.M.power(n)
    scale = tau_pow(-3 * n)
    P = inflation.projection_matrix()
    return [[Mn[i][j] * scale - P[i][j] for j in range(4)] for i in range(4)]


def _projection_err(n: int) -> GR:
    return _max_abs(_projection_error(n))


def _eigenprojector(lam: GR, spectrum) -> list[list[GR]]:
    """Lagrange product of (M - mu I)/(lam - mu) over the other eigenvalues."""
    Q = [[GR(int(i == j)) for j in range(4)] for i in range(4)]
    for mu in spectrum:
        if mu == lam:
            continue
        F = [[(inflation.M.rows[i][j] - (mu if i == j else ZERO)) / (lam - mu)
              for j in range(4)] for i in range(4)]
        Q = [[sum((Q[i][k] * F[k][j] for k in range(4)), ZERO)
              for j in range(4)] for i in range(4)]
    return Q


def test_criterion_01_fundamental_volumes_exact():
    want = [GR(1, 0, 12)] + [tau_pow(k) / 12 for k in (1, 1, 2, 2, 3)]
    for kind, expect in zip(("t1", "t2", "t3", "t4", "t5", "t6"), want):
        cm = cm_volume(edge_scheme(kind))
        assert cm.is_exact
        assert cm.exact_root == expect
        assert catalog.record(kind).volume == expect


def test_criterion_02_composite_volumes_exact():
    want = {
        "T1": tau_pow(4) * 2 / 12,
        "T2": tau_pow(3) / 12,
        "T3": GR(3, 4, 12),
        "T4": tau_pow(3) * 2 / 12,
    }
    for name, expect in want.items():
        rec = catalog.record(name)
        assert rec.volume == expect
        assert catalog.total_volume(rec.composition_dict()) == expect


def test_criterion_03_inventory_consistency():
    comp = catalog.inventory("d1-composite")
    fund = catalog.inventory("d1-fundamental")
    assert catalog.expand_to_fundamental(comp) == fund.counts_dict()
    vol_d = catalog.total_volume(fund)
    assert vol_d == GR(24, 42, 12)
    classical_d = (15 + 7 * embed(SQRT5)) / 4
    assert abs(embed(vol_d) - classical_d) <= 1e-12
    vol_i = catalog.total_volume(catalog.inventory("i1"))
    assert vol_i == GR(10, 10, 12)
    classical_i = (5.0 / 12.0) * (3 + embed(SQRT5))
    assert abs(embed(vol_i) - classical_i) <= 1e-12


def test_criterion_04_inflation_rules():
    published_rows = ((1, 2, 2, 2), (0, 2, 1, 0), (1, 2, 1, 1), (1, 1, 1, 1))
    for i in range(4):
        got = inflation.inflate_counts(inflation.CountVector.unit(i), 1)
        assert got.c == published_rows[i]
    vols = inflation.composite_volumes()
    t3 = tau_pow(3)
    for i in range(4):
        rhs = sum((vols[j] * inflation.M.rows[i][j] for j in range(4)), ZERO)
        assert t3 * vols[i] == rhs


def test_criterion_05_spectrum():
    coeffs = inflation.char_poly()
    assert coeffs == (1, -5, 2, 5, 1)
    sd = inflation.pf_vectors()
    exact = (tau_pow(3), tau_pow(1), -tau_pow(-1), -tau_pow(-3))
    for lam, ex in zip(sd.eigenvalues, exact):
        assert abs(lam - embed(ex)) <= 1e-9
    # the volume vector (6tau+4, 2tau+1, 4tau+3, 4tau+2) and the frequency
    # vector (tau/2, tau^2, tau, 1)
    right = (GR(4, 6), GR(1, 2), GR(3, 4), GR(2, 4))
    left = (GR(0, 1, 2), GR(1, 1), GR(0, 1), GR(1))
    t3 = tau_pow(3)
    for i in range(4):
        row = sum((right[j] * inflation.M.rows[i][j] for j in range(4)), ZERO)
        assert row - t3 * right[i] == ZERO
        col = sum((left[j] * inflation.M.rows[j][i] for j in range(4)), ZERO)
        assert col - t3 * left[i] == ZERO
    uv = sum((right[i] * left[i] for i in range(4)), ZERO)
    assert inflation.projection_matrix() == tuple(
        tuple(right[i] * left[j] / uv for j in range(4)) for i in range(4))
    assert sd.exact_right_pf == tuple(x / sum(right, ZERO) for x in right)
    assert sd.exact_left_pf == tuple(x / sum(left, ZERO) for x in left)
    printed_right = (0.3820, 0.1180, 0.2639, 0.2361)
    printed_left = (0.1338, 0.4331, 0.2677, 0.1654)
    for got, want in zip(sd.right_pf, printed_right):
        assert abs(got - want) <= 5e-5
    for got, want in zip(sd.left_pf, printed_left):
        assert abs(got - want) <= 5e-5


def test_criterion_06_projection_matrix():
    P = inflation.projection_matrix()
    thirtieths = (
        ((4, 2), (4, 12), (8, 4), (-4, 8)),
        ((-1, 2), (4, 2), (-2, 4), (6, -2)),
        ((5, 0), (0, 10), (10, 0), (-10, 10)),
        ((-2, 4), (8, 4), (-4, 8), (12, -4)),
    )
    for i in range(4):
        for j in range(4):
            a, b = thirtieths[i][j]
            assert P[i][j] == GR(a, b, 30)
    for i in range(4):
        for j in range(4):
            acc = sum((P[i][k] * P[k][j] for k in range(4)), ZERO)
            assert acc == P[i][j]

    err = _projection_err
    t2 = tau_pow(2)
    ratio = err(9) / err(10)
    assert abs(ratio - t2) <= t2 / 10

    # M^n = sum of lam^n Q over the eigenpairs, so E_n carries the three
    # subdominant terms exactly; Q_tau sets the decay constant.
    q_pf, q_tau, q_sigma, q_sigma3 = (
        _eigenprojector(lam, EIGENVALUES) for lam in EIGENVALUES)
    assert q_pf == [list(row) for row in P]
    assert _max_abs(q_tau) == DECAY_CONSTANT
    n = PUBLISHED_BOUND_N
    sign = (-1) ** n
    terms = ((tau_pow(-2 * n), q_tau), (sign * tau_pow(-4 * n), q_sigma),
             (sign * tau_pow(-6 * n), q_sigma3))
    E = _projection_error(n)
    for i in range(4):
        for j in range(4):
            assert E[i][j] == sum((c * Q[i][j] for c, Q in terms), ZERO)

    first = next((k for k in range(1, 41) if err(k) < PROJECTION_BOUND), None)
    assert first == FIRST_N_BELOW_BOUND, (
        f"published: err < 1e-6 at n = {PUBLISHED_BOUND_N}; "
        f"err({PUBLISHED_BOUND_N}) = {embed(err(PUBLISHED_BOUND_N)):.3e}")


def test_criterion_06_projection_oracle():
    """Criterion 6's figures, recomputed by sympy from the integer rows of M."""
    sp = pytest.importorskip("sympy")
    M = sp.Matrix(inflation.M.rows)
    I = sp.eye(4)
    eigs = list(M.eigenvals())
    pf = max(eigs, key=lambda e: e.evalf(40))
    tau = (1 + sp.sqrt(5)) / 2
    (lam_tau,) = [e for e in eigs if sp.expand(e - tau) == 0]

    def projector(lam):
        Q = I
        for mu in eigs:
            if mu != lam:
                Q = (Q * (M - mu * I) * sp.radsimp(1 / (lam - mu))).applyfunc(sp.expand)
        return Q

    def max_abs(A):
        return abs(max(A, key=lambda x: abs(x.evalf(40))))

    def as_sympy(x: GR):
        a, b = x.as_fraction_pair()
        return sp.Rational(a.numerator, a.denominator) + sp.Rational(
            b.numerator, b.denominator) * tau

    P = projector(pf)

    def err(n: int):
        return max_abs(((M ** n) * sp.radsimp(1 / pf) ** n - P).applyfunc(sp.expand))

    bound = sp.Rational(1, 10 ** 6)
    first = next(k for k in range(1, 41) if err(k).evalf(40) < bound)
    assert first == FIRST_N_BELOW_BOUND
    n = PUBLISHED_BOUND_N
    assert sp.expand(err(n) - as_sympy(_projection_err(n))) == 0
    assert sp.expand(max_abs(projector(lam_tau)) - as_sympy(DECAY_CONSTANT)) == 0


def test_criterion_07_ledger():
    entries = inflation.dodecahedron_ledger()
    assert len(entries) == 7
    for d in entries:
        rep = inflation.verify_decomposition(d)
        assert rep.count_consistent and rep.volume_consistent
    big = entries[-1]
    vol = sum((p.volume() for p in big.parts), ZERO)
    assert vol == GR(47287176, 76512258, 12)
    assert vol == tau_pow(30) * GR(24, 42, 12)
    for d in entries:
        for i, part in enumerate(d.parts):
            for delta in (-1, 1):
                if part.count + delta < 0:
                    continue
                bad = dataclasses.replace(part, count=part.count + delta)
                mutant = dataclasses.replace(
                    d, parts=d.parts[:i] + (bad,) + d.parts[i + 1:])
                assert not inflation.verify_decomposition(mutant).ok


def test_criterion_08_assemblies():
    d1 = assemble("d1")
    assert d1.mesh.counts() == (20, 30, 12)
    for i in range(12):
        assert len(d1.mesh.faces[i]) == 5
        corners = [d1.mesh.exact[j] for j in d1.mesh.faces[i]]
        normal = assembly._normal(*corners[:3])
        assert normal != ((0, 0),) * 3
        assert all(assembly._dot(assembly._sub(c, corners[0]), normal) == (0, 0)
                   for c in corners[3:])
        assert squared_edges(corners) == (1,) * 5
    assert abs(d1.mesh.volume() - d1.tile_volume_sum()) <= 1e-9
    assert d1.mesh.volume_exact() == GR(24, 42, 12)
    for rec in dihedrals(d1.mesh):
        assert rec.angle_class == "pi-atan2"
        assert abs(rec.angle - (math.pi - ATAN2)) <= 1e-9

    i1 = assemble("i1")
    assert i1.mesh.counts() == (12, 30, 20)
    for i in range(20):
        assert len(i1.mesh.faces[i]) == 3
        assert squared_edges(np.asarray(i1.mesh.exact)[list(i1.mesh.faces[i])]) == (1,) * 3
    assert i1.volume_exact() == GR(10, 10, 12)
    assert abs(i1.mesh.volume() - embed(GR(10, 10, 12))) <= 1e-9
    assert i1.mesh.volume_exact() == GR(10, 10, 12)

    for target in ("T1", "T2", "T3", "T4"):
        a = assemble(target)
        rec = catalog.record(target)
        assert a.mesh.counts() == (rec.N0, rec.N1, rec.N2)
        assert a.mesh.face_census() == expected_face_census(target)

    for target in ("E", "C", "T1", "T2", "T3", "T3bar", "T4"):
        for rec in dihedrals(assemble(target).mesh):
            assert rec.angle_class in ("atan2", "pi-atan2")
            off = min(abs(rec.angle - ATAN2),
                      abs(rec.angle - (math.pi - ATAN2)))
            assert off <= 1e-9


@pytest.mark.parametrize("target, axis, detail", [
    ("d1", 0, "d1 face 0 edges not unit"),  # vertex 0 moves inside face 0's plane
    ("d1", 1, "d1 face 0 not a planar pentagon"),
    ("d1", 2, "d1 face 0 not a planar pentagon"),
    ("i1", 0, "i1 face 0 not unit equilateral"),
])
def test_assemblies_check_decides_hull_exactly(monkeypatch, target, axis, detail):
    # hull vertex 0 moved by +1 in one doubled rational coordinate (+1/2)
    built = assemble(target)
    exact = np.asarray(built.mesh.exact).copy()
    exact[0, axis, 0] += 1
    mesh = assembly.Mesh(exact, built.mesh.faces, built.mesh.provenance)
    moved = dataclasses.replace(built, mesh=mesh)
    monkeypatch.setattr(geometry, "assemble",
                        lambda t: moved if t == target else assemble(t))
    assert checks._check_assemblies() == (False, detail)
    monkeypatch.setattr(geometry, "assemble", assemble)
    assert checks._check_assemblies()[0]


def test_assemblies_check_decides_volumes_exactly(monkeypatch):
    def inward(a):  # every hull face wound inward: the hull volume changes sign
        faces = tuple(f[::-1] for f in a.mesh.faces)
        return dataclasses.replace(a, mesh=assembly.Mesh(a.mesh.exact, faces, a.mesh.provenance))

    d1 = assemble("d1")
    assert d1.tiles[0].kind is not TileKind.t6
    relabeled = dataclasses.replace(
        d1, tiles=(dataclasses.replace(d1.tiles[0], kind="t6"),) + d1.tiles[1:])
    for target, moved, detail in (("d1", inward(d1), "d1 volume additivity"),
                                  ("d1", relabeled, "d1 volume vs exact"),
                                  ("i1", inward(assemble("i1")), "i1 volume additivity")):
        monkeypatch.setattr(geometry, "assemble",
                            lambda t: moved if t == target else assemble(t))
        assert checks._check_assemblies() == (False, detail)


def test_assemblies_check_decides_dihedrals_exactly(monkeypatch):
    # E replaced by the icosahedron, whose dihedral arccos(-sqrt(5)/3) is
    # neither atan 2 nor pi - atan 2
    monkeypatch.setattr(geometry, "assemble", lambda t: assemble("i1" if t == "E" else t))
    ok, detail = checks._check_assemblies()
    assert not ok and detail.startswith("E dihedral ")
    # the d1 check reads the exact class, not the float angle
    monkeypatch.setattr(geometry, "assemble", assemble)
    d1 = assemble("d1").mesh
    monkeypatch.setattr(geometry, "dihedrals", lambda mesh: [
        dataclasses.replace(r, angle_class="atan2") if mesh is d1 else r for r in dihedrals(mesh)])
    ok, detail = checks._check_assemblies()
    assert not ok and detail.startswith("d1 dihedral ")


def test_tile_volumes_check_reads_catalog_edge_lengths(monkeypatch):
    # t2 with BD = 1 instead of tau has the edges of t1
    t2 = catalog.record("t2")
    lengths = t2.edge_lengths[:4] + (GoldenRational(1),) + t2.edge_lengths[5:]
    monkeypatch.setitem(catalog._RECORDS, TileKind.t2,
                        dataclasses.replace(t2, edge_lengths=lengths))
    assert checks._check_tile_volumes() == (False, "t2: got 1/12, want tau/12")


def test_composite_volumes_check_reads_catalog(monkeypatch):
    t2 = catalog.record("T2")
    monkeypatch.setitem(catalog._RECORDS, TileKind.T2,
                        dataclasses.replace(t2, volume=t2.volume * 2))
    assert checks._check_composite_volumes() == (
        False, "T2: (1+2tau)/6 vs (1+2tau)/12")


def test_inflation_rules_check_fails_on_rows_and_volumes(monkeypatch):
    counts = inflation.inflate_counts
    # T3 inflated twice: row 3 of M^2
    monkeypatch.setattr(inflation, "inflate_counts", lambda c, n: counts(c, n + (c.c[2] == 1)))
    assert checks._check_inflation_rules() == (False, "row 3: (3, 9, 6, 4)")
    monkeypatch.setattr(inflation, "inflate_counts", counts)
    vols = inflation.composite_volumes()  # V_T4 replaced by V_T3
    monkeypatch.setattr(inflation, "composite_volumes", lambda: vols[:3] + (vols[2],))
    assert checks._check_inflation_rules() == (False, "volume balance fails for T1")


def test_ledger_check_failure_details(monkeypatch):
    entries = inflation.dodecahedron_ledger()
    monkeypatch.setattr(inflation, "dodecahedron_ledger", lambda: entries[:-1])
    assert checks._check_ledger() == (False, "6 entries")
    monkeypatch.setattr(inflation, "dodecahedron_ledger", lambda: entries)
    verify = inflation.verify_decomposition
    # the third entry with one count wrong
    monkeypatch.setattr(inflation, "verify_decomposition",
                        lambda d: verify(d.mutant() if d is entries[2] else d))
    assert checks._check_ledger() == (False, f"{entries[2].name} fails")
    # a verifier that passes everything misses the first mutation
    monkeypatch.setattr(inflation, "verify_decomposition",
                        lambda d: inflation.VerifyReport(True, True))
    assert checks._check_ledger() == (
        False, f"mutation of {entries[0].name} went undetected")


def test_inventories_check_fails_on_changed_inventory(monkeypatch):
    fund = catalog.inventory("d1-fundamental")
    counts = ((TileKind.t1, 4),) + fund.counts[1:]
    monkeypatch.setitem(catalog._INVENTORIES, "d1-fundamental",
                        catalog.Inventory("d1-fundamental", counts))
    assert checks._check_inventories() == (
        False, "composite dodecahedron expansion disagrees with tile inventory")


def test_spectrum_check_reads_m_rows(monkeypatch):
    monkeypatch.setattr(inflation.M, "rows",
                        ((1, 2, 2, 2), (0, 2, 1, 0), (1, 2, 1, 1), (1, 1, 1, 2)))
    assert checks._check_spectrum() == (False, "characteristic polynomial coefficients")


def test_inventories_check_failure_details(monkeypatch):
    total = catalog.total_volume
    for target, name, vol in (("d1-fundamental", "d1", GR(24, 42, 12)),
                              ("i1", "i1", GR(10, 10, 12))):
        # the catalog sums this inventory twice over
        monkeypatch.setattr(catalog, "total_volume", lambda inv, target=target:
                            total(inv) * (2 if inv.target == target else 1))
        assert checks._check_inventories() == (False, f"{name} volume {vol * 2}")
        # a typed value that agrees with the wrong sum is caught by the classical formula
        monkeypatch.setattr(checks, f"_{name.upper()}_VOLUME", vol * 2)
        assert checks._check_inventories() == (
            False, f"{name} volume does not match the classical formula")
        monkeypatch.setattr(checks, f"_{name.upper()}_VOLUME", vol)
        monkeypatch.setattr(catalog, "total_volume", total)
    assert checks._check_inventories()[0]


def test_spectrum_check_failure_details(monkeypatch):
    sd = inflation.pf_vectors()

    def serve(**changes):
        monkeypatch.setattr(inflation, "pf_vectors", lambda: dataclasses.replace(sd, **changes))

    lam = sd.eigenvalues[1] + 1e-6
    serve(eigenvalues=(sd.eigenvalues[0], lam) + sd.eigenvalues[2:])
    assert checks._check_spectrum() == (False, f"eigenvalue {lam}")
    right, left = sd.exact_right_pf, sd.exact_left_pf
    serve(exact_right_pf=right[:1] + (right[1] * 2,) + right[2:])
    assert checks._check_spectrum() == (False, "right eigenvector residual row 0")
    serve(exact_left_pf=left[:1] + (left[1] * 2,) + left[2:])
    assert checks._check_spectrum() == (False, "left eigenvector residual column 1")
    # the printed components have four digits; 1e-4 off is outside the 5e-5 band
    serve(right_pf=(0.3819,) + sd.right_pf[1:])
    assert checks._check_spectrum() == (False, "PF component 0.3819 vs printed 0.382")
    serve(left_pf=sd.left_pf[:3] + (0.1655,))
    assert checks._check_spectrum() == (False, "PF component 0.1655 vs printed 0.1654")
    serve()
    assert checks._check_spectrum()[0]


def test_run_checks_turns_a_crash_into_a_failure(monkeypatch):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(inflation, "char_poly", crash)
    assert checks.run_checks(("spectrum", "composite-volumes")) == [
        checks.CheckResult("composite-volumes", True,
                           "T1..T4 volumes equal (2tau^4, tau^3, 4tau+3, 2tau^3)/12"),
        checks.CheckResult("spectrum", False, "exception: RuntimeError('boom')"),
    ]


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError, match=r"^unknown checks: nonexistent, spectra; choose from"):
        checks.run_checks(("nonexistent", "ledger", "spectra"))
    assert len(checks.run_checks(("composite-volumes",))) == 1


def test_axis_classes_check_fails_on_wall_off_axis(monkeypatch):
    wall = assemble("d1").walls[0]
    monkeypatch.setattr(geometry, "axis_classes", lambda faces: [
        "two-fold" if c is wall.corners else got for c, got in zip(faces, axis_classes(faces))])
    assert checks._check_axis_classes() == (False, "d1: wall of t2-0 off-axis")
    # the expected axis of each wall family is the catalog's
    monkeypatch.setattr(geometry, "axis_classes", axis_classes)
    monkeypatch.setitem(catalog._FAMILY_AXIS, "robinson", "none")
    assert checks._check_axis_classes() == (False, "d1: unexpected wall family robinson")


def test_criterion_09_axis_classes():
    expect = {"equilateral": "three-fold", "robinson": "five-fold"}
    checked = Counter()
    for target in ("d1", "i1"):
        for wall in assemble(target).walls:
            family = triangle_family(squared_edges(wall.corners))
            assert family in expect
            assert face_axis_class(wall.corners) == expect[family]
            checked[target] += 1
    assert checked["d1"] > 0 and checked["i1"] > 0


def test_criterion_10_report_determinism():
    first = report.build_bundle()
    second = report.build_bundle()
    assert set(first) == set(second)
    for name in first:
        assert first[name].encode("utf-8") == second[name].encode("utf-8")
