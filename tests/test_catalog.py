"""Static tile catalog: records, censuses, inventories."""

from __future__ import annotations

import pytest

from icotile import catalog
from icotile.catalog import CATALOG_ORDER, TileKind
from icotile.golden import GoldenRational, tau_pow

TAU3 = tau_pow(3)


def test_catalog_order_and_size():
    kinds = [k.value for k in CATALOG_ORDER]
    assert kinds == ["t1", "t2", "t3", "t4", "t5", "t6",
                     "E", "C", "T1", "T2", "T3", "T4", "T3bar"]
    assert len(catalog.all_records()) == 13
    assert [r.kind for r in catalog.all_records()] == list(CATALOG_ORDER)


def test_fundamental_volumes():
    want = {
        "t1": GoldenRational(1, 0, 12),
        "t2": GoldenRational(0, 1, 12),
        "t3": GoldenRational(0, 1, 12),
        "t4": GoldenRational(1, 1, 12),
        "t5": GoldenRational(1, 1, 12),
        "t6": GoldenRational(1, 2, 12),
    }
    for name, vol in want.items():
        rec = catalog.record(name)
        assert rec.kind.is_fundamental
        assert rec.volume == vol
        assert rec.composition == ()
        assert sum(f.multiplicity for f in rec.faces) == 4


def test_volumes_derive_from_edge_lengths(monkeypatch):
    # the regular unit tetrahedron: 36 V^2 = 36 * 2/144
    assert catalog.gram_determinant([GoldenRational(1)] * 6) == GoldenRational(1, 0, 2)
    # t2 given the edges of t1: its volume and that of T2 = t2 + t4 follow
    monkeypatch.setitem(catalog._EDGE_LENGTHS, TileKind.t2,
                        catalog._EDGE_LENGTHS[TileKind.t1])
    recs = catalog._records()
    assert recs[TileKind.t2].volume == GoldenRational(1, 0, 12)
    assert recs[TileKind.T2].volume == (1 + tau_pow(2)) / 12
    assert recs[TileKind.t1].volume == catalog.record("t1").volume


def test_fundamental_face_censuses():
    def census(name):
        rec = catalog.record(name)
        return sorted((f.edge_names(), f.multiplicity) for f in rec.faces)

    assert census("t1") == [("(1,1,1)", 2), ("(1,1,tau)", 2)]
    assert census("t2") == [("(1,1,1)", 1), ("(1,1,tau)", 2), ("(1,tau,tau)", 1)]
    assert census("t3") == [("(1,1,tau)", 3), ("(tau,tau,tau)", 1)]
    assert census("t4") == [("(1,1,1)", 1), ("(1,tau,tau)", 3)]
    assert census("t5") == [("(1,1,tau)", 1), ("(1,tau,tau)", 2), ("(tau,tau,tau)", 1)]
    assert census("t6") == [("(1,tau,tau)", 2), ("(tau,tau,tau)", 2)]


def test_composite_volumes_match_compositions():
    want = {
        "E": GoldenRational(3, 2, 12),
        "C": GoldenRational(1, 4, 12),
        "T1": tau_pow(4) * 2 / 12,
        "T2": TAU3 / 12,
        "T3": GoldenRational(3, 4, 12),
        "T4": TAU3 * 2 / 12,
        "T3bar": GoldenRational(3, 4, 12),
    }
    for name, vol in want.items():
        rec = catalog.record(name)
        assert rec.volume == vol
        assert rec.volume == catalog.total_volume(rec.composition_dict())


def test_compositions():
    comp = {k.value: catalog.record(k).composition_dict() for k in CATALOG_ORDER
            if not catalog.record(k).kind.is_fundamental}
    as_names = {k: {t.value: n for t, n in v.items()} for k, v in comp.items()}
    assert as_names["E"] == {"t1": 1, "t4": 2}
    assert as_names["C"] == {"t3": 2, "t6": 1}
    assert as_names["T1"] == {"E": 1, "C": 1}
    assert as_names["T2"] == {"t2": 1, "t4": 1}
    assert as_names["T3"] == {"t5": 2, "t6": 1}
    assert as_names["T3bar"] == {"t5": 2, "t6": 1}
    assert as_names["T4"] == {"t3": 1, "t5": 1, "t6": 1}


def test_euler_characteristic():
    for name in ("E", "C", "T1", "T2", "T3", "T4", "T3bar"):
        rec = catalog.record(name)
        assert rec.N0 - rec.N1 + rec.N2 == 2
        assert sum(f.multiplicity for f in rec.faces) == rec.N2


def test_table2_counts():
    want = {
        "E": (6, 12, 8), "C": (6, 12, 8), "T1": (8, 14, 8),
        "T2": (4, 6, 4), "T3": (6, 10, 6), "T4": (6, 11, 7),
        "T3bar": (6, 10, 6),
    }
    for name, (n0, n1, n2) in want.items():
        rec = catalog.record(name)
        assert (rec.N0, rec.N1, rec.N2) == (n0, n1, n2)


def test_axis_classes_on_faces():
    for rec in catalog.all_records():
        for face in rec.faces:
            names = face.edge_names()
            if names == "(1,1,1)" or names == "(tau,tau,tau)":
                assert face.axis_class == "three-fold"
            elif names in ("(1,1,tau)", "(1,tau,tau)"):
                assert face.axis_class == "five-fold"


def test_premerge_triangle_bookkeeping():
    # gluing two tetrahedra along one triangle leaves 4 + 4 - 2 of them
    t2 = catalog.record("T2")
    assert sum(f.multiplicity for f in t2.premerge_triangles) == 6
    want = {
        "E": 8, "C": 8, "T1": 12, "T2": 6, "T3": 8, "T4": 8, "T3bar": 8,
    }
    for name, n in want.items():
        rec = catalog.record(name)
        tris = sum(f.multiplicity for f in rec.premerge_triangles)
        expanded = catalog.expand_to_fundamental(rec.composition_dict())
        tets = sum(expanded.values())
        assert tris == n
        # each internal glue joint hides two triangles; a connected
        # assembly of k tetrahedra has at least k-1 joints
        joints, rem = divmod(4 * tets - tris, 2)
        assert rem == 0
        assert joints >= tets - 1


def test_expand_to_fundamental():
    comp = catalog.inventory("d1-composite")
    fund = catalog.inventory("d1-fundamental")
    expanded = catalog.expand_to_fundamental(comp)
    assert expanded == fund.counts_dict()
    named = {k.value: n for k, n in expanded.items()}
    assert named == {"t1": 3, "t2": 4, "t3": 10, "t4": 10, "t5": 4, "t6": 7}
    assert sum(named.values()) == 38


def test_inventories_and_volumes():
    i1 = catalog.inventory("i1")
    named = {k.value: n for k, n in i1.counts_dict().items()}
    assert named == {"t1": 7, "t2": 6, "t5": 2, "t6": 1}
    assert catalog.total_volume(i1) == GoldenRational(10, 10, 12)

    itau = catalog.inventory("itau")
    named_tau = {k.value: n for k, n in itau.counts_dict().items()}
    assert named_tau == {"t1": 1, "t2": 8, "t3": 10, "t4": 10, "t5": 16, "t6": 3}
    assert catalog.total_volume(itau) == TAU3 * catalog.total_volume(i1)

    d1 = catalog.inventory("d1-fundamental")
    assert catalog.total_volume(d1) == GoldenRational(24, 42, 12)

    dtau = catalog.inventory("dtau-composite")
    named_d = {k.value: n for k, n in dtau.counts_dict().items()}
    assert named_d == {"T1": 7, "T2": 18, "T3": 14, "T4": 10}
    assert catalog.total_volume(dtau) == GoldenRational(108, 174, 12)
    assert catalog.total_volume(dtau) == TAU3 * catalog.total_volume(d1)


def test_unknown_names_rejected():
    with pytest.raises((KeyError, ValueError)):
        catalog.record("t7")
    with pytest.raises(KeyError):
        catalog.inventory("nonsense")


class _Name(str):
    pass


class _Pairs:
    """A mapping reduced to items(), so an unhashable kind reaches total_volume."""

    def __init__(self, *pairs):
        self.pairs = pairs

    def items(self):
        return self.pairs


def _outcome(fn, x):
    try:
        return fn(x)
    except Exception as exc:  # the type is what must match
        return type(exc)


@pytest.mark.parametrize("x", [*TileKind, *(k.value for k in TileKind),
                               "t7", "", 1, None, ["t1"], _Name("t3"), _Name("T3bar"),
                               _Name("t7")], ids=repr)
def test_kind_lookup_matches_the_enum_call(x):
    from icotile.geometry.assembly import _fundamental
    want = _outcome(TileKind, x)
    assert _outcome(catalog.tile_kind, x) is want
    for fn in (catalog.record, catalog.edge_scheme, _fundamental,
               lambda k: catalog.total_volume(_Pairs((k, 2)))):
        assert _outcome(fn, x) == (want if isinstance(want, type) else _outcome(fn, want)), fn
    if not isinstance(want, type) and not want.is_fundamental:
        with pytest.raises(ValueError, match=rf"^{want.value} is not a fundamental tile \(t1..t6\)$"):
            _fundamental(x)


@pytest.mark.parametrize("kind, lengths, detail", [
    # six unit edges: the regular tetrahedron, V^2 = 1/72 is not a square in Q(tau)
    ("t2", (1,) * 6, r"t2: volume is not in Q\(tau\) \(V\^2 = 1/72\)"),
    # four collinear points at 0, 1, 2 and 3
    ("t5", (1, 2, 3, 1, 2, 1), r"t5: degenerate edge scheme"),
    ("t1", (0, 1, 1, 1, 1, 1), r"t1: squared edge ab must be positive"),
], ids=["not-in-q-tau", "flat", "zero-edge"])
def test_records_name_a_tile_without_a_volume(monkeypatch, kind, lengths, detail):
    monkeypatch.setitem(catalog._EDGE_LENGTHS, TileKind(kind),
                        tuple(GoldenRational(n) for n in lengths))
    with pytest.raises(ValueError, match=f"^{detail}"):
        catalog._records()


def test_counts_are_nonnegative_integers():
    for count in (1.5, 2.0, "1"):
        with pytest.raises(TypeError):
            catalog.total_volume({"T1": count})
        with pytest.raises(TypeError):
            catalog.expand_to_fundamental({"T1": count})
    for fn in (catalog.total_volume, catalog.expand_to_fundamental):
        with pytest.raises(ValueError, match="nonnegative"):
            fn({"T1": -1})
    with pytest.raises(TypeError):
        catalog.Inventory("x", ((TileKind.T1, 1.5),))
    assert catalog.total_volume({"T1": 0, "t1": 1}) == GoldenRational(1, 0, 12)
    assert catalog.expand_to_fundamental({"T2": 0}) == {TileKind.t2: 0, TileKind.t4: 0}


def test_record_json_shape():
    blob = catalog.record("T4").to_json()
    assert blob["kind"] == "T4"
    assert blob["N0"] == 6 and blob["N1"] == 11 and blob["N2"] == 7
    assert blob["composition"] == {"t3": 1, "t5": 1, "t6": 1}
    assert {f["shape"] for f in blob["faces"]} <= {"triangle", "trapezoid", "pentagon"}
    t1 = catalog.record("t1").to_json()
    assert "N0" not in t1
    assert t1["volume"] == {"a": "1", "b": "0", "den": "12"}
