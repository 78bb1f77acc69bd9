"""The frozen records: equality, hash, repr, frozenness and _replace, as the
frozen dataclasses they replace had them, and dataclasses.replace and
dataclasses.fields on every record, the ledger's too, through the record
base's adapter."""

from __future__ import annotations

import dataclasses
import hashlib
import subprocess
import sys

import pytest

from icotile import catalog, checks, inflation
from icotile.catalog import ASSEMBLY_TARGETS
from icotile.geometry import Dihedral, Mesh, PlacedTile, assemble, dihedrals
from icotile.golden import ONE, TAU

_T2_POINTS = (((0, 1), (0, 1), (0, 1)), ((1, 0), (0, 0), (1, 1)),
              ((0, -1), (0, 1), (0, 1)), ((0, 0), (-1, 1), (1, 0)))


def test_value_records_equal_hash_and_repr_by_their_fields():
    counts = inflation.CountVector((1, 2, 3, 4))
    assert repr(counts) == "CountVector(c=(1, 2, 3, 4))"
    assert hash(counts) == 2814724836626996230 == hash(((1, 2, 3, 4),))
    assert counts == inflation.CountVector([1, 2, 3, 4]) != inflation.CountVector((1, 2, 3, 5))
    assert counts != (1, 2, 3, 4) and counts.c == (1, 2, 3, 4)

    face = catalog.FaceSpec("triangle", (ONE, ONE, TAU), 2)
    assert repr(face) == ("FaceSpec(shape='triangle', edges=(GoldenRational(1, 0, 1), "
                          "GoldenRational(1, 0, 1), GoldenRational(0, 1, 1)), multiplicity=2)")
    assert face == catalog.FaceSpec("triangle", (ONE, ONE, TAU), multiplicity=2)
    assert hash(face) == hash(("triangle", (ONE, ONE, TAU), 2))
    assert catalog.FaceSpec("triangle", (ONE, ONE, TAU)).multiplicity == 1  # the default

    dihedral = Dihedral((0, 1), (2, 3), 1.5, "atan2")
    assert repr(dihedral) == "Dihedral(edge=(0, 1), faces=(2, 3), angle=1.5, angle_class='atan2')"
    assert dihedral == Dihedral((0, 1), (2, 3), 1.5, "atan2")
    assert dihedral != Dihedral((0, 1), (2, 3), 1.5, None)
    assert hash(dihedral) == hash(((0, 1), (2, 3), 1.5, "atan2"))

    result = checks.CheckResult("x", True, "ok")
    assert repr(result) == "CheckResult(name='x', ok=True, detail='ok')"
    assert result == checks.CheckResult(name="x", ok=True, detail="ok")
    assert hash(result) == hash(("x", True, "ok"))


def test_records_repr_as_the_dataclasses_did():
    # sha256 of these reprs under the frozen dataclasses: every catalog record
    # and inventory, every build (PlacedTile, Mesh, Assembly), d1's dihedrals,
    # the spectral data and one check's result
    text = "\n".join([*map(repr, catalog.all_records()),
                      *(repr(catalog.inventory(t)) for t in catalog.INVENTORY_TARGETS),
                      *(repr(assemble(t)) for t in ASSEMBLY_TARGETS),
                      *map(repr, dihedrals(assemble("d1").mesh)),
                      repr(inflation.pf_vectors()), repr(checks.run_checks(("ledger",)))])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "6b458077aae4ea07ec507471ab10d805bc1ceecc9e1895cc9323cbcb43b65cf4")


def test_identity_records_compare_by_identity():
    tile = PlacedTile("t2", _T2_POINTS, "a")
    twin = PlacedTile("t2", _T2_POINTS, "a")
    assert repr(tile) == repr(twin) == (
        f"PlacedTile(kind=<TileKind.t2: 't2'>, exact={_T2_POINTS}, name='a', parity=1)")
    assert tile == tile and tile != twin and hash(tile) == object.__hash__(tile)
    mesh = Mesh(_T2_POINTS, ((0, 1, 2),), (("a",),))
    assert repr(mesh) == f"Mesh(exact={_T2_POINTS}, faces=((0, 1, 2),), provenance=(('a',),))"
    assert mesh != Mesh(_T2_POINTS, ((0, 1, 2),), (("a",),))
    assert assemble("T2") is assemble("T2") and assemble("T2") != assemble("T2")._replace()


@pytest.mark.parametrize("record, field", [
    (inflation.CountVector((1, 2, 3, 4)), "c"),
    (catalog.record("t1"), "volume"),
    (PlacedTile("t2", _T2_POINTS), "parity"),
    (checks.CheckResult("x", True, "ok"), "ok"),
])
def test_records_are_frozen(record, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(record, field)
    with pytest.raises(AttributeError):  # FrozenInstanceError is one
        record.other = 1


def test_replace_reruns_the_constructors_checks():
    counts = inflation.CountVector((1, 2, 3, 4))
    assert counts._replace(c=[4, 3, 2, 1]) == inflation.CountVector((4, 3, 2, 1))
    assert counts._replace() == counts and counts._replace() is not counts
    with pytest.raises(ValueError, match="nonnegative"):
        counts._replace(c=(1, -2, 3, 4))
    with pytest.raises(TypeError):  # index, not int
        counts._replace(c=(1.0, 2, 3, 4))
    face = catalog.FaceSpec("triangle", (ONE, ONE, TAU))
    with pytest.raises(ValueError, match="multiplicity"):
        face._replace(multiplicity=0)
    with pytest.raises(ValueError, match="Euler"):
        catalog.record("T2")._replace(N0=5)
    tile = PlacedTile("t2", _T2_POINTS, "a")
    swapped = (_T2_POINTS[1], _T2_POINTS[0], *_T2_POINTS[2:])
    assert tile._replace(exact=swapped).parity == -tile.parity
    with pytest.raises(ValueError, match="fundamental"):
        tile._replace(kind="E")
    with pytest.raises(ValueError, match="flat"):
        tile._replace(exact=(_T2_POINTS[0],) * 4)
    with pytest.raises(TypeError):  # parity is derived, not an argument
        tile._replace(parity=1)


def test_constructors_refuse_malformed_fields():
    # each public record's constructor names what is wrong with its fields
    with pytest.raises(ValueError, match="^unknown face shape 'hexagon'$"):
        catalog.FaceSpec("hexagon", (ONE,) * 6)
    with pytest.raises(ValueError, match="^trapezoid needs 4 edges$"):
        catalog.FaceSpec("trapezoid", (ONE, ONE, TAU))
    t2 = catalog.record("T2")
    for field in ("N0", "N1", "N2"):
        with pytest.raises(ValueError, match="^T2: composite records need N0/N1/N2$"):
            t2._replace(**{field: None})
    assert catalog.record("t2")._replace(N0=None).N0 is None  # a fundamental tile has none
    for count in (0, -3):
        with pytest.raises(ValueError, match="^d1: count for t1 must be positive$"):
            catalog.Inventory("d1", ((catalog.TileKind.t2, 1), (catalog.TileKind.t1, count)))
    for points in (_T2_POINTS[:3], _T2_POINTS + _T2_POINTS[:1]):
        with pytest.raises(ValueError, match=rf"^a tile has 4 vertices of 3 doubled pairs, "
                                             rf"not {len(points)}$"):
            PlacedTile("t2", points, "a")


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # c missing
    (((1, 2, 3, 4), 5), {}),  # too many
    (((1, 2, 3, 4),), {"c": (1, 2, 3, 4)}),  # c twice
    ((), {"d": (1, 2, 3, 4)}),  # no such field, c missing
    (((1, 2, 3, 4),), {"d": 1}),  # no such field
])
def test_constructor_takes_exactly_its_fields(args, kwargs):
    with pytest.raises(TypeError):
        inflation.CountVector(*args, **kwargs)


@pytest.mark.parametrize("record, changes", [
    (inflation.CountVector((1, 2, 3, 4)), {"c": [4, 3, 2, 1]}),
    (catalog.FaceSpec("triangle", (ONE, ONE, TAU)), {"multiplicity": 2}),
    (Dihedral((0, 1), (2, 3), 1.5, "atan2"), {"angle_class": None}),
    (checks.CheckResult("x", True, "ok"), {"ok": False, "detail": "no"}),
    (inflation.Part("T2", 1, 2), {"order": 3}),
    (inflation.Part("T2", 1, 2), {}),
])
def test_dataclasses_replace_is_replace(record, changes):
    got = dataclasses.replace(record, **changes)
    assert type(got) is type(record) and got is not record
    assert got == record._replace(**changes) and repr(got) == repr(record._replace(**changes))


def test_dataclasses_fields_are_each_classs_own():
    # the fields are made per class on the first read, whichever class comes
    # first; a derived field (PlacedTile's parity) is no constructor field
    tile = PlacedTile("t2", _T2_POINTS, "a")
    for _ in range(2):
        assert [f.name for f in dataclasses.fields(inflation.Part)] == ["block", "order", "count"]
        assert [f.name for f in dataclasses.fields(tile)] == ["kind", "exact", "name"]
    assert dataclasses.is_dataclass(tile) and not dataclasses.is_dataclass(catalog._Record)
    swapped = (_T2_POINTS[1], _T2_POINTS[0], *_T2_POINTS[2:])
    assert dataclasses.replace(tile, exact=swapped).parity == -tile.parity
    with pytest.raises(TypeError):  # parity is derived, as _replace refuses it
        dataclasses.replace(tile, parity=1)


def test_ledger_loads_no_dataclasses():
    # reading and verifying every ledger entry, and a mutant, in a fresh
    # process loads neither dataclasses nor the inspect that it loads
    code = """
import sys
from icotile import inflation
entries = inflation.dodecahedron_ledger()
assert len(entries) == 7 and all(inflation.verify_decomposition(d).ok for d in entries)
assert not inflation.verify_decomposition(entries[0].mutant()).ok
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_ledger_records_take_dataclasses_replace():
    # the benchmark harness mutates ledger entries with dataclasses.replace
    entry = inflation.dodecahedron_ledger()[0]
    part = entry.parts[0]
    assert type(entry) is inflation.Decomposition and type(part) is inflation.Part
    bumped = dataclasses.replace(part, count=part.count + 1)
    assert type(bumped) is inflation.Part and bumped.count == part.count + 1
    mutant = dataclasses.replace(entry, parts=(bumped,) + entry.parts[1:])
    assert mutant == entry.mutant() and not inflation.verify_decomposition(mutant).ok
    with pytest.raises(ValueError, match="negative count"):
        dataclasses.replace(part, count=-1)
    with pytest.raises(ValueError, match="negative count"):
        part._replace(count=-1)
    report = inflation.verify_decomposition(entry)
    assert report == inflation.VerifyReport(True, True) and report.ok
    assert repr(report) == "VerifyReport(count_consistent=True, volume_consistent=True)"
