"""Deterministic report bundle: markdown summary plus CSV tables.

build_bundle() returns {filename: content} with no timestamps, hashes or
environment data, so two runs produce byte-identical files.  All exact
values are rendered from canonical GoldenRationals; floats are fixed at
7 decimal places in prose and 17 significant digits in CSV numeric
columns.
"""

from __future__ import annotations

import csv
import io

from . import catalog, inflation
from .geometry import assemble
from .golden import GoldenRational, embed, tau_pow

__all__ = ["build_bundle", "format_volume"]

_FUNDAMENTALS = [k for k in catalog.CATALOG_ORDER if k.is_fundamental]
_COMPOSITES = [k for k in catalog.CATALOG_ORDER if not k.is_fundamental]


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


def _faces_cell(record: catalog.TileRecord) -> str:
    return ";".join(f"{f.multiplicity}x{f.edge_names()}" for f in record.faces)


def _csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _table1() -> str:
    rows = [["tile", "faces", "volume", "volume_float"]]
    for kind in _FUNDAMENTALS:
        rec = catalog.record(kind)
        rows.append([kind.value, _faces_cell(rec), format_volume(rec.volume),
                     f"{embed(rec.volume):.17g}"])
    return _csv(rows)


def _table2() -> str:
    rows = [["tile", "N0", "N1", "N2", "faces", "volume", "volume_float"]]
    for kind in _COMPOSITES:
        rec = catalog.record(kind)
        rows.append([kind.value, rec.N0, rec.N1, rec.N2, _faces_cell(rec),
                     format_volume(rec.volume), f"{embed(rec.volume):.17g}"])
    return _csv(rows)


def _matrix_csv() -> str:
    rows = [["tile", "T1", "T2", "T3", "T4"]]
    for i, kind in enumerate(inflation.COMPOSITE_ORDER):
        rows.append([kind.value] + [inflation.M.rows[i][j] for j in range(4)])
    return _csv(rows)


def _projection_csv() -> str:
    proj = inflation.projection_matrix()
    rows = [["tile", "T1", "T2", "T3", "T4"]]
    for i, kind in enumerate(inflation.COMPOSITE_ORDER):
        rows.append([kind.value] + [str(x) for x in proj[i]])
    return _csv(rows)


def _markdown() -> str:
    sd = inflation.pf_vectors()
    lines = [
        "# Tiling system report",
        "",
        "Exact data for the six fundamental tetrahedra, the seven composite",
        "tiles, the inflation matrix and its spectral structure.  All exact",
        "columns are canonical golden rationals (a+b*tau)/den.",
        "",
        "## Files",
        "",
        "- `table1.csv`: fundamental tiles. Columns: tile, faces",
        "  (multiplicity x edge lengths), volume (exact), volume_float.",
        "- `table2.csv`: composite tiles. Columns: tile, N0, N1, N2 (vertex,",
        "  edge, face counts), faces, volume (exact), volume_float.",
        "- `inflation_matrix.csv`: the substitution matrix; row i lists how",
        "  many of each composite tile fill the tau-scaled tile i.",
        "- `projection.csv`: exact limit of tau^(-3n) M^n (rank-1 projector",
        "  onto the volume eigenvector).",
        "",
        "## Spectrum",
        "",
        "characteristic polynomial: " + inflation.format_poly(inflation.char_poly()),
        "",
        "eigenvalues: " + ", ".join(f"{x:.7f}" for x in sd.eigenvalues),
        "",
        "## Frequencies",
        "",
        "right PF, volume fractions (4 dp): "
        + ", ".join(f"{x:.4f}" for x in sd.right_pf),
        "",
        "left PF, tile frequencies (4 dp): "
        + ", ".join(f"{x:.4f}" for x in sd.left_pf),
        "",
        "right PF (7 dp): " + ", ".join(f"{x:.7f}" for x in sd.right_pf),
        "",
        "left PF (7 dp): " + ", ".join(f"{x:.7f}" for x in sd.left_pf),
        "",
        "## Dodecahedral ledger",
        "",
    ]
    for entry in inflation.dodecahedron_ledger():
        rep = inflation.verify_decomposition(entry)
        status = "OK" if rep.ok else "FAIL"
        lines.append(f"- {status} {entry.describe()}")
    lines += [
        "",
        "## Assemblies",
        "",
    ]
    for target in ("d1", "i1"):
        a = assemble(target)
        n0, n1, n2 = a.mesh.counts()
        lines.append(
            f"- {target}: {len(a.tiles)} tetrahedra; hull {n0} vertices, "
            f"{n1} edges, {n2} faces; volume {a.mesh.volume():.7f}")
    lines.append("")
    return "\n".join(lines)


def build_bundle() -> dict[str, str]:
    """All report files as {name: content}, byte-stable across runs."""
    return {
        "report.md": _markdown(),
        "table1.csv": _table1(),
        "table2.csv": _table2(),
        "inflation_matrix.csv": _matrix_csv(),
        "projection.csv": _projection_csv(),
    }
