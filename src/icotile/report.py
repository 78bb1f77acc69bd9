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
from .golden import embed

__all__ = ["build_bundle"]

_FUNDAMENTALS = [k for k in catalog.CATALOG_ORDER if k.is_fundamental]
_COMPOSITES = [k for k in catalog.CATALOG_ORDER if not k.is_fundamental]


def _csv(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _tile_table(kinds, counts=()) -> str:
    """One row per tile kind: its name, the record's counts fields, faces and volume."""
    rows = [["tile", *counts, "faces", "volume", "volume_float"]]
    for kind in kinds:
        rec = catalog.record(kind)
        rows.append([kind.value, *(getattr(rec, c) for c in counts), rec.faces_text(),
                     catalog.format_volume(rec.volume), f"{embed(rec.volume):.17g}"])
    return _csv(rows)


def _square_table(matrix) -> str:
    """A 4x4 matrix, one row per composite tile T1..T4."""
    return _csv([["tile", "T1", "T2", "T3", "T4"]]
                + [[kind.value, *row] for kind, row in zip(inflation.COMPOSITE_ORDER, matrix)])


def _markdown() -> str:
    from .geometry import assemble

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
        "table1.csv": _tile_table(_FUNDAMENTALS),
        "table2.csv": _tile_table(_COMPOSITES, ("N0", "N1", "N2")),
        "inflation_matrix.csv": _square_table(inflation.M.rows),
        "projection.csv": _square_table(inflation.projection_matrix()),
    }
