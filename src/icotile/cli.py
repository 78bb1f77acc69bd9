"""Command-line surface.

Seven subcommands: catalog, inflate, eigen, ledger, build, verify,
report.  Every command accepts --json for machine output.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import catalog, checks, inflation, report
from .geometry import ASSEMBLY_TARGETS, assemble, export_obj, export_patch
from .golden import embed, embed_decimal

__all__ = ["main", "RunConfig", "canonical_json"]

_FACE_WORDS = {3: "triangular", 4: "quadrilateral", 5: "pentagonal", 6: "hexagonal"}


@dataclass(frozen=True)
class RunConfig:
    """Global knobs, settable by flag or ICOTILE_* environment variable."""

    max_order: int = 50
    output_path: str | None = None


def canonical_json(obj) -> str:
    """Deterministic JSON text: 2-space indent, floats at 17 significant
    digits, keys in construction order.  Parsing then re-emitting the
    result reproduces it byte for byte."""
    def emit(x, pad: str) -> str:
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, int):
            return str(x)
        if isinstance(x, float):
            return f"{x:.17g}"
        if isinstance(x, str):
            return json.dumps(x)
        if x is None:
            return "null"
        if isinstance(x, dict):
            if not x:
                return "{}"
            inner = ",\n".join(
                f"{pad}  {json.dumps(str(k))}: {emit(v, pad + '  ')}"
                for k, v in x.items())
            return "{\n" + inner + "\n" + pad + "}"
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            inner = ",\n".join(f"{pad}  {emit(v, pad + '  ')}" for v in x)
            return "[\n" + inner + "\n" + pad + "]"
        raise TypeError(f"not JSON-serializable: {type(x).__name__}")

    return emit(obj, "")


def _echo_json(obj) -> None:
    click.echo(canonical_json(obj))


def _non_negative(ctx, param, value):
    if value < 0:
        raise click.BadParameter("must be non-negative")
    return value


@click.group(context_settings={
    "auto_envvar_prefix": "ICOTILE",
    "help_option_names": ["-h", "--help"],
})
@click.option("--max-order", type=int, default=50, show_default=True,
              callback=_non_negative, help="Largest accepted inflation order.")
@click.option("--output-path", type=click.Path(), default=None,
              help="Default destination for build and report output.")
@click.pass_context
def main(ctx, max_order, output_path):
    """Exact golden-ratio tiling toolkit.

    Tile catalog, tau-inflation counts, spectral data, decomposition
    ledger, 3D assembly export, self-verification and report bundles.
    """
    # inflation counts and volumes are printed in full, whatever their length
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    ctx.obj = RunConfig(max_order=max_order, output_path=output_path)


@main.command("catalog")
@click.argument("mode", required=False, type=click.Choice(["dump"]))
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_catalog(mode, as_json):
    """List the thirteen tile records (MODE `dump` forces JSON)."""
    records = catalog.all_records()
    if as_json or mode == "dump":
        _echo_json([rec.to_json() for rec in records])
        return
    header = f"{'tile':6} {'volume':14} {'volume_float':14} faces"
    click.echo(header)
    for rec in records:
        faces = ";".join(f"{f.multiplicity}x{f.edge_names()}" for f in rec.faces)
        click.echo(f"{rec.kind.value:6} {report.format_volume(rec.volume):14} "
                   f"{embed(rec.volume):<14.7f} {faces}")


_INFLATE_BASES = {
    "T1": inflation.CountVector.unit(0),
    "T2": inflation.CountVector.unit(1),
    "T3": inflation.CountVector.unit(2),
    "T4": inflation.CountVector.unit(3),
    "d1": inflation.D1_COUNTS,
    "dtau": inflation.DTAU_COUNTS,
}


@main.command("inflate")
@click.option("--tile", required=True,
              type=click.Choice(sorted(_INFLATE_BASES)),
              help="Starting patch: one composite tile or a dodecahedron.")
@click.option("--order", required=True, type=int, help="Inflation power n.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@click.pass_obj
def cmd_inflate(cfg: RunConfig, tile, order, as_json):
    """Composite-tile counts after n rounds of tau-inflation."""
    if order < 0:
        raise click.UsageError("--order must be non-negative")
    if order > cfg.max_order:
        raise click.UsageError(
            f"--order {order} exceeds --max-order {cfg.max_order}")
    counts = inflation.inflate_counts(_INFLATE_BASES[tile], order)
    volume = counts.total_volume()
    try:
        approx = embed(volume)
        approx_text = f"{approx:.7f}"
    except OverflowError:
        # beyond float range: scientific-notation strings instead
        big = embed_decimal(volume)
        approx, approx_text = format(big, ".16e"), format(big, ".7e")
    if as_json:
        _echo_json({
            "counts": list(counts.c),
            "volume": volume.to_json(),
            "volume_float": approx,
        })
        return
    click.echo(f"counts: {' '.join(str(c) for c in counts.c)}")
    click.echo(f"volume: {volume} = {approx_text}")


@main.command("eigen")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def cmd_eigen(as_json):
    """Spectral data of the inflation matrix."""
    sd = inflation.pf_vectors()
    if as_json:
        _echo_json(sd.to_json())
        return
    click.echo(f"characteristic polynomial: {inflation.format_poly(inflation.char_poly())}")
    click.echo("eigenvalues: " + ", ".join(f"{x:.7f}" for x in sd.eigenvalues))
    click.echo("right PF (L1): " + ", ".join(f"{x:.7f}" for x in sd.right_pf))
    click.echo("left PF (L1): " + ", ".join(f"{x:.7f}" for x in sd.left_pf))


@main.command("ledger")
@click.option("--verify", "do_verify", is_flag=True,
              help="Re-verify each entry; print one status line per entry.")
@click.option("--corrupt", is_flag=True, hidden=True)
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@click.pass_context
def cmd_ledger(ctx, do_verify, corrupt, as_json):
    """The recorded dodecahedral decompositions."""
    entries = list(inflation.dodecahedron_ledger())
    if corrupt:
        first = entries[0]
        bad = dataclasses.replace(first.parts[0], count=first.parts[0].count + 1)
        entries[0] = dataclasses.replace(first, parts=(bad,) + first.parts[1:])
    results = [(d, inflation.verify_decomposition(d)) for d in entries]
    all_ok = all(rep.ok for _, rep in results)
    if as_json:
        _echo_json({
            "entries": [
                {
                    "name": d.name,
                    "statement": d.describe(),
                    "count_consistent": rep.count_consistent,
                    "volume_consistent": rep.volume_consistent,
                    "ok": rep.ok,
                }
                for d, rep in results
            ],
            "ok": all_ok,
        })
    elif do_verify:
        for d, rep in results:
            click.echo(f"{'OK' if rep.ok else 'FAIL'} {d.name}")
    else:
        for d, rep in results:
            status = "" if rep.ok else "  [FAILS]"
            click.echo(d.describe() + status)
    if not all_ok:
        ctx.exit(1)


def _face_breakdown(mesh) -> str:
    sizes: dict[int, int] = {}
    for face in mesh.faces:
        sizes[len(face)] = sizes.get(len(face), 0) + 1
    parts = [f"{n} {_FACE_WORDS.get(k, f'{k}-sided')}"
             for k, n in sorted(sizes.items())]
    if len(parts) == 1:
        return f"{parts[0]} faces"
    total = sum(sizes.values())
    return f"{total} faces ({', '.join(parts)})"


@main.command("build")
@click.option("--shape", required=True, type=click.Choice(ASSEMBLY_TARGETS),
              help="Assembly target.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write mesh here (.obj wavefront or .json patch).")
@click.option("--json", "as_json", is_flag=True, help="Emit the patch as JSON.")
@click.pass_obj
def cmd_build(cfg: RunConfig, shape, out, as_json):
    """Assemble a shape from tetrahedra and export its mesh."""
    asm = assemble(shape)
    if out is None and cfg.output_path:
        out = cfg.output_path
    if out is not None:
        path = Path(out)
        if path.suffix == ".obj":
            payload = export_obj(asm)
        elif path.suffix == ".json":
            payload = canonical_json(export_patch(asm)) + "\n"
        else:
            raise click.UsageError("--out must end in .obj or .json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload, encoding="utf-8", newline="")
    if as_json:
        _echo_json(export_patch(asm))
        return
    n0, n1, _ = asm.mesh.counts()
    click.echo(f"{shape}: {len(asm.tiles)} tetrahedra")
    click.echo(f"hull: {n0} vertices, {n1} edges, {_face_breakdown(asm.mesh)}")
    click.echo(f"hull volume: {asm.mesh.volume():.7f}")
    if out is not None:
        click.echo(f"wrote {out}")


@main.command("verify")
@click.option("--check", "names", multiple=True,
              type=click.Choice(checks.CHECK_NAMES),
              help="Run only the named checks (repeatable).")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@click.pass_context
def cmd_verify(ctx, names, as_json):
    """Re-derive and confirm every published identity."""
    results = checks.run_checks(tuple(names) or None)
    all_ok = all(r.ok for r in results)
    if as_json:
        _echo_json({
            "checks": [
                {"name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
            "ok": all_ok,
        })
    else:
        for r in results:
            click.echo(f"{'OK' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    if not all_ok:
        ctx.exit(1)


@main.command("report")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Directory for the bundle (default: report).")
@click.option("--json", "as_json", is_flag=True,
              help="Emit the bundle inline instead of writing files.")
@click.pass_obj
def cmd_report(cfg: RunConfig, out, as_json):
    """Write the markdown + CSV report bundle."""
    bundle = report.build_bundle()
    if as_json:
        _echo_json({"files": bundle})
        return
    outdir = Path(out or cfg.output_path or "report")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in bundle.items():
        (outdir / name).write_text(text, encoding="utf-8", newline="")
        click.echo(f"wrote {outdir / name}")


if __name__ == "__main__":
    main()
