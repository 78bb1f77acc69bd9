"""Command-line surface.

Seven subcommands: catalog, inflate, eigen, ledger, build, verify,
report.  Every command accepts --json for machine output.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import click

from . import catalog
from .catalog import ASSEMBLY_TARGETS
from .golden import embed, embed_decimal

__all__ = ["main", "RunConfig", "canonical_json"]

_FACE_WORDS = {3: "triangular", 4: "quadrilateral", 5: "pentagonal", 6: "hexagonal"}


@dataclass(frozen=True)
class RunConfig:
    """Global knobs, from flags or ICOTILE_MAX_ORDER / ICOTILE_OUTPUT_PATH."""

    max_order: int = 50
    output_path: str | None = None


_MEMO_TYPES, _INT = {float, str}, {int}
# 0.0 == -0.0 is one dict key, so the memo keeps the two zeros' texts by sign
_ZERO_TEXT = {1.0: f"{0.0:.17g}", -1.0: f"{-0.0:.17g}"}


def canonical_json(obj) -> str:
    """Deterministic JSON text: 2-space indent, floats at 17 significant
    digits, keys in construction order.  Parsing then re-emitting the
    result reproduces it byte for byte."""
    import json

    memo: dict = {}  # the text of each str and nonzero float; zeros in _ZERO_TEXT
    get = memo.get

    def scalar(x) -> str:
        if isinstance(x, float):
            if not x and type(x) is float:
                return _ZERO_TEXT[math.copysign(1.0, x)]
            s = f"{x:.17g}"
        elif isinstance(x, int) and not isinstance(x, bool):
            return str(x)
        elif x is None or isinstance(x, (bool, str)):
            s = json.dumps(x)
        else:
            raise TypeError(f"not JSON-serializable: {type(x).__name__}")
        if type(x) in _MEMO_TYPES and (x or type(x) is str):
            memo[x] = s
        return s

    def value(x, pad: str) -> str:
        if not isinstance(x, (dict, list, tuple)):
            return get(x) or scalar(x) if type(x) in _MEMO_TYPES else scalar(x)
        if not x:
            return "{}" if isinstance(x, dict) else "[]"
        inner = pad + "  "
        if isinstance(x, dict):
            return "{\n" + inner + f",\n{inner}".join([
                f"{get(k) or scalar(k) if type(k) is str else json.dumps(str(k))}: "
                f"{get(v) or scalar(v) if type(v) in _MEMO_TYPES else value(v, inner)}"
                for k, v in x.items()]) + "\n" + pad + "}"
        types = set(map(type, x))  # a list of floats and strs, or of ints, in one join
        texts = ([get(v) or scalar(v) for v in x] if types <= _MEMO_TYPES else
                 map(str, x) if types == _INT else [value(v, inner) for v in x])
        return "[\n" + inner + f",\n{inner}".join(texts) + "\n" + pad + "]"

    return value(obj, "")


def _echo_json(obj) -> None:
    click.echo(canonical_json(obj))


def _write(path: Path, text: str) -> None:
    """Write text, creating missing parent directories; a path that cannot
    be written (say, under an existing file) is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        # a parent that is not a directory reads "File exists" or "Not a directory": name it
        file = next((p for p in reversed(path.parents) if p.exists() and not p.is_dir()), None)
        reason = f"{file} is not a directory" if file else exc.strerror or exc
        raise click.UsageError(f"cannot write {path}: {reason}")


class _LazyChoice(click.Choice):
    """click.Choice over read(), which imports its module only when the
    choices are read (a value, the help, a usage message), not for other
    commands."""

    def __init__(self, read):
        self.case_sensitive = True
        self._read = read

    @property
    def choices(self):
        return self._read()


def _check_names():
    from . import checks
    return checks.CHECK_NAMES


def _tile_names():
    from . import inflation
    return tuple(sorted(inflation.BASES))


def _non_negative(ctx, param, value):
    if value < 0:
        raise click.BadParameter("must be non-negative")
    return value


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--max-order", type=int, default=50, show_default=True,
              envvar="ICOTILE_MAX_ORDER", callback=_non_negative,
              help="Largest accepted inflation order.")
@click.option("--output-path", type=click.Path(), default=None,
              envvar="ICOTILE_OUTPUT_PATH",
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
        click.echo(f"{rec.kind.value:6} {catalog.format_volume(rec.volume):14} "
                   f"{embed(rec.volume):<14.7f} {rec.faces_text()}")


@main.command("inflate")
@click.option("--tile", required=True,
              type=_LazyChoice(_tile_names),
              help="Starting patch: one composite tile or a dodecahedron.")
@click.option("--order", required=True, type=int, callback=_non_negative,
              help="Inflation power n.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@click.pass_obj
def cmd_inflate(cfg: RunConfig, tile, order, as_json):
    """Composite-tile counts after n rounds of tau-inflation."""
    if order > cfg.max_order:
        raise click.UsageError(
            f"--order {order} exceeds --max-order {cfg.max_order}")
    from . import inflation

    counts = inflation.inflate_counts(inflation.BASES[tile], order)
    volume = counts.total_volume()
    try:
        approx = embed(volume)
    except OverflowError:
        # beyond float range: scientific-notation strings instead
        big = embed_decimal(volume)
        approx, approx_text = format(big, ".16e"), format(big, ".7e")
    else:
        approx_text = f"{approx:.7f}"
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
    from . import inflation

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
    from . import inflation

    entries = list(inflation.dodecahedron_ledger())
    if corrupt:
        entries[0] = entries[0].mutant()
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
    option = "--out"
    if out is None and cfg.output_path:
        out, option = cfg.output_path, "--output-path"
    if out is not None and Path(out).suffix not in (".obj", ".json"):
        raise click.UsageError(f"{option} must end in .obj or .json")

    from .geometry import assemble, export_obj, export_patch

    asm = assemble(shape)
    if out is not None:
        path = Path(out)
        if path.suffix == ".obj":
            payload = export_obj(asm)
        else:
            payload = canonical_json(export_patch(asm)) + "\n"
        _write(path, payload)
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
              type=_LazyChoice(_check_names),
              help="Run only the named checks (repeatable).")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
@click.pass_context
def cmd_verify(ctx, names, as_json):
    """Re-derive and confirm every published identity."""
    from . import checks

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
    if out == "":
        raise click.UsageError("--out must name a directory, not ''")
    from . import report

    bundle = report.build_bundle()
    if as_json:
        _echo_json({"files": bundle})
        return
    outdir = Path(out or cfg.output_path or "report")
    for name, text in bundle.items():
        _write(outdir / name, text)
        click.echo(f"wrote {outdir / name}")


if __name__ == "__main__":
    main()
