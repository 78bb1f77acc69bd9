"""Command-line surface.

Seven subcommands: catalog, inflate, eigen, ledger, build, verify,
report.  Every command accepts --json for machine output.  Exit codes:
0 success, 1 verification failure, 2 usage error.  Each option is one
(flag, keywords) row, which both the parser and the help page read; a row
whose name does not start with "-" takes a word (catalog's MODE) and shows
on the usage line.  Help pages and usage errors keep click's layout and
messages, which the golden files pin.
"""

from __future__ import annotations

import errno
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import catalog
from .golden import embed, embed_decimal

__all__ = ["main", "run", "RunConfig", "UsageError", "canonical_json"]

_FACE_WORDS = {3: "triangular", 4: "quadrilateral", 5: "pentagonal", 6: "hexagonal"}

_ABOUT = """Exact golden-ratio tiling toolkit.

Tile catalog, tau-inflation counts, spectral data, decomposition
ledger, 3D assembly export, self-verification and report bundles."""


class RunConfig(NamedTuple):
    """Global knobs, from flags or ICOTILE_MAX_ORDER / ICOTILE_OUTPUT_PATH."""

    max_order: int = 50
    output_path: str | None = None


class UsageError(Exception):
    """A usage error: exit code 2, shown under the usage line of the command
    line (the subcommand's, once one is chosen)."""

    exit_code = 2


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


def _unwritable(path: Path) -> str | None:
    """Why path cannot be written, as far as can be told before writing: a
    parent that is not a directory, path itself a directory, or a name that
    cannot be looked up (one too long)."""
    try:
        file = next((p for p in reversed(path.parents) if p.exists() and not p.is_dir()), None)
        if file:
            return f"{file} is not a directory"
        return os.strerror(errno.EISDIR) if path.is_dir() else None
    except OSError as exc:
        return exc.strerror


def _write(path: Path, text: str) -> None:
    """Write text, creating missing parent directories; a path that cannot
    be written (say, under an existing file) is a usage error."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        # a parent that is not a directory reads "File exists" or "Not a directory": name it
        raise UsageError(f"cannot write {path}: {_unwritable(path) or exc.strerror or exc}")


def _value(flag: str, kw: dict, text: str):
    """text as row flag's value: one of its choices (their module loads on
    first need), an integer >= 0 for type int, else text itself."""
    if "choices" in kw:
        known = kw["choices"]()
        if text not in known:
            some = "one of " if len(known) > 1 else ""
            raise UsageError(f"Invalid value for {flag!r}: {text!r} is not "
                             f"{some}{', '.join(map(repr, known))}.")
    if kw.get("type") is not int:
        return text
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"Invalid value for {flag!r}: {text!r} is not a valid integer.")
    if value < 0:
        raise UsageError(f"Invalid value for {flag!r}: must be non-negative")
    return value


def _check_names():
    from . import checks
    return checks.CHECK_NAMES


def _term(flag: str, kw: dict) -> str:
    """An option's names and value: its choices in brackets, else its metavar."""
    names = kw.get("choices")
    value = f" [{'|'.join(names())}]" if names else f" {kw['metavar']}" if "metavar" in kw else ""
    return flag + value


def _columns(rows: list[tuple[str, str]], width: int) -> str:
    """click's definition list: the terms in a column at most 30 wide, each
    text wrapped beside its term, or under a term too wide for the column."""
    import textwrap

    col = min(max(len(term) for term, _ in rows), 30) + 2
    indent = "\n" + " " * (col + 2)
    lines = []
    for term, text in rows:
        lead = f"  {term:{col}}" if len(term) <= col - 2 else f"  {term}{indent}"
        lines.append(lead + indent.join(textwrap.wrap(text, max(width - col - 2, 10))))
    return "\n".join(lines)


_JSON = ("--json", {"dest": "as_json", "action": "store_true", "help": "Emit JSON."})
_HELP = ("-h, --help", {"action": "store_true", "help": "Show this message and exit."})
# the global options: ICOTILE_MAX_ORDER and ICOTILE_OUTPUT_PATH (and no other
# variable) stand in for an absent flag
_GLOBALS = (
    ("--max-order", {"type": int, "metavar": "INTEGER",
                     "help": "Largest accepted inflation order.  [default: 50]"}),
    ("--output-path", {"metavar": "PATH",
                       "help": "Default destination for build and report output."}),
)
_COMMANDS: dict = {}  # name -> (function, options as (flag, keywords))


def _command(name: str, *options):
    def register(run):
        _COMMANDS[name] = (run, options)
        return run
    return register


def _usage(here: str, name: str | None) -> str:
    """The usage line: the top level's, or command name's with its positional rows."""
    tail = (" COMMAND [ARGS]..." if name is None else
            "".join(f" {flag}" for flag, _ in _COMMANDS[name][1] if flag[:1] != "-"))
    return f"Usage: {here} [OPTIONS]{tail}"


def _page(here: str, name: str | None) -> str:
    """click's help page: the usage line, the description rewrapped, then the
    options (and the commands) as two-column lists."""
    import shutil
    import textwrap

    width = max(min(shutil.get_terminal_size().columns, 80) - 2, 50)
    run, options = _COMMANDS[name] if name else (None, _GLOBALS)
    blocks = [_usage(here, name)]
    blocks += [textwrap.fill(p, width, initial_indent="  ", subsequent_indent="  ")
               for p in (run.__doc__ if run else _ABOUT).split("\n\n")]
    rows = [(_term(flag, kw), kw["help"] + "  [required]" * bool(kw.get("required")))
            for flag, kw in (*options, _HELP) if "help" in kw]
    blocks.append("Options:\n" + _columns(rows, width))
    if name is None:
        # click's command summary: the one-sentence text, or as many of its
        # words as fit before "..." in limit characters
        limit = width - 6 - max(map(len, _COMMANDS))
        commands = [(n, textwrap.shorten(run.__doc__, limit, placeholder="...",
                                         break_on_hyphens=False))
                    for n, (run, _) in sorted(_COMMANDS.items())]
        blocks.append("Commands:\n" + _columns(commands, width))
    return "\n\n".join(blocks) + "\n"


def _parse(here: str, name: str | None, argv: list[str]) -> tuple[dict, list[str]]:
    """One walk over argv with the global options (name None) or command
    name's: their values by dest and the words that neither an option nor a
    positional row took (the global walk stops at the first, the command).
    Names match whole, "--" ends the options, and -h/--help prints the page
    and exits."""
    options = _GLOBALS if name is None else _COMMANDS[name][1]
    rows = {alias: (flag, kw) for flag, kw in (*options, _HELP) for alias in flag.split(", ")}
    values = {kw.get("dest", flag[2:]): kw.get("default", False if kw.get("action") else None)
              for flag, kw in options}
    slots = [(flag, kw) for flag, kw in options if flag[:1] != "-"]  # the positional rows
    words, ended, rest = [], False, iter(argv)
    for arg in rest:
        if ended or arg[:1] != "-" or arg == "-":
            if name is None:
                return values, [arg, *rest]
            if len(words) < len(slots):
                flag, kw = slots[len(words)]
                values[kw["dest"]] = _value(flag, kw, arg)
            words.append(arg)
        elif arg == "--":
            ended = True
        else:
            alias, eq, value = arg.partition("=") if arg[:2] == "--" else (arg, "", "")
            if alias not in rows:
                raise UsageError(f"No such option {alias!r}.")
            flag, kw = rows[alias]
            dest, action = kw.get("dest", flag[2:]), kw.get("action")
            if action == "store_true" and eq:
                raise UsageError(f"Option {alias!r} does not take a value.")
            if flag == _HELP[0]:
                print(_page(here, name), end="")
                sys.exit(0)
            if action != "store_true" and not eq:
                value = next(rest, "--")  # "--" ends the options, so it is no value
                if value == "--":
                    raise UsageError(f"Option {alias!r} requires an argument.")
            value = True if action == "store_true" else _value(flag, kw, value)
            values[dest] = values[dest] + [value] if action == "append" else value
    for flag, kw in options:
        if kw.get("required") and values[kw.get("dest", flag[2:])] is None:
            raise UsageError(f"Missing option {flag!r}.")
    return values, words[len(slots):]


def main(args=None, prog_name=None):
    """Run the command line on args (default sys.argv[1:]) as prog_name
    (default the script's name) and raise SystemExit with the command's
    code: 0, 1 when a check fails, 2 after a usage error, whose message goes
    to stderr if stderr takes it.  An OSError from writing a stream passes
    through, and no file descriptor is touched; run maps it to exit 1."""
    if hasattr(sys, "set_int_max_str_digits"):  # counts and volumes print in full
        sys.set_int_max_str_digits(0)
    prog = here = prog_name or os.path.basename(sys.argv[0])
    name = None  # the chosen command: its usage heads the errors met after it
    try:
        top, rest = _parse(prog, None, sys.argv[1:] if args is None else list(args))
        if rest and rest[0] not in _COMMANDS:
            raise UsageError(f"No such command {rest[0]!r}.")
        if top["max-order"] is None:  # each variable is read only when its flag is absent
            top["max-order"] = _value("--max-order", _GLOBALS[0][1],
                                      os.environ.get("ICOTILE_MAX_ORDER") or "50")
        if top["output-path"] is None:
            top["output-path"] = os.environ.get("ICOTILE_OUTPUT_PATH") or None
        if not rest:
            raise UsageError("Missing command.")
        name, here = rest[0], f"{prog} {rest[0]}"
        options, extra = _parse(here, name, rest[1:])
        if extra:
            s = "s" if len(extra) > 1 else ""
            raise UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
        code = _COMMANDS[name][0](RunConfig(top["max-order"], top["output-path"]), **options)
    except UsageError as exc:
        try:  # None: fd 2 was closed at start-up, and print would write stdout
            if sys.stderr is not None:
                print(f"{_usage(here, name)}\nTry '{here} --help' for help.\n\nError: {exc}",
                      file=sys.stderr)
        finally:  # exit 2 whether or not stderr took the message
            sys.exit(exc.exit_code)
    sys.exit(code or 0)


def run(prog_name=None):
    """The process entry (the icotile script, python -m icotile.cli): main,
    then stdout flushed and os._exit with main's code.  A stream's OSError
    (one with no filename), from main or from that flush, exits 1 with one
    line on stderr, none when the reader has gone (`| head`).  So does a
    stdout that is None (fd 1 closed at start-up: print dropped every line),
    but for a usage error, which prints nothing there.  A path's OSError
    passes through, and a failure to write stderr changes no exit code.  The
    interpreter's teardown is skipped, and with it atexit hooks; every file
    a command writes is closed before main exits."""
    try:
        try:
            main(prog_name=prog_name)
        except SystemExit as exc:
            code = exc.code
        if sys.stdout is not None:
            sys.stdout.flush()
        elif code != UsageError.exit_code:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    except OSError as exc:
        if exc.filename is not None:  # a path's error; a stream's carries no name
            raise
        try:  # a failure to write stderr leaves the exit code 1
            if not isinstance(exc, BrokenPipeError) and sys.stderr is not None:
                print(f"Error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        finally:
            os._exit(1)
    os._exit(code)


@_command("catalog", ("[[dump]]", {"dest": "mode", "choices": lambda: ("dump",)}), _JSON)
def cmd_catalog(cfg: RunConfig, mode, as_json):
    """List the thirteen tile records (MODE `dump` forces JSON)."""
    records = catalog.all_records()
    if as_json or mode == "dump":
        print(canonical_json([rec.to_json() for rec in records]))
        return
    print(f"{'tile':6} {'volume':14} {'volume_float':14} faces")
    for rec in records:
        print(f"{rec.kind.value:6} {catalog.format_volume(rec.volume):14} "
              f"{embed(rec.volume):<14.7f} {rec.faces_text()}")


@_command("inflate",
          ("--tile", {"choices": lambda: catalog.STARTING_PATCHES, "required": True,
                      "help": "Starting patch: one composite tile or a dodecahedron."}),
          ("--order", {"type": int, "required": True, "metavar": "INTEGER",
                       "help": "Inflation power n."}),
          _JSON)
def cmd_inflate(cfg: RunConfig, tile, order, as_json):
    """Composite-tile counts after n rounds of tau-inflation."""
    if order > cfg.max_order:
        raise UsageError(f"--order {order} exceeds --max-order {cfg.max_order}")
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
        print(canonical_json({
            "counts": list(counts.c),
            "volume": volume.to_json(),
            "volume_float": approx,
        }))
        return
    print(f"counts: {' '.join(str(c) for c in counts.c)}")
    print(f"volume: {volume} = {approx_text}")


@_command("eigen", _JSON)
def cmd_eigen(cfg: RunConfig, as_json):
    """Spectral data of the inflation matrix."""
    from . import inflation

    sd = inflation.pf_vectors()
    if as_json:
        print(canonical_json(sd.to_json()))
        return
    print(f"characteristic polynomial: {inflation.format_poly(inflation.char_poly())}")
    print("eigenvalues: " + ", ".join(f"{x:.7f}" for x in sd.eigenvalues))
    print("right PF (L1): " + ", ".join(f"{x:.7f}" for x in sd.right_pf))
    print("left PF (L1): " + ", ".join(f"{x:.7f}" for x in sd.left_pf))


@_command("ledger",
          ("--verify", {"dest": "do_verify", "action": "store_true",
                        "help": "Re-verify each entry; print one status line per entry."}),
          ("--corrupt", {"action": "store_true"}),  # hidden: corrupts the first entry
          _JSON)
def cmd_ledger(cfg: RunConfig, do_verify, corrupt, as_json):
    """The recorded dodecahedral decompositions."""
    from . import inflation

    entries = list(inflation.dodecahedron_ledger())
    if corrupt:
        entries[0] = entries[0].mutant()
    results = [(d, inflation.verify_decomposition(d)) for d in entries]
    all_ok = all(rep.ok for _, rep in results)
    if as_json:
        print(canonical_json({
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
        }))
    elif do_verify:
        for d, rep in results:
            print(f"{'OK' if rep.ok else 'FAIL'} {d.name}")
    else:
        for d, rep in results:
            status = "" if rep.ok else "  [FAILS]"
            print(d.describe() + status)
    if not all_ok:
        return 1


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


@_command("build",
          ("--shape", {"choices": lambda: catalog.ASSEMBLY_TARGETS, "required": True,
                       "help": "Assembly target."}),
          ("--out", {"metavar": "FILE", "help": "Write mesh here (.obj wavefront or .json patch)."}),
          ("--json", dict(_JSON[1], help="Emit the patch as JSON.")))
def cmd_build(cfg: RunConfig, shape, out, as_json):
    """Assemble a shape from tetrahedra and export its mesh."""
    option = "--out"
    if out is None and cfg.output_path:
        out, option = cfg.output_path, "--output-path"
    if out is not None and Path(out).suffix not in (".obj", ".json"):
        raise UsageError(f"{option} must end in .obj or .json")

    from .geometry import assemble, export_obj, export_patch

    asm = assemble(shape)
    suffix = None if out is None else Path(out).suffix
    patch = canonical_json(export_patch(asm)) if as_json or suffix == ".json" else None
    if out is not None:
        _write(Path(out), export_obj(asm) if suffix == ".obj" else patch + "\n")
    if as_json:
        print(patch)
        return
    n0, n1, _ = asm.mesh.counts()
    print(f"{shape}: {len(asm.tiles)} tetrahedra")
    print(f"hull: {n0} vertices, {n1} edges, {_face_breakdown(asm.mesh)}")
    print(f"hull volume: {asm.mesh.volume():.7f}")
    if out is not None:
        print(f"wrote {out}")


@_command("verify",
          ("--check", {"dest": "names", "action": "append", "default": [],
                       "choices": _check_names,
                       "help": "Run only the named checks (repeatable)."}),
          _JSON)
def cmd_verify(cfg: RunConfig, names, as_json):
    """Re-derive and confirm every published identity."""
    from . import checks

    results = checks.run_checks(tuple(names) or None)
    all_ok = all(r.ok for r in results)
    if as_json:
        print(canonical_json({
            "checks": [
                {"name": r.name, "ok": r.ok, "detail": r.detail}
                for r in results
            ],
            "ok": all_ok,
        }))
    else:
        for r in results:
            print(f"{'OK' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    if not all_ok:
        return 1


@_command("report",
          ("--out", {"metavar": "DIRECTORY", "help": "Directory for the bundle (default: report)."}),
          ("--json", dict(_JSON[1], help="Emit the bundle inline instead of writing files.")))
def cmd_report(cfg: RunConfig, out, as_json):
    """Write the markdown + CSV report bundle."""
    if out == "":
        raise UsageError("--out must name a directory, not ''")
    from . import report

    bundle = report.build_bundle()
    if as_json:
        print(canonical_json({"files": bundle}))
        return
    outdir = Path(out or cfg.output_path or "report")
    for name in bundle:  # checked before the first write: a refused bundle writes nothing
        if reason := _unwritable(outdir / name):
            raise UsageError(f"cannot write {outdir / name}: {reason}")
    for name, text in bundle.items():
        _write(outdir / name, text)
    for name in bundle:  # only once all are written: a usage error prints nothing here
        print(f"wrote {outdir / name}")


if __name__ == "__main__":
    run("python -m icotile.cli")
