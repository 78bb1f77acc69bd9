"""The three seeded closed-loop workloads.

Each workload turns a seed into an endless sequence of decks: a deck is a
fixed mix of operations in seeded order with seeded parameters, so every
run measures the same mix and the seed only changes order and inputs.
One client runs the ops one after another (closed loop), with at most one
child process alive at a time.

An op returns (seconds, reason, known_defect, child_maxrss_kb): the time
spent inside the program, None or why its output is wrong, whether that
wrong output is one of the listed present-day defects, and the peak RSS of
the op's child process (None for in-process ops).  An exception, from
icotile or from an oracle reading malformed output, is a wrong output.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import oracles

CHILD_TIMEOUT_S = 120.0


def raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {str(exc)[:200]}"


def checked(check) -> str | None:
    """Run an oracle; an exception means the output was malformed."""
    try:
        return check()
    except Exception as exc:
        return "oracle " + raised(exc)


@dataclass
class Child:
    code: int
    out: str
    err: str
    seconds: float
    maxrss_kb: int


def run_child(argv: list[str], cwd: Path, env: dict, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one process to completion; report its wall time and peak RSS."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    out = out_path.read_text("utf-8", errors="replace")
    err = err_path.read_text("utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Child(proc.returncode, out, err, seconds, usage.ru_maxrss)


@dataclass
class Context:
    root: Path
    tmp: Path
    env: dict
    python: str
    tracer: object = None  # spans.Tracer during a traced pass
    op_counter: int = 0

    def op_dir(self) -> Path:
        self.op_counter += 1
        d = self.tmp / f"op{self.op_counter}"
        d.mkdir()
        return d


# ---------------------------------------------------------------------------
# cli-session: one fresh `python -m icotile.cli` process per op


@dataclass(frozen=True)
class CliOp:
    label: str  # the subcommand, or edge:<kind>
    args: tuple[str, ...]
    check: object  # (code, out, err, files) -> (reason, known_defect)


def cli_op(label, args, checker, **kw) -> CliOp:
    return CliOp(label, tuple(args),
                 lambda code, out, err, files: (checker(code, out, err, files, **kw), False))


def _build_op(rng, shape):
    variant = rng.choice(["plain", "obj", "json", "stdout-json"])
    args = ["build", "--shape", shape]
    out_path = {"obj": "x.obj", "json": "x.json"}.get(variant)
    if out_path:
        args += ["--out", out_path]
    if variant == "stdout-json":
        args.append("--json")
    return cli_op("build", args, oracles.cli_build, shape=shape, out_path=out_path,
                as_json=variant == "stdout-json")


EDGE_KINDS = ("overflow", "digits", "tolerance", "usage-choice", "usage-order")


def _edge_op(rng, kind):
    if kind == "overflow":
        args, extra = ["--max-order", "5000", "inflate", "--tile", "T2", "--order", "1000"], 1000
    elif kind == "digits":
        args, extra = ["--max-order", "20000", "inflate", "--tile", "T2", "--order", "10000"], 10000
    elif kind == "tolerance":
        args, extra = ["--tol-predicates", "1e-4", "build", "--shape", "d1"], None
    elif kind == "usage-choice":
        args, extra = rng.choice([["inflate", "--tile", "T9", "--order", "2"],
                                  ["build", "--shape", "d2"], ["verify", "--check", "none"]]), None
    else:
        args, extra = ["inflate", "--tile", "T2", "--order", str(rng.randint(51, 99))], None
    edge = "usage" if kind.startswith("usage") else kind
    return CliOp(f"edge:{kind}", tuple(args),
                 lambda code, out, err, files: oracles.cli_edge(edge, code, out, err, extra))


HEAVY_TOP = ("build-d1", "verify-all", "verify-subset", "report-out", "report-json")


def _top_op(rng, kind, report_ref) -> CliOp:
    """The one op per deck that assembles d1 (about 3x an i1 build)."""
    if kind == "build-d1":
        return _build_op(rng, "d1")
    if kind.startswith("verify"):
        names = []
        if kind == "verify-subset":
            light = [n for n in oracles.CHECK_NAMES if n not in oracles.HEAVY_CHECKS]
            names = [rng.choice(oracles.HEAVY_CHECKS)] + rng.sample(light, rng.randint(0, 3))
            rng.shuffle(names)
        js = rng.random() < 0.5
        args = ["verify"] + [a for n in names for a in ("--check", n)] + (["--json"] if js else [])
        return cli_op("verify", args, oracles.cli_verify, names=tuple(names), as_json=js)
    if kind == "report-out":
        return cli_op("report", ["report", "--out", "rep"], oracles.cli_report,
                      out_dir="rep", as_json=False, ref=report_ref)
    return cli_op("report", ["report", "--json"], oracles.cli_report,
                  out_dir=None, as_json=True, ref=report_ref)


def cli_deck(rng, edge_kind: str, top_kind: str, report_ref) -> list[CliOp]:
    """20 ops: 13 light, one contract-edge, five i1 builds and one op that
    assembles d1 (six heavy, 30 %).  Sorted by cost over a block of five
    decks, the light ops fill 0-69 %, the i1 builds 70-94 % and the d1 ops
    (with the tolerance edge op, which also assembles d1) 95-100 %, so p50
    lies inside the light mode and p90 inside the i1 mode."""
    ops = []
    for _ in range(2):
        mode = rng.choice(["plain", "json", "dump"])
        args = ["catalog"] + {"plain": [], "json": ["--json"], "dump": ["dump"]}[mode]
        ops.append(cli_op("catalog", args, oracles.cli_catalog, mode=mode))
    for _ in range(3):
        base, n, js = rng.choice(sorted(oracles.INFLATE_BASES)), rng.randint(0, 50), rng.random() < 0.5
        args = ["inflate", "--tile", base, "--order", str(n)] + (["--json"] if js else [])
        ops.append(cli_op("inflate", args, oracles.cli_inflate, base=base, n=n, as_json=js))
    js = rng.random() < 0.5
    ops.append(cli_op("eigen", ["eigen"] + (["--json"] if js else []), oracles.cli_eigen, as_json=js))
    ops.append(cli_op("ledger", ["ledger", "--verify"], oracles.cli_ledger, mode="verify"))
    ops.append(cli_op("ledger", ["ledger", "--verify", "--corrupt"], oracles.cli_ledger, mode="corrupt"))
    mode = rng.choice(["plain", "json"])
    ops.append(cli_op("ledger", ["ledger"] + (["--json"] if mode == "json" else []),
                    oracles.cli_ledger, mode=mode))
    for _ in range(4):
        ops.append(_build_op(rng, rng.choice(oracles.COMPOSITES)))
    ops.append(_edge_op(rng, edge_kind))
    # heavy: each assembles i1 or d1 from scratch in its own process
    for _ in range(5):
        ops.append(_build_op(rng, "i1"))
    ops.append(_top_op(rng, top_kind, report_ref))
    rng.shuffle(ops)
    return ops


def cli_decks(rng):
    """Blocks of five decks: each contract-edge kind and each d1 op once per block."""
    report_ref = oracles.ReportReference()
    while True:
        kinds, tops = list(EDGE_KINDS), list(HEAVY_TOP)
        rng.shuffle(kinds)
        rng.shuffle(tops)
        for kind, top in zip(kinds, tops):
            yield cli_deck(rng, kind, top, report_ref)


def run_cli_op(op: CliOp, ctx: Context, ico=None):
    d = ctx.op_dir()
    try:
        if ctx.tracer is None:
            argv = [ctx.python, "-m", "icotile.cli", *op.args]
        else:
            argv = [ctx.python, str(ctx.root / "perfbench" / "child_cli.py"), str(d / ".spans"), *op.args]
        child = run_child(argv, d, ctx.env)
        if ctx.tracer is not None and (d / ".spans").exists():
            records = [json.loads(l) for l in (d / ".spans").read_text("utf-8").splitlines()]
            ctx.tracer.extend(records, -1, ctx.tracer.op)
            (d / ".spans").unlink()
        files = {p.relative_to(d).as_posix(): p.read_text("utf-8")
                 for p in sorted(d.rglob("*")) if p.is_file()}
        if child.code == -9:
            return child.seconds, f"killed after {CHILD_TIMEOUT_S} s", False, child.maxrss_kb
        try:
            reason, known = op.check(child.code, child.out, child.err, files)
        except Exception as exc:
            reason, known = "oracle " + raised(exc), False
        return child.seconds, reason, known, child.maxrss_kb
    finally:
        shutil.rmtree(d)


# ---------------------------------------------------------------------------
# assembly-cold: cold assembly in one warm process, used the way callers do


def assembly_decks(rng):
    """20 ops sorted by cost: the seven composites and one seeded composite
    more (0-40 %), i1 x9 (40-85 %, so p50 lies inside the i1 mode) and d1 x3
    (85-100 %, so p90 lies inside the d1 mode)."""
    while True:
        targets = ["d1"] * 3 + ["i1"] * 9 + list(oracles.COMPOSITES) + [rng.choice(oracles.COMPOSITES)]
        ops = [(t, rng.choice(["obj", "json"])) for t in targets]
        rng.shuffle(ops)
        yield ops


def run_assembly_op(op, ctx: Context, ico):
    target, fmt = op
    d = ctx.op_dir()
    try:
        path = d / f"{target}.{fmt}"
        ico.geometry.assemble.cache_clear()  # the CLI pays for assembly on every run
        t0 = perf_counter()
        try:
            asm = ico.geometry.assemble(target)
            counts = asm.mesh.counts()
            dih = ico.geometry.dihedrals(asm.mesh)
            if fmt == "obj":
                text = ico.geometry.export_obj(asm)
            else:
                text = ico.cli.canonical_json(ico.geometry.export_patch(asm)) + "\n"
            path.write_text(text, encoding="utf-8", newline="")
        except Exception as exc:
            return perf_counter() - t0, raised(exc), False, None
        seconds = perf_counter() - t0
        reason = checked(lambda: oracles.check_assembly(target, asm, counts, dih) or (
            oracles.check_obj_text(target, path.read_text("utf-8")) if fmt == "obj"
            else oracles.check_patch_text(target, path.read_text("utf-8"))))
        return seconds, reason, False, None
    finally:
        shutil.rmtree(d)


# ---------------------------------------------------------------------------
# exact-inflation: golden and inflation layers only


MAX_ORDER = 30000


def inflation_decks(rng):
    """10 ops from small to ~6000-digit integers, sorted by cost: two orders
    log-uniform in 1..300 and one ledger re-verification (half of them of a
    single-coefficient mutant), all under 0.6 ms; order 1000 four times
    (30-70 %); one order log-uniform in 3000..10000; order 3e4 twice
    (80-100 %).  p50 then lies in the middle of the order-1000 group and p90
    in the middle of the order-3e4 group, so each is read from many like ops
    rather than from whichever op lands on a steep part of the cost curve."""
    bases = sorted(oracles.INFLATE_BASES)

    def log_uniform(lo, hi):
        return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    while True:
        orders = ([log_uniform(1, 300) for _ in range(2)] + [1000] * 4
                  + [log_uniform(3000, 10000), MAX_ORDER, MAX_ORDER])
        ops = [("inflate", rng.choice(bases), n) for n in orders]
        ops.append(("ledger", rng.randrange(len(oracles.LEDGER_NAMES)), rng.random(),
                    rng.choice([0, 0, 1, -1])))
        rng.shuffle(ops)
        yield ops


def run_inflation_op(op, ctx: Context, ico):
    inflation, golden = ico.inflation, ico.golden
    if op[0] == "inflate":
        _, base, n = op
        start = {"d1": inflation.D1_COUNTS, "dtau": inflation.DTAU_COUNTS}.get(base)
        if start is None:
            start = inflation.CountVector.unit(int(base[1]) - 1)
        in_range = oracles.in_float_range(base, n)
        t0 = perf_counter()
        try:
            counts = inflation.inflate_counts(start, n)
            volume = counts.total_volume()
            embedded = golden.embed(volume) if in_range else None
        except Exception as exc:
            return perf_counter() - t0, raised(exc), False, None
        seconds = perf_counter() - t0
        return seconds, checked(lambda: oracles.check_inflation(
            base, n, tuple(counts), volume.as_fraction_pair(), embedded)), False, None
    _, idx, part_u, delta = op
    entry = inflation.dodecahedron_ledger()[idx]
    if delta:
        j = int(part_u * len(entry.parts))
        part = entry.parts[j]
        mutated = dataclasses.replace(part, count=part.count + delta)
        entry = dataclasses.replace(entry, parts=entry.parts[:j] + (mutated,) + entry.parts[j + 1:])
    t0 = perf_counter()
    try:
        rep = inflation.verify_decomposition(entry)
    except Exception as exc:
        return perf_counter() - t0, raised(exc), False, None
    seconds = perf_counter() - t0
    got = (rep.count_consistent, rep.volume_consistent)
    want = (False, False) if delta else (True, True)
    reason = None if got == want else f"ledger {oracles.LEDGER_NAMES[idx]} delta {delta}: {got}"
    return seconds, reason, False, None


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    decks: object  # rng -> iterator of op lists
    run: object  # (op, ctx, ico) -> (seconds, reason, known_defect, child maxrss kB)
    block_decks: int  # decks per block; e2e runs end on a block boundary
    min_ops: int  # an e2e run lasts at least this many ops and at least --seconds
    trace_decks: int  # the traced pass runs exactly this many decks
    setup_modules: tuple[str, ...]  # what a fresh process imports before its first op
    in_process: bool


# At least 100 ops, so that ten or more lie beyond p90.  exact-inflation's ops
# are short, so it takes more of them: 40 order-3e4 ops for p90 to be read from.
WORKLOADS = {
    "cli-session": Workload("cli-session", cli_decks, run_cli_op, 5, 100, 1,
                            ("icotile.cli",), False),
    "assembly-cold": Workload("assembly-cold", assembly_decks, run_assembly_op, 1, 100, 1,
                              ("icotile.geometry", "icotile.cli"), True),
    "exact-inflation": Workload("exact-inflation", inflation_decks, run_inflation_op, 1, 200, 16,
                                ("icotile.inflation", "icotile.golden"), True),
}
