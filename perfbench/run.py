"""icotile benchmark: one seeded closed-loop workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli-session --seed 1 --seconds 10 --trace 0

--trace 0 measures the workload and prints the end-to-end metrics.
--trace 1 runs the per-layer probes, then a fixed number of the workload's
decks with each op run untraced and traced, and prints the per-layer
metrics.  Every op's output is checked against oracles.py.  The last stdout line is the result
as one JSON object; the lines before it say what was measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from importlib import metadata, import_module
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import probes
import spans
from hostspeed import REFERENCE_S, HostSpeed, calibrate, calibrate_in_child
from workloads import WORKLOADS, Context

SETUP_REPS = 7
IMPORTTIME_REPS = 3
CLI_PROBE_REPS = 3


def provenance(root: Path) -> dict:
    head = root / ".git" / "HEAD"
    commit = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    src = sorted((root / "src" / "icotile").rglob("*.py"))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": sum(len(p.read_text("utf-8").splitlines()) for p in src),
        "machine_settings": "none changed: no CPU pinning, no cache dropping; "
                            "host speed is calibrated and divided out of end-to-end times",
    }


def run_op(workload, op, ctx: Context, ico, results: list) -> None:
    if ctx.tracer is not None:
        ctx.tracer.op = len(results)
    seconds_in_op, reason, known, rss = workload.run(op, ctx, ico)
    label = op.label if hasattr(op, "label") else op[0]
    results.append((seconds_in_op, reason, known, rss, label))


def host_calibration(workload, ctx: Context):
    """Calibrate where the ops run: in this process, or in a fresh one when
    each op is a child process that the host may place on either vCPU."""
    if workload.in_process:
        return calibrate
    return lambda: calibrate_in_child(ctx.python, ctx.tmp, ctx.env)


def run_pass(workload, ctx: Context, ico, seed: int, seconds: float):
    """Run decks until `seconds` have passed and the workload's min_ops are done,
    ending on a block boundary, with host-speed calibrations between ops.
    Returns (results with times in reference seconds, wall times, decks)."""
    decks = workload.decks(random.Random(seed))
    results, marks = [], []
    speed = HostSpeed(host_calibration(workload, ctx))
    t0 = perf_counter()
    k = 0
    while True:
        for op in next(decks):
            marks.append(speed.tick())
            run_op(workload, op, ctx, ico, results)
        k += 1
        if (k % workload.block_decks == 0 and perf_counter() - t0 >= seconds
                and len(results) >= workload.min_ops):
            break
    speed.close()
    wall = [r[0] for r in results]
    return [(t,) + r[1:] for t, r in zip(speed.scaled(marks, wall), results)], wall, k


def run_paired(workload, ctx: Context, ico, seed: int, tracer):
    """Run each op of the workload's trace_decks decks untraced and traced back
    to back.  A fixed number of ops keeps the span counts the same on every
    commit, so busy times track the cost of a call; pairing keeps host speed
    swings out of the overhead ratio."""
    decks = workload.decks(random.Random(seed))
    plain, traced = [], []
    for _ in range(workload.trace_decks):
        for op in next(decks):
            untraced_first = len(plain) % 2 == 0  # alternate, so warm-up favours neither side
            if untraced_first:
                run_op(workload, op, ctx, ico, plain)
            restore = spans.instrument(tracer)
            ctx.tracer = tracer
            try:
                run_op(workload, op, ctx, ico, traced)
            finally:
                ctx.tracer = None
                restore()
            if not untraced_first:
                run_op(workload, op, ctx, ico, plain)
    return plain, traced


def load_icotile():
    ns = SimpleNamespace(**{m: import_module(f"icotile.{m}") for m in
                            ("golden", "catalog", "inflation", "geometry", "checks", "report", "cli")})
    ns.catalog.all_records()
    ns.inflation.dodecahedron_ledger()
    return ns


def tally(results):
    ok = sum(1 for r in results if r[1] is None)
    known = sum(1 for r in results if r[1] is not None and r[2])
    return ok, known, len(results) - ok - known


def end_to_end(workload, ctx, ico, args, setups, setup_scale, out):
    results, wall, decks = run_pass(workload, ctx, ico, args.seed, args.seconds)
    times = [r[0] for r in results]
    n = len(times)
    ok, known, failed = tally(results)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r[3] for r in results)
    # cli-session pays a bare import per process; in-process workloads also pay first-call set-up
    def setup(s):
        return s["import_s"] + (s["all_records_s"] + s["ledger_s"] if workload.in_process else 0)
    setup_vals = [setup(s) * setup_scale for s in setups]
    p90 = statistics.quantiles(times, n=10)[8]
    metrics = {
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (p90, "s"),
        "ok_ratio": (ok / n, "ratio"),
        "setup_s": (statistics.median(setup_vals), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    out(f"{workload.name}: {n} ops in {decks} decks, closed loop, one client; "
        f"{sum(wall):.3f} s wall inside ops")
    out(f"  times are reference seconds: wall seconds x {REFERENCE_S} s / host calibration "
        f"around the op, {REFERENCE_S * sum(wall) / sum(times):.6g} s on average "
        f"(wall figures in brackets)")
    out(f"  ops_per_s = {metrics['ops_per_s'][0]:.6g} 1/s  ({n} ops / time inside ops; "
        f"oracle checks excluded) [{n / sum(wall):.6g}]")
    out(f"  op_p50_s = {metrics['op_p50_s'][0]:.6g} s  (n={n}) [{statistics.median(wall):.6g}]")
    out(f"  op_p90_s = {p90:.6g} s  (n={n}; {sum(1 for t in times if t > p90)} ops above) "
        f"[{statistics.quantiles(wall, n=10)[8]:.6g}]")
    out(f"  ok_ratio = {ok / n:.6g}  ({ok} of {n} ops correct; {known} known defects; {failed} failed)")
    out(f"  setup_s = {metrics['setup_s'][0]:.6g} s  (median of {len(setups)} fresh processes: "
        f"{'import icotile.cli' if not workload.in_process else 'import + catalog + ledger load'}) "
        f"[{statistics.median(setup(s) for s in setups):.6g}]")
    out(f"  peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB  "
        f"({'largest child' if not workload.in_process else 'benchmark process'})")
    report_failures(results, out)
    return metrics, n, failed


def report_failures(results, out):
    seen = {}
    for r in results:
        if r[1] is not None:
            key = (r[4], r[1], r[2])
            seen[key] = seen.get(key, 0) + 1
    for (label, reason, known), count in sorted(seen.items()):
        out(f"  {'known defect' if known else 'FAILED'} x{count} [{label}]: {reason}")


def run_probes(probe_calls, metrics: dict, failures: list) -> int:
    for call in probe_calls:
        m, f = call()
        metrics.update(m)
        failures += f
    return len(probe_calls)


BUSY_METRICS = (("geometry.assemble", True), ("golden.embed", True),
                ("inflation.inflate_counts", False), ("inflation.total_volume", False))


def traced(workload, ctx, ico, args, setups, out, trace_dir: Path):
    metrics, failures = probes.catalog_first_call(setups), []
    # uninstrumented, so the probe timings carry no wrapper cost
    probes_run = run_probes([lambda: probes.import_times(ctx, IMPORTTIME_REPS),
                             lambda: probes.cli_probe(ctx, CLI_PROBE_REPS),
                             lambda: probes.golden_probe(ico.golden),
                             lambda: probes.geometry_probe(ico.geometry, ico.cli),
                             lambda: probes.checks_probe(ico.checks, ico.geometry),
                             lambda: probes.report_probe(ico.report, ico.geometry),
                             lambda: probes.inflation_probe(ico.inflation)], metrics, failures)
    tracer = spans.Tracer()
    plain, traced_results = run_paired(workload, ctx, ico, args.seed, tracer)
    pass_spans = len(tracer.spans)
    tracer.op = "span-probe"
    restore = spans.instrument(tracer)
    try:
        probes_run += run_probes([lambda: probes.span_probe(ico)], metrics, failures)
    finally:
        restore()
    untraced_s = sum(r[0] for r in plain)
    traced_s = sum(r[0] for r in traced_results)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    whole = spans.summarize(tracer.spans)["names"]
    for name, with_calls in BUSY_METRICS:
        calls, busy, _ = whole.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.busy_s"] = (busy, "s")
        if with_calls:
            metrics[f"{name}.calls"] = (calls, "count")

    # where the traced pass spent its time, by layer self time
    part = spans.summarize(tracer.spans[:pass_spans])
    out(f"{workload.name} traced pass: {len(traced_results)} ops ({workload.trace_decks} decks, "
        f"each op run untraced and traced back to back), {traced_s:.3f} s inside ops traced, "
        f"{untraced_s:.3f} s untraced; overhead ratio {traced_s / untraced_s:.4f}")
    for layer, secs in sorted(part["layers"].items(), key=lambda kv: -kv[1]):
        out(f"  self time {layer:10} {secs:10.4f} s  {secs / traced_s:7.2%} of op wall time")
    rest = traced_s - sum(part["layers"].values())
    out(f"  unattributed          {rest:10.4f} s  {rest / traced_s:7.2%} "
        f"(process start-up, benchmark glue, unwrapped code)")
    for name, (calls, busy, own) in sorted(part["names"].items(), key=lambda kv: -kv[1][2])[:8]:
        out(f"  span {name:32} calls {calls:7d}  busy {busy:9.4f} s  self {own:9.4f} s")
    out("  busy_s and calls metrics sum the traced pass and one fixed span probe "
        "(cold assemble of T2, inflate_counts of T2 at n=1000)")
    out(f"  geometry.d1.pairs = {metrics['geometry.d1.pairs'][0]} is computed as C(tiles, 2) "
        "from the d1 tile count, not measured")
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{workload.name}-seed{args.seed}.jsonl"
    tracer.dump(trace_file)
    out(f"  spans written to {trace_file.relative_to(ctx.root)} ({len(tracer.spans)} spans)")
    for f in failures:
        out(f"  FAILED probe: {f}")
    ops = plain + traced_results
    report_failures(ops, out)
    return metrics, len(ops) + probes_run, tally(ops)[2] + len(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "icotile" / "__init__.py").is_file():
        print(f"error: no icotile sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = {k: v for k, v in os.environ.items() if not k.startswith("ICOTILE_")}
    env["PYTHONPATH"] = str(src)
    work = root / ".perfbench"
    tmp = work / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    ctx = Context(root=root, tmp=tmp, env=env, python=sys.executable)
    def out(line):
        print(line, flush=True)

    workload = WORKLOADS[args.workload]
    try:
        out("provenance: " + json.dumps(provenance(root)))
        probes.setup_children(ctx, workload.setup_modules, 1)  # warm-up: byte-compile once
        setups, setup_scale = probes.setup_children(ctx, workload.setup_modules, SETUP_REPS)
        ico = load_icotile()
        if not Path(ico.cli.__file__).resolve().is_relative_to(src):
            print(f"error: icotile imported from {ico.cli.__file__}, not {src}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, attempted, failed = traced(workload, ctx, ico, args, setups, out, work / "traces")
        else:
            metrics, attempted, failed = end_to_end(workload, ctx, ico, args, setups, setup_scale, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
