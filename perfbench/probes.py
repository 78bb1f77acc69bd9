"""Per-layer probes: fixed calls into each module's public functions.

Every probe returns (metrics, failures): metrics maps a per-layer metric
name to (value, unit), failures lists why a probe's output was wrong.
Timings are medians over a few repetitions.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import oracles
from hostspeed import REFERENCE_S, calibrate_in_child
from workloads import Context, cli_op, run_child, run_cli_op


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def setup_children(ctx: Context, modules, reps: int) -> tuple[list[dict], float]:
    """Import `modules` plus first-call set-up in `reps` fresh processes, one at
    a time, with a host calibration in a fresh process before and after
    each.  Returns the results and the factor that turns their wall
    seconds into reference seconds."""
    script = str(ctx.root / "perfbench" / "child_setup.py")

    def calibrate():
        return calibrate_in_child(ctx.python, ctx.tmp, ctx.env)
    out, cals = [], [calibrate()]
    for _ in range(reps):
        d = ctx.op_dir()
        child = run_child([ctx.python, script, *modules], d, ctx.env)
        cals.append(calibrate())
        d.rmdir()
        if child.code != 0:
            raise RuntimeError(f"set-up child exited {child.code}: {child.err[-2000:]}")
        out.append(json.loads(child.out.splitlines()[-1]))
    return out, REFERENCE_S / statistics.median(cals)


def import_times(ctx: Context, reps: int):
    """Median cumulative import time of icotile.cli and self time of icotile.catalog,
    read from `python -X importtime` in fresh processes."""
    cli_s, catalog_s = [], []
    for _ in range(reps):
        d = ctx.op_dir()
        child = run_child([ctx.python, "-X", "importtime", "-c", "import icotile.cli"], d, ctx.env)
        d.rmdir()
        rows = {}
        for line in child.err.splitlines():
            if line.startswith("import time:") and "|" in line:
                self_us, cum_us, name = line[len("import time:"):].split("|")
                if self_us.strip().isdigit():
                    rows[name.strip()] = (int(self_us) / 1e6, int(cum_us) / 1e6)
        cli_s.append(rows["icotile.cli"][1])
        catalog_s.append(rows["icotile.catalog"][0])
    return {"cli.import_s": (statistics.median(cli_s), "s"),
            "catalog.import_s": (statistics.median(catalog_s), "s")}, []


def cli_probe(ctx: Context, reps: int):
    """Each subcommand with fixed arguments, `reps` fresh processes each."""
    ops = (
        cli_op("catalog", ["catalog"], oracles.cli_catalog, mode="plain"),
        cli_op("inflate", ["inflate", "--tile", "T2", "--order", "30"], oracles.cli_inflate,
               base="T2", n=30, as_json=False),
        cli_op("eigen", ["eigen"], oracles.cli_eigen, as_json=False),
        cli_op("ledger", ["ledger", "--verify"], oracles.cli_ledger, mode="verify"),
        cli_op("build", ["build", "--shape", "d1"], oracles.cli_build,
               shape="d1", out_path=None, as_json=False),
        cli_op("verify", ["verify"], oracles.cli_verify, names=(), as_json=False),
        cli_op("report", ["report", "--out", "rep"], oracles.cli_report,
               out_dir="rep", as_json=False, ref=oracles.ReportReference()),
    )
    metrics, failures = {}, []
    for op in ops:
        runs = [run_cli_op(op, ctx) for _ in range(reps)]
        metrics[f"cli.{op.label}_p50_s"] = (statistics.median(r[0] for r in runs), "s")
        failures += [f"cli probe {op.label}: {r[1]}" for r in runs if r[1]]
    return metrics, failures


def golden_probe(golden):
    """Field operations on small operands and on operands the size of tau^3000."""
    G = golden.GoldenRational
    small = (G(3, 5, 7), G(-2, 9, 11))
    t3000 = golden.tau_pow(3000)
    big = (t3000 * G(3, 5, 7), golden.tau_pow(2999) * G(-2, 9, 11))
    metrics = {}
    for width, (x, y), n in (("small", small, 2000), ("big", big, 200)):
        for op, fn in (("mul", lambda: x * y), ("add", lambda: x + y), ("lt", lambda: x < y)):
            def loop(fn=fn):
                for _ in range(n):
                    fn()
            metrics[f"golden.{op}_{width}_us"] = (_median_time(loop, 5) / n * 1e6, "us")
    x = small[0]
    embed = golden.embed

    def embed_loop():
        for _ in range(2000):
            embed(x)
    metrics["golden.embed_us"] = (_median_time(embed_loop, 5) / 2000 * 1e6, "us")
    metrics["golden.tau_pow_3e5_ms"] = (_median_time(lambda: golden.tau_pow(300000), 3) * 1e3, "ms")
    failures = []
    if abs(embed(x) - oracles.gr_float((3, 5, 7))) > 1e-15:
        failures.append("golden probe: embed")
    if (x * small[1]).as_fraction_pair() != oracles.fraction_pair(oracles.gr_mul((3, 5, 7), (-2, 9, 11))):
        failures.append("golden probe: mul")
    return metrics, failures


def inflation_probe(inflation):
    metrics, failures = {}, []
    start = inflation.CountVector.unit(1)
    for n, label in ((1000, "1e3"), (10000, "1e4"), (100000, "1e5")):
        result = []
        t = _median_time(lambda: result.append(inflation.inflate_counts(start, n)), 3)
        metrics[f"inflation.inflate_{label}_ms"] = (t * 1e3, "ms")
        if tuple(c % oracles.PRIME for c in result[-1]) != oracles.inflated("T2", n, oracles.PRIME):
            failures.append(f"inflation probe: counts at n={n}")
    entries = inflation.dodecahedron_ledger()

    def verify_all():
        if not all(inflation.verify_decomposition(d).ok for d in entries):
            failures.append("inflation probe: ledger entry failed")
    metrics["inflation.verify_decomposition_ms"] = (
        _median_time(verify_all, 5) / len(entries) * 1e3, "ms")
    metrics["inflation.pf_vectors_ms"] = (_median_time(inflation.pf_vectors, 5) * 1e3, "ms")
    return metrics, failures


def geometry_probe(geometry, cli):
    metrics, failures = {}, []

    def cold(target):
        geometry.assemble.cache_clear()
        return geometry.assemble(target)

    built = []
    metrics["geometry.assemble_d1_s"] = (_median_time(lambda: built.append(cold("d1")), 3), "s")
    metrics["geometry.assemble_i1_s"] = (_median_time(lambda: cold("i1"), 3), "s")
    per_rep = []
    for _ in range(3):
        t0 = perf_counter()
        for target in oracles.COMPOSITES:
            cold(target)
        per_rep.append((perf_counter() - t0) / len(oracles.COMPOSITES))
    metrics["geometry.assemble_composite_ms"] = (statistics.median(per_rep) * 1e3, "ms")
    d1 = built[-1]
    metrics["geometry.dihedrals_ms"] = (_median_time(lambda: geometry.dihedrals(d1.mesh), 5) * 1e3, "ms")
    metrics["geometry.export_ms"] = (_median_time(
        lambda: (geometry.export_obj(d1), cli.canonical_json(geometry.export_patch(d1))), 5) * 1e3, "ms")
    reason = oracles.check_assembly("d1", d1, d1.mesh.counts(), geometry.dihedrals(d1.mesh))
    if reason:
        failures.append(f"geometry probe: {reason}")
    n = len(d1.tiles)
    metrics["geometry.d1.walls"] = (len(d1.walls), "count")
    metrics["geometry.d1.boundary_triangles"] = (len(d1.boundary_triangles), "count")
    metrics["geometry.d1.hull_faces"] = (d1.mesh.counts()[2], "count")
    metrics["geometry.d1.pairs"] = (n * (n - 1) // 2, "count")  # computed as C(n, 2), not measured
    return metrics, failures


def checks_probe(checks, geometry):
    """Each check on its own, with the assembly cache cleared first."""
    metrics, failures = {}, []
    for name in oracles.CHECK_NAMES:
        geometry.assemble.cache_clear()
        t0 = perf_counter()
        results = checks.run_checks((name,))
        metrics[f"checks.{name}_s"] = (perf_counter() - t0, "s")
        want_ok = name not in oracles.EXPECTED_FAILING_CHECKS
        if [(r.name, r.ok) for r in results] != [(name, want_ok)]:
            failures.append(f"checks probe: {name} -> {[(r.name, r.ok) for r in results]}")
    return metrics, failures


def report_probe(report, geometry):
    metrics, failures = {}, []
    ref = oracles.ReportReference()
    geometry.assemble.cache_clear()
    t0 = perf_counter()
    bundle = report.build_bundle()
    metrics["report.build_bundle_cold_s"] = (perf_counter() - t0, "s")
    metrics["report.build_bundle_warm_ms"] = (_median_time(report.build_bundle, 3) * 1e3, "ms")
    metrics["report.bytes"] = (sum(len(t.encode("utf-8")) for t in bundle.values()), "bytes")
    for b in (bundle, report.build_bundle()):
        reason = ref.check(b)
        if reason:
            failures.append(f"report probe: {reason}")
    return metrics, failures


def span_probe(ico):
    """Fixed calls made while instrumented, so every busy_s and calls metric
    has spans on every workload, including one that never touches the layer."""
    ico.geometry.assemble.cache_clear()
    asm = ico.geometry.assemble("T2")
    reason = oracles.check_assembly("T2", asm, asm.mesh.counts(), ico.geometry.dihedrals(asm.mesh))
    counts = ico.inflation.inflate_counts(ico.inflation.CountVector.unit(1), 1000)
    volume = counts.total_volume()
    reason = reason or oracles.check_inflation("T2", 1000, tuple(counts), volume.as_fraction_pair(), None)
    return {}, [f"span probe: {reason}"] if reason else []


def catalog_first_call(setups: list[dict]):
    return {"catalog.all_records_ms": (statistics.median(s["all_records_s"] for s in setups) * 1e3, "ms")}
