"""End-to-end command-line behavior, golden outputs, exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import stat
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from icotile import checks, inflation
from icotile.catalog import ASSEMBLY_TARGETS
from icotile.cli import canonical_json, main
from icotile.golden import TAU, embed, tau_pow

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def _round_trips(text: str) -> bool:
    return canonical_json(json.loads(text)) + "\n" == text


def test_catalog_table(runner):
    res = runner.invoke(main, ["catalog"])
    assert res.exit_code == 0
    assert res.output == _golden("catalog.txt")


def test_catalog_dump(runner):
    res = runner.invoke(main, ["catalog", "dump"])
    assert res.exit_code == 0
    records = json.loads(res.output)
    assert [r["kind"] for r in records] == [
        "t1", "t2", "t3", "t4", "t5", "t6",
        "E", "C", "T1", "T2", "T3", "T4", "T3bar"]
    assert _round_trips(res.output)
    via_flag = runner.invoke(main, ["catalog", "--json"])
    assert via_flag.output == res.output


def test_catalog_dump_pinned(runner):
    # every record's face census, volume, composition, counts and axis classes
    res = runner.invoke(main, ["catalog", "dump"])
    assert res.exit_code == 0
    assert hashlib.sha256(res.output.encode()).hexdigest() == (
        "eb4b4081c93c1168e7b3e5a30253af15bade6696006f091d690cac87b9fa1fa5")


def test_inflate_example(runner):
    res = runner.invoke(main, ["inflate", "--tile", "T2", "--order", "3"])
    assert res.exit_code == 0
    assert res.output == _golden("inflate_t2_order3.txt")


def test_inflate_json_contract(runner):
    res = runner.invoke(main, ["inflate", "--tile", "T2", "--order", "3",
                               "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert set(data) == {"counts", "volume", "volume_float"}
    assert data["counts"] == [5, 21, 12, 6]
    assert data["volume"] == {"a": "89", "b": "144", "den": "12"}
    assert data["volume_float"] == pytest.approx(26.833074531665403, rel=1e-15)
    assert _round_trips(res.output)


def test_inflate_zero_order(runner):
    res = runner.invoke(main, ["inflate", "--tile", "d1", "--order", "0",
                               "--json"])
    assert json.loads(res.output)["counts"] == [3, 4, 0, 4]


# `inflate --tile T2` beyond float range: the printed .7e and JSON .16e
# volume strings, and sha256 of the whole text and JSON output (the counts
# run to thousands of digits)
_BEYOND_FLOAT = {
    1000: ("3.2411746e+626", "3.2411745836597951e+626",
           "b388a031e88d2747f294cd93f33a7740869b76e8e7686b255feedbf9f76cf5da",
           "958d99600de7212e4821f58bbb48f6f02179224f109558c413eabd184b9fc4de"),
    10000: ("1.5031045e+6269", "1.5031044967780850e+6269",
            "d19b1c3eb7559b2061cc068fd1030e36a09678807d2ff44a17c226f3cc3ee5a4",
            "04e9fe66b584a5afbdbc8622651f8294299a0d0a2bab71768cde63bb834e85dc"),
}


@pytest.mark.parametrize("order", [1000, 10000])
def test_inflate_beyond_float_range(runner, order):
    # the volume overflows a float at both orders; at 10000 the counts also
    # pass the interpreter's default 4300-digit int-to-str limit
    args = ["--max-order", "20000", "inflate", "--tile", "T2", "--order", str(order)]
    text = runner.invoke(main, args)
    as_json = runner.invoke(main, args + ["--json"])
    assert text.exit_code == 0, text.output
    assert as_json.exit_code == 0, as_json.output
    want_text, want_json, text_sha, json_sha = _BEYOND_FLOAT[order]
    assert text.output.splitlines()[1].endswith(f" = {want_text}")
    assert json.loads(as_json.output)["volume_float"] == want_json
    assert hashlib.sha256(text.output.encode()).hexdigest() == text_sha
    assert hashlib.sha256(as_json.output.encode()).hexdigest() == json_sha
    counts = inflation.inflate_counts(inflation.CountVector.unit(1), order)
    volume = counts.total_volume()
    counts_line, volume_line = text.output.splitlines()
    assert counts_line == "counts: " + " ".join(str(c) for c in counts.c)
    exact, approx = volume_line.split(" = ")
    assert exact == f"volume: {volume}"
    mantissa, exponent = approx.split("e+")
    assert len(mantissa) == 9
    log10_volume = 3 * order * math.log10(embed(TAU)) + math.log10(embed(volume / tau_pow(3 * order)))
    assert math.log10(float(mantissa)) + int(exponent) == pytest.approx(log10_volume, abs=1e-7)
    data = json.loads(as_json.output)
    assert data["counts"] == list(counts.c)
    assert data["volume"] == volume.to_json()
    assert format(Decimal(data["volume_float"]), ".7e") == approx


def test_inflate_order_validation(runner):
    assert runner.invoke(main, ["inflate", "--tile", "T2",
                                "--order", "-1"]).exit_code == 2
    assert runner.invoke(main, ["inflate", "--tile", "T2",
                                "--order", "51"]).exit_code == 2
    raised = runner.invoke(main, ["--max-order", "60", "inflate",
                                  "--tile", "T2", "--order", "51"])
    assert raised.exit_code == 0
    via_env = runner.invoke(main, ["inflate", "--tile", "T2", "--order", "51"],
                            env={"ICOTILE_MAX_ORDER": "60"})
    assert via_env.exit_code == 0
    # --tile reads its choices from inflation on demand; message and help are pinned
    bad_tile = runner.invoke(main, ["inflate", "--tile", "T9", "--order", "1"],
                             terminal_width=80)
    assert bad_tile.exit_code == 2
    assert bad_tile.output == _golden("inflate_tile_t9.txt")
    helped = runner.invoke(main, ["inflate", "--help"], terminal_width=80)
    assert helped.output == _golden("inflate_help.txt")


def test_eigen(runner):
    res = runner.invoke(main, ["eigen"])
    assert res.exit_code == 0
    assert res.output == _golden("eigen.txt")
    as_json = runner.invoke(main, ["eigen", "--json"])
    data = json.loads(as_json.output)
    assert set(data) == {"eigenvalues", "right_pf", "left_pf",
                         "exact_right_pf", "exact_left_pf", "projection"}
    assert _round_trips(as_json.output)


def test_ledger_verify(runner):
    res = runner.invoke(main, ["ledger", "--verify"])
    assert res.exit_code == 0
    assert res.output == _golden("ledger_verify.txt")
    assert len(res.output.splitlines()) == 7


def test_ledger_corrupt_flag(runner):
    res = runner.invoke(main, ["ledger", "--corrupt", "--verify"])
    assert res.exit_code == 1
    lines = res.output.splitlines()
    assert lines[0].startswith("FAIL ")
    assert all(l.startswith("OK ") for l in lines[1:])
    # the hidden flag must not corrupt later runs
    again = runner.invoke(main, ["ledger", "--verify"])
    assert again.exit_code == 0


def test_ledger_corrupt_flag_not_from_environment(runner):
    # only --max-order and --output-path read the environment; the hidden mutant flag does not
    res = runner.invoke(main, ["ledger", "--verify"], env={"ICOTILE_LEDGER_CORRUPT": "1"})
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 7 and all(l.startswith("OK ") for l in lines)


def test_wrong_ledger_entry_fails_without_traceback(runner, monkeypatch):
    entries = inflation._ledger_data()
    first = entries[0]
    last = first.parts[-1]
    wrong = dataclasses.replace(first, parts=first.parts[:-1] + (
        dataclasses.replace(last, count=last.count + 1),))
    monkeypatch.setattr(inflation, "_ledger_data", lambda: (wrong,) + entries[1:])

    def run(args, code):
        res = runner.invoke(main, args)
        assert res.exit_code == code
        assert res.exception is None or isinstance(res.exception, SystemExit)
        return res.output

    lines = run(["ledger", "--verify"], 1).splitlines()
    assert lines[0] == "FAIL T1^(2)"
    assert all(line.startswith("OK ") for line in lines[1:])
    assert run(["verify", "--check", "ledger"], 1) == "FAIL ledger: T1^(2) fails\n"
    md = json.loads(run(["report", "--json"], 0))["files"]["report.md"]
    assert f"- FAIL {wrong.describe()}\n" in md
    assert md.count("- OK ") == len(entries) - 1


def test_ledger_listing_and_json(runner):
    res = runner.invoke(main, ["ledger"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 7
    assert lines[0] == ("T1^(2) = d(1) + 2 T2^(1) + T3^(1) + T4^(1)"
                        " + T2 + 4 T3")
    assert lines[-1].startswith("d(tau^10) = 432139 d(1) + 92850 d(tau)")
    as_json = runner.invoke(main, ["ledger", "--json"])
    data = json.loads(as_json.output)
    assert data["ok"] is True
    assert len(data["entries"]) == 7
    assert all(e["count_consistent"] and e["volume_consistent"]
               for e in data["entries"])
    assert _round_trips(as_json.output)


def test_build_obj_example(runner):
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["build", "--shape", "d1",
                                   "--out", "d1.obj"])
        assert res.exit_code == 0
        assert res.output == _golden("build_d1.txt")
        text = Path("d1.obj").read_text(encoding="utf-8")
        assert len([l for l in text.splitlines() if l.startswith("v ")]) == 152
        assert len([l for l in text.splitlines() if l.startswith("o ")]) == 38
    # a hull with faces of two sizes lists each
    res = runner.invoke(main, ["build", "--shape", "T4"])
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == (
        "hull: 6 vertices, 11 edges, 7 faces (6 triangular, 1 quadrilateral)")


def test_build_json_patch(runner):
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["build", "--shape", "T2",
                                   "--out", "patch.json"])
        assert res.exit_code == 0
        data = json.loads(Path("patch.json").read_text(encoding="utf-8"))
        assert data["frame"] == "icosa-half-integer"
        assert [t["kind"] for t in data["tiles"]] == ["t2", "t4"]
    stdout = runner.invoke(main, ["build", "--shape", "T2", "--json"])
    assert stdout.exit_code == 0
    data = json.loads(stdout.output)
    assert len(data["hull"]["vertices"]) == 4
    assert _round_trips(stdout.output)


def test_build_rejects_unknown_suffix(runner):
    res = runner.invoke(main, ["build", "--shape", "d1", "--out", "d1.stl"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["--output-path", "out.txt", "build", "--shape", "T2"])
    assert res.exit_code == 2
    assert "Error: --output-path must end in .obj or .json" in res.output
    res = runner.invoke(main, ["build", "--shape", "bogus"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["build", "--shape", "T2", "--out", "afile/x.obj"],
    ["--output-path", "afile/x.obj", "build", "--shape", "T2"],
    ["report", "--out", "afile/sub"],
    ["--output-path", "afile", "report"],
])
def test_output_path_under_a_file_is_usage_error(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("", encoding="utf-8")
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "Error: cannot write afile/" in res.output
    assert ": afile is not a directory\n" in res.output
    assert (tmp_path / "afile").read_text(encoding="utf-8") == ""
    # a FIFO parent, which mkdir meets as "File exists", is named as well
    (tmp_path / "afile").unlink()
    os.mkfifo(tmp_path / "afile")
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert "Error: cannot write afile/" in res.output
    assert ": afile is not a directory\n" in res.output
    assert stat.S_ISFIFO((tmp_path / "afile").stat().st_mode)


def test_verify_passing_subset(runner):
    res = runner.invoke(main, ["verify", "--check", "tile-volumes",
                               "--check", "ledger"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 2
    assert all(l.startswith("OK ") for l in lines)


def test_verify_check_names_choice(runner):
    names = "|".join(checks.CHECK_NAMES)
    helped = runner.invoke(main, ["verify", "--help"], terminal_width=80).output
    assert f"--check [{names}]" in helped
    assert helped == _golden("verify_help.txt")
    res = runner.invoke(main, ["verify", "--check", "nope"])
    assert res.exit_code == 2
    quoted = ", ".join(f"'{n}'" for n in checks.CHECK_NAMES)
    assert f"Invalid value for '--check': 'nope' is not one of {quoted}." in res.output


def test_verify_json_consistency(runner):
    res = runner.invoke(main, ["verify", "--json"])
    data = json.loads(res.output)
    names = [c["name"] for c in data["checks"]]
    assert names == ["tile-volumes", "composite-volumes", "inventories",
                     "inflation-rules", "spectrum", "projection", "ledger",
                     "assemblies", "axis-classes", "report-determinism"]
    assert data["ok"] == all(c["ok"] for c in data["checks"])
    assert res.exit_code == (0 if data["ok"] else 1)
    for name in names:
        if name != "projection":
            entry = next(c for c in data["checks"] if c["name"] == name)
            assert entry["ok"], entry["detail"]
    assert _round_trips(res.output)


def test_report_bundle(runner):
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["report", "--out", "r1"])
        assert res.exit_code == 0
        files = sorted(p.name for p in Path("r1").iterdir())
        assert files == ["inflation_matrix.csv", "projection.csv",
                         "report.md", "table1.csv", "table2.csv"]
        for name in files:
            assert Path("r1", name).read_text("utf-8") == _golden(name), name
        data = Path("r1/table1.csv").read_bytes()
        assert b"\r" not in data
        md = Path("r1/report.md").read_text("utf-8")
        assert "eigenvalues: 4.2360680, 1.6180340, -0.6180340, -0.2360680" in md
        assert "0.1338, 0.4331, 0.2677, 0.1654" in md
        assert "0.3820, 0.1180, 0.2639, 0.2361" in md
        table2 = Path("r1/table2.csv").read_text("utf-8")
        assert table2.splitlines()[0] == "tile,N0,N1,N2,faces,volume,volume_float"
        assert 'T3,6,10,6,"5x(1,tau,tau);1x(1,1,1,1,1)",(3+4tau)/12' in table2


@pytest.mark.parametrize("env", [{}, {"ICOTILE_OUTPUT_PATH": "elsewhere"}])
def test_report_empty_out_is_usage_error(runner, env):
    # an empty --out is not read as absent: it would fall back to the
    # environment or ./report without a word
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["report", "--out", ""], env=env)
        assert res.exit_code == 2
        assert "Error: --out must name a directory, not ''" in res.output
        assert list(Path().iterdir()) == []


def test_report_deterministic(runner):
    with runner.isolated_filesystem():
        assert runner.invoke(main, ["report", "--out", "a"]).exit_code == 0
        assert runner.invoke(main, ["report", "--out", "b"]).exit_code == 0
        for p in Path("a").iterdir():
            assert p.read_bytes() == (Path("b") / p.name).read_bytes()


def test_report_json(runner):
    res = runner.invoke(main, ["report", "--json"])
    data = json.loads(res.output)
    assert set(data) == {"files"}
    assert set(data["files"]) == {"report.md", "table1.csv", "table2.csv",
                                  "inflation_matrix.csv", "projection.csv"}
    assert 't4,"1x(1,1,1);3x(1,tau,tau)",tau^2/12' in data["files"]["table1.csv"]
    assert _round_trips(res.output)


def test_unknown_flag_rejected(runner):
    res = runner.invoke(main, ["eigen", "--frobnicate"])
    assert res.exit_code == 2
    assert "Usage:" in res.stderr
    res = runner.invoke(main, ["frobnicate"])
    assert res.exit_code == 2


def test_global_flag_validation(runner):
    assert runner.invoke(main, ["--tol-predicates", "0", "catalog"]).exit_code == 2
    assert runner.invoke(main, ["--tol-isometry", "-1", "catalog"]).exit_code == 2
    assert runner.invoke(main, ["--max-order", "-5", "catalog"]).exit_code == 2
    assert runner.invoke(main, ["--max-order", "abc", "catalog"]).exit_code == 2
    assert runner.invoke(main, ["catalog"], env={"ICOTILE_MAX_ORDER": "-5"}).exit_code == 2


# what each subcommand option would read as ICOTILE_<COMMAND>_<PARAM> under
# click's automatic environment prefix (the hidden --corrupt was exempt even
# then), set to a value that changes the run
_HOSTILE_ENV = {
    "ICOTILE_CATALOG_AS_JSON": "1",
    "ICOTILE_INFLATE_TILE": "T1",
    "ICOTILE_INFLATE_ORDER": "3",
    "ICOTILE_INFLATE_AS_JSON": "1",
    "ICOTILE_EIGEN_AS_JSON": "1",
    "ICOTILE_LEDGER_DO_VERIFY": "1",
    "ICOTILE_LEDGER_CORRUPT": "1",
    "ICOTILE_LEDGER_AS_JSON": "1",
    "ICOTILE_BUILD_SHAPE": "T2",
    "ICOTILE_BUILD_OUT": "env.obj",
    "ICOTILE_BUILD_AS_JSON": "1",
    "ICOTILE_VERIFY_NAMES": "ledger",
    "ICOTILE_VERIFY_AS_JSON": "1",
    "ICOTILE_REPORT_OUT": "envdir",
    "ICOTILE_REPORT_AS_JSON": "1",
}


def _run_in_empty_dir(runner, args, env):
    """Exit code, output and {path: bytes} of the files one run writes."""
    with runner.isolated_filesystem():
        res = runner.invoke(main, args, env=env)
        files = {str(p): p.read_bytes() for p in sorted(Path().rglob("*")) if p.is_file()}
    return res.exit_code, res.output, files


def test_subcommand_options_ignore_environment(runner):
    derived = {f"ICOTILE_{name.upper()}_{param.name.upper()}"
               for name, cmd in main.commands.items()
               for param in cmd.params if isinstance(param, click.Option)}
    assert derived == set(_HOSTILE_ENV)
    clean = dict.fromkeys(_HOSTILE_ENV)  # None unsets, should the caller have them set
    runs = (["catalog"], ["inflate"], ["inflate", "--tile", "T2", "--order", "2"],
            ["eigen"], ["ledger"], ["build"], ["build", "--shape", "E"],
            ["report"], ["verify"])
    for args in runs:
        hostile = _run_in_empty_dir(runner, args, _HOSTILE_ENV)
        assert hostile == _run_in_empty_dir(runner, args, clean), args
    code, output, _ = hostile  # the full verify battery, projection failing
    assert code == 1
    assert len(output.splitlines()) == 10


def test_output_path_from_environment(runner):
    with runner.isolated_filesystem():
        res = runner.invoke(main, ["build", "--shape", "T2"],
                            env={"ICOTILE_OUTPUT_PATH": "t2.obj"})
        assert res.exit_code == 0
        assert res.output.endswith("wrote t2.obj\n")
        assert Path("t2.obj").read_text(encoding="utf-8").startswith("# T2: 2 tetrahedra\n")


def test_deterministic_stdout(runner):
    for args in (["catalog", "dump"], ["eigen", "--json"],
                 ["inflate", "--tile", "T1", "--order", "4", "--json"]):
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output


@pytest.mark.skipif(shutil.which("icotile") is None,
                    reason="console script not installed")
def test_console_script():
    proc = subprocess.run(["icotile", "ledger", "--verify"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == _golden("ledger_verify.txt")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "icotile.cli", "inflate", "--tile", "T2",
         "--order", "3"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == _golden("inflate_t2_order3.txt")


def _fresh_process(code: str) -> dict:
    """Run code in a new interpreter (this one already holds numpy) and
    return the JSON object it prints."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("reach", ["geometry = icotile.geometry",
                                   "from icotile import geometry"])
def test_geometry_loads_on_demand(reach):
    # geometry loads on first use, and a build loads neither axes nor
    # placement, whose names geometry resolves on first use in turn
    facts = _fresh_process(f"""
import contextlib, io, json, sys
import icotile, icotile.cli, icotile.inflation, icotile.checks, icotile.report
loaded = [m for m in ("numpy", "icotile.geometry") if m in sys.modules]
{reach}
with contextlib.redirect_stdout(io.StringIO()):
    icotile.cli.main(["build", "--shape", "i1"], standalone_mode=False)
lazy = ("icotile.geometry.axes", "icotile.geometry.placement")
built = [m for m in lazy if m in sys.modules]
from icotile.geometry import glue, realize, axis_classes, PlacedTile
print(json.dumps({{
    "loaded": loaded,
    "module": geometry is sys.modules["icotile.geometry"],
    "targets": geometry.ASSEMBLY_TARGETS is icotile.catalog.ASSEMBLY_TARGETS,
    "unknown": hasattr(icotile, "nonexistent"),
    "built": built,
    "lazy": [m for m in lazy if m in sys.modules],
    "names": [glue.__module__, realize.__module__, axis_classes.__module__,
              PlacedTile.__module__],
    "glue": glue is sys.modules["icotile.geometry.placement"].glue,
    "unknown_in_geometry": hasattr(geometry, "nonexistent"),
}}))
""")
    assert facts == {"loaded": [], "module": True, "targets": True, "unknown": False,
                     "built": [], "lazy": ["icotile.geometry.axes", "icotile.geometry.placement"],
                     "names": ["icotile.geometry.placement", "icotile.geometry.placement",
                               "icotile.geometry.axes", "icotile.geometry.assembly"],
                     "glue": True, "unknown_in_geometry": False}


def test_lazy_geometry_modules_show_in_importtime():
    # the lazy names load their module by an import statement's path, which
    # -X importtime lists with its self time
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "from icotile.geometry import axis_classes"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    listed = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()]
    assert "icotile.geometry.axes" in listed


def test_package_surface_loads_on_demand():
    # inflation and its three top-level names resolve on first use, to the
    # very objects of icotile.inflation; a bare import loads neither layer
    facts = _fresh_process("""
import json, sys
import icotile
bare = sorted(m for m in sys.modules if m.startswith("icotile."))
from icotile import inflation, CountVector, M, inflate_counts
named = [CountVector is inflation.CountVector, M is inflation.M,
         inflate_counts is inflation.inflate_counts,
         inflation is sys.modules["icotile.inflation"]]
star = {}
exec("from icotile import *", star)
print(json.dumps({
    "bare": bare,
    "named": named,
    "star": all(star[n] is getattr(icotile, n) for n in icotile.__all__),
    "star_inflation": [star[n] is getattr(inflation, n)
                       for n in ("CountVector", "M", "inflate_counts")]
                      + [star["inflation"] is inflation],
    "unknown": hasattr(icotile, "nonexistent"),
}))
""")
    assert facts == {"bare": ["icotile.catalog", "icotile.golden"],
                     "named": [True] * 4, "star": True,
                     "star_inflation": [True] * 4, "unknown": False}


def test_catalog_records_load_on_first_read():
    # the CLI and geometry load the tile vocabulary, not the record tables;
    # the first read of any other catalog name loads them, a dunder does not
    facts = _fresh_process("""
import json, sys
import icotile, icotile.cli, icotile.geometry
from icotile import catalog
loaded = sorted(m for m in sys.modules if m in ("icotile.catalog", "icotile._catalog"))
path = hasattr(catalog, "__path__")
probed = "icotile._catalog" in sys.modules
try:
    catalog.nonexistent
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
from icotile import _catalog
star = {}
exec("from icotile.catalog import *", star)
print(json.dumps({
    "loaded": loaded, "path": path, "probed": probed, "unknown": unknown,
    "same": [catalog.FaceSpec is _catalog.FaceSpec, catalog.record is _catalog.record,
             catalog._RECORDS is _catalog._RECORDS, icotile.record is _catalog.record,
             icotile.geometry.CMVolume is _catalog.CMVolume,
             _catalog.TileKind is catalog.TileKind],
    "star": sorted(set(star) - {"__builtins__"}) == sorted(catalog.__all__)
            and all(star[n] is getattr(catalog, n) for n in catalog.__all__),
}))
""")
    assert facts == {"loaded": ["icotile.catalog"], "path": False, "probed": False,
                     "unknown": "module 'icotile.catalog' has no attribute 'nonexistent'",
                     "same": [True] * 6, "star": True}


@pytest.mark.parametrize("args", [["build", "--shape", "T2"], ["catalog"]])
def test_traced_cli_child_wraps_catalog_functions(args, tmp_path):
    # perfbench/child_cli.py wraps the public functions it finds in the
    # namespaces of the modules `import icotile.cli` loaded, before any
    # record is read; catalog.all_records and total_volume must be found
    child = Path(__file__).parents[1] / "perfbench" / "child_cli.py"
    proc = subprocess.run([sys.executable, str(child), str(tmp_path / "spans"), *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = [json.loads(line)[0] for line in (tmp_path / "spans").read_text().splitlines()]
    assert ("catalog.all_records" in names) == (args == ["catalog"])


# the icotile modules, and which of decimal, fractions and json, one
# subcommand loads in a fresh interpreter, and its exit code
_CORE = ["icotile", "icotile.catalog", "icotile.cli", "icotile.golden"]
_RECORDS = sorted(_CORE + ["icotile._catalog"])
_GEOMETRY = ["icotile.geometry", "icotile.geometry._wiring", "icotile.geometry.assembly"]
_SUBCOMMAND_LOADS = [
    (["catalog"], 0, _RECORDS),
    (["build", "--shape", "d2"], 2, _CORE),
    (["eigen", "--frobnicate"], 2, _CORE),
    (["--help"], 0, _CORE),
    (["build", "--shape", "i1"], 0, sorted(_CORE + _GEOMETRY)),
    (["build", "--shape", "T2"], 0, sorted(_CORE + _GEOMETRY)),
    (["inflate", "--tile", "T2", "--order", "3"], 0, sorted(_RECORDS + ["icotile.inflation"])),
    (["eigen"], 0, sorted(_RECORDS + ["icotile.inflation"])),
    (["ledger", "--verify"], 0, sorted(_RECORDS + ["icotile.inflation"])),
    (["catalog", "--json"], 0, sorted(_RECORDS + ["json"])),
    (["inflate", "--tile", "T2", "--order", "3", "--json"], 0,
     sorted(_RECORDS + ["icotile.inflation", "json"])),
    (["build", "--shape", "i1", "--json"], 0, sorted(_CORE + _GEOMETRY + ["json"])),
    (["--max-order", "5000", "inflate", "--tile", "T2", "--order", "1000"], 0,
     sorted(_RECORDS + ["decimal", "icotile.inflation"])),
]


@pytest.mark.parametrize("args, code, loaded", _SUBCOMMAND_LOADS,
                         ids=[" ".join(a) for a, _, _ in _SUBCOMMAND_LOADS])
def test_subcommand_loads_only_its_layers(args, code, loaded):
    facts = _fresh_process(f"""
import contextlib, io, sys
from icotile.cli import main
code = 0
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        main({args!r})
    except SystemExit as exc:
        code = exc.code
loaded = sorted(m for m in sys.modules if m == "icotile" or m.startswith("icotile.")
                or m in ("decimal", "fractions", "json"))
import json
print(json.dumps({{"code": code, "loaded": loaded}}))
""")
    assert facts == {"code": code, "loaded": loaded}


def test_light_subcommands_skip_numpy():
    facts = _fresh_process("""
import contextlib, io, json, sys
import click
from icotile.cli import main
runs = (["catalog"], ["inflate", "--tile", "T2", "--order", "3"], ["eigen"],
        ["ledger", "--verify"], ["build", "--shape", "d2"],
        ["inflate", "--tile", "T1", "--order", "77"],
        ["build", "--shape", "d1", "--out", "d1.stl"])
codes, messages = [], []
for args in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(main(args, standalone_mode=False))
        except click.UsageError as exc:
            codes.append(exc.exit_code)
            messages.append(exc.format_message())
print(json.dumps({"codes": codes, "messages": messages,
                  "numpy": "numpy" in sys.modules,
                  "checks": "icotile.checks" in sys.modules}))
""")
    assert facts["codes"] == [None, None, None, None, 2, 2, 2]
    assert facts["messages"] == [
        "Invalid value for '--shape': 'd2' is not one of 'd1', 'i1', 'E', 'C', "
        "'T1', 'T2', 'T3', 'T3bar', 'T4'.",
        "--order 77 exceeds --max-order 50",
        "--out must end in .obj or .json",
    ]
    assert facts["numpy"] is False
    assert facts["checks"] is False


def test_checks_without_assembly_skip_numpy():
    facts = _fresh_process("""
import json, sys
from icotile import checks
names = ("tile-volumes", "composite-volumes", "inventories", "inflation-rules",
         "spectrum", "ledger")
print(json.dumps({"passed": [r.name for r in checks.run_checks(names) if r.ok],
                  "loaded": [m for m in ("numpy", "icotile.geometry") if m in sys.modules]}))
""")
    assert facts == {"passed": ["tile-volumes", "composite-volumes", "inventories",
                                "inflation-rules", "spectrum", "ledger"],
                     "loaded": []}


def test_canonical_json_edge_values():
    assert canonical_json(None) == "null"
    assert canonical_json([]) == "[]"
    assert canonical_json({"a": [], "b": None}) == '{\n  "a": [],\n  "b": null\n}'
    with pytest.raises(TypeError, match="not JSON-serializable: set"):
        canonical_json({"a": [{1}]})


def _canonical_json_reference(obj) -> str:
    """canonical_json as it emitted element by element, formatting every
    scalar anew, kept verbatim as the reference."""
    out: list[str] = []
    put = out.append

    def emit(x, pad: str) -> None:
        if isinstance(x, float):
            put(f"{x:.17g}")
        elif isinstance(x, int) and not isinstance(x, bool):
            put(str(x))
        elif x is None or isinstance(x, (bool, str)):
            put(json.dumps(x))
        elif isinstance(x, (dict, list, tuple)):
            inner, is_dict = pad + "  ", isinstance(x, dict)
            put("{" if is_dict else "[")
            for i, v in enumerate(x.items() if is_dict else x):
                put(",\n" if i else "\n")
                put(inner)
                if is_dict:
                    k, v = v
                    put(f"{json.dumps(str(k))}: ")
                emit(v, inner)
            put(("\n" + pad if x else "") + ("}" if is_dict else "]"))
        else:
            raise TypeError(f"not JSON-serializable: {type(x).__name__}")

    emit(obj, "")
    return "".join(out)


class _Int(int):
    def __str__(self):
        return "int-subclass"


class _Float(float):
    def __format__(self, spec):
        return "float-subclass"


class _Str(str):
    pass


def test_canonical_json_matches_reference_on_scalars():
    # a memo keyed on value alone would give -0.0 the text of 0.0, True that
    # of 1 or 1.0, and a subclass that of its base value
    nan = float("nan")
    scalars = [0.0, -0.0, 1, 1.0, True, False, None, 0.1, 1e300, nan, "a", "\u00e9",
               _Int(1), _Float(1.0), _Str("a"), -0.0, 0.0, 1.0, True, 1, nan, "a", "", ""]
    cases = [scalars, scalars[::-1], *([x, x, y] for x in scalars for y in scalars),
             tuple(scalars), [[1.0, 0.0], [-0.0, 1], ["a", 0.5, "a"], [], {}, [[]], 2.5],
             {"x": scalars, "y": {"z": -0.0, "w": 0.0}, "": "", "a": "a"},
             [{1: 1.0}, {1.0: True}, {True: "a"}, {-0.0: 0.0}, {0.0: -0.0}, {None: None},
              {"k": 1, _Str("j"): _Float(2.0)}, {_Int(3): _Int(3)}],
             *scalars]
    for obj in cases:
        assert canonical_json(obj) == _canonical_json_reference(obj), obj
    for bad in ({1}, [1.0, {1}], {"a": {1.0}}, ["a", frozenset()], {"a": [0.5, {"b": {2}}]}):
        with pytest.raises(TypeError, match="not JSON-serializable: (set|frozenset)"):
            canonical_json(bad)


def test_canonical_json_matches_reference_on_patches():
    from icotile.geometry import assemble, export_patch
    for target in ASSEMBLY_TARGETS:
        patch = export_patch(assemble(target))
        assert canonical_json(patch) == _canonical_json_reference(patch), target


def test_canonical_json_matches_reference_on_every_json_output(runner, monkeypatch, tmp_path):
    from icotile import cli
    seen = []

    def checked(obj):
        text = canonical_json(obj)
        assert text == _canonical_json_reference(obj)
        seen.append(text)
        return text

    monkeypatch.setattr(cli, "canonical_json", checked)
    runs = [["catalog", "--json"], ["catalog", "dump"], ["eigen", "--json"],
            ["ledger", "--json"], ["ledger", "--verify", "--json"],
            ["verify", "--json"], ["report", "--json"]]
    runs += [["inflate", "--tile", t, "--order", n, "--json"]
             for t in ("T1", "T2", "T3", "T4", "d1", "dtau") for n in ("0", "7", "50")]
    runs += [["build", "--shape", t, "--json"] for t in ASSEMBLY_TARGETS]
    runs += [["build", "--shape", t, "--out", str(tmp_path / f"{t}.json")]
             for t in ASSEMBLY_TARGETS]
    for args in runs:
        res = runner.invoke(main, args)
        assert res.exit_code == (1 if args[0] == "verify" else 0), (args, res.output)
    assert len(seen) == len(runs)


_ALL_SUBCOMMANDS = r"""
import contextlib, io, json, os, sys
{block}
import click
from icotile.cli import main
from icotile.catalog import ASSEMBLY_TARGETS
runs = [["verify"], ["verify", "--json"], ["report", "--json"], ["report", "--out", "bundle"]]
for t in ASSEMBLY_TARGETS:
    runs += [["build", "--shape", t], ["build", "--shape", t, "--json"],
             ["build", "--shape", t, "--out", t + ".obj"],
             ["build", "--shape", t, "--out", t + ".json"]]
out = []
for args in runs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args, standalone_mode=False)
    out.append([args, code, buf.getvalue()])
files = {{os.path.join(d, f): open(os.path.join(d, f), encoding="utf-8").read()
         for d, _, names in os.walk(".") for f in names}}
print(json.dumps({{"runs": out, "files": files, "numpy": "numpy" in sys.modules
                  and sys.modules["numpy"] is not None}}))
"""


def test_subcommands_run_without_numpy(tmp_path):
    # build, verify and report in an interpreter where importing numpy fails,
    # byte for byte as in one where it is importable
    import icotile
    path = os.pathsep.join([str(Path(icotile.__file__).resolve().parents[1]), *sys.path])
    facts = {}
    for name, block in (("blocked", 'sys.modules["numpy"] = None'), ("normal", "")):
        (tmp_path / name).mkdir()
        proc = subprocess.run([sys.executable, "-c", _ALL_SUBCOMMANDS.format(block=block)],
                              capture_output=True, text=True, timeout=300, cwd=tmp_path / name,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        facts[name] = json.loads(proc.stdout)
    blocked, normal = facts["blocked"], facts["normal"]
    assert blocked["numpy"] is False
    assert blocked["runs"] == normal["runs"] and blocked["files"] == normal["files"]
    assert len(blocked["files"]) == 5 + 2 * len(ASSEMBLY_TARGETS)
    (_, code, text), (_, json_code, json_text) = blocked["runs"][:2]
    assert (code, json_code) == (1, 1)
    assert [line.split(":")[0] for line in text.splitlines() if not line.startswith("OK ")] == [
        "FAIL projection"]
    assert [c["name"] for c in json.loads(json_text)["checks"] if not c["ok"]] == ["projection"]
