"""End-to-end command-line behavior, golden outputs, exit codes."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import pkgutil
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest

from icotile import checks, cli, inflation, report
from icotile.catalog import ASSEMBLY_TARGETS
from icotile.cli import canonical_json, main
from icotile.geometry import assemble, export_obj, export_patch
from icotile.golden import TAU, embed, tau_pow

GOLDEN = Path(__file__).parent / "golden"


class _Runner:
    """main run in-process as prog `main`: its stdout, stderr, the two
    together (`output`) and its exit code.  env values of None unset a
    variable, and terminal_width sets COLUMNS."""

    def __init__(self, tmp_path: Path):
        self.tmp_path = tmp_path

    @contextlib.contextmanager
    def isolated_filesystem(self):
        home = os.getcwd()
        os.chdir(tempfile.mkdtemp(dir=self.tmp_path))
        try:
            yield
        finally:
            os.chdir(home)

    def invoke(self, cli_main, args, env=None, terminal_width=None):
        res = SimpleNamespace(exception=None, exit_code=0)
        out, err = io.StringIO(), io.StringIO()
        env = {**(env or {}), **({"COLUMNS": str(terminal_width)} if terminal_width else {})}
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            for name, value in env.items():
                if value is None:
                    mp.delenv(name, raising=False)
                else:
                    mp.setenv(name, value)
            try:
                cli_main(args, prog_name="main")
            except SystemExit as exc:
                res.exit_code = exc.code or 0
            except Exception as exc:
                res.exception, res.exit_code = exc, 1
        res.stdout, res.stderr = out.getvalue(), err.getvalue()
        res.output = res.stdout + res.stderr
        return res


@pytest.fixture()
def runner(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return _Runner(tmp_path)


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


_LONG_NAME = "a" * 300  # longer than a file system takes for one name


@pytest.mark.parametrize("args, path", [
    (["report", "--out", _LONG_NAME], f"{_LONG_NAME}/report.md"),
    (["build", "--shape", "T2", "--out", f"{_LONG_NAME}/x.obj"], f"{_LONG_NAME}/x.obj"),
], ids=["report", "build"])
def test_out_name_too_long_is_usage_error(runner, tmp_path, args, path):
    # a name that cannot be looked up, met by report's check before its first
    # write or by build's mkdir: exit 2 and no file written
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.output.endswith(
        f"\n\nError: cannot write {path}: {os.strerror(errno.ENAMETOOLONG)}\n")
    assert res.stdout == "" and list(tmp_path.iterdir()) == []


# each help page not pinned elsewhere, as prog `main` at COLUMNS 80, and the
# top-level page at 40, where the command summaries are cut with "..."
_HELP_PAGES = [
    ([], 80, "top_help.txt"),
    ([], 40, "top_help_40.txt"),
    (["catalog"], 80, "catalog_help.txt"),
    (["eigen"], 80, "eigen_help.txt"),
    (["ledger"], 80, "ledger_help.txt"),
    (["build"], 80, "build_help.txt"),
    (["report"], 80, "report_help.txt"),
]


@pytest.mark.parametrize("args, width, golden", _HELP_PAGES,
                         ids=[g.removesuffix(".txt") for _, _, g in _HELP_PAGES])
def test_help_pages(runner, args, width, golden):
    res = runner.invoke(main, args + ["--help"], terminal_width=width)
    assert res.exit_code == 0
    assert res.stderr == ""
    assert res.stdout == _golden(golden)


def test_help_page_under_the_module_prog_name():
    # a prog name with spaces, which every in-process run (prog `main`) misses
    proc = subprocess.run([sys.executable, "-m", "icotile.cli", "inflate", "--help"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "COLUMNS": "80"})
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == _golden("inflate_help.txt").replace(
        "main inflate", "python -m icotile.cli inflate")


# the variables stand in for an absent flag only: a flag wins over a variable,
# even one that would be refused, and an empty variable is no value
@pytest.mark.parametrize("env, args, code, says, wrote", [
    ({"ICOTILE_MAX_ORDER": "abc"}, ["--max-order", "5", "inflate", "--tile", "T2", "--order", "5"],
     0, "counts: ", []),
    ({"ICOTILE_MAX_ORDER": ""}, ["inflate", "--tile", "T2", "--order", "50"], 0, "counts: ", []),
    ({"ICOTILE_MAX_ORDER": ""}, ["inflate", "--tile", "T2", "--order", "51"],
     2, "Error: --order 51 exceeds --max-order 50\n", []),
    ({"ICOTILE_OUTPUT_PATH": "env.obj"}, ["--output-path", "flag.json", "build", "--shape", "T2"],
     0, "wrote flag.json\n", ["flag.json"]),
], ids=["flag-over-invalid-max-order", "empty-max-order-50", "empty-max-order-51",
        "flag-over-output-path"])
def test_environment_defaults(runner, env, args, code, says, wrote):
    with runner.isolated_filesystem():
        res = runner.invoke(main, args, env=env)
        assert res.exit_code == code, res.output
        assert says in res.output
        assert sorted(p.name for p in Path().iterdir()) == wrote


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


def test_report_write_blocked_midway_prints_nothing(runner):
    # a bundle file that cannot be written, though report.md before it can,
    # is a usage error: exit 2, an empty stdout and no file written
    with runner.isolated_filesystem():
        Path("d/table1.csv").mkdir(parents=True)
        res = runner.invoke(main, ["report", "--out", "d"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == "Error: cannot write d/table1.csv: Is a directory"
        assert not Path("d/report.md").exists()


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


# what each subcommand option, ICOTILE_<COMMAND>_<DEST> in the parser's option
# table, would have read under click's automatic environment prefix (the
# hidden --corrupt was exempt even then; click read no positional argument
# from it), set to a value that changes the run
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
    derived = {f"ICOTILE_{name.upper()}_{kw.get('dest', flag[2:]).upper()}"
               for name, (_, options) in cli._COMMANDS.items() for flag, kw in options
               if flag[:1] == "-"}
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


def test_closed_pipe_exits_1_quietly():
    # as `| head -c 1` does: the reader takes one byte of 376 kB and closes the pipe
    with subprocess.Popen(
            [sys.executable, "-m", "icotile.cli", "--max-order", "100000", "inflate", "--tile",
             "T2", "--order", "100000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(1) == b"c"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert err == ""


def _env(buffered: bool = True) -> dict:
    """This environment with stdout block-buffered (to a file) or unbuffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    ["catalog"], ["--help"],
    ["--max-order", "10000", "inflate", "--tile", "T2", "--order", "10000"],
], ids=["short", "help", "long"])
def test_full_stdout_exits_1_with_one_line(args, buffered):
    # a write error other than the closed pipe, met by a print or by run's
    # flush: one line on stderr and exit 1, no traceback
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "icotile.cli", *args], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=_env(buffered))
    assert proc.returncode == 1
    assert proc.stderr == f"Error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    # fd 1 closed (`>&-`): sys.stdout is None, and print drops every line
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
                           "icotile.cli", *args],
                          stderr=subprocess.PIPE, text=True, timeout=120, env=_env(buffered))
    assert proc.returncode == 1
    assert proc.stderr == f"Error: cannot write stdout: {os.strerror(errno.EBADF)}\n"


# fd 2 closed (`2>&-`): a failure to write stderr leaves the exit code
# as it is, and a usage error's message goes nowhere, stdout included
_CLOSED_STDERR_RUNS = [
    (["build", "--shape", "d2"], "", 2), (["--help"], "", 0),
    (["verify", "--check", "ledger"], "", 0), (["catalog"], " > /dev/full", 1),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args, redirect, code", _CLOSED_STDERR_RUNS,
                         ids=[" ".join(a) + r for a, r, _ in _CLOSED_STDERR_RUNS])
def test_closed_stderr_keeps_the_exit_code(tmp_path, args, redirect, code):
    with open(tmp_path / "stdout", "wb") as out:
        proc = subprocess.run(["sh", "-c", f'exec "$@"{redirect} 2>&-', "sh", sys.executable,
                               "-m", "icotile.cli", *args], stdout=out, timeout=120, env=_env())
    assert proc.returncode == code
    if code == 2:
        assert (tmp_path / "stdout").read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_main_leaves_file_descriptors_alone(monkeypatch):
    # in-process, a stream's OSError passes through main, and the stream's
    # descriptor still points where it did
    with open("/dev/full", "w", buffering=1) as full:
        rdev = os.fstat(full.fileno()).st_rdev
        monkeypatch.setattr(sys, "stdout", full)
        with pytest.raises(OSError) as exc:
            main(["catalog"], prog_name="main")
        monkeypatch.undo()
        assert exc.value.errno == errno.ENOSPC
        assert os.fstat(full.fileno()).st_rdev == rdev
        full.buffer.raw.close()  # else closing full flushes the failed line again


# the process entry (main, then a hard exit) against main in-process: the
# same stdout, stderr and SystemExit code, a long stdout block-buffered to a file
_ENTRY_RUNS = [
    (["catalog"], 0), (["verify"], 1), (["build", "--shape", "d2"], 2), (["--help"], 0),
    (["--max-order", "30000", "inflate", "--tile", "T2", "--order", "30000"], 0),
]


@pytest.mark.parametrize("args, code", _ENTRY_RUNS, ids=[" ".join(a) for a, _ in _ENTRY_RUNS])
def test_process_entry_matches_main(tmp_path, monkeypatch, args, code):
    monkeypatch.setenv("COLUMNS", "80")
    with open(tmp_path / "stdout", "wb") as out:
        proc = subprocess.run([sys.executable, "-m", "icotile.cli", *args], stdout=out,
                              stderr=subprocess.PIPE, text=True, timeout=120, env=_env())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        main(args, prog_name="python -m icotile.cli")
    assert proc.returncode == exc.value.code == code
    assert (tmp_path / "stdout").read_text(encoding="utf-8") == out.getvalue()
    assert proc.stderr == err.getvalue()
    if args == ["--help"]:
        assert out.getvalue() == _golden("top_help.txt").replace(
            "Usage: main", "Usage: python -m icotile.cli")


def test_process_entry_writes_every_file(tmp_path):
    # the files a fresh process writes before its hard exit: d1's exports
    # (test_exports_pinned pins the in-process texts) and the report bundle
    def entry(*args):
        subprocess.run([sys.executable, "-m", "icotile.cli", *args],
                       check=True, capture_output=True, timeout=120)

    asm = assemble("d1")
    for name, text in (("d1.json", canonical_json(export_patch(asm)) + "\n"),
                       ("d1.obj", export_obj(asm))):
        entry("build", "--shape", "d1", "--out", str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
    entry("report", "--out", str(tmp_path / "r"))
    bundle = report.build_bundle()
    assert sorted(p.name for p in (tmp_path / "r").iterdir()) == sorted(bundle)
    for name, text in bundle.items():
        assert (tmp_path / "r" / name).read_bytes() == text.encode("utf-8"), name


def test_console_script_entry_skips_teardown():
    # pyproject's icotile script, called as an installer's wrapper calls it:
    # the output is written in full and no atexit hook runs after it
    scripts = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, attr = re.search(r'^icotile = "(.+):(.+)"$', scripts, re.M).groups()
    code = (f"import atexit, sys; atexit.register(print, 'atexit ran'); "
            f"from {module} import {attr}; sys.argv[0] = 'icotile'; sys.exit({attr}())")
    proc = subprocess.run([sys.executable, "-c", code, "ledger", "--verify"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == _golden("ledger_verify.txt")
    assert proc.stderr == ""


# the contract of perfbench/oracles.py `cli_edge` for a usage error, and the
# error each names: the first fault in argument order; the abbreviations are
# refused whole, as click refused them
_USAGE_ERRORS = [
    (["inflate", "--ord", "3", "--tile", "T2"], {}, "No such option '--ord'."),
    (["eigen", "--js"], {}, "No such option '--js'."),
    (["--max-ord", "60", "catalog"], {}, "No such option '--max-ord'."),
    (["--tol-predicates", "0", "catalog"], {}, "No such option '--tol-predicates'."),
    (["catalog", "--max-order", "5"], {}, "No such option '--max-order'."),
    (["frobnicate"], {}, "No such command 'frobnicate'."),
    ([], {}, "Missing command."),
    (["catalog", "dump", "extra"], {}, "Got unexpected extra argument (extra)"),
    (["catalog", "foo"], {}, "Invalid value for '[[dump]]': 'foo' is not 'dump'."),
    (["inflate", "--tile", "T2"], {}, "Missing option '--order'."),
    (["inflate", "--tile", "T2", "--order", "x"], {},
     "Invalid value for '--order': 'x' is not a valid integer."),
    (["catalog"], {"ICOTILE_MAX_ORDER": "abc"},
     "Invalid value for '--max-order': 'abc' is not a valid integer."),
]


@pytest.mark.parametrize("args, env, error", _USAGE_ERRORS, ids=[
    " ".join([*(f"{k}={v}" for k, v in env.items()), *args]) or "no-command"
    for args, env, _ in _USAGE_ERRORS])
def test_usage_error_contract(args, env, error):
    proc = subprocess.run([sys.executable, "-m", "icotile.cli", *args], capture_output=True,
                          text=True, timeout=120, env={**os.environ, **env})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Usage: python -m icotile.cli" in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"Error: {error}"
    assert "Traceback" not in proc.stderr


_LOADED_MODULES = """
import sys
{run}
sys.stderr.write("\\n" + " ".join(sorted(sys.modules)))
"""
_RUN_MAIN = """
from icotile.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
"""


def _loaded_modules(run: str, *args: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES.format(run=run), *args],
                          capture_output=True, text=True, timeout=120)
    return set(proc.stderr.splitlines()[-1].split())


def test_cli_starts_on_the_standard_library():
    # the bare interpreter's modules (this host's site may load certifi from
    # a .pth file), icotile's and the standard library's, and nothing more;
    # never argparse, nor the gettext and locale that it loads, nor
    # dataclasses and the inspect that it loads, not even for the commands
    # that read the ledger
    bare = _loaded_modules("")
    cli_import = _loaded_modules("import icotile.cli")
    assert not cli_import & {"click", "dataclasses", "inspect", "argparse", "gettext", "locale"}
    builds = [["build", "--shape", target] for target in ASSEMBLY_TARGETS]
    for args in (["catalog"], ["inflate", "--tile", "T2", "--order", "3"], ["eigen"],
                 ["ledger"], ["ledger", "--verify"], ["verify", "--check", "ledger"],
                 ["report", "--json"], *builds, ["--help"], ["eigen", "--js"]):
        loaded = _loaded_modules(_RUN_MAIN, *args)
        extra = {m for m in loaded - bare
                 if m.partition(".")[0] not in ("icotile", *sys.stdlib_module_names)}
        assert extra == set(), args
        assert not loaded & {"argparse", "gettext", "locale", "dataclasses", "inspect"}, args
    assert "icotile._catalog" not in _loaded_modules("import icotile.inflation")


def _fresh_process(code: str) -> dict:
    """Run code in a new interpreter (this one already holds numpy) and
    return the JSON object it prints."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("reach", ["from icotile import geometry"])
def test_geometry_loads_on_demand(reach):
    # geometry loads on first use, by its own path (the package root names
    # no module), and a build does not load its submodule axes, whose names
    # geometry does not hold
    facts = _fresh_process(f"""
import contextlib, io, json, sys
import icotile, icotile.cli, icotile.inflation, icotile.checks, icotile.report
loaded = [m for m in ("numpy", "icotile.geometry") if m in sys.modules]
{reach}
try:
    with contextlib.redirect_stdout(io.StringIO()):
        icotile.cli.main(["build", "--shape", "i1"])
except SystemExit as exc:
    assert exc.code == 0
built = [m for m in ("icotile.geometry.axes",) if m in sys.modules]
print(json.dumps({{
    "loaded": loaded,
    "module": geometry is sys.modules["icotile.geometry"],
    "targets": hasattr(geometry, "ASSEMBLY_TARGETS"),  # the catalog's name only
    "unknown": hasattr(icotile, "nonexistent"),
    "built": built,
    "unknown_in_geometry": hasattr(geometry, "nonexistent"),
}}))
""")
    assert facts == {"loaded": [], "module": True, "targets": False, "unknown": False,
                     "built": [], "unknown_in_geometry": False}


def test_package_surface_loads_on_demand():
    # the package root is bare: `import icotile` loads no icotile module and
    # offers none of their names, each of which is imported from its home
    facts = _fresh_process("""
import json, sys
import icotile
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.startswith("icotile.")),
    "names": sorted(n for n in vars(icotile) if not n.startswith("__")),
    "reached": [hasattr(icotile, n) for n in ("golden", "inflation", "TAU", "inflate_counts")],
}))
""")
    assert facts == {"loaded": [], "names": [], "reached": [False] * 4}


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
             catalog._RECORDS is _catalog._RECORDS, _catalog.TileKind is catalog.TileKind],
    "second_paths": [hasattr(icotile, "record"), hasattr(icotile.geometry, "CMVolume")],
    "star": sorted(set(star) - {"__builtins__"}) == sorted(catalog.__all__)
            and all(star[n] is getattr(catalog, n) for n in catalog.__all__),
}))
""")
    assert facts == {"loaded": ["icotile.catalog"], "path": False, "probed": False,
                     "unknown": "module 'icotile.catalog' has no attribute 'nonexistent'",
                     "same": [True] * 4, "second_paths": [False, False], "star": True}


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
_GEOMETRY = ["icotile.geometry", "icotile.geometry._wiring"]
_SUBCOMMAND_LOADS = [
    (["catalog"], 0, _RECORDS),
    (["build", "--shape", "d2"], 2, _CORE),
    (["eigen", "--frobnicate"], 2, _CORE),
    (["--help"], 0, _CORE),
    (["build", "--shape", "i1"], 0, sorted(_CORE + _GEOMETRY)),
    (["build", "--shape", "T2"], 0, sorted(_CORE + _GEOMETRY)),
    (["inflate", "--tile", "T2", "--order", "3"], 0, sorted(_RECORDS + ["icotile.inflation"])),
    (["eigen"], 0, sorted(_CORE + ["icotile.inflation"])),
    (["ledger", "--verify"], 0, sorted(_RECORDS + ["icotile.inflation"])),
    (["catalog", "--json"], 0, sorted(_RECORDS + ["json"])),
    (["inflate", "--tile", "T2", "--order", "3", "--json"], 0,
     sorted(_RECORDS + ["icotile.inflation", "json"])),
    (["build", "--shape", "i1", "--json"], 0, sorted(_CORE + _GEOMETRY + ["json"])),
    (["--max-order", "5000", "inflate", "--tile", "T2", "--order", "1000"], 0,
     sorted(_RECORDS + ["decimal", "icotile.inflation"])),
    # the help page and the usage errors before the inflation run read no record
    (["inflate", "--help"], 0, _CORE),
    (["inflate", "--tile", "T9", "--order", "2"], 2, _CORE),
    (["inflate", "--tile", "T2", "--order", "60"], 2, _CORE),
    # a full verify fails one check by design (projection); report loads no axes
    (["verify"], 1, sorted(_RECORDS + _GEOMETRY + [
        "icotile.checks", "icotile.geometry.axes", "icotile.inflation", "icotile.report"])),
    (["report", "--json"], 0, sorted(_RECORDS + _GEOMETRY + [
        "icotile.inflation", "icotile.report", "json"])),
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


def test_every_package_module_has_a_reader():
    # each module of the package is loaded by a subcommand above: the
    # package ships no module that only tests read
    import icotile
    loaded = {m for _, _, mods in _SUBCOMMAND_LOADS for m in mods if m.startswith("icotile")}
    modules = {m.name for m in pkgutil.walk_packages(icotile.__path__, "icotile.")}
    assert loaded == {"icotile"} | modules


def test_light_subcommands_skip_numpy():
    facts = _fresh_process("""
import contextlib, io, json, sys
from icotile.cli import main
runs = (["catalog"], ["inflate", "--tile", "T2", "--order", "3"], ["eigen"],
        ["ledger", "--verify"], ["build", "--shape", "d2"],
        ["inflate", "--tile", "T1", "--order", "77"],
        ["build", "--shape", "d1", "--out", "d1.stl"])
codes, messages = [], []
for args in runs:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            codes.append(exc.code)
    if codes[-1] == 2:
        messages.append(err.getvalue().splitlines()[-1].removeprefix("Error: "))
print(json.dumps({"codes": codes, "messages": messages,
                  "numpy": "numpy" in sys.modules,
                  "checks": "icotile.checks" in sys.modules}))
""")
    assert facts["codes"] == [0, 0, 0, 0, 2, 2, 2]
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
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code
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


_JSON_OUTPUTS = r"""
import contextlib, hashlib, io, json
from icotile.catalog import ASSEMBLY_TARGETS
from icotile.cli import main
runs = [["build", "--shape", t, "--json"] for t in ASSEMBLY_TARGETS]
runs += [["report", "--json"], ["catalog", "dump"], ["eigen", "--json"], ["ledger", "--json"],
         ["verify", "--json"]]
out = []
for args in runs:
    buf, code = io.StringIO(), 0
    with contextlib.redirect_stdout(buf):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code
    out.append([args, code, hashlib.sha256(buf.getvalue().encode()).hexdigest()])
print(json.dumps({"hash": hash("icotile"), "runs": out}))
"""


def test_json_outputs_agree_across_hash_seeds(tmp_path):
    # one process has one hash seed, so a set order leaking into an output
    # shows only between processes: each JSON output, byte for byte, under
    # PYTHONHASHSEED 1 and 2
    import icotile
    path = os.pathsep.join([str(Path(icotile.__file__).resolve().parents[1]), *sys.path])
    env = {k: v for k, v in os.environ.items() if not k.startswith("ICOTILE_")}
    facts = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _JSON_OUTPUTS],
                              capture_output=True, text=True, timeout=300, cwd=tmp_path,
                              env={**env, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        facts.append(json.loads(proc.stdout))
    one, two = facts
    assert one["hash"] != two["hash"]  # the two seeds hash strings apart
    assert one["runs"] == two["runs"]
    assert [code for _, code, _ in one["runs"]] == [0] * (len(ASSEMBLY_TARGETS) + 4) + [1]


# the seeded argv sweep: whole command lines drawn from the option tables,
# then mutated token by token; sha256 over (argv, exit code, stdout, stderr)
_SWEEP_SIZE = 3000
_SWEEP_SHA = "27535a36295102709fe23891895d64e9f25a9558c82c215df8842c0447392266"
_SWEEP_INTS = ("0", "2", "7", "50", "51")
_SWEEP_PATHS = ("a.obj", "b.json", "c.stl", "d", "e/f.obj")
_SWEEP_UNKNOWN = ("--bogus", "-x", "--jso", "--order", "-5", "--help", "-h")
_NON_UTF8 = b"\xff".decode("utf-8", "surrogateescape")


def _sweep_value(rng, kw):
    if "choices" in kw:
        return rng.choice(kw["choices"]())
    return rng.choice(_SWEEP_INTS if kw.get("type") is int else _SWEEP_PATHS)


def _sweep_command_line(rng):
    """A valid command line: some global options, a command, its required
    options and about half of the others, a positional row's word included."""
    argv = []
    for flag, kw in cli._GLOBALS:
        if rng.random() < 0.2:
            argv += [flag, _sweep_value(rng, kw)]
    name = rng.choice(sorted(cli._COMMANDS))
    argv.append(name)
    for flag, kw in cli._COMMANDS[name][1]:
        if not kw.get("required") and rng.random() < 0.5:
            continue
        if flag[:1] != "-":
            argv.append(_sweep_value(rng, kw))
        elif kw.get("action") == "store_true":
            argv.append(flag)
        else:
            for _ in range(rng.randint(1, 2) if kw.get("action") == "append" else 1):
                argv += [flag, _sweep_value(rng, kw)]
    return argv


def _sweep_mutate(rng, argv):
    """argv with one token dropped, duplicated or swapped with its neighbour,
    an option joined to its value by "=", or "--", "-", an unknown flag or a
    non-UTF-8 byte (as os.fsdecode reads it) put in."""
    argv, k = list(argv), rng.randrange(len(argv))
    kind = rng.randrange(7)
    if kind == 0:
        del argv[k]
    elif kind == 1:
        argv.insert(k, argv[k])
    elif kind == 2 and k + 1 < len(argv):
        argv[k], argv[k + 1] = argv[k + 1], argv[k]
    elif kind == 3 and argv[k][:2] == "--" and k + 1 < len(argv):
        argv[k:k + 2] = [f"{argv[k]}={argv[k + 1]}"]
    elif kind == 4:
        argv.insert(k, rng.choice(("--", "-")))
    elif kind == 5:
        argv.insert(k, rng.choice(_SWEEP_UNKNOWN))
    else:  # kind 6, or a swap or join with nothing to swap or join
        argv[k] = rng.choice((argv[k] + _NON_UTF8, _NON_UTF8 + argv[k]))
    return argv


def test_seeded_argv_sweep(runner, monkeypatch):
    # every exit is 0, 1 or 2 and nothing else leaves main; a usage error
    # prints nothing on stdout and ends on its Error: line; the digest pins
    # every byte, files are written under tmp_path only
    rng, digest, runs = random.Random(41), hashlib.sha256(), 0
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("ICOTILE_MAX_ORDER", "ICOTILE_OUTPUT_PATH"):
        monkeypatch.delenv(name, raising=False)
    while runs < _SWEEP_SIZE:
        argv = _sweep_command_line(rng)
        for _ in range(rng.choice((0, 1, 1, 2))):
            argv = _sweep_mutate(rng, argv) if argv else argv
        if "verify" in argv and not any(a.startswith("--check") for a in argv):
            continue  # the full battery takes a second
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(argv, prog_name="main")
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert out == "", argv
            assert err.splitlines()[-1].startswith("Error: "), (argv, err)
        digest.update(repr((argv, code, out, err)).encode())
        runs += 1
    assert digest.hexdigest() == _SWEEP_SHA
