"""End-to-end command-line behavior, golden outputs, exit codes."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from click.testing import CliRunner

from icotile import inflation
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


@pytest.mark.parametrize("order", [1000, 10000])
def test_inflate_beyond_float_range(runner, order):
    # the volume overflows a float at both orders; at 10000 the counts also
    # pass the interpreter's default 4300-digit int-to-str limit
    args = ["--max-order", "20000", "inflate", "--tile", "T2", "--order", str(order)]
    text = runner.invoke(main, args)
    as_json = runner.invoke(main, args + ["--json"])
    assert text.exit_code == 0, text.output
    assert as_json.exit_code == 0, as_json.output
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
    assert runner.invoke(main, ["inflate", "--tile", "T9",
                                "--order", "1"]).exit_code == 2


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
    assert (tmp_path / "afile").read_text(encoding="utf-8") == ""


def test_verify_passing_subset(runner):
    res = runner.invoke(main, ["verify", "--check", "tile-volumes",
                               "--check", "ledger"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 2
    assert all(l.startswith("OK ") for l in lines)


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
        assert Path("r1/table1.csv").read_text("utf-8") == _golden("table1.csv")
        assert (Path("r1/inflation_matrix.csv").read_text("utf-8")
                == _golden("inflation_matrix.csv"))
        data = Path("r1/table1.csv").read_bytes()
        assert b"\r" not in data
        md = Path("r1/report.md").read_text("utf-8")
        assert "eigenvalues: 4.2360680, 1.6180340, -0.6180340, -0.2360680" in md
        assert "0.1338, 0.4331, 0.2677, 0.1654" in md
        assert "0.3820, 0.1180, 0.2639, 0.2361" in md
        table2 = Path("r1/table2.csv").read_text("utf-8")
        assert table2.splitlines()[0] == "tile,N0,N1,N2,faces,volume,volume_float"
        assert 'T3,6,10,6,"5x(1,tau,tau);1x(1,1,1,1,1)",(3+4tau)/12' in table2


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
