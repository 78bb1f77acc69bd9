"""Expected outputs written down independently of icotile.

Nothing here imports icotile.  Exact values are (a, b, den) triples for
(a + b*tau)/den, typed in by hand from the closed forms in the paper and
cross-checked against each other when this module loads; counts come from
a 4x4 matrix power computed here.  Every checker returns None when the
output is right and a short reason when it is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

TAU_F = (1 + math.sqrt(5)) / 2
PRIME = (1 << 61) - 1  # counts beyond float range are compared modulo this prime

# tau * T_i = sum_j M[i][j] T_j  (rows of the substitution matrix)
M_ROWS = ((1, 2, 2, 2), (0, 2, 1, 0), (1, 2, 1, 1), (1, 1, 1, 1))

# exact volumes (a, b, den) of (a + b*tau)/den
TILE_VOLUMES = {
    "t1": (1, 0, 12), "t2": (0, 1, 12), "t3": (0, 1, 12),
    "t4": (1, 1, 12), "t5": (1, 1, 12), "t6": (1, 2, 12),
    "E": (3, 2, 12), "C": (1, 4, 12), "T1": (2, 3, 6), "T2": (1, 2, 12),
    "T3": (3, 4, 12), "T4": (1, 2, 6), "T3bar": (3, 4, 12),
}
CATALOG_ORDER = tuple(TILE_VOLUMES)
# the catalog's printed form of each volume
VOLUME_TEXT = {
    "t1": "1/12", "t2": "tau/12", "t3": "tau/12", "t4": "tau^2/12",
    "t5": "tau^2/12", "t6": "tau^3/12", "E": "(3+2tau)/12",
    "C": "(1+4tau)/12", "T1": "2tau^4/12", "T2": "tau^3/12",
    "T3": "(3+4tau)/12", "T4": "2tau^3/12", "T3bar": "(3+4tau)/12",
}

# target: (tetrahedra, hull (N0, N1, N2), fundamental counts, exact volume)
ASSEMBLIES = {
    "d1": (38, (20, 30, 12), {"t1": 3, "t2": 4, "t3": 10, "t4": 10, "t5": 4, "t6": 7}, (4, 7, 2)),
    "i1": (16, (12, 30, 20), {"t1": 7, "t2": 6, "t5": 2, "t6": 1}, (5, 5, 6)),
    "E": (3, (6, 12, 8), {"t1": 1, "t4": 2}, (3, 2, 12)),
    "C": (3, (6, 12, 8), {"t3": 2, "t6": 1}, (1, 4, 12)),
    "T1": (6, (8, 14, 8), {"t1": 1, "t3": 2, "t4": 2, "t6": 1}, (2, 3, 6)),
    "T2": (2, (4, 6, 4), {"t2": 1, "t4": 1}, (1, 2, 12)),
    "T3": (3, (6, 10, 6), {"t5": 2, "t6": 1}, (3, 4, 12)),
    "T3bar": (3, (6, 10, 6), {"t5": 2, "t6": 1}, (3, 4, 12)),
    "T4": (3, (6, 11, 7), {"t3": 1, "t5": 1, "t6": 1}, (1, 2, 6)),
}
COMPOSITES = ("E", "C", "T1", "T2", "T3", "T3bar", "T4")

# dihedral angles on the hulls
ATAN2 = math.atan(2.0)
D1_DIHEDRAL = math.pi - ATAN2
I1_DIHEDRAL = math.pi - math.acos(math.sqrt(5) / 3)

# inflation bases: counts of (T1, T2, T3, T4) and exact volume
INFLATE_BASES = {
    "T1": ((1, 0, 0, 0), (2, 3, 6)),
    "T2": ((0, 1, 0, 0), (1, 2, 12)),
    "T3": ((0, 0, 1, 0), (3, 4, 12)),
    "T4": ((0, 0, 0, 1), (1, 2, 6)),
    "d1": ((3, 4, 0, 4), (4, 7, 2)),
    "dtau": ((7, 18, 14, 10), (18, 29, 2)),
}

LEDGER_NAMES = ("T1^(2)", "T2^(3)", "T3^(2)", "T4^(2)", "T2^(4)", "T1^(4)", "d(tau^10)")
CHECK_NAMES = ("tile-volumes", "composite-volumes", "inventories", "inflation-rules",
               "spectrum", "projection", "ledger", "assemblies", "axis-classes",
               "report-determinism")
# standing fact: the published n = 10 projection bound is not met, so this check fails
EXPECTED_FAILING_CHECKS = frozenset({"projection"})
HEAVY_CHECKS = ("assemblies", "axis-classes", "report-determinism")
REPORT_FILES = ("report.md", "table1.csv", "table2.csv", "inflation_matrix.csv",
                "projection.csv")
CHAR_POLY_TEXT = "x^4 - 5x^3 + 2x^2 + 5x + 1"


# ---------------------------------------------------------------------------
# arithmetic helpers


def gr_mul(x, y):
    """Product of (a, b, den) triples, unreduced."""
    a, b, d = x
    c, e, f = y
    return (a * c + b * e, a * e + b * c + b * e, d * f)


def gr_add(x, y):
    a, b, d = x
    c, e, f = y
    return (a * f + c * d, b * f + e * d, d * f)


def gr_float(x) -> float:
    a, b, d = x
    return (a + b * TAU_F) / d


def fraction_pair(x) -> tuple[Fraction, Fraction]:
    """(A, B) with x = A + B*tau."""
    return Fraction(x[0], x[2]), Fraction(x[1], x[2])


def same_value(x, y) -> bool:
    return fraction_pair(x) == fraction_pair(y)


def fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by fast doubling."""
    if n == 0:
        return 0, 1
    f, g = fib_pair(n >> 1)
    c = f * (2 * g - f)
    d = f * f + g * g
    return (d, c + d) if n & 1 else (c, d)


def tau_power(k: int):
    """tau^k = F(k-1) + F(k) tau, for k >= 0."""
    if k == 0:
        return (1, 0, 1)
    f, g = fib_pair(k - 1)
    return (f, g, 1)


def _mat_mul(x, y, p):
    prod = tuple(tuple(sum(x[i][k] * y[k][j] for k in range(4)) for j in range(4))
                 for i in range(4))
    return tuple(tuple(v % p for v in row) for row in prod) if p else prod


def matrix_power(n: int, p: int | None = None):
    """M^n, exact when p is None, else modulo p."""
    result = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    base = M_ROWS
    while n:
        if n & 1:
            result = _mat_mul(result, base, p)
        base = _mat_mul(base, base, p)
        n >>= 1
    return result


def inflated(base: str, n: int, p: int | None = None) -> tuple[int, ...]:
    """Counts of base * M^n, exact or modulo p."""
    c = INFLATE_BASES[base][0]
    m = matrix_power(n, p)
    out = tuple(sum(c[i] * m[i][j] for i in range(4)) for j in range(4))
    return tuple(x % p for x in out) if p else out


def inflated_volume(base: str, n: int):
    """Exact volume after n inflations: tau^(3n) times the base volume."""
    return gr_mul(tau_power(3 * n), INFLATE_BASES[base][1])


def digits_mod(text: str, p: int = PRIME) -> int:
    """A decimal string modulo p, read in chunks below the int-str digit limit."""
    text = text.strip()
    neg = text.startswith("-")
    digits = text.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    acc = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        acc = (acc * pow(10, len(chunk), p) + int(chunk)) % p
    return (-acc) % p if neg else acc


def pf_vectors():
    """L1-normalised right and left Perron-Frobenius vectors by power iteration."""
    r = [1.0] * 4
    l = [1.0] * 4
    for _ in range(200):
        r = [sum(M_ROWS[i][j] * r[j] for j in range(4)) for i in range(4)]
        l = [sum(l[i] * M_ROWS[i][j] for i in range(4)) for j in range(4)]
        sr, sl = sum(r), sum(l)
        r = [x / sr for x in r]
        l = [x / sl for x in l]
    return r, l


EIGENVALUES = (2 + math.sqrt(5), TAU_F, 1 - TAU_F, 2 - math.sqrt(5))


def _self_check():
    # the hand-written tables must agree with one another
    for target, (ntet, (n0, n1, n2), fund, vol) in ASSEMBLIES.items():
        assert sum(fund.values()) == ntet, target
        assert n0 - n1 + n2 == 2, target
        total = (0, 0, 1)
        for kind, k in fund.items():
            total = gr_add(total, gr_mul(TILE_VOLUMES[kind], (k, 0, 1)))
        assert same_value(total, vol), target
        if target in TILE_VOLUMES:
            assert same_value(TILE_VOLUMES[target], vol), target
    for name, (counts, vol) in INFLATE_BASES.items():
        total = (0, 0, 1)
        for k, t in zip(counts, ("T1", "T2", "T3", "T4")):
            total = gr_add(total, gr_mul(TILE_VOLUMES[t], (k, 0, 1)))
        assert same_value(total, vol), name
    assert inflated("T2", 3) == (5, 21, 12, 6)
    assert inflated("d1", 40, PRIME) == tuple(x % PRIME for x in inflated("d1", 40))
    for text, want in (("(89+144tau)/12", ("89", "144", "12")), ("-tau", ("0", "-1", "1")),
                       ("3-2tau", ("3", "-2", "1")), ("2tau/3", ("0", "2", "3")),
                       ("-7/2", ("-7", "0", "2")), ("(-1+tau)/5", ("-1", "1", "5"))):
        assert parse_golden(text) == want, text



# ---------------------------------------------------------------------------
# parsing the printed forms

_GOLDEN_RE = re.compile(r"^(?:\((?P<inner>[^()]+)\)|(?P<plain>[^()/]+))(?:/(?P<den>\d+))?$")
_WITH_TAU_RE = re.compile(r"^(?P<a>-?\d+(?=[+-]))?(?P<sign>[+-]?)(?P<b>\d*)tau$")


def parse_golden(text: str) -> tuple[str, str, str]:
    """(a, b, den) digit strings of a printed value such as (89+144tau)/12 or -tau."""
    m = _GOLDEN_RE.match(text.strip())
    if not m:
        raise ValueError(f"unparsable golden value {text[:40]!r}")
    core = m.group("inner") or m.group("plain")
    den = m.group("den") or "1"
    if re.fullmatch(r"-?\d+", core):
        return core, "0", den
    t = _WITH_TAU_RE.match(core)
    if not t:
        raise ValueError(f"unparsable golden value {text[:40]!r}")
    b = t.group("b") or "1"
    return t.group("a") or "0", ("-" + b if t.group("sign") == "-" else b), den


def _golden_matches(strings, expected) -> bool:
    """Printed (a, b, den) strings against an exact triple, modulo PRIME for big values."""
    a, b, d = strings
    ea, eb, ed = expected
    pa, pb, pd = (digits_mod(s) for s in (a, b, d))
    return ((pa * ed - ea * pd) % PRIME == 0 and (pb * ed - eb * pd) % PRIME == 0)


def _close(x: float, y: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(x - y) <= max(abs_, rel * abs(y))


# ---------------------------------------------------------------------------
# in-process results


def check_assembly(target, asm, counts, dihedral_list) -> str | None:
    ntet, hull, fund, vol = ASSEMBLIES[target]
    if len(asm.tiles) != ntet:
        return f"{target}: {len(asm.tiles)} tetrahedra, want {ntet}"
    if tuple(counts) != hull:
        return f"{target}: hull {tuple(counts)}, want {hull}"
    got_fund = {str(getattr(k, "value", k)): n for k, n in asm.fundamental_counts().items()}
    if got_fund != fund:
        return f"{target}: tile kinds {got_fund}"
    got = asm.volume_exact().as_fraction_pair()
    if got != fraction_pair(vol):
        return f"{target}: exact volume {got[0]} + {got[1]} tau"
    if not _close(asm.mesh.volume(), gr_float(vol), 1e-9):
        return f"{target}: hull volume {asm.mesh.volume()}"
    if len(dihedral_list) != hull[1]:
        return f"{target}: {len(dihedral_list)} dihedrals for {hull[1]} edges"
    want = {"d1": (D1_DIHEDRAL,), "i1": (I1_DIHEDRAL,)}.get(target, (ATAN2, D1_DIHEDRAL))
    for d in dihedral_list:
        if d.angle is None or min(abs(d.angle - w) for w in want) > 1e-9:
            return f"{target}: dihedral {d.angle}"
    return None


def check_obj_text(target, text: str) -> str | None:
    ntet = ASSEMBLIES[target][0]
    lines = text.splitlines()
    if not lines or lines[0] != f"# {target}: {ntet} tetrahedra":
        return f"{target}: OBJ header {lines[:1]}"
    kinds = {"o": 0, "v": 0, "f": 0}
    for line in lines[1:]:
        key = line.split(" ", 1)[0]
        if key not in kinds:
            return f"{target}: OBJ line {line[:30]!r}"
        kinds[key] += 1
        if key == "v" and not all(math.isfinite(float(x)) for x in line.split()[1:]):
            return f"{target}: OBJ vertex {line!r}"
    if kinds != {"o": ntet, "v": 4 * ntet, "f": 4 * ntet}:
        return f"{target}: OBJ counts {kinds}"
    return None


def check_patch(target, patch) -> str | None:
    ntet, (n0, _, n2), fund, _ = ASSEMBLIES[target]
    if patch.get("target") != target or len(patch.get("tiles", ())) != ntet:
        return f"{target}: patch header"
    kinds: dict[str, int] = {}
    for t in patch["tiles"]:
        kinds[t["kind"]] = kinds.get(t["kind"], 0) + 1
        if len(t["vertices"]) != 4:
            return f"{target}: patch tile {t.get('name')}"
    if kinds != fund:
        return f"{target}: patch kinds {kinds}"
    hull = patch["hull"]
    if len(hull["vertices"]) != n0 or len(hull["faces"]) != n2:
        return f"{target}: patch hull {len(hull['vertices'])}/{len(hull['faces'])}"
    return None


def check_patch_text(target, text: str) -> str | None:
    if not text.endswith("\n"):
        return f"{target}: patch file lacks final newline"
    try:
        return check_patch(target, json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        return f"{target}: patch JSON {exc!r}"


def check_inflation(base, n, counts, volume_pair, embedded) -> str | None:
    """counts: the four ints; volume_pair: (Fraction, Fraction); embedded: float or None."""
    if tuple(c % PRIME for c in counts) != inflated(base, n, PRIME):
        return f"{base}^({n}): counts differ from M^n mod p"
    a, b, d = inflated_volume(base, n)
    fa, fb = volume_pair
    if fa.numerator * d != a * fa.denominator or fb.numerator * d != b * fb.denominator:
        return f"{base}^({n}): volume is not tau^(3n) times the base volume"
    if embedded is not None and not _close(embedded, float(Fraction(a, d)) + float(Fraction(b, d)) * TAU_F, 1e-12):
        return f"{base}^({n}): embedded volume {embedded}"
    return None


def in_float_range(base: str, n: int) -> bool:
    a, b, d = inflated_volume(base, n)
    return (a + 2 * b).bit_length() - d.bit_length() <= 1020


# ---------------------------------------------------------------------------
# CLI outputs; each takes (exit code, stdout, stderr, {path: text} of files written)


def _no_traceback(err: str) -> str | None:
    return "traceback on stderr" if "Traceback" in err else None


def cli_catalog(code, out, err, files, mode) -> str | None:
    if code != 0:
        return f"exit {code}"
    if mode in ("json", "dump"):
        try:
            recs = json.loads(out)
        except ValueError as exc:
            return f"catalog JSON {exc!r}"
        if [r["kind"] for r in recs] != list(CATALOG_ORDER):
            return "catalog order"
        for r in recs:
            v = r["volume"]
            if not _golden_matches((v["a"], v["b"], v["den"]), TILE_VOLUMES[r["kind"]]):
                return f"catalog volume {r['kind']}"
            if r["kind"] in ASSEMBLIES and (r["N0"], r["N1"], r["N2"]) != ASSEMBLIES[r["kind"]][1]:
                return f"catalog counts {r['kind']}"
        return None
    lines = out.splitlines()
    if len(lines) != 14 or not lines[0].startswith("tile"):
        return f"catalog has {len(lines)} lines"
    for line, kind in zip(lines[1:], CATALOG_ORDER):
        parts = line.split()
        if parts[0] != kind or parts[1] != VOLUME_TEXT[kind]:
            return f"catalog line {line[:40]!r}"
        if not _close(float(parts[2]), gr_float(TILE_VOLUMES[kind]), 0, 6e-8):
            return f"catalog float {kind}"
    return None


def _inflate_text(out, base, n) -> str | None:
    lines = out.splitlines()
    if len(lines) != 2 or not lines[0].startswith("counts: ") or not lines[1].startswith("volume: "):
        return f"inflate output {out[:60]!r}"
    counts = lines[0][len("counts: "):].split()
    if len(counts) != 4 or tuple(digits_mod(c) for c in counts) != inflated(base, n, PRIME):
        return "inflate counts"
    exact = lines[1][len("volume: "):].split(" = ")[0]
    if not _golden_matches(parse_golden(exact), inflated_volume(base, n)):
        return "inflate exact volume"
    return None


def cli_inflate(code, out, err, files, base, n, as_json) -> str | None:
    if code != 0:
        return f"exit {code}"
    if as_json:
        try:
            blob = json.loads(out)
        except ValueError as exc:
            return f"inflate JSON {exc!r}"
        if tuple(blob["counts"]) != inflated(base, n):
            return "inflate counts"
        v = blob["volume"]
        exact = inflated_volume(base, n)
        if not _golden_matches((v["a"], v["b"], v["den"]), exact):
            return "inflate exact volume"
        if not _close(blob["volume_float"], gr_float(exact), 1e-12):
            return "inflate volume_float"
        return None
    reason = _inflate_text(out, base, n)
    if reason:
        return reason
    val = float(out.splitlines()[1].rsplit(" = ", 1)[1])
    return None if _close(val, gr_float(inflated_volume(base, n)), 1e-9, 6e-8) else "inflate float"


def cli_eigen(code, out, err, files, as_json) -> str | None:
    if code != 0:
        return f"exit {code}"
    right, left = pf_vectors()
    if as_json:
        try:
            blob = json.loads(out)
        except ValueError as exc:
            return f"eigen JSON {exc!r}"
        got = (blob["eigenvalues"], blob["right_pf"], blob["left_pf"])
        tol = 1e-12
    else:
        lines = out.splitlines()
        if len(lines) != 4 or lines[0] != f"characteristic polynomial: {CHAR_POLY_TEXT}":
            return f"eigen output {out[:60]!r}"
        got = tuple([float(x) for x in line.split(": ", 1)[1].split(", ")] for line in lines[1:])
        tol = 6e-8
    for vals, want in zip(got, (EIGENVALUES, right, left)):
        if len(vals) != 4 or any(abs(x - y) > tol for x, y in zip(vals, want)):
            return f"eigen values {vals}"
    return None


def cli_ledger(code, out, err, files, mode) -> str | None:
    """mode: verify, corrupt (first entry mutated), plain or json."""
    want_code = 1 if mode == "corrupt" else 0
    if code != want_code:
        return f"exit {code}, want {want_code}"
    if mode == "json":
        try:
            blob = json.loads(out)
        except ValueError as exc:
            return f"ledger JSON {exc!r}"
        names = [e["name"] for e in blob["entries"]]
        oks = [e["ok"] for e in blob["entries"]]
        if names != list(LEDGER_NAMES) or not all(oks) or blob["ok"] is not True:
            return "ledger JSON entries"
        return None
    lines = out.splitlines()
    if mode == "plain":
        if len(lines) != 7 or any(not l.startswith(f"{n} = ") or "[FAILS]" in l
                                  for l, n in zip(lines, LEDGER_NAMES)):
            return "ledger statements"
        return None
    want = [f"OK {n}" for n in LEDGER_NAMES]
    if mode == "corrupt":
        want[0] = f"FAIL {LEDGER_NAMES[0]}"
    return None if lines == want else f"ledger lines {lines[:2]}"


def _build_text(out, shape, hull_want) -> str | None:
    ntet, hull, _, vol = ASSEMBLIES[shape]
    lines = out.splitlines()
    if len(lines) < 3 or lines[0] != f"{shape}: {ntet} tetrahedra":
        return f"build output {out[:60]!r}"
    m = re.match(r"hull: (\d+) vertices, (\d+) edges, (\d+)", lines[1])
    if not m or tuple(int(x) for x in m.groups()) != hull_want:
        return f"build hull {lines[1]!r}"
    if not lines[2].startswith("hull volume: ") or not _close(
            float(lines[2].split(": ")[1]), gr_float(vol), 0, 6e-8):
        return f"build volume {lines[2]!r}"
    return None


def cli_build(code, out, err, files, shape, out_path, as_json) -> str | None:
    if code != 0:
        return f"exit {code}"
    if as_json:
        try:
            reason = check_patch(shape, json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"build JSON {exc!r}"
    else:
        reason = _build_text(out, shape, ASSEMBLIES[shape][1])
        if not reason and out_path and out.splitlines()[-1] != f"wrote {out_path}":
            reason = "build: no 'wrote' line"
    if reason or not out_path:
        return reason
    text = files.get(out_path)
    if text is None:
        return f"build: {out_path} not written"
    if out_path.endswith(".obj"):
        return check_obj_text(shape, text)
    return check_patch_text(shape, text)


def cli_verify(code, out, err, files, names, as_json) -> str | None:
    wanted = [n for n in CHECK_NAMES if not names or n in names]
    want_fail = [n for n in wanted if n in EXPECTED_FAILING_CHECKS]
    want_code = 1 if want_fail else 0
    if code != want_code:
        return f"exit {code}, want {want_code}"
    if as_json:
        try:
            blob = json.loads(out)
        except ValueError as exc:
            return f"verify JSON {exc!r}"
        got = [(c["name"], c["ok"]) for c in blob["checks"]]
    else:
        got = []
        for line in out.splitlines():
            status, _, rest = line.partition(" ")
            got.append((rest.split(":", 1)[0], status == "OK"))
    want = [(n, n not in EXPECTED_FAILING_CHECKS) for n in wanted]
    return None if got == want else f"verify results {got}"


class ReportReference:
    """All report bundles of one run must be byte-identical; contents are spot-checked."""

    def __init__(self):
        self.bundle: dict[str, str] | None = None

    def check(self, bundle: dict[str, str]) -> str | None:
        if sorted(bundle) != sorted(REPORT_FILES):
            return f"report files {sorted(bundle)}"
        if self.bundle is None:
            reason = self._content(bundle)
            if reason:
                return reason
            self.bundle = dict(bundle)
            return None
        return None if bundle == self.bundle else "report bytes differ between runs"

    @staticmethod
    def _content(bundle) -> str | None:
        rows = list(csv.reader(io.StringIO(bundle["table1.csv"])))[1:]
        if [(r[0], r[2]) for r in rows] != [(k, VOLUME_TEXT[k]) for k in CATALOG_ORDER[:6]]:
            return "report table1"
        mat = bundle["inflation_matrix.csv"].splitlines()[1:]
        if mat != [f"T{i + 1}," + ",".join(str(x) for x in row) for i, row in enumerate(M_ROWS)]:
            return "report inflation matrix"
        md = bundle["report.md"]
        for target in ("d1", "i1"):
            ntet, (n0, n1, n2), _, _ = ASSEMBLIES[target]
            if f"- {target}: {ntet} tetrahedra; hull {n0} vertices, {n1} edges, {n2} faces" not in md:
                return f"report {target} summary"
        if md.count("\n- OK ") != len(LEDGER_NAMES) or "- FAIL" in md:
            return "report ledger lines"
        return None


def cli_report(code, out, err, files, out_dir, as_json, ref: ReportReference) -> str | None:
    if code != 0:
        return f"exit {code}"
    if as_json:
        try:
            bundle = json.loads(out)["files"]
        except (ValueError, KeyError) as exc:
            return f"report JSON {exc!r}"
    else:
        want = [f"wrote {out_dir}/{n}" for n in REPORT_FILES]
        if out.splitlines() != want:
            return "report 'wrote' lines"
        bundle = {n[len(out_dir) + 1:]: t for n, t in files.items() if n.startswith(out_dir + "/")}
    return ref.check(bundle)


# ---------------------------------------------------------------------------
# contract-edge ops: the CLI must exit 0, 1 or 2 as documented, never with a
# traceback.  Each known defect is matched by its exact present-day signature,
# so a fix shows as a higher ok_ratio and any other wrong output as a failure.

KNOWN_DEFECTS = {
    "overflow": "ROADMAP 4a: embed raises OverflowError for a volume beyond float range",
    "digits": "ROADMAP 4 (exit-code contract): counts beyond 4300 digits raise ValueError",
    "tolerance": "ROADMAP 2: --tol-predicates above the probe offset empties the d1 hull",
}


def cli_edge(kind, code, out, err, extra) -> tuple[str | None, bool]:
    """(reason or None, matched a known defect)."""
    if kind in ("overflow", "digits"):
        n = extra
        if code == 0:
            return _inflate_text(out, "T2", n) or _no_traceback(err), False
        sig = "OverflowError" if kind == "overflow" else "Exceeds the limit (4300 digits)"
        if code == 1 and "Traceback" in err and sig in err:
            return KNOWN_DEFECTS[kind], True
        return f"exit {code}", False
    if kind == "tolerance":
        if code == 2:
            return _no_traceback(err), False
        if code == 0:
            reason = _build_text(out, "d1", ASSEMBLIES["d1"][1])
            if reason and "hull: 0 vertices, 0 edges, 0 faces" in out:
                return KNOWN_DEFECTS[kind], True
            return reason, False
        return f"exit {code}", False
    # plain usage errors
    if code != 2:
        return f"usage error exited {code}", False
    if "Error:" not in err:
        return "usage error without message", False
    return _no_traceback(err), False


_self_check()
