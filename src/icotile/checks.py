"""Self-verification battery over the whole system.

Each check re-derives one family of published identities from scratch and
compares against the static catalog, exactly where the data is exact and
within stated tolerances where embedding is involved.  run_checks()
returns structured results; the CLI `verify` command renders them.
"""

from __future__ import annotations

from . import catalog, inflation, report
from .catalog import TileKind, _Record, triangle_family
from .golden import SQRT5, GoldenRational, embed, tau_pow

__all__ = ["CheckResult", "run_checks", "CHECK_NAMES"]

# The published values the checks compare against, each typed once.
_TILE_VOLUMES = tuple(tau_pow(k) / 12 for k in (0, 1, 1, 2, 2, 3))  # t1..t6
_COMPOSITE_VOLUMES = {
    TileKind.T1: tau_pow(4) * 2 / 12,
    TileKind.T2: tau_pow(3) / 12,
    TileKind.T3: GoldenRational(3, 4, 12),
    TileKind.T4: tau_pow(3) * 2 / 12,
}
_D1_VOLUME = GoldenRational(24, 42, 12)
_D1_VOLUME_CLASSICAL = (15 + 7 * SQRT5) / 4
_I1_VOLUME = GoldenRational(10, 10, 12)
_I1_VOLUME_CLASSICAL = (15 + 5 * SQRT5) / 12
_CHAR_POLY = (1, -5, 2, 5, 1)
_SPECTRUM = (tau_pow(3), tau_pow(1), -tau_pow(-1), -tau_pow(-3))
_PRINTED_RIGHT_PF = (0.3820, 0.1180, 0.2639, 0.2361)
_PRINTED_LEFT_PF = (0.1338, 0.4331, 0.2677, 0.1654)
# the projection limit of tau^(-3n) M^n in thirtieths, rows as (a, b) of a + b*tau
_PROJECTION_THIRTIETHS = (
    ((4, 2), (4, 12), (8, 4), (-4, 8)),
    ((-1, 2), (4, 2), (-2, 4), (6, -2)),
    ((5, 0), (0, 10), (10, 0), (-10, 10)),
    ((-2, 4), (8, 4), (-4, 8), (12, -4)),
)
_LEDGER_SIZE = 7
_D_TAU10_VOLUME = GoldenRational(47287176, 76512258, 12)  # tau^30 times the d1 volume
_D1_HULL = (20, 30, 12)
_I1_HULL = (12, 30, 20)


class CheckResult(_Record):
    name: str
    ok: bool
    detail: str


def _check_tile_volumes() -> tuple[bool, str]:
    for kind, expect in zip(("t1", "t2", "t3", "t4", "t5", "t6"), _TILE_VOLUMES):
        cm = catalog.cm_volume(catalog.edge_scheme(kind))
        if not cm.is_exact or cm.exact_root != expect:
            return False, f"{kind}: got {cm.exact_root}, want {expect}"
        if catalog.record(kind).volume != expect:
            return False, f"{kind}: catalog volume mismatch"
    return True, "six edge-scheme volumes equal (1, tau, tau, tau^2, tau^2, tau^3)/12"


def _check_composite_volumes() -> tuple[bool, str]:
    for kind, expect in _COMPOSITE_VOLUMES.items():
        rec = catalog.record(kind)
        if rec.volume != expect:
            return False, f"{kind.value}: {rec.volume} vs {expect}"
    return True, "T1..T4 volumes equal (2tau^4, tau^3, 4tau+3, 2tau^3)/12"


def _check_inventories() -> tuple[bool, str]:
    comp = catalog.inventory("d1-composite")
    fund = catalog.inventory("d1-fundamental")
    if catalog.expand_to_fundamental(comp) != dict(fund.counts):
        return False, "composite dodecahedron expansion disagrees with tile inventory"
    vol_d = catalog.total_volume(fund)
    if vol_d != _D1_VOLUME:
        return False, f"d1 volume {vol_d}"
    if vol_d != _D1_VOLUME_CLASSICAL:
        return False, "d1 volume does not match the classical formula"
    vol_i = catalog.total_volume(catalog.inventory("i1"))
    if vol_i != _I1_VOLUME:
        return False, f"i1 volume {vol_i}"
    if vol_i != _I1_VOLUME_CLASSICAL:
        return False, "i1 volume does not match the classical formula"
    return True, "dodecahedron and icosahedron inventories and volumes agree"


def _check_inflation_rules() -> tuple[bool, str]:
    for i in range(4):
        got = inflation.inflate_counts(inflation.CountVector.unit(i), 1)
        if got.c != inflation.M.rows[i]:
            return False, f"row {i + 1}: {got.c}"
    vols = inflation.composite_volumes()
    for i in range(4):
        lhs = _SPECTRUM[0] * vols[i]
        rhs = sum((vols[j] * inflation.M.rows[i][j] for j in range(4)), GoldenRational(0))
        if lhs != rhs:
            return False, f"volume balance fails for T{i + 1}"
    return True, "four substitution rows and exact volume balance tau^3 V = M V"


def _check_spectrum() -> tuple[bool, str]:
    coeffs = inflation.char_poly()
    if coeffs != _CHAR_POLY:
        return False, "characteristic polynomial coefficients"
    sd = inflation.pf_vectors()
    for lam, ex in zip(sd.eigenvalues, _SPECTRUM):
        root = sum((c * ex ** (4 - k) for k, c in enumerate(coeffs)), GoldenRational(0))
        if root != 0 or abs(lam - embed(ex)) > 1e-9:
            return False, f"eigenvalue {lam}"
    # exact residuals of the derived vectors: M v = tau^3 v and u M = tau^3 u
    right, left = sd.exact_right_pf, sd.exact_left_pf
    t3 = _SPECTRUM[0]
    for i in range(4):
        r = sum((right[j] * inflation.M.rows[i][j] for j in range(4)), GoldenRational(0))
        if r != t3 * right[i]:
            return False, f"right eigenvector residual row {i}"
        l = sum((left[j] * inflation.M.rows[j][i] for j in range(4)), GoldenRational(0))
        if l != t3 * left[i]:
            return False, f"left eigenvector residual column {i}"
    for got, want in zip(sd.right_pf + sd.left_pf, _PRINTED_RIGHT_PF + _PRINTED_LEFT_PF):
        if abs(got - want) > 5e-5:
            return False, f"PF component {got} vs printed {want}"
    return True, "spectrum tau^3, tau, sigma, sigma^3 with exact PF residual zero"


def _projection_expected() -> tuple[tuple[GoldenRational, ...], ...]:
    return tuple(tuple(GoldenRational(a, b, 30) for a, b in row)
                 for row in _PROJECTION_THIRTIETHS)


def _check_projection() -> tuple[bool, str]:
    P = inflation.projection_matrix()
    if P != _projection_expected():
        return False, "projection entries differ from the published matrix"
    # idempotence, exactly
    for i in range(4):
        for j in range(4):
            acc = sum((P[i][k] * P[k][j] for k in range(4)), GoldenRational(0))
            if acc != P[i][j]:
                return False, f"P^2 != P at ({i}, {j})"
    Pf = [[embed(x) for x in row] for row in P]

    def err(n: int) -> float:
        Mn = inflation.M.power(n)
        scale = embed(tau_pow(3 * n))
        return max(abs(Mn[i][j] / scale - Pf[i][j]) for i in range(4) for j in range(4))

    e10 = err(10)
    ratio = err(9) / e10
    t2 = embed(tau_pow(2))
    if abs(ratio - t2) > 0.1 * t2:
        return False, f"convergence ratio {ratio:.4f} not within 10% of tau^2"
    if e10 >= 1e-6:
        return False, (f"max-entry error at n=10 is {e10:.3e}, not < 1e-6 "
                       f"(true decay C*tau^(-2n) with C near 0.78 first beats 1e-6 at n=15)")
    return True, f"projection exact, idempotent, convergence ratio {ratio:.4f}"


def _check_ledger() -> tuple[bool, str]:
    entries = inflation.dodecahedron_ledger()
    if len(entries) != _LEDGER_SIZE:
        return False, f"{len(entries)} entries"
    for d in entries:
        rep = inflation.verify_decomposition(d)
        if not rep.ok:
            return False, f"{d.name} fails"
    big = entries[-1]
    vol = sum((p.volume() for p in big.parts), GoldenRational(0))
    if vol != _D_TAU10_VOLUME:
        return False, f"{big.name} total volume {vol}"
    if vol != tau_pow(30) * _D1_VOLUME:
        return False, "tau^30 scaling identity fails"
    # a single-coefficient mutation must be detected
    for d in entries:
        if inflation.verify_decomposition(d.mutant()).ok:
            return False, f"mutation of {d.name} went undetected"
    return True, "seven entries verify; all single-coefficient mutations detected"


def _check_assemblies() -> tuple[bool, str]:
    from .geometry import _dot, _sub, assemble, dihedrals, expected_face_census, squared_edges

    d1 = assemble("d1")
    if d1.mesh.counts() != _D1_HULL:
        return False, f"d1 hull counts {d1.mesh.counts()}"
    for i, (face, normal) in enumerate(zip(d1.mesh.faces, d1.mesh.normals)):
        corners = [d1.mesh.exact[j] for j in face]
        # exact: the Newell normal is nonzero and normal to every edge from corner 0
        if len(face) != 5 or normal == ((0, 0),) * 3 or any(
                _dot(_sub(c, corners[0]), normal) != (0, 0) for c in corners):
            return False, f"d1 face {i} not a planar pentagon"
        if any(sq != 1 for sq in squared_edges(corners)):
            return False, f"d1 face {i} edges not unit"
    if d1.mesh.volume_exact() != sum((t.volume() for t in d1.tiles), GoldenRational(0)):
        return False, "d1 volume additivity"
    if d1.mesh.volume_exact() != d1.volume_exact():
        return False, "d1 volume vs exact"
    for rec in dihedrals(d1.mesh):
        if rec.angle_class != "pi-atan2":
            return False, f"d1 dihedral {rec}"
    i1 = assemble("i1")
    if i1.mesh.counts() != _I1_HULL:
        return False, f"i1 hull counts {i1.mesh.counts()}"
    for i, face in enumerate(i1.mesh.faces):
        if any(sq != 1 for sq in squared_edges([i1.mesh.exact[j] for j in face])):
            return False, f"i1 face {i} not unit equilateral"
    if i1.volume_exact() != _I1_VOLUME:
        return False, "i1 exact volume"
    if i1.mesh.volume_exact() != i1.volume_exact():
        return False, "i1 volume additivity"
    for target in ("T1", "T2", "T3", "T4"):
        a = assemble(target)
        rec = catalog.record(target)
        if a.mesh.counts() != (rec.N0, rec.N1, rec.N2):
            return False, f"{target} counts {a.mesh.counts()}"
        if a.mesh.face_census() != expected_face_census(target):
            return False, f"{target} face census"
    for target in ("E", "C", "T1", "T2", "T3", "T3bar", "T4"):
        for rec in dihedrals(assemble(target).mesh):
            if rec.angle_class == "neither":
                return False, f"{target} dihedral {rec.angle}"
    return True, "d1, i1 and composite builds match every published census"


def _check_axis_classes() -> tuple[bool, str]:
    from ._catalog import _FAMILY_AXIS
    from .geometry import assemble, squared_edges
    from .geometry.axes import axis_classes

    n = 0
    for target in ("d1", "i1"):
        walls = assemble(target).walls
        corners = [wall.corners for wall in walls]
        for w, got, sq in zip(walls, axis_classes(corners), map(squared_edges, corners)):
            fam = triangle_family(sq)
            axis = _FAMILY_AXIS[fam]
            if axis == "none":
                return False, f"{target}: unexpected wall family {fam}"
            if got != axis:
                return False, f"{target}: wall of {w.owner} off-axis"
            n += 1
    return True, f"{n} internal walls all normal to their symmetry axes"


def _check_report_determinism() -> tuple[bool, str]:
    a = report.build_bundle()
    b = report.build_bundle()
    if set(a) != set(b) or any(a[k] != b[k] for k in a):
        return False, "bundle differs between runs"
    return True, f"{len(a)} files byte-identical across two builds"


_CHECKS = (
    ("tile-volumes", _check_tile_volumes),
    ("composite-volumes", _check_composite_volumes),
    ("inventories", _check_inventories),
    ("inflation-rules", _check_inflation_rules),
    ("spectrum", _check_spectrum),
    ("projection", _check_projection),
    ("ledger", _check_ledger),
    ("assemblies", _check_assemblies),
    ("axis-classes", _check_axis_classes),
    ("report-determinism", _check_report_determinism),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_checks(names: tuple[str, ...] | None = None) -> list[CheckResult]:
    """Run the named checks (default: all ten); an unknown name raises ValueError."""
    unknown = [name for name in names or () if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}; choose from {CHECK_NAMES}")
    wanted = set(names) if names else None
    out = []
    for name, fn in _CHECKS:
        if wanted is not None and name not in wanted:
            continue
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc!r}"
        out.append(CheckResult(name=name, ok=ok, detail=detail))
    return out
