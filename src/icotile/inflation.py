"""Substitution dynamics of the composite tiles T1..T4.

Scaling a composite tile by tau dissects it into composite tiles again:

    tau*T1 = T1 + 2T2 + 2T3 + 2T4        tau*T3 = T1 + 2T2 + T3 + T4
    tau*T2 =      2T2 +  T3              tau*T4 = T1 +  T2 +  T3 + T4

so a patch with row count vector c inflates to c * M^n, where M is the
integer matrix with those rows.  M is unimodular (det 1, trace 5) with
characteristic polynomial

    x^4 - 5x^3 + 2x^2 + 5x + 1 = (x^2 - 4x - 1)(x^2 - x - 1),

whose roots are tau^3, tau, sigma, sigma^3.  The Perron-Frobenius
eigenvalue tau^3 is the volume scale factor; its right eigenvector is the
tile volume vector and its left eigenvector gives the limiting tile
frequencies.  Everything spectral is constructed exactly in Q(tau) (the
spectrum is known in closed form) and embedded numerically afterward.

M^n is computed in closed form.  With E3 and E1 the eigenprojectors of M
for tau^3 and tau (exact in Q(tau), derived from M.rows by the Lagrange
product after the four eigenvalues are checked to be distinct roots of
char_poly()) and bars for Galois conjugates,

    M^n = tau^(3n) E3 + sigma^(3n) E3bar + tau^n E1 + sigma^n E1bar,

so each entry is a sum of two Galois traces, and one Fibonacci fast
doubling per eigenvalue gives tau^(3n) and tau^n.

The module also carries a verified ledger: specific inflations of single
tiles whose count vectors regroup into whole unit dodecahedra d(1) and
tau-scaled dodecahedra d(tau) plus leftover composite tiles.  Each ledger
entry is checked for exact count and volume consistency at load time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from math import lcm
from typing import NamedTuple

from .catalog import TileKind, record, total_volume
from .golden import TAU, GoldenRational, conj, embed, tau_pow

__all__ = [
    "CountVector",
    "InflationMatrix",
    "SpectralData",
    "Part",
    "Decomposition",
    "VerifyReport",
    "M",
    "inflate_counts",
    "char_poly",
    "format_poly",
    "pf_vectors",
    "projection_matrix",
    "verify_decomposition",
    "dodecahedron_ledger",
    "composite_volumes",
    "D1_COUNTS",
    "DTAU_COUNTS",
    "COMPOSITE_ORDER",
]

COMPOSITE_ORDER = (TileKind.T1, TileKind.T2, TileKind.T3, TileKind.T4)

_M_ROWS = ((1, 2, 2, 2), (0, 2, 1, 0), (1, 2, 1, 1), (1, 1, 1, 1))


@dataclass(frozen=True)
class CountVector:
    """Multiplicities of (T1, T2, T3, T4), nonnegative arbitrary-width integers."""

    c: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.c) != 4 or any(x < 0 for x in self.c):
            raise ValueError("CountVector needs 4 nonnegative entries")
        object.__setattr__(self, "c", tuple(int(x) for x in self.c))

    @classmethod
    def unit(cls, i: int) -> "CountVector":
        """Basis vector for tile T_(i+1)."""
        return cls(tuple(1 if j == i else 0 for j in range(4)))

    def __add__(self, other: "CountVector") -> "CountVector":
        return CountVector(tuple(a + b for a, b in zip(self.c, other.c)))

    def scaled(self, n: int) -> "CountVector":
        return CountVector(tuple(n * a for a in self.c))

    def total_volume(self) -> GoldenRational:
        vols = composite_volumes()
        return sum((vols[i] * self.c[i] for i in range(4)), GoldenRational(0))

    def __iter__(self):
        return iter(self.c)

    def __getitem__(self, i):
        return self.c[i]


D1_COUNTS = CountVector((3, 4, 0, 4))
DTAU_COUNTS = CountVector((7, 18, 14, 10))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


_IDENT = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


class InflationMatrix:
    """The fixed 4x4 substitution matrix with exact integer powers."""

    rows = _M_ROWS

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def power(self, n: int):
        """M^n in closed form from the spectral parts of M (see the module
        docstring); entries grow like tau^(3n).

        With tau^m = q + p*tau and D*E = a + b*tau in integers, the trace
        of (q + p*tau)(a + b*tau) is q*(2a + b) + p*(a + 3b).  Entry (i, j)
        is that trace for E3 at m = 3n plus the one for E1 at m = n, divided
        by D; the division is checked to be exact.
        """
        if n < 0:
            raise ValueError("negative inflation order")
        parts = _spectral_parts(self.rows)
        t3, t1 = tau_pow(3 * n), tau_pow(n)

        def entry(e3, e1):
            (a3, b3), (a1, b1) = e3, e1
            num = (t3.a * (2 * a3 + b3) + t3.b * (a3 + 3 * b3)
                   + t1.a * (2 * a1 + b1) + t1.b * (a1 + 3 * b1))
            x, r = divmod(num, parts.den)
            if r:
                raise ArithmeticError(f"entry of M^{n} is not an integer")
            return x

        return tuple(tuple(entry(e3, e1) for e3, e1 in row) for row in parts.scaled)

    @property
    def det(self) -> int:
        """det(M): for a 4x4 matrix, the constant term of det(xI - M)."""
        return char_poly()[-1]

    @property
    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(4))


M = InflationMatrix()


def inflate_counts(c: CountVector, n: int) -> CountVector:
    """Row convention: a patch with counts c inflates to c * M^n."""
    p = M.power(n)
    return CountVector(tuple(sum(c[i] * p[i][j] for i in range(4)) for j in range(4)))


def _char_poly(rows) -> tuple[int, int, int, int, int]:
    """Coefficients of det(xI - A) for a 4x4 integer A, leading 1 first, by
    Faddeev-LeVerrier: B_1 = I, c_k = -tr(A B_k)/k, B_(k+1) = A B_k + c_k I.
    Each division is exact, so the arithmetic stays in the integers."""
    coeffs, b = [1], _IDENT
    for k in range(1, 5):
        ab = _mat_mul(rows, b)
        coeffs.append(-sum(ab[i][i] for i in range(4)) // k)
        b = tuple(tuple(x + coeffs[-1] * (i == j) for j, x in enumerate(row))
                  for i, row in enumerate(ab))
    return tuple(coeffs)


def char_poly() -> tuple[int, int, int, int, int]:
    """Coefficients of det(xI - M), computed from M.rows:
    (1, -5, 2, 5, 1), i.e. x^4 - 5x^3 + 2x^2 + 5x + 1."""
    return _char_poly(M.rows)


def format_poly(coeffs) -> str:
    """Integer coefficients, leading first, as text: (1, -5, 2, 5, 1) is
    'x^4 - 5x^3 + 2x^2 + 5x + 1'.  Zero terms are left out and unit
    coefficients are written only on the constant term."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        deg = len(coeffs) - 1 - k
        power = "" if deg == 0 else ("x" if deg == 1 else f"x^{deg}")
        mag = str(abs(c)) if abs(c) != 1 or deg == 0 else ""
        if terms:
            terms.append(f"{'-' if c < 0 else '+'} {mag}{power}")
        else:
            terms.append(f"{'-' if c < 0 else ''}{mag}{power}")
    return " ".join(terms) if terms else "0"


class _SpectralParts(NamedTuple):
    projector: tuple[tuple[GoldenRational, ...], ...]  # E3
    den: int  # D, the lcm of the denominators of E3 and E1
    # scaled[i][j] = ((a3, b3), (a1, b1)) with D*E3[i][j] = a3 + b3*tau, D*E1[i][j] = a1 + b1*tau
    scaled: tuple[tuple[tuple[tuple[int, int], tuple[int, int]], ...], ...]


@cache
def _spectral_parts(rows) -> _SpectralParts:
    """Eigenprojectors E3, E1 of the 4x4 integer matrix rows for tau^3 and tau.

    Before the Lagrange product E_l = prod over m != l of (A - mI)/(l - m)
    is taken over l, m in (tau^3, tau, sigma, sigma^3), each of the four is
    checked to be an exact root of _char_poly(rows) and the four to be
    distinct; ValueError if not.  Built on first use, then cached.
    """
    coeffs = _char_poly(rows)
    lams = (tau_pow(3), TAU, conj(TAU), conj(tau_pow(3)))
    for lam in lams:
        if sum((c * lam ** (4 - k) for k, c in enumerate(coeffs)), GoldenRational(0)) != 0:
            raise ValueError(f"{lam} is not a root of the characteristic polynomial {coeffs}")
    if len(set(lams)) != 4:
        raise ValueError("the eigenvalues are not distinct")

    def projector(lam):
        return reduce(_mat_mul, (
            tuple(tuple((x - (mu if i == j else 0)) / (lam - mu) for j, x in enumerate(row))
                  for i, row in enumerate(rows))
            for mu in lams if mu != lam))

    e3, e1 = projector(lams[0]), projector(lams[1])
    den = lcm(*(x.den for e in (e3, e1) for row in e for x in row))

    def ints(x):
        k = den // x.den
        return x.a * k, x.b * k

    scaled = tuple(tuple((ints(x3), ints(x1)) for x3, x1 in zip(r3, r1)) for r3, r1 in zip(e3, e1))
    return _SpectralParts(e3, den, scaled)


def composite_volumes() -> tuple[GoldenRational, ...]:
    """Exact volumes (V_T1, V_T2, V_T3, V_T4)."""
    return tuple(record(k).volume for k in COMPOSITE_ORDER)


@dataclass(frozen=True)
class SpectralData:
    eigenvalues: tuple[float, float, float, float]
    right_pf: tuple[float, float, float, float]
    left_pf: tuple[float, float, float, float]
    exact_right_pf: tuple[GoldenRational, ...]
    exact_left_pf: tuple[GoldenRational, ...]
    projection: tuple[tuple[GoldenRational, ...], ...]

    def to_json(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "right_pf": list(self.right_pf),
            "left_pf": list(self.left_pf),
            "exact_right_pf": [x.to_json() for x in self.exact_right_pf],
            "exact_left_pf": [x.to_json() for x in self.exact_left_pf],
            "projection": [[x.to_json() for x in row] for row in self.projection],
        }


def _exact_pf_raw() -> tuple[tuple[GoldenRational, ...], tuple[GoldenRational, ...]]:
    # right: the volume vector (6tau+4, 2tau+1, 4tau+3, 4tau+2)
    right = tuple(GoldenRational(a, b) for a, b in ((4, 6), (1, 2), (3, 4), (2, 4)))
    # left: the frequency vector (tau/2, tau^2, tau, 1)
    left = (GoldenRational(0, 1, 2), GoldenRational(1, 1), GoldenRational(0, 1), GoldenRational(1))
    return right, left


def pf_vectors() -> SpectralData:
    """Exact Perron-Frobenius data of M with numeric images.

    Eigenvalues are listed in decreasing absolute value: tau^3, tau, sigma,
    sigma^3.  Both eigenvectors are L1-normalized to sum 1 (the right one
    gives volume fractions, the left one tile frequencies).
    """
    right, left = _exact_pf_raw()
    rsum = sum(right, GoldenRational(0))
    lsum = sum(left, GoldenRational(0))
    exact_right = tuple(x / rsum for x in right)
    exact_left = tuple(x / lsum for x in left)
    # sigma^k = conj(tau^k) = (-1)^k tau^(-k), so sigma and sigma^3 are -tau^(-1), -tau^(-3)
    eigen = (embed(tau_pow(3)), embed(tau_pow(1)),
             -embed(tau_pow(-1)), -embed(tau_pow(-3)))
    return SpectralData(
        eigenvalues=eigen,
        right_pf=tuple(embed(x) for x in exact_right),
        left_pf=tuple(embed(x) for x in exact_left),
        exact_right_pf=exact_right,
        exact_left_pf=exact_left,
        projection=projection_matrix(),
    )


def projection_matrix() -> tuple[tuple[GoldenRational, ...], ...]:
    """P = E3, M's eigenprojector for tau^3: the exact limit of
    tau^(-3n) M^n, equal to v u^T / (u.v) for the PF vectors; P^2 = P."""
    return _spectral_parts(M.rows).projector


@dataclass(frozen=True)
class Part:
    """One term of a decomposition: count copies of a block.

    block is 'd1', 'dtau', or one of 'T1'..'T4'; order is the inflation
    order m of T_j^(m) and must be 0 for the dodecahedral blocks.
    """

    block: str
    order: int
    count: int

    def __post_init__(self):
        if self.block not in ("d1", "dtau", "T1", "T2", "T3", "T4"):
            raise ValueError(f"unknown block {self.block!r}")
        if self.count < 0:
            raise ValueError("negative count")
        if self.order < 0:
            raise ValueError("negative order")
        if self.block in ("d1", "dtau") and self.order != 0:
            raise ValueError("dodecahedral blocks carry no inflation order")

    def counts(self) -> CountVector:
        if self.block == "d1":
            base = D1_COUNTS
        elif self.block == "dtau":
            base = DTAU_COUNTS
        else:
            base = CountVector.unit(int(self.block[1]) - 1)
        return inflate_counts(base, self.order).scaled(self.count)

    def volume(self) -> GoldenRational:
        if self.block == "d1":
            v = total_volume({TileKind.T1: 3, TileKind.T2: 4, TileKind.T4: 4})
        elif self.block == "dtau":
            v = tau_pow(3) * total_volume({TileKind.T1: 3, TileKind.T2: 4, TileKind.T4: 4})
        else:
            v = tau_pow(3 * self.order) * record(TileKind(self.block)).volume
        return v * self.count

    def label(self) -> str:
        if self.block in ("d1", "dtau"):
            name = "d(1)" if self.block == "d1" else "d(tau)"
        elif self.order:
            name = f"{self.block}^({self.order})"
        else:
            name = self.block
        return name if self.count == 1 else f"{self.count} {name}"


@dataclass(frozen=True)
class Decomposition:
    """target_base inflated n times equals the multiset of parts."""

    name: str
    target_base: CountVector
    order: int
    parts: tuple[Part, ...]

    def target_counts(self) -> CountVector:
        return inflate_counts(self.target_base, self.order)

    def describe(self) -> str:
        return f"{self.name} = " + " + ".join(p.label() for p in self.parts)


@dataclass(frozen=True)
class VerifyReport:
    count_consistent: bool
    volume_consistent: bool

    @property
    def ok(self) -> bool:
        return self.count_consistent and self.volume_consistent


def verify_decomposition(d: Decomposition) -> VerifyReport:
    """Check a decomposition for exact count and volume consistency."""
    target = d.target_counts()
    total = CountVector((0, 0, 0, 0))
    for p in d.parts:
        total = total + p.counts()
    vol_target = tau_pow(3 * d.order) * d.target_base.total_volume()
    vol_parts = sum((p.volume() for p in d.parts), GoldenRational(0))
    return VerifyReport(total.c == target.c, vol_parts == vol_target)


def _unit(tile: str) -> CountVector:
    return CountVector.unit(int(tile[1]) - 1)


def _ledger_data() -> list[Decomposition]:
    P = Part
    return [
        Decomposition("T1^(2)", _unit("T1"), 2, (
            P("d1", 0, 1), P("T2", 1, 2), P("T3", 1, 1), P("T4", 1, 1),
            P("T2", 0, 1), P("T3", 0, 4))),
        Decomposition("T2^(3)", _unit("T2"), 3, (
            P("d1", 0, 1), P("T2", 2, 2), P("T2", 0, 5), P("T3", 0, 6))),
        Decomposition("T3^(2)", _unit("T3"), 2, (
            P("d1", 0, 1), P("T2", 0, 5), P("T3", 0, 6))),
        Decomposition("T4^(2)", _unit("T4"), 2, (
            P("d1", 0, 1), P("T2", 0, 3), P("T3", 0, 5))),
        Decomposition("T2^(4)", _unit("T2"), 4, (
            P("d1", 0, 2), P("dtau", 0, 1), P("T2", 2, 4), P("T2", 1, 5),
            P("T3", 1, 6), P("T2", 0, 10), P("T3", 0, 12))),
        Decomposition("T1^(4)", _unit("T1"), 4, (
            P("d1", 0, 13), P("dtau", 0, 2), P("T2", 2, 9), P("T2", 1, 14),
            P("T3", 1, 14), P("T4", 1, 3), P("T2", 0, 45), P("T3", 0, 68))),
        Decomposition("d(tau^10)", D1_COUNTS, 10, (
            P("d1", 0, 432139), P("dtau", 0, 92850), P("T1", 0, 1064050),
            P("T2", 0, 6341550), P("T3", 0, 4720730), P("T4", 0, 1064050))),
    ]


_LEDGER: list[Decomposition] | None = None


def dodecahedron_ledger() -> list[Decomposition]:
    """The seven recorded dodecahedral decompositions, pre-verified at load."""
    global _LEDGER
    if _LEDGER is None:
        entries = _ledger_data()
        for d in entries:
            rep = verify_decomposition(d)
            if not rep.ok:
                raise AssertionError(f"ledger entry {d.name} failed verification")
        _LEDGER = entries
    return list(_LEDGER)
