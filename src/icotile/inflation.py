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
product after the four distinct eigenvalues are checked to be roots of
char_poly()) and bars for Galois conjugates,

    M^n = tau^(3n) E3 + sigma^(3n) E3bar + tau^n E1 + sigma^n E1bar,

so each entry is a sum of two Galois traces, and one Lucas-pair doubling
gives tau^n, and its tripling tau^(3n).  A count vector c is checked once,
on entry; its sixteen dot products with a flat table of integer weights
are taken in one pass over small ints, and with d0..d3 the four of column
j, entry j is q3*d0 + p3*d1 + q1*d2 + p1*d3 over one common denominator,
one checked division, where q3 + p3*tau = tau^(3n) and q1 + p1*tau =
tau^n.  The result, nonnegative as c and M are, is not checked again.  A
count vector's volume is one dot product with the (T1..T4) row of the
catalog's common-denominator volume table.

The ledger holds specific inflations of single tiles whose count vectors
regroup into whole unit dodecahedra d(1) and tau-scaled dodecahedra
d(tau) plus leftover composite tiles.  verify_decomposition checks an
entry for exact count and volume consistency, summing the parts of each
inflation order before it inflates them or scales their volume; the
ledger and verify commands and the report run it on every entry they
show.

The starting patches (BASES, D1_COUNTS, DTAU_COUNTS) and the volume table
read the catalog's records, so one reader binds all four on the first
need of any: the spectral data loads no records.
"""

from __future__ import annotations

from functools import cache, reduce
from math import lcm
from operator import add, index
from typing import NamedTuple

from . import catalog
from .catalog import TileKind, _Record
from .golden import TAU, GoldenRational, _lucas_pair, embed, tau_pow

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
    "BASES",
    "COMPOSITE_ORDER",
]

COMPOSITE_ORDER = (TileKind.T1, TileKind.T2, TileKind.T3, TileKind.T4)

_M_ROWS = ((1, 2, 2, 2), (0, 2, 1, 0), (1, 2, 1, 1), (1, 1, 1, 1))

# the eigenvalues of M in decreasing absolute value: tau^3, tau, sigma, sigma^3
_SPECTRUM = (tau_pow(3), TAU, TAU.conj(), tau_pow(3).conj())

# the catalog's volumes of (T1, T2, T3, T4) as (a, b, den), V_Ti = (a[i] +
# b[i]*tau) / den, set by _read_catalog on first use
_VOLUME_ROW = None


@cache
def _read_catalog():
    """Bind BASES, D1_COUNTS, DTAU_COUNTS and _VOLUME_ROW from the catalog's
    records, once, and return _VOLUME_ROW."""
    global BASES, D1_COUNTS, DTAU_COUNTS, _VOLUME_ROW
    from ._catalog import _VOLUME_A, _VOLUME_B, _VOLUME_DEN
    from .catalog import inventory
    D1_COUNTS, DTAU_COUNTS = (CountVector(tuple(dict(inventory(target).counts).get(k, 0)
                                                for k in COMPOSITE_ORDER))
                              for target in ("d1-composite", "dtau-composite"))
    # the starting patches by name: one composite tile or a dodecahedron
    BASES = dict(zip(catalog.STARTING_PATCHES,
                     (*map(CountVector.unit, range(4)), D1_COUNTS, DTAU_COUNTS)))
    _VOLUME_ROW = (*(tuple(v[k] for k in COMPOSITE_ORDER) for v in (_VOLUME_A, _VOLUME_B)),
                   _VOLUME_DEN)
    return _VOLUME_ROW


class CountVector(_Record):
    """Multiplicities of (T1, T2, T3, T4), nonnegative arbitrary-width integers."""

    c: tuple[int, int, int, int]

    def _check(self):
        c = tuple(map(index, self.c))  # index, not int: a float raises
        if len(c) != 4 or min(c) < 0:
            raise ValueError("CountVector needs 4 nonnegative entries")
        object.__setattr__(self, "c", c)

    @classmethod
    def unit(cls, i: int) -> "CountVector":
        """Basis vector for tile T_(i+1)."""
        return cls(tuple(1 if j == i else 0 for j in range(4)))

    def scaled(self, n: int) -> "CountVector":
        return CountVector(tuple(n * a for a in self.c))

    def total_volume(self) -> GoldenRational:
        """catalog.total_volume of these counts, read as (T1, T2, T3, T4)."""
        c0, c1, c2, c3 = self.c
        (a0, a1, a2, a3), (b0, b1, b2, b3), den = _VOLUME_ROW or _read_catalog()
        return GoldenRational(c0 * a0 + c1 * a1 + c2 * a2 + c3 * a3,
                              c0 * b0 + c1 * b1 + c2 * b2 + c3 * b3, den)

    def __iter__(self):
        return iter(self.c)


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


_IDENT = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


class InflationMatrix:
    """The fixed 4x4 substitution matrix with exact integer powers."""

    rows = _M_ROWS

    def power(self, n: int):
        """M^n: the four unit rows of inflate_counts; entries grow like tau^(3n)."""
        return tuple(_inflate(_IDENT, n))


M = InflationMatrix()


def inflate_counts(c: CountVector, n: int) -> CountVector:
    """Row convention: counts c inflate to c * M^n; c is checked once (module docstring)."""
    if not isinstance(c, CountVector):
        c = CountVector(c)
    return CountVector._decided(_inflate((c.c,), n)[0])


def _inflate(vectors, n: int) -> list[tuple[int, int, int, int]]:
    """c * M^n for each 4-tuple of counts c (module docstring): the trace of
    tau^m * D*E[i][j], tau^m = q + p*tau, is q*u + p*v (_SpectralParts.weights)."""
    if n < 0:
        raise ValueError("negative inflation order")
    parts = _spectral_parts()
    q3, p3, q1, p1 = _tau_powers(n)
    den, weights, rows = parts.den, parts.weights, []
    for c0, c1, c2, c3 in vectors:
        d = [c0 * w0 + c1 * w1 + c2 * w2 + c3 * w3 for w0, w1, w2, w3 in weights]
        x0, r0 = divmod(q3 * d[0] + p3 * d[1] + q1 * d[2] + p1 * d[3], den)
        x1, r1 = divmod(q3 * d[4] + p3 * d[5] + q1 * d[6] + p1 * d[7], den)
        x2, r2 = divmod(q3 * d[8] + p3 * d[9] + q1 * d[10] + p1 * d[11], den)
        x3, r3 = divmod(q3 * d[12] + p3 * d[13] + q1 * d[14] + p1 * d[15], den)
        if r0 or r1 or r2 or r3:
            raise ArithmeticError(f"entry of c * M^{n} is not an integer")
        rows.append((x0, x1, x2, x3))
    return rows


def _tau_powers(n: int) -> tuple[int, int, int, int]:
    """(q, p) of tau^(3n) = q + p*tau, then of tau^n, n >= 0, from one Lucas
    pair: F(3n) = F(n)(L(n)^2 - (-1)^n), L(3n) = L(n)(L(n)^2 - 3(-1)^n)."""
    f, l = _lucas_pair(n)  # tau^m = (L(m) - F(m))/2 + F(m)*tau
    s, l2 = (-1 if n & 1 else 1), l * l  # (-1)^n, L(n)^2
    f3, l3 = f * (l2 - s), l * (l2 - 3 * s)
    return (l3 - f3) >> 1, f3, (l - f) >> 1, f


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
        sign = ("- " if c < 0 else "+ ") if terms else ("-" if c < 0 else "")
        terms.append(f"{sign}{mag}{power}")
    return " ".join(terms) if terms else "0"


class _SpectralParts(NamedTuple):
    projector: tuple[tuple[GoldenRational, ...], ...]  # E3
    den: int  # D, the lcm of the denominators of E3 and E1
    # weights[4j:4j + 4] = (u3, v3, u1, v1) of column j, each over the rows
    # i: with D*E[i][j] = a + b*tau, u[i] = 2a + b and v[i] = a + 3b, as the
    # trace of (q + p*tau)(a + b*tau) is q*(2a + b) + p*(a + 3b)
    weights: tuple[tuple[int, int, int, int], ...]


@cache
def _spectral_parts(rows=_M_ROWS) -> _SpectralParts:
    """Eigenprojectors E3, E1 of the 4x4 integer matrix rows (M's by
    default, so _inflate's lookup hashes no key) for tau^3 and tau.

    Before the Lagrange product E_l = prod over m != l of (A - mI)/(l - m)
    is taken over l, m in the four distinct constants of _SPECTRUM (tau^3,
    tau, sigma, sigma^3), each is checked to be an exact root of
    _char_poly(rows); ValueError if not.  Built on first use, then cached.
    """
    coeffs = _char_poly(rows)
    for lam in _SPECTRUM:
        if sum((c * lam ** (4 - k) for k, c in enumerate(coeffs)), GoldenRational(0)) != 0:
            raise ValueError(f"{lam} is not a root of the characteristic polynomial {coeffs}")

    def projector(lam):
        return reduce(_mat_mul, (
            tuple(tuple((x - (mu if i == j else 0)) / (lam - mu) for j, x in enumerate(row))
                  for i, row in enumerate(rows))
            for mu in _SPECTRUM if mu != lam))

    e3, e1 = projector(_SPECTRUM[0]), projector(_SPECTRUM[1])
    den = lcm(*(x.den for e in (e3, e1) for row in e for x in row))

    def weights(column):
        ab = [(x.a * (den // x.den), x.b * (den // x.den)) for x in column]
        return tuple(2 * a + b for a, b in ab), tuple(a + 3 * b for a, b in ab)

    flat = tuple(w for c3, c1 in zip(zip(*e3), zip(*e1)) for w in weights(c3) + weights(c1))
    return _SpectralParts(e3, den, flat)


def composite_volumes() -> tuple[GoldenRational, ...]:
    """Exact volumes (V_T1, V_T2, V_T3, V_T4)."""
    return tuple(catalog.record(k).volume for k in COMPOSITE_ORDER)


class SpectralData(_Record):
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


def pf_vectors() -> SpectralData:
    """Exact Perron-Frobenius data of M with numeric images.

    Eigenvalues are listed in decreasing absolute value: tau^3, tau, sigma,
    sigma^3.  The eigenvectors are read off P = v u^T / (u.v): column 0 is
    a multiple of the right one v, row 0 of the left one u.  Both are
    L1-normalized to sum 1 (the right one gives volume fractions, the left
    one tile frequencies).
    """
    P = projection_matrix()
    right, left = tuple(row[0] for row in P), P[0]
    rsum = sum(right, GoldenRational(0))
    lsum = sum(left, GoldenRational(0))
    exact_right = tuple(x / rsum for x in right)
    exact_left = tuple(x / lsum for x in left)
    return SpectralData(
        eigenvalues=tuple(embed(x) for x in _SPECTRUM),
        right_pf=tuple(embed(x) for x in exact_right),
        left_pf=tuple(embed(x) for x in exact_left),
        exact_right_pf=exact_right,
        exact_left_pf=exact_left,
        projection=P,
    )


def projection_matrix() -> tuple[tuple[GoldenRational, ...], ...]:
    """P = E3, M's eigenprojector for tau^3: the exact limit of
    tau^(-3n) M^n, equal to v u^T / (u.v) for the PF vectors; P^2 = P."""
    return _spectral_parts().projector


class Part(_Record):
    """One term of a decomposition: count copies of a block.

    block is 'd1', 'dtau', or one of 'T1'..'T4'; order is the inflation
    order m of T_j^(m) and must be 0 for the dodecahedral blocks.
    """

    block: str
    order: int
    count: int

    def _check(self):
        if self.block not in catalog.STARTING_PATCHES:
            raise ValueError(f"unknown block {self.block!r}")
        object.__setattr__(self, "order", index(self.order))
        object.__setattr__(self, "count", index(self.count))
        if self.count < 0:
            raise ValueError("negative count")
        if self.order < 0:
            raise ValueError("negative order")
        if self.block in ("d1", "dtau") and self.order != 0:
            raise ValueError("dodecahedral blocks carry no inflation order")

    def volume(self) -> GoldenRational:
        m, base = _volume_base(self)
        return tau_pow(3 * m) * base.scaled(self.count).total_volume()

    def label(self) -> str:
        if self.block in ("d1", "dtau"):
            name = "d(1)" if self.block == "d1" else "d(tau)"
        elif self.order:
            name = f"{self.block}^({self.order})"
        else:
            name = self.block
        return name if self.count == 1 else f"{self.count} {name}"


def _volume_base(p: Part) -> tuple[int, CountVector]:
    """(m, c) with the volume of one block of p equal to tau^(3m) *
    c.total_volume(): d(tau) is d(1) scaled by tau."""
    _read_catalog()
    return (1, D1_COUNTS) if p.block == "dtau" else (p.order, BASES[p.block])


_ZERO_COUNTS = (0, 0, 0, 0)


def _by_order(terms) -> dict[int, tuple[int, ...]]:
    """{m: the sum of count * c} over (m, c, count) terms."""
    out = {}
    for m, c, count in terms:
        out[m] = tuple(map(add, out.get(m, _ZERO_COUNTS), [count * x for x in c]))
    return out


class Decomposition(_Record):
    """target_base inflated n times equals the multiset of parts."""

    name: str
    target_base: CountVector
    order: int
    parts: tuple[Part, ...]

    def target_counts(self) -> CountVector:
        return inflate_counts(self.target_base, self.order)

    def describe(self) -> str:
        return f"{self.name} = " + " + ".join(p.label() for p in self.parts)

    def mutant(self) -> "Decomposition":
        """This entry with its first part's count raised by one."""
        first = self.parts[0]
        return self._replace(parts=(first._replace(count=first.count + 1),) + self.parts[1:])


class VerifyReport(_Record):
    count_consistent: bool
    volume_consistent: bool

    @property
    def ok(self) -> bool:
        return self.count_consistent and self.volume_consistent


def verify_decomposition(d: Decomposition) -> VerifyReport:
    """Check a decomposition for exact count and volume consistency.

    c * M^m and tau^(3m) * volume(c) are linear in c, so the parts are
    summed by order first: one inflation and one tau power per order."""
    _read_catalog()
    counts = _by_order((p.order, BASES[p.block], p.count) for p in d.parts)
    volumes = _by_order((*_volume_base(p), p.count) for p in d.parts)
    rows = (_inflate((c,), m)[0] for m, c in counts.items())
    total = tuple(map(sum, zip(_ZERO_COUNTS, *rows)))
    vol_parts = sum((tau_pow(3 * m) * CountVector(c).total_volume()
                     for m, c in volumes.items()), GoldenRational(0))
    vol_target = tau_pow(3 * d.order) * d.target_base.total_volume()
    return VerifyReport._decided(total == d.target_counts().c, vol_parts == vol_target)


@cache
def _ledger_data() -> tuple[Decomposition, ...]:
    _read_catalog()
    P = Part
    return (
        Decomposition("T1^(2)", BASES["T1"], 2, (
            P("d1", 0, 1), P("T2", 1, 2), P("T3", 1, 1), P("T4", 1, 1),
            P("T2", 0, 1), P("T3", 0, 4))),
        Decomposition("T2^(3)", BASES["T2"], 3, (
            P("d1", 0, 1), P("T2", 2, 2), P("T2", 0, 5), P("T3", 0, 6))),
        Decomposition("T3^(2)", BASES["T3"], 2, (
            P("d1", 0, 1), P("T2", 0, 5), P("T3", 0, 6))),
        Decomposition("T4^(2)", BASES["T4"], 2, (
            P("d1", 0, 1), P("T2", 0, 3), P("T3", 0, 5))),
        Decomposition("T2^(4)", BASES["T2"], 4, (
            P("d1", 0, 2), P("dtau", 0, 1), P("T2", 2, 4), P("T2", 1, 5),
            P("T3", 1, 6), P("T2", 0, 10), P("T3", 0, 12))),
        Decomposition("T1^(4)", BASES["T1"], 4, (
            P("d1", 0, 13), P("dtau", 0, 2), P("T2", 2, 9), P("T2", 1, 14),
            P("T3", 1, 14), P("T4", 1, 3), P("T2", 0, 45), P("T3", 0, 68))),
        Decomposition("d(tau^10)", D1_COUNTS, 10, (
            P("d1", 0, 432139), P("dtau", 0, 92850), P("T1", 0, 1064050),
            P("T2", 0, 6341550), P("T3", 0, 4720730), P("T4", 0, 1064050))),
    )


def dodecahedron_ledger() -> list[Decomposition]:
    """The seven recorded dodecahedral decompositions, unverified: each
    reader checks the entries it uses with verify_decomposition."""
    return list(_ledger_data())


def __getattr__(name):
    # the starting patches are bound on their first read, so that a scan of
    # this namespace (perfbench's span wrapper) finds them
    if name not in ("D1_COUNTS", "DTAU_COUNTS", "BASES"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _read_catalog()
    return globals()[name]
