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

The ledger of dodecahedral decompositions (Part, Decomposition,
VerifyReport, dodecahedron_ledger, verify_decomposition) is
icotile._ledger's, and the starting patches (BASES, D1_COUNTS,
DTAU_COUNTS) and the volume table read the catalog's records: each is
loaded on its first read, so the spectral data needs neither.
"""

from __future__ import annotations

import sys
from functools import cache, reduce
from math import lcm
from operator import index
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
# b[i]*tau) / den, set by _volume_row on first use
_VOLUME_ROW = None


def _volume_row():
    global _VOLUME_ROW
    from ._catalog import _VOLUME_A, _VOLUME_B, _VOLUME_DEN
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
        (a0, a1, a2, a3), (b0, b1, b2, b3), den = _VOLUME_ROW or _volume_row()
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


_LEDGER_NAMES = ("Part", "Decomposition", "VerifyReport", "verify_decomposition",
                 "dodecahedron_ledger")


def __getattr__(name):
    # the starting patches, which read the catalog's inventories, and the
    # ledger's names are bound here on their first read, so that a scan of
    # this namespace (perfbench's span wrapper) finds them
    if name in ("D1_COUNTS", "DTAU_COUNTS", "BASES"):
        from .catalog import inventory
        d1, dtau = (CountVector(tuple(dict(inventory(target).counts).get(k, 0)
                                      for k in COMPOSITE_ORDER))
                    for target in ("d1-composite", "dtau-composite"))
        # the starting patches by name: one composite tile or a dodecahedron
        globals().update(D1_COUNTS=d1, DTAU_COUNTS=dtau, BASES=dict(zip(
            catalog.STARTING_PATCHES, (*map(CountVector.unit, range(4)), d1, dtau))))
    elif name in _LEDGER_NAMES:
        __import__(f"{__package__}._ledger")
        globals()[name] = getattr(sys.modules[f"{__package__}._ledger"], name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
