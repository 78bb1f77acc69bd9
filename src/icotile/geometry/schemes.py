"""Edge data of the fundamental tetrahedra and exact Cayley-Menger volumes.

A tetrahedron is pinned down metrically by its six squared edge lengths;
the Cayley-Menger determinant

    | 0  1    1    1    1   |
    | 1  0    q_ab q_ac q_ad|
    | 1  q_ab 0    q_bc q_bd|  =  288 V^2
    | 1  q_ac q_bc 0    q_cd|
    | 1  q_ad q_bd q_cd 0   |

gives the squared volume without any coordinates, so with squared lengths
in Q(tau) the volume check is exact.  Each tile's edge lengths are catalog
data (TileRecord.edge_lengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..catalog import TileKind, record
from ..golden import GoldenRational, embed, exact_sqrt

__all__ = ["EdgeScheme", "CMVolume", "edge_scheme", "cm_volume"]

_PAIRS = ("ab", "ac", "ad", "bc", "bd", "cd")


@dataclass(frozen=True)
class EdgeScheme:
    """Six squared edge lengths, indexed by vertex pairs of (A, B, C, D)."""

    ab: GoldenRational
    ac: GoldenRational
    ad: GoldenRational
    bc: GoldenRational
    bd: GoldenRational
    cd: GoldenRational

    def __post_init__(self):
        for name in _PAIRS:
            if getattr(self, name).sign() <= 0:
                raise ValueError(f"squared edge {name} must be positive")

    def squared(self, i: int, j: int) -> GoldenRational:
        i, j = min(i, j), max(i, j)
        return getattr(self, "abcd"[i] + "abcd"[j])

    def as_tuple(self) -> tuple[GoldenRational, ...]:
        return tuple(getattr(self, p) for p in _PAIRS)


def edge_scheme(kind: TileKind | str) -> EdgeScheme:
    """The edge scheme of a fundamental tile: its catalog edge lengths, squared."""
    kind = TileKind(kind)
    if not kind.is_fundamental:
        raise ValueError(f"{kind} has no single edge scheme (composite)")
    return EdgeScheme(*(e * e for e in record(kind).edge_lengths))


def _det(rows: list[list[GoldenRational]]) -> GoldenRational:
    """Exact determinant by Laplace expansion (matrices here are at most 5x5)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = GoldenRational(0)
    for j in range(n):
        if rows[0][j].sign() == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


@dataclass(frozen=True)
class CMVolume:
    """Exact squared volume plus its real square root.

    exact_root is set when V^2 is a perfect square in Q(tau) (true for all
    six tiles); otherwise root falls back to a numeric square root and the
    value is flagged as inexact.
    """

    squared: GoldenRational
    root: float
    exact_root: GoldenRational | None

    @property
    def is_exact(self) -> bool:
        return self.exact_root is not None


def cm_volume(e: EdgeScheme) -> CMVolume:
    """Volume of the tetrahedron with squared edges e, exact where possible."""
    zero, one = GoldenRational(0), GoldenRational(1)
    rows = [
        [zero, one, one, one, one],
        [one, zero, e.ab, e.ac, e.ad],
        [one, e.ab, zero, e.bc, e.bd],
        [one, e.ac, e.bc, zero, e.cd],
        [one, e.ad, e.bd, e.cd, zero],
    ]
    det = _det(rows)
    if det.sign() <= 0:
        raise ValueError("degenerate edge scheme (Cayley-Menger determinant not positive)")
    squared = det / 288
    exact = exact_sqrt(squared)
    root = embed(exact) if exact is not None else math.sqrt(embed(squared))
    return CMVolume(squared=squared, root=root, exact_root=exact)
