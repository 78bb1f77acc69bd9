"""Edge schemes of the fundamental tetrahedra and exact Cayley-Menger volumes.

A tetrahedron is pinned down metrically by its six squared edge lengths.
The Gram matrix of its edge vectors u = AB, v = AC, w = AD is written in
them alone, G_uu = q_ab and G_uv = (q_ab + q_ac - q_bc)/2 and so on, and
its determinant is the Cayley-Menger determinant over 8:

    det G = 36 V^2,

so with squared lengths in Q(tau) the volume is exact and needs no
coordinates.  The determinant is catalog.gram_determinant, from which the
catalog also derives its tile volumes; cm_volume adds the guard against a
degenerate scheme and a float root where V^2 is not a square.  Each
tile's edge lengths are catalog data (TileRecord.edge_lengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..catalog import TileKind, gram_determinant, record
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
    det = gram_determinant(e.as_tuple())
    if det.sign() <= 0:
        raise ValueError("degenerate edge scheme (Cayley-Menger determinant not positive)")
    squared = det / 36
    exact = exact_sqrt(squared)
    root = embed(exact) if exact is not None else math.sqrt(embed(squared))
    return CMVolume(squared=squared, root=root, exact_root=exact)
