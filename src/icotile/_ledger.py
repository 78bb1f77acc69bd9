"""The ledger: specific inflations of single tiles whose count vectors
regroup into whole unit dodecahedra d(1) and tau-scaled dodecahedra d(tau)
plus leftover composite tiles.

verify_decomposition checks an entry for exact count and volume
consistency, summing the parts of each inflation order before it inflates
them or scales their volume; the ledger and verify commands and the report
run it on every entry they show.  Callers read these names from
icotile.inflation, which loads this module on the first read of one.
Its records are on the catalog's frozen-record base, so reading the
ledger loads no dataclasses.
"""

from __future__ import annotations

from functools import cache
from operator import add, index

from .catalog import _Record
from .golden import GoldenRational, tau_pow
from .inflation import BASES, D1_COUNTS, CountVector, _inflate, inflate_counts

__all__ = ["Part", "Decomposition", "VerifyReport", "verify_decomposition",
           "dodecahedron_ledger"]


class Part(_Record):
    """One term of a decomposition: count copies of a block.

    block is 'd1', 'dtau', or one of 'T1'..'T4'; order is the inflation
    order m of T_j^(m) and must be 0 for the dodecahedral blocks.
    """

    block: str
    order: int
    count: int

    def _check(self):
        if self.block not in BASES:
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
