"""Substitution matrix, spectral data, decomposition ledger."""

from __future__ import annotations

import dataclasses
import random

import pytest

from icotile import catalog, checks, inflation
from icotile.golden import GoldenRational, _lucas_pair, embed, tau_pow

TAU3 = tau_pow(3)
ZERO = GoldenRational(0)
GR = GoldenRational
# the volume vector (6tau+4, 2tau+1, 4tau+3, 4tau+2), right PF of M
VOLUME_VECTOR = (GR(4, 6), GR(1, 2), GR(3, 4), GR(2, 4))
# the frequency vector (tau/2, tau^2, tau, 1), left PF of M
FREQUENCY_VECTOR = (GR(0, 1, 2), GR(1, 1), GR(0, 1), GR(1))


def test_matrix_rows():
    assert inflation.M.rows == ((1, 2, 2, 2), (0, 2, 1, 0), (1, 2, 1, 1), (1, 1, 1, 1))
    assert inflation.char_poly()[-1] == 1  # det(M)
    assert sum(inflation.M.rows[i][i] for i in range(4)) == 5
    assert inflation.M.rows[0][3] == 2


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4))


def test_matrix_powers():
    ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert inflation.M.power(0) == ident
    assert inflation.M.power(1) == inflation.M.rows
    rng = random.Random(3)
    for _ in range(40):
        a = rng.randint(0, 9)
        b = rng.randint(0, 9)
        assert inflation.M.power(a + b) == _matmul(inflation.M.power(a),
                                                   inflation.M.power(b))
    with pytest.raises(ValueError):
        inflation.M.power(-1)


def _power_by_squaring(n):
    """M^n by repeated squaring: the reference for the closed form."""
    result = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    base = inflation.M.rows
    while n:
        if n & 1:
            result = _matmul(result, base)
        base = _matmul(base, base)
        n >>= 1
    return result


ORACLE_ORDERS = (*range(65), 1000, 30000)


def test_closed_form_power_matches_squaring():
    for n in ORACLE_ORDERS:
        assert inflation.M.power(n) == _power_by_squaring(n), n


def test_inflate_counts_matches_squaring():
    bases = [inflation.CountVector.unit(i) for i in range(4)]
    bases += [inflation.D1_COUNTS, inflation.DTAU_COUNTS]
    for n in ORACLE_ORDERS:
        p = _power_by_squaring(n)
        for c in bases:
            want = tuple(sum(c.c[i] * p[i][j] for i in range(4)) for j in range(4))
            assert inflation.inflate_counts(c, n).c == want, (c, n)


def test_inflate_counts_composes_on_large_counts():
    rng = random.Random(41)
    c = inflation.CountVector(tuple(rng.randrange(10**200) for _ in range(4)))
    for a, b in ((50, 977), (1000, 2000)):
        twice = inflation.inflate_counts(inflation.inflate_counts(c, a), b)
        assert twice == inflation.inflate_counts(c, a + b), (a, b)


def test_tau_powers_triple_the_lucas_pair():
    # F(3n) = F(n)(L(n)^2 - (-1)^n) and L(3n) = L(n)(L(n)^2 - 3(-1)^n)
    for n in [*range(301), 30001, 30000]:
        f3, l3 = _lucas_pair(3 * n)
        f, l = _lucas_pair(n)
        assert inflation._tau_powers(n) == ((l3 - f3) >> 1, f3, (l - f) >> 1, f), n


def test_inflate_counts_rejects_negative_order():
    with pytest.raises(ValueError):
        inflation.inflate_counts(inflation.D1_COUNTS, -1)


@pytest.mark.parametrize("bad", [(1, 0, 0), (-1, 5, 0, 0), (0, -1, 3, 0), (1.0, 0, 0, 0)])
def test_inflate_counts_rejects_malformed_counts(bad):
    """A short, negative or float count vector raises what CountVector(bad)
    raises at every order, also where its product with M^n would be a
    nonnegative 4-vector (the dot products of (1, 0, 0) stop after three)."""
    with pytest.raises((TypeError, ValueError)) as want:
        inflation.CountVector(bad)
    for n in (0, 1, 3, 1000):
        with pytest.raises(want.type, match=str(want.value)):
            inflation.inflate_counts(bad, n)
    for n in (0, 1, 3, 1000):
        got = inflation.inflate_counts([0, 1, 0, 0], n)
        assert got == inflation.inflate_counts(inflation.CountVector.unit(1), n)
        assert type(got.c) is tuple and all(type(x) is int for x in got.c)


def test_inflate_counts_returns_a_plain_record():
    """The result is set without a second check: it equals, hashes and
    reprs like the CountVector its entries would make."""
    for base in inflation.BASES.values():
        for n in (0, 1, 1000):
            got = inflation.inflate_counts(base, n)
            want = inflation.CountVector(got.c)
            assert type(got) is inflation.CountVector
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert got.total_volume() == want.total_volume()
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.c = want.c


def test_total_volume_matches_sum_of_products():
    """One dot product with the common-denominator table against the
    GoldenRational products it replaced: an Inventory, str- and
    member-keyed mappings, zero counts and 1000-digit counts."""
    def products(pairs):
        return sum((catalog.record(k).volume * n for k, n in pairs), ZERO)

    rng = random.Random(43)
    vols = inflation.composite_volumes()
    kinds = list(catalog.TileKind)
    for _ in range(20):
        c = inflation.CountVector(tuple(rng.randrange(10**1000) for _ in range(4)))
        want = sum((vols[i] * c.c[i] for i in range(4)), ZERO)
        assert c.total_volume() == want
        inv = {k: rng.randrange(10**1000) for k in rng.sample(kinds, rng.randint(0, len(kinds)))}
        want = products(inv.items())
        assert catalog.total_volume(inv) == want
        assert catalog.total_volume({k.value: n for k, n in inv.items()}) == want
    for name in catalog.INVENTORY_TARGETS:
        inv = catalog.inventory(name)
        want = products(inv.counts)
        assert catalog.total_volume(inv) == want
        assert catalog.total_volume({k.value: n for k, n in inv.counts}) == want
        assert catalog.total_volume(dict(inv.counts)) == want
    for zeros in ({}, {k: 0 for k in kinds}, {k.value: 0 for k in kinds}):
        assert catalog.total_volume(zeros) == ZERO
    assert inflation.CountVector((0, 0, 0, 0)).total_volume() == ZERO


@pytest.mark.parametrize("off", [1, -1])
def test_inexact_division_raises(monkeypatch, off):
    parts = inflation._spectral_parts()
    monkeypatch.setattr(inflation, "_spectral_parts",
                        lambda: parts._replace(den=parts.den + off))
    for base in inflation.BASES.values():
        for n in (0, 1, 5, 1000):
            with pytest.raises(ArithmeticError, match="not an integer"):
                inflation.inflate_counts(base, n)
    with pytest.raises(ArithmeticError):
        inflation.verify_decomposition(inflation.dodecahedron_ledger()[0])


def test_spectral_parts():
    parts = inflation._spectral_parts()  # M's rows by default
    assert parts == inflation._spectral_parts(inflation.M.rows)
    assert parts.den == 30
    assert parts.projector == inflation.projection_matrix() == checks._projection_expected()
    # the same P from the Perron-Frobenius vectors: v u^T / (u.v)
    right, left = VOLUME_VECTOR, FREQUENCY_VECTOR
    uv = sum((right[i] * left[i] for i in range(4)), ZERO)
    assert parts.projector == tuple(tuple(right[i] * left[j] / uv for j in range(4))
                                    for i in range(4))
    # a changed row moves the characteristic polynomial off tau^3, tau,
    # sigma, sigma^3: the closed form must refuse, not answer
    rows = inflation.M.rows
    for mutated in ((rows[0], rows[1], (1, 2, 1, 2), rows[3]),
                    ((1, 2, 2, 3), rows[1], rows[2], rows[3])):
        with pytest.raises(ValueError):
            inflation._spectral_parts(mutated)


def test_format_poly():
    assert inflation.format_poly((1, -5, 2, 5, 1)) == "x^4 - 5x^3 + 2x^2 + 5x + 1"
    assert inflation.format_poly(inflation.char_poly()) == "x^4 - 5x^3 + 2x^2 + 5x + 1"
    assert inflation.format_poly((-1, 0, -1, 1, 0, -7)) == "-x^5 - x^3 + x^2 - 7"
    assert inflation.format_poly((1, 0, 0, -1)) == "x^3 - 1"
    assert inflation.format_poly((0, 3, -1, 0)) == "3x^2 - x"
    assert inflation.format_poly((0, 0)) == "0"


def test_primitivity_and_determinant():
    def det4(m):
        # Laplace expansion along the first row
        def det3(r):
            return (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                    - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                    + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
        total = 0
        for j in range(4):
            minor = [[m[i][k] for k in range(4) if k != j] for i in range(1, 4)]
            total += (-1) ** j * m[0][j] * det3(minor)
        return total

    assert any(x == 0 for row in inflation.M.power(1) for x in row)
    for n in range(2, 12):
        p = inflation.M.power(n)
        assert all(x > 0 for row in p for x in row)
        assert det4(p) == 1


def test_count_vectors():
    c = inflation.CountVector((1, 2, 3, 4))
    assert list(c) == [1, 2, 3, 4]
    assert c.c[2] == 3
    assert c.scaled(3).c == (3, 6, 9, 12)
    with pytest.raises(ValueError):
        inflation.CountVector((1, 2, 3))
    with pytest.raises(ValueError):
        inflation.CountVector((1, 2, 3, -4))


def test_substitution_rows_are_matrix_rows():
    for i in range(4):
        got = inflation.inflate_counts(inflation.CountVector.unit(i), 1)
        assert got.c == inflation.M.rows[i]


def test_inflate_example():
    got = inflation.inflate_counts(inflation.CountVector.unit(1), 3)
    assert got.c == (5, 21, 12, 6)
    assert got.total_volume() == tau_pow(12) / 12


def test_volume_conservation_every_order():
    rng = random.Random(17)
    vectors = [inflation.CountVector.unit(i) for i in range(4)]
    vectors += [inflation.CountVector(tuple(rng.randint(0, 50) for _ in range(4)))
                for _ in range(10)]
    for c in vectors:
        base = c.total_volume()
        for n in range(0, 21):
            got = inflation.inflate_counts(c, n).total_volume()
            assert got == tau_pow(3 * n) * base


def test_composite_volume_balance():
    vols = inflation.composite_volumes()
    assert vols == tuple(GoldenRational(a, b, 12)
                         for a, b in ((4, 6), (1, 2), (3, 4), (2, 4)))
    for i in range(4):
        rhs = sum((vols[j] * inflation.M.rows[i][j] for j in range(4)), ZERO)
        assert TAU3 * vols[i] == rhs


def test_char_poly_and_cayley_hamilton():
    coeffs = inflation.char_poly()
    assert coeffs == (1, -5, 2, 5, 1)
    powers = [inflation.M.power(k) for k in range(5)]
    for i in range(4):
        for j in range(4):
            acc = sum(c * powers[4 - k][i][j] for k, c in enumerate(coeffs))
            assert acc == 0


def test_char_poly_oracle():
    sympy = pytest.importorskip("sympy")
    rows = inflation.M.rows
    assert inflation.char_poly() == tuple(sympy.Matrix(rows).charpoly().all_coeffs())
    assert inflation.char_poly()[-1] == sympy.Matrix(rows).det()
    # a changed row must move the polynomial: it is computed, not typed in
    mutated = (rows[0], rows[1], (1, 2, 1, 2), rows[3])
    assert inflation._char_poly(mutated) == tuple(sympy.Matrix(mutated).charpoly().all_coeffs())
    assert inflation._char_poly(mutated) != inflation.char_poly()


def test_eigenvalues():
    sd = inflation.pf_vectors()
    exact = (tau_pow(3), tau_pow(1), -tau_pow(-1), -tau_pow(-3))
    coeffs = inflation.char_poly()
    assert len(sd.eigenvalues) == 4
    for lam, ex in zip(sd.eigenvalues, exact):
        assert lam == pytest.approx(embed(ex), abs=1e-12)
        residue = sum(c * lam ** (4 - k) for k, c in enumerate(coeffs))
        assert abs(residue) < 1e-9
    mags = [abs(x) for x in sd.eigenvalues]
    assert mags == sorted(mags, reverse=True)
    # the golden identities behind the printed values
    assert sd.eigenvalues[0] == pytest.approx(2 + 5**0.5, abs=1e-12)
    assert sd.eigenvalues[0] * sd.eigenvalues[3] == pytest.approx(-1, abs=1e-12)
    assert sd.eigenvalues[1] * sd.eigenvalues[2] == pytest.approx(-1, abs=1e-12)


def test_pf_vectors_exact_and_printed():
    sd = inflation.pf_vectors()
    right, left = VOLUME_VECTOR, FREQUENCY_VECTOR
    assert sd.exact_right_pf == tuple(x / sum(right, ZERO) for x in right)
    assert sd.exact_left_pf == tuple(x / sum(left, ZERO) for x in left)
    for i in range(4):
        r = sum((right[j] * inflation.M.rows[i][j] for j in range(4)), ZERO)
        assert r == TAU3 * right[i]
        l = sum((left[j] * inflation.M.rows[j][i] for j in range(4)), ZERO)
        assert l == TAU3 * left[i]
    assert sum(sd.exact_right_pf, ZERO) == GoldenRational(1)
    assert sum(sd.exact_left_pf, ZERO) == GoldenRational(1)
    printed_right = (0.3820, 0.1180, 0.2639, 0.2361)
    printed_left = (0.1338, 0.4331, 0.2677, 0.1654)
    for got, want in zip(sd.right_pf, printed_right):
        assert abs(got - want) < 5e-5
    for got, want in zip(sd.left_pf, printed_left):
        assert abs(got - want) < 5e-5


def test_count_frequencies_converge_to_left_pf():
    sd = inflation.pf_vectors()

    def deviation(n):
        c = inflation.inflate_counts(inflation.CountVector.unit(0), n)
        total = sum(c.c)
        return max(abs(x / total - l) for x, l in zip(c.c, sd.left_pf))

    d15 = deviation(15)
    assert d15 < 2e-7
    assert deviation(20) < 1e-8
    # geometric decay at rate tau^(-2)
    ratio = deviation(14) / d15
    assert abs(ratio - embed(tau_pow(2))) < 0.1 * embed(tau_pow(2))


def test_projection_matrix():
    P = inflation.projection_matrix()
    thirtieths = (
        ((4, 2), (4, 12), (8, 4), (-4, 8)),
        ((-1, 2), (4, 2), (-2, 4), (6, -2)),
        ((5, 0), (0, 10), (10, 0), (-10, 10)),
        ((-2, 4), (8, 4), (-4, 8), (12, -4)),
    )
    want = tuple(tuple(GoldenRational(a, b, 30) for a, b in row)
                 for row in thirtieths)
    assert P == want
    for i in range(4):
        for j in range(4):
            acc = sum((P[i][k] * P[k][j] for k in range(4)), ZERO)
            assert acc == P[i][j]
    # rank one: every 2x2 minor vanishes
    for i in range(3):
        for j in range(3):
            assert P[i][j] * P[i + 1][j + 1] == P[i][j + 1] * P[i + 1][j]
    # trace of a rank-1 projection is 1
    assert sum((P[i][i] for i in range(4)), ZERO) == GoldenRational(1)


def test_projection_is_matrix_power_limit():
    P = [[embed(x) for x in row] for row in inflation.projection_matrix()]

    def err(n):
        Mn = inflation.M.power(n)
        scale = embed(tau_pow(3 * n))
        return max(abs(Mn[i][j] / scale - P[i][j])
                   for i in range(4) for j in range(4))

    errs = [err(n) for n in range(4, 13)]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-5
    t2 = embed(tau_pow(2))
    for a, b in zip(errs, errs[1:]):
        assert abs(a / b - t2) < 0.1 * t2


def test_ledger_entries_verify():
    entries = inflation.dodecahedron_ledger()
    assert len(entries) == 7
    names = [d.name for d in entries]
    assert names == ["T1^(2)", "T2^(3)", "T3^(2)", "T4^(2)",
                     "T2^(4)", "T1^(4)", "d(tau^10)"]
    for d in entries:
        rep = inflation.verify_decomposition(d)
        assert rep.count_consistent
        assert rep.volume_consistent
        assert rep.ok
    entries.clear()  # the caller's copy: the ledger keeps its entries
    assert len(inflation.dodecahedron_ledger()) == 7


def test_ledger_big_entry_volume():
    big = inflation.dodecahedron_ledger()[-1]
    assert big.name == "d(tau^10)"
    counts = {(p.block, p.order): p.count for p in big.parts}
    assert counts == {
        ("d1", 0): 432139, ("dtau", 0): 92850,
        ("T1", 0): 1064050, ("T2", 0): 6341550,
        ("T3", 0): 4720730, ("T4", 0): 1064050,
    }
    vol = sum((p.volume() for p in big.parts), ZERO)
    assert vol == GoldenRational(47287176, 76512258, 12)
    assert vol == tau_pow(30) * GoldenRational(24, 42, 12)


def test_ledger_mutations_detected():
    rng = random.Random(29)
    entries = inflation.dodecahedron_ledger()
    for d in entries:
        for _ in range(6):
            i = rng.randrange(len(d.parts))
            delta = rng.choice([-1, 1, 2, 7])
            part = d.parts[i]
            if part.count + delta < 0:
                delta = 1
            bad = dataclasses.replace(part, count=part.count + delta)
            mutant = dataclasses.replace(
                d, parts=d.parts[:i] + (bad,) + d.parts[i + 1:])
            assert not inflation.verify_decomposition(mutant).ok


def _part_counts(p) -> tuple:
    """A ledger part's counts: p.count of its block inflated p.order times."""
    return inflation.inflate_counts(inflation.BASES[p.block], p.order).scaled(p.count).c


def test_part_validation():
    with pytest.raises(ValueError):
        inflation.Part(block="T7", order=1, count=1)
    with pytest.raises(ValueError):
        inflation.Part(block="T2", order=-1, count=1)
    with pytest.raises(ValueError):
        inflation.Part(block="T2", order=1, count=-1)
    with pytest.raises(ValueError):
        inflation.Part(block="d1", order=2, count=1)
    p = inflation.Part(block="T2", order=3, count=2)
    assert _part_counts(p) == (10, 42, 24, 12)
    assert p.label() == "2 T2^(3)"
    assert _part_counts(inflation.Part(block="d1", order=0, count=1)) == (3, 4, 0, 4)


def test_counts_and_orders_are_integers():
    with pytest.raises(TypeError):
        inflation.CountVector((1.5, 0, 0, 0))
    with pytest.raises(TypeError):
        inflation.Part("T2", 1, 1.5)
    with pytest.raises(TypeError):
        inflation.Part("T2", 1.0, 1)
    with pytest.raises(ValueError):
        inflation.CountVector((0, -1, 0, 0))
    assert _part_counts(inflation.Part("T2", 1, 2)) == (0, 4, 2, 0)


def test_decomposition_describe():
    first = inflation.dodecahedron_ledger()[0]
    text = first.describe()
    assert text.startswith("T1^(2) = ")
    assert "d(1)" in text
    assert "4 T3" in text


def test_spectral_json():
    blob = inflation.pf_vectors().to_json()
    assert set(blob) == {"eigenvalues", "right_pf", "left_pf",
                         "exact_right_pf", "exact_left_pf", "projection"}
    assert len(blob["projection"]) == 4
    # (4+6tau)/(10+16tau) reduces to 2-tau in canonical form
    assert blob["exact_right_pf"][0] == {"a": "2", "b": "-1", "den": "1"}
