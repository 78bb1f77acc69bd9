"""Exact golden-field arithmetic."""

from __future__ import annotations

import importlib
import inspect
import json
import math
import random
import typing
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from icotile import golden
from icotile.golden import (
    ONE,
    SIGMA,
    SQRT5,
    TAU,
    ZERO,
    GoldenRational,
    conj,
    embed,
    embed_decimal,
    exact_sqrt,
    fibonacci,
    pair_sign,
    tau_pow,
)


def _random_gr(rng: random.Random, span: int = 10**5, max_den: int = 999) -> GoldenRational:
    return GoldenRational(
        rng.randint(-span, span), rng.randint(-span, span), rng.randint(1, max_den))


def test_defining_relation():
    assert TAU * TAU == TAU + 1
    assert SIGMA == 1 - TAU
    assert TAU * SIGMA == -1
    assert TAU + SIGMA == 1
    assert SQRT5 == 2 * TAU - 1
    assert SQRT5 * SQRT5 == 5
    assert ONE - ONE == ZERO


def test_constructor_takes_integers_only():
    assert GoldenRational(True, False, np.int64(3)) == GoldenRational(1, 0, 3)
    assert repr(GoldenRational(np.int32(2), np.uint8(4), 6)) == "GoldenRational(1, 2, 3)"
    assert type(GoldenRational(True).a) is int
    for args in ((0.5,), (1, 2.9, 3), ("7",), (Fraction(1, 2),), (1, 0, 2.0)):
        with pytest.raises(TypeError):
            GoldenRational(*args)


def test_canonical_form():
    assert GoldenRational(2, 4, 6) == GoldenRational(1, 2, 3)
    assert GoldenRational(1, 1, -2) == GoldenRational(-1, -1, 2)
    x = GoldenRational(10, -6, -4)
    assert x.den > 0
    with pytest.raises(ZeroDivisionError):
        GoldenRational(1, 1, 0)
    # big numerators over a small denominator reduce to the same triple as
    # dividing by gcd(gcd(|a|, |b|), den)
    rng = random.Random(44)
    cases = [(0, 0, 12), (0, 7 * 3**900, 21), (5**700 * 6, 0, 18), (2**2000 + 1, 3**1300, 1)]
    for _ in range(30):
        bits = rng.choice((1000, 8000, 60000))
        shared = rng.choice((1, 2, 6, 35, 210))
        den = shared * rng.randint(1, 60)
        cases.append((shared * rng.getrandbits(bits) * rng.choice((1, -1)),
                      shared * rng.getrandbits(bits) * rng.choice((1, -1)),
                      den * rng.choice((1, -1))))
    for a, b, den in cases:
        sgn = -1 if den < 0 else 1
        g = gcd(gcd(abs(a), abs(b)), abs(den))
        x = GoldenRational(a, b, den)
        assert (x.a, x.b, x.den) == (sgn * a // g, sgn * b // g, abs(den) // g)


def test_hash_consistent_with_equality():
    G = GoldenRational
    assert G(1) == 1 and hash(G(3)) == hash(3)
    assert hash(G(1, 0, 2)) == hash(Fraction(1, 2))
    assert G(1) in {1} and 1 in {G(1)}
    assert {G(3): "x"}.get(3) == "x" and {3: "x"}.get(G(3)) == "x"
    assert Fraction(-5, 6) in {G(-5, 0, 6)} and G(-5, 0, 6) in {Fraction(-5, 6)}
    assert len({G(2, 4, 6), G(1, 2, 3), TAU, TAU + 0}) == 2


def test_ring_axioms_random():
    rng = random.Random(20260819)
    for _ in range(10**4):
        x, y, z = (_random_gr(rng, span=50, max_den=20) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x


def test_conjugation_multiplicative_random():
    rng = random.Random(7)
    for _ in range(10**4):
        x = _random_gr(rng, span=10**3, max_den=99)
        y = _random_gr(rng, span=10**3, max_den=99)
        assert conj(x * y) == conj(x) * conj(y)
        assert conj(x + y) == conj(x) + conj(y)
        assert (x * conj(x)).is_rational()
    assert conj(TAU) == SIGMA
    assert conj(SQRT5) == -SQRT5


def test_embed_order_matches_exact_sign():
    rng = random.Random(41)
    for _ in range(10**4):
        x = _random_gr(rng)
        y = _random_gr(rng)
        assert (embed(x) < embed(y)) == ((y - x).sign() > 0)
        assert (x < y) == ((y - x).sign() > 0)


def test_sign_on_near_cancellations():
    # a + b*tau with a/b near -tau forces the integer sign analysis
    with localcontext() as ctx:
        ctx.prec = 120
        tau_dec = (1 + Decimal(5).sqrt()) / 2
        for b in (10**6, 10**9, 10**12):
            a = -round(b * (1 + 5**0.5) / 2)
            for da in (-1, 0, 1):
                x = GoldenRational(a + da, b)
                ref = Decimal(a + da) + Decimal(b) * tau_dec
                want = 0 if ref == 0 else (1 if ref > 0 else -1)
                assert x.sign() == want
    big = GoldenRational(-fibonacci(80), fibonacci(79))
    # F(79)tau - F(80) = tau^(-79) * (-1)^78 > 0
    assert big.sign() == 1
    assert big == tau_pow(-79)


def _sign_reference(a: int, b: int) -> int:
    """GoldenRational(a, b).sign() as it decided the sign before pair_sign
    took over, kept verbatim as the reference."""
    p = 2 * a + b
    q = b
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    # mixed signs: compare p^2 with 5 q^2
    d = p * p - 5 * q * q
    if p > 0:
        return 1 if d > 0 else (-1 if d < 0 else 0)
    return -1 if d > 0 else (1 if d < 0 else 0)


def test_pair_sign_matches_reference():
    # a grid holding every mixed-sign case and 2a + b == 0, such as (1, -2)
    # = 1 - 2 tau < 0 and (-1, 2) > 0; then sigma^j = (F(j+1), -F(j)) and
    # its negative, which come as close to 0 as pairs of their size can,
    # and the same pairs scaled far past 64 bits
    pairs = [(a, b) for a in range(-30, 31) for b in range(-30, 31)]
    pairs += [(s * fibonacci(j + 1), -s * fibonacci(j)) for j in range(1, 90) for s in (1, -1)]
    pairs += [(a * 3**50 + d, b * 3**50) for a, b in pairs[:400] for d in (-1, 0, 1)]
    assert any(2 * a + b == 0 and a for a, b in pairs)
    for a, b in pairs:
        want = _sign_reference(a, b)
        assert pair_sign(a, b) == want, (a, b)
        assert GoldenRational(a, b).sign() == GoldenRational(a, b, 7).sign() == want, (a, b)
    assert (pair_sign(1, -2), pair_sign(-1, 2), pair_sign(2, -1), pair_sign(0, 0)) == (-1, 1, 1, 0)


def test_tau_powers():
    acc = ONE
    for n in range(0, 61):
        assert tau_pow(n) == acc
        acc = acc * TAU
    for n in range(1, 61):
        assert tau_pow(-n) == ONE / tau_pow(n)
    for m in range(-30, 31):
        for n in range(-30, 31):
            assert tau_pow(m + n) == tau_pow(m) * tau_pow(n)


def test_fibonacci():
    want = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert [fibonacci(n) for n in range(13)] == want
    for n in range(1, 40):
        assert fibonacci(-n) == (-1) ** (n + 1) * fibonacci(n)
    for n in range(0, 200):
        assert tau_pow(n) == GoldenRational(fibonacci(n - 1), fibonacci(n))


def _fib_pair_reference(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by the Fibonacci fast doubling tau_pow once used:
    one product and two squares per bit."""
    if n == 0:
        return 0, 1
    fa, fb = _fib_pair_reference(n >> 1)
    c = fa * (2 * fb - fa)
    d = fa * fa + fb * fb
    return (d, c + d) if n & 1 else (c, d)


def test_lucas_pair_matches_recurrence_and_fast_doubling():
    f, l = [0, 1], [2, 1]
    while len(f) <= 2000:
        f.append(f[-1] + f[-2])
        l.append(l[-1] + l[-2])
    for n in range(2001):
        assert golden._lucas_pair(n) == (f[n], l[n]), n
        assert fibonacci(n) == f[n], n
        assert fibonacci(-n) == (-1) ** (n + 1) * f[n], n
    for n in (10**5, 3 * 10**5):
        fn, fn1 = _fib_pair_reference(n)
        assert golden._lucas_pair(n) == (fn, 2 * fn1 - fn), n
        assert fibonacci(n) == fn
        assert tau_pow(n) == GoldenRational(fn1 - fn, fn)
        sign = -1 if n & 1 else 1
        assert tau_pow(-n) == GoldenRational(sign * fn1, -sign * fn)


def test_field_inverses():
    rng = random.Random(97)
    for _ in range(2000):
        x = _random_gr(rng, span=100, max_den=30)
        if x == ZERO:
            continue
        assert x * x.inverse() == ONE
        assert (1 / x) * x == ONE
        assert x / x == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_powers_and_mixed_operands():
    x = GoldenRational(2, -3, 7)
    assert x**0 == ONE
    assert x**5 == x * x * x * x * x
    assert x**-3 == ONE / (x * x * x)
    assert 2 + x == x + 2
    assert Fraction(1, 2) * x == x / 2
    assert 3 - x == -(x - 3)
    assert (2 / x) * x == 2


def test_embed_precision_and_large_coefficients():
    with localcontext() as ctx:
        ctx.prec = 300
        root5 = Decimal(5).sqrt()
        tau_dec = (1 + root5) / 2
        rng = random.Random(11)
        for _ in range(300):
            x = _random_gr(rng, span=10**8, max_den=10**6)
            fa, fb = x.as_fraction_pair()
            ref = (Decimal(fa.numerator) / Decimal(fa.denominator)
                   + Decimal(fb.numerator) / Decimal(fb.denominator) * tau_dec)
            assert embed(x) == pytest.approx(float(ref), rel=1e-13)
        # cancellation-heavy value: tau^(-200) via integer coefficients
        tiny = GoldenRational(fibonacci(-201), fibonacci(-200))
        assert tiny == tau_pow(-200)
        ref_tiny = (2 / (1 + root5)) ** 200
        assert embed(tiny) == pytest.approx(float(ref_tiny), rel=1e-12)
    with pytest.raises(OverflowError):
        embed(tau_pow(2000))
    with pytest.raises(OverflowError, match="^value out of float range$"):
        embed(GoldenRational(10**400, 0, 3))  # rational: int / int overflows
    assert float(TAU) == embed(TAU)


def _embed_decimal_reference(x: GoldenRational) -> Decimal:
    """The magnitude-scaled evaluation embed_decimal once used: 2*digits + 40
    working digits, wide enough for any cancellation, and a fresh sqrt(5)."""
    def ndigits(v: int) -> int:
        return abs(v).bit_length() * 31 // 100 + 1

    a, b, den = x.a, x.b, x.den
    ctx = Context(prec=2 * max(ndigits(a), ndigits(b)) + ndigits(den) + 40)
    root5 = ctx.sqrt(Decimal(5))
    return ctx.divide(ctx.add(Decimal(2 * a + b), ctx.multiply(Decimal(b), root5)),
                      Decimal(2 * den))


def _embedding_families() -> list[GoldenRational]:
    values = [tau_pow(n) for n in range(-300, 301)]
    values += [tau_pow(n) for n in (1000, -1000, 10000, -10000, 30000)]
    # near cancellations: (F(n+1) + d) - F(n)*tau is (-1)^n tau^(-n) + d
    for n in range(2, 400, 9):
        for d in (-2, -1, 0, 1, 2):
            for den in (1, 12, 999):
                values.append(GoldenRational(fibonacci(n + 1) + d, -fibonacci(n), den))
                values.append(GoldenRational(-fibonacci(n + 1) + d, fibonacci(n), den))
    rng = random.Random(29)
    for _ in range(400):
        span = 10 ** rng.randint(1, 1000)
        values.append(GoldenRational(rng.randint(-span, span), rng.randint(-span, span),
                                     rng.randint(1, 10**6)))
    return values


def test_embed_decimal_matches_magnitude_scaled_reference():
    for x in _embedding_families():
        got, want = embed_decimal(x), _embed_decimal_reference(x)
        assert float(got) == float(want), x
        assert format(got, ".16e") == format(want, ".16e"), x
        assert format(got, ".7e") == format(want, ".7e"), x


def test_embed_decimal_cuts_large_denominators():
    rng = random.Random(31)
    for _ in range(300):
        span = 10 ** rng.randint(1, 1000)
        x = GoldenRational(rng.randint(-span, span), rng.randint(-span, span),
                           rng.randint(1, 10 ** rng.randint(78, 1000)))
        got, want = embed_decimal(x), _embed_decimal_reference(x)
        assert float(got) == float(want), x
        assert format(got, ".16e") == format(want, ".16e"), x


def _oracle(mpmath, x: GoldenRational):
    """x as a 150-digit mpf, independent of golden's code: with p = 2a+b and
    q = b it is (p + q*sqrt5)/(2*den), and when p and q*sqrt5 would cancel,
    (p^2 - 5q^2)/(p - q*sqrt5), whose integer norm is exact."""
    p, q = 2 * x.a + x.b, x.b
    with mpmath.workdps(150):
        root5 = mpmath.sqrt(5)
        if (p > 0) == (q > 0) or p == 0 or q == 0:
            num = mpmath.mpf(p) + mpmath.mpf(q) * root5
        else:
            num = mpmath.mpf(p * p - 5 * q * q) / (mpmath.mpf(p) - mpmath.mpf(q) * root5)
        return num / (2 * x.den)


def _oracle_float(mpmath, x: GoldenRational) -> float:
    """The oracle rounded once to a float; inf beyond the float range.  float()
    of an mpf rounds to 53 bits and then ldexp rounds a subnormal again, so
    a subnormal is first rounded to the multiple of 2^-1074 it keeps."""
    v = _oracle(mpmath, x)
    with mpmath.workdps(150):
        if abs(v) < mpmath.ldexp(1, -1022):
            tiny = math.ldexp(int(mpmath.nint(mpmath.ldexp(v, 1074))), -1074)
            return math.copysign(tiny, -1 if v < 0 else 1)
        return float(v)


def _oracle_cases() -> list[GoldenRational]:
    rng = random.Random(41)
    values = []
    for _ in range(7000):  # random 4-1020-bit numerators, denominators up to 2^40
        bits = rng.randint(4, 1020)
        values.append(GoldenRational(rng.randint(-2**bits, 2**bits),
                                     rng.randint(-2**bits, 2**bits) or 1,
                                     rng.randint(1, 2**40)))
    values += [GoldenRational(fibonacci(n - 1), -fibonacci(n)) for n in range(2, 1461)]
    # F(n+1) - F(n)*tau = (-tau)^(-n): p and q*sqrt5 cancel in all but ~0.7 n bits;
    # past n = 1550 the value underflows to a zero of sign (-1)^n
    values += [GoldenRational(fibonacci(n + 1), -fibonacci(n)) for n in range(2, 1601)]
    # over a ~1300-bit denominator, brackets that straddle 0 with both ends' floats 0
    values += [GoldenRational(fibonacci(n + 1), -fibonacci(n), rng.getrandbits(1300) | 1)
               for n in range(900, 1100)]
    # straddling the largest float and the overflow threshold half an ulp above it
    top = 2**1024 - 2**971
    for center in (top, top + 2**970):
        for _ in range(800):
            den, b = rng.randint(1, 2**40), rng.getrandbits(rng.randint(2, 1060)) + 1
            offset = rng.choice((-1, 1)) * rng.getrandbits(1024 - rng.randint(54, 400))
            # b*tau = (b + b*sqrt5)/2 has floor (b + isqrt(5b^2)) // 2
            a = center * den - (b + isqrt(5 * b * b)) // 2 + offset * den
            sign = rng.choice((1, -1))
            values.append(GoldenRational(sign * a, sign * b, den))
    # the subnormal range, and below it
    for _ in range(1500):
        bits = rng.randint(4, 64)
        values.append(GoldenRational(rng.randint(-2**bits, 2**bits),
                                     rng.randint(-2**bits, 2**bits) or 1,
                                     rng.getrandbits(rng.randint(1000, 1150)) + 1))
    return values


def test_embed_is_correctly_rounded_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    cases = _oracle_cases()
    assert len(cases) >= 10**4
    overflows = subnormals = 0
    for x in cases:
        want = _oracle_float(mpmath, x)
        if math.isinf(want):
            overflows += 1
            with pytest.raises(OverflowError):
                embed(x)
        else:
            subnormals += 0 < abs(want) < 2.0**-1022
            got = embed(x)
            assert got == want and math.copysign(1, got) == math.copysign(1, want), x
    # both sides of the threshold and the subnormal range are reached
    assert overflows > 300
    assert subnormals > 300


def test_nearest_brackets_the_value():
    # each bracket n <= x*d/2^e <= n + w whose ends _nearest rounds, checked
    # in integers: u + v*sqrt5 has the sign of pair_sign(u - v, 2v)
    rng = random.Random(47)
    values = [GoldenRational(fibonacci(n + 1), -fibonacci(n), 3) for n in range(2, 400, 7)]
    values += [_random_gr(rng, span=10 ** rng.randint(1, 300), max_den=10**6) for _ in range(300)]
    for x in (x for x in values if x.b):
        p, q = 2 * x.a + x.b, x.b
        for k in (2, 8, 64, 128, 1024):
            ends = []
            golden._nearest(x, k, lambda n, e, d: ends.append((n, e)))
            for i, (n, e) in enumerate(ends):
                u, v = (p - (n << e), q) if e >= 0 else ((p << -e) - n, q << -e)
                assert pair_sign(u - v, 2 * v) == (1 if i % 2 == 0 else -1), (x, k, i)


def test_embed_decimal_within_4e_59_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(43)
    values = [tau_pow(n) for n in (1, -1, 200, -200, 5000, -5000, 60000, 191000, -191000)]
    values += [GoldenRational(fibonacci(n + 1), -fibonacci(n), 12) for n in range(2, 1461, 37)]
    for _ in range(300):
        digits = rng.choice((rng.randint(1, 300), rng.randint(1, 40000)))
        span = 10**digits
        values.append(GoldenRational(rng.randint(-span, span), rng.randint(-span, span) or 1,
                                     rng.randint(1, 10 ** rng.randint(1, 40))))
    assert max(abs(embed_decimal(x)) for x in values) > Decimal("1e39000")
    for x in values:
        want = _oracle(mpmath, x)
        with mpmath.workdps(150):
            assert abs(mpmath.mpf(str(embed_decimal(x))) / want - 1) < mpmath.mpf("4e-59"), x


def test_exact_sqrt():
    rng = random.Random(5)
    hits = 0
    for _ in range(500):
        x = _random_gr(rng, span=40, max_den=12)
        r = exact_sqrt(x * x)
        assert r is not None
        assert r * r == x * x
        assert r.sign() >= 0
        hits += 1
    assert hits == 500
    assert exact_sqrt(GoldenRational(2)) is None
    assert exact_sqrt(GoldenRational(0, 1)) is None
    assert exact_sqrt(-ONE) is None
    assert exact_sqrt(GoldenRational(1, 1)) == TAU  # tau^2 = 1 + tau
    assert exact_sqrt(GoldenRational(5)) == SQRT5


def _exact_sqrt_reference(x: GoldenRational) -> GoldenRational | None:
    """exact_sqrt as it once was: trace and norm as Fractions, up to eight
    sign candidates, each rebuilt from two rationals and squared."""
    def rational_sqrt(q: Fraction) -> Fraction | None:
        if q < 0:
            return None
        rn, rd = isqrt(q.numerator), isqrt(q.denominator)
        return Fraction(rn, rd) if rn * rn == q.numerator and rd * rd == q.denominator else None

    if x.sign() < 0:
        return None
    if x.sign() == 0:
        return ZERO
    A, B = x.as_fraction_pair()
    trace = 2 * A + B
    n = rational_sqrt(A * A + A * B - B * B)
    if n is None:
        return None
    for p in {n, -n}:
        s2 = trace + 2 * p
        s, v = rational_sqrt(s2), rational_sqrt(Fraction(s2 - 4 * p, 5))
        if s is None or v is None:
            continue
        for ssgn in {s, -s}:
            for vsgn in {v, -v}:
                fa, fb = (ssgn - vsgn) / 2, vsgn
                den = fa.denominator * fb.denominator // gcd(fa.denominator, fb.denominator)
                y = GoldenRational(fa.numerator * (den // fa.denominator),
                                   fb.numerator * (den // fb.denominator), den)
                if y.sign() >= 0 and y * y == x:
                    return y
    return None


def test_exact_sqrt_matches_fraction_reference():
    rng = random.Random(17)
    values = [ZERO, ONE, -ONE, TAU, SIGMA, SQRT5, GoldenRational(0, 0, 7)]
    for span, max_den, n in ((40, 12, 300), (10**6, 10**4, 100), (10**1000, 10**6, 20)):
        for _ in range(n):
            y = _random_gr(rng, span=span, max_den=max_den)
            # squares, tau times squares (never a square: its norm is
            # negative), 5 times squares, non-squares and negatives
            values += [y * y, TAU * y * y, 5 * y * y, y, -(y * y), y * y + 1]
    roots = 0
    for x in values:
        got, want = exact_sqrt(x), _exact_sqrt_reference(x)
        assert (got is None) == (want is None), x
        if got is not None:
            assert (got.a, got.b, got.den) == (want.a, want.b, want.den), x
            roots += 1
    assert roots > len(values) // 3


def test_json_round_trip():
    rng = random.Random(13)
    for _ in range(1000):
        x = _random_gr(rng)
        blob = json.dumps(x.to_json())
        assert GoldenRational.from_json(json.loads(blob)) == x
    big = tau_pow(150) / 7
    assert GoldenRational.from_json(big.to_json()) == big
    obj = TAU.to_json()
    assert set(obj) == {"a", "b", "den"}
    assert all(isinstance(v, str) for v in obj.values())


def test_string_forms():
    assert str(GoldenRational(1)) == "1"
    assert str(TAU) == "tau"
    assert str(GoldenRational(1, 1)) == "1+tau"
    assert str(GoldenRational(0, 1, 2)) == "tau/2"
    assert str(GoldenRational(-1, 2)) == "-1+2tau"
    assert str(GoldenRational(3, 4, 12)) == "(3+4tau)/12"
    assert "GoldenRational" in repr(TAU)


def test_from_json_takes_integers_only():
    with pytest.raises(TypeError):
        GoldenRational.from_json({"a": 0.5, "b": 2.9, "den": 3})
    with pytest.raises(ValueError):
        GoldenRational.from_json({"a": "0.5", "b": "2", "den": "3"})
    assert GoldenRational.from_json({"a": 1, "b": "2", "den": 3}) == GoldenRational(1, 2, 3)


def test_comparisons_total_order():
    rng = random.Random(23)
    values = sorted(_random_gr(rng, span=50, max_den=9) for _ in range(200))
    for a, b in zip(values, values[1:]):
        assert a <= b
        assert not (b < a)
        assert embed(a) <= embed(b)
    assert TAU > 1
    assert SIGMA < 0
    assert abs(SIGMA) == TAU - 1


_MODULES = ["icotile", "icotile.catalog", "icotile.checks", "icotile.cli", "icotile.golden",
            "icotile.inflation", "icotile.report", "icotile.geometry", "icotile.geometry.assembly",
            "icotile.geometry.axes", "icotile.geometry.placement"]


@pytest.mark.parametrize("name", _MODULES)
def test_public_annotations_resolve(name):
    # typing.get_type_hints evaluates each annotation string in its module's
    # namespace: every name a public function, class or method (a command's
    # callback) annotates with must be bound there, also where its module is
    # imported on first use
    module = importlib.import_module(name)
    for obj in (getattr(module, n) for n in module.__all__):
        obj = getattr(obj, "callback", obj)
        members = [getattr(m, "fget", None) or getattr(m, "func", None) or getattr(m, "__func__", m)
                   for k, m in vars(obj).items() if not k.startswith("_")
                   ] if isinstance(obj, type) else []
        for routine in (obj, *members):
            if inspect.isfunction(routine) or isinstance(routine, type):
                typing.get_type_hints(routine)
