"""Exact golden-field arithmetic."""

from __future__ import annotations

import json
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd

import pytest

from icotile.golden import (
    ONE,
    SIGMA,
    SQRT5,
    TAU,
    ZERO,
    GoldenRational,
    conj,
    embed,
    exact_sqrt,
    fibonacci,
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
    assert float(TAU) == embed(TAU)


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
