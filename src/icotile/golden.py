"""Exact arithmetic in Q(sqrt(5)) written in the basis {1, tau}.

tau = (1+sqrt(5))/2 is the golden ratio and satisfies tau^2 = tau + 1, so
the ring Z[tau] is closed under multiplication:

    (a + b*tau)(c + d*tau) = (ac + bd) + (ad + bc + bd)*tau.

The Galois conjugation sends tau to sigma = 1 - tau = (1-sqrt(5))/2 and is
a ring homomorphism; sqrt(5) itself is 2*tau - 1.  A GoldenRational is a
numerator a + b*tau over a positive integer denominator, always reduced to
canonical form (gcd of the three integers is 1), so equality is structural.

Ordering never goes through floating point: the sign of a + b*tau is the
sign of (2a+b) + b*sqrt(5), which is decided exactly by integer squaring.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "GoldenRational",
    "mul",
    "conj",
    "tau_pow",
    "embed",
    "embed_decimal",
    "exact_sqrt",
    "ZERO",
    "ONE",
    "TAU",
    "SIGMA",
    "SQRT5",
]


def _as_golden(x) -> "GoldenRational":
    if isinstance(x, GoldenRational):
        return x
    if isinstance(x, int):
        return GoldenRational(x, 0, 1)
    if isinstance(x, Fraction):
        return GoldenRational(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot interpret {type(x).__name__} as GoldenRational")


class GoldenRational:
    """(a + b*tau)/den in canonical form: den > 0, gcd(a, b, den) = 1."""

    __slots__ = ("a", "b", "den")

    def __init__(self, a, b=0, den=1):
        a, b, den = int(a), int(b), int(den)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            a, b, den = -a, -b, -den
        # gcd(den, a) first: den is small, while a and b can run to
        # thousands of digits, and gcd(|a|, |b|) of two such is slow
        g = gcd(den, a)
        if g > 1:
            g = gcd(g, b)
            if g > 1:
                a, b, den = a // g, b // g, den // g
        self.a, self.b, self.den = a, b, den

    # ---- constructors ----

    @classmethod
    def from_fractions(cls, fa: Fraction, fb: Fraction = Fraction(0)) -> "GoldenRational":
        """Build fa + fb*tau from two rationals."""
        fa, fb = Fraction(fa), Fraction(fb)
        den = fa.denominator * fb.denominator // gcd(fa.denominator, fb.denominator)
        return cls(fa.numerator * (den // fa.denominator),
                   fb.numerator * (den // fb.denominator), den)

    @classmethod
    def from_json(cls, obj: dict) -> "GoldenRational":
        return cls(int(obj["a"]), int(obj["b"]), int(obj["den"]))

    def to_json(self) -> dict:
        """Canonical serialized form with int-strings (safe beyond 2^53)."""
        return {"a": str(self.a), "b": str(self.b), "den": str(self.den)}

    # ---- field arithmetic ----

    def __add__(self, other):
        other = _as_golden(other)
        return GoldenRational(self.a * other.den + other.a * self.den,
                              self.b * other.den + other.b * self.den,
                              self.den * other.den)

    def __sub__(self, other):
        return self + (-_as_golden(other))

    def __rsub__(self, other):
        return _as_golden(other) - self

    def __neg__(self):
        return GoldenRational(-self.a, -self.b, self.den)

    def __mul__(self, other):
        # tau^2 = tau + 1
        other = _as_golden(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return GoldenRational(a * c + b * d, a * d + b * c + b * d, self.den * other.den)

    def inverse(self) -> "GoldenRational":
        # x * conj(x) is the integer norm a^2 + ab - b^2
        a, b = self.a, self.b
        n = a * a + a * b - b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GoldenRational((a + b) * self.den, -b * self.den, n)

    def __truediv__(self, other):
        return self * _as_golden(other).inverse()

    def __rtruediv__(self, other):
        return _as_golden(other) * self.inverse()

    def __pow__(self, n: int) -> "GoldenRational":
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    __radd__ = __add__
    __rmul__ = __mul__

    # ---- exact ordering ----

    def sign(self) -> int:
        """Exact sign, decided by integer squaring on (2a+b) + b*sqrt(5)."""
        p = 2 * self.a + self.b
        q = self.b
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

    def __eq__(self, other):
        try:
            other = _as_golden(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.den == other.den

    def __hash__(self):
        return hash((self.a, self.b, self.den))

    def __lt__(self, other):
        return (self - _as_golden(other)).sign() < 0

    def __le__(self, other):
        return (self - _as_golden(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _as_golden(other)).sign() > 0

    def __ge__(self, other):
        return (self - _as_golden(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # ---- views ----

    def conj(self) -> "GoldenRational":
        """Galois conjugate: tau -> 1 - tau."""
        return GoldenRational(self.a + self.b, -self.b, self.den)

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction_pair(self) -> tuple[Fraction, Fraction]:
        """(A, B) with self = A + B*tau."""
        return Fraction(self.a, self.den), Fraction(self.b, self.den)

    def __float__(self):
        return embed(self)

    def __repr__(self):
        return f"GoldenRational({self.a}, {self.b}, {self.den})"

    def __str__(self):
        a, b, d = self.a, self.b, self.den
        if b == 0:
            core = str(a)
        elif a == 0:
            core = f"{b}tau" if b not in (1, -1) else ("tau" if b == 1 else "-tau")
        else:
            bt = f"{abs(b)}tau" if abs(b) != 1 else "tau"
            core = f"{a}{'+' if b > 0 else '-'}{bt}"
        if d == 1:
            return core
        if "+" in core[1:] or "-" in core[1:]:
            core = f"({core})"
        return f"{core}/{d}"


ZERO = GoldenRational(0)
ONE = GoldenRational(1)
TAU = GoldenRational(0, 1)
SIGMA = GoldenRational(1, -1)
SQRT5 = GoldenRational(-1, 2)


def mul(x: GoldenRational, y: GoldenRational) -> GoldenRational:
    """Exact product in Q(tau)."""
    return _as_golden(x) * _as_golden(y)


def conj(x: GoldenRational) -> GoldenRational:
    """Galois conjugation tau -> 1 - tau, an involutive ring homomorphism."""
    return _as_golden(x).conj()


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by fast doubling, n >= 0."""
    if n == 0:
        return 0, 1
    fa, fb = _fib_pair(n >> 1)
    c = fa * (2 * fb - fa)
    d = fa * fa + fb * fb
    if n & 1:
        return d, c + d
    return c, d


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1, extended to negative n by F(-n) = (-1)^(n+1) F(n)."""
    if n >= 0:
        return _fib_pair(n)[0]
    f = _fib_pair(-n)[0]
    return f if (-n) % 2 == 1 else -f


def tau_pow(n: int) -> GoldenRational:
    """tau^n = F(n)*tau + F(n-1), valid for any integer n (tau is a unit),
    from one fast doubling."""
    f, g = _fib_pair(abs(n))  # F(|n|), F(|n|+1)
    if n >= 0:
        return GoldenRational(g - f, f)
    # tau*sigma = -1, so tau^(-k) = (-1)^k conj(tau^k) = (-1)^k (F(k+1) - F(k)*tau)
    s = -1 if n & 1 else 1
    return GoldenRational(s * g, -s * f)


def _ndigits(x: int) -> int:
    """Upper bound on the decimal digits of x (no int-to-str conversion)."""
    return abs(x).bit_length() * 31 // 100 + 1


def embed_decimal(x) -> decimal.Decimal:
    """(a + b*(1+sqrt5)/2)/den as a Decimal at any magnitude.

    Evaluated with enough working digits that the value is correct to well
    under 1 ulp of a double, even when a and b*tau nearly cancel (|x| is
    bounded below by 1/(den * |a + b*sigma|) because the norm of a nonzero
    element of Z[tau] is a nonzero integer).
    """
    x = _as_golden(x)
    a, b, den = x.a, x.b, x.den
    prec = 2 * max(_ndigits(a), _ndigits(b)) + _ndigits(den) + 40
    ctx = decimal.Context(prec=prec)
    sqrt5 = ctx.sqrt(decimal.Decimal(5))
    return ctx.divide(ctx.add(decimal.Decimal(2 * a + b), ctx.multiply(decimal.Decimal(b), sqrt5)),
                      decimal.Decimal(2 * den))


def embed(x) -> float:
    """Nearest float of (a + b*(1+sqrt5)/2)/den, rounded once from
    embed_decimal when irrational.  Raises OverflowError outside the float range."""
    x = _as_golden(x)
    a, b, den = x.a, x.b, x.den
    if b == 0:
        # plain rational: Fraction -> float is correctly rounded
        try:
            return a / den if abs(a) < (1 << 52) and den < (1 << 52) else float(Fraction(a, den))
        except OverflowError:
            raise OverflowError("value out of float range")
    try:
        f = float(embed_decimal(x))
    except OverflowError:
        raise OverflowError("value out of float range")
    if f in (float("inf"), float("-inf")):
        raise OverflowError("value out of float range")
    return f


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def exact_sqrt(x: GoldenRational) -> GoldenRational | None:
    """The nonnegative y in Q(tau) with y*y == x, or None if x is not a square.

    Uses trace and norm: y + conj(y) and y*conj(y) are rational, and both are
    forced (up to signs) by trace(x) and sqrt(norm(x)); the candidate is then
    reconstructed and checked by squaring.
    """
    x = _as_golden(x)
    if x.sign() < 0:
        return None
    if x.sign() == 0:
        return ZERO
    A, B = x.as_fraction_pair()
    trace = 2 * A + B
    norm = A * A + A * B - B * B
    n = _rational_sqrt(norm)
    if n is None:
        return None
    for p in {n, -n}:
        s2 = trace + 2 * p
        s = _rational_sqrt(s2)
        if s is None:
            continue
        v2 = Fraction(s2 - 4 * p, 5)
        v = _rational_sqrt(v2)
        if v is None:
            continue
        for ssgn in {s, -s}:
            for vsgn in {v, -v}:
                y = GoldenRational.from_fractions((ssgn - vsgn) / 2, vsgn)
                if y.sign() >= 0 and y * y == x:
                    return y
    return None
