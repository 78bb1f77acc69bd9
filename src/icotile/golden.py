"""Exact arithmetic in Q(sqrt(5)) written in the basis {1, tau}.

tau = (1+sqrt(5))/2 is the golden ratio and satisfies tau^2 = tau + 1, so
the ring Z[tau] is closed under multiplication:

    (a + b*tau)(c + d*tau) = (ac + bd) + (ad + bc + bd)*tau.

The Galois conjugation sends tau to sigma = 1 - tau = (1-sqrt(5))/2 and is
a ring homomorphism; sqrt(5) itself is 2*tau - 1.  A GoldenRational is a
numerator a + b*tau over a positive integer denominator, always reduced to
canonical form (gcd of the three integers is 1), so equality is structural.

No value goes through floating point: integer squaring decides signs, and
embed (embed_decimal) rounds exactly from an integer bracket, see _nearest.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import floor, gcd, inf, isqrt, log10
from operator import index
from types import ModuleType
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import decimal
    import fractions
else:  # stand-ins, imported on the first read of an attribute: get_type_hints resolves them
    class _OnFirstRead(ModuleType):
        def __getattr__(self, attr: str):
            value = getattr(__import__(self.__name__), attr)
            setattr(self, attr, value)  # later reads of attr skip this hook
            return value

    decimal, fractions = _OnFirstRead("decimal"), _OnFirstRead("fractions")

__all__ = [
    "GoldenRational",
    "pair_sign",
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
    if isinstance(x, fractions.Fraction):
        return GoldenRational(x.numerator, 0, x.denominator)
    raise TypeError(f"cannot interpret {type(x).__name__} as GoldenRational")


class GoldenRational:
    """(a + b*tau)/den in canonical form: den > 0, gcd(a, b, den) = 1."""

    __slots__ = ("a", "b", "den")

    def __init__(self, a, b=0, den=1):
        # index, not int: a float, str or Fraction raises instead of truncating
        a, b, den = index(a), index(b), index(den)
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
    def from_json(cls, obj: dict) -> "GoldenRational":
        # to_json's int strings are parsed; a float meets index() and raises
        return cls(*(int(obj[k]) if isinstance(obj[k], str) else obj[k] for k in ("a", "b", "den")))

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
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base, n = base * base, n >> 1
        return result

    __radd__ = __add__
    __rmul__ = __mul__

    # ---- exact ordering ----

    def sign(self) -> int:
        """Exact sign, decided by pair_sign on the numerator."""
        return pair_sign(self.a, self.b)

    def __eq__(self, other):
        try:
            other = _as_golden(other)
        except TypeError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.den == other.den

    def __hash__(self):
        # a rational value hashes like the int or Fraction it equals
        if self.b or self.den == 1:
            return hash((self.a, self.b, self.den) if self.b else self.a)
        return hash(fractions.Fraction(self.a, self.den))

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

    def as_fraction_pair(self) -> tuple[fractions.Fraction, fractions.Fraction]:
        """(A, B) with self = A + B*tau."""
        return fractions.Fraction(self.a, self.den), fractions.Fraction(self.b, self.den)

    def __float__(self):
        return embed(self)

    def __repr__(self):
        return f"GoldenRational({self.a}, {self.b}, {self.den})"

    def __str__(self):
        a, b, d = self.a, self.b, self.den
        bt = {1: "tau", -1: "-tau"}.get(b, f"{b}tau")
        core = str(a) if b == 0 else bt if a == 0 else f"{a}{'+' if b > 0 else ''}{bt}"
        if d > 1 and ("+" in core[1:] or "-" in core[1:]):
            core = f"({core})"
        return core if d == 1 else f"{core}/{d}"


ZERO = GoldenRational(0)
ONE = GoldenRational(1)
TAU = GoldenRational(0, 1)
SIGMA = GoldenRational(1, -1)
SQRT5 = GoldenRational(-1, 2)
_pow5 = lru_cache(maxsize=4)(partial(pow, 5))  # 5^t, once per magnitude, not per bracket end


def pair_sign(a: int, b: int) -> int:
    """Exact sign of a + b*tau for ints a, b, decided by integer squaring
    on (2a+b) + b*sqrt(5)."""
    p = 2 * a + b
    if p >= 0 and b >= 0:
        return 1 if p or b else 0
    if p <= 0 and b <= 0:
        return -1
    # mixed signs, so neither is 0 and p^2 != 5 b^2: the larger of |p|, |b|*sqrt5 wins
    return 1 if (p * p > 5 * b * b) == (p > 0) else -1


def _lucas_pair(n: int) -> tuple[int, int]:
    """(F(n), L(n)), n >= 0, doubling from the top bit of n: F(2k) = F(k)*L(k)
    and L(2k) = L(k)^2 - 2(-1)^k cost one product and one square, and a set
    bit steps to F(k+1) = (F + L)/2, L(k+1) = (5F + L)/2."""
    f, l, s = 0, 2, 2  # F(k), L(k), 2(-1)^k
    for bit in bin(n)[2:]:
        f, l, s = f * l, l * l - s, 2
        if bit == "1":
            f, l, s = (f + l) >> 1, (5 * f + l) >> 1, -2
    return f, l


def fibonacci(n: int) -> int:
    """F(n) with F(1) = F(2) = 1, extended to negative n by F(-n) = (-1)^(n+1) F(n)."""
    f = _lucas_pair(abs(n))[0]
    return -f if n < 0 and n % 2 == 0 else f


def tau_pow(n: int) -> GoldenRational:
    """tau^n = F(n)*tau + F(n-1), valid for any integer n (tau is a unit),
    from one Lucas-pair doubling: F(k -+ 1) = (L(k) -+ F(k))/2."""
    f, l = _lucas_pair(abs(n))  # F(|n|), L(|n|)
    if n >= 0:
        return GoldenRational((l - f) >> 1, f)
    # tau*sigma = -1, so tau^(-k) = (-1)^k conj(tau^k) = (-1)^k (F(k+1) - F(k)*tau)
    s = -1 if n & 1 else 1
    return GoldenRational(s * ((f + l) >> 1), -s * f)


def _nearest(x: GoldenRational, k: int, rounded):
    """rounded(n, e, d), once the ends n and n + w of the bracket n <= x*d/2^e
    <= n + w share a sign and give one result.  With d = 2*den, x*d = p +
    q*sqrt5 for p = 2a+b and q = b; cutting p and q to about k bits drops
    under 1 + sqrt5 units, and isqrt(5q^2) under 1.  Else k doubles: an
    irrational x is neither 0 nor a rounding boundary, so the loop ends."""
    p, q, d = 2 * x.a + x.b, x.b, 2 * x.den
    while True:
        e = max(p.bit_length(), q.bit_length()) - k if q else 0
        n, s, w = (p >> e, q >> e, 5) if e > 0 else (p << -e, q << -e, 1 if q else 0)
        n += isqrt(5 * s * s) if s >= 0 else -isqrt(5 * s * s) - 1
        if (end := rounded(n, e, d)) == rounded(n + w, e, d) and (n < 0) == (n + w < 0):
            return end
        k *= 2


def _float(n: int, e: int, d: int) -> float:
    """n * 2^e/d, exactly rounded as int / int is, or +-inf."""
    try:
        return (n << e) / d if e >= 0 else n / (d << -e)
    except OverflowError:
        return inf if n > 0 else -inf


def _decimal(n: int, e: int, d: int) -> tuple[int, int]:
    """(N, -t): N is the int nearest 10^t n * 2^e/d = 5^t n * 2^(e+t)/d; |N| > 5*10^59 or 0."""
    t = 60 - floor((abs(n).bit_length() + e - d.bit_length()) * log10(2))
    up, down = n * _pow5(max(t, 0)) << max(e + t, 0), _pow5(max(-t, 0)) * d << max(-e - t, 0)
    return (2 * up + down) // (2 * down), -t


def embed(x) -> float:
    """The float nearest x, exactly rounded; OverflowError outside the float range."""
    x = _as_golden(x)
    f = _nearest(x, 128, _float) if x.b else _float(x.a, 0, x.den)  # a rational is a/den
    if f in (inf, -inf):
        raise OverflowError("value out of float range")
    return f


def embed_decimal(x) -> decimal.Decimal:
    """x as a Decimal of 60 to 62 significant digits, nearest at its last, at any magnitude."""
    return decimal.Decimal("%dE%d" % _nearest(_as_golden(x), 256, _decimal))


def exact_sqrt(x: GoldenRational) -> GoldenRational | None:
    """The nonnegative y in Q(tau) with y*y == x, or None if x is not a square.

    Over the integers alone: x = (P + Q*sqrt5)/(2*den)^2 with P = 2*den*(2a+b)
    and Q = 2*den*b, and a square root of P + Q*sqrt5 is (m + n*sqrt5)/2
    with m^2 + 5n^2 = 4P and mn = 2Q.  So (m^2 - 5n^2)^2 = 16(P^2 - 5Q^2),
    the integer norm P^2 - 5Q^2 must be a square k^2, and {m^2, 5n^2} is
    {2(P+k), 2(P-k)}.  The candidate is checked by squaring it.
    """
    x = _as_golden(x)
    sign = x.sign()
    if sign <= 0:
        return ZERO if sign == 0 else None
    P, Q = 2 * x.den * (2 * x.a + x.b), 2 * x.den * x.b
    norm = P * P - 5 * Q * Q
    k = isqrt(max(norm, 0))
    if k * k != norm:
        return None
    # P >= k now (x and its conjugate are nonnegative), so no root is of a negative
    for mm, nn5 in ((2 * (P + k), 2 * (P - k)), (2 * (P - k), 2 * (P + k))):
        m, n = isqrt(mm), isqrt(nn5 // 5)
        if m * m != mm or 5 * n * n != nn5:
            continue
        if Q < 0:
            n = -n
        # +-(m + n*sqrt5)/2 over 2*den, with sqrt5 = 2*tau - 1
        y = abs(GoldenRational(m - n, 2 * n, 4 * x.den))
        if y * y == x:
            return y
    return None
