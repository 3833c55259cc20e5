"""Exact complex-rational scalars.

Everything in this package computes over Q(i): complex numbers whose real
and imaginary parts are rationals of arbitrary precision.  A scalar is kept
as a single reduced triple ``(p, q, r)`` standing for ``(p + q*i)/r`` with
``r > 0`` and ``gcd(p, q, r) = 1``.  The triple form is what the elimination
kernels operate on; :class:`ComplexRational` is a thin immutable wrapper
around it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Triple = tuple[int, int, int]

CQ_ZERO: Triple = (0, 0, 1)


def cq_make(p: int, q: int, r: int) -> Triple:
    """Reduce (p + q*i)/r to canonical form: r > 0, gcd(p, q, r) = 1."""
    if r == 0:
        raise ZeroDivisionError("zero denominator")
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(p, q, r)
    if g > 1:
        return (p // g, q // g, r // g)
    return (p, q, r)


def cq_add(x: Triple, y: Triple) -> Triple:
    p1, q1, r1 = x
    p2, q2, r2 = y
    return cq_make(p1 * r2 + p2 * r1, q1 * r2 + q2 * r1, r1 * r2)


def cq_sub(x: Triple, y: Triple) -> Triple:
    p1, q1, r1 = x
    p2, q2, r2 = y
    return cq_make(p1 * r2 - p2 * r1, q1 * r2 - q2 * r1, r1 * r2)


def cq_mul(x: Triple, y: Triple) -> Triple:
    p1, q1, r1 = x
    p2, q2, r2 = y
    return cq_make(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, r1 * r2)


def cq_div(x: Triple, y: Triple) -> Triple:
    # x / y = x * conj(y) * r2 / |y_num|^2
    p1, q1, r1 = x
    p2, q2, r2 = y
    n2 = p2 * p2 + q2 * q2
    if n2 == 0:
        raise ZeroDivisionError("division by zero scalar")
    return cq_make((p1 * p2 + q1 * q2) * r2, (q1 * p2 - p1 * q2) * r2, r1 * n2)


def cq_neg(x: Triple) -> Triple:
    p, q, r = x
    return (-p, -q, r)


def cq_conj(x: Triple) -> Triple:
    p, q, r = x
    return (p, -q, r)


def cq_is_zero(x: Triple) -> bool:
    return x[0] == 0 and x[1] == 0


def cq_scale_rat(x: Triple, num: int, den: int) -> Triple:
    """Multiply by the real rational num/den."""
    p, q, r = x
    return cq_make(p * num, q * num, r * den)


def cq_abs2(x: Triple) -> Fraction:
    p, q, r = x
    return Fraction(p * p + q * q, r * r)


class ComplexRational:
    """An exact complex number with rational real and imaginary parts.

    Instances are immutable and hashable; arithmetic accepts ints, Fractions
    and other ComplexRationals.  Equality is exact.
    """

    __slots__ = ("t",)

    def __init__(self, re=0, im=0):
        if isinstance(re, ComplexRational) and im == 0:
            object.__setattr__(self, "t", re.t)
            return
        fre = Fraction(re)
        fim = Fraction(im)
        den = fre.denominator * fim.denominator // gcd(fre.denominator, fim.denominator)
        p = fre.numerator * (den // fre.denominator)
        q = fim.numerator * (den // fim.denominator)
        object.__setattr__(self, "t", (p, q, den))

    @classmethod
    def from_triple(cls, t: Triple) -> "ComplexRational":
        self = cls.__new__(cls)
        object.__setattr__(self, "t", t)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    @property
    def re(self) -> Fraction:
        p, _, r = self.t
        return Fraction(p, r)

    @property
    def im(self) -> Fraction:
        _, q, r = self.t
        return Fraction(q, r)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational.from_triple(cq_conj(self.t))

    def abs2(self) -> Fraction:
        """Squared modulus, always a nonnegative rational."""
        return cq_abs2(self.t)

    def is_zero(self) -> bool:
        return cq_is_zero(self.t)

    def is_real(self) -> bool:
        return self.t[1] == 0

    def to_complex(self) -> complex:
        p, q, r = self.t
        return complex(p / r, q / r)

    def _coerce(self, other):
        if isinstance(other, ComplexRational):
            return other.t
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return (f.numerator, 0, f.denominator)
        return None

    def __add__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return ComplexRational.from_triple(cq_add(self.t, t))

    __radd__ = __add__

    def __sub__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return ComplexRational.from_triple(cq_sub(self.t, t))

    def __rsub__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return ComplexRational.from_triple(cq_sub(t, self.t))

    def __mul__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return ComplexRational.from_triple(cq_mul(self.t, t))

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return ComplexRational.from_triple(cq_div(self.t, t))

    def __rtruediv__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return ComplexRational.from_triple(cq_div(t, self.t))

    def __neg__(self):
        return ComplexRational.from_triple(cq_neg(self.t))

    def __bool__(self):
        return not cq_is_zero(self.t)

    def __eq__(self, other):
        t = self._coerce(other)
        if t is None:
            return NotImplemented
        return self.t == t

    def __hash__(self):
        if self.t[1] == 0:
            return hash(Fraction(self.t[0], self.t[2]))
        return hash(self.t)

    def __repr__(self):
        return f"ComplexRational({self.re}, {self.im})"

    def __str__(self):
        p, q, r = self.t
        if q == 0:
            return str(Fraction(p, r))
        if p == 0:
            return f"{Fraction(q, r)}i"
        sign = "+" if q > 0 else "-"
        return f"{Fraction(p, r)}{sign}{abs(Fraction(q, r))}i"


CQ0 = ComplexRational(0)
CQ1 = ComplexRational(1)


def rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn = _isqrt_exact(num)
    if rn is None:
        return None
    rd = _isqrt_exact(den)
    if rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def complex_sqrt(z: ComplexRational):
    """Exact square root of z within Q(i), or None when it does not exist.

    Solves (u + vi)^2 = x + yi via u^2 = (x + s)/2, v^2 = (s - x)/2 with
    s = |z|; all three square roots must be rational.
    """
    x, y = z.re, z.im
    s = rational_sqrt(x * x + y * y)
    if s is None:
        return None
    u = rational_sqrt((x + s) / 2)
    if u is None:
        return None
    v = rational_sqrt((s - x) / 2)
    if v is None:
        return None
    if y < 0:
        v = -v
    w = ComplexRational(u, v)
    if w * w == z:
        return w
    return None
