"""Single-qubit pure states with exact orthogonality.

Two representations are supported:

* ``pair``  -- an unnormalized nonzero pair of complex rationals (a, b)
* ``angle`` -- a rational q in [0, 1) denoting the real unit vector
  (cos(pi q), sin(pi q)); orthogonality between angle states is the exact
  condition q_u - q_v = 1/2 (mod 1)

Equality is always judged up to a global phase; for a qubit this makes the
perpendicular state unique.

The module offers exact decisions only: ``orthogonal_exact``,
``local_equal_up_to_phase``, ``local_perp`` and ``LocalState.phase_key``.
A generic angle (q not in {0, 1/2}) has no rational coordinates, so
comparing it with a pair state raises instead of falling back to floats.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ApproximateComparisonError, MixedRepresentationError
from .scalars import CQ0, CQ1, ComplexRational


class LocalState:
    """An unnormalized single-qubit pure state."""

    __slots__ = ("kind", "a", "b", "q")

    def __init__(self, kind, a=None, b=None, q=None):
        if kind == "pair":
            a = a if isinstance(a, ComplexRational) else ComplexRational(a)
            b = b if isinstance(b, ComplexRational) else ComplexRational(b)
            if a.is_zero() and b.is_zero():
                raise ValueError("local state must be nonzero")
        elif kind == "angle":
            q = Fraction(q) % 1
        else:
            raise ValueError(f"unknown kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):
        raise AttributeError("LocalState is immutable")

    @classmethod
    def pair(cls, a, b) -> "LocalState":
        return cls("pair", a=a, b=b)

    @classmethod
    def angle(cls, q) -> "LocalState":
        return cls("angle", q=q)

    @classmethod
    def ket(cls, bit: int) -> "LocalState":
        return cls.pair(1, 0) if bit == 0 else cls.pair(0, 1)

    def is_angle(self) -> bool:
        return self.kind == "angle"

    def convertible(self) -> bool:
        """True when an exact pair of coordinates exists."""
        return self.kind == "pair" or self.q in (Fraction(0), Fraction(1, 2))

    def vec2(self) -> tuple[ComplexRational, ComplexRational]:
        """Exact ambient coordinates; raises for generic angle states."""
        if self.kind == "pair":
            return (self.a, self.b)
        if self.q == 0:
            return (CQ1, CQ0)
        if self.q == Fraction(1, 2):
            return (CQ0, CQ1)
        raise ApproximateComparisonError(
            f"angle state q={self.q} has no exact coordinates"
        )

    def phase_key(self):
        """Canonical key: equal keys exactly when equal up to phase.

        Pair states are normalized so the first nonzero coordinate is 1.
        Angle states at q in {0, 1/2} share the pair keys.  Other angles
        keep angle keys, although some are phase-equal to a rational pair:
        1/4 and 3/4 are proportional to (1, 1) and (1, -1).  So keys are
        comparable only among locals of one representation at a party, and
        ``verify_ops`` refuses a party that mixes a pair with such an angle.
        """
        if self.kind == "angle" and not self.convertible():
            return ("angle", self.q)
        a, b = self.vec2()
        if not a.is_zero():
            return ("pair", (CQ1.t, (b / a).t))
        return ("pair", (CQ0.t, CQ1.t))

    def __eq__(self, other):
        if not isinstance(other, LocalState):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "pair":
            return self.a == other.a and self.b == other.b
        return self.q == other.q

    def __hash__(self):
        if self.kind == "pair":
            return hash(("pair", self.a, self.b))
        return hash(("angle", self.q))

    def __repr__(self):
        if self.kind == "pair":
            return f"LocalState.pair({self.a}, {self.b})"
        return f"LocalState.angle({self.q})"


KET0 = LocalState.ket(0)


def orthogonal_exact(u: LocalState, v: LocalState) -> bool:
    """Exact zero test of <u|v>; raises when only a float answer exists.

    With ua = (p1 + q1 i)/r1, ub = (p2 + q2 i)/r2, va = (p3 + q3 i)/r3 and
    vb = (p4 + q4 i)/r4, <u|v> = conj(ua) va + conj(ub) vb is zero iff
    r2 r4 conj(p1 + q1 i)(p3 + q3 i) + r1 r3 conj(p2 + q2 i)(p4 + q4 i) is,
    so the test runs on those integers alone.
    """
    if u.kind == "angle" and v.kind == "angle":
        return (v.q - u.q) % 1 == Fraction(1, 2)
    if (u.kind == "pair" or u.convertible()) and (v.kind == "pair" or v.convertible()):
        ua, ub = u.vec2()
        va, vb = v.vec2()
        p1, q1, r1 = ua.t
        p2, q2, r2 = ub.t
        p3, q3, r3 = va.t
        p4, q4, r4 = vb.t
        s = r2 * r4
        t = r1 * r3
        return (
            (p1 * p3 + q1 * q3) * s + (p2 * p4 + q2 * q4) * t == 0
            and (p1 * q3 - q1 * p3) * s + (p2 * q4 - q2 * p4) * t == 0
        )
    raise ApproximateComparisonError(
        "orthogonality of mixed representations is not exactly decidable"
    )


def local_perp(v: LocalState) -> LocalState:
    """The unique (up to phase) state orthogonal to v."""
    if v.kind == "angle":
        return LocalState.angle((v.q + Fraction(1, 2)) % 1)
    return LocalState.pair(-v.b.conjugate(), v.a.conjugate())


def local_equal_up_to_phase(u: LocalState, v: LocalState) -> bool:
    """True iff u = c v for some nonzero scalar c, decided exactly.

    Raises MixedRepresentationError when the representations differ and
    neither side converts exactly.
    """
    if u.kind == "angle" and v.kind == "angle":
        return u.q == v.q
    if (u.kind == "pair" or u.convertible()) and (v.kind == "pair" or v.convertible()):
        ua, ub = u.vec2()
        va, vb = v.vec2()
        return (ua * vb - ub * va).is_zero()
    raise MixedRepresentationError(
        "no exact phase comparison between these representations"
    )
