"""Single-qubit pure states with exact orthogonality.

Two representations are supported:

* ``pair``  -- an unnormalized nonzero pair of complex rationals (a, b)
* ``angle`` -- a rational q in [0, 1) denoting the real unit vector
  (cos(pi q), sin(pi q)); orthogonality between angle states is the exact
  condition q_u - q_v = 1/2 (mod 1)

Equality is always judged up to a global phase; for a qubit this makes the
perpendicular state unique.

One decision covers every comparison: ``LocalState.phase_key`` is a
complete invariant, so two locals are equal up to phase exactly when their
keys are, and u is orthogonal to v exactly when u's key is that of
``local_perp(v)``.  It is complete across representations by Niven's
theorem: (cos pi q, sin pi q) is proportional to a pair over Q(i) only if
tan(pi q) is rational or infinite, which for rational q means q in
{0, 1/4, 1/2, 3/4} (the only roots of unity in Q(i) are +-1 and +-i).
Those four angles are the ones with exact coordinates: ``vec2`` gives the
positive multiples (1, 0), (1, 1), (0, 1) and (-1, 1) of them, and they
share those pairs' keys.  Every other angle has no exact coordinates and is
never equal up to phase nor orthogonal to a pair.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ApproximateComparisonError
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
        return self.kind == "pair" or self.q in _PAIR_ANGLES

    def vec2(self) -> tuple[ComplexRational, ComplexRational]:
        """Exact ambient coordinates: the pair itself, or a positive multiple
        of an angle state at 0, 1/4, 1/2 or 3/4; raises for every other
        angle."""
        if self.kind == "pair":
            return (self.a, self.b)
        if self.q in _PAIR_ANGLES:
            return _PAIR_ANGLES[self.q]
        raise ApproximateComparisonError(
            f"angle state q={self.q} has no exact coordinates"
        )

    def phase_key(self):
        """Complete canonical key: equal keys exactly when equal up to phase,
        whatever the representations.

        Pair states are normalized so the first nonzero coordinate is 1.
        The angles 0, 1/4, 1/2 and 3/4 share the pair keys of (1, 0),
        (1, 1), (0, 1) and (1, -1); every other angle keeps ``("angle", q)``,
        since no pair over Q(i) is proportional to it (Niven's theorem).
        """
        if not self.convertible():
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

# the angles whose states are positive multiples of a pair over Q(i)
_PAIR_ANGLES = {
    Fraction(0): (CQ1, CQ0),
    Fraction(1, 4): (CQ1, CQ1),
    Fraction(1, 2): (CQ0, CQ1),
    Fraction(3, 4): (-CQ1, CQ1),
}


def orthogonal_exact(u: LocalState, v: LocalState) -> bool:
    """True iff <u|v> = 0, decided exactly on the phase keys."""
    return u.phase_key() == local_perp(v).phase_key()


def local_perp(v: LocalState) -> LocalState:
    """The unique (up to phase) state orthogonal to v."""
    if v.kind == "angle":
        return LocalState.angle((v.q + Fraction(1, 2)) % 1)
    return LocalState.pair(-v.b.conjugate(), v.a.conjugate())


def local_equal_up_to_phase(u: LocalState, v: LocalState) -> bool:
    """True iff u = c v for some nonzero scalar c, decided exactly."""
    return u.phase_key() == v.phase_key()
