import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upblab.errors import ApproximateComparisonError
from upblab.qubits import (
    LocalState,
    local_equal_up_to_phase,
    local_perp,
    orthogonal_exact,
)
from upblab.scalars import ComplexRational

from oracles import angle_form_is_zero, equal_up_to_phase_reference

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@st.composite
def pair_states(draw):
    a = ComplexRational(draw(rationals), draw(rationals))
    b = ComplexRational(draw(rationals), draw(rationals))
    if a.is_zero() and b.is_zero():
        b = ComplexRational(1)
    return LocalState.pair(a, b)


angle_states = st.builds(
    LocalState.angle, st.fractions(min_value=0, max_value=1, max_denominator=64)
)


def test_inner_basis():
    assert orthogonal_exact(LocalState.ket(0), LocalState.ket(1))


def test_inner_angles():
    assert orthogonal_exact(LocalState.angle(0), LocalState.angle(Fraction(1, 2)))


def test_inner_plus_minus():
    assert orthogonal_exact(LocalState.pair(1, 1), LocalState.pair(1, -1))


def test_inner_mixed_convertible():
    # angle 1/2 converts exactly to |1>
    assert not orthogonal_exact(LocalState.ket(1), LocalState.angle(Fraction(1, 2)))
    assert orthogonal_exact(LocalState.ket(0), LocalState.angle(Fraction(1, 2)))


def test_inner_mixed_generic_flagged():
    # a generic angle has no exact coordinates, yet its comparison with a
    # pair is decided exactly: never orthogonal (Niven's theorem)
    generic = LocalState.angle(Fraction(1, 5))
    assert not orthogonal_exact(LocalState.ket(0), generic)
    assert not orthogonal_exact(generic, LocalState.ket(1))
    with pytest.raises(ApproximateComparisonError):
        generic.vec2()


def test_perp_examples():
    assert local_equal_up_to_phase(local_perp(LocalState.ket(0)), LocalState.ket(1))
    assert local_equal_up_to_phase(
        local_perp(LocalState.pair(1, 1)), LocalState.pair(1, -1)
    )
    q = Fraction(3, 8)
    assert local_perp(LocalState.angle(q)).q == (q + Fraction(1, 2)) % 1


def test_equal_up_to_phase_examples():
    assert local_equal_up_to_phase(LocalState.ket(0), LocalState.pair(2, 0))
    assert not local_equal_up_to_phase(LocalState.pair(1, 1), LocalState.pair(1, -1))
    assert local_equal_up_to_phase(
        LocalState.angle(Fraction(1, 3)), LocalState.angle(Fraction(1, 3))
    )


def test_mixed_comparison_is_decided():
    assert not local_equal_up_to_phase(LocalState.pair(1, 1), LocalState.angle(Fraction(1, 5)))
    assert local_equal_up_to_phase(LocalState.pair(2, 2), LocalState.angle(Fraction(1, 4)))
    assert local_equal_up_to_phase(LocalState.angle(Fraction(3, 4)), LocalState.pair(-1, 1))


@settings(max_examples=150, deadline=None)
@given(pair_states())
def test_perp_is_orthogonal_and_involutive(v):
    assert orthogonal_exact(local_perp(v), v)
    assert local_equal_up_to_phase(local_perp(local_perp(v)), v)


@settings(max_examples=150, deadline=None)
@given(angle_states)
def test_perp_angle(v):
    assert orthogonal_exact(local_perp(v), v)
    assert local_equal_up_to_phase(local_perp(local_perp(v)), v)


@settings(max_examples=100, deadline=None)
@given(pair_states(), pair_states())
def test_phase_equality_vs_independence_dichotomy(u, v):
    # exactly one of: equal up to phase, linearly independent
    eq = local_equal_up_to_phase(u, v)
    det = u.a * v.b - u.b * v.a
    assert eq == det.is_zero()
    if orthogonal_exact(u, v):
        assert not eq


@settings(max_examples=60, deadline=None)
@given(st.lists(pair_states(), min_size=1, max_size=5))
def test_phase_equality_is_equivalence(states):
    # reflexive, symmetric, transitive on one representation kind
    for x in states:
        assert local_equal_up_to_phase(x, x)
    for x in states:
        for y in states:
            assert local_equal_up_to_phase(x, y) == local_equal_up_to_phase(y, x)
            for z in states:
                if local_equal_up_to_phase(x, y) and local_equal_up_to_phase(y, z):
                    assert local_equal_up_to_phase(x, z)


def test_phase_key_groups_match_equality():
    xs = [
        LocalState.pair(1, 2),
        LocalState.pair(2, 4),
        LocalState.pair(0, 5),
        LocalState.ket(1),
        LocalState.angle(Fraction(1, 2)),
        LocalState.angle(0),
        LocalState.ket(0),
        LocalState.angle(Fraction(1, 4)),
        LocalState.pair(3, 3),
        LocalState.angle(Fraction(1, 5)),
    ]
    for u in xs:
        for v in xs:
            assert equal_up_to_phase_reference(u, v) == (u.phase_key() == v.phase_key())


def test_quarter_angle_and_diagonal_pair_share_a_phase_class():
    # the angle 1/4 is proportional to the pair (1, 1): one key, one label
    from upblab.errors import DuplicateMemberError
    from upblab.product import ProductVector, verify_ops

    quarter, diagonal = LocalState.angle(Fraction(1, 4)), LocalState.pair(1, 1)
    assert quarter.phase_key() == diagonal.phase_key()
    members = [ProductVector([quarter, LocalState.ket(0)]), ProductVector([diagonal, LocalState.ket(1)])]
    structure = verify_ops(members)
    assert structure.labels[0][0] == structure.labels[1][0]
    assert structure.witnesses() == {(0, 1): frozenset({1})}
    with pytest.raises(DuplicateMemberError):
        verify_ops([members[0], ProductVector([diagonal, LocalState.ket(0)])])


def test_orthogonal_exact_agrees_with_complex_rational_arithmetic():
    """The integer decision equals the zero test of conj(ua) va + conj(ub) vb
    computed with ComplexRational, on pair locals with zero coordinates and
    mixed denominators and on the convertible angles 0 and 1/2; a generic
    angle is never orthogonal to a pair."""
    rng = random.Random(31)

    def coordinate():
        if rng.random() < 0.3:
            return ComplexRational(0)
        return ComplexRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 9)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 9)),
        )

    def local():
        r = rng.random()
        if r < 0.1:
            return LocalState.angle(0)
        if r < 0.2:
            return LocalState.angle(Fraction(1, 2))
        a, b = coordinate(), coordinate()
        return LocalState.pair(a, b) if a or b else LocalState.pair(0, coordinate() or 1)

    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        u = local()
        if rng.random() < 0.4:
            # a scaled perpendicular, so that both outcomes are common
            x, y = local_perp(u).vec2()
            c = coordinate() or ComplexRational(1, 1)
            v = LocalState.pair(c * x, c * y)
        else:
            v = local()
        ua, ub = u.vec2()
        va, vb = v.vec2()
        expected = (ua.conjugate() * va + ub.conjugate() * vb).is_zero()
        assert orthogonal_exact(u, v) is expected
        assert orthogonal_exact(v, u) is expected
        outcomes[expected] += 1
    assert min(outcomes.values()) > 300
    for generic in (LocalState.angle(Fraction(1, 5)), LocalState.angle(Fraction(3, 8))):
        assert not orthogonal_exact(LocalState.pair(ComplexRational(1, 2), Fraction(1, 3)), generic)
        assert not orthogonal_exact(generic, LocalState.ket(1))


def test_angle_comparisons_agree_with_exact_cyclotomic_arithmetic():
    """Every angle k/m in [0, 1), m <= 24, against pairs over Q(i): the
    phase-key decisions equal sympy's exact zero tests of
    <angle|pair> = cos(pi q) a + sin(pi q) b and of the determinant
    cos(pi q) b - sin(pi q) a.  Only the angles 0, 1/4, 1/2 and 3/4 are
    ever equal up to phase or orthogonal to a pair (Niven's theorem)."""
    corpus = [
        LocalState.pair(1, 0),
        LocalState.pair(0, 1),
        LocalState.pair(1, 1),
        LocalState.pair(1, -1),
        LocalState.pair(ComplexRational(Fraction(1, 2), Fraction(-2, 3)), ComplexRational(Fraction(3, 5), 7)),
        LocalState.pair(ComplexRational(0, Fraction(5, 4)), ComplexRational(Fraction(5, 4), 0)),
        LocalState.pair(ComplexRational(Fraction(2, 9), 1), ComplexRational(Fraction(-2, 9), -1)),
    ]
    angles = sorted({Fraction(k, m) for m in range(1, 25) for k in range(m)})
    decided = set()
    for q in angles:
        u = LocalState.angle(q)
        for v in corpus:
            orth = angle_form_is_zero(q, v.a, v.b)
            eq = angle_form_is_zero(q, v.b, -v.a)
            assert orthogonal_exact(u, v) is orth and orthogonal_exact(v, u) is orth, (q, v)
            assert local_equal_up_to_phase(u, v) is eq and local_equal_up_to_phase(v, u) is eq, (q, v)
            assert (u.phase_key() == v.phase_key()) is eq, (q, v)
            if orth or eq:
                decided.add(q)
    assert decided == {Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}


def test_exact_coordinates_exist_for_pairs_and_four_angles():
    # vec2 of an angle is a positive multiple of (cos pi q, sin pi q)
    expected = {
        Fraction(0): (1, 0),
        Fraction(1, 4): (1, 1),
        Fraction(1, 2): (0, 1),
        Fraction(3, 4): (-1, 1),
    }
    assert LocalState.pair(Fraction(1, 3), ComplexRational(0, 2)).convertible()
    for q in [Fraction(k, 8) for k in range(8)] + [Fraction(1, 5), Fraction(1, 3)]:
        u = LocalState.angle(q)
        assert u.convertible() == (q in expected)
        if q in expected:
            assert u.vec2() == tuple(map(ComplexRational, expected[q]))
        else:
            with pytest.raises(ApproximateComparisonError):
                u.vec2()


def test_references_decide_every_angle_without_the_library_coordinates():
    from oracles import orthogonal_reference

    xs = [LocalState.angle(Fraction(k, 8)) for k in range(8)] + [
        LocalState.angle(Fraction(1, 5)),
        LocalState.pair(1, 0),
        LocalState.pair(0, 3),
        LocalState.pair(2, 2),
        LocalState.pair(-1, 1),
        LocalState.pair(1, -1),
        LocalState.pair(1, 2),
        LocalState.pair(ComplexRational(0, 1), 1),
    ]
    for u in xs:
        for v in xs:
            assert equal_up_to_phase_reference(u, v) == local_equal_up_to_phase(u, v)
            assert orthogonal_reference(u, v) == orthogonal_exact(u, v)
