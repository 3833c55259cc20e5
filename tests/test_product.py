import random

import pytest

from upblab.catalog import size_status
from upblab.errors import (
    DuplicateMemberError,
    NotOrthogonalError,
    NotVerifiedError,
)
from upblab.linalg import inner, matrix_rank
from upblab.product import (
    ProductSet,
    ProductVector,
    build_product_set,
    coordinate_matrix,
    extend_or_certify,
    is_proper,
    shifts_upb,
    standard_opb,
    tensor_upb_opb,
    verify_ops,
)
from upblab.qubits import LocalState, local_equal_up_to_phase, orthogonal_exact

from oracles import oracle_extendible, random_feasible_ops

K0, K1 = LocalState.ket(0), LocalState.ket(1)
PLUS, MINUS = LocalState.pair(1, 1), LocalState.pair(1, -1)


def test_shifts_witness_graph_matches_hand_computation():
    s = shifts_upb()
    assert dict(s.witness_graph.witnesses) == {
        (0, 1): frozenset({0}),
        (0, 2): frozenset({1}),
        (0, 3): frozenset({2}),
        (1, 2): frozenset({2}),
        (1, 3): frozenset({1}),
        (2, 3): frozenset({0}),
    }


def test_standard_opb_all_pairs_witnessed():
    s = standard_opb(2)
    assert len(s.members) == 4
    assert all(ws for ws in s.witness_graph.witnesses.values())


def test_verify_rejects_non_orthogonal():
    # first offending pair in scan order: members 0 and 2 share party 0 and
    # <0|+> != 0 at party 1
    with pytest.raises(NotOrthogonalError) as exc:
        verify_ops(
            [
                ProductVector([K0, K0]),
                ProductVector([K0, K1]),
                ProductVector([K0, PLUS]),
            ]
        )
    assert exc.value.pair == (0, 2)
    with pytest.raises(NotOrthogonalError) as exc2:
        verify_ops([ProductVector([K0, K1]), ProductVector([K0, PLUS])])
    assert exc2.value.pair == (0, 1)


def test_verify_rejects_duplicates():
    with pytest.raises(DuplicateMemberError):
        verify_ops(
            [
                ProductVector([K0, K1]),
                ProductVector([LocalState.pair(3, 0), LocalState.pair(0, -2)]),
            ]
        )


def test_shifts_unextendible():
    d = extend_or_certify(shifts_upb())
    assert not d.extendible
    assert d.branches_explored > 0


def test_covering_search_branch_counts_are_pinned():
    # branch order is part of every certificate that reports it
    assert extend_or_certify(shifts_upb()).branches_explored == 16
    base = tensor_upb_opb(shifts_upb(), 2)
    assert extend_or_certify(base).branches_explored == 326
    # the symmetric sets above count the same under any member order; these
    # extendible subsets do not
    for drop, branches in [((0,), 314), ((5,), 64), ((3, 17, 30), 249)]:
        s = build_product_set([m for i, m in enumerate(base.members) if i not in drop])
        d = extend_or_certify(s)
        assert d.extendible and d.branches_explored == branches


def test_extend_requires_verified():
    s = ProductSet(parties=3, members=shifts_upb().members, verified=False)
    with pytest.raises(NotVerifiedError):
        extend_or_certify(s)


def test_removed_basis_vector_is_recovered():
    full = standard_opb(2)
    reduced = build_product_set(
        [m for m in full.members if m.phase_key() != ProductVector([K1, K1]).phase_key()]
    )
    d = extend_or_certify(reduced)
    assert d.extendible
    for a, b in zip(d.witness.locals, [K1, K1]):
        assert local_equal_up_to_phase(a, b)


def test_eleven_member_kernel_set_extends_to_zero_string():
    from upblab.catalog import fixture

    s = fixture("rank5_pptes_4q_kernel")
    assert len(s.members) == 11
    d = extend_or_certify(s)
    assert d.extendible
    # the found witness is orthogonal to every member at some party, exactly
    for m in s.members:
        assert any(
            orthogonal_exact(w, l) for w, l in zip(d.witness.locals, m.locals)
        )
    # |0,0,0,0> is itself a valid extension
    zero = ProductVector([K0] * 4)
    for m in s.members:
        assert inner(zero.flatten(), m.flatten()).is_zero()


def test_standard_opb_small():
    s1 = standard_opb(1)
    assert [m.phase_key() for m in s1.members] == [
        ProductVector([K0]).phase_key(),
        ProductVector([K1]).phase_key(),
    ]
    s3 = standard_opb(3)
    assert len(s3.members) == 8
    assert matrix_rank(coordinate_matrix(s3)) == 8
    assert not extend_or_certify(s3).extendible
    assert not is_proper(s3)


def test_shifts_is_proper():
    assert is_proper(shifts_upb())


def test_tensor_with_extra_qubits():
    s = shifts_upb()
    t1 = tensor_upb_opb(s, 1)
    assert t1.parties == 4 and len(t1.members) == 8
    assert not extend_or_certify(t1).extendible
    assert size_status(4, 8).status == "member"
    t2 = tensor_upb_opb(s, 2)
    assert t2.parties == 5 and len(t2.members) == 16
    assert not extend_or_certify(t2).extendible
    assert size_status(5, 16).status == "member"
    t0 = tensor_upb_opb(s, 0)
    assert t0 is s


def test_tensor_rejects_negative_extra():
    with pytest.raises(ValueError):
        tensor_upb_opb(shifts_upb(), -1)


def test_tensor_refuses_extendible_input():
    full = standard_opb(2)
    reduced = build_product_set(list(full.members)[:3])
    with pytest.raises(ValueError):
        tensor_upb_opb(reduced, 1)


def test_pigeonhole_small_sets_always_extendible():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        size = rng.randint(1, n)
        s = random_feasible_ops(rng, n, size)
        assert extend_or_certify(s).extendible


def test_covering_search_matches_oracle_small():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randint(2, 3)
        size = rng.randint(2, 6)
        if size > 2 ** n:
            continue
        s = random_feasible_ops(rng, n, size)
        assert extend_or_certify(s).extendible == oracle_extendible(s)


def test_witnesses_are_orthogonal_at_some_party():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.randint(2, 4)
        size = rng.randint(2, 6)
        if size > 2 ** n:
            continue
        s = random_feasible_ops(rng, n, size)
        d = extend_or_certify(s)
        if d.extendible:
            for m in s.members:
                assert any(
                    orthogonal_exact(w, l)
                    for w, l in zip(d.witness.locals, m.locals)
                )


def test_mixed_kind_comparison_fails_loudly():
    from fractions import Fraction

    from upblab.errors import ApproximateComparisonError

    # witness graphs record every witnessing party, so verification refuses
    # any pair with an undecidable party even when another party already
    # witnesses orthogonality exactly
    a = ProductVector([K0, LocalState.angle(Fraction(1, 5))])
    b = ProductVector([K1, LocalState.pair(1, 1)])
    with pytest.raises(ApproximateComparisonError):
        verify_ops([a, b])
    # convertible angles are fine in mixed company
    c = ProductVector([K0, LocalState.angle(0)])
    d = ProductVector([K1, LocalState.pair(1, 1)])
    graph = verify_ops([c, d])
    assert graph.parties_for(0, 1) == frozenset({0})
