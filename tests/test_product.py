import random
import sys
from fractions import Fraction

import pytest

from upblab.catalog import fixture, fixture_names, size_status
from upblab.errors import (
    ApproximateComparisonError,
    DuplicateMemberError,
    NotOrthogonalError,
)
from upblab.linalg import ExactMatrix, inner, matrix_rank
from upblab.product import (
    ProductSet,
    ProductVector,
    build_product_set,
    covering_search,
    extend_or_certify,
    is_proper,
    shifts_upb,
    standard_opb,
    tensor_upb_opb,
    verify_ops,
)
from upblab.qubits import KET0, LocalState, local_equal_up_to_phase, local_perp, orthogonal_exact
from upblab.search import Infeasible, label_template, sample_template

from oracles import (
    covering_search_tree,
    oracle_extendible,
    rand_local,
    rand_scalar,
    random_exact_ops,
    random_feasible_ops,
    rotated_set,
    search_outcome,
    witnesses_pairwise,
)

K0, K1 = LocalState.ket(0), LocalState.ket(1)
PLUS, MINUS = LocalState.pair(1, 1), LocalState.pair(1, -1)


def test_shifts_witness_graph_matches_hand_computation():
    s = shifts_upb()
    assert s.structure.witnesses() == {
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
    assert all(ws for ws in s.structure.witnesses().values())


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


def _agrees_with_the_tree(s):
    memoized = search_outcome(covering_search, s.structure, s.parties)
    assert memoized == search_outcome(covering_search_tree, s.structure, s.parties)
    return memoized


def test_chain_certificates_count_the_whole_tree():
    # each failed state is expanded once, but branches still counts the
    # nodes of the whole tree, which grows about 9x per qubit
    for extra, branches in [(3, 1957), (4, 13700), (5, 109601), (6, 986410)]:
        s = tensor_upb_opb(shifts_upb(), extra)
        d = extend_or_certify(s)
        assert not d.extendible and d.branches_explored == branches
        # the tree oracle is too slow past 8 qubits
        if s.parties <= 8:
            assert _agrees_with_the_tree(s) == (None, None, branches)


def test_covering_search_matches_the_tree_oracle_on_fixtures():
    sets = [fixture(name) for name in fixture_names()]
    sets = [s for s in sets if isinstance(s, ProductSet)]
    assert len(sets) >= 10
    for s in sets:
        _agrees_with_the_tree(s)


def test_covering_search_matches_the_tree_oracle_on_seeded_templates():
    rng = random.Random(5)
    unextendible = 0
    for parties in range(1, 7):
        feasible = 0
        for k in range(600):
            size = rng.randint(1, min(14, 2 ** parties))
            structure = label_template(sample_template(parties, size, rng, balanced=k % 2 == 1))
            if isinstance(structure, Infeasible):
                continue
            feasible += 1
            outcome = search_outcome(covering_search, structure, parties)
            assert outcome == search_outcome(covering_search_tree, structure, parties)
            unextendible += outcome[0] is None
        assert feasible >= 200
    assert unextendible >= 300


def test_deep_search_is_not_bounded_by_the_recursion_limit():
    # member i is |1> at party i and |0> elsewhere: |0...0> covers member i
    # at party i only, so the one path to a cover is n + 1 nodes deep
    n = sys.getrecursionlimit() + 100
    members = [
        ProductVector([K1 if p == i else K0 for p in range(n)]) for i in range(n)
    ]
    d = extend_or_certify(build_product_set(members))
    assert d.extendible and d.branches_explored == n + 1
    assert all(local_equal_up_to_phase(w, KET0) for w in d.witness.locals)


def test_extend_requires_verified():
    # a set built directly is verified on construction, so extend_or_certify
    # sees a checked structure; a non-orthogonal list never reaches it
    s = ProductSet(parties=3, members=shifts_upb().members)
    assert s.structure == shifts_upb().structure
    assert not extend_or_certify(s).extendible
    with pytest.raises(NotOrthogonalError):
        extend_or_certify(ProductSet(2, (ProductVector([K0, K1]), ProductVector([K0, PLUS]))))


def test_product_set_verifies_at_construction():
    with pytest.raises(NotOrthogonalError):
        ProductSet(2, (ProductVector([K0, K1]), ProductVector([K0, PLUS])))
    with pytest.raises(ValueError, match="2 parties"):
        ProductSet(2, shifts_upb().members)


def test_product_set_takes_no_structure():
    # a structure is never handed in: the one of other members made an
    # extendible set read as unextendible
    shifts = shifts_upb()
    with pytest.raises(TypeError):
        ProductSet(3, shifts.members[:3], structure=shifts.structure)
    assert extend_or_certify(build_product_set(shifts.members[:3])).extendible


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
    assert matrix_rank(ExactMatrix.from_rows([m.flatten() for m in s3.members])) == 8
    assert not extend_or_certify(s3).extendible
    assert not is_proper(s3)


def test_shifts_is_proper():
    assert is_proper(shifts_upb())


def test_is_proper_requires_verified():
    # is_proper reads the member count, which counts independent vectors
    # only because construction rejected duplicates and non-orthogonal pairs
    assert is_proper(ProductSet(parties=3, members=shifts_upb().members))
    dup = standard_opb(2).members[:1] * 2
    with pytest.raises(DuplicateMemberError):
        is_proper(ProductSet(2, dup))


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
    # no extra qubits is no exception
    with pytest.raises(ValueError, match="unextendible"):
        tensor_upb_opb(reduced, 0)


def test_free_party_of_an_angle_set_gets_ket0():
    # party 0 covers the one member, so party 1, of angle locals, stays free
    s = build_product_set([ProductVector([K0, LocalState.angle(Fraction(1, 8))])])
    assert extend_or_certify(s).witness.locals == (K1, K0)


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


def test_mixed_kind_comparison_is_decided():
    # a pair local and a generic angle are never orthogonal, so the pair of
    # members is witnessed at party 0 only, and at no party without it
    a = ProductVector([K0, LocalState.angle(Fraction(1, 5))])
    b = ProductVector([K1, LocalState.pair(1, 1)])
    assert verify_ops([a, b]).witnesses() == {(0, 1): frozenset({0})}
    with pytest.raises(NotOrthogonalError):
        verify_ops([a, ProductVector([K0, LocalState.pair(1, 1)])])
    # convertible angles are fine in mixed company
    c = ProductVector([K0, LocalState.angle(0)])
    d = ProductVector([K1, LocalState.pair(1, 1)])
    structure = verify_ops([c, d])
    assert structure.witnesses() == {(0, 1): frozenset({0})}


def test_cleared_flatten_is_kept_and_immutable():
    from upblab.linalg import cleared, kron_vec

    v = ProductVector([LocalState.pair(1, 2), LocalState.pair(3, -1), PLUS])
    re, im = v.cleared_flatten()
    assert v.cleared_flatten() is v.cleared_flatten()
    assert (re, im) == ProductVector(v.locals).cleared_flatten()
    # kept as tuples, so a caller cannot change what later callers read
    assert isinstance(re, tuple) and isinstance(im, tuple)
    with pytest.raises(TypeError):
        re[0] = 0
    # a positive integer multiple of flatten(), local by local
    want = (1,)
    for l in v.locals:
        want = kron_vec(want, cleared(l.vec2())[0])
    assert re == want and not any(im)


def test_cleared_flatten_of_quarter_angles_is_a_positive_multiple():
    # (cos pi q, sin pi q) is (1, 1) / sqrt 2 at q = 1/4 and (-1, 1) / sqrt 2
    # at q = 3/4; a generic angle still has no coordinates
    v = ProductVector([LocalState.angle(Fraction(1, 4)), LocalState.angle(Fraction(3, 4))])
    assert v.cleared_flatten() == ((-1, 1, -1, 1), (0, 0, 0, 0))
    with pytest.raises(ApproximateComparisonError):
        ProductVector([K0, LocalState.angle(Fraction(1, 5))]).cleared_flatten()


def test_kept_coordinates_leave_equality_and_hashing_alone():
    a = ProductVector([K0, LocalState.pair(1, 2)])
    b = ProductVector([K0, LocalState.pair(1, 2)])
    a.cleared_flatten()
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def _verdict(verify, members):
    """What a verifier makes of a candidate: its witness map, or the type
    and pair of the error it raises."""
    try:
        return verify(members)
    except (DuplicateMemberError, NotOrthogonalError) as exc:
        return type(exc), getattr(exc, "pair", None)


def _by_structure(members):
    return verify_ops(members).witnesses()


def _verifier_corpus():
    """Verified sets of every kind the library builds besides the
    acceptance suite's 500 realized templates, which that suite checks
    against the same oracle: every product-set fixture and kernel set, the
    hits of the pinned scans, and random sets of rational pair and
    convertible angle locals, rotated or not."""
    from upblab.catalog import fixture, fixture_names
    from upblab.search import scan

    from test_search import _PINNED_SCANS

    for name in fixture_names():
        obj = fixture(name)
        s = obj if isinstance(obj, ProductSet) else obj.kernel_product_set
        if s is not None:
            yield s
    for args, (_, _, hits), _ in _PINNED_SCANS:
        if hits:
            yield from scan(*args).upbs_found
    rng = random.Random(19)
    for _ in range(60):
        yield random_exact_ops(rng, rng.randint(1, 5))
    for extra in (0, 1, 2):
        yield rotated_set(rng, extra)


def test_structure_witnesses_agree_with_the_pairwise_oracle():
    kinds = set()
    for s in _verifier_corpus():
        assert s.structure.witnesses() == witnesses_pairwise(s.members)
        assert verify_ops(s.members) == s.structure
        # structures hold only tuples, so verified sets hash by value
        assert hash(build_product_set(s.members)) == hash(s)
        kinds.update(l.kind for m in s.members for l in m.locals)
    assert kinds == {"pair", "angle"}


def _mutants(rng, members):
    """(edit, candidate) pairs, each candidate an edit away from an OPS: a
    member repeated up to phase, a local replaced by a random one, or a
    generic angle placed at one party of pair locals, alone or with a pair
    left unwitnessed before or after the ones it leaves unwitnessed."""
    members = list(members)
    size, n = len(members), members[0].parties
    i, p = rng.randrange(size), rng.randrange(n)

    def scaled(l):
        if l.is_angle():
            return l
        c = rand_scalar(rng)
        while c.is_zero():
            c = rand_scalar(rng)
        return LocalState.pair(l.a * c, l.b * c)

    def replaced(m, p, l):
        return ProductVector(m.locals[:p] + (l,) + m.locals[p + 1 :])

    copy = ProductVector([scaled(l) for l in members[i].locals])
    yield "duplicate", members[: i + 1] + [copy] + members[i + 1 :]
    yield "duplicate", members[:i] + [copy] + members[i:]
    broken = members[:i] + [replaced(members[i], p, rand_local(rng))] + members[i + 1 :]
    yield "replaced", broken
    if all(m.locals[p].kind == "pair" for m in members):
        generic = LocalState.angle(Fraction(1, 5))
        for edit, base in (("mixed", members), ("mixed and replaced", broken)):
            for k in (0, rng.randrange(size), size - 1):
                yield edit, base[:k] + [replaced(base[k], p, generic)] + base[k + 1 :]


def test_verifier_errors_agree_with_the_pairwise_oracle():
    rng = random.Random(23)
    bases = [shifts_upb(), tensor_upb_opb(shifts_upb(), 1), standard_opb(3)]
    bases += [rotated_set(rng, extra) for extra in (0, 1)]
    bases += [random_exact_ops(rng, rng.randint(2, 4)) for _ in range(30)]
    bases = [s for s in bases if len(s.members) > 1]
    seen = {}
    for s in bases:
        for _ in range(8):
            for edit, candidate in _mutants(rng, s.members):
                expected = _verdict(witnesses_pairwise, candidate)
                assert _verdict(_by_structure, candidate) == expected
                name = expected[0].__name__ if isinstance(expected, tuple) else "witnesses"
                seen[(edit, name)] = seen.get((edit, name), 0) + 1
    # each edit meets the error it should; a generic angle among pairs is
    # decided, so it leaves an OPS or an unwitnessed pair
    assert min(seen.get(key, 0) for key in [
        ("duplicate", "DuplicateMemberError"),
        ("replaced", "NotOrthogonalError"),
        ("mixed", "NotOrthogonalError"),
        ("mixed", "witnesses"),
        ("mixed and replaced", "NotOrthogonalError"),
    ]) >= 10, seen


def test_first_unwitnessed_pair_is_reported_among_mixed_locals():
    # members 0 and 1 are not orthogonal; member 2 is witnessed against
    # both at party 0, whatever its generic angle at party 1
    generic = LocalState.angle(Fraction(1, 5))
    members = [ProductVector([K0, K0]), ProductVector([K0, PLUS]), ProductVector([K1, generic])]
    with pytest.raises(NotOrthogonalError) as exc:
        verify_ops(members)
    assert exc.value.pair == (0, 1)
    with pytest.raises(NotOrthogonalError) as exc:
        verify_ops([members[2], members[0], members[1]])
    assert exc.value.pair == (1, 2)


def test_verify_ops_computes_one_phase_key_per_local_object(monkeypatch):
    # tensor_upb_opb shares the shifts UPB's four local objects across the
    # copies of a member and makes a fresh object for every extra local
    members = tensor_upb_opb(shifts_upb(), 3).members
    objects = len({id(l) for m in members for l in m.locals})
    # one perpendicular lookup per phase class and party
    perps = sum(
        len({frozenset([l.phase_key(), local_perp(l).phase_key()]) for l in column})
        for column in zip(*(m.locals for m in members))
    )
    assert (objects, perps) == (4 + 32 * 3, 3 * 2 + 3)
    calls = []
    original = LocalState.phase_key

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LocalState, "phase_key", counted)
    structure = verify_ops(members)
    monkeypatch.undo()
    assert len(calls) == objects + perps
    assert structure.witnesses() == witnesses_pairwise(members)
