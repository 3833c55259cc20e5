import random
from fractions import Fraction

import pytest

from upblab.blocks import (
    BipartitePair,
    BlockSpec,
    member_keys,
    opb_from_blocks,
    opb_to_blocks,
)
from upblab.errors import InvalidSpecError, NotAnOPBError
from upblab.linalg import as_vector, inner
from upblab.qubits import LocalState, local_equal_up_to_phase, local_perp
from upblab.scalars import ComplexRational

from oracles import gram_schmidt, is_bipartite_opb_reference, rand_local, rand_vector


def _basis_vec(n, k):
    return as_vector([1 if i == k else 0 for i in range(n)])


def test_single_block_standard():
    spec = BlockSpec(
        side2_dim=2,
        qubit_bases=(LocalState.ket(0),),
        block_dims=(2,),
        x_bases=((_basis_vec(2, 0), _basis_vec(2, 1)),),
        y_bases=((_basis_vec(2, 0), _basis_vec(2, 1)),),
    )
    opb = opb_from_blocks(spec)
    assert len(opb) == 4
    keys = member_keys(opb)
    expected = []
    for q, t in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        expected.append(
            BipartitePair(qubit=LocalState.ket(q), tail=_basis_vec(2, t))
        )
    assert keys == member_keys(expected)


def test_two_singleton_blocks_two_bases():
    spec = BlockSpec(
        side2_dim=2,
        qubit_bases=(LocalState.ket(0), LocalState.pair(1, 1)),
        block_dims=(1, 1),
        x_bases=((_basis_vec(2, 0),), (_basis_vec(2, 1),)),
        y_bases=((_basis_vec(2, 0),), (_basis_vec(2, 1),)),
    )
    opb = opb_from_blocks(spec)
    assert len(opb) == 4
    # the spec's constructor has checked that the members are an OPB;
    # decomposition sees two singleton blocks
    rec = opb_to_blocks(opb)
    assert rec.m == 2
    assert sorted(rec.block_dims) == [1, 1]


def test_one_block_with_two_different_bases():
    # side-2 dimension 4, x-basis standard, y-basis a different orthogonal one
    xs = tuple(_basis_vec(4, k) for k in range(4))
    raw = [
        [1, 1, 0, 0],
        [1, -1, 0, 0],
        [0, 0, 1, 2],
        [0, 0, 2, -1],
    ]
    ys = tuple(tuple(ComplexRational(x) for x in row) for row in raw)
    spec = BlockSpec(
        side2_dim=4,
        qubit_bases=(LocalState.pair(1, 2),),
        block_dims=(4,),
        x_bases=(xs,),
        y_bases=(ys,),
    )
    opb = opb_from_blocks(spec)
    assert len(opb) == 8
    # exact Gram check: all distinct pairs orthogonal as bipartite vectors
    flats = [m.flatten() for m in opb]
    for i in range(8):
        for j in range(i + 1, 8):
            assert inner(flats[i], flats[j]).is_zero()
    rec = opb_to_blocks(opb)
    assert rec.m == 1 and rec.block_dims == (4,)


def test_standard_two_qubit_opb_decomposes_to_one_block():
    members = [
        BipartitePair(qubit=LocalState.ket(q), tail=_basis_vec(2, t))
        for q in (0, 1)
        for t in (0, 1)
    ]
    rec = opb_to_blocks(members)
    assert rec.m == 1
    assert rec.block_dims == (2,)


def test_not_an_opb_rejected():
    members = [
        BipartitePair(qubit=LocalState.ket(0), tail=_basis_vec(2, 0)),
        BipartitePair(qubit=LocalState.ket(1), tail=_basis_vec(2, 0)),
    ]
    with pytest.raises(NotAnOPBError):
        opb_to_blocks(members)  # only 2 of 4 members


def test_zero_tail_refused():
    members = [
        BipartitePair(qubit=LocalState.ket(0), tail=_basis_vec(2, 0)),
        BipartitePair(qubit=LocalState.ket(0), tail=as_vector([0, 0])),
        BipartitePair(qubit=LocalState.ket(1), tail=_basis_vec(2, 0)),
        BipartitePair(qubit=LocalState.ket(1), tail=_basis_vec(2, 1)),
    ]
    with pytest.raises(NotAnOPBError, match="x-basis of block 0 contains zero"):
        opb_to_blocks(members)


def test_member_keys_refuses_a_zero_tail():
    with pytest.raises(ValueError, match="zero tail"):
        member_keys([BipartitePair(LocalState.ket(0), as_vector([0, 0]))])


# |0,e0>, |1,e0>, |+,(1,1)>, |-,(1,1)>: each qubit class pairs with its
# perpendicular class, but the blocks span(e0) and span((1,1)) overlap
_OVERLAPPING_BLOCKS = dict(
    side2_dim=2,
    qubit_bases=(LocalState.ket(0), LocalState.pair(1, 1)),
    block_dims=(1, 1),
    x_bases=((_basis_vec(2, 0),), (as_vector([1, 1]),)),
    y_bases=((_basis_vec(2, 0),), (as_vector([1, 1]),)),
)


def test_overlapping_blocks_refused():
    with pytest.raises(InvalidSpecError, match="blocks 0 and 1 are not orthogonal"):
        BlockSpec(**_OVERLAPPING_BLOCKS)
    members = [
        BipartitePair(qubit=LocalState.ket(0), tail=_basis_vec(2, 0)),
        BipartitePair(qubit=LocalState.ket(1), tail=_basis_vec(2, 0)),
        BipartitePair(qubit=LocalState.pair(1, 1), tail=as_vector([1, 1])),
        BipartitePair(qubit=LocalState.pair(1, -1), tail=as_vector([1, 1])),
    ]
    with pytest.raises(NotAnOPBError, match="blocks 0 and 1 are not orthogonal"):
        opb_to_blocks(members)


def test_generic_angle_opb_round_trips(tmp_path):
    # the angles 1/3 and 5/6 have no exact coordinates; their phase keys
    # are all that blocks compares
    from fractions import Fraction

    from upblab.catalog import load, save

    spec = BlockSpec(
        side2_dim=3,
        qubit_bases=(LocalState.angle(Fraction(1, 3)), LocalState.ket(0)),
        block_dims=(1, 2),
        x_bases=((_basis_vec(3, 0),), (_basis_vec(3, 1), _basis_vec(3, 2))),
        y_bases=((_basis_vec(3, 0),), (as_vector([0, 1, 1]), as_vector([0, 1, -1]))),
    )
    opb = opb_from_blocks(spec)
    assert opb[1].qubit == LocalState.angle(Fraction(5, 6))
    assert opb_to_blocks(opb) == spec
    for obj in (spec, opb):
        save(tmp_path / "doc.json", obj)
        assert load(tmp_path / "doc.json") == obj
    assert opb_to_blocks(load(tmp_path / "doc.json")) == spec


def test_one_rank_per_block_in_decomposition_none_in_generation(monkeypatch):
    from upblab import _kernels

    spec = random_block_spec(random.Random(3), 4, 3)
    calls = []
    original = _kernels.bareiss_rank

    def counted(rows, n, m):
        calls.append(n)
        return original(rows, n, m)

    monkeypatch.setattr(_kernels, "bareiss_rank", counted)
    opb = opb_from_blocks(spec)
    assert calls == []
    rec = opb_to_blocks(opb)
    assert len(calls) == rec.m == 3


# perpendicular pairs of locals; angle 1/4 is |+> up to phase
_CORPUS_BASES = (
    (LocalState.ket(0), LocalState.ket(1)),
    (LocalState.pair(1, 1), LocalState.angle(Fraction(3, 4))),
    (LocalState.angle(Fraction(1, 4)), LocalState.pair(1, -1)),
    (LocalState.pair(1, ComplexRational(0, 1)), LocalState.pair(1, ComplexRational(0, -1))),
    (LocalState.angle(Fraction(1, 3)), LocalState.angle(Fraction(5, 6))),
)


def _corpus_member_list(rng):
    """A random member list whose locals come from one or two qubit bases,
    or a random OPB with one member changed, dropped or duplicated."""
    if rng.random() < 0.5:
        n = rng.randint(1, 3)
        tails = [_basis_vec(n, k) for k in range(n)] + [as_vector([0] * n)]
        if n > 1:
            tails += [as_vector([1, s] + [0] * (n - 2)) for s in (1, -1)]
        bases = rng.sample(_CORPUS_BASES, rng.randint(1, 2))
        count = 2 * n + rng.choice([0, 0, 0, -1, 1])
        return [
            BipartitePair(qubit=rng.choice(rng.choice(bases)), tail=rng.choice(tails))
            for _ in range(count)
        ]
    n = rng.randint(1, 3)
    members = opb_from_blocks(random_block_spec(rng, n, rng.randint(1, n)))
    i = rng.randrange(len(members))
    edit = rng.randrange(5)
    if edit == 0:
        qubit = rng.choice(rng.choice(_CORPUS_BASES))
        members[i] = BipartitePair(qubit=qubit, tail=members[i].tail)
    elif edit == 1:
        members[i] = BipartitePair(qubit=members[i].qubit, tail=rng.choice(members).tail)
    elif edit == 2:
        del members[i]
    elif edit == 3:
        members.append(members[i])
    rng.shuffle(members)
    return members


def test_decomposition_accepts_exactly_the_opbs_of_the_reference():
    rng = random.Random(29)
    verdicts = []
    for _ in range(300):
        members = _corpus_member_list(rng)
        try:
            spec = opb_to_blocks(members)
        except NotAnOPBError:
            accepted = False
        else:
            accepted = True
            assert member_keys(opb_from_blocks(spec)) == member_keys(members)
        assert accepted == is_bipartite_opb_reference(members)
        verdicts.append(accepted)
    assert 30 < sum(verdicts) < 270


def test_invalid_spec_same_unordered_basis():
    v = LocalState.pair(1, 2)
    with pytest.raises(InvalidSpecError, match="same unordered basis"):
        BlockSpec(
            side2_dim=2,
            qubit_bases=(v, local_perp(v)),
            block_dims=(1, 1),
            x_bases=((_basis_vec(2, 0),), (_basis_vec(2, 1),)),
            y_bases=((_basis_vec(2, 0),), (_basis_vec(2, 1),)),
        )


def test_invalid_spec_mismatched_spans():
    with pytest.raises(InvalidSpecError, match="span different spaces"):
        BlockSpec(
            side2_dim=2,
            qubit_bases=(LocalState.ket(0), LocalState.pair(1, 1)),
            block_dims=(1, 1),
            x_bases=((_basis_vec(2, 0),), (_basis_vec(2, 1),)),
            y_bases=((_basis_vec(2, 1),), (_basis_vec(2, 0),)),
        )


def random_block_spec(rng: random.Random, side2_dim: int, m: int) -> BlockSpec:
    # random exact orthogonal decomposition of the side-2 space
    while True:
        vecs = [rand_vector(rng, side2_dim) for _ in range(side2_dim)]
        basis = gram_schmidt(vecs)
        if len(basis) == side2_dim:
            break
    dims = []
    remaining = side2_dim
    for j in range(m):
        left = m - j - 1
        hi = remaining - left
        k = rng.randint(1, hi) if j < m - 1 else remaining
        dims.append(k)
        remaining -= k
    x_bases = []
    y_bases = []
    pos = 0
    for k in dims:
        block = basis[pos : pos + k]
        pos += k
        x_bases.append(tuple(block))
        # a second orthogonal basis of the same span
        while True:
            coeffs = [
                [ComplexRational(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(k)]
                for _ in range(k)
            ]
            mix = [
                tuple(
                    sum((coeffs[r][t] * block[t][i] for t in range(k)), ComplexRational(0))
                    for i in range(side2_dim)
                )
                for r in range(k)
            ]
            y = gram_schmidt(mix)
            if len(y) == k:
                break
        y_bases.append(tuple(y))
    qubit_bases = []
    while len(qubit_bases) < m:
        cand = rand_local(rng)
        ok = all(
            not local_equal_up_to_phase(cand, v)
            and not local_equal_up_to_phase(cand, local_perp(v))
            for v in qubit_bases
        )
        if ok:
            qubit_bases.append(cand)
    return BlockSpec(
        side2_dim=side2_dim,
        qubit_bases=tuple(qubit_bases),
        block_dims=tuple(dims),
        x_bases=tuple(x_bases),
        y_bases=tuple(y_bases),
    )


def test_roundtrip_on_random_specs():
    rng = random.Random(42)
    for _ in range(12):
        side2 = rng.randint(1, 4)
        m = rng.randint(1, min(3, side2))
        spec = random_block_spec(rng, side2, m)
        opb = opb_from_blocks(spec)
        rec = opb_to_blocks(opb)
        assert rec.m == spec.m
        assert sorted(rec.block_dims) == sorted(spec.block_dims)
        assert member_keys(opb_from_blocks(rec)) == member_keys(opb)


def test_quarter_angle_basis_round_trips(tmp_path):
    # the angle 1/4 has the exact coordinates (1, 1), so it is a qubit basis
    from fractions import Fraction

    from upblab.catalog import load, save

    spec = BlockSpec(
        side2_dim=2,
        qubit_bases=(LocalState.angle(Fraction(1, 4)), LocalState.ket(0)),
        block_dims=(1, 1),
        x_bases=((_basis_vec(2, 0),), (_basis_vec(2, 1),)),
        y_bases=((_basis_vec(2, 0),), (_basis_vec(2, 1),)),
    )
    opb = opb_from_blocks(spec)
    assert opb[1].qubit == LocalState.angle(Fraction(3, 4))
    assert opb_to_blocks(opb) == spec
    for obj in (spec, opb):
        save(tmp_path / "doc.json", obj)
        assert load(tmp_path / "doc.json") == obj
    assert opb_to_blocks(load(tmp_path / "doc.json")) == spec
