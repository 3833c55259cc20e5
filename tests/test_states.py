import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from upblab import _kernels
from upblab.errors import (
    BadMaskError,
    NotHermitianError,
    NotInRangeError,
    NotOrthogonalError,
    SpansEverythingError,
)
from upblab.linalg import (
    ExactMatrix,
    inner,
    matrix_rank,
    outer,
    projector,
    psd_certificate,
    quadratic_form,
    verify_psd_certificate,
)
from upblab.product import (
    ProductSet,
    ProductVector,
    build_product_set,
    shifts_upb,
    standard_opb,
    tensor_upb_opb,
)
from upblab.qubits import LocalState, local_perp
from upblab.scalars import CQ0, ComplexRational
from upblab.states import (
    DensityOp,
    _transpose_split,
    bipartition_classes,
    birank,
    complement_projector,
    density_from_matrix,
    partial_trace,
    partial_transpose,
    party_offsets,
    ppt_report,
    pure_density,
    subtract_product,
)

from oracles import (
    complement_reference,
    flattening_entrywise,
    partial_trace_entrywise,
    partial_transpose_entrywise,
    rand_scalar,
    rand_vector,
    random_exact_ops,
    rotated_complement,
    rotated_set,
)

K0, K1 = LocalState.ket(0), LocalState.ket(1)


def bell_projector() -> DensityOp:
    # unnormalized |00> + |11>
    v = [ComplexRational(1), ComplexRational(0), ComplexRational(0), ComplexRational(1)]
    return density_from_matrix((2, 2), outer(v, v))


def test_complement_shifts():
    sigma = complement_projector(shifts_upb())
    assert sigma.trace_norm == 1
    assert sigma.rank() == 4
    for m in shifts_upb().members:
        assert all(x.is_zero() for x in sigma.matrix.apply(m.flatten()))


def test_complement_of_three_basis_vectors_is_pure():
    full = standard_opb(2)
    keep = [m for m in full.members if m.phase_key() != ProductVector([K1, K1]).phase_key()]
    c = complement_projector(build_product_set(keep))
    assert c.rank() == 1
    assert c.matrix == pure_density(ProductVector([K1, K1]).flatten(), (2, 2)).matrix
    # three diagonal entries are zero, as are all off-diagonal ones: each
    # is the shared zero, not a fresh one
    assert sum(e is CQ0 for e in c.matrix.data) == 15


def test_complement_full_basis_rejected():
    with pytest.raises(SpansEverythingError):
        complement_projector(standard_opb(2))


def test_complement_requires_verified(monkeypatch):
    # |00> and |0,+> are not orthogonal: the set cannot be built, and the
    # refusal comes before any member's coordinates are read
    monkeypatch.setattr(ProductVector, "cleared_flatten", None)
    with pytest.raises(NotOrthogonalError):
        ProductSet(2, (ProductVector.from_bits([0, 0]), ProductVector([K0, LocalState.pair(1, 1)])))


def test_kernel_set_outside_the_kernel_cannot_be_attached():
    d = complement_projector(shifts_upb())
    with pytest.raises(ValueError, match="member 0 is not annihilated"):
        replace(d, kernel_product_set=standard_opb(3))


def test_complement_eleven_member_kernel_matches_block_formula():
    from upblab.catalog import fixture

    rho = fixture("rank5_pptes_4q")
    sigma = complement_projector(shifts_upb())
    p0000 = projector(ProductVector([K0] * 4).flatten())
    p1 = ExactMatrix.from_rows([[0, 0], [0, 1]])
    direct = (p0000 + p1.kron(sigma.matrix.scale(ComplexRational(4)))).scale(
        ComplexRational(Fraction(1, 5))
    )
    assert rho.matrix == direct
    assert rho.trace_norm == 1


def test_partial_transpose_product_state_stays_psd():
    a = rand_vector(random.Random(3), 2)
    b = rand_vector(random.Random(4), 2)
    d = density_from_matrix((2, 2), outer(a, a).kron(outer(b, b)))
    for mask in [{0}, {1}, {0, 1}]:
        pt = partial_transpose(d, mask)
        cert = psd_certificate(pt.matrix)
        assert cert.is_psd
        assert matrix_rank(pt.matrix) == 1
    # transposing one factor conjugates it
    ac = [x.conjugate() for x in a]
    assert partial_transpose(d, {0}).matrix == outer(ac, ac).kron(outer(b, b))


def test_partial_transpose_bell_refuted():
    d = bell_projector()
    pt = partial_transpose(d, {0})
    cert = psd_certificate(pt.matrix)
    assert not cert.is_psd
    lam = np.linalg.eigvalsh(pt.matrix.to_numpy())
    assert abs(lam.min() + 1.0) < 1e-12


def test_partial_transpose_shifts_complement_psd_everywhere():
    sigma = complement_projector(shifts_upb())
    for p in range(3):
        assert psd_certificate(partial_transpose(sigma, {p}).matrix).is_psd


def test_partial_transpose_involution():
    rng = random.Random(6)
    m = sum(
        (outer(rand_vector(rng, 8), rand_vector(rng, 8)) for _ in range(2)),
        ExactMatrix.zeros(8, 8),
    )
    h = m + m.dagger()
    d = density_from_matrix((2, 2, 2), h)
    for mask in [{0}, {2}, {0, 1}, {1, 2}]:
        assert partial_transpose(partial_transpose(d, mask), mask).matrix == d.matrix


def test_partial_trace_pure_product():
    a = rand_vector(random.Random(9), 2)
    b = rand_vector(random.Random(10), 2)
    c = rand_vector(random.Random(11), 2)
    full = outer(a, a).kron(outer(b, b)).kron(outer(c, c))
    d = density_from_matrix((2, 2, 2), full)
    kept = partial_trace(d, {0, 2})
    norm_b = inner(b, b)
    assert kept.matrix == outer(a, a).kron(outer(c, c)).scale(norm_b)
    assert kept.matrix.trace() == d.matrix.trace()


def test_partial_trace_shifts_complement_reduced_ranks():
    sigma = complement_projector(shifts_upb())
    for p in range(3):
        assert partial_trace(sigma, {p}).rank() == 2


def test_partial_trace_rank5_state():
    from upblab.catalog import fixture

    rho = fixture("rank5_pptes_4q")
    assert partial_trace(rho, {0}).rank() == 2


def test_partial_trace_bad_mask():
    d = bell_projector()
    with pytest.raises(BadMaskError):
        partial_trace(d, set())
    with pytest.raises(BadMaskError):
        partial_trace(d, {5})


def test_bipartition_classes_counts():
    assert len(bipartition_classes(3)) == 3
    assert len(bipartition_classes(4)) == 7
    assert len(bipartition_classes(5)) == 15


def test_ppt_report_needs_a_cut():
    # a party of dimension 1 leaves a cut that splits off nothing
    for dims in [(4,), (), (1, 4), (4, 1), (2, 1, 2)]:
        d = density_from_matrix(dims, ExactMatrix.identity(prod(dims)))
        with pytest.raises(BadMaskError):
            ppt_report(d)
        with pytest.raises(BadMaskError):
            birank(d)


def test_ppt_report_shifts_complement():
    rep = ppt_report(complement_projector(shifts_upb()))
    assert len(rep.certificates) == 3
    assert rep.is_ppt


def test_ppt_report_bell():
    rep = ppt_report(bell_projector())
    assert len(rep.certificates) == 1
    assert not rep.is_ppt


def test_ppt_complementary_masks_agree():
    from upblab.catalog import fixture

    rho = fixture("rank5_pptes_4q")
    rep = ppt_report(rho)
    n = rho.parties
    for mask in rep.classes():
        comp = frozenset(range(n)) - mask
        direct = psd_certificate(partial_transpose(rho, comp).matrix)
        assert direct.verdict == rep.certificates[mask].verdict


def test_birank_examples():
    a = rand_vector(random.Random(1), 2)
    b = rand_vector(random.Random(2), 2)
    d = density_from_matrix((2, 2), outer(a, a).kron(outer(b, b)))
    r = birank(d)
    assert (r.rank, r.pt_rank) == (1, 1)
    rb = birank(bell_projector())
    assert (rb.rank, rb.pt_rank) == (1, 4)


def test_subtract_product_pure_projector():
    v = ProductVector([K0, K1])  # unit norm
    d = density_from_matrix((2, 2), projector(v.flatten()))
    out, weight = subtract_product(d, v)
    assert weight == 1
    assert all(x.is_zero() for x in out.matrix.data)
    # unnormalized vectors scale the weight by 1/<v|v>
    w = ProductVector([LocalState.pair(1, 2), LocalState.pair(3, -1)])
    dw = density_from_matrix((2, 2), projector(w.flatten()))
    out2, weight2 = subtract_product(dw, w)
    assert weight2 == Fraction(1, 1) / inner(w.flatten(), w.flatten()).re
    assert all(x.is_zero() for x in out2.matrix.data)


def test_subtract_zero_vector_rejected():
    d = bell_projector()
    with pytest.raises(ValueError):
        subtract_product(d, [0, 0, 0, 0])


def test_subtract_out_of_range_rejected():
    v = ProductVector([K0, K0])
    d = density_from_matrix((2, 2), projector(ProductVector([K1, K1]).flatten()))
    with pytest.raises(NotInRangeError):
        subtract_product(d, v)


def test_subtract_from_unnormalized_block_state():
    sigma = complement_projector(shifts_upb())
    p0000 = projector(ProductVector([K0] * 4).flatten())
    p1 = ExactMatrix.from_rows([[0, 0], [0, 1]])
    rho = density_from_matrix((2, 2, 2, 2), p0000 + p1.kron(sigma.matrix))
    out, weight = subtract_product(rho, ProductVector([K0] * 4))
    assert weight == 1
    assert out.matrix == p1.kron(sigma.matrix)
    assert out.rank() == 4


def random_separable_two_by_n(rng: random.Random, n: int, terms: int, real_tail=True):
    """sum of product projectors on C2 (x) CN with rational weights; returns
    (state, one product summand as a flat vector).  With a real second-side
    factor the partial transpose equals the entrywise conjugate."""
    mats = ExactMatrix.zeros(2 * n, 2 * n)
    keep = None
    for t in range(terms):
        a = rand_vector(rng, 2)
        b = rand_vector(rng, n, complex_ok=not real_tail)
        v = tuple(x * y for x in a for y in b)
        w = ComplexRational(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        mats = mats + projector(v).scale(w)
        if t == 0:
            keep = v
    return density_from_matrix((2, n), mats), keep


def test_subtraction_reconstructs_exactly():
    # adding back weight * |v><v| must reproduce the input entry for entry
    rng = random.Random(41)
    d, v = random_separable_two_by_n(rng, 3, 3)
    out, weight = subtract_product(d, v)
    assert out.matrix + outer(v, v).scale(ComplexRational(weight)) == d.matrix
    assert out.trace_norm + weight * inner(v, v).re == d.trace_norm


def _wide_denominator_two_by_n():
    """Two separable 2xN states whose entries carry denominators near 2^40,
    each with its first product summand."""
    big = 2**40
    out = []
    for n, offsets in ((3, (3, 7, 15)), (4, (1, 9, 27, 35))):
        mats = ExactMatrix.zeros(2 * n, 2 * n)
        keep = None
        for t, k in enumerate(offsets):
            a = (ComplexRational(Fraction(big + k, big - k), 1), ComplexRational(t + 1))
            b = [ComplexRational(Fraction((-1) ** j * (j + t + 1), big + k + j)) for j in range(n)]
            v = tuple(x * y for x in a for y in b)
            mats = mats + projector(v).scale(ComplexRational(Fraction(t + 1, big + 1)))
            if keep is None:
                keep = v
        out.append((density_from_matrix((2, n), mats), keep))
    return out


def _subtraction_corpus():
    # the acceptance suite's 100 separable 2xN states (same seed and draws)
    rng = random.Random(606)
    corpus = []
    for _ in range(100):
        n = rng.randint(2, 8)
        corpus.append(random_separable_two_by_n(rng, n, rng.randint(2, 5)))
    return corpus + _wide_denominator_two_by_n()


# SHA-256 of (weight, result triples, trace) over _subtraction_corpus, as the
# boxed outer/scale/subtract construction computed them
SUBTRACTION_DIGEST = "61c016332fb0ed5e5669c4ebdc98e046334283cbdcff6f5b1ebace3d67aeb964"


def test_subtraction_matches_the_pinned_digest():
    h = hashlib.sha256()
    for d, v in _subtraction_corpus():
        out, weight = subtract_product(d, v)
        triples = [e.t for e in out.matrix.data]
        h.update(repr((str(weight), triples, str(out.trace_norm))).encode())
    assert h.hexdigest() == SUBTRACTION_DIGEST


def test_subtraction_is_hermitian_and_matches_the_boxed_reference():
    rng = random.Random(606)
    corpus = [random_separable_two_by_n(rng, rng.randint(2, 8), 3) for _ in range(10)]
    for d, v in corpus + _wide_denominator_two_by_n():
        out, weight = subtract_product(d, v)
        n = out.dim
        m = out.matrix
        assert all(m.at(j, i) == m.at(i, j).conjugate() for i in range(n) for j in range(i, n))
        assert m == d.matrix - outer(v, v).scale(ComplexRational(weight))


def test_separable_subtraction_drops_both_ranks():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 4)
        d, v = random_separable_two_by_n(rng, n, rng.randint(2, 4))
        b0 = birank(d)
        out, _ = subtract_product(d, v)
        b1 = birank(out)
        assert b1.rank == b0.rank - 1
        assert b1.pt_rank == b0.pt_rank - 1
        assert psd_certificate(partial_transpose(out, {0}).matrix).is_psd


def test_complex_summand_may_keep_transpose_rank():
    # Boundary of the simultaneous-drop property: with fully complex factors
    # the extremal weight for the state and for its partial transpose can
    # genuinely differ, so the transpose rank can survive the subtraction.
    # The rank itself always drops by one.  All arithmetic exact.
    rng = random.Random(3)
    kept = 0
    for _ in range(15):
        n = rng.randint(2, 4)
        d, v = random_separable_two_by_n(rng, n, rng.randint(2, 5), real_tail=False)
        b0 = birank(d)
        out, _ = subtract_product(d, v)
        b1 = birank(out)
        assert b1.rank == b0.rank - 1
        assert b1.pt_rank in (b0.pt_rank, b0.pt_rank - 1)
        kept += b1.pt_rank == b0.pt_rank
    assert kept > 0  # the non-dropping case genuinely occurs


def test_trace_preserved_by_partial_trace():
    rng = random.Random(13)
    d, _ = random_separable_two_by_n(rng, 3, 3)
    for keep in [{0}, {1}, {0, 1}]:
        assert partial_trace(d, keep).matrix.trace() == d.matrix.trace()


def _wide_range_sets(rng):
    """Proper subsets of product bases whose cleared coordinates span 40
    bits and both signs, so that neighbouring entries of the complement
    differ widely in size."""
    i = ComplexRational(0, 1)
    locals_ = [
        LocalState.pair(2**40, -1),
        LocalState.pair(3, -5 * i),
        LocalState.pair(-(2**20) * i, 7),
        K0,
    ]
    out = []
    for parties in (2, 3, 3, 4):
        bases = [(u, local_perp(u)) for u in (rng.choice(locals_) for _ in range(parties))]
        strings = list(itertools.product(range(2), repeat=parties))
        chosen = rng.sample(strings, rng.randint(1, len(strings) - 1))
        out.append(
            build_product_set(
                [ProductVector([bases[p][b] for p, b in enumerate(bits)]) for bits in chosen]
            )
        )
    return out


def test_complement_matches_exact_matrix_reference():
    rng = random.Random(2024)
    sets = [random_exact_ops(rng, rng.randint(1, 4)) for _ in range(25)]
    angles = sum(any(l.is_angle() for m in s.members for l in m.locals) for s in sets)
    assert angles > 0  # the sets do exercise angle locals
    sets += _wide_range_sets(rng) + [rotated_set(rng, 2)]
    for s in sets:
        c = complement_projector(s)
        assert c.matrix == complement_reference(s)
        assert c.trace_norm == 1


def test_complement_rejects_generic_angle_locals():
    from upblab.errors import ApproximateComparisonError

    for q in (Fraction(1, 8), Fraction(1, 5)):
        a, b = LocalState.angle(q), LocalState.angle(q + Fraction(1, 2))
        s = build_product_set([ProductVector([a, K0]), ProductVector([b, K0])])
        with pytest.raises(ApproximateComparisonError):
            complement_projector(s)


def _quarter_angles(s):
    """``s`` with each local proportional to (1, 1) or (-1, 1) written as
    the angle 1/4 or 3/4."""
    def angle(l):
        key = l.phase_key()
        for q in (Fraction(1, 4), Fraction(3, 4)):
            if key == LocalState.angle(q).phase_key():
                return LocalState.angle(q)
        return l

    return build_product_set(ProductVector(map(angle, m.locals)) for m in s.members)


def test_complement_of_quarter_angles_is_that_of_their_pairs():
    # The angles 1/4 and 3/4 are the states (1, 1) and (-1, 1) up to a
    # positive factor, so the set's complement and PPT report are those of
    # the set written with pairs.
    pairs = build_product_set(
        [ProductVector([LocalState.pair(1, 1), K0]), ProductVector([LocalState.pair(-1, 1), K0])]
    )
    for s in (pairs, shifts_upb()):
        quarters = _quarter_angles(s)
        assert any(l.is_angle() for m in quarters.members for l in m.locals)
        assert quarters.structure == s.structure
        c = complement_projector(quarters)
        assert c.matrix == complement_projector(s).matrix == complement_reference(s)
        assert ppt_report(c) == ppt_report(complement_projector(s))


# also the 2 x N shapes that extremal subtraction transposes, and a party of
# dimension 1
@pytest.mark.parametrize(
    "dims", [(2, 3, 2), (3, 2), (2, 2, 2, 2)] + [(2, n) for n in range(2, 9)] + [(2, 1, 3)]
)
def test_partial_transpose_matches_entrywise_definition(dims):
    rng = random.Random(len(dims))
    dim = 1
    for x in dims:
        dim *= x
    # not Hermitian, so every entry's destination is checked
    m = ExactMatrix(dim, dim, [rand_scalar(rng) for _ in range(dim * dim)])
    d = DensityOp(dims=dims, matrix=m)
    for bits in range(1 << len(dims)):
        mask = {p for p in range(len(dims)) if bits >> p & 1}
        assert partial_transpose(d, mask).matrix == partial_transpose_entrywise(m, dims, mask)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2), (2, 2, 2, 2)])
def test_partial_trace_matches_entrywise_definition(dims):
    rng = random.Random(10 + len(dims))
    dim = 1
    for x in dims:
        dim *= x
    # not Hermitian, so every entry's destination is checked
    m = ExactMatrix(dim, dim, [rand_scalar(rng) for _ in range(dim * dim)])
    d = DensityOp(dims=dims, matrix=m)
    for bits in range(1, 1 << len(dims)):
        keep = {p for p in range(len(dims)) if bits >> p & 1}
        out = partial_trace(d, keep)
        assert out.dims == tuple(dims[p] for p in sorted(keep))
        assert out.matrix == partial_trace_entrywise(m, dims, keep)


def test_psd_certificate_is_computed_once_and_not_inherited():
    d = bell_projector()
    assert d.psd() is d.psd()
    assert d.rank() == matrix_rank(d.matrix) == 1
    # the transpose of a PSD operator need not be PSD: a certificate carried
    # over from d would claim it is
    pt = partial_transpose(d, {0})
    assert not pt.psd().is_psd
    assert pt.rank() == matrix_rank(pt.matrix) == 4
    # normalizing halves the pivots; a carried-over certificate would not
    n = d.normalized()
    assert n.trace_norm == 1 and d.trace_norm == 2
    assert n.psd().pivots == psd_certificate(n.matrix).pivots != d.psd().pivots


def _count_eliminations(monkeypatch):
    counts = {}
    for name in ("ldl_hermitian", "bareiss_rank", "rref"):
        fn = getattr(_kernels, name)

        def counted(*args, _fn=fn, _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(_kernels, name, counted)
    return counts


def _pipeline_eliminations(monkeypatch, make):
    """Kernel calls made by building a complement with ``make``, its PPT
    report and its range scan, and the number of distinct partial
    transposes that differ from the complement, by the entrywise oracle."""
    from upblab.entangle import range_product_scan

    counts = _count_eliminations(monkeypatch)
    d = make()
    ppt_report(d)
    assert range_product_scan(d).verdict == "none_certified"
    others = {
        tuple(partial_transpose_entrywise(d.matrix, d.dims, mask).data)
        for mask in bipartition_classes(d.parties)
    } - {tuple(d.matrix.data)}
    return counts, len(others)


def test_certification_pipeline_eliminates_each_state_once(monkeypatch):
    # one LDL for the complement, shared by the report and the scan; every
    # transpose of a real product set's complement equals the complement
    counts, others = _pipeline_eliminations(
        monkeypatch, lambda: complement_projector(tensor_upb_opb(shifts_upb(), 1))
    )
    assert others == 0
    assert counts == {"ldl_hermitian": 1}


def test_certification_pipeline_eliminates_each_distinct_transpose_once(monkeypatch):
    # a rotated complement adds one LDL per distinct transpose
    counts, others = _pipeline_eliminations(
        monkeypatch, lambda: rotated_complement(random.Random(1), 3)
    )
    assert others > 0
    assert counts == {"ldl_hermitian": 1 + others}


def test_ppt_report_of_a_real_8_qubit_complement_runs_no_second_elimination(monkeypatch):
    counts = _count_eliminations(monkeypatch)
    d = complement_projector(tensor_upb_opb(shifts_upb(), 5))
    rep = ppt_report(d)
    assert counts == {"ldl_hermitian": 1}
    assert all(c is d.psd() for c in rep.certificates.values())


def test_ppt_report_shares_certificates_of_equal_npt_transposes():
    # (|00> + |11>)|0>: transposing party 2 leaves the operator as it is,
    # so {1} and {1, 2} give one transpose and {2} gives the operator itself
    v = [ComplexRational(int(k in (0, 6))) for k in range(8)]
    d = pure_density(v, (2, 2, 2))
    rep = ppt_report(d)
    certs = rep.certificates
    assert certs[frozenset({2})] is d.psd()
    assert certs[frozenset({1})] is certs[frozenset({1, 2})]
    cert = certs[frozenset({1})]
    assert not cert.is_psd and not rep.is_ppt
    for mask in ({1}, {1, 2}):
        pt = partial_transpose(d, mask).matrix
        assert cert == psd_certificate(pt)
        assert quadratic_form(pt, cert.witness) == cert.witness_value < 0


def test_subtract_product_reuses_the_certificate(monkeypatch):
    rng = random.Random(5)
    d, v = random_separable_two_by_n(rng, 3, 3)
    counts = _count_eliminations(monkeypatch)
    before = birank(d)
    out, _ = subtract_product(d, v)
    after = birank(out)
    assert after.rank == before.rank - 1
    assert psd_certificate(partial_transpose(out, {0}).matrix).is_psd
    # one LDL each for d, its transpose, the result and the result's
    # transpose: both transposes are PSD, so their ranks come from their
    # certificates with no Bareiss; the range question is answered from d's
    # LDL, with no solve; the closing certificate is the one birank(out) made
    assert counts == {"ldl_hermitian": 4}


def test_birank_matches_the_bareiss_oracle():
    # PPT inputs read the transpose rank from its LDL certificate, NPT ones
    # fall back to Bareiss; either way it is the rank of the transpose
    rng = random.Random(88)
    ppt = [
        random_separable_two_by_n(rng, rng.randint(2, 6), rng.randint(1, 5))[0]
        for _ in range(20)
    ]
    npt = [pure_density(rand_vector(rng, 2 * n), (2, n)) for n in (2, 2, 3, 3, 3)]
    npt.append(pure_density([1, 0, 0, 1], (2, 2)))
    for d, is_ppt in [(d, True) for d in ppt] + [(d, False) for d in npt]:
        b = birank(d)
        assert partial_transpose(d, {0}).psd().is_psd == is_ppt
        assert b.rank == matrix_rank(d.matrix)
        assert b.pt_rank == matrix_rank(partial_transpose(d, {0}).matrix)


def _hermitian_on_three_qubits(rng):
    m = outer(rand_vector(rng, 8), rand_vector(rng, 8))
    return density_from_matrix((2, 2, 2), m + m.dagger())


def test_kept_transposes_are_per_mask():
    d = _hermitian_on_three_qubits(random.Random(21))
    assert partial_transpose(d, {0}) is partial_transpose(d, [0])
    first, second = partial_transpose(d, {0}), partial_transpose(d, {1})
    assert first.matrix != second.matrix
    for mask, pt in (({0}, first), ({1}, second)):
        assert pt.matrix == partial_transpose_entrywise(d.matrix, d.dims, mask)


def test_replaced_matrix_is_transposed_and_certified_afresh():
    d = bell_projector()
    assert not partial_transpose(d, {0}).psd().is_psd
    assert d.rank() == 1
    a, b = rand_vector(random.Random(3), 2), rand_vector(random.Random(4), 2)
    m2 = outer(a, a).kron(outer(b, b)) + ExactMatrix.identity(4)
    d2 = replace(d, matrix=m2)
    pt = partial_transpose(d2, {0})
    assert pt.matrix == partial_transpose_entrywise(m2, d2.dims, {0})
    assert pt.psd().is_psd and d2.rank() == pt.rank() == 4
    # nor does the Hermitian mark follow a replaced matrix
    rng = random.Random(5)
    m3 = ExactMatrix(4, 4, [rand_scalar(rng) for _ in range(16)])
    with pytest.raises(NotHermitianError):
        replace(d, matrix=m3).psd()


def test_transpose_of_an_unchecked_operator_is_still_checked():
    rng = random.Random(8)
    m = ExactMatrix(6, 6, [rand_scalar(rng) for _ in range(36)])
    d = DensityOp(dims=(2, 3), matrix=m)
    with pytest.raises(NotHermitianError):
        partial_transpose(d, {0}).psd()
    with pytest.raises(NotHermitianError):
        birank(d)


def test_kept_certificates_revalidate_against_their_matrix():
    d, v = random_separable_two_by_n(random.Random(12), 4, 3)
    birank(d)
    out, _ = subtract_product(d, v)
    birank(out)
    bell_pt = partial_transpose(bell_projector(), {0})
    bell_pt.rank()
    for op in (d, partial_transpose(d, {0}), out, partial_transpose(out, {0}), bell_pt):
        m = op.matrix
        assert m._psd is not None and psd_certificate(m) is m._psd
        assert verify_psd_certificate(m, m._psd)
    assert not bell_pt.matrix._psd.is_psd


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_ppt_report_certificates_revalidate(extra):
    d = complement_projector(tensor_upb_opb(shifts_upb(), extra))
    assert verify_psd_certificate(d.matrix, d.psd())
    rep = ppt_report(d)
    assert rep.is_ppt
    for mask, cert in rep.certificates.items():
        assert verify_psd_certificate(partial_transpose(d, mask).matrix, cert)


def test_hermiticity_is_checked_once_per_certified_operator(monkeypatch):
    # the complement is Hermitian by construction and each partial transpose
    # of a Hermitian operator is Hermitian: only the complement's psd()
    # needs the check, and it marks the matrix for the transposes built later
    s = tensor_upb_opb(shifts_upb(), 1)
    calls = []
    original = ExactMatrix.is_hermitian

    def counted(self):
        calls.append(self.rows)
        return original(self)

    monkeypatch.setattr(ExactMatrix, "is_hermitian", counted)
    d = complement_projector(s)
    report = ppt_report(d)
    assert len(report.certificates) == 7
    birank(d)
    partial_transpose(d, {1}).psd()
    assert calls == [16]


def test_operators_from_density_from_matrix_are_not_checked_again(monkeypatch):
    from upblab.catalog import density_to_doc, fixture, from_doc

    doc = density_to_doc(fixture("shifts_complement"))
    calls = []
    original = ExactMatrix.is_hermitian

    def counted(self):
        calls.append(self.rows)
        return original(self)

    monkeypatch.setattr(ExactMatrix, "is_hermitian", counted)
    # the loader checks the matrix; rank() certifies it without a second check
    assert from_doc(doc).rank() == 4
    assert calls == [8]
    # one check for the input as it is built; its transpose and the
    # subtraction's result are Hermitian by construction
    calls.clear()
    d, v = random_separable_two_by_n(random.Random(5), 3, 3)
    birank(d)
    out, _ = subtract_product(d, v)
    assert out.rank() == d.rank() - 1
    assert calls == [6]


def test_real_rescaling_keeps_the_hermitian_mark(monkeypatch):
    from upblab.catalog import fixture

    d = fixture("rank5_pptes_5q")
    calls = []
    original = ExactMatrix.is_hermitian

    def counted(self):
        calls.append(self.rows)
        return original(self)

    monkeypatch.setattr(ExactMatrix, "is_hermitian", counted)
    # density_from_matrix checks the doubled matrix; normalized() scales it by
    # the real 1/2, which keeps the mark, so its psd() makes no second check
    rho = density_from_matrix(d.dims, d.matrix.scale(2)).normalized()
    assert rho.psd().is_psd
    assert rho.matrix == d.matrix
    assert calls == [32]
    # i times a nonzero Hermitian matrix is not Hermitian, and is checked
    skew = rho.matrix.scale(ComplexRational(0, 1))
    with pytest.raises(NotHermitianError):
        psd_certificate(skew)
    assert calls == [32, 32]


def test_transpose_splits_of_an_8_qubit_sweep_stay_cached():
    # every transpose of the identity is the identity: the sweep tests the 7
    # singleton masks, whose group is all 128 masks, and asks for no other
    # split; a second sweep finds all 7 cached
    dims = (2,) * 8
    d = density_from_matrix(dims, ExactMatrix.identity(256))
    _transpose_split.cache_clear()
    try:
        rep = ppt_report(d)
        first = _transpose_split.cache_info()
        assert len(rep.certificates) == 127
        assert all(c is d.psd() for c in rep.certificates.values())
        assert (first.hits, first.misses, first.currsize) == (0, 7, 7)
        assert ppt_report(density_from_matrix(dims, ExactMatrix.identity(256))).is_ppt
        second = _transpose_split.cache_info()
        assert (second.hits, second.misses) == (7, 7)
    finally:
        _transpose_split.cache_clear()


def test_transpose_splits_of_a_9_qubit_sweep_stay_cached():
    # 255 splits of 2 x 512 offsets: a second pass in the sweep's order hits
    # on every lookup, so none was evicted before its reuse
    dims = (2,) * 9
    masks = [tuple(sorted(m)) for m in bipartition_classes(9)]
    assert len(masks) == 255
    _transpose_split.cache_clear()
    try:
        for mask in masks:
            _transpose_split(dims, mask)
        first = _transpose_split.cache_info()
        for mask in masks:
            _transpose_split(dims, mask)
        second = _transpose_split.cache_info()
        assert (first.hits, first.misses, first.currsize) == (0, 255, 255)
        assert (second.hits, second.misses) == (255, 255)
    finally:
        _transpose_split.cache_clear()


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2), (2, 2, 2, 2)])
def test_party_offsets_match_digit_loop_flattening(dims):
    # distinct entries, so each one's place in the flattening is pinned down
    v = [ComplexRational(k, -k) for k in range(prod(dims))]
    # every proper cut, multi-party and non-contiguous ones included
    for bits in range(1, (1 << len(dims)) - 1):
        cut = [p for p in range(len(dims)) if bits >> p & 1]
        rows = party_offsets(dims, cut)
        cols = party_offsets(dims, [p for p in range(len(dims)) if p not in cut])
        flat = ExactMatrix(len(rows), len(cols), [v[a + b] for a in rows for b in cols])
        assert flat == flattening_entrywise(v, dims, cut)


def test_transpose_split_matches_entrywise_transpose_and_permutation():
    # every mask, the empty and the full one included
    shapes = [(2,) * n for n in range(1, 6)] + [(2, 3, 2), (3, 2, 2, 2)]
    for dims in shapes:
        dim = prod(dims)
        # distinct entries, so each one's destination is pinned down
        m = ExactMatrix(dim, dim, [ComplexRational(k, -k) for k in range(dim * dim)])
        for r in range(len(dims) + 1):
            for mask in itertools.combinations(range(len(dims)), r):
                u, w = _transpose_split(dims, mask)
                assert [a + b for a, b in zip(u, w)] == list(range(dim))
                moved = [None] * (dim * dim)
                for i in range(dim):
                    for j in range(dim):
                        moved[(u[i] + w[j]) * dim + u[j] + w[i]] = m.at(i, j)
                assert ExactMatrix(dim, dim, moved) == partial_transpose_entrywise(m, dims, mask)


def _random_entangled_state():
    # a random pure state on a qutrit and two qubits is entangled across
    # every cut
    return pure_density(rand_vector(random.Random(31), 12), (2, 3, 2))


def _separable_qubit_qutrit_qubit():
    # a mixture of two product states on a qubit, a qutrit and a qubit
    rng = random.Random(41)
    terms = []
    for _ in range(2):
        a, b, c = (rand_vector(rng, k) for k in (2, 3, 2))
        terms.append(outer(a, a).kron(outer(b, b)).kron(outer(c, c)))
    return density_from_matrix((2, 3, 2), terms[0] + terms[1])


def _entangled_two_qutrits():
    return pure_density(rand_vector(random.Random(43), 9), (3, 3))


def _state_with_a_zero_row():
    # row and column 5 of a three-qubit pure state are zero
    v = list(rand_vector(random.Random(47), 8))
    v[5] = ComplexRational(0)
    return pure_density(v, (2, 2, 2))


def _local_times_pairs(*pairs):
    # a complex local on party 0, then one two-qubit operator per pair of
    # parties (1, 2), (3, 4), ...: each real and symmetric, so transposing
    # both parties of a pair fixes it, and transposing one does not.  The
    # masks that fix the whole operator are then the unions of pairs, a
    # group that no single party's transpose generates
    a = [ComplexRational(1), ComplexRational(1, 2)]
    m = outer(a, a)
    for pair in pairs:
        m = m.kron(pair)
    return density_from_matrix((2,) * (1 + 2 * len(pairs)), m)


def _bell_pair():
    # |00> + |11>, unnormalized: NPT
    v = [ComplexRational(int(k in (0, 3))) for k in range(4)]
    return outer(v, v)


def _isotropic_pair():
    # I + (|00> + |11>)(<00| + <11|): its partial transpose is I + SWAP, PSD
    return ExactMatrix.identity(4) + _bell_pair()


@pytest.mark.parametrize(
    "make, ppt",
    [
        (lambda: rotated_complement(random.Random(17), 2), True),
        (lambda: rotated_complement(random.Random(1), 3), True),
        (bell_projector, False),
        (_random_entangled_state, False),
        (_separable_qubit_qutrit_qubit, True),
        (_entangled_two_qutrits, False),
        (lambda: complement_projector(tensor_upb_opb(shifts_upb(), 2)), True),
        (_state_with_a_zero_row, False),
        (lambda: _local_times_pairs(_bell_pair()), False),
        (lambda: _local_times_pairs(_isotropic_pair(), _isotropic_pair()), True),
        (lambda: _local_times_pairs(_isotropic_pair(), _bell_pair()), False),
    ],
    ids=[
        "rotated-5q-complement",
        "rotated-6q-complement",
        "bell",
        "random-entangled",
        "separable-2x3x2",
        "entangled-3x3",
        "unrotated-5q-complement",
        "zero-row",
        "local-bell-pair",
        "local-two-isotropic-pairs",
        "local-isotropic-and-bell-pairs",
    ],
)
def test_ppt_report_certificates_match_partial_transpose(make, ppt):
    # ppt_report moves the nonzero entries itself; every certificate must be
    # the one partial_transpose and psd_certificate give for its class, and
    # two classes, or a class and d itself, share one certificate object
    # exactly when their transposes are equal
    d = make()
    rep = ppt_report(d)
    assert list(rep.certificates) == bipartition_classes(d.parties)
    for mask, cert in rep.certificates.items():
        assert cert == psd_certificate(partial_transpose(d, mask).matrix)
    assert rep.is_ppt == ppt
    certs = {frozenset(): d.psd(), **rep.certificates}
    matrices = {mask: partial_transpose(d, mask).matrix for mask in certs}
    for a, b in itertools.combinations(certs, 2):
        assert (certs[a] is certs[b]) == (matrices[a] == matrices[b]), (a, b)


def test_subtract_product_of_quarter_angles_is_that_of_their_pairs():
    # flatten() of the angles 1/4 and 3/4 is (1, 1) and (-1, 1), the same
    # positive multiples as the pairs, so operator and weight agree
    w = rand_vector(random.Random(23), 4)
    d = density_from_matrix((2, 2), ExactMatrix.identity(4) + outer(w, w))
    quarters = ProductVector([LocalState.angle(Fraction(1, 4)), LocalState.angle(Fraction(3, 4))])
    pairs = ProductVector([LocalState.pair(1, 1), LocalState.pair(-1, 1)])
    assert quarters.flatten() == pairs.flatten()
    out, weight = subtract_product(d, quarters)
    want, want_weight = subtract_product(d, pairs)
    assert (out.matrix, weight) == (want.matrix, want_weight)
    assert out.rank() == 3


def test_generic_angles_raise_on_every_coordinate_path():
    from upblab.errors import ApproximateComparisonError

    d = density_from_matrix((2, 2), ExactMatrix.identity(4))
    for q in (Fraction(1, 5), Fraction(1, 8)):
        a, b = LocalState.angle(q), LocalState.angle(q + Fraction(1, 2))
        s = build_product_set([ProductVector([a, K0]), ProductVector([b, K0])])
        for call in (
            a.vec2,
            s.members[0].flatten,
            lambda: complement_projector(s),
            lambda: subtract_product(d, s.members[0]),
        ):
            with pytest.raises(ApproximateComparisonError):
                call()


def test_trace_norm_is_the_trace_of_every_constructed_matrix():
    rng = random.Random(29)
    d, v = random_separable_two_by_n(rng, 3, 3)
    built = [
        d,
        complement_projector(shifts_upb()),
        partial_transpose(d, {0}),
        partial_trace(d, {1}),
        subtract_product(d, v)[0],
        d.normalized(),
    ]
    for op in built:
        assert op.trace_norm == op.matrix.trace().re
    assert built[-1].trace_norm == 1 != d.trace_norm
    # the trace is read from the matrix; no caller can set another one
    with pytest.raises(TypeError):
        DensityOp(dims=d.dims, matrix=d.matrix, trace_norm=Fraction(1))


def test_raw_operator_document_round_trips_its_trace():
    from upblab.catalog import density_from_doc, density_to_doc

    d = DensityOp(dims=(2, 2), matrix=ExactMatrix.identity(4).scale(ComplexRational(Fraction(1, 2))))
    doc = density_to_doc(d)
    assert doc["trace"] == "2"
    assert density_from_doc(doc).matrix == d.matrix
