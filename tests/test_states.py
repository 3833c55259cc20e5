import random
from fractions import Fraction

import numpy as np
import pytest

from upblab import _kernels
from upblab.errors import BadMaskError, NotInRangeError, SpansEverythingError
from upblab.linalg import (
    ExactMatrix,
    inner,
    matrix_rank,
    outer,
    projector,
    psd_certificate,
    verify_psd_certificate,
)
from upblab.product import (
    ProductVector,
    build_product_set,
    shifts_upb,
    standard_opb,
    tensor_upb_opb,
)
from upblab.qubits import LocalState
from upblab.scalars import ComplexRational
from upblab.states import (
    DensityOp,
    bipartition_classes,
    birank,
    complement_projector,
    density_from_matrix,
    partial_trace,
    partial_transpose,
    ppt_report,
    pure_density,
    subtract_product,
)

from oracles import (
    complement_reference,
    partial_trace_entrywise,
    partial_transpose_entrywise,
    rand_scalar,
    rand_vector,
    random_exact_ops,
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


def test_complement_full_basis_rejected():
    with pytest.raises(SpansEverythingError):
        complement_projector(standard_opb(2))


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


def test_complement_matches_exact_matrix_reference():
    rng = random.Random(2024)
    angles = 0
    for _ in range(25):
        s = random_exact_ops(rng, rng.randint(1, 4))
        angles += any(l.is_angle() for m in s.members for l in m.locals)
        c = complement_projector(s)
        assert c.matrix == complement_reference(s)
        assert c.trace_norm == 1
    assert angles > 0  # the sets do exercise angle locals


def test_complement_rejects_generic_angle_locals():
    from upblab.errors import ApproximateComparisonError

    a, b = LocalState.angle(Fraction(1, 8)), LocalState.angle(Fraction(5, 8))
    s = build_product_set([ProductVector([a, K0]), ProductVector([b, K0])])
    with pytest.raises(ApproximateComparisonError):
        complement_projector(s)


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2), (2, 2, 2, 2)])
def test_partial_transpose_matches_entrywise_definition(dims):
    rng = random.Random(len(dims))
    dim = 1
    for x in dims:
        dim *= x
    # not Hermitian, so every entry's destination is checked
    m = ExactMatrix(dim, dim, [rand_scalar(rng) for _ in range(dim * dim)])
    d = DensityOp(dims=dims, matrix=m, trace_norm=Fraction(1))
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
    d = DensityOp(dims=dims, matrix=m, trace_norm=Fraction(1))
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


def test_certification_pipeline_eliminates_each_state_once(monkeypatch):
    from upblab.entangle import range_product_scan

    counts = _count_eliminations(monkeypatch)
    d = complement_projector(tensor_upb_opb(shifts_upb(), 1))
    rep = ppt_report(d)
    assert range_product_scan(d).verdict == "none_certified"
    # one LDL for the complement, shared by the report and the scan, and
    # one per bipartition class
    assert counts == {"ldl_hermitian": 1 + len(rep.certificates)}


def test_subtract_product_reuses_the_certificate(monkeypatch):
    rng = random.Random(5)
    d, v = random_separable_two_by_n(rng, 3, 3)
    counts = _count_eliminations(monkeypatch)
    before = birank(d)
    out, _ = subtract_product(d, v)
    after = birank(out)
    assert after.rank == before.rank - 1
    # LDL of d and of the result, one solve, one Bareiss per transpose rank
    assert counts == {"ldl_hermitian": 2, "rref": 1, "bareiss_rank": 2}


@pytest.mark.parametrize("extra", [0, 1])
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
    # needs the check
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
    assert calls == [16]
