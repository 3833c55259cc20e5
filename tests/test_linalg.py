import random
from fractions import Fraction

import numpy as np
import pytest

from upblab import _kernels
from upblab.errors import NotHermitianError, NotPsdError
from upblab.linalg import (
    ExactMatrix,
    as_vector,
    inner,
    matrix_rank,
    nullspace_basis,
    outer,
    projector,
    psd_certificate,
    quadratic_form,
    range_quadratic_form,
    solve_consistent,
    verify_psd_certificate,
)
from upblab.product import shifts_upb
from upblab.scalars import ComplexRational
from upblab.states import complement_projector

from oracles import rand_hermitian, rand_scalar, rand_vector


def test_rank_identity():
    assert matrix_rank(ExactMatrix.identity(3)) == 3


def test_rank_repeated_row():
    m = ExactMatrix.from_rows([[1, 1], [1, 1]])
    assert matrix_rank(m) == 1


def test_rank_shifts_complement_projector():
    sigma = complement_projector(shifts_upb())
    assert matrix_rank(sigma.matrix) == 4


def test_rank_methods_agree():
    rng = random.Random(11)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = ExactMatrix.from_rows(
            [[rand_scalar(rng) for _ in range(nc)] for _ in range(nr)]
        )
        assert matrix_rank(m) == _kernels.rref(m._triple_rows(), nr, nc)[0]


def test_nullspace_identity_empty():
    assert nullspace_basis(ExactMatrix.identity(4)) == []


def test_nullspace_single_row():
    basis = nullspace_basis(ExactMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    (v,) = basis
    # proportional to (1, -1)
    assert (v[0] * ComplexRational(-1) - v[1]).is_zero()


def test_nullspace_of_shifts_span_projector():
    shifts = shifts_upb()
    flats = [m.flatten() for m in shifts.members]
    span = ExactMatrix.zeros(8, 8)
    for f in flats:
        span = span + projector(f)
    basis = nullspace_basis(span)
    assert len(basis) == 4
    for v in basis:
        for f in flats:
            assert inner(f, v).is_zero()


def test_rank_plus_nullity():
    rng = random.Random(3)
    for _ in range(40):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = ExactMatrix.from_rows(
            [[rand_scalar(rng) for _ in range(nc)] for _ in range(nr)]
        )
        assert matrix_rank(m) + len(nullspace_basis(m)) == nc
        for v in nullspace_basis(m):
            assert all(x.is_zero() for x in m.apply(v))


def test_psd_identity():
    cert = psd_certificate(ExactMatrix.identity(3))
    assert cert.is_psd
    assert cert.pivots == (Fraction(1),) * 3
    assert cert.rank == 3


def test_psd_off_diagonal_refuted():
    cert = psd_certificate(ExactMatrix.from_rows([[0, 1], [1, 0]]))
    assert not cert.is_psd
    assert cert.zero_diag_pair == (0, 1)
    val = quadratic_form(ExactMatrix.from_rows([[0, 1], [1, 0]]), cert.witness)
    assert val.re < 0 and val.im == 0
    assert val.re == cert.witness_value


def test_psd_requires_hermitian():
    with pytest.raises(NotHermitianError):
        psd_certificate(ExactMatrix.from_rows([[1, 1], [0, 1]]))


def test_is_hermitian_checks_every_entry():
    rng = random.Random(23)
    for n in range(1, 6):
        h = rand_hermitian(rng, n)
        assert h.is_hermitian()
        for k in range(n * n):
            i, j = divmod(k, n)
            bad = list(h.data)
            bad[k] = bad[k] + ComplexRational(0, 1)  # breaks (i, j) against (j, i)
            assert not ExactMatrix(n, n, bad).is_hermitian(), (i, j)
    assert not ExactMatrix.from_rows([[1, 2, 3]]).is_hermitian()


def test_psd_rank_equals_pivot_count():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_hermitian(rng, n, psd=True)
        cert = psd_certificate(m)
        assert cert.is_psd
        assert cert.rank == len(cert.pivots) == matrix_rank(m)
        assert verify_psd_certificate(m, cert)


def test_certificates_revalidate_both_ways():
    rng = random.Random(21)
    for trial in range(60):
        n = rng.randint(1, 6)
        m = rand_hermitian(rng, n, psd=trial % 3 == 0)
        cert = psd_certificate(m)
        assert verify_psd_certificate(m, cert)
        if not cert.is_psd:
            assert cert.witness is not None
            val = quadratic_form(m, cert.witness)
            assert val.re < 0


def test_psd_agrees_with_float_eigenvalues():
    rng = random.Random(12)
    checked = 0
    for trial in range(60):
        n = rng.randint(1, 8)
        m = rand_hermitian(rng, n, psd=trial % 2 == 0)
        lam_min = float(np.linalg.eigvalsh(m.to_numpy()).min())
        if abs(lam_min) <= 1e-6:
            continue
        checked += 1
        assert psd_certificate(m).is_psd == (lam_min > 0)
    assert checked > 20


def test_matrix_ops_match_numpy():
    rng = random.Random(14)
    for _ in range(20):
        a = ExactMatrix.from_rows(
            [[rand_scalar(rng) for _ in range(3)] for _ in range(4)]
        )
        b = ExactMatrix.from_rows(
            [[rand_scalar(rng) for _ in range(2)] for _ in range(3)]
        )
        assert np.allclose((a @ b).to_numpy(), a.to_numpy() @ b.to_numpy())
        assert np.allclose(a.kron(b).to_numpy(), np.kron(a.to_numpy(), b.to_numpy()))
        assert np.allclose(a.dagger().to_numpy(), a.to_numpy().conj().T)


def test_solve_consistent():
    m = ExactMatrix.from_rows([[1, 1], [2, 2]])
    assert solve_consistent(m, as_vector([1, 2])) is not None
    assert solve_consistent(m, as_vector([1, 3])) is None


def test_range_quadratic_form_identity():
    assert range_quadratic_form(ExactMatrix.identity(2), [1, 0]) == 1


def test_range_quadratic_form_not_in_range():
    p = ExactMatrix.from_rows([[1, 0], [0, 0]])
    assert range_quadratic_form(p, [0, 1]) is None


def test_range_quadratic_form_requires_psd():
    with pytest.raises(NotPsdError):
        range_quadratic_form(ExactMatrix.from_rows([[-1, 0], [0, 1]]), [1, 0])


def test_range_form_subtraction_drops_rank():
    rng = random.Random(9)
    done = 0
    while done < 25:
        n = rng.randint(2, 6)
        m = rand_hermitian(rng, n, psd=True)
        r = matrix_rank(m)
        if r == 0:
            continue
        v = m.apply(rand_vector(rng, n))  # guaranteed in range
        if all(x.is_zero() for x in v):
            continue
        q = range_quadratic_form(m, v)
        assert q is not None and q > 0
        sub = m - outer(v, v).scale(ComplexRational(Fraction(1, 1) / q))
        cert = psd_certificate(sub)
        assert cert.is_psd
        assert cert.rank == r - 1
        done += 1


def _qq_i(t):
    from sympy import QQ, QQ_I

    p, q, r = t
    return QQ_I(QQ(p, r), QQ(q, r))


def _to_sympy(m: ExactMatrix):
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    rows = [[_qq_i(x.t) for x in m.row(i)] for i in range(m.rows)]
    return DomainMatrix(rows, (m.rows, m.cols), QQ_I)


def test_rank_and_nullity_match_sympy_oracle():
    # sympy's DomainMatrix over QQ_I shares no code with the kernels
    rng = random.Random(17)
    for _ in range(40):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        # a product of two factors, so that deficient ranks are common
        k = rng.randint(1, min(nr, nc))
        a = ExactMatrix.from_rows([[rand_scalar(rng) for _ in range(k)] for _ in range(nr)])
        b = ExactMatrix.from_rows([[rand_scalar(rng) for _ in range(nc)] for _ in range(k)])
        m = a @ b
        oracle = _to_sympy(m)
        rank = oracle.rank()
        assert matrix_rank(m) == rank
        assert len(nullspace_basis(m)) == nc - rank == oracle.nullspace().shape[0]
        # the RREF is unique, so the reduced rows must agree entry for entry
        k_rank, k_pivots, k_rows = _kernels.rref(m._triple_rows(), nr, nc)
        reduced, pivots = oracle.rref()
        assert k_rank == rank
        assert tuple(k_pivots) == tuple(pivots)
        assert [[_qq_i(t) for t in row] for row in k_rows[:rank]] == reduced.to_list()[:rank]
