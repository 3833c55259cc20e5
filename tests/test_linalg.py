import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from upblab import _kernels
from upblab.errors import NotHermitianError, NotPsdError
from upblab.catalog import fixture
from upblab.linalg import (
    ExactMatrix,
    _kernel_basis,
    annihilates,
    as_vector,
    cleared,
    inner,
    matrix_rank,
    outer,
    projector,
    psd_certificate,
    quadratic_form,
    range_quadratic_form,
    solve_consistent,
    sparse_cleared_rows,
    verify_psd_certificate,
)
from upblab.product import shifts_upb
from upblab.scalars import CQ0, ComplexRational
from upblab.states import complement_projector, density_from_matrix

from oracles import (
    dagger,
    matmul,
    nullspace_basis,
    rand_hermitian,
    rand_scalar,
    rand_vector,
    random_psd,
    rotated_complement,
    scattered_blocks,
    sparse_low_rank_psd,
)


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


def test_is_hermitian_sees_a_nonzero_entry_facing_a_zero():
    # every other entry equals its mirror's conjugate; only (0, 2) against
    # the zero at (2, 0) breaks the symmetry, in either triangle
    upper = ExactMatrix.from_rows([[1, 0, 5], [0, 2, 0], [0, 0, 3]])
    assert [(i, j) for i, j, _ in upper.nonzero()] == [(0, 0), (0, 2), (1, 1), (2, 2)]
    assert not upper.is_hermitian()
    assert not ExactMatrix.from_rows([[1, 0, 0], [0, 2, 0], [5, 0, 3]]).is_hermitian()
    assert ExactMatrix.from_rows([[1, 0, 5], [0, 2, 0], [5, 0, 3]]).is_hermitian()


def test_nonzero_view_is_every_nonzero_entry_in_row_major_order():
    rng = random.Random(31)
    for _ in range(30):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = ExactMatrix.from_rows(
            [[rand_scalar(rng) if rng.random() < 0.5 else 0 for _ in range(cols)]
             for _ in range(rows)]
        )
        dense = [(i, j, m.at(i, j).t) for i in range(rows) for j in range(cols)]
        assert m.nonzero() == tuple(e for e in dense if e[2] != (0, 0, 1))
        assert m.nonzero() is m.nonzero()  # computed once


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


def _certified(seed: int, trials: int, psd: bool):
    """(matrix, certificate) pairs of random Hermitian matrices of size 2..6
    whose certificate has the requested verdict and re-validates."""
    rng = random.Random(seed)
    out = []
    while len(out) < trials:
        n = rng.randint(2, 6)
        m = random_psd(rng, n, rng.randint(1, n)) if psd else rand_hermitian(rng, n)
        cert = psd_certificate(m)
        if cert.is_psd == psd:
            assert verify_psd_certificate(m, cert)
            out.append((m, cert))
    return out


def _with_step(cert, t, p, frow):
    steps = cert.steps[:t] + ((p, tuple(frow)),) + cert.steps[t + 1 :]
    return replace(cert, steps=steps)


def test_psd_certificate_mutants_are_refuted():
    """Each mutation of a valid PSD certificate is refuted, and none raises:
    the Gaussian-integer identity catches changed values, the layout checks
    catch indices that are out of range, negative or repeated."""
    kinds = set()
    for m, cert in _certified(41, 60, psd=True):
        n, rank = m.rows, cert.rank
        t = rank - 1
        p, frow = cert.steps[t]
        pivots = cert.pivots
        mutants = {
            "doubled pivot": replace(cert, pivots=pivots[:t] + (2 * pivots[t],)),
            "dropped step": replace(cert, pivots=pivots[:t], steps=cert.steps[:t], rank=t),
            "rank too high": replace(cert, rank=rank + 1),
            "rank too low": replace(cert, rank=rank - 1),
            "wrong dim": replace(cert, dim=n + 1),
            "pivot out of range": _with_step(cert, t, n, frow),
            "negative pivot index": _with_step(cert, t, p - n, frow),
            # one step twice at half weight: the identity holds, the rank not
            "repeated step": replace(
                cert,
                pivots=pivots[:t] + (pivots[t] / 2,) * 2,
                steps=cert.steps + (cert.steps[t],),
                rank=rank + 1,
            ),
        }
        # the first step with multipliers, and its first non-real multiplier
        for s, (q, fs) in enumerate(cert.steps):
            if not fs:
                continue
            (k, f), rest = fs[0], list(fs[1:])
            mutants["multiplier index out of range"] = _with_step(cert, s, q, [(n, f)] + rest)
            mutants["negative multiplier index"] = _with_step(cert, s, q, [(k - n, f)] + rest)
            mutants["multiplier at the pivot"] = _with_step(cert, s, q, [(q, f)] + rest)
            for j, (kj, (a, b, r)) in enumerate(fs):
                if b:
                    conj = fs[:j] + ((kj, (a, -b, r)),) + fs[j + 1 :]
                    mutants["conjugated multiplier"] = _with_step(cert, s, q, conj)
                    break
            break
        for kind, bad in mutants.items():
            assert verify_psd_certificate(m, bad) is False, kind
        kinds.update(mutants)
    assert "conjugated multiplier" in kinds and "negative multiplier index" in kinds


def test_not_psd_certificate_mutants_are_refuted():
    for m, cert in _certified(42, 60, psd=False):
        w, n = cert.witness, m.rows
        mutants = {
            "witness value": replace(cert, witness_value=cert.witness_value - 1),
            "long witness": replace(cert, witness=w + (CQ0,)),
            "short witness": replace(cert, witness=w[:-1]),
            "zero witness": replace(cert, witness=(CQ0,) * n),
            "no witness": replace(cert, witness=None),
            "wrong dim": replace(cert, dim=n - 1),
        }
        for kind, bad in mutants.items():
            assert verify_psd_certificate(m, bad) is False, kind


def test_checker_needs_no_kernel_and_no_scalar_arithmetic(monkeypatch):
    """Certificates re-validate with every elimination kernel disabled, and
    PSD ones also with ComplexRational arithmetic disabled: the checker is
    code that did not produce the certificate."""
    psd = _certified(43, 30, psd=True)
    not_psd = _certified(44, 30, psd=False)

    def boom(*args, **kwargs):
        raise AssertionError("the checker must not call this")

    for name in ("ldl_hermitian", "bareiss_rank", "rref"):
        monkeypatch.setattr(_kernels, name, boom)
    assert all(verify_psd_certificate(m, cert) for m, cert in not_psd)
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "conjugate"):
        monkeypatch.setattr(ComplexRational, name, boom)
    assert all(verify_psd_certificate(m, cert) for m, cert in psd)


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
        assert np.allclose(matmul(a, b).to_numpy(), a.to_numpy() @ b.to_numpy())
        assert np.allclose(a.kron(b).to_numpy(), np.kron(a.to_numpy(), b.to_numpy()))
        assert np.allclose(dagger(a).to_numpy(), a.to_numpy().conj().T)


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


def test_range_quadratic_form_matches_solve_consistent():
    # the certificate's forward substitution against the independent rref
    # solve: v in range iff m x = v is consistent, and then <v|M^+|v> = <v|x>
    rng = random.Random(1998)
    outcomes = {True: 0, False: 0}
    for _ in range(320):
        n = rng.randint(1, 8)
        m = random_psd(rng, n, rng.randint(1, n))
        if rng.random() < 0.5:
            v = m.apply(rand_vector(rng, n))  # in range
        else:
            v = rand_vector(rng, n)
        x = solve_consistent(m, v)
        expected = None if x is None else inner(v, x).re
        assert range_quadratic_form(m, v) == expected
        outcomes[x is not None] += 1
        assert range_quadratic_form(m, [0] * n) == 0
    assert min(outcomes.values()) >= 100, outcomes
    with pytest.raises(NotPsdError):
        range_quadratic_form(random_psd(rng, 4, 2) - ExactMatrix.identity(4), [1, 0, 0, 0])


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


def _kernel_corpus(rng):
    """PSD matrices: dense ones of every rank, sparse low-rank ones, the PSD
    ones among scattered-block matrices, the rank-5 5-qubit PPT entangled
    state, and rotated 5- and 6-qubit complements rebuilt from their
    entries alone, with no kernel set and no certificate."""
    mats = []
    for _ in range(120):
        n = rng.randint(1, 8)
        mats.append(random_psd(rng, n, rng.randint(1, n)))
    mats += [sparse_low_rank_psd(rng, rng.randint(2, 12)) for _ in range(60)]
    scattered = [scattered_blocks(rng) for _ in range(400)]
    mats += [m for m in scattered if psd_certificate(m).is_psd]
    mats.append(fixture("rank5_pptes_5q").matrix)
    for extra in (2, 3):
        d = rotated_complement(rng, extra)
        m = ExactMatrix(d.dim, d.dim, d.matrix.data)
        mats.append(density_from_matrix(d.dims, m).matrix)
    return mats


def test_kernel_basis_is_the_rref_basis():
    """The kernel basis that back substitution reads from a PSD certificate
    is the reduced row echelon basis, vector for vector: each LDL pivot of a
    PSD matrix is the first index independent of the earlier pivots, as
    each rref pivot is."""
    mats = _kernel_corpus(random.Random(20261020))
    split = deficient = 0
    for m in mats:
        basis = _kernel_basis(psd_certificate(m))
        assert basis == nullspace_basis(m)
        deficient += 0 < len(basis) < m.rows
        split += len(_kernels._blocks(m._triple_rows(), m.rows)) > 1
    assert len(mats) > 300 and deficient > 150 and split > 40, (len(mats), deficient, split)


def test_kernel_basis_edge_cases():
    assert _kernel_basis(psd_certificate(ExactMatrix.identity(4))) == []
    eye = ExactMatrix.identity(3)
    rows = [eye.data[3 * i : 3 * i + 3] for i in range(3)]
    assert _kernel_basis(psd_certificate(ExactMatrix.zeros(3, 3))) == rows
    cert = psd_certificate(ExactMatrix.from_rows([[1, 2], [2, 1]]))
    assert not cert.is_psd and cert.steps
    with pytest.raises(NotPsdError):
        _kernel_basis(cert)


def _qq_i(t):
    from sympy import QQ, QQ_I

    p, q, r = t
    return QQ_I(QQ(p, r), QQ(q, r))


def _to_sympy(m: ExactMatrix):
    from sympy import QQ_I
    from sympy.polys.matrices import DomainMatrix

    rows = [[_qq_i(x.t) for x in m.data[i * m.cols : (i + 1) * m.cols]] for i in range(m.rows)]
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
        m = matmul(a, b)
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


def test_sparse_annihilates_agrees_with_apply():
    """annihilates over sparse cleared rows decides M x == 0 exactly as
    ExactMatrix.apply does, for sparse and dense matrices and for vectors
    inside and outside the kernel, one at a time and all at once, where it
    names the first vector outside; a vector of another length is
    refused."""
    rng = random.Random(12)
    outcomes = {True: 0, False: 0}
    batches = {True: 0, False: 0}
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        density = rng.choice((0.2, 0.5, 1.0))
        m = ExactMatrix.from_rows(
            [[rand_scalar(rng) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)]
        )
        sparse = sparse_cleared_rows(m)
        vectors = [rand_vector(rng, cols)]
        kernel = nullspace_basis(m)
        if kernel:
            for _ in range(3):
                x = [ComplexRational(0)] * cols
                for k in kernel:
                    c = rand_scalar(rng)
                    x = [a + c * b for a, b in zip(x, k)]
                vectors.append(tuple(x))
            # one coordinate off: outside the kernel unless that column is zero
            j = rng.randrange(cols)
            vectors.append(tuple(a + 1 if i == j else a for i, a in enumerate(kernel[0])))
        inside = [all(e.is_zero() for e in m.apply(x)) for x in vectors]
        for x, expected in zip(vectors, inside):
            assert annihilates(sparse, [cleared(x)]) == (None if expected else 0)
            outcomes[expected] += 1
        assert annihilates(sparse, [cleared(rand_vector(rng, cols + 1))]) == 0
        if cols > 1:
            assert annihilates(sparse, [cleared(rand_vector(rng, cols - 1))]) == 0
        # all at once, shuffled: only those inside, or all of them, or all
        # and a vector of another length
        batch = list(zip(vectors, inside))
        rng.shuffle(batch)
        roll = rng.random()
        if roll < 0.4:
            batch = [(x, ok) for x, ok in batch if ok]
        elif roll < 0.7:
            batch.insert(rng.randint(0, len(batch)), (rand_vector(rng, cols + 1), False))
        first = next((k for k, (_, ok) in enumerate(batch) if not ok), None)
        assert annihilates(sparse, [cleared(x) for x, _ in batch]) == first
        batches[first is None] += 1
    assert min(outcomes.values()) > 50
    assert min(batches.values()) > 20


def test_sparse_cleared_rows_of_zero_rows_are_empty():
    # a zero row reads no entries, so its scale is 1 and it lists none
    m = ExactMatrix.from_rows(
        [[Fraction(1, 2), ComplexRational(0, Fraction(1, 3)), 0], [0, 0, 0], [0, 5, 0]]
    )
    assert sparse_cleared_rows(m) == (3, [[(0, 3, 0), (1, 0, 2)], [], [(1, 5, 0)]])
    assert sparse_cleared_rows(ExactMatrix.zeros(2, 4)) == (4, [[], []])
    x = cleared(rand_vector(random.Random(5), 4))
    assert annihilates(sparse_cleared_rows(ExactMatrix.zeros(2, 4)), [x]) is None
