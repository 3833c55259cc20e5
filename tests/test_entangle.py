import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from upblab import entangle
from upblab.entangle import product_vector_from_flat, range_product_scan
from upblab.errors import NonQubitPartyError
from upblab.linalg import (
    ExactMatrix,
    as_vector,
    matrix_rank,
    outer,
    range_quadratic_form,
    solve_consistent,
)
from upblab.product import ProductVector, build_product_set, shifts_upb
from upblab.qubits import LocalState
from upblab.scalars import ComplexRational
from upblab.states import complement_projector, density_from_matrix, pure_density

from oracles import (
    flattening_entrywise,
    nullspace_basis,
    product_vector_from_flat_rref,
    rand_local,
    rand_scalar,
    rand_vector,
    random_grouped_tensor,
    rotated_complement,
)

CQ = ComplexRational


def _flat(*coords):
    return as_vector(coords)


def test_scan_certifies_shifts_complement():
    res = range_product_scan(complement_projector(shifts_upb()))
    assert res.verdict == "none_certified"
    assert res.certificate is not None
    assert not res.certificate.extendible


def test_scan_finds_vector_in_rank5_state():
    from upblab.catalog import fixture

    rho = fixture("rank5_pptes_4q")
    res = range_product_scan(rho)
    assert res.verdict == "found"
    flat = res.witness.flatten()
    assert solve_consistent(rho.matrix, flat) is not None
    # |0000> itself is in the range
    zero = ProductVector([LocalState.ket(0)] * 4).flatten()
    assert solve_consistent(rho.matrix, zero) is not None


def test_scan_full_rank_returns_some_product_vector():
    d = density_from_matrix((2, 2), ExactMatrix.identity(4).scale(CQ(Fraction(1, 4))))
    res = range_product_scan(d)
    assert res.verdict == "found"


def test_full_rank_scan_finds_the_all_zero_product():
    # the empty kernel set extends by |0...0>; no certificate is involved
    d = density_from_matrix((2, 2, 2), ExactMatrix.identity(8))
    res = range_product_scan(d)
    assert res.verdict == "found" and res.certificate is None
    assert res.witness.flatten() == ProductVector([LocalState.ket(0)] * 3).flatten()


def test_scan_finds_a_product_in_the_range_of_a_subset_complement():
    # three of the four shifts members extend, so the complement of their
    # span holds a product vector
    d = complement_projector(build_product_set(shifts_upb().members[:3]))
    res = range_product_scan(d)
    assert res.verdict == "found"
    assert range_quadratic_form(d.matrix, res.witness.flatten()) is not None


@pytest.mark.parametrize("dims", [(2, 4), (4, 2), (8,)])
def test_scan_refuses_a_qubit_kernel_set_on_other_parties(dims):
    # the shifts complement's matrix and kernel set, read over other parties:
    # every 4-dim subspace of 2 (x) 4 holds a product vector, and on a single
    # 8-dim party every vector is one, so no certificate may be claimed.  The
    # qubit set cannot be attached there, and the scan refuses the matrix
    s = shifts_upb()
    m = complement_projector(s).matrix
    with pytest.raises(ValueError, match="differ from the operator's dims"):
        density_from_matrix(dims, m, kernel_product_set=s)
    with pytest.raises(NonQubitPartyError):
        range_product_scan(density_from_matrix(dims, m))


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (2, 4), (6,)])
def test_scan_refuses_non_qubit_parties_before_any_elimination(monkeypatch, dims):
    from math import prod

    from upblab import _kernels

    n = prod(dims)
    d = pure_density(rand_vector(random.Random(n), n), dims)
    calls = []
    for name in ("ldl_hermitian", "bareiss_rank", "rref"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args)
        )
    with pytest.raises(NonQubitPartyError):
        range_product_scan(d)
    assert calls == []


def test_scan_heuristic_confirms_exactly():
    # complement of a Bell projector: kernel is the entangled line, so the
    # exact branch does not apply, but products exist in the 3-dim range
    bell = _flat(1, 0, 0, 1)
    comp = ExactMatrix.identity(4) - outer(bell, bell).scale(CQ(Fraction(1, 2)))
    d = density_from_matrix((2, 2), comp.scale(CQ(Fraction(1, 3))))
    res = range_product_scan(d, budget=8, seed=11)
    assert res.verdict == "found"
    assert solve_consistent(d.matrix, res.witness.flatten()) is not None


def test_scan_heuristic_reports_no_hit():
    # range = the Bell line: contains no product vector; kernel basis is not
    # all-product, so only the heuristic can answer, and it must not claim a find
    bell = _flat(1, 0, 0, 1)
    d = density_from_matrix((2, 2), outer(bell, bell).scale(CQ(Fraction(1, 2))))
    res = range_product_scan(d, budget=6, seed=3)
    assert res.verdict == "none_heuristic"
    assert res.best_overlap == pytest.approx(0.5, abs=1e-6)
    assert res.iterations > 0


def test_product_vector_from_flat():
    v = ProductVector([LocalState.pair(1, 2), LocalState.pair(-1, 3), LocalState.ket(1)])
    rebuilt = product_vector_from_flat(v.flatten(), 3)
    assert rebuilt is not None
    from upblab.qubits import local_equal_up_to_phase

    for a, b in zip(rebuilt.locals, v.locals):
        assert local_equal_up_to_phase(a, b)
    assert product_vector_from_flat(_flat(1, 0, 0, 1), 2) is None


def _rand_local_with_zeros(rng):
    # one local in three has a zero coordinate
    r = rng.randrange(3)
    if r == 0:
        return LocalState.pair(0, rand_vector(rng, 1)[0])
    if r == 1:
        return LocalState.pair(rand_vector(rng, 1)[0], 0)
    return rand_local(rng)


def test_product_vector_from_flat_round_trips_exactly():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 4)
        v = ProductVector([_rand_local_with_zeros(rng) for _ in range(n)]).flatten()
        pv = product_vector_from_flat(v, n)
        assert pv is not None and pv.parties == n
        assert pv.flatten() == v


def test_product_vector_from_flat_agrees_with_flattening_ranks():
    rng = random.Random(23)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 4)
        dims = (2,) * n
        v = list(random_grouped_tensor(rng, dims))
        if rng.random() < 0.3:
            v[rng.randrange(len(v))] = rand_scalar(rng)
        if all(x.is_zero() for x in v):
            continue
        entangled = any(
            matrix_rank(flattening_entrywise(v, dims, {p})) > 1 for p in range(n)
        )
        pv = product_vector_from_flat(v, n)
        assert (pv is None) == entangled
        if pv is not None:
            assert pv.flatten() == tuple(v)
        verdicts.add(entangled)
    assert verdicts == {True, False}


def test_product_vector_from_flat_matches_the_rref_reference():
    # zero vectors, products (locals with a zero coordinate included),
    # products with one coordinate perturbed, and dense vectors
    rng = random.Random(29)
    products = 0
    for i in range(600):
        n = rng.randint(1, 6)
        kind = i % 4
        if kind == 0:
            v = [CQ(0)] * (1 << n)
        elif kind == 3:
            v = list(rand_vector(rng, 1 << n))
        else:
            v = list(ProductVector([_rand_local_with_zeros(rng) for _ in range(n)]).flatten())
            if kind == 2:
                v[rng.randrange(len(v))] = rand_scalar(rng)
        pv = product_vector_from_flat(v, n)
        ref = product_vector_from_flat_rref(v, n)
        assert (pv is None) == (ref is None), i
        if pv is not None:
            assert pv.locals == ref.locals, i
            products += 1
    assert 200 < products < 500


def test_kernel_fallback_accepts_orthogonal_products():
    # ker diag(1, 0, 0, 1) = span{|01>, |10>}: the rref basis is already an
    # orthogonal product basis, so the exact branch decides
    diag = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    d = density_from_matrix((2, 2), diag)
    assert d.kernel_product_set is None
    kernel = entangle._kernel_product_basis(d)
    assert kernel is not None
    assert {m.flatten() for m in kernel.members} == {_flat(0, 1, 0, 0), _flat(0, 0, 1, 0)}
    res = range_product_scan(d)
    assert res.verdict == "found"
    assert res.iterations == 0
    assert solve_consistent(d.matrix, res.witness.flatten()) is not None


def test_kernel_fallback_rejects_non_orthogonal_products():
    # range span{(1, -1, -1, 0), e_3}: the rref kernel basis (1, 1, 0, 0) =
    # |0>(|0>+|1>) and (1, 0, 1, 0) = (|0>+|1>)|0> is product but not
    # orthogonal, so no product basis is in reach
    u, e3 = _flat(1, -1, -1, 0), _flat(0, 0, 0, 1)
    d = density_from_matrix((2, 2), outer(u, u) + outer(e3, e3))
    basis = nullspace_basis(d.matrix)
    assert [tuple(b) for b in basis] == [_flat(1, 1, 0, 0), _flat(1, 0, 1, 0)]
    assert all(product_vector_from_flat(b, 2) is not None for b in basis)
    assert entangle._kernel_product_basis(d) is None


@pytest.mark.parametrize("example", ["orthogonal", "non-orthogonal"])
def test_kernel_fallback_eliminates_the_operator_once(example, monkeypatch):
    """Without a kernel set, the scan reads its kernel basis from the
    operator's one LDL* certificate: ldl_hermitian runs once, and
    bareiss_rank and rref never, since the kernel vectors are factored
    without a row reduction.  The verdicts are those above."""
    from upblab import _kernels

    if example == "orthogonal":
        m = ExactMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
        expected = "found"
    else:
        u, e3 = _flat(1, -1, -1, 0), _flat(0, 0, 0, 1)
        m = outer(u, u) + outer(e3, e3)
        expected = "none_heuristic"
    d = density_from_matrix((2, 2), m)
    inputs = {"ldl_hermitian": [], "bareiss_rank": [], "rref": []}
    for name, seen in inputs.items():
        real = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels,
            name,
            lambda rows, *a, _seen=seen, _real=real: _seen.append(rows) or _real(rows, *a),
        )
    res = range_product_scan(d, budget=4, seed=0)
    assert res.verdict == expected
    assert inputs["ldl_hermitian"] == [m._triple_rows()]
    assert inputs["bareiss_rank"] == []
    assert inputs["rref"] == []


def test_import_leaves_numpy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, upblab; print('numpy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_attached_kernel_set_is_revalidated():
    from dataclasses import replace

    from upblab.product import build_product_set

    d = complement_projector(shifts_upb())
    assert entangle._kernel_product_basis(d) is d.kernel_product_set
    # a product set of the right size that is not in the kernel cannot be
    # attached
    wrong = build_product_set(
        [ProductVector.from_bits(b) for b in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))]
    )
    with pytest.raises(ValueError, match="not annihilated"):
        replace(d, kernel_product_set=wrong)
    # M x with zero real parts but nonzero imaginary parts: |w><w| (i|0>)
    # with w = (1, 1) is (i, i)
    w = _flat(1, 1)
    imaginary = build_product_set([ProductVector([LocalState.pair(CQ(0, 1), 0)])])
    with pytest.raises(ValueError, match="not annihilated"):
        density_from_matrix((2,), outer(w, w), kernel_product_set=imaginary)


def test_range_scan_takes_attached_kernel_set_without_elimination(monkeypatch):
    """A 5-qubit complement keeps its generating set, which construction
    checked against the matrix: the scan certifies from it, so neither rref
    (the nullspace fallback) nor bareiss_rank runs."""
    from upblab import _kernels

    d = rotated_complement(random.Random(3), 2)
    calls = []
    for name in ("rref", "bareiss_rank"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args)
        )
    assert entangle._kernel_product_basis(d) is d.kernel_product_set
    result = entangle.range_product_scan(d)
    assert result.verdict == "none_certified"
    assert not result.certificate.extendible
    assert calls == []


@pytest.mark.parametrize("branch", ["exact", "heuristic"])
def test_scan_refuses_a_negative_seed_before_any_elimination(monkeypatch, branch):
    from upblab import _kernels
    from upblab.catalog import fixture

    # the rank-5 state carries its kernel set; the Bell projector's kernel
    # has no product basis, so only the heuristic branch could answer it
    d = fixture("rank5_pptes_4q") if branch == "exact" else pure_density([1, 0, 0, 1], (2, 2))
    calls = []
    for name in ("ldl_hermitian", "bareiss_rank", "rref"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args)
        )
    with pytest.raises(ValueError, match="seed must be nonnegative"):
        range_product_scan(d, seed=-5)
    assert calls == []
    assert range_product_scan(d, budget=1, seed=0).verdict == (
        "found" if branch == "exact" else "none_heuristic"
    )
