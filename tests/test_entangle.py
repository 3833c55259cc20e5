import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from upblab import entangle
from upblab.entangle import (
    product_vector_from_flat,
    range_product_scan,
    rank2_tripartite_decompose,
    schmidt_rank,
)
from upblab.errors import BadCutError, DegenerateSplitError, NotRankTwoError
from upblab.linalg import (
    ExactMatrix,
    as_vector,
    kron_vec,
    matrix_rank,
    outer,
    solve_consistent,
)
from upblab.product import ProductVector, shifts_upb
from upblab.qubits import LocalState
from upblab.scalars import ComplexRational
from upblab.states import complement_projector, density_from_matrix

from oracles import flattening_entrywise, rand_vector, random_grouped_tensor

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


def test_schmidt_rank_examples():
    v = ProductVector([LocalState.pair(1, 1), LocalState.pair(2, -1)]).flatten()
    assert schmidt_rank(v, (2, 2), {0}) == 1
    assert schmidt_rank(_flat(1, 0, 0, 1), (2, 2), {0}) == 2
    w = _flat(1, 0, 0, 1, 0, 1, 0, 0)  # |000> + |011> + |101>
    assert schmidt_rank(w, (2, 2, 2), {0}) == 2


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2), (2, 2, 2, 2)])
def test_schmidt_rank_matches_digit_loop_flattening(dims):
    rng = random.Random(sum(dims))
    seen = set()
    for _ in range(6):
        v = random_grouped_tensor(rng, dims)
        # every proper cut, multi-party and non-contiguous ones included
        for bits in range(1, (1 << len(dims)) - 1):
            cut = {p for p in range(len(dims)) if bits >> p & 1}
            r = schmidt_rank(v, dims, cut)
            assert r == matrix_rank(flattening_entrywise(v, dims, cut))
            seen.add(r)
    # the tensors are entangled across some cuts and not others
    assert len(seen) > 1


def test_schmidt_rank_bad_cut():
    with pytest.raises(BadCutError):
        schmidt_rank(_flat(1, 0, 0, 1), (2, 2), set())
    with pytest.raises(BadCutError):
        schmidt_rank(_flat(1, 0, 0, 1), (2, 2), {0, 1})
    with pytest.raises(BadCutError):
        schmidt_rank(_flat(1, 0, 0), (2, 2), {0})


def test_schmidt_rank_invariant_under_local_invertibles():
    rng = random.Random(17)
    for _ in range(20):
        v = list(rand_vector(rng, 8))
        # invertible on the first party: v'_(i jk) = g_i0 v_(0 jk) + g_i1 v_(1 jk)
        while True:
            g = [[CQ(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(2)] for _ in range(2)]
            if not (g[0][0] * g[1][1] - g[0][1] * g[1][0]).is_zero():
                break
        w = [None] * 8
        for jk in range(4):
            w[jk] = g[0][0] * v[jk] + g[0][1] * v[4 + jk]
            w[4 + jk] = g[1][0] * v[jk] + g[1][1] * v[4 + jk]
        for cut in ({0}, {1}, {2}):
            assert schmidt_rank(v, (2, 2, 2), cut) == schmidt_rank(w, (2, 2, 2), cut)


def _term_vec(term):
    vec = term[0]
    for loc in term[1:]:
        vec = kron_vec(vec, loc)
    return vec


def _canonical(term_vec):
    k = next(i for i, x in enumerate(term_vec) if not x.is_zero())
    piv = term_vec[k]
    return tuple((x / piv).t for x in term_vec)


def test_decompose_ghz():
    v = _flat(1, 0, 0, 0, 0, 0, 0, 1)
    dec = rank2_tripartite_decompose(v, (2, 2, 2))
    assert dec.unique
    assert {_canonical(t) for t in map(_term_vec, dec.terms)} == {
        _canonical(_flat(1, 0, 0, 0, 0, 0, 0, 0)),
        _canonical(_flat(0, 0, 0, 0, 0, 0, 0, 1)),
    }


def test_decompose_shared_third_factor_not_unique():
    v = _flat(1, 0, 0, 0, 0, 0, 1, 0)  # (|00> + |11>) (x) |0>
    dec = rank2_tripartite_decompose(v, (2, 2, 2))
    assert len(dec.terms) == 2
    assert not dec.unique
    total = [CQ(0)] * 8
    for t in dec.terms:
        tv = _term_vec(t)
        total = [a + b for a, b in zip(total, tv)]
    assert tuple(total) == tuple(v)


def test_decompose_w_state_degenerate():
    w = _flat(0, 1, 1, 0, 1, 0, 0, 0)
    with pytest.raises(DegenerateSplitError):
        rank2_tripartite_decompose(w, (2, 2, 2))


def test_decompose_rejects_rank_three():
    v = [CQ(0)] * 27
    # |000> + |111> + |222> on three qutrits
    v[0] = CQ(1)
    v[13] = CQ(1)
    v[26] = CQ(1)
    with pytest.raises(NotRankTwoError):
        rank2_tripartite_decompose(v, (3, 3, 3))


def _random_independent_product_pair(rng, dims=(2, 2, 2), complex_ok=True):
    while True:
        t1 = [rand_vector(rng, d, complex_ok) for d in dims]
        t2 = [rand_vector(rng, d, complex_ok) for d in dims]
        ok = True
        for a, b in zip(t1, t2):
            m = ExactMatrix.from_rows([list(a), list(b)])
            from upblab.linalg import matrix_rank

            if matrix_rank(m) != 2:
                ok = False
                break
        if ok:
            return t1, t2


def test_decompose_recovers_random_pairs():
    rng = random.Random(55)
    for _ in range(25):
        t1, t2 = _random_independent_product_pair(rng)
        v1, v2 = _term_vec(t1), _term_vec(t2)
        v = tuple(a + b for a, b in zip(v1, v2))
        dec = rank2_tripartite_decompose(v, (2, 2, 2))
        assert dec.unique
        assert {_canonical(t) for t in map(_term_vec, dec.terms)} == {
            _canonical(v1),
            _canonical(v2),
        }


def test_decompose_canonical_under_local_scaling():
    rng = random.Random(99)
    t1, t2 = _random_independent_product_pair(rng)
    v = tuple(a + b for a, b in zip(_term_vec(t1), _term_vec(t2)))
    dec = rank2_tripartite_decompose(v, (2, 2, 2))
    # invertible diagonal scaling on party 1: D = diag(2, -3)
    scaled = list(v)
    for j in range(4):
        scaled[j] = v[j] * 2
        scaled[4 + j] = v[4 + j] * (-3)
    dec2 = rank2_tripartite_decompose(tuple(scaled), (2, 2, 2))
    scaled_terms = set()
    for t in dec.terms:
        tv = _term_vec(t)
        sv = list(tv)
        for j in range(4):
            sv[j] = tv[j] * 2
            sv[4 + j] = tv[4 + j] * (-3)
        scaled_terms.add(_canonical(sv))
    assert {_canonical(_term_vec(t)) for t in dec2.terms} == scaled_terms


def test_decompose_mixed_dimensions():
    rng = random.Random(7)
    t1, t2 = _random_independent_product_pair(rng, dims=(2, 3, 2))
    v = tuple(a + b for a, b in zip(_term_vec(t1), _term_vec(t2)))
    dec = rank2_tripartite_decompose(v, (2, 3, 2))
    assert dec.unique
    assert {_canonical(t) for t in map(_term_vec, dec.terms)} == {
        _canonical(_term_vec(t1)),
        _canonical(_term_vec(t2)),
    }


# One tensor per return path of rank2_tripartite_decompose.
_DECOMPOSE_PATHS = {
    "rank-one tail": _flat(2, 1, 6, 3, 0, 0, 0, 0),  # |0> (x) (2|0> + 6|1>) (x) (|0> + |1>/2)
    "rank-two tail": _flat(1, 0, 0, 1, 0, 0, 0, 0),  # |0> (x) (|00> + |11>)
    "degenerate pencil": _flat(1, 0, 0, 0, 0, 1, 0, 0),  # |000> + |101>
    "two points": _flat(1, 0, 0, 0, 0, 0, 0, 1),  # |000> + |111>
}


@pytest.mark.parametrize("path", sorted(_DECOMPOSE_PATHS))
def test_decompose_checks_the_sum_on_every_path(path, monkeypatch):
    v = _DECOMPOSE_PATHS[path]
    dec = rank2_tripartite_decompose(v, (2, 2, 2))
    assert len(dec.terms) == (1 if path == "rank-one tail" else 2)
    assert dec.unique == (path == "two points")
    split = entangle._rank1_split

    def doubled(mat):
        col, row = split(mat)
        return tuple(2 * x for x in col), row

    # every path builds its terms from _rank1_split; a wrong split must be
    # caught by the sum check instead of being returned
    monkeypatch.setattr(entangle, "_rank1_split", doubled)
    with pytest.raises(AssertionError, match="sum back"):
        rank2_tripartite_decompose(v, (2, 2, 2))


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
    # a verified set of the right size that is not in the kernel
    wrong = build_product_set(
        [ProductVector.from_bits(b) for b in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))]
    )
    assert entangle._kernel_product_basis(replace(d, kernel_product_set=wrong)) is not wrong
    # M x with zero real parts but nonzero imaginary parts: |w><w| (i|0>)
    # with w = (1, 1) is (i, i)
    w = _flat(1, 1)
    imaginary = build_product_set([ProductVector([LocalState.pair(CQ(0, 1), 0)])])
    d = density_from_matrix((2,), outer(w, w), kernel_product_set=imaginary)
    assert entangle._kernel_product_basis(d) is not imaginary
