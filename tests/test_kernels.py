"""Contracts of the elimination kernels that the callers rely on."""

import hashlib
import random

import upblab._kernels as kernels
from upblab import states
from upblab.linalg import ExactMatrix, as_vector, outer
from upblab.scalars import ComplexRational

from oracles import rand_hermitian, rand_scalar, rotated_complement


def test_rref_does_not_mutate_input():
    rng = random.Random(5)
    h = rand_hermitian(rng, 4)
    rows = h._triple_rows()
    snapshot = [list(r) for r in rows]
    kernels.rref(rows, 4, 4)
    kernels.ldl_hermitian(rows, 4)
    kernels.bareiss_rank(rows, 4, 4)
    assert rows == snapshot


def _sparse_low_rank_psd(rng, n):
    """G G-dagger for an n x r factor G with most entries zero."""
    r = rng.randint(1, max(1, n // 2))
    g = ExactMatrix.from_rows(
        [[rand_scalar(rng) if rng.random() < 0.3 else 0 for _ in range(r)] for _ in range(n)]
    )
    return g @ g.dagger()


def _ldl_corpus():
    rng = random.Random(20261018)
    mats = [rand_hermitian(rng, rng.randint(1, 8)) for _ in range(80)]
    mats += [rand_hermitian(rng, rng.randint(1, 7), psd=True) for _ in range(30)]
    mats += [_sparse_low_rank_psd(rng, rng.randint(2, 12)) for _ in range(30)]
    i = ComplexRational(0, 1)
    mats += [
        ExactMatrix.from_rows([[0, 1], [1, 0]]),
        ExactMatrix.from_rows([[0, i], [-i, 0]]),
        ExactMatrix.from_rows([[0, 0, 0], [0, 0, 2], [0, 2, 0]]),
        # The zero diagonal appears only in the Schur block after one pivot.
        ExactMatrix.from_rows([[1, 1, 1], [1, 1, 2], [1, 2, 1]]),
        ExactMatrix.zeros(3, 3),
    ]
    d = rotated_complement(rng, 2)
    mats += [
        states.partial_transpose(d, {p for p in range(5) if bits >> p & 1}).matrix
        for bits in range(32)
    ]
    return mats


def test_ldl_output_is_pinned():
    """The whole record -- verdict, order, pivots, steps, witness, pair and
    value -- over a seeded corpus hashes to the value recorded before the
    kernel's sparse Schur update, so that rewrite changed no certificate."""
    h = hashlib.sha256()
    verdicts = {}
    for m in _ldl_corpus():
        rec = kernels.ldl_hermitian(m._triple_rows(), m.rows)
        verdicts[rec["verdict"]] = verdicts.get(rec["verdict"], 0) + 1
        h.update(repr(sorted(rec.items())).encode())
    assert set(verdicts) == {"psd", "neg_diag", "zero_diag"}
    assert h.hexdigest() == "88b3b44ee272e2c4d18f126c3215bed4ff0cbc3889c3c93072be8dd74040c084"


def test_schur_update_forms_each_hermitian_pair_once(monkeypatch):
    """The kernel reduces each updated entry with one gcd.  I + v v-dagger
    with every v_k nonzero keeps a dense Schur complement at every step,
    so step t updates the m(m+1)/2 pairs j >= i of its m = n - t
    multipliers; forming both triangles would take m^2."""
    v = as_vector([ComplexRational(1, 1), 2, ComplexRational(-1, 3), ComplexRational(0, -2), 3, 1])
    n = len(v)
    m = ExactMatrix.identity(n) + outer(v, v)
    calls = []
    real_gcd = kernels.gcd

    def counted(*args):
        calls.append(len(args))
        return real_gcd(*args)

    monkeypatch.setattr(kernels, "gcd", counted)
    rec = kernels.ldl_hermitian(m._triple_rows(), n)
    assert rec["verdict"] == "psd" and rec["order"] == list(range(n))
    assert [len(frow) for _, frow in rec["steps"]] == list(range(n - 1, -1, -1))
    assert len(calls) == sum(k * (k + 1) // 2 for k in range(1, n))
