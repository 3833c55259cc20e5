"""Contracts of the elimination kernels that the callers rely on."""

import random

import upblab._kernels as kernels

from oracles import rand_hermitian


def test_rref_does_not_mutate_input():
    rng = random.Random(5)
    h = rand_hermitian(rng, 4)
    rows = h._triple_rows()
    snapshot = [list(r) for r in rows]
    kernels.rref(rows, 4, 4)
    kernels.ldl_hermitian(rows, 4)
    kernels.bareiss_rank(rows, 4, 4)
    assert rows == snapshot
