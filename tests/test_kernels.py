"""Contracts of the elimination kernels that the callers rely on."""

import hashlib
import random
from fractions import Fraction

import upblab._kernels as kernels
from upblab import states
from upblab.linalg import ExactMatrix, as_vector, outer, verify_psd_certificate
from upblab.product import shifts_upb, tensor_upb_opb
from upblab.scalars import ComplexRational

from oracles import (
    ldl_reference,
    rand_hermitian,
    rand_scalar,
    rand_vector,
    random_psd,
    rotated_complement,
    scattered_blocks,
    sparse_low_rank_psd,
)


def test_rref_does_not_mutate_input():
    rng = random.Random(5)
    h = rand_hermitian(rng, 4)
    rows = h._triple_rows()
    snapshot = [list(r) for r in rows]
    kernels.rref(rows, 4, 4)
    kernels.ldl_hermitian(rows, 4)
    kernels.bareiss_rank(rows, 4, 4)
    assert rows == snapshot


def _ldl_corpus():
    rng = random.Random(20261018)
    mats = [rand_hermitian(rng, rng.randint(1, 8)) for _ in range(80)]
    mats += [rand_hermitian(rng, rng.randint(1, 7), psd=True) for _ in range(30)]
    mats += [sparse_low_rank_psd(rng, rng.randint(2, 12)) for _ in range(30)]
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


def _count_dense(monkeypatch):
    """The size of each run of the kernel's elimination loop, as it runs."""
    runs = []
    real_dense = kernels._ldl_dense

    def counted(rows, n):
        runs.append(n)
        return real_dense(rows, n)

    monkeypatch.setattr(kernels, "_ldl_dense", counted)
    return runs


def test_ldl_of_scattered_blocks_matches_fraction_reference(monkeypatch):
    """A block-diagonal matrix, its blocks scattered over shuffled indices,
    gives the whole-matrix record -- steps in pivot order across blocks, a
    negative diagonal the moment any block shows one, the least zero-
    diagonal pair over all blocks, witnesses of length n -- while blocks
    with equal entries are eliminated once."""
    i = ComplexRational(0, 1)
    mats = [
        # the late negative of {0, 2} shows after pivot 0, with {1, 3} left
        ExactMatrix.from_rows([[1, 0, 2, 0], [0, 2, 0, 1], [2, 0, 1, 0], [0, 1, 0, 2]]),
        # negative from the start in {1, 3} and {2}: the least index wins
        ExactMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 3], [0, 0, -1, 0], [0, 3, 0, -2]]),
        # two zero-diagonal pairs, (1, 3) and (0, 2), after pivot 4
        ExactMatrix.from_rows(
            [[0, 0, i, 0, 0], [0, 0, 0, 5, 0], [-i, 0, 0, 0, 0], [0, 5, 0, 0, 0], [0, 0, 0, 0, 3]]
        ),
    ]
    rng = random.Random(20261020)
    mats += [scattered_blocks(rng) for _ in range(400)]
    runs = _count_dense(monkeypatch)
    verdicts = {}
    split = shared = 0
    for m in mats:
        rows = m._triple_rows()
        runs.clear()
        rec = kernels.ldl_hermitian(rows, m.rows)
        assert rec == ldl_reference(rows, m.rows)
        verdicts[rec["verdict"]] = verdicts.get(rec["verdict"], 0) + 1
        blocks = kernels._blocks(rows, m.rows)
        split += len(blocks) > 1
        shared += len(runs) < len(blocks)
    late = kernels.ldl_hermitian(mats[0]._triple_rows(), 4)
    assert late["verdict"] == "neg_diag" and late["order"] == [0]
    assert min(verdicts.get(v, 0) for v in ("psd", "neg_diag", "zero_diag")) >= 20, verdicts
    assert split > 200 and shared > 20, (split, shared)


def test_block_copies_share_one_elimination(monkeypatch):
    """The complement of U (x) (a basis of two qubits) is C (x) I_4: four
    interleaved copies of one 8 x 8 block.  One ldl_hermitian call runs
    the elimination loop once, on 8 indices, and still gives the record of
    the whole 32 x 32 matrix."""
    m = states.complement_projector(tensor_upb_opb(shifts_upb(), 2)).matrix
    rows = m._triple_rows()
    runs = _count_dense(monkeypatch)
    rec = kernels.ldl_hermitian(rows, m.rows)
    assert runs == [8]
    assert rec["verdict"] == "psd" and len(rec["order"]) == 16
    assert rec == ldl_reference(rows, m.rows)


def _count_gcd(monkeypatch):
    calls = []
    real_gcd = kernels.gcd

    def counted(*args):
        calls.append(len(args))
        return real_gcd(*args)

    monkeypatch.setattr(kernels, "gcd", counted)
    return calls


def test_schur_update_forms_each_hermitian_pair_once(monkeypatch):
    """I + v v-dagger with every v_k nonzero keeps a dense Schur complement
    at every step, so step t updates the m(m+1)/2 pairs j >= i of its
    m = n - t multipliers; forming both triangles would take m^2.  With v
    scaled by 2^-300 every denominator passes _REDUCE_BITS, so each update
    reduces with one gcd and the gcd calls count the updates.  The same
    matrix with small entries reduces no update at all."""
    v = [ComplexRational(1, 1), 2, ComplexRational(-1, 3), ComplexRational(0, -2), 3, 1]
    n = len(v)
    calls = _count_gcd(monkeypatch)
    scale = ComplexRational(Fraction(1, 1 << 300))
    pairs = sum(k * (k + 1) // 2 for k in range(1, n))
    for w, reduced in ((v, 0), ([scale * x for x in v], pairs)):
        m = ExactMatrix.identity(n) + outer(as_vector(w), as_vector(w))
        calls.clear()
        rec = kernels.ldl_hermitian(m._triple_rows(), n)
        assert rec["verdict"] == "psd" and rec["order"] == list(range(n))
        assert [len(frow) for _, frow in rec["steps"]] == list(range(n - 1, -1, -1))
        assert calls == [3] * reduced


def _with_schur(rng, h):
    """A matrix whose first pivot is a positive rational and whose Schur
    complement after it is exactly ``h``."""
    a = ComplexRational(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    b = [rand_scalar(rng) for _ in range(h.rows)]
    rows = [[a] + b]
    for i in range(h.rows):
        bi = b[i].conjugate()
        rows.append([bi] + [bi * b[j] / a + h.at(i, j) for j in range(h.rows)])
    return ExactMatrix.from_rows(rows)


def _traced_ldl(monkeypatch, rows, n):
    """Run the kernel and report, per pivot read and for the offending
    entry of a failure, whether the kernel read it unreduced.  The kernel
    calls cq_make once per pivot read, once per multiplier's coefficient and
    once for the failure's offending entry, in that order."""
    unreduced = []
    real_make = kernels.cq_make

    def traced(*t):
        out = real_make(*t)
        unreduced.append(out != t)
        return out

    monkeypatch.setattr(kernels, "cq_make", traced)
    rec = kernels.ldl_hermitian(rows, n)
    monkeypatch.setattr(kernels, "cq_make", real_make)
    pivots, k = [], 0
    for _, frow in rec["steps"]:
        pivots.append(unreduced[k])
        k += 1 + len(frow)
    offender = unreduced[k] if rec["verdict"] != "psd" else None
    assert k + (offender is not None) == len(unreduced)
    return rec, pivots, offender


def test_ldl_matches_fraction_reference_across_the_reduce_threshold(monkeypatch):
    """Schur entries are reduced only when read or past _REDUCE_BITS, and
    the record must not show it: over big-entry PSD and indefinite matrices
    whose denominators cross the threshold mid-elimination, and over
    small-entry failures whose offending entry is read unreduced, the whole
    record equals a Fraction-arithmetic LDL that shares no code with the
    kernel."""
    rng = random.Random(20261019)
    gcd_calls = _count_gcd(monkeypatch)
    big = [random_psd(rng, n, rng.randint(1, n)) for n in range(2, 13) for _ in range(3)]
    big += [
        random_psd(rng, n, rng.randint(1, n)) - random_psd(rng, n, rng.randint(1, n))
        for n in range(2, 11)
    ]
    offenders = {"neg_diag": [], "zero_diag": []}
    while min(len(v) for v in offenders.values()) < 12:
        k = rng.randint(1, 5)
        h = rand_hermitian(rng, k)
        if rng.random() < 0.5:
            # a zero diagonal leaves only the off-diagonal test
            h = ExactMatrix.from_rows(
                [[h.at(i, j) if i != j else 0 for j in range(k)] for i in range(k)]
            )
        m = _with_schur(rng, h)
        # the inputs are reduced, so an unreduced offender came from an update
        rec, _, offender = _traced_ldl(monkeypatch, m._triple_rows(), m.rows)
        if offender:
            offenders[rec["verdict"]].append(m)
    verdicts = {}
    unreduced_pivots = 0
    for m in big + offenders["neg_diag"] + offenders["zero_diag"]:
        rows = m._triple_rows()
        rec, pivots, _ = _traced_ldl(monkeypatch, rows, m.rows)
        assert rec == ldl_reference(rows, m.rows)
        verdicts[rec["verdict"]] = verdicts.get(rec["verdict"], 0) + 1
        unreduced_pivots += sum(pivots)
    assert set(verdicts) == {"psd", "neg_diag", "zero_diag"}
    assert unreduced_pivots > 0
    # the big-entry matrices took their denominators past the threshold
    assert len(gcd_calls) > 0


def test_rotated_six_qubit_report_reduces_no_schur_update(monkeypatch):
    """Denominators of a rotated 6-qubit complement stay below
    _REDUCE_BITS, so its PPT report runs no Schur gcd, and every
    certificate still re-checks."""
    calls = _count_gcd(monkeypatch)
    d = rotated_complement(random.Random(1), 3)
    rep = states.ppt_report(d)
    assert calls == []
    assert len(rep.certificates) == 31
    for mask, cert in rep.certificates.items():
        assert verify_psd_certificate(states.partial_transpose(d, mask).matrix, cert), mask
