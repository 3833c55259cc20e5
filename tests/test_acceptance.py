"""Acceptance suite: one test per headline guarantee, each printing a
single PASS line with its measurements.  All algebraic assertions are
exact (zero tolerance); floats appear only in the flagged cross-checks,
at the tolerances stated inline.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from fractions import Fraction

import numpy as np

from upblab.blocks import member_keys, opb_from_blocks, opb_to_blocks
from upblab.catalog import ThetaCatalog, fixture, min_upb_size, size_status
from upblab.entangle import range_product_scan
from upblab.linalg import (
    ExactMatrix,
    projector,
    psd_certificate,
    solve_consistent,
    verify_psd_certificate,
)
from upblab.product import ProductVector, covering_search, extend_or_certify, shifts_upb
from upblab.qubits import LocalState
from upblab.scalars import ComplexRational
from upblab.search import scan
from upblab.states import (
    birank,
    complement_projector,
    density_from_matrix,
    partial_trace,
    partial_transpose,
    ppt_report,
    range_quadratic_form,
    subtract_product,
)

from oracles import (
    covering_search_tree,
    dagger,
    matmul,
    oracle_extendible,
    rand_vector,
    random_feasible_ops,
    rotated_complement,
    search_outcome,
    witnesses_pairwise,
)
from test_blocks import random_block_spec

K0 = LocalState.ket(0)


def _report(name: str, started: float, budget_s: float, detail: str):
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"[FAIL] {name}: took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[PASS] {name}: {detail} ({elapsed:.2f}s)")


def test_shifts_suite(tmp_path):
    from upblab.cli import main

    t0 = time.monotonic()
    s = fixture("shifts")
    assert len(s.members) == 4
    assert not extend_or_certify(s).extendible
    # same answer through the command line
    path = tmp_path / "shifts.json"
    assert main(["fixture", "shifts", "--json", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    assert main(["extend", str(path)]) == 0  # unextendible

    sigma = complement_projector(s)
    assert sigma.trace_norm == 1
    assert sigma.rank() == 4

    rep = ppt_report(sigma)
    assert len(rep.certificates) == 3 and rep.is_ppt

    reduced = tuple(partial_trace(sigma, {p}).rank() for p in range(3))
    assert reduced == (2, 2, 2)

    res = range_product_scan(sigma)
    assert res.verdict == "none_certified"
    _report(
        "shifts suite",
        t0,
        5.0,
        "UPB certified; complement rank 4, trace 1, PPT 3/3, reduced ranks (2,2,2), "
        "no product vector in range",
    )


def test_rank5_state_suite():
    t0 = time.monotonic()
    kernel = fixture("rank5_pptes_4q_kernel")
    assert len(kernel.members) == 11
    rho = complement_projector(kernel)

    # direct block construction must agree entry for entry
    sigma = complement_projector(shifts_upb())
    p0000 = projector(ProductVector([K0] * 4).flatten())
    p1 = ExactMatrix.from_rows([[0, 0], [0, 1]])
    direct = (p0000 + p1.kron(sigma.matrix.scale(ComplexRational(4)))).scale(
        ComplexRational(Fraction(1, 5))
    )
    assert rho.matrix == direct

    assert rho.rank() == 5
    rep = ppt_report(rho)
    assert len(rep.certificates) == 7 and rep.is_ppt

    res = range_product_scan(rho)
    assert res.verdict == "found"
    assert solve_consistent(rho.matrix, res.witness.flatten()) is not None
    zero = ProductVector([K0] * 4).flatten()
    assert range_quadratic_form(rho.matrix, zero) is not None

    b = birank(rho)
    assert b.rank == 5 and b.pt_rank <= 5

    rho5 = fixture("rank5_pptes_5q")
    assert rho5.rank() == 5
    rep5 = ppt_report(rho5)
    assert len(rep5.certificates) == 15 and rep5.is_ppt
    _report(
        "rank-5 state suite",
        t0,
        60.0,
        f"two constructions equal; rank 5, PPT 7/7, product vector found, "
        f"birank ({b.rank},{b.pt_rank}); 5-qubit extension rank 5, PPT 15/15",
    )


def test_extendibility_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    instances = 0
    extendible_count = 0
    while instances < 500:
        n = rng.randint(2, 4)
        size = rng.randint(2, min(8, 2 ** n))
        s = random_feasible_ops(rng, n, size)
        verdict = extend_or_certify(s).extendible
        assert verdict == oracle_extendible(s), (n, size, instances)
        # the structure's witnesses are those of pairwise verification
        assert s.structure.witnesses() == witnesses_pairwise(s.members), instances
        # the memoized search returns what the whole tree returns
        assert search_outcome(covering_search, s.structure, n) == search_outcome(
            covering_search_tree, s.structure, n
        ), instances
        extendible_count += verdict
        instances += 1
    _report(
        "extendibility oracle equivalence",
        t0,
        120.0,
        f"500 instances agree ({extendible_count} extendible, "
        f"{500 - extendible_count} unextendible), witness maps and search trees included",
    )


def test_no_exotic_upbs_found_by_scan(tmp_path):
    import json

    from upblab.cli import main

    t0 = time.monotonic()
    reports = []
    for qubits, size, budget, seed in ((4, 11, 10_000, 41), (5, 27, 2_000, 52)):
        out = tmp_path / f"scan_{qubits}_{size}.json"
        code = main(
            ["search", "--qubits", str(qubits), "--size", str(size),
             "--budget", str(budget), "--seed", str(seed), "--json", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["upbs_found"] == []
        assert doc["extendible"] == doc["feasible"]
        assert doc["templates_tried"] == budget
        reports.append(doc)
    # direct library runs must agree with the CLI reports
    rep4 = scan(4, 11, 10_000, seed=41)
    assert rep4.feasible == reports[0]["feasible"] and rep4.upbs_found == ()
    rep5 = scan(5, 27, 2_000, seed=52)
    assert rep5.feasible == reports[1]["feasible"] and rep5.upbs_found == ()
    _report(
        "size 2^n-5 evidence scan",
        t0,
        600.0,
        f"4 qubits/size 11: {reports[0]['feasible']} realized, all extendible; "
        f"5 qubits/size 27: {reports[1]['feasible']} realized, all extendible; "
        f"zero UPBs (CLI and library reports agree)",
    )


def test_catalog_conformance():
    t0 = time.monotonic()
    expected_minima = {
        1: 2, 2: 4, 3: 4, 4: 6, 5: 6, 6: 8, 7: 8, 8: 11,
        9: 10, 10: 12, 11: 12, 12: 16, 13: 14, 14: 16, 15: 16, 16: 20,
    }
    for n, m in expected_minima.items():
        assert min_upb_size(n) == m, n

    four = {6, 7, 8, 9, 10, 12, 16}
    for k in range(1, 17):
        assert size_status(4, k).status == ("member" if k in four else "not_member")

    for n in range(3, 11):
        full = 2 ** n
        for c in (1, 2, 3, 5):
            assert size_status(n, full - c).status == "not_member", (n, c)

    assert ThetaCatalog.for_qubits(5).open_sizes == {11}
    assert ThetaCatalog.for_qubits(6).open_sizes == {10, 11, 13}
    assert ThetaCatalog.for_qubits(7).open_sizes == {10, 11, 13, 14, 15, 19}
    _report(
        "catalog conformance",
        t0,
        60.0,
        "minima for 1..16 qubits, the full 4-qubit table, near-full exclusions "
        "for 3..10 qubits, and the exact open lists",
    )


def _random_separable_two_by_n(rng, n, terms):
    # Complex qubit factors against real second-side factors: the partial
    # transpose is then the entrywise conjugate, so the extremal subtraction
    # weight coincides on both sides and the transpose rank must track the
    # rank.  (For fully complex factors the two extremal weights genuinely
    # differ; see test_states.test_complex_summand_may_keep_transpose_rank.)
    acc = ExactMatrix.zeros(2 * n, 2 * n)
    first = None
    for t in range(terms):
        a = rand_vector(rng, 2, complex_ok=True)
        b = rand_vector(rng, n, complex_ok=False)
        v = tuple(x * y for x in a for y in b)
        w = ComplexRational(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        acc = acc + projector(v).scale(w)
        if t == 0:
            first = v
    return density_from_matrix((2, n), acc), first


def test_rank_drop_subtraction_suite():
    t0 = time.monotonic()
    rng = random.Random(606)
    nontrivial = 0
    for i in range(100):
        n = rng.randint(2, 8)
        d, v = _random_separable_two_by_n(rng, n, rng.randint(2, 5))
        nontrivial += partial_transpose(d, {0}).matrix != d.matrix
        before = birank(d)
        out, weight = subtract_product(d, v)  # re-verifies PSD and rank drop
        assert weight > 0
        after = birank(out)
        assert after.rank == before.rank - 1, i
        assert after.pt_rank == before.pt_rank - 1, i
        assert psd_certificate(partial_transpose(out, {0}).matrix).is_psd, i
    assert nontrivial >= 80  # the transpose must actually change the matrix
    _report(
        "extremal subtraction suite",
        t0,
        120.0,
        f"100 separable 2xN states: PSD kept, rank and transpose rank each "
        f"drop by 1 ({nontrivial} with a nontrivial transpose)",
    )


def test_block_opb_roundtrip_suite():
    t0 = time.monotonic()
    rng = random.Random(808)
    for i in range(50):
        side2 = rng.randint(1, 8)
        m = rng.randint(1, min(4, side2))
        spec = random_block_spec(rng, side2, m)
        opb = opb_from_blocks(spec)
        rec = opb_to_blocks(opb)
        assert rec.m == spec.m, i
        assert sorted(rec.block_dims) == sorted(spec.block_dims), i
        assert member_keys(opb_from_blocks(rec)) == member_keys(opb), i
    _report(
        "block OPB roundtrip suite",
        t0,
        120.0,
        "50 random block specs: block count, dimensions and members recovered",
    )


def test_exact_vs_float_psd_crosscheck():
    t0 = time.monotonic()
    from oracles import rand_hermitian, rand_scalar

    rng = random.Random(909)
    compared = 0
    psd_count = 0
    for i in range(200):
        n = rng.randint(1, 16)
        kind = i % 4
        if kind in (0, 1):
            # full-column Gram matrix: PSD, usually nonsingular
            g = ExactMatrix.from_rows(
                [[rand_scalar(rng) for _ in range(n)] for _ in range(n)]
            )
            m = matmul(g, dagger(g))
        elif kind == 2:
            m = rand_hermitian(rng, n, psd=True)  # often singular: lam_min = 0
        else:
            m = rand_hermitian(rng, n, psd=False)  # generically indefinite
        cert = psd_certificate(m)
        assert verify_psd_certificate(m, cert), i
        psd_count += cert.is_psd
        lam_min = float(np.linalg.eigvalsh(m.to_numpy()).min())
        if abs(lam_min) > 1e-6:
            compared += 1
            assert cert.is_psd == (lam_min > -1e-9), (i, lam_min, cert.verdict)
    assert compared >= 120
    _report(
        "exact vs float PSD cross-check",
        t0,
        120.0,
        f"200 Hermitian matrices ({psd_count} PSD): certificates re-validated; "
        f"float eigenvalue sign agreed on all {compared} decisive cases",
    )


def test_rotated_six_qubit_certificates_recheck():
    t0 = time.monotonic()
    d = rotated_complement(random.Random(1), 3)
    rep = ppt_report(d)
    assert rep.is_ppt and len(rep.certificates) == 31
    assert verify_psd_certificate(d.matrix, d.psd())
    for mask, cert in rep.certificates.items():
        assert verify_psd_certificate(partial_transpose(d, mask).matrix, cert), mask
        # every partial transpose of a complement keeps its rank
        assert cert.rank == d.rank(), mask
    _report(
        "rotated 6-qubit certificate re-check",
        t0,
        5.0,
        f"complement of rank {d.rank()} and its 31 partial transposes: "
        "every PSD certificate re-validated over Gaussian integers",
    )
