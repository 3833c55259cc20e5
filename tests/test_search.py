import random

from upblab.catalog import canonical_json, scan_report_to_doc
from upblab.product import extend_or_certify
from upblab.search import (
    Infeasible,
    Template,
    realize_template,
    sample_template,
    scan,
)


def shifts_pattern_template() -> Template:
    # one perfect matching of the four members per party
    return Template(
        parties=3,
        size=4,
        witness_choice={
            (0, 1): 0,
            (2, 3): 0,
            (0, 2): 1,
            (1, 3): 1,
            (0, 3): 2,
            (1, 2): 2,
        },
    )


def test_realize_shifts_pattern_is_unextendible():
    s = realize_template(shifts_pattern_template(), seed=5)
    assert not isinstance(s, Infeasible)
    assert s.verified and len(s.members) == 4
    assert not extend_or_certify(s).extendible


def test_realized_witness_graph_contains_template():
    t = shifts_pattern_template()
    s = realize_template(t, seed=9)
    for (i, j), p in t.witness_choice.items():
        assert p in s.witness_graph.parties_for(i, j)


def test_odd_cycle_is_infeasible():
    t = Template(
        parties=2,
        size=3,
        witness_choice={(0, 1): 0, (1, 2): 0, (0, 2): 0},
    )
    out = realize_template(t, seed=1)
    assert isinstance(out, Infeasible)


def test_two_member_template():
    t = Template(parties=2, size=2, witness_choice={(0, 1): 0})
    s = realize_template(t, seed=3)
    assert not isinstance(s, Infeasible)
    assert len(s.members) == 2


def test_scan_reproducible_byte_for_byte():
    a = scan(3, 4, 200, seed=7)
    b = scan(3, 4, 200, seed=7)
    assert canonical_json(scan_report_to_doc(a)) == canonical_json(scan_report_to_doc(b))
    c = scan(3, 4, 200, seed=8)
    assert canonical_json(scan_report_to_doc(a)) != canonical_json(scan_report_to_doc(c))


def test_scan_finds_size_four_upbs_on_three_qubits():
    rep = scan(3, 4, 1000, seed=7)
    assert rep.upbs_found
    for s in rep.upbs_found:
        assert not extend_or_certify(s).extendible


def test_scan_impossible_sizes_find_nothing():
    # sizes 2^n - 1, -2, -3 and the pigeonhole size n are never unextendible
    for size, budget in ((3, 300), (5, 300), (6, 300), (7, 300)):
        rep = scan(3, size, budget, seed=11)
        if rep.upbs_found:
            from upblab.catalog import product_set_to_doc

            raise AssertionError(
                f"scan produced an impossible UPB of size {size}: "
                f"{product_set_to_doc(rep.upbs_found[0])}"
            )


def test_scan_counts_are_consistent():
    rep = scan(3, 4, 500, seed=21)
    assert rep.templates_tried == 500
    assert rep.feasible == rep.ops_built
    assert rep.extendible + len(rep.upbs_found) == rep.feasible


def test_scan_rejects_oversized_request():
    import pytest

    with pytest.raises(ValueError):
        scan(2, 5, 10, seed=0)


def test_balanced_sampling_respects_choice_count():
    rng = random.Random(4)
    t = sample_template(4, 6, rng, balanced=True)
    assert len(t.witness_choice) == 15
    counts = [len(t.party_edges(p)) for p in range(4)]
    assert max(counts) - min(counts) <= 1
