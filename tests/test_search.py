import hashlib
import random

import pytest

from upblab import search
from upblab.catalog import canonical_json, scan_report_to_doc
from upblab.product import class_masks, covering_search, extend_or_certify
from upblab.search import (
    Infeasible,
    Template,
    label_template,
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


def test_label_decision_agrees_with_the_realized_set():
    # The scan decides each draw on its angle numerators; the decision and
    # its branch count must be those of the exact realized set.
    shapes = [(3, 4), (3, 5), (4, 6), (4, 8), (5, 6), (4, 11)]
    rng = random.Random(2024)
    feasible = unextendible = 0
    for parties, size in shapes:
        for balanced in (False, True):
            for _ in range(200):
                t = sample_template(parties, size, rng, balanced=balanced)
                seed = rng.randrange(1 << 30)
                grid = label_template(t, seed)
                realized = realize_template(t, seed)
                if isinstance(grid, Infeasible):
                    assert realized == grid
                    continue
                feasible += 1
                # numerators are exactly the phase classes at every party
                keys = [[l.phase_key() for l in m.locals] for m in realized.members]
                for by_label, by_key in zip(
                    class_masks(grid, parties), class_masks(keys, parties)
                ):
                    assert sorted(by_label.values()) == sorted(by_key.values())
                assignment, branches = covering_search(
                    grid, class_masks(grid, parties), parties
                )
                decision = extend_or_certify(realized)
                assert (assignment is not None) == decision.extendible
                assert branches == decision.branches_explored
                unextendible += assignment is None
    assert feasible >= 800
    assert unextendible > 0


# Canonical reports recorded before the scan decided draws on labels.
_PINNED_SCANS = [
    ((3, 4, 1000, 7), (601, 594, 7), "46f03194dd5c1fc8d9fed0fa75e606316937999865c60c94920b8e2bc460dc41"),
    ((4, 6, 300, 5), (80, 80, 0), "a032270296e327e5bef2438fc982cc45757f0129f249f905ae95c1997a8e816f"),
]


@pytest.mark.parametrize("args, counts, digest", _PINNED_SCANS, ids=["3q-size4", "4q-size6"])
def test_scan_reports_are_pinned(args, counts, digest):
    rep = scan(*args)
    assert (rep.feasible, rep.extendible, len(rep.upbs_found)) == counts
    text = canonical_json(scan_report_to_doc(rep))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_scan_materializes_only_its_hits(monkeypatch):
    counts = {"build_product_set": 0, "extend_or_certify": 0}

    def counting(name):
        original = getattr(search, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(search, name, counting(name))
    rep = scan(5, 6, 200, seed=3)
    assert rep.feasible > 0 and not rep.upbs_found
    assert counts == {"build_product_set": 0, "extend_or_certify": 0}
    rep = scan(3, 4, 1000, seed=7)
    hits = len(rep.upbs_found)
    assert hits > 0
    # one materialization and one re-check per reported UPB
    assert counts == {"build_product_set": hits, "extend_or_certify": hits}
