import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from upblab import search
from upblab.catalog import canonical_json, scan_report_to_doc
from upblab.product import (
    ProductVector,
    build_product_set,
    covering_search,
    extend_or_certify,
)
from upblab.qubits import LocalState
from upblab.search import (
    Infeasible,
    ScanReport,
    label_template,
    realize_template,
    sample_template,
    scan,
)

from oracles import (
    class_masks,
    label_by_random_angles,
    sample_template_by_randrange,
    template_edges,
    template_from_witnesses,
    two_color_by_dict,
)

# one perfect matching of the four members per party
_SHIFTS_PATTERN = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}


def witnesses_of(t):
    """The witness dict of a template: (i, j), i < j -> its one party."""
    choice = {}
    for p, neighbours in enumerate(t.neighbours):
        for i, mask in enumerate(neighbours):
            for j in range(i + 1, t.size):
                if mask >> j & 1:
                    assert (i, j) not in choice, "pair witnessed at two parties"
                    choice[(i, j)] = p
    return choice


def test_realize_shifts_pattern_is_unextendible():
    s = realize_template(template_from_witnesses(3, 4, _SHIFTS_PATTERN))
    assert not isinstance(s, Infeasible)
    assert len(s.members) == 4
    assert not extend_or_certify(s).extendible


def test_realized_witness_graph_contains_template():
    s = realize_template(template_from_witnesses(3, 4, _SHIFTS_PATTERN))
    witnesses = s.structure.witnesses()
    for (i, j), p in _SHIFTS_PATTERN.items():
        assert p in witnesses[i, j]


def test_odd_cycle_is_infeasible():
    t = template_from_witnesses(2, 3, {(0, 1): 0, (1, 2): 0, (0, 2): 0})
    out = realize_template(t)
    assert out == Infeasible(reason="party 0 constraint graph has an odd cycle")


def test_two_member_template():
    s = realize_template(template_from_witnesses(2, 2, {(0, 1): 0}))
    assert not isinstance(s, Infeasible)
    assert len(s.members) == 2


def test_template_with_many_components_realizes():
    # 40 members on 7 parties: pair (i, j) is witnessed at 1 + the lowest
    # bit where i and j differ, so party 0 has no edges and 40 components.
    # Random angle numerators over 64 have only 32 perp pairs for them.
    choice = {
        (i, j): ((i ^ j) & -(i ^ j)).bit_length() for i in range(40) for j in range(i + 1, 40)
    }
    t = template_from_witnesses(7, 40, choice)
    assert label_by_random_angles(t, 0) == Infeasible(
        reason="party 0 ran out of non-colliding angles"
    )
    assert [row[0] for row in label_template(t).labels] == list(range(40))
    s = realize_template(t)
    assert not isinstance(s, Infeasible)
    assert len(s.members) == 40
    witnesses = s.structure.witnesses()
    for (i, j), p in choice.items():
        assert p in witnesses[i, j]


def test_two_color_agrees_with_the_dict_oracle():
    # Random graphs on 1..40 members across a hidden bipartition, some with
    # edges inside it that close odd cycles, labelled as one-party
    # templates: the c-th component of the dict oracle, in order of smallest
    # member, is class c, its color-0 side labelled c and its color-1 side
    # c + size.
    rng = random.Random(17)
    seen = {"odd": 0, "colored": 0, "isolated": 0}
    for _ in range(800):
        size = rng.randint(1, 40)
        side = [rng.randrange(2) for _ in range(size)]
        inside = rng.choice((0.0, 0.05, 0.3))
        edges = set()
        for _ in range(rng.randint(0, 2 * size) if size > 1 else 0):
            i, j = sorted(rng.sample(range(size), 2))
            if side[i] != side[j] or rng.random() < inside:
                edges.add((i, j))
        t = template_from_witnesses(1, size, {edge: 0 for edge in edges})
        expected = two_color_by_dict(size, sorted(edges))
        got = label_template(t)
        if expected is None:
            assert got == Infeasible(reason="party 0 constraint graph has an odd cycle")
            seen["odd"] += 1
            continue
        seen["colored"] += 1
        seen["isolated"] += any(len(comp) == 1 for comp, _ in expected)
        labels, groups = [None] * size, [0] * (2 * size)
        for c, (comp, colors) in enumerate(expected):
            for m in comp:
                labels[m] = c + size * colors[m]
                groups[labels[m]] |= 1 << m
        assert got.labels == tuple((label,) for label in labels)
        assert got.masks == (tuple(groups),)
    assert min(seen.values()) >= 100, seen


def _odd_parties(t):
    """The parties whose dict-oracle coloring finds an odd cycle."""
    return [p for p in range(t.parties) if two_color_by_dict(t.size, template_edges(t, p)) is None]


def test_infeasible_names_the_first_party_with_an_odd_cycle():
    # Triangles at parties 1 and 3; parties 0 and 2 are bipartite.
    t = template_from_witnesses(
        4,
        6,
        {
            (0, 3): 0, (1, 4): 0, (2, 5): 0,
            (0, 1): 1, (1, 2): 1, (0, 2): 1,
            (0, 4): 2, (0, 5): 2, (1, 3): 2, (1, 5): 2, (2, 3): 2, (2, 4): 2,
            (3, 4): 3, (4, 5): 3, (3, 5): 3,
        },
    )
    assert _odd_parties(t) == [1, 3]
    assert label_template(t) == Infeasible(reason="party 1 constraint graph has an odd cycle")
    # Random draws, many with odd cycles at two or more parties, the first
    # of them behind a colorable party.
    rng = random.Random(90)
    several = 0
    for _ in range(400):
        t = sample_template(5, 10, rng)
        odd = _odd_parties(t)
        several += len(odd) > 1 and odd[0] > 0
        got = label_template(t)
        if odd:
            assert got == Infeasible(reason=f"party {odd[0]} constraint graph has an odd cycle")
        else:
            assert not isinstance(got, Infeasible)
    assert several >= 100, several


def test_sampler_draws_the_randrange_stream():
    # The uniform sampler writes randrange's draw out, so it must make the
    # templates of one randrange per choice and leave ``rng`` where those
    # leave it.  Parties 1, 2, 4 and 8 never redraw.
    draws = 0
    for parties in range(1, 10):
        for size in range(1, 13):
            for balanced in (False, True):
                for s in range(10):
                    seed = (parties * 100 + size) * 100 + s
                    a, b = random.Random(seed), random.Random(seed)
                    t = sample_template(parties, size, a, balanced=balanced)
                    assert t == sample_template_by_randrange(parties, size, b, balanced=balanced)
                    assert a.getstate() == b.getstate()
                    draws += 1
    assert draws >= 2000


def test_scan_samples_through_the_module_global(monkeypatch):
    # A tracer wraps ``search.sample_template``; every unit must go through
    # it, so templates and feasible ratios it reports count every draw.
    calls = []
    original = search.sample_template

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    monkeypatch.setattr(search, "sample_template", counting)
    for seed in (3, 51):
        calls.clear()
        scan(5, 6, 200, seed)
        assert calls == [(5, 6)] * 200


def test_template_built_by_hand_derives_its_neighbours():
    rng = random.Random(8)
    for balanced in (False, True):
        t = sample_template(4, 9, rng, balanced=balanced)
        choice = witnesses_of(t)
        assert len(choice) == 36
        assert template_from_witnesses(4, 9, choice) == t
    # the masks are the template: they decide equality
    assert template_from_witnesses(2, 2, {(0, 1): 0}) != template_from_witnesses(2, 2, {(0, 1): 1})


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
    assert len(witnesses_of(t)) == 15
    counts = [sum(bin(mask).count("1") for mask in row) // 2 for row in t.neighbours]
    assert max(counts) - min(counts) <= 1


def _label_draws():
    """2,400 seeded (parties, template, label seed) draws over small shapes,
    uniform and balanced."""
    shapes = [(3, 4), (3, 5), (4, 6), (4, 8), (5, 6), (4, 11)]
    rng = random.Random(2024)
    for parties, size in shapes:
        for balanced in (False, True):
            for _ in range(200):
                t = sample_template(parties, size, rng, balanced=balanced)
                yield parties, t, rng.randrange(1 << 30)


def test_label_decision_agrees_with_the_realized_set():
    # The scan decides each draw on its labels; the decision and its branch
    # count must be those of the exact realized set.
    feasible = unextendible = 0
    for parties, t, _ in _label_draws():
        structure = label_template(t)
        realized = realize_template(t)
        if isinstance(structure, Infeasible):
            assert realized == structure
            continue
        grid = structure.labels
        feasible += 1
        # canonical: at every party, classes are numbered by first
        # appearance, and a class's first member is on side 0
        for p in range(parties):
            classes = set()
            for row in grid:
                label = row[p]
                if label < t.size:
                    assert label in classes or label == len(classes)
                    classes.add(label)
                else:
                    assert label - t.size in classes
        # labels are exactly the phase classes at every party
        keys = [[l.phase_key() for l in m.locals] for m in realized.members]
        for by_label, by_key in zip(class_masks(grid, parties), class_masks(keys, parties)):
            assert sorted(by_label.values()) == sorted(by_key.values())
        assignment, branches = covering_search(grid, class_masks(grid, parties), parties)
        decision = extend_or_certify(realized)
        assert (assignment is not None) == decision.extendible
        assert branches == decision.branches_explored
        unextendible += assignment is None
    assert feasible >= 800
    assert unextendible > 0


def test_template_structure_is_the_verified_structure():
    # The scan's structure of a draw is the one verification builds for the
    # realized set, so the scan and verification read the same labels.
    feasible = 0
    for _, t, _ in _label_draws():
        structure = label_template(t)
        if isinstance(structure, Infeasible):
            continue
        feasible += 1
        realized = realize_template(t)
        assert structure == build_product_set(realized.members).structure
        assert structure.labels == tuple(
            tuple(int(l.q * 2 * t.size) for l in m.locals) for m in realized.members
        )
    assert feasible >= 800


def _same_structure(grid, other, parties, size, other_size):
    """Whether two label grids put the same member pairs in one class, and
    the same member pairs on the two sides of a class, at every party."""
    for p in range(parties):
        for i, row in enumerate(grid):
            for j in range(i + 1, len(grid)):
                a, b = row[p], grid[j][p]
                x, y = other[i][p], other[j][p]
                if (a == b) != (x == y):
                    return False
                if ((a - b) % (2 * size) == size) != ((x - y) % (2 * other_size) == other_size):
                    return False
    return True


def test_canonical_labels_agree_with_the_random_angle_oracle():
    # The former labelling drew one random angle per component; the
    # canonical labels must describe the same structure and give the same
    # covering-search verdict and branch count.
    feasible = 0
    for parties, t, seed in _label_draws():
        structure = label_template(t)
        oracle = label_by_random_angles(t, seed)
        if isinstance(structure, Infeasible):
            assert oracle == structure
            continue
        grid = structure.labels
        feasible += 1
        assert _same_structure(grid, oracle, parties, t.size, 32)
        found, branches = covering_search(grid, class_masks(grid, parties), parties)
        expected, oracle_branches = covering_search(oracle, class_masks(oracle, parties), parties)
        assert (found is None, branches) == (expected is None, oracle_branches)
    assert feasible >= 800


def test_label_outputs_are_pinned():
    # Grids and Infeasible reasons of the former random-angle labelling of
    # the draws above, recorded before feasibility was decided ahead of the
    # angle draws; the oracle must keep reproducing them.
    h = hashlib.sha256()
    for _, t, seed in _label_draws():
        out = label_by_random_angles(t, seed)
        h.update((out.reason if isinstance(out, Infeasible) else repr(out)).encode() + b"\n")
    assert h.hexdigest() == "effe51c66d31dfb079a1d7e2b479ae068ecef93fcf5ed9084642e231da655d07"


# Canonical reports recorded before the scan decided draws on labels; the
# balanced and all-infeasible ones before it decided them on bitmasks.  The
# two with hits were re-recorded when the scan moved to canonical labels,
# after test_scan_hits_match_the_random_angle_oracle passed; their former
# digests are kept there.
_PINNED_SCANS = [
    ((3, 4, 1000, 7), (601, 594, 7), "da92c1f34c4801c71b5ab23bcf8f96dbaa8fb4ca2a40879afd0d0b82b01d5ab2"),
    ((4, 6, 300, 5), (80, 80, 0), "a032270296e327e5bef2438fc982cc45757f0129f249f905ae95c1997a8e816f"),
    ((3, 4, 1000, 7, True), (1000, 825, 175), "62f4768842c3a3666070447a18349f92deb7f0c053a03f952063d39f284ae70c"),
    ((4, 6, 300, 5, True), (212, 212, 0), "62e4ffd78668b4cc81eaf58295e82774a1a7d628c2c91f1ca07fb38f57543041"),
    ((4, 11, 2000, 41), (0, 0, 0), "1f8f7fd7a2d131c6af0d71aaa683ca03807a16414bf6afcd69b92a40feccbd1f"),
    ((5, 27, 500, 52), (0, 0, 0), "c4824f35f8277ecfbaea700bdce9199f284fbff5732dd877b902306706c88a47"),
]


def _random_angle_scan(parties, size, budget, seed, balanced=False):
    """The former scan: unit u samples its template from Random(seed + u),
    then labels it by random angles seeded from that Random's next
    randrange(1 << 30), and materializes each hit over the angles a / 64."""
    feasible = extendible = 0
    hits = []
    for u in range(budget):
        rng = random.Random(seed + u)
        t = sample_template(parties, size, rng, balanced=balanced)
        grid = label_by_random_angles(t, rng.randrange(1 << 30))
        if isinstance(grid, Infeasible):
            continue
        feasible += 1
        if covering_search(grid, class_masks(grid, parties), parties)[0] is not None:
            extendible += 1
            continue
        hits.append(
            build_product_set(
                [ProductVector([LocalState.angle(Fraction(a, 64)) for a in row]) for row in grid]
            )
        )
    return ScanReport(
        parties=parties,
        size=size,
        budget=budget,
        seed=seed,
        templates_tried=budget,
        feasible=feasible,
        ops_built=feasible,
        extendible=extendible,
        upbs_found=tuple(hits),
        elapsed_s=0.0,
    )


def _classes(s):
    keys = [[l.phase_key() for l in m.locals] for m in s.members]
    return [sorted(groups.values()) for groups in class_masks(keys, s.parties)]


@pytest.mark.parametrize(
    "args, former_digest",
    [
        ((3, 4, 1000, 7), "46f03194dd5c1fc8d9fed0fa75e606316937999865c60c94920b8e2bc460dc41"),
        ((3, 4, 1000, 7, True), "260b8fe2bf1661bbe4d8fb5f21aa4718370121d8cfc6492e2ca4fa4a2be8c56d"),
    ],
    ids=["3q-size4", "3q-size4-balanced"],
)
def test_scan_hits_match_the_random_angle_oracle(args, former_digest):
    # The oracle reproduces the former scan byte for byte, and each UPB the
    # scan reports has the per-party classes of the oracle's hit at the
    # same position.
    former = _random_angle_scan(*args)
    text = canonical_json(scan_report_to_doc(former))
    assert hashlib.sha256(text.encode()).hexdigest() == former_digest
    rep = scan(*args)
    assert (rep.feasible, rep.extendible) == (former.feasible, former.extendible)
    assert len(rep.upbs_found) == len(former.upbs_found) > 0
    for s, hit in zip(rep.upbs_found, former.upbs_found):
        assert _classes(s) == _classes(hit)


@pytest.mark.parametrize(
    "args, counts, digest",
    _PINNED_SCANS,
    ids=["3q-size4", "4q-size6", "3q-size4-balanced", "4q-size6-balanced", "4q-size11", "5q-size27"],
)
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


@pytest.mark.parametrize(
    "args, feasible",
    [((5, 27, 50, 52), False), ((4, 11, 2000, 41), False), ((5, 6, 200, 3), True)],
    ids=["5q-size27", "4q-size11", "5q-size6"],
)
def test_infeasible_draws_draw_no_angles(monkeypatch, args, feasible):
    # Labels are canonical, so a unit draws nothing after its template,
    # feasible or not: every unit seeds exactly one Random, Random(seed + u).
    # Every draw of the first two shapes has an odd cycle at some party (at
    # size 11 often at a later party than one that can be colored); about
    # two in five draws of the third are feasible.
    seeds = []

    def counting_random(seed):
        seeds.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(search, "random", SimpleNamespace(Random=counting_random))
    rep = scan(*args)
    assert (rep.feasible > 0) == feasible
    assert seeds == [rep.seed + u for u in range(rep.budget)]
