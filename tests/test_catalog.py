import itertools
import json
from fractions import Fraction

import pytest

from upblab.blocks import opb_from_blocks
from upblab.catalog import (
    ThetaCatalog,
    canonical_json,
    density_to_doc,
    fixture,
    fixture_names,
    from_doc,
    load,
    min_upb_size,
    product_set_to_doc,
    product_vector_obj,
    save,
    size_status,
    to_doc,
)
from upblab.errors import (
    ParseError,
    SchemaVersionMismatchError,
    UnknownFixtureError,
)
from upblab.linalg import as_vector, outer
from upblab.product import ProductVector, build_product_set, extend_or_certify
from upblab.qubits import LocalState
from upblab.scalars import ComplexRational
from upblab.states import density_from_matrix, ppt_report

# minimum sizes for 1..16 qubits, from the closed formula and its sporadic cases
EXPECTED_MINIMA = {
    1: 2, 2: 4, 3: 4, 4: 6, 5: 6, 6: 8, 7: 8, 8: 11,
    9: 10, 10: 12, 11: 12, 12: 16, 13: 14, 14: 16, 15: 16, 16: 20,
}


def test_min_upb_size_table():
    for n, expected in EXPECTED_MINIMA.items():
        assert min_upb_size(n) == expected


def test_min_size_is_member_and_matches_exact_sets():
    for n in range(1, 5):
        cat = ThetaCatalog.for_qubits(n)
        assert cat.minimum == min(cat.exact_set)
    for n in range(1, 11):
        assert size_status(n, min_upb_size(n)).status == "member"
        assert min_upb_size(n) not in ThetaCatalog.for_qubits(n).exclusions


def test_four_qubit_exact_table():
    members = {6, 7, 8, 9, 10, 12, 16}
    for k in range(1, 17):
        expected = "member" if k in members else "not_member"
        assert size_status(4, k).status == expected


def test_resolved_and_open_sizes():
    assert size_status(5, 27).status == "not_member"
    assert size_status(6, 59).status == "not_member"
    assert size_status(7, 123).status == "not_member"
    assert size_status(5, 11).status == "unknown"


def test_open_size_sets_are_exact():
    assert ThetaCatalog.for_qubits(5).open_sizes == {11}
    assert ThetaCatalog.for_qubits(6).open_sizes == {10, 11, 13}
    assert ThetaCatalog.for_qubits(7).open_sizes == {10, 11, 13, 14, 15, 19}


def test_near_full_exclusions():
    for n in range(3, 11):
        full = 2 ** n
        for c in (1, 2, 3, 5):
            assert size_status(n, full - c).status == "not_member", (n, c)
        assert size_status(n, full).status == "member"
        if n >= 3:
            assert size_status(n, full - 4).status == "member"


def test_full_size_always_member_and_minus_five_never():
    for n in range(1, 13):
        assert size_status(n, 2 ** n).status == "member"
        assert size_status(n, 2 ** n - 5).status == "not_member"


def test_catalog_is_internally_consistent():
    for n in range(1, 9):
        cat = ThetaCatalog.for_qubits(n)
        assert not (cat.known_members & cat.exclusions)
        assert not (cat.known_members & cat.open_sizes)
        assert not (cat.exclusions & cat.open_sizes)


def test_fixture_registry():
    names = fixture_names()
    assert "shifts" in names and "rank5_pptes_4q" in names
    with pytest.raises(UnknownFixtureError):
        fixture("nonsense")
    with pytest.raises(UnknownFixtureError):
        fixture("standard_opb_99")


def test_fixtures_verify_at_load():
    s = fixture("shifts")
    assert not extend_or_certify(s).extendible
    sigma = fixture("shifts_complement")
    sigma.assert_state()
    assert sigma.rank() == 4
    rho = fixture("rank5_pptes_4q")
    rho.assert_state()
    assert rho.rank() == 5
    assert ppt_report(rho).is_ppt
    opb = fixture("standard_opb_3")
    assert len(opb.members) == 8


def test_save_load_roundtrip_product_set(tmp_path):
    p = tmp_path / "shifts.json"
    save(p, fixture("shifts"))
    s = load(p)
    p2 = tmp_path / "again.json"
    save(p2, s)
    assert p.read_text() == p2.read_text()
    # witness data survives the roundtrip
    doc = json.loads(p.read_text())
    assert doc["witnesses"] == {
        "0,1": [0], "0,2": [1], "0,3": [2], "1,2": [2], "1,3": [1], "2,3": [0],
    }


def test_save_load_roundtrip_density(tmp_path):
    p = tmp_path / "rho.json"
    rho = fixture("rank5_pptes_4q")
    save(p, rho)
    back = load(p)
    assert back.matrix == rho.matrix
    assert back.dims == rho.dims
    assert back.kernel_product_set is not None
    p2 = tmp_path / "rho2.json"
    save(p2, back)
    assert p.read_text() == p2.read_text()


def test_save_load_roundtrip_bipartite_opb(tmp_path):
    import random

    from test_blocks import random_block_spec

    spec = random_block_spec(random.Random(3), 3, 2)
    opb = opb_from_blocks(spec)
    p = tmp_path / "opb.json"
    save(p, opb)
    back = load(p)
    from upblab.blocks import member_keys

    assert member_keys(back) == member_keys(opb)
    spec_path = tmp_path / "spec.json"
    save(spec_path, spec)
    spec_back = load(spec_path)
    assert spec_back.block_dims == spec.block_dims


def test_malformed_rational_rejected():
    doc = {
        "schema_version": 1,
        "kind": "product_set",
        "parties": 1,
        "members": [[{"pair": [["1/0", "0"], ["1", "0"]]}]],
    }
    with pytest.raises(ParseError) as exc:
        from_doc(doc)
    assert "members[0][0]" in str(exc.value)


@pytest.mark.parametrize(
    "local",
    [
        # the angle 0 is |0>, the pair |1>: neither may win silently
        {"angle": "0", "pair": [["0", "0"], ["1", "0"]]},
        {"angle": "0", "note": "x"},
        {"ket": "0"},
        {},
    ],
)
def test_local_naming_other_than_one_representation_rejected(local):
    doc = product_set_to_doc(fixture("shifts"))
    doc["members"][2][1] = local
    with pytest.raises(ParseError) as exc:
        from_doc(doc)
    assert exc.value.location == "members[2][1]"


def _angle_basis():
    # the standard basis of two qubits, written as the angles 0 and 1/2
    k0, k1 = LocalState.angle(Fraction(0)), LocalState.angle(Fraction(1, 2))
    return build_product_set(
        ProductVector([a, b]) for a in (k0, k1) for b in (k0, k1)
    )


@pytest.mark.parametrize("make", [lambda: fixture("shifts"), _angle_basis], ids=["pair", "angle"])
def test_equal_locals_parse_to_one_object(make):
    # |0> and |+> share their first coordinate, so a key on part of a
    # local would hand one of them the other's object
    doc = product_set_to_doc(make())
    s = from_doc(doc)
    at = [(i, p) for i, row in enumerate(doc["members"]) for p in range(len(row))]
    for i, p in at:
        assert product_vector_obj(s.members[i])[p] == doc["members"][i][p]
    for (i, p), (k, q) in itertools.combinations(at, 2):
        same = doc["members"][i][p] == doc["members"][k][q]
        assert (s.members[i].locals[p] is s.members[k].locals[q]) == same


@pytest.mark.parametrize(
    "edit, suffix",
    [
        (lambda l: {"pair": tuple(l["pair"])}, ""),
        (lambda l: {"pair": [tuple(l["pair"][0]), l["pair"][1]]}, ".pair[0]"),
        (lambda l: {**l, "note": "x"}, ""),
    ],
    ids=["tuple-pair", "tuple-coordinate", "extra-key"],
)
def test_a_later_copy_of_a_parsed_local_is_still_checked(edit, suffix):
    # members[1][2] holds the same strings as members[0][0], parsed first;
    # reshaped, it is refused where it stands
    doc = product_set_to_doc(fixture("shifts"))
    assert doc["members"][1][2] == doc["members"][0][0]
    doc["members"][1][2] = edit(doc["members"][1][2])
    with pytest.raises(ParseError) as exc:
        from_doc(doc)
    assert exc.value.location == "members[1][2]" + suffix


@pytest.mark.parametrize("name", fixture_names())
def test_every_fixture_round_trips_unchanged(name):
    doc = to_doc(fixture(name))
    assert canonical_json(to_doc(from_doc(json.loads(canonical_json(doc))))) == canonical_json(doc)


def test_schema_version_mismatch():
    with pytest.raises(SchemaVersionMismatchError):
        from_doc({"schema_version": 99, "kind": "product_set"})


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_schema_version_must_be_the_integer_one(version):
    # JSON true and 1.0 compare equal to 1 in Python
    doc = product_set_to_doc(fixture("shifts"))
    doc["schema_version"] = version
    with pytest.raises(SchemaVersionMismatchError):
        from_doc(doc)


def test_unknown_kind_rejected():
    with pytest.raises(ParseError):
        from_doc({"schema_version": 1, "kind": "mystery"})


@pytest.mark.parametrize("kind", [[], {}, None, 1])
def test_non_string_kind_rejected(kind):
    with pytest.raises(ParseError):
        from_doc({"schema_version": 1, "kind": kind})


def test_tampered_witness_data_rejected():
    doc = product_set_to_doc(fixture("shifts"))
    doc["witnesses"]["0,1"] = [2]
    with pytest.raises(ParseError):
        from_doc(doc)


def _two_qubit_doc():
    doc = product_set_to_doc(
        build_product_set(ProductVector.from_bits(b) for b in ((0, 0), (1, 1), (0, 1)))
    )
    assert doc["witnesses"] == {"0,1": [0, 1], "0,2": [1], "1,2": [0]}
    return doc


@pytest.mark.parametrize(
    "edit",
    [
        lambda w: w.pop("0,2"),
        lambda w: w.update({"1,0": [0, 1]}),
        lambda w: w.update({"0,3": [0]}),
        lambda w: w.update({"0,1": [1, 0]}),
        lambda w: w.update({"0,2": 1}),
        lambda w: w.update({"0,2": "1"}),
        lambda w: w.update({"0,2": {"1": 1}}),
        lambda w: w.update({"0,2": [0]}),
        lambda w: w.update({"0,1": [0]}),
        lambda w: w.update({"1,2": [0, 1]}),
    ],
    ids=[
        "missing-key",
        "reversed-extra-key",
        "extra-key",
        "unsorted-parties",
        "int-value",
        "string-value",
        "object-value",
        "wrong-party",
        "missing-party",
        "extra-party",
    ],
)
def test_tampered_witness_map_rejected(edit):
    doc = _two_qubit_doc()
    edit(doc["witnesses"])
    with pytest.raises(ParseError, match="stored witness data"):
        from_doc(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("witnesses", [[], "x", 0, [["0,1", [0, 1]]]])
def test_witness_data_that_is_not_a_map_rejected(witnesses):
    doc = dict(_two_qubit_doc(), witnesses=witnesses)
    with pytest.raises(ParseError, match="stored witness data"):
        from_doc(doc)


def test_stored_witness_map_round_trips():
    doc = _two_qubit_doc()
    assert from_doc(json.loads(json.dumps(doc))).structure.witnesses() == {
        (0, 1): frozenset({0, 1}), (0, 2): frozenset({1}), (1, 2): frozenset({0}),
    }


def test_tampered_kernel_set_rejected():
    rank5 = density_to_doc(fixture("rank5_pptes_4q"))
    # a product set that does not live in the kernel
    outside = dict(rank5, kernel_product_set=product_set_to_doc(fixture("standard_opb_4")))
    # a one-qubit |1> against |11><11|: only the first two columns, which
    # are zero, would meet it
    e11 = ProductVector.from_bits((1, 1)).flatten()
    one_qubit = build_product_set([ProductVector.from_bits((1,))])
    short = dict(
        density_to_doc(density_from_matrix((2, 2), outer(e11, e11))),
        kernel_product_set=product_set_to_doc(one_qubit),
    )
    # M x with zero real parts but nonzero imaginary parts: |w><w| (i|0>)
    # with w = (1, 1) is (i, i)
    w = as_vector([1, 1])
    imaginary = build_product_set([ProductVector([LocalState.pair(ComplexRational(0, 1), 0)])])
    residue = dict(
        density_to_doc(density_from_matrix((2,), outer(w, w))),
        kernel_product_set=product_set_to_doc(imaginary),
    )
    for doc in (outside, short, residue):
        with pytest.raises(ParseError, match="not annihilated"):
            from_doc(doc)


@pytest.mark.parametrize("dims", [[2, 4], [4, 2], [8]])
def test_kernel_set_over_other_parties_rejected(dims):
    # the 3-qubit kernel set fits the 8 x 8 matrix but not these parties
    doc = density_to_doc(fixture("shifts_complement"))
    doc["dims"] = dims
    with pytest.raises(ParseError, match="differ from the operator's dims"):
        from_doc(doc)


def test_density_without_parties_rejected():
    one = as_vector([1])
    doc = density_to_doc(density_from_matrix((1,), outer(one, one)))
    doc["dims"] = []
    with pytest.raises(ParseError, match="at least one party"):
        from_doc(doc)


def test_tampered_trace_rejected():
    doc = density_to_doc(fixture("shifts_complement"))
    doc["trace"] = "2"
    with pytest.raises(ParseError):
        from_doc(doc)


def test_angle_product_set_roundtrips(tmp_path):
    from upblab.search import Infeasible, realize_template
    from oracles import template_from_witnesses

    t = template_from_witnesses(
        3, 4, {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}
    )
    s = realize_template(t)
    assert not isinstance(s, Infeasible)
    p = tmp_path / "angles.json"
    save(p, s)
    back = load(p)
    assert back.member_keys() == s.member_keys()
    p2 = tmp_path / "angles2.json"
    save(p2, back)
    assert p.read_text() == p2.read_text()


def test_invalid_block_spec_rejected_at_load():
    from upblab.errors import InvalidSpecError
    from upblab.catalog import block_spec_to_doc
    import random
    from test_blocks import random_block_spec

    doc = block_spec_to_doc(random_block_spec(random.Random(5), 3, 2))
    doc["block_dims"] = [2, 2]  # no longer sums to the space dimension
    with pytest.raises(InvalidSpecError):
        from_doc(doc)


def test_canonical_json_is_stable():
    doc = product_set_to_doc(fixture("shifts"))
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))
