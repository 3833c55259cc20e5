import json
import os
from fractions import Fraction

import pytest

from upblab.catalog import fixture, product_set_to_doc, save
from upblab.cli import main
from upblab.product import ProductVector, build_product_set
from upblab.qubits import LocalState


@pytest.fixture
def shifts_file(tmp_path):
    p = tmp_path / "shifts.json"
    save(p, fixture("shifts"))
    return str(p)


@pytest.fixture
def rho_file(tmp_path):
    p = tmp_path / "rho.json"
    save(p, fixture("rank5_pptes_4q"))
    return str(p)


def test_extend_unextendible_exits_zero(shifts_file, capsys):
    assert main(["extend", shifts_file]) == 0
    assert "unextendible" in capsys.readouterr().out


def test_extend_extendible_exits_one(tmp_path, capsys):
    full = fixture("standard_opb_2")
    reduced = build_product_set(list(full.members)[:3])
    p = tmp_path / "reduced.json"
    save(p, reduced)
    assert main(["extend", str(p)]) == 1
    assert "extendible" in capsys.readouterr().out


def test_verify_ok_and_refuted(tmp_path, capsys):
    good = tmp_path / "good.json"
    save(good, fixture("shifts"))
    assert main(["verify", str(good)]) == 0
    bad_doc = product_set_to_doc(fixture("shifts"))
    bad_doc["members"][3] = bad_doc["members"][0]
    del bad_doc["witnesses"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_doc))
    assert main(["verify", str(bad)]) == 1
    assert "refuted" in capsys.readouterr().out
    assert main(["verify", str(bad), "--json", "-"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "not_ops"
    assert report["offending_pair"] == [0, 3]


def test_verify_decides_a_pair_against_a_generic_angle(tmp_path, capsys):
    # a pair local and the angle 1/5 are never orthogonal, so party 0 alone
    # witnesses the two members
    s = build_product_set(
        [
            ProductVector([LocalState.ket(0), LocalState.angle(Fraction(1, 5))]),
            ProductVector([LocalState.ket(1), LocalState.pair(1, 1)]),
        ]
    )
    p = tmp_path / "mixed.json"
    save(p, s)
    assert main(["verify", str(p), "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "ops" and report["witnesses"] == {"0,1": [0]}


def test_ppt_accepts_and_refutes(tmp_path, rho_file, capsys):
    assert main(["ppt", rho_file]) == 0
    out = capsys.readouterr().out
    assert "7/7" in out
    # unnormalized Bell projector: PPT refuted
    from upblab.linalg import outer
    from upblab.states import density_from_matrix
    from upblab.linalg import as_vector

    bell = density_from_matrix(
        (2, 2), outer(as_vector([1, 0, 0, 1]), as_vector([1, 0, 0, 1]))
    )
    p = tmp_path / "bell.json"
    save(p, bell)
    assert main(["ppt", str(p)]) == 1


def test_rank_and_birank(rho_file, capsys):
    assert main(["rank", rho_file]) == 0
    assert "rank 5" in capsys.readouterr().out
    assert main(["birank", rho_file]) == 0
    assert "(5, 5)" in capsys.readouterr().out


def test_complement_writes_density(tmp_path, shifts_file):
    out = tmp_path / "sigma.json"
    assert main(["complement", shifts_file, "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "density_op"
    assert doc["trace"] == "1"


def test_subtract(tmp_path, capsys):
    rho = fixture("rank5_pptes_4q")
    p = tmp_path / "rho.json"
    save(p, rho)
    vec = build_product_set([ProductVector([LocalState.ket(0)] * 4)])
    pv = tmp_path / "vec.json"
    save(pv, vec)
    assert main(["subtract", str(p), str(pv)]) == 0
    assert "weight" in capsys.readouterr().out
    # out-of-range vector is a refutation
    bad = build_product_set([ProductVector([LocalState.ket(0)] * 3 + [LocalState.ket(1)])])
    pb = tmp_path / "bad.json"
    save(pb, bad)
    assert main(["subtract", str(p), str(pb)]) == 1


def test_subtract_takes_quarter_angle_vectors(tmp_path, capsys):
    from upblab.linalg import ExactMatrix
    from upblab.states import density_from_matrix

    p = tmp_path / "rho.json"
    save(p, density_from_matrix((2, 2), ExactMatrix.identity(4)))
    for q, code in ((Fraction(1, 4), 0), (Fraction(1, 5), 2)):
        locals = [LocalState.angle(q), LocalState.angle(q + Fraction(1, 2))]
        vec = build_product_set([ProductVector(locals)])
        pv = tmp_path / "vec.json"
        save(pv, vec)
        assert main(["subtract", str(p), str(pv)]) == code
    # |v><v| with v = (1, 1) x (-1, 1) against the identity: weight 1/4
    assert "subtracted with weight 1/4; rank 3" in capsys.readouterr().out


def test_theta_answers(capsys):
    assert main(["theta", "5", "27"]) == 0
    assert "not_member" in capsys.readouterr().out
    assert main(["theta", "5", "11"]) == 0
    assert "unknown" in capsys.readouterr().out
    assert main(["theta", "4"]) == 0
    assert "6, 7, 8, 9, 10, 12, 16" in capsys.readouterr().out


def test_theta_table_is_bounded(capsys):
    # the table lists every size, so it is refused past the bound at once;
    # one size is still answered
    assert main(["theta", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stops at 20 qubits" in captured.err and "'theta 64 K'" in captured.err
    assert main(["theta", "64", "59"]) == 0
    assert "size 59 on 64 qubits: not_member" in capsys.readouterr().out


def test_min_size(capsys):
    assert main(["min-size", "12"]) == 0
    assert "16" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["min-size", "0"], ["theta", "0"], ["theta", "-1", "1"]],
    ids=["min-size", "theta", "theta-size"],
)
def test_zero_qubit_request_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need at least one qubit" in captured.err


def test_search_reports(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(
        ["search", "--qubits", "3", "--size", "4", "--budget", "300",
         "--seed", "7", "--json", str(out)]
    ) == 0
    text = capsys.readouterr().out
    assert "seed 7" in text
    doc = json.loads(out.read_text())
    assert doc["kind"] == "scan_report"
    assert doc["budget"] == 300
    assert "elapsed_s" in doc


@pytest.mark.parametrize(
    "request_args",
    [
        ["--qubits", "2", "--size", "5"],
        ["--qubits", "3", "--size", "0"],
        ["--qubits", "0", "--size", "1"],
        ["--qubits", "3", "--size", "4", "--budget", "-5"],
        ["--qubits", "4", "--size", "6", "--seed", "-100"],
    ],
    ids=["size-above-dimension", "size-zero", "qubits-zero", "negative-budget", "negative-seed"],
)
def test_search_rejects_invalid_request(request_args, capsys):
    assert main(["search", *request_args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid search request" in captured.err


def test_range_scan(tmp_path, rho_file, capsys):
    assert main(["range-scan", rho_file, "--seed", "1"]) == 0
    assert "found" in capsys.readouterr().out


def test_range_scan_rejects_negative_budget(tmp_path, capsys):
    from upblab.entangle import range_product_scan
    from upblab.states import pure_density

    # the Bell projector takes the heuristic branch, where the budget counts
    bell = pure_density([1, 0, 0, 1], (2, 2))
    with pytest.raises(ValueError):
        range_product_scan(bell, budget=-3)
    p = tmp_path / "bell.json"
    save(p, bell)
    assert main(["range-scan", str(p), "--budget", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid range-scan request" in captured.err


def test_fixture_command(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["fixture", "shifts", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "product_set"
    assert main(["fixture", "bogus"]) == 2


def test_gen_and_decompose_opb(tmp_path, capsys):
    import random

    from test_blocks import random_block_spec

    spec = random_block_spec(random.Random(8), 3, 2)
    sp = tmp_path / "spec.json"
    save(sp, spec)
    opb_out = tmp_path / "opb.json"
    assert main(["gen-opb", str(sp), "--json", str(opb_out)]) == 0
    doc = json.loads(opb_out.read_text())
    assert doc["kind"] == "bipartite_opb"
    assert len(doc["members"]) == 6
    # strip the CLI extras so the document parses as a plain bipartite OPB
    doc.pop("command")
    clean = tmp_path / "opb_clean.json"
    clean.write_text(json.dumps(doc))
    assert main(["decompose-opb", str(clean)]) == 0
    assert "2 blocks" in capsys.readouterr().out


def test_json_to_stdout(shifts_file, capsys):
    # stdout carries the JSON alone; the human lines move to stderr
    assert main(["extend", shifts_file, "--json", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "unextendible"
    assert "unextendible (covering search exhausted" in captured.err
    assert main(["fixture", "shifts", "--json", "-"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["fixture"] == "shifts"
    assert "shifts: product set, 4 members on 3 parties" in captured.err


def test_decompose_non_opb_is_refuted(tmp_path, capsys):
    import json as _json

    # members 0 and 2 share the qubit side and have non-orthogonal tails
    doc = {
        "schema_version": 1,
        "kind": "bipartite_opb",
        "side2_dim": 2,
        "members": [
            {"qubit": {"pair": [["1", "0"], ["0", "0"]]}, "tail": [["1", "0"], ["0", "0"]]},
            {"qubit": {"pair": [["0", "0"], ["1", "0"]]}, "tail": [["1", "0"], ["0", "0"]]},
            {"qubit": {"pair": [["1", "0"], ["0", "0"]]}, "tail": [["1", "0"], ["1", "0"]]},
            {"qubit": {"pair": [["0", "0"], ["1", "0"]]}, "tail": [["0", "0"], ["1", "0"]]},
        ],
    }
    p = tmp_path / "notopb.json"
    p.write_text(_json.dumps(doc))
    assert main(["decompose-opb", str(p)]) == 1
    assert "refuted" in capsys.readouterr().out


def test_decompose_zero_tail_is_refuted(tmp_path, capsys):
    one, zero = ["1", "0"], ["0", "0"]
    ket0, ket1 = {"pair": [one, zero]}, {"pair": [zero, one]}
    doc = {
        "schema_version": 1,
        "kind": "bipartite_opb",
        "side2_dim": 2,
        "members": [
            {"qubit": ket0, "tail": [one, zero]},
            {"qubit": ket0, "tail": [zero, zero]},
            {"qubit": ket1, "tail": [one, zero]},
            {"qubit": ket1, "tail": [zero, one]},
        ],
    }
    p = tmp_path / "zero_tail.json"
    p.write_text(json.dumps(doc))
    assert main(["decompose-opb", str(p)]) == 1
    assert "refuted: x-basis of block 0 contains zero" in capsys.readouterr().out


def test_generic_angle_opb_generates_and_decomposes(tmp_path, capsys):
    from upblab.blocks import BlockSpec
    from upblab.linalg import as_vector

    spec = BlockSpec(
        side2_dim=1,
        qubit_bases=(LocalState.angle(Fraction(1, 3)),),
        block_dims=(1,),
        x_bases=((as_vector([1]),),),
        y_bases=((as_vector([1]),),),
    )
    sp = tmp_path / "spec.json"
    save(sp, spec)
    opb_out = tmp_path / "opb.json"
    assert main(["gen-opb", str(sp), "--json", str(opb_out)]) == 0
    doc = json.loads(opb_out.read_text())
    assert [m["qubit"] for m in doc.pop("members")] == [{"angle": "1/3"}, {"angle": "5/6"}]
    assert main(["decompose-opb", str(opb_out)]) == 0
    assert "1 blocks with dimensions [1]" in capsys.readouterr().out


def test_range_scan_certified_path(tmp_path, capsys):
    sigma = fixture("shifts_complement")
    p = tmp_path / "sigma.json"
    save(p, sigma)
    assert main(["range-scan", str(p), "--seed", "4"]) == 0
    assert "certified" in capsys.readouterr().out


def test_complement_of_full_basis_is_usage_error(tmp_path):
    p = tmp_path / "full.json"
    save(p, fixture("standard_opb_2"))
    assert main(["complement", str(p)]) == 2


def test_usage_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["rank", str(missing)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["rank", str(garbled)]) == 2


@pytest.mark.parametrize("command", ["verify", "rank"])
def test_directory_as_input_exits_two(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot read {tmp_path}" in captured.err


def test_unwritable_report_exits_two(tmp_path, capsys):
    # the verdict is printed, but the report it promised was not written
    assert main(["fixture", "shifts", "--json", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {tmp_path}" in err and "cannot read" not in err
    assert main(["fixture", "shifts", "--json", str(tmp_path / "no-such-dir" / "out.json")]) == 2
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name", ["standard_opb_+3", "standard_opb_03", "standard_opb_ 3", "standard_opb_3 ", "standard_opb_9"]
)
def test_fixture_accepts_only_listed_names(capsys, name):
    assert main(["fixture", name, "--json", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown fixture" in captured.err


@pytest.mark.parametrize("command", ["verify", "rank"])
@pytest.mark.parametrize("content", [b'{"kind": "product_set", ', b"\xff\xfe{"])
def test_malformed_json_is_parse_error(tmp_path, capsys, command, content):
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(content)
    assert main([command, str(garbled)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "invalid JSON" in err


def _base_doc(name):
    import random

    from test_blocks import random_block_spec
    from upblab.blocks import opb_from_blocks
    from upblab.catalog import bipartite_opb_to_doc, block_spec_to_doc, density_to_doc

    if name == "shifts":
        return product_set_to_doc(fixture("shifts"))
    if name == "empty":
        return {"schema_version": 1, "kind": "product_set", "parties": 2, "members": []}
    if name == "one-party":
        members = [[{"angle": "0"}], [{"angle": "1/2"}]]
        return {"schema_version": 1, "kind": "product_set", "parties": 1, "members": members}
    if name == "complement":
        return density_to_doc(fixture("shifts_complement"))
    spec = random_block_spec(random.Random(8), 3, 2)
    if name == "spec":
        return block_spec_to_doc(spec)
    return bipartite_opb_to_doc(opb_from_blocks(spec))


_ZERO_LOCAL = {"pair": [["0", "0"], ["0", "0"]]}

# id -> (command, base document, edits as (key path, new value))
_MALFORMED = {
    "tampered-witness": ("verify", "shifts", [(("witnesses", "0,1"), [0, 1, 2])]),
    "zero-local-verify": ("verify", "shifts", [(("members", 0, 0), _ZERO_LOCAL)]),
    "zero-local-extend": ("extend", "shifts", [(("members", 0, 0), _ZERO_LOCAL)]),
    "two-key-local": ("verify", "shifts", [(("members", 0, 0), dict(_ZERO_LOCAL, angle="0"))]),
    "unknown-key-local": ("extend", "shifts", [(("members", 0, 0), {"ket": "0"})]),
    "no-members-verify": ("verify", "empty", []),
    "no-members-extend": ("extend", "empty", []),
    "string-parties": ("verify", "empty", [(("parties",), "2")]),
    # JSON booleans load as Python bools, which are ints equal to 0 or 1
    "bool-parties": ("verify", "one-party", [(("parties",), True)]),
    "bool-block-dim": ("gen-opb", "spec", [(("block_dims", 1), True)]),
    "bool-side2-dim": ("gen-opb", "spec", [(("side2_dim",), False)]),
    "int-qubit-bases": ("gen-opb", "spec", [(("qubit_bases",), 5)]),
    "string-block-dim": ("gen-opb", "spec", [(("block_dims", 0), "1")]),
    "string-side2-dim": ("gen-opb", "spec", [(("side2_dim",), "3")]),
    "int-tail": ("decompose-opb", "opb", [(("members", 0, "tail"), 5)]),
    # a density operator whose embedded kernel set is malformed is not a
    # refuted product set
    "kernel-not-ops": (
        "extend",
        "complement",
        [(("kernel_product_set", "members", 1), [{"angle": "0"}] * 3)],
    ),
    "kernel-not-ops-rank": (
        "rank",
        "complement",
        [(("kernel_product_set", "members", 1), [{"angle": "0"}] * 3)],
    ),
    "int-kernel-set": ("rank", "complement", [(("kernel_product_set",), 5)]),
    # rationals are "p" or "p/q" only; Fraction alone would take these
    "exponent-rational": ("verify", "shifts", [(("members", 0, 0), {"angle": "1e-3"})]),
    # a rational string past the integer digit limit, not a JSON integer
    "long-rational": ("verify", "shifts", [(("members", 0, 0), {"angle": "1" * 5001})]),
    "decimal-rational": (
        "extend",
        "shifts",
        [(("members", 0, 0), {"pair": [["0.5", "0"], ["1", "0"]]})],
    ),
}


def _assert_cli_parse_error(command, path):
    """Run the CLI in a fresh interpreter: exit 2 with a parse error and no
    traceback."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-m", "upblab.cli", command, str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert "parse error" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_document_exits_two(tmp_path, case):
    command, base, edits = _MALFORMED[case]
    doc = _base_doc(base)
    for path, value in edits:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    _assert_cli_parse_error(command, p)


# raw files that json.load itself cannot read: an integer past Python's
# 4,300-digit conversion limit, and nesting past the recursion limit
_UNREADABLE = {
    "long-integer": '{"schema_version": 1, "kind": "product_set", "parties": '
    + "1" * 5001
    + ', "members": [[{"angle": "0"}]]}',
    "deep-nesting": "[" * 100000 + "]" * 100000,
}


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
def test_unreadable_json_exits_two(tmp_path, case):
    p = tmp_path / "doc.json"
    p.write_text(_UNREADABLE[case])
    _assert_cli_parse_error("verify", p)


def test_wrong_kind_is_refused_before_it_is_parsed(tmp_path, monkeypatch, capsys):
    from upblab.linalg import ExactMatrix

    p = tmp_path / "rho.json"
    save(p, fixture("shifts_complement"))
    calls = []
    original = ExactMatrix.is_hermitian

    def counted(self):
        calls.append(self.rows)
        return original(self)

    monkeypatch.setattr(ExactMatrix, "is_hermitian", counted)
    for command in ("verify", "extend"):
        assert main([command, str(p)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "'density_op'" in err
    assert calls == []
    # the counter does see a load that parses the operator
    assert main(["rank", str(p)]) == 0
    assert calls and set(calls) == {8}


def _request(tmp_path, case):
    """argv for a malformed request, and the text its error message names."""
    from upblab.catalog import density_to_doc
    from upblab.linalg import ExactMatrix
    from upblab.states import density_from_matrix

    if case == "subtract-wrong-length":
        rho = tmp_path / "rho.json"
        save(rho, fixture("rank5_pptes_4q"))
        vec = tmp_path / "vec.json"
        save(vec, build_product_set([ProductVector([LocalState.ket(0)] * 3)]))
        return ["subtract", str(rho), str(vec)], "invalid subtract request"
    if case == "range-scan-negative-seed":
        rho = tmp_path / "rho.json"
        save(rho, fixture("rank5_pptes_4q"))
        return ["range-scan", str(rho), "--seed", "-5"], "invalid range-scan request"
    if case == "bool-schema-version":
        # JSON true loads as a bool, which equals the version 1
        doc = product_set_to_doc(fixture("shifts"))
        doc["schema_version"] = True
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        return ["verify", str(p)], "schema_version True is not supported"
    if case == "ppt-one-party":
        doc = density_to_doc(density_from_matrix((4,), ExactMatrix.identity(4)))
        command, expect = "ppt", "BadMaskError"
    elif case in ("ppt-unit-dim", "birank-unit-dim"):
        # the 4 x 4 identity over a party of dimension 1 and one of 4
        doc = density_to_doc(density_from_matrix((1, 4), ExactMatrix.identity(4)))
        command, expect = case.split("-")[0], "parse error"
    elif case == "ppt-no-parties":
        doc = density_to_doc(density_from_matrix((1,), ExactMatrix.identity(1)))
        doc["dims"] = []
        command, expect = "ppt", "parse error"
    else:
        # the shifts complement read over other parties
        doc = density_to_doc(fixture("shifts_complement"))
        doc["dims"] = [int(x) for x in case.split("-")[-1].split("x")]
        command, expect = "range-scan", "parse error"
        if case.startswith("no-kernel"):
            del doc["kernel_product_set"]
            expect = "NonQubitPartyError"
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    return [command, str(p)], expect


@pytest.mark.parametrize(
    "case",
    [
        "kernel-dims-2x4",
        "kernel-dims-4x2",
        "kernel-dims-8",
        "no-kernel-dims-2x4",
        "ppt-one-party",
        "ppt-no-parties",
        "ppt-unit-dim",
        "birank-unit-dim",
        "subtract-wrong-length",
        "range-scan-negative-seed",
        "bool-schema-version",
    ],
)
def test_malformed_request_exits_two_with_nothing_on_stdout(tmp_path, capsys, case):
    argv, expect = _request(tmp_path, case)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert expect in captured.err


def _pinned_witness_cases(tmp_path):
    """(argv, parsed report, sha256 of the report's bytes) for an
    extendible ``extend`` with complex pair locals, one with angle locals,
    and a ``found`` range scan; recorded before product vectors were
    serialized through ``catalog.product_vector_obj``."""
    import random

    from oracles import rotated_set
    from upblab.search import scan

    rotated = tmp_path / "rotated.json"
    save(rotated, build_product_set(rotated_set(random.Random(5), 0).members[1:]))
    angles = tmp_path / "angles.json"
    save(angles, build_product_set(scan(3, 4, 1000, 7).upbs_found[0].members[:3]))
    rho = tmp_path / "rho.json"
    save(rho, fixture("rank5_pptes_4q"))
    minus_ket0 = {"pair": [["-1", "0"], ["0", "0"]]}
    return [
        (
            ["extend", str(rotated)],
            {
                "branches_explored": 4,
                "command": "extend",
                "verdict": "extendible",
                "witness": [
                    {"pair": [["-2", "1"], ["-3", "-2"]]},
                    {"pair": [["-2", "1"], ["3", "-2"]]},
                    {"pair": [["-3", "6"], ["-3", "0"]]},
                ],
            },
            "67ce72527116920f5d15648253025f62f5542bc9b47fbc5c18c78ea16e4d4d82",
        ),
        (
            ["extend", str(angles)],
            {
                "branches_explored": 4,
                "command": "extend",
                "verdict": "extendible",
                "witness": [{"angle": "1/2"}, {"angle": "5/8"}, {"angle": "1/8"}],
            },
            "aef1fb7d4c7abb92c5a191400e2e0cd40a3841ee4646697d7095a5639ce4c7d7",
        ),
        (
            ["range-scan", str(rho), "--seed", "3"],
            {"command": "range-scan", "seed": 3, "verdict": "found", "witness": [minus_ket0] * 4},
            "423e63965f41143b400ebf403f9886e7f0c036473e237d34b2856354dd87732a",
        ),
    ]


def test_witness_reports_are_pinned_byte_for_byte(tmp_path, capsys):
    import hashlib

    for argv, expected, digest in _pinned_witness_cases(tmp_path):
        main(argv + ["--json", "-"])
        out = capsys.readouterr().out
        assert json.loads(out) == expected
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_extend_reports_a_scan_hit_as_proper(tmp_path, capsys):
    # the first UPB of this scan has generic angles (1/8, 5/8, ...), which
    # have no exact coordinates; four members cannot span 8 dimensions
    from upblab.search import scan

    p = tmp_path / "hit.json"
    save(p, scan(3, 4, 1000, 7).upbs_found[0])
    assert main(["extend", str(p), "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "unextendible" and report["proper"] is True
    full = tmp_path / "full.json"
    save(full, fixture("standard_opb_3"))
    assert main(["extend", str(full), "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["proper"] is False
