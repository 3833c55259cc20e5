import json

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


def test_theta_answers(capsys):
    assert main(["theta", "5", "27"]) == 0
    assert "not_member" in capsys.readouterr().out
    assert main(["theta", "5", "11"]) == 0
    assert "unknown" in capsys.readouterr().out
    assert main(["theta", "4"]) == 0
    assert "6, 7, 8, 9, 10, 12, 16" in capsys.readouterr().out


def test_min_size(capsys):
    assert main(["min-size", "12"]) == 0
    assert "16" in capsys.readouterr().out


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
    ],
    ids=["size-above-dimension", "size-zero", "qubits-zero", "negative-budget"],
)
def test_search_rejects_invalid_request(request_args, capsys):
    assert main(["search", *request_args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid search request" in captured.err


def test_range_scan(tmp_path, rho_file, capsys):
    assert main(["range-scan", rho_file, "--seed", "1"]) == 0
    assert "found" in capsys.readouterr().out


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
@pytest.mark.parametrize("content", [b'{"kind": "product_set", ', b"\xff\xfe{"])
def test_malformed_json_is_parse_error(tmp_path, capsys, command, content):
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(content)
    assert main([command, str(garbled)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "invalid JSON" in err
