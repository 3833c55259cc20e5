"""Command-line front end: file in, verdict and report out.

Exit codes: 0 = claim verified or question answered, 1 = claim refuted
(not orthogonal, extendible, not PPT, ...), 2 = usage or input error.
Machine reports go to --json PATH ("-" for stdout).  Human-readable text
goes to stdout, or to stderr under ``--json -`` so that stdout carries only
the JSON.  Randomized commands echo their seed.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog
from .entangle import range_product_scan
from .errors import (
    NotAnOPBError,
    NotInRangeError,
    ParseError,
    UnknownFixtureError,
    UpbLabError,
    VerificationError,
)
from .blocks import opb_from_blocks, opb_to_blocks
from .product import ProductSet, extend_or_certify, is_proper
from .search import scan
from .states import (
    birank,
    complement_projector,
    ppt_report,
    subtract_product,
)


class _Exit(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _emit(args, report: dict, text_lines) -> None:
    path = getattr(args, "json", None)
    text_out = sys.stderr if path == "-" else sys.stdout
    for line in text_lines:
        print(line, file=text_out)
    if path:
        payload = catalog.canonical_json(report)
        if path == "-":
            sys.stdout.write(payload)
        else:
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise _Exit(2, f"cannot write {path}: {exc.strerror}") from None


def _load_product_set(path) -> ProductSet:
    try:
        return catalog.load(path, "product_set")
    except VerificationError as exc:
        raise _Exit(1, f"refuted: not an OPS ({exc})")


def _mask_label(mask) -> str:
    return "{" + ",".join(str(p) for p in sorted(mask)) + "}"


def cmd_verify(args) -> int:
    try:
        s = catalog.load(args.file, "product_set")
    except VerificationError as exc:
        report = {
            "command": "verify",
            "verdict": "not_ops",
            "offending_pair": list(exc.pair),
            "reason": str(exc),
        }
        _emit(args, report, [f"refuted: {exc}"])
        return 1
    lines = [f"verified OPS: {len(s.members)} members on {s.parties} parties"]
    report = {
        "command": "verify",
        "verdict": "ops",
        "members": len(s.members),
        "parties": s.parties,
        "witnesses": catalog.witness_map(s.structure),
    }
    _emit(args, report, lines)
    return 0


def cmd_extend(args) -> int:
    s = _load_product_set(args.file)
    decision = extend_or_certify(s)
    if decision.extendible:
        report = {
            "command": "extend",
            "verdict": "extendible",
            "witness": catalog.product_vector_obj(decision.witness),
            "branches_explored": decision.branches_explored,
        }
        _emit(args, report, ["extendible: a product vector is orthogonal to every member"])
        return 1
    report = {
        "command": "extend",
        "verdict": "unextendible",
        "branches_explored": decision.branches_explored,
        "proper": is_proper(s),
    }
    _emit(
        args,
        report,
        [f"unextendible (covering search exhausted, {decision.branches_explored} branches)"],
    )
    return 0


def cmd_complement(args) -> int:
    s = _load_product_set(args.file)
    d = complement_projector(s)
    report = catalog.density_to_doc(d)
    report["command"] = "complement"
    _emit(
        args,
        report,
        [f"complement projector: dim {d.dim}, rank {d.dim - len(s.members)}, trace 1"],
    )
    return 0


def cmd_ppt(args) -> int:
    d = catalog.load(args.file, "density_op")
    rep = ppt_report(d)
    lines = []
    classes = rep.classes()
    for mask in classes:
        cert = rep.certificates[mask]
        lines.append(f"class {_mask_label(mask)}: {'PSD' if cert.is_psd else 'not PSD'}")
    ok = rep.is_ppt
    lines.append(
        f"{'PPT' if ok else 'not PPT'}: {sum(rep.certificates[m].is_psd for m in classes)}"
        f"/{len(classes)} bipartition classes PSD"
    )
    report = {
        "command": "ppt",
        "verdict": "ppt" if ok else "not_ppt",
        "classes": {
            _mask_label(m): rep.certificates[m].verdict for m in classes
        },
    }
    _emit(args, report, lines)
    return 0 if ok else 1


def cmd_rank(args) -> int:
    d = catalog.load(args.file, "density_op")
    r = d.rank()
    _emit(args, {"command": "rank", "rank": r}, [f"rank {r}"])
    return 0


def cmd_birank(args) -> int:
    d = catalog.load(args.file, "density_op")
    b = birank(d)
    _emit(
        args,
        {"command": "birank", "rank": b.rank, "pt_rank": b.pt_rank},
        [f"birank ({b.rank}, {b.pt_rank})"],
    )
    return 0


def cmd_subtract(args) -> int:
    d = catalog.load(args.file, "density_op")
    obj = catalog.load(args.vector, "product_set")
    if len(obj.members) != 1:
        raise _Exit(2, f"{args.vector} must hold a product set with exactly one member")
    v = obj.members[0]
    try:
        out, weight = subtract_product(d, v)
    except ValueError as exc:
        raise _Exit(2, f"invalid subtract request: {exc}")
    except NotInRangeError:
        _emit(
            args,
            {"command": "subtract", "verdict": "not_in_range"},
            ["refuted: the vector is not in the range of the operator"],
        )
        return 1
    report = catalog.density_to_doc(out)
    report["command"] = "subtract"
    report["weight"] = str(weight)
    _emit(args, report, [f"subtracted with weight {weight}; rank {out.rank()}"])
    return 0


def cmd_theta(args) -> int:
    n = args.n
    if n < 1:
        raise _Exit(2, f"invalid theta request: need at least one qubit, got {n}")
    if args.k is None:
        try:
            cat = catalog.ThetaCatalog.for_qubits(n)
        except ValueError as exc:
            raise _Exit(2, f"invalid theta request: {exc}; ask for one size with 'theta {n} K'")
        lines = [f"possible UPB sizes on {n} qubits:"]
        if cat.exact_set is not None:
            lines.append(f"  exactly {sorted(cat.exact_set)}")
        else:
            lines.append(f"  minimum {cat.minimum}")
            lines.append(f"  known sizes {_ranges(sorted(cat.known_members))}")
            if cat.open_sizes:
                lines.append(f"  open {sorted(cat.open_sizes)}")
        report = {
            "command": "theta",
            "qubits": n,
            "minimum": cat.minimum,
            "known_members": sorted(cat.known_members),
            "not_members": sorted(cat.exclusions),
            "open": sorted(cat.open_sizes),
        }
        _emit(args, report, lines)
        return 0
    st = catalog.size_status(n, args.k)
    report = {
        "command": "theta",
        "qubits": n,
        "size": args.k,
        "status": st.status,
        "reason": st.reason,
    }
    _emit(args, report, [f"size {args.k} on {n} qubits: {st.status} ({st.reason})"])
    return 0


def _ranges(xs) -> str:
    if not xs:
        return "none"
    spans = []
    lo = prev = xs[0]
    for x in xs[1:]:
        if x == prev + 1:
            prev = x
            continue
        spans.append((lo, prev))
        lo = prev = x
    spans.append((lo, prev))
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def cmd_min_size(args) -> int:
    try:
        m = catalog.min_upb_size(args.n)
    except ValueError as exc:
        raise _Exit(2, f"invalid min-size request: {exc}")
    _emit(
        args,
        {"command": "min-size", "qubits": args.n, "minimum": m},
        [f"minimum UPB size on {args.n} qubits: {m}"],
    )
    return 0


def cmd_search(args) -> int:
    try:
        report = scan(args.qubits, args.size, args.budget, args.seed, balanced=args.balanced)
    except ValueError as exc:
        raise _Exit(2, f"invalid search request: {exc}")
    doc = catalog.scan_report_to_doc(report)
    doc["command"] = "search"
    doc["elapsed_s"] = report.elapsed_s
    lines = [
        f"seed {report.seed}",
        f"{report.templates_tried} templates, {report.feasible} feasible, "
        f"{report.extendible} extendible, {len(report.upbs_found)} unextendible",
        report.note,
    ]
    _emit(args, doc, lines)
    return 0


def cmd_range_scan(args) -> int:
    d = catalog.load(args.file, "density_op")
    try:
        res = range_product_scan(d, budget=args.budget, seed=args.seed)
    except ValueError as exc:
        raise _Exit(2, f"invalid range-scan request: {exc}")
    lines = [f"seed {args.seed}"]
    report = {"command": "range-scan", "verdict": res.verdict, "seed": args.seed}
    if res.verdict == "found":
        lines.append("found: an exact product vector lies in the range")
        report["witness"] = catalog.product_vector_obj(res.witness)
    elif res.verdict == "none_certified":
        lines.append("certified: the range contains no product vector")
        report["branches_explored"] = res.certificate.branches_explored
    else:
        lines.append(
            f"no exact conclusion after {res.iterations} sweeps "
            f"(best overlap {res.best_overlap:.12f})"
        )
        report["best_overlap"] = res.best_overlap
        report["iterations"] = res.iterations
    _emit(args, report, lines)
    return 0


def cmd_decompose_opb(args) -> int:
    obj = catalog.load(args.file, "bipartite_opb")
    try:
        spec = opb_to_blocks(obj)
    except NotAnOPBError as exc:
        _emit(
            args,
            {"command": "decompose-opb", "verdict": "not_an_opb", "reason": str(exc)},
            [f"refuted: {exc}"],
        )
        return 1
    doc = catalog.block_spec_to_doc(spec)
    doc["command"] = "decompose-opb"
    _emit(
        args,
        doc,
        [f"{spec.m} blocks with dimensions {sorted(spec.block_dims)}"],
    )
    return 0


def cmd_gen_opb(args) -> int:
    obj = catalog.load(args.specfile, "block_spec")
    members = opb_from_blocks(obj)
    doc = catalog.bipartite_opb_to_doc(members)
    doc["command"] = "gen-opb"
    _emit(args, doc, [f"generated an OPB with {len(members)} members"])
    return 0


def cmd_fixture(args) -> int:
    try:
        obj = catalog.fixture(args.name)
    except UnknownFixtureError:
        raise _Exit(
            2, f"unknown fixture {args.name!r}; known: {', '.join(catalog.fixture_names())}"
        )
    doc = catalog.to_doc(obj)
    doc["command"] = "fixture"
    doc["fixture"] = args.name
    if isinstance(obj, ProductSet):
        text = f"{args.name}: product set, {len(obj.members)} members on {obj.parties} parties"
    else:
        text = f"{args.name}: density operator on dims {list(obj.dims)}"
    _emit(args, doc, [text, catalog.fixture_description(args.name)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="upblab",
        description="exact toolkit for orthogonal/unextendible product bases "
        "and PPT certification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", metavar="PATH", help="write the machine report ('-' = stdout)")
        return p

    p = add("verify", cmd_verify, help="verify a product set file is an OPS")
    p.add_argument("file")
    p = add("extend", cmd_extend, help="extend an OPS or certify unextendibility")
    p.add_argument("file")
    p = add("complement", cmd_complement, help="complement projector of an OPS")
    p.add_argument("file")
    p = add("ppt", cmd_ppt, help="certify all partial transposes of a state")
    p.add_argument("file")
    p = add("rank", cmd_rank, help="exact rank of a density operator")
    p.add_argument("file")
    p = add("birank", cmd_birank, help="rank and first-party transpose rank")
    p.add_argument("file")
    p = add("subtract", cmd_subtract, help="subtract the extremal product projector")
    p.add_argument("file")
    p.add_argument("vector", help="product-set file with a single member")
    p = add("theta", cmd_theta, help="known possible UPB sizes")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?")
    p = add("min-size", cmd_min_size, help="minimum UPB size formula")
    p.add_argument("n", type=int)
    p = add("search", cmd_search, help="randomized scan for UPBs of one size")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--budget", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--balanced", action="store_true", help="balance per-party witness counts")
    p = add("range-scan", cmd_range_scan, help="search for a product vector in the range")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p = add("decompose-opb", cmd_decompose_opb, help="block structure of a bipartite OPB")
    p.add_argument("file")
    p = add("gen-opb", cmd_gen_opb, help="generate a bipartite OPB from a block spec")
    p.add_argument("specfile")
    p = add("fixture", cmd_fixture, help="construct a named example object")
    p.add_argument("name")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _Exit as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UpbLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
