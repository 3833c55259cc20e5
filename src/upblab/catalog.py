"""Known facts about the possible sizes of n-qubit unextendible product
sets, named fixture constructions, and the JSON file formats.

Size data below follows the published literature on qubit UPBs (complete
classifications for n <= 4 are due to Johnston; the minimum-size formula is
Johnston's theorem; the general exclusions near the top are classical, plus
the proved nonexistence at 2^n - 5).  Each queryable answer carries a short
self-contained reason string so reports are auditable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import prod
from typing import Optional

from .blocks import BipartitePair, BlockSpec
from .errors import (
    ParseError,
    SchemaVersionMismatchError,
    UnknownFixtureError,
    VerificationError,
)
from .linalg import ExactMatrix
from .product import (
    ProductSet,
    ProductVector,
    build_product_set,
    shifts_upb,
    standard_opb,
)
from .qubits import LocalState
from .scalars import ComplexRational, cq_make
from .search import ScanReport
from .states import DensityOp, complement_projector, density_from_matrix

SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# size catalog

# Exhaustively known size sets for small n.
_EXACT_SETS = {
    1: frozenset({2}),
    2: frozenset({4}),
    3: frozenset({4, 8}),
    4: frozenset({6, 7, 8, 9, 10, 12, 16}),
}

# Known-realizable sizes for n = 5, 6, 7 (construction tables).
_KNOWN_MEMBER_SETS = {
    5: frozenset({6, 8, 9, 10, *range(12, 27), 28, 32}),
    6: frozenset({8, 9, 12, *range(14, 59), 60, 64}),
    7: frozenset({8, 12, 16, 17, 18, *range(20, 123), 124, 128}),
}

# Sizes still open in the literature for n = 5, 6, 7.
_OPEN_SIZES = {
    5: frozenset({11}),
    6: frozenset({10, 11, 13}),
    7: frozenset({10, 11, 13, 14, 15, 19}),
}


def min_upb_size(n: int) -> int:
    """Smallest possible size of an n-qubit unextendible product set.

    n + 1 for odd n; n + 2 for n = 2 (mod 4); n + 4 for n = 0 (mod 4) with
    n > 8; and the two sporadic values 6 at n = 4 and 11 at n = 8.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if n == 4:
        return 6
    if n == 8:
        return 11
    if n % 2 == 1:
        return n + 1
    if n % 4 == 2:
        return n + 2
    return n + 4


MEMBER = "member"
NOT_MEMBER = "not_member"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SizeStatus:
    status: str
    reason: str


def size_status(n: int, k: int) -> SizeStatus:
    """Is k a possible size of an n-qubit unextendible product set?

    Returns member / not_member when the catalog decides and unknown on the
    sizes still open in the literature.  Sizes outside [1, 2^n] are never
    realizable and come back not_member.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    full = 2 ** n
    if k < 1 or k > full:
        return SizeStatus(NOT_MEMBER, "sizes outside [1, 2^n] are impossible")
    if n in _EXACT_SETS:
        if k in _EXACT_SETS[n]:
            return SizeStatus(MEMBER, f"exhaustive classification for {n} qubits")
        return SizeStatus(NOT_MEMBER, f"exhaustive classification for {n} qubits")
    if k in (full - 1, full - 2, full - 3):
        return SizeStatus(NOT_MEMBER, "no UPB within three of a full basis")
    if k == full - 5:
        return SizeStatus(NOT_MEMBER, "size 2^n - 5 is never achievable")
    if k < min_upb_size(n):
        return SizeStatus(NOT_MEMBER, "below the minimum-size formula")
    if k == full:
        return SizeStatus(MEMBER, "the standard basis is a full-size example")
    if k == full - 4:
        return SizeStatus(MEMBER, "size 2^n - 4 is achievable for n >= 3")
    if k == min_upb_size(n):
        return SizeStatus(MEMBER, "the minimum size is achieved")
    if n in _KNOWN_MEMBER_SETS:
        if k in _KNOWN_MEMBER_SETS[n]:
            return SizeStatus(MEMBER, f"known construction table for {n} qubits")
        if k in _OPEN_SIZES[n]:
            return SizeStatus(UNKNOWN, "open in the literature")
        return SizeStatus(NOT_MEMBER, f"excluded by the {n}-qubit size analysis")
    return SizeStatus(UNKNOWN, "no catalog data for this size")


# ThetaCatalog classifies all 2^n sizes one by one: about 3 s at 20 qubits,
# doubling with each further qubit.
THETA_MAX_QUBITS = 20


@dataclass(frozen=True)
class ThetaCatalog:
    """Bundle of the size facts for one n, for report rendering; n is at
    most THETA_MAX_QUBITS (ValueError otherwise)."""

    n: int
    minimum: int
    exact_set: Optional[frozenset]
    known_members: frozenset
    exclusions: frozenset
    open_sizes: frozenset

    @classmethod
    def for_qubits(cls, n: int) -> "ThetaCatalog":
        if n > THETA_MAX_QUBITS:
            raise ValueError(f"the size table stops at {THETA_MAX_QUBITS} qubits, got {n}")
        full = 2 ** n
        status = {k: size_status(n, k) for k in range(1, full + 1)}
        return cls(
            n=n,
            minimum=min_upb_size(n),
            exact_set=_EXACT_SETS.get(n),
            known_members=frozenset(k for k, s in status.items() if s.status == MEMBER),
            exclusions=frozenset(k for k, s in status.items() if s.status == NOT_MEMBER),
            open_sizes=frozenset(k for k, s in status.items() if s.status == UNKNOWN),
        )


# ---------------------------------------------------------------------------
# fixtures


def _rank5_pptes_4q_kernel() -> ProductSet:
    """The eleven-member 4-qubit OPS spanning the kernel of the rank-5
    bound entangled fixture: |0,x> for the seven nonzero basis strings x,
    plus |1> tensored with each member of the size-four 3-qubit set."""
    k0, k1 = LocalState.ket(0), LocalState.ket(1)
    members = []
    for bits in range(1, 8):
        tail = [LocalState.ket((bits >> (2 - j)) & 1) for j in range(3)]
        members.append(ProductVector([k0] + tail))
    for m in shifts_upb().members:
        members.append(ProductVector((k1,) + tuple(m.locals)))
    return build_product_set(members)


def _rank5_pptes_4q() -> DensityOp:
    return complement_projector(_rank5_pptes_4q_kernel())


def _rank5_pptes_5q() -> DensityOp:
    rho = _rank5_pptes_4q()
    ket0 = ExactMatrix.from_rows([[1, 0], [0, 0]])
    return density_from_matrix(rho.dims + (2,), rho.matrix.kron(ket0))


# name -> (constructor, description), in the order fixture_names() lists them
_FIXTURES = {
    "rank5_pptes_4q": (
        _rank5_pptes_4q,
        "rank-5 4-qubit PPT entangled state with |0000> in its range",
    ),
    "rank5_pptes_4q_kernel": (
        _rank5_pptes_4q_kernel,
        "eleven-member 4-qubit OPS spanning the kernel of rank5_pptes_4q",
    ),
    "rank5_pptes_5q": (
        _rank5_pptes_5q,
        "the 4-qubit rank-5 state tensored with |0><0| on a fifth qubit",
    ),
    "shifts": (
        shifts_upb,
        "the classical 3-qubit unextendible product set of size four",
    ),
    "shifts_complement": (
        lambda: complement_projector(shifts_upb()),
        "rank-4 trace-one complement of the size-four 3-qubit set",
    ),
    **{
        f"standard_opb_{n}": (partial(standard_opb, n), "the computational-basis product basis")
        for n in range(1, 9)
    },
}


def fixture_names() -> list:
    return list(_FIXTURES)


def fixture(name: str):
    """Construct a named, exactly verified example object; ``name`` must be
    one of ``fixture_names()``."""
    try:
        builder, _ = _FIXTURES[name]
    except KeyError:
        raise UnknownFixtureError(name) from None
    return builder()


def fixture_description(name: str) -> str:
    return _FIXTURES[name][1]


# ---------------------------------------------------------------------------
# serialization

def _rat_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# The one rational grammar, the one _rat_str writes: an optional "-", ASCII
# digits, and optionally "/" and ASCII digits.  Fraction alone would also
# take signs, spaces, decimals and exponents such as "1e-3000000".  Each
# string is matched once; its groups are the numerator and the denominator.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rat(s, where: str) -> tuple[int, int]:
    """The integers p and q != 0 of a rational string "p" or "p/q"."""
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {s!r}", where)
    match = _RATIONAL.fullmatch(s)
    if match is None:
        raise ParseError(f"malformed rational {s!r} (expected 'p' or 'p/q')", where)
    try:
        p, q = int(match[1]), int(match[2] or 1)
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"malformed rational {s!r} ({exc})", where) from None
    if q == 0:
        raise ParseError(f"malformed rational {s!r} (zero denominator)", where)
    return p, q


def _cx_obj(z: ComplexRational) -> list:
    return [_rat_str(z.re), _rat_str(z.im)]


def _parse_cx(obj, where: str) -> ComplexRational:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError(f"expected [re, im], got {obj!r}", where)
    a, b = _parse_rat(obj[0], where)
    c, d = _parse_rat(obj[1], where)
    return ComplexRational.from_triple(cq_make(a * d, c * b, b * d))


def _local_obj(l: LocalState) -> dict:
    if l.is_angle():
        return {"angle": _rat_str(l.q)}
    return {"pair": [_cx_obj(l.a), _cx_obj(l.b)]}


def _parse_local(obj, where: str) -> LocalState:
    """One local from an object with exactly one key, "angle" or "pair"."""
    if not isinstance(obj, dict) or len(obj) != 1 or not obj.keys() <= {"angle", "pair"}:
        raise ParseError(f"expected {{'angle': ...}} or {{'pair': ...}}, got {obj!r}", where)
    if "angle" in obj:
        return LocalState.angle(Fraction(*_parse_rat(obj["angle"], where)))
    pair = obj["pair"]
    if not isinstance(pair, list) or len(pair) != 2:
        raise ParseError("pair must hold two complex entries", where)
    a = _parse_cx(pair[0], where + ".pair[0]")
    b = _parse_cx(pair[1], where + ".pair[1]")
    if a.is_zero() and b.is_zero():
        raise ParseError("local state must be nonzero", where + ".pair")
    return LocalState.pair(a, b)


def _local_content(obj):
    """The strings of a local in exactly the shape ``_parse_local`` reads,
    as a hashable key: one key, "angle" with a str or "pair" with two lists
    of two strs, all of exactly those types.  None for anything else."""
    if type(obj) is not dict or len(obj) != 1:
        return None
    ((kind, value),) = obj.items()
    if kind == "angle" and type(value) is str:
        return kind, value
    if (
        kind == "pair"
        and type(value) is list
        and len(value) == 2
        and all(type(z) is list and len(z) == 2 and all(type(x) is str for x in z) for z in value)
    ):
        return (kind, *value[0], *value[1])
    return None


def _parse_list(obj, where: str, length) -> list:
    """``obj`` if it is a list (of ``length`` entries unless that is None)."""
    if not isinstance(obj, list):
        raise ParseError(f"expected a list, got {obj!r}", where)
    if length is not None and len(obj) != length:
        raise ParseError(f"expected {length} entries, got {len(obj)}", where)
    return obj


def _parse_int(obj, where: str, least: int) -> int:
    # JSON true and false load as bool, a subclass of int
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < least:
        raise ParseError(f"expected an integer >= {least}, got {obj!r}", where)
    return obj


def witness_map(structure) -> dict:
    """A structure's witnesses as stored in documents: "i,j" -> sorted
    parties."""
    return {
        f"{i},{j}": ws
        for i in range(len(structure.labels))
        for j, ws in enumerate(structure.orthogonal_parties(i), i + 1)
    }


def product_vector_obj(v: ProductVector) -> list:
    """A product vector as stored in documents: its list of locals."""
    return [_local_obj(l) for l in v.locals]


def product_set_to_doc(s: ProductSet) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "product_set",
        "parties": s.parties,
        "members": [product_vector_obj(m) for m in s.members],
        "witnesses": witness_map(s.structure),
    }


def product_set_from_doc(doc: dict) -> ProductSet:
    parties = _parse_int(doc.get("parties"), "parties", 1)
    members_obj = _parse_list(doc.get("members"), "members", None)
    if not members_obj:
        raise ParseError("a product set needs at least one member", "members")
    # each distinct local is parsed once; a local of any other shape is
    # parsed afresh, so it is refused where it stands
    memo = {}

    def local(obj, where):
        key = _local_content(obj)
        if key is None:
            return _parse_local(obj, where)
        if key not in memo:
            memo[key] = _parse_local(obj, where)
        return memo[key]

    s = build_product_set(
        ProductVector(
            [
                local(l, f"members[{i}][{p}]")
                for p, l in enumerate(_parse_list(row, f"members[{i}]", parties))
            ]
        )
        for i, row in enumerate(members_obj)
    )
    stored = doc.get("witnesses")
    if stored is not None and stored != witness_map(s.structure):
        raise ParseError("stored witness data disagrees with verification", "witnesses")
    return s


def density_to_doc(d: DensityOp) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "density_op",
        "dims": list(d.dims),
        "trace": _rat_str(d.trace_norm),
        "matrix": [
            [_cx_obj(d.matrix.at(i, j)) for j in range(d.matrix.cols)]
            for i in range(d.matrix.rows)
        ],
    }
    if d.kernel_product_set is not None:
        doc["kernel_product_set"] = product_set_to_doc(d.kernel_product_set)
    return doc


def density_from_doc(doc: dict) -> DensityOp:
    dims = [
        _parse_int(x, f"dims[{p}]", 2)
        for p, x in enumerate(_parse_list(doc.get("dims"), "dims", None))
    ]
    if not dims:
        raise ParseError("a density operator needs at least one party", "dims")
    dim = prod(dims)
    entries = []
    for i, row in enumerate(_parse_list(doc.get("matrix"), "matrix", dim)):
        entries.extend(
            _parse_cx(x, f"matrix[{i}][{j}]")
            for j, x in enumerate(_parse_list(row, f"matrix[{i}]", dim))
        )
    m = ExactMatrix(dim, dim, entries)
    kernel = None
    if "kernel_product_set" in doc:
        kernel_doc = doc["kernel_product_set"]
        if not isinstance(kernel_doc, dict):
            raise ParseError("expected a product set object", "kernel_product_set")
        try:
            kernel = product_set_from_doc(kernel_doc)
        except VerificationError as exc:
            raise ParseError(f"not an OPS ({exc})", "kernel_product_set") from None
    try:
        d = density_from_matrix(dims, m, kernel_product_set=kernel)
    except ValueError as exc:
        # the matrix has the dims' size, so DensityOp refused the kernel set
        raise ParseError(str(exc), "kernel_product_set") from None
    stored = doc.get("trace")
    if stored is not None and Fraction(*_parse_rat(stored, "trace")) != d.trace_norm:
        raise ParseError("stored trace disagrees with the matrix", "trace")
    return d


def bipartite_opb_to_doc(members) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bipartite_opb",
        "side2_dim": len(members[0].tail) if members else 0,
        "members": [
            {"qubit": _local_obj(m.qubit), "tail": [_cx_obj(x) for x in m.tail]}
            for m in members
        ],
    }


def bipartite_opb_from_doc(doc: dict) -> list:
    side2_dim = _parse_int(doc.get("side2_dim"), "side2_dim", 0)
    members_obj = _parse_list(doc.get("members"), "members", None)
    out = []
    for i, obj in enumerate(members_obj):
        where = f"members[{i}]"
        if not isinstance(obj, dict) or "qubit" not in obj or "tail" not in obj:
            raise ParseError("member needs 'qubit' and 'tail'", where)
        tail = _parse_list(obj["tail"], where + ".tail", side2_dim)
        out.append(
            BipartitePair(
                qubit=_parse_local(obj["qubit"], where + ".qubit"),
                tail=tuple(_parse_cx(x, f"{where}.tail[{k}]") for k, x in enumerate(tail)),
            )
        )
    return out


def block_spec_to_doc(spec: BlockSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "block_spec",
        "side2_dim": spec.side2_dim,
        "qubit_bases": [_local_obj(v) for v in spec.qubit_bases],
        "block_dims": list(spec.block_dims),
        "x_bases": [[[_cx_obj(x) for x in vec] for vec in basis] for basis in spec.x_bases],
        "y_bases": [[[_cx_obj(x) for x in vec] for vec in basis] for basis in spec.y_bases],
    }


def block_spec_from_doc(doc: dict) -> BlockSpec:
    def parse_bases(key):
        return tuple(
            tuple(
                tuple(
                    _parse_cx(x, f"{key}[{j}][{i}][{k}]")
                    for k, x in enumerate(_parse_list(vec, f"{key}[{j}][{i}]", None))
                )
                for i, vec in enumerate(_parse_list(basis, f"{key}[{j}]", None))
            )
            for j, basis in enumerate(_parse_list(doc.get(key), key, None))
        )

    return BlockSpec(
        side2_dim=_parse_int(doc.get("side2_dim"), "side2_dim", 0),
        qubit_bases=tuple(
            _parse_local(v, f"qubit_bases[{j}]")
            for j, v in enumerate(_parse_list(doc.get("qubit_bases"), "qubit_bases", None))
        ),
        block_dims=tuple(
            _parse_int(k, f"block_dims[{j}]", 0)
            for j, k in enumerate(_parse_list(doc.get("block_dims"), "block_dims", None))
        ),
        x_bases=parse_bases("x_bases"),
        y_bases=parse_bases("y_bases"),
    )


def scan_report_to_doc(report: ScanReport) -> dict:
    """Canonical scan report; wall-clock timing is left out, so identical
    (parties, size, budget, seed) runs serialize identically."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "scan_report",
        "note": report.note,
        "qubits": report.parties,
        "size": report.size,
        "budget": report.budget,
        "seed": report.seed,
        "templates_tried": report.templates_tried,
        "feasible": report.feasible,
        "ops_built": report.ops_built,
        "extendible": report.extendible,
        "upbs_found": [product_set_to_doc(s) for s in report.upbs_found],
    }


_TO_DOC = {
    ProductSet: product_set_to_doc,
    DensityOp: density_to_doc,
    BlockSpec: block_spec_to_doc,
    ScanReport: scan_report_to_doc,
}

_FROM_DOC = {
    "product_set": product_set_from_doc,
    "density_op": density_from_doc,
    "block_spec": block_spec_from_doc,
    "bipartite_opb": bipartite_opb_from_doc,
}


def to_doc(obj) -> dict:
    if isinstance(obj, list) and obj and isinstance(obj[0], BipartitePair):
        return bipartite_opb_to_doc(obj)
    for cls, fn in _TO_DOC.items():
        if isinstance(obj, cls):
            return fn(obj)
    raise TypeError(f"no serialization for {type(obj).__name__}")


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def save(path, obj) -> None:
    doc = obj if isinstance(obj, dict) else to_doc(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(doc))


def load(path, kind=None):
    """Load a document and rebuild the exactly verified object.  Every
    failure to read the JSON raises ParseError: malformed JSON, text that is
    not UTF-8, an integer past Python's digit limit, or nesting too deep
    to decode.  With ``kind`` given, a document of another kind raises
    ParseError before any of it is parsed or verified."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and UnicodeDecodeError
            raise ParseError(f"invalid JSON: {exc}", str(path)) from None
    if kind is not None and isinstance(doc, dict) and doc.get("kind") != kind:
        raise ParseError(f"{path} holds a {doc.get('kind')!r} document, not {kind!r}", "kind")
    return from_doc(doc)


def from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object", "$")
    version = doc.get("schema_version")
    # JSON true and 1.0 compare equal to 1 but are not integer versions
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaVersionMismatchError(
            f"schema_version {version!r} is not supported (want {SCHEMA_VERSION})"
        )
    kind = doc.get("kind")
    fn = _FROM_DOC.get(kind) if isinstance(kind, str) else None
    if fn is None:
        raise ParseError(f"unknown document kind {kind!r}", "kind")
    return fn(doc)
