"""Orthogonal product sets of qubits: verification with witnesses, the exact
extendibility decision, and construction combinators.

Orthogonality of two product vectors means orthogonality of their locals at
at least one party; a verified set stores, for every pair, the full set of
parties witnessing it.

Extendibility of a qubit OPS is decided exactly by a covering search: a
product vector z is orthogonal to member x iff z_j is the (unique) perp of
x's local at some party j, so z exists iff one phase class per party can be
chosen (at most one; parties may stay free) whose member groups jointly
cover the whole set.  The search branches on the first uncovered member
(every uncovered member has one option per unassigned party) and certifies
exhaustion on failure.  It sees only which members share a class at each
party, so the randomized scan runs the same search on integer labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    ApproximateComparisonError,
    DuplicateMemberError,
    NonQubitPartyError,
    NotOrthogonalError,
    NotVerifiedError,
)
from .linalg import ExactMatrix, cleared, kron_vec, matrix_rank
from .qubits import (
    KET0,
    LocalState,
    local_equal_up_to_phase,
    local_perp,
    orthogonal_exact,
)


class ProductVector:
    """An n-party product vector of single-qubit locals.

    ``_cleared`` keeps the result of ``cleared_flatten`` once computed; it
    takes no part in equality or hashing."""

    __slots__ = ("locals", "_cleared")

    def __init__(self, locals):
        locals = tuple(locals)
        if not locals:
            raise ValueError("a product vector needs at least one party")
        if not all(isinstance(l, LocalState) for l in locals):
            raise TypeError("locals must be LocalState instances")
        object.__setattr__(self, "locals", locals)
        object.__setattr__(self, "_cleared", None)

    def __setattr__(self, name, value):
        raise AttributeError("ProductVector is immutable")

    @property
    def parties(self) -> int:
        return len(self.locals)

    @classmethod
    def from_bits(cls, bits) -> "ProductVector":
        return cls([LocalState.ket(b) for b in bits])

    def flatten(self):
        """Exact ambient coordinates (length 2^n); raises for generic
        angle locals."""
        vec = self.locals[0].vec2()
        for l in self.locals[1:]:
            vec = kron_vec(vec, l.vec2())
        return vec

    def cleared_flatten(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Real and imaginary parts of a positive integer multiple of
        ``flatten()``, built from each local with its denominators cleared;
        raises for generic angle locals.  Computed once and kept."""
        if self._cleared is None:
            re, im = [1], [0]
            for l in self.locals:
                (ar, br), (ai, bi) = cleared(l.vec2())
                loc = ((ar, ai), (br, bi))
                re, im = (
                    [x * c - y * e for x, y in zip(re, im) for c, e in loc],
                    [x * e + y * c for x, y in zip(re, im) for c, e in loc],
                )
            object.__setattr__(self, "_cleared", (tuple(re), tuple(im)))
        return self._cleared

    def phase_key(self):
        return tuple(l.phase_key() for l in self.locals)

    def __eq__(self, other):
        if not isinstance(other, ProductVector):
            return NotImplemented
        return self.locals == other.locals

    def __hash__(self):
        return hash(self.locals)

    def __repr__(self):
        return f"ProductVector({list(self.locals)})"


@dataclass(frozen=True)
class WitnessGraph:
    """For each unordered member pair, the parties where their locals are
    orthogonal.  Nonempty everywhere exactly when the set is an OPS."""

    size: int
    parties: int
    witnesses: dict

    def parties_for(self, i: int, j: int):
        if i > j:
            i, j = j, i
        return self.witnesses[(i, j)]


@dataclass(frozen=True)
class ProductSet:
    """A finite set of pairwise orthogonal product vectors (all qubits)."""

    parties: int
    members: tuple
    verified: bool = False
    witness_graph: Optional[WitnessGraph] = None

    @property
    def dims(self):
        return (2,) * self.parties

    def __len__(self):
        return len(self.members)

    def member_keys(self):
        return {m.phase_key() for m in self.members}


def verify_ops(candidate: Sequence[ProductVector]) -> WitnessGraph:
    """Check pairwise orthogonality of product vectors, exactly.

    Returns the full witness graph.  Raises NotOrthogonalError or
    DuplicateMemberError naming the first offending pair, and
    ApproximateComparisonError if some comparison could not be done
    exactly.
    """
    members = list(candidate)
    if not members:
        return WitnessGraph(size=0, parties=0, witnesses={})
    n = members[0].parties
    if any(m.parties != n for m in members):
        raise ValueError("members disagree on the number of parties")
    witnesses = {}
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            ws = frozenset(
                p
                for p in range(n)
                if orthogonal_exact(members[i].locals[p], members[j].locals[p])
            )
            if not ws:
                try:
                    dup = all(
                        local_equal_up_to_phase(members[i].locals[p], members[j].locals[p])
                        for p in range(n)
                    )
                except ApproximateComparisonError:
                    dup = False
                if dup:
                    raise DuplicateMemberError(i, j)
                raise NotOrthogonalError(i, j)
            witnesses[(i, j)] = ws
    return WitnessGraph(size=len(members), parties=n, witnesses=witnesses)


def build_product_set(members: Sequence[ProductVector]) -> ProductSet:
    """Verify a candidate and return it as a verified ProductSet."""
    members = tuple(members)
    graph = verify_ops(members)
    n = members[0].parties if members else 0
    return ProductSet(parties=n, members=members, verified=True, witness_graph=graph)


@dataclass(frozen=True)
class ExtendDecision:
    """Either an extension witness or an exhausted-search certificate."""

    extendible: bool
    witness: Optional[ProductVector]
    branches_explored: int


def covering_search(keys, classes, parties: int):
    """The covering search behind every extendibility decision.

    ``keys[i][p]`` is member i's class at party p and ``classes[p]`` maps
    each class at party p to the bitmask of its members.  Looks for one
    class per party (parties may stay free) whose masks jointly cover every
    member.  Returns (assignment, branches): the party -> class choice, or
    None when the search ran to exhaustion, and the number of expanded
    nodes.
    """
    full = (1 << len(keys)) - 1
    branches = 0
    assignment: dict = {}

    def search(mask: int) -> bool:
        nonlocal branches
        branches += 1
        if mask == full:
            return True
        # the first uncovered member must be covered at an unassigned party:
        # an assigned class did not cover it, and a party holds one class only
        i = (~mask & (mask + 1)).bit_length() - 1
        for p in range(parties):
            if p in assignment:
                continue
            key = keys[i][p]
            assignment[p] = key
            if search(mask | classes[p][key]):
                return True
            del assignment[p]
        return False

    return (assignment if search(0) else None), branches


def class_masks(keys, parties: int):
    """Per party: dict of class -> bitmask of the members in it."""
    classes = [{} for _ in range(parties)]
    for idx, row in enumerate(keys):
        bit = 1 << idx
        for p, key in enumerate(row):
            groups = classes[p]
            groups[key] = groups.get(key, 0) | bit
    return classes


def extend_or_certify(s: ProductSet) -> ExtendDecision:
    """Decide extendibility of a verified qubit OPS, exactly.

    Extendible: returns a concrete witness, re-validated at its covering
    parties.  Unextendible: the covering search ran to exhaustion;
    ``branches_explored`` counts expanded nodes.  Unconstrained parties get
    |0>, or the angle state 0 at a party of angle locals.
    """
    if not s.verified:
        raise NotVerifiedError("extendibility requires a verified ProductSet")
    for m in s.members:
        if len(m.locals) != s.parties:
            raise NonQubitPartyError("member arity mismatch")
    keys = [[l.phase_key() for l in m.locals] for m in s.members]
    classes = class_masks(keys, s.parties)
    assignment, branches = covering_search(keys, classes, s.parties)
    if assignment is None:
        return ExtendDecision(extendible=False, witness=None, branches_explored=branches)
    # each chosen class is represented by its first member's local
    reps = {}
    for p, key in assignment.items():
        mask = classes[p][key]
        reps[p] = s.members[(mask & -mask).bit_length() - 1].locals[p]
    locals_out = []
    for p in range(s.parties):
        if p in assignment:
            locals_out.append(local_perp(reps[p]))
        else:
            locals_out.append(_canonical_free_local(s, p))
    witness = ProductVector(locals_out)
    _validate_extension(s, witness, assignment, classes, reps)
    return ExtendDecision(extendible=True, witness=witness, branches_explored=branches)


def _canonical_free_local(s: ProductSet, p: int) -> LocalState:
    # Keep the representation kind of the party so later comparisons stay exact.
    if any(m.locals[p].is_angle() for m in s.members):
        return LocalState.angle(0)
    return KET0


def _validate_extension(s, witness, assignment, classes, reps):
    covered = 0
    for p, key in assignment.items():
        if not orthogonal_exact(witness.locals[p], reps[p]):
            raise AssertionError("extension witness failed exact re-validation")
        covered |= classes[p][key]
    if covered != (1 << len(s.members)) - 1:
        raise AssertionError("extension witness does not cover all members")


def standard_opb(n: int) -> ProductSet:
    """The computational-basis product basis on n qubits (2^n members)."""
    if n < 1:
        raise ValueError("need at least one party")
    members = [
        ProductVector.from_bits([(s >> (n - 1 - j)) & 1 for j in range(n)])
        for s in range(1 << n)
    ]
    return build_product_set(members)


def coordinate_matrix(s: ProductSet) -> ExactMatrix:
    """Members flattened to ambient coordinates, as rows."""
    return ExactMatrix.from_rows([m.flatten() for m in s.members])


def is_proper(s: ProductSet) -> bool:
    """True when the set does not span the full space (the original,
    stricter notion of unextendibility keeps only proper sets)."""
    return matrix_rank(coordinate_matrix(s)) < 2 ** s.parties


def tensor_upb_opb(u: ProductSet, n_extra: int) -> ProductSet:
    """Tensor an unextendible set with the full standard basis on extra
    qubits.  Unextendibility survives: no product vector is orthogonal to a
    full basis on the extra parties, so a witness would have to extend u.
    """
    if not u.verified:
        raise NotVerifiedError("tensor_upb_opb requires a verified ProductSet")
    if n_extra == 0:
        return u
    if n_extra < 0:
        raise ValueError("n_extra must be nonnegative")
    base = extend_or_certify(u)
    if base.extendible:
        raise ValueError("tensor_upb_opb requires an unextendible input")
    members = []
    for m in u.members:
        for bits in range(1 << n_extra):
            extra = [LocalState.ket((bits >> (n_extra - 1 - j)) & 1) for j in range(n_extra)]
            members.append(ProductVector(tuple(m.locals) + tuple(extra)))
    return build_product_set(members)


def shifts_upb() -> ProductSet:
    """The classical 3-qubit unextendible product set of size four:
    {|0,1,+>, |1,+,0>, |+,0,1>, |-,-,->}."""
    k0, k1 = LocalState.ket(0), LocalState.ket(1)
    plus, minus = LocalState.pair(1, 1), LocalState.pair(1, -1)
    return build_product_set(
        [
            ProductVector([k0, k1, plus]),
            ProductVector([k1, plus, k0]),
            ProductVector([plus, k0, k1]),
            ProductVector([minus, minus, minus]),
        ]
    )
