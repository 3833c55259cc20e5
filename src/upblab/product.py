"""Orthogonal product sets of qubits: exact verification into one canonical
structure, the exact extendibility decision, and construction combinators.

Two product vectors are orthogonal when their locals are at some party.  At
a qubit party a local and its (unique) perp form one phase class, orthogonal
locals sit on the two sides of one class, and a ``ProductSet`` verifies its
members when it is made and keeps one ``Structure``: a (class, side) label
per member and party.  No unverified ``ProductSet`` exists, so nothing
downstream checks again.

Extendibility of a qubit OPS is decided exactly by a covering search: a
product vector z is orthogonal to member x iff z_j is the perp of x's local
at some party j, so z exists iff one label per party can be chosen (at most
one; parties may stay free) whose member groups jointly cover the whole set.
The search branches on the first uncovered member (every uncovered member
has one option per unassigned party) and certifies exhaustion on failure.
It reads only the structure, so the scan runs it before building any set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DuplicateMemberError, NotOrthogonalError
from .linalg import cleared, kron_vec
from .qubits import KET0, LocalState, local_perp, orthogonal_exact


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
        """Exact ambient coordinates (length 2^n) of a positive multiple of
        the member, the Kronecker product of the locals' ``vec2``; raises for
        generic angle locals."""
        vec = self.locals[0].vec2()
        for l in self.locals[1:]:
            vec = kron_vec(vec, l.vec2())
        return vec

    def cleared_flatten(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Real and imaginary parts of a Gaussian-integer vector proportional,
        by a positive real, to the member, built local by local from their
        ``vec2``; raises for generic angles.  Computed once."""
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
class Structure:
    """Canonical (class, side) labels of a qubit product set.  At each
    party the phase classes are numbered 0, 1, ... by their first members,
    and a member is labelled c on its class's first member's side, c + size
    on the other: members share a label iff their locals are equal up to
    phase, and are orthogonal at a party iff their labels differ by size.
    """

    labels: tuple  # per member, one label per party
    masks: tuple  # per party, indexed by label: the bitmask of its members

    def orthogonal_parties(self, i: int) -> list:
        """For each later member j = i + 1, i + 2, ..., the parties where
        members i and j are orthogonal, ascending: those where their labels
        differ by size."""
        labels, size = self.labels, len(self.labels)
        a = labels[i]
        return [[p for p, x in enumerate(a) if abs(x - b[p]) == size] for b in labels[i + 1 :]]

    def witnesses(self) -> dict:
        """(i, j), i < j -> the parties where members i and j are
        orthogonal, for every member pair."""
        return {
            (i, j): frozenset(ws)
            for i in range(len(self.labels))
            for j, ws in enumerate(self.orthogonal_parties(i), i + 1)
        }


@dataclass(frozen=True)
class ProductSet:
    """A finite set of pairwise orthogonal product vectors (all qubits).

    Construction verifies the members: one on another number of parties
    raises ValueError, and ``verify_ops`` raises VerificationError for a
    pair orthogonal at no party.  ``structure`` is the one it returns."""

    parties: int
    members: tuple
    structure: Structure = field(init=False, compare=False)

    def __post_init__(self):
        if any(m.parties != self.parties for m in self.members):
            raise ValueError(f"members must all have {self.parties} parties")
        object.__setattr__(self, "structure", verify_ops(self.members))

    @property
    def dims(self):
        return (2,) * self.parties

    def __len__(self):
        return len(self.members)


def verify_ops(candidate: Sequence[ProductVector]) -> Structure:
    """Check pairwise orthogonality of product vectors, exactly.

    Returns the canonical structure, labelled by the complete phase keys,
    so locals of any representation compare exactly.  The first pair in
    scan order that is orthogonal at no party raises: DuplicateMemberError
    when their labels agree at every party, else NotOrthogonalError.
    """
    members = list(candidate)
    if not members:
        return Structure(labels=(), masks=())
    n = members[0].parties
    if any(m.parties != n for m in members):
        raise ValueError("members disagree on the number of parties")
    size = len(members)
    columns, masks = [], []
    keys = {}  # id(local) -> its phase key; the members keep each local alive
    for p in range(n):
        by_key, groups, column = {}, [0] * (2 * size), []
        for i, m in enumerate(members):
            l, bit = m.locals[p], 1 << i
            ident = id(l)
            if ident not in keys:
                keys[ident] = l.phase_key()
            key = keys[ident]
            if key not in by_key:
                # a new class; each earlier one holds its key and its perp's
                by_key[key] = len(by_key) // 2
                by_key[local_perp(l).phase_key()] = by_key[key] + size
            column.append(by_key[key])
            groups[by_key[key]] |= bit
        columns.append(column)
        masks.append(tuple(groups))
    full = (1 << size) - 1
    for i in range(size):
        orth = 0
        for column, groups in zip(columns, masks):
            orth |= groups[(column[i] + size) % (2 * size)]
        bad = full & -(2 << i) & ~orth  # later members only
        if bad:
            j = (bad & -bad).bit_length() - 1
            if all(column[i] == column[j] for column in columns):
                raise DuplicateMemberError(i, j)
            raise NotOrthogonalError(i, j)
    return Structure(labels=tuple(zip(*columns)), masks=tuple(masks))


def build_product_set(members: Sequence[ProductVector]) -> ProductSet:
    """A ProductSet of the candidates, on their number of parties."""
    members = tuple(members)
    return ProductSet(members[0].parties if members else 0, members)


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
    None when the search ran to exhaustion, and the number of nodes of the
    depth-first search tree up to the first cover.

    A node's subtree depends only on its state, the pair (covered mask, set
    of assigned parties): the classes chosen so far act only through the
    members they cover.  So each failed state is expanded once.  A later
    node in the same state is not expanded again, and the size of the
    subtree recorded for that state is added to ``branches``, which still
    counts the nodes of the whole, unmemoized tree.  The search keeps its
    path on an explicit stack, so its depth is not bounded by the recursion
    limit.
    """
    full = (1 << len(keys)) - 1
    branches = 1
    assignment: dict = {}
    if full == 0:  # the root covers the empty set
        return assignment, branches
    failed: dict = {}  # (mask, assigned-party bits) -> nodes in its subtree
    stack = []
    # the node being expanded: its state, its first uncovered member i, the
    # next party p to try, and the node count before it was entered
    mask = used = i = p = start = 0
    while True:
        # the first uncovered member must be covered at an unassigned party:
        # an assigned class did not cover it, and a party holds one class only
        while p < parties and used >> p & 1:
            p += 1
        if p == parties:
            if not stack:
                return None, branches
            failed[mask, used] = branches - start
            mask, used, i, p, start = stack.pop()
            del assignment[p]
            p += 1
            continue
        key = keys[i][p]
        child = mask | classes[p][key]
        if child == full:
            assignment[p] = key
            return assignment, branches + 1
        size = failed.get((child, used | 1 << p))
        if size is not None:
            branches += size
            p += 1
            continue
        assignment[p] = key
        stack.append((mask, used, i, p, start))
        mask, used, start = child, used | 1 << p, branches
        branches += 1
        i = (~mask & (mask + 1)).bit_length() - 1
        p = 0


def extend_or_certify(s: ProductSet) -> ExtendDecision:
    """Decide extendibility of a qubit OPS, exactly.

    Extendible: returns a concrete witness, re-validated at its covering
    parties.  Unextendible: the covering search ran to exhaustion;
    ``branches_explored`` counts the nodes of its tree.  Unconstrained
    parties get |0>.
    """
    classes = s.structure.masks
    assignment, branches = covering_search(s.structure.labels, classes, s.parties)
    if assignment is None:
        return ExtendDecision(extendible=False, witness=None, branches_explored=branches)
    # each chosen label is represented by its first member's local
    reps = {}
    for p, label in assignment.items():
        mask = classes[p][label]
        reps[p] = s.members[(mask & -mask).bit_length() - 1].locals[p]
    witness = ProductVector(
        local_perp(reps[p]) if p in reps else KET0 for p in range(s.parties)
    )
    _validate_extension(s, witness, assignment, classes, reps)
    return ExtendDecision(extendible=True, witness=witness, branches_explored=branches)


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


def is_proper(s: ProductSet) -> bool:
    """True when the set does not span the full space (the original,
    stricter notion of unextendibility keeps only proper sets).  The
    members are pairwise orthogonal and nonzero, hence independent, so this
    reads the member count."""
    return len(s.members) < 2 ** s.parties


def tensor_upb_opb(u: ProductSet, n_extra: int) -> ProductSet:
    """Tensor an unextendible set with the full standard basis on extra
    qubits.  Unextendibility survives: no product vector is orthogonal to a
    full basis on the extra parties, so a witness would have to extend u.
    """
    if n_extra < 0:
        raise ValueError("n_extra must be nonnegative")
    if extend_or_certify(u).extendible:
        raise ValueError("tensor_upb_opb requires an unextendible input")
    if n_extra == 0:
        return u
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
