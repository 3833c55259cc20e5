"""Structure of orthogonal product bases of a qubit x N-dimensional system.

Every such OPB arises from an orthogonal decomposition of the second factor
into blocks X_1 + ... + X_m, one qubit basis pair {v_j, v_j-perp} per block,
and two orthogonal bases {x_ji}, {y_ji} of each block: the members are all
|v_j, x_ji> and all |v_j-perp, y_ji>.  This module generates an OPB from
such a description and recovers the description from an OPB; the block
count and block dimensions are canonical invariants.

``BlockSpec``'s constructor is the one "is this an OPB" decision, behind
both directions.  Qubit locals are compared on their phase keys only, so
angle locals of any rational angle take part.

Bases here are orthogonal, not orthonormal: everything stays unnormalized
so the entries remain rational, and squared norms are carried implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidSpecError, NotAnOPBError
from .linalg import ExactMatrix, Vector, as_vector, inner, matrix_rank
from .qubits import LocalState, local_equal_up_to_phase, local_perp


@dataclass(frozen=True)
class BipartitePair:
    """A product vector of a qubit local and a side-2 coordinate vector."""

    qubit: LocalState
    tail: Vector

    def flatten(self) -> Vector:
        a, b = self.qubit.vec2()
        return tuple(a * x for x in self.tail) + tuple(b * x for x in self.tail)


@dataclass(frozen=True)
class BlockSpec:
    """Blocks, qubit bases and per-block basis pairs describing an OPB;
    construction checks every invariant, so each spec describes one."""

    side2_dim: int
    qubit_bases: tuple  # m LocalStates, pairwise distinct bases
    block_dims: tuple
    x_bases: tuple  # per block: tuple of side-2 vectors
    y_bases: tuple

    @property
    def m(self) -> int:
        return len(self.qubit_bases)

    def __post_init__(self):
        """Raise InvalidSpecError naming the first invariant violated."""
        m = self.m
        if m < 1:
            raise InvalidSpecError("need at least one block")
        if len(self.block_dims) != m or len(self.x_bases) != m or len(self.y_bases) != m:
            raise InvalidSpecError("per-block data lengths disagree")
        if sum(self.block_dims) != self.side2_dim:
            raise InvalidSpecError("block dimensions do not sum to the space dimension")
        for a in range(m):
            for b in range(a + 1, m):
                va, vb = self.qubit_bases[a], self.qubit_bases[b]
                if local_equal_up_to_phase(va, vb) or local_equal_up_to_phase(
                    local_perp(va), vb
                ):
                    raise InvalidSpecError(
                        f"qubit bases {a} and {b} are the same unordered basis"
                    )
        for j in range(m):
            k = self.block_dims[j]
            if k < 1:
                raise InvalidSpecError(f"block {j} has dimension < 1")
            for name, basis in (("x", self.x_bases[j]), ("y", self.y_bases[j])):
                if len(basis) != k:
                    raise InvalidSpecError(f"{name}-basis of block {j} has wrong size")
                if any(len(v) != self.side2_dim for v in basis):
                    raise InvalidSpecError(f"{name}-basis of block {j} has wrong ambient dim")
                if any(all(x.is_zero() for x in v) for v in basis):
                    raise InvalidSpecError(f"{name}-basis of block {j} contains zero")
                if not _orthogonal_family(basis):
                    raise InvalidSpecError(f"{name}-basis of block {j} is not orthogonal")
            stacked = ExactMatrix.from_rows(list(self.x_bases[j]) + list(self.y_bases[j]))
            if matrix_rank(stacked) != k:
                raise InvalidSpecError(f"x- and y-bases of block {j} span different spaces")
        # blocks pairwise orthogonal
        for a in range(m):
            for b in range(a + 1, m):
                for u in self.x_bases[a]:
                    for w in self.x_bases[b]:
                        if not inner(u, w).is_zero():
                            raise InvalidSpecError(f"blocks {a} and {b} are not orthogonal")


def _orthogonal_family(vectors) -> bool:
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if not inner(vectors[i], vectors[j]).is_zero():
                return False
    return True


def opb_from_blocks(spec: BlockSpec) -> list:
    """Emit the 2N pairwise-orthogonal members of the described OPB; the
    spec's constructor has already checked that they are an OPB."""
    out = []
    for j in range(spec.m):
        v = spec.qubit_bases[j]
        vp = local_perp(v)
        for x in spec.x_bases[j]:
            out.append(BipartitePair(qubit=v, tail=as_vector(x)))
        for y in spec.y_bases[j]:
            out.append(BipartitePair(qubit=vp, tail=as_vector(y)))
    return out


def opb_to_blocks(members: Sequence[BipartitePair]) -> BlockSpec:
    """Recover the block structure of a bipartite OPB.

    Groups the members by the phase class of their qubit local, pairs each
    class with its perpendicular class and builds the ``BlockSpec``.  A valid
    spec generates exactly these members up to qubit phases, so only an OPB
    is accepted; in an OPB a class without its perpendicular class would
    leave |v-perp, x> orthogonal to every member, so every OPB is accepted.
    Raises NotAnOPBError naming the first failed invariant otherwise.
    """
    members = list(members)
    if not members:
        raise NotAnOPBError("empty input")
    groups: dict = {}  # phase key -> (first local of the class, its tails)
    for mem in members:
        groups.setdefault(mem.qubit.phase_key(), (mem.qubit, []))[1].append(mem.tail)
    qubit_bases, x_bases, y_bases = [], [], []
    while groups:
        rep, xs = groups.pop(next(iter(groups)))
        perp = groups.pop(local_perp(rep).phase_key(), None)
        if perp is None:
            raise NotAnOPBError("a qubit class appears without its perpendicular class")
        qubit_bases.append(rep)
        x_bases.append(tuple(xs))
        y_bases.append(tuple(perp[1]))
    try:
        return BlockSpec(
            side2_dim=len(members[0].tail),
            qubit_bases=tuple(qubit_bases),
            block_dims=tuple(len(xs) for xs in x_bases),
            x_bases=tuple(x_bases),
            y_bases=tuple(y_bases),
        )
    except InvalidSpecError as exc:
        raise NotAnOPBError(str(exc)) from None


def member_keys(members: Sequence[BipartitePair]) -> set:
    """Canonical keys identifying members up to phase and order.  Raises
    ValueError for a member whose tail is zero, which has no phase to fix."""
    out = set()
    for n, m in enumerate(members):
        piv = next((x for x in m.tail if not x.is_zero()), None)
        if piv is None:
            raise ValueError(f"member {n} has a zero tail")
        tail_key = tuple((x / piv).t for x in m.tail)
        out.add((m.qubit.phase_key(), tail_key))
    return out
