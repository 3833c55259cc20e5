"""Randomized template search for orthogonal product sets of a prescribed
size, and falsification-style scanning for unextendible ones.

A template fixes, for every member pair, one party that must witness their
orthogonality.  Per party this induces a constraint graph on the members;
orthogonality at a qubit party forces the two locals into the two halves of
a perp-pair, so a template is realizable exactly when every per-party graph
is 2-colorable.

A template is kept as one neighbour bitmask per member and party, and its
witnesses are drawn from the stream of ``randrange``.  One pass per party
colors and labels a draw with the canonical ``Structure`` of
``upblab.product``: each connected component is one phase class c,
numbered by its smallest member, labelled c on that member's side and
c + size on the other.  Label a is realized as the angle a / (2 size), so
the two sides of a class are exactly 1/2 apart and distinct classes get
distinct angles.  The structure alone decides extendibility with the
covering search.  The scan decides each draw on its structure and
materializes, verifies (to that very structure) and re-checks exact product
sets only for the unextendible hits it reports.

The scan is evidence-grade: it reports what a random sample of templates
produced and proves nothing by absence.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .product import (
    ProductVector,
    Structure,
    build_product_set,
    covering_search,
    extend_or_certify,
)
from .qubits import LocalState

SCAN_NOTE = "evidence-grade randomized scan; finding nothing is not a proof"


@dataclass(frozen=True)
class Template:
    """A witness-party choice for every unordered member pair.

    ``neighbours[p][i]`` is the bitmask of the members that member i must
    be orthogonal to at party p; every pair is set at exactly one party.
    """

    parties: int
    size: int
    neighbours: tuple  # per party, one bitmask per member


@dataclass(frozen=True)
class Infeasible:
    """Realization obstruction: some per-party graph is not 2-colorable."""

    reason: str


def sample_template(parties: int, size: int, rng: random.Random, balanced: bool = False) -> Template:
    """Uniform witness choices, each ``rng.randrange(parties)`` written out
    (the same words of ``rng``), or biased toward balanced per-party edge
    counts when ``balanced`` is set."""
    counts = [0] * parties
    masks = [[0] * size for _ in range(parties)]
    randrange, getrandbits = rng.randrange, rng.getrandbits
    k = parties.bit_length()
    for i in range(size):
        bit_i = 1 << i
        for j in range(i + 1, size):
            if balanced:
                low = min(counts)
                pool = [p for p in range(parties) if counts[p] == low]
                p = pool[randrange(len(pool))]
                counts[p] += 1
            else:
                p = getrandbits(k)
                while p >= parties:
                    p = getrandbits(k)
            row = masks[p]
            row[i] |= 1 << j
            row[j] |= bit_i
    return Template(parties=parties, size=size, neighbours=tuple(map(tuple, masks)))


def label_template(t: Template):
    """The canonical ``Structure`` of a template's realizations, or
    Infeasible at the first party whose constraint graph has an odd cycle.
    Breadth-first by layers from each component's smallest member: ``same``
    holds the members labelled like the current layer, ``other`` the rest
    of the component so far, and an edge into ``same`` closes an odd cycle."""
    size = t.size
    columns, masks = [], []
    for p, neighbours in enumerate(t.neighbours):
        column, groups = [0] * size, [0] * (2 * size)
        unseen, c = (1 << size) - 1, 0
        while unseen:
            start = unseen & -unseen
            i = start.bit_length() - 1
            if neighbours[i]:
                layer, same, other, label, flip = start, start, 0, c, c + size
                while layer:
                    reach = 0
                    while layer:
                        low = layer & -layer
                        m = low.bit_length() - 1
                        column[m] = label
                        reach |= neighbours[m]
                        layer ^= low
                    if reach & same:
                        return Infeasible(reason=f"party {p} constraint graph has an odd cycle")
                    layer = reach & ~other
                    same, other, label, flip = other | layer, same, flip, label
                groups[label], groups[flip] = same, other
                start = same | other
            else:  # an isolated member is a class of its own
                column[i], groups[c] = c, start
            unseen &= ~start
            c += 1
        columns.append(column)
        masks.append(tuple(groups))
    return Structure(labels=tuple(zip(*columns)), masks=tuple(masks))


def _materialize(structure: Structure):
    """The verified all-angle OPS a structure stands for, label a realized
    as the angle a / (2 size); it must verify to the same structure."""
    denom = 2 * len(structure.labels)
    s = build_product_set(
        ProductVector(LocalState.angle(Fraction(a, denom)) for a in row) for row in structure.labels
    )
    if s.structure != structure:
        raise AssertionError("realized set lost its template structure")
    return s


def realize_template(t: Template):
    """Realize a template as a verified all-angle OPS, or return Infeasible:
    the structure of ``label_template``, materialized."""
    structure = label_template(t)
    if isinstance(structure, Infeasible):
        return structure
    return _materialize(structure)


@dataclass(frozen=True)
class ScanReport:
    """Outcome of a randomized scan for UPBs of one size."""

    parties: int
    size: int
    budget: int
    seed: int
    templates_tried: int
    feasible: int
    ops_built: int
    extendible: int
    upbs_found: tuple  # ProductSets, re-verified
    elapsed_s: float
    note: str = SCAN_NOTE


def _scan_unit(parties: int, size: int, seed: int, unit: int, balanced: bool):
    """One deterministic work unit: sample, label, decide; only an
    unextendible draw is materialized."""
    t = sample_template(parties, size, random.Random(seed + unit), balanced=balanced)
    structure = label_template(t)
    if isinstance(structure, Infeasible):
        return ("infeasible", None)
    assignment, _ = covering_search(structure.labels, structure.masks, parties)
    if assignment is not None:
        return ("extendible", None)
    return ("upb", _materialize(structure))


def scan(
    parties: int,
    size: int,
    budget: int,
    seed: int,
    balanced: bool = False,
) -> ScanReport:
    """Try ``budget`` random templates and collect certified UPBs.

    Deterministic for fixed arguments: unit u always runs with seed
    ``seed + u``.  Raises ValueError for a request outside
    1 <= size <= 2^parties, parties >= 1, budget >= 0, seed >= 0
    (``Random`` seeds from the absolute value, so a negative seed would
    repeat units).
    """
    if parties < 1:
        raise ValueError("need at least one party")
    if size < 1:
        raise ValueError("size must be positive")
    if size > 2 ** parties:
        raise ValueError("size exceeds the space dimension")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    started = time.monotonic()
    feasible = 0
    extendible = 0
    upbs = []
    for u in range(budget):
        kind, payload = _scan_unit(parties, size, seed, u, balanced)
        if kind == "infeasible":
            continue
        feasible += 1
        if kind == "extendible":
            extendible += 1
        else:
            # re-check before reporting
            recheck = extend_or_certify(payload)
            if recheck.extendible:
                raise AssertionError("scan hit failed its re-check")
            upbs.append(payload)
    return ScanReport(
        parties=parties,
        size=size,
        budget=budget,
        seed=seed,
        templates_tried=budget,
        feasible=feasible,
        ops_built=feasible,
        extendible=extendible,
        upbs_found=tuple(upbs),
        elapsed_s=time.monotonic() - started,
    )
