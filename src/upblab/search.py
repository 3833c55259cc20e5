"""Randomized template search for orthogonal product sets of a prescribed
size, and falsification-style scanning for unextendible ones.

A template fixes, for every member pair, one party that must witness their
orthogonality.  Per party this induces a constraint graph on the members;
orthogonality at a qubit party forces the two locals into the two halves of
a perp-pair, so a template is realizable exactly when every per-party graph
is 2-colorable.  Realization hands each connected component a fresh
rational angle q (its color classes get q and q + 1/2), which keeps all
later orthogonality decisions exact.

Realization runs in stages.  Sampling records each party's graph as one
neighbour bitmask per member, and feasibility is decided on those masks
before any labelling randomness is used: a draw with an odd cycle at any
party draws no angle.  ``label_template`` then draws every angle as an
integer numerator over a fixed denominator; distinct numerators are
distinct phase classes, so the labels alone decide extendibility with the
covering search of ``upblab.product``.  The scan decides each draw on its
labels and materializes, verifies and re-checks exact product sets only for
the unextendible hits it reports.

The scan is evidence-grade: it reports what a random sample of templates
produced and proves nothing by absence.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .product import (
    ProductVector,
    build_product_set,
    class_masks,
    covering_search,
    extend_or_certify,
)
from .qubits import LocalState

SCAN_NOTE = "evidence-grade randomized scan; finding nothing is not a proof"


@dataclass(frozen=True)
class Template:
    """A witness-party choice for every unordered member pair.

    ``neighbours[p][i]`` is the bitmask of the members that member i must
    be orthogonal to at party p.  It is derived from ``witness_choice``
    (filled while sampling, or once here for a template built by hand) and
    takes no part in equality or repr.
    """

    parties: int
    size: int
    witness_choice: dict  # (i, j) with i < j -> party index
    neighbours: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.neighbours is None:
            masks = [[0] * self.size for _ in range(self.parties)]
            for (i, j), p in self.witness_choice.items():
                masks[p][i] |= 1 << j
                masks[p][j] |= 1 << i
            object.__setattr__(self, "neighbours", tuple(masks))

    def party_edges(self, p: int):
        return [pair for pair, q in self.witness_choice.items() if q == p]


@dataclass(frozen=True)
class Infeasible:
    """Realization obstruction: some per-party graph is not 2-colorable or
    the angle supply was exhausted by collisions."""

    reason: str


def sample_template(parties: int, size: int, rng: random.Random, balanced: bool = False) -> Template:
    """Uniform witness choices, or biased toward balanced per-party edge
    counts when ``balanced`` is set."""
    choice = {}
    counts = [0] * parties
    masks = [[0] * size for _ in range(parties)]
    randrange = rng.randrange
    for i in range(size):
        bit_i = 1 << i
        for j in range(i + 1, size):
            if balanced:
                low = min(counts)
                pool = [p for p in range(parties) if counts[p] == low]
                p = pool[randrange(len(pool))]
                counts[p] += 1
            else:
                p = randrange(parties)
            choice[(i, j)] = p
            row = masks[p]
            row[i] |= 1 << j
            row[j] |= bit_i
    return Template(parties=parties, size=size, witness_choice=choice, neighbours=tuple(masks))


def _two_color(neighbours) -> Optional[list]:
    """Components and 2-colorings of the graph given by one neighbour
    bitmask per member: (component mask, color-1 mask) pairs in order of
    each component's smallest member, or None on an odd cycle.  Isolated
    members are singleton components."""
    comps = []
    unseen = (1 << len(neighbours)) - 1
    while unseen:
        # breadth-first by layers; ``same`` holds the members colored like
        # the current layer, ``other`` the rest of the component so far
        layer = unseen & -unseen
        same, other = layer, 0
        odd = False
        while layer:
            reach = 0
            while layer:
                low = layer & -layer
                reach |= neighbours[low.bit_length() - 1]
                layer ^= low
            if reach & same:
                return None
            layer = reach & ~other
            same, other = other | layer, same
            odd = not odd
        comp = same | other
        comps.append((comp, same if odd else other))
        unseen &= ~comp
    return comps


def _colorings(t: Template):
    """Every party's 2-coloring, or Infeasible at the first odd cycle."""
    colorings = []
    for p, neighbours in enumerate(t.neighbours):
        comps = _two_color(neighbours)
        if comps is None:
            return Infeasible(reason=f"party {p} constraint graph has an odd cycle")
        colorings.append(comps)
    return colorings


# Angles are a/64 for integer numerators a in [0, 64); a fresh draw is
# rejected while it collides with a numerator already used at the same
# party or with its perp, (a + 32) % 64.
_ANGLE_DENOM = 64
_HALF = _ANGLE_DENOM // 2
_MAX_ANGLE_TRIES = 200


def label_template(t: Template, seed: int):
    """Angle numerators of the realization of a template, or Infeasible.

    Returns a grid with one row per member and one integer per party: the
    member's local at that party is the angle state a / 64.  Members share a
    numerator exactly when their locals are phase-equal, and are orthogonal
    at a party exactly when their numerators differ by 32.  Deterministic
    for a given (template, seed).

    Every party is colored before any angle is drawn, so an odd cycle is
    reported even where an earlier party would run out of angles.  Angles
    can only run out once a party has 32 or more components.
    """
    colorings = _colorings(t)
    if isinstance(colorings, Infeasible):
        return colorings
    return _label(t, colorings, seed)


def _label(t: Template, colorings, seed: int):
    """Draw one angle per component, party by party, from ``Random(seed)``."""
    rng = random.Random(seed)
    grid = [[0] * t.parties for _ in range(t.size)]
    for p, comps in enumerate(colorings):
        used = set()
        for comp, ones in comps:
            a = _fresh_angle(rng, used)
            if a is None:
                return Infeasible(reason=f"party {p} ran out of non-colliding angles")
            perp = (a + _HALF) % _ANGLE_DENOM
            used.add(a)
            used.add(perp)
            while comp:
                low = comp & -comp
                grid[low.bit_length() - 1][p] = perp if low & ones else a
                comp ^= low
    return grid


def _fresh_angle(rng: random.Random, used) -> Optional[int]:
    for _ in range(_MAX_ANGLE_TRIES):
        a = rng.randrange(_ANGLE_DENOM)
        if a not in used:
            return a
    return None


def _materialize(t: Template, grid):
    """The verified all-angle OPS a label grid stands for.  Its witness
    graph must contain every chosen witness of the template."""
    members = [
        ProductVector([LocalState.angle(Fraction(a, _ANGLE_DENOM)) for a in row])
        for row in grid
    ]
    s = build_product_set(members)
    for (i, j), p in t.witness_choice.items():
        if p not in s.witness_graph.parties_for(i, j):
            raise AssertionError("realized set lost a template witness")
    return s


def realize_template(t: Template, seed: int):
    """Realize a template as a verified all-angle OPS, or return Infeasible.

    Deterministic for a given (template, seed): the labels of
    ``label_template``, materialized.  The witness graph of the result
    contains every chosen witness of the template.
    """
    grid = label_template(t, seed)
    if isinstance(grid, Infeasible):
        return grid
    return _materialize(t, grid)


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
    """One deterministic work unit: sample, color, label, decide; only an
    unextendible draw is materialized.  An infeasible draw stops at its
    coloring and draws no label seed."""
    rng = random.Random(seed + unit)
    t = sample_template(parties, size, rng, balanced=balanced)
    colorings = _colorings(t)
    if isinstance(colorings, Infeasible):
        return ("infeasible", None)
    grid = _label(t, colorings, rng.randrange(1 << 30))
    if isinstance(grid, Infeasible):
        return ("infeasible", None)
    assignment, _ = covering_search(grid, class_masks(grid, parties), parties)
    if assignment is not None:
        return ("extendible", None)
    return ("upb", _materialize(t, grid))


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
