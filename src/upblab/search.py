"""Randomized template search for orthogonal product sets of a prescribed
size, and falsification-style scanning for unextendible ones.

A template fixes, for every member pair, one party that must witness their
orthogonality.  Per party this induces a constraint graph on the members;
orthogonality at a qubit party forces the two locals into the two halves of
a perp-pair, so a template is realizable exactly when every per-party graph
is 2-colorable.  Realization hands each connected component a fresh
rational angle q (its color classes get q and q + 1/2), which keeps all
later orthogonality decisions exact.

Realization runs in two stages.  ``label_template`` draws every angle as an
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
from dataclasses import dataclass
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
    """A witness-party choice for every unordered member pair."""

    parties: int
    size: int
    witness_choice: dict  # (i, j) with i < j -> party index

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
    for i in range(size):
        for j in range(i + 1, size):
            if balanced:
                low = min(counts)
                pool = [p for p in range(parties) if counts[p] == low]
                p = pool[rng.randrange(len(pool))]
            else:
                p = rng.randrange(parties)
            counts[p] += 1
            choice[(i, j)] = p
    return Template(parties=parties, size=size, witness_choice=choice)


def _two_color(size: int, edges) -> Optional[list]:
    """Components and 2-colorings: list of (component members, colors dict),
    or None on an odd cycle.  Isolated members get singleton components."""
    adj = {i: [] for i in range(size)}
    for (i, j) in edges:
        adj[i].append(j)
        adj[j].append(i)
    color = {}
    comps = []
    for start in range(size):
        if start in color:
            continue
        comp = [start]
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    comp.append(w)
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
        comps.append((comp, {m: color[m] for m in comp}))
    return comps


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
    """
    rng = random.Random(seed)
    grid = [[0] * t.parties for _ in range(t.size)]
    for p in range(t.parties):
        comps = _two_color(t.size, t.party_edges(p))
        if comps is None:
            return Infeasible(reason=f"party {p} constraint graph has an odd cycle")
        used = set()
        for comp, colors in comps:
            a = _fresh_angle(rng, used)
            if a is None:
                return Infeasible(reason=f"party {p} ran out of non-colliding angles")
            perp = (a + _HALF) % _ANGLE_DENOM
            used.add(a)
            used.add(perp)
            for m in comp:
                grid[m][p] = a if colors[m] == 0 else perp
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
    """One deterministic work unit: sample, label, decide; only an
    unextendible draw is materialized."""
    rng = random.Random(seed + unit)
    t = sample_template(parties, size, rng, balanced=balanced)
    grid = label_template(t, seed=rng.randrange(1 << 30))
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
    1 <= size <= 2^parties, parties >= 1, budget >= 0.
    """
    if parties < 1:
        raise ValueError("need at least one party")
    if size < 1:
        raise ValueError("size must be positive")
    if size > 2 ** parties:
        raise ValueError("size exceeds the space dimension")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
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
