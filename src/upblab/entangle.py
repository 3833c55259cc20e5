"""Range-criterion tools: product vectors in the range of a PSD operator,
and the exact product factorization of a qubit coordinate vector.

The scanner takes qubit parties only and has an exact branch and a
heuristic branch.  Exact: when the kernel is spanned by a known or detected
orthogonal set of product vectors (the empty set for a full-rank operator),
"product vector in the range" is equivalent to "extension of that set", so
the covering search decides it with a certificate either way; a detected
set is read from the operator's one LDL* certificate.  Heuristic:
alternating single-party maximization of the range overlap from random
starts; a near-hit is only ever reported as found after exact rational
confirmation, never on float evidence alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import NonQubitPartyError, NotPsdError, VerificationError
from .linalg import _kernel_basis, _range_quadratic_form, as_vector
from .product import (
    ExtendDecision,
    ProductSet,
    ProductVector,
    build_product_set,
    extend_or_certify,
)
from .qubits import LocalState
from .scalars import ComplexRational, cq_div
from .states import DensityOp

# Heuristic range scan: alternating-maximization sweeps per restart, and the
# denominator bound used to snap a near-hit to exact rationals.
_SWEEPS = 500
_MAX_DEN = 1 << 20


@dataclass(frozen=True)
class RangeScanResult:
    """Outcome of a product-vector-in-range scan.

    verdict is one of:
      "found"           -- ``witness`` is exactly in the range and factors
      "none_certified"  -- the kernel has a product orthogonal basis whose
                           unextendibility certificate rules every product
                           vector out of the range
      "none_heuristic"  -- no exact conclusion; best float overlap reported
    """

    verdict: str
    witness: Optional[ProductVector] = None
    certificate: Optional[ExtendDecision] = None
    best_overlap: Optional[float] = None
    iterations: int = 0


def product_vector_from_flat(v, n: int) -> Optional[ProductVector]:
    """Exact product factorization of a 2^n coordinate vector, or None.

    Peels one party at a time.  The current vector's halves r0 and r1 (the
    party's |0> and |1> rows against the rest) must be proportional: with c
    the first column where either is nonzero and (a, b) = (r0[c], r1[c]),
    every column (x, y) has x b = y a.  The party's local is then (a, b) and
    the rest is p / p[c], p being r0 if a != 0 and r1 otherwise: the pivot
    column and the RREF row of the rank-one flattening.  The last 2-vector
    is the final local.
    """
    row = [x.t for x in as_vector(v)]
    if len(row) != 1 << n:
        raise ValueError(f"need {1 << n} coordinates, got {len(row)}")
    locals_out = []
    for k in range(n - 1, 0, -1):
        half = 1 << k
        r0, r1 = row[:half], row[half:]
        c = next((j for j in range(half)
                  if r0[j][0] or r0[j][1] or r1[j][0] or r1[j][1]), None)
        if c is None:
            return None
        a, b = r0[c], r1[c]
        (ap, aq, ar), (bp, bq, br) = a, b
        # x b == y a, cross-multiplied over the denominators x_r b_r and y_r a_r
        for (xp, xq, xr), (yp, yq, yr) in zip(r0[c + 1:], r1[c + 1:]):
            s, t = yr * ar, xr * br
            if ((xp * bp - xq * bq) * s != (yp * ap - yq * aq) * t
                    or (xp * bq + xq * bp) * s != (yp * aq + yq * ap) * t):
                return None
        p = r0 if a[0] or a[1] else r1
        row = [cq_div(x, p[c]) for x in p]
        locals_out.append(LocalState.pair(*map(ComplexRational.from_triple, (a, b))))
    row = [ComplexRational.from_triple(x) for x in row]
    if all(x.is_zero() for x in row):
        return None
    locals_out.append(LocalState.pair(*row))
    return ProductVector(locals_out)


def _kernel_product_basis(d: DensityOp) -> Optional[ProductSet]:
    """A product basis of ker(d), if one is in reach.

    Uses the attached kernel set when it has one member per kernel
    dimension: ``DensityOp`` checked at construction that d annihilates
    each member and that the set lives on d's parties, and its members are
    independent, so they span the kernel.  Otherwise tests whether the
    kernel basis read from d's certificate consists of mutually orthogonal
    product vectors.  No rotated bases are searched.
    """
    nullity = d.dim - d.rank()
    s = d.kernel_product_set
    if s is not None and len(s.members) == nullity:
        return s
    if nullity == 0:
        return ProductSet(d.parties, ())
    members = []
    for vec in _kernel_basis(d.psd()):
        pv = product_vector_from_flat(vec, d.parties)
        if pv is None:
            return None
        members.append(pv)
    try:
        return build_product_set(members)
    except VerificationError:
        return None


def range_product_scan(d: DensityOp, budget: int = 64, seed: int = 0) -> RangeScanResult:
    """Search for a nonzero product vector in the range of a PSD operator
    on qubit parties.

    ``budget`` counts random restarts of the heuristic branch; ``seed``
    makes the run reproducible.  The verdict "none_certified" is only ever
    produced from an exact unextendibility certificate for a product basis
    of the kernel.  Raises ValueError for a negative budget or seed and
    NonQubitPartyError, before any elimination, unless every party is a
    qubit.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if set(d.dims) != {2}:
        raise NonQubitPartyError("the range scan is implemented for qubit parties only")
    base = d.psd()
    if not base.is_psd:
        raise NotPsdError("range scan requires a PSD operator")
    kernel = _kernel_product_basis(d)
    if kernel is None:
        return _heuristic_scan(d, budget, seed)
    decision = extend_or_certify(kernel)
    if decision.extendible:
        return RangeScanResult(verdict="found", witness=decision.witness)
    return RangeScanResult(verdict="none_certified", certificate=decision)


def _heuristic_scan(d: DensityOp, budget: int, seed: int) -> RangeScanResult:
    import numpy as np

    n = d.parties
    m = d.matrix.to_numpy()
    vals, vecs = np.linalg.eigh(m)
    tol = max(abs(vals)) * 1e-12 if len(vals) else 0.0
    cols = vecs[:, vals > tol]
    proj = cols @ cols.conj().T

    rng = np.random.default_rng(seed)
    best = 0.0
    total_sweeps = 0
    best_state = None
    for _ in range(budget):
        locs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(n)]
        locs = [l / np.linalg.norm(l) for l in locs]
        prev = -1.0
        for _ in range(_SWEEPS):
            total_sweeps += 1
            for j in range(n):
                # M_j[a,b] = <z with e_a at j | proj | z with e_b at j>
                cols_j = []
                for e in (np.array([1, 0]), np.array([0, 1])):
                    z = np.array([1.0 + 0j])
                    for k in range(n):
                        z = np.kron(z, e if k == j else locs[k])
                    cols_j.append(z)
                E = np.stack(cols_j, axis=1)
                Mj = E.conj().T @ proj @ E
                locs[j] = np.linalg.eigh(Mj)[1][:, -1]
            z = np.array([1.0 + 0j])
            for k in range(n):
                z = np.kron(z, locs[k])
            overlap = float(np.real(z.conj() @ proj @ z))
            if overlap > best:
                best = overlap
                best_state = [l.copy() for l in locs]
            if overlap - prev < 1e-10:
                break
            prev = overlap
        if best >= 1 - 1e-9:
            pv = _rationalize_product(best_state)
            if pv is not None:
                # the same range decision subtract_product makes
                if _range_quadratic_form(d.psd(), pv.flatten()) is not None:
                    return RangeScanResult(
                        verdict="found",
                        witness=pv,
                        best_overlap=best,
                        iterations=total_sweeps,
                    )
    return RangeScanResult(
        verdict="none_heuristic", best_overlap=best, iterations=total_sweeps
    )


def _rationalize_product(locs) -> Optional[ProductVector]:
    """Snap float locals to rationals on a denominator grid."""
    import numpy as np

    out = []
    for l in locs:
        # phase-normalize on the larger component
        k = int(np.argmax(np.abs(l)))
        l = l / l[k]
        a = ComplexRational(
            Fraction(float(np.real(l[0]))).limit_denominator(_MAX_DEN),
            Fraction(float(np.imag(l[0]))).limit_denominator(_MAX_DEN),
        )
        b = ComplexRational(
            Fraction(float(np.real(l[1]))).limit_denominator(_MAX_DEN),
            Fraction(float(np.imag(l[1]))).limit_denominator(_MAX_DEN),
        )
        if a.is_zero() and b.is_zero():
            return None
        out.append(LocalState.pair(a, b))
    return ProductVector(out)
