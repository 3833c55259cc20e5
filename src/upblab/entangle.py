"""Range-criterion tools: product vectors in the range of a PSD operator,
Schmidt rank, and exact two-term decompositions of tripartite tensors.

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
from math import prod
from typing import Optional

from . import _kernels
from .errors import (
    BadCutError,
    DegenerateSplitError,
    NonQubitPartyError,
    NotPsdError,
    NotRankTwoError,
    VerificationError,
)
from .linalg import (
    ExactMatrix,
    _kernel_basis,
    _range_quadratic_form,
    as_vector,
    kron_vec,
    matrix_rank,
)
from .product import (
    ExtendDecision,
    ProductSet,
    ProductVector,
    build_product_set,
    extend_or_certify,
)
from .qubits import LocalState
from .scalars import CQ0, CQ1, ComplexRational, complex_sqrt
from .states import DensityOp, party_offsets

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

    Peels one party at a time with the rank-one split of its party-vs-rest
    flattening; the last 2-vector is the final local.
    """
    row = as_vector(v)
    locals_out = []
    for k in range(n - 1, 0, -1):
        split = _rank1_split(ExactMatrix(2, 2 ** k, row))
        if split is None:
            return None
        col, row = split
        locals_out.append(LocalState.pair(*col))
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


def schmidt_rank(v, dims, cut) -> int:
    """Exact rank of the flattening of ``v`` across ``cut`` vs the rest."""
    v = as_vector(v)
    dims = tuple(dims)
    if prod(dims) != len(v):
        raise BadCutError("dims inconsistent with vector length")
    cut = frozenset(cut)
    if not cut or any(p < 0 or p >= len(dims) for p in cut) or len(cut) == len(dims):
        raise BadCutError("cut must be a nonempty proper subset of parties")
    return matrix_rank(_flatten_matrix(v, dims, sorted(cut)))


@dataclass(frozen=True)
class Rank2Decomposition:
    """One or two product terms summing exactly to the input tensor.

    ``unique`` is True only for two-term splits whose local factors are
    linearly independent at every party; such splits are canonical up to
    phases and term order.
    """

    terms: tuple  # each term: tuple of per-party coordinate tuples
    unique: bool

    def term_vectors(self):
        out = []
        for t in self.terms:
            vec = t[0]
            for loc in t[1:]:
                vec = kron_vec(vec, loc)
            out.append(vec)
        return out


def _flatten_matrix(v, dims, left) -> ExactMatrix:
    """``v`` as a matrix: rows run over the joint values of the parties in
    ``left``, columns over the other parties, each row-major."""
    right = [p for p in range(len(dims)) if p not in left]
    rows = party_offsets(dims, left)
    cols = party_offsets(dims, right)
    return ExactMatrix(len(rows), len(cols), [v[a + b] for a in rows for b in cols])


def _rank1_split(mat: ExactMatrix):
    """Write a rank-one matrix as col (x) row: the one-term case of
    ``_rank_factor``.  Returns (col, row), or None unless the rank is one."""
    cols, rows = _rank_factor(mat)
    return (cols[0], rows[0]) if len(rows) == 1 else None


def _pencil_product_points(W1: ExactMatrix, W2: ExactMatrix):
    """Projective points (lam : mu) where lam W1 + mu W2 has rank <= 1.

    Every 2x2 minor of the pencil is a binary quadratic in (lam, mu); the
    product locus is their common zero set.  Returns ("all", None) when the
    whole pencil is degenerate, otherwise ("points", [(lam, mu), ...]) with
    0, 1 or 2 exact points (points needing irrational coordinates are
    dropped; a repeated root yields a single point).
    """
    quads = []
    for i1 in range(W1.rows):
        for i2 in range(i1 + 1, W1.rows):
            for j1 in range(W1.cols):
                for j2 in range(j1 + 1, W1.cols):
                    a11, a12 = W1.at(i1, j1), W1.at(i1, j2)
                    a21, a22 = W1.at(i2, j1), W1.at(i2, j2)
                    b11, b12 = W2.at(i1, j1), W2.at(i1, j2)
                    b21, b22 = W2.at(i2, j1), W2.at(i2, j2)
                    # det(lam A + mu B) of the 2x2 minor
                    c20 = a11 * a22 - a12 * a21
                    c02 = b11 * b22 - b12 * b21
                    c11 = a11 * b22 + b11 * a22 - a12 * b21 - b12 * a21
                    if c20 or c02 or c11:
                        quads.append((c20, c11, c02))
    if not quads:
        return ("all", None)
    c20, c11, c02 = quads[0]
    candidates = []
    if not c20:
        # mu (c11 lam + c02 mu) = 0
        candidates.append((CQ1, CQ0))
        if c11:
            candidates.append((-c02, c11))
    else:
        disc = c11 * c11 - 4 * (c20 * c02)
        root = complex_sqrt(disc)
        if root is not None:
            two_a = 2 * c20
            candidates.append(((-c11 + root) / two_a, CQ1))
            if root:
                candidates.append(((-c11 - root) / two_a, CQ1))
    # dedupe projectively and filter against all remaining minors
    points = []
    for lam, mu in candidates:
        if lam.is_zero() and mu.is_zero():
            continue
        dup = False
        for l2, m2 in points:
            if (lam * m2 - mu * l2).is_zero():
                dup = True
                break
        if dup:
            continue
        if all((c1 * lam * lam + c2 * lam * mu + c3 * mu * mu).is_zero()
               for c1, c2, c3 in quads):
            points.append((lam, mu))
    return ("points", points)


def rank2_tripartite_decompose(v, dims) -> Rank2Decomposition:
    """Split a tripartite tensor into at most two exact product terms.

    Requires ``dims`` to match the length of ``v`` (else BadCutError, before
    any flattening) and Schmidt rank <= 2 across every one-vs-rest cut (else
    NotRankTwoError).  The leading cut's flattening M is eliminated once:
    its rank factorization M = sum_t a_t (x) w_t gives that cut's rank and
    the split.  For a clean two-term tensor the split is found from the
    rank-one points of the matrix pencil spanned by the w_t and is
    canonical (``unique=True``) exactly when the two local factors are
    independent at every party.  DegenerateSplitError is raised when the
    pencil admits no exact two-product split (a repeated point, a single
    point, or points outside the rationals).
    """
    dims = tuple(dims)
    if len(dims) != 3:
        raise ValueError("expected three parties")
    v = as_vector(v)
    if all(x.is_zero() for x in v):
        raise ValueError("cannot decompose the zero tensor")
    if prod(dims) != len(v):
        raise BadCutError("dims inconsistent with vector length")
    # one elimination of the leading flattening gives its rank and its
    # factorization M = sum_t a_cols[t] (x) w_rows[t]
    M = _flatten_matrix(v, dims, [0])
    a_cols, w_rows = _rank_factor(M)
    ranks = [len(w_rows)] + [schmidt_rank(v, dims, {p}) for p in (1, 2)]
    if any(r > 2 for r in ranks):
        raise NotRankTwoError(f"one-vs-rest Schmidt ranks {ranks} exceed two")

    if ranks[0] == 1:
        # v = a (x) tail with tail on parties 2,3: any rank factorization of
        # the tail gives a (non-unique) split with one term per tail rank
        T = ExactMatrix(dims[1], dims[2], list(w_rows[0]))
        terms = tuple((a_cols[0], c, r) for c, r in zip(*_rank_factor(T)))
        return _check_sum(Rank2Decomposition(terms=terms, unique=False), v)

    # rank over the leading cut is 2: split the pencil spanned by the rows
    W = [ExactMatrix(dims[1], dims[2], list(w)) for w in w_rows]
    kind, points = _pencil_product_points(W[0], W[1])

    if kind == "all":
        # every pencil element is a product: split along the basis rows
        terms = []
        for t in range(2):
            split = _rank1_split(W[t])
            if split is None:
                raise DegenerateSplitError("degenerate pencil with a non-product row")
            col, row = split
            terms.append((a_cols[t], col, row))
        return _check_sum(Rank2Decomposition(terms=tuple(terms), unique=False), v)

    if len(points) < 2:
        raise DegenerateSplitError(
            "the splitting pencil has no pair of exact rank-one points"
        )
    # change basis: z_k = lam_k w_1 + mu_k w_2; express v = sum a'_k (x) z_k
    (l1, m1), (l2, m2) = points
    det = l1 * m2 - l2 * m1
    if det.is_zero():
        raise DegenerateSplitError("splitting points are projectively equal")
    # v = sum_t a_t (x) w_t = sum_k a'_k (x) z_k with a'_k given by the
    # k-th column of G^{-1}, G = [[l1, m1], [l2, m2]]
    inv = [[m2 / det, -m1 / det], [-l2 / det, l1 / det]]
    terms = []
    for k in range(2):
        z = tuple(
            points[k][0] * w_rows[0][i] + points[k][1] * w_rows[1][i]
            for i in range(len(w_rows[0]))
        )
        Z = ExactMatrix(dims[1], dims[2], list(z))
        split = _rank1_split(Z)
        if split is None:
            raise DegenerateSplitError("pencil point failed its rank-one split")
        col, row = split
        a_new = tuple(
            inv[0][k] * a_cols[0][i] + inv[1][k] * a_cols[1][i]
            for i in range(len(a_cols[0]))
        )
        terms.append((a_new, col, row))
    unique = all(r == 2 for r in ranks)
    return _check_sum(Rank2Decomposition(terms=tuple(terms), unique=unique), v)


def _check_sum(dec: Rank2Decomposition, v) -> Rank2Decomposition:
    """Return ``dec`` after checking that its terms sum exactly to ``v``."""
    total = None
    for vec in dec.term_vectors():
        total = vec if total is None else tuple(a + b for a, b in zip(total, vec))
    if tuple(total) != tuple(v):
        raise AssertionError("decomposition does not sum back to the input")
    return dec


def _rank_factor(M: ExactMatrix):
    """The rank factorization of ``M`` from one ``rref``: ``(cols, rows)``,
    the pivot columns of M and its nonzero RREF rows (tuples of scalars), so
    that M = sum_t cols[t] (x) rows[t] and rank(M) = len(rows)."""
    rank, piv_cols, red = _kernels.rref(M._triple_rows(), M.rows, M.cols)
    cols = [tuple(M.at(i, j) for i in range(M.rows)) for j in piv_cols]
    rows = [tuple(ComplexRational.from_triple(t) for t in red[i]) for i in range(rank)]
    return cols, rows
