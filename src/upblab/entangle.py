"""Range-criterion tools: product vectors in the range of a PSD operator,
Schmidt rank, and exact two-term decompositions of tripartite tensors.

The scanner has an exact branch and a heuristic branch.  Exact: when the
kernel is spanned by a known or detected orthogonal set of product vectors,
"product vector in the range" is equivalent to "extension of that set", so
the covering search decides it with a certificate either way.  Heuristic:
alternating single-party maximization of the range overlap from random
starts; a near-hit is only ever reported as found after exact rational
confirmation, never on float evidence alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional

from .errors import (
    ApproximateComparisonError,
    BadCutError,
    DegenerateSplitError,
    NotPsdError,
    NotRankTwoError,
)
from .linalg import (
    ExactMatrix,
    annihilates,
    as_vector,
    cleared,
    inner,
    kron_vec,
    matrix_rank,
    nullspace_basis,
    solve_consistent,
)
from .product import (
    ExtendDecision,
    ProductSet,
    ProductVector,
    build_product_set,
    extend_or_certify,
)
from .qubits import LocalState
from .scalars import CQ0, CQ1, ComplexRational
from .states import DensityOp, party_offsets


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
    seed: Optional[int] = None


def _vector_factors_qubits(v, n) -> Optional[list]:
    """Factor a 2^n vector into n qubit locals, exactly, or return None.

    Peels one party at a time: the party-vs-rest flattening must have rank
    one, in which case the local is read off a nonzero row/column.
    """
    vec = list(v)
    locals_out = []
    length = len(vec)
    for _ in range(n - 1):
        half = length // 2
        top = vec[:half]
        bot = vec[half:]
        # rank-1 condition of the 2 x half flattening: top and bot parallel
        top_zero = all(x.is_zero() for x in top)
        bot_zero = all(x.is_zero() for x in bot)
        if top_zero and bot_zero:
            return None
        if top_zero:
            locals_out.append(LocalState.ket(1))
            vec = bot
        elif bot_zero:
            locals_out.append(LocalState.ket(0))
            vec = top
        else:
            k = next(i for i, x in enumerate(top) if not x.is_zero())
            if bot[k].is_zero():
                return None
            ratio = bot[k] / top[k]
            for a, b in zip(top, bot):
                if b != ratio * a:
                    return None
            locals_out.append(LocalState.pair(CQ1, ratio))
            vec = top
        length = half
    a, b = vec
    if a.is_zero() and b.is_zero():
        return None
    locals_out.append(LocalState.pair(a, b))
    return locals_out


def product_vector_from_flat(v, n: int) -> Optional[ProductVector]:
    """Exact product factorization of a 2^n coordinate vector, or None."""
    locs = _vector_factors_qubits(as_vector(v), n)
    return ProductVector(locs) if locs else None


def _kernel_product_basis(d: DensityOp) -> Optional[ProductSet]:
    """A verified product basis of ker(d), if one is in reach.

    Uses the attached kernel set when present (after exact revalidation);
    otherwise tests whether the computed nullspace basis happens to consist
    of mutually orthogonal product vectors.  No rotated bases are searched.
    """
    nullity = d.dim - d.rank()
    if d.kernel_product_set is not None:
        s = d.kernel_product_set
        if len(s.members) == nullity and s.verified:
            rows = [cleared(d.matrix.row(i)) for i in range(d.dim)]
            if all(annihilates(rows, m.cleared_flatten()) for m in s.members):
                return s
    if nullity == 0:
        return ProductSet(parties=d.parties, members=(), verified=True)
    if set(d.dims) != {2}:
        return None
    basis = nullspace_basis(d.matrix)
    members = []
    for vec in basis:
        pv = product_vector_from_flat(vec, d.parties)
        if pv is None:
            return None
        members.append(pv)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not inner(members[i].flatten(), members[j].flatten()).is_zero():
                return None
    return build_product_set(members)


def range_product_scan(
    d: DensityOp, budget: int = 64, seed: int = 0, sweeps: int = 500
) -> RangeScanResult:
    """Search for a nonzero product vector in the range of a PSD operator.

    ``budget`` counts random restarts of the heuristic branch; ``seed``
    makes the run reproducible.  The verdict "none_certified" is only ever
    produced from an exact unextendibility certificate for a product basis
    of the kernel.
    """
    base = d.psd()
    if not base.is_psd:
        raise NotPsdError("range scan requires a PSD operator")
    kernel = _kernel_product_basis(d)
    if kernel is not None:
        if not kernel.members:
            witness = ProductVector([LocalState.ket(0)] * d.parties) if set(d.dims) == {2} else None
            if witness is not None:
                return RangeScanResult(verdict="found", witness=witness, seed=seed)
            # non-qubit full-range operator: any basis vector works, but there
            # is no qubit product structure to report; fall through.
        else:
            decision = extend_or_certify(kernel)
            if decision.extendible:
                return RangeScanResult(
                    verdict="found", witness=decision.witness, seed=seed
                )
            return RangeScanResult(
                verdict="none_certified", certificate=decision, seed=seed
            )
    return _heuristic_scan(d, budget, seed, sweeps)


def _heuristic_scan(d: DensityOp, budget: int, seed: int, sweeps: int) -> RangeScanResult:
    import numpy as np

    if set(d.dims) != {2}:
        raise ApproximateComparisonError(
            "heuristic range scan is implemented for qubit parties only"
        )
    n = d.parties
    dim = d.dim
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
        for _ in range(sweeps):
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
                w, u = np.linalg.eigh(Mj)
                locs[j] = u[:, -1]
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
                flat = pv.flatten()
                if solve_consistent(d.matrix, flat) is not None:
                    return RangeScanResult(
                        verdict="found",
                        witness=pv,
                        best_overlap=best,
                        iterations=total_sweeps,
                        seed=seed,
                    )
    return RangeScanResult(
        verdict="none_heuristic",
        best_overlap=best,
        iterations=total_sweeps,
        seed=seed,
    )


def _rationalize_product(locs, max_den: int = 1 << 20) -> Optional[ProductVector]:
    """Snap float locals to rationals on a denominator grid."""
    import numpy as np

    out = []
    for l in locs:
        # phase-normalize on the larger component
        k = int(np.argmax(np.abs(l)))
        l = l / l[k]
        a = ComplexRational(
            Fraction(float(np.real(l[0]))).limit_denominator(max_den),
            Fraction(float(np.imag(l[0]))).limit_denominator(max_den),
        )
        b = ComplexRational(
            Fraction(float(np.real(l[1]))).limit_denominator(max_den),
            Fraction(float(np.imag(l[1]))).limit_denominator(max_den),
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
    """Write a rank-one matrix as col (x) row; returns (col, row) or None."""
    pr = pc = -1
    for i in range(mat.rows):
        for j in range(mat.cols):
            if not mat.at(i, j).is_zero():
                pr, pc = i, j
                break
        if pr >= 0:
            break
    if pr < 0:
        return None
    piv = mat.at(pr, pc)
    col = tuple(mat.at(i, pc) / piv for i in range(mat.rows))
    row = tuple(mat.at(pr, j) for j in range(mat.cols))
    for i in range(mat.rows):
        for j in range(mat.cols):
            if mat.at(i, j) != col[i] * row[j]:
                return None
    return col, row


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
        from .scalars import complex_sqrt

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

    Requires Schmidt rank <= 2 across every one-vs-rest cut (else
    NotRankTwoError).  For a clean two-term tensor the split is found from
    the rank-one points of the matrix pencil spanned by the trailing-party
    flattenings and is canonical (``unique=True``) exactly when the two
    local factors are independent at every party.  DegenerateSplitError is
    raised when the pencil admits no exact two-product split (a repeated
    point, a single point, or points outside the rationals).
    """
    dims = tuple(dims)
    if len(dims) != 3:
        raise ValueError("expected three parties")
    v = as_vector(v)
    if all(x.is_zero() for x in v):
        raise ValueError("cannot decompose the zero tensor")
    ranks = [schmidt_rank(v, dims, {p}) for p in range(3)]
    if any(r > 2 for r in ranks):
        raise NotRankTwoError(f"one-vs-rest Schmidt ranks {ranks} exceed two")

    M = _flatten_matrix(v, dims, [0])
    if ranks[0] == 1:
        # v = a (x) tail with tail on parties 2,3
        split = _rank1_split(M)
        a, tail = split
        T = ExactMatrix(dims[1], dims[2], list(tail))
        t_rank = matrix_rank(T)
        if t_rank == 1:
            col, row = _rank1_split(T)
            return _check_sum(Rank2Decomposition(terms=((a, col, row),), unique=False), v)
        # bipartite rank-2 tail: any rank factorization gives a (non-unique) split
        rank, piv_cols, red = _rank_factor(T)
        terms = []
        for t in range(2):
            col = tuple(T.at(i, piv_cols[t]) for i in range(T.rows))
            row = red[t]
            terms.append((a, col, row))
        return _check_sum(Rank2Decomposition(terms=tuple(terms), unique=False), v)

    # rank over the leading cut is 2: rank factorization M = A.B
    rank, piv_cols, red = _rank_factor(M)
    a_cols = [tuple(M.at(i, piv_cols[t]) for i in range(M.rows)) for t in range(2)]
    w_rows = [red[0], red[1]]
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
    """Rank factorization data: rank, pivot columns, and RREF rows (each a
    tuple of scalars).  M equals (pivot columns) @ (RREF rows)."""
    from . import _kernels

    rank, piv_cols, red = _kernels.rref(M._triple_rows(), M.rows, M.cols)
    rows = [
        tuple(ComplexRational.from_triple(t) for t in red[i])
        for i in range(rank)
    ]
    return rank, piv_cols, rows
