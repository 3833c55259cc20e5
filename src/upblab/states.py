"""Multipartite density operators over exact scalars.

Operators are Hermitian matrices with an explicit party-dimension vector;
the trace is read from the matrix, unnormalized operators are first class,
and normalization only happens on request.  Partial transpose and partial
trace are exact index shuffles/contractions; positivity questions go
through the certified LDL* elimination, run at most once per matrix, and
rank, range and kernel questions are answered from that one certificate.
The PPT sweep finds equal partial transposes from the masks whose
transpose fixes the operator, testing each mask at most once on the
nonzero entries; it moves only those entries into each distinct transpose
and eliminates it once.  The complement projector packs each member from
its locals and visits only its nonzero entries, which it hands on as the
matrix's ``nonzero()`` view; the checks and the PPT sweep read that view.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Optional

from .errors import (
    BadMaskError,
    NotHermitianError,
    NotInRangeError,
    NotPsdError,
    SpansEverythingError,
)
from .linalg import (
    ExactMatrix,
    PsdCertificate,
    _ldl_certificate,
    _range_quadratic_form,
    annihilates,
    as_vector,
    cleared,
    matrix_rank,
    projector,
    psd_certificate,
    range_quadratic_form,  # noqa: F401  (re-exported)
    sparse_cleared_rows,
)
from .product import ProductSet, ProductVector
from .scalars import CQ0, CQ_ZERO, ComplexRational, cq_make, cq_scale_rat


@dataclass(frozen=True)
class DensityOp:
    """A Hermitian operator on a tensor product of finite-dimensional
    parties.  ``kernel_product_set`` optionally records a product set in
    the kernel, such as the generating set of a complement projector.
    Construction checks it: the matrix must annihilate every member, and
    the set must live on the operator's dims; ValueError otherwise.

    The PSD certificate is computed on first use and kept on the matrix.  Its
    Hermiticity check is skipped for matrices marked Hermitian (see
    ``ExactMatrix``): those that ``density_from_matrix`` has checked, and
    those built from them by ``partial_transpose``, ``subtract_product`` and
    a real ``ExactMatrix.scale``, such as ``normalized``'s."""

    dims: tuple
    matrix: ExactMatrix
    kernel_product_set: Optional[ProductSet] = None
    # mask -> partial transpose, filled by partial_transpose
    _transposes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = prod(self.dims)
        if self.matrix.rows != d or self.matrix.cols != d:
            raise ValueError("matrix size does not match party dimensions")
        s = self.kernel_product_set
        if s is None:
            return
        bad = annihilates(
            sparse_cleared_rows(self.matrix), [m.cleared_flatten() for m in s.members]
        )
        if bad is not None:
            raise ValueError(f"member {bad} is not annihilated by the matrix")
        # members of the right length can still factor over other parties
        if s.dims != tuple(self.dims):
            raise ValueError(
                f"dims {list(s.dims)} differ from the operator's dims {list(self.dims)}"
            )

    @property
    def parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def trace_norm(self) -> Fraction:
        """The trace of the matrix (real for a Hermitian one)."""
        return self.matrix.trace().re

    def rank(self) -> int:
        """Exact rank: the LDL certificate's pivot count when the operator is
        PSD, a fraction-free (Bareiss) elimination otherwise."""
        cert = self.psd()
        if cert.is_psd:
            return cert.rank
        return matrix_rank(self.matrix)

    def psd(self) -> PsdCertificate:
        return psd_certificate(self.matrix)

    def normalized(self) -> "DensityOp":
        t = self.trace_norm
        if t == 1:
            return self
        if t == 0:
            raise ValueError("cannot normalize a traceless operator")
        return replace(self, matrix=self.matrix.scale(ComplexRational(1 / t)))

    def assert_state(self) -> "DensityOp":
        """Check PSD and trace one; raises otherwise."""
        t = self.trace_norm
        if t != 1:
            raise ValueError(f"trace is {t}, not 1")
        cert = self.psd()
        if not cert.is_psd:
            raise NotPsdError("operator is not positive semidefinite")
        return self


def density_from_matrix(dims, matrix: ExactMatrix, kernel_product_set=None) -> DensityOp:
    if not matrix.is_hermitian():
        raise NotHermitianError("density operators must be exactly Hermitian")
    object.__setattr__(matrix, "_hermitian", True)
    return DensityOp(dims=tuple(dims), matrix=matrix, kernel_product_set=kernel_product_set)


def pure_density(vector, dims) -> DensityOp:
    """|v><v| / <v|v> as a normalized state."""
    v = as_vector(vector)
    return density_from_matrix(dims, projector(v))


def complement_projector(s: ProductSet) -> DensityOp:
    """The normalized projector onto the orthogonal complement of an OPS.

    Returns (I - sum_i |x_i><x_i| / <x_i|x_i>) / (D - |s|), a trace-one
    operator of rank exactly D - |s|.  The generating set is attached as
    the kernel product basis.  Raises SpansEverythingError when the set is
    a full basis and ApproximateComparisonError for an angle local not a
    multiple of 1/4 (see ``LocalState.vec2``).
    """
    if not s.members:
        raise ValueError("complement of an empty set is the identity; build it directly")
    d = prod(s.dims)
    if len(s.members) >= d:
        if len(s.members) == d:
            raise SpansEverythingError("the set spans the whole space")
        raise ValueError("more members than the space dimension")
    # Each member x is the Kronecker product of its cleared locals, each
    # distinct local object cleared once, so its norm n = <x|x> is the
    # product of theirs and sum_x |x><x|/n = N/L, with L the lcm of the
    # norms and N integral.
    locs = {}
    for l in {id(l): l for m in s.members for l in m.locals}.values():
        (ar, br), (ai, bi) = cleared(l.vec2())
        locs[id(l)] = (ar, ai, br, bi)
    factors = [[locs[id(l)] for l in m.locals] for m in s.members]
    norms = [prod(sum(x * x for x in f) for f in fs) for fs in factors]
    big = lcm(*norms)
    weights = [big // n for n in norms]
    # Row i of N is sum_x (w x_i) conj(x), a sum of scaled member vectors,
    # each part packed into one integer, `width` bytes per coordinate and
    # read as in ``annihilates``, so a row costs one multiply-add per member
    # and part.  No entry of N exceeds sum_x w max_j (|re| + |im|)^2, and
    # as |Re zw| + |Im zw| <= (|Re z| + |Im z|)(|Re w| + |Im w|), max_j is at
    # most the product over x's locals of their larger |re| + |im|.  A slot
    # holds that bound and a sign bit, so none spills over.
    peaks = [prod(max(abs(a) + abs(b), abs(c) + abs(e)) for a, b, c, e in fs) for fs in factors]
    bound = sum(w * p * p for w, p in zip(weights, peaks))
    width = bound.bit_length() // 8 + 1
    bits = 8 * width
    half = 1 << (bits - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * d, "little")
    packed = []
    for m, fs, w in zip(s.members, factors, weights):
        # packed from the last party: l (x) P puts l_0 P in P's `up` bits
        # and l_1 P in as many bits above them
        pr, pi, up = 1, 0, bits
        for ar, ai, br, bi in reversed(fs):
            hr, hi = br * pr - bi * pi, br * pi + bi * pr
            pr, pi, up = ar * pr - ai * pi + (hr << up), ar * pi + ai * pr + (hi << up), 2 * up
        packed.append((*m.cleared_flatten(), w, pr, pi))
    # (L I - N) / (L (D - |s|)): the upper triangle, each nonzero entry
    # reduced once, and its conjugate below the diagonal, each also listed
    # in its row of the view.  A zero entry keeps the shared CQ0; a diagonal
    # entry is tested only after L is added
    rank = d - len(s.members)
    den = big * rank
    data = [CQ0] * (d * d)
    view = [[] for _ in range(d)]
    for i in range(d):
        row_re = row_im = 0
        for xr, xi, w, pr, pi in packed:
            wr, wi = w * xr[i], w * xi[i]
            if wr or wi:
                # w x_i conj(x_j) in slot j
                row_re += wr * pr + wi * pi
                row_im += wi * pr - wr * pi
        # entries j >= i of L I - N: slot j of a biased row is N_ij + half,
        # so slot j of `live` is nonzero exactly when N_ij is.  Slots below i
        # are masked off and slot i is forced in, as L is added there
        row_re += bias
        row_im += bias
        live = ((row_re ^ bias) | (row_im ^ bias)) & (-1 << i * bits) | (1 << i * bits)
        re_bytes = row_re.to_bytes(d * width, "little")
        im_bytes = row_im.to_bytes(d * width, "little")
        while live:
            # the lowest live slot, then drop it and every slot below
            j = ((live & -live).bit_length() - 1) // bits
            live &= -1 << (j + 1) * bits
            at = j * width
            a = half - int.from_bytes(re_bytes[at : at + width], "little")
            b = half - int.from_bytes(im_bytes[at : at + width], "little")
            if j == i:
                a += big
            if a or b:
                t = cq_make(a, b, den)
                data[i * d + j] = ComplexRational.from_triple(t)
                view[i].append((i, j, t))
                if j != i:
                    c = (t[0], -t[1], t[2])
                    data[j * d + i] = ComplexRational.from_triple(c)
                    view[j].append((j, i, c))
    # Every entry sits next to its conjugate, so the Hermitian check that
    # psd() makes below on the view is the only one needed
    m = ExactMatrix(d, d, data)
    object.__setattr__(m, "_nonzero", tuple(e for row in view for e in row))
    out = DensityOp(dims=s.dims, matrix=m, kernel_product_set=s)
    cert = out.psd()
    if not cert.is_psd or cert.rank != rank:
        raise AssertionError("complement projector is not a PSD operator of rank D - |s|")
    return out


def party_offsets(dims, parties) -> list:
    """Flat-index offset of each joint value of ``parties``, row-major over
    ``parties`` as listed, with every other party's digit zero.

    A flat index is the sum of one offset per group when the groups
    partition the parties."""
    out = [0]
    for p in parties:
        stride = prod(dims[p + 1 :])
        out = [a + k * stride for a in out for k in range(dims[p])]
    return out


def _check_mask(mask, parties) -> frozenset:
    mask = frozenset(mask)
    if any(p < 0 or p >= parties for p in mask):
        raise BadMaskError(f"party indices out of range: {sorted(mask)}")
    return mask


# One ppt_report sweep at n qubits asks for the splits of at most its
# 2^(n-1) - 1 class masks: those it tests and those it scatters, in the same
# order for operators that fix the same masks, so a cache that holds fewer
# could evict each one before its next use.  A rotated 6-qubit complement
# asks for most of its 31, the identity for its n - 1 singletons only.  256
# holds all 255 of 9 qubits, 255 x 2 x 512 offsets.
@lru_cache(maxsize=256)
def _transpose_split(dims: tuple, mask: tuple) -> tuple:
    """Offsets (u, m), each indexed by flat index: a = u[a] + m[a], with u[a]
    the offset of a's unmasked digits and m[a] that of its masked digits.

    The partial transpose moves entry (i, j) to (u[i] + m[j], u[j] + m[i]);
    as it is an involution, that is also where entry (i, j) of the transpose
    comes from.  This is the one index rule of both partial transposes:
    ``partial_transpose`` gathers every entry through it, and ``ppt_report``
    tests and scatters only the nonzero ones.
    """
    u = [0] * prod(dims)
    m = list(u)
    masked = party_offsets(dims, mask)
    for a in party_offsets(dims, [p for p in range(len(dims)) if p not in mask]):
        for b in masked:
            u[a + b] = a
            m[a + b] = b
    return tuple(u), tuple(m)


def partial_transpose(d: DensityOp, mask) -> DensityOp:
    """Transpose the tensor factors in ``mask`` (0-based), exactly.

    An involution; preserves Hermiticity of Hermitian inputs, so an operator
    known to be Hermitian gives one known to be Hermitian.  The transpose is
    kept on ``d``: the same ``d`` and mask give the same operator, whose
    certificate is then computed at most once.

    Every entry is gathered from the source through ``_transpose_split``,
    the index split that ``ppt_report`` scatters its nonzero entries with.
    """
    mask = _check_mask(mask, d.parties)
    out = d._transposes.get(mask)
    if out is None:
        u, w = _transpose_split(tuple(d.dims), tuple(sorted(mask)))
        src, dim = d.matrix.data, d.dim
        # entry (i, j) is source entry (u[i] + w[j], u[j] + w[i]), whose flat
        # index is a row part u[i] dim + w[i] plus a column part w[j] dim + u[j]
        rows = [a * dim + b for a, b in zip(u, w)]
        cols = [b * dim + a for a, b in zip(u, w)]
        m = ExactMatrix(dim, dim, [src[r + c] for r in rows for c in cols])
        object.__setattr__(m, "_hermitian", d.matrix._hermitian)
        out = DensityOp(dims=d.dims, matrix=m)
        d._transposes[mask] = out
    return out


def partial_trace(d: DensityOp, keep) -> DensityOp:
    """Trace out all parties not in ``keep`` (0-based), exactly."""
    keep = sorted(_check_mask(keep, d.parties))
    if not keep:
        raise BadMaskError("keep set must be nonempty")
    dims = d.dims
    offsets = party_offsets(dims, keep)
    traced = party_offsets(dims, [p for p in range(d.parties) if p not in keep])
    src = d.matrix.data
    dim = d.dim
    # out[a, b] = sum_t M[a + t, b + t]
    data = [
        sum((src[(a + t) * dim + b + t] for t in traced), CQ0) for a in offsets for b in offsets
    ]
    m = ExactMatrix(len(offsets), len(offsets), data)
    return DensityOp(dims=tuple(dims[p] for p in keep), matrix=m)


@dataclass(frozen=True)
class PptReport:
    """One PSD certificate per bipartition class.

    Classes are labelled by the mask not containing party 0; complementary
    masks give co-spectral partial transposes, so one verdict per class
    suffices.
    """

    certificates: dict  # frozenset(mask) -> PsdCertificate

    @property
    def is_ppt(self) -> bool:
        return all(c.is_psd for c in self.certificates.values())

    def classes(self):
        return sorted(self.certificates, key=lambda m: (len(m), sorted(m)))


def bipartition_classes(parties: int):
    """Nonempty masks over parties 1..n-1 (party 0 fixed on the other side):
    one representative per complementary pair, 2^(n-1) - 1 in total."""
    rest = list(range(1, parties))
    out = []
    for bits in range(1, 1 << len(rest)):
        out.append(frozenset(rest[i] for i in range(len(rest)) if bits & (1 << i)))
    out.sort(key=lambda m: (len(m), sorted(m)))
    return out


def _check_cut(d: DensityOp, what: str) -> None:
    """Raise BadMaskError unless every bipartition of d splits off
    something: two or more parties, each of dimension 2 or more."""
    if d.parties < 2:
        raise BadMaskError(f"{what} needs at least two parties")
    if min(d.dims) < 2:
        raise BadMaskError(f"{what} needs parties of dimension 2 or more, got dims {list(d.dims)}")


def ppt_report(d: DensityOp) -> PptReport:
    """Certify the partial transpose of every bipartition class of a PSD
    operator.  Raises BadMaskError for fewer than two parties or a party of
    dimension 1, where some cut splits off nothing, and NotPsdError when
    the input itself is not PSD.

    Each certificate is the one ``psd_certificate`` gives for the class's
    ``partial_transpose``.  Equal transposes share one certificate object,
    eliminated once, and a class whose transpose equals ``d`` shares
    ``d.psd()``; for the complement of a real product set that is every
    class.  Transposes compose by XOR of masks, so the transposes of masks
    a and b are equal exactly when the transpose of a ^ b fixes ``d``.
    Those fixing masks form a group, found by testing each candidate at
    most once on the nonzero entries.  Only the nonzero entries are moved:
    each distinct class places them, as reduced triples, in fresh rows of
    zeros, which go to the elimination as they are."""
    _check_cut(d, "ppt_report")
    base = d.psd()
    if not base.is_psd:
        raise NotPsdError("ppt_report requires a PSD operator")
    dims, dim = tuple(d.dims), d.dim
    data, entries = d.matrix.data, d.matrix.nonzero()

    def split(bits):
        return _transpose_split(dims, tuple(p for p in range(d.parties) if bits >> p & 1))

    # the masks known to fix d, a group under XOR, and those known not to
    fixing, moving = {0}, set()

    def fixes(x):
        # each mask is tested at most once; a permutation that keeps every
        # nonzero entry keeps every zero too
        if x in fixing or x in moving:
            return x in fixing
        u, m = split(x)
        if all(data[(u[i] + m[j]) * dim + u[j] + m[i]].t == t for i, j, t in entries):
            fixing.update([f ^ x for f in fixing])
            return True
        moving.add(x)
        return False

    # one (mask bits, certificate) per distinct transpose, d's own first
    reps = [(0, base)]
    certs = {}
    for mask in bipartition_classes(d.parties):
        bits = sum(1 << p for p in mask)
        cert = next((c for r, c in reps if fixes(bits ^ r)), None)
        if cert is None:
            u, m = split(bits)
            rows = [[CQ_ZERO] * dim for _ in range(dim)]
            for i, j, t in entries:
                rows[u[i] + m[j]][u[j] + m[i]] = t
            # d.psd() checked that d is Hermitian, so each partial transpose
            # is Hermitian too, and _ldl_certificate skips that check
            cert = _ldl_certificate(rows, dim)
            reps.append((bits, cert))
        certs[mask] = cert
    return PptReport(certificates=certs)


@dataclass(frozen=True)
class BirankRecord:
    rank: int
    pt_rank: int


def birank(d: DensityOp) -> BirankRecord:
    """(rank, rank of the partial transpose on the first party).

    Each rank is read from its operator's LDL certificate when that operator
    is PSD, and comes from a fraction-free (Bareiss) elimination otherwise.
    Raises BadMaskError for fewer than two parties or a party of dimension 1.
    """
    _check_cut(d, "birank")
    return BirankRecord(rank=d.rank(), pt_rank=partial_transpose(d, {0}).rank())


def subtract_product(d: DensityOp, v) -> tuple[DensityOp, Fraction]:
    """Remove the extremal multiple of |v><v| that keeps the operator PSD.

    ``v`` may be a ProductVector or a flat coordinate vector; it must lie in
    the range of ``d``.  The weight is for |v><v|, with v = ``flatten()``
    for a ProductVector (a positive multiple of the member): 1 / <v|d^+|v>,
    at which the rank drops by exactly one.  Range membership and the
    weight are read from d's PSD certificate, with no second elimination;
    positivity and the rank drop of the result are re-verified exactly
    before returning.
    Raises NotInRangeError / NotPsdError.
    """
    if isinstance(v, ProductVector):
        flat = v.flatten()
    else:
        flat = as_vector(v)
    if len(flat) != d.dim:
        raise ValueError("vector length does not match the operator")
    if all(x.is_zero() for x in flat):
        raise ValueError("cannot subtract the zero vector")
    form = _range_quadratic_form(d.psd(), flat)
    if form is None:
        raise NotInRangeError("vector is not in the range of the operator")
    weight = Fraction(1) / form
    # M - weight |v><v|: the upper triangle, each entry M_ij - u_i conj(v_j)
    # with u = weight v over one denominator and reduced once, and its
    # conjugate below the diagonal.  Rows and columns where v is zero keep
    # M's entries.
    n = d.dim
    src = d.matrix.data
    vt = [x.t for x in flat]
    nz = [j for j in range(n) if vt[j][0] or vt[j][1]]
    data = list(src)
    for a, i in enumerate(nz):
        up, uq, ur = cq_scale_rat(vt[i], weight.numerator, weight.denominator)
        for j in nz[a:]:
            vp, vq, vr = vt[j]
            mp, mq, mr = src[i * n + j].t
            den = ur * vr
            p, q, r = cq_make(
                mp * den - mr * (up * vp + uq * vq),
                mq * den - mr * (uq * vp - up * vq),
                mr * den,
            )
            data[i * n + j] = ComplexRational.from_triple((p, q, r))
            data[j * n + i] = ComplexRational.from_triple((p, -q, r))
    rank_before = d.rank()
    m = ExactMatrix(n, n, data)
    # each entry was written next to its conjugate
    object.__setattr__(m, "_hermitian", True)
    out = DensityOp(dims=d.dims, matrix=m)
    cert = out.psd()
    if not cert.is_psd:
        raise AssertionError("extremal subtraction lost positivity")
    if cert.rank != rank_before - 1:
        raise AssertionError("extremal subtraction did not drop the rank by one")
    return out, weight
