"""Multipartite density operators over exact scalars.

Operators are Hermitian matrices with an explicit party-dimension vector
and an explicit trace; unnormalized operators are first class, and
normalization only happens on request.  Partial transpose and partial
trace are exact index shuffles/contractions; positivity questions go
through the certified LDL* elimination, run at most once per operator.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Optional

from .errors import (
    ApproximateComparisonError,
    BadMaskError,
    NotHermitianError,
    NotInRangeError,
    NotPsdError,
    SpansEverythingError,
)
from .linalg import (
    ExactMatrix,
    PsdCertificate,
    _range_quadratic_form,
    as_vector,
    inner,
    matrix_rank,
    outer,
    projector,
    psd_certificate,
    range_quadratic_form,  # noqa: F401  (re-exported)
)
from .product import ProductSet, ProductVector
from .scalars import CQ0, ComplexRational, cq_make


@dataclass(frozen=True)
class DensityOp:
    """A Hermitian operator on a tensor product of finite-dimensional
    parties.  ``kernel_product_set`` optionally records a product basis of
    the kernel, when the operator was built as a complement projector.

    The PSD certificate is computed on first use and kept; operators derived
    with ``dataclasses.replace`` start without one."""

    dims: tuple
    matrix: ExactMatrix
    trace_norm: Fraction
    kernel_product_set: Optional[ProductSet] = None
    _psd: Optional[PsdCertificate] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = prod(self.dims)
        if self.matrix.rows != d or self.matrix.cols != d:
            raise ValueError("matrix size does not match party dimensions")

    @property
    def parties(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def rank(self) -> int:
        """Exact rank: the certificate's pivot count when the operator is
        PSD, a separate elimination otherwise."""
        cert = self.psd()
        if cert.is_psd:
            return cert.rank
        return matrix_rank(self.matrix)

    def psd(self) -> PsdCertificate:
        if self._psd is None:
            object.__setattr__(self, "_psd", psd_certificate(self.matrix))
        return self._psd

    def normalized(self) -> "DensityOp":
        if self.trace_norm == 1:
            return self
        if self.trace_norm == 0:
            raise ValueError("cannot normalize a traceless operator")
        m = self.matrix.scale(ComplexRational(Fraction(1, 1) / self.trace_norm))
        return replace(self, matrix=m, trace_norm=Fraction(1))

    def assert_state(self) -> "DensityOp":
        """Check PSD and trace one; raises otherwise."""
        if self.trace_norm != 1:
            raise ValueError(f"trace is {self.trace_norm}, not 1")
        cert = self.psd()
        if not cert.is_psd:
            raise NotPsdError("operator is not positive semidefinite")
        return self


def density_from_matrix(dims, matrix: ExactMatrix, kernel_product_set=None) -> DensityOp:
    if not matrix.is_hermitian():
        raise NotHermitianError("density operators must be exactly Hermitian")
    tr = matrix.trace()
    return DensityOp(
        dims=tuple(dims),
        matrix=matrix,
        trace_norm=tr.re,
        kernel_product_set=kernel_product_set,
    )


def pure_density(vector, dims) -> DensityOp:
    """|v><v| / <v|v> as a normalized state."""
    v = as_vector(vector)
    return density_from_matrix(dims, projector(v))


def complement_projector(s: ProductSet) -> DensityOp:
    """The normalized projector onto the orthogonal complement of an OPS.

    Returns (I - sum_i |x_i><x_i| / <x_i|x_i>) / (D - |s|), a trace-one
    operator of rank exactly D - |s|.  The generating set is attached as
    the kernel product basis.  Raises SpansEverythingError when the set is
    a full basis and ApproximateComparisonError when some local has no
    exact coordinates.
    """
    if not s.members:
        raise ValueError("complement of an empty set is the identity; build it directly")
    d = prod(s.dims)
    if len(s.members) >= d:
        if len(s.members) == d:
            raise SpansEverythingError("the set spans the whole space")
        raise ValueError("more members than the space dimension")
    vecs = []
    for m in s.members:
        try:
            vecs.append(m.cleared_flatten())
        except ApproximateComparisonError:
            raise ApproximateComparisonError(
                "complement projector needs exact coordinates for every local"
            )
    # Each member is a Gaussian-integer vector x with norm n = <x|x>, so
    # sum_x |x><x|/n = N/L with L the lcm of the norms and N integral.
    norms = [sum(a * a for a in xr) + sum(b * b for b in xi) for xr, xi in vecs]
    big = lcm(*norms)
    weights = [big // n for n in norms]
    # (L I - N) / (L (D - |s|)): the upper triangle, each entry reduced once,
    # and its conjugate below the diagonal
    rank = d - len(s.members)
    den = big * rank
    data = [None] * (d * d)
    for i in range(d):
        row_re = [0] * (d - i)
        row_im = [0] * (d - i)
        for (xr, xi), w in zip(vecs, weights):
            wr, wi = w * xr[i], w * xi[i]
            if wr or wi:
                # w x_i conj(x_j) for j >= i
                tail_re, tail_im = xr[i:], xi[i:]
                row_re = [t + wr * a + wi * b for t, a, b in zip(row_re, tail_re, tail_im)]
                row_im = [t + wi * a - wr * b for t, a, b in zip(row_im, tail_re, tail_im)]
        row_re[0] -= big
        for j, a, b in zip(range(i, d), row_re, row_im):
            p, q, r = cq_make(-a, -b, den)
            data[i * d + j] = ComplexRational.from_triple((p, q, r))
            data[j * d + i] = ComplexRational.from_triple((p, -q, r))
    out = density_from_matrix(s.dims, ExactMatrix(d, d, data), kernel_product_set=s)
    cert = out.psd()
    if not cert.is_psd or cert.rank != rank:
        raise AssertionError("complement projector is not a PSD operator of rank D - |s|")
    return out


def _index_split(idx: int, dims) -> list:
    out = []
    for d in reversed(dims):
        out.append(idx % d)
        idx //= d
    out.reverse()
    return out


def _index_join(parts, dims) -> int:
    idx = 0
    for p, d in zip(parts, dims):
        idx = idx * d + p
    return idx


def _check_mask(mask, parties) -> frozenset:
    mask = frozenset(mask)
    if any(p < 0 or p >= parties for p in mask):
        raise BadMaskError(f"party indices out of range: {sorted(mask)}")
    return mask


@lru_cache(maxsize=64)
def _transpose_permutation(dims: tuple, mask: tuple) -> array:
    """Flat-index permutation of the partial transpose: the transposed
    matrix's entry k is the source entry perm[k].

    Swapping the digits of the parties in ``mask`` between row index i and
    column index j moves entry i*D + j to i*D + j + A[j] - A[i], where
    A[x] sums digit_p(x) * stride_p * (D - 1) over the masked parties.
    """
    dim = prod(dims)
    offset = [0] * dim
    stride = dim
    for p, size in enumerate(dims):
        stride //= size
        if p in mask:
            c = stride * (dim - 1)
            offset = [a + (x // stride) % size * c for x, a in enumerate(offset)]
    cols = [j + a for j, a in enumerate(offset)]
    perm = array("I")
    for i, a in enumerate(offset):
        base = i * dim - a
        perm.extend([base + c for c in cols])
    return perm


def partial_transpose(d: DensityOp, mask) -> DensityOp:
    """Transpose the tensor factors in ``mask`` (0-based), exactly.

    An involution; preserves Hermiticity of Hermitian inputs.
    """
    mask = _check_mask(mask, d.parties)
    perm = _transpose_permutation(tuple(d.dims), tuple(sorted(mask)))
    src = d.matrix.data
    m = ExactMatrix(d.dim, d.dim, tuple(map(src.__getitem__, perm)))
    return replace(d, matrix=m, kernel_product_set=None)


def partial_trace(d: DensityOp, keep) -> DensityOp:
    """Trace out all parties not in ``keep`` (0-based), exactly."""
    keep = sorted(_check_mask(keep, d.parties))
    if not keep:
        raise BadMaskError("keep set must be nonempty")
    dims = d.dims
    out_dims = tuple(dims[p] for p in keep)
    traced = [p for p in range(d.parties) if p not in keep]
    out_dim = prod(out_dims)
    acc = [[CQ0] * out_dim for _ in range(out_dim)]
    tr_dims = [dims[p] for p in traced]
    tr_count = prod(tr_dims) if traced else 1
    src = d.matrix.data
    dim = d.dim
    for a in range(out_dim):
        ap = _index_split(a, out_dims)
        for b in range(out_dim):
            bp = _index_split(b, out_dims)
            s = CQ0
            for t in range(tr_count):
                tp = _index_split(t, tr_dims) if traced else []
                full_i = [0] * d.parties
                full_j = [0] * d.parties
                for pos, p in enumerate(keep):
                    full_i[p] = ap[pos]
                    full_j[p] = bp[pos]
                for pos, p in enumerate(traced):
                    full_i[p] = tp[pos]
                    full_j[p] = tp[pos]
                s = s + src[_index_join(full_i, dims) * dim + _index_join(full_j, dims)]
            acc[a][b] = s
    m = ExactMatrix(out_dim, out_dim, [acc[a][b] for a in range(out_dim) for b in range(out_dim)])
    return DensityOp(dims=out_dims, matrix=m, trace_norm=d.trace_norm)


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


def ppt_report(d: DensityOp) -> PptReport:
    """Certify the partial transpose of every bipartition class of a PSD
    operator.  Raises NotPsdError when the input itself is not PSD."""
    base = d.psd()
    if not base.is_psd:
        raise NotPsdError("ppt_report requires a PSD operator")
    certs = {}
    for mask in bipartition_classes(d.parties):
        certs[mask] = psd_certificate(partial_transpose(d, mask).matrix)
    return PptReport(certificates=certs)


@dataclass(frozen=True)
class BirankRecord:
    rank: int
    pt_rank: int


def birank(d: DensityOp) -> BirankRecord:
    """(rank, rank of the partial transpose on the first party)."""
    if d.parties < 2:
        raise BadMaskError("birank needs at least two parties")
    return BirankRecord(
        rank=d.rank(),
        pt_rank=matrix_rank(partial_transpose(d, {0}).matrix),
    )


def subtract_product(d: DensityOp, v) -> tuple[DensityOp, Fraction]:
    """Remove the extremal multiple of |v><v| that keeps the operator PSD.

    ``v`` may be a ProductVector or a flat coordinate vector; it must lie in
    the range of ``d``.  The weight is 1 / <v|d^+|v>, at which the rank
    drops by exactly one; both facts are re-verified exactly before
    returning.  Raises NotInRangeError / NotPsdError.
    """
    if isinstance(v, ProductVector):
        flat = v.flatten()
    else:
        flat = as_vector(v)
    if len(flat) != d.dim:
        raise ValueError("vector length does not match the operator")
    if all(x.is_zero() for x in flat):
        raise ValueError("cannot subtract the zero vector")
    q = _range_quadratic_form(d.matrix, d.psd(), flat)
    if q is None:
        raise NotInRangeError("vector is not in the range of the operator")
    weight = Fraction(1) / q
    norm2 = inner(flat, flat).re
    result = d.matrix - outer(flat, flat).scale(ComplexRational(weight))
    rank_before = d.rank()
    out = DensityOp(
        dims=d.dims,
        matrix=result,
        trace_norm=d.trace_norm - weight * norm2,
    )
    cert = out.psd()
    if not cert.is_psd:
        raise AssertionError("extremal subtraction lost positivity")
    if cert.rank != rank_before - 1:
        raise AssertionError("extremal subtraction did not drop the rank by one")
    return out, weight
