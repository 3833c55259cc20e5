"""Dense exact matrices over Q(i): rank, nullspace, PSD certificates, and
range-restricted quadratic forms.

Vectors are plain tuples of :class:`~upblab.scalars.ComplexRational` and are
deliberately unnormalized; squared norms stay rational so nothing ever
leaves the exact field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from . import _kernels
from .errors import NotHermitianError, NotPsdError
from .scalars import CQ0, CQ1, ComplexRational

Vector = tuple[ComplexRational, ...]


def as_scalar(x) -> ComplexRational:
    if isinstance(x, ComplexRational):
        return x
    return ComplexRational(x)


def as_vector(xs) -> Vector:
    return tuple(as_scalar(x) for x in xs)


def inner(u: Sequence[ComplexRational], v: Sequence[ComplexRational]) -> ComplexRational:
    """Hermitian inner product <u|v> = sum conj(u_i) v_i."""
    acc = CQ0
    for a, b in zip(u, v):
        if a.is_zero() or b.is_zero():
            continue
        acc = acc + a.conjugate() * b
    return acc


def kron_vec(u: Sequence[ComplexRational], v: Sequence[ComplexRational]) -> Vector:
    return tuple(a * b for a in u for b in v)


def cleared(v: Sequence[ComplexRational]) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of c*v as integers, where c is the least
    common denominator of v's entries.

    Scaling by a positive integer leaves kernels, ranks and projectors
    unchanged, so such questions can be answered over Gaussian integers.
    """
    ts = [x.t for x in v]
    c = lcm(*(r for _, _, r in ts))
    return [p * (c // r) for p, _, r in ts], [q * (c // r) for _, q, r in ts]


def annihilates(rows, x) -> bool:
    """M x == 0, for M given by its rows and x, both as ``cleared`` (re, im)
    parts.  A vector of another length is not in the kernel."""
    xr, xi = x
    for ar, ai in rows:
        if len(ar) != len(xr):
            return False
        if sum(map(mul, ar, xr)) != sum(map(mul, ai, xi)):
            return False
        if sum(map(mul, ar, xi)) + sum(map(mul, ai, xr)):
            return False
    return True


class ExactMatrix:
    """A dense rows x cols matrix of complex rationals, stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if n else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [as_scalar(x) for r in rows for x in r])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [CQ0] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [CQ1 if i == j else CQ0 for i in range(n) for j in range(n)])

    def at(self, i: int, j: int) -> ComplexRational:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)]
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)]
        )

    def scale(self, s) -> "ExactMatrix":
        s = as_scalar(s)
        return ExactMatrix(self.rows, self.cols, [s * a for a in self.data])

    def __matmul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            out = []
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(other.cols):
                    acc = CQ0
                    for k in range(self.cols):
                        a = ri[k]
                        if a.is_zero():
                            continue
                        b = other.data[k * other.cols + j]
                        if b.is_zero():
                            continue
                        acc = acc + a * b
                    out.append(acc)
            return ExactMatrix(self.rows, other.cols, out)
        return NotImplemented

    def apply(self, v: Sequence[ComplexRational]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            acc = CQ0
            base = i * self.cols
            for k in range(self.cols):
                a = self.data[base + k]
                if a.is_zero() or v[k].is_zero():
                    continue
                acc = acc + a * v[k]
            out.append(acc)
        return tuple(out)

    def dagger(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.at(i, j).conjugate() for j in range(self.cols) for i in range(self.rows)],
        )

    def trace(self) -> ComplexRational:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = CQ0
        for i in range(self.rows):
            acc = acc + self.at(i, i)
        return acc

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                for j in range(self.cols):
                    a = self.at(i, j)
                    if a.is_zero():
                        out.extend([CQ0] * other.cols)
                    else:
                        out.extend(a * other.at(k, l) for l in range(other.cols))
        return ExactMatrix(self.rows * other.rows, self.cols * other.cols, out)

    def is_hermitian(self) -> bool:
        if self.rows != self.cols:
            return False
        n = self.rows
        ts = [e.t for e in self.data]
        # row i against the conjugate of column i; canonical triples are
        # unique, so tuple equality is value equality
        for i in range(n):
            if ts[i * n : (i + 1) * n] != [(p, -q, r) for p, q, r in ts[i::n]]:
                return False
        return True

    def to_numpy(self):
        import numpy as np

        out = np.empty((self.rows, self.cols), dtype=np.complex128)
        for i in range(self.rows):
            for j in range(self.cols):
                out[i, j] = self.at(i, j).to_complex()
        return out

    def _triple_rows(self):
        return [
            [e.t for e in self.data[i * self.cols : (i + 1) * self.cols]]
            for i in range(self.rows)
        ]

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


def outer(u: Sequence[ComplexRational], v: Sequence[ComplexRational]) -> ExactMatrix:
    """|u><v|, with the conjugation on v."""
    vc = [x.conjugate() for x in v]
    return ExactMatrix(len(u), len(v), [a * b for a in u for b in vc])


def projector(v: Sequence[ComplexRational]) -> ExactMatrix:
    """|v><v| / <v|v> for an unnormalized nonzero vector."""
    n2 = inner(v, v)
    if n2.is_zero():
        raise ValueError("zero vector has no projector")
    return outer(v, v).scale(CQ1 / n2)


def matrix_rank(m: ExactMatrix) -> int:
    """Exact rank over Q(i), by fraction-free elimination over Gaussian
    integers."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return _kernels.bareiss_rank(m._triple_rows(), m.rows, m.cols)


def nullspace_basis(m: ExactMatrix) -> list[Vector]:
    """A basis of ker(m): independent vectors annihilated by m exactly.

    Built from the reduced row echelon form; size is cols - rank.
    """
    rank, piv_cols, red = _kernels.rref(m._triple_rows(), m.rows, m.cols)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(m.cols) if c not in piv_set]
    basis = []
    for f in free_cols:
        v = [CQ0] * m.cols
        v[f] = CQ1
        for t, c in enumerate(piv_cols):
            e = red[t][f]
            if e[0] != 0 or e[1] != 0:
                v[c] = ComplexRational.from_triple((-e[0], -e[1], e[2]))
        basis.append(tuple(v))
    return basis


def solve_consistent(m: ExactMatrix, b: Sequence[ComplexRational]) -> Optional[Vector]:
    """One exact solution x of m x = b, or None when the system is
    inconsistent.  Free variables are set to zero."""
    if len(b) != m.rows:
        raise ValueError("shape mismatch")
    aug = [
        list(row) + [as_scalar(b[i]).t]
        for i, row in enumerate(m._triple_rows())
    ]
    rank, piv_cols, red = _kernels.rref(aug, m.rows, m.cols + 1)
    if piv_cols and piv_cols[-1] == m.cols:
        return None
    x = [CQ0] * m.cols
    for t, c in enumerate(piv_cols):
        x[c] = ComplexRational.from_triple(red[t][m.cols])
    return tuple(x)


@dataclass(frozen=True)
class PsdCertificate:
    """Outcome of pivoted LDL* elimination on a Hermitian matrix.

    When ``verdict`` is "psd" the matrix equals ``sum_t d_t |l_t><l_t|``
    with ``d_t`` the recorded positive pivots; ``rank`` equals their count.
    Otherwise ``witness`` satisfies ``<w|M|w> = witness_value < 0``;
    ``zero_diag_pair`` is set when the negativity came from a zero diagonal
    against a nonzero off-diagonal entry in the eliminated (Schur) block.
    """

    verdict: str  # "psd" | "not_psd"
    pivots: tuple[Fraction, ...]
    order: tuple[int, ...]
    steps: tuple
    dim: int
    rank: Optional[int] = None
    witness: Optional[Vector] = None
    witness_value: Optional[Fraction] = None
    zero_diag_pair: Optional[tuple[int, int]] = None

    @property
    def is_psd(self) -> bool:
        return self.verdict == "psd"

    def elimination_vectors(self) -> list[Vector]:
        """The vectors l_t of the recorded factorization M = sum d_t |l_t><l_t|."""
        out = []
        for p, frow in self.steps:
            v = [CQ0] * self.dim
            v[p] = CQ1
            for k, f in frow:
                v[k] = ComplexRational.from_triple((f[0], -f[1], f[2]))
            out.append(tuple(v))
        return out

    def reconstruction(self) -> ExactMatrix:
        """Rebuild sum_t d_t |l_t><l_t| from the record (PSD case)."""
        acc = ExactMatrix.zeros(self.dim, self.dim)
        for d, l in zip(self.pivots, self.elimination_vectors()):
            acc = acc + outer(l, l).scale(ComplexRational(d))
        return acc


def psd_certificate(m: ExactMatrix) -> PsdCertificate:
    """Decide PSD-ness of a Hermitian matrix with a checkable certificate.

    Raises NotHermitianError when the Hermitian precondition fails.
    """
    if not m.is_hermitian():
        raise NotHermitianError("matrix is not exactly Hermitian")
    return _ldl_certificate(m)


def _ldl_certificate(m: ExactMatrix) -> PsdCertificate:
    """psd_certificate for a matrix already known to be Hermitian."""
    rec = _kernels.ldl_hermitian(m._triple_rows(), m.rows)
    pivots = tuple(Fraction(n, d) for n, d in rec["pivots"])
    order = tuple(rec["order"])
    steps = tuple((p, tuple(frow)) for p, frow in rec["steps"])
    if rec["verdict"] == "psd":
        return PsdCertificate(
            verdict="psd",
            pivots=pivots,
            order=order,
            steps=steps,
            dim=m.rows,
            rank=len(pivots),
        )
    witness = tuple(ComplexRational.from_triple(t) for t in rec["witness"])
    vn, vd = rec["value"]
    return PsdCertificate(
        verdict="not_psd",
        pivots=pivots,
        order=order,
        steps=steps,
        dim=m.rows,
        witness=witness,
        witness_value=Fraction(vn, vd),
        zero_diag_pair=rec["pair"],
    )


def quadratic_form(m: ExactMatrix, v: Sequence[ComplexRational]) -> ComplexRational:
    """<v|M|v> computed exactly."""
    return inner(v, m.apply(v))


def verify_psd_certificate(m: ExactMatrix, cert: PsdCertificate) -> bool:
    """Re-validate a certificate independently of the elimination code.

    PSD: all pivots positive and the recorded factorization reproduces m.
    Not PSD: the witness is nonzero and <w|M|w> equals the recorded
    negative value.
    """
    if cert.is_psd:
        if any(d <= 0 for d in cert.pivots):
            return False
        return cert.reconstruction() == m
    if cert.witness is None or all(x.is_zero() for x in cert.witness):
        return False
    val = quadratic_form(m, cert.witness)
    if not val.is_real():
        return False
    return val.re < 0 and val.re == cert.witness_value


def range_quadratic_form(m: ExactMatrix, v) -> Optional[Fraction]:
    """<v|M^+|v> for Hermitian PSD m, or None when v is outside range(m).

    M^+ is the pseudo-inverse restricted to the range; since m is Hermitian
    the value is independent of which exact solution of m x = v is used.
    Raises NotHermitianError / NotPsdError when the preconditions fail.
    """
    return _range_quadratic_form(m, psd_certificate(m), as_vector(v))


def _range_quadratic_form(m: ExactMatrix, cert: PsdCertificate, v: Vector) -> Optional[Fraction]:
    """range_quadratic_form with m's PSD certificate already in hand."""
    if not cert.is_psd:
        raise NotPsdError("matrix is not positive semidefinite")
    x = solve_consistent(m, v)
    if x is None:
        return None
    val = inner(v, x)
    if not val.is_real():
        raise AssertionError("quadratic form of a Hermitian solve must be real")
    return val.re
