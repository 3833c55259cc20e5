"""Dense exact matrices over Q(i): rank, consistent solves, PSD certificates,
and the range quadratic form and kernel basis read from a certificate.

Vectors are plain tuples of :class:`~upblab.scalars.ComplexRational` and are
deliberately unnormalized; squared norms stay rational so nothing ever
leaves the exact field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import _kernels
from .errors import NotHermitianError, NotPsdError
from .scalars import CQ0, CQ1, CQ_ZERO, ComplexRational, cq_make

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


def sparse_cleared_rows(m: ExactMatrix) -> tuple[int, list]:
    """m's column count and, per row, the nonzero entries of the row scaled
    as by ``cleared``, as ``(column, re, im)`` integer triples.

    This is the form ``annihilates`` takes; the zero entries, which cannot
    change M x, are left out, and ``m.nonzero()`` is read: a zero's
    denominator is 1, so it leaves the row's common denominator as it is.
    """
    rows = [[] for _ in range(m.rows)]
    for i, j, t in m.nonzero():
        rows[i].append((j, t))
    for row in rows:
        c = lcm(*(t[2] for _, t in row))
        row[:] = [(j, p * (c // r), q * (c // r)) for j, (p, q, r) in row]
    return m.cols, rows


def annihilates(sparse_rows, xs) -> Optional[int]:
    """The index of the first vector in ``xs`` that M does not annihilate,
    or None when M x == 0 for all of them; M is given by
    ``sparse_cleared_rows`` and each x as ``cleared`` (re, im) parts.  A
    vector of another length is not in the kernel.

    All vectors are checked in one pass over M: their coordinates are packed
    per column and part into one integer, one slot of ``width`` bytes per
    vector, so a row costs one multiply-add per nonzero entry and part.  No
    slot of a row's product exceeds the row's sum_j (|re| + |im|) times a
    vector's largest |re| plus its largest |im|, and a slot holds that bound
    and a sign bit.  Adding ``bias`` makes every slot nonnegative, so slot k
    plus ``half`` is bytes k width to (k + 1) width of the biased sum, and
    XOR with ``bias`` leaves those bytes nonzero exactly when slot k is."""
    cols, rows = sparse_rows
    xs = list(xs)
    # a vector of another length comes before every later one
    first = next((k for k, (xr, _) in enumerate(xs) if len(xr) != cols), len(xs))
    if first == 0:
        return 0 if xs else None
    count, m = len(xs), first
    xs = xs[:m]
    big = max(max(map(abs, xr), default=0) + max(map(abs, xi), default=0) for xr, xi in xs)
    bound = big * max((sum(abs(a) + abs(b) for _, a, b in row) for row in rows), default=0)
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * m, "little")

    def pack(col):  # sum_k col[k] 2^(8 width k)
        data = b"".join((x + half).to_bytes(width, "little") for x in col)
        return int.from_bytes(data, "little") - bias

    pr = [pack(col) for col in zip(*(xr for xr, _ in xs))]
    pi = [pack(col) for col in zip(*(xi for _, xi in xs))]
    for row in rows:
        re = im = 0
        for j, a, b in row:
            u = pr[j]
            v = pi[j]
            re += a * u - b * v
            im += a * v + b * u
        live = ((re + bias) ^ bias) | ((im + bias) ^ bias)
        if live:
            first = min(first, ((live & -live).bit_length() - 1) // (8 * width))
    return None if first == count else first


class ExactMatrix:
    """A dense rows x cols matrix of complex rationals, stored row-major.

    ``_psd`` holds the matrix's PSD certificate once one has been computed
    (see ``psd_certificate``), ``_hermitian`` marks a matrix known to be
    exactly Hermitian, whose certificate then needs no Hermiticity check,
    and ``_nonzero`` holds ``nonzero()``'s view; the entries never change,
    so all three stay valid."""

    __slots__ = ("rows", "cols", "data", "_psd", "_hermitian", "_nonzero")

    def __init__(self, rows: int, cols: int, data):
        data = tuple(data)
        if len(data) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(data)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_psd", None)
        object.__setattr__(self, "_hermitian", False)
        object.__setattr__(self, "_nonzero", None)

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

    def nonzero(self) -> tuple:
        """``(i, j, triple)`` per nonzero entry, row-major: computed from
        ``data`` on first use, unless the matrix's builder filled it."""
        if self._nonzero is None:
            c, ts = self.cols, (e.t for e in self.data)
            nz = tuple((*divmod(k, c), t) for k, t in enumerate(ts) if t[0] or t[1])
            object.__setattr__(self, "_nonzero", nz)
        return self._nonzero

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
        """s times the matrix; a real multiple of a matrix marked Hermitian
        is marked Hermitian."""
        s = as_scalar(s)
        out = ExactMatrix(self.rows, self.cols, [s * a for a in self.data])
        object.__setattr__(out, "_hermitian", self._hermitian and s.is_real())
        return out

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
        """Each nonzero entry against its mirror's conjugate, which covers a
        nonzero facing a zero; canonical triples are unique, so tuple
        equality is value equality."""
        if self.rows != self.cols:
            return False
        n, data = self.rows, self.data
        return all(data[j * n + i].t == (p, -q, r) for i, j, (p, q, r) in self.nonzero())

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
    Step t of ``steps`` is ``(p_t, ((k, f_k), ...))``: l_t is 1 at the pivot
    p_t, conj(f_k) at each listed k (f_k a reduced triple) and zero
    elsewhere, in particular at every earlier pivot.  The range quadratic
    form, the kernel basis and ``verify_psd_certificate`` read this layout.

    Otherwise ``witness`` satisfies ``<w|M|w> = witness_value < 0``;
    ``zero_diag_pair`` is set when the negativity came from a zero diagonal
    against a nonzero off-diagonal entry in the eliminated (Schur) block.
    """

    verdict: str  # "psd" | "not_psd"
    pivots: tuple[Fraction, ...]
    steps: tuple
    dim: int
    rank: Optional[int] = None
    witness: Optional[Vector] = None
    witness_value: Optional[Fraction] = None
    zero_diag_pair: Optional[tuple[int, int]] = None

    @property
    def is_psd(self) -> bool:
        return self.verdict == "psd"


def psd_certificate(m: ExactMatrix) -> PsdCertificate:
    """Decide PSD-ness of a Hermitian matrix with a checkable certificate.

    The certificate is computed once per matrix and kept on it; a matrix
    marked Hermitian is not checked again, and a matrix that passes the
    check is marked, so its partial transposes inherit the mark.  Raises
    NotHermitianError when the Hermitian precondition fails.
    """
    if m._psd is None:
        if not (m._hermitian or m.is_hermitian()):
            raise NotHermitianError("matrix is not exactly Hermitian")
        object.__setattr__(m, "_hermitian", True)
        object.__setattr__(m, "_psd", _ldl_certificate(m._triple_rows(), m.rows))
    return m._psd


def _ldl_certificate(rows, n: int) -> PsdCertificate:
    """psd_certificate for an n x n matrix already known to be Hermitian,
    given as rows of reduced triples (see ``_kernels``)."""
    rec = _kernels.ldl_hermitian(rows, n)
    pivots = tuple(Fraction(num, den) for num, den in rec["pivots"])
    steps = tuple((p, tuple(frow)) for p, frow in rec["steps"])
    if rec["verdict"] == "psd":
        return PsdCertificate(
            verdict="psd",
            pivots=pivots,
            steps=steps,
            dim=n,
            rank=len(pivots),
        )
    witness = tuple(ComplexRational.from_triple(t) for t in rec["witness"])
    vn, vd = rec["value"]
    return PsdCertificate(
        verdict="not_psd",
        pivots=pivots,
        steps=steps,
        dim=n,
        witness=witness,
        witness_value=Fraction(vn, vd),
        zero_diag_pair=rec["pair"],
    )


def quadratic_form(m: ExactMatrix, v: Sequence[ComplexRational]) -> ComplexRational:
    """<v|M|v> computed exactly."""
    return inner(v, m.apply(v))


def verify_psd_certificate(m: ExactMatrix, cert: PsdCertificate) -> bool:
    """Re-validate a certificate independently of the elimination code.

    PSD: positive pivots, ``rank`` their count, steps laid out as in
    ``PsdCertificate``, and sum_t k_t g_t g_t* = L M over Gaussian integers,
    for l_t = g_t / c_t and k_t = L d_t / c_t^2.  Not PSD: a nonzero witness
    with <w|M|w> the recorded negative value.  Malformed ones are refuted.
    """
    n = m.rows
    if m.cols != n or cert.dim != n:
        return False
    if not cert.is_psd:
        w = cert.witness
        if w is None or len(w) != n or all(x.is_zero() for x in w):
            return False
        val = quadratic_form(m, w)
        return val.is_real() and val.re < 0 and val.re == cert.witness_value
    if not cert.rank == len(cert.pivots) == len(cert.steps):
        return False
    terms, free = [], set(range(n))  # free: the indices not pivoted yet
    for d, (p, frow) in zip(cert.pivots, cert.steps):
        idx = [p] + [k for k, _ in frow]
        c = lcm(*(f[2] for _, f in frow))  # l_t = g_t / c_t
        if d <= 0 or not c or len(set(idx)) < len(idx) or not free.issuperset(idx):
            return False
        free.remove(p)
        g = [(p, c, 0)] + [(k, a * (c // r), -b * (c // r)) for k, (a, b, r) in frow]
        terms.append((Fraction(d, c * c), g))
    big = lcm(*(w.denominator for w, _ in terms))
    re, im = [0] * (n * n), [0] * (n * n)
    for w, g in terms:
        kt = big // w.denominator * w.numerator
        for i, a, b in g:  # row i gains k_t g_i conj(g_j)
            ka, kb, row = kt * a, kt * b, i * n
            for j, x, y in g:
                re[row + j] += ka * x + kb * y
                im[row + j] += kb * x - ka * y
    ts = (e.t for e in m.data)
    return all(x * r == big * p and y * r == big * q for x, y, (p, q, r) in zip(re, im, ts))


def range_quadratic_form(m: ExactMatrix, v) -> Optional[Fraction]:
    """<v|M^+|v> for Hermitian PSD m, or None when v is outside range(m).

    M^+ is the pseudo-inverse restricted to the range.  Both the range
    question and the value are answered from m's PSD certificate (see
    ``_range_quadratic_form``), with no second elimination.
    Raises NotHermitianError / NotPsdError when the preconditions fail.
    """
    return _range_quadratic_form(psd_certificate(m), as_vector(v))


def _range_quadratic_form(cert: PsdCertificate, v: Vector) -> Optional[Fraction]:
    """range_quadratic_form read from a PSD certificate alone.

    With M = sum_t d_t |l_t><l_t| and each l_t zero at every earlier pivot,
    forward substitution writes v = sum_t c_t l_t: c_t is the residual's
    entry at pivot p_t before l_t is removed.  v is in the range exactly
    when the final residual is zero, and then <v|M^+|v> = sum_t |c_t|^2 / d_t.
    """
    if not cert.is_psd:
        raise NotPsdError("matrix is not positive semidefinite")
    if len(v) != cert.dim:
        raise ValueError("shape mismatch")
    r = [x.t for x in v]
    acc = Fraction(0)
    for d, (p, frow) in zip(cert.pivots, cert.steps):
        cp, cq, cr = r[p]
        if cp == 0 and cq == 0:
            continue
        r[p] = CQ_ZERO
        # r_k -= c conj(f_k), over one denominator and reduced once
        for k, (fp, fq, fr) in frow:
            rp, rq, rr = r[k]
            den = cr * fr
            r[k] = cq_make(
                rp * den - rr * (cp * fp + cq * fq),
                rq * den - rr * (cq * fp - cp * fq),
                rr * den,
            )
        acc += Fraction((cp * cp + cq * cq) * d.denominator, cr * cr * d.numerator)
    if any(x[0] or x[1] for x in r):
        return None
    return acc


def _kernel_basis(cert: PsdCertificate) -> list[Vector]:
    """A kernel basis of the PSD matrix ``cert`` certifies, M y = 0 exactly when
    every l_t* y = 0: per non-pivot f, ascending, y is 1 at f and 0 at the other
    non-pivots, and ``_kernels.backapply`` solves for the pivots.  They are the
    rref pivots, so this is the reduced row echelon basis, vector for vector."""
    if not cert.is_psd:
        raise NotPsdError("matrix is not positive semidefinite")
    pivots = {p for p, _ in cert.steps}
    basis = []
    for f in range(cert.dim):
        if f not in pivots:
            u = [CQ_ZERO] * cert.dim
            u[f] = (1, 0, 1)
            u = _kernels.backapply(cert.steps, u)
            basis.append(tuple(map(ComplexRational.from_triple, u)))
    return basis
