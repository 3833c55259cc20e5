"""Independent oracles and random generators shared by the tests.

The extendibility oracle here deliberately uses plain assignment
enumeration, not the library's covering search, so the two can check each
other.
"""

import itertools
import random
from fractions import Fraction
from math import prod

from upblab.linalg import ExactMatrix, as_vector, inner, projector
from upblab.product import ProductSet, ProductVector, build_product_set, shifts_upb
from upblab.qubits import LocalState, local_perp
from upblab.scalars import ComplexRational
from upblab.search import Infeasible, realize_template, sample_template


def oracle_extendible(s: ProductSet) -> bool:
    """Enumerate every member -> party assignment function; accept when the
    locals assigned to each party all sit in one phase class."""
    members = s.members
    n = s.parties
    keys = [[m.locals[p].phase_key() for p in range(n)] for m in members]
    for assign in itertools.product(range(n), repeat=len(members)):
        chosen = [None] * n
        ok = True
        for i, p in enumerate(assign):
            k = keys[i][p]
            if chosen[p] is None:
                chosen[p] = k
            elif chosen[p] != k:
                ok = False
                break
        if ok:
            return True
    return False


def random_feasible_ops(rng: random.Random, parties: int, size: int) -> ProductSet:
    """Sample templates until one realizes; returns the verified OPS."""
    while True:
        t = sample_template(parties, size, rng)
        out = realize_template(t, seed=rng.randrange(1 << 30))
        if not isinstance(out, Infeasible):
            return out


def rand_fraction(rng: random.Random, span: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def rand_scalar(rng: random.Random, complex_ok: bool = True) -> ComplexRational:
    re = rand_fraction(rng)
    im = rand_fraction(rng) if complex_ok and rng.random() < 0.5 else 0
    return ComplexRational(re, im)


def rand_vector(rng: random.Random, dim: int, complex_ok: bool = True):
    while True:
        v = tuple(rand_scalar(rng, complex_ok) for _ in range(dim))
        if any(not x.is_zero() for x in v):
            return v


def rand_local(rng: random.Random) -> LocalState:
    a, b = rand_vector(rng, 2)
    return LocalState.pair(a, b)


def rand_hermitian(rng: random.Random, n: int, psd: bool = False) -> ExactMatrix:
    """Random exact Hermitian matrix; with ``psd`` it is G G-dagger for a
    random (possibly rank-deficient) G."""
    if psd:
        r = rng.randint(1, n)
        g = ExactMatrix.from_rows([[rand_scalar(rng) for _ in range(r)] for _ in range(n)])
        return g @ g.dagger()
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = ComplexRational(rand_fraction(rng))
        for j in range(i + 1, n):
            z = rand_scalar(rng)
            rows[i][j] = z
            rows[j][i] = z.conjugate()
    return ExactMatrix.from_rows(rows)


def gram_schmidt(vectors):
    """Exact orthogonalization (no normalization); drops dependent vectors."""
    basis = []
    for v in vectors:
        u = list(as_vector(v))
        for w in basis:
            c = inner(w, u) / inner(w, w)
            if not c.is_zero():
                u = [x - c * y for x, y in zip(u, w)]
        if any(not x.is_zero() for x in u):
            basis.append(tuple(u))
    return basis


def random_exact_ops(rng: random.Random, parties: int) -> ProductSet:
    """A random verified OPS with exact coordinates that does not span.

    Each party gets a local basis {u, perp(u)}: either a random pair u with
    non-integer rational parts, or the angle states q = 0 and q = 1/2.
    The members are a random proper subset of that product basis or, for
    three or more parties, the shifts UPB on the first three parties times
    random basis states on the rest, written in those bases.
    """
    bases = []
    for _ in range(parties):
        if rng.random() < 0.3:
            bases.append((LocalState.angle(0), LocalState.angle(Fraction(1, 2))))
        else:
            u = rand_local(rng)
            bases.append((u, local_perp(u)))
    if parties >= 3 and rng.random() < 0.5:
        members = []
        for m in shifts_upb().members:
            locs = []
            for p, loc in enumerate(m.locals):
                u, w = (bases[p][0].vec2(), bases[p][1].vec2())
                x, y = loc.vec2()
                locs.append(LocalState.pair(x * u[0] + y * w[0], x * u[1] + y * w[1]))
            tail = [bases[p][rng.randrange(2)] for p in range(3, parties)]
            members.append(ProductVector(locs + tail))
        return build_product_set(members)
    strings = list(itertools.product(range(2), repeat=parties))
    chosen = rng.sample(strings, rng.randint(1, len(strings) - 1))
    return build_product_set(
        [ProductVector([bases[p][b] for p, b in enumerate(bits)]) for bits in chosen]
    )


def complement_reference(s: ProductSet) -> ExactMatrix:
    """(I - sum_x |x><x|/<x|x>) / (D - |s|) in ExactMatrix arithmetic."""
    d = 2 ** s.parties
    acc = ExactMatrix.identity(d)
    for m in s.members:
        acc = acc - projector(m.flatten())
    return acc.scale(ComplexRational(Fraction(1, d - len(s.members))))


def _digits(idx, dims):
    out = []
    for d in reversed(dims):
        out.append(idx % d)
        idx //= d
    return out[::-1]


def _join(digits, dims):
    idx = 0
    for x, d in zip(digits, dims):
        idx = idx * d + x
    return idx


def partial_transpose_entrywise(m: ExactMatrix, dims, mask) -> ExactMatrix:
    """The partial transpose by its definition: split both indices into
    per-party digits and swap the digits of the parties in ``mask``."""
    dim = m.rows
    data = [None] * (dim * dim)
    for i in range(dim):
        for j in range(dim):
            ri, rj = _digits(i, dims), _digits(j, dims)
            for p in mask:
                ri[p], rj[p] = rj[p], ri[p]
            data[_join(ri, dims) * dim + _join(rj, dims)] = m.at(i, j)
    return ExactMatrix(dim, dim, data)


def partial_trace_entrywise(m: ExactMatrix, dims, keep) -> ExactMatrix:
    """The partial trace by its definition: entry (i, j) adds to entry
    (a, b) of the result when i and j agree on every traced party's digit
    and their kept digits spell a and b."""
    keep = sorted(keep)
    out_dims = [dims[p] for p in keep]
    n = prod(out_dims)
    acc = [[ComplexRational(0)] * n for _ in range(n)]
    for i in range(m.rows):
        for j in range(m.cols):
            ri, rj = _digits(i, dims), _digits(j, dims)
            if all(ri[p] == rj[p] for p in range(len(dims)) if p not in keep):
                a = _join([ri[p] for p in keep], out_dims)
                b = _join([rj[p] for p in keep], out_dims)
                acc[a][b] = acc[a][b] + m.at(i, j)
    return ExactMatrix.from_rows(acc)


def flattening_entrywise(v, dims, left) -> ExactMatrix:
    """``v`` as a matrix whose row index spells the digits of the parties in
    ``left`` and whose column index spells the other parties' digits."""
    left = sorted(left)
    right = [p for p in range(len(dims)) if p not in left]
    ldims = [dims[p] for p in left]
    rdims = [dims[p] for p in right]
    rows = [[ComplexRational(0)] * prod(rdims) for _ in range(prod(ldims))]
    for idx, x in enumerate(v):
        ds = _digits(idx, dims)
        rows[_join([ds[p] for p in left], ldims)][_join([ds[p] for p in right], rdims)] = x
    return ExactMatrix.from_rows(rows)


def random_grouped_tensor(rng: random.Random, dims):
    """A product of random tensors, one on each group of a random partition
    of the parties.  A group split by a cut contributes to the Schmidt rank
    across it and a group on one side does not, so the rank depends on
    which parties the cut holds."""
    label = [rng.randrange(len(dims)) for _ in dims]
    groups = [[p for p in range(len(dims)) if label[p] == g] for g in set(label)]
    factors = [rand_vector(rng, prod(dims[p] for p in g)) for g in groups]
    v = []
    for idx in range(prod(dims)):
        ds = _digits(idx, dims)
        x = ComplexRational(1)
        for g, f in zip(groups, factors):
            x = x * f[_join([ds[p] for p in g], [dims[p] for p in g])]
        v.append(x)
    return tuple(v)
