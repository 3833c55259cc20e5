"""Independent oracles and random generators shared by the tests.

The extendibility oracle here deliberately uses plain assignment
enumeration, not the library's covering search, so the two can check each
other.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from upblab import _kernels
from upblab.errors import DuplicateMemberError, NotOrthogonalError
from upblab.linalg import ExactMatrix, as_vector, inner, projector
from upblab.product import (
    ProductSet,
    ProductVector,
    build_product_set,
    shifts_upb,
    tensor_upb_opb,
)
from upblab.qubits import LocalState, local_perp
from upblab.scalars import CQ0, CQ1, ComplexRational
from upblab.search import Infeasible, Template, realize_template, sample_template
from upblab.states import DensityOp, complement_projector


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


def nullspace_basis(m: ExactMatrix):
    """A basis of ker(m) from the reduced row echelon form, one vector per
    free column f in ascending order: 1 at f, 0 at the other free columns.
    It runs the library's ``rref``; the library itself reads its kernel
    bases from PSD certificates instead."""
    rank, piv_cols, red = _kernels.rref(m._triple_rows(), m.rows, m.cols)
    piv_set = set(piv_cols)
    basis = []
    for f in range(m.cols):
        if f in piv_set:
            continue
        v = [CQ0] * m.cols
        v[f] = CQ1
        for t, c in enumerate(piv_cols):
            e = red[t][f]
            if e[0] != 0 or e[1] != 0:
                v[c] = ComplexRational.from_triple((-e[0], -e[1], e[2]))
        basis.append(tuple(v))
    return basis


def product_vector_from_flat_rref(v, n: int):
    """The product factorization of a 2^n coordinate vector by row
    reduction, or None: the reference for ``product_vector_from_flat``.
    Each party-vs-rest flattening goes through the library's ``rref``; a
    rank-one one gives the party's local (its pivot column) and the rest
    (its RREF row), and the last 2-vector is the final local."""
    row = as_vector(v)
    locals_out = []
    for k in range(n - 1, 0, -1):
        m = ExactMatrix(2, 2 ** k, row)
        rank, piv_cols, red = _kernels.rref(m._triple_rows(), m.rows, m.cols)
        if rank != 1:
            return None
        locals_out.append(LocalState.pair(m.at(0, piv_cols[0]), m.at(1, piv_cols[0])))
        row = tuple(ComplexRational.from_triple(t) for t in red[0])
    if all(x.is_zero() for x in row):
        return None
    locals_out.append(LocalState.pair(*row))
    return ProductVector(locals_out)


def class_masks(keys, parties: int):
    """Per party: dict of class -> bitmask of the members in it."""
    classes = [{} for _ in range(parties)]
    for idx, row in enumerate(keys):
        bit = 1 << idx
        for p, key in enumerate(row):
            groups = classes[p]
            groups[key] = groups.get(key, 0) | bit
    return classes


@lru_cache(maxsize=None)
def _cyclotomic(n: int):
    from sympy import Poly, QQ, Symbol, cyclotomic_poly

    return Poly(cyclotomic_poly(n, Symbol("z")), Symbol("z"), domain=QQ)


@lru_cache(maxsize=None)
def angle_form_is_zero(q: Fraction, a: ComplexRational, b: ComplexRational) -> bool:
    """Whether cos(pi q) a + sin(pi q) b = 0, decided exactly by sympy in
    the cyclotomic field Q(z), z = exp(i pi / (2 m)) with q = k / m in
    lowest terms.  There i = z^m and exp(i pi q) = z^(2k), so
    2 i z^(2k) (cos(pi q) a + sin(pi q) b)
    = a z^m (z^(4k) + 1) + b (z^(4k) - 1),
    a polynomial in z that vanishes iff the cyclotomic polynomial of
    order 4m divides it.  No phase key and no case analysis of q."""
    from sympy import Poly, QQ

    k, m = q.numerator, q.denominator
    coeffs = {}
    # a z^m = re(a) z^m + im(a) z^(2m), and b = re(b) + im(b) z^m
    for shift, c, sign in ((m, a.re, 1), (2 * m, a.im, 1), (0, b.re, -1), (m, b.im, -1)):
        coeffs[shift + 4 * k] = coeffs.get(shift + 4 * k, 0) + c
        coeffs[shift] = coeffs.get(shift, 0) + sign * c
    z = _cyclotomic(4 * m).gen
    poly = Poly.from_dict(
        {(e,): QQ(c.numerator, c.denominator) for e, c in coeffs.items() if c}, z, domain=QQ
    )
    return poly.rem(_cyclotomic(4 * m)).is_zero


def _coords(l: LocalState):
    """Exact coordinates by the oracles' own rule, not ``LocalState.vec2``:
    a pair's own, |0> and |1> for the angles 0 and 1/2, and None for every
    other angle, which ``angle_form_is_zero`` decides against a pair."""
    if not l.is_angle():
        return l.a, l.b
    if l.q == 0:
        return ComplexRational(1), ComplexRational(0)
    if l.q == Fraction(1, 2):
        return ComplexRational(0), ComplexRational(1)
    return None


def orthogonal_reference(u: LocalState, v: LocalState) -> bool:
    """<u|v> = 0, decided without phase keys.  Two angles are orthogonal
    iff they differ by 1/2 (mod 1).  Locals with ``_coords`` (pairs and the
    angles 0 and 1/2) are decided on integers: with
    ua = (p1 + q1 i)/r1, ub = (p2 + q2 i)/r2, va = (p3 + q3 i)/r3 and
    vb = (p4 + q4 i)/r4, <u|v> = conj(ua) va + conj(ub) vb is zero iff
    r2 r4 conj(p1 + q1 i)(p3 + q3 i) + r1 r3 conj(p2 + q2 i)(p4 + q4 i) is.
    A pair against any other angle goes to ``angle_form_is_zero``."""
    if u.is_angle() and v.is_angle():
        return (v.q - u.q) % 1 == Fraction(1, 2)
    cu, cv = _coords(u), _coords(v)
    if cu and cv:
        (ua, ub), (va, vb) = cu, cv
        p1, q1, r1 = ua.t
        p2, q2, r2 = ub.t
        p3, q3, r3 = va.t
        p4, q4, r4 = vb.t
        s = r2 * r4
        t = r1 * r3
        return (
            (p1 * p3 + q1 * q3) * s + (p2 * p4 + q2 * q4) * t == 0
            and (p1 * q3 - q1 * p3) * s + (p2 * q4 - q2 * p4) * t == 0
        )
    if u.is_angle():
        return angle_form_is_zero(u.q, v.a, v.b)
    return angle_form_is_zero(v.q, u.a.conjugate(), u.b.conjugate())


def equal_up_to_phase_reference(u: LocalState, v: LocalState) -> bool:
    """u = c v for a nonzero scalar c, decided without phase keys: equal
    angles, a zero determinant of ``_coords``, or for a pair against any
    other angle, a zero determinant cos(pi q) vb - sin(pi q) va."""
    if u.is_angle() and v.is_angle():
        return u.q == v.q
    cu, cv = _coords(u), _coords(v)
    if cu and cv:
        (ua, ub), (va, vb) = cu, cv
        return (ua * vb - ub * va).is_zero()
    if v.is_angle():
        u, v = v, u
    return angle_form_is_zero(u.q, v.b, -v.a)


def witnesses_pairwise(members):
    """The former verifier: ``orthogonal_reference`` on every pair and
    party.  Returns (i, j), i < j -> the parties witnessing the pair, or
    raises what the first pair in scan order without a witness calls for:
    DuplicateMemberError when the pair is equal up to phase at every
    party, NotOrthogonalError otherwise."""
    n = members[0].parties if members else 0
    witnesses = {}
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            ws = frozenset(
                p
                for p in range(n)
                if orthogonal_reference(members[i].locals[p], members[j].locals[p])
            )
            if not ws:
                if all(
                    equal_up_to_phase_reference(members[i].locals[p], members[j].locals[p])
                    for p in range(n)
                ):
                    raise DuplicateMemberError(i, j)
                raise NotOrthogonalError(i, j)
            witnesses[(i, j)] = ws
    return witnesses


def is_bipartite_opb_reference(members) -> bool:
    """A list of qubit x C^N product vectors is an OPB exactly when it has
    2N members, each with a nonzero tail of length N, pairwise orthogonal:
    at the qubit (``orthogonal_reference``) or in the tails.  Nonzero
    pairwise orthogonal vectors are independent, so 2N of them span."""
    n = len(members[0].tail) if members else 0
    if n == 0 or len(members) != 2 * n:
        return False
    if any(len(m.tail) != n or all(x.is_zero() for x in m.tail) for m in members):
        return False
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            a, b = members[i], members[j]
            if orthogonal_reference(a.qubit, b.qubit):
                continue
            tails = sum((x.conjugate() * y for x, y in zip(a.tail, b.tail)), CQ0)
            if not tails.is_zero():
                return False
    return True


def random_feasible_ops(rng: random.Random, parties: int, size: int) -> ProductSet:
    """Sample templates until one realizes; returns the verified OPS."""
    while True:
        t = sample_template(parties, size, rng)
        # the draw once seeded the template's labels; it stays so that every
        # seeded corpus keeps sampling the same templates
        rng.randrange(1 << 30)
        out = realize_template(t)
        if not isinstance(out, Infeasible):
            return out


def sample_template_by_randrange(
    parties: int, size: int, rng: random.Random, balanced: bool = False
) -> Template:
    """The scan's former sampler, one ``rng.randrange`` per choice: uniform
    witness choices, or biased toward balanced per-party edge counts when
    ``balanced`` is set."""
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
            row = masks[p]
            row[i] |= 1 << j
            row[j] |= bit_i
    return Template(parties=parties, size=size, neighbours=tuple(map(tuple, masks)))


def template_from_witnesses(parties: int, size: int, choice) -> Template:
    """The template whose pair (i, j), i < j, is witnessed at party
    ``choice[(i, j)]``."""
    masks = [[0] * size for _ in range(parties)]
    for (i, j), p in choice.items():
        masks[p][i] |= 1 << j
        masks[p][j] |= 1 << i
    return Template(parties=parties, size=size, neighbours=tuple(map(tuple, masks)))


def label_by_random_angles(t: Template, seed: int):
    """The scan's former labelling: one random angle numerator a in [0, 64)
    per component and party, drawn from ``Random(seed)`` and redrawn while
    it collides with a numerator used at that party or with its perp
    (a + 32) % 64; the color-1 side gets the perp.  Infeasible on an odd
    cycle (every party is colored first) or when 200 draws in a row
    collide, which takes 32 or more components at one party."""
    colorings = []
    for p in range(t.parties):
        comps = two_color_by_dict(t.size, template_edges(t, p))
        if comps is None:
            return Infeasible(reason=f"party {p} constraint graph has an odd cycle")
        colorings.append(comps)
    rng = random.Random(seed)
    grid = [[0] * t.parties for _ in range(t.size)]
    for p, comps in enumerate(colorings):
        used = set()
        for comp, colors in comps:
            for _ in range(200):
                a = rng.randrange(64)
                if a not in used:
                    break
            else:
                return Infeasible(reason=f"party {p} ran out of non-colliding angles")
            perp = (a + 32) % 64
            used.add(a)
            used.add(perp)
            for m in comp:
                grid[m][p] = perp if colors[m] else a
    return grid


def template_edges(t: Template, p: int):
    """The member pairs (i, j), i < j, witnessed at party p."""
    return [
        (i, j)
        for i, mask in enumerate(t.neighbours[p])
        for j in range(i + 1, t.size)
        if mask >> j & 1
    ]


def two_color_by_dict(size: int, edges):
    """Components and 2-colorings of a graph on ``size`` members, by
    adjacency dicts: list of (component members, colors dict), or None on
    an odd cycle.  Isolated members get singleton components."""
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


def random_psd(rng: random.Random, n: int, rank: int) -> ExactMatrix:
    """G G-dagger for a random complex n x rank matrix G, so a PSD matrix of
    rank at most ``rank``.  G's entries have mixed denominators, and about
    one in twelve has a numerator or a denominator near 2^40."""
    big = 1 << 40

    def part():
        x = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4, 5, 6, 7, 9, 12)))
        roll = rng.random()
        if roll < 0.04:
            return x + Fraction(big + rng.randint(-9, 9), rng.randint(1, 7))
        if roll < 0.08:
            return x + Fraction(rng.randint(1, 9), big + rng.randint(-9, 9))
        return x

    g = ExactMatrix.from_rows(
        [[ComplexRational(part(), part()) for _ in range(rank)] for _ in range(n)]
    )
    return g @ g.dagger()


def sparse_low_rank_psd(rng: random.Random, n: int) -> ExactMatrix:
    """G G-dagger for an n x r factor G with most entries zero."""
    r = rng.randint(1, max(1, n // 2))
    g = ExactMatrix.from_rows(
        [[rand_scalar(rng) if rng.random() < 0.3 else 0 for _ in range(r)] for _ in range(n)]
    )
    return g @ g.dagger()


def _random_block(rng, blocks):
    """One Hermitian block, as rows of scalars: a copy of an earlier block
    as it is or with its indices permuted, a 1x1 zero, [[0, c], [c*, 0]],
    a block whose diagonal turns negative only after its own first pivot,
    or a random PSD or indefinite block of width 1-4."""
    roll = rng.random()
    if blocks and roll < 0.3:
        b = rng.choice(blocks)
        perm = list(range(len(b)))
        if roll < 0.15:
            rng.shuffle(perm)
        return [[b[i][j] for j in perm] for i in perm]
    if roll < 0.4:
        return [[ComplexRational(0)]]
    if roll < 0.5:
        c = rand_vector(rng, 1)[0]
        return [[ComplexRational(0), c], [c.conjugate(), ComplexRational(0)]]
    if roll < 0.6:
        # Schur complement e - |b|^2 / a < 0 after the pivot a > 0
        a = ComplexRational(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        c = rand_vector(rng, 1)[0]
        e = ComplexRational((c * c.conjugate() / a).re * Fraction(rng.randint(0, 3), 4))
        return [[a, c], [c.conjugate(), e]]
    h = rand_hermitian(rng, rng.randint(1, 4), psd=roll < 0.8)
    return [[h.at(i, j) for j in range(h.cols)] for i in range(h.rows)]


def scattered_blocks(rng: random.Random) -> ExactMatrix:
    """1-5 blocks from ``_random_block`` on shuffled indices, zero
    elsewhere.  A block's rows and columns keep their relative order."""
    blocks = []
    for _ in range(rng.randint(1, 5)):
        blocks.append(_random_block(rng, blocks))
    n = sum(len(b) for b in blocks)
    places = list(range(n))
    rng.shuffle(places)
    rows = [[ComplexRational(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        idx = sorted(places[at : at + len(b)])
        at += len(b)
        for i, row in zip(idx, b):
            for j, x in zip(idx, row):
                rows[i][j] = x
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


def rotated_complement(rng: random.Random, extra: int) -> DensityOp:
    """The complement projector of ``rotated_set(rng, extra)``."""
    return complement_projector(rotated_set(rng, extra))


def rotated_set(rng: random.Random, extra: int) -> ProductSet:
    """The shifts UPB tensored with ``extra`` basis parties, parties
    permuted and each party rotated by |0> -> (a, b), |1> -> (-conj b, conj a),
    as the benchmark builds its inputs."""
    base = tensor_upb_opb(shifts_upb(), extra)
    n = 3 + extra
    perm = list(range(n))
    rng.shuffle(perm)
    unitaries = []
    for _ in range(n):
        a = b = (0, 0)
        while a == b == (0, 0):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            b = (rng.randint(-3, 3), rng.randint(-3, 3))
        unitaries.append((ComplexRational(*a), ComplexRational(*b)))
    members = []
    for m in base.members:
        locs = []
        for p, (a, b) in enumerate(unitaries):
            x, y = m.locals[perm[p]].vec2()
            locs.append(LocalState.pair(x * a - y * b.conjugate(), x * b + y * a.conjugate()))
        members.append(ProductVector(locs))
    return build_product_set(members)


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


def _triple(z):
    """A (re, im) pair of Fractions as the reduced triple (p, q, r)."""
    re, im = z
    r = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
    return (re.numerator * (r // re.denominator), im.numerator * (r // im.denominator), r)


def ldl_reference(rows, n):
    """Pivoted LDL* of a Hermitian matrix given as triple rows, over pairs of
    Fractions, with the kernel's pivot rule and record layout: the first
    negative active diagonal gives "neg_diag"; otherwise the first positive
    one is the pivot; an all-zero active diagonal gives "zero_diag" at the
    first nonzero active pair (i < j), or "psd" when there is none.  It
    forms the whole Schur complement densely, so it shares no update order
    with the kernel, and it calls nothing from ``upblab``."""
    W = [[(Fraction(p, r), Fraction(q, r)) for p, q, r in row] for row in rows]
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    act = list(range(n))
    order, pivots, steps = [], [], []

    def record(verdict, u=None, pair=None, value=None):
        witness = None
        if u is not None:
            for p, frow in reversed(steps):
                s = zero
                for k, f in frow:
                    fu = mul(f, u[k])
                    s = (s[0] + fu[0], s[1] + fu[1])
                u[p] = (u[p][0] - s[0], u[p][1] - s[1])
            witness = [_triple(x) for x in u]
        return {
            "verdict": verdict,
            "order": order,
            "pivots": pivots,
            "steps": [(p, [(k, _triple(f)) for k, f in frow]) for p, frow in steps],
            "witness": witness,
            "pair": pair,
            "value": value,
        }

    while True:
        diag = [(i, W[i][i][0]) for i in act]
        neg = [i for i, x in diag if x < 0]
        if neg:
            u = [zero] * n
            u[neg[0]] = one
            x = W[neg[0]][neg[0]][0]
            return record("neg_diag", u, value=(x.numerator, x.denominator))
        pos = [i for i, x in diag if x > 0]
        if not pos:
            for a, i in enumerate(act):
                for j in act[a + 1 :]:
                    if W[i][j] != zero:
                        u = [zero] * n
                        u[i] = one
                        u[j] = (-W[i][j][0], W[i][j][1])
                        p, q, r = _triple(W[i][j])
                        return record("zero_diag", u, (i, j), (-2 * (p * p + q * q), r * r))
            return record("psd")
        p = pos[0]
        act.remove(p)
        d = W[p][p][0]
        frow = [(k, (W[p][k][0] / d, W[p][k][1] / d)) for k in act if W[p][k] != zero]
        for i in act:
            for j in act:
                c = mul(W[i][p], W[p][j])
                W[i][j] = (W[i][j][0] - c[0] / d, W[i][j][1] - c[1] / d)
        steps.append((p, frow))
        order.append(p)
        pivots.append((d.numerator, d.denominator))
