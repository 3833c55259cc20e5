"""Output checks that share no code with the library's own verification.

Exact matrices over Q(i) are mapped into Z_P[i] for the prime P = 2^61 - 1.
The map is a ring homomorphism on every entry whose denominator is prime to
P, so an exact identity over Q(i) still holds after it.  A false identity
survives only if P divides every entry of the difference, or if a random
test vector happens to lie in its kernel (probability about 1/P).  This makes
a randomized identity check cheap enough to run on every certificate of
every item, where a full exact reconstruction costs far more than the item.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

P = (1 << 61) - 1


class CheckFailed(Exception):
    """An item's output failed an independent check."""


class ModP:
    """Converts exact (p + q i)/r triples into (re, im) residues mod P."""

    def __init__(self):
        self._inv = {}

    def triple(self, t):
        p, q, r = t
        inv = self._inv.get(r)
        if inv is None:
            if r % P == 0:
                raise CheckFailed("denominator divisible by the check prime")
            inv = self._inv[r] = pow(r, -1, P)
        return p * inv % P, q * inv % P

    def rational(self, f: Fraction) -> int:
        return self.triple((f.numerator, 0, f.denominator))[0]

    def matrix(self, data):
        """Flat lists (re, im) of residues for a flat tuple of ComplexRational."""
        re, im = [], []
        for e in data:
            a, b = self.triple(e.t)
            re.append(a)
            im.append(b)
        return re, im


def random_vector(rng, n):
    return [rng.randrange(P) for _ in range(n)], [rng.randrange(P) for _ in range(n)]


def matvec(re, im, n, xr, xi):
    """y = A x over Z_P[i] for an n x n row-major A."""
    yr, yi = [], []
    for i in range(n):
        base = i * n
        sr = si = 0
        for j in range(n):
            a = re[base + j]
            b = im[base + j]
            if a or b:
                c = xr[j]
                d = xi[j]
                sr += a * c - b * d
                si += a * d + b * c
        yr.append(sr % P)
        yi.append(si % P)
    return yr, yi


def transpose_permutation(dims, mask):
    """perm with PT.data[k] == M.data[perm[k]] for the partial transpose of
    the parties in ``mask`` (party 0 is the most significant index digit)."""
    n = len(dims)
    dim = 1
    for d in dims:
        dim *= d

    def split(idx):
        out = [0] * n
        for p in range(n - 1, -1, -1):
            idx, out[p] = divmod(idx, dims[p])
        return out

    def join(parts):
        idx = 0
        for p in range(n):
            idx = idx * dims[p] + parts[p]
        return idx

    perm = [0] * (dim * dim)
    for i in range(dim):
        ip = split(i)
        for j in range(dim):
            jp = split(j)
            ri, rj = list(ip), list(jp)
            for p in mask:
                ri[p], rj[p] = jp[p], ip[p]
            perm[join(ri) * dim + join(rj)] = i * dim + j
    return perm


def ldl_apply(modp: ModP, cert, xr, xi):
    """sum_t d_t |l_t><l_t| x over Z_P[i], read straight from the record:
    l_t is 1 at the pivot p and conj(f) at each (k, f) of the step."""
    n = cert.dim
    yr = [0] * n
    yi = [0] * n
    for d, (p, frow) in zip(cert.pivots, cert.steps):
        fs = [(k, modp.triple(f)) for k, f in frow]
        # s = <l_t|x> = x_p + sum_k f_k x_k
        sr, si = xr[p], xi[p]
        for k, (a, b) in fs:
            sr += a * xr[k] - b * xi[k]
            si += a * xi[k] + b * xr[k]
        dr = modp.rational(d)
        sr = sr % P * dr % P
        si = si % P * dr % P
        yr[p] += sr
        yi[p] += si
        for k, (a, b) in fs:
            # conj(f_k) * s
            yr[k] += a * sr + b * si
            yi[k] += a * si - b * sr
    return [v % P for v in yr], [v % P for v in yi]


def check_psd_certificate_modp(modp, re, im, cert, rng, what):
    """A PSD certificate for the n x n matrix (re, im): positive pivots, rank
    equal to the pivot count, and M x == L D L* x for a random x."""
    if cert.verdict != "psd":
        raise CheckFailed(f"{what}: verdict {cert.verdict}, expected psd")
    if any(d <= 0 for d in cert.pivots):
        raise CheckFailed(f"{what}: nonpositive pivot")
    if cert.rank != len(cert.pivots) or len(cert.steps) != len(cert.pivots):
        raise CheckFailed(f"{what}: rank does not match the pivot record")
    xr, xi = random_vector(rng, cert.dim)
    if matvec(re, im, cert.dim, xr, xi) != ldl_apply(modp, cert, xr, xi):
        raise CheckFailed(f"{what}: certificate does not reproduce the matrix")


def exact_trace(data, dim):
    tr = Fraction(0)
    for i in range(dim):
        p, q, r = data[i * dim + i].t
        if q:
            raise CheckFailed("diagonal entry is not real")
        tr += Fraction(p, r)
    return tr


def doc_member_vectors(modp: ModP, doc):
    """Flat coordinates mod P of each member of a product-set document,
    parsed from the document itself."""
    out = []
    for row in doc["members"]:
        vr, vi = [1], [0]
        for local in row:
            (ar, ai), (br, bi) = [
                (modp.rational(Fraction(x)), modp.rational(Fraction(y)))
                for x, y in local["pair"]
            ]
            nr, ni = [], []
            for x, y in zip(vr, vi):
                nr += [(x * ar - y * ai) % P, (x * br - y * bi) % P]
                ni += [(x * ai + y * ar) % P, (x * bi + y * br) % P]
            vr, vi = nr, ni
        out.append((vr, vi))
    return out


def phase_class(local):
    """A key equal for two qubit locals exactly when they agree up to phase:
    the angle itself, or the ratio b/a of a coordinate pair."""
    if local.kind == "angle":
        return ("angle", Fraction(local.q) % 1)
    a, b = local.a, local.b
    if a.is_zero():
        return ("pair", None)
    ratio = b / a
    return ("pair", ratio.re, ratio.im)


def extendible_by_enumeration(keys):
    """Brute force over every member -> party assignment: a product vector
    orthogonal to all members exists iff some assignment puts, at every
    party, only members of one phase class."""
    size = len(keys)
    parties = len(keys[0]) if size else 0
    for assign in itertools.product(range(parties), repeat=size):
        chosen = {}
        for m, p in enumerate(assign):
            if chosen.setdefault(p, keys[m][p]) != keys[m][p]:
                break
        else:
            return True
    return False


def pairwise_orthogonal(members):
    """Every member pair has some party whose angle locals differ by 1/2."""
    half = Fraction(1, 2)
    for x, y in itertools.combinations(members, 2):
        if not any(
            u.kind == v.kind == "angle" and (u.q - v.q) % 1 == half
            for u, v in zip(x.locals, y.locals)
        ):
            return False
    return True
