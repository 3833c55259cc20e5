"""The benchmark's three workloads: seeded inputs, the timed item, and an
independent check of each item's output.

Each workload has the same shape:

* ``spec(seed, index)``  -- the input's random choices, cheap and
  deterministic in (seed, index); every index gets a distinct input, so a
  cache keyed on the input cannot fake a gain
* ``materialize(spec)``  -- builds the library objects the item receives
  (untimed)
* ``run(inp)``           -- the timed item
* ``check(inp, out)``    -- raises CheckFailed, or returns the item's
  canonical exact record, which feeds the result digest

The item code calls the library through module attributes so that the
trace, which rebinds module attributes, sees every call.
"""

from __future__ import annotations

import random
from fractions import Fraction

from upblab import catalog, entangle, linalg, product, search, states
from upblab.qubits import LocalState
from upblab.scalars import ComplexRational

from checks import (
    P,
    CheckFailed,
    ModP,
    check_psd_certificate_modp,
    doc_member_vectors,
    exact_trace,
    extendible_by_enumeration,
    matvec,
    pairwise_orthogonal,
    phase_class,
    random_vector,
    transpose_permutation,
)

# Index slot reserved for the warm-up input of every workload.
WARMUP = -1


def _rng(name, seed, index):
    # String seeds hash with SHA-512, so streams do not depend on the
    # interpreter's hash randomisation.
    return random.Random(f"{name}/{seed}/{index}")


def _gaussian(rng, span=3):
    return rng.randint(-span, span), rng.randint(-span, span)


class Pptes6q:
    name = "pptes_6q"
    digest_items = 4

    def __init__(self):
        self.modp = ModP()
        self._perms = {}
        self._bases = {}

    def spec(self, seed, index):
        rng = _rng(self.name, seed, index)
        # The warm-up runs the same pipeline at 5 qubits, a tenth of the cost.
        extra = 2 if index == WARMUP else 3
        n = 3 + extra
        perm = list(range(n))
        rng.shuffle(perm)
        unitaries = []
        for _ in range(n):
            a, b = _gaussian(rng), _gaussian(rng)
            while a == b == (0, 0):
                a, b = _gaussian(rng), _gaussian(rng)
            unitaries.append((a, b))
        return extra, tuple(perm), tuple(unitaries), rng.randrange(1 << 62)

    def _base(self, extra):
        if extra not in self._bases:
            self._bases[extra] = product.tensor_upb_opb(product.shifts_upb(), extra)
        return self._bases[extra]

    def materialize(self, spec):
        """A product-set document: the shifts UPB tensored with a standard
        basis, parties permuted, and each party rotated by the scaled unitary
        |0> -> (a, b), |1> -> (-conj b, conj a).  Orthogonality,
        unextendibility and every verdict survive; entry sizes vary."""
        extra, perm, unitaries, check_seed = spec
        members = []
        for m in self._base(extra).members:
            locs = []
            for p, (a, b) in enumerate(unitaries):
                a, b = ComplexRational(*a), ComplexRational(*b)
                x, y = m.locals[perm[p]].vec2()
                locs.append(
                    LocalState.pair(x * a - y * b.conjugate(), x * b + y * a.conjugate())
                )
            members.append(product.ProductVector(locs))
        doc = catalog.product_set_to_doc(product.build_product_set(members))
        return doc, check_seed

    def run(self, inp):
        doc, _ = inp
        s = catalog.from_doc(doc)
        d = states.complement_projector(s)
        report = states.ppt_report(d)
        scan = entangle.range_product_scan(d)
        return d, report, scan

    def _perm(self, n, mask):
        key = (n, mask)
        if key not in self._perms:
            self._perms[key] = transpose_permutation((2,) * n, mask)
        return self._perms[key]

    def check(self, inp, out):
        doc, check_seed = inp
        d, report, scan = out
        modp = self.modp
        rng = random.Random(check_seed)
        n = doc["parties"]
        dim = 1 << n
        members = len(doc["members"])
        if d.dims != (2,) * n or d.matrix.rows != dim:
            raise CheckFailed("complement has the wrong shape")
        data = d.matrix.data
        # Rank of the complement: a Hermitian M with (D - |S|) M idempotent
        # is a projector scaled by 1/(D - |S|), so trace 1 means rank D - |S|.
        if exact_trace(data, dim) != 1:
            raise CheckFailed("complement trace is not 1")
        re, im = modp.matrix(data)
        for i in range(dim):
            for j in range(i, dim):
                if re[i * dim + j] != re[j * dim + i] or im[i * dim + j] != -im[j * dim + i] % P:
                    raise CheckFailed("complement is not Hermitian")
        xr, xi = random_vector(rng, dim)
        yr, yi = matvec(re, im, dim, xr, xi)
        zr, zi = matvec(re, im, dim, yr, yi)
        k = dim - members
        if [k * v % P for v in zr] != yr or [k * v % P for v in zi] != yi:
            raise CheckFailed("complement is not a scaled projector")
        zero = [0] * dim
        for vr, vi in doc_member_vectors(modp, doc):
            if matvec(re, im, dim, vr, vi) != (zero, zero):
                raise CheckFailed("a set member is not in the complement's kernel")
        # One PSD certificate per bipartition class, against our own transpose.
        expected = {
            frozenset(p for p in range(1, n) if bits >> (p - 1) & 1)
            for bits in range(1, 1 << (n - 1))
        }
        if set(report.certificates) != expected:
            raise CheckFailed("report does not cover every bipartition class")
        record = []
        for mask in sorted(expected, key=lambda m: (len(m), sorted(m))):
            cert = report.certificates[mask]
            perm = self._perm(n, tuple(sorted(mask)))
            pr = [re[i] for i in perm]
            pi = [im[i] for i in perm]
            check_psd_certificate_modp(modp, pr, pi, cert, rng, f"class {sorted(mask)}")
            record.append([sorted(mask), cert.verdict, cert.rank, [str(x) for x in cert.pivots]])
        if scan.verdict != "none_certified" or scan.certificate.extendible:
            raise CheckFailed(f"range verdict {scan.verdict}, expected none_certified")
        return {"classes": record, "range": [scan.verdict, scan.certificate.branches_explored]}


class Subtract2xn:
    name = "subtract_2xn"
    digest_items = 100

    def spec(self, seed, index):
        # Mirrors the acceptance suite's random separable 2xN generator:
        # complex qubit factors against real second-side factors, so the
        # transpose rank drops together with the rank.
        rng = _rng(self.name, seed, index)
        n = rng.randint(2, 8)
        terms = []
        for _ in range(rng.randint(2, 5)):
            a = _nonzero(rng, 2, complex_ok=True)
            b = _nonzero(rng, n, complex_ok=False)
            w = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            terms.append((a, b, w))
        return n, terms

    def materialize(self, spec):
        n, terms = spec
        acc = linalg.ExactMatrix.zeros(2 * n, 2 * n)
        first = None
        for a, b, w in terms:
            v = tuple(ComplexRational(*x) * ComplexRational(y) for x in a for y in b)
            acc = acc + linalg.projector(v).scale(ComplexRational(w))
            if first is None:
                first = v
        return states.density_from_matrix((2, n), acc), first

    def run(self, inp):
        d, v = inp
        before = states.birank(d)
        out, weight = states.subtract_product(d, v)
        after = states.birank(out)
        cert = linalg.psd_certificate(states.partial_transpose(out, {0}).matrix)
        return before, out, weight, after, cert

    def check(self, inp, out):
        d, _ = inp
        before, result, weight, after, cert = out
        if not weight > 0:
            raise CheckFailed("subtraction weight is not positive")
        if after.rank != before.rank - 1 or after.pt_rank != before.pt_rank - 1:
            raise CheckFailed("rank and transpose rank must each drop by one")
        dim = result.matrix.rows
        perm = transpose_permutation(result.dims, (0,))
        pt = linalg.ExactMatrix(dim, dim, [result.matrix.data[i] for i in perm])
        if not cert.is_psd or not linalg.verify_psd_certificate(pt, cert):
            raise CheckFailed("transpose certificate failed re-validation")
        return [
            list(d.dims), before.rank, before.pt_rank, after.rank, after.pt_rank,
            str(weight), [str(x) for x in cert.pivots],
        ]


def _nonzero(rng, dim, complex_ok):
    while True:
        v = tuple(_small_scalar(rng, complex_ok) for _ in range(dim))
        if any(x not in (0, (0, 0)) for x in v):
            return v


def _small_scalar(rng, complex_ok):
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if complex_ok and rng.random() < 0.5 else 0
    return (re, im) if complex_ok else re


class TemplateScan:
    name = "template_scan"
    digest_items = 20
    parties = 5
    size = 6
    budget = 200
    # Unit u of scan(..., s) runs Random(s + u), so scans whose seeds lie
    # closer than the budget share units.  Item seeds are spaced a whole
    # budget apart, with room for this many items per workload seed.
    slots = 1 << 24

    def __init__(self):
        self._self_test()

    def spec(self, seed, index):
        slot = self.slots - 1 if index == WARMUP else index
        return (seed * self.slots + slot) * self.budget

    def materialize(self, spec):
        return spec

    def run(self, scan_seed):
        return search.scan(self.parties, self.size, self.budget, scan_seed)

    def check(self, scan_seed, report):
        if report.templates_tried != self.budget or report.seed != scan_seed:
            raise CheckFailed("scan did not try its whole budget")
        if report.feasible != report.extendible + len(report.upbs_found):
            raise CheckFailed("feasible != extendible + UPBs found")
        if report.feasible == 0:
            raise CheckFailed("scan built no feasible template, so it is vacuous")
        upbs = []
        for s in report.upbs_found:
            if len(s.members) != self.size or not pairwise_orthogonal(s.members):
                raise CheckFailed("reported UPB is not an orthogonal product set")
            keys = [[phase_class(l) for l in m.locals] for m in s.members]
            if extendible_by_enumeration(keys):
                raise CheckFailed("reported UPB is extendible")
            upbs.append([[str(l.q) for l in m.locals] for m in s.members])
        return [report.feasible, report.extendible, report.ops_built, upbs]

    @staticmethod
    def _self_test():
        """The enumerator must tell an unextendible set from an extendible
        one, so that a reported UPB is never waved through."""
        shifts = product.shifts_upb()
        keys = [[phase_class(l) for l in m.locals] for m in shifts.members]
        if extendible_by_enumeration(keys) or not extendible_by_enumeration(keys[:3]):
            raise CheckFailed("extendibility enumerator failed its self-test")


WORKLOADS = {w.name: w for w in (Pptes6q, Subtract2xn, TemplateScan)}
