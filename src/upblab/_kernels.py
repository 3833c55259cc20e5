"""Elimination kernels over exact complex rationals.

* ``rref``           -- reduced row echelon form with per-step reduction
* ``bareiss_rank``   -- fraction-free rank over Gaussian integers
* ``ldl_hermitian``  -- pivoted symmetric elimination with certificates

Matrices are lists of rows; each entry is a reduced triple ``(p, q, r)``
meaning ``(p + q*i)/r`` with ``r > 0`` and ``gcd(p, q, r) = 1``.

Callers reach these functions as ``_kernels.<name>(...)`` rather than
importing the names, so tests and tracers can rebind them on this module.
"""

from __future__ import annotations

from math import gcd

from .scalars import cq_add, cq_conj, cq_div, cq_make, cq_mul, cq_scale_rat, cq_sub


def rref(rows, nrows, ncols):
    """Reduced row echelon form by Gauss-Jordan elimination.

    Fractions are reduced after every elementary step so entry growth stays
    controlled.  Returns ``(rank, pivot_cols, reduced_rows)``; the input is
    not mutated.
    """
    m = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            e = m[i][c]
            if e[0] != 0 or e[1] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            m[pr], m[r] = m[r], m[pr]
        piv = m[r][c]
        if piv != (1, 0, 1):
            row = m[r]
            for k in range(c, ncols):
                e = row[k]
                if e[0] != 0 or e[1] != 0:
                    row[k] = cq_div(e, piv)
        prow = m[r]
        for i in range(nrows):
            if i == r:
                continue
            f = m[i][c]
            if f[0] == 0 and f[1] == 0:
                continue
            row = m[i]
            for k in range(c, ncols):
                e = prow[k]
                if e[0] != 0 or e[1] != 0:
                    row[k] = cq_sub(row[k], cq_mul(f, e))
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivot_cols, m


def bareiss_rank(rows, nrows, ncols):
    """Rank by fraction-free Bareiss elimination over Gaussian integers.

    Each row is first scaled by the lcm of its denominators (row scaling
    preserves rank); the elimination then uses exact divisions only, with no
    gcd reductions in the inner loop.
    """
    # Clear denominators per row -> entries become (re, im) integer pairs.
    m = []
    for row in rows:
        l = 1
        for (_, _, r) in row:
            l = l // gcd(l, r) * r
        m.append([(p * (l // r), q * (l // r)) for (p, q, r) in row])

    rank = 0
    prev = (1, 0)
    prev_n2 = 1
    rows_idx = list(range(nrows))
    cols_idx = list(range(ncols))
    k = 0
    while k < min(nrows, ncols):
        # Find any nonzero entry in the remaining block.
        found = False
        for ii in range(k, nrows):
            for jj in range(k, ncols):
                e = m[rows_idx[ii]][cols_idx[jj]]
                if e[0] != 0 or e[1] != 0:
                    rows_idx[k], rows_idx[ii] = rows_idx[ii], rows_idx[k]
                    cols_idx[k], cols_idx[jj] = cols_idx[jj], cols_idx[k]
                    found = True
                    break
            if found:
                break
        if not found:
            break
        rk = rows_idx[k]
        ck = cols_idx[k]
        akk = m[rk][ck]
        for ii in range(k + 1, nrows):
            ri = rows_idx[ii]
            aik = m[ri][ck]
            for jj in range(k + 1, ncols):
                cj = cols_idx[jj]
                akj = m[rk][cj]
                aij = m[ri][cj]
                # t = (akk*aij - aik*akj) / prev, exact in Z[i]
                tre = (akk[0] * aij[0] - akk[1] * aij[1]) - (aik[0] * akj[0] - aik[1] * akj[1])
                tim = (akk[0] * aij[1] + akk[1] * aij[0]) - (aik[0] * akj[1] + aik[1] * akj[0])
                if prev != (1, 0):
                    nre = tre * prev[0] + tim * prev[1]
                    nim = tim * prev[0] - tre * prev[1]
                    tre = nre // prev_n2
                    tim = nim // prev_n2
                m[ri][cj] = (tre, tim)
            m[ri][ck] = (0, 0)
        prev = akk
        prev_n2 = akk[0] * akk[0] + akk[1] * akk[1]
        rank += 1
        k += 1
    return rank


def ldl_hermitian(rows, n):
    """Pivoted LDL* elimination of a Hermitian matrix with certificates.

    At each step: any negative diagonal in the active block yields a
    negativity witness; otherwise the first strictly positive diagonal is
    the pivot; if the active diagonal is all zero, any nonzero off-diagonal
    entry also yields a negativity witness (a PSD matrix with a zero
    diagonal entry has the whole row zero).  The verdict is "psd" exactly
    when elimination leaves a zero block.

    Returns a dict with keys:
      verdict   -- "psd" | "neg_diag" | "zero_diag"
      order     -- pivot indices, in elimination order
      pivots    -- positive pivot values as (num, den) pairs
      steps     -- per pivot, list of (k, f_k triple) multipliers over the
                   then-active indices (excluding the pivot itself)
      witness   -- on failure, a vector of triples with <w|M|w> < 0
      pair      -- on "zero_diag", the offending (i, j) in the Schur block
      value     -- on failure, the negative value <w|M|w> as (num, den)
    """
    W = [list(r) for r in rows]
    active = [True] * n
    order = []
    pivots = []
    steps = []

    def backapply(u):
        # Map a vector through the accumulated congruence: w = E_1 ... E_T u.
        for t in range(len(steps) - 1, -1, -1):
            p, frow = steps[t]
            s = (0, 0, 1)
            for k, f in frow:
                uk = u[k]
                if uk[0] != 0 or uk[1] != 0:
                    s = cq_add(s, cq_mul(f, uk))
            if s[0] != 0 or s[1] != 0:
                u[p] = cq_sub(u[p], s)
        return u

    while True:
        neg = -1
        pos = -1
        for i in range(n):
            if not active[i]:
                continue
            di = W[i][i]
            if di[0] < 0:
                neg = i
                break
            if di[0] > 0 and pos < 0:
                pos = i
        if neg >= 0:
            val = W[neg][neg]
            u = [(0, 0, 1)] * n
            u[neg] = (1, 0, 1)
            witness = backapply(u)
            return {
                "verdict": "neg_diag",
                "order": order,
                "pivots": pivots,
                "steps": steps,
                "witness": witness,
                "pair": None,
                "value": (val[0], val[2]),
            }
        if pos < 0:
            # Active diagonal all zero: look for a nonzero off-diagonal.
            act = [i for i in range(n) if active[i]]
            for a in range(len(act)):
                for b in range(a + 1, len(act)):
                    i, j = act[a], act[b]
                    c = W[i][j]
                    if c[0] != 0 or c[1] != 0:
                        u = [(0, 0, 1)] * n
                        u[i] = (1, 0, 1)
                        u[j] = cq_conj((-c[0], -c[1], c[2]))
                        witness = backapply(u)
                        n2 = c[0] * c[0] + c[1] * c[1]
                        return {
                            "verdict": "zero_diag",
                            "order": order,
                            "pivots": pivots,
                            "steps": steps,
                            "witness": witness,
                            "pair": (i, j),
                            "value": (-2 * n2, c[2] * c[2]),
                        }
            return {
                "verdict": "psd",
                "order": order,
                "pivots": pivots,
                "steps": steps,
                "witness": None,
                "pair": None,
                "value": None,
            }
        p = pos
        d = W[p][p]
        dnum, dden = d[0], d[2]
        act = [i for i in range(n) if active[i] and i != p]
        frow = []
        for k in act:
            e = W[p][k]
            if e[0] != 0 or e[1] != 0:
                frow.append((k, cq_scale_rat(e, dden, dnum)))
        fmap = dict(frow)
        for i in act:
            fi = fmap.get(i)
            if fi is None:
                continue
            # coef_i = conj(f_i) * d
            coef = cq_make(fi[0] * dnum, -fi[1] * dnum, fi[2] * dden)
            Wi = W[i]
            for j in act:
                fj = fmap.get(j)
                if fj is None:
                    continue
                Wi[j] = cq_sub(Wi[j], cq_mul(coef, fj))
        steps.append((p, frow))
        order.append(p)
        pivots.append((dnum, dden))
        active[p] = False
