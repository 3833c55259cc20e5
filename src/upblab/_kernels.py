"""Elimination kernels over exact complex rationals.

* ``rref``           -- reduced row echelon form with per-step reduction
* ``bareiss_rank``   -- fraction-free rank over Gaussian integers
* ``ldl_hermitian``  -- pivoted symmetric elimination with certificates; the
                        Schur update runs over the pivot row's nonzero
                        multipliers and forms each Hermitian pair once
* ``backapply``      -- back substitution through a record, behind the
                        witnesses and ``linalg``'s kernel basis

``ldl_hermitian`` first splits its matrix into the connected blocks of the
nonzero pattern, which the elimination never mixes.  Each distinct block is
eliminated once, so the copies of C in a complement C (x) I, and in each of
its partial transposes, share one run.  When every block is PSD, their
records are merged by the whole-matrix pivot rule; a matrix of one block,
or with a block that is not PSD, runs the loop as it stands.  Sharing
across matrices happens above this module: ``states.ppt_report`` gives
equal partial transposes one certificate, so each distinct transpose
reaches ``ldl_hermitian`` once.

Matrices are lists of rows; each entry is a triple ``(p, q, r)`` meaning
``(p + q*i)/r`` with ``r > 0``.  Inputs and returned values are reduced,
``gcd(p, q, r) = 1``.  Inside ``ldl_hermitian`` a Schur-complement entry is
reduced only when it is read as a value or its denominator passes
``_REDUCE_BITS`` bits; its zero and sign tests need no reduction.

Callers reach these functions as ``_kernels.<name>(...)`` rather than
importing the names, so tests and tracers can rebind them on this module.
"""

from __future__ import annotations

from math import gcd

from .scalars import cq_add, cq_conj, cq_div, cq_make, cq_mul, cq_scale_rat, cq_sub

# Denominator bit length past which ldl_hermitian reduces a Schur entry when
# it updates it.  A kernel-only sweep against reducing every update (2 cores,
# Python 3.11.7): never reducing made a dense rank-32 n = 48 PSD matrix 2.1x
# and a 32 x 32 rank-30 one with 2^40-scale entries 3.5x slower; 96 bits
# saved 5-8% on 6-qubit partial transposes and 2 x N subtraction inputs and
# 256 saved 14-20%, staying within noise on the dense matrices; 512 saved
# little more and ran up to 24% slower on 20 x 20 rank-18 big-entry matrices.
_REDUCE_BITS = 256


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
    when elimination leaves a zero block.  The input must be exactly
    Hermitian: the update writes each W_ji as the conjugate of W_ij.

    A pivot's multipliers and Schur update stay inside its connected block
    of the nonzero pattern, so the blocks are eliminated apart.  The matrix
    is split into its blocks first, each row read at most once, and 1x1
    zero blocks, which take no part, are dropped.  One block left runs the
    loop on the input as it stands.  Otherwise the loop runs once per
    distinct block, keyed on its entries in ascending index order, so the
    copies of C in C (x) I, and in its partial transposes, share one run.
    When every block is PSD, their steps are merged in the whole-matrix
    order, the smallest next pivot index first; a block that is not PSD
    sends the whole matrix through the loop.

    The input rows are reduced triples and are not mutated; every returned
    value is reduced.  Schur-complement entries stay unreduced until they
    are read as a value (a pivot, a negative diagonal, an offending
    off-diagonal) or their denominator passes ``_REDUCE_BITS`` bits.  All
    denominators stay positive, so the zero and sign tests read unreduced
    entries exactly.

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
    blocks = _blocks(rows, n)
    if len(blocks) < 2:
        return _ldl_dense(rows, n)
    runs = {}
    parts = []
    for idx in blocks:
        key = tuple(tuple([rows[i][j] for j in idx]) for i in idx)
        run = runs.get(key)
        if run is None:
            run = runs[key] = _ldl_dense(key, len(idx))
            if run["verdict"] != "psd":
                return _ldl_dense(rows, n)
        parts.append((idx, run))
    # One ascending sort of every block's steps by pivot index gives the
    # whole-matrix order, as a block's pivots ascend: an active index below a
    # pivot has a zero Schur diagonal, which later steps can only make
    # negative, so it is never a pivot.
    merged = sorted(
        (idx[q], b, t)
        for b, (idx, rec) in enumerate(parts)
        for t, q in enumerate(rec["order"])
    )
    order = []
    pivots = []
    steps = []
    for p, b, t in merged:
        idx, rec = parts[b]
        order.append(p)
        pivots.append(rec["pivots"][t])
        steps.append((p, [(idx[k], f) for k, f in rec["steps"][t][1]]))
    return _record("psd", order, pivots, steps)


def _blocks(rows, n):
    """The connected blocks of a Hermitian matrix's nonzero pattern, as
    ascending index lists in order of their least index, without the 1x1
    zero blocks.  Each row is read at most once, and only at the indices
    that have no block yet: by symmetry, a finished block has no nonzero
    outside itself."""
    if n and (0, 0, 1) not in rows[0]:
        return [list(range(n))]  # row 0 reaches every index
    blocks = []
    rest = list(range(n))  # indices with no block yet, ascending
    while rest:
        s = rest.pop(0)
        block = [s]
        for i in block:  # grows as the block is found
            if not rest:
                break
            row = rows[i]
            new = [j for j in rest if row[j][0] or row[j][1]]
            if len(new) == len(rest):
                rest = []
            elif new:
                new_set = set(new)
                rest = [j for j in rest if j not in new_set]
            block += new
        d = rows[s][s]
        if len(block) > 1 or d[0] or d[1]:
            block.sort()
            blocks.append(block)
    return blocks


def _record(verdict, order, pivots, steps, witness=None, pair=None, value=None):
    """The record ``ldl_hermitian`` returns."""
    return {
        "verdict": verdict,
        "order": order,
        "pivots": pivots,
        "steps": steps,
        "witness": witness,
        "pair": pair,
        "value": value,
    }


def backapply(steps, u):
    """Map the triple list u, in place, through the congruence of a record's
    steps, w = E_1 ... E_T u, last step first: w_p = u_p - sum_k f_k w_k at
    each step's pivot p, so that l_t* w = u_p."""
    for p, frow in reversed(steps):
        s = (0, 0, 1)
        for k, f in frow:
            uk = u[k]
            if uk[0] != 0 or uk[1] != 0:
                s = cq_add(s, cq_mul(f, uk))
        if s[0] != 0 or s[1] != 0:
            u[p] = cq_sub(u[p], s)
    return u


def _ldl_dense(rows, n):
    """The elimination loop of ``ldl_hermitian`` over the whole matrix."""
    W = [list(r) for r in rows]
    act = list(range(n))  # active indices, ascending
    order = []
    pivots = []
    steps = []

    while True:
        neg = -1
        pos = -1
        for i in act:
            di = W[i][i]
            if di[0] < 0:
                neg = i
                break
            if di[0] > 0 and pos < 0:
                pos = i
        if neg >= 0:
            val = cq_make(*W[neg][neg])
            u = [(0, 0, 1)] * n
            u[neg] = (1, 0, 1)
            w = backapply(steps, u)
            return _record("neg_diag", order, pivots, steps, w, value=(val[0], val[2]))
        if pos < 0:
            # Active diagonal all zero: look for a nonzero off-diagonal.
            for a in range(len(act)):
                for b in range(a + 1, len(act)):
                    i, j = act[a], act[b]
                    c = W[i][j]
                    if c[0] != 0 or c[1] != 0:
                        c = cq_make(*c)
                        u = [(0, 0, 1)] * n
                        u[i] = (1, 0, 1)
                        u[j] = cq_conj((-c[0], -c[1], c[2]))
                        n2 = c[0] * c[0] + c[1] * c[1]
                        w = backapply(steps, u)
                        value = (-2 * n2, c[2] * c[2])
                        return _record("zero_diag", order, pivots, steps, w, (i, j), value)
            return _record("psd", order, pivots, steps)
        p = pos
        act.remove(p)
        d = cq_make(*W[p][p])
        dnum, dden = d[0], d[2]
        Wp = W[p]
        frow = []
        for k in act:
            e = Wp[k]
            if e[0] != 0 or e[1] != 0:
                frow.append((k, cq_scale_rat(e, dden, dnum)))
        # Schur update over the nonzero multipliers only: an entry whose row
        # or column multiplier is zero does not change.  The Schur complement
        # is Hermitian, so each updated entry W_ij - conj(f_i) d f_j is formed
        # for j >= i only, over one common denominator, and its conjugate is
        # written to W_ji.  The entry is reduced only once its denominator
        # passes _REDUCE_BITS; the reads above reduce what leaves the kernel.
        fcols = [(j, W[j], fp, fq, fr) for j, (fp, fq, fr) in frow]
        for a, (i, Wi, ap, aq, ar) in enumerate(fcols):
            # coef_i = conj(f_i) * d
            cp, cq, cr = cq_make(ap * dnum, -aq * dnum, ar * dden)
            for j, Wj, fp, fq, fr in fcols[a:]:
                wp, wq, wr = Wi[j]
                den = cr * fr
                x = wp * den - wr * (cp * fp - cq * fq)
                y = wq * den - wr * (cp * fq + cq * fp)
                z = wr * den
                if z.bit_length() > _REDUCE_BITS:
                    g = gcd(x, y, z)
                    if g > 1:
                        x, y, z = x // g, y // g, z // g
                Wi[j] = (x, y, z)
                Wj[i] = (x, -y, z)
        steps.append((p, frow))
        order.append(p)
        pivots.append((dnum, dden))
