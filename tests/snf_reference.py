"""Reference versions of the SNF helpers, kept to test the library against.

full_scan_snf_diagonal is the kernel before its pivot search became
incremental: it rescans every nonzero for each pivot.  The library kernel
must pick the same pivots, so its raw diagonal must equal this one value
for value.  fix_divisibility_reference runs the pairwise gcd loop over every
diagonal entry, units included.

The reference is frozen: it imports nothing from polysmash.  Its
elimination primitives _row_axpy, _col_axpy and _drop_entry are the
library's own from before the pivot row was cleared by scalar remainders,
so a fault in the library's primitives cannot also sit in the reference.
"""

from math import gcd


def full_scan_snf_diagonal(entries, nrows, ncols):
    rows = {}
    colrows = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            colrows.setdefault(j, set()).add(i)

    diagonal = []
    while rows:
        best = None
        best_key = None
        for i, row in rows.items():
            rlen = len(row)
            for j, v in row.items():
                key = (abs(v), (rlen - 1) * (len(colrows[j]) - 1))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
                    if key[0] == 1 and key[1] == 0:
                        break
            else:
                continue
            break
        pi, pj = best

        while True:
            p = rows[pi][pj]
            for i in list(colrows[pj]):
                if i == pi:
                    continue
                a = rows[i][pj]
                q = a // p
                if q:
                    _row_axpy(rows, colrows, i, pi, -q)
                if rows.get(i, {}).get(pj):
                    pi = i
                    break
            else:
                prow = rows[pi]
                for j in list(prow):
                    if j == pj:
                        continue
                    a = prow[j]
                    q = a // p
                    if q:
                        _col_axpy(rows, colrows, j, pj, -q)
                    if rows.get(pi, {}).get(j):
                        pj = j
                        break
                else:
                    break
                continue
        diagonal.append(abs(rows[pi][pj]))
        _drop_entry(rows, colrows, pi, pj)
        if pi in rows and not rows[pi]:
            del rows[pi]
    return diagonal


def fix_divisibility_reference(diagonal):
    d = [abs(x) for x in diagonal if x]
    changed = True
    while changed:
        changed = False
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                if d[j] % d[i]:
                    g = gcd(d[i], d[j])
                    d[i], d[j] = g, d[i] * d[j] // g
                    changed = True
    d.sort()
    return d


def _row_axpy(rows, colrows, i, k, c):
    """row_i += c * row_k (c nonzero)."""
    target = rows.setdefault(i, {})
    for j, v in rows[k].items():
        w = target.get(j, 0) + c * v
        if w:
            target[j] = w
            colrows.setdefault(j, set()).add(i)
        elif j in target:
            del target[j]
            colrows[j].discard(i)
            if not colrows[j]:
                del colrows[j]
    if not target:
        del rows[i]


def _col_axpy(rows, colrows, j, k, c):
    """col_j += c * col_k (c nonzero)."""
    for i in list(colrows.get(k, ())):
        v = rows[i][k]
        w = rows[i].get(j, 0) + c * v
        if w:
            rows[i][j] = w
            colrows.setdefault(j, set()).add(i)
        elif j in rows[i]:
            del rows[i][j]
            if not rows[i]:
                del rows[i]
            colrows[j].discard(i)
            if not colrows[j]:
                del colrows[j]


def _drop_entry(rows, colrows, i, j):
    del rows[i][j]
    colrows[j].discard(i)
    if not colrows[j]:
        del colrows[j]
