"""Reference versions of the SNF helpers, kept to test the library against.

full_scan_snf_diagonal is the kernel before its pivot search became
incremental: it rescans every nonzero for each pivot.  The library kernel
must pick the same pivots, so its raw diagonal must equal this one value
for value.  fix_divisibility_reference runs the pairwise gcd loop over every
diagonal entry, units included.
"""

from math import gcd

from polysmash._snf_py import _col_axpy, _drop_entry, _row_axpy


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
