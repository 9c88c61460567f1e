"""Smith normal form kernel: sparse elimination over arbitrary-precision
integers, called by polysmash.exactlin.smith_normal_form.

The matrix is handed over as a dict {(row, col): value} with no zero values.

Pivot rule: the entry with the least key (|v|, (rlen - 1) * (clen - 1)), the
second term being the Markowitz fill bound from the lengths of the entry's row
and column; ties go to the first entry in scan order (rows in the order they
first appear in the input, entries in row dict order).

The search is incremental.  Each row caches its first minimal entry as
(|v|, fill, row order, row, col), so a pivot is the min over the cache.  After
a pivot step only the rows whose entries changed are rescanned.  A row that
merely shares a column whose length changed has that entry's key recomputed
against its cached one; it is rescanned only when its cached entry's key went
up or when the new key ties the cached one, because then entry order decides.
"""


def snf_diagonal(entries, nrows, ncols):
    """Diagonalize an integer matrix by elementary row/column operations.

    Returns the list of nonzero diagonal values (absolute values, in pivot
    order, divisibility NOT yet enforced).  Pivot choice: smallest absolute
    value, ties broken by Markowitz fill count, to limit coefficient growth;
    see the module docstring for how the search is kept up to date.
    """
    # row -> {col: val}, col -> set of rows
    rows = {}
    colrows = {}
    for (i, j), v in entries.items():
        if v:
            rows.setdefault(i, {})[j] = v
            colrows.setdefault(j, set()).add(i)
    # row -> (|v|, fill, row order, row, col) of its first minimal entry
    cache = {}
    for n, (i, row) in enumerate(rows.items()):
        a, f, j = _row_min(row, colrows)
        cache[i] = (a, f, n, i, j)

    diagonal = []
    while rows:
        _, _, _, pi, pj = min(cache.values())
        before = {}  # col -> its length before this pivot step
        dirty = set()  # rows whose entries changed

        while True:
            for j in rows[pi]:
                if j not in before:
                    before[j] = len(colrows[j])
            p = rows[pi][pj]
            # clear the pivot column by row operations
            for i in list(colrows[pj]):
                if i == pi:
                    continue
                a = rows[i][pj]
                q = a // p
                if q:
                    _row_axpy(rows, colrows, i, pi, -q)
                    dirty.add(i)
                if rows.get(i, {}).get(pj):
                    # remainder left: it is smaller than |p|, make it the pivot
                    pi = i
                    break
            else:
                # column clear; clear the pivot row by column operations
                prow = rows[pi]
                for j in list(prow):
                    if j == pj:
                        continue
                    a = prow[j]
                    q = a // p
                    if q:
                        _col_axpy(rows, colrows, j, pj, -q)
                        dirty.add(pi)
                    if rows.get(pi, {}).get(j):
                        pj = j
                        break
                else:
                    break
                continue
        diagonal.append(abs(rows[pi][pj]))
        _drop_entry(rows, colrows, pi, pj)
        # pivot row/col are now empty except the removed pivot
        if pi in rows and not rows[pi]:
            del rows[pi]
        dirty.add(pi)
        _update_cache(rows, colrows, cache, before, dirty)
    return diagonal


def _row_min(row, colrows):
    """(|v|, fill, col) of the row's first entry with the least key."""
    rl = len(row) - 1
    bj = None
    for j, v in row.items():
        a = v if v > 0 else -v
        f = rl * (len(colrows[j]) - 1)
        if bj is None or a < ba or (a == ba and f < bf):
            ba, bf, bj = a, f, j
            if a == 1 and f == 0:
                break
    return ba, bf, bj


def _update_cache(rows, colrows, cache, before, dirty):
    """Bring the row cache up to date after a pivot step.

    Rows in `dirty` are rescanned.  Every other row keeps its length, so of
    its entries only those in a column whose length changed have a new key;
    the others keep keys no smaller than the cached one, and any equal one
    comes after the cached entry.  A new key below the running minimum
    replaces the cached entry; a tie, or the cached entry's own key going
    up, leaves the order undecided and the row is rescanned.
    """
    for j, n in before.items():
        col = colrows.get(j)
        if col is None or len(col) == n:
            continue
        cm = len(col) - 1
        for r in col:
            if r in dirty:
                continue
            row = rows[r]
            v = row[j]
            a = v if v > 0 else -v
            f = (len(row) - 1) * cm
            ca, cf, o, _, cj = cache[r]
            if a < ca or (a == ca and f < cf):
                cache[r] = (a, f, o, r, j)
            elif a == ca and f == cf:
                if cj != j:
                    dirty.add(r)
            elif cj == j:
                dirty.add(r)
    for r in dirty:
        row = rows.get(r)
        if row is None:
            cache.pop(r, None)
        else:
            a, f, j = _row_min(row, colrows)
            cache[r] = (a, f, cache[r][2], r, j)


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
