"""Smith normal form kernel: sparse elimination over arbitrary-precision
integers, called by polysmash.exactlin.smith_normal_form.

The matrix is handed over as a dict {(row, col): value} with no zero values;
the kernel only reads it.

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

A pivot step clears the pivot column by row operations; a nonzero remainder
becomes the pivot and the step starts over.  Once column pj holds only the
pivot p, col_j -= q * col_pj changes only the pivot row, so that row is
cleared by scalar remainders: a becomes a % p (floor, a - (a // p) * p), a
zero leaves, a nonzero one becomes the pivot.  The column sets of rows change
only on fill and cancellation, and the history of each set must stay so: the
order of the pivot column's set picks the row whose remainder is the next
pivot.  Adding a present element leaves a set as it was; recreating or
reordering one would not.
"""


def snf_diagonal(entries):
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
            prow = rows[pi]
            for j in prow:
                if j not in before:
                    before[j] = len(colrows[j])
            p = prow[pj]
            # clear the pivot column by row operations
            for i in list(colrows[pj]):
                if i == pi:
                    continue
                row = rows[i]
                q = row[pj] // p
                if q:
                    _row_axpy(row, prow, colrows, i, -q)
                    dirty.add(i)
                if pj in row:
                    # remainder left: it is smaller than |p|, make it the pivot
                    pi = i
                    break
            else:
                # column pj holds only the pivot, so col_j -= q * col_pj
                # changes only the pivot row: its entry becomes the remainder
                for j in list(prow):
                    if j == pj:
                        continue
                    q, r = divmod(prow[j], p)
                    if q:
                        dirty.add(pi)
                    if r:
                        prow[j] = r
                        pj = j
                        break
                    del prow[j]
                    col = colrows[j]
                    col.discard(pi)
                    if not col:
                        del colrows[j]
                else:
                    break
        # the pivot is now alone in its row and column
        diagonal.append(abs(prow.pop(pj)))
        del colrows[pj]
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

    Rows in `dirty` are rescanned, or dropped once empty.  Every other row
    keeps its length, so of its entries only those in a column whose length
    changed have a new key; the others keep keys no smaller than the cached
    one, and any equal one comes after the cached entry.  A new key below
    the running minimum replaces the cached entry; a tie, or the cached
    entry's own key going up, leaves the order undecided and the row is
    rescanned.
    """
    for j, n in before.items():
        col = colrows.get(j)
        if col is None or len(col) == n:
            continue
        cm = len(col) - 1
        for r in col - dirty:
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
        row = rows[r]
        if row:
            a, f, j = _row_min(row, colrows)
            cache[r] = (a, f, cache[r][2], r, j)
        else:
            del rows[r], cache[r]


def _row_axpy(target, source, colrows, i, c):
    """Row i (target) += c * source, c nonzero.  Every column of source holds
    the pivot row, so its set exists and never empties; it changes only on
    fill and cancellation."""
    for j, v in source.items():
        w = target.get(j)
        if w is None:
            target[j] = c * v
            colrows[j].add(i)
        else:
            w += c * v
            if w:
                target[j] = w
            else:
                del target[j]
                colrows[j].discard(i)
