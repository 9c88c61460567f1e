"""Exact arithmetic kernels: sparse integer matrices, Smith normal form,
rational rank, fraction-free integer rank and determinant, and a small
exact-rational simplex solver.

Everything here is exact: integers are Python's arbitrary-precision ints and
rationals are fractions.Fraction.  No floating point: _rational is the one
rationality test, and a float raises ValueError.  Each job has one
implementation here, which geomjoin imports: _scaled scales a row, and
_integer_points a list of points, to integers by the least positive q;
bareiss is the one elimination for rank and determinant, so rank_rational
is bareiss's rank of its rows scaled to integers; and _pivot is the one
fraction-free Gauss-Jordan pivot, which checks that each division is exact
and turns a negative pivot positive.  The simplex solver takes rational
data but pivots fraction-free through _pivot: an integer tableau over one
common denominator, with exact divisions, and the same Bland pivots the
rational tableau would take.  geomjoin's BarycentricFrame factors its
vertex matrix through _pivot too, its pivot columns as the basis.

Smith normal form is one kernel, snf_diagonal, sparse elimination reading
the entries dict {(row, col): value} uncopied; its raw diagonal is tested
against the frozen full-scan kernel in tests/snf_reference.py, value for value.

Pivot rule: the least key (|v|, (rlen - 1) * (clen - 1)), the Markowitz fill
bound from the lengths of the entry's row and column second, to limit
coefficient growth; ties go to the first entry in scan order (rows in the
order they first appear, entries in row dict order).  The search is
incremental: each row caches its first minimal entry as (|v|, fill, row
order, row, col), a pivot is the min over the cache, and after a pivot step
_update_cache rescans only the rows whose entries changed and those whose
cached entry it cannot confirm.

A pivot step clears the pivot column by row operations; a nonzero remainder
becomes the pivot and the step starts over.  Once column pj holds only the
pivot p, col_j -= q * col_pj changes only the pivot row, so that row is
cleared by scalar remainders: a becomes a % p (floor), a zero leaves, a
nonzero one becomes the pivot.  Column sets change only on fill and
cancellation, and keep their history: the order of the pivot column's set
picks the row whose remainder is the next pivot, so a set is only added to
or discarded from, never recreated or reordered.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from numbers import Rational

_INT = frozenset([int])


def _integral(key, value):
    """value as an int; ValueError unless it is an integral rational."""
    if not (isinstance(value, Rational) and value.denominator == 1):
        raise ValueError(f"entry {key} = {value!r} is not an integer")
    return int(value)


def _rational(x, what="coordinate"):
    """x as an int or a Fraction; any value that is not rational, a float
    included, raises ValueError naming it as what."""
    if type(x) in (int, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise ValueError(f"{what} {x!r} is not rational")


def _scaled(row, what="coordinate"):
    """(q, b) with b the integer row q * row, q > 0 the least such; an
    all-int row is copied as it is, with q = 1."""
    if _INT.issuperset(map(type, row)):
        return 1, list(row)
    row = [_rational(x, what) for x in row]
    q = lcm(*[x.denominator for x in row])
    return q, [x.numerator * (q // x.denominator) for x in row]


def _integer_points(points, what="coordinate"):
    """(q, points scaled by q), q > 0 the least common scale making every
    coordinate an integer; all-int points are returned as they are, q = 1."""
    if _INT.issuperset(map(type, chain.from_iterable(points))):
        return 1, points
    points = [[_rational(x, what) for x in p] for p in points]
    q = lcm(*[x.denominator for p in points for x in p])
    return q, [[x.numerator * (q // x.denominator) for x in p] for p in points]


class SparseIntMatrix:
    """Sparse matrix over Z, stored as {(row, col): nonzero int}.

    An integral rational of another type, such as Fraction(3) or True, is
    stored as its int; any other value, the float 3.0 included, raises
    ValueError, as does a dimension or an index that is not an int (bools too).
    """

    def __init__(self, rows, cols, entries=None):
        if rows.__class__ is not int or cols.__class__ is not int:
            raise ValueError(f"matrix dimensions {rows!r}x{cols!r} are not both ints")
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for key in entries:
                i, j = key
                if i.__class__ is not int or j.__class__ is not int:
                    raise ValueError(f"entry {key} has an index that is not an int")
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError(f"entry {key} outside {rows}x{cols} matrix")
            # a zero of another type is checked before it is dropped
            self.entries = {
                key: v if v.__class__ is int else _integral(key, v)
                for key, v in entries.items()
                if v or v.__class__ is not int and _integral(key, v)
            }

    def __getitem__(self, key):
        return self.entries.get(key, 0)

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"

    def to_dense(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            out[i][j] = v
        return out


class InvariantError(ValueError):
    """An internal invariant failed: a fault in the program, not in its input."""


class _Frozen:
    """A value whose fields, _key(), are set once by __init__ through
    object.__setattr__: assigning or deleting an attribute raises
    AttributeError, and equality and hashing are the fields'.  A
    cached_property still works, as it writes the instance's __dict__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class SmithForm(_Frozen):
    """Invariant factors d_1 | d_2 | ... | d_r of an integer matrix."""

    def __init__(self, factors, rank):
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise InvariantError("invariant factors violate the divisibility chain")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "rank", rank)

    def _key(self):
        return self.factors, self.rank

    @property
    def torsion(self):
        """Factors exceeding 1, i.e. the part contributing torsion."""
        return tuple(d for d in self.factors if d > 1)


def smith_normal_form(M: SparseIntMatrix) -> SmithForm:
    """Smith normal form via sparse elementary row/column elimination."""
    diagonal = snf_diagonal(M.entries)
    factors = _fix_divisibility(diagonal)
    return SmithForm(tuple(factors), len(factors))


def snf_diagonal(entries):
    """Diagonalize an integer matrix by elementary row/column operations,
    with the module docstring's pivot rule and search.

    Returns the list of nonzero diagonal values (absolute values, in pivot
    order, divisibility NOT yet enforced)."""
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


def _fix_divisibility(diagonal):
    """Turn a diagonal of an equivalent diagonal matrix into invariant factors.

    Units divide everything, so only the entries above 1 go through one
    sweep of the pairs i < j, in order, each replaced by (gcd, lcm).  After
    row i, d_i divides every later entry, and replacing two multiples of d_i
    by their gcd and lcm keeps both multiples of d_i: the sweep ends in a
    divisibility chain, increasing, after the units.
    """
    d = [abs(x) for x in diagonal if x]
    units = d.count(1)
    d = [x for x in d if x != 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                g = gcd(d[i], d[j])
                d[i], d[j] = g, d[i] * d[j] // g
    return [1] * units + d


def rank_rational(M) -> int:
    """Rank over Q: the Bareiss rank of the rows, each scaled to integers.

    Accepts a SparseIntMatrix or a dense list of rows of rationals; an entry
    that is not rational, a float included, raises ValueError.
    """
    if isinstance(M, SparseIntMatrix):
        return bareiss(M.to_dense())[0]
    return bareiss([_scaled(row, "entry")[1] for row in M])[0]


def bareiss(rows):
    """(rank, det) of an integer matrix by fraction-free elimination
    (Bareiss 1968).

    Each step turns every row below the pivot p into (p row - f pivot_row)
    // prev, with f the row's entry in the pivot column and prev the pivot
    before p.  By Sylvester's identity each entry is then a minor of the
    input, so the division is exact and no entry outgrows those minors.
    Columns without a pivot are skipped.  det is the determinant of a square
    matrix, and 0 for a singular or non-square one.
    """
    A = list(rows)  # rows are replaced, never written to
    m = len(A)
    ncols = len(A[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    for c in range(ncols):
        for pr in range(rank, m):
            if A[pr][c]:
                break
        else:
            continue
        if pr != rank:
            A[rank], A[pr] = A[pr], A[rank]
            sign = -sign
        prow = A[rank]
        p = prow[c]
        for i in range(rank + 1, m):
            f = A[i][c]
            if f:
                A[i] = [(p * x - f * y) // prev for x, y in zip(A[i], prow)]
            elif p != prev:
                A[i] = [p * x // prev for x in A[i]]
        prev = p
        rank += 1
        if rank == m:
            break
    return rank, sign * prev if rank == m == ncols else 0


# ---------------------------------------------------------------------------
# Exact rational linear programming (two-phase simplex, Bland's rule)
# ---------------------------------------------------------------------------


class RationalLP:
    """max objective . x  subject to  a_eq x = b_eq, a_ub x <= b_ub, x >= 0.

    All data rational (lp_max refuses a float); upper bounds on variables go
    in as a_ub rows, and an omitted constraint list is a new empty one.
    """

    def __init__(self, objective, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
        self.objective = objective
        self.a_eq = [] if a_eq is None else a_eq
        self.b_eq = [] if b_eq is None else b_eq
        self.a_ub = [] if a_ub is None else a_ub
        self.b_ub = [] if b_ub is None else b_ub
        n = len(self.objective)
        if len(self.a_eq) != len(self.b_eq) or len(self.a_ub) != len(self.b_ub):
            raise ValueError("constraint row/rhs count mismatch")
        for row in list(self.a_eq) + list(self.a_ub):
            if len(row) != n:
                raise ValueError("constraint row length != number of variables")


class LPResult(_Frozen):
    """status "optimal" | "infeasible" | "unbounded"; the optimum's value
    (a Fraction) and point (a tuple) when optimal, else None."""

    def __init__(self, status, value=None, point=None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "point", point)

    def _key(self):
        return self.status, self.value, self.point

    def __repr__(self):
        return f"LPResult(status={self.status!r}, value={self.value!r}, point={self.point!r})"


def lp_max(P: RationalLP) -> LPResult:
    """Exact two-phase simplex.  Bland's rule, so termination is guaranteed.

    The tableau is fraction-free (Edmonds 1967, Bareiss 1968): integer
    entries over one positive common denominator d, pivoted by _pivot.
    _integer_points scales the data by L, the lcm of every denominator in
    it, and the artificial identity is left unscaled.  That rescales
    columns (and the artificial variables) by positive constants only, so
    every reduced-cost sign and every ratio comparison, hence every Bland
    choice, is the one the rational tableau makes, and the result is the
    same status, value and point.
    """
    n = len(P.objective)
    nslack = len(P.a_ub)
    L, (cost, b_eq, b_ub, *data) = _integer_points(
        [P.objective, P.b_eq, P.b_ub, *P.a_eq, *P.a_ub], "LP data"
    )
    # standard form: [x, slacks] >= 0, equality rows only
    rows = [list(row) + [0] * nslack for row in data]
    for k in range(nslack):
        rows[len(b_eq) + k][n + k] = L
    rhs = list(b_eq) + list(b_ub)
    m = len(rows)
    total = n + nslack
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial basis, minimize sum of artificials
    tableau = [rows[i] + [0] * m + [rhs[i]] for i in range(m)]
    for i in range(m):
        tableau[i][total + i] = 1
    basis = [total + i for i in range(m)]
    cost1 = [0] * total + [-1] * m
    status, d = _simplex(tableau, basis, 1, cost1, total + m)
    if status != "optimal":  # phase 1 is bounded below by 0
        raise RuntimeError(f"simplex phase 1 ended {status!r}, expected 'optimal'")
    if sum(tableau[i][-1] for i in range(m) if basis[i] >= total) != 0:
        return LPResult("infeasible")
    d = _drive_out_artificials(tableau, basis, total, d)
    # drop artificial columns and any redundant rows still basic in one
    keep = [i for i in range(m) if basis[i] < total]
    tableau = [tableau[i][:total] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2
    cost2 = list(cost) + [0] * nslack
    status, d = _simplex(tableau, basis, d, cost2, total)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * total
    for i, b in enumerate(basis):
        x[b] = Fraction(tableau[i][-1], d)
    value = Fraction(sum(c * v for c, v in zip(cost2, x)), L)
    return LPResult("optimal", value, tuple(x[:n]))


def _simplex(tableau, basis, d, cost, ncols):
    """Maximize cost.x in place on the integer tableau over denominator d.

    Returns (status, d) with status "optimal" or "unbounded".  The reduced
    cost of column j is (cost_j d - sum_i cost_{basis i} tableau[i][j]) / d,
    so its sign is that of the integer numerator; ratios are compared by
    cross-multiplication.
    """
    while True:
        y = [(row, cost[b]) for row, b in zip(tableau, basis) if cost[b]]
        in_basis = set(basis)
        entering = next(
            (
                j for j in range(ncols)
                if j not in in_basis and cost[j] * d - sum(c * row[j] for row, c in y) > 0
            ),
            None,
        )  # Bland: first improving index
        if entering is None:
            return "optimal", d
        leaving = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                best = tableau[leaving]
                lhs = row[-1] * best[entering]
                rhs = best[-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            return "unbounded", d
        d = _pivot(tableau, basis, d, leaving, entering)


def _pivot(tableau, basis, d, r, c):
    """Pivot the tableau tableau / d on entry (r, c), set basis[r] = c and
    return the new denominator |tableau[r][c]|.

    A negative pivot negates its row first (in the LP only driving out
    artificials meets one; in a BarycentricFrame any vertex order can), so
    the denominator stays positive.  Every other row becomes
    (p row - row[c] pivot_row) // d, an exact division by Sylvester's
    identity.  Floor remainders by d > 0 lie in [0, d), so the divisions of
    a row are all exact iff d times the sum of its quotients is the sum of
    its dividends, p sum(row) - row[c] sum(pivot_row); a remainder means a
    broken tableau and raises RuntimeError.
    """
    p = tableau[r][c]
    if p < 0:
        p = -p
        tableau[r] = [-x for x in tableau[r]]
    prow = tableau[r]
    psum = sum(prow)
    for i, row in enumerate(tableau):
        if i == r:
            continue
        f = row[c]
        if f:
            new = [(p * x - f * y) // d for x, y in zip(row, prow)]
            total = p * sum(row) - f * psum
        elif p != d:
            new = [p * x // d for x in row]
            total = p * sum(row)
        else:
            continue
        if d * sum(new) != total:
            raise RuntimeError(f"fraction-free pivot: row {i} not divisible by {d}")
        tableau[i] = new
    basis[r] = c
    return p


def _drive_out_artificials(tableau, basis, total, d):
    for i in range(len(basis)):
        if basis[i] >= total:
            j = next((j for j in range(total) if tableau[i][j]), None)
            if j is not None:
                d = _pivot(tableau, basis, d, i, j)
            # else: redundant row, keep the artificial at value 0
    return d
