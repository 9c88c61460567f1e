"""Chain complexes of free abelian groups and homology via Smith normal form.

Degrees may start at -1: the augmented simplicial chain complex keeps the
empty face as a single degree -1 generator, so all homology here is reduced
homology, including the convention H~_{-1}(empty space) = Z.

A ChainComplex stores each boundary d_n as its columns, a (row, coeff) list
per n-cell, and their transpose as coface lists, the n-cells meeting each
(n-1)-cell.  Every ChainComplex is checked when it is built, by one walk per
degree that checks the columns, records the coface lists and pushes each
column of d_n through d_{n-1} for d o d = 0.  A column whose coefficients
are all +-1, on rows whose own columns are too, is pushed through as two
lists, the rows of C_{n-2} hit with +1 and those hit with -1; every term is
+-1, so the sum vanishes exactly when the two lists, sorted, are equal.
Any other column is summed in exact integers.  The reduction below reads
columns and coface lists as they are, and SparseIntMatrix is built only for
Smith normal form and boundary(n).

Every complex the library builds, C(K), the direct smash model and C(K(J)),
comes from one assembler, _assemble(levels, odd, shift): the faces of a
simplicial complex as vertex bitmasks in lexicographic order (the one face
enumeration, complexes.face_levels), the mask of the vertices whose sign is
negated and a degree shift.

homology() first deletes coreduction pairs (Kaczynski-Mrozek-Slusarek
1998; Mrozek-Batko 2009): cells a in C_{n-1} and b in C_n with
<db, a> = +-1, where a is the only remaining boundary cell of b.
Deleting such a pair is a chain homotopy equivalence over Z.  The general
reduction replaces dc by dc - (<dc, a> / <db, a>) db for every other n-cell
c; here that correction is zero, because db has no remaining term besides
a.  So no remaining matrix entry changes: rows and columns are only
dropped, and Smith normal form runs on the boundary matrices of the cells
that survive, in the degrees where any entry does.

Coreductions start at the bottom: in an augmented complex a vertex pairs
with the empty face, and each deletion can leave a cell above it with one
remaining boundary cell, so the deletions sweep upwards.  A complex with no
degree -1 cell, such as C(K) with the empty face dropped, starts with no
coreduction, so all of its cells reach Smith normal form: the answer is
the same, only slower.  The library builds no such complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .complexes import face_levels
from .exactlin import InvariantError, SparseIntMatrix, smith_normal_form


class MalformedComplexError(ValueError):
    """Raised when boundary matrices fail d o d = 0 or have bad shapes."""


class ChainComplex:
    """Graded free abelian groups with integer boundary maps.

    bases: {degree: [label, ...]}
    columns: {degree n: per cell of C_n, its boundary [(row, coeff), ...] on
    distinct rows of C_{n-1} with nonzero int coefficients}; kept, not copied.
    cofaces: {degree n: per cell of C_n, the cells of C_{n+1} whose boundary
    has a term on it, in increasing order}, the transpose of the columns.

    The constructor runs check_dd_zero(): a malformed column or d o d != 0
    raises MalformedComplexError, and no complex is built.
    """

    def __init__(self, bases, columns):
        self.bases = {n: list(labels) for n, labels in bases.items() if labels}
        self.columns = columns
        self.check_dd_zero()

    def degrees(self):
        return sorted(self.bases)

    def rank(self, n):
        return len(self.bases.get(n, ()))

    def boundary(self, n):
        """d_n as a SparseIntMatrix, built from its columns on each call."""
        entries = {(i, j): v for j, col in enumerate(self.columns.get(n, ())) for i, v in col}
        return SparseIntMatrix(self.rank(n - 1), self.rank(n), entries)

    @property
    def boundaries(self):
        """{degree n: d_n as a SparseIntMatrix}, built on each access."""
        return {n: self.boundary(n) for n in self.columns}

    def check_dd_zero(self):
        """One walk per degree, ascending, checks the column count and each
        column (rows inside C_{n-1}, none repeated, nonzero int coefficients),
        appends it to the coface list of each of its rows and pushes it
        through the columns of d_{n-1} it meets, where d o d = 0 needs the sum
        to vanish.  Columns and cofaces are replaced once every degree passed.

        A column whose coefficients are all +-1, on rows whose own columns
        are too, is pushed through without arithmetic.  For each row i, the
        rows of C_{n-2} that d_{n-1} i hits with +1 go to one list and those
        it hits with -1 to the other, the two swapped when i's coefficient is
        -1.  Every term of the sum is then +1 or -1, one list entry each, so
        the sum at a row of C_{n-2} is its count in the first list less its
        count in the second: the sum vanishes exactly when the two lists,
        sorted, are equal.  Any other column is summed term by term in exact
        integers.  Each cell's +1 and -1 rows are kept one degree, for the
        walk of the degree above."""
        columns = {}
        cofaces = {n: [[] for _ in labels] for n, labels in self.bases.items()}
        walked = None  # (n, plus, minus, other) of the last degree n walked
        for n in sorted(self.columns):
            cols = self.columns[n]
            if len(cols) != self.rank(n):
                raise MalformedComplexError(
                    f"boundary in degree {n} has {len(cols)} columns for {self.rank(n)} cells"
                )
            rows, up = self.rank(n - 1), cofaces.get(n - 1)
            # per cell of C_{n-1}: the rows of C_{n-2} its column hits with +1
            # and with -1, both () for a cell in other, whose column has
            # another coefficient, and for every cell when d_{n-1} is zero
            if walked and walked[0] == n - 1:
                _, plus, minus, other = walked
            else:
                plus = minus = [()] * rows
                other = set()
            plus_up, minus_up, other_up = [], [], set()  # per cell of C_n
            # d_{n-1} of a column summed exactly, by rows of C_{n-2}; it is
            # zero again after every column that passes
            outer, image = columns.get(n - 1) or [()] * rows, [0] * self.rank(n - 2)
            for c, col in enumerate(cols):
                hit, missed, p, q = [], [], [], []
                for i, v in col:
                    if (i.__class__ is not int or v.__class__ is not int
                            or not 0 <= i < rows or not v):
                        raise _bad_column(n, i, v)
                    row_up = up[i]
                    if row_up and row_up[-1] == c:
                        raise _bad_column(n, i, v)
                    row_up.append(c)
                    if v == 1:
                        p.append(i)
                        hit += plus[i]
                        missed += minus[i]
                    elif v == -1:
                        q.append(i)
                        hit += minus[i]
                        missed += plus[i]
                if len(p) + len(q) == len(col):
                    plus_up.append(tuple(p))
                    minus_up.append(tuple(q))
                    if not other or other.isdisjoint(p + q):
                        hit.sort()
                        missed.sort()
                        if hit != missed:
                            raise MalformedComplexError(f"d_{n - 1} o d_{n} != 0")
                        continue
                else:
                    plus_up.append(())
                    minus_up.append(())
                    other_up.add(c)
                for i, v in col:
                    for r, w in outer[i]:
                        image[r] += v * w
                for i, _ in col:
                    for r, _ in outer[i]:
                        if image[r]:
                            raise MalformedComplexError(f"d_{n - 1} o d_{n} != 0")
            if rows and cols:
                columns[n] = cols
            walked = n, plus_up, minus_up, other_up
        self.columns, self.cofaces = columns, cofaces

    def euler(self):
        """sum_n (-1)^n rank C_n, an int in every degree, -1 included."""
        return sum(-self.rank(n) if n % 2 else self.rank(n) for n in self.degrees())


def _bad_column(n, i, v):
    if i.__class__ is not int:
        return MalformedComplexError(
            f"boundary column in degree {n} has a row {i!r} that is not an int"
        )
    if v.__class__ is not int:
        return MalformedComplexError(
            f"boundary column in degree {n} has a coefficient {v!r} that is not an int"
        )
    return MalformedComplexError(
        f"boundary column in degree {n} has a zero coefficient, "
        f"a repeated row or a row outside C_{n - 1}"
    )


@dataclass(frozen=True)
class HomologyGroup:
    """Z^betti + Z/t_1 + ... with t_1 | t_2 | ... (invariant factors > 1)."""

    betti: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise InvariantError("torsion coefficients violate divisibility")

    def is_zero(self):
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = ["Z"] * self.betti + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


class HomologyTable(dict):
    """{degree: HomologyGroup}, zero groups omitted."""

    def __init__(self, groups=()):
        super().__init__()
        for n, g in dict(groups).items():
            if not g.is_zero():
                self[n] = g

    def shifted(self, s):
        return HomologyTable({n + s: g for n, g in self.items()})

    def __str__(self):
        if not self:
            return "all reduced homology zero"
        return "; ".join(f"H~{n} = {self[n]}" for n in sorted(self))


def homology(C: ChainComplex) -> HomologyTable:
    """Reduced homology of a chain complex, degree by degree.

    Coreduction pairs are deleted first (see the module docstring).  The
    surviving cells span a chain complex homotopy equivalent to C whose
    boundary entries are those of C, so Smith normal form runs on the
    surviving rows and columns only, in the degrees where they meet in an
    entry, and the Betti numbers come from the surviving ranks.
    """
    alive, down = _delete_unit_pairs(C)
    survivors = {n: list(compress(range(C.rank(n)), alive[n])) for n in C.degrees()}
    rank, torsion = {}, {}
    for n, cols in survivors.items():
        rows = {k: r for r, k in enumerate(survivors.get(n - 1, ()))}
        entries = {
            (rows[i], c): v for c, k in enumerate(cols) for i, v in down[n][k] if i in rows
        }
        if entries:  # no entries: rank 0 and no torsion, without SNF
            snf = smith_normal_form(SparseIntMatrix(len(rows), len(cols), entries))
            rank[n], torsion[n] = snf.rank, snf.torsion
    return HomologyTable({
        n: HomologyGroup(len(cols) - rank.get(n, 0) - rank.get(n + 1, 0),
                         torsion.get(n + 1, ()))
        for n, cols in survivors.items()
    })


def _delete_unit_pairs(C: ChainComplex):
    """Delete coreduction pairs until none is left: b in C_n pairs with a
    when a is b's only live boundary cell and <db, a> = +-1.

    Returns ({n: bytearray alive flag per cell of C_n}, {n: the columns of
    d_n, one (row, coeff) list per cell of C_n}).  The columns and coface
    lists are C's own, read as each cell's boundary cells with their
    coefficients and its cofaces; only the live boundary counts and the
    flags are built here.
    """
    size = {n: C.rank(n) for n in C.degrees()}
    down = {n: C.columns.get(n) or [()] * s for n, s in size.items()}
    up = C.cofaces
    ndown = {n: list(map(len, lists)) for n, lists in down.items()}  # live boundary cells
    alive = {n: bytearray([1]) * s for n, s in size.items()}

    stack = [(n, b) for n, counts in ndown.items() for b, c in enumerate(counts) if c == 1]
    while stack:
        n, b = stack.pop()
        if not alive[n][b] or ndown[n][b] != 1:
            continue
        live = alive[n - 1]
        for a, v in down[n][b]:
            if live[a]:
                break
        if v != 1 and v != -1:
            continue
        live[a] = alive[n][b] = 0
        for m, cell in ((n - 1, a), (n, b)):
            cofaces = up[m][cell]
            if cofaces:
                live, count = alive[m + 1], ndown[m + 1]
                for c in cofaces:
                    if live[c]:
                        count[c] -= 1
                        if count[c] == 1:
                            stack.append((m + 1, c))
    return alive, down


def _assemble(levels, odd, shift):
    """The chain complex on the face masks of levels (face_levels(K)), each
    in degree n + shift: the one place the library builds a ChainComplex.
    Dropping vertex i from a face, at position pos among its vertices in
    increasing order, has the sign (-1)^pos, negated when i's bit is in the
    mask odd: a running sign, toggled at each vertex of the face, times
    vertex i's own.  odd = 0 is the simplicial boundary; the direct model
    puts i in odd when j_1 + ... + j_{i-1} is odd, the Leibniz sign of a top
    cell's boundary in factor i behind slots of that total dimension.  Only
    the vertices of level 0, those in a face, get a bit, in increasing order,
    so nothing here grows with the m of the masks.
    """
    bits = [(bit, -1 if odd & bit else 1) for bit in levels.get(0, ())]
    bases, columns = {}, {}
    for n, level in levels.items():
        bases[n + shift] = level
        if n < 0:
            continue
        below = {f: i for i, f in enumerate(levels[n - 1])}
        cols = columns[n + shift] = []
        for f in level:
            col, sign = [], 1
            for bit, s in bits:
                if f & bit:
                    col.append((below[f ^ bit], sign * s))
                    sign = -sign
            cols.append(col)
    return ChainComplex(bases, columns)


def simplicial_chain_complex(K) -> ChainComplex:
    """Augmented chain complex of a SimplicialComplex on face_levels(K).  The
    boundary drops a face's vertices in increasing order, its bits from the
    highest down, with alternating signs."""
    return _assemble(face_levels(K), 0, 0)
