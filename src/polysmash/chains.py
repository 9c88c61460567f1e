"""Chain complexes of free abelian groups and homology via Smith normal form.

Degrees may start at -1: the augmented simplicial chain complex keeps the
empty face as a single degree -1 generator, so all homology here is reduced
homology, including the convention H~_{-1}(empty space) = Z.

A ChainComplex stores each boundary d_n as its columns, a (row, coeff) list
per n-cell, and their transpose as coface lists, the n-cells meeting each
(n-1)-cell.  Every ChainComplex is checked when it is built, by one walk per
degree that checks the columns, records the coface lists and checks d o d =
0 on each column.  A column of the oriented simplicial boundary on distinct
bitmask labels passes by the identity dd = 0 (Munkres, Elements of Algebraic
Topology, Lemma 5.3), in one step per entry; any other column is pushed
through d_{n-1} and summed in exact integers.  The reduction below reads
columns and coface lists as they are, and SparseIntMatrix is built only for
Smith normal form and boundary(n).

Every complex the library builds, C(K), the direct smash model and C(K(J)),
comes from one assembler, _assemble(levels, odd, shift): the faces of a
simplicial complex as vertex bitmasks in lexicographic order (the one face
enumeration, complexes.face_levels), the mask of the vertices whose sign is
negated and a degree shift.  Its columns share their entries: each row's
(i, 1) and (i, -1) are written once per degree.

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

from itertools import chain, compress, repeat

from .complexes import face_levels
from .exactlin import InvariantError, SparseIntMatrix, _Frozen, smith_normal_form


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
        appends it to the coface list of each of its rows and checks d o d =
        0 on it.  Columns and cofaces are replaced once every degree passed.

        A column passes by the boundary identity (Munkres, Elements of
        Algebraic Topology, Lemma 5.3) when the labels are distinct ints >= 0
        across the whole complex (checked once), the cell labelled f has the
        rows labelled f ^ b over the bits b of f, highest first, with the
        coefficients (-1)^position s_b, s_b one sign per bit for the whole
        complex, read from the first column that meets b, and every row's own
        column has that form too.  Proof: d d f sums the paths f -> f ^ b ->
        f ^ b ^ b' over ordered pairs of distinct bits of f; for b > b', b'
        sits one place earlier in f ^ b than in f, and b where it sits in f,
        so the paths through b first and through b' first carry opposite
        signs times s_b s_b' and end on the one cell labelled f ^ b ^ b'.  Per
        entry the walk tests that f - g, g the row's label, is a power of two
        below the last; these sum to f iff they are f's bits.  Every other
        column, all of them if the labels are not such masks, is pushed
        through the columns of d_{n-1} it meets and summed in exact integers.
        Every library complex comes from _assemble, whose columns have the
        form, so only complexes built by hand are summed."""
        columns = {}
        cofaces = {n: [[] for _ in labels] for n, labels in self.bases.items()}
        labels = [*chain.from_iterable(self.bases.values())]
        masks = ({*map(type, labels)} == {int} and min(labels) >= 0
                 and len(set(labels)) == len(labels))
        signs = {}  # s_b per bit b
        walked = None  # (n, columns of d_n, its rough_up) of the last degree n walked
        for n in sorted(self.columns):
            cols = self.columns[n]
            if len(cols) != self.rank(n):
                raise MalformedComplexError(
                    f"boundary in degree {n} has {len(cols)} columns for {self.rank(n)} cells"
                )
            rows, up = self.rank(n - 1), cofaces.get(n - 1)
            if walked and walked[0] == n - 1:
                _, outer, rough = walked
            else:  # d_{n-1} is zero
                outer, rough = [()] * rows, ()
            # with labels that are not masks, f = -1 puts every column off the form
            top, low = ((self.bases.get(n, ()), self.bases.get(n - 1, ())) if masks
                        else (repeat(-1), range(rows)))
            # d_{n-1} of a column summed exactly, by rows of C_{n-2}: zero
            # again after every column that passes; rough_up: columns off the form
            rough_up, image = set(), [0] * self.rank(n - 2)
            for c, (f, col) in enumerate(zip(top, cols)):
                rest, bit, sign = f, f + 1, 1  # f's bits not yet met, the last met
                for i, v in col:
                    if (i.__class__ is not int or v.__class__ is not int
                            or not 0 <= i < rows or not v):
                        raise _bad_column(n, i, v)
                    row_up = up[i]
                    if row_up and row_up[-1] == c:
                        raise _bad_column(n, i, v)
                    row_up.append(c)
                    b = f - low[i]
                    if 0 < b < bit and not b & (b - 1) and signs.setdefault(b, s := sign * v) == s:
                        rest, bit, sign = rest - b, b, -sign
                    else:
                        rest = bit = -1
                if rest:
                    rough_up.add(c)
                elif not rough or rough.isdisjoint([i for i, _ in col]):
                    continue
                for i, v in col:
                    for r, w in outer[i]:
                        image[r] += v * w
                for i, _ in col:
                    for r, _ in outer[i]:
                        if image[r]:
                            raise MalformedComplexError(f"d_{n - 1} o d_{n} != 0")
            if rows and cols:
                columns[n] = cols
            walked = n, cols, rough_up
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


class HomologyGroup(_Frozen):
    """Z^betti + Z/t_1 + ... with t_1 | t_2 | ... (invariant factors > 1)."""

    def __init__(self, betti, torsion=()):
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise InvariantError("torsion coefficients violate divisibility")
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "torsion", torsion)

    def _key(self):
        return self.betti, self.torsion

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
    so nothing here grows with the m of the masks.  The columns have the
    form check_dd_zero's identity reads, with s_b = -1 on the bits of odd.
    Each face below has its two entries, (i, 1) and (i, -1), written once
    and shared by every column that meets it: a tuple per row, not per entry.
    """
    bits = [(bit, 1 if odd & bit else 0) for bit in levels.get(0, ())]
    bases, columns = {}, {}
    for n, level in levels.items():
        bases[n + shift] = level
        if n < 0:
            continue
        below = {f: ((i, 1), (i, -1)) for i, f in enumerate(levels[n - 1])}
        cols = columns[n + shift] = []
        for f in level:
            col, k = [], 0
            for bit, t in bits:
                if f & bit:
                    col.append(below[f ^ bit][k ^ t])
                    k ^= 1
            cols.append(col)
    return ChainComplex(bases, columns)


def simplicial_chain_complex(K) -> ChainComplex:
    """Augmented chain complex of a SimplicialComplex on face_levels(K).  The
    boundary drops a face's vertices in increasing order, its bits from the
    highest down, with alternating signs."""
    return _assemble(face_levels(K), 0, 0)
