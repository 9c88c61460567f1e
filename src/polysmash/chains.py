"""Chain complexes of free abelian groups and homology via Smith normal form.

Degrees may start at -1: the augmented simplicial chain complex keeps the
empty face as a single degree -1 generator, so all homology here is reduced
homology, including the convention H~_{-1}(empty space) = Z.

A ChainComplex stores each boundary d_n as its columns, a (row, coeff) list
per n-cell; the d o d check and the reduction below read them as they are,
and SparseIntMatrix is built only for Smith normal form and boundary(n).
simplicial_chain_complex labels faces by vertex bitmasks, in lexicographic
order.

homology() first deletes unit reduction pairs (Kaczynski-Mrozek-Slusarek
1998; Mrozek-Batko 2009): cells a in C_{n-1} and b in C_n with
<db, a> = +-1, where either

* a is the only remaining boundary cell of b (a coreduction), or
* b is the only remaining coface of a (a free face).

Deleting such a pair is a chain homotopy equivalence over Z.  The general
reduction replaces dc by dc - (<dc, a> / <db, a>) db for every other n-cell
c; here that correction is zero, because db has no term besides a, or
<dc, a> = 0 for every c other than b.  So no remaining matrix entry changes:
rows and columns are only dropped, and Smith normal form runs on the
boundary matrices of the cells that survive.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from itertools import compress

from .exactlin import InvariantError, SparseIntMatrix, smith_normal_form


class MalformedComplexError(ValueError):
    """Raised when boundary matrices fail d o d = 0 or have bad shapes."""


class ChainComplex:
    """Graded free abelian groups with integer boundary maps.

    bases: {degree: [label, ...]}
    columns: {degree n: per cell of C_n, its boundary [(row, coeff), ...] on
    distinct rows of C_{n-1} with nonzero coefficients}; kept, not copied.

    dd_checked records that d o d = 0 has been verified, by construction with
    check=True or by a later check_dd_zero(); homology() checks only complexes
    where it is still False.
    """

    def __init__(self, bases, columns, check=True):
        self.bases = {n: list(labels) for n, labels in bases.items() if labels}
        self.columns = {}
        for n, cols in columns.items():
            if len(cols) != self.rank(n):
                raise MalformedComplexError(
                    f"boundary in degree {n} has {len(cols)} columns for {self.rank(n)} cells"
                )
            rows = self.rank(n - 1)
            for col in cols:
                if len({i for i, v in col if v and 0 <= i < rows}) != len(col):
                    raise MalformedComplexError(
                        f"boundary column in degree {n} has a zero coefficient, "
                        f"a repeated row or a row outside C_{n - 1}"
                    )
            if rows and cols:
                self.columns[n] = cols
        self.dd_checked = False
        if check:
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
        """d_n o d_{n+1} = 0, column by column: each column of d_{n+1} is
        pushed through the columns of d_n it meets, and the sum must
        vanish."""
        for n in self.degrees():
            inner, outer = self.columns.get(n + 1), self.columns.get(n)
            if inner is None or outer is None:
                continue
            for terms in inner:
                image = {}
                for j, w in terms:
                    for i, v in outer[j]:
                        image[i] = image.get(i, 0) + v * w
                if any(image.values()):
                    raise MalformedComplexError(f"d_{n} o d_{n + 1} != 0")
        self.dd_checked = True

    def shift(self, s):
        """Move every degree n basis to degree n + s, sharing the columns."""
        shifted = copy(self)
        shifted.bases = {n + s: labels for n, labels in self.bases.items()}
        shifted.columns = {n + s: cols for n, cols in self.columns.items()}
        return shifted

    def euler(self):
        return sum((-1) ** n * self.rank(n) for n in self.degrees())


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


ZERO_GROUP = HomologyGroup(0)


class HomologyTable(dict):
    """{degree: HomologyGroup}, zero groups omitted."""

    def __init__(self, groups=()):
        super().__init__()
        for n, g in dict(groups).items():
            if not g.is_zero():
                self[n] = g

    def group(self, n):
        return self.get(n, ZERO_GROUP)

    def shifted(self, s):
        return HomologyTable({n + s: g for n, g in self.items()})

    def euler(self):
        return sum((-1) ** n * g.betti for n, g in self.items())

    def __str__(self):
        if not self:
            return "all reduced homology zero"
        return "; ".join(f"H~{n} = {self[n]}" for n in sorted(self))


def homology(C: ChainComplex) -> HomologyTable:
    """Reduced homology of a chain complex, degree by degree.

    Unit reduction pairs, coreductions and free faces, are deleted first
    (see the module docstring).  The surviving cells span a chain complex
    homotopy equivalent to C whose boundary entries are those of C, so
    Smith normal form runs on the surviving rows and columns only, and the
    Betti numbers come from the surviving ranks.
    """
    if not C.dd_checked:
        C.check_dd_zero()
    alive, down = _delete_unit_pairs(C)
    survivors = {n: list(compress(range(C.rank(n)), alive[n])) for n in C.degrees()}
    rank, torsion = {}, {}
    for n, cols in survivors.items():
        rows = {k: r for r, k in enumerate(survivors.get(n - 1, ()))}
        entries = {
            (rows[i], c): v for c, k in enumerate(cols) for i, v in down[n][k] if i in rows
        }
        snf = smith_normal_form(SparseIntMatrix(len(rows), len(cols), entries))
        rank[n], torsion[n] = snf.rank, snf.torsion
    return HomologyTable({
        n: HomologyGroup(len(cols) - rank[n] - rank.get(n + 1, 0), torsion.get(n + 1, ()))
        for n, cols in survivors.items()
    })


def _delete_unit_pairs(C: ChainComplex):
    """Delete unit reduction pairs until none is left.

    Returns ({n: bytearray alive flag per cell of C_n}, {n: the columns of
    d_n, one (row, coeff) list per cell of C_n}).  The columns are C's own,
    read as each cell's boundary cells with their coefficients; only the
    coface lists, remaining counts and the flags are built here.
    """
    size = {n: C.rank(n) for n in C.degrees()}
    down = {n: C.columns.get(n) or [()] * s for n, s in size.items()}
    up = {n: [[] for _ in range(s)] for n, s in size.items()}
    for n, cols in C.columns.items():
        cofaces = up[n - 1]
        for j, col in enumerate(cols):
            for i, _ in col:
                cofaces[i].append(j)
    # remaining boundary cells and cofaces of each cell
    ndown = {n: [len(x) for x in lists] for n, lists in down.items()}
    nup = {n: [len(x) for x in lists] for n, lists in up.items()}
    alive = {n: bytearray([1]) * s for n, s in size.items()}

    stack = [(n, k) for n, s in size.items() for k in range(s)
             if ndown[n][k] == 1 or nup[n][k] == 1]
    while stack:
        n, k = stack.pop()
        if not alive[n][k]:
            continue
        # pair (d, a, b): a in C_{d-1}, b in C_d
        pair = None
        if ndown[n][k] == 1:
            a, v = next((i, v) for i, v in down[n][k] if alive[n - 1][i])
            if v in (1, -1):
                pair = (n, a, k)
        if pair is None and nup[n][k] == 1:
            b = next(j for j in up[n][k] if alive[n + 1][j])
            if next(v for i, v in down[n + 1][b] if i == k) in (1, -1):
                pair = (n + 1, k, b)
        if pair is None:
            continue
        d, a, b = pair
        alive[d - 1][a] = alive[d][b] = 0
        for m, cell in ((d - 1, a), (d, b)):
            for i, _ in down[m][cell]:
                if alive[m - 1][i]:
                    nup[m - 1][i] -= 1
                    if nup[m - 1][i] == 1:
                        stack.append((m - 1, i))
            for j in up[m][cell]:
                if alive[m + 1][j]:
                    ndown[m + 1][j] -= 1
                    if ndown[m + 1][j] == 1:
                        stack.append((m + 1, j))
    return alive, down


def simplicial_chain_complex(K) -> ChainComplex:
    """Augmented chain complex of a SimplicialComplex, its faces the
    submasks of the facets, vertex v at bit K.m - v (see face_of_mask).

    Descending mask order within a degree is the lexicographic order of
    sorted vertex tuples.  The boundary drops a face's vertices in
    increasing order, its bits from the highest down, with alternating signs.
    """
    faces = {0}
    for facet in K.facets:
        top = sum(1 << (K.m - v) for v in facet)
        s = top
        while s:
            faces.add(s)
            s = (s - 1) & top
    levels = {}
    for f in faces:
        levels.setdefault(f.bit_count() - 1, []).append(f)
    bases, columns = {}, {}
    for n in sorted(levels):
        bases[n] = level = sorted(levels[n], reverse=True)
        if n < 0:
            continue
        below = {f: i for i, f in enumerate(bases[n - 1])}
        cols = columns[n] = []
        for f in level:
            col, rest, sign = [], f, 1
            while rest:
                bit = 1 << (rest.bit_length() - 1)
                col.append((below[f ^ bit], sign))
                rest ^= bit
                sign = -sign
            cols.append(col)
    return ChainComplex(bases, columns)


def face_of_mask(mask, m):
    """The sorted vertex tuple of a face label of simplicial_chain_complex."""
    return tuple(v for v in range(1, m + 1) if mask >> (m - v) & 1)
