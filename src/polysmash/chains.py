"""Chain complexes of free abelian groups and homology via Smith normal form.

Degrees may start at -1: the augmented simplicial chain complex keeps the
empty face as a single degree -1 generator, so all homology here is reduced
homology, including the convention H~_{-1}(empty space) = Z.

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

from dataclasses import dataclass
from itertools import compress

from .exactlin import InvariantError, SparseIntMatrix, smith_normal_form


class MalformedComplexError(ValueError):
    """Raised when boundary matrices fail d o d = 0 or have bad shapes."""


class ChainComplex:
    """Graded free abelian groups with integer boundary maps.

    bases: {degree: [label, ...]}
    boundaries: {degree n: SparseIntMatrix mapping C_n -> C_{n-1}}

    dd_checked records that d o d = 0 has been verified, by construction with
    check=True or by a later check_dd_zero(); homology() checks only complexes
    where it is still False.
    """

    def __init__(self, bases, boundaries, check=True):
        self.bases = {n: list(labels) for n, labels in bases.items() if labels}
        self.boundaries = {}
        for n, M in boundaries.items():
            if n not in self.bases or (n - 1) not in self.bases:
                if not M.is_zero():
                    raise MalformedComplexError(f"boundary in degree {n} without bases")
                continue
            if M.rows != len(self.bases[n - 1]) or M.cols != len(self.bases[n]):
                raise MalformedComplexError(
                    f"boundary matrix shape mismatch in degree {n}"
                )
            self.boundaries[n] = M
        self.dd_checked = False
        if check:
            self.check_dd_zero()

    def degrees(self):
        return sorted(self.bases)

    def rank(self, n):
        return len(self.bases.get(n, ()))

    def boundary(self, n):
        rows = self.rank(n - 1)
        cols = self.rank(n)
        return self.boundaries.get(n, SparseIntMatrix(rows, cols))

    def check_dd_zero(self):
        """d_n o d_{n+1} = 0, column by column: each column of d_{n+1} is
        pushed through the columns of d_n it meets, and the sum must
        vanish."""
        for n in self.degrees():
            inner, outer = self.boundaries.get(n + 1), self.boundaries.get(n)
            if inner is None or outer is None:
                continue
            columns = [[] for _ in range(outer.cols)]
            for (i, j), v in outer.entries.items():
                columns[j].append((i, v))
            below = [[] for _ in range(inner.cols)]
            for (j, k), w in inner.entries.items():
                below[k].append((j, w))
            for terms in below:
                image = {}
                for j, w in terms:
                    for i, v in columns[j]:
                        image[i] = image.get(i, 0) + v * w
                if any(image.values()):
                    raise MalformedComplexError(f"d_{n} o d_{n + 1} != 0")
        self.dd_checked = True

    def shift(self, s):
        """Move every degree n basis to degree n + s."""
        bases = {n + s: labels for n, labels in self.bases.items()}
        boundaries = {n + s: M for n, M in self.boundaries.items()}
        shifted = ChainComplex(bases, boundaries, check=False)
        shifted.dd_checked = self.dd_checked
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
        M = SparseIntMatrix(len(rows), len(cols))
        for c, k in enumerate(cols):
            for i in down[n][k]:
                if i in rows:
                    M[rows[i], c] = C.boundaries[n].entries[i, k]
        snf = smith_normal_form(M)
        rank[n], torsion[n] = snf.rank, snf.torsion
    return HomologyTable({
        n: HomologyGroup(len(cols) - rank[n] - rank.get(n + 1, 0), torsion.get(n + 1, ()))
        for n, cols in survivors.items()
    })


def _delete_unit_pairs(C: ChainComplex):
    """Delete unit reduction pairs until none is left.

    Returns ({n: bytearray alive flag per cell of C_n}, {n: per cell of C_n,
    the indices of its boundary cells in C_{n-1}}).  Only int adjacency
    lists, remaining counts and the flags are kept; coefficients are read
    back from the boundary matrices.
    """
    size = {n: C.rank(n) for n in C.degrees()}
    down = {n: [[] for _ in range(s)] for n, s in size.items()}
    up = {n: [[] for _ in range(s)] for n, s in size.items()}
    for n, M in C.boundaries.items():
        faces, cofaces = down[n], up[n - 1]
        for i, j in M.entries:
            faces[j].append(i)
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
            a = next(i for i in down[n][k] if alive[n - 1][i])
            if C.boundaries[n].entries[a, k] in (1, -1):
                pair = (n, a, k)
        if pair is None and nup[n][k] == 1:
            b = next(j for j in up[n][k] if alive[n + 1][j])
            if C.boundaries[n + 1].entries[k, b] in (1, -1):
                pair = (n + 1, k, b)
        if pair is None:
            continue
        d, a, b = pair
        alive[d - 1][a] = alive[d][b] = 0
        for m, cell in ((d - 1, a), (d, b)):
            for i in down[m][cell]:
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
    """Augmented chain complex of a SimplicialComplex, faces ordered
    lexicographically.

    Boundary of a sorted simplex drops vertices with alternating signs; the
    empty face is the single degree -1 generator.
    """
    faces_by_dim = {}
    for f in K.faces():
        faces_by_dim.setdefault(len(f) - 1, []).append(f)
    return chain_complex_of_faces(faces_by_dim)


def chain_complex_of_faces(faces_by_degree) -> ChainComplex:
    """Simplicial chain complex from {degree: [sorted vertex tuple, ...]},
    where each face sits one degree above its facets."""
    bases = {n: sorted(faces) for n, faces in faces_by_degree.items() if faces}
    index = {n: {f: i for i, f in enumerate(fs)} for n, fs in bases.items()}
    boundaries = {}
    for n in bases:
        if (n - 1) not in bases:
            continue
        below = index[n - 1]
        entries = {}
        for j, f in enumerate(bases[n]):
            for pos in range(len(f)):
                entries[below[f[:pos] + f[pos + 1 :]], j] = -1 if pos & 1 else 1
        boundaries[n] = SparseIntMatrix(len(bases[n - 1]), len(bases[n]), entries)
    return ChainComplex(bases, boundaries)
