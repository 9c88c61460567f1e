"""Chain complexes of free abelian groups and homology via Smith normal form.

Degrees may start at -1: the augmented simplicial chain complex keeps the
empty face as a single degree -1 generator, so all homology here is reduced
homology, including the convention H~_{-1}(empty space) = Z.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        for n in self.degrees():
            if self.rank(n - 1) and self.rank(n + 1):
                prod = self.boundary(n) @ self.boundary(n + 1)
                if not prod.is_zero():
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
    """Reduced homology of a chain complex, degree by degree."""
    if not C.dd_checked:
        C.check_dd_zero()
    snf = {n: smith_normal_form(C.boundary(n)) for n in C.degrees()}
    table = {}
    for n in C.degrees():
        rank_in = snf[n + 1].rank if (n + 1) in snf else 0
        betti = C.rank(n) - snf[n].rank - rank_in
        torsion = snf[n + 1].torsion if (n + 1) in snf else ()
        table[n] = HomologyGroup(betti, torsion)
    return HomologyTable(table)


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


def chain_complex_of_faces(faces_by_dim) -> ChainComplex:
    """Simplicial chain complex from {dim: [sorted vertex tuple, ...]}."""
    bases = {n: sorted(faces) for n, faces in faces_by_dim.items() if faces}
    index = {n: {f: i for i, f in enumerate(fs)} for n, fs in bases.items()}
    boundaries = {}
    for n in bases:
        if (n - 1) not in bases:
            continue
        M = SparseIntMatrix(len(bases[n - 1]), len(bases[n]))
        for j, f in enumerate(bases[n]):
            for pos in range(len(f)):
                sub = f[:pos] + f[pos + 1 :]
                M[index[n - 1][sub], j] = (-1) ** pos
        boundaries[n] = M
    return ChainComplex(bases, boundaries)
