"""Abstract simplicial complexes over labeled vertices 1..m.

Complexes are stored by their facets (maximal faces); the empty face is
always a face, and K = {empty} is the legal empty complex.  Vertices that
appear in no facet are allowed: m is always explicit.

Includes the combinatorial operation used throughout: vertex doubling
(replacing a vertex i by an edge {i_a, i_b}) and its iterated form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations


@dataclass(frozen=True)
class SimplicialComplex:
    m: int
    facets: frozenset  # of strictly increasing vertex tuples; frozenset({()}) is K = {empty}

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")
        if not self.facets:
            raise ValueError("no facets: K = {empty} has the one facet ()")
        for f in self.facets:
            for v in f:
                if v.__class__ is not int:  # bool is an int subclass: refuse it too
                    raise ValueError(f"vertex {v!r} is not an int")
                if not 1 <= v <= self.m:
                    raise ValueError(f"vertex {v} outside 1..{self.m}")
            if f.__class__ is not tuple or list(f) != sorted(set(f)):
                raise ValueError(f"facet {f!r} is not a strictly increasing vertex tuple")

    def faces(self):
        """All faces, ordered by cardinality and then lexicographically.

        The empty face has cardinality 0 and is listed first.
        """
        seen = set()
        for f in self.facets:
            for r in range(len(f) + 1):
                seen.update(combinations(f, r))
        return sorted(seen, key=lambda t: (len(t), t))

    def euler_reduced(self):
        """chi~ = sum_{n >= -1} (-1)^n f_n with f_{-1} = 1 for the empty face."""
        return sum((-1) ** (len(f) + 1) for f in self.faces())

    def __str__(self):
        facets = sorted(self.facets, key=lambda t: (len(t), t))
        inner = ", ".join("{" + ",".join(map(str, f)) + "}" for f in facets)
        return f"SimplicialComplex(m={self.m}, facets=[{inner}])"


def from_facets(m, facets) -> SimplicialComplex:
    """Build a complex from any generating family of faces (minimalized)."""
    gens = sorted({tuple(sorted(set(f))) for f in facets}, key=len, reverse=True)
    minimal = []
    for f in gens:
        fs = set(f)
        if not any(fs <= set(g) for g in minimal):
            minimal.append(f)
    if not minimal:
        minimal = [()]
    return SimplicialComplex(m, frozenset(minimal))


def empty_complex(m=1) -> SimplicialComplex:
    return from_facets(m, [()])


def simplex_boundary(n) -> SimplicialComplex:
    """The boundary of the n-simplex on n+1 vertices (a model of S^{n-1})."""
    if n == 0:
        return empty_complex(1)
    return from_facets(n + 1, combinations(range(1, n + 2), n))


def full_simplex(n) -> SimplicialComplex:
    return from_facets(n + 1, [range(1, n + 2)])


@dataclass(frozen=True)
class RenameMap:
    """Vertex bookkeeping across doublings.

    names maps each current label to a display string: original vertices keep
    their number, a doubled vertex i splits into copies named '<name>a'
    (keeping label i) and '<name>b' (fresh label m+1).
    """

    names: dict = field(default_factory=dict)

    @classmethod
    def identity(cls, m):
        return cls({i: str(i) for i in range(1, m + 1)})

    def doubled(self, i, fresh):
        names = dict(self.names)
        base = names[i]
        names[i] = base + "a"
        names[fresh] = base + "b"
        return RenameMap(names)

    def name(self, label):
        return self.names[label]


def double(K: SimplicialComplex, i: int):
    """Replace vertex i by an edge {i_a, i_b}; realizes one suspension of |K|.

    Faces of the result: for sigma in K with i in sigma, (sigma \\ i) u {i_a, i_b};
    for sigma in K without i, sigma u {i_a} and sigma u {i_b}; and all subsets.
    Labels: i_a keeps label i, i_b gets label m+1.

    Built from the facets alone, as the simplicial wedge of K at i: sigma u
    {i_b} for each facet sigma of K, and sigma u {i_a} when i is not in sigma.
    No two of these are nested, so there is nothing to minimalize.
    """
    if not 1 <= i <= K.m:
        raise ValueError(f"vertex {i} outside 1..{K.m}")
    ib = K.m + 1
    facets = set()
    for sigma in K.facets:
        facets.add(sigma + (ib,))
        if i not in sigma:
            facets.add(tuple(sorted(sigma + (i,))))
    rename = RenameMap.identity(K.m).doubled(i, ib)
    return SimplicialComplex(ib, frozenset(facets)), rename


def double_iterated(K: SimplicialComplex, J):
    """Apply double() sum(J) times.

    Canonical order: repeatedly take the smallest original index with budget
    left, decrement it, and double the lowest-labeled current copy of that
    vertex (which is the original label itself, by the labeling convention).
    """
    if len(J) != K.m:
        raise ValueError(f"J has length {len(J)}, expected {K.m}")
    if any(j < 0 for j in J):
        raise ValueError("J entries must be >= 0")
    result = K
    rename = RenameMap.identity(K.m)
    budget = list(J)
    while any(budget):
        i = next(idx for idx, b in enumerate(budget, start=1) if b)
        budget[i - 1] -= 1
        result, _ = double(result, i)
        rename = rename.doubled(i, result.m)
    return result, rename


def random_complex(m, max_dim, density, seed) -> SimplicialComplex:
    """Seeded random complex: each candidate facet of cardinality <= max_dim+1
    is kept independently with the given rational probability, then the family
    is minimalized.  Exact arithmetic: no floats touch the draw.
    """
    import random
    from fractions import Fraction

    p = Fraction(density)
    if not 0 <= p <= 1:
        raise ValueError("density must be in [0, 1]")
    rng = random.Random(seed)
    gens = []
    for size in range(1, min(max_dim + 1, m) + 1):
        for cand in combinations(range(1, m + 1), size):
            if rng.randrange(p.denominator) < p.numerator:
                gens.append(cand)
    return from_facets(m, gens) if gens else empty_complex(m)
