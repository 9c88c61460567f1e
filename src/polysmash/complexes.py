"""Abstract simplicial complexes over labeled vertices 1..m.

Complexes are stored by their facets, the maximal members of the family
given, which the constructor keeps by one _maximal call, as geomjoin's
simplices are kept; the empty face is always a face, K = {empty} is the
legal empty complex, and vertices in no facet are allowed: m is explicit.
face_levels gives the faces as bitmasks, walked once per complex and kept on
it, for faces(), euler_reduced, chains, smashmodel and the K(J) counts.

Includes the combinatorial operation used throughout: vertex doubling
(replacing a vertex i by an edge {i_a, i_b}) and its iterated form K(J),
the simplicial wedge.  double_iterated builds K(J) as a complex, tested
equal to doubling one vertex at a time; doubled_face_levels writes its face
masks straight from K's, each once, and doubled_face_count counts them.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, product
from math import prod
from operator import and_

from .exactlin import _Frozen, _rational


class SimplicialComplex(_Frozen):
    """m, the vertex count, and facets, a frozenset of increasing vertex
    tuples made maximal; frozenset({()}) is K = {empty}."""

    def __init__(self, m, facets):
        if m < 1:
            raise ValueError("m must be positive")
        if not facets:
            raise ValueError("no facets: K = {empty} has the one facet ()")
        for f in facets:
            for v in f:
                if v.__class__ is not int:  # bool is an int subclass: refuse it too
                    raise ValueError(f"vertex {v!r} is not an int")
                if not 1 <= v <= m:
                    raise ValueError(f"vertex {v} outside 1..{m}")
            if f.__class__ is not tuple or list(f) != sorted(set(f)):
                raise ValueError(f"facet {f!r} is not a strictly increasing vertex tuple")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "facets", _maximal(facets))  # tuples are sets here

    def _key(self):
        return self.m, self.facets

    @cached_property
    def _levels(self):
        """face_levels(self), walked at the first call and kept on this
        complex, which is immutable: each complex is walked once."""
        return _walk_levels(self)

    def faces(self):
        """All faces as vertex tuples, decoded from face_levels(self) in its
        order: by cardinality, then lexicographically, the empty face first.
        Only the vertices in a facet, level 0 in increasing order, are read."""
        levels = face_levels(self)
        bits = [(bit, self.m + 1 - bit.bit_length()) for bit in levels.get(0, ())]
        return [tuple(v for bit, v in bits if f & bit)
                for level in levels.values() for f in level]

    def euler_reduced(self):
        """chi~ = sum_{n >= -1} (-1)^n f_n, f_n the size of face_levels' level n."""
        return sum(-len(level) if n % 2 else len(level)
                   for n, level in face_levels(self).items())


def from_facets(m, facets) -> SimplicialComplex:
    """Build a complex from any generating family of faces, each sorted and
    de-duplicated, {()} if there are none; the constructor minimalizes."""
    return SimplicialComplex(m, frozenset(tuple(sorted(set(f))) for f in facets) or {()})


def _maximal(sets):
    """The sets (of vertices, or of points) in no other, {empty set} if none.
    A set can only lie in a larger one, so the sets are taken a size at a
    time, largest first, and each is tested against the larger ones kept:
    per element, an int bitset of the kept sets that hold it, so a set lies
    in a kept one iff the AND of its elements' bitsets is nonzero.  Ints are
    immutable, so the bitsets grow a size at a time, not a set at a time."""
    by_size = {}
    for s in sets:
        by_size.setdefault(len(s), set()).add(s)
    maximal, holders, held = [], {}, 0  # {element: bitset over maximal[:held]}
    for size in sorted(by_size, reverse=True):
        bits = {}  # {element: bytes of its bitset over the sets kept at the last size}
        for i in range(held, len(maximal)):
            for x in maximal[i]:
                if x not in bits:
                    bits[x] = bytearray(len(maximal) // 8 + 1)
                bits[x][i >> 3] |= 1 << (i & 7)
        for x, b in bits.items():
            holders[x] = holders.get(x, 0) | int.from_bytes(b, "little")
        held = len(maximal)
        everything = (1 << held) - 1
        maximal += [s for s in by_size[size] if not (
            everything and reduce(and_, (holders.get(x, 0) for x in s), everything))]
    return frozenset(maximal or [frozenset()])


def face_levels(K):
    """{n: the faces of K of cardinality n + 1 as vertex bitmasks, vertex v at
    bit K.m - v, in descending order}, the empty face 0 in degree -1.
    Descending mask order is the lexicographic order of sorted vertex tuples.
    Walked once per complex and shared by every caller: do not mutate it."""
    return K._levels


def _walk_levels(K):
    """face_levels(K) by its one walk: the submasks of the facets."""
    faces = {0}
    for facet in K.facets:
        top = s = sum(1 << (K.m - v) for v in facet)
        while s:
            faces.add(s)
            s = (s - 1) & top
    return _by_level(faces)


def _by_level(faces):
    """Distinct face masks grouped by cardinality, as face_levels orders them."""
    levels = {}
    for f in faces:
        levels.setdefault(f.bit_count() - 1, []).append(f)
    return {n: sorted(levels[n], reverse=True) for n in sorted(levels)}


def empty_complex(m=1) -> SimplicialComplex:
    return from_facets(m, [()])


def simplex_boundary(n) -> SimplicialComplex:
    """The boundary of the n-simplex on n+1 vertices (a model of S^{n-1})."""
    return from_facets(n + 1, combinations(range(1, n + 2), n))


def full_simplex(n) -> SimplicialComplex:
    return from_facets(n + 1, [range(1, n + 2)])


def double(K: SimplicialComplex, i: int):
    """double_iterated at J = e_i: vertex i becomes an edge {i_a, i_b}, one
    suspension of |K|.  A face sigma with i gives (sigma \\ i) u {i_a, i_b},
    one without i gives sigma u {i_a} and sigma u {i_b}, with their subsets.
    i_a keeps label i and i_b is m + 1."""
    if not 1 <= i <= K.m:
        raise ValueError(f"vertex {i} outside 1..{K.m}")
    return double_iterated(K, tuple(int(v == i) for v in range(1, K.m + 1)))


def validate_j(K: SimplicialComplex, J):
    """Refuse a J that is not one entry >= 0 per vertex of K."""
    if len(J) != K.m:
        raise ValueError(f"J has length {len(J)}, expected {K.m}")
    if any(j < 0 for j in J):
        raise ValueError("J entries must be >= 0")


def double_iterated(K: SimplicialComplex, J):
    """K(J), vertex i doubled j_i times, in closed form: the simplicial wedge
    of Bahri-Bendersky-Cohen-Gitler.  Block i is label i and its j_i fresh
    labels, vertex 1's first from m + 1; each facet sigma of K gives the
    facets with sigma's blocks whole and every other block less one label,
    none nested.  Labels and names are those of doubling one vertex at a
    time, the smallest with doublings left first, at label i.

    Returns (K(J), {label: name}): each doubling splits '<name>' into
    '<name>a' (keeping the label) and '<name>b' (a fresh one)."""
    validate_j(K, J)
    whole, less, names, fresh = [], [], {}, K.m
    for i, j in enumerate(J, start=1):
        block = (i, *range(fresh + 1, fresh + j + 1))
        whole.append([block])
        less.append([block[:t] + block[t + 1:] for t in range(j + 1)])
        names[i] = f"{i}" + "a" * j
        names.update((fresh + t, f"{i}" + "a" * (t - 1) + "b") for t in range(1, j + 1))
        fresh += j
    facets = []
    for sigma in K.facets:
        parts = [whole[i - 1] if i in sigma else less[i - 1] for i in range(1, K.m + 1)]
        facets += (tuple(sorted(chain.from_iterable(p))) for p in product(*parts))
    return SimplicialComplex(fresh, frozenset(facets)), names


def doubled_face_levels(K: SimplicialComplex, J):
    """(face_levels(K(J)), K(J).m) for K(J) = double_iterated(K, J)[0],
    without building K(J): by the simplicial-wedge rule, each face sigma of
    K gives, each once, the faces made of sigma's blocks whole and a proper
    subset, the empty one included, of every other block.  Only the blocks
    of vertices in a facet of K, or doubled, get masks."""
    validate_j(K, J)
    m = K.m + sum(J)
    last = list(accumulate(J, initial=K.m))  # block i's fresh labels end at last[i]

    def block_mask(i):
        return sum(1 << (m - v) for v in (i, *range(last[i - 1] + 1, last[i] + 1)))

    levels = face_levels(K)
    # per vertex i of K in a facet, level 0 in increasing order: (i's bit in K, its block)
    whole = [(bit, block_mask(K.m + 1 - bit.bit_length())) for bit in levels.get(0, ())]
    proper = []  # per doubled vertex i: (i's bit in K, its block's proper submasks)
    for i, j in enumerate(J, start=1):
        if j:  # a lone vertex's one proper subset is the empty one
            top = s = block_mask(i)
            subsets = []  # descending to 0
            while s:
                s = (s - 1) & top
                subsets.append(s)
            proper.append((1 << (K.m - i), subsets))
    faces = []
    for level in levels.values():
        for sigma in level:
            part = [sum(block for bit, block in whole if sigma & bit)]
            for bit, subsets in proper:
                if not sigma & bit:
                    part = [f | s for f in part for s in subsets]
            faces += part
    return _by_level(faces), m


def doubled_face_count(K: SimplicialComplex, J):
    """|K(J)|, the empty face included, without building K(J): the blocks a
    face holds whole form a face sigma of K, and every other block i gives
    one of its 2^(j_i + 1) - 1 proper subsets."""
    validate_j(K, J)
    weight = [(2 << j) - 1 for j in J]
    count = {0: prod(weight)}  # {sigma: faces whose whole blocks are sigma's}
    levels = iter(face_levels(K).values())
    next(levels)  # the empty face
    for level in levels:  # by cardinality, so sigma less its lowest vertex comes first
        for sigma in level:
            low = sigma.bit_length() - 1  # sigma's lowest vertex, K.m - low
            count[sigma] = count[sigma ^ (1 << low)] // weight[K.m - low - 1]
    return sum(count.values())


def doubled_label_count(K: SimplicialComplex, J):
    """The labels written out for K(J)'s facets, one per vertex of each
    facet, without building K(J): each facet sigma of K gives
    prod_{i not in sigma} (j_i + 1) facets of |sigma| + sum(J) labels."""
    validate_j(K, J)
    return sum(
        (len(sigma) + sum(J)) * prod(j + 1 for i, j in enumerate(J, start=1) if i not in sigma)
        for sigma in K.facets
    )


def random_complex(m, max_dim, density, seed) -> SimplicialComplex:
    """Seeded random complex: each candidate facet of cardinality <= max_dim+1
    is kept independently with the given rational probability, then the family
    is minimalized.  Exact arithmetic: no floats touch the draw.  density
    is a rational or a string such as "1/2"; a float raises ValueError.
    """
    import random
    from fractions import Fraction

    p = Fraction(density if isinstance(density, str) else _rational(density, "density"))
    if not 0 <= p <= 1:
        raise ValueError("density must be in [0, 1]")
    rng = random.Random(seed)
    gens = []
    for size in range(1, min(max_dim + 1, m) + 1):
        for cand in combinations(range(1, m + 1), size):
            if rng.randrange(p.denominator) < p.numerator:
                gens.append(cand)
    return from_facets(m, gens)
