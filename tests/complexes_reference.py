"""Complex combinatorics that only the tests use.

The library needs vertex doubling and the face list; the tests also state
facts about the combinatorial join, iterated suspension, face membership,
dimension and face counts, so those live here as functions of a complex.
So does iterated doubling one vertex at a time, the independent reference
for the library's closed-form K(J), and the library's own minimalization
and face enumeration from before both moved onto complexes._maximal and
face_levels: a loop of set comparisons, and every subset of every facet,
sorted.  complex_to_json is the dict that `polysmash double --json` encoded
before it wrote its facets one at a time.
"""

from itertools import combinations

from polysmash.complexes import SimplicialComplex, from_facets


def from_facets_loop(m, facets) -> SimplicialComplex:
    """from_facets by its earlier quadratic loop: each generator, largest
    first, is kept unless a kept one contains it."""
    gens = sorted({tuple(sorted(set(f))) for f in facets}, key=len, reverse=True)
    minimal = []
    for f in gens:
        if not any(set(f) <= set(g) for g in minimal):
            minimal.append(f)
    return SimplicialComplex(m, frozenset(minimal or [()]))


def faces_by_combinations(K: SimplicialComplex):
    """K.faces() by its earlier enumeration: every subset of every facet,
    ordered by cardinality and then lexicographically."""
    seen = set()
    for f in K.facets:
        for r in range(len(f) + 1):
            seen.update(combinations(f, r))
    return sorted(seen, key=lambda t: (len(t), t))


def is_face(K: SimplicialComplex, sigma):
    s = frozenset(sigma)
    return any(s <= set(f) for f in K.facets)


def dim(K: SimplicialComplex):
    return max(len(f) for f in K.facets) - 1


def f_vector(K: SimplicialComplex):
    """Face counts per dimension 0..dim (empty face not counted)."""
    counts = {}
    for f in K.faces():
        if f:
            counts[len(f) - 1] = counts.get(len(f) - 1, 0) + 1
    return [counts.get(d, 0) for d in range(dim(K) + 1)]


def join_abstract(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Combinatorial join: faces sigma u tau with L's vertices shifted by K.m."""
    shift = K.m
    facets = [
        f + tuple(v + shift for v in g) for f in K.facets for g in L.facets
    ]
    return from_facets(K.m + L.m, facets)


def suspension(K: SimplicialComplex, t=1) -> SimplicialComplex:
    """t-fold join with the two-point complex S^0."""
    if t < 1:
        raise ValueError("t must be >= 1")
    s0 = from_facets(2, [(1,), (2,)])
    result = K
    for _ in range(t):
        result = join_abstract(s0, result)
    return result


def double_once(K: SimplicialComplex, i):
    """One doubling by the facet rule of the simplicial wedge at i: sigma u
    {m + 1} for each facet sigma, and sigma u {i} when i is not in sigma."""
    ib = K.m + 1
    facets = {sigma + (ib,) for sigma in K.facets}
    facets |= {tuple(sorted(sigma + (i,))) for sigma in K.facets if i not in sigma}
    return SimplicialComplex(ib, frozenset(facets))


def double_iterated_loop(K: SimplicialComplex, J):
    """(K(J), names) by sum(J) single doublings in canonical order: take the
    smallest original vertex with doublings left and double its own label,
    which splits its name '<name>' into '<name>a' (kept) and '<name>b' (the
    fresh label m + 1)."""
    names = {i: str(i) for i in range(1, K.m + 1)}
    budget = list(J)
    while any(budget):
        i = next(idx for idx, b in enumerate(budget, start=1) if b)
        budget[i - 1] -= 1
        K = double_once(K, i)
        names[i], names[K.m] = names[i] + "a", names[i] + "b"
    return K, names


def complex_to_json(K: SimplicialComplex, rename=None):
    """The dict polysmash double --json encoded whole before it wrote a
    facet at a time: the reference for the streamed text."""
    data = {
        "m": K.m,
        "facets": [list(f) for f in sorted(K.facets, key=lambda t: (len(t), t))],
    }
    if rename is not None:
        data["names"] = {str(v): rename[v] for v in sorted(rename)}
    return data
