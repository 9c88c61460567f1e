"""Reference search for a vertex relabelling between two complexes.

Test-only: doubling fixtures and order-independence properties compare
complexes up to relabelling with it.
"""

from polysmash.complexes import SimplicialComplex


def facet_equal_upto_relabel(K: SimplicialComplex, L: SimplicialComplex):
    """Search for a vertex bijection carrying facets of K onto facets of L.

    Returns the bijection {vertex of K: vertex of L} or None.  Backtracking
    over used vertices only; ghost vertices may map anywhere, so they are
    ignored (and vertex counts of used vertices must agree).
    """
    fk = sorted(K.facets, key=lambda t: (len(t), t))
    fl = set(L.facets)
    if sorted(len(f) for f in fk) != sorted(len(f) for f in fl):
        return None
    used_k = sorted({v for f in fk for v in f})
    used_l = {v for f in fl for v in f}
    if len(used_k) != len(used_l):
        return None

    def extend(mapping, remaining):
        if not remaining:
            image = {tuple(sorted(mapping[v] for v in f)) for f in fk}
            return mapping if image == fl else None
        f = remaining[0]
        unmapped = [v for v in f if v not in mapping]
        # candidate facets of L consistent with the partial map
        for g in fl:
            if len(g) != len(f):
                continue
            gset = set(g)
            if any(mapping.get(v, None) not in gset for v in f if v in mapping):
                continue
            targets = [w for w in g if w not in mapping.values()]
            if len(targets) < len(unmapped):
                continue
            for assign in _injections(unmapped, targets):
                new = dict(mapping)
                new.update(assign)
                out = extend(new, remaining[1:])
                if out is not None:
                    return out
        return None

    return extend({}, fk)


def _injections(sources, targets):
    from itertools import permutations

    for perm in permutations(targets, len(sources)):
        yield dict(zip(sources, perm))
