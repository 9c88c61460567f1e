"""Simplicial chain complexes built from sorted vertex tuples.

Test-only: the library enumerates faces as bitmasks and keeps each boundary
as column lists.  This is the tuple route it replaced, slicing each face
into its facets, kept as a differential reference for bases and entries.
"""

from itertools import combinations

from polysmash.chains import ChainComplex
from polysmash.exactlin import SparseIntMatrix


def face_of_mask(mask, m):
    """The sorted vertex tuple of a face mask of face_levels, vertex v at
    bit m - v."""
    return tuple(v for v in range(1, m + 1) if mask >> (m - v) & 1)


def columns_of(M: SparseIntMatrix):
    """The columns of a matrix, [(row, coeff), ...] per column, in the
    order of its entries."""
    cols = [[] for _ in range(M.cols)]
    for (i, j), v in M.entries.items():
        cols[j].append((i, v))
    return cols


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
    return ChainComplex(bases, {n: columns_of(M) for n, M in boundaries.items()})


def simplicial_chain_complex(K) -> ChainComplex:
    """C(K) with sorted vertex tuples as labels, each face in degree
    |face| - 1."""
    faces_by_dim = {}
    for f in K.faces():
        faces_by_dim.setdefault(len(f) - 1, []).append(f)
    return chain_complex_of_faces(faces_by_dim)


def embedded_chain_complex(X) -> ChainComplex:
    """C(X) of an EmbeddedComplex from all of its faces, the vertices
    relabelled 1, 2, ... in sorted point order."""
    label = {p: i for i, p in enumerate(X.vertices(), start=1)}
    faces_by_dim = {}
    for s in X.maximal:
        for r in range(len(s) + 1):
            for c in combinations(sorted(s), r):
                f = tuple(sorted(label[p] for p in c))
                faces_by_dim.setdefault(len(f) - 1, set()).add(f)
    return chain_complex_of_faces({d: sorted(fs) for d, fs in faces_by_dim.items()})
