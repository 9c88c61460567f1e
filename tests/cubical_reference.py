"""The cubical model of the (D^1, S^0) polyhedral product over K.

Test-only: the library builds the reduction route as C(K(J)) shifted up by
one.  Here that complex is built the long way, as the cellular chains of the
polyhedral product inside [0,2]^m and its quotient by the outer boundary, so
that the tests state the identity once.

Both are built by assemble, a label-keyed builder that checks each boundary
term's degree.

A cube cell ("cube", sigma, twos) is a face sigma of K spanning [0,2] in its
own coordinates, with the coordinates in twos pinned at 2 and every other one
at 0.
"""

from itertools import combinations

from polysmash.chains import ChainComplex, MalformedComplexError
from polysmash.complexes import SimplicialComplex


def assemble(labels, boundary_fn):
    """ChainComplex from (label, degree) pairs and a boundary rule,
    each basis sorted by label.  A boundary term in any degree other than
    the one below raises MalformedComplexError."""
    bases = {}
    for lab, d in labels:
        bases.setdefault(d, []).append(lab)
    for d in bases:
        bases[d].sort()
    index = {lab: (d, i) for d, labs in bases.items() for i, lab in enumerate(labs)}
    columns = {}
    for d, labs in bases.items():
        if (d - 1) not in bases:
            continue
        cols = columns[d] = []
        for lab in labs:
            col = []
            for tgt, coeff in boundary_fn(lab).items():
                td, ti = index[tgt]
                if td != d - 1:
                    raise MalformedComplexError(
                        f"boundary of {lab!r} in degree {d} reaches {tgt!r} in degree {td}"
                    )
                if coeff:
                    col.append((ti, coeff))
            cols.append(col)
    return ChainComplex(bases, columns)


def cube_cell(sigma, twos=()):
    """twos: sorted tuple of the coordinates outside sigma pinned at 2."""
    return ("cube", tuple(sigma), tuple(twos))


def cube_boundary(sigma, twos):
    """Boundary of a cube cell: dropping vertex i, at position pos of sigma,
    pins coordinate i at 2 with sign (-1)^pos and at 0 with the opposite."""
    out = {}
    for pos, i in enumerate(sigma):
        rest = sigma[:pos] + sigma[pos + 1 :]
        out[cube_cell(rest, tuple(sorted(twos + (i,))))] = (-1) ** pos
        out[cube_cell(rest, twos)] = -((-1) ** pos)
    return out


def cells(K: SimplicialComplex):
    """Yield (cube cell, dimension) for the model inside [0,2]^m.

    There are sum over faces of 2^(m - |face|) of them.
    """
    for sigma in K.faces():
        free = [v for v in range(1, K.m + 1) if v not in sigma]
        for r in range(len(free) + 1):
            for twos in combinations(free, r):
                yield cube_cell(sigma, twos), len(sigma)


def chain_complex(K: SimplicialComplex):
    """Cellular chain complex, augmented by an empty-set generator in
    degree -1 so that homology comes out reduced."""
    aug = ("aug",)

    def boundary(label):
        if label == aug:
            return {}
        _, sigma, twos = label
        return cube_boundary(sigma, twos) if sigma else {aug: 1}

    return assemble(list(cells(K)) + [(aug, -1)], boundary)


def quotient_outer_boundary(K: SimplicialComplex):
    """The cubical model with every cell that has some coordinate pinned at
    2 collapsed to the basepoint.

    Surviving cells are the twos == () cells, one per face of K; boundary
    terms landing in collapsed cells are dropped.  Survivors are oriented by
    (-1)^|face|, which negates every surviving term, so that the matrices are
    the simplicial ones.
    """

    def boundary(label):
        terms = cube_boundary(label[1], ()).items()
        return {cell: -coeff for cell, coeff in terms if not cell[2]}

    return assemble([(cube_cell(sigma), len(sigma)) for sigma in K.faces()], boundary)
