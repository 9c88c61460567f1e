"""The cubical model of the (D^1, S^0) polyhedral product over K.

Test-only: the library builds the reduction route as C(K(J)) shifted up by
one.  Here that complex is built the long way, as the cellular chains of the
polyhedral product inside [0,2]^m and its quotient by the outer boundary, so
that the tests state the identity once.

A cube cell ("cube", sigma, twos) is a face sigma of K spanning [0,2] in its
own coordinates, with the coordinates in twos pinned at 2 and every other one
at 0.
"""

from itertools import combinations

from polysmash.complexes import SimplicialComplex
from polysmash.smashmodel import _assemble


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

    cc = _assemble(list(cells(K)) + [(aug, -1)], boundary)
    cc.check_dd_zero()
    return cc


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

    cc = _assemble([(cube_cell(sigma), len(sigma)) for sigma in K.faces()], boundary)
    cc.check_dd_zero()
    return cc
