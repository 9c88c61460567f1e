"""The full cubical model of the (D^1, S^0) polyhedral product over K.

Test-only: the library keeps just its outer-boundary quotient.  The full
complex is built here from the library's cube cells and boundary, to check
that the quotient is taken from a genuine chain complex.
"""

from itertools import combinations

from polysmash.complexes import SimplicialComplex
from polysmash.smashmodel import _assemble, cube_boundary, cube_cell


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

    return _assemble(list(cells(K)) + [(aug, -1)], boundary)
