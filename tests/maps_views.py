"""Fraction views of the library's cube maps, kept to test them.

The library computes psi, its inverse and naturality on integer numerators
(geomjoin._psi, _psi_inverse and _naturality) and checks them in
geomjoin.verify_maps; its answers never need the maps' values as Fractions.
These views wrap the integer kernels in Fraction arguments and results, so
that the tests can state each identity on rational points and compare the
kernels with the independent Fraction references in geom_reference.py.
"""

from fractions import Fraction

from polysmash.exactlin import _rational
from polysmash.geomjoin import (
    _naturality,
    _psi,
    _psi_inverse,
    _scaled,
    _simplex_numerators,
    _unit_numerators,
)
from polysmash.report import VerificationReport

F = Fraction


def eval_psi(n, x, lam):
    """Cone over the standard simplex -> the side-2 cube, exactly.

    x is barycentric on the (n-1)-simplex, lam in [0, 1]; lam <= 1/2 scales
    to the inner half, lam >= 1/2 pushes out until the largest coordinate
    reaches 2.  A Fraction view of _psi.
    """
    D, X = _scaled([_rational(c) for c in x])
    lam = _rational(lam)
    Y, E = _psi(n, X, D, lam.numerator, lam.denominator)
    return tuple(F(c, E) for c in Y)


def eval_psi_inverse(n, y):
    """Inverse of eval_psi; y = 0 returns the barycenter at lam = 0.  A
    Fraction view of _psi_inverse."""
    D, Y = _scaled([_rational(c) for c in y])
    (X, S), (a, b) = _psi_inverse(n, Y, D)
    return tuple(F(c, S) for c in X), F(a, b)


def naturality_check_k0(p, l, samples) -> VerificationReport:
    """Coordinate-inclusion naturality of the cube reparametrization:
    padding with zeros before or after psi gives the same point."""
    def numerators():
        for x, lam in samples:
            D, X = _scaled([_rational(c) for c in x])
            lam = _rational(lam)
            yield X, D, lam.numerator, lam.denominator

    return _naturality(p, l, numerators())


def simplex_grid(n, max_denominator):
    """All barycentric points of the (n-1)-simplex with coordinates of the
    form a/d, d <= max_denominator: the Fraction view of
    _simplex_numerators."""
    return [
        tuple(F(c, d) for c in X) for X, d in _simplex_numerators(n, max_denominator)
    ]


def unit_grid(denominator):
    """i / denominator for i = 0, ..., denominator."""
    return [F(a, b) for a, b in _unit_numerators(denominator)]
