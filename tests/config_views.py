"""Rational points and per-block views of the standard configuration, kept
to test it.

The library builds every configuration complex on the integer points
StandardConfig.block(i) and scaled_a(i), through _delta_sigma, _a_sigma and
_sphere_join.  These views state the paper's rational points v_i^l and a_i
from their definitions, so that the tests can compare the integer points
with them, and rebuild the per-block complexes and the
(Delta_sigma, S_sigma, S*_sigma, a_sigma) tuple from the library's own
constructors.
"""

from fractions import Fraction

from polysmash.geomjoin import (
    EmbeddedComplex,
    _a_sigma,
    _delta_sigma,
    _sphere_join,
)

F = Fraction


def unit(n, i):
    """Standard basis vector e_i (1-based) in Q^n."""
    return tuple(F(1) if j == i else F(0) for j in range(1, n + 1))


def v(cfg, i, l):
    """v_i^l = e_{(k+1)(i-1)+l}."""
    return unit(cfg.n, (cfg.k + 1) * (i - 1) + l)


def a(cfg, i):
    """a_i, the barycenter of the block v_i^1, ..., v_i^{k+1}."""
    L = cfg.k + 1
    block = [v(cfg, i, l) for l in range(1, L + 1)]
    return tuple(sum(cs) / L for cs in zip(*block))


def embedded_point(p):
    return EmbeddedComplex.from_simplices(len(p), [frozenset({p})])


def is_empty(X):
    """X is the empty space {empty simplex}."""
    return X.maximal == frozenset({frozenset()})


def sigma_complexes(cfg, sigma):
    """(Delta_sigma, S_sigma, S*_sigma, a_sigma) for sigma a subset of [m],
    on the configuration's integer points."""
    sigma = sorted(set(sigma))
    comp = tuple(j for j in range(1, cfg.m + 1) if j not in sigma)
    joins = {}
    return (
        _delta_sigma(cfg, sigma),
        _sphere_join(cfg, joins, tuple(sigma)),
        _sphere_join(cfg, joins, comp),
        _a_sigma(cfg, sigma),
    )
