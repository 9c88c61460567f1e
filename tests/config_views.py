"""Rational points and per-block views of the standard configuration, and
embedded complexes on points the library did not place, kept to test it.

The library builds every configuration complex on the integer points
StandardConfig.block(i) and scaled_a(i), through _delta_sigma, _a_sigma and
the configuration's sphere_join, which builds each sphere join once per
configuration.  These views state the paper's rational points v_i^l and a_i
from their definitions, so that the tests can compare the integer points
with them, and rebuild the per-block complexes and the
(Delta_sigma, S_sigma, S*_sigma, a_sigma) tuple from the library's own
constructors, the sphere joins read from the configuration's memo, and
the empty space, which the library never builds, from geom_reference.
from_simplices is the checked constructor for any other points, and
realization_AK builds A(K) on the block barycenters.  MovedBarycenter is
the perturbed family: a_1 placed by weights on block 1's vertices, and
pushed off the block by a vector, so that the blockwise verdicts can be
compared with the pairwise oracle where the join lemma applies, and shown
to refuse the rest; in_block_hull says where that is from the point's
coordinates alone.
"""

from fractions import Fraction
from itertools import zip_longest
from operator import mul

from polysmash.complexes import _maximal
from polysmash.geomjoin import (
    EmbeddedComplex,
    StandardConfig,
    _a_sigma,
    _delta_sigma,
    affinely_independent,
)

from geom_reference import empty_embedded

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


def from_simplices(ambient, simplices):
    """The embedded complex of simplices, minimalized; ValueError unless each
    point has ambient coordinates and each simplex independent vertices."""
    maximal = _maximal(frozenset(s) for s in simplices)
    for s in maximal:
        for p in s:
            if len(p) != ambient:
                raise ValueError("point dimension != ambient dimension")
        if not affinely_independent(s):
            raise ValueError("simplex vertices are affinely dependent")
    return EmbeddedComplex(ambient, maximal)


def realization_AK(cfg, K):
    """A(K): the simplices a_sigma, sigma in K -- a realization of K on the
    block barycenters (scaled by L, as every configuration complex is)."""
    if K.m != cfg.m:
        raise ValueError("K and configuration disagree on m")
    sims = [frozenset(map(cfg.scaled_a, sigma)) for sigma in K.faces()]
    return from_simplices(cfg.n, sims)


def embedded_point(p):
    return from_simplices(len(p), [frozenset({p})])


def is_empty(X):
    """X is the empty space {empty simplex}."""
    return X.maximal == frozenset({frozenset()})


def sigma_complexes(cfg, sigma):
    """(Delta_sigma, S_sigma, S*_sigma, a_sigma) for sigma a subset of [m],
    on the configuration's integer points.  The library's sphere joins take
    a block, so an empty sigma or complement is built here, the empty space."""
    sigma = sorted(set(sigma))
    comp = tuple(j for j in range(1, cfg.m + 1) if j not in sigma)
    joins = [cfg.sphere_join(key) if key else empty_embedded(cfg.n)
             for key in (tuple(sigma), comp)]
    return _delta_sigma(cfg, sigma), *joins, _a_sigma(cfg, sigma)


class MovedBarycenter(StandardConfig):
    """The standard configuration with L a_1 = sum_l w_l L v_1^l + push:
    rational weights w, one per vertex of block 1, and a rational vector
    push, () for none.  With weights summing to 1 and no push, a_1 lies in
    block 1's affine hull; in its relative interior iff every weight is
    positive."""

    def __init__(self, m, k, weights, push=()):
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "push", push)
        super().__init__(m, k)

    def _key(self):
        return self.m, self.k, self.weights, self.push

    def scaled_a(self, i):
        if i != 1:
            return StandardConfig.scaled_a(self, i)
        point = [sum(map(mul, self.weights, col)) for col in zip(*self.block(1))]
        return tuple(x + y for x, y in zip_longest(point, self.push, fillvalue=0))


def in_block_hull(cfg, i):
    """L a_i lies in the affine hull of block i's vertices L e_c: 0 off the
    block's coordinates, and L in all, read from the point alone."""
    L = cfg.k + 1
    point = cfg.scaled_a(i)
    off = point[: L * (i - 1)] + point[L * i :]
    return not any(off) and sum(point) == L
