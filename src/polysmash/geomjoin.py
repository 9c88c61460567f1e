"""Exact geometry: embedded complexes in Q^n, geometric joins, the
standard configuration's block facts, and the cube reparametrization psi
with its inverse and its naturality, checked on rational grids.

Points are tuples of ints or Fractions, and every predicate is decided
exactly: no floats, and Fractions only for answers.  The standard
configuration lives on integer points, its unit vectors and block
barycenters scaled by L = k + 1, which changes no incidence, containment or
volume ratio.  Every elimination and scaling is exactlin's, one of each:
affine independence and determinants run bareiss on rows scaled by
_scaled, and a coordinate that is not rational, a float included, raises
ValueError through exactlin's _rational.  A BarycentricFrame factors a
simplex once and solves each point once, and a face of it reads that solve.

Join lemma.  Let Delta_1, ..., Delta_m be faces of one simplex on disjoint
vertex sets, and L_i a geometric complex in Delta_i.  Then L_1 * ... * L_m
is a geometric complex, and its carrier is the join of the carriers:
(1) a point of Delta_[m] has unique barycentric coordinates, which grouped
by block give its unique form sum t_i p_i with p_i in Delta_i; (2) so two
join simplices meet in the join of their blockwise intersections, each a
common face; (3) an affine dependence among their vertices sums to 0 on
each block, so it lies in a simplex of one L_i.

Stone's W_sigma = Delta_sigma * S*_sigma = a_sigma * S_[m] is such a join,
Delta_i = a_i * S_i on the blocks of sigma and S_j off them, and two facts
decide its geometry: (i) the n block vertices are independent, read from
the rank of the configuration's frame of Delta_[m], whose faces are each
Delta_sigma, each Delta_i and S_i, and each piece of a W_sigma; (ii) each
a_i lies in the relative interior of Delta_i, its frame coordinates
positive on block i's columns and 0 off them, which by the lemma holds iff
a_[m] * S_[m], holding every W_sigma and their union over K, is a
geometric join.  verify_gjs reads the same per-block test and w1 tiles
each Delta_i by a_i * S_i, so no command tests a pair of simplices.  A failed fact, or an a_i
off its block's affine hull, where the lemma says nothing, is an
InvariantError: the configuration is the program's own.

geometric_join only builds.  Proper intersection keeps one proof, a
separating functional in closed form, one dot product per vertex, and one
decider, the exact LP, which runs when the functional declines and finds
an improper pair's witness; the benchmark's spans trace both, and the
tests' pairwise joinability oracle calls them.  The psi maps and
verify_maps compare integer numerators by cross-multiplication over a grid
in lowest terms.  The per-point and per-pair loops run in builtins
(sum over map(mul, ...), min, max, filter) and list comparisons, not in
generator expressions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement, groupby
from math import gcd, prod
from operator import itemgetter, mul, sub

from .chains import homology, simplicial_chain_complex
from .complexes import SimplicialComplex, _maximal
from .exactlin import (
    InvariantError,
    RationalLP,
    _Frozen,
    _integer_points,
    _pivot,
    _scaled,
    bareiss,
    lp_max,
)
from .report import Check, VerificationReport

F = Fraction


# ---------------------------------------------------------------------------
# points and exact linear helpers
# ---------------------------------------------------------------------------


def affinely_independent(points):
    """The homogeneous rows (1, p), each scaled to integers, have full rank."""
    rows = [_scaled((1, *p))[1] for p in points]
    return bareiss(rows)[0] == len(rows)


class BarycentricFrame:
    """Barycentric coordinates against one vertex list, factored once.

    Fraction-free Gauss-Jordan runs once on [Q M | Q], where M holds the
    homogeneous vertex columns (1, v) and the diagonal Q scales each row of
    M to integers: one exactlin._pivot per pivot column, the LP's pivot,
    with the pivot columns as its basis.  _pivot checks that each division
    is exact and turns a negative pivot positive, so the elimination ends
    with every pivot equal to one integer d > 0, and its right half is the
    integer matrix E with E M reduced.  Each point p then costs one sparse
    integer mat-vec E b, b = q (1, p): the solve rows give the coordinates
    times d q at the pivot columns (free coordinates are 0), and the
    consistency rows vanish unless p leaves the affine hull; the frame keeps
    that result for the points it has seen.  E keeps each row as its
    nonzeros (indices, values): a dot product is one builtin sum over
    map(mul, values, map(b.__getitem__, indices)).  Each row stays a nonzero
    multiple of the row plain Gauss-Jordan on [M | I] holds, so the pivot
    columns and coordinates are those plain elimination on M t = (1, p)
    finds, for affinely dependent vertices too, and rank counts the pivots.
    """

    def __init__(self, vertices):
        verts = [(1, *v) for v in vertices]
        nv = len(verts)
        m = len(verts[0]) if verts else 1
        A = []
        for i in range(m):
            q, row = _scaled([v[i] for v in verts])
            row += [0] * m
            row[nv + i] = q
            A.append(row)
        pivots = [None] * m  # the basis: pivots[r] is row r's pivot column
        r, d = 0, 1
        for c in range(nv):
            for pr in range(r, m):
                if A[pr][c]:
                    break
            else:
                continue
            A[r], A[pr] = A[pr], A[r]
            d = _pivot(A, pivots, d, r, c)
            r += 1
            if r == m:
                break
        self.size, self.rank = nv, r
        self._den = d
        self._solve = [(c, _nonzeros(A[i][nv:])) for i, c in enumerate(pivots[:r])]
        self._consistency = [_nonzeros(A[i][nv:]) for i in range(r, m)]
        self._solved = {}  # point -> _solve_point(point)
        self._column = {v: 1 << c for c, v in enumerate(vertices)}

    def face(self, vertices):
        """The bitmask of the columns of some distinct frame vertices: their face."""
        return sum(map(self._column.__getitem__, vertices))

    def _numerators(self, p):
        """(q, t, support): q (1, p) integer, the coordinates t / (d q) and
        the bitmask of t's nonzeros, or None off the affine hull.  Each point
        is solved once per frame."""
        if p not in self._solved:
            self._solved[p] = self._solve_point(p)
        return self._solved[p]

    def _solve_point(self, p):
        q, b = _scaled((1, *p))
        get = b.__getitem__
        for indices, values in self._consistency:
            if sum(map(mul, values, map(get, indices))):
                return None
        t = [0] * self.size
        support = 0
        for c, (indices, values) in self._solve:
            t[c] = x = sum(map(mul, values, map(get, indices)))
            support |= bool(x) << c
        return q, t, support

    def coords(self, p):
        """t with sum(t) = 1 and sum t_i v_i = p, or None off the affine hull."""
        solved = self._numerators(p)
        if solved is None:
            return None
        q, t, _ = solved
        den = self._den * q
        return tuple(F(x, den) for x in t)

    def contains(self, p, face=-1):
        """p lies in the closed simplex, or its face on the columns in the
        bitmask face: in the hull, every coordinate >= 0 and 0 off the face.
        (Without vertices the hull is empty, so t is never empty here.)"""
        solved = self._numerators(p)
        return solved is not None and min(solved[1]) >= 0 and not solved[2] & ~face

    def volume_ratio(self, piece, face=-1):
        """vol(piece) / vol(face), by default the frame simplex, for a piece
        with as many vertices lying in the face's affine hull, None if it
        leaves it: |det| of the coordinates on the face's columns."""
        pc = sorted(piece)
        cols = [c for c in range(self.size) if face >> c & 1]
        if len(pc) != len(cols):
            return None
        rows = []
        scale = 1
        for p in pc:
            solved = self._numerators(p)
            if solved is None or solved[2] & ~face:
                return None
            q, t, _ = solved
            rows.append([t[c] for c in cols])
            scale *= self._den * q
        det = determinant(rows)
        return F(abs(det.numerator), det.denominator * scale)


def _nonzeros(row):
    """The nonzero entries of row as (indices, values)."""
    indices = [j for j, x in enumerate(row) if x]
    return indices, [row[j] for j in indices]


def barycentric_coords(vertices, p):
    """Coordinates t with sum(t) = 1 and sum t_i v_i = p, or None.

    Unique when the vertices are affinely independent (coords may be
    negative: p need not lie inside the simplex).  Callers with many points
    against one simplex build its BarycentricFrame once instead.
    """
    return BarycentricFrame(vertices).coords(p)


def determinant(rows):
    """Determinant of a square rational matrix: Bareiss elimination on the
    rows scaled to integers, divided by the product of the scales."""
    scaled = [_scaled(row) for row in rows]
    return F(bareiss([b for _, b in scaled])[1], prod(q for q, _ in scaled))


# ---------------------------------------------------------------------------
# embedded complexes
# ---------------------------------------------------------------------------


class EmbeddedComplex(_Frozen):
    """Simplicial complex embedded in Q^n, n = ambient, stored by maximal simplices.

    maximal is a frozenset of simplices, each a frozenset of points; faces
    are all subsets.  The complex {empty simplex} is the empty space (and
    the identity for joins).
    """

    def __init__(self, ambient, maximal):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "maximal", maximal)

    def _key(self):
        return self.ambient, self.maximal

    @classmethod
    def union(cls, parts):
        """The union of complexes in one ambient space.  Their simplices are
        independent, and so is every subset: only minimalizing is left."""
        return cls(parts[0].ambient, _maximal(s for X in parts for s in X.maximal))

    def vertices(self):
        return sorted({p for s in self.maximal for p in s})

    def chain_complex(self):
        """Augmented simplicial chain complex on the vertices relabelled
        1, 2, ... in sorted order."""
        label = {p: i for i, p in enumerate(self.vertices(), start=1)}
        facets = frozenset(tuple(sorted(label[p] for p in s)) for s in self.maximal)
        return simplicial_chain_complex(SimplicialComplex(max(len(label), 1), facets))

    def homology(self):
        return homology(self.chain_complex())


def _simplex(ambient, points):
    """The complex of one simplex on points, built untested."""
    return EmbeddedComplex(ambient, frozenset([frozenset(points)]))


# ---------------------------------------------------------------------------
# proper intersection and geometric joins
# ---------------------------------------------------------------------------


def proper_intersection(simplex_a, simplex_b):
    """conv(A) n conv(B) == conv(A n B), decided exactly.

    A separating functional is tried first (see _separated); it proves
    properness with one dot product per vertex, and at once when one simplex
    is empty or a face of the other.  When it declines, an exact LP
    maximizes the total barycentric mass on non-shared vertices over all
    pairs of representations of a common point: proper iff the maximum is 0
    (or the intersection is empty), and an optimal point gives the witness.
    Returns (bool, witness point or None).
    """
    A = sorted(simplex_a)
    B = sorted(simplex_b)
    shared = set(A) & set(B)
    if _separated(A, B, shared):
        return True, None
    n = len(A[0])
    objective = [int(p not in shared) for p in A] + [int(q not in shared) for q in B]
    a_eq = [[p[d] for p in A] + [-q[d] for q in B] for d in range(n)]
    b_eq = [0] * n
    a_eq.append([1] * len(A) + [0] * len(B))
    a_eq.append([0] * len(A) + [1] * len(B))
    b_eq += [1, 1]
    res = lp_max(RationalLP(objective, a_eq=a_eq, b_eq=b_eq))
    if res.status == "infeasible":
        return True, None
    if res.status != "optimal":
        raise RuntimeError(f"proper-intersection LP ended {res.status!r}: {res}")
    if res.value == 0:
        return True, None
    u = res.point[: len(A)]
    witness = tuple(sum(ui * p[d] for ui, p in zip(u, A)) for d in range(n))
    return False, witness


def _separated(A, B, shared):
    """A linear functional h certifies conv(A) n conv(B) = conv(S), S = shared.

    With A' = A - S and B' = B - S, h is |A'| sum(B') - |B'| sum(A'), the
    difference of the two centroids scaled to integers: a closed form of
    (A, B), so a checker can recompute it.  The points are scaled by one
    common positive integer first, which keeps properness.  If A' or B' is
    empty, one simplex is a face of the other.

    Why an accepted h is a proof (_separates checks its hypotheses): let
    x = sum lambda_p p = sum mu_q q be a common point (convex combinations
    over A and over B).  With h.s = c on S, h.p < c on A' and h.q > c on
    B', we get h.x <= c, with equality only if lambda lives on S, and
    h.x >= c, with equality only if mu lives on S.  So h.x = c and
    x in conv(S).  With S empty, max over A' < min over B' leaves no common
    point.  False means only that this h proves nothing, and the exact LP
    decides the pair.
    """
    a1 = [p for p in A if p not in shared]
    b1 = [q for q in B if q not in shared]
    _, pts = _integer_points(a1 + b1 + sorted(shared))
    if not a1 or not b1:
        return True
    na, nb = len(a1), len(b1)
    a1, b1, s = pts[:na], pts[na : na + nb], pts[na + nb :]
    h = [na * sum(qs) - nb * sum(ps) for ps, qs in zip(zip(*a1), zip(*b1))]
    return _separates(h, a1, b1, s)


def _separates(h, a1, b1, s):
    """h.s is one value c on s, h.p < c on a1 and h.q > c on b1; with s
    empty, max h.p < min h.q.  Points are integer lists."""
    top = max(_vdot(h, p) for p in a1)
    bottom = min(_vdot(h, q) for q in b1)
    if not s:
        return top < bottom
    c = _vdot(h, s[0])
    return top < c < bottom and all(_vdot(h, p) == c for p in s[1:])


def _vdot(u, v):
    return sum(map(mul, u, v))


def geometric_join(X: EmbeddedComplex, Y: EmbeddedComplex):
    """The complex of the joined simplices s | t, s in X and t in Y,
    minimalized.  Only builds, and tests nothing: the configuration's two
    facts decide whether its joins are geometric."""
    return EmbeddedComplex(X.ambient, _maximal(s | t for s in X.maximal for t in Y.maximal))


# ---------------------------------------------------------------------------
# the standard configuration
# ---------------------------------------------------------------------------


class StandardConfig(_Frozen):
    """v_i^l = e_{(k+1)(i-1)+l}; a_i the barycenter of its block; Delta_i the
    block simplex; S_i its boundary (all proper faces).

    Every configuration complex is built on the integer points of block(i)
    and scaled_a(i), L v_i^l and L a_i with L = k + 1: a uniform positive
    scaling keeps every independence, containment, proper intersection and
    volume ratio, and integer points hash and compare fast.  A block index
    outside [1, m] raises ValueError, so no complex has a missing block.
    (m, k) alone decides the frame of Delta_[m], fact (i) and the sphere
    joins: each is built or decided once per configuration, and kept.
    Fact (ii) and each block's tiling read that frame again on each call,
    one solve per point, kept by the frame.
    """

    def __init__(self, m, k):
        if m < 1 or k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_joins", {})  # key -> sphere_join(key)
        if self.frame.rank < self.n:
            raise InvariantError("the block vertices are affinely dependent")

    def _key(self):
        return self.m, self.k

    @cached_property
    def frame(self):
        """Delta_[m]'s BarycentricFrame: it solves each point once."""
        return BarycentricFrame([p for i in range(1, self.m + 1) for p in self.block(i)])

    def interior(self, i):
        """a_i lies in the relative interior of Delta_i: its coordinates in
        the frame of Delta_[m] are positive on block i's columns (the frame
        lists the blocks in order) and 0 on every other.  An a_i off block
        i's affine hull raises InvariantError: the join lemma needs a_i in
        Delta_i's hull to decide anything."""
        a = self.scaled_a(i)
        cols = self._coordinates(i)
        solved = self.frame._numerators(a)
        if solved is None or solved[2] & ~sum(1 << c for c in cols):
            raise InvariantError(f"a_{i} = {a} is off the affine hull of Delta_{i}")
        return min(solved[1][c] for c in cols) > 0

    def fact_ii(self):
        """Fact (ii): a_[m] * S_[m] is a geometric join.  By the join lemma
        it is one iff each a_i * S_i is one in Delta_i, and a point of a
        simplex's hull cones its boundary into a geometric complex iff it
        lies in the simplex's relative interior: on its boundary it is
        dependent with a facet, and outside it two cones overlap.  So fact
        (ii) holds iff interior(i) holds for every block, and InvariantError
        names the first a_i that fails."""
        for i in range(1, self.m + 1):
            if not self.interior(i):
                raise InvariantError(f"a_{i} = {self.scaled_a(i)} is not in the"
                                     f" relative interior of Delta_{i}")

    @property
    def n(self):
        return (self.k + 1) * self.m

    def _coordinates(self, i):
        """The coordinates of block i, 0-based."""
        if not 1 <= i <= self.m:
            raise ValueError(f"block index {i} is outside [1, {self.m}]")
        L = self.k + 1
        return range(L * (i - 1), L * i)

    def block(self, i):
        """The vertices of Delta_i scaled by L: L v_i^1, ..., L v_i^L."""
        L = self.k + 1
        return [
            tuple(L if j == c else 0 for j in range(self.n))
            for c in self._coordinates(i)
        ]

    def scaled_a(self, i):
        """L a_i: 1 on the coordinates of block i, 0 elsewhere."""
        cs = self._coordinates(i)
        return tuple(int(j in cs) for j in range(self.n))

    def sphere(self, i):
        """S_i = boundary of Delta_i: all proper faces (the empty space if k=0)."""
        pts = self.block(i)
        facets = frozenset(map(frozenset, combinations(pts, len(pts) - 1)))
        return EmbeddedComplex(self.n, facets)

    def sphere_join(self, key):
        """The join of the block spheres i in key, a nonempty increasing tuple:
        its prefix's join with its last sphere, built once."""
        if key not in self._joins:
            if len(key) > 1:
                self._joins[key] = geometric_join(self.sphere_join(key[:-1]),
                                                  self.sphere_join(key[-1:]))
            else:
                self._joins[key] = self.sphere(*key)
        return self._joins[key]


def standard_config(m, k) -> StandardConfig:
    return StandardConfig(m, k)


def _delta_sigma(config, sigma):
    """Delta_sigma: one simplex on the blocks of sigma, empty if sigma is."""
    return _simplex(config.n, (p for i in sigma for p in config.block(i)))


def _a_sigma(config, sigma):
    """a_sigma: the simplex on the barycenters a_i, i in sigma, empty if sigma
    is.  Built untested: each verifier decides it inside a larger set."""
    return _simplex(config.n, map(config.scaled_a, sigma))


# ---------------------------------------------------------------------------
# batch verifiers
# ---------------------------------------------------------------------------


def verify_gji(config: StandardConfig, sigma) -> VerificationReport:
    """The collections {Delta_i}, {S_i}, {a_i} over sigma are each families of
    geometrically joinable spaces: by fact (i) Delta_i and S_i are faces of
    Delta_[m], joinable iff pairwise disjoint, and a vertex off the block
    vertices raises InvariantError; the a_i, points, iff affinely independent."""
    sigma = sorted(set(sigma))
    report = VerificationReport(f"gji m={config.m} k={config.k} sigma={sigma}")
    verdicts = {}
    for name, members in [("Delta_i", [config.block(i) for i in sigma]),
                          ("S_i", [config.sphere_join((i,)).vertices() for i in sigma])]:
        vertices = set().union(*members)
        if off := vertices - config.frame._column.keys():
            raise InvariantError(f"{name} has the point {min(off)} off the block vertices")
        verdicts[name] = len(vertices) == sum(map(len, members))
    verdicts["a_i"] = affinely_independent(map(config.scaled_a, sigma))
    for name, ok in verdicts.items():
        report.add(Check(f"collection {name} joinable", ok, "joinable",
                         "joinable" if ok else "not joinable", "gji"))
    return report


def verify_gjs(config: StandardConfig, sigma) -> VerificationReport:
    """Delta_sigma = a_sigma *~ S_sigma: joinability, containment, proper
    intersections, and the exact volume identity (the join tiles the block
    simplex).  By the join lemma a_sigma * S_sigma is a geometric join iff
    each a_i * S_i, i in sigma, is, iff each a_i lies in the relative
    interior of Delta_i: config.interior decides the joinability line, and
    an a_i off its block's affine hull raises InvariantError."""
    sigma = sorted(set(sigma))
    if not sigma:
        raise ValueError("sigma must be nonempty")
    report = VerificationReport(f"gjs m={config.m} k={config.k} sigma={sigma}")
    frame = config.frame  # Delta_sigma is its face on sigma's blocks
    face = frame.face(p for i in sigma for p in config.block(i))
    interior = [config.interior(i) for i in sigma]
    ok = all(interior)
    report.add(Check("a_sigma joinable to S_sigma", ok, "joinable",
                     "joinable" if ok else "not joinable", "gjs"))
    # the pieces are the join simplices a_sigma | t, t in S_sigma (at k = 0
    # the empty one), built untested; they meet properly iff each block of
    # sigma has its a_i interior, so each block that has not is a violation
    pieces = list(geometric_join(_a_sigma(config, sigma),
                                 config.sphere_join(tuple(sigma))).maximal)

    # containment is decided once per join vertex; a piece lies inside iff its vertices do
    verts = set().union(*pieces)
    inside = {p for p in verts if frame.contains(p, face)}
    verts_ok = inside == verts
    report.add(Check("join vertices inside Delta_sigma", verts_ok, "contained",
                     "contained" if verts_ok else "outside", "gjs"))

    # at k = 0, S_sigma is the empty space and the join is a_sigma itself;
    # either way the pieces tile Delta_sigma, of normalized volume 1
    ratios = [frame.volume_ratio(s, face) for s in pieces]
    total = sum(r for r in ratios if r is not None)
    violations = (ratios.count(None) + interior.count(False)
                  + sum(p not in inside for s in pieces for p in s))
    report.add(Check("pieces intersect properly and stay inside", not violations,
                     "no violations", f"{violations} violations", "gjs"))
    report.add(Check("volume identity (tiling of Delta_sigma)", total == 1, "1",
                     str(total), "gjs"))
    return report


def verify_W_union(config: StandardConfig, K) -> VerificationReport:
    """Per sigma in K (w1): Delta_sigma *~ S*_sigma and a_sigma *~ S_[m] have
    equal carriers; the union of the a_sigma * S_[m] over K (w2) has the
    homology of the km-fold suspension.  By the join lemma both
    presentations are joins over the blocks, S_j on each block j off sigma,
    so their carriers agree iff Delta_i and a_i * S_i do on each block i of
    sigma: one carrier_equal per block and call, and w1 at sigma is the
    conjunction over sigma's blocks."""
    if K.m != config.m:
        raise ValueError("K and configuration disagree on m")
    report = VerificationReport(f"W m={config.m} k={config.k}")
    full = tuple(range(1, config.m + 1))
    config.fact_ii()  # with fact (i): every a_sigma * S_[m] and their union are geometric
    tiled = {i: carrier_equal(_delta_sigma(config, (i,)),
                              geometric_join(_a_sigma(config, (i,)), config.sphere_join((i,))),
                              config.frame) for i in full}
    s_full = config.sphere_join(full)
    sides = []
    for sigma in K.faces():
        sides.append(geometric_join(_a_sigma(config, sigma), s_full))
        ok = all(map(tiled.__getitem__, sigma))
        report.add(Check(f"W_sigma two presentations agree, sigma={sorted(sigma)}",
                         ok, "equal carriers", "equal" if ok else "different", "w1"))

    union = EmbeddedComplex.union(sides)
    H_union = union.homology()
    H_expected = homology(simplicial_chain_complex(K)).shifted(config.k * config.m)
    report.add(Check("union W_sigma homology = km-shifted homology of K",
                     H_union == H_expected,
                     str(H_expected), str(H_union), "w2"))
    return report


def carrier_equal(A: EmbeddedComplex, B: EmbeddedComplex, frame):
    """Certify |A| = |B|: each simplex P of A is tiled by the simplices of B
    inside it (by vertices, hence by convexity), of volume ratios summing to
    1, and each simplex of B lies in some P.  B's simplices must meet
    properly, as those of a_i * S_i do by fact (ii): then the tiles have
    disjoint interiors and cover P.  Each P is a face of frame, an
    independent BarycentricFrame on A's vertices, which reads P's columns;
    verify_W_union tiles each Delta_i by a_i * S_i against Delta_[m]'s."""
    pieces_a = [s for s in A.maximal if s]
    pieces_b = [s for s in B.maximal if s]
    if not pieces_a or not pieces_b:
        return A.maximal == B.maximal
    verts_b = set().union(*pieces_b)
    assigned = set()
    for P in pieces_a:
        face = frame.face(P)
        inside = {p for p in verts_b if frame.contains(p, face)}
        tiles = list(filter(inside.issuperset, pieces_b))
        total = F(0)
        for Q in tiles:
            assigned.add(Q)
            if len(Q) == len(P):
                r = frame.volume_ratio(Q, face)
                if r is None:
                    return False
                total += r
        if total != 1:
            return False
    return assigned == set(pieces_b)


# ---------------------------------------------------------------------------
# the cube reparametrization psi
# ---------------------------------------------------------------------------


def _psi(n, X, D, lams):
    """psi on integers over a row of lam: x = X / D (D > 0) and each
    lam = p / q (q > 0) of lams give psi(x, lam) = Y / E, returned as one
    (Y, E) per lam, in order.

    The point is checked once, before any lam is read, and each lam as it
    is reached, with the messages a call on that lam alone would raise.
    With M = max X, the scale is 2 p / q on the inner half and
    ((2q - 2p) M + 2 D (2p - q)) / (q M) outside it.
    """
    if len(X) != n:
        raise ValueError("x has wrong length")
    if (X and min(X) < 0) or sum(X) != D:
        raise ValueError("x is not barycentric")
    M = max(X) if X else 0
    row = []
    for p, q in lams:
        if not 0 <= p <= q:
            raise ValueError("lambda must be in [0, 1]")
        if not D or not q:  # here D = sum X >= 0 and q >= p >= 0
            raise ValueError("x and lambda need positive denominators")
        if 2 * p <= q:
            num, den = 2 * p, q * D
        else:
            num, den = (2 * q - 2 * p) * M + 2 * D * (2 * p - q), q * M * D
        row.append(([num * c for c in X], den))
    return row


def _psi_inverse(n, Y, E):
    """The inverse of psi on integers: y = Y / E (E > 0) gives
    ((X, S), (a, b)) with x = X / S and lam = a / b.

    With S = sum Y and M = max Y: x = Y / S, and lam = S / 2E when S <= E,
    else (S M - 2 E M + 2 E S) / (2 E (2S - M)), which solves
    S / E = (2 - 2 lam) + (2 lam - 1) 2 S / M for lam.  Both are
    homogeneous in (Y, E), so any common denominator gives the same point.
    """
    if len(Y) != n:
        raise ValueError("y has wrong length")
    if Y:
        M = max(Y)
        if min(Y) < 0 or M > 2 * E:
            raise ValueError("y outside the cube [0, 2]^n")
    if E <= 0:  # E < 0 only with y empty; E = 0 with y = 0
        raise ValueError("y needs a positive denominator")
    S = sum(Y)
    if S == 0:
        return ([1] * n, n), (0, 1)
    if S <= E:
        return (Y, S), (S, 2 * E)
    return (Y, S), (S * M - 2 * E * M + 2 * E * S, 2 * E * (2 * S - M))


def _naturality(p, l, samples):
    """Naturality of psi under zero padding on integer samples (X, D, a, b),
    x = X / D and lam = a / b: psi_l(x, 0...0) and (psi_p(x), 0...0) are
    compared by cross-multiplication.  Each run of consecutive samples that
    share a point is one row of lam for each side."""
    if not 1 <= p <= l:
        raise ValueError("need 1 <= p <= l")
    report = VerificationReport(f"naturality p={p} l={l}")
    pad = [0] * (l - p)
    count = bad = 0
    for (X, D), run in groupby(samples, itemgetter(0, 1)):
        lams = [(a, b) for _, _, a, b in run]
        count += len(lams)
        padded = _psi(l, list(X) + pad, D, lams)
        for (lhs, e_lhs), (rhs, e_rhs) in zip(padded, _psi(p, X, D, lams)):
            bad += [u * e_rhs for u in lhs] != [v * e_lhs for v in rhs + pad]
    report.add(Check(f"psi naturality on {count} samples", not bad,
                     "all equal", f"{bad} mismatches", "naturality k=0"))
    return report


def verify_maps(grid) -> VerificationReport:
    """The cube maps on rational grids of denominators up to grid, for
    n <= 4: the seam at lam = 1/2, the outer boundary at lam = 1, the round
    trip psi^-1 o psi = id for lam > 0, and naturality under padding (on
    the grid capped at 4).  psi runs once per point of the simplex grid, on
    the row 1/2, 1 and the grid's lam > 0, and psi^-1 once per round-trip
    sample.  Every identity compares integer numerators by
    cross-multiplication."""
    report = VerificationReport(f"maps grid={grid}")
    # lam > 0 only: psi(., 0) is the cone point, which psi^-1 sends to the
    # barycenter whatever x was
    lams = _unit_numerators(grid)[1:]
    row = [(1, 2), (1, 1), *lams]
    for n in range(1, 5):
        seam_ok = outer_ok = round_ok = True
        for X, D in _simplex_numerators(n, grid):
            (Y, E), (Y1, E1), *ys = _psi(n, X, D, row)
            seam_ok &= [y * D for y in Y] == [c * E for c in X]
            outer_ok &= max(Y1) == 2 * E1
            for (a, b), (Y, E) in zip(lams, ys):
                (X2, S), (a2, b2) = _psi_inverse(n, Y, E)
                round_ok &= a2 * b == a * b2 and [u * D for u in X2] == [c * S for c in X]
        report.add(Check(f"psi seam agreement n={n}", seam_ok, "x at lam=1/2",
                         "ok" if seam_ok else "mismatch", "Psidef"))
        report.add(Check(f"psi(.,1) hits the outer boundary n={n}", outer_ok,
                         "max coord 2", "ok" if outer_ok else "mismatch", "CD"))
        report.add(Check(f"psi round trip n={n}", round_ok, "identity",
                         "ok" if round_ok else "mismatch", "Psidef"))
    small = min(grid, 4)
    small_lams = _unit_numerators(small)
    for l in range(1, 5):
        for p in range(1, l + 1):
            samples = [
                (X, D, a, b)
                for X, D in _simplex_numerators(p, small)
                for a, b in small_lams
            ]
            report.extend(_naturality(p, l, samples))
    return report


# ---------------------------------------------------------------------------
# rational sample grids
# ---------------------------------------------------------------------------


def _simplex_numerators(n, max_denominator):
    """Each barycentric point of the (n-1)-simplex with denominator at most
    max_denominator once, in lowest terms, as (X, d) with x = X / d: the
    compositions X of each d into n parts whose entries have gcd 1, in
    lexicographic order: the gaps between the cuts 0 <= c_1 <= ... <=
    c_(n-1) <= d, taken in lexicographic order of the cuts."""
    if n < 1:
        raise ValueError("need n >= 1")
    if max_denominator < 1:
        raise ValueError("need a denominator >= 1")
    return [
        (X, d)
        for d in range(1, max_denominator + 1)
        for cuts in combinations_with_replacement(range(d + 1), n - 1)
        for X in [tuple(map(sub, (*cuts, d), (0, *cuts)))]
        if gcd(*X) == 1
    ]


def _unit_numerators(denominator):
    """i / denominator for i = 0, ..., denominator, in lowest terms as (a, b)."""
    if denominator < 1:
        raise ValueError("need a denominator >= 1")
    d = denominator
    return [(i // gcd(i, d), d // gcd(i, d)) for i in range(d + 1)]
