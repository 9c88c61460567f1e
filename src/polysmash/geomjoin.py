"""Exact geometry: embedded complexes in Q^n, geometric joins,
general-position (joinability) predicates, and the cube reparametrization
psi with its inverse and its naturality, checked on rational grids.

Points are tuples of ints or Fractions, and every predicate is decided
exactly: no floats, and Fractions only for answers.  The standard
configuration lives on integer points, its unit vectors and block
barycenters scaled by L = k + 1, which changes no incidence, containment or
volume ratio.  Every elimination and scaling is exactlin's, one of each:
affine independence and determinants run bareiss on rows scaled by
_scaled, and a coordinate that is not rational, a float included, raises
ValueError through exactlin's _rational.  Proper intersection has one
proof, a separating functional in closed form, one dot product per vertex,
and one decider, the exact LP, which runs when the functional declines and
finds an improper pair's witness.  A BarycentricFrame factors a simplex
once and solves each point once, and a face of it reads that solve.

geometric_join only builds.  Two facts of (m, k) alone decide Stone's
W_sigma = Delta_sigma * S*_sigma = a_sigma * S_[m], once per StandardConfig:
(i) the n block vertices are independent, read from the rank of its frame of
Delta_[m], whose faces are each Delta_sigma and each piece of a Delta_sigma *
S*_sigma; (ii) a_[m] misses S_[m], and a_[m] * S_[m], which holds every
W_sigma and their union over K, is a geometric join.  A failed fact is an
InvariantError: the configuration is the program's own.  joinable decides
(ii) and each step of verify_gji's folds, which implies every pair.  The psi
maps and verify_maps compare integer numerators by cross-multiplication over
a grid in lowest terms.  The per-point and per-pair loops run in builtins
(sum over map(mul, ...), min, max, filter) and list comparisons, not in
generator expressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from math import gcd, prod
from operator import mul

from .chains import homology, simplicial_chain_complex
from .complexes import SimplicialComplex, _maximal
from .exactlin import (
    InvariantError,
    RationalLP,
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


@dataclass(frozen=True)
class EmbeddedComplex:
    """Simplicial complex embedded in Q^n, stored by maximal simplices.

    Each simplex is a frozenset of points; faces are all subsets.  The
    complex {empty simplex} is the empty space (and the identity for joins).
    """

    ambient: int
    maximal: frozenset  # of frozensets of points

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


def empty_embedded(ambient):
    return _simplex(ambient, ())


# ---------------------------------------------------------------------------
# joinability and geometric joins
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


def joinable(X: EmbeddedComplex, Y: EmbeddedComplex):
    """Decide geometric joinability of two embedded complexes.

    (a) every pair of simplices (one from each side) is disjoint with an
    affinely independent combined vertex set, and (b) every two of the
    resulting join simplices intersect properly.  Returns (ok, failures),
    failures a list of dicts with kind, simplices and, for an improper
    intersection, its witness.
    """
    if X.ambient != Y.ambient:
        raise ValueError("ambient dimension mismatch")
    failures = []
    join_simplices = []
    for s in X.maximal:
        for t in Y.maximal:
            if s & t or not affinely_independent(s | t):
                failures.append(
                    {"kind": "affine dependence", "simplices": (sorted(s), sorted(t))}
                )
            else:
                join_simplices.append(s | t)
    for sa, sb in combinations(join_simplices, 2):
        ok, witness = proper_intersection(sa, sb)
        if not ok:
            failures.append(
                {
                    "kind": "improper intersection",
                    "simplices": (sorted(sa), sorted(sb)),
                    "witness": witness,
                }
            )
    return not failures, failures


def geometric_join(X: EmbeddedComplex, Y: EmbeddedComplex):
    """The complex of the joined simplices s | t, s in X and t in Y,
    minimalized.  Only builds, and tests nothing: joinable, or the
    configuration's two facts, decide whether a join is geometric."""
    return EmbeddedComplex(X.ambient, _maximal(s | t for s in X.maximal for t in Y.maximal))


# ---------------------------------------------------------------------------
# the standard configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardConfig:
    """v_i^l = e_{(k+1)(i-1)+l}; a_i the barycenter of its block; Delta_i the
    block simplex; S_i its boundary (all proper faces).

    Every configuration complex is built on the integer points of block(i)
    and scaled_a(i), L v_i^l and L a_i with L = k + 1: a uniform positive
    scaling keeps every independence, containment, proper intersection and
    volume ratio, and integer points hash and compare fast.  A block index
    outside [1, m] raises ValueError, so no complex has a missing block.
    (m, k) alone decides the frame of Delta_[m], facts (i) and (ii) and the
    sphere joins: each is built or decided once per configuration, and kept.
    """

    m: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        object.__setattr__(self, "_joins", {})  # key -> sphere_join(key)
        if self.frame.rank < self.n:
            raise InvariantError("the block vertices are affinely dependent")

    @cached_property
    def frame(self):
        """Delta_[m]'s BarycentricFrame: it solves each point once."""
        return BarycentricFrame([p for i in range(1, self.m + 1) for p in self.block(i)])

    @cached_property
    def fact_ii(self):
        """Fact (ii): a_[m] misses S_[m], and a_[m] * S_[m] is a geometric
        join, by joinable at the first call; coincident a_i are dependent."""
        a_full = [self.scaled_a(i) for i in range(1, self.m + 1)]
        s_full = self.sphere_join(tuple(range(1, self.m + 1)))
        if shared := set(a_full).intersection(s_full.vertices()):
            raise InvariantError(f"a_[m] and S_[m] share the vertex {min(shared)}")
        # joinable lists dependent pairs first; only an improper pair has a witness
        failures = joinable(_simplex(self.n, a_full), s_full)[1]
        if len(set(a_full)) < self.m or failures and "witness" not in failures[0]:
            raise InvariantError("a_[m] * S_[m] has affinely dependent simplex vertices")
        if failures:
            witness = ", ".join(map(str, failures[0]["witness"]))
            raise InvariantError(f"a_[m] * S_[m] has an improper intersection at ({witness})")
        return True

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
        """The join of the block spheres i in key, an increasing tuple, () the
        empty space: its prefix's join with its last sphere, built once."""
        if key not in self._joins:
            if len(key) > 1:
                self._joins[key] = geometric_join(self.sphere_join(key[:-1]),
                                                  self.sphere_join(key[-1:]))
            else:
                self._joins[key] = self.sphere(*key) if key else empty_embedded(self.n)
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
    geometrically joinable spaces, by the fold alone: each prefix join with
    the next member.  It implies every pair: a member's simplex lies in one
    of every later prefix join, so a pair's join simplices are faces of its
    fold step's, and faces of disjoint, independent, properly intersecting
    simplices are so too.  Every check, failing ones included, is as if the
    pairs were decided as well."""
    sigma = sorted(set(sigma))
    report = VerificationReport(f"gji m={config.m} k={config.k} sigma={sigma}")
    collections = {
        "Delta_i": [_delta_sigma(config, (i,)) for i in sigma],
        "S_i": [config.sphere_join((i,)) for i in sigma],
        "a_i": [_a_sigma(config, (i,)) for i in sigma],
    }
    for name, members in collections.items():
        prefixes = accumulate(members[:-1], geometric_join)
        ok_all = all(joinable(acc, member)[0] for acc, member in zip(prefixes, members[1:]))
        report.add(Check(f"collection {name} joinable", ok_all, "joinable",
                         "joinable" if ok_all else "not joinable", "gji"))
    return report


def verify_gjs(config: StandardConfig, sigma) -> VerificationReport:
    """Delta_sigma = a_sigma *~ S_sigma: joinability, containment, proper
    intersections, and the exact volume identity (the join tiles the block
    simplex)."""
    sigma = sorted(set(sigma))
    if not sigma:
        raise ValueError("sigma must be nonempty")
    report = VerificationReport(f"gjs m={config.m} k={config.k} sigma={sigma}")
    frame = config.frame  # Delta_sigma is its face on sigma's blocks
    face = frame.face(p for i in sigma for p in config.block(i))
    s_sigma = config.sphere_join(tuple(sigma))
    a_sigma = _a_sigma(config, sigma)

    # S_sigma has a simplex t (at k = 0 the empty one): joinable decides a_sigma too
    ok, failures = joinable(a_sigma, s_sigma)
    report.add(Check("a_sigma joinable to S_sigma", ok, "joinable",
                     "joinable" if ok else "not joinable", "gjs"))
    # a_sigma is one simplex, so the pieces are exactly the join simplices
    # whose pairs joinable has just tested for proper intersection
    pieces = list(geometric_join(a_sigma, s_sigma).maximal)
    improper = sum(f["kind"] == "improper intersection" for f in failures)

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
    violations = (
        ratios.count(None) + improper + sum(p not in inside for s in pieces for p in s)
    )
    report.add(Check("pieces intersect properly and stay inside", not violations,
                     "no violations", f"{violations} violations", "gjs"))
    report.add(Check("volume identity (tiling of Delta_sigma)", total == 1, "1",
                     str(total), "gjs"))
    return report


def verify_W_union(config: StandardConfig, K) -> VerificationReport:
    """Per sigma in K: Delta_sigma *~ S*_sigma and a_sigma *~ S_[m] have equal
    carriers; the union over K has the homology of the km-fold suspension."""
    if K.m != config.m:
        raise ValueError("K and configuration disagree on m")
    report = VerificationReport(f"W m={config.m} k={config.k}")
    full = tuple(range(1, config.m + 1))
    config.fact_ii  # with fact (i): every side below and their union are geometric
    sides_b = []
    for sigma in K.faces():
        s_star = config.sphere_join(tuple(j for j in full if j not in sigma))
        side_a = geometric_join(_delta_sigma(config, sigma), s_star)
        side_b = geometric_join(_a_sigma(config, sigma), config.sphere_join(full))
        sides_b.append(side_b)
        ok = carrier_equal(side_a, side_b, config.frame)
        report.add(Check(f"W_sigma two presentations agree, sigma={sorted(sigma)}",
                         ok, "equal carriers", "equal" if ok else "different", "w1"))

    union = EmbeddedComplex.union(sides_b)
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
    properly, as faces of a_[m] * S_[m] do by fact (ii): then the tiles have
    disjoint interiors and cover P.  Each P is a face of frame, an
    independent BarycentricFrame on A's vertices, which reads P's columns."""
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


def _psi(n, X, D, p, q):
    """psi on integers: x = X / D (D > 0) and lam = p / q (q > 0) give
    psi(x, lam) = Y / E, returned as (Y, E).

    With M = max X, the scale is 2 p / q on the inner half and
    ((2q - 2p) M + 2 D (2p - q)) / (q M) outside it.
    """
    if len(X) != n:
        raise ValueError("x has wrong length")
    if (X and min(X) < 0) or sum(X) != D:
        raise ValueError("x is not barycentric")
    if not 0 <= p <= q:
        raise ValueError("lambda must be in [0, 1]")
    if not D or not q:  # here D = sum X >= 0 and q >= p >= 0
        raise ValueError("x and lambda need positive denominators")
    if 2 * p <= q:
        num, den = 2 * p, q * D
    else:
        M = max(X)
        num, den = (2 * q - 2 * p) * M + 2 * D * (2 * p - q), q * M * D
    return [num * c for c in X], den


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
    if Y and (min(Y) < 0 or max(Y) > 2 * E):
        raise ValueError("y outside the cube [0, 2]^n")
    if E <= 0:  # E < 0 only with y empty; E = 0 with y = 0
        raise ValueError("y needs a positive denominator")
    S = sum(Y)
    if S == 0:
        return ([1] * n, n), (0, 1)
    if S <= E:
        return (Y, S), (S, 2 * E)
    M = max(Y)
    return (Y, S), (S * M - 2 * E * M + 2 * E * S, 2 * E * (2 * S - M))


def _naturality(p, l, samples):
    """Naturality of psi under zero padding on integer samples (X, D, a, b),
    x = X / D and lam = a / b: psi_l(x, 0...0) and (psi_p(x), 0...0) are
    compared by cross-multiplication."""
    if not 1 <= p <= l:
        raise ValueError("need 1 <= p <= l")
    report = VerificationReport(f"naturality p={p} l={l}")
    pad = [0] * (l - p)
    count = bad = 0
    for X, D, a, b in samples:
        count += 1
        lhs, e_lhs = _psi(l, list(X) + pad, D, a, b)
        rhs, e_rhs = _psi(p, X, D, a, b)
        bad += [u * e_rhs for u in lhs] != [v * e_lhs for v in rhs + pad]
    report.add(Check(f"psi naturality on {count} samples", not bad,
                     "all equal", f"{bad} mismatches", "naturality k=0"))
    return report


def verify_maps(grid) -> VerificationReport:
    """The cube maps on rational grids of denominators up to grid, for
    n <= 4: the seam at lam = 1/2, the outer boundary at lam = 1, the round
    trip psi^-1 o psi = id for lam > 0, and naturality under padding (on
    the grid capped at 4).  Every identity compares integer numerators by
    cross-multiplication."""
    report = VerificationReport(f"maps grid={grid}")
    # lam > 0 only: psi(., 0) is the cone point, which psi^-1 sends to the
    # barycenter whatever x was
    lams = _unit_numerators(grid)[1:]
    for n in range(1, 5):
        xs = _simplex_numerators(n, grid)
        seam_ok = True
        outer_ok = True
        for X, D in xs:
            Y, E = _psi(n, X, D, 1, 2)
            seam_ok &= [y * D for y in Y] == [c * E for c in X]
            Y, E = _psi(n, X, D, 1, 1)
            outer_ok &= max(Y) == 2 * E
        report.add(Check(f"psi seam agreement n={n}", seam_ok, "x at lam=1/2",
                         "ok" if seam_ok else "mismatch", "Psidef"))
        report.add(Check(f"psi(.,1) hits the outer boundary n={n}", outer_ok,
                         "max coord 2", "ok" if outer_ok else "mismatch", "CD"))
        round_ok = all(
            _round_trip(n, X, D, a, b) for X, D in xs for a, b in lams
        )
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


def _round_trip(n, X, D, a, b):
    """psi^-1(psi(X / D, a / b)) = (X / D, a / b), by cross-multiplication."""
    Y, E = _psi(n, X, D, a, b)
    (X2, S), (a2, b2) = _psi_inverse(n, Y, E)
    return a2 * b == a * b2 and [u * D for u in X2] == [c * S for c in X]


# ---------------------------------------------------------------------------
# rational sample grids
# ---------------------------------------------------------------------------


def _simplex_numerators(n, max_denominator):
    """Each barycentric point of the (n-1)-simplex with denominator at most
    max_denominator once, in lowest terms, as (X, d) with x = X / d: the
    compositions X of each d into n parts whose entries have gcd 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    if max_denominator < 1:
        raise ValueError("need a denominator >= 1")
    return [
        (X, d)
        for d in range(1, max_denominator + 1)
        for X in _compositions(d, n)
        if gcd(*X) == 1
    ]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _unit_numerators(denominator):
    """i / denominator for i = 0, ..., denominator, in lowest terms as (a, b)."""
    if denominator < 1:
        raise ValueError("need a denominator >= 1")
    d = denominator
    return [(i // gcd(i, d), d // gcd(i, d)) for i in range(d + 1)]
