"""Exact geometry: embedded complexes in Q^n, geometric joins,
general-position (joinability) predicates, and the cube reparametrization
psi with its inverse and its naturality, checked on rational grids.

Points are tuples of ints or Fractions, and every predicate is decided
exactly.  The standard configuration lives on integer points: its unit
vectors and block barycenters scaled by L = k + 1, which changes no
incidence, containment or volume ratio.  Affine independence and
determinants run fraction-free Bareiss elimination on rows scaled to
integers.  Proper intersection has two routes: a separating functional,
one integer dot product per vertex, then, only when that functional proves
nothing, the exact LP, which pivots an integer tableau and finds the
witness of an improper pair.  geometric_join only builds a join; joinable
decides whether it is geometric.  Point-in-simplex and barycentric
coordinates go through a BarycentricFrame, which factors a reference
simplex once and solves each point against it once, by one integer
mat-vec.  So each proper intersection, containment and barycentric solve
is decided once per verifier call: a verifier that needs a join and its
joinability reads the pairs joinable decided, and containment, coordinates
and volume ratios read the frame's one solve.  verify_W_union builds each
sphere join once, and its union of checked pieces tests no independence
again (geometric_join after joinable still does).  The psi maps compute
on integer numerators over one common denominator, and the map checks
(verify_maps) compare those numerators by cross-multiplication over a grid
generated in lowest terms.  Fractions are built only for answers:
coordinates and volume ratios.  No floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .chains import homology, simplicial_chain_complex
from .complexes import SimplicialComplex
from .exactlin import RationalLP, bareiss, lp_max
from .report import Check, VerificationReport

F = Fraction


# ---------------------------------------------------------------------------
# points and exact linear helpers
# ---------------------------------------------------------------------------


def unit(n, i):
    """Standard basis vector e_i (1-based) in Q^n."""
    return tuple(F(1) if j == i else F(0) for j in range(1, n + 1))


def affinely_independent(points):
    """The homogeneous rows (1, p), each scaled to integers, have full rank."""
    rows = [_homogeneous(p)[1] for p in points]
    return bareiss(rows)[0] == len(rows)


class BarycentricFrame:
    """Barycentric coordinates against one vertex list, factored once.

    Fraction-free Gauss-Jordan (Bareiss's update, applied above the pivot
    too) runs once on [Q M | Q], where M holds the homogeneous vertex
    columns (1, v) and the diagonal Q scales each row of M to integers.  It
    ends with every pivot equal to one integer d, and its right half is the
    integer matrix E with E M reduced.  Each point p then costs one sparse
    integer mat-vec E b, b = q (1, p): the solve rows give the coordinates
    times d q at the pivot columns (free coordinates are 0), and the
    consistency rows vanish unless p leaves the affine hull; the frame keeps
    that result for the points it has seen.  Each row stays
    a nonzero multiple of the row plain Gauss-Jordan on [M | I] holds, so
    the pivot columns, and the coordinates, are those plain elimination on
    M t = (1, p) finds, for affinely dependent vertices too.
    """

    def __init__(self, vertices):
        verts = [(1, *v) for v in vertices]
        nv = len(verts)
        m = len(verts[0]) if verts else 1
        A = []
        for i in range(m):
            q, row = _scaled([v[i] for v in verts])
            A.append(row + [q if j == i else 0 for j in range(m)])
        pivots = []
        r, prev = 0, 1
        for c in range(nv):
            pr = next((i for i in range(r, m) if A[i][c]), None)
            if pr is None:
                continue
            A[r], A[pr] = A[pr], A[r]
            prow = A[r]
            p = prow[c]
            for i in range(m):
                if i != r:
                    f = A[i][c]
                    A[i] = [(p * x - f * y) // prev for x, y in zip(A[i], prow)]
            prev = p
            pivots.append(c)
            r += 1
            if r == m:
                break
        sign = 1 if prev > 0 else -1
        self.size = nv
        self._den = abs(prev)
        self._solve = [(c, _nonzeros(A[i][nv:], sign)) for i, c in enumerate(pivots)]
        self._consistency = [_nonzeros(A[i][nv:], 1) for i in range(r, m)]
        self._solved = {}  # point -> _solve_point(point)

    def _numerators(self, p):
        """(q, t) with q (1, p) integer and the coordinates t / (d q), or
        None off the affine hull.  Each point is solved once per frame."""
        if p not in self._solved:
            self._solved[p] = self._solve_point(p)
        return self._solved[p]

    def _solve_point(self, p):
        q, b = _homogeneous(p)
        if any(_dot(row, b) for row in self._consistency):
            return None
        t = [0] * self.size
        for c, row in self._solve:
            t[c] = _dot(row, b)
        return q, t

    def coords(self, p):
        """t with sum(t) = 1 and sum t_i v_i = p, or None off the affine hull."""
        solved = self._numerators(p)
        if solved is None:
            return None
        q, t = solved
        den = self._den * q
        return tuple(F(x, den) for x in t)

    def contains(self, p):
        """p lies in the closed simplex: in the hull, every coordinate >= 0."""
        solved = self._numerators(p)
        return solved is not None and all(x >= 0 for x in solved[1])

    def volume_ratio(self, piece):
        """vol(piece) / vol(frame simplex) for a piece with as many vertices,
        lying in the frame's affine hull; None if it leaves the hull."""
        pc = sorted(piece)
        if len(pc) != self.size:
            return None
        rows = []
        scale = 1
        for p in pc:
            solved = self._numerators(p)
            if solved is None:
                return None
            q, t = solved
            rows.append(t)
            scale *= self._den * q
        return abs(determinant(rows)) / scale


def _nonzeros(row, sign):
    """The nonzero entries of sign * row as [(index, value)]."""
    return [(j, sign * x) for j, x in enumerate(row) if x]


def _scaled(row):
    """(q, b) with b the integer row q * row, q > 0 the least such."""
    if all(type(x) is int for x in row):
        return 1, list(row)
    q = lcm(*(x.denominator for x in row))
    return q, [x.numerator * (q // x.denominator) for x in row]


def _homogeneous(p):
    """(q, b) with b the integer vector q * (1, p), q > 0."""
    return _scaled((1, *p))


def _dot(row, b):
    return sum(e * b[j] for j, e in row)


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
    scale = 1
    ints = []
    for row in rows:
        q, b = _scaled(row)
        scale *= q
        ints.append(b)
    return F(bareiss(ints)[1], scale)


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
    def from_simplices(cls, ambient, simplices):
        maximal = _maximal(frozenset(s) for s in simplices)
        for s in maximal:
            for p in s:
                if len(p) != ambient:
                    raise ValueError("point dimension != ambient dimension")
            if not affinely_independent(s):
                raise ValueError("simplex vertices are affinely dependent")
        return cls(ambient, maximal)

    @classmethod
    def union(cls, parts):
        """The union of complexes in one ambient space.  Their simplices passed
        from_simplices, and so would every subset: only minimalizing is left."""
        return cls(parts[0].ambient, _maximal(s for X in parts for s in X.maximal))

    def vertices(self):
        return sorted({p for s in self.maximal for p in s})

    def is_empty(self):
        return self.maximal == frozenset({frozenset()})

    def chain_complex(self):
        """Augmented simplicial chain complex on the vertices relabelled
        1, 2, ... in sorted order."""
        label = {p: i for i, p in enumerate(self.vertices(), start=1)}
        facets = frozenset(tuple(sorted(label[p] for p in s)) for s in self.maximal)
        return simplicial_chain_complex(SimplicialComplex(max(len(label), 1), facets))

    def homology(self):
        return homology(self.chain_complex())


def _maximal(simplices):
    """The simplices contained in no other, {empty simplex} if none."""
    maximal = []
    for s in sorted(simplices, key=len, reverse=True):
        if not any(s <= t for t in maximal):
            maximal.append(s)
    return frozenset(maximal or [frozenset()])


def embedded_point(p):
    return EmbeddedComplex.from_simplices(len(p), [frozenset({p})])


def empty_embedded(ambient):
    return EmbeddedComplex.from_simplices(ambient, [frozenset()])


# ---------------------------------------------------------------------------
# joinability and geometric joins
# ---------------------------------------------------------------------------


def proper_intersection(simplex_a, simplex_b):
    """conv(A) n conv(B) == conv(A n B), decided exactly.

    A separating functional is tried first (see _separated); it proves
    properness with one dot product per vertex.  When it declines, an exact
    LP maximizes the total barycentric mass on non-shared vertices over all
    pairs of representations of a common point: proper iff the maximum is 0
    (or the intersection is empty), and an optimal point gives the witness.
    Returns (bool, witness point or None).
    """
    A = sorted(simplex_a)
    B = sorted(simplex_b)
    if not A or not B:
        return True, None
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
    difference of the two centroids scaled to integers, made orthogonal to
    every s - s_0 (s in S) by fraction-free Gram-Schmidt unless it already
    is, as on every pair of the standard configuration.  The points are
    scaled by one common positive integer first, which keeps properness.
    If A' or B' is empty, one simplex is a face of the other.

    Why an accepted h is a proof (_separates checks its hypotheses): let
    x = sum lambda_p p = sum mu_q q be a common point (convex combinations
    over A and over B).  With h.s = c on S, h.p < c on A' and h.q > c on
    B', we get h.x <= c, with equality only if lambda lives on S, and
    h.x >= c, with equality only if mu lives on S.  So h.x = c and
    x in conv(S).  With S empty, max over A' < min over B' leaves no common
    point.  False means only that this h proves nothing.
    """
    a1 = [p for p in A if p not in shared]
    b1 = [q for q in B if q not in shared]
    if not a1 or not b1:
        return True
    pts = _integer_points(a1 + b1 + sorted(shared))
    na, nb = len(a1), len(b1)
    a1, b1, s = pts[:na], pts[na : na + nb], pts[na + nb :]
    h = [na * sum(qs) - nb * sum(ps) for ps, qs in zip(zip(*a1), zip(*b1))]
    if len({_vdot(h, p) for p in s}) > 1:
        basis = []  # pairs (o, o.o), pairwise orthogonal, spanning the s - s_0
        for p in s[1:]:
            o = _orthogonal([x - y for x, y in zip(p, s[0])], basis)
            if any(o):
                basis.append((o, _vdot(o, o)))
        h = _orthogonal(h, basis)
    return _separates(h, a1, b1, s)


def _orthogonal(w, basis):
    """A positive multiple of w minus its projection on the span of an
    orthogonal basis: w <- (o.o) w - (w.o) o for each o, then divided by
    the gcd of its entries."""
    for o, oo in basis:
        wo = _vdot(w, o)
        if wo:
            w = [oo * x - wo * y for x, y in zip(w, o)]
    g = gcd(*w)
    return [x // g for x in w] if g > 1 else w


def _separates(h, a1, b1, s):
    """h.s is one value c on s, h.p < c on a1 and h.q > c on b1; with s
    empty, max h.p < min h.q.  Points are integer lists."""
    top = max(_vdot(h, p) for p in a1)
    bottom = min(_vdot(h, q) for q in b1)
    if not s:
        return top < bottom
    c = _vdot(h, s[0])
    return top < c < bottom and all(_vdot(h, p) == c for p in s[1:])


def _integer_points(points):
    """The points scaled by one common q > 0 to integer lists."""
    n = len(points[0])
    _, flat = _scaled([x for p in points for x in p])
    return [flat[i : i + n] for i in range(0, len(flat), n)]


def _vdot(u, v):
    return sum(x * y for x, y in zip(u, v))


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
    """The complex of the joined simplices s | t, s in X and t in Y.

    Only builds: whether the join is geometric (its carrier is all convex
    combinations, and the joined simplices meet properly) is joinable's
    decision, which the verifiers call where they need it.
    """
    return EmbeddedComplex.from_simplices(
        X.ambient, [s | t for s in X.maximal for t in Y.maximal]
    )


# ---------------------------------------------------------------------------
# the standard configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StandardConfig:
    """v_i^l = e_{(k+1)(i-1)+l}; a_i the barycenter of its block; Delta_i the
    block simplex; S_i its boundary (all proper faces).

    v and a give the paper's rational points.  The complexes are built on
    the integer points L v_i^l and L a_i with L = k + 1: a uniform positive
    scaling keeps every independence, containment, proper intersection and
    volume ratio, and integer points hash and compare fast.
    """

    m: int
    k: int

    def __post_init__(self):
        if self.m < 1 or self.k < 0:
            raise ValueError("need m >= 1 and k >= 0")

    @property
    def n(self):
        return (self.k + 1) * self.m

    def v(self, i, l):
        return unit(self.n, (self.k + 1) * (i - 1) + l)

    def a(self, i):
        return tuple(F(c, self.k + 1) for c in self.scaled_a(i))

    def block(self, i):
        """The vertices of Delta_i scaled by L: L v_i^1, ..., L v_i^L."""
        L = self.k + 1
        return [
            tuple(L if j == c else 0 for j in range(self.n))
            for c in range(L * (i - 1), L * i)
        ]

    def scaled_a(self, i):
        """L a_i: 1 on the coordinates of block i, 0 elsewhere."""
        L = self.k + 1
        return tuple(int(L * (i - 1) <= j < L * i) for j in range(self.n))

    def delta(self, i):
        return EmbeddedComplex.from_simplices(self.n, [frozenset(self.block(i))])

    def sphere(self, i):
        """S_i = boundary of Delta_i: all proper faces (empty complex if k=0)."""
        pts = self.block(i)
        if len(pts) == 1:
            return empty_embedded(self.n)
        return EmbeddedComplex.from_simplices(
            self.n, [frozenset(c) for c in combinations(pts, len(pts) - 1)]
        )

    def a_point_complex(self, i):
        return embedded_point(self.scaled_a(i))


def standard_config(m, k) -> StandardConfig:
    return StandardConfig(m, k)


def sigma_complexes(config: StandardConfig, sigma):
    """(Delta_sigma, S_sigma, S*_sigma, a_sigma) for sigma a subset of [m],
    on the configuration's integer points."""
    sigma = sorted(set(sigma))
    comp = tuple(j for j in range(1, config.m + 1) if j not in sigma)
    joins = _sphere_joins(config)
    return (
        _delta_sigma(config, sigma),
        _sphere_join(joins, tuple(sigma)),
        _sphere_join(joins, comp),
        _a_sigma(config, sigma),
    )


def _delta_sigma(config, sigma):
    """Delta_sigma: one simplex on the blocks of sigma, empty if sigma is."""
    if not sigma:
        return empty_embedded(config.n)
    return EmbeddedComplex.from_simplices(
        config.n, [frozenset(p for i in sigma for p in config.block(i))]
    )


def _a_sigma(config, sigma):
    """a_sigma: the simplex on the barycenters a_i, i in sigma."""
    if not sigma:
        return empty_embedded(config.n)
    return EmbeddedComplex.from_simplices(
        config.n, [frozenset(config.scaled_a(i) for i in sigma)]
    )


def _sphere_joins(config):
    """The seed of _sphere_join's dict: each block sphere under its index,
    and the empty space under ()."""
    joins = {(i,): config.sphere(i) for i in range(1, config.m + 1)}
    joins[()] = empty_embedded(config.n)
    return joins


def _sphere_join(joins, key):
    """The join of the block spheres i in key, an increasing tuple: the join
    of its prefix with its last sphere, each built once and kept in joins."""
    if key not in joins:
        joins[key] = geometric_join(_sphere_join(joins, key[:-1]), joins[key[-1:]])
    return joins[key]


def realization_AK(config: StandardConfig, K):
    """A(K): the simplices a_sigma, sigma in K -- a realization of K on the
    block barycenters (scaled by L, as every configuration complex is)."""
    if K.m != config.m:
        raise ValueError("K and configuration disagree on m")
    sims = []
    for sigma in K.faces():
        pts = frozenset(config.scaled_a(i) for i in sigma)
        if sigma and not affinely_independent(pts):
            raise ValueError("barycenters unexpectedly dependent")
        sims.append(pts)
    return EmbeddedComplex.from_simplices(config.n, sims)


# ---------------------------------------------------------------------------
# batch verifiers
# ---------------------------------------------------------------------------


def verify_gji(config: StandardConfig, sigma) -> VerificationReport:
    """The collections {Delta_i}, {S_i}, {a_i} over sigma are each families of
    geometrically joinable spaces (pairwise and accumulated)."""
    sigma = sorted(set(sigma))
    report = VerificationReport(f"gji m={config.m} k={config.k} sigma={sigma}")
    collections = {
        "Delta_i": [config.delta(i) for i in sigma],
        "S_i": [config.sphere(i) for i in sigma],
        "a_i": [config.a_point_complex(i) for i in sigma],
    }
    for name, members in collections.items():
        ok_all = True
        for x, y in combinations(members, 2):
            ok, _ = joinable(x, y)
            ok_all = ok_all and ok
        acc = None
        for member in members:
            if acc is None:
                acc = member
                continue
            ok, _ = joinable(acc, member)
            ok_all = ok_all and ok
            acc = geometric_join(acc, member)
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
    delta_sigma, s_sigma, _, a_sigma = sigma_complexes(config, sigma)

    ok, failures = joinable(a_sigma, s_sigma)
    report.add(Check("a_sigma joinable to S_sigma", ok, "joinable",
                     "joinable" if ok else "not joinable", "gjs"))
    # a_sigma is one simplex, so the pieces are exactly the join simplices
    # whose pairs joinable has just tested for proper intersection
    pieces = list(geometric_join(a_sigma, s_sigma).maximal)
    improper = sum(f["kind"] == "improper intersection" for f in failures)

    # Delta_sigma is one simplex, factored once; containment is decided once
    # per join vertex, and a piece lies inside iff its vertices do
    frame = BarycentricFrame(sorted(next(iter(delta_sigma.maximal))))
    verts = {p for s in pieces for p in s}
    inside = {p for p in verts if frame.contains(p)}
    verts_ok = inside == verts
    report.add(Check("join vertices inside Delta_sigma", verts_ok, "contained",
                     "contained" if verts_ok else "outside", "gjs"))

    # at k = 0, S_sigma is the empty space and the join is a_sigma itself;
    # either way the pieces tile Delta_sigma, of normalized volume 1
    ratios = [frame.volume_ratio(s) for s in pieces]
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
    report = VerificationReport(f"W m={config.m} k={config.k}")
    full = tuple(range(1, config.m + 1))
    # each sphere join is built once per call: the S*_sigma share their
    # prefixes, and S*_empty is S_[m]
    joins = _sphere_joins(config)
    sides_b = []
    for sigma in K.faces():
        s_star = _sphere_join(joins, tuple(j for j in full if j not in sigma))
        side_a = geometric_join(_delta_sigma(config, sigma), s_star)
        side_b = geometric_join(_a_sigma(config, sigma), _sphere_join(joins, full))
        sides_b.append(side_b)
        ok = carrier_equal(side_a, side_b)
        report.add(Check(f"W_sigma two presentations agree, sigma={sorted(sigma)}",
                         ok, "equal carriers", "equal" if ok else "different", "w1"))

    union = EmbeddedComplex.union(sides_b)
    H_union = union.homology()
    H_expected = homology(simplicial_chain_complex(K)).shifted(config.k * config.m)
    report.add(Check("union W_sigma homology = km-shifted homology of K",
                     H_union == H_expected,
                     str(H_expected), str(H_union), "w2"))
    return report


def carrier_equal(A: EmbeddedComplex, B: EmbeddedComplex):
    """Carrier equality of two unions of simplices.

    The certificate needs one side to refine the other, so both orientations
    are tried.
    """
    return _carrier_refined_by(A, B) or _carrier_refined_by(B, A)


def _carrier_refined_by(A, B):
    """Certify |A| = |B| by tiling each simplex of A with the simplices of B
    contained in it: containment of the tiles (by vertices, hence by
    convexity), proper pairwise intersections, and exact volume-ratio sum 1.
    Every simplex of B must land inside some simplex of A, which gives the
    reverse containment."""
    pieces_a = [s for s in A.maximal if s]
    pieces_b = [s for s in B.maximal if s]
    if not pieces_a or not pieces_b:
        return A.maximal == B.maximal
    verts_b = {p for Q in pieces_b for p in Q}
    assigned = set()
    for P in pieces_a:
        frame = BarycentricFrame(sorted(P))
        inside = {p for p in verts_b if frame.contains(p)}
        tiles = [Q for Q in pieces_b if Q <= inside]
        total = F(0)
        for Q in tiles:
            assigned.add(Q)
            if len(Q) == len(P):
                r = frame.volume_ratio(Q)
                if r is None:
                    return False
                total += r
        if total != 1:
            return False
        for qa, qb in combinations(tiles, 2):
            ok, _ = proper_intersection(qa, qb)
            if not ok:
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
    if any(c < 0 for c in X) or sum(X) != D:
        raise ValueError("x is not barycentric")
    if not 0 <= p <= q:
        raise ValueError("lambda must be in [0, 1]")
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
    if any(c < 0 or c > 2 * E for c in Y):
        raise ValueError("y outside the cube [0, 2]^n")
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
        bad += any(u * e_rhs != v * e_lhs for u, v in zip(lhs, rhs + pad))
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
            seam_ok &= all(y * D == c * E for y, c in zip(Y, X))
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
    return a2 * b == a * b2 and all(u * D == c * S for u, c in zip(X2, X))


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
