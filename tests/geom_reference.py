"""Reference geometry kernels, kept to test the library against.

These are the library's Fraction versions from before the geometry layer
moved to integer points: affine independence by Gaussian elimination on
Fraction rows (rank below; the library's rank_rational is Bareiss now), the
determinant by Gaussian elimination over Fraction, and the cube
reparametrization psi and its inverse on Fraction coordinates.  The integer
versions must give the same answers, and raise ValueError with the same
message on the same bad input.  rank (Gaussian elimination over Fraction)
and scaled (a row times the lcm of its denominators) state what bareiss's
rank and the library's _scaled compute.  proper_intersection is the
LP-only decision from before the separating functional: the library must
give the same answer and the same witness.  carrier_equal is the library's
from before it tiled against one frame of Delta_[m]: both orientations,
each piece against its own BarycentricFrame; the one-way, shared-frame
version must reach the same verdict.  verify_gji is the library's from
before it decided each family by its fold alone: every pair of members,
then the fold from the join of the first pair on; the fold alone must give
the same checks.  joinable is the library's pairwise decision from before
the configuration's facts became per-block reads of its frame: every pair
of join simplices through the library's proper_intersection (its
separating functional, then its exact LP), each vertex set independent by
the Fraction elimination above.  It is the oracle for the blockwise
verdicts, and the one caller that still drives the library's LP from a
configuration.  empty_embedded is the empty space, the join's unit, which no
command builds: every sphere join the library makes has a block.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations, islice

from polysmash.exactlin import RationalLP, lp_max
from polysmash import geomjoin
from polysmash.geomjoin import BarycentricFrame, _a_sigma, _delta_sigma, geometric_join
from polysmash.report import Check, VerificationReport

F = Fraction


def empty_embedded(ambient):
    """The empty space {empty simplex} in Q^ambient."""
    return geomjoin.EmbeddedComplex(ambient, frozenset([frozenset()]))


def affinely_independent(points):
    pts = list(points)
    if not pts:
        return True
    homog = [list(p) + [F(1)] for p in pts]
    return rank(homog) == len(pts)


def proper_intersection(simplex_a, simplex_b):
    """conv(A) n conv(B) == conv(A n B) by exact LP: the maximal barycentric
    mass on non-shared vertices over all pairs of representations of a
    common point is 0, or there is no common point."""
    A = sorted(simplex_a)
    B = sorted(simplex_b)
    if not A or not B:
        return True, None
    shared = set(A) & set(B)
    if affinely_independent(set(A) | set(B)):
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


def joinable(X, Y):
    """Decide geometric joinability of two embedded complexes, pair by pair.

    (a) every pair of simplices (one from each side) is disjoint with an
    affinely independent combined vertex set, and (b) every two of the
    resulting join simplices intersect properly.  Returns (ok, failures),
    failures a list of dicts with kind, simplices and, for an improper
    intersection, its witness.  proper_intersection is looked up on the
    library module at each call, so a test may wrap it or its LP.
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
        ok, witness = geomjoin.proper_intersection(sa, sb)
        if not ok:
            failures.append(
                {
                    "kind": "improper intersection",
                    "simplices": (sorted(sa), sorted(sb)),
                    "witness": witness,
                }
            )
    return not failures, failures


def determinant(rows):
    A = [[F(x) for x in row] for row in rows]
    n = len(A)
    det = F(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if A[i][c]), None)
        if pr is None:
            return F(0)
        if pr != c:
            A[c], A[pr] = A[pr], A[c]
            det = -det
        det *= A[c][c]
        p = A[c][c]
        for i in range(c + 1, n):
            if A[i][c]:
                f = A[i][c] / p
                A[i] = [x - f * y for x, y in zip(A[i], A[c])]
    return det


def rank(rows):
    """Rank of a rational matrix by Gaussian elimination over Fraction."""
    A = [[F(x) for x in row] for row in rows]
    r = 0
    for c in range(len(A[0]) if A else 0):
        pr = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        for i in range(r + 1, len(A)):
            f = A[i][c] / A[r][c]
            A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        r += 1
    return r


def scaled(row):
    """(q, b): q > 0 the least integer with q * row integral, b = q * row as
    ints; bools count as the ints 0 and 1."""
    row = [F(x) for x in row]
    q = math.lcm(*(x.denominator for x in row))
    return q, [int(x * q) for x in row]


def eval_psi(n, x, lam):
    x = tuple(F(c) for c in x)
    lam = F(lam)
    if len(x) != n:
        raise ValueError("x has wrong length")
    if any(c < 0 for c in x) or sum(x) != 1:
        raise ValueError("x is not barycentric")
    if not 0 <= lam <= 1:
        raise ValueError("lambda must be in [0, 1]")
    tbar = max(x)
    if 2 * lam <= 1:
        scale = 2 * lam
    else:
        scale = (2 - 2 * lam) + (2 * lam - 1) * 2 / tbar
    return tuple(scale * c for c in x)


def eval_psi_inverse(n, y):
    y = tuple(F(c) for c in y)
    if len(y) != n:
        raise ValueError("y has wrong length")
    if any(c < 0 or c > 2 for c in y):
        raise ValueError("y outside the cube [0, 2]^n")
    total = sum(y)
    if total == 0:
        return tuple(F(1, n) for _ in range(n)), F(0)
    x = tuple(c / total for c in y)
    tbar = max(x)
    if total <= 1:
        lam = total / 2
    else:
        # total = (2 - 2 lam) + (2 lam - 1) * 2 / tbar, solved for lam
        lam = (total - 2 + 2 / tbar) / (4 / tbar - 2)
    return x, lam


def carrier_equal(A, B):
    """|A| = |B| if either side's pieces tile each piece of the other."""
    return _carrier_refined_by(A, B) or _carrier_refined_by(B, A)


def _carrier_refined_by(A, B):
    """Each simplex P of A is tiled by the simplices of B inside it, P
    factored as its own frame: containment, proper pairwise intersections
    and volume ratios summing to 1; every simplex of B lands in some P."""
    pieces_a = [s for s in A.maximal if s]
    pieces_b = [s for s in B.maximal if s]
    if not pieces_a or not pieces_b:
        return A.maximal == B.maximal
    verts_b = set().union(*pieces_b)
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
        if not all(geomjoin.proper_intersection(qa, qb)[0]
                   for qa, qb in combinations(tiles, 2)):
            return False
    return assigned == set(pieces_b)


def verify_gji(config, sigma):
    """Each collection {Delta_i}, {S_i}, {a_i} over sigma: every pair of
    members joinable, and each prefix join of two or more members joinable
    with the next one."""
    sigma = sorted(set(sigma))
    report = VerificationReport(f"gji m={config.m} k={config.k} sigma={sigma}")
    collections = {
        "Delta_i": [_delta_sigma(config, (i,)) for i in sigma],
        "S_i": [config.sphere(i) for i in sigma],
        "a_i": [_a_sigma(config, (i,)) for i in sigma],
    }
    for name, members in collections.items():
        ok_all = True
        for x, y in combinations(members, 2):
            ok_all &= joinable(x, y)[0]
        prefixes = accumulate(members[:-1], geometric_join)
        for acc, member in islice(zip(prefixes, members[1:]), 1, None):
            ok_all &= joinable(acc, member)[0]
        report.add(Check(f"collection {name} joinable", ok_all, "joinable",
                         "joinable" if ok_all else "not joinable", "gji"))
    return report
