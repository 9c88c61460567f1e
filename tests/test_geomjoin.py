"""Geometric joins over Q^n: predicates, standard configuration, carrier
equality, and the cube reparametrization psi."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polysmash import exactlin, geomjoin
from polysmash.chains import homology, simplicial_chain_complex
from polysmash.cli import main
from polysmash.complexes import (
    empty_complex,
    from_facets,
    full_simplex,
    random_complex,
    simplex_boundary,
)
from polysmash.exactlin import InvariantError, LPResult, bareiss, lp_max
from polysmash.geomjoin import (
    BarycentricFrame,
    EmbeddedComplex,
    StandardConfig,
    affinely_independent,
    barycentric_coords,
    carrier_equal,
    determinant,
    geometric_join,
    proper_intersection,
    standard_config,
    verify_gji,
    verify_gjs,
    verify_maps,
    verify_W_union,
)

import geom_reference as ref
from bary_reference import barycentric_reference
from config_views import (
    MovedBarycenter,
    a,
    embedded_point,
    from_simplices,
    in_block_hull,
    is_empty,
    realization_AK,
    sigma_complexes,
    unit,
    v,
)
from homology_reference import group
from lp_reference import lp_max as reference_lp_max
from maps_views import (
    eval_psi,
    eval_psi_inverse,
    naturality_check_k0,
    round_trip,
    simplex_grid,
    unit_grid,
)


def pt(*coords):
    return tuple(F(c) for c in coords)


def test_affine_independence():
    assert affinely_independent([pt(0, 0), pt(1, 0), pt(0, 1)])
    assert not affinely_independent([pt(0, 0), pt(1, 1), pt(2, 2)])
    assert affinely_independent([pt(5, 7)])
    assert affinely_independent([])


def test_barycentric_and_membership():
    tri = [pt(0, 0), pt(2, 0), pt(0, 2)]
    assert barycentric_coords(tri, pt(1, 1)) == (F(0), F(1, 2), F(1, 2))
    assert BarycentricFrame(tri).contains(pt(F(1, 2), F(1, 2)))
    assert not BarycentricFrame(tri).contains(pt(2, 2))
    # outside the simplex but inside the affine hull: negative coordinate
    assert min(barycentric_coords(tri, pt(3, 3))) < 0
    # off the affine hull entirely
    edge = [pt(0, 0), pt(2, 0)]
    assert barycentric_coords(edge, pt(1, 1)) is None


def test_frame_matches_reference_solve():
    # simplices of every dimension up to the ambient one, plus dependent
    # vertex lists; points in the hull (inside and outside the simplex) and
    # off it
    rng = random.Random(11)

    def rational():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    seen = {"inside": 0, "outside": 0, "off hull": 0}
    for ambient in range(1, 5):
        for nverts in range(ambient + 3):
            for _ in range(12):
                verts = [tuple(rational() for _ in range(ambient)) for _ in range(nverts)]
                if nverts >= 3 and rng.random() < 0.3:
                    verts[-1] = tuple(
                        (a + b) / 2 for a, b in zip(verts[0], verts[1])
                    )
                frame = BarycentricFrame(verts)
                for _ in range(6):
                    if verts and rng.random() < 0.6:
                        w = [abs(rational()) + F(1, 5) for _ in verts]
                        if len(w) > 1 and rng.random() < 0.5:
                            w[0] = -sum(w[1:]) / 2
                        total = sum(w)
                        p = tuple(
                            sum(wi * v[d] for wi, v in zip(w, verts)) / total
                            for d in range(ambient)
                        )
                    else:
                        p = tuple(rational() for _ in range(ambient))
                    expected = barycentric_reference(verts, p)
                    assert frame.coords(p) == expected, (verts, p)
                    assert barycentric_coords(verts, p) == expected
                    inside = expected is not None and all(x >= 0 for x in expected)
                    assert frame.contains(p) == inside
                    if expected is None:
                        seen["off hull"] += 1
                    else:
                        seen["inside" if inside else "outside"] += 1
    assert min(seen.values()) >= 100, seen


def join_small_configs():
    """The oracle's joinable(a_sigma, S_sigma) at m <= 2, k <= 2, on every
    nonempty sigma, a_[m] * S_[m] among them; each join must be geometric.
    No verifier decides a pair any more, so this is what drives the
    library's proper_intersection, and its LP, on the configuration."""
    for m in (1, 2):
        for k in (0, 1, 2):
            cfg = standard_config(m, k)
            for size in range(1, m + 1):
                for sigma in itertools.combinations(range(1, m + 1), size):
                    assert oracle(cfg, sigma), (m, k, sigma)


def test_proper_intersection_lps_match_reference(monkeypatch):
    # every LP the oracle's joinable raises at m <= 2, k <= 2 once the
    # separating functional declines every pair: 54, one per pair of join
    # simplices
    seen = []

    def recording(P):
        res = lp_max(P)
        seen.append((P, res))
        return res

    monkeypatch.setattr(geomjoin, "_separated", lambda A, B, shared: False)
    monkeypatch.setattr(geomjoin, "lp_max", recording)
    join_small_configs()
    assert len(seen) >= 50
    for P, res in seen:
        assert res == reference_lp_max(P)


def count_functional_and_lps(monkeypatch):
    """(accepted, lps): every answer of the separating functional and every
    LP, recorded while the caller runs."""
    lps, accepted = [], []
    separated = geomjoin._separated

    def counting(A, B, shared):
        ok = separated(A, B, shared)
        accepted.append(ok)
        return ok

    monkeypatch.setattr(geomjoin, "_separated", counting)
    monkeypatch.setattr(geomjoin, "lp_max", lambda P: lps.append(P))
    return accepted, lps


def test_small_configs_never_reach_the_lp(monkeypatch):
    # the separating functional proves every pair of a_sigma * S_sigma at
    # m <= 2, k <= 2 proper
    accepted, lps = count_functional_and_lps(monkeypatch)
    join_small_configs()
    assert lps == []
    assert len(accepted) >= 50 and all(accepted)


def test_geometry_sweep_never_reaches_the_lp(monkeypatch):
    # the CLI's sweep at m <= 3, k <= 2, W on the boundary of the 2-simplex
    # included (the grid only sizes the map checks), decides no pair of
    # simplices: fact (ii), gjs and w1 read each a_i's block coordinates.
    # 1,363 pairs while verify_gji folded joinable over each family, and 900
    # while fact (ii) and verify_gjs called joinable
    accepted, lps = count_functional_and_lps(monkeypatch)
    assert main(["verify", "geometry", "--m", "3", "--k", "2", "--grid", "1"]) == 0
    assert lps == [] and accepted == []


def test_proper_intersection_lp_status_failure_raises(monkeypatch):
    # an LP that ends neither optimal nor infeasible decides nothing: the
    # T-touch pair reaches the LP, here made to end unbounded.  No command
    # reaches the LP, so this is a library test, not an exit code
    a = [pt(0, 0), pt(2, 0)]
    b = [pt(1, 0), pt(1, 1)]
    monkeypatch.setattr(geomjoin, "lp_max", lambda P: LPResult("unbounded"))
    with pytest.raises(RuntimeError, match="^proper-intersection LP ended 'unbounded'"):
        proper_intersection(a, b)


def test_independent_pair_the_functional_declines_goes_to_the_lp(monkeypatch):
    # the vertices of A and B are affinely independent, so the segments meet
    # properly (in nothing), but the centroid difference does not separate
    # them: the exact LP decides the pair
    a = [pt(0, 0, 0), pt(10, 0, 0)]
    b = [pt(9, 1, 0), pt(-100, 0, 1)]
    assert affinely_independent(a + b)
    assert not geomjoin._separated(sorted(a), sorted(b), set())
    lps = []
    monkeypatch.setattr(geomjoin, "lp_max", lambda P: lps.append(P) or lp_max(P))
    assert proper_intersection(a, b) == (True, None)
    assert len(lps) == 1


def test_t_touch_is_improper():
    # the segments touch at (1, 0), inside one and a vertex of the other:
    # no functional separates them strictly, so the LP finds the witness
    a = [pt(0, 0), pt(2, 0)]
    b = [pt(1, 0), pt(1, 1)]
    assert not geomjoin._separated(sorted(a), sorted(b), set())
    assert proper_intersection(a, b) == (False, pt(1, 0))
    assert proper_intersection(b, a) == (False, pt(1, 0))


def test_functional_is_made_orthogonal_to_the_shared_face(monkeypatch):
    # triangles on opposite sides of their common edge, skewed: the centroid
    # difference (3, -2) is not constant on the edge, so the functional
    # declines and the exact LP decides the pair
    a = [pt(0, 0), pt(2, 0), pt(0, 1)]
    b = [pt(0, 0), pt(2, 0), pt(3, -1)]
    assert not geomjoin._separated(sorted(a), sorted(b), set(a) & set(b))
    lps = []
    monkeypatch.setattr(geomjoin, "lp_max", lambda P: lps.append(P) or lp_max(P))
    assert proper_intersection(a, b) == (True, None)
    assert len(lps) == 1


def test_float_coordinates_are_refused():
    # a float is no point of Q^n: these raised AttributeError, and a pair
    # whose one simplex is empty or a face of the other passed unread
    for points in ([(0.5, 0)], [pt(0, 0), (1, 0.0)]):
        with pytest.raises(ValueError, match=r"^coordinate .* is not rational$"):
            affinely_independent(points)
    for A, B in (([pt(0, 0), (1.0, 0)], [pt(0, 1)]),
                 ([(0.5, 0)], [(0.5, 0), pt(1, 1)]),
                 ([], [(0.5, 0)])):
        with pytest.raises(ValueError, match=r"^coordinate .* is not rational$"):
            proper_intersection(A, B)
    assert affinely_independent([(True, 0), pt(F(1, 2), 1)])


def test_determinant():
    assert determinant([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert determinant([[F(1)]]) == 1
    assert determinant([[F(0), F(1)], [F(0), F(2)]]) == 0


def test_proper_intersection_cases():
    # shared edge of two triangles: proper
    a = [pt(0, 0), pt(1, 0), pt(0, 1)]
    b = [pt(1, 1), pt(1, 0), pt(0, 1)]
    ok, _ = proper_intersection(a, b)
    assert ok
    # crossing diagonals of a square: improper, witness at the center
    c = [pt(0, 0), pt(1, 1)]
    d = [pt(1, 0), pt(0, 1)]
    ok, witness = proper_intersection(c, d)
    assert not ok
    assert witness == pt(F(1, 2), F(1, 2))
    # disjoint segments on a line: proper (empty intersection)
    e = [pt(0, 0), pt(1, 0)]
    f = [pt(2, 0), pt(3, 0)]
    ok, _ = proper_intersection(e, f)
    assert ok
    # overlapping collinear segments: improper
    g = [pt(0, 0), pt(2, 0)]
    h = [pt(1, 0), pt(3, 0)]
    ok, _ = proper_intersection(g, h)
    assert not ok


def test_joinable_positive_and_negative():
    X = embedded_point(pt(0, 0, 1))
    Y = from_simplices(3, [frozenset({pt(1, 0, 0), pt(0, 1, 0)})])
    ok, _ = ref.joinable(X, Y)
    assert ok
    J = geometric_join(X, Y)
    assert len(J.maximal) == 1
    # join segments crossing at the square center: improper intersection
    A = from_simplices(2, [frozenset({pt(0, 0)}), frozenset({pt(0, 1)})])
    B = from_simplices(2, [frozenset({pt(1, 1)}), frozenset({pt(1, 0)})])
    ok, failures = ref.joinable(A, B)
    assert not ok
    assert any(f["kind"] == "improper intersection" for f in failures)
    # geometric_join only builds: it returns the four segments all the same
    assert len(geometric_join(A, B).maximal) == 4
    # collinear combination: affine dependence failure
    P = embedded_point(pt(0, 0))
    Q = from_simplices(2, [frozenset({pt(1, 1), pt(2, 2)})])
    ok, failures = ref.joinable(P, Q)
    assert not ok
    assert any(f["kind"] == "affine dependence" for f in failures)


def test_join_with_empty_space_is_identity():
    X = embedded_point(pt(1, 0))
    E = ref.empty_embedded(2)
    assert geometric_join(X, E).maximal == X.maximal
    assert geometric_join(E, X).maximal == X.maximal


def geometric_join_many(parts):
    """The left fold of geometric_join over parts."""
    parts = list(parts)
    out = parts[0]
    for nxt in parts[1:]:
        out = geometric_join(out, nxt)
    return out


def test_join_associative_carrier():
    p1 = embedded_point(pt(1, 0, 0))
    p2 = embedded_point(pt(0, 1, 0))
    p3 = embedded_point(pt(0, 0, 1))
    left = geometric_join(geometric_join(p1, p2), p3)
    right = geometric_join(p1, geometric_join(p2, p3))
    assert left.maximal == right.maximal
    many = geometric_join_many([p1, p2, p3])
    assert many.maximal == left.maximal


def test_standard_config_m2_k1():
    cfg = standard_config(2, 1)
    assert cfg.n == 4
    assert v(cfg, 1, 1) == unit(4, 1)
    assert v(cfg, 2, 2) == unit(4, 4)
    assert a(cfg, 1) == pt(F(1, 2), F(1, 2), 0, 0)
    S1 = cfg.sphere(1)
    assert len(S1.maximal) == 2  # two endpoints of the block edge
    assert cfg.sphere(1).ambient == 4


def test_config_complexes_live_on_integer_points():
    # Delta_i, S_i and the barycenter complexes use L v and L a, L = k + 1,
    # while v and a stay the paper's rational points
    for m, k in [(1, 0), (2, 1), (3, 2)]:
        cfg = standard_config(m, k)
        L = k + 1
        scaled_a = []
        for i in range(1, m + 1):
            block = [tuple(L * c for c in v(cfg, i, l)) for l in range(1, L + 1)]
            assert cfg.block(i) == block
            assert geomjoin._delta_sigma(cfg, (i,)).vertices() == sorted(block)
            scaled_a.append(tuple(L * c for c in a(cfg, i)))
            assert geomjoin._a_sigma(cfg, (i,)).vertices() == [scaled_a[-1]]
            assert all(type(c) is int for p in cfg.block(i) for c in p)
            assert all(type(c) is int for c in cfg.scaled_a(i))
        _, _, _, a_sigma = sigma_complexes(cfg, range(1, m + 1))
        assert a_sigma.vertices() == sorted(scaled_a)
        assert realization_AK(cfg, full_simplex(m - 1)).vertices() == sorted(scaled_a)


def test_standard_config_k0_sphere_empty():
    cfg = standard_config(2, 0)
    assert is_empty(cfg.sphere(1))
    assert geomjoin._delta_sigma(cfg, (1,)).maximal == frozenset({frozenset({unit(2, 1)})})


def test_sigma_complexes_m2_k1():
    cfg = standard_config(2, 1)
    delta_sigma, s_sigma, s_star, a_sigma = sigma_complexes(cfg, (1, 2))
    assert len(next(iter(delta_sigma.maximal))) == 4
    # S_{1} * S_{2}: 2 x 2 joined edges
    assert len(s_sigma.maximal) == 4
    assert is_empty(s_star)
    assert len(next(iter(a_sigma.maximal))) == 2
    # complementary case
    _, s_one, s_star_one, _ = sigma_complexes(cfg, (1,))
    assert len(s_one.maximal) == 2
    assert len(s_star_one.maximal) == 2


def test_sigma_complexes_sphere_joins_are_the_left_fold():
    cfg = standard_config(3, 1)
    spheres = {i: cfg.sphere(i) for i in (1, 2, 3)}
    for r in (1, 2, 3):
        for sigma in itertools.combinations((1, 2, 3), r):
            comp = [j for j in (1, 2, 3) if j not in sigma]
            _, s_sigma, s_star, _ = sigma_complexes(cfg, sigma)
            assert s_sigma == geometric_join_many(spheres[i] for i in sigma)
            assert s_star == (geometric_join_many(spheres[j] for j in comp)
                              if comp else ref.empty_embedded(cfg.n))


def test_s_full_join_is_sphere():
    # S_1 * ... * S_m is a simplicial (k m - 1)-sphere on the block vertices
    for m, k in [(2, 1), (3, 1), (2, 2)]:
        cfg = standard_config(m, k)
        _, s_full, _, _ = sigma_complexes(cfg, range(1, m + 1))
        H = s_full.homology()
        assert sorted(H) == [k * m - 1]
        assert group(H, k * m - 1).betti == 1


def test_realization_AK_homology(triangle_boundary):
    cfg = standard_config(3, 1)
    AK = realization_AK(cfg, triangle_boundary)
    assert AK.homology() == homology(simplicial_chain_complex(triangle_boundary))


def test_volume_ratio():
    ref = [pt(0, 0), pt(1, 0), pt(0, 1)]
    frame = BarycentricFrame(ref)
    assert frame.volume_ratio([pt(0, 0), pt(F(1, 2), 0), pt(0, F(1, 2))]) == F(1, 4)
    assert frame.volume_ratio(ref) == 1
    # piece off the reference's affine hull
    ref3 = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0)]
    piece = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 0, 1)]
    assert BarycentricFrame(ref3).volume_ratio(piece) is None


def test_carrier_equal_positive_and_negative():
    # against the segment's own frame, the segment split at its midpoint has
    # its carrier; a half, a longer segment or an overlapping cover has not
    a, b = pt(0), pt(2)
    frame = BarycentricFrame([a, b])
    seg = from_simplices(1, [{a, b}])
    split = from_simplices(1, [{a, pt(1)}, {pt(1), b}])
    assert carrier_equal(seg, split, frame)
    assert carrier_equal(seg, seg, frame)
    for other in ([{a, pt(1)}], [{a, pt(3)}], [{a, pt(1)}, {pt(1), b}, {pt(F(1, 2)), b}]):
        assert not carrier_equal(seg, from_simplices(1, other), frame), other


def test_tiling_a_face_of_a_shared_frame_needs_the_face_support():
    # against the triangle's frame, the edge v1v2 is read on its own two
    # columns: v3 lies in the triangle but not in the edge, so v2v3 is no
    # tile of it, and the edge is not tiled by {v1v2, v2v3}
    v1, v2, v3 = pt(0, 0), pt(1, 0), pt(0, 1)
    triangle = BarycentricFrame([v1, v2, v3])
    edge = from_simplices(2, [{v1, v2}])
    two_edges = from_simplices(2, [{v1, v2}, {v2, v3}])
    assert not carrier_equal(edge, two_edges, triangle)
    assert carrier_equal(edge, edge, triangle)
    face = triangle.face([v1, v2])
    assert not triangle.contains(v3, face) and triangle.contains(v3)
    assert triangle.volume_ratio([v2, v3], face) is None


class _OffBlockBarycenter(StandardConfig):
    """a_1 moved off its block: an extra 1 on the next block's first
    coordinate, block 1's own at m = 1."""

    def scaled_a(self, i):
        a = list(StandardConfig.scaled_a(self, i))
        if i == 1:
            a[(self.k + 1) % self.n] += 1
        return tuple(a)


def W_sides(cfg, sigma):
    """(Delta_sigma * S*_sigma, a_sigma * S_[m]), as verify_W_union builds them."""
    delta_sigma, _, s_star, a_sigma = sigma_complexes(cfg, sigma)
    s_full = sigma_complexes(cfg, range(1, cfg.m + 1))[1]
    return geometric_join(delta_sigma, s_star), geometric_join(a_sigma, s_full)


@pytest.mark.parametrize("m, k", [(m, k) for m in (1, 2, 3) for k in (0, 1, 2)])
def test_one_way_tiling_agrees_with_the_two_way_per_piece_reference(m, k):
    # every W_sigma of the sweep's four families and of a random K, and two
    # mutations of its a_sigma * S_[m]: a_1 moved off its block, one piece
    # dropped.  The library tiles one way against Delta_[m]'s frame; the
    # reference tries both ways, each piece its own frame
    cfg, moved = standard_config(m, k), _OffBlockBarycenter(m, k)
    full = tuple(range(1, m + 1))
    delta = BarycentricFrame([p for i in full for p in cfg.block(i)])
    families = [empty_complex(m), full_simplex(m - 1), from_facets(m, [(i,) for i in full]),
                random_complex(m, m - 1, "1/2", seed=7 + m)]
    if m >= 3:
        families.append(simplex_boundary(m - 1))
    for sigma in sorted({sigma for K in families for sigma in K.faces()}):
        side_a, side_b = W_sides(cfg, sigma)
        piece = min(side_b.maximal, key=sorted)
        dropped = EmbeddedComplex(side_b.ambient, side_b.maximal - {piece})
        cases = [(side_b, True), (W_sides(moved, sigma)[1], 1 not in sigma), (dropped, False)]
        for B, expected in cases:
            assert carrier_equal(side_a, B, delta) == expected, (sigma, B)
            assert ref.carrier_equal(side_a, B) == expected, (sigma, B)


def test_verify_gji_small():
    for m, k in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        r = verify_gji(standard_config(m, k), range(1, m + 1))
        assert r.passed, (m, k, str(r))


class _BarycenterOnTheFirst(StandardConfig):
    """a_2 moved onto a_1: the first pair of a_i meets."""

    def scaled_a(self, i):
        return StandardConfig.scaled_a(self, 1 if i == 2 else i)


class _CollinearBarycenters(StandardConfig):
    """a_3 = 2 a_2 - a_1: every pair of a_i is independent, the three are not."""

    def scaled_a(self, i):
        if i != 3:
            return StandardConfig.scaled_a(self, i)
        a1, a2 = StandardConfig.scaled_a(self, 1), StandardConfig.scaled_a(self, 2)
        return tuple(2 * y - x for x, y in zip(a1, a2))


class _RepeatedSphere(StandardConfig):
    """sphere(3) is sphere(2): S_2 and S_3 share their faces."""

    def sphere(self, i):
        return StandardConfig.sphere(self, 2 if i == 3 else i)


class _SphereVertexOffBlock(StandardConfig):
    """S_1's first vertex moved off block 1: +1 on block 2's first coordinate."""

    def moved(self):
        return tuple(x + (j == self.k + 1) for j, x in enumerate(self.block(1)[0]))

    def sphere(self, i):
        first = self.block(1)[0]
        return EmbeddedComplex(self.n, frozenset(
            frozenset(self.moved() if p == first else p for p in s)
            for s in StandardConfig.sphere(self, i).maximal))


@pytest.mark.parametrize("m, k", [(2, 1), (2, 2), (3, 2)])
def test_gji_refuses_a_sphere_vertex_off_the_block_vertices(m, k):
    # fact (i) decides S_i only as faces of Delta_[m]: a point off the block
    # vertices is the program's own configuration gone wrong, and is named
    # with its collection, not given a verdict
    cfg = _SphereVertexOffBlock(m, k)
    with pytest.raises(InvariantError) as failed:
        verify_gji(cfg, range(1, m + 1))
    assert str(failed.value) == f"S_i has the point {cfg.moved()} off the block vertices"


@pytest.mark.parametrize("config", [StandardConfig, _BarycenterOnTheFirst,
                                    _CollinearBarycenters, _RepeatedSphere,
                                    _OffBlockBarycenter])
def test_gji_fold_matches_every_pair_and_the_fold(config):
    # every (m, k) of verify geometry --m 3 --k 2 and --m 4 --k 1, on the
    # standard configuration and on geometric mutants, each needing m >= 2
    # (the first two) or m >= 3 (the next two); the predicates are the
    # library's, unpatched, since the fold implies each pair only through
    # faces of its join simplices
    least = {_BarycenterOnTheFirst: 2, _CollinearBarycenters: 3, _RepeatedSphere: 3}
    verdicts = set()
    for m, k in sorted({(m, k) for m in (1, 2, 3) for k in (0, 1, 2)} | {(4, 0), (4, 1)}):
        if m < least.get(config, 1):
            continue
        cfg = config(m, k)
        checks = [(c.name, c.passed, c.actual) for c in verify_gji(cfg, range(1, m + 1)).checks]
        expected = ref.verify_gji(cfg, range(1, m + 1)).checks
        assert checks == [(c.name, c.passed, c.actual) for c in expected], (m, k)
        verdicts.update((name, passed) for name, passed, _ in checks)
    # each mutant fails the collection it moves, at some (m, k)
    failing = {_BarycenterOnTheFirst: "a_i", _CollinearBarycenters: "a_i",
               _RepeatedSphere: "S_i"}
    if config in failing:
        assert (f"collection {failing[config]} joinable", False) in verdicts


def test_verify_gjs_small():
    for m, k in [(1, 1), (2, 1), (2, 2)]:
        cfg = standard_config(m, k)
        for size in range(1, m + 1):
            r = verify_gjs(cfg, tuple(range(1, size + 1)))
            assert r.passed, (m, k, size, str(r))
    with pytest.raises(ValueError):
        verify_gjs(standard_config(2, 1), ())


class _DoubledBarycenters(StandardConfig):
    """Every a_i doubled: off the affine hull of Delta_[m]."""

    def scaled_a(self, i):
        return tuple(2 * x for x in StandardConfig.scaled_a(self, i))


def test_verify_gjs_failure_counts_are_pinned():
    # barycenters doubled: a_i leaves the affine hull of Delta_[m], where the
    # join lemma decides nothing, so gjs raises and names a_1 instead of
    # failing its containment, tiling and volume lines with 4 and 12
    # violations (exit 1 before the verdicts became per-block reads of the
    # frame, exit 3 now).  The counts are pinned on barycenters inside their
    # blocks' hulls, below
    cfg = _DoubledBarycenters(2, 1)
    for sigma in [(1,), (1, 2)]:
        with pytest.raises(InvariantError) as failed:
            verify_gjs(cfg, sigma)
        assert str(failed.value) == "a_1 = (2, 2, 0, 0) is off the affine hull of Delta_1"


class _BarycenterAcrossBlocks(StandardConfig):
    """a_1 moved to the midpoint of L v_1^1 and L v_2^1, inside Delta_[m] and
    outside Delta_1 (an integer point at k = 1)."""

    def scaled_a(self, i):
        if i != 1:
            return StandardConfig.scaled_a(self, i)
        return tuple((x + y) // 2 for x, y in zip(self.block(1)[0], self.block(2)[0]))


class _SphereVertexInTheNextBlock(StandardConfig):
    """S_1's first vertex moved onto L v_2^1: a point of Delta_[m], not of
    Delta_1 (k >= 1, m >= 2)."""

    def sphere(self, i):
        first, moved = self.block(1)[0], self.block(2)[0]
        return EmbeddedComplex(self.n, frozenset(
            frozenset(moved if p == first else p for p in s)
            for s in StandardConfig.sphere(self, i).maximal))


def test_gjs_reads_delta_sigma_on_its_own_columns_of_the_shared_frame():
    # Delta_sigma is a face of the configuration's frame of Delta_[m]: S_1's
    # moved vertex lies in Delta_[2] but not in Delta_1, so at sigma = (1,)
    # it is outside and its piece has no volume ratio on block 1's columns.
    # The checks are those a frame of Delta_sigma's own gives.  a_1 moved
    # across the blocks is off Delta_1's affine hull: gjs raises at each
    # sigma that holds block 1 (it failed report lines before the verdicts
    # became per-block reads of the frame) and passes at sigma = (2,)
    cfg = _SphereVertexInTheNextBlock(2, 1)
    assert [(c.name, c.passed, c.actual) for c in verify_gjs(cfg, (1,)).checks] == [
        ("a_sigma joinable to S_sigma", True, "joinable"),
        ("join vertices inside Delta_sigma", False, "outside"),
        ("pieces intersect properly and stay inside", False, "2 violations"),
        ("volume identity (tiling of Delta_sigma)", False, "1/2")]
    cfg = _BarycenterAcrossBlocks(2, 1)
    for sigma in [(1,), (1, 2)]:
        with pytest.raises(InvariantError) as failed:
            verify_gjs(cfg, sigma)
        assert str(failed.value) == "a_1 = (1, 0, 1, 0) is off the affine hull of Delta_1"
    assert verify_gjs(cfg, (2,)).passed


def test_verify_gjs_counts_each_block_whose_a_i_is_not_interior():
    # a_i = 2 L v_i^1 - L v_i^2 lies on block i's line, outside Delta_i: no
    # block of sigma has its a_i interior, so joinability fails, and each
    # such block is one violation of the tiling, next to the piece vertices
    # outside Delta_sigma (2 per block of sigma): 1 + 2 at (1,), 2 + 8 at
    # (1, 2).  Each piece's ratio is the product of its blocks', 1 or 2
    cfg = _DependentBarycenters(2, 1)
    for sigma, violations, total in [((1,), 3, 3), ((1, 2), 10, 9)]:
        checks = [(c.name, c.passed, c.actual) for c in verify_gjs(cfg, sigma).checks]
        assert checks == [
            ("a_sigma joinable to S_sigma", False, "not joinable"),
            ("join vertices inside Delta_sigma", False, "outside"),
            ("pieces intersect properly and stay inside", False,
             f"{violations} violations"),
            ("volume identity (tiling of Delta_sigma)", False, str(total)),
        ], sigma


def test_verify_W_union_triangle():
    cfg = standard_config(3, 1)
    K = simplex_boundary(2)
    r = verify_W_union(cfg, K)
    assert r.passed, str(r)


def test_verify_W_union_disconnected():
    cfg = standard_config(2, 1)
    K = from_facets(2, [(1,), (2,)])
    r = verify_W_union(cfg, K)
    assert r.passed, str(r)


def test_verifiers_refuse_blocks_outside_the_configuration():
    cfg = standard_config(2, 1)
    with pytest.raises(ValueError, match="K and configuration disagree on m"):
        verify_W_union(cfg, simplex_boundary(2))
    for verify, sigma, bad in [(verify_gji, (0, 1, 2), 0), (verify_gjs, (1, 5), 5)]:
        with pytest.raises(ValueError, match=rf"^block index {bad} is outside \[1, 2\]$"):
            verify(cfg, sigma)
    for i in (0, 3):
        for point in (cfg.block, cfg.scaled_a, cfg.sphere):
            with pytest.raises(ValueError, match=rf"^block index {i} "):
                point(i)


# -- the cube reparametrization psi ---------------------------------------------------------


def test_psi_seam_and_boundary():
    for n in range(1, 5):
        for x in simplex_grid(n, 4):
            assert eval_psi(n, x, F(1, 2)) == tuple(x)
            assert max(eval_psi(n, x, 1)) == 2
            assert eval_psi(n, x, 0) == tuple(F(0) for _ in range(n))


def test_psi_round_trip_full_grid():
    for n in range(1, 4):
        for x in simplex_grid(n, 5):
            for lam in unit_grid(5):
                if lam == 0:
                    continue
                y = eval_psi(n, x, lam)
                assert all(0 <= c <= 2 for c in y)
                assert eval_psi_inverse(n, y) == (tuple(x), lam)


def test_psi_validates_input():
    with pytest.raises(ValueError):
        eval_psi(2, (F(1, 2), F(1, 4)), F(1, 2))
    with pytest.raises(ValueError):
        eval_psi(2, (F(1, 2), F(1, 2)), 2)
    with pytest.raises(ValueError):
        eval_psi_inverse(1, (F(5, 2),))


def test_naturality_squares():
    for l in range(1, 5):
        for p in range(1, l + 1):
            samples = [
                (x, lam) for x in simplex_grid(p, 3) for lam in unit_grid(3)
            ]
            r = naturality_check_k0(p, l, samples)
            assert r.passed, (p, l)


def test_naturality_counts_generator_samples():
    samples = ((x, lam) for x in simplex_grid(2, 2) for lam in unit_grid(2))
    r = naturality_check_k0(2, 3, samples)
    assert r.passed
    assert r.checks[0].name == f"psi naturality on {len(simplex_grid(2, 2)) * 3} samples"


def test_grids():
    g = simplex_grid(2, 2)
    assert pt(F(1, 2), F(1, 2)) in g
    assert all(sum(x) == 1 for x in g)
    assert unit_grid(2) == [F(0), F(1, 2), F(1)]


# -- differential properties against the Fraction references -------------------------------


def rationals(low, high):
    """Fractions a / d in [low, high] with d <= 12."""
    return st.integers(1, 12).flatmap(
        lambda d: st.integers(low * d, high * d).map(lambda a: F(a, d))
    )


small_rationals = rationals(-6, 6)
unit_interval = rationals(0, 1)
cube_coordinates = rationals(0, 2)


@st.composite
def barycentric_points(draw, max_n=5):
    """x on the (n-1)-simplex, n <= max_n, over a denominator d <= 12."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    return tuple(F(b - a, d) for a, b in zip([0] + cuts, cuts + [d]))


@st.composite
def bad_psi_arguments(draw):
    """(n, x, lam) that eval_psi must reject, one defect each."""
    x = list(draw(barycentric_points()))
    lam = draw(unit_interval)
    excess = draw(rationals(0, 3).filter(lambda t: t > 0))
    kind = draw(st.sampled_from(["negative", "sum", "lambda", "length"]))
    n = len(x)
    if kind == "negative":  # mass moved off x_0 past zero; the sum stays 1
        x.append(F(0))
        n += 1
        shift = x[0] + excess
        x[0] -= shift
        x[1] += shift
    elif kind == "sum":
        x[draw(st.integers(0, n - 1))] += excess
    elif kind == "lambda":
        lam = draw(st.sampled_from([-excess, 1 + excess]))
    else:
        n += draw(st.sampled_from([-1, 1]))
    return n, tuple(x), lam


@st.composite
def bad_psi_inverse_arguments(draw):
    """(n, y) that eval_psi_inverse must reject: y leaves the cube or has
    the wrong length."""
    y = draw(st.lists(cube_coordinates, min_size=1, max_size=5))
    n = len(y)
    excess = draw(rationals(0, 3).filter(lambda t: t > 0))
    kind = draw(st.sampled_from(["below", "above", "length"]))
    if kind == "length":
        n += draw(st.sampled_from([-1, 1]))
    else:
        i = draw(st.integers(0, n - 1))
        y[i] = -excess if kind == "below" else 2 + excess
    return n, tuple(y)


@st.composite
def point_sets(draw):
    """Rational point lists in Q^dim, some forced dependent."""
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(0, dim + 2))
    flat = draw(st.lists(small_rationals, min_size=dim * count, max_size=dim * count))
    pts = [tuple(flat[i * dim:(i + 1) * dim]) for i in range(count)]
    if count >= 3 and draw(st.booleans()):
        # the last point on the line through the first two
        t = draw(small_rationals)
        pts[-1] = tuple(a + t * (b - a) for a, b in zip(pts[0], pts[1]))
    return pts


@st.composite
def square_matrices(draw, entries=small_rationals):
    """Square rational matrices up to 5 x 5, some with a dependent row."""
    n = draw(st.integers(0, 5))
    flat = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    rows = [flat[i * n:(i + 1) * n] for i in range(n)]
    if n >= 2 and draw(st.booleans()):
        s, t = draw(entries), draw(entries)
        rows[-1] = [s * a + t * b for a, b in zip(rows[0], rows[1])]
    return rows


@settings(max_examples=300, deadline=None)
@given(barycentric_points(), unit_interval)
@example((F(1),), F(0))
@example((F(1, 3), F(2, 3)), F(1, 2))
@example((F(1, 4), F(1, 4), F(1, 2)), F(1))
def test_psi_matches_reference(x, lam):
    y = eval_psi(len(x), x, lam)
    assert y == ref.eval_psi(len(x), x, lam)
    assert all(type(c) is F for c in y)


@settings(max_examples=300, deadline=None)
@given(st.lists(cube_coordinates, min_size=1, max_size=5))
@example([F(0), F(0), F(0)])
@example([F(2), F(2)])
@example([F(1, 3), F(2, 3)])
def test_psi_inverse_matches_reference(y):
    x, lam = eval_psi_inverse(len(y), y)
    assert (x, lam) == ref.eval_psi_inverse(len(y), y)
    assert all(type(c) is F for c in x + (lam,))


@settings(max_examples=200, deadline=None)
@given(bad_psi_arguments())
def test_psi_rejects_what_the_reference_rejects(args):
    with pytest.raises(ValueError):
        ref.eval_psi(*args)
    with pytest.raises(ValueError):
        eval_psi(*args)


@settings(max_examples=200, deadline=None)
@given(bad_psi_inverse_arguments())
def test_psi_inverse_rejects_what_the_reference_rejects(args):
    with pytest.raises(ValueError):
        ref.eval_psi_inverse(*args)
    with pytest.raises(ValueError):
        eval_psi_inverse(*args)


@settings(max_examples=300, deadline=None)
@given(point_sets())
@example([])
@example([pt(0, 0), pt(1, 1), pt(2, 2)])
@example([pt(F(1, 2)), pt(F(1, 3))])
def test_affine_independence_matches_reference(pts):
    assert affinely_independent(pts) == ref.affinely_independent(pts)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
@example([])
@example([[F(0), F(1)], [F(1), F(0)]])
def test_determinant_matches_reference(rows):
    assert determinant(rows) == ref.determinant(rows)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda r: st.integers(0, 5).flatmap(
    lambda c: st.lists(st.lists(st.integers(-30, 30), min_size=c, max_size=c),
                       min_size=r, max_size=r))))
def test_bareiss_rank_and_determinant(rows):
    rank, det = bareiss(rows)
    assert rank == ref.rank(rows)
    square = len(rows) == (len(rows[0]) if rows else 0)
    assert det == (ref.determinant(rows) if square else 0)


@st.composite
def sparse_integer_matrices(draw):
    """Integer matrices up to 6 x 6, mostly zeros, as lists of lists or of
    tuples: columns without a pivot, row swaps and rows scaled without
    elimination all occur."""
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    return [tuple(row) for row in rows] if draw(st.booleans()) else rows


@settings(max_examples=300, deadline=None)
@given(sparse_integer_matrices())
@example([[0, 0], [0, 5]])
@example([(0, 2, 1), (3, 0, 0), (0, 4, 2)])
def test_bareiss_matches_fraction_elimination(rows):
    before = [list(row) for row in rows]
    rank, det = bareiss(rows)
    assert [list(row) for row in rows] == before  # bareiss writes to no row
    assert rank == ref.rank(rows)
    square = len(rows) == (len(rows[0]) if rows else 0)
    assert det == (ref.determinant(rows) if square else 0)


@st.composite
def frames_and_points(draw):
    """(vertices, points) in Q^n, n <= 3: up to n + 2 rational vertices with
    coordinates of either sign, some dependent, and points both at affine
    combinations of them (convex ones among them) and anywhere, mostly off
    their affine hull."""
    dim = draw(st.integers(1, 3))
    points = st.tuples(*[small_rationals] * dim)
    verts = draw(st.lists(points, max_size=dim + 2))
    if len(verts) >= 3 and draw(st.booleans()):
        t = draw(small_rationals)
        verts[-1] = tuple(a + t * (b - a) for a, b in zip(verts[0], verts[1]))
    pts = draw(st.lists(points, max_size=3))
    weights = draw(st.sampled_from([small_rationals, rationals(0, 6)]))
    for _ in range(draw(st.integers(0, 3)) if verts else 0):
        w = draw(st.lists(weights, min_size=len(verts), max_size=len(verts)))
        if sum(w):
            p = (sum(wi * v[d] for wi, v in zip(w, verts)) / sum(w) for d in range(dim))
            pts.append(tuple(p))
    return verts, pts


@settings(max_examples=200, deadline=None)
@given(frames_and_points())
@example(([], [pt(1, 2)]))
@example(([pt(-1, 0), pt(1, 0)], [pt(0, 0), pt(3, 0), pt(0, 1)]))
def test_frame_matches_reference_on_rational_points(case):
    verts, points = case
    frame = BarycentricFrame(verts)
    for p in points:
        expected = barycentric_reference(verts, p)
        assert frame.coords(p) == expected
        assert frame.contains(p) == (expected is not None and all(x >= 0 for x in expected))


@st.composite
def frames_with_a_negative_pivot(draw):
    """(vertices, points, pieces) in Q^n, n <= 3.  The first two vertices
    first differ in a coordinate where the second is smaller, so the
    frame's second pivot is negative; sometimes the last vertex is an
    affine combination of the first two, so the vertices are dependent.
    Points lie anywhere and at affine and convex combinations of the
    vertices; each piece is as many points as there are vertices, drawn from
    the points and the vertices."""
    dim = draw(st.integers(1, 3))
    points = st.tuples(*[small_rationals] * dim)
    v0 = draw(points)
    i = draw(st.integers(0, dim - 1))
    tail = draw(st.tuples(*[small_rationals] * (dim - i - 1)))
    v1 = v0[:i] + (v0[i] - draw(rationals(0, 6).filter(bool)),) + tail
    verts = [v0, v1] + draw(st.lists(points, max_size=dim - 1))
    if draw(st.booleans()):
        t = draw(small_rationals)
        verts.append(tuple(a + t * (b - a) for a, b in zip(v0, v1)))
    pts = draw(st.lists(points, max_size=2))
    for _ in range(draw(st.integers(1, 3))):
        weights = draw(st.sampled_from([small_rationals, rationals(0, 6)]))
        w = draw(st.lists(weights, min_size=len(verts), max_size=len(verts)))
        if sum(w):
            pts.append(tuple(sum(wi * v[d] for wi, v in zip(w, verts)) / sum(w)
                             for d in range(dim)))
    pool = st.sampled_from(pts + verts)
    pieces = draw(st.lists(st.lists(pool, min_size=len(verts), max_size=len(verts)),
                           max_size=3))
    return verts, pts, pieces


@settings(max_examples=200, deadline=None)
@given(frames_with_a_negative_pivot())
@example(([pt(1, 0), pt(0, 0), pt(0, 1)], [pt(F(1, 3), F(1, 3)), pt(2, -1)],
          [[pt(1, 0), pt(0, 0), pt(F(1, 3), F(1, 3))]]))
@example(([pt(1, 0), pt(0, 0), pt(-1, 0)], [pt(F(1, 2), 0), pt(0, 1)],
          [[pt(1, 0), pt(0, 0), pt(F(1, 2), 0)]]))
def test_frame_with_a_negative_pivot_matches_reference(case):
    # the shared pivot turns a negative pivot positive: coordinates,
    # containment and volume ratios are the per-point reference solve's
    verts, points, pieces = case
    frame = BarycentricFrame(verts)
    for p in points:
        expected = barycentric_reference(verts, p)
        assert frame.coords(p) == expected
        assert frame.contains(p) == (expected is not None and min(expected) >= 0)
    for piece in pieces:
        coords = [barycentric_reference(verts, p) for p in piece]
        expected = None if None in coords else abs(ref.determinant(coords))
        assert frame.volume_ratio(piece) == expected


@st.composite
def faces_points_and_tiles(draw):
    """(vertices, face, points, tiles) in Q^n, n <= 4: up to n + 1 affinely
    independent rational vertices, the indices of a nonempty face of them,
    points anywhere (off the hull unless the vertices span Q^n), in the
    face's affine hull, in the face (some on its boundary, with a weight 0)
    and in the simplex but outside the face, and tiles of as many points
    as the face has vertices, drawn from those points and the face's own
    vertices."""
    dim = draw(st.integers(1, 4))
    points = st.tuples(*[small_rationals] * dim)
    verts = draw(st.lists(points, min_size=1, max_size=dim + 1, unique=True))
    assume(affinely_independent(verts))
    face = draw(st.lists(st.integers(0, len(verts) - 1), min_size=1, unique=True))
    pts = draw(st.lists(points, max_size=2))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["face", "boundary", "face hull", "simplex"]))
        w = [draw(small_rationals if kind == "face hull" else rationals(0, 3))
             if i in face or kind == "simplex" else 0 for i in range(len(verts))]
        if kind == "boundary":
            w[draw(st.sampled_from(face))] = 0
        if sum(w):
            pts.append(tuple(sum(wi * v[d] for wi, v in zip(w, verts)) / sum(w)
                             for d in range(dim)))
    pool = st.sampled_from(pts + [verts[i] for i in face])
    tiles = draw(st.lists(st.lists(pool, min_size=len(face), max_size=len(face)),
                          max_size=3))
    return verts, face, pts, tiles


@settings(max_examples=300, deadline=None)
@given(faces_points_and_tiles())
@example(([pt(0, 0), pt(1, 0), pt(0, 1)], [0, 1],
          [pt(0, 1), pt(F(1, 2), 0), pt(2, 0), pt(1, 1)],
          [[pt(1, 0), pt(0, 1)], [pt(0, 0), pt(F(1, 2), 0)], [pt(2, 0), pt(0, 0)]]))
@example(([pt(0, 0, 0), pt(2, 0, 0), pt(0, 2, 0)], [2, 1],
          [pt(0, 1, 1), pt(0, 1, 0), pt(1, 1, 0), pt(0, 3, -1)],
          [[pt(0, 2, 0), pt(2, 0, 0)], [pt(1, 1, 0), pt(0, 2, 0)]]))
def test_face_of_a_shared_frame_reads_as_its_own_frame(case):
    # a point lies in the face iff its coordinates are >= 0 and vanish off
    # the face's columns, and a tile's volume ratio reads the coordinates
    # on those columns: both as against the face's own frame
    verts, face, points, tiles = case
    shared = BarycentricFrame(verts)
    P = [verts[i] for i in face]
    own = BarycentricFrame(sorted(P))
    columns = shared.face(P)
    assert columns == sum(1 << i for i in face)
    for p in points:
        assert shared.contains(p, columns) == own.contains(p), p
    for Q in tiles:
        assert shared.volume_ratio(Q, columns) == own.volume_ratio(Q), Q


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.booleans(), st.integers(-20, 20), small_rationals), max_size=8))
@example([True, False, 3])
@example([F(1, 2), F(-2, 3), 0])
@example([])
def test_scaling_to_integers_matches_reference(row):
    q, b = geomjoin._scaled(row)
    assert (q, b) == ref.scaled(row)
    assert all(type(x) is int for x in b)
    # _integer_points scales points, here pairs, by one common q as well
    pairs = [tuple(row[i:i + 2]) for i in range(0, len(row) - 1, 2)]
    if pairs:
        q, flat = ref.scaled([x for p in pairs for x in p])
        common, points = geomjoin._integer_points(pairs)
        assert common == q
        scaled = [list(p) for p in points]
        assert scaled == [flat[i:i + 2] for i in range(0, len(flat), 2)]
        assert all(type(x) is int for p in scaled for x in p)


@st.composite
def simplex_pairs(draw, own_vertices=False):
    """(A, B, forced): affinely independent rational simplices in Q^n,
    n <= 3, that may share vertices; with own_vertices, each has a vertex
    the other lacks.  A forced pair has a vertex of B at a positive
    combination of the vertices of A, |A| >= 2, so it is improper: that
    vertex lies in conv(A) but not in conv(B - {it}), which holds
    conv(A n B)."""
    dim = draw(st.integers(1, 3))
    points = st.tuples(*[small_rationals] * dim)
    na = draw(st.integers(1, dim + 1))
    A = draw(st.lists(points, min_size=na, max_size=na, unique=True))
    ns = draw(st.integers(0, na - 1 if own_vertices else na))
    shared = draw(st.lists(st.sampled_from(A), min_size=ns, max_size=ns, unique=True))
    nown = draw(st.integers(0 if ns and not own_vertices else 1, dim + 1 - ns))
    own = draw(st.lists(points.filter(lambda p: p not in A), min_size=nown, max_size=nown))
    B = shared + own
    forced = len(A) >= 2 and bool(own) and draw(st.booleans())
    if forced:
        w = draw(st.lists(st.integers(1, 5), min_size=len(A), max_size=len(A)))
        B[-1] = tuple(
            F(sum(wi * p[d] for wi, p in zip(w, A)), sum(w)) for d in range(dim)
        )
    assume(ref.affinely_independent(A) and ref.affinely_independent(B))
    return A, B, forced


T_TOUCH = ([pt(0, 0), pt(2, 0)], [pt(1, 0), pt(1, 1)], False)
# two triangles on one side of their common edge: they overlap
SAME_SIDE = ([pt(0, 0), pt(1, 0), pt(0, 1)], [pt(0, 0), pt(1, 0), pt(1, 1)], False)


@settings(max_examples=400, deadline=None)
@given(simplex_pairs())
@example(T_TOUCH)
@example(SAME_SIDE)
@example(([pt(0, 0), pt(1, 1)], [pt(1, 0), pt(0, 1)], False))
@example(([pt(0, 0), pt(1, 0), pt(0, 1)], [pt(1, 1), pt(1, 0), pt(0, 1)], False))
def test_proper_intersection_matches_lp_reference(pair):
    A, B, forced = pair
    got = proper_intersection(frozenset(A), frozenset(B))
    assert got == ref.proper_intersection(frozenset(A), frozenset(B))
    if forced:
        assert not got[0]


@settings(max_examples=400, deadline=None)
@given(simplex_pairs(own_vertices=True), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@example(T_TOUCH, [0, 1, 0])
@example(SAME_SIDE, [2, -1, 0])
def test_any_accepted_functional_proves_properness(pair, h):
    # the acceptance test is sound whatever functional it is handed
    A, B, _ = pair
    shared = set(A) & set(B)
    a1 = [p for p in A if p not in shared]
    b1 = [q for q in B if q not in shared]
    _, pts = geomjoin._integer_points(a1 + b1 + sorted(shared))
    na, nb = len(a1), len(b1)
    h = h[: len(A[0])]
    if geomjoin._separates(h, pts[:na], pts[na:na + nb], pts[na + nb:]):
        assert ref.proper_intersection(A, B)[0]


# -- the integer cube-map kernels and verify_maps -------------------------------------------


def fraction_grid(n, max_denominator):
    """The grid as a set of Fraction points, built from every tuple of
    numerators that sums to its denominator."""
    return {
        tuple(F(a, d) for a in X)
        for d in range(1, max_denominator + 1)
        for X in itertools.product(range(d + 1), repeat=n)
        if sum(X) == d
    }


def test_integer_grid_is_the_fraction_grid_once():
    for n in range(1, 5):
        for d in range(1, 9):
            numerators = geomjoin._simplex_numerators(n, d)
            points = [tuple(F(a, e) for a in X) for X, e in numerators]
            assert len(set(points)) == len(points)
            assert set(points) == fraction_grid(n, d)
            # each point in lowest terms
            assert all(sum(X) == e and math.gcd(*X) == 1 for X, e in numerators)
            grid = simplex_grid(n, d)
            assert len(set(grid)) == len(grid)
            assert set(grid) == set(points)


@pytest.mark.parametrize("n, d", [(0, 3), (-1, 2), (2, 0), (1, -3)])
def test_simplex_grid_rejects_bad_sizes(n, d):
    with pytest.raises(ValueError):
        simplex_grid(n, d)


@pytest.mark.parametrize("d", [0, -2])
def test_unit_grid_rejects_bad_denominators(d):
    with pytest.raises(ValueError):
        unit_grid(d)


@st.composite
def integer_samples(draw, max_n=5, max_den=50):
    """(X, D, a, b): x = X / D barycentric on the (n-1)-simplex and
    lam = a / b in [0, 1], denominators up to max_den, not always in lowest
    terms (both are scaled by a common factor up to 3)."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_den))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    X = [b - a for a, b in zip([0] + cuts, cuts + [d])]
    b = draw(st.integers(1, max_den))
    a = draw(st.integers(0, b))
    s, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return [s * c for c in X], s * d, t * a, t * b


@settings(max_examples=300, deadline=None)
@given(integer_samples(), st.integers(0, 2))
@example(([1], 1, 1, 1), 2)
@example(([0, 0, 1], 1, 1, 2), 1)
@example(([37, 13], 50, 49, 50), 1)
@example(([2, 2], 4, 0, 3), 0)
def test_psi_kernels_match_reference(sample, extra):
    X, D, a, b = sample
    n = len(X)
    x, lam = tuple(F(c, D) for c in X), F(a, b)
    [(Y, E)] = geomjoin._psi(n, X, D, [(a, b)])
    y = tuple(F(c, E) for c in Y)
    assert y == ref.eval_psi(n, x, lam)
    (X2, S), (a2, b2) = geomjoin._psi_inverse(n, Y, E)
    back = tuple(F(c, S) for c in X2), F(a2, b2)
    assert back == ref.eval_psi_inverse(n, y)
    if lam > 0:
        assert back == (x, lam)
        assert round_trip(n, X, D, a, b)
    # naturality: padding by extra zeros before or after psi
    l = n + extra
    pad = (F(0),) * extra
    agree = ref.eval_psi(l, x + pad, lam) == ref.eval_psi(n, x, lam) + pad
    assert geomjoin._naturality(n, l, [(X, D, a, b)]).passed == agree


@st.composite
def bad_integer_psi_arguments(draw):
    """(n, X, D, a, b) that _psi must reject, one defect each; D, b > 0, so
    that the Fraction reference reads the same x = X / D and lam = a / b."""
    X, D, a, b = draw(integer_samples())
    n = len(X)
    e = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["negative", "sum", "low", "high", "length"]))
    if kind == "negative":  # mass moved off X_0 past zero; the sum stays D
        X.append(0)
        n += 1
        shift = X[0] + e
        X[0] -= shift
        X[1] += shift
    elif kind == "sum":
        X[draw(st.integers(0, n - 1))] += e
    elif kind == "low":
        a = -e
    elif kind == "high":
        a = b + e
    else:
        n += draw(st.sampled_from([-1, 1]))
    return n, X, D, a, b


@st.composite
def integer_cube_points(draw):
    """(Y, E): y = Y / E in [0, 2]^n, n <= 5, E not always in lowest terms."""
    E = draw(st.integers(1, 12))
    return draw(st.lists(st.integers(0, 2 * E), min_size=1, max_size=5)), E


@st.composite
def bad_integer_psi_inverse_arguments(draw):
    """(n, Y, E), E > 0, that _psi_inverse must reject: y leaves the cube or
    has the wrong length."""
    Y, E = draw(integer_cube_points())
    n = len(Y)
    e = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["below", "above", "length"]))
    if kind == "length":
        n += draw(st.sampled_from([-1, 1]))
    else:
        Y[draw(st.integers(0, n - 1))] = -e if kind == "below" else 2 * E + e
    return n, Y, E


def same_error(run, run_reference):
    """Both raise ValueError, with one message."""
    with pytest.raises(ValueError) as expected:
        run_reference()
    with pytest.raises(ValueError) as got:
        run()
    assert str(got.value) == str(expected.value)


@settings(max_examples=300, deadline=None)
@given(bad_integer_psi_arguments())
@example((2, [-1, 2], 1, 1, 2))
@example((1, [1], 1, 3, 2))
def test_psi_kernel_rejects_with_the_reference_message(args):
    n, X, D, a, b = args
    same_error(lambda: geomjoin._psi(n, X, D, [(a, b)]),
               lambda: ref.eval_psi(n, [F(c, D) for c in X], F(a, b)))


lam_numerators = st.integers(1, 50).flatmap(
    lambda b: st.tuples(st.integers(-3, b + 3), st.just(b)))


@settings(max_examples=300, deadline=None)
@given(integer_samples(), st.lists(lam_numerators, max_size=5))
@example(([1, 2], 3, 0, 1), [])
@example(([1, 2], 3, 0, 1), [(1, 2), (4, 3), (-1, 2)])
@example(([0, 3], 3, 0, 1), [(1, 1), (0, 5), (2, 3)])
def test_psi_row_matches_the_reference_lam_by_lam(sample, lams):
    # a row of lam gives the reference's psi(x, lam) for each lam in order,
    # or raises the reference's message for its first lam outside [0, 1]
    X, D, _, _ = sample
    n, x = len(X), [F(c, D) for c in X]
    bad = [F(a, b) for a, b in lams if not 0 <= a <= b]
    if bad:
        same_error(lambda: geomjoin._psi(n, X, D, lams),
                   lambda: ref.eval_psi(n, x, bad[0]))
    else:
        row = geomjoin._psi(n, X, D, lams)
        assert [tuple(F(c, E) for c in Y) for Y, E in row] == [
            ref.eval_psi(n, x, F(a, b)) for a, b in lams]


@settings(max_examples=200, deadline=None)
@given(bad_integer_psi_arguments())
def test_psi_row_checks_the_point_before_any_lam(args):
    n, X, D, a, b = args
    assume(len(X) != n or min(X) < 0 or sum(X) != D)

    def unread():
        raise AssertionError("a lam was read before the point was checked")
        yield

    same_error(lambda: geomjoin._psi(n, X, D, unread()),
               lambda: ref.eval_psi(n, [F(c, D) for c in X], F(a, b)))


@settings(max_examples=300, deadline=None)
@given(integer_cube_points())
@example(([0, 0], 3))
@example(([4, 2, 6], 3))
def test_psi_inverse_kernel_matches_reference(case):
    Y, E = case
    (X, S), (a, b) = geomjoin._psi_inverse(len(Y), Y, E)
    y = [F(c, E) for c in Y]
    assert (tuple(F(c, S) for c in X), F(a, b)) == ref.eval_psi_inverse(len(Y), y)


@settings(max_examples=300, deadline=None)
@given(bad_integer_psi_inverse_arguments())
@example((2, [0, 7], 3))
def test_psi_inverse_kernel_rejects_with_the_reference_message(args):
    n, Y, E = args
    same_error(lambda: geomjoin._psi_inverse(*args),
               lambda: ref.eval_psi_inverse(n, [F(c, E) for c in Y]))


@pytest.mark.parametrize("kernel, args", [
    ("_psi", (1, [0], 0, [(1, 2)])),
    ("_psi", (2, [1, 1], 2, [(0, 0)])),
    ("_psi_inverse", (2, [0, 0], 0)),
])
def test_cube_maps_refuse_zero_denominators(kernel, args):
    # x = X / D, lam = p / q and y = Y / E are numbers only when D, q, E > 0
    with pytest.raises(ValueError, match="positive denominator"):
        getattr(geomjoin, kernel)(*args)


def test_naturality_check_rejects_what_psi_rejects():
    with pytest.raises(ValueError):
        naturality_check_k0(3, 2, [])
    for x, lam in [((F(1, 2), F(1, 4)), F(1, 2)), ((F(1),), F(1)), ((F(1), F(0)), 2)]:
        with pytest.raises(ValueError):
            naturality_check_k0(2, 3, [(x, lam)])


def test_verify_maps_matches_the_cli_and_passes(capsys):
    r = verify_maps(8)
    assert r.passed
    names = [c.name for c in r.checks]
    assert len(names) == 12 + 10
    assert main(["verify", "geometry", "--m", "0", "--grid", "8", "--json"]) == 0
    cli_report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in cli_report["checks"]] == names


def failed_checks(report):
    return {c.name for c in report.checks if not c.passed}


def test_wrong_inverse_fails_the_round_trip(monkeypatch):
    # the inner lam branch taken up to S <= 2E instead of S <= E; at n = 1
    # psi is 2 lam on both halves, so only n >= 2 can see it
    def wrong_inverse(n, Y, E):
        (X, S), lam = real_inverse(n, Y, E)
        return (X, S), ((S, 2 * E) if 0 < S <= 2 * E else lam)

    real_inverse = geomjoin._psi_inverse
    monkeypatch.setattr(geomjoin, "_psi_inverse", wrong_inverse)
    assert failed_checks(verify_maps(8)) == {f"psi round trip n={n}" for n in (2, 3, 4)}


def test_inverse_with_coordinates_swapped_fails_the_round_trip(monkeypatch):
    # x read back with its last two coordinates swapped, lam kept: only the
    # coordinate comparison can see it, at every n >= 2
    def swapped_inverse(n, Y, E):
        (X, S), lam = real_inverse(n, Y, E)
        return (X[:-2] + X[-1:] + X[-2:-1] if n >= 2 else X, S), lam

    real_inverse = geomjoin._psi_inverse
    monkeypatch.setattr(geomjoin, "_psi_inverse", swapped_inverse)
    assert failed_checks(verify_maps(8)) == {f"psi round trip n={n}" for n in (2, 3, 4)}


def seam_scale_off_by_one(real_psi, n, X, D, lams):
    # the inner half scaled by (2p + 1) / q instead of 2p / q
    return [([(2 * p + 1) * c for c in X], E) if 2 * p <= q else (Y, E)
            for (p, q), (Y, E) in zip(lams, real_psi(n, X, D, lams))]


def test_seam_scale_off_by_one_fails_the_seam(monkeypatch):
    monkeypatch.setattr(geomjoin, "_psi", partial(seam_scale_off_by_one, geomjoin._psi))
    failed = failed_checks(verify_maps(8))
    assert {f"psi seam agreement n={n}" for n in range(1, 5)} <= failed
    assert not any(name.startswith("psi(.,1)") for name in failed)


def test_seam_is_checked_at_a_grid_without_one_half(monkeypatch):
    # lam = 1/2 is not among the grid's lam at grid 3, so the seam check
    # reads psi(., 1/2) from the head of each point's row, not from the grid
    assert F(1, 2) not in unit_grid(3)
    assert verify_maps(3).passed
    monkeypatch.setattr(geomjoin, "_psi", partial(seam_scale_off_by_one, geomjoin._psi))
    failed = failed_checks(verify_maps(3))
    assert {f"psi seam agreement n={n}" for n in range(1, 5)} <= failed


def zeros_first(Y, E):
    return [0] + Y[:-1]


def last_coordinate_one(Y, E):
    return Y[:-1] + [E]


@pytest.mark.parametrize("misplace", [zeros_first, last_coordinate_one])
def test_naturality_side_padded_wrongly_fails(monkeypatch, misplace):
    # psi of a point whose last coordinate is 0 comes out padded wrongly:
    # its zero moved first, or its last coordinate 1.  psi_l(x, 0...0) and
    # (psi_p(x), 0...0) then disagree whenever l > p, and agree at l = p
    def wrong_psi(n, X, D, lams):
        row = real_psi(n, X, D, lams)
        if n > 1 and X[-1] == 0:
            row = [(misplace(Y, E), E) for Y, E in row]
        return row

    real_psi = geomjoin._psi
    monkeypatch.setattr(geomjoin, "_psi", wrong_psi)
    natural = [c.passed for c in verify_maps(8).checks if c.location == "naturality k=0"]
    assert natural == [p == l for l in range(1, 5) for p in range(1, l + 1)]


# -- each W-union fact decided once ------------------------------------------------------


def test_W_union_frames_solve_each_point_once(monkeypatch):
    solves = Counter()
    solve_point = BarycentricFrame._solve_point

    def counted(frame, p):
        solves[frame, p] += 1  # the key keeps the frame alive: no id reuse
        return solve_point(frame, p)

    monkeypatch.setattr(BarycentricFrame, "_solve_point", counted)
    assert verify_W_union(standard_config(3, 1), simplex_boundary(2)).passed
    assert solves and max(solves.values()) == 1
    # each Delta_i, tiled by a_i * S_i, is a face of one frame
    assert len({frame for frame, _ in solves}) == 1


def test_W_union_is_built_without_independence_tests(monkeypatch):
    tests = Counter()
    in_union = []
    unions = []
    independent = geomjoin.affinely_independent
    union = EmbeddedComplex.union.__func__

    def counted_independent(points):
        tests[bool(in_union)] += 1
        return independent(points)

    def watched_union(cls, parts):
        in_union.append(True)
        try:
            out = union(cls, parts)
        finally:
            in_union.pop()
        unions.append((parts, out))
        return out

    monkeypatch.setattr(geomjoin, "affinely_independent", counted_independent)
    monkeypatch.setattr(EmbeddedComplex, "union", classmethod(watched_union))
    assert verify_W_union(standard_config(3, 1), simplex_boundary(2)).passed
    # none at all: fact (ii) made the only ones, (k + 1)^m before the union,
    # while it called joinable; it reads the a_i's block coordinates now
    assert not tests
    ((parts, out),) = unions
    monkeypatch.setattr(geomjoin, "affinely_independent", independent)
    simplices = [s for X in parts for s in X.maximal]
    assert out == from_simplices(out.ambient, simplices)


class _DependentBarycenters(StandardConfig):
    """a_i moved onto the line through the first two vertices of block i."""

    def scaled_a(self, i):
        v1, v2 = self.block(i)[:2]
        return tuple(2 * x - y for x, y in zip(v1, v2))


def test_dependent_W_side_raises_at_its_construction(monkeypatch):
    # with k = 2, a_1 * S_[m] holds {a_1, L v_1^1, L v_1^2, ...}, which is
    # dependent: fact (ii) refuses it before any side is built.  a_1 lies on
    # block 1's line, so the message names it outside Delta_1's interior
    # (it named the dependent join before fact (ii) read the a_i's blocks)
    unions = []
    monkeypatch.setattr(EmbeddedComplex, "union",
                        classmethod(lambda cls, parts: unions.append(parts)))
    cfg = _DependentBarycenters(2, 2)
    with pytest.raises(InvariantError) as failed:
        verify_W_union(cfg, full_simplex(1))
    assert str(failed.value) == ("a_1 = (6, -3, 0, 0, 0, 0) is not in the relative"
                                 " interior of Delta_1")
    assert unions == []


# -- the configuration's two independence facts ------------------------------------------


class _RepeatedBlockVertex(StandardConfig):
    """The last vertex of each block replaced by its first (a change only
    at k >= 1)."""

    def block(self, i):
        pts = StandardConfig.block(self, i)
        return pts[:-1] + pts[:1]


def test_repeated_block_vertex_fails_fact_i():
    # the block vertices are decided once, when the configuration is built;
    # the verifiers test no simplex on block vertices alone after that
    for m, k in [(1, 1), (2, 1), (3, 2)]:
        with pytest.raises(InvariantError, match="affinely dependent"):
            _RepeatedBlockVertex(m, k)
    assert _RepeatedBlockVertex(2, 0).block(2) == standard_config(2, 0).block(2)


@pytest.mark.parametrize("m, k", [(1, 0), (1, 2), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2)])
def test_W_union_decides_fact_ii_once(m, k, monkeypatch):
    # fact (ii) depends on (m, k) alone and is read from the frame's solve
    # of each a_i, made at the configuration's first W-union with those of
    # the block vertices (n + m points, n at k = 0, where a_i is its block's
    # vertex), and none after; no independence test, where joinable took
    # (k + 1)^m at the first W-union
    cfg = standard_config(m, k)
    corpus = [empty_complex(m), full_simplex(m - 1),
              from_facets(m, [(i,) for i in range(1, m + 1)])]
    if m >= 3:
        corpus.append(simplex_boundary(m - 1))
    counts = Counter()
    monkeypatch.setattr(geomjoin, "affinely_independent",
                        counted(counts, "tests", geomjoin.affinely_independent))
    monkeypatch.setattr(BarycentricFrame, "_solve_point",
                        counted(counts, "solves", BarycentricFrame._solve_point))
    for K in corpus:
        counts.clear()
        assert verify_W_union(cfg, K).passed
        assert counts["tests"] == 0, K
        assert counts["solves"] == (cfg.n + m * bool(k) if K is corpus[0] else 0), K


class _BarycenterOnABlockVertex(StandardConfig):
    """a_1 moved onto L v_1^1, a vertex of S_1 at k >= 1."""

    def scaled_a(self, i):
        return self.block(1)[0] if i == 1 else StandardConfig.scaled_a(self, i)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_W_union_refuses_a_barycenter_on_a_sphere_vertex(m):
    # a_[m] and a facet of S_[m] share L v_1^1.  Tested as one set, their
    # union merged the shared point and stayed independent, so every W-union
    # check passed; fact (ii) requires each a_i interior to Delta_i, which a
    # vertex is not at k = 1, and names a_1 (it named the shared vertex
    # while fact (ii) tested a_[m] and S_[m] disjoint).  verify_gjs rejects
    # the same configuration
    cfg = _BarycenterOnABlockVertex(m, 1)
    shared = cfg.block(1)[0]
    for K in [empty_complex(m), full_simplex(m - 1), from_facets(m, [(1,)])]:
        with pytest.raises(InvariantError) as failed:
            verify_W_union(cfg, K)
        assert str(failed.value) == (f"a_1 = {shared} is not in the relative"
                                     " interior of Delta_1")
    assert not verify_gjs(cfg, (1,)).passed


def test_fact_ii_refuses_an_improper_join_of_independent_simplices():
    # at k = 1 each a_i lies on the line of S_i's two points, beyond the
    # first: every a_[m] | beta is independent, but the join's simplices
    # overlap.  Only the per-tile pairs of the w1 tiling caught this, for
    # each K but {empty}; fact (ii) decides a_[m] * S_[m] block by block, so
    # every W-union on the configuration raises and names the first a_i
    # outside its block's interior (joinable's witness of an improper pair,
    # (0, 0, 2, 0), was named while fact (ii) decided the whole join).  The
    # oracle agrees that the join is not geometric
    cfg = _DependentBarycenters(2, 1)
    a_full = [cfg.scaled_a(i) for i in (1, 2)]
    s_full = cfg.sphere_join((1, 2)).maximal
    assert all(affinely_independent([*a_full, *beta]) for beta in s_full)
    assert not ref.joinable(geomjoin._a_sigma(cfg, (1, 2)), cfg.sphere_join((1, 2)))[0]
    for K in [empty_complex(2), full_simplex(1), from_facets(2, [(1,), (2,)])]:
        with pytest.raises(InvariantError) as failed:
            verify_W_union(cfg, K)
        assert str(failed.value) == ("a_1 = (4, -2, 0, 0) is not in the relative"
                                     " interior of Delta_1")


@pytest.mark.parametrize("m, k, K", [(3, 1, simplex_boundary(2)), (3, 2, full_simplex(2))])
def test_W_union_decides_pairs_only_in_fact_ii(m, k, K, monkeypatch):
    # fact (ii) reads each a_i's block coordinates, and carrier_equal tests
    # no pair of tiles, so no W-union call decides a pair.  The first call
    # made one per pair of the (k + 1)^m simplices of a_[m] * S_[m] while
    # fact (ii) called joinable (28 at (3, 1), 351 at (3, 2)), and every call
    # 48 at (3, 1) and 756 at (3, 2) when each tiling tested its pairs
    counts = Counter()
    monkeypatch.setattr(geomjoin, "proper_intersection",
                        counted(counts, "pairs", geomjoin.proper_intersection))
    cfg = standard_config(m, k)
    pairs = []
    for L in [K, K, empty_complex(m)]:
        counts.clear()
        assert verify_W_union(cfg, L).passed
        pairs.append(counts["pairs"])
    assert pairs == [0, 0, 0]


def test_gjs_reports_a_dependent_join_and_finishes():
    # each a_sigma | t is dependent: no a_i is interior, so the join is
    # rejected, and the pieces are still built, with no independence test,
    # and fail the tiling
    cfg = _DependentBarycenters(2, 2)
    for sigma in [(1,), (1, 2)]:
        checks = [(c.name, c.passed) for c in verify_gjs(cfg, sigma).checks]
        assert checks == [
            ("a_sigma joinable to S_sigma", False),
            ("join vertices inside Delta_sigma", False),
            ("pieces intersect properly and stay inside", False),
            ("volume identity (tiling of Delta_sigma)", False),
        ], sigma


def test_dependent_configuration_is_an_internal_error(monkeypatch, capsys):
    # the sweep's configurations with k >= 1 take _DependentBarycenters's
    # barycenters; fact (ii) fails at the first of them, (m, k) = (1, 1),
    # where a_1 lies on the line of S_1's two points, outside Delta_1, so the
    # segments of a_1 * S_1 overlap: a fault of the program's own
    # configuration, not of its input
    scaled_a = StandardConfig.scaled_a
    monkeypatch.setattr(StandardConfig, "scaled_a", lambda self, i: (
        _DependentBarycenters.scaled_a(self, i) if self.k else scaled_a(self, i)))
    assert main(["verify", "geometry", "--m", "2", "--k", "2"]) == 3
    err = capsys.readouterr().err
    assert err == ("internal error: a_1 = (4, -2) is not in the relative interior"
                   " of Delta_1\n")


def test_gji_reads_fact_i_and_tests_the_a_i_once(monkeypatch):
    # Delta_i and S_i are read from fact (i) as faces of Delta_[m], and the
    # a_i take one independence test, where the fold made m - 1 joinable
    # calls per collection
    counts = Counter()
    monkeypatch.setattr(geomjoin, "affinely_independent",
                        counted(counts, "tests", affinely_independent))
    for m in (1, 2, 3, 4):
        counts.clear()
        assert verify_gji(standard_config(m, 1), range(1, m + 1)).passed
        assert counts == {"tests": 1}, m


def test_gjs_builds_only_the_spheres_of_sigma(monkeypatch):
    # each sphere is built once per configuration, when a sigma first needs
    # it, and none outside sigma
    built = []
    sphere = StandardConfig.sphere
    monkeypatch.setattr(StandardConfig, "sphere",
                        lambda self, i: built.append(i) or sphere(self, i))
    cfg = standard_config(3, 2)
    for sigma, new in [((1,), [1]), ((1, 3), [3]), ((1, 3), [])]:
        built.clear()
        assert verify_gjs(cfg, sigma).passed
        assert built == new, sigma


def counted(counts, name, fn):
    """fn, counting its calls under name."""
    def wrapper(*args):
        counts[name] += 1
        return fn(*args)
    return wrapper


def test_gji_and_gjs_build_accepted_joins_without_independence_tests(monkeypatch):
    # geometric_join builds and tests nothing, and gjs decides its join by
    # the a_i's block coordinates: its only independence tests were the
    # disjoint pairs of its joinable call.  gji's one test is of the a_i
    counts = Counter()
    monkeypatch.setattr(geomjoin, "affinely_independent",
                        counted(counts, "tests", geomjoin.affinely_independent))
    for m in (1, 2, 3):
        for k in (0, 1, 2):
            cfg = standard_config(m, k)
            cases = [(partial(verify_gji, cfg, range(1, m + 1)), 1)]
            cases += [(partial(verify_gjs, cfg, range(1, s + 1)), 0) for s in range(1, m + 1)]
            for case, tests in cases:
                counts.clear()
                assert case().passed
                assert counts["tests"] == tests, (m, k, case)


def test_geometry_sweep_work_counts_are_pinned(monkeypatch, capsys):
    # verify geometry --m 3 --k 2 decides each fact once, so a faster kernel
    # cannot hide extra calls.  affinely_independent ran 2,598 times when
    # every join was tested, 2,434 when accepted joins were built from
    # joinable's pairs, and 411 since the configuration's two facts decide
    # its complexes, 371 since verify_gji decides each family by its fold
    # alone, and 220 since the configuration decides both facts once;
    # proper_intersection ran 2,574 times when verify_gji decided every pair
    # and its whole fold, 2,490 when the fold skipped its first pair, 2,406
    # by the fold alone, and 1,363 since fact (ii) decides a_[m] * S_[m] a
    # geometric join and carrier_equal tests no pair of its tiles.  A frame
    # per piece of each Delta_sigma * S*_sigma made 402 frames and 3,033
    # solves; one frame of Delta_[m] per verify_W_union and verify_gjs call
    # made 45 frames and 222 solves; one per configuration makes 9, and
    # solves each of its n block vertices and m barycenters (the block
    # vertices at k = 0) once: 48.  verify_gji's folds made 82 of the 220
    # independence tests and 463 of the 1,363 proper intersections; it reads
    # Delta_i and S_i from fact (i) and tests the a_i once per
    # configuration: 147 and 900 then.  Since fact (ii), gjs and w1 read the
    # a_i's block coordinates (the join lemma), the 27 joinable calls are
    # gone: fact (ii)'s 56 independence tests and 425 proper intersections,
    # gjs's 82 and 475, so gji's 9 tests are the only ones and no pair is
    # decided.  w1 tiles each Delta_i by a_i * S_i, one carrier_equal per
    # block and call, 60 (93 per sigma), with (k + 1) volume ratios each, 120
    # next to gjs's 82 (841 next to 82 tiling each Delta_sigma * S*_sigma)
    counts = Counter()
    targets = [
        (geomjoin, "affinely_independent"),
        (BarycentricFrame, "_solve_point"),
        (geomjoin, "proper_intersection"),
        (geomjoin, "lp_max"),
        (BarycentricFrame, "__init__"),
        (geomjoin, "carrier_equal"),
        (BarycentricFrame, "volume_ratio"),
    ]
    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(counts, name, getattr(owner, name)))
    # frames pivot through the LP's fraction-free _pivot, once per vertex of
    # their independent vertex lists (sum n = 36 over the 9 frames), so a
    # frame with an elimination of its own reads 0 here
    monkeypatch.setattr(geomjoin, "_pivot", counted(counts, "frame pivots",
                                                     exactlin._pivot), raising=False)
    assert main(["verify", "geometry", "--m", "3", "--k", "2"]) == 0
    assert [counts[name] for _, name in targets] == [9, 48, 0, 0, 9, 60, 202]
    assert counts["frame pivots"] == 36
    # --m 4 --k 1 made 353 proper intersections and 907 volume ratios
    counts.clear()
    assert main(["verify", "geometry", "--m", "4", "--k", "1"]) == 0
    assert [counts[name] for _, name in targets] == [8, 40, 0, 0, 8, 72, 170]


# -- w1 through verify_W_union ------------------------------------------------------------


class _SphereMissingAFacet(StandardConfig):
    """S_1 without its first facet (k >= 1): a_1 * S_1 leaves part of Delta_1
    uncovered, and S_1 is a disk."""

    def sphere(self, i):
        S = StandardConfig.sphere(self, i)
        if i != 1:
            return S
        return EmbeddedComplex(self.n, S.maximal - {min(S.maximal, key=sorted)})


@pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_W_union_fails_w1_exactly_at_the_sigmas_of_a_block_that_fails(m, k):
    # w1 at sigma is the conjunction of sigma's blocks only: Delta_1 is not
    # a_1 * S_1, so w1 fails at every sigma that holds 1 and passes at every
    # other (at sigma = () both presentations are S_[m]).  The union is a
    # join with the contractible S_1, so w2 fails where K's suspension is
    # not contractible: K = {empty}, and m >= 2 points.  27 lines over the
    # 15 calls, the same as when w1 tiled each Delta_sigma * S*_sigma
    cfg = _SphereMissingAFacet(m, k)
    points = from_facets(m, [(i,) for i in range(1, m + 1)])
    for K, w2_fails in [(full_simplex(m - 1), False), (empty_complex(m), True),
                        (points, m >= 2)]:
        failing = [c.name for c in verify_W_union(cfg, K).checks if not c.passed]
        expected = [f"W_sigma two presentations agree, sigma={list(sigma)}"
                    for sigma in K.faces() if 1 in sigma]
        expected += ["union W_sigma homology = km-shifted homology of K"] * w2_fails
        assert failing == expected, (m, k, K)


# -- blockwise verdicts against the pairwise oracle ------------------------------------


def fact_ii_verdict(cfg):
    """Whether fact (ii) holds; an InvariantError other than its verdict,
    such as an a_i off its block's hull, propagates."""
    try:
        cfg.fact_ii()
    except InvariantError as e:
        if "is not in the relative interior of Delta_" not in str(e):
            raise
        return False
    return True


def oracle(cfg, sigma):
    """The pairwise verdict: a_sigma * S_sigma is a geometric join."""
    return ref.joinable(geomjoin._a_sigma(cfg, sigma), cfg.sphere_join(sigma))[0]


def check_blockwise_against_oracle(cfg):
    """Where each a_i of a block lies in its block's affine hull, fact (ii)
    and gjs's joinability line at sigma = (1,) and [m] give the oracle's
    verdicts; where one does not, fact (ii) and gjs raise InvariantError."""
    full = tuple(range(1, cfg.m + 1))
    off_hull = "is off the affine hull of Delta_"
    if all(in_block_hull(cfg, i) for i in full):
        assert fact_ii_verdict(cfg) == oracle(cfg, full)
    else:
        with pytest.raises(InvariantError, match=off_hull):
            cfg.fact_ii()
    for sigma in sorted({(1,), full}):
        if all(in_block_hull(cfg, i) for i in sigma):
            assert verify_gjs(cfg, sigma).checks[0].passed == oracle(cfg, sigma), sigma
        else:
            with pytest.raises(InvariantError, match=off_hull):
                verify_gjs(cfg, sigma)


@st.composite
def moved_barycenters(draw):
    """a_1 at m <= 3, k <= 2: in block 1's hull, by k + 1 rational weights
    summing to 1, all positive or each negative, zero or positive; and,
    in two of three draws, pushed by a rational vector or by c (e_j - e_l),
    which may leave it in block 1's hull, in Delta_[m]'s but off the block,
    or off both."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    n = (k + 1) * m
    if draw(st.booleans()):
        parts = draw(st.lists(st.integers(1, 5), min_size=k + 1, max_size=k + 1))
        weights = tuple(F(p, sum(parts)) for p in parts)
    else:
        free = draw(st.lists(st.one_of(st.just(F(0)), rationals(-2, 2)),
                             min_size=k, max_size=k))
        weights = (*free, 1 - sum(free))
    push = draw(st.sampled_from(["none", "vector", "across"]))
    if push == "vector":
        push = tuple(draw(st.lists(rationals(-2, 2), min_size=n, max_size=n)))
    elif push == "across":
        j, l = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(rationals(-2, 2))
        push = tuple(c * ((x == j) - (x == l)) for x in range(n))
    else:
        push = ()
    return MovedBarycenter(m, k, weights, push)


@settings(max_examples=150, deadline=None)
@given(moved_barycenters())
@example(MovedBarycenter(3, 2, (F(1, 3),) * 3))
@example(MovedBarycenter(2, 1, (F(1), F(0))))
@example(MovedBarycenter(2, 2, (F(-1, 2), F(1), F(1, 2))))
@example(MovedBarycenter(2, 1, (F(1, 2),) * 2, (-1, 0, 1)))
def test_blockwise_verdicts_match_the_pairwise_oracle(cfg):
    check_blockwise_against_oracle(cfg)


@pytest.mark.parametrize("config, least", [
    (StandardConfig, (1, 0)), (_OffBlockBarycenter, (1, 0)),
    (_BarycenterOnTheFirst, (2, 0)), (_CollinearBarycenters, (3, 0)),
    (_BarycenterAcrossBlocks, (2, 0)), (_DoubledBarycenters, (1, 0)),
    (_DependentBarycenters, (1, 1)), (_BarycenterOnABlockVertex, (1, 0)),
    (_RepeatedBlockVertex, (1, 0)), (_SphereMissingAFacet, (1, 1)),
    (_RepeatedSphere, (3, 0)), (_SphereVertexOffBlock, (1, 0)),
    (_SphereVertexInTheNextBlock, (2, 0))])
def test_mutants_blockwise_verdicts_match_the_pairwise_oracle(config, least):
    # every StandardConfig mutant of this file at m <= 3, k <= 2 from its
    # least (m, k).  The join lemma needs each S_i in Delta_i's boundary:
    # where a sphere leaves it, fact (ii) and gjs's joinability line, which
    # read the a_i alone, pass, the oracle may reject the join (it does for
    # _RepeatedSphere and _SphereVertexInTheNextBlock), and gjs's tiling
    # lines and w1 fail.  A repeated block vertex fails fact (i) first
    for m in range(least[0], 4):
        for k in range(least[1], 3):
            try:
                cfg = config(m, k)
            except InvariantError:
                assert config is _RepeatedBlockVertex and k
                continue
            full = tuple(range(1, m + 1))
            if all(s < set(cfg.block(i)) for i in full for s in cfg.sphere(i).maximal):
                check_blockwise_against_oracle(cfg)
                continue
            assert fact_ii_verdict(cfg) and verify_gjs(cfg, full).checks[0].passed
            assert not verify_gjs(cfg, full).passed, (m, k)
            assert not verify_W_union(cfg, full_simplex(m - 1)).passed, (m, k)
