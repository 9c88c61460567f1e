"""Geometric joins over Q^n: predicates, standard configuration, carrier
equality, and the cube reparametrization psi."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polysmash import geomjoin
from polysmash.chains import homology, simplicial_chain_complex
from polysmash.cli import main
from polysmash.complexes import empty_complex, from_facets, full_simplex, simplex_boundary
from polysmash.exactlin import bareiss, lp_max, rank_rational
from polysmash.geomjoin import (
    BarycentricFrame,
    EmbeddedComplex,
    StandardConfig,
    affinely_independent,
    barycentric_coords,
    carrier_equal,
    determinant,
    embedded_point,
    empty_embedded,
    geometric_join,
    joinable,
    proper_intersection,
    realization_AK,
    sigma_complexes,
    standard_config,
    unit,
    verify_gji,
    verify_gjs,
    verify_maps,
    verify_W_union,
)

import geom_reference as ref
from bary_reference import barycentric_reference
from homology_reference import group
from lp_reference import lp_max as reference_lp_max
from maps_views import (
    eval_psi,
    eval_psi_inverse,
    naturality_check_k0,
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


def verify_small_configs():
    """verify_gjs and verify_W_union at m <= 2, k <= 2, each must pass."""
    for m in (1, 2):
        for k in (0, 1, 2):
            cfg = standard_config(m, k)
            for size in range(1, m + 1):
                assert verify_gjs(cfg, tuple(range(1, size + 1))).passed
            corpus = [empty_complex(m), full_simplex(m - 1)]
            if m >= 2:
                corpus.append(from_facets(m, [(i,) for i in range(1, m + 1)]))
            for K in corpus:
                assert verify_W_union(cfg, K).passed


def test_proper_intersection_lps_match_reference(monkeypatch):
    # every LP that verify_gjs and verify_W_union raise at m <= 2, k <= 2
    # once the separating functional declines every pair
    seen = []

    def recording(P):
        res = lp_max(P)
        seen.append((P, res))
        return res

    monkeypatch.setattr(geomjoin, "_separated", lambda A, B, shared: False)
    monkeypatch.setattr(geomjoin, "lp_max", recording)
    verify_small_configs()
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
    # the separating functional proves every pair the verifiers meet at
    # m <= 2, k <= 2 proper
    accepted, lps = count_functional_and_lps(monkeypatch)
    verify_small_configs()
    assert lps == []
    assert len(accepted) >= 50 and all(accepted)


def test_geometry_sweep_never_reaches_the_lp(monkeypatch):
    # the CLI's sweep at m <= 3, k <= 2, W on the boundary of the 2-simplex
    # included (the grid only sizes the map checks): no benchmark workload
    # reaches the LP, so this count is what shows the standard configuration
    # falling back to it
    accepted, lps = count_functional_and_lps(monkeypatch)
    assert main(["verify", "geometry", "--m", "3", "--k", "2", "--grid", "1"]) == 0
    assert lps == []
    assert len(accepted) >= 2000 and all(accepted)


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


def test_functional_is_made_orthogonal_to_the_shared_face():
    # triangles on opposite sides of their common edge, skewed: the centroid
    # difference (3, -2) is not constant on the edge, its part orthogonal to
    # the edge is, and it separates the two apexes
    a = [pt(0, 0), pt(2, 0), pt(0, 1)]
    b = [pt(0, 0), pt(2, 0), pt(3, -1)]
    assert geomjoin._separated(sorted(a), sorted(b), set(a) & set(b))
    assert proper_intersection(a, b) == (True, None)


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
    Y = EmbeddedComplex.from_simplices(
        3, [frozenset({pt(1, 0, 0), pt(0, 1, 0)})]
    )
    ok, _ = joinable(X, Y)
    assert ok
    J = geometric_join(X, Y)
    assert len(J.maximal) == 1
    # join segments crossing at the square center: improper intersection
    A = EmbeddedComplex.from_simplices(
        2, [frozenset({pt(0, 0)}), frozenset({pt(0, 1)})]
    )
    B = EmbeddedComplex.from_simplices(
        2, [frozenset({pt(1, 1)}), frozenset({pt(1, 0)})]
    )
    ok, failures = joinable(A, B)
    assert not ok
    assert any(f["kind"] == "improper intersection" for f in failures)
    # geometric_join only builds: it returns the four segments all the same
    assert len(geometric_join(A, B).maximal) == 4
    # collinear combination: affine dependence failure
    P = embedded_point(pt(0, 0))
    Q = EmbeddedComplex.from_simplices(2, [frozenset({pt(1, 1), pt(2, 2)})])
    ok, failures = joinable(P, Q)
    assert not ok
    assert any(f["kind"] == "affine dependence" for f in failures)


def test_join_with_empty_space_is_identity():
    X = embedded_point(pt(1, 0))
    E = empty_embedded(2)
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
    assert cfg.v(1, 1) == unit(4, 1)
    assert cfg.v(2, 2) == unit(4, 4)
    assert cfg.a(1) == pt(F(1, 2), F(1, 2), 0, 0)
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
            block = [tuple(L * c for c in cfg.v(i, l)) for l in range(1, L + 1)]
            assert cfg.block(i) == block
            assert cfg.delta(i).vertices() == sorted(block)
            scaled_a.append(tuple(L * c for c in cfg.a(i)))
            assert cfg.a_point_complex(i).vertices() == [scaled_a[-1]]
            assert all(type(c) is int for p in cfg.block(i) for c in p)
            assert all(type(c) is int for c in cfg.scaled_a(i))
        _, _, _, a_sigma = sigma_complexes(cfg, range(1, m + 1))
        assert a_sigma.vertices() == sorted(scaled_a)
        assert realization_AK(cfg, full_simplex(m - 1)).vertices() == sorted(scaled_a)


def test_standard_config_k0_sphere_empty():
    cfg = standard_config(2, 0)
    assert cfg.sphere(1).is_empty()
    assert cfg.delta(1).maximal == frozenset({frozenset({unit(2, 1)})})


def test_sigma_complexes_m2_k1():
    cfg = standard_config(2, 1)
    delta_sigma, s_sigma, s_star, a_sigma = sigma_complexes(cfg, (1, 2))
    assert len(next(iter(delta_sigma.maximal))) == 4
    # S_{1} * S_{2}: 2 x 2 joined edges
    assert len(s_sigma.maximal) == 4
    assert s_star.is_empty()
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
                              if comp else empty_embedded(cfg.n))


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
    # a segment split at the midpoint equals the whole segment
    seg = EmbeddedComplex.from_simplices(1, [frozenset({pt(0), pt(2)})])
    split = EmbeddedComplex.from_simplices(
        1, [frozenset({pt(0), pt(1)}), frozenset({pt(1), pt(2)})]
    )
    assert carrier_equal(seg, split)
    assert carrier_equal(split, seg)
    shorter = EmbeddedComplex.from_simplices(1, [frozenset({pt(0), pt(1)})])
    assert not carrier_equal(seg, shorter)
    assert not carrier_equal(shorter, seg)


def test_verify_gji_small():
    for m, k in [(1, 0), (2, 0), (2, 1), (3, 1)]:
        r = verify_gji(standard_config(m, k), range(1, m + 1))
        assert r.passed, (m, k, str(r))


def test_verify_gjs_small():
    for m, k in [(1, 1), (2, 1), (2, 2)]:
        cfg = standard_config(m, k)
        for size in range(1, m + 1):
            r = verify_gjs(cfg, tuple(range(1, size + 1)))
            assert r.passed, (m, k, size, str(r))
    with pytest.raises(ValueError):
        verify_gjs(standard_config(2, 1), ())


def test_verify_gjs_failure_counts_are_pinned(monkeypatch):
    # barycenters doubled: a_sigma leaves Delta_sigma, so the containment,
    # tiling and volume checks fail; the counts are hull misses, improper
    # pairs and piece vertices outside Delta_sigma
    scaled_a = geomjoin.StandardConfig.scaled_a
    monkeypatch.setattr(geomjoin.StandardConfig, "scaled_a",
                        lambda self, i: tuple(2 * x for x in scaled_a(self, i)))
    cfg = standard_config(2, 1)
    for sigma, violations in [((1,), 4), ((1, 2), 12)]:
        checks = [(c.name, c.passed, c.actual) for c in verify_gjs(cfg, sigma).checks]
        assert checks == [
            ("a_sigma joinable to S_sigma", True, "joinable"),
            ("join vertices inside Delta_sigma", False, "outside"),
            ("pieces intersect properly and stay inside", False,
             f"{violations} violations"),
            ("volume identity (tiling of Delta_sigma)", False, "0"),
        ], sigma


def test_verify_gjs_reads_improper_pairs_from_joinable(monkeypatch):
    # every join pair called improper: joinability fails, and each improper
    # pair is one violation of the tiling, counted once
    monkeypatch.setattr(geomjoin, "proper_intersection", lambda a, b: (False, None))
    cfg = standard_config(2, 1)
    for sigma, pairs in [((1,), 1), ((1, 2), 6)]:
        checks = [(c.name, c.passed, c.actual) for c in verify_gjs(cfg, sigma).checks]
        assert checks == [
            ("a_sigma joinable to S_sigma", False, "not joinable"),
            ("join vertices inside Delta_sigma", True, "contained"),
            ("pieces intersect properly and stay inside", False,
             f"{pairs} violations"),
            ("volume identity (tiling of Delta_sigma)", True, "1"),
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
    assert rank == rank_rational(rows)
    square = len(rows) == (len(rows[0]) if rows else 0)
    assert det == (ref.determinant(rows) if square else 0)


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
    pts = geomjoin._integer_points(a1 + b1 + sorted(shared))
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
    Y, E = geomjoin._psi(n, X, D, a, b)
    y = tuple(F(c, E) for c in Y)
    assert y == ref.eval_psi(n, x, lam)
    (X2, S), (a2, b2) = geomjoin._psi_inverse(n, Y, E)
    back = tuple(F(c, S) for c in X2), F(a2, b2)
    assert back == ref.eval_psi_inverse(n, y)
    if lam > 0:
        assert back == (x, lam)
        assert geomjoin._round_trip(n, X, D, a, b)
    # naturality: padding by extra zeros before or after psi
    l = n + extra
    pad = (F(0),) * extra
    agree = ref.eval_psi(l, x + pad, lam) == ref.eval_psi(n, x, lam) + pad
    assert geomjoin._naturality(n, l, [(X, D, a, b)]).passed == agree


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


def test_seam_scale_off_by_one_fails_the_seam(monkeypatch):
    # the inner half scaled by (2p + 1) / q instead of 2p / q
    def wrong_psi(n, X, D, p, q):
        Y, E = real_psi(n, X, D, p, q)
        if 2 * p <= q:
            Y = [(2 * p + 1) * c for c in X]
        return Y, E

    real_psi = geomjoin._psi
    monkeypatch.setattr(geomjoin, "_psi", wrong_psi)
    failed = failed_checks(verify_maps(8))
    assert {f"psi seam agreement n={n}" for n in range(1, 5)} <= failed
    assert not any(name.startswith("psi(.,1)") for name in failed)


def zeros_first(Y, E):
    return [0] + Y[:-1]


def last_coordinate_one(Y, E):
    return Y[:-1] + [E]


@pytest.mark.parametrize("misplace", [zeros_first, last_coordinate_one])
def test_naturality_side_padded_wrongly_fails(monkeypatch, misplace):
    # psi of a point whose last coordinate is 0 comes out padded wrongly:
    # its zero moved first, or its last coordinate 1.  psi_l(x, 0...0) and
    # (psi_p(x), 0...0) then disagree whenever l > p, and agree at l = p
    def wrong_psi(n, X, D, p, q):
        Y, E = real_psi(n, X, D, p, q)
        if n > 1 and X[-1] == 0:
            Y = misplace(Y, E)
        return Y, E

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
    assert len({frame for frame, _ in solves}) > 1


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
    assert tests[True] == 0 and tests[False] > 0
    ((parts, out),) = unions
    monkeypatch.setattr(geomjoin, "affinely_independent", independent)
    simplices = [s for X in parts for s in X.maximal]
    assert out == EmbeddedComplex.from_simplices(out.ambient, simplices)


class _DependentBarycenters(StandardConfig):
    """a_i moved onto the line through the first two vertices of block i."""

    def scaled_a(self, i):
        v1, v2 = self.block(i)[:2]
        return tuple(2 * x - y for x, y in zip(v1, v2))


def test_dependent_W_side_raises_at_its_construction(monkeypatch):
    # with k = 2, a_1 * S_[m] holds {a_1, L v_1^1, L v_1^2, ...}, which is
    # dependent: building that side must refuse it, before any union
    unions = []
    monkeypatch.setattr(EmbeddedComplex, "union",
                        classmethod(lambda cls, parts: unions.append(parts)))
    cfg = _DependentBarycenters(2, 2)
    with pytest.raises(ValueError, match="affinely dependent"):
        verify_W_union(cfg, full_simplex(1))
    assert unions == []
