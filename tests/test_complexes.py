"""Complex combinatorics: doubling fixtures, joins, suspensions, generators."""

import re
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysmash import complexes as cxm
from polysmash.chains import homology, simplicial_chain_complex
from polysmash.complexes import (
    SimplicialComplex,
    double,
    double_iterated,
    doubled_face_count,
    doubled_face_levels,
    doubled_label_count,
    empty_complex,
    from_facets,
    full_simplex,
    random_complex,
    simplex_boundary,
)

from complexes_reference import (
    dim,
    double_iterated_loop,
    double_once,
    f_vector,
    faces_by_combinations,
    from_facets_loop,
    is_face,
    join_abstract,
    suspension,
)
from conftest import RP2_FACETS
from relabel_reference import facet_equal_upto_relabel


@st.composite
def complexes(draw, min_m=1, max_m=5):
    """A complex on 1..m from up to five generating faces of at most three
    vertices; no generators gives the empty complex, and vertices outside
    every generator are ghosts."""
    m = draw(st.integers(min_m, max_m))
    gens = draw(st.lists(st.sets(st.integers(1, m), min_size=1, max_size=3),
                         max_size=5))
    return from_facets(m, gens)


def test_faces_and_f_vector():
    K = simplex_boundary(2)
    assert K.faces() == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert f_vector(K) == [3, 3]
    assert K.euler_reduced() == -1  # chi(S^1) = 0, reduced drops a point
    assert dim(K) == 1
    assert is_face(K, (1, 3)) and not is_face(K, (1, 2, 3))


def test_from_facets_minimalizes():
    K = from_facets(3, [(1, 2), (1,), (2,), (3,)])
    assert K.facets == frozenset({(1, 2), (3,)})
    with pytest.raises(ValueError):
        from_facets(2, [(1, 3)])


@st.composite
def generator_families(draw):
    """(m, generators): up to eight faces as vertex lists on 1..m, with
    repeated vertices, any order, repeated and nested faces and the empty
    face drawn freely; vertices in no generator are ghosts."""
    m = draw(st.integers(1, 7))
    faces = st.lists(st.integers(1, m), max_size=5)
    gens = draw(st.lists(st.one_of(faces, st.builds(sorted, faces)), max_size=8))
    return m, gens


@settings(max_examples=200, deadline=None)
@given(generator_families())
@example((4, [[2, 1], [1, 2], [1], [], [2, 2, 1]]))  # ghost vertices 3 and 4
@example((3, []))
@example((3, [[]]))
@example((5, [[3, 1], [1, 3, 5], [5], [2, 4], [4, 2, 4]]))
def test_minimalization_and_faces_match_the_earlier_loops(family):
    # the constructor minimalizes through _maximal, and faces() decodes
    # face_levels: both must give what the set loop and the sorted
    # combinations did.  Given the family's sorted faces, the constructor
    # keeps exactly the facets the loop keeps, as from_facets does
    m, gens = family
    K = from_facets(m, gens)
    loop = from_facets_loop(m, gens)
    assert K == loop, family
    facets = frozenset(tuple(sorted(set(f))) for f in gens) or {()}
    assert SimplicialComplex(m, facets).facets == loop.facets, family
    faces = faces_by_combinations(K)
    assert K.faces() == faces, family
    assert K.euler_reduced() == sum((-1) ** (len(f) + 1) for f in faces)


@pytest.mark.parametrize("m, facets, message, normalized", [
    (3, {(2, 1), (3,)}, "facet (2, 1) is not a strictly increasing", {(1, 2), (3,)}),
    (3, {(1, 1, 2)}, "facet (1, 1, 2) is not a strictly increasing", {(1, 2)}),
    (3, {frozenset({1, 2})}, "is not a strictly increasing vertex tuple", {(1, 2)}),
    (2, set(), "no facets", {()}),
], ids=["unsorted", "repeated-vertex", "not-a-tuple", "no-facets"])
def test_complex_refuses_facets_its_docstring_forbids(m, facets, message, normalized):
    # unchecked, an unsorted facet gave a false direct-model FAIL, a repeated
    # vertex a d o d failure (exit 3) and no facets two false FAILs;
    # from_facets normalizes the same family into a legal complex
    with pytest.raises(ValueError, match=re.escape(message)):
        SimplicialComplex(m, frozenset(facets))
    assert from_facets(m, facets).facets == frozenset(normalized)


@pytest.mark.parametrize("m, family, normalized", [
    (3, {(1, 2), (1,), (3,)}, {(1, 2), (3,)}),
    (2, {(), (2,)}, {(2,)}),
    (3, {(1, 2, 3), (2, 3), (1,)}, {(1, 2, 3)}),
], ids=["not-maximal", "empty-under-a-vertex", "nested-twice"])
def test_complex_keeps_the_maximal_members_of_its_family(m, family, normalized):
    # a face inside another is no facet: the constructor drops it, as
    # from_facets does (it was refused, and from_facets minimalized first)
    assert (SimplicialComplex(m, frozenset(family)).facets
            == from_facets(m, family).facets == frozenset(normalized))


def test_from_facets_minimalizes_once(monkeypatch):
    # from_facets only sorts, and the constructor runs the one _maximal
    calls = []
    maximal = cxm._maximal
    monkeypatch.setattr(cxm, "_maximal", lambda sets: calls.append(1) or maximal(sets))
    K = from_facets(4, [(2, 1), (1,), (3, 4, 3), ()])
    assert K.facets == frozenset({(1, 2), (3, 4)})
    assert len(calls) == 1


@pytest.mark.parametrize("facet, vertex", [
    ((1.5,), 1.5), ((1.0, 2), 1.0), ((True, 2), True), ((1, 2.0), 2.0),
])
def test_complex_refuses_a_vertex_that_is_not_an_int(facet, vertex):
    # 1.5 and 1.0 were built and then raised TypeError from the mask shift in
    # face_levels; True was built, passed verify_main and printed as {True,2}
    with pytest.raises(ValueError, match=re.escape(f"vertex {vertex!r} is not an int")):
        SimplicialComplex(2, frozenset({facet}))


def test_empty_complex():
    E = empty_complex()
    assert E.facets == frozenset({()})
    assert E.faces() == [()]
    assert E.euler_reduced() == -1


def test_double_two_point_complex():
    # doubling vertex 1 of the two-point complex gives the triangle boundary
    K = from_facets(2, [(1,), (2,)])
    D, rename = double(K, 1)
    assert D.facets == frozenset({(1, 3), (1, 2), (2, 3)})
    assert rename[1] == "1a"
    assert rename[3] == "1b"
    assert rename[2] == "2"


def test_double_edge_plus_point_vertex_2():
    # K = {{1,2},{3}}; doubling vertex 2 (labels: 2a = 2, 2b = 4)
    K = from_facets(3, [(1, 2), (3,)])
    D, rename = double(K, 2)
    assert D.facets == frozenset({(1, 2, 4), (2, 3), (3, 4)})
    assert rename[2] == "2a" and rename[4] == "2b"


def test_double_path_complex_vertex_2():
    K = from_facets(3, [(1, 2), (2, 3)])
    D, _ = double(K, 2)
    assert D.facets == frozenset({(1, 2, 4), (2, 3, 4)})


def test_double_triangle_boundary_vertex_1():
    # doubling a vertex of the triangle boundary gives the tetra boundary
    K = simplex_boundary(2)
    D, rename = double(K, 1)
    expected = from_facets(4, [(1, 4, 2), (1, 4, 3), (1, 2, 3), (4, 2, 3)])
    assert D == expected
    assert rename[1] == "1a" and rename[4] == "1b"
    bij = facet_equal_upto_relabel(D, simplex_boundary(3))
    assert bij is not None


def double_faces_bruteforce(K: SimplicialComplex, i: int):
    """Face list of the doubling, straight from its defining four families.

    Independent of double(); used to cross-check the facet construction.
    """
    ib = K.m + 1
    faces = set()
    for sigma in K.faces():
        rest = tuple(v for v in sigma if v != i)
        if i in sigma:
            top = tuple(sorted(rest + (i, ib)))
        else:
            faces.update(_subsets(tuple(sorted(sigma + (i,)))))
            faces.update(_subsets(tuple(sorted(sigma + (ib,)))))
            continue
        faces.update(_subsets(top))
    # families 2 and 3 cover sigma u {i_a}/{i_b} for i not in sigma; family 1
    # contributes the doubled faces and their subsets via _subsets above
    return sorted(faces, key=lambda t: (len(t), t))


def _subsets(t):
    for r in range(len(t) + 1):
        yield from combinations(t, r)


def test_double_matches_bruteforce(full_corpus):
    for name, K in full_corpus.items():
        for i in range(1, K.m + 1):
            D, _ = double(K, i)
            assert sorted(D.faces(), key=lambda t: (len(t), t)) == list(
                double_faces_bruteforce(K, i)
            ), (name, i)


@settings(max_examples=150, deadline=None)
@given(complexes(max_m=6))
@example(empty_complex(1))
@example(from_facets(4, [(1, 2), (2,)]))  # ghost vertices 3 and 4
def test_double_property_matches_bruteforce(K):
    for i in range(1, K.m + 1):
        D, _ = double(K, i)
        assert D.faces() == double_faces_bruteforce(K, i), (K, i)


def test_double_shifts_homology(full_corpus):
    for name, K in full_corpus.items():
        H = homology(simplicial_chain_complex(K))
        for i in range(1, K.m + 1):
            D, _ = double(K, i)
            HD = homology(simplicial_chain_complex(D))
            assert HD == H.shifted(1), (name, i)


def test_double_iterated_order_independent():
    # doubling different vertices commutes up to relabeling
    K = from_facets(3, [(1, 2), (2, 3)])
    D12, _ = double_iterated(K, (1, 1, 0))
    K1, _ = double(K, 1)
    D21, _ = double(K1, 2)
    assert facet_equal_upto_relabel(D12, D21) is not None


@settings(max_examples=100, deadline=None)
@given(complexes(min_m=2), st.data())
def test_doubling_order_independent_property(K, data):
    # doubling i then j equals doubling j then i, up to relabelling
    i, j = data.draw(st.lists(st.integers(1, K.m), min_size=2, max_size=2, unique=True))
    Dij, _ = double(double(K, i)[0], j)
    Dji, _ = double(double(K, j)[0], i)
    assert Dij.m == Dji.m == K.m + 2
    assert facet_equal_upto_relabel(Dij, Dji) is not None, (K, i, j)


def test_double_iterated_total_count():
    K = simplex_boundary(2)
    D, rename = double_iterated(K, (2, 0, 1))
    assert D.m == K.m + 3
    assert rename[1] == "1aa"
    assert rename[3] == "3a"
    H = homology(simplicial_chain_complex(D))
    assert H == homology(simplicial_chain_complex(K)).shifted(3)


def iterated_faces_bruteforce(K: SimplicialComplex, J):
    """K(J) from double_faces_bruteforce, one vertex at a time in canonical
    order, each face list minimalized into facets by from_facets."""
    budget = list(J)
    while any(budget):
        i = next(idx for idx, b in enumerate(budget, start=1) if b)
        budget[i - 1] -= 1
        K = from_facets(K.m + 1, double_faces_bruteforce(K, i))
    return K


@st.composite
def complexes_and_j(draw):
    """A complex on at most four vertices and a J with entries <= 3, sum <= 5."""
    K = draw(complexes(max_m=4))
    J = draw(st.lists(st.integers(0, 3), min_size=K.m, max_size=K.m)
             .filter(lambda J: sum(J) <= 5))
    return K, tuple(J)


@settings(max_examples=200, deadline=None)
@given(complexes_and_j())
@example((empty_complex(1), (3,)))
@example((from_facets(3, [(1, 2), (3,)]), (2, 0, 3)))
@example((from_facets(4, [(2, 3)]), (1, 2, 0, 2)))  # ghost vertices 1 and 4
def test_closed_form_equals_doubling_one_vertex_at_a_time(case):
    K, J = case
    D, rename = double_iterated(K, J)
    L, names = double_iterated_loop(K, J)
    B = iterated_faces_bruteforce(K, J)
    assert D.m == L.m == B.m == K.m + sum(J)
    assert D.facets == L.facets == B.facets, (K, J)
    assert rename == names, (K, J)
    assert doubled_face_count(K, J) == len(D.faces()), (K, J)
    assert doubled_label_count(K, J) == sum(map(len, D.facets)), (K, J)


@settings(max_examples=200, deadline=None)
@given(complexes_and_j())
@example((empty_complex(1), (0,)))  # K = {empty} at J = 0
@example((empty_complex(3), (2, 0, 1)))  # every vertex a ghost
@example((from_facets(4, [(2, 3)]), (1, 2, 0, 2)))  # ghost vertices 1 and 4
@example((from_facets(3, [(1, 2), (3,)]), (0, 0, 0)))
@example((from_facets(4, [(1, 2, 3), (2, 4)]), (3, 0, 2, 0)))
def test_wedge_rule_levels_equal_the_walk_of_the_built_complex(case):
    # each face of K(J) written once by the wedge rule, against the submask
    # walk of double_iterated's K(J): same masks, levels and order
    K, J = case
    KJ, _ = double_iterated(K, J)
    assert doubled_face_levels(K, J) == (cxm._walk_levels(KJ), KJ.m), (K, J)


def test_face_levels_are_walked_once_per_complex(monkeypatch):
    # kept on the instance, not in a module cache: an equal complex built
    # again is walked again, and K(J)'s levels read K's without a walk
    walked = []
    walk = cxm._walk_levels
    monkeypatch.setattr(cxm, "_walk_levels", lambda K: walked.append(K.m) or walk(K))
    K = from_facets(4, [(1, 2, 3), (2, 4)])
    levels = cxm.face_levels(K)
    assert K.faces()[0] == () and K.euler_reduced() == 0
    assert doubled_face_count(K, (1, 0, 2, 0)) == len(double_iterated(K, (1, 0, 2, 0))[0].faces())
    assert cxm.face_levels(K) is levels and walked == [4, 7]
    doubled_face_levels(K, (1, 0, 2, 0))
    assert walked == [4, 7]
    cxm.face_levels(from_facets(4, [(1, 2, 3), (2, 4)]))
    assert walked == [4, 7, 4]


@settings(max_examples=100, deadline=None)
@given(complexes(max_m=5))
@example(empty_complex(1))
def test_double_is_double_iterated_at_a_unit_vector(K):
    for i in range(1, K.m + 1):
        D, rename = double(K, i)
        assert (D, rename) == double_iterated(K, tuple(int(v == i) for v in range(1, K.m + 1)))
        assert D == double_once(K, i)
        assert rename == {**{v: str(v) for v in range(1, K.m + 1)},
                          i: f"{i}a", K.m + 1: f"{i}b"}


def test_face_count_in_closed_form():
    rp2 = from_facets(6, RP2_FACETS)
    assert doubled_face_count(rp2, (1,) * 6) == len(double_iterated(rp2, (1,) * 6)[0].faces())
    assert doubled_face_count(rp2, (1,) * 6) == 3672
    assert doubled_face_count(rp2, (2,) * 6) == 257_936
    assert doubled_face_count(rp2, (20, 0, 0, 0, 0, 0)) == 44_040_182
    assert doubled_face_count(empty_complex(2), (0, 0)) == 1
    for J in [(1,), (0, 0, 0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="J has length"):
            doubled_face_count(rp2, J)
    with pytest.raises(ValueError, match="J entries must be >= 0"):
        doubled_face_count(rp2, (1, 1, 1, 1, 1, -1))


def test_double_iterated_builds_one_complex(monkeypatch):
    # the closed form builds K(J) once, with no intermediate complexes
    K = from_facets(4, [(1, 2, 3), (2, 4), (3, 4)])
    built = []
    init = SimplicialComplex.__init__

    def counting(self, m, facets):
        built.append(m)
        init(self, m, facets)

    monkeypatch.setattr(SimplicialComplex, "__init__", counting)
    D, _ = double_iterated(K, (2, 0, 3, 1))
    assert built == [D.m] == [10]


def test_join_and_suspension():
    two = from_facets(2, [(1,), (2,)])
    square = join_abstract(two, two)  # S^0 * S^0 = S^1 (4-gon)
    assert homology(simplicial_chain_complex(square)).get(1).betti == 1
    susp = suspension(two)
    assert homology(simplicial_chain_complex(susp)).get(1).betti == 1
    double_susp = suspension(two, 2)
    assert homology(simplicial_chain_complex(double_susp)).get(2).betti == 1


@settings(max_examples=100, deadline=None)
@given(complexes())
@example(empty_complex(1))
def test_suspension_shifts_homology_property(K):
    H = homology(simplicial_chain_complex(K))
    assert homology(simplicial_chain_complex(suspension(K))) == H.shifted(1)


def test_suspension_of_empty_complex():
    # S^0 * {} = S^0 shifts H~_{-1} = Z up to H~_0 = Z
    E = empty_complex()
    S = suspension(E)
    H = homology(simplicial_chain_complex(S))
    assert H.get(0) and H.get(0).betti == 1 and len(H) == 1


def test_random_complex_deterministic():
    A = random_complex(5, 2, "1/3", seed=11)
    B = random_complex(5, 2, "1/3", seed=11)
    assert A == B
    C = random_complex(5, 2, "1/3", seed=12)
    assert isinstance(C, SimplicialComplex)
    with pytest.raises(ValueError):
        random_complex(3, 2, "3/2", seed=0)


def test_random_complex_pinned_value():
    # regression pin: the draw sequence must stay stable across runs
    K = random_complex(4, 2, "1/2", seed=0)
    assert K == from_facets(4, [(1, 2, 3), (1, 3, 4), (2, 3, 4)])


def test_facet_equal_upto_relabel_negative():
    K = from_facets(3, [(1, 2), (2, 3)])
    L = from_facets(3, [(1, 2), (2, 3), (1, 3)])
    assert facet_equal_upto_relabel(K, L) is None
    bij = facet_equal_upto_relabel(K, K)
    assert bij is not None
    assert len(set(bij.values())) == len(bij)


def test_full_simplex_contractible():
    K = full_simplex(3)
    assert homology(simplicial_chain_complex(K)) == {}
