"""Chain complexes and homology: conventions, fixtures, consistency checks."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysmash import chains
from polysmash.chains import (
    ChainComplex,
    HomologyGroup,
    HomologyTable,
    MalformedComplexError,
    chain_complex_of_faces,
    homology,
    simplicial_chain_complex,
)
from polysmash.complexes import (
    empty_complex,
    from_facets,
    random_complex,
    simplex_boundary,
)
from polysmash.exactlin import SparseIntMatrix, rank_rational, smith_normal_form
from polysmash.smashmodel import direct_smash_model, reduction_path_model

from conftest import RP2_FACETS
from homology_reference import homology_full_snf


def test_sphere_homology():
    for n in range(1, 5):
        H = homology(simplicial_chain_complex(simplex_boundary(n)))
        assert dict(H) == {n - 1: HomologyGroup(1)}


def test_empty_complex_homology():
    H = homology(simplicial_chain_complex(empty_complex()))
    assert dict(H) == {-1: HomologyGroup(1)}


def test_point_homology_reduced():
    K = from_facets(1, [(1,)])
    assert homology(simplicial_chain_complex(K)) == {}


def test_rp2_fixture(rp2):
    # counts pin the triangulation: 6 vertices, 15 edges, 10 triangles
    assert rp2.f_vector() == [6, 15, 10]
    assert rp2.euler_reduced() == 0  # chi(RP^2) = 1
    H = homology(simplicial_chain_complex(rp2))
    assert dict(H) == {1: HomologyGroup(0, (2,))}
    assert str(H.group(1)) == "Z/2"


def euler_consistency(C: ChainComplex) -> bool:
    """Chain-level Euler characteristic equals the homology-level one."""
    return C.euler() == homology(C).euler()


def rank_consistency(M: SparseIntMatrix) -> bool:
    """rank over Q equals the number of nonzero invariant factors."""
    return rank_rational(M) == smith_normal_form(M).rank


def test_dd_zero_everywhere(full_corpus):
    for name, K in full_corpus.items():
        cc = simplicial_chain_complex(K)
        cc.check_dd_zero()
        assert euler_consistency(cc), name
        for n in cc.degrees():
            assert rank_consistency(cc.boundary(n)), (name, n)


def test_malformed_complex_detected():
    bases = {0: ["a", "b"], 1: ["e"]}
    bad = SparseIntMatrix.from_dense([[1], [1]])
    bases2 = {0: ["a"], 1: ["e"], 2: ["f"]}
    d1 = SparseIntMatrix.from_dense([[1]])
    d2 = SparseIntMatrix.from_dense([[1]])
    with pytest.raises(MalformedComplexError):
        ChainComplex(bases2, {1: d1, 2: d2})
    # shape mismatch
    with pytest.raises(MalformedComplexError):
        ChainComplex(bases, {1: SparseIntMatrix(1, 1, {(0, 0): 1})})
    # fine without the offending composition
    ChainComplex(bases, {1: bad})


def test_homology_checks_unchecked_complex():
    bases = {0: ["a"], 1: ["e"], 2: ["f"]}
    d = SparseIntMatrix.from_dense([[1]])
    cc = ChainComplex(bases, {1: d, 2: d}, check=False)
    assert not cc.dd_checked
    with pytest.raises(MalformedComplexError):
        homology(cc)
    with pytest.raises(MalformedComplexError):
        homology(cc.shift(2))


def test_checked_complex_is_not_checked_again(monkeypatch):
    calls = []
    check = ChainComplex.check_dd_zero

    def counting(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(ChainComplex, "check_dd_zero", counting)
    cc = simplicial_chain_complex(simplex_boundary(3))
    assert len(calls) == 1 and cc.dd_checked
    homology(cc)
    homology(cc.shift(3))
    assert len(calls) == 1
    unchecked = ChainComplex(cc.bases, cc.boundaries, check=False)
    homology(unchecked)
    homology(unchecked)
    assert len(calls) == 2 and unchecked.dd_checked


def test_shift():
    cc = simplicial_chain_complex(simplex_boundary(2))
    shifted = cc.shift(3)
    assert homology(shifted) == homology(cc).shifted(3)
    assert shifted.euler() == -cc.euler()


def test_homology_table_str_and_euler():
    H = HomologyTable({1: HomologyGroup(2, (2, 4)), 3: HomologyGroup(1)})
    assert str(H) == "H~1 = Z + Z + Z/2 + Z/4; H~3 = Z"
    assert H.euler() == -2 + 0 - 1
    assert HomologyTable().euler() == 0
    assert str(HomologyTable()) == "all reduced homology zero"


def test_torsion_group_validation():
    with pytest.raises(ValueError):
        HomologyGroup(0, (4, 2))
    g = HomologyGroup(0, (2, 6))
    assert not g.is_zero()


def test_chain_complex_of_faces_torus_like():
    # Klein-bottle style check is overkill; use the projective plane directly
    faces = {}
    K = from_facets(6, [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ])
    for f in K.faces():
        faces.setdefault(len(f) - 1, []).append(f)
    H = homology(chain_complex_of_faces(faces))
    assert dict(H) == {1: HomologyGroup(0, (2,))}


# -- unit reduction pairs against SNF on every full boundary matrix ----------

RP2 = from_facets(6, RP2_FACETS)


@st.composite
def drawn_complexes(draw, max_m=6):
    return random_complex(
        draw(st.integers(1, max_m)),
        draw(st.integers(0, 3)),
        draw(st.sampled_from(["1/3", "1/2", "2/3", "1"])),
        draw(st.integers(0, 10**6)),
    )


@st.composite
def small_j(draw, m, total=4):
    """J with entries <= 2 and sum(J) <= total, so that the full-SNF
    reference on C(K(J)) stays fast."""
    J = []
    for e in draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)):
        J.append(min(e, total - sum(J)))
    return tuple(J)


@settings(max_examples=300, deadline=None)
@given(drawn_complexes())
@example(RP2)
@example(empty_complex(3))
def test_homology_matches_full_snf_on_random_complexes(K):
    C = simplicial_chain_complex(K)
    assert homology(C) == homology_full_snf(C)


@settings(max_examples=150, deadline=None)
@given(drawn_complexes(max_m=5), st.data())
@example(RP2, None)
def test_homology_matches_full_snf_on_kj_quotients(K, data):
    J = (1, 1, 0, 0, 0, 0) if data is None else data.draw(small_j(K.m))
    C = reduction_path_model(K, J)
    assert homology(C) == homology_full_snf(C)


@settings(max_examples=200, deadline=None)
@given(drawn_complexes(), st.data())
@example(RP2, None)
def test_homology_matches_full_snf_on_direct_models(K, data):
    J = (2, 1, 0, 2, 1, 1) if data is None else data.draw(
        st.lists(st.integers(0, 2), min_size=K.m, max_size=K.m))
    _, C = direct_smash_model(K, J)
    assert homology(C) == homology_full_snf(C)


@settings(max_examples=300, deadline=None)
@given(drawn_complexes(), st.data())
@example(RP2, None)
def test_homology_matches_full_snf_on_scaled_complexes(K, data):
    # scaling whole boundary matrices keeps d o d = 0 and brings in
    # non-unit entries and torsion
    C = simplicial_chain_complex(K)
    scale = st.sampled_from([1, -1, 2, -2, 3, -3])
    boundaries = {}
    for n, M in C.boundaries.items():
        c = 2 if data is None else data.draw(scale)
        boundaries[n] = SparseIntMatrix(M.rows, M.cols, {e: c * v for e, v in M.entries.items()})
    scaled = ChainComplex(C.bases, boundaries)
    assert homology(scaled) == homology_full_snf(scaled)


def test_reduction_leaves_little_for_snf(monkeypatch):
    seen = []
    snf = chains.smith_normal_form

    def recording(M):
        seen.append(len(M.entries))
        return snf(M)

    monkeypatch.setattr(chains, "smith_normal_form", recording)
    # the boundary of a simplex reduces to its top-degree generator
    assert homology(simplicial_chain_complex(simplex_boundary(4))) == {3: HomologyGroup(1)}
    assert sum(seen) == 0
    # 3,672 cells and 20,952 boundary entries over K(J) for RP^2, J = 1^6
    seen.clear()
    C = reduction_path_model(RP2, (1,) * 6)
    assert sum(len(M.entries) for M in C.boundaries.values()) == 20952
    assert homology(C) == {8: HomologyGroup(0, (2,))}
    assert sum(seen) < 100
