"""Chain complexes and homology: conventions, fixtures, consistency checks."""

import pytest

from polysmash.chains import (
    ChainComplex,
    HomologyGroup,
    HomologyTable,
    MalformedComplexError,
    chain_complex_of_faces,
    homology,
    simplicial_chain_complex,
)
from polysmash.complexes import empty_complex, from_facets, simplex_boundary
from polysmash.exactlin import SparseIntMatrix, rank_rational, smith_normal_form


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
