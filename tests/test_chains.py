"""Chain complexes and homology: conventions, fixtures, consistency checks."""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polysmash import chains
from polysmash.chains import (
    ChainComplex,
    HomologyGroup,
    HomologyTable,
    MalformedComplexError,
    _assemble,
    face_levels,
    homology,
    simplicial_chain_complex,
)
from polysmash.complexes import (
    double_iterated,
    empty_complex,
    from_facets,
    full_simplex,
    random_complex,
    simplex_boundary,
)
from polysmash.exactlin import SparseIntMatrix, rank_rational, smith_normal_form
from polysmash.smashmodel import direct_smash_model, reduction_path_model

import chains_reference
from chains_reference import chain_complex_of_faces, face_of_mask
from complexes_reference import f_vector
from config_views import from_simplices
from conftest import RP2_FACETS
from homology_reference import euler, group, homology_full_snf


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
    assert f_vector(rp2) == [6, 15, 10]
    assert rp2.euler_reduced() == 0  # chi(RP^2) = 1
    H = homology(simplicial_chain_complex(rp2))
    assert dict(H) == {1: HomologyGroup(0, (2,))}
    assert str(group(H, 1)) == "Z/2"


def euler_consistency(C: ChainComplex) -> bool:
    """Chain-level Euler characteristic equals the homology-level one."""
    return C.euler() == euler(homology(C))


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
    bad = [[(0, 1), (1, 1)]]
    bases2 = {0: ["a"], 1: ["e"], 2: ["f"]}
    d = [[(0, 1)]]
    with pytest.raises(MalformedComplexError):
        ChainComplex(bases2, {1: d, 2: d})
    # shape mismatch: two columns for one cell
    with pytest.raises(MalformedComplexError):
        ChainComplex(bases, {1: [[(0, 1)], [(1, 1)]]})
    # fine without the offending composition
    ChainComplex(bases, {1: bad})
    # homology would read the 1/2 as int(1/2) = 0 and return a wrong group
    with pytest.raises(MalformedComplexError, match="^boundary column in degree 0 has a coefficient"):
        ChainComplex({-1: ["e"], 0: ["a", "b"]}, {0: [[(0, Fraction(1, 2))], [(0, 1)]]})


@pytest.mark.parametrize("column", [
    [(2, 1)], [(-1, 1)], [(0, 0)], [(0, 1), (0, -1)],
    [(0, 1), (1, 1), (0, 1)], [(0, Fraction(1, 2))], [(0, 0.5)], [(0, 2.0)],
    [(True, 1), (0, -1)], [(0.0, 1), (1, -1)],
])
def test_bad_column_is_rejected_at_construction(column):
    # a row outside C_0, a negative row, a zero coefficient, a repeated row
    # (next to its twin or not), coefficients that are not ints, rows that
    # are not ints (True would be read as row 1)
    with pytest.raises(MalformedComplexError, match="boundary column in degree 1"):
        ChainComplex({0: ["a", "b"], 1: ["e"]}, {1: [column]})


def test_dd_failure_is_refused_at_construction():
    # no complex with d o d != 0 is ever built, so homology never meets one
    bases = {0: ["a"], 1: ["e"], 2: ["f"]}
    d = [[(0, 1)]]
    with pytest.raises(MalformedComplexError, match=r"^d_1 o d_2 != 0$"):
        ChainComplex(bases, {1: d, 2: d})
    with pytest.raises(MalformedComplexError, match=r"^d_3 o d_4 != 0$"):
        ChainComplex({n + 2: labels for n, labels in bases.items()}, {3: d, 4: d})


def test_dd_check_survives_optimize():
    # the constructor must raise, not assert, on a d o d-broken complex, so
    # that the check also runs under python -O
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent(
        """
        from polysmash.chains import ChainComplex, MalformedComplexError

        d = [[(0, 1)]]
        try:
            ChainComplex({0: ["a"], 1: ["e"], 2: ["f"]}, {1: d, 2: d})
        except MalformedComplexError as e:
            print("raised:", e)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised: d_1 o d_2 != 0\n", proc.stdout


def test_checked_complex_is_not_checked_again(monkeypatch):
    calls = []
    check = ChainComplex.check_dd_zero

    def counting(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(ChainComplex, "check_dd_zero", counting)
    cc = simplicial_chain_complex(simplex_boundary(3))
    assert calls == [cc]
    columns, cofaces = cc.columns, cc.cofaces
    homology(cc)
    assert calls == [cc]
    # homology reads its argument and leaves it as it was
    assert cc.columns is columns and cc.cofaces is cofaces
    rebuilt = ChainComplex(cc.bases, cc.columns)
    homology(rebuilt)
    homology(rebuilt)
    assert calls == [cc, rebuilt]


def shifted_chain_complex(K, s):
    """C(K) with every degree n basis in degree n + s, from the assembler."""
    return _assemble(face_levels(K), 0, s)


def test_shift():
    cc = simplicial_chain_complex(simplex_boundary(2))
    shifted = shifted_chain_complex(simplex_boundary(2), 3)
    assert shifted.bases == {n + 3: fs for n, fs in cc.bases.items()}
    assert shifted.columns == {n + 3: cols for n, cols in cc.columns.items()}
    assert homology(shifted) == homology(cc).shifted(3)
    assert shifted.euler() == -cc.euler()


def test_euler_is_an_int_in_negative_degrees(full_corpus):
    # every augmented C(K) has degree -1, where (-1) ** -1 is the float -1.0
    for name, K in dict(full_corpus, empty=empty_complex(3)).items():
        for s in range(-3, 4):
            chi = shifted_chain_complex(K, s).euler()
            assert type(chi) is int, (name, s, chi)
            assert chi == (-1 if s % 2 else 1) * K.euler_reduced(), (name, s)


def test_homology_table_str_and_euler():
    H = HomologyTable({1: HomologyGroup(2, (2, 4)), 3: HomologyGroup(1)})
    assert str(H) == "H~1 = Z + Z + Z/2 + Z/4; H~3 = Z"
    assert euler(H) == -2 + 0 - 1
    assert euler(HomologyTable()) == 0
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
    columns = {}
    for n, cols in C.columns.items():
        c = 2 if data is None else data.draw(scale)
        columns[n] = [[(i, c * v) for i, v in col] for col in cols]
    scaled = ChainComplex(C.bases, columns)
    assert homology(scaled) == homology_full_snf(scaled)


def dd_reference(C):
    """The first degree n with d_n d_{n+1} != 0, by dense products; None if
    there is none."""
    for n in C.degrees():
        outer, inner = C.boundary(n).to_dense(), C.boundary(n + 1).to_dense()
        for row in outer:
            for col in zip(*inner):
                if sum(a * b for a, b in zip(row, col)):
                    return n
    return None


# columns no assembler makes, on one vertex, three edges and a triangle:
# d_1 o d_2 = 1 + 1 - 2 cancels only as integers; +-10**30 cancel; a lone
# 10**30 does not
ONE_TRIANGLE = {0: ["v"], 1: ["a", "b", "c"], 2: ["t"]}
EDGES = [[(0, 1)], [(0, 1)], [(0, 2)]]


@settings(max_examples=300, deadline=None)
@given(drawn_complexes(), st.data())
@example(RP2, None)
@example(ONE_TRIANGLE, {1: EDGES, 2: [[(0, 1), (1, 1), (2, -1)]]})
@example(ONE_TRIANGLE, {1: EDGES, 2: [[(0, 10**30), (1, -10**30)]]})
@example(ONE_TRIANGLE, {1: EDGES, 2: [[(0, 10**30), (1, -1)]]})
def test_dd_check_matches_dense_products(K, data):
    # one boundary entry of C(K) moved off its value (changed, zeroed or
    # added); or, with K a basis, data its columns as given
    if isinstance(K, dict):
        bases, columns = K, data
    else:
        C = simplicial_chain_complex(K)
        bases, columns = C.bases, dict(C.columns)
        if columns:
            if data is None:
                n, i, j, v = 2, 0, 0, 0
            else:
                n = data.draw(st.sampled_from(sorted(columns)))
                i = data.draw(st.integers(0, C.rank(n - 1) - 1))
                j = data.draw(st.integers(0, C.rank(n) - 1))
                v = data.draw(st.integers(-2, 2))
            cols = columns[n] = list(columns[n])
            cols[j] = [(r, w) for r, w in cols[j] if r != i] + ([(i, v)] if v else [])
    # the reference reads the columns unchecked, which the constructor
    # might refuse to build
    broken = object.__new__(ChainComplex)
    broken.bases, broken.columns = bases, columns
    bad = dd_reference(broken)
    if bad is None:
        ChainComplex(bases, columns)
    else:
        with pytest.raises(MalformedComplexError, match=rf"^d_{bad} o d_{bad + 1} != 0$"):
            ChainComplex(bases, columns)


def test_reduction_leaves_little_for_snf(monkeypatch):
    seen = []
    snf = chains.smith_normal_form

    def recording(M):
        seen.append(len(M.entries))
        return snf(M)

    monkeypatch.setattr(chains, "smith_normal_form", recording)
    # the boundary of a simplex reduces to its top-degree generator, and a
    # degree with no surviving entry has rank 0 and no torsion without SNF
    assert homology(simplicial_chain_complex(simplex_boundary(4))) == {3: HomologyGroup(1)}
    assert seen == []
    # 3,672 cells and 20,952 boundary entries over K(J) for RP^2, J = 1^6
    C = reduction_path_model(RP2, (1,) * 6)
    assert sum(len(M.entries) for M in C.boundaries.values()) == 20952
    assert homology(C) == {8: HomologyGroup(0, (2,))}
    assert seen and all(seen) and sum(seen) < 100


def test_homology_builds_groups_and_matrices_only_for_survivors(monkeypatch):
    # C(boundary of the 4-simplex) reduces to its top cell, C(4-simplex) to
    # nothing: no degree has survivors both in it and below it, and only a
    # nonzero degree gets a HomologyGroup
    sphere = simplicial_chain_complex(simplex_boundary(4))
    disk = simplicial_chain_complex(full_simplex(4))
    built = Counter()
    for cls in (HomologyGroup, SparseIntMatrix):
        def counting(self, *args, init=cls.__init__, name=cls.__name__, **kwargs):
            built[name] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    sphere_homology = homology(sphere)
    assert built == {"HomologyGroup": 1}
    built.clear()
    disk_homology = homology(disk)
    assert built == {}
    monkeypatch.undo()
    assert sphere_homology == {3: HomologyGroup(1)}
    assert disk_homology == {}


# -- the coface lists ----------------------------------------------------------


def cofaces_reference(C):
    """Per cell of C_n, the columns of d_{n+1} with a term on it, read off
    the sorted (row, column) keys of the boundary matrices."""
    up = {n: [[] for _ in range(C.rank(n))] for n in C.degrees()}
    for n in C.degrees():
        for i, j in sorted(C.boundary(n + 1).entries):
            up[n][i].append(j)
    return up


def unaugmented(C):
    """C with its degree -1 cell and the columns of d_0 dropped."""
    return ChainComplex({n: b for n, b in C.bases.items() if n >= 0},
                        {n: cols for n, cols in C.columns.items() if n >= 1})


@st.composite
def walked_complexes(draw):
    """C(K), C(K(J)) shifted by one, a shifted C(K), C(K) with degree -1
    dropped, or one of them rebuilt from its bases and columns.  With no
    degree -1 cell no coreduction starts, so all of C reaches SNF."""
    K = draw(drawn_complexes(max_m=7))
    kind = draw(st.sampled_from(["K", "KJ", "shifted", "unaugmented"]))
    if kind == "KJ":
        C = reduction_path_model(K, draw(small_j(K.m, total=3)))
    elif kind == "unaugmented":
        C = unaugmented(simplicial_chain_complex(K))
    else:
        C = shifted_chain_complex(K, draw(st.integers(-3, 3)) if kind == "shifted" else 0)
    if draw(st.booleans()):
        C = ChainComplex(C.bases, C.columns)
    return C


@settings(max_examples=300, deadline=None)
@given(walked_complexes())
@example(reduction_path_model(RP2, (1, 1, 0, 0, 0, 0)))
@example(shifted_chain_complex(empty_complex(3), 2))
@example(unaugmented(simplicial_chain_complex(RP2)))
def test_cofaces_are_the_transpose_of_the_columns(C):
    # each (row, column) entry once, in increasing column order, in every
    # degree including those with no coface
    assert set(C.cofaces) == set(C.bases)
    assert C.cofaces == cofaces_reference(C)
    assert sum(map(len, (x for lists in C.cofaces.values() for x in lists))) == sum(
        len(col) for cols in C.columns.values() for col in cols
    )
    assert homology(C) == homology_full_snf(C)
    assert C.cofaces == cofaces_reference(C)


# -- the mask builder against the tuple reference -----------------------------


def assert_matches_reference(C, R, m):
    """Decoded bases, every column (entries in the reference's order) and
    the homology are those of the tuple-built reference R."""
    assert {n: [face_of_mask(f, m) for f in fs] for n, fs in C.bases.items()} == R.bases
    assert C.columns == R.columns
    assert C.boundaries == R.boundaries
    assert homology(C) == homology(R)


@settings(max_examples=300, deadline=None)
@given(drawn_complexes(max_m=7))
@example(RP2)
@example(empty_complex(3))
def test_simplicial_chain_complex_matches_tuple_reference(K):
    assert_matches_reference(
        simplicial_chain_complex(K), chains_reference.simplicial_chain_complex(K), K.m
    )


@settings(max_examples=150, deadline=None)
@given(drawn_complexes(max_m=5), st.data())
@example(RP2, None)
def test_reduction_model_matches_tuple_reference(K, data):
    J = (1, 1, 0, 0, 0, 0) if data is None else data.draw(small_j(K.m))
    KJ, _ = double_iterated(K, J)
    faces_by_size = {}
    for f in KJ.faces():
        faces_by_size.setdefault(len(f), []).append(f)
    R = chain_complex_of_faces(faces_by_size)
    assert_matches_reference(reduction_path_model(K, J), R, KJ.m)


@st.composite
def embedded_complexes(draw):
    """A random K realized on scaled, permuted and translated unit vectors
    of Q^m, so that sorted point order relabels its vertices."""
    K = draw(drawn_complexes(max_m=7))
    m = K.m
    axis = draw(st.permutations(range(m)))
    scale = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m))
    offset = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    point = {
        v: tuple(offset[c] + (scale[v - 1] if axis[v - 1] == c else 0) for c in range(m))
        for v in range(1, m + 1)
    }
    return from_simplices(m, [frozenset(point[v] for v in f) for f in K.facets])


@settings(max_examples=200, deadline=None)
@given(embedded_complexes())
def test_embedded_chain_complex_matches_tuple_reference(X):
    assert_matches_reference(
        X.chain_complex(),
        chains_reference.embedded_chain_complex(X),
        max(len(X.vertices()), 1),
    )


@settings(max_examples=200, deadline=None)
@given(drawn_complexes(max_m=7), st.data())
@example(RP2, None)
def test_flipped_coefficient_fails_dd_check(K, data):
    # flipping the entry of d_n at row g negates one term of d_{n-1} d_n on
    # that column, which then reads -2 v d_{n-1}(g) != 0 for n >= 1, while
    # d_{n-2} d_{n-1} is untouched: the check fails first in degree n - 1
    C = simplicial_chain_complex(K)
    degrees = [n for n in C.columns if n >= 1]
    assume(degrees)
    if data is None:
        n, j, k = 1, 0, 0
    else:
        n = data.draw(st.sampled_from(degrees))
        j = data.draw(st.integers(0, C.rank(n) - 1))
        k = data.draw(st.integers(0, len(C.columns[n][j]) - 1))
    columns = dict(C.columns)
    cols = columns[n] = list(columns[n])
    cols[j] = [(i, -v if p == k else v) for p, (i, v) in enumerate(cols[j])]
    with pytest.raises(MalformedComplexError, match=rf"^d_{n - 1} o d_{n} != 0$"):
        ChainComplex(C.bases, columns)


@settings(max_examples=200, deadline=None)
@given(drawn_complexes(max_m=7), st.data())
@example(RP2, None)
def test_out_of_range_row_fails_construction(K, data):
    C = simplicial_chain_complex(K)
    assume(C.columns)
    if data is None:
        n, j, k, row = 0, 0, 0, 1
    else:
        n = data.draw(st.sampled_from(sorted(C.columns)))
        j = data.draw(st.integers(0, C.rank(n) - 1))
        k = data.draw(st.integers(0, len(C.columns[n][j]) - 1))
        row = data.draw(st.sampled_from([C.rank(n - 1), C.rank(n - 1) + 5, -1]))
    columns = dict(C.columns)
    cols = columns[n] = list(columns[n])
    cols[j] = [(row if p == k else i, v) for p, (i, v) in enumerate(cols[j])]
    with pytest.raises(MalformedComplexError, match=f"row outside C_{n - 1}"):
        ChainComplex(C.bases, columns)


# -- the boundary identity against the dense products -------------------------


def mutated(C, kind, n, j, k=0, label=None):
    """C's bases and columns with one change at column j of degree n:
    'repeat' gives the row g of the column's entry k a twin in C_{n-1}, same
    label and same column, and moves that entry onto the twin, so every
    column keeps its simplicial form; 'flip' negates entry k; 'label' makes
    the label of cell j of C_n label; 'drop' drops the column's last entry."""
    bases = {d: list(labels) for d, labels in C.bases.items()}
    columns = {d: list(cols) for d, cols in C.columns.items()}
    col = columns[n][j] if n in columns else []
    if kind == "repeat":
        g, v = col[k]
        bases[n - 1].append(bases[n - 1][g])
        if n - 1 in columns:
            columns[n - 1].append(columns[n - 1][g])
        columns[n][j] = col[:k] + [(len(bases[n - 1]) - 1, v)] + col[k + 1:]
    elif kind == "flip":
        columns[n][j] = [(i, -v if p == k else v) for p, (i, v) in enumerate(col)]
    elif kind == "label":
        bases[n][j] = label
    else:
        columns[n][j] = col[:-1]
    return bases, columns


def assert_checked_as_dense(bases, columns):
    """The constructor builds the complex iff the dense products vanish, and
    otherwise names the first degree where they do not."""
    broken = object.__new__(ChainComplex)
    broken.bases, broken.columns = bases, columns
    bad = dd_reference(broken)
    if bad is None:
        ChainComplex(bases, columns)
    else:
        with pytest.raises(MalformedComplexError, match=rf"^d_{bad} o d_{bad + 1} != 0$"):
            ChainComplex(bases, columns)


TRIANGLE = from_facets(3, [(1, 2, 3)])
NOT_MASKS = [True, -1, Fraction(1), 1.0, "v"]


def case(C, change, message, name):
    return pytest.param(C, change, message, id=name)


@pytest.mark.parametrize("C, change, message", [
    # vertex 2's twin takes edge {1, 2}'s entry: d_0 d_1 still vanishes, but
    # the triangle's edges meet vertex 2 and its twin once each
    case(simplicial_chain_complex(TRIANGLE), ("repeat", 1, 0, 1), "d_1 o d_2 != 0",
         "repeated-vertex"),
    case(reduction_path_model(TRIANGLE, (1, 0, 0)), ("repeat", 2, 0, 0), "d_2 o d_3 != 0",
         "repeated-vertex-kj"),
    # the first column read for vertex 1's bit sets its sign: every edge at
    # vertex 1 then fails the form, and d_0 d_1 does not vanish
    case(simplicial_chain_complex(RP2), ("flip", 0, 0), "d_0 o d_1 != 0", "first-sign"),
    case(direct_smash_model(RP2, (2, 1, 0, 2, 1, 1))[1], ("flip", 8, 3), "d_8 o d_9 != 0",
         "first-sign-direct"),
    # an edge or a triangle without its last vertex; a vertex without its
    # one entry, whose edges keep their form
    case(simplicial_chain_complex(TRIANGLE), ("drop", 1, 2), "d_0 o d_1 != 0", "edge-drop"),
    case(simplicial_chain_complex(TRIANGLE), ("drop", 2, 0), "d_1 o d_2 != 0",
         "triangle-drop"),
    case(simplicial_chain_complex(TRIANGLE), ("drop", 0, 1), "d_0 o d_1 != 0",
         "vertex-drop"),
    case(reduction_path_model(RP2, (1, 0, 0, 0, 0, 0)), ("drop", 1, 3), "d_1 o d_2 != 0",
         "vertex-drop-kj"),
] + [
    # labels that are not masks send every column to the exact sum
    case(simplicial_chain_complex(TRIANGLE), ("label", n, 0, 0, bad), None,
         f"label-{n}-{bad!r}")
    for n in (0, 2) for bad in NOT_MASKS
])
def test_identity_route_mutants(C, change, message):
    bases, columns = mutated(C, *change)
    broken = object.__new__(ChainComplex)
    broken.bases, broken.columns = bases, columns
    bad = dd_reference(broken)
    assert (None if bad is None else f"d_{bad} o d_{bad + 1} != 0") == message
    assert_checked_as_dense(bases, columns)
    if change[0] == "label":
        # and so does a flipped sign on top of them
        assert_checked_as_dense(*mutated(ChainComplex(bases, columns), "flip", 1, 0))


@st.composite
def identity_cases(draw):
    """A library complex (C(K), C(K(J)) or a direct model) and one mutation
    of it, small enough for the dense products."""
    K = draw(drawn_complexes(max_m=5))
    kind = draw(st.sampled_from(["K", "KJ", "direct"]))
    if kind == "KJ":
        C = reduction_path_model(K, draw(small_j(K.m, total=2)))
    elif kind == "direct":
        C = direct_smash_model(K, draw(st.lists(st.integers(0, 2), min_size=K.m,
                                                max_size=K.m)))[1]
    else:
        C = simplicial_chain_complex(K)
    change = draw(st.sampled_from(["repeat", "flip", "label", "drop"]))
    degrees = [n for n, cols in C.columns.items()
               if any(cols) and (change != "flip" or n == min(C.columns))]
    assume(degrees)
    n = draw(st.sampled_from(degrees))
    if change == "label":
        n = draw(st.sampled_from(sorted(C.bases)))
        return C, (change, n, draw(st.integers(0, C.rank(n) - 1)), 0,
                   draw(st.sampled_from(NOT_MASKS)))
    j = draw(st.sampled_from([j for j, col in enumerate(C.columns[n]) if col]))
    return C, (change, n, j, draw(st.integers(0, len(C.columns[n][j]) - 1)))


@settings(max_examples=300, deadline=None)
@given(identity_cases())
@example((simplicial_chain_complex(TRIANGLE), ("repeat", 1, 0, 1)))
@example((simplicial_chain_complex(RP2), ("flip", 0, 0)))
@example((simplicial_chain_complex(TRIANGLE), ("label", 0, 0, 0, True)))
@example((simplicial_chain_complex(TRIANGLE), ("drop", 0, 1)))
def test_identity_route_matches_dense_products(case):
    # every mutation of a library complex is refused exactly where the dense
    # products first fail; the lowest degree's flips are the first columns
    # read for their bits
    C, change = case
    assert_checked_as_dense(*mutated(C, *change))
