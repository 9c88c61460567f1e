"""Smash-product cell models: cell counts, the orientation and quotient
identities, both model paths."""

import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from copy import copy
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polysmash import smashmodel
from polysmash.chains import (
    ChainComplex,
    HomologyGroup,
    homology,
    simplicial_chain_complex,
)
from polysmash.cli import main
from polysmash.complexes import (
    double_iterated,
    doubled_face_count,
    doubled_face_levels,
    empty_complex,
    from_facets,
)
from polysmash.smashmodel import (
    direct_smash_model,
    expected_homology,
    orientation_holds,
    reduction_path_model,
    verify_main,
)

import cubical_reference
import orientation_reference
from chains_reference import face_of_mask
from cubical_reference import quotient_outer_boundary
from homology_reference import group
from test_acceptance import j_vectors
from test_chains import drawn_complexes, small_j


def test_direct_model_cell_count(triangle_boundary):
    orientation, cc = direct_smash_model(triangle_boundary, (1, 1, 1))
    # one cell per face (7 faces including the empty one); no basepoint
    assert len(orientation) == 7
    # dims: empty face at 3, vertices at 4, edges at 5
    assert sorted(cc.bases) == [3, 4, 5]
    assert [len(cc.bases[d]) for d in sorted(cc.bases)] == [1, 3, 3]


def test_direct_model_rejects_bad_j(triangle_boundary):
    with pytest.raises(ValueError):
        direct_smash_model(triangle_boundary, (1, 1))
    with pytest.raises(ValueError):
        direct_smash_model(triangle_boundary, (1, -1, 0))


def test_cubical_model_cell_count(two_points):
    # faces (), (1), (2) contribute 2^2 + 2 + 2 cells, named by the
    # coordinates outside the face that are pinned at 2
    cells = list(cubical_reference.cells(two_points))
    assert sorted(cells) == [
        (("cube", (), ()), 0),
        (("cube", (), (1,)), 0),
        (("cube", (), (1, 2)), 0),
        (("cube", (), (2,)), 0),
        (("cube", (1,), ()), 1),
        (("cube", (1,), (2,)), 1),
        (("cube", (2,), ()), 1),
        (("cube", (2,), (1,)), 1),
    ]


def test_cubical_boundary_dd_zero(two_points, triangle_boundary, monkeypatch):
    # d o d = 0 is checked when the complex is built; the (D^1, S^0)
    # polyhedral products here are the boundary of the square and of the cube
    checked = []
    check_dd_zero = ChainComplex.check_dd_zero

    def recording(cc):
        checked.append(cc)
        return check_dd_zero(cc)

    monkeypatch.setattr(ChainComplex, "check_dd_zero", recording)
    cc = cubical_reference.chain_complex(two_points)
    assert checked == [cc]
    assert dict(homology(cc)) == {1: HomologyGroup(1)}
    cc = cubical_reference.chain_complex(triangle_boundary)
    assert [cc.rank(d) for d in cc.degrees()] == [1, 8, 12, 6]
    assert dict(homology(cc)) == {2: HomologyGroup(1)}


def test_quotient_matches_direct_at_j_zero(full_corpus):
    # criterion: identical boundary matrices under the label bijection
    for name, K in full_corpus.items():
        if K.m > 4:
            continue
        _, direct_cc = direct_smash_model(K, (0,) * K.m)
        quot_cc = quotient_outer_boundary(K)
        assert sorted(direct_cc.bases) == sorted(quot_cc.bases), name
        for d in direct_cc.bases:
            # bijection: face mask <-> all-zeros cube cell, same sorted order
            assert len(direct_cc.bases[d]) == len(quot_cc.bases[d]), (name, d)
            da = [face_of_mask(f, K.m) for f in direct_cc.bases[d]]
            db = [lab[1] for lab in quot_cc.bases[d]]
            assert da == db, (name, d)
        for d in direct_cc.boundaries:
            assert direct_cc.boundary(d).entries == quot_cc.boundary(d).entries, (
                name,
                d,
            )


def test_direct_boundary_is_the_graded_leibniz_rule(full_corpus):
    # the cell of sigma is the product of e_k over k = 1..m: the top cell
    # e^{j_k+1} for k in sigma, the middle cell e^{j_k} otherwise.  Dropping
    # vertex i is d e_i = +e^{j_i} behind the factors k < i, with sign
    # (-1)^(sum over k < i of dim e_k); decoded, every column is that rule
    for name, K in full_corpus.items():
        for J in j_vectors(K.m):
            orientation, cc = direct_smash_model(K, J)
            for n, cols in cc.columns.items():
                rows = cc.bases[n - 1]
                for f, col in zip(cc.bases[n], cols):
                    sigma = face_of_mask(f, K.m)
                    dims = [j + (k in sigma) for k, j in enumerate(J, start=1)]
                    leibniz = {
                        tuple(k for k in sigma if k != i): (-1) ** sum(dims[: i - 1])
                        for i in sigma
                    }
                    assert {face_of_mask(rows[r], K.m): v for r, v in col} == leibniz, (
                        name, J, sigma)
            assert orientation == {
                f: (-1) ** sum(sum(J[: i - 1]) for i in face_of_mask(f, K.m))
                for fs in cc.bases.values() for f in fs
            }, (name, J)


def test_orientation_holds_on_corpus(full_corpus):
    # the Leibniz boundary is S . d_K . S entry by entry, for every J
    nontrivial = 0
    for name, K in full_corpus.items():
        CK = simplicial_chain_complex(K)
        for J in j_vectors(K.m):
            orientation, cc = direct_smash_model(K, J)
            assert orientation_holds(orientation, cc, CK, sum(J) + 1), (name, J)
            nontrivial += any(s == -1 for s in orientation.values())
    assert nontrivial  # the check is not vacuous: some cells are reoriented


def reorient(cc, cell):
    """The complex with one basis cell of degree n negated: its column of d_n
    and its row of d_{n+1}, so that d o d stays zero and the constructor
    builds it."""
    n = next(d for d, labels in cc.bases.items() if cell in labels)
    i = cc.bases[n].index(cell)
    columns = dict(cc.columns)
    if n in columns:
        columns[n] = [
            [(r, -v) for r, v in col] if j == i else col for j, col in enumerate(columns[n])
        ]
    if n + 1 in columns:
        columns[n + 1] = [[(r, -v if r == i else v) for r, v in col] for col in columns[n + 1]]
    return ChainComplex(cc.bases, columns)


# the face (1,) of a complex on three vertices: vertex v is at bit m - v
VERTEX_1 = 0b100


def test_reoriented_cell_fails_the_orientation_check(
    triangle_boundary, tmp_path, monkeypatch, capsys
):
    J = (1, 0, 0)
    orientation, cc = direct_smash_model(triangle_boundary, J)
    cc = reorient(cc, VERTEX_1)  # still a chain complex, with the same homology
    CK = simplicial_chain_complex(triangle_boundary)
    assert not orientation_holds(orientation, cc, CK, sum(J) + 1)

    model = smashmodel.direct_smash_model

    def reoriented(K, J):
        orientation, cc = model(K, J)
        return orientation, reorient(cc, VERTEX_1)

    monkeypatch.setattr(smashmodel, "direct_smash_model", reoriented)
    p = tmp_path / "s1.txt"
    p.write_text("1 2\n1 3\n2 3\n")
    assert main(["verify", "main", str(p), "--j", "1,0,0"]) == 1
    out = capsys.readouterr().out
    # the failed check runs the model's own SNF, which still agrees; the
    # report says that the orientation, not the homology, is what failed
    assert ("[FAIL] s1.txt J=(1, 0, 0): direct vs suspension shift (expected H~3 = Z,"
            " got H~3 = Z, but the orientation check failed)\n") in out
    assert "[PASS] s1.txt J=(1, 0, 0): direct vs reduction path" in out
    assert "3 passed, 1 failed" in out
    assert main(["verify", "main", str(p), "--j", "1,0,0", "--json"]) == 1
    direct = json.loads(capsys.readouterr().out)["checks"][0]
    assert direct == {"name": "s1.txt J=(1, 0, 0): direct vs suspension shift",
                      "status": "fail", "expected": "H~3 = Z",
                      "actual": "H~3 = Z, but the orientation check failed",
                      "location": "maingen"}


MUTATIONS = ["none", "reorient", "flip", "drop", "extra", "degree"]


@st.composite
def direct_models(draw):
    """(mutation, orientation, cc, CK, shift): the direct model of a random
    K with m <= 6 and sum(J) <= 3, either as built or with one fault in its
    boundary columns.  A fault other than a reoriented cell may break
    d o d = 0, which the constructor refuses, so it goes into a copy of the
    model whose columns are replaced."""
    K = draw(drawn_complexes(max_m=6))
    J = draw(small_j(K.m, total=3))
    orientation, cc = direct_smash_model(K, J)
    CK = simplicial_chain_complex(K)
    mutation = draw(st.sampled_from(MUTATIONS))
    if mutation != "none":
        assume(cc.columns)  # K has a vertex: some boundary to break
    columns = {n: [list(col) for col in cols] for n, cols in cc.columns.items()}
    entries = [(n, c, k) for n, cols in columns.items()
               for c, col in enumerate(cols) for k in range(len(col))]
    if mutation == "reorient":
        cell = draw(st.sampled_from(sorted(orientation)))
        cc = reorient(cc, cell)
    elif mutation in ("flip", "drop"):
        n, c, k = draw(st.sampled_from(entries))
        r, v = columns[n][c][k]
        if mutation == "flip":
            columns[n][c][k] = (r, -v)
        else:
            del columns[n][c][k]
    elif mutation == "extra":
        free = [(n, c, r) for n, cols in columns.items() for c, col in enumerate(cols)
                for r in sorted(set(range(cc.rank(n - 1))) - {i for i, _ in col})]
        assume(free)
        n, c, r = draw(st.sampled_from(free))
        columns[n][c].append((r, draw(st.sampled_from([1, -1]))))
    elif mutation == "degree":
        del columns[draw(st.sampled_from(sorted(columns)))]
    if mutation not in ("none", "reorient"):
        cc = copy(cc)
        cc.columns = columns
    return mutation, orientation, cc, CK, sum(J) + 1


@settings(max_examples=300, deadline=None)
@given(direct_models())
def test_orientation_check_matches_the_entry_dict_reference(case):
    # the column check and the frozen SparseIntMatrix check decide alike;
    # every mutated model is rejected, every model as built accepted
    mutation, *args = case
    held = orientation_holds(*args)
    assert held == orientation_reference.orientation_holds(*args)
    assert held == (mutation == "none")


def test_quotient_is_shifted_simplicial_complex_of_kj(full_corpus):
    # the reduction route at chain level: the cubical quotient over K(J) is
    # the library's C(K(J)) shifted up by one, matrix for matrix, under the
    # bijection cube cell with no 2s <-> face
    corpus = dict(full_corpus, empty=empty_complex(2))
    for name, K in corpus.items():
        for J in j_vectors(K.m):
            KJ, _ = double_iterated(K, J)
            model = reduction_path_model(K, J)
            quot = quotient_outer_boundary(KJ)
            assert quot.bases == {
                n: [("cube", face_of_mask(f, KJ.m), ()) for f in faces]
                for n, faces in model.bases.items()
            }, (name, J)
            for n in quot.bases:
                assert quot.boundary(n) == model.boundary(n), (name, J, n)


def test_quotient_collapses_the_full_cubical_complex(full_corpus):
    # the quotient is taken from a genuine chain complex: drop from the full
    # cubical complex every cell with a coordinate at 2 (and the augmentation,
    # which the basepoint absorbs), orient the survivors by (-1)^|face|, and
    # the matrices are those of quotient_outer_boundary
    corpus = dict(full_corpus, empty=empty_complex(2))
    for name, K in corpus.items():
        if K.m > 4:
            continue
        full = cubical_reference.chain_complex(K)
        quot = quotient_outer_boundary(K)
        kept = {
            n: [i for i, lab in enumerate(labs) if lab[0] == "cube" and not lab[2]]
            for n, labs in full.bases.items()
        }
        assert quot.bases == {
            n: [full.bases[n][i] for i in ix] for n, ix in kept.items() if ix
        }, name
        for n in quot.bases:
            rows = {i: r for r, i in enumerate(kept.get(n - 1, ()))}
            cols = {j: c for c, j in enumerate(kept[n])}
            # a degree n survivor is a face of cardinality n, so reorienting
            # both ends multiplies each entry by (-1)^n (-1)^(n-1) = -1
            collapsed = {
                (rows[i], cols[j]): -v
                for (i, j), v in full.boundary(n).entries.items()
                if i in rows and j in cols
            }
            assert quot.boundary(n).entries == collapsed, (name, n)


def test_verify_main_small_cases(two_points, triangle_boundary):
    r = verify_main(two_points, (0, 0))
    assert r.passed
    r = verify_main(triangle_boundary, (1, 1, 1))
    assert r.passed
    assert len(r.checks) == 4


def test_verify_main_checks_dd_once_per_distinct_complex(named_corpus, monkeypatch):
    # each complex is checked once, when it is built: C(K), the direct model
    # and the quotient over K(J), which is C(K(J)) built shifted by one; and
    # homology checks nothing
    cases = [
        (K, J)
        for K in named_corpus.values()
        for J in ((0,) * K.m, (1,) + (0,) * (K.m - 1))
    ]
    expected = [
        [simplicial_chain_complex(K).bases,
         direct_smash_model(K, J)[1].bases,
         reduction_path_model(K, J).bases]
        for K, J in cases
    ]
    checked = []
    check_dd_zero = ChainComplex.check_dd_zero

    def recording(cc):
        checked.append(cc.bases)
        return check_dd_zero(cc)

    monkeypatch.setattr(ChainComplex, "check_dd_zero", recording)
    for (K, J), bases in zip(cases, expected):
        checked.clear()
        assert verify_main(K, J).passed, (K, J)
        assert checked == bases, (K, J)


def test_expected_homology_shift(triangle_boundary):
    H = expected_homology(triangle_boundary, (1, 0, 2))
    assert sorted(H) == [5]
    assert group(H, 5).betti == 1


def test_reduction_path_sphere(two_points):
    H = homology(reduction_path_model(two_points, (2, 1)))
    assert sorted(H) == [4] and group(H, 4).betti == 1


def test_models_agree_on_random(random_corpus):
    K = random_corpus[0]
    J = tuple(1 if i % 2 else 0 for i in range(K.m))
    _, cc = direct_smash_model(K, J)
    assert homology(cc) == expected_homology(K, J)


def test_assemble_degree_check_survives_optimize():
    # the check must raise, not assert, so that it also runs under python -O
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    code = textwrap.dedent(
        """
        from polysmash.chains import MalformedComplexError
        from cubical_reference import assemble

        labels = [("v", 0), ("e", 1), ("t", 2)]
        try:
            assemble(labels, lambda lab: {"v": 1} if lab == "t" else {})
        except MalformedComplexError as e:
            print("raised:", e)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:"), proc.stdout


def test_vertices_in_no_facet_cost_no_masks():
    # an m header far above K's vertices: one mask of up to m bits for each
    # vertex 1..m made the peak grow as m^2, 27 MB for C(K) and 56 MB for
    # K(J)'s levels at this m.  Masks are built only for the vertices in a
    # facet, so what is left grows linearly: J, the parity list and the
    # ends of K(J)'s blocks, under a megabyte here
    m = 20_000
    K = from_facets(m, [(1, 2)])
    J = (1,) + (0,) * (m - 1)
    tracemalloc.start()
    try:
        assert K.faces() == [(), (1,), (2,), (1, 2)]
        CK = simplicial_chain_complex(K)
        assert not homology(CK)
        orientation, cc = direct_smash_model(K, J)
        assert orientation_holds(orientation, cc, CK, 2)
        levels, total = doubled_face_levels(K, J)
        assert total == m + 1
        assert sum(map(len, levels.values())) == doubled_face_count(K, J)
        assert not homology(reduction_path_model(K, J))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
