"""Smash-product cell models: cell counts, the orientation and quotient
identities, both model paths."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from polysmash import smashmodel
from polysmash.chains import (
    ChainComplex,
    HomologyGroup,
    homology,
    simplicial_chain_complex,
)
from polysmash.cli import main
from polysmash.complexes import double_iterated, empty_complex
from polysmash.smashmodel import (
    direct_smash_model,
    expected_homology,
    orientation_holds,
    reduction_path_model,
    verify_main,
)

import cubical_reference
from cubical_reference import quotient_outer_boundary
from test_acceptance import j_vectors


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


def test_cubical_boundary_dd_zero(two_points, triangle_boundary):
    # d o d = 0 is checked when the complex is built; the (D^1, S^0)
    # polyhedral products here are the boundary of the square and of the cube
    cc = cubical_reference.chain_complex(two_points)
    assert cc.dd_checked
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
            # bijection: face cell <-> all-zeros cube cell, same sorted order
            assert len(direct_cc.bases[d]) == len(quot_cc.bases[d]), (name, d)
            da = [lab[1] for lab in direct_cc.bases[d]]
            db = [lab[1] for lab in quot_cc.bases[d]]
            assert da == db, (name, d)
        for d in direct_cc.boundaries:
            assert direct_cc.boundary(d).entries == quot_cc.boundary(d).entries, (
                name,
                d,
            )


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
    """Negate one basis cell of degree n: its column of d_n and its row of
    d_{n+1}, so that d o d stays zero."""
    n = next(d for d, labels in cc.bases.items() if cell in labels)
    i = cc.bases[n].index(cell)
    for d, at in ((n, 1), (n + 1, 0)):
        M = cc.boundaries.get(d)
        for key in M.entries if M else ():
            if key[at] == i:
                M.entries[key] = -M.entries[key]
    return cc


def test_reoriented_cell_fails_the_orientation_check(
    triangle_boundary, tmp_path, monkeypatch, capsys
):
    J = (1, 0, 0)
    orientation, cc = direct_smash_model(triangle_boundary, J)
    reorient(cc, ("face", (1,)))
    cc.check_dd_zero()  # still a chain complex, with the same homology
    CK = simplicial_chain_complex(triangle_boundary)
    assert not orientation_holds(orientation, cc, CK, sum(J) + 1)

    model = smashmodel.direct_smash_model

    def reoriented(K, J):
        orientation, cc = model(K, J)
        return orientation, reorient(cc, ("face", (1,)))

    monkeypatch.setattr(smashmodel, "direct_smash_model", reoriented)
    p = tmp_path / "s1.txt"
    p.write_text("1 2\n1 3\n2 3\n")
    assert main(["verify", "main", str(p), "--j", "1,0,0"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] s1.txt J=(1, 0, 0): direct vs suspension shift" in out
    # the failed check runs the model's own SNF, which still agrees
    assert "[PASS] s1.txt J=(1, 0, 0): direct vs reduction path" in out
    assert "3 passed, 1 failed" in out


def test_quotient_is_shifted_simplicial_complex_of_kj(full_corpus):
    # the reduction route at chain level: the cubical quotient over K(J) is
    # the library's C(K(J)) shifted up by one, matrix for matrix, under the
    # bijection cube cell with no 2s <-> face
    corpus = dict(full_corpus, empty=empty_complex(2))
    for name, K in corpus.items():
        for J in j_vectors(K.m):
            model = reduction_path_model(K, J)
            quot = quotient_outer_boundary(double_iterated(K, J)[0])
            assert quot.bases == {
                n: [("cube", f, ()) for f in faces] for n, faces in model.bases.items()
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
    # a passing orientation and d o d = 0 on C(K) imply it on the direct
    # model, so only C(K) and the quotient over K(J) are checked
    cases = [
        (K, J)
        for K in named_corpus.values()
        for J in ((0,) * K.m, (1,) + (0,) * (K.m - 1))
    ]
    expected = [
        [simplicial_chain_complex(K).bases, reduction_path_model(K, J).bases]
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
    assert H.group(5).betti == 1


def test_reduction_path_sphere(two_points):
    H = homology(reduction_path_model(two_points, (2, 1)))
    assert sorted(H) == [4] and H.group(4).betti == 1


def test_models_agree_on_random(random_corpus):
    K = random_corpus[0]
    J = tuple(1 if i % 2 else 0 for i in range(K.m))
    _, cc = direct_smash_model(K, J)
    assert homology(cc) == expected_homology(K, J)


def test_assemble_degree_check_survives_optimize():
    # the check must raise, not assert, so that it also runs under python -O
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent(
        """
        from polysmash.chains import MalformedComplexError
        from polysmash.smashmodel import _assemble

        labels = [("v", 0), ("e", 1), ("t", 2)]
        try:
            _assemble(labels, lambda lab: {"v": 1} if lab == "t" else {})
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
    assert proc.stdout.startswith("raised:"), proc.stdout
