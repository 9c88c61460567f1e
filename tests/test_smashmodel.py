"""Smash-product cell models: cell counts, boundary signs, both model paths."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from polysmash.chains import homology, homology_equal
from polysmash.complexes import from_facets, simplex_boundary
from polysmash.smashmodel import (
    CellModel,
    cubical_polyprod_model,
    direct_smash_model,
    expected_homology,
    quotient_outer_boundary,
    reduction_path_model,
    verify_main,
)


def test_direct_model_cell_count(triangle_boundary):
    model, cc = direct_smash_model(triangle_boundary, (1, 1, 1))
    # basepoint + one cell per face (7 faces including the empty one)
    assert model.cell_count() == 8
    # dims: empty face at 3, vertices at 4, edges at 5
    assert sorted(cc.bases) == [3, 4, 5]
    assert [len(cc.bases[d]) for d in sorted(cc.bases)] == [1, 3, 3]


def test_direct_model_rejects_bad_j(triangle_boundary):
    with pytest.raises(ValueError):
        direct_smash_model(triangle_boundary, (1, 1))
    with pytest.raises(ValueError):
        direct_smash_model(triangle_boundary, (1, -1, 0))


def test_cubical_model_cell_count(two_points):
    model = cubical_polyprod_model(two_points)
    # faces (), (1), (2) contribute 2^2 + 2 + 2 cells
    assert model.cell_count() == 8


def test_cubical_boundary_dd_zero(triangle_boundary):
    cc = cubical_polyprod_model(triangle_boundary).chain_complex()
    cc.check_dd_zero()
    # the full subspace of the cube here is the boundary of a polytope ball;
    # reduced homology concentrated like S^1 x S^1 minus ... just check chi
    assert cc.euler() == sum(
        (-1) ** d * len(b) for d, b in cc.bases.items()
    )


def test_quotient_matches_direct_at_j_zero(full_corpus):
    # criterion: identical boundary matrices under the label bijection
    for name, K in full_corpus.items():
        if K.m > 4:
            continue
        _, direct_cc = direct_smash_model(K, (0,) * K.m)
        quot_cc = quotient_outer_boundary(cubical_polyprod_model(K))
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


def test_leibniz_orientation(triangle_boundary):
    # the raw Leibniz boundary differs from the normalized one exactly by
    # the orientation sign s(sigma) = (-1)^(sum over i in sigma of j_1+...+j_{i-1})
    J = (1, 2, 1)
    model = CellModel("direct", triangle_boundary, J)
    prefix = [0, 0, 1, 3]  # partial sums of J shifted by one

    def s(sigma):
        return (-1) ** sum(prefix[i] for i in sigma)

    for sigma in triangle_boundary.faces():
        if not sigma:
            continue
        raw = model.leibniz_boundary(sigma)
        normalized = model.boundary(("face", sigma))
        for cell, coeff in normalized.items():
            tau = cell[1]
            assert raw[cell] == coeff * s(sigma) * s(tau), (sigma, tau)


def test_verify_main_small_cases(two_points, triangle_boundary):
    r = verify_main(two_points, (0, 0))
    assert r.passed
    r = verify_main(triangle_boundary, (1, 1, 1))
    assert r.passed
    assert len(r.checks) == 4


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
    eq, _ = homology_equal(homology(cc), expected_homology(K, J))
    assert eq


def test_quotient_requires_cubical(triangle_boundary):
    model, _ = direct_smash_model(triangle_boundary, (0, 0, 0))
    with pytest.raises(ValueError):
        quotient_outer_boundary(model)


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
