"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Verdict lines are collected in conftest and echoed in the terminal summary,
so a full run always shows exactly eight pass/fail lines.
"""

import random
import time
from fractions import Fraction as F

from polysmash.chains import homology, simplicial_chain_complex
from polysmash.complexes import (
    double,
    from_facets,
    simplex_boundary,
)
from polysmash.exactlin import smith_normal_form
from polysmash.geomjoin import (
    standard_config,
    verify_gji,
    verify_gjs,
    verify_W_union,
)
from polysmash.smashmodel import (
    direct_smash_model,
    expected_homology,
    reduction_path_model,
    verify_main,
)

from chains_reference import face_of_mask
from cubical_reference import quotient_outer_boundary
from maps_views import (
    eval_psi,
    eval_psi_inverse,
    naturality_check_k0,
    simplex_grid,
    unit_grid,
)
from relabel_reference import facet_equal_upto_relabel
from test_exactlin import from_dense, random_dense, snf_oracle


import conftest


def verdict(num, passed, text):
    mark = "PASS" if passed else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"[{mark}] criterion {num}: {text}")
    assert passed, f"criterion {num}: {text}"


def j_vectors(m):
    """At least 5 distinct J per complex, always including all-zero and
    all-one; the others keep the total at or below 5."""
    out = [(0,) * m, (1,) * m]
    out.append((min(5, m + 1),) + (0,) * (m - 1))
    out.append((0,) * (m - 1) + (2,))
    if m >= 2:
        out.append((2, 1) + (0,) * (m - 2))
    else:
        out.append((3,))
        out.append((4,))
    seen = []
    for J in out:
        if J not in seen:
            seen.append(J)
    return seen


def test_criterion_1_three_way_agreement(full_corpus):
    ok = True
    slowest = 0.0
    cases = 0
    for name, K in full_corpus.items():
        js = j_vectors(K.m)
        assert len(js) >= 5, name
        for J in js:
            t0 = time.perf_counter()
            report = verify_main(K, J)
            dt = time.perf_counter() - t0
            slowest = max(slowest, dt)
            cases += 1
            if not report.passed or dt >= 10:
                ok = False
    verdict(
        1,
        ok,
        f"three-way model agreement on {cases} (K, J) cases "
        f"(slowest {slowest:.2f}s)",
    )


def test_criterion_2_doubling_fixtures():
    ok = True
    # two-point complex, double vertex 1: {1a 1b}, {1a 2}, {1b 2}
    K = from_facets(2, [(1,), (2,)])
    D, _ = double(K, 1)
    ok &= D.facets == frozenset({(1, 3), (1, 2), (2, 3)})
    # edge {1,2} plus isolated 3, double vertex 2: {1 2a 2b}, {2a 3}, {2b 3}
    K = from_facets(3, [(1, 2), (3,)])
    D, _ = double(K, 2)
    ok &= D.facets == frozenset({(1, 2, 4), (2, 3), (3, 4)})
    # triangle boundary, double vertex 1: {1a 1b 2}, {1a 1b 3}, {1a 2 3}, {1b 2 3}
    K = simplex_boundary(2)
    D, _ = double(K, 1)
    ok &= D.facets == frozenset({(1, 2, 4), (1, 3, 4), (1, 2, 3), (2, 3, 4)})
    ok &= facet_equal_upto_relabel(D, simplex_boundary(3)) is not None
    verdict(2, bool(ok), "vertex-doubling facet fixtures reproduced exactly")


def test_criterion_3_doubling_shifts_homology(full_corpus):
    ok = True
    checked = 0
    for name, K in full_corpus.items():
        H = homology(simplicial_chain_complex(K))
        for i in range(1, K.m + 1):
            D, _ = double(K, i)
            HD = homology(simplicial_chain_complex(D))
            eq = HD == H.shifted(1)
            checked += 1
            if not eq:
                ok = False
    verdict(3, ok, f"doubling shifts reduced homology by one ({checked} cases)")


def test_criterion_4_chain_level_identity(full_corpus):
    ok = True
    for name, K in full_corpus.items():
        _, direct_cc = direct_smash_model(K, (0,) * K.m)
        quot_cc = quotient_outer_boundary(K)
        if sorted(direct_cc.bases) != sorted(quot_cc.bases):
            ok = False
            continue
        for d in direct_cc.bases:
            da = [face_of_mask(f, K.m) for f in direct_cc.bases[d]]
            db = [lab[1] for lab in quot_cc.bases[d]]
            if da != db:
                ok = False
        for d in set(direct_cc.boundaries) | set(quot_cc.boundaries):
            if direct_cc.boundary(d).entries != quot_cc.boundary(d).entries:
                ok = False
    verdict(4, ok, "J = 0 direct and cubical-quotient boundary matrices identical")


def test_criterion_5_torsion_sensitivity(rp2):
    J = (1,) * 6
    _, cc = direct_smash_model(rp2, J)
    direct = homology(cc)
    reduced = homology(reduction_path_model(rp2, J))
    expected = {8: "Z/2"}
    got = {n: str(g) for n, g in direct.items()}
    ok = got == expected and dict(reduced) == dict(direct)
    verdict(5, ok, f"projective-plane model homology is exactly {got}")


def test_criterion_6_geometry_suite(full_corpus):
    t0 = time.perf_counter()
    ok = True
    for m in (1, 2, 3):
        for k in (0, 1, 2):
            cfg = standard_config(m, k)
            ok &= verify_gji(cfg, range(1, m + 1)).passed
            for size in range(1, m + 1):
                ok &= verify_gjs(cfg, tuple(range(1, size + 1))).passed
    small = {n: K for n, K in full_corpus.items() if K.m <= 3}
    for k in (1, 2):
        for name, K in small.items():
            cfg = standard_config(K.m, k)
            ok &= verify_W_union(cfg, K).passed
    dt = time.perf_counter() - t0
    ok = bool(ok) and dt < 60
    verdict(6, ok, f"joinability, tiling, and carrier checks (m<=3, k<=2) in {dt:.1f}s")


def test_criterion_7_map_identities():
    ok = True
    for n in range(1, 5):
        grid = simplex_grid(n, 8)
        for x in grid:
            ok &= eval_psi(n, x, F(1, 2)) == tuple(x)
            ok &= max(eval_psi(n, x, 1)) == 2
            for lam in unit_grid(8):
                if lam == 0:
                    continue
                ok &= eval_psi_inverse(n, eval_psi(n, x, lam)) == (tuple(x), lam)
    for l in range(1, 5):
        for p in range(1, l + 1):
            samples = [
                (x, lam) for x in simplex_grid(p, 4) for lam in unit_grid(4)
            ]
            ok &= naturality_check_k0(p, l, samples).passed
    verdict(7, bool(ok), "cube reparametrization and naturality identities on grids")


def test_criterion_8_kernel_oracles(full_corpus):
    ok = True
    rng = random.Random(2024)
    for _ in range(200):
        dense = random_dense(rng, rng.randint(1, 8), rng.randint(1, 8))
        got = smith_normal_form(from_dense(dense))
        if list(got.factors) != snf_oracle(dense):
            ok = False
    for name, K in full_corpus.items():
        for J in j_vectors(K.m):
            _, cc = direct_smash_model(K, J)
            cc.check_dd_zero()
            reduction_path_model(K, J).check_dd_zero()
            chi = cc.euler()
            if chi != (-1) ** (sum(J) + 1) * K.euler_reduced():
                ok = False
    verdict(8, ok, "SNF oracle agreement, d o d = 0, and the Euler identity")
