"""CLI surface: file formats, exit codes, JSON determinism, internal errors."""

import argparse
import io
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from hashlib import sha256
from pathlib import Path

import pytest

from polysmash.cli import (
    CANDIDATE_BUDGET,
    GEOMETRY_FACE_BUDGET,
    KJ_FACE_BUDGET,
    LABEL_BUDGET,
    MAP_CHECK_BUDGET,
    ParseError,
    load_complex,
    main,
    parse_complex_text,
    parse_j,
    write_complex_json,
)
from polysmash import cli, exactlin, geomjoin, smashmodel
from polysmash import complexes as cxm
from polysmash.chains import ChainComplex, HomologyGroup
from polysmash.complexes import double, from_facets
from polysmash.exactlin import InvariantError, SmithForm

from complexes_reference import complex_to_json
from conftest import RP2_FACETS

# sha256 of `verify main --json --jmax 3` on the corpus of `gen --m 4
# --max-dim 3 --density 1/2 --seed 7 --count 4` plus RP^2 as rp2.txt, without
# wall_time, as json.dumps(report, indent=2); recorded while homology still ran
# Smith normal form on every full boundary matrix
MAIN_M4_DIGEST = "cfe63bdd61db19f8208299e35de1f2090cf930b30c0b3d777bb492f3075233ac"

# sha256 of `verify geometry --m 2 --k 2 --json` without wall_time, as
# json.dumps(report, indent=2); recorded before the frame and fraction-free
# LP kernels, so any later speed-up must keep the report byte-identical
GEOMETRY_M2_K2_DIGEST = "d8c2cdb6e471e6c860925975ccc9882dfb40f1e2ec8551a005cf4c31fe66bdcb"

# sha256 of `verify geometry --m 3 --k 1 --json` without wall_time, as
# json.dumps(report, indent=2); recorded while the standard configuration
# still lived on Fraction points
GEOMETRY_M3_K1_DIGEST = "cb607edc477105cf3838f4021dd6f74b54216c384c3a5763cd1457794e12aa05"

# sha256 of `verify geometry --m 3 --k 2 --json` without wall_time, as
# json.dumps(report, indent=2): the end-to-end geometry sweep, recorded
# while each verifier still decided the configuration's facts per call
GEOMETRY_M3_K2_DIGEST = "f9aae37234ef7c685791e9d29e2a1ec6747871a96e8a3e88b1cc0fdac983f57d"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_text_format():
    K = parse_complex_text("# comment\nm=3\n1 2\n2 3  # trailing\n\n")
    assert K == from_facets(3, [(1, 2), (2, 3)])
    K = parse_complex_text("1 2\n")
    assert K.m == 2
    E = parse_complex_text("empty\n")
    assert E.facets == frozenset({()})
    E2 = parse_complex_text("m=4\nempty\n")
    assert E2.m == 4


def test_parse_text_errors():
    with pytest.raises(ParseError, match=":2"):
        parse_complex_text("m=3\n1 x 2\n")
    with pytest.raises(ParseError):
        parse_complex_text("m=x\n")
    with pytest.raises(ParseError):
        parse_complex_text("0 1\n")
    with pytest.raises(ParseError):
        parse_complex_text("empty\n1 2\n")
    with pytest.raises(ParseError):
        parse_complex_text("m=2\n1 3\n")
    with pytest.raises(ParseError, match=r"^<input>:2: repeated header 'm=5'$"):
        parse_complex_text("m=3\nm=5\n1 2\n")


@pytest.mark.parametrize("header", ["m=0", "m=-3"])
@pytest.mark.parametrize("body", ["", "empty\n", "1 2\n"])
def test_parse_text_rejects_header_below_one(header, body):
    with pytest.raises(ParseError, match=rf"^k\.txt:2: m must be >= 1, got {header[2:]}$"):
        parse_complex_text(f"# header\n{header}\n{body}", source="k.txt")


def test_load_json_complex(tmp_path):
    p = write(tmp_path, "k.json", '{"m": 3, "facets": [[1,2],[2,3]]}')
    assert load_complex(p) == from_facets(3, [(1, 2), (2, 3)])
    bad = write(tmp_path, "bad.json", '{"facets": [[1]]}')
    with pytest.raises(ParseError):
        load_complex(bad)


@pytest.mark.parametrize("text", [
    '{"m": 2.5, "facets": [[1, 2]]}',
    '{"m": true, "facets": [[1]]}',
    '{"m": 3, "facets": [[1.0, 2]]}',
    '{"m": 3, "facets": [[true, 2]]}',
])
def test_json_complex_rejects_non_integers(text, tmp_path, capsys):
    p = write(tmp_path, "k.json", text)
    with pytest.raises(ParseError, match="is not an integer"):
        load_complex(p)
    assert main(["double", p, "--i", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_json_complex_rejects_a_repeated_key(tmp_path, capsys):
    # the last value used to win: this loaded as m = 5
    p = write(tmp_path, "k.json", '{"m": 3, "m": 5, "facets": [[1, 2]]}')
    with pytest.raises(ParseError, match="repeated key 'm'"):
        load_complex(p)
    assert main(["homology", p]) == 2
    captured = capsys.readouterr()
    assert "repeated key 'm'" in captured.err and captured.out == ""


def test_parse_j():
    assert parse_j("1,0,2", 3) == (1, 0, 2)
    assert parse_j("1 0 2", 3) == (1, 0, 2)
    with pytest.raises(ParseError):
        parse_j("1,2", 3)
    with pytest.raises(ParseError):
        parse_j("1,-1,0", 3)


@pytest.mark.parametrize("text", ["1,,0", ",1,0", "1,0,", ",1,0,", "1, ,0", ""])
def test_parse_j_refuses_an_empty_field(text, tmp_path, capsys):
    # the empty field used to be skipped, so "1,,0" ran J = (1, 0); an empty
    # --j ran J = 0 in smash and the whole J sample in verify
    with pytest.raises(ParseError, match="empty field"):
        parse_j(text, 2)
    p = write(tmp_path, "s0.txt", "m=2\n1\n2\n")
    for argv in (["smash", p, "--j", text], ["double", p, "--j", text],
                 ["verify", "main", p, "--j", text]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "empty field" in captured.err
    for text in ("1,0", "1, 0", "1 0"):
        assert parse_j(text, 2) == (1, 0)


def test_complex_to_json_with_names():
    K = from_facets(2, [(1,), (2,)])
    D, rename = double(K, 1)
    data = complex_to_json(D, rename)
    assert data["names"] == {"1": "1a", "2": "2", "3": "1b"}
    # double --json writes a facet at a time the text the encoder gives for
    # the whole dict, also for the empty facet and labels past 9
    cases = [(K, (1, 0)), (from_facets(1, [()]), (0,)),
             (from_facets(3, [(1, 2), (3,)]), (2, 0, 3)),
             (from_facets(6, RP2_FACETS), (2, 0, 1, 0, 3, 1))]
    for K, J in cases:
        D, rename = cxm.double_iterated(K, J)
        out = io.StringIO()
        write_complex_json(D, rename, out)
        assert out.getvalue() == json.dumps(complex_to_json(D, rename), indent=2), (K, J)


def test_homology_command(tmp_path, capsys):
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    assert main(["homology", p]) == 0
    assert capsys.readouterr().out.strip() == "H~1 = Z"
    e = write(tmp_path, "empty.txt", "empty\n")
    assert main(["homology", e]) == 0
    assert capsys.readouterr().out.strip() == "H~-1 = Z"


def test_homology_json(tmp_path, capsys):
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    assert main(["homology", p, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["homology"] == {"1": {"betti": 1, "torsion": []}}


def test_malformed_exits_2(tmp_path, capsys):
    p = write(tmp_path, "bad.txt", "1 oops\n")
    assert main(["homology", p]) == 2
    assert ":1" in capsys.readouterr().err
    assert main(["homology", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_double_command(tmp_path, capsys):
    p = write(tmp_path, "s0.txt", "m=2\n1\n2\n")
    assert main(["double", p, "--i", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "m=3"
    assert set(out[1:]) == {"1a 2", "1a 1b", "2 1b"}


def test_double_json_names(tmp_path, capsys):
    p = write(tmp_path, "s0.txt", "m=2\n1\n2\n")
    assert main(["double", p, "--j", "1,0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["m"] == 3
    assert data["names"] == {"1": "1a", "2": "2", "3": "1b"}


def test_smash_paths_agree(tmp_path, capsys):
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    for path in ["direct", "reduction"]:
        assert main(["smash", p, "--j", "1,1,1", "--path", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["agree"]
        assert data["model"] == {"5": "Z"}
    # J = 0 by default: what the former cubical path printed
    for path in [[], ["--path", "reduction"]]:
        assert main(["smash", p, *path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model"] == data["expected"] == {"2": "Z"}
        assert data["agree"] is True


def test_smash_bad_j_exits_2(tmp_path, capsys):
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    assert main(["smash", p, "--j", "1,1"]) == 2
    capsys.readouterr()


def test_smash_path_cubical_is_rejected(tmp_path, capsys):
    # the cubical quotient is --path reduction at J = 0; argparse refuses it
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["smash", p, "--path", "cubical"])
    assert exc.value.code == 2
    assert "invalid choice: 'cubical'" in capsys.readouterr().err


def test_verify_corpus_exit_0(tmp_path, capsys):
    write(tmp_path, "a.txt", "1 2\n1 3\n2 3\n")
    write(tmp_path, "b.txt", "m=2\n1\n2\n")
    assert main(["verify", "main", str(tmp_path), "--jmax", "2"]) == 0
    capsys.readouterr()


def test_undecodable_complex_file_is_named(tmp_path, capsys):
    write(tmp_path, "a.txt", "1 2\n1 3\n2 3\n")
    bad = tmp_path / "b.txt"
    bad.write_bytes(b"1 2\n\xff\n")
    for argv in (["homology", str(bad)], ["verify", "main", str(tmp_path)]):
        assert main(argv) == 2
        assert f"error: {bad}: " in capsys.readouterr().err


def test_verify_requires_input(capsys):
    assert main(["verify", "main"]) == 2
    capsys.readouterr()


def test_verify_geometry_refuses_an_input(tmp_path, capsys):
    # the geometry sweep reads no complex: a path, there or not, is refused
    # rather than ignored
    p = write(tmp_path, "a.txt", "1 2\n")
    for path in (p, str(tmp_path / "missing.txt")):
        for argv in (["verify", "geometry", path, "--m", "1", "--k", "0"],
                     ["verify", "geometry", "--m", "1", "--k", "0", path]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert not captured.out
            assert "verify main" in captured.err and "verify all" in captured.err


def test_verify_input_refusals_print_error(tmp_path, capsys):
    # both refusals carry the error: prefix of every other exit 2
    p = write(tmp_path, "a.txt", "1 2\n")
    for argv in (["verify", "main"], ["verify", "all", "--json"],
                 ["verify", "geometry", p]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error: verify "), argv


def test_model_over_the_face_budget_is_refused_before_any_build(tmp_path, monkeypatch,
                                                                capsys):
    # jmax 20 samples J = (20, 0, ..., 0): 44,040,182 faces of K(J), refused
    # by their closed-form count before the first case builds any model
    p = write(tmp_path, "rp2.txt", "\n".join(" ".join(map(str, f)) for f in RP2_FACETS))

    def no_build(*args):
        raise AssertionError("a model was built")

    for name in ("doubled_face_levels", "simplicial_chain_complex", "direct_smash_model"):
        monkeypatch.setattr(smashmodel, name, no_build)
    monkeypatch.setattr(cxm, "double_iterated", no_build)
    refusal = (f"error: K(J) at J=(20, 0, 0, 0, 0, 0) has 44040182 faces, "
               f"over the budget of {KJ_FACE_BUDGET}; refused\n")
    for argv in (["verify", "main", p, "--jmax", "20"],
                 ["verify", "main", p, "--j", "20,0,0,0,0,0", "--json"],
                 ["smash", p, "--j", "20,0,0,0,0,0", "--path", "reduction"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == refusal, argv


def test_a_facet_over_the_face_budget_is_refused_before_k_is_walked(tmp_path, monkeypatch,
                                                                    capsys):
    # K(J) has at least the 2^30 faces of K's facet, so neither K nor K(J) is
    # walked: the check compares the facet with the budget's bit length.
    # homology and the direct model are bounded as K(0), which is K, and
    # their refusal names K, not a J the user may not have given
    p = write(tmp_path, "simplex.txt", " ".join(map(str, range(1, 31))) + "\n")

    def no_walk(*args):
        raise AssertionError("K's faces were walked")

    monkeypatch.setattr(cxm, "_walk_levels", no_walk)
    J = ", ".join(["0"] * 30)
    over = f"has at least 2^30 faces, over the budget of {KJ_FACE_BUDGET}; refused\n"
    for argv, name in ((["verify", "main", p, "--j", ",".join(["0"] * 30)], f"K(J) at J=({J})"),
                       (["verify", "main", p, "--jmax", "3", "--json"], f"K(J) at J=({J})"),
                       (["smash", p, "--path", "reduction"], f"K(J) at J=({J})"),
                       (["smash", p], "K"),
                       (["smash", p, "--path", "direct", "--json"], "K"),
                       (["smash", p, "--path", "direct", "--j", "1" + ",0" * 29], "K"),
                       (["homology", p], "K"),
                       (["homology", p, "--json"], "K")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"error: {name} {over}", argv


def test_a_huge_m_header_costs_homology_nothing_of_length_m(tmp_path, capsys):
    # a header m far above K's vertices: the face budget counts K on its
    # face levels and C(K) is assembled with no per-vertex sign, so nothing
    # of length m is formed; a tuple or list of m ints alone is 8 MB here
    p = write(tmp_path, "wide.txt", "m=1000000\n1 2\n")
    tracemalloc.start()
    try:
        assert main(["homology", p]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "all reduced homology zero\n"
    assert peak < 4_000_000, peak


def test_a_verify_main_case_walks_k_once_and_never_k_of_j(tmp_path, monkeypatch, capsys):
    # the budget's count, C(K), the direct model, K(J)'s levels by the wedge
    # rule and the Euler identity all read K's one walk; K(J) is neither
    # built nor walked, and the next call loads and walks a fresh K
    p = write(tmp_path, "rp2.txt", "\n".join(" ".join(map(str, f)) for f in RP2_FACETS))
    walked = []
    walk = cxm._walk_levels

    def counting(K):
        walked.append(K.m)
        return walk(K)

    def no_build(*args):
        raise AssertionError("K(J) was built")

    monkeypatch.setattr(cxm, "_walk_levels", counting)
    monkeypatch.setattr(cxm, "double_iterated", no_build)
    assert main(["verify", "main", p, "--j", "1,0,2,0,0,1"]) == 0
    assert "4 passed, 0 failed" in capsys.readouterr().out
    assert walked == [6]
    assert main(["smash", p, "--path", "reduction", "--j", "1,1,1,1,1,1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "model (reduction):  H~8 = Z/2"
    assert walked == [6, 6]


def test_face_budget_admits_the_largest_case_the_repository_runs():
    # the projective plane at J = 2^6: 257,936 faces, built in the scale runs
    cli._check_kj_budget(from_facets(6, RP2_FACETS), (2,) * 6)
    with pytest.raises(ParseError, match="over the budget"):
        cli._check_kj_budget(from_facets(6, RP2_FACETS), (3,) * 6)


def test_a_huge_j_is_refused_by_formula_without_forming_its_count(tmp_path, monkeypatch,
                                                                  capsys):
    # past the budget's bit length in a j_i, 2^(j_i + 1) - 1 faces of block
    # i alone are over; the count itself, 6,000 digits at j = 20,000, is not
    # formed, and printed it would fail Python's integer string conversion
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    j = "7" * 3000
    cases = [
        (["verify", "main", p, "--j", "20000,0,0"], "20000", "at least 2^20001 - 1 faces",
         KJ_FACE_BUDGET),
        (["verify", "main", p, "--jmax", "20000"], "20000", "at least 2^20001 - 1 faces",
         KJ_FACE_BUDGET),
        (["smash", p, "--path", "reduction", "--j", "20000,0,0"], "20000",
         "at least 2^20001 - 1 faces", KJ_FACE_BUDGET),
        (["double", p, "--j", f"{j},0,0"], j, f"at least {j} labels in its facets",
         LABEL_BUDGET),
    ]
    for argv, j1, shown, budget in cases:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (f"error: K(J) at J=({j1}, 0, 0) has {shown}, over the "
                                f"budget of {budget}; refused\n"), argv

    def no_count(*args):
        raise AssertionError("the count was formed")

    monkeypatch.setattr(cxm, "doubled_face_count", no_count)
    monkeypatch.setattr(cxm, "doubled_label_count", no_count)
    j = 10 ** 9
    for argv, shown in [(["verify", "main", p, "--j", f"{j},0,0"], f"2^{j + 1} - 1 faces"),
                        (["double", p, "--j", f"{j},0,0"], f"{j} labels in its facets")]:
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: K(J) at J=({j}, 0, 0) has "
                                                  f"at least {shown}, over the budget"), argv


def test_a_long_j_is_refused_by_its_bound_without_forming_its_count(tmp_path, monkeypatch,
                                                                   capsys):
    # at m = 30,000 with the facet {1, 2}, the all-ones J gives K(J) at least
    # 2^sum(J) faces, as each block outside a face's whole blocks takes one of
    # 3 >= 2 proper subsets, and at least 2^29,998 labels, as the facet gives
    # 2 facets per block outside it.  Neither count is formed: each has over
    # 4,300 digits, which Python's integer string conversion refuses to print
    m = 30000
    p = write(tmp_path, "wide.txt", f"m={m}\n1 2\n")
    J = (1,) * m
    over = "over the budget of {}; refused\n"
    faces = f"error: K(J) at J={J} has at least 2^{m} faces, " + over.format(KJ_FACE_BUDGET)
    labels = (f"error: K(J) at J={J} has at least 2^{m - 2} labels in its facets, "
              + over.format(LABEL_BUDGET))
    # the all-zero sample, K's 4 faces, is counted and admitted first
    assert main(["verify", "main", p, "--jmax", "1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err == faces

    def no_count(*args):
        raise AssertionError("the count was formed")

    monkeypatch.setattr(cxm, "doubled_face_count", no_count)
    monkeypatch.setattr(cxm, "doubled_label_count", no_count)
    ones = ",".join(["1"] * m)
    for argv, refusal in [(["verify", "main", p, "--j", ones], faces),
                          (["smash", p, "--path", "reduction", "--j", ones], faces),
                          (["double", p, "--j", ones], labels)]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err == refusal, argv[:2]


def test_double_over_the_label_budget_is_refused_before_any_build(tmp_path, monkeypatch,
                                                                 capsys):
    # the projective plane at J = 40^6 would print 167,478,030 labels,
    # counted in closed form before K(J) is built; 16^6, the measured case,
    # is admitted
    p = write(tmp_path, "rp2.txt", "\n".join(" ".join(map(str, f)) for f in RP2_FACETS))

    def no_build(*args):
        raise AssertionError("K(J) was built")

    monkeypatch.setattr(cli, "double_iterated", no_build)
    refusal = (f"error: K(J) at J=(40, 40, 40, 40, 40, 40) has 167478030 labels in its "
               f"facets, over the budget of {LABEL_BUDGET}; refused\n")
    for argv in (["double", p, "--j", "40,40,40,40,40,40"],
                 ["double", p, "--j", "40,40,40,40,40,40", "--json"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == refusal, argv
    cli._check_label_budget(from_facets(6, RP2_FACETS), (16,) * 6)


def test_geometry_sweep_over_the_face_budget_is_refused_before_any_build(
        tmp_path, monkeypatch, capsys):
    # the largest W-union of --m 3 --k 4 has 238,328 faces, counted in closed
    # form before any configuration is built; past the budget's bit length in
    # m or k + 1 the count is named by its formula, not formed
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")

    def no_build(*args):
        raise AssertionError("the sweep was run")

    monkeypatch.setattr(cli, "standard_config", no_build)
    monkeypatch.setattr(cli, "verify_main", no_build)
    for argv, shown in [
        (["verify", "geometry", "--m", "3", "--k", "4"], "238328"),
        (["verify", "geometry", "--m", "2", "--k", "8", "--json"], "1044484"),
        (["verify", "all", p, "--m", "3", "--k", "4"], "238328"),
        (["verify", "geometry", "--m", "100", "--k", "1"], "(2^3 - 2)^100"),
        (["verify", "geometry", "--m", "2", "--k", "100"], "(2^102 - 2)^2"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        m, k = argv[argv.index("--m") + 1], argv[argv.index("--k") + 1]
        assert captured.err == (f"error: verify geometry at --m {m} --k {k} builds a "
                                f"W-union of {shown} faces, over the budget of "
                                f"{GEOMETRY_FACE_BUDGET}; refused\n"), argv


def test_geometry_face_budget_admits_the_sweeps_the_repository_runs():
    # the pinned and benchmarked sweeps, the ROADMAP's --m 4 --k 1, and the
    # largest measured below the budget, --m 2 --k 6 (64,516 faces)
    for m, k in [(0, 9), (2, 2), (3, 1), (3, 2), (4, 1), (2, 6)]:
        cli._check_geometry_budget(m, k)
    with pytest.raises(ParseError, match="over the budget"):
        cli._check_geometry_budget(2, 7)


def test_grid_over_the_map_check_budget_is_refused_before_any_check(tmp_path, monkeypatch,
                                                                    capsys):
    # the map checks grow as grid^5: --grid 32 counts 2,113,280 of them, about
    # 10.5 s; past the budget in grid the count is named by its formula

    def no_maps(*args):
        raise AssertionError("the map checks ran")

    monkeypatch.setattr(cli, "verify_maps", no_maps)
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    big = 10 ** 900
    for grid, shown in [(32, "2113280"), (100, "478022500"),
                        (big, f"{big} * sum_(n=1..4) (C({big} + n, n) - 1)")]:
        for what in ("geometry", "all"):
            argv = ["verify", what, "--m", "0", "--grid", str(grid)]
            if what == "all":
                argv += [p, "--jmax", "0"]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert not captured.out
            assert captured.err == (f"error: verify geometry --grid {grid} runs {shown} map "
                                    f"checks, over the budget of {MAP_CHECK_BUDGET}; "
                                    f"refused\n"), argv


def test_map_check_budget_admits_the_grids_the_repository_runs():
    for grid in (1, 2, 4, 8, 16, 31):
        cli._check_grid_budget(grid)
    with pytest.raises(ParseError, match="over the budget"):
        cli._check_grid_budget(32)


@pytest.mark.parametrize("m, k", [(1, 0), (1, 2), (2, 1), (3, 1)])
def test_geometry_face_count_is_the_largest_union_the_sweep_builds(m, k, monkeypatch,
                                                                   capsys):
    # with the budget one below the largest union's faces, empty face
    # included, the sweep is refused and the message names that count
    faces = []
    union = geomjoin.EmbeddedComplex.union.__func__

    def counted(cls, parts):
        out = union(cls, parts)
        faces.append(sum(map(len, out.chain_complex().bases.values())))
        return out

    monkeypatch.setattr(geomjoin.EmbeddedComplex, "union", classmethod(counted))
    argv = ["verify", "geometry", "--m", str(m), "--k", str(k), "--grid", "1"]
    assert main(argv) == 0
    capsys.readouterr()
    largest = max(faces)
    assert largest == (2 ** (k + 2) - 2) ** m
    monkeypatch.setattr(cli, "GEOMETRY_FACE_BUDGET", largest - 1)
    assert main(argv) == 2
    assert f"a W-union of {largest} faces" in capsys.readouterr().err


@pytest.mark.parametrize("what, options", [
    ("main", ["--jmax", "2", "--json"]),
    ("all", ["--jmax", "1", "--m", "1", "--k", "0", "--grid", "1", "--json"]),
])
def test_verify_reads_the_input_before_or_after_the_options(what, options, tmp_path,
                                                            capsys):
    write(tmp_path, "a.txt", "1 2\n1 3\n2 3\n")
    reports = []
    for argv in (["verify", what, str(tmp_path), *options],
                 ["verify", what, *options, str(tmp_path)]):
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        data.pop("wall_time")
        reports.append(data)
    assert reports[0] == reports[1]
    assert any(c["name"].startswith("a.txt J=") for c in reports[0]["checks"])
    # a second path is still refused, in either place
    for argv in (["verify", what, str(tmp_path), *options, "extra"],
                 ["verify", what, *options, str(tmp_path), "extra"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: extra" in capsys.readouterr().err


def test_verify_json_deterministic(tmp_path, capsys):
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    outputs = []
    for _ in range(2):
        assert main(["verify", "main", p, "--j", "1,0,0", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        data.pop("wall_time")
        outputs.append(json.dumps(data, sort_keys=True))
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[0])
    assert all(c["status"] == "pass" for c in data["checks"])
    assert all(c["location"] for c in data["checks"])


def one_sign_flipped(assemble):
    """smashmodel._assemble with one wrong Leibniz sign on a complex on three
    vertices: the face (2,) in the boundary of the edge (1, 2), vertex v at
    bit 3 - v.  The flipped columns go through the constructor, so the fault
    is in place before the d o d check.  Only the direct model's call, the
    one with an odd vertex, is flipped; C(K(J)) is built as it was."""

    def flipped(levels, odd, shift):
        cc = assemble(levels, odd, shift)
        if not odd:
            return cc
        n = shift + 1
        c, r = cc.bases[n].index(0b110), cc.bases[n - 1].index(0b010)
        columns = dict(cc.columns)
        cols = columns[n] = list(columns[n])
        cols[c] = [(i, -v if i == r else v) for i, v in cols[c]]
        return ChainComplex(cc.bases, columns)

    return flipped


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    # one wrong Leibniz sign breaks d o d = 0: a program fault, not bad input
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    monkeypatch.setattr(smashmodel, "_assemble", one_sign_flipped(smashmodel._assemble))
    assert main(["verify", "main", p, "--j", "1,0,0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "o d" in err
    assert main(["verify", "main", p, "--j", "1,0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_smash_direct_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    # the same wrong sign on the smash command's direct path
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    monkeypatch.setattr(smashmodel, "_assemble", one_sign_flipped(smashmodel._assemble))
    assert main(["smash", p, "--j", "1,0,0", "--path", "direct"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("internal error:") and "o d" in captured.err
    assert main(["smash", p, "--j", "1,0,0", "--path", "reduction"]) == 0
    capsys.readouterr()


def test_internal_error_exits_3_under_optimize(tmp_path):
    # d o d = 0 is checked by a raise, not an assert, so the wrong sign is
    # still caught when python -O strips asserts
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    tests = Path(__file__).resolve().parent
    code = textwrap.dedent(
        f"""
        import sys
        from polysmash import cli, smashmodel
        from test_cli import one_sign_flipped

        smashmodel._assemble = one_sign_flipped(smashmodel._assemble)
        sys.exit(cli.main(["verify", "main", {p!r}, "--j", "1,0,0"]))
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("internal error:") and "o d" in proc.stderr


def test_invariant_failure_exits_3(tmp_path, monkeypatch, capsys):
    # a broken divisibility chain is a program fault, not bad input
    for bad in (lambda: SmithForm((2, 3), 2), lambda: HomologyGroup(0, (4, 2))):
        with pytest.raises(InvariantError):
            bad()
    p = write(tmp_path, "rp2.txt", "\n".join(" ".join(map(str, f)) for f in RP2_FACETS))
    fix = exactlin._fix_divisibility
    monkeypatch.setattr(exactlin, "_fix_divisibility", lambda d: fix(d)[::-1])
    assert main(["homology", p]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "divisibility" in err


def test_geometry_report_is_pinned(capsys):
    assert main(["verify", "geometry", "--m", "2", "--k", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    data.pop("wall_time")
    digest = sha256(json.dumps(data, indent=2).encode()).hexdigest()
    assert digest == GEOMETRY_M2_K2_DIGEST


def test_geometry_m3_k1_report_is_pinned(capsys):
    assert main(["verify", "geometry", "--m", "3", "--k", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    data.pop("wall_time")
    digest = sha256(json.dumps(data, indent=2).encode()).hexdigest()
    assert digest == GEOMETRY_M3_K1_DIGEST


def test_geometry_m3_k2_report_is_pinned(capsys):
    assert main(["verify", "geometry", "--m", "3", "--k", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    data.pop("wall_time")
    digest = sha256(json.dumps(data, indent=2).encode()).hexdigest()
    assert digest == GEOMETRY_M3_K2_DIGEST


def test_verify_main_report_is_pinned(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["gen", "--m", "4", "--max-dim", "3", "--density", "1/2",
                 "--seed", "7", "--count", "4", "--out", str(corpus)]) == 0
    write(corpus, "rp2.txt", "\n".join(" ".join(map(str, f)) for f in RP2_FACETS))
    capsys.readouterr()
    assert main(["verify", "main", str(corpus), "--jmax", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    data.pop("wall_time")
    digest = sha256(json.dumps(data, indent=2).encode()).hexdigest()
    assert digest == MAIN_M4_DIGEST


def test_verify_geometry_small(capsys):
    assert main(["verify", "geometry", "--m", "1", "--k", "1", "--grid", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value", [("--grid", "0"), ("--grid", "-2"), ("--m", "-1"), ("--k", "-1")]
)
def test_verify_geometry_rejects_out_of_range_arguments(flag, value, capsys):
    given = {"--m": "1", "--k": "0", "--grid": "2", flag: value}
    argv = ["verify", "geometry"] + [tok for item in given.items() for tok in item]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be >=")


def test_verify_geometry_m0_runs_the_map_checks_only(capsys):
    assert main(["verify", "geometry", "--m", "0", "--grid", "2", "--json"]) == 0
    names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert names and all(n.startswith(("psi", "naturality")) for n in names)


@pytest.mark.parametrize("what, jmax", [("main", "-1"), ("main", "-4"), ("all", "-1")])
def test_verify_rejects_negative_jmax(what, jmax, tmp_path, capsys):
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    assert main(["verify", what, p, "--jmax", jmax]) == 2
    assert capsys.readouterr().err == f"error: --jmax must be >= 0, got {jmax}\n"


@pytest.mark.parametrize("what, options, refused", [
    ("main", ["--jmax", "1", "--grid", "0"], "--grid"),
    ("main", ["--m", "1"], "--m"),
    ("main", ["--j", "1,0,0", "--k", "0", "--grid", "2"], "--k, --grid"),
    ("geometry", ["--m", "1", "--k", "0", "--jmax", "-3", "--j", "5"], "--j, --jmax"),
    ("geometry", ["--m", "0", "--grid", "2", "--jmax", "3"], "--jmax"),
], ids=["main-grid", "main-m", "main-k-grid", "geometry-j-jmax", "geometry-jmax"])
def test_verify_refuses_the_options_of_the_other_mode(what, options, refused, tmp_path,
                                                       capsys):
    # each was ignored with exit 0, so a report looked as if it had run with
    # the option; verify all reads both sets
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    argv = ["verify", what, *([p] if what == "main" else []), *options]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    other = "geometry" if what == "main" else "main"
    assert captured.err == (f"error: verify {what} does not read {refused}; "
                            f"verify {other} and verify all do\n")


@pytest.mark.parametrize(
    "flag, value, least", [("--m", "0", 1), ("--max-dim", "-1", 0), ("--count", "-2", 0)]
)
def test_gen_rejects_out_of_range_arguments(flag, value, least, tmp_path, capsys):
    out = tmp_path / "c"
    given = {"--m": "3", "--max-dim": "1", "--density": "1/2", "--count": "2",
             "--out": str(out), flag: value}
    argv = ["gen"] + [tok for item in given.items() for tok in item]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be >= {least}, got {value}\n"
    assert captured.out == ""
    assert not out.exists()


def test_gen_zero_denominator_density_exits_2(tmp_path, capsys):
    out = tmp_path / "c"
    argv = ["gen", "--m", "3", "--max-dim", "1", "--density", "1/0", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: --density '1/0'")
    assert not out.exists()


@pytest.mark.parametrize("below", [(), ("sub",)])
def test_gen_out_on_a_file_exits_2(below, tmp_path, capsys):
    blocker = tmp_path / "f.txt"
    blocker.write_text("not a directory\n")
    out = blocker.joinpath(*below)
    argv = ["gen", "--m", "3", "--max-dim", "1", "--density", "1/2", "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --out {out}: ")
    assert captured.out == ""
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("density", ["3/2", "-1/2", "2", "-0.25"])
@pytest.mark.parametrize("count", ["2", "0"])
def test_gen_rejects_density_outside_unit_interval(density, count, tmp_path, capsys):
    out = tmp_path / "c"
    argv = ["gen", "--m", "3", "--max-dim", "1", f"--density={density}",
            "--count", count, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --density must be in [0, 1], got {density}\n"
    assert captured.out == ""
    assert not out.exists()


def test_gen_over_the_candidate_budget_is_refused_before_any_draw(tmp_path, monkeypatch,
                                                                  capsys):
    # --m 200 --max-dim 5 would draw 85,010,294,790 candidates per complex;
    # past the budget in m, or its bit length in min(max_dim + 1, m), the
    # count is named by its formula

    def no_draw(*args):
        raise AssertionError("a complex was drawn")

    monkeypatch.setattr(cli, "random_complex", no_draw)
    out = tmp_path / "c"
    for m, max_dim, shown in [(200, 5, "85010294790"), (20, 5, "60459"),
                              (10 ** 6, 0, "sum_(t=1..1) C(1000000, t)"),
                              (100, 10 ** 9, "sum_(t=1..100) C(100, t)")]:
        argv = ["gen", "--m", str(m), "--max-dim", str(max_dim), "--density", "1/2",
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (f"error: gen --m {m} --max-dim {max_dim} draws {shown} "
                                f"candidate faces per complex, over the budget of "
                                f"{CANDIDATE_BUDGET}; refused\n"), argv
        assert not out.exists()


def test_candidate_budget_admits_the_draws_the_repository_runs():
    # the README's and the benchmark's corpus, and the largest timed one
    for m, max_dim in [(3, 1), (4, 3), (5, 3), (6, 3), (20, 4)]:
        cli._check_candidate_budget(m, max_dim)


def test_gen_deterministic(tmp_path, capsys):
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    args = ["gen", "--m", "4", "--max-dim", "2", "--density", "1/2",
            "--seed", "5", "--count", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    names = sorted(f.name for f in out1.iterdir())
    assert names == ["random_5.txt", "random_6.txt"]
    for name in names:
        assert (out1 / name).read_text() == (out2 / name).read_text()
    # the generated corpus must verify clean
    assert main(["verify", "main", str(out1), "--jmax", "1"]) == 0
    capsys.readouterr()


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    # at most one tree of 6 parsers per process, built at the first call
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    per_call = []
    for argv in (["homology", p], ["verify", "main", p, "--j", "1,0,0"],
                 ["double", p, "--i", "1"]):
        assert main(argv) == 0
        per_call.append(len(built))
    capsys.readouterr()
    assert per_call[0] in (0, 6) and per_call[1:] == [per_call[0]] * 2, per_call


def _normalized(out):
    """stdout with a JSON report's wall_time removed."""
    try:
        data = json.loads(out)
    except ValueError:
        return out
    data.pop("wall_time", None)
    return data


def test_main_in_one_process_matches_fresh_processes(tmp_path, capsys):
    # every call of a sequence, also after one that exited through
    # SystemExit, prints and returns what it would in a fresh process
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "s0.txt", "m=2\n1\n2\n")
    write(corpus, "s1.txt", "1 2\n1 3\n2 3\n")
    s0 = str(corpus / "s0.txt")
    verify = ["verify", "main", str(corpus), "--jmax", "1", "--json"]
    argvs = [
        ["homology", s0],
        verify,
        ["verify", "main", "--jmax", "1", "--json", str(corpus)],
        ["smash", s0, "--j", "1,,0"],
        ["double", s0, "--i", "9"],
        ["homology", s0, "--bogus"],
        verify,
    ]
    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, _normalized(captured.out), captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 2, 2, 0]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv, expected in zip(argvs, in_process):
        proc = subprocess.run([sys.executable, "-m", "polysmash.cli", *argv],
                              capture_output=True, text=True, timeout=120, env=env)
        assert (proc.returncode, _normalized(proc.stdout), proc.stderr) == expected, argv
