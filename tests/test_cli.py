"""CLI surface: file formats, exit codes, JSON determinism, internal errors."""

import json
from hashlib import sha256

import pytest

from polysmash.cli import (
    ParseError,
    complex_to_json,
    load_complex,
    main,
    parse_complex_text,
    parse_j,
)
from polysmash import exactlin, geomjoin, smashmodel
from polysmash.chains import HomologyGroup
from polysmash.complexes import double, from_facets
from polysmash.exactlin import InvariantError, LPResult, SmithForm

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


def test_complex_to_json_with_names():
    K = from_facets(2, [(1,), (2,)])
    D, rename = double(K, 1)
    data = complex_to_json(D, rename)
    assert data["names"] == {"1": "1a", "2": "2", "3": "1b"}


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


def test_verify_requires_input(capsys):
    assert main(["verify", "main"]) == 2
    capsys.readouterr()


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


def test_internal_error_exits_3(tmp_path, monkeypatch, capsys):
    # one wrong Leibniz sign breaks d o d = 0: a program fault, not bad input
    p = write(tmp_path, "s1.txt", "1 2\n1 3\n2 3\n")
    leibniz = smashmodel.direct_boundary

    def one_sign_flipped(sigma, prefix):
        out = leibniz(sigma, prefix)
        if sigma == (1, 2):
            out[("face", (2,))] *= -1
        return out

    monkeypatch.setattr(smashmodel, "direct_boundary", one_sign_flipped)
    assert main(["verify", "main", p, "--j", "1,0,0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "o d" in err
    assert main(["verify", "main", p, "--j", "1,0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_lp_status_failure_exits_3(monkeypatch, capsys):
    # the separating functional declines, so the LP runs on every pair
    monkeypatch.setattr(geomjoin, "_separated", lambda A, B, shared: False)
    monkeypatch.setattr(geomjoin, "lp_max", lambda P: LPResult("unbounded"))
    assert main(["verify", "geometry", "--m", "2", "--k", "1", "--grid", "2"]) == 3
    assert "proper-intersection LP ended 'unbounded'" in capsys.readouterr().err


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
