"""Command-line surface: complex file parsing, homology and model commands,
verification batches, machine-readable reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input,
3 internal error (a failed d o d = 0 check, divisibility chain of invariant
factors, exact-LP status, exact division or standard-configuration fact).

main() may be called any number of times in one process.  It builds its
argument parser once, at its first call, and each call parses into a fresh
namespace, so it prints and returns what it would in a fresh process, also
after a call that exited through SystemExit.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from math import comb
from pathlib import Path

from . import complexes as cxm
from .chains import MalformedComplexError, homology, simplicial_chain_complex
from .complexes import SimplicialComplex, double_iterated, from_facets, random_complex
from .exactlin import InvariantError
from .geomjoin import standard_config, verify_gji, verify_gjs, verify_maps, verify_W_union
from .report import VerificationReport
from .smashmodel import (
    direct_smash_model,
    expected_homology,
    reduction_path_model,
    verify_main,
)


class ParseError(ValueError):
    pass


def parse_complex_text(text, source="<input>") -> SimplicialComplex:
    """Text format: an optional 'm=<int>' header, given at most once, one
    facet per line as space separated positive integers, '#' comments, blank
    lines ignored, a single 'empty' line for the complex {empty face}."""
    m = None
    facets = []
    is_empty = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("m="):
            if m is not None:
                raise ParseError(f"{source}:{lineno}: repeated header {line!r}")
            try:
                m = int(line[2:])
            except ValueError:
                raise ParseError(f"{source}:{lineno}: bad header {line!r}")
            if m < 1:
                raise ParseError(f"{source}:{lineno}: m must be >= 1, got {m}")
            continue
        if line == "empty":
            is_empty = True
            continue
        try:
            facet = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"{source}:{lineno}: bad facet line {line!r}")
        if any(v < 1 for v in facet):
            raise ParseError(f"{source}:{lineno}: vertices must be positive")
        facets.append(facet)
    if is_empty and facets:
        raise ParseError(f"{source}: 'empty' mixed with facet lines")
    if is_empty or not facets:
        return cxm.empty_complex(m or 1)
    if m is None:
        m = max(v for f in facets for v in f)
    try:
        return from_facets(m, facets)
    except ValueError as e:
        raise ParseError(f"{source}: {e}")


def _no_repeated_keys(pairs):
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def parse_complex_json(text, source="<input>") -> SimplicialComplex:
    try:
        data = json.loads(text, object_pairs_hook=_no_repeated_keys)
        m, facets = data["m"], [tuple(f) for f in data["facets"]]
        for x in (m, *chain.from_iterable(facets)):
            if type(x) is not int:  # bool is an int subclass: refuse it too
                raise ValueError(f"{x!r} is not an integer")
        return from_facets(m, facets)
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{source}: bad JSON complex: {e}")


def load_complex(path) -> SimplicialComplex:
    p = Path(path)
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"{path}: {e}")
    if p.suffix == ".json":
        return parse_complex_json(text, source=str(path))
    return parse_complex_text(text, source=str(path))


def write_complex_json(K: SimplicialComplex, rename, out):
    """Write {"m", "facets", "names"} for K and its {label: name} rename as
    json.dump(..., indent=2) would, facets sorted by size then lexically:
    one facet and one name at a time, so neither list is held whole."""
    out.write(f'{{\n  "m": {K.m},\n  "facets": [')
    sep = "\n    "
    for f in sorted(K.facets, key=lambda t: (len(t), t)):
        out.write(sep + ("[\n      " + ",\n      ".join(map(str, f)) + "\n    ]" if f else "[]"))
        sep = ",\n    "
    out.write('\n  ],\n  "names": {')
    sep = "\n    "
    for v in sorted(rename):
        out.write(f"{sep}{json.dumps(str(v))}: {json.dumps(rename[v])}")
        sep = ",\n    "
    out.write("\n  }\n}")


def parse_j(text, m):
    """J from comma- or space-separated integers; an empty comma-separated
    field is refused, not skipped."""
    fields = text.split(",")
    if any(not f.strip() for f in fields):
        raise ParseError(f"bad J vector {text!r}: empty field")
    try:
        J = tuple(int(x) for f in fields for x in f.split())
    except ValueError:
        raise ParseError(f"bad J vector {text!r}")
    if len(J) != m:
        raise ParseError(f"J has length {len(J)}, complex has m={m}")
    if any(j < 0 for j in J):
        raise ParseError("J entries must be >= 0")
    return J


def j_samples(m, jmax):
    """Deterministic J sample: all-zero, all-one, concentrated and mixed
    vectors with sum <= jmax (all-one included regardless)."""
    out = [(0,) * m, (1,) * m]
    if jmax >= 1:
        out.append((jmax,) + (0,) * (m - 1))
        out.append((0,) * (m - 1) + (jmax,))
    if m >= 2 and jmax >= 3:
        v = [0] * m
        v[0], v[1] = 2, 1
        out.append(tuple(v))
    return list(dict.fromkeys(out))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_homology(args):
    K = load_complex(args.input)
    _check_k_budget(K)
    H = homology(simplicial_chain_complex(K))
    if args.json:
        payload = {
            "m": K.m,
            "homology": {
                str(n): {"betti": g.betti, "torsion": list(g.torsion)}
                for n, g in sorted(H.items())
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        if not H:
            print("all reduced homology zero")
        for n in sorted(H):
            print(f"H~{n} = {H[n]}")
    return 0


def cmd_double(args):
    K = load_complex(args.input)
    if args.i is not None:
        D, rename = cxm.double(K, args.i)
    else:
        J = parse_j(args.j, K.m)
        _check_label_budget(K, J)
        D, rename = double_iterated(K, J)
    if args.json:
        write_complex_json(D, rename, sys.stdout)
        print()
    else:
        print(f"m={D.m}")
        for f in sorted(D.facets, key=lambda t: (len(t), t)):
            print(" ".join(rename[v] for v in f))
    return 0


def cmd_smash(args):
    K = load_complex(args.input)
    J = parse_j(args.j, K.m) if args.j is not None else (0,) * K.m
    if args.path == "direct":
        _check_k_budget(K)  # the model has K's faces
        _, cc = direct_smash_model(K, J)
        H = homology(cc)
    else:
        _check_kj_budget(K, J)
        H = homology(reduction_path_model(K, J))
    expected = expected_homology(K, J)
    if args.json:
        payload = {
            "path": args.path,
            "J": list(J),
            "model": {str(n): str(g) for n, g in sorted(H.items())},
            "expected": {str(n): str(g) for n, g in sorted(expected.items())},
            "agree": H == expected,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"model ({args.path}):  {H}")
        print(f"expected (shift {sum(J) + 1}): {expected}")
        print("agree" if H == expected else "DISAGREE")
    return 0 if H == expected else 1


def _corpus(path):
    p = Path(path)
    if p.is_dir():
        files = sorted(
            f for f in p.iterdir() if f.suffix in (".txt", ".json") and f.is_file()
        )
        if not files:
            raise ParseError(f"{path}: no complex files")
        return [(f.name, load_complex(f)) for f in files]
    return [(p.name, load_complex(p))]


def _verify_main_batch(args, report):
    cases = [(name, K, J) for name, K in _corpus(args.input)
             for J in ([parse_j(args.j, K.m)] if args.j is not None
                       else j_samples(K.m, args.jmax))]
    # every case is bounded before the first one is built
    for _, K, J in cases:
        _check_kj_budget(K, J)
    for name, K, J in cases:
        sub = verify_main(K, J)
        for c in sub.checks:
            c.name = f"{name} J={J}: {c.name}"
        report.extend(sub)


def _verify_geometry(args, report):
    for m in range(1, args.m + 1):
        for k in range(0, args.k + 1):
            cfg = standard_config(m, k)
            full = tuple(range(1, m + 1))
            report.extend(verify_gji(cfg, full))
            for size in range(1, m + 1):
                sigma = tuple(range(1, size + 1))
                report.extend(verify_gjs(cfg, sigma))
            corpus = [cxm.empty_complex(m), cxm.full_simplex(m - 1)]
            if m >= 2:
                corpus.append(from_facets(m, [(i,) for i in range(1, m + 1)]))
            if m >= 3:
                corpus.append(cxm.simplex_boundary(m - 1))
            for K in corpus:
                report.extend(verify_W_union(cfg, K))
    report.extend(verify_maps(args.grid))


def _check_at_least(*bounds):
    """Reject an integer option below its least value as bad input."""
    for flag, value, least in bounds:
        if value < least:
            raise ParseError(f"{flag} must be >= {least}, got {value}")


def _refuse_over(budget, count, formula, prefix, suffix):
    """Refuse, as bad input, a closed-form count over its budget.  Past the
    budget, or its bit length, in a parameter, a lower bound of the count is
    over: the count is then not formed (None) and is named by formula."""
    if count is None or count > budget:
        shown = formula if count is None else count
        raise ParseError(f"{prefix} {shown} {suffix}, over the budget of {budget}; refused")


# The reduction route holds about 600 bytes per face of K(J): verify_main on
# the projective plane at J = 2^6 builds 257,936 faces in 2.6-3.1 s and peaks
# at 173 MB RSS, 156 MB above the 17 MB of the interpreter with the library
# loaded (three runs, Python 3.11, 2 vCPUs).  A million faces is then about
# 600 MB and 10-12 s, four times the largest case the repository runs.
KJ_FACE_BUDGET = 1_000_000


def _kj_face_count(K, J=()):
    """(count, formula): K(J)'s faces, K's own for J = (), or None when a j_i,
    sum(J) or a facet of K passes the budget's bit length, and then formula
    names a lower bound that is over: 2^(j_i + 1) - 1, block i's faces, or
    2^max(|sigma|, sum(J)), as K's facet sigma has 2^|sigma| faces and at
    least 2^sum(J) faces of K(J) hold no block whole."""
    j, s, d = max(J, default=0), sum(J), max(map(len, K.facets))
    bits = KJ_FACE_BUDGET.bit_length()
    if j > bits or d >= bits or s > bits:
        count = None
    elif J:
        count = cxm.doubled_face_count(K, J)
    else:  # K's face levels, which C(K) is built on, with no length-m J
        count = sum(map(len, cxm.face_levels(K).values()))
    return count, f"at least 2^{j + 1} - 1" if j > bits else f"at least 2^{max(d, s)}"


def _check_kj_budget(K, J):
    """Refuse a J whose K(J) has more faces than the budget, before it is
    built or K's faces are walked."""
    _refuse_over(KJ_FACE_BUDGET, *_kj_face_count(K, J), f"K(J) at J={J} has", "faces")


def _check_k_budget(K):
    """Refuse a K with more faces than the budget, counted on K's face
    levels, and a facet past the budget's bit length before they are
    walked: K(0) is K, so K is refused as K(0) would be and named as K."""
    _refuse_over(KJ_FACE_BUDGET, *_kj_face_count(K), "K has", "faces")


# polysmash double holds K(J)'s facets and their names, and writes them a
# facet at a time: the projective plane at J = 16^6 writes 4,863,870 labels
# (49 MB of JSON) and peaks at 65 MB RSS, as text or with --json, about
# 10 bytes a label above the interpreter's 17 MB.  Ten million labels is
# then about 100 MB held and 100 MB printed.
LABEL_BUDGET = 10_000_000


def _check_label_budget(K, J):
    """Refuse a J whose K(J) has more facet labels to print than the budget;
    the count is at least each j_i and 2^(number of nonzero j_i off any facet)."""
    j = max(J, default=0)
    e = sum(map(bool, J)) - min(sum(J[v - 1] > 0 for v in f) for f in K.facets)
    over = j > LABEL_BUDGET or e > LABEL_BUDGET.bit_length()
    count = None if over else cxm.doubled_label_count(K, J)
    _refuse_over(LABEL_BUDGET, count, f"at least {j if j > LABEL_BUDGET else f'2^{e}'}",
                 f"K(J) at J={J} has", "labels in its facets")


# verify geometry's largest W-union is A(K) * S_[m] at its last m and k, K
# the full simplex: K's 2^m faces, the empty one included, times the
# (2^(k+1) - 1)^m faces of the join of m boundaries of k-simplices, whose
# chain complex the w2 check builds.  Its facets, m (k + 1)^m at most, do not
# predict the cost: --m 2 --k 7 has 128 facets and 260,100 faces and took
# 20.4 s with a peak of 279 MB RSS, --m 3 --k 4 375 facets and 238,328 faces,
# 22.0 s and 253 MB, --m 2 --k 8 1,044,484 faces, 85 s and 1.15 GB: about
# 85 us a face.  Since chain complexes share their entries, --m 4 --k 2
# (38,416 faces) peaks at 38 MB and --m 2 --k 6 --grid 1 (64,516) at 52 MB,
# about 570 bytes a face above the interpreter's 17 MB (three runs each,
# Python 3.11, 2 vCPUs), so 100,000 faces is about 9 s and 75 MB.
GEOMETRY_FACE_BUDGET = 100_000


def _check_geometry_budget(m, k):
    """Refuse a sweep whose largest W-union, (2^(k+2) - 2)^m faces, is over the
    budget, before anything is built; the count is at least 2^m and 2^(k+1)."""
    fits = max(m, k + 1) <= GEOMETRY_FACE_BUDGET.bit_length()
    if m:
        _refuse_over(GEOMETRY_FACE_BUDGET, (2 ** (k + 2) - 2) ** m if fits else None,
                     f"(2^{k + 2} - 2)^{m}",
                     f"verify geometry at --m {m} --k {k} builds a W-union of", "faces")


# verify_maps runs, for n = 1..4, a round trip per lam > 0 of the grid on each
# of the C(grid + n, n) - 1 compositions of a d <= grid into n parts.  So
# counted, `verify geometry --m 0 --grid G` as a process took 0.47-0.48 s at
# G = 16 (95,680 checks), 1.5-1.6 s at 24 (569,904) and 5.0-5.9 s at 31
# (1,825,900), about 3 us a check (two rounds of medians of 3 runs, CPython
# 3.11, 2 vCPUs); two million is about 6 s, and 32 (2,113,280) is over.
MAP_CHECK_BUDGET = 2_000_000


def _check_grid_budget(grid):
    """Refuse a --grid with more map checks than the budget, before any runs;
    the count is at least grid^2."""
    fits = grid <= MAP_CHECK_BUDGET
    count = grid * sum(comb(grid + n, n) - 1 for n in range(1, 5)) if fits else None
    _refuse_over(MAP_CHECK_BUDGET, count, f"{grid} * sum_(n=1..4) (C({grid} + n, n) - 1)",
                 f"verify geometry --grid {grid} runs", "map checks")


# gen draws sum_{t <= max_dim + 1} C(m, t) candidate faces per complex and
# minimalizes them through complexes._maximal, a few int ANDs per candidate:
# at density 1, --m 223 --max-dim 1 (24,976 candidates) and --m 20
# --max-dim 4 (21,699) each take 0.5 s as a process, so 25,000 is about 1 s.
CANDIDATE_BUDGET = 25_000


def _check_candidate_budget(m, max_dim):
    """Refuse a gen draw of more candidates than the budget, before any; the
    count is at least m and 2^s - 1."""
    s = min(max_dim + 1, m)
    fits = m <= CANDIDATE_BUDGET and s <= CANDIDATE_BUDGET.bit_length()
    count = sum(comb(m, t) for t in range(1, s + 1)) if fits else None
    _refuse_over(CANDIDATE_BUDGET, count, f"sum_(t=1..{s}) C({m}, t)",
                 f"gen --m {m} --max-dim {max_dim} draws", "candidate faces per complex")


# per verify mode, the options only it reads, {name: (default, least value)};
# verify all reads both sets
VERIFY_OPTIONS = {
    "main": {"j": (None, None), "jmax": (3, 0)},
    "geometry": {"m": (2, 0), "k": (1, 0), "grid": (8, 1)},
}


def cmd_verify(args):
    if args.what in ("main", "all") and not args.input:
        raise ParseError("verify main requires a complex file or corpus directory")
    if args.what == "geometry" and args.input:
        raise ParseError("verify geometry runs a fixed sweep and reads no complex "
                         "file; verify main or verify all checks one")
    # an option of the mode not run is refused, not ignored
    for mode, options in VERIFY_OPTIONS.items():
        if args.what in (mode, "all"):
            for name, (default, least) in options.items():
                if getattr(args, name) is None:
                    setattr(args, name, default)
                if least is not None:
                    _check_at_least((f"--{name}", getattr(args, name), least))
        elif given := [f"--{name}" for name in options if getattr(args, name) is not None]:
            raise ParseError(f"verify {args.what} does not read {', '.join(given)}; "
                             f"verify {mode} and verify all do")
    if args.what in ("geometry", "all"):
        _check_geometry_budget(args.m, args.k)
        _check_grid_budget(args.grid)
    report = VerificationReport(f"verify {args.what}")
    if args.what in ("main", "all"):
        _verify_main_batch(args, report)
    if args.what in ("geometry", "all"):
        _verify_geometry(args, report)
    report.finish()
    if args.json:
        print(report.to_json())
    else:
        print(report)
    return 0 if report.passed else 1


def cmd_gen(args):
    _check_at_least(("--m", args.m, 1), ("--max-dim", args.max_dim, 0),
                    ("--count", args.count, 0))
    _check_candidate_budget(args.m, args.max_dim)
    try:
        density = Fraction(args.density)
    except ZeroDivisionError:
        raise ParseError(f"--density {args.density!r} has a zero denominator")
    if not 0 <= density <= 1:
        raise ParseError(f"--density must be in [0, 1], got {args.density}")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for idx in range(args.count):
            K = random_complex(args.m, args.max_dim, density, args.seed + idx)
            lines = [f"# seed {args.seed + idx}", f"m={K.m}"]
            facets = sorted(K.facets, key=lambda t: (len(t), t))
            if facets == [()]:
                lines.append("empty")
            else:
                lines += [" ".join(map(str, f)) for f in facets]
            (out / f"random_{args.seed + idx}.txt").write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise ParseError(f"--out {args.out}: {e}")
    print(f"wrote {args.count} complexes to {out}")
    return 0


@cache
def build_parser():
    """The argument parser, built at the first call and shared by every
    later one.

    set_defaults(fn=cmd_*) binds each command's handler when the parser is
    built, so a cmd_* function replaced afterwards is not seen; the helpers
    the handlers call, such as load_complex, are looked up at call time.
    """
    ap = argparse.ArgumentParser(
        prog="polysmash",
        description="Exact homology models of polyhedral smash products of "
        "disks and spheres, with geometric-join verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="reduced homology of a complex file")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("double", help="vertex doubling K -> K(J_i) or K(J)")
    p.add_argument("input")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--i", type=int, help="double a single vertex")
    g.add_argument("--j", help="iterated doubling budget, e.g. 1,0,2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_double)

    p = sub.add_parser("smash", help="smash-product model homology vs expectation")
    p.add_argument("input")
    p.add_argument("--j", help="dimension vector, e.g. 1,1,1 (default all zero)")
    p.add_argument("--path", choices=["direct", "reduction"], default="direct")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_smash)

    p = sub.add_parser("verify", help="run verification batches")
    p.add_argument("what", choices=["main", "geometry", "all"])
    p.add_argument("input", nargs="?", help="complex file or corpus dir (main, all)")
    p.add_argument("--j", help="verify a single dimension vector")
    p.add_argument("--jmax", type=int)
    p.add_argument("--m", type=int, help="geometry: max m (0: the map checks only)")
    p.add_argument("--k", type=int, help="geometry: max k")
    p.add_argument("--grid", type=int, help="geometry: grid denominator")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate a random complex corpus")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--density", required=True, help="rational in [0,1], e.g. 1/2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None):
    ap = build_parser()
    args, extra = ap.parse_known_args(argv)
    # argparse binds verify's optional input at the first run of
    # positionals, so a path after the options comes back unparsed
    if args.command == "verify" and args.input is None and extra \
            and not extra[0].startswith("-"):
        args.input = extra.pop(0)
    if extra:
        ap.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (MalformedComplexError, InvariantError, RuntimeError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
