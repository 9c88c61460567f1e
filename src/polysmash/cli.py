"""Command-line surface: complex file parsing, homology and model commands,
verification batches, machine-readable reports.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 bad input,
3 internal error (a failed d o d = 0 check, a broken divisibility chain of
invariant factors, or an exact-LP status or exact-division check).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain
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
        return from_facets(m, facets or [()])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{source}: bad JSON complex: {e}")


def load_complex(path) -> SimplicialComplex:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ParseError(f"{path}: {e}")
    if p.suffix == ".json":
        return parse_complex_json(text, source=str(path))
    return parse_complex_text(text, source=str(path))


def complex_to_json(K: SimplicialComplex, rename=None):
    data = {
        "m": K.m,
        "facets": [list(f) for f in sorted(K.facets, key=lambda t: (len(t), t))],
    }
    if rename is not None:
        data["names"] = {str(v): rename.name(v) for v in sorted(rename.names)}
    return data


def parse_j(text, m):
    try:
        J = tuple(int(x) for x in text.replace(",", " ").split())
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
    seen = []
    for J in out:
        if J not in seen:
            seen.append(J)
    return seen


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_homology(args):
    K = load_complex(args.input)
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
        D, rename = double_iterated(K, J)
    if args.json:
        print(json.dumps(complex_to_json(D, rename), indent=2))
    else:
        print(f"m={D.m}")
        for f in sorted(D.facets, key=lambda t: (len(t), t)):
            print(" ".join(rename.name(v) for v in f))
    return 0


def cmd_smash(args):
    K = load_complex(args.input)
    J = parse_j(args.j, K.m) if args.j else (0,) * K.m
    if args.path == "direct":
        _, cc = direct_smash_model(K, J)
        H = homology(cc)
    else:
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
    for name, K in _corpus(args.input):
        if args.j:
            js = [parse_j(args.j, K.m)]
        else:
            js = j_samples(K.m, args.jmax)
        for J in js:
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


def cmd_verify(args):
    if args.what in ("main", "all"):
        _check_at_least(("--jmax", args.jmax, 0))
    if args.what in ("geometry", "all"):
        _check_at_least(("--m", args.m, 0), ("--k", args.k, 0), ("--grid", args.grid, 1))
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


def build_parser():
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
    p.add_argument("input", nargs="?", help="complex file or corpus dir (main)")
    p.add_argument("--j", help="verify a single dimension vector")
    p.add_argument("--jmax", type=int, default=3)
    p.add_argument("--m", type=int, default=2,
                   help="geometry: max m (0: the map checks only)")
    p.add_argument("--k", type=int, default=1, help="geometry: max k")
    p.add_argument("--grid", type=int, default=8, help="geometry: grid denominator")
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
    if args.command == "verify" and args.what in ("main", "all") and not args.input:
        print("verify main requires a complex file or corpus directory",
              file=sys.stderr)
        return 2
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
