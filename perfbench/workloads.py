"""The benchmark's workloads: seeded inputs, the program's loaders, the timed
cases and the checks on every output.

Inputs are made here from the workload seed alone; the program sees only
the generated complex files and matrices.  Sizes are chosen so that one pass
takes at most a few seconds on one core, so that each case is repeated
several times in a run and its median taken.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb

# The minimal 6-vertex triangulation of the real projective plane: its
# H~_1 = Z/2 keeps the torsion path and the non-unit SNF pivots live.
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 6), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]

SIZES = {
    # Random complexes as `polysmash gen --m 5 --max-dim 3 --density 1/2`
    # writes them, plus RP^2.  m = 5 rather than 6: the all-ones J on a
    # random 6-vertex complex takes 1.5-3 s, too long to repeat in a run,
    # while RP^2 with J = 1^6 (3,672 cells) keeps the large SNF matrices.
    # With 16 complexes the tail case falls mid-way through their all-ones
    # cases, not on the fastest of them.
    "smash-corpus": {
        "full": {"m": 5, "count": 16, "jmax": 3, "rp2": True},
        "tiny": {"m": 4, "count": 2, "jmax": 1, "rp2": False},
    },
    # The verifiers of `verify geometry --m 3 --k 2` except those at
    # (m, k) = (3, 2), which take 0.1-9 s each: too long to repeat in a run.
    # The seeded extra complex, a random 3-vertex complex with at least two
    # edges, joins the W-union calls at m = 3, k = 1.  There it costs
    # 0.24-0.36 s, always among the ten slowest cases, so its draw does not
    # reorder the cases that case_p50_s and case_tail_s read; complexes with
    # fewer edges cost 0.02-0.14 s and would.
    "geometry": {
        "full": {
            "configs": [[m, k] for m in (1, 2, 3) for k in (0, 1, 2) if (m, k) != (3, 2)],
            "grid": 8,
        },
        "tiny": {"configs": [[1, 1], [2, 1], [3, 1]], "grid": 2},
    },
    # Squares of order 16, 20 and 24 at 10, 15 and 20 % nonzeros, the same
    # number in each cell so that seeds change the matrices, not the mix;
    # plus +-1 rectangles with three nonzeros in every column, shaped like
    # the boundary matrices of 2-faces.  Entries stay within |v| <= 3: with
    # |v| <= 9 the pure kernel's coefficient growth made 4 of 300 random
    # 16-24 squares run past 1 s (one took 48 s).  At seed 7 with a 3 s
    # limit per matrix, 12 of 12 random 40x40 (|v| <= 9, 10 %) and 9 of 12
    # random 60x60 (|v| <= 3, 6 %) ran past it.  The sizes sit below this
    # defect; a workload above it is a change of its own.
    "snf-growth": {
        "full": {"orders": [16, 20, 24], "percents": [10, 15, 20], "per_cell": 60,
                 "vmax": 3, "rect": [100, 120], "rects": 16},
        "tiny": {"orders": [16], "percents": [10], "per_cell": 2,
                 "vmax": 3, "rect": [20, 24], "rects": 1},
    },
}

WORKLOADS = tuple(SIZES)


@dataclass
class Inputs:
    workload: str
    files: dict  # file name -> text, written to the work directory
    data: dict  # JSON-able parameters and matrices

    @property
    def digest(self):
        blob = json.dumps([self.files, self.data], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Case:
    name: str
    run: object  # () -> output
    check: object  # output -> (digest, error or None); cheap, every execution
    audit: object = None  # output -> error or None; once, independent route


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def random_facets(m, max_dim, num, den, seed):
    """The draw of `polysmash gen`: each candidate face of at most max_dim+1
    vertices is kept with probability num/den, then the family is
    minimalized."""
    rng = random.Random(seed)
    gens = [
        cand
        for size in range(1, min(max_dim + 1, m) + 1)
        for cand in combinations(range(1, m + 1), size)
        if rng.randrange(den) < num
    ]
    facets = []
    for f in sorted(gens, key=len, reverse=True):
        if not any(set(f) <= set(g) for g in facets):
            facets.append(f)
    return sorted(facets, key=lambda t: (len(t), t))


def complex_text(m, facets, header):
    lines = [f"# {header}", f"m={m}"]
    lines += [" ".join(map(str, f)) for f in facets] if facets else ["empty"]
    return "\n".join(lines) + "\n"


def j_vectors(m, jmax):
    """The J vectors `verify main --jmax` samples: all-zero, all-one, jmax on
    the first and on the last vertex, and (2, 1, 0, ...) when jmax >= 3."""
    out = [(0,) * m, (1,) * m, (jmax,) + (0,) * (m - 1), (0,) * (m - 1) + (jmax,)]
    if m >= 2 and jmax >= 3:
        out.append((2, 1) + (0,) * (m - 2))
    return list(dict.fromkeys(out))


def generate(workload, seed, size):
    p = SIZES[workload][size]
    rng = random.Random(f"{workload}:{seed}")
    files, data = {}, {"size": p}
    if workload == "smash-corpus":
        for _ in range(p["count"]):
            sub = rng.randrange(2**32)
            facets = random_facets(p["m"], 3, 1, 2, sub)
            files[f"random_{sub}.txt"] = complex_text(p["m"], facets, f"seed {sub}")
        if p["rp2"]:
            files["rp2.txt"] = complex_text(6, RP2_FACETS, "RP^2, 6 vertices")
    elif workload == "geometry":
        while True:
            sub = rng.randrange(2**32)
            facets = random_facets(3, 2, 1, 2, sub)
            if sum(comb(len(f), 2) for f in facets) >= 2:
                break
        files["extra.txt"] = complex_text(3, facets, f"seed {sub}")
    else:
        mats = []
        for n in p["orders"]:
            for percent in p["percents"]:
                for _ in range(p["per_cell"]):
                    mats.append([n, n, _sparse(rng, n, n, percent, p["vmax"])])
        rows, cols = p["rect"]
        for _ in range(p["rects"]):
            mats.append([rows, cols, [
                [i, j, rng.choice((-1, 1))]
                for j in range(cols)
                for i in sorted(rng.sample(range(rows), 3))
            ]])
        data["matrices"] = mats
    return Inputs(workload, files, data)


def _sparse(rng, rows, cols, percent, vmax):
    """Entries [i, j, v] with 0 < |v| <= vmax, each present with percent/100."""
    values = [v for v in range(-vmax, vmax + 1) if v]
    return [
        [i, j, rng.choice(values)]
        for i in range(rows)
        for j in range(cols)
        if rng.randrange(100) < percent
    ]


# ---------------------------------------------------------------------------
# set-up through the program's loaders, and the cases
# ---------------------------------------------------------------------------


def setup(mods, inputs, workdir):
    """Parse the inputs with the program's loaders; returns the cases."""
    return {
        "smash-corpus": _smash_cases,
        "geometry": _geometry_cases,
        "snf-growth": _snf_cases,
    }[inputs.workload](mods, inputs, workdir)


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _check_report_dict(data):
    """Digest of a report without its wall_time; error unless every check passed."""
    data = dict(data)
    data.pop("wall_time", None)
    failed = [c["name"] for c in data["checks"] if c["status"] != "pass"]
    if not data["checks"]:
        return _digest(data), "report has no checks"
    return _digest(data), (f"failed checks: {failed}" if failed else None)


def _check_cli(out):
    code, text = out
    digest, err = _check_report_dict(json.loads(text))
    if code != 0 and err is None:
        err = f"exit code {code}"
    return digest, err


def _check_report(report):
    return _check_report_dict(report.to_dict())


def _smash_cases(mods, inputs, workdir):
    jmax = inputs.data["size"]["jmax"]
    cases = []
    for name in sorted(inputs.files):
        path = workdir / name
        K = mods.cli.load_complex(path)
        for J in j_vectors(K.m, jmax):
            argv = ["verify", "main", str(path), "--j", ",".join(map(str, J)), "--json"]
            cases.append(Case(f"{name} J={J}", partial(_run_cli, mods.cli, argv), _check_cli))
    return cases


def _geometry_cases(mods, inputs, workdir):
    cx, gj = mods.complexes, mods.geomjoin
    p = inputs.data["size"]
    extra = mods.cli.load_complex(workdir / "extra.txt")
    cases = []
    for m, k in p["configs"]:
        cfg = gj.standard_config(m, k)
        full = tuple(range(1, m + 1))
        tag = f"m={m} k={k}"
        cases.append(Case(f"gji {tag}", partial(gj.verify_gji, cfg, full), _check_report))
        for s in range(1, m + 1):
            sigma = tuple(range(1, s + 1))
            cases.append(Case(f"gjs {tag} sigma={sigma}",
                              partial(gj.verify_gjs, cfg, sigma), _check_report))
        corpus = [("empty", cx.empty_complex(m)), ("simplex", cx.full_simplex(m - 1))]
        if m >= 2:
            corpus.append(("points", cx.from_facets(m, [(i,) for i in range(1, m + 1)])))
        if m >= 3:
            corpus.append(("boundary", cx.simplex_boundary(m - 1)))
        if (m, k) == (3, 1):
            corpus.append(("extra", extra))
        for label, K in corpus:
            cases.append(Case(f"W {tag} K={label}",
                              partial(gj.verify_W_union, cfg, K), _check_report))
    # with --m 0 the configuration loop is empty: the psi and naturality
    # map checks alone
    argv = ["verify", "geometry", "--m", "0", "--grid", str(p["grid"]), "--json"]
    cases.append(Case("maps", partial(_run_cli, mods.cli, argv), _check_cli))
    return cases


def _snf_cases(mods, inputs, workdir):
    ex = mods.exactlin
    cases = []
    for idx, (rows, cols, entries) in enumerate(inputs.data["matrices"]):
        M = ex.SparseIntMatrix(rows, cols, {(i, j): v for i, j, v in entries})
        cases.append(Case(
            f"snf #{idx} {rows}x{cols} nnz={len(entries)}",
            partial(_snf, ex, M),
            lambda sf: (_digest(list(sf.factors)), None),
            partial(_audit_snf, ex, M),
        ))
    return cases


def _snf(ex, M):
    # looked up at call time so that the traced run sees its wrapper
    return ex.smith_normal_form(M)


def _audit_snf(ex, M, sf):
    """Rank against exact rational elimination; for square nonsingular
    matrices, the product of the factors against |det|."""
    rank = ex.rank_rational(M)
    if sf.rank != rank or len(sf.factors) != rank:
        return f"SNF rank {sf.rank}, rational rank {rank}"
    if M.rows == M.cols == rank:
        prod = 1
        for d in sf.factors:
            prod *= d
        det = abs(det_fraction(M.rows, M.entries))
        if prod != det:
            return f"product of factors {prod}, |det| {det}"
    return None


def det_fraction(n, entries):
    """Determinant by Gaussian elimination over Fraction."""
    A = [[Fraction(entries.get((i, j), 0)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            A[c], A[p] = A[p], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            if A[r][c]:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det
